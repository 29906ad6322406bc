"""The span/counter recorder at the heart of :mod:`repro.obs`.

One process-wide *current recorder* is consulted by every
instrumented call site (:func:`get_recorder`).  By default it is the
:data:`NULL_RECORDER` — a no-op object whose ``span``/``count`` calls
cost one attribute lookup and one function call, so instrumentation
left in hot paths is free when observation is off.  Installing a real
:class:`Recorder` (directly, via :func:`recording`, or through
``repro.api.configure(observe=...)``) turns the same call sites into
live measurement.

Two primitives:

* **spans** — hierarchical wall + CPU timers.  ``rec.span("analyze")``
  is a context manager; nested spans build a tree.  The
  :func:`spanned` decorator wraps a whole function in a span and
  resolves the current recorder at *call* time, so decorated code
  observes whatever recorder is installed when it runs.
* **counters / gauges** — a flat registry of monotonically added
  counts (``rec.count("sim.instructions", n)``) and last-value gauges
  (``rec.gauge("store.bytes", size)``).

While an enabled recorder is installed, a ``gc.callbacks`` hook also
counts the cyclic collector's runs and pause seconds per generation;
they appear in the snapshot as ``gc.collections{generation="N"}`` and
``gc.pause_s{generation="N"}``.  Installing the no-op recorder removes
the hook, so nothing is recorded when observation is off.

:meth:`Recorder.snapshot` freezes everything into a JSON-safe
*profile* dict (the structure the exporters in
:mod:`repro.obs.export` consume); :meth:`Recorder.merge` folds such a
snapshot back in, which is how profiles recorded inside pool worker
processes are combined into the parent's recorder.

**Thread-safety** (the analysis server runs the runner from concurrent
executor threads): counter/gauge updates, merges and snapshots are
guarded by a per-recorder lock, and each thread keeps its *own* span
stack — spans opened by different threads nest correctly within their
thread and land as separate roots/children rather than corrupting one
shared stack.  Installing/replacing the process-wide recorder
(:func:`set_recorder`) is an atomic swap under a module lock.  The one
caveat that remains: the current recorder is process-global, so enter
a :func:`recording` context *before* fanning work out to threads (the
threads then all report into it), not per-thread.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from dataclasses import dataclass

from repro.obs.export import encode_labels


@dataclass(frozen=True)
class ObsConfig:
    """How observation should run for a runner / facade session.

    Attributes:
        enabled: master switch; ``False`` behaves exactly like no
            observation at all.
        events_path: when set, every finished run appends its profile
            to this file as JSON-lines events
            (:func:`repro.obs.export.write_jsonl`).
    """

    enabled: bool = True
    events_path: str | None = None


class Span:
    """One timed region: name, wall/CPU seconds, child spans."""

    __slots__ = ("name", "wall", "cpu", "children", "_t0", "_c0")

    def __init__(self, name: str):
        self.name = name
        self.wall = 0.0
        self.cpu = 0.0
        self.children: list[Span] = []

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall": self.wall,
            "cpu": self.cpu,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        span = cls(payload["name"])
        span.wall = payload.get("wall", 0.0)
        span.cpu = payload.get("cpu", 0.0)
        span.children = [
            cls.from_dict(child) for child in payload.get("children", ())
        ]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, wall={self.wall:.6f}, "
                f"cpu={self.cpu:.6f}, children={len(self.children)})")


class _SpanHandle:
    """Context manager binding one :class:`Span` into a recorder."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "Recorder", name: str):
        self._recorder = recorder
        self._span = Span(name)

    def __enter__(self) -> Span:
        recorder = self._recorder
        span = self._span
        stack = recorder._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            # The parent span is open on *this* thread's stack, so its
            # children list is only ever touched from here.
            parent.children.append(span)
        else:
            with recorder._lock:
                recorder.roots.append(span)
        stack.append(span)
        span._c0 = time.process_time()
        span._t0 = time.perf_counter()
        return span

    def __exit__(self, *exc) -> bool:
        span = self._span
        span.wall += time.perf_counter() - span._t0
        span.cpu += time.process_time() - span._c0
        stack = self._recorder._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # tolerate out-of-order exits (generators, error paths)
            try:
                stack.remove(span)
            except ValueError:
                pass
        return False


class _NullSpanHandle:
    """The do-nothing span handed out by the :class:`NullRecorder`."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpanHandle()


class NullRecorder:
    """No-op recorder: the process default when observation is off.

    Shares the :class:`Recorder` surface; every method is a stub, so
    instrumented call sites never need an ``if observing:`` guard.
    """

    __slots__ = ()
    enabled = False

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, n: int | float = 1,
              labels: dict | None = None) -> None:
        pass

    def gauge(self, name: str, value, labels: dict | None = None) -> None:
        pass

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "spans": []}

    def merge(self, profile: dict) -> None:
        pass


#: The shared no-op recorder (there is never a reason for a second).
NULL_RECORDER = NullRecorder()


class Recorder:
    """Live recorder: hierarchical spans plus counter/gauge registry.

    Safe to report into from multiple threads: counters/gauges/merges
    are lock-guarded and the span stack is thread-local (each thread
    nests its own spans; cross-thread spans become separate roots).
    """

    enabled = True

    def __init__(self):
        self.counters: dict[str, int | float] = {}
        self.gauges: dict[str, float] = {}
        self.roots: list[Span] = []
        #: total primitive calls made against this recorder; the
        #: overhead-guard test uses it to bound disabled-mode cost.
        self.calls = 0
        #: collector runs and pause seconds per generation, added by
        #: the ``gc.callbacks`` hook while this recorder is installed
        #: (without the lock: a collection can start inside it).
        self.gc_runs = [0, 0, 0]
        self.gc_pause = [0.0, 0.0, 0.0]
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def _stack(self) -> list[Span]:
        """This thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Primitives.
    # ------------------------------------------------------------------

    def span(self, name: str) -> _SpanHandle:
        """A context manager timing ``name`` (wall + CPU, nested)."""
        self.calls += 1
        return _SpanHandle(self, name)

    def count(self, name: str, n: int | float = 1,
              labels: dict | None = None) -> None:
        """Add ``n`` to counter ``name`` (created at 0).

        ``labels`` folds into the stored name in the canonical
        ``name{key="value",...}`` form (sorted keys, escaped values —
        :func:`repro.obs.export.encode_labels`), giving the counter a
        per-label-set dimension in every exporter."""
        self.calls += 1
        if labels:
            name = encode_labels(name, labels)
        with self._lock:
            counters = self.counters
            counters[name] = counters.get(name, 0) + n

    def gauge(self, name: str, value, labels: dict | None = None) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.calls += 1
        if labels:
            name = encode_labels(name, labels)
        with self._lock:
            self.gauges[name] = value

    # ------------------------------------------------------------------
    # Snapshots.
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Freeze the recorded state into a JSON-safe profile dict."""
        with self._lock:
            counters = dict(self.counters)
            for generation, runs in enumerate(self.gc_runs):
                if runs:
                    labels = {"generation": str(generation)}
                    for name, value in (
                            ("gc.collections", runs),
                            ("gc.pause_s", self.gc_pause[generation])):
                        name = encode_labels(name, labels)
                        counters[name] = counters.get(name, 0) + value
            return {
                "counters": dict(sorted(counters.items())),
                "gauges": dict(sorted(self.gauges.items())),
                "spans": [span.to_dict() for span in self.roots],
            }

    def merge(self, profile: dict) -> None:
        """Fold a profile snapshot into this recorder.

        Counters add, gauges overwrite, and the snapshot's span trees
        attach under the calling thread's currently open span (or as
        new roots) — this is how worker-process profiles join the
        parent's timeline.
        """
        spans = [Span.from_dict(d) for d in profile.get("spans", ())]
        stack = self._stack
        with self._lock:
            for name, value in profile.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in profile.get("gauges", {}).items():
                self.gauges[name] = value
            if spans:
                target = stack[-1].children if stack else self.roots
                target.extend(spans)


# ----------------------------------------------------------------------
# The process-wide current recorder.
# ----------------------------------------------------------------------

_CURRENT: Recorder | NullRecorder = NULL_RECORDER

#: Guards the swap in :func:`set_recorder` so concurrent installers
#: each see a consistent "previous" recorder to restore.
_CURRENT_LOCK = threading.Lock()


def get_recorder() -> Recorder | NullRecorder:
    """The currently installed recorder (the no-op one by default)."""
    return _CURRENT


#: perf_counter() at the start of the running collection (collections
#: never overlap: the interpreter runs one at a time).
_gc_start = 0.0


def _gc_callback(phase: str, info: dict) -> None:
    """The ``gc.callbacks`` hook: one run and its pause per collection,
    added to the current recorder.  It takes no lock, since a
    collection may start while the recorder's lock is held."""
    global _gc_start
    if phase == "start":
        _gc_start = time.perf_counter()
        return
    recorder = _CURRENT
    if recorder.enabled:
        generation = info["generation"]
        recorder.gc_runs[generation] += 1
        recorder.gc_pause[generation] += time.perf_counter() - _gc_start


def set_recorder(recorder: Recorder | NullRecorder | None):
    """Install ``recorder`` (None = the no-op default); returns the
    previously installed one so callers can restore it.  The swap is
    atomic: two threads installing concurrently never read the same
    "previous" recorder (which would lose one of them on restore).
    The collector hook is registered while an enabled recorder is
    installed and removed with it."""
    global _CURRENT
    with _CURRENT_LOCK:
        previous = _CURRENT
        _CURRENT = recorder if recorder is not None else NULL_RECORDER
        hooked = _gc_callback in gc.callbacks
        if _CURRENT.enabled and not hooked:
            gc.callbacks.append(_gc_callback)
        elif hooked and not _CURRENT.enabled:
            gc.callbacks.remove(_gc_callback)
        return previous


class _RecordingContext:
    """Context manager installing a recorder for a dynamic extent."""

    __slots__ = ("_recorder", "_previous")

    def __init__(self, recorder):
        self._recorder = (recorder if recorder is not None
                          else NULL_RECORDER)

    def __enter__(self):
        self._previous = set_recorder(self._recorder)
        return self._recorder

    def __exit__(self, *exc) -> bool:
        set_recorder(self._previous)
        return False


def recording(recorder: Recorder | NullRecorder | None = None):
    """``with recording(Recorder()) as rec: ...`` — install ``rec``
    for the block (a fresh :class:`Recorder` when None is passed would
    be ambiguous, so None installs the no-op recorder instead)."""
    return _RecordingContext(recorder)


def spanned(name: str | None = None):
    """Decorator wrapping a function in a span on the *current*
    recorder — resolved per call, so it honours whatever
    :func:`recording` context the call runs under::

        @spanned("report.render")
        def render(...): ...
    """

    def decorate(fn):
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _CURRENT.span(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
