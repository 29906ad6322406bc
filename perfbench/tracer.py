"""Spans from the benchmark's own code around the program's layers.

:func:`install` wraps the public function each layer exposes (the
places the runner calls into compile, simulate, encode, decode,
columnize, analyze and the two stores) so that every call records a
span: name, start, end and parent.  Spans stay in memory; the
repetition that recorded them hands them back when it ends.  Nothing
inside ``src/repro`` changes: the wrappers are installed only in a
traced repetition's own process.

:func:`layer_table` turns spans into per-layer totals.  A layer's
self time is its spans' duration minus the part their child spans
cover; what the root spans do not hand to any layer is the residual.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time


class Tracer:
    """In-memory span recorder (single-threaded use)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if self._stack and self._stack[-1] == span["id"]:
            self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)


class MissingSites(RuntimeError):
    """Layer sites the benchmark wraps that the program no longer has."""


# ----------------------------------------------------------------------
# Wrapping the layers' public functions.
# ----------------------------------------------------------------------

def _encode_attrs(span, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs.get("path")
    span["attrs"]["records"] = result
    span["attrs"]["bytes"] = os.path.getsize(path)


def _decode_attrs(span, args, kwargs, result) -> None:
    span["attrs"]["records"] = result[1].n_records


def _get_attrs(span, args, kwargs, result) -> None:
    span["attrs"]["hit"] = result is not None


#: (module, attribute path, span name, kind, attribute hook).  Each
#: attribute is looked up where the runner looks it up, so the wrapper
#: sees exactly the calls the program makes.
SITES = (
    ("repro.runner.api", "ExperimentRunner.run_many", "runner.run_many",
     "call", None),
    ("repro.runner.api", "job_key", "runner.job_key", "call", None),
    ("repro.gen.workload", "generate_source", "gen.emit", "call", None),
    ("repro.minic.compiler", "compile_source", "minic.compile", "call",
     None),
    ("repro.minic.compiler", "assemble", "asm.assemble", "call", None),
    ("repro.cpu.machine", "Machine.trace", "cpu.sim", "generator", None),
    ("repro.runner.tracestore", "save_trace", "tracefile.encode", "call",
     _encode_attrs),
    ("repro.runner.tracestore", "read_trace_columns", "tracefile.decode",
     "call", _decode_attrs),
    ("repro.core.kernel.columns", "TraceColumns.from_records",
     "kernel.columnize", "classmethod", None),
    ("repro.runner.api", "analyze_many", "kernel.analyze", "call", None),
    ("repro.runner.api", "analyze_trace", "kernel.analyze", "call", None),
    ("repro.runner.tracestore", "TraceStore.get", "store.trace_get",
     "call", _get_attrs),
    ("repro.runner.tracestore", "TraceStore.put", "store.trace_put",
     "call", None),
    ("repro.runner.cache", "ResultStore.get", "store.result_get", "call",
     _get_attrs),
    ("repro.runner.cache", "ResultStore.put", "store.result_put", "call",
     None),
)


def _wrap_call(tracer, name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
    return wrapper


def _wrap_generator(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        inner = fn(*args, **kwargs)
        count = 0
        try:
            for item in inner:
                count += 1
                yield item
        finally:
            inner.close()
            span["attrs"]["records"] = count
            tracer.close(span)
    return wrapper


def lookup(module_name: str, path: str):
    """``(owner, attribute, current value)`` of one site; raises
    ``ImportError``, ``AttributeError`` or ``KeyError`` when the
    program lacks it."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    current = owner.__dict__[attr] if parents else getattr(owner, attr)
    return owner, attr, current


def install(tracer: Tracer) -> None:
    """Wrap every layer site.

    Raises :class:`MissingSites`, naming each site the program lacks,
    before wrapping any: a layer the traced run cannot see must fail
    the run rather than read as 0 s.
    """
    found, missing = [], []
    for module_name, path, name, kind, hook in SITES:
        try:
            found.append((*lookup(module_name, path), name, kind, hook))
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}.{path}")
    if missing:
        raise MissingSites(f"layer sites not found: {', '.join(missing)}")
    for owner, attr, current, name, kind, hook in found:
        if kind == "classmethod":
            wrapped = classmethod(
                _wrap_call(tracer, name, current.__func__, hook))
        elif kind == "generator":
            wrapped = _wrap_generator(tracer, name, current)
        else:
            wrapped = _wrap_call(tracer, name, current, hook)
        setattr(owner, attr, wrapped)


# ----------------------------------------------------------------------
# Aggregation.
# ----------------------------------------------------------------------

def layer_table(span_lists, roots=("runner.run_many",)) -> dict:
    """Per-layer ``{name: {calls, wall, self, selfs, attrs}}``.

    ``span_lists`` holds one span list per traced process.  Only spans
    descending from a root named in ``roots`` count, so probes the
    benchmark times on its own stay out of the layers.  The roots' own
    self time is reported under ``"residual"``: time the program spent
    in the root call outside every wrapped layer.
    """
    table: dict[str, dict] = {}
    for spans in span_lists:
        _add_spans(table, spans, roots)
    return table


def _add_spans(table: dict, spans: list[dict], roots) -> None:
    by_id = {span["id"]: span for span in spans}
    children: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = (children.get(span["parent"], 0.0)
                                        + span["end"] - span["start"])

    def under_root(span) -> bool:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span["name"] in roots

    for span in spans:
        if not under_root(span):
            continue
        wall = span["end"] - span["start"]
        own = wall - children.get(span["id"], 0.0)
        key = "residual" if span["parent"] is None else span["name"]
        entry = table.setdefault(key, {"calls": 0, "wall": 0.0, "self": 0.0,
                                       "selfs": [], "attrs": {}})
        entry["calls"] += 1
        entry["wall"] += wall
        entry["self"] += own
        entry["selfs"].append(own)
        for attr, value in span["attrs"].items():
            entry["attrs"][attr] = entry["attrs"].get(attr, 0) + int(value)
