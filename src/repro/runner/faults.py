"""Deterministic, seeded fault injection — the chaos layer.

A :class:`FaultPlan` maps named *injection sites* across the stack to
:class:`FaultSpec` firing rules.  Instrumented call sites ask the
process-wide plan (installed via :func:`set_fault_plan`,
:func:`injecting` or ``repro.api.configure(faults=...)``) whether to
misbehave *right now*; with no plan installed every probe is a single
``None`` check, so production paths pay nothing.

Sites wired through the stack:

========================  ====================================================
site                      effect when it fires
========================  ====================================================
``store.read``            result-store read raises an I/O error (miss, no
                          deletion)
``store.write``           result-store write raises an I/O error
``store.truncate``        result-store write publishes a *truncated* envelope
                          (caught later by checksum validation)
``trace.read``            trace-store read raises an I/O error
``trace.write``           trace-store write raises an I/O error
``trace.corrupt``         a just-written trace file is truncated on disk
``worker.crash``          the next worker process ``os._exit``\\ s before
                          computing
``worker.hang``           the next worker sleeps far past any timeout
``worker.slow``           the next worker sleeps ``delay`` seconds first
``pool.spawn``            the pool fails to spawn a worker process
``service.accept``        the analysis server drops a fresh connection
``service.handler``       the analysis server 500s an otherwise-fine request
``store.enospc``          a store write raises ``ENOSPC`` (disk full); the
                          stores respond with eviction + one retry, then
                          run uncached
``worker.kill``           the fleet chaos driver ``kill -9``\\ s a live serve
                          worker mid-load (evaluated in the driver, see
                          :mod:`repro.service.fleet`)
``worker.wedge``          a serve worker stops answering requests —
                          ``/healthz`` included — without dying, so only
                          the supervisor's probe timeout can catch it
========================  ====================================================

Firing is **deterministic**: each site draws from its own
``random.Random`` seeded from ``(plan seed, site name)``, and a spec
may instead (or additionally) name explicit 1-based evaluation
ordinals (``schedule``) on which it fires.  ``max_fires`` caps the
total so a plan cannot livelock a retrying runner.  Every injection
increments a ``faults.injected.<site>`` obs counter and the plan's own
:attr:`FaultPlan.fired` tally.

Worker-process coupling: the pool snapshots the installed plan when a
run starts, decides *worker-level* faults (crash/hang/slow, spawn
failure) in the parent — so their counters and determinism survive the
child dying — and ships the plan into each worker so store/trace sites
keep firing there too.
"""

from __future__ import annotations

import errno
import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs import get_recorder


class InjectedFault(OSError):
    """The artificial I/O error raised by firing injection sites.

    Subclasses :class:`OSError` on purpose: injected faults must flow
    through exactly the error-handling paths a real disk or process
    fault would take — that is the point of injecting them.
    """


def is_enospc(error: BaseException) -> bool:
    """True when ``error`` is a disk-full :class:`OSError`.

    Injected ``store.enospc`` faults carry the real ``errno`` so the
    recovery paths cannot tell them from an actual full disk.
    """
    return isinstance(error, OSError) and error.errno == errno.ENOSPC


def fault_enospc(site: str = "store.enospc") -> None:
    """Raise a disk-full :class:`InjectedFault` when ``site`` fires."""
    plan = _PLAN
    if plan is not None and plan.should_fire(site):
        raise InjectedFault(errno.ENOSPC,
                            f"injected ENOSPC at {site}")


@dataclass(frozen=True)
class FaultSpec:
    """Firing rule for one injection site.

    Attributes:
        rate: probability of firing per evaluation (0.0 disables the
            probabilistic channel; the site's seeded RNG is only drawn
            when positive, keeping schedules fully deterministic).
        schedule: explicit 1-based evaluation ordinals that always
            fire (subject to ``max_fires``).
        max_fires: total firing cap for the site (None = unbounded).
        delay: seconds of injected latency (``worker.slow``).
    """

    rate: float = 0.0
    schedule: tuple[int, ...] = ()
    max_fires: int | None = None
    delay: float = 0.05

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "schedule": list(self.schedule),
            "max_fires": self.max_fires,
            "delay": self.delay,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        return cls(
            rate=float(payload.get("rate", 0.0)),
            schedule=tuple(payload.get("schedule", ())),
            max_fires=payload.get("max_fires"),
            delay=float(payload.get("delay", 0.05)),
        )


@dataclass
class FaultPlan:
    """A seeded set of per-site firing rules.

    Attributes:
        seed: base seed; each site derives its own RNG from
            ``(seed, site)`` so adding a site never perturbs another's
            sequence.
        specs: site name -> :class:`FaultSpec`.
        fired: site name -> times fired (in *this* process).
    """

    seed: int = 0
    specs: dict = field(default_factory=dict)
    fired: dict = field(default_factory=dict)
    _evals: dict = field(default_factory=dict, repr=False)
    _rngs: dict = field(default_factory=dict, repr=False)

    def spec(self, site: str) -> FaultSpec | None:
        return self.specs.get(site)

    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{site}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._rngs[site] = rng
        return rng

    def should_fire(self, site: str) -> bool:
        """Evaluate ``site`` once; True when a fault must be injected."""
        spec = self.specs.get(site)
        if spec is None:
            return False
        ordinal = self._evals.get(site, 0) + 1
        self._evals[site] = ordinal
        fired = self.fired.get(site, 0)
        if spec.max_fires is not None and fired >= spec.max_fires:
            return False
        fire = ordinal in spec.schedule
        if not fire and spec.rate > 0.0:
            fire = self._rng(site).random() < spec.rate
        if fire:
            self.fired[site] = fired + 1
            get_recorder().count(f"faults.injected.{site}", 1)
        return fire

    def distinct_fired(self) -> int:
        """How many distinct sites have fired (in this process)."""
        return sum(1 for count in self.fired.values() if count)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "specs": {site: spec.to_dict()
                      for site, spec in self.specs.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(
            seed=int(payload.get("seed", 0)),
            specs={site: FaultSpec.from_dict(spec)
                   for site, spec in payload.get("specs", {}).items()},
        )


def default_chaos_plan(seed: int = 0, timeout: float | None = None,
                       ) -> FaultPlan:
    """The stock plan ``python -m repro chaos`` runs under.

    Schedule-driven (not probabilistic) so a fixed seed *guarantees*
    several distinct fault kinds fire on even a two-workload smoke
    sweep: early store reads fail, the first result write is truncated,
    the first trace file rots on disk, one worker crashes, one worker
    is slow, and one pool spawn fails.  ``worker.hang`` joins only when
    the caller enforces a ``timeout`` — without one a hung worker could
    stall the suite forever, which is a caller bug, not chaos.
    """
    specs = {
        "store.read": FaultSpec(schedule=(1, 3), max_fires=2),
        "store.truncate": FaultSpec(schedule=(1,), max_fires=1),
        "store.write": FaultSpec(schedule=(3,), max_fires=1),
        "trace.read": FaultSpec(schedule=(1,), max_fires=1),
        "trace.corrupt": FaultSpec(schedule=(1,), max_fires=1),
        "worker.crash": FaultSpec(schedule=(1,), max_fires=1),
        "worker.slow": FaultSpec(schedule=(3,), max_fires=1, delay=0.05),
        "pool.spawn": FaultSpec(schedule=(2,), max_fires=1),
    }
    if timeout is not None:
        specs["worker.hang"] = FaultSpec(schedule=(4,), max_fires=1)
    return FaultPlan(seed=seed, specs=specs)


def default_fleet_chaos_plan(seed: int = 0) -> FaultPlan:
    """The stock plan ``python -m repro chaos --fleet`` runs under.

    Schedule-driven so a fixed seed guarantees the headline fault —
    ``kill -9`` of a live worker mid-load — actually fires, plus a
    wedged worker (alive but unresponsive, caught only by the probe
    timeout) and one injected disk-full write.  ``worker.kill`` and
    ``worker.wedge`` ordinals are request ticks of the chaos driver's
    load loop; ``store.enospc`` fires inside whichever worker's store
    evaluates it first.
    """
    return FaultPlan(seed=seed, specs={
        "worker.kill": FaultSpec(schedule=(3,), max_fires=1),
        "worker.wedge": FaultSpec(schedule=(9,), max_fires=1),
        "store.enospc": FaultSpec(schedule=(1,), max_fires=1),
    })


# ----------------------------------------------------------------------
# The process-wide installed plan.
# ----------------------------------------------------------------------

_PLAN: FaultPlan | None = None


def get_fault_plan() -> FaultPlan | None:
    """The currently installed plan (None = no injection)."""
    return _PLAN


def set_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide; returns the previous plan."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return previous


@contextmanager
def injecting(plan: FaultPlan | None):
    """``with injecting(plan): ...`` — install ``plan`` for the block."""
    previous = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)


def maybe_fault(site: str) -> bool:
    """Evaluate ``site`` against the installed plan; True = misbehave.

    The no-plan fast path is one global read and one ``is None`` test.
    """
    plan = _PLAN
    if plan is None:
        return False
    return plan.should_fire(site)


def fault_io(site: str) -> None:
    """Raise :class:`InjectedFault` when ``site`` fires."""
    plan = _PLAN
    if plan is not None and plan.should_fire(site):
        raise InjectedFault(f"injected fault at {site}")
