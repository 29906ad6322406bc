"""Fleet supervision: N serve workers behind one failover router.

One serve process is a single point of failure: a ``kill -9`` or a
wedge (alive but unresponsive) takes the whole service down.  The
fleet layer grows :mod:`repro.service` to N worker processes sharing
the content-addressed stores, with the three classic availability
mechanisms on top (docs/service.md has the operator view):

* :class:`FleetSupervisor` — spawns one ``run_server`` process per
  worker, probes each ``/healthz`` on a monitor thread, and restarts
  dead or wedged workers with the runner's own full-jitter exponential
  backoff (:func:`repro.runner.backoff_delay`).  Shutdown is a
  *rolling* SIGTERM drain: workers drain one at a time, so the rest
  of the fleet keeps answering until the end.
* :class:`CircuitBreaker` — per-worker closed → open → half-open
  state machine fed by both probe and request outcomes.  An open
  breaker takes the worker out of rotation immediately (no client
  waits on a corpse); after ``recovery_time`` one half-open probe is
  let through, and its outcome decides re-close vs re-open.
* :class:`HashRing` + :class:`FleetClient` — consistent-hash routing
  of requests by job identity (same request → same worker, so each
  worker's broker keeps coalescing its own repeats) with failover:
  when the preferred worker's breaker is open or the request fails in
  transport, the next worker on the ring gets it.  A worker that shed
  load with ``Retry-After`` is benched for that long — the hint is
  honoured *across* failover targets, and the client's total retry
  budget is capped by a deadline.

Chaos: :func:`run_fleet_chaos` is the acceptance harness behind
``python -m repro chaos --fleet``.  Under a seeded plan
(:func:`repro.runner.faults.default_fleet_chaos_plan`) it drives
zipf-distributed load while ``kill -9``-ing one worker mid-flight
(``worker.kill``) and SIGSTOP-wedging another (``worker.wedge``), then
asserts the headline invariant: **zero failed client requests,
byte-identical results vs the fault-free run, and a restarted healthy
fleet.**

Everything is counted under ``fleet.*`` (spawns, restarts, probe
failures, breaker transitions, router failovers) so ``repro stats``
and the ``/metrics`` of the supervising process tell the story.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import logging
import multiprocessing
import os
import random
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.obs import Recorder, get_recorder, set_recorder
from repro.runner import backoff_delay
from repro.runner.faults import get_fault_plan, set_fault_plan
from repro.service.broker import BrokerConfig
from repro.service.client import (
    RequestFailed,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "FleetClient",
    "FleetConfig",
    "FleetSupervisor",
    "HashRing",
    "WorkerHandle",
    "run_fleet_chaos",
]

_log = logging.getLogger(__name__)

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed → open → half-open availability gate for one worker.

    * **closed**: requests flow; ``failure_threshold`` *consecutive*
      failures trip it open.
    * **open**: :meth:`allow` refuses everything until
      ``recovery_time`` has passed, then flips to half-open.
    * **half-open**: one probe request is let through; success closes
      the breaker (counters reset), failure re-opens it for another
      full ``recovery_time``.

    Time is injectable (``clock``) so the state machine is property-
    testable without sleeping; all transitions are counted under
    ``fleet.breaker.*``.  Thread-safe — the supervisor's probe thread
    and any number of router threads feed the same breaker.
    """

    def __init__(self, failure_threshold: int = 3,
                 recovery_time: float = 1.0, clock=None):
        self.failure_threshold = max(1, failure_threshold)
        self.recovery_time = recovery_time
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        """The current state (resolving an elapsed open → half-open)."""
        with self._lock:
            self._tick()
            return self._state

    def allow(self) -> bool:
        """May a request go to this worker right now?"""
        with self._lock:
            self._tick()
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_HALF_OPEN and not self._probing:
                # Exactly one in-flight probe owns the half-open slot.
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._tick()
            if self._state != BREAKER_CLOSED:
                self._transition(BREAKER_CLOSED)
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._tick()
            if self._state == BREAKER_HALF_OPEN:
                # The recovery probe failed: straight back to open.
                self._transition(BREAKER_OPEN)
                self._opened_at = self._clock()
                self._probing = False
                return
            self._failures += 1
            if (self._state == BREAKER_CLOSED
                    and self._failures >= self.failure_threshold):
                self._transition(BREAKER_OPEN)
                self._opened_at = self._clock()

    def _tick(self) -> None:
        if (self._state == BREAKER_OPEN
                and self._clock() - self._opened_at >= self.recovery_time):
            self._transition(BREAKER_HALF_OPEN)
            self._probing = False

    def _transition(self, state: str) -> None:
        if state != self._state:
            get_recorder().count(f"fleet.breaker.{state}", 1)
            self._state = state


class HashRing:
    """Consistent-hash ring over worker ids.

    ``replicas`` virtual nodes per worker smooth the key distribution;
    :meth:`preference_order` walks the ring from a key's position and
    returns every worker exactly once — position 0 is the owner, the
    rest are the deterministic failover order (so retries of one key
    always land on the same sibling, preserving *its* coalescing too).
    """

    def __init__(self, worker_ids, replicas: int = 64):
        self._ring: list[tuple[int, int]] = []
        for worker_id in worker_ids:
            for replica in range(replicas):
                point = self._hash(f"{worker_id}:{replica}")
                self._ring.append((point, worker_id))
        self._ring.sort()
        self._points = [point for point, __ in self._ring]
        self._workers = list(worker_ids)

    @staticmethod
    def _hash(text: str) -> int:
        digest = hashlib.sha256(text.encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def owner(self, key: str) -> int:
        return self.preference_order(key)[0]

    def preference_order(self, key: str) -> list[int]:
        if not self._ring:
            raise ValueError("empty hash ring")
        start = bisect.bisect_left(self._points, self._hash(key))
        order: list[int] = []
        for offset in range(len(self._ring)):
            __, worker_id = self._ring[(start + offset) % len(self._ring)]
            if worker_id not in order:
                order.append(worker_id)
                if len(order) == len(self._workers):
                    break
        return order


@dataclass
class FleetConfig:
    """Tuning knobs of one :class:`FleetSupervisor`.

    Attributes:
        workers: worker serve processes to run.
        host: bind address for every worker.
        probe_interval: seconds between ``/healthz`` probe rounds.
        probe_timeout: per-probe socket timeout — a wedged (SIGSTOPped,
            deadlocked) worker fails probes only by timing out, so this
            bounds wedge detection latency.
        wedge_threshold: consecutive failed probes before a live-but-
            unresponsive worker is declared wedged and restarted.
        breaker_failures / breaker_recovery: per-worker
            :class:`CircuitBreaker` parameters.
        restart_backoff_base / restart_backoff_cap: parameters of
            :func:`repro.runner.backoff_delay` between restarts of the
            same worker (the streak resets once it passes a probe).
        drain_timeout: seconds each worker gets to drain on SIGTERM
            before escalating to SIGKILL during :meth:`stop`.
        log_path: supervisor event log (one timestamped line per
            spawn/probe-failure/restart/drain) — the CI artifact.
    """

    workers: int = 2
    host: str = "127.0.0.1"
    probe_interval: float = 0.25
    probe_timeout: float = 1.0
    wedge_threshold: int = 3
    breaker_failures: int = 3
    breaker_recovery: float = 1.0
    restart_backoff_base: float = 0.1
    restart_backoff_cap: float = 2.0
    drain_timeout: float = 30.0
    log_path: str | None = None


@dataclass
class WorkerHandle:
    """One supervised serve process and its availability state."""

    worker_id: int
    host: str
    port: int
    process: object = None
    breaker: CircuitBreaker = None
    restarts: int = 0
    probe_failures: int = 0        #: consecutive, resets on success
    restart_at: float = 0.0        #: backoff gate for the next spawn
    not_before: float = 0.0        #: Retry-After bench (router-side)
    state: str = "down"            #: down | up | restarting | stopped

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


def _free_port(host: str) -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _worker_main(host: str, port: int, cache_root, broker_config,
                 plan) -> None:
    """Entry point of one worker process: serve until SIGTERM."""
    from repro.runner.cache import ResultStore
    from repro.runner.tracestore import TraceStore
    from repro.service.server import run_server

    if plan is not None:
        set_fault_plan(plan)
    store = trace_store = None
    if cache_root is not None:
        store = ResultStore(cache_root)
        trace_store = TraceStore(cache_root)
    raise SystemExit(run_server(host=host, port=port,
                                broker_config=broker_config,
                                store=store, trace_store=trace_store))


class FleetSupervisor:
    """Spawn, probe, restart and drain N worker serve processes.

    ::

        fleet = FleetSupervisor(FleetConfig(workers=3),
                                cache_root=cache_dir)
        fleet.start()
        client = FleetClient(fleet)
        ...
        fleet.stop()        # rolling SIGTERM drain

    The supervisor never routes requests itself — that is
    :class:`FleetClient` — it owns process lifecycle only: spawn,
    ``/healthz`` probing, wedge detection (probe timeouts), and
    restart with exponential backoff + jitter.  Workers share the
    content-addressed stores under ``cache_root``, so a restarted
    worker serves its predecessor's cached results immediately.
    """

    def __init__(self, config: FleetConfig | None = None,
                 cache_root: str | Path | None = None,
                 broker_config: BrokerConfig | None = None,
                 rng: random.Random | None = None):
        self.config = config or FleetConfig()
        self.cache_root = (str(cache_root)
                           if cache_root is not None else None)
        self.broker_config = broker_config or BrokerConfig()
        self._rng = rng or random.Random()
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0])
        self.workers: dict[int, WorkerHandle] = {}
        self.ring: HashRing | None = None
        self._monitor: threading.Thread | None = None
        self._stopping = threading.Event()
        self._log_fh = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "FleetSupervisor":
        if self.config.log_path:
            Path(self.config.log_path).parent.mkdir(parents=True,
                                                    exist_ok=True)
            self._log_fh = open(self.config.log_path, "a")
        for worker_id in range(self.config.workers):
            handle = WorkerHandle(
                worker_id=worker_id,
                host=self.config.host,
                port=_free_port(self.config.host),
                breaker=CircuitBreaker(
                    failure_threshold=self.config.breaker_failures,
                    recovery_time=self.config.breaker_recovery,
                ),
            )
            self.workers[worker_id] = handle
            self._spawn(handle)
        self.ring = HashRing(sorted(self.workers))
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="fleet-monitor",
                                         daemon=True)
        self._monitor.start()
        return self

    def stop(self) -> None:
        """Rolling SIGTERM drain, one worker at a time, then SIGKILL
        stragglers.  The rest of the fleet keeps serving while each
        worker drains — zero-downtime shutdown."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10)
            self._monitor = None
        for handle in self.workers.values():
            self._drain_worker(handle)
        self._event("fleet stopped")
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None

    def _drain_worker(self, handle: WorkerHandle) -> None:
        process = handle.process
        handle.state = "stopped"
        if process is None or not process.is_alive():
            return
        self._event(f"worker {handle.worker_id}: draining (SIGTERM)")
        try:
            # SIGCONT first: a SIGSTOPped (wedged) worker cannot act
            # on the drain signal; a running one ignores the CONT.
            os.kill(process.pid, signal.SIGCONT)
            os.kill(process.pid, signal.SIGTERM)
        except (OSError, TypeError):
            pass
        process.join(timeout=self.config.drain_timeout)
        if process.is_alive():
            self._event(f"worker {handle.worker_id}: drain timed out; "
                        f"SIGKILL")
            get_recorder().count("fleet.drain_kills", 1)
            process.kill()
            process.join(timeout=5)
        else:
            self._event(f"worker {handle.worker_id}: drained cleanly")

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Spawning / restarting.
    # ------------------------------------------------------------------

    def _spawn(self, handle: WorkerHandle) -> None:
        process = self._ctx.Process(
            target=_worker_main,
            args=(handle.host, handle.port, self.cache_root,
                  self.broker_config, get_fault_plan()),
            name=f"repro-fleet-worker-{handle.worker_id}",
            daemon=True,
        )
        process.start()
        handle.process = process
        handle.state = "up"
        handle.probe_failures = 0
        get_recorder().count("fleet.spawns", 1)
        self._event(f"worker {handle.worker_id}: spawned pid "
                    f"{process.pid} on {handle.host}:{handle.port}")

    def _schedule_restart(self, handle: WorkerHandle,
                          reason: str) -> None:
        """Kill what is left of the worker and gate its respawn behind
        exponential backoff + jitter."""
        process = handle.process
        if process is not None and process.is_alive():
            process.kill()          # SIGKILL: it is dead or wedged
            process.join(timeout=5)
        handle.restarts += 1
        delay = backoff_delay(handle.restarts,
                              self.config.restart_backoff_base,
                              self.config.restart_backoff_cap,
                              self._rng)
        handle.restart_at = time.monotonic() + delay
        handle.state = "restarting"
        handle.breaker.record_failure()
        get_recorder().count("fleet.restarts", 1)
        self._event(f"worker {handle.worker_id}: {reason}; restart "
                    f"#{handle.restarts} in {delay:.2f}s (backoff)")

    # ------------------------------------------------------------------
    # Monitoring.
    # ------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.config.probe_interval):
            for handle in list(self.workers.values()):
                if self._stopping.is_set():
                    return
                try:
                    self._check(handle)
                except Exception:   # noqa: BLE001 — monitor never dies
                    _log.exception("fleet: monitor error on worker %d",
                                   handle.worker_id)

    def _check(self, handle: WorkerHandle) -> None:
        if handle.state == "restarting":
            if time.monotonic() >= handle.restart_at:
                self._spawn(handle)
            return
        if not handle.alive():
            self._schedule_restart(handle, "process died "
                                   f"(exit {handle.process.exitcode})")
            return
        if self._probe(handle):
            if handle.probe_failures:
                self._event(f"worker {handle.worker_id}: healthy again "
                            f"after {handle.probe_failures} failed "
                            f"probe(s)")
            handle.probe_failures = 0
            handle.restarts = 0      # a healthy pass resets the streak
            handle.breaker.record_success()
            return
        handle.probe_failures += 1
        handle.breaker.record_failure()
        get_recorder().count("fleet.probe_failures", 1)
        self._event(f"worker {handle.worker_id}: probe failed "
                    f"({handle.probe_failures}/"
                    f"{self.config.wedge_threshold})")
        if handle.probe_failures >= self.config.wedge_threshold:
            self._schedule_restart(handle, "wedged (probe timeouts)")

    def _probe(self, handle: WorkerHandle) -> bool:
        conn = http.client.HTTPConnection(
            handle.host, handle.port, timeout=self.config.probe_timeout)
        try:
            conn.request("GET", "/healthz",
                         headers={"Connection": "close"})
            response = conn.getresponse()
            response.read()
            return response.status == 200
        except (OSError, http.client.HTTPException):
            return False
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def healthy(self) -> bool:
        """True when every worker is up with a closed breaker."""
        return all(handle.state == "up" and handle.alive()
                   and handle.breaker.state == BREAKER_CLOSED
                   for handle in self.workers.values())

    def wait_healthy(self, timeout: float = 30.0) -> bool:
        """Block until :meth:`healthy` (or ``timeout``); returns it."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.healthy():
                return True
            time.sleep(0.05)
        return self.healthy()

    def stats(self) -> dict:
        """Per-worker availability snapshot (breaker state included)."""
        return {
            "workers": {
                str(worker_id): {
                    "port": handle.port,
                    "state": handle.state,
                    "alive": handle.alive(),
                    "breaker": handle.breaker.state,
                    "restarts": handle.restarts,
                    "probe_failures": handle.probe_failures,
                }
                for worker_id, handle in self.workers.items()
            },
            "healthy": self.healthy(),
        }

    def _event(self, message: str) -> None:
        _log.info("fleet: %s", message)
        if self._log_fh is not None:
            with self._lock:
                self._log_fh.write(f"{time.strftime('%H:%M:%S')} "
                                   f"{message}\n")
                self._log_fh.flush()


class FleetClient:
    """Consistent-hash router with breaker-aware failover.

    Routes each request to the ring owner of its *request key* (the
    sha256 of the canonical ``(workload, config)`` JSON — a stable
    stand-in for the runner's job key that needs no compilation), so
    identical requests keep hitting the same worker and coalesce in
    its broker.  On breaker-open, transport failure or retry
    exhaustion the next worker on the ring gets the request; a worker
    that answered 429 with ``Retry-After`` is benched for that long
    (the hint survives failover instead of dying with the target that
    sent it).  ``deadline`` caps the whole routed request — failovers,
    benches and sleeps included.
    """

    def __init__(self, fleet: FleetSupervisor, timeout: float = 60.0,
                 retries_per_worker: int = 1, deadline: float = 120.0,
                 tenant: str | None = None,
                 rng: random.Random | None = None):
        self.fleet = fleet
        self.timeout = timeout
        self.retries_per_worker = retries_per_worker
        self.deadline = deadline
        #: Tenant identity, forwarded on every routed request.  Quota
        #: *state* is per-worker (each broker keeps its own buckets);
        #: the QoS policy *file* is fleet-wide via the shared
        #: BrokerConfig, so a failover lands under the same rules on
        #: the sibling — including any per-tenant Retry-After bench.
        self.tenant = tenant
        self._rng = rng or random.Random()

    # ------------------------------------------------------------------

    @staticmethod
    def request_key(workload: str, config: dict | None) -> str:
        canonical = json.dumps({"workload": workload,
                                "config": config or {}},
                               sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def analyze(self, workload: str,
                config: dict | None = None) -> dict:
        """Routed ``POST /v1/analyze`` with failover.  Raises
        :class:`ServiceUnavailable` only once every worker has been
        exhausted within the deadline."""
        key = self.request_key(workload, config)
        order = self.fleet.ring.preference_order(key)
        started = time.monotonic()
        get_recorder().count("fleet.router.requests", 1)
        last: ServiceUnavailable | None = None
        attempt = 0
        while time.monotonic() - started < self.deadline:
            attempt += 1
            routed = False
            for worker_id in order:
                handle = self.fleet.workers[worker_id]
                now = time.monotonic()
                if now < handle.not_before:
                    get_recorder().count("fleet.router.benched", 1)
                    continue
                if not handle.breaker.allow():
                    get_recorder().count("fleet.router.skipped", 1)
                    continue
                routed = True
                remaining = self.deadline - (now - started)
                client = ServiceClient(
                    host=handle.host, port=handle.port,
                    timeout=min(self.timeout, max(0.1, remaining)),
                    retries=self.retries_per_worker,
                    deadline=max(0.1, remaining),
                    tenant=self.tenant,
                    rng=self._rng,
                )
                try:
                    payload = client.analyze(workload, config)
                except ServiceUnavailable as error:
                    last = error
                    handle.breaker.record_failure()
                    if error.retry_after > 0:
                        # Honour the shed hint across failover: bench
                        # this worker, try the sibling right away.
                        handle.not_before = (time.monotonic()
                                             + error.retry_after)
                    get_recorder().count("fleet.router.failovers", 1)
                    _log.debug("fleet: worker %d failed (%s); failing "
                               "over", worker_id, error)
                    continue
                except RequestFailed:
                    # The request itself is wrong (4xx): the worker is
                    # fine, and no sibling will answer differently.
                    handle.breaker.record_success()
                    raise
                handle.breaker.record_success()
                if worker_id != order[0]:
                    get_recorder().count("fleet.router.failover_hits", 1)
                return payload
            if not routed:
                # Everything benched or breaker-open: wait for the
                # soonest gate to lift (bounded by the deadline).
                gates = [handle.not_before
                         for handle in self.fleet.workers.values()]
                wait = min(0.25, max(0.01, min(gates)
                                     - time.monotonic()))
                time.sleep(wait)
        raise ServiceUnavailable(
            f"fleet: analyze({workload!r}) failed after {attempt} "
            f"round(s) within the {self.deadline:.1f}s deadline",
            last_error=last,
            retry_after=last.retry_after if last is not None else 0.0,
        )


# ----------------------------------------------------------------------
# Chaos acceptance harness (python -m repro chaos --fleet).
# ----------------------------------------------------------------------

def _zipf_indices(count: int, n: int, rng: random.Random,
                  exponent: float = 1.2) -> list[int]:
    """``count`` indices in ``[0, n)`` under a zipf-ish distribution."""
    weights = [1.0 / ((rank + 1) ** exponent) for rank in range(n)]
    total = sum(weights)
    cumulative, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    picks = []
    for __ in range(count):
        draw = rng.random()
        picks.append(bisect.bisect_left(cumulative, draw))
    return picks


def run_fleet_chaos(seed: int = 0, workloads=("com", "go"),
                    max_instructions: int = 5_000, requests: int = 24,
                    workers: int = 2, threads: int = 4,
                    cache_root: str | Path | None = None,
                    log_path: str | Path | None = None,
                    plan=None) -> dict:
    """Drive the fleet through the seeded kill/wedge plan; report.

    The invariant under test (the PR's headline acceptance): with
    ``worker.kill`` firing at least once under concurrent zipf load,
    **zero client-visible request failures**, results byte-identical
    to a fault-free run, and a fleet that returns to healthy.  Returns
    a report dict with ``ok`` plus per-invariant booleans — the CLI
    turns it into exit codes and prose.
    """
    import tempfile

    from repro.core.export import result_to_dict
    from repro.runner.api import ExperimentRunner
    from repro.runner.cache import ResultStore
    from repro.runner.faults import default_fleet_chaos_plan
    from repro.runner.job import ExperimentConfig
    from repro.runner.tracestore import TraceStore

    rng = random.Random(seed)
    plan = plan or default_fleet_chaos_plan(seed)
    distinct = [(name, {"max_instructions": max_instructions})
                for name in workloads]

    # Fault-free baseline through the plain runner (the same compute
    # path the brokers use), canonical JSON per distinct request.
    with tempfile.TemporaryDirectory(prefix="repro-fleet-base-") as base:
        runner = ExperimentRunner(store=ResultStore(base),
                                  trace_store=TraceStore(base))
        config = ExperimentConfig(workloads=tuple(workloads),
                                  max_instructions=max_instructions)
        run = runner.run(config)
        if run.failures:
            raise RuntimeError(f"fault-free baseline failed: "
                               f"{run.failures}")
        baseline = {
            name: json.dumps(result_to_dict(result), sort_keys=True)
            for name, result in run.results.items()
        }

    owns_root = cache_root is None
    if owns_root:
        cache_root = tempfile.mkdtemp(prefix="repro-fleet-chaos-")
    report: dict = {"seed": seed, "requests": requests,
                    "workers": workers}
    restore_recorder = None
    if not get_recorder().enabled:
        # The fleet.* counters tell the story; make sure they exist.
        restore_recorder = set_recorder(Recorder())
    previous_plan = set_fault_plan(plan)
    fleet = FleetSupervisor(
        FleetConfig(workers=workers,
                    log_path=str(log_path) if log_path else None),
        cache_root=cache_root,
    )
    failures: list[str] = []
    mismatches: list[str] = []
    kills = wedges = 0
    wedged_pids: list[tuple[int, int]] = []
    try:
        fleet.start()
        fleet.wait_healthy(timeout=30)
        # A modest per-attempt timeout: a SIGSTOP-wedged worker holds
        # its connections until the supervisor SIGKILLs it (probe
        # timeouts), which resets them — the client never waits the
        # full timeout in practice.
        client = FleetClient(fleet, timeout=15.0, deadline=90.0)
        picks = _zipf_indices(requests, len(distinct), rng)
        lock = threading.Lock()

        def one_request(index: int) -> None:
            name, config = distinct[index]
            try:
                payload = client.analyze(name, config)
            except ServiceError as error:
                with lock:
                    failures.append(f"{name}: {error}")
                return
            text = json.dumps(payload["result"], sort_keys=True)
            if text != baseline[name]:
                with lock:
                    mismatches.append(name)

        inflight: list[threading.Thread] = []
        for tick, index in enumerate(picks, start=1):
            # The chaos driver owns the worker-level sites: kill -9
            # the owner of the in-flight key, SIGSTOP-wedge a sibling.
            name, config = distinct[index]
            key = FleetClient.request_key(name, config)
            if plan.should_fire("worker.kill"):
                victim = fleet.workers[fleet.ring.owner(key)]
                if victim.alive():
                    kills += 1
                    os.kill(victim.process.pid, signal.SIGKILL)
                    fleet._event(f"chaos: SIGKILL worker "
                                 f"{victim.worker_id} (tick {tick})")
            if plan.should_fire("worker.wedge"):
                order = fleet.ring.preference_order(key)
                victim = fleet.workers[order[-1]]
                if victim.alive():
                    wedges += 1
                    os.kill(victim.process.pid, signal.SIGSTOP)
                    wedged_pids.append((victim.worker_id,
                                        victim.process.pid))
                    fleet._event(f"chaos: SIGSTOP worker "
                                 f"{victim.worker_id} (tick {tick})")
            thread = threading.Thread(target=one_request,
                                      args=(index,), daemon=True)
            thread.start()
            inflight.append(thread)
            while sum(1 for t in inflight if t.is_alive()) >= threads:
                time.sleep(0.01)
        for thread in inflight:
            thread.join(timeout=120)

        # A freshly-SIGSTOPped worker still *looks* healthy (alive,
        # breaker closed) until enough probes time out — wait for the
        # supervisor to actually detect and replace each wedged pid so
        # "recovered" certifies the full wedge→restart cycle.
        deadline = time.monotonic() + 60
        for worker_id, pid in wedged_pids:
            while (fleet.workers[worker_id].process is not None
                   and fleet.workers[worker_id].process.pid == pid
                   and time.monotonic() < deadline):
                time.sleep(0.05)
        recovered = fleet.wait_healthy(timeout=60)
        snapshot = get_recorder().snapshot()
        counters = snapshot.get("counters", {}) if snapshot else {}
        report.update({
            "failed_requests": len(failures),
            "failures": failures[:5],
            "mismatches": sorted(set(mismatches)),
            "kills": kills,
            "wedges": wedges,
            "restarts": int(counters.get("fleet.restarts", 0)),
            "failovers": int(counters.get("fleet.router.failovers", 0)),
            "recovered": recovered,
            "fleet": fleet.stats(),
            "fired": dict(plan.fired),
        })
    finally:
        try:
            fleet.stop()
        finally:
            set_fault_plan(previous_plan)
            if restore_recorder is not None:
                set_recorder(restore_recorder)
            if owns_root:
                import shutil
                shutil.rmtree(cache_root, ignore_errors=True)

    report["ok"] = (
        not failures
        and not mismatches
        and kills >= 1
        and report["recovered"]
    )
    return report
