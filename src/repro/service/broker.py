"""The request broker: coalescing, batching, backpressure, drain.

The broker sits between the HTTP layer and the experiment runner and
enforces the service's three invariants (docs/service.md):

* **warm requests never touch the pool** — a job whose result is in
  the broker memo or the disk store is answered directly, the only
  thread hop being the store read;
* **identical in-flight requests run once** — cold submissions are
  keyed by :func:`repro.runner.job_key` and coalesced onto a single
  future (single-flight), so a stampede of equal requests costs one
  computation;
* **the event loop never blocks** — cold jobs queue, a dispatcher
  gathers everything that arrives within ``batch_window`` into one
  batch, and each batch runs on an executor thread through a fresh
  :class:`~repro.runner.ExperimentRunner` (the runner is not
  thread-safe; the *stores* are shared and safe).  Batching matters:
  the runner's sweep path groups batch jobs by execution identity, so
  N configs of one workload cost one simulation
  (:func:`repro.core.analyze_many` fan-out).

Admission is bounded: when the queue is full or the EWMA-estimated
wait exceeds ``max_wait``, :meth:`AnalysisBroker.submit` raises
:exc:`Overloaded` carrying a ``retry_after`` hint, which the server
turns into HTTP 429.  :meth:`AnalysisBroker.drain` stops admission,
finishes every admitted job (each batch publishes its results to the
store through the runner) and only then returns — the graceful-shutdown
half of the contract.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.export import result_to_dict
from repro.obs import get_recorder, layer_seconds
from repro.runner import (
    ExecutionPolicy,
    ExperimentConfig,
    ExperimentRunner,
    Job,
    ResultStore,
    TraceStore,
    job_key,
)
from repro.service.errors import BrokerClosed, JobError, Overloaded
from repro.service.qos.attribution import TenantAccounting, phases_from_layers
from repro.service.qos.policy import QosPolicy
from repro.service.qos.quota import QuotaExceeded, TenantQuotas
from repro.service.qos.scheduler import DeficitScheduler
from repro.service.qos.tenant import DEFAULT_TENANT, Tenant

__all__ = [
    "AnalysisBroker",
    "BrokerClosed",
    "BrokerConfig",
    "JobError",
    "Overloaded",
    "STATUS_COALESCED",
    "STATUS_COMPUTED",
    "STATUS_WARM",
]

_log = logging.getLogger(__name__)

#: How a submission was served (the ``status`` half of ``submit``'s
#: return value; also echoed to clients in the response body).
STATUS_WARM = "warm"            #: memo/store hit, no pool involved
STATUS_COALESCED = "coalesced"  #: joined an identical in-flight job
STATUS_COMPUTED = "computed"    #: queued, batched and executed


@dataclass(frozen=True)
class BrokerConfig:
    """Tuning knobs of one :class:`AnalysisBroker`.

    Attributes:
        workers: concurrent batches (executor threads); each batch may
            itself fan out over ``policy.jobs`` runner processes.
        max_queue: admission bound — queued (not yet dispatched) jobs
            beyond this are shed with :exc:`Overloaded`.
        max_wait: admission bound — estimated seconds until a new job
            would finish, beyond which it is shed.
        batch_window: seconds the dispatcher waits after the first
            queued job for stragglers to join the batch.
        memo_entries: broker-level LRU of decoded result payloads (the
            warmest tier, above the disk store).
        policy: the server-side :class:`ExecutionPolicy` each batch
            runner executes under (worker processes, per-job timeout,
            retries, segments).  This is operator configuration
            (``repro serve --policy ...``); clients cannot set or
            override it — :mod:`repro.service.protocol` rejects policy
            keys in request bodies at the trust boundary.
        qos: the multi-tenant :class:`~repro.service.qos.QosPolicy`
            (``repro serve --qos policy.toml``) — priority classes,
            per-tenant quotas and the batch-size cap.  Operator-only,
            exactly like ``policy``; None keeps the tenant-blind
            pre-QoS behaviour (one class, no quotas, unbounded
            batches).  See docs/qos.md.
    """

    workers: int = 2
    max_queue: int = 64
    max_wait: float = 30.0
    batch_window: float = 0.02
    memo_entries: int = 1024
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    qos: "QosPolicy | None" = None


@dataclass
class _Pending:
    """One admitted cold job waiting for its batch."""

    key: str
    name: str
    config: ExperimentConfig
    future: asyncio.Future
    tenant: str = DEFAULT_TENANT.name
    enqueued_at: float = 0.0
    #: Filled by the batch that executes this entry, read back by
    #: ``submit`` to bill the requester's phase attribution.
    queue_wait: float = 0.0
    phases: dict = field(default_factory=dict)


class AnalysisBroker:
    """Single-flight, batching, backpressured front of the runner.

    Args:
        store: shared :class:`~repro.runner.ResultStore` (or None for
            memo-only operation — every cold job recomputes).
        trace_store: shared :class:`~repro.runner.TraceStore` for the
            execution tier (or None to simulate on every miss).
        config: a :class:`BrokerConfig`.
        batch_runner: test seam — a callable ``(pairs) -> outcomes``
            run on the executor, where ``pairs`` is a list of
            ``(name, config)`` and each outcome is a payload dict or
            an Exception.  Default: :meth:`_run_batch_in_thread`.
        quota_clock: test seam — the monotonic clock the per-tenant
            token buckets read (default :func:`time.monotonic`).
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        trace_store: TraceStore | None = None,
        config: BrokerConfig | None = None,
        batch_runner=None,
        quota_clock=None,
    ):
        self._store = store
        self._trace_store = trace_store
        self.config = config or BrokerConfig()
        self._batch_runner = batch_runner or self._run_batch_in_thread
        self._memo: OrderedDict[str, dict] = OrderedDict()
        self._inflight: dict[str, asyncio.Future] = {}
        qos = self.config.qos
        self._queue = DeficitScheduler(
            qos.class_weights() if qos is not None else None
        )
        self._batch_max = qos.batch_max if qos is not None else None
        self._quotas = TenantQuotas(qos, clock=quota_clock)
        self._accounting = TenantAccounting()
        self._batches: set[asyncio.Task] = set()
        self._wake = asyncio.Event()
        self._slots = asyncio.Semaphore(max(1, self.config.workers))
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="repro-batch",
        )
        self._dispatcher: asyncio.Task | None = None
        self._closed = False
        #: EWMA of per-job batch latency, seeding the admission
        #: estimate before the first batch lands.
        self._job_seconds = 0.5

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher (must run inside the event loop)."""
        if self._dispatcher is None:
            self._dispatcher = asyncio.create_task(
                self._dispatch_loop(), name="repro-broker-dispatch"
            )

    @property
    def draining(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        """Point-in-time load view (the ``/readyz`` body)."""
        stats = {
            "queue_depth": len(self._queue),
            "inflight": len(self._inflight),
            "batches": len(self._batches),
            "memo_entries": len(self._memo),
            "draining": self._closed,
            "est_job_seconds": round(self._job_seconds, 4),
            "policy": self.config.policy.describe(),
        }
        if self.config.qos is not None:
            stats["qos"] = {
                "policy": self.config.qos.describe(),
                "quotas": self._quotas.snapshot(),
                "tenants": self._accounting.snapshot(),
            }
        return stats

    def attribution(self) -> dict:
        """The per-tenant rollup :class:`TenantAccounting` keeps."""
        return self._accounting.snapshot()

    async def drain(self) -> None:
        """Stop admission, finish every admitted job, then return.

        Idempotent.  Queued jobs still execute — their clients were
        admitted and are awaiting futures; "drain" means no *new*
        work, not dropped work.
        """
        self._closed = True
        self._wake.set()
        while self._inflight or self._queue or self._batches:
            waits = list(self._inflight.values()) + list(self._batches)
            if waits:
                await asyncio.gather(*waits, return_exceptions=True)
            # Let done-callbacks (inflight cleanup, batch discard) run.
            await asyncio.sleep(0)
            self._wake.set()
        if self._dispatcher is not None:
            self._wake.set()
            await self._dispatcher
            self._dispatcher = None
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------

    async def submit(self, name: str,
                     config: ExperimentConfig | None = None,
                     tenant: "Tenant | str | None" = None,
                     ) -> tuple[dict, str]:
        """Resolve one job: ``(payload, status)``.

        ``payload`` is the JSON-safe result dict
        (:func:`repro.core.export.result_to_dict` shape); ``status``
        is one of :data:`STATUS_WARM` / :data:`STATUS_COALESCED` /
        :data:`STATUS_COMPUTED`.  ``tenant`` is who the request is
        billed to (quota, scheduling class, attribution); None means
        the default tenant.  Raises :exc:`Overloaded` (including its
        per-tenant :exc:`~repro.service.qos.QuotaExceeded` subclass),
        :exc:`BrokerClosed` or :exc:`JobError`.
        """
        recorder = get_recorder()
        recorder.count("service.requests", 1)
        who = str(tenant) if tenant else DEFAULT_TENANT.name
        started = time.monotonic()
        if self._closed:
            raise BrokerClosed("broker is draining")
        # The rate bucket is spent per *request* — warm and coalesced
        # included (coalesced hits are billed to each requester,
        # executed once) — and before the global gate, so an abusive
        # tenant sheds on its own budget first.
        try:
            self._quotas.charge(who)
        except QuotaExceeded as error:
            recorder.count("service.shed", 1)
            self._accounting.record_shed(who, error.scope, recorder)
            raise
        config = config or ExperimentConfig()
        key = await asyncio.to_thread(job_key, Job(name, config))

        payload = await self._resolve_warm(key)
        if payload is not None:
            recorder.count("service.warm", 1)
            wall = time.monotonic() - started
            self._accounting.record(who, STATUS_WARM, wall,
                                    {"store": wall}, recorder)
            return payload, STATUS_WARM

        # Coalesce onto an identical in-flight job.  Checked *after*
        # the warm path's awaits so two racing cold submissions cannot
        # both miss it; no await point between here and registration.
        existing = self._inflight.get(key)
        if existing is not None:
            recorder.count("service.coalesced", 1)
            payload = await asyncio.shield(existing)
            # The whole wait was on someone else's in-flight job.
            wall = time.monotonic() - started
            self._accounting.record(who, STATUS_COALESCED, wall,
                                    {"queue": wall}, recorder)
            return payload, STATUS_COALESCED

        if self._closed:
            raise BrokerClosed("broker is draining")
        # Tenant in-flight cap, then the global EWMA gate; the slot is
        # released by the future's done callback once registered.
        try:
            self._quotas.begin(who)
        except QuotaExceeded as error:
            recorder.count("service.shed", 1)
            self._accounting.record_shed(who, error.scope, recorder)
            raise
        registered = False
        try:
            try:
                self._check_admission(recorder)
            except Overloaded:
                self._accounting.record_shed(who, "backpressure", recorder)
                raise
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future

            def _release(fut, key=key, who=who):
                self._inflight.pop(key, None)
                self._quotas.end(who)

            future.add_done_callback(_release)
            registered = True
        finally:
            if not registered:
                self._quotas.end(who)
        entry = _Pending(key, name, config, future, tenant=who,
                         enqueued_at=time.monotonic())
        self._queue.push(self._quotas.class_for(who), entry)
        recorder.gauge("service.queue_depth", len(self._queue))
        self._wake.set()
        payload = await asyncio.shield(future)
        recorder.count("service.computed", 1)
        wall = time.monotonic() - started
        self._accounting.record(who, STATUS_COMPUTED, wall,
                                dict(entry.phases,
                                     queue=entry.queue_wait),
                                recorder)
        return payload, STATUS_COMPUTED

    async def _resolve_warm(self, key: str) -> dict | None:
        """Memo then disk store; never touches the queue or pool."""
        payload = self._memo.get(key)
        if payload is not None:
            self._memo.move_to_end(key)
            return payload
        if self._store is None:
            return None
        payload = await asyncio.to_thread(self._store.get, key)
        if payload is not None:
            self._memo_put(key, payload)
        return payload

    def _memo_put(self, key: str, payload: dict) -> None:
        self._memo[key] = payload
        self._memo.move_to_end(key)
        while len(self._memo) > self.config.memo_entries:
            self._memo.popitem(last=False)

    def _check_admission(self, recorder) -> None:
        """Shed when the queue is full or the estimated wait too long."""
        depth = len(self._queue)
        estimate = ((depth + 1) * self._job_seconds
                    / max(1, self.config.workers))
        if depth >= self.config.max_queue:
            recorder.count("service.shed", 1)
            raise Overloaded(
                estimate,
                f"queue full ({depth} >= {self.config.max_queue})",
            )
        if estimate > self.config.max_wait:
            recorder.count("service.shed", 1)
            raise Overloaded(
                estimate,
                f"estimated wait {estimate:.1f}s exceeds "
                f"{self.config.max_wait:.1f}s",
            )

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if not self._queue:
                if self._closed:
                    return
                continue
            if self.config.batch_window > 0 and not self._closed:
                # Let a burst of submissions join this batch; the
                # runner turns same-workload members into one
                # simulation, so a wider batch is a cheaper batch.
                await asyncio.sleep(self.config.batch_window)
            # Weighted-fair pop: up to the policy's batch_max entries
            # in deficit-round-robin class order (everything queued
            # when no QoS policy bounds the batch).
            entries = self._queue.pop(self._batch_max)
            get_recorder().gauge("service.queue_depth", len(self._queue))
            if not entries:
                continue
            await self._slots.acquire()
            task = asyncio.create_task(self._execute_batch(entries))
            self._batches.add(task)
            task.add_done_callback(self._batches.discard)
            if self._queue:
                self._wake.set()

    async def _execute_batch(self, entries: list[_Pending]) -> None:
        recorder = get_recorder()
        recorder.count("service.batches", 1)
        recorder.count("service.batch_jobs", len(entries))
        loop = asyncio.get_running_loop()
        start = loop.time()
        dispatched = time.monotonic()
        for entry in entries:
            entry.queue_wait = max(0.0, dispatched - entry.enqueued_at)
        pairs = [(entry.name, entry.config) for entry in entries]
        try:
            outcomes, phases = await loop.run_in_executor(
                self._executor, self._timed_batch, pairs
            )
        except Exception as error:  # noqa: BLE001 — resolve, don't leak
            _log.exception("service batch failed outright")
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_exception(JobError({
                        "workload": entry.name,
                        "error": f"{type(error).__name__}: {error}",
                        "kind": "error",
                    }))
            return
        finally:
            self._slots.release()
            per_job = (loop.time() - start) / max(1, len(entries))
            self._job_seconds = 0.7 * self._job_seconds + 0.3 * per_job
        for entry, outcome in zip(entries, outcomes):
            # Every member waits for the whole batch, so each is
            # billed the batch's full phase split (docs/qos.md).
            entry.phases = phases
            if entry.future.done():
                continue
            if isinstance(outcome, Exception):
                entry.future.set_exception(outcome)
            else:
                self._memo_put(entry.key, outcome)
                entry.future.set_result(outcome)

    def _timed_batch(self, pairs) -> tuple[list, dict]:
        """Executor-side wrapper: run the batch under a ``qos.batch``
        span and fold the walker's layers into attribution phases.

        The span is opened on the executor thread, so the recorder's
        thread-local stack nests the batch's ``simulate``/``analyze``/
        ``store.*`` spans under it even while other batches run
        concurrently; with observation off the null span yields no
        children and the whole wall lands in the ``pool`` residual.
        """
        recorder = get_recorder()
        t0 = time.perf_counter()
        with recorder.span("qos.batch") as span:
            outcomes = self._batch_runner(pairs)
        wall = time.perf_counter() - t0
        return outcomes, phases_from_layers(layer_seconds([span], wall))

    def _run_batch_in_thread(self, pairs) -> list:
        """Executor-side batch execution (no event-loop state here).

        A fresh :class:`ExperimentRunner` per batch: the runner keeps
        run-scoped state and documents itself as not thread-safe, but
        the stores it shares with every other batch are multi-writer
        safe (atomic replace).  Per-pair configs pin ``workloads`` to
        the one requested name so ``run_many`` sees exactly the
        batch's jobs and can group same-execution members.
        """
        runner = ExperimentRunner(
            store=self._store,
            trace_store=self._trace_store,
            policy=self.config.policy,
        )
        configs = [
            dataclasses.replace(config, workloads=(name,))
            for name, config in pairs
        ]
        runs = runner.run_many(configs)
        outcomes: list = []
        for (name, __), run in zip(pairs, runs):
            result = run.results.get(name)
            if result is not None:
                outcomes.append(result_to_dict(result))
                continue
            failure = run.failures.get(name)
            detail = {"workload": name, "error": "job produced no result",
                      "kind": "error"}
            if failure is not None:
                detail = {
                    "workload": name,
                    "error": failure.error,
                    "kind": failure.kind,
                    "attempts": failure.attempts,
                    "timed_out": failure.timed_out,
                }
            outcomes.append(JobError(detail))
        return outcomes
