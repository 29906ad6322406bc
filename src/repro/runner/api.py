"""Experiment orchestration: jobs -> pool -> store -> results.

:class:`ExperimentRunner` is the one place experiment execution
happens; the report layer, the benchmark harness and the CLI all
delegate here, so they share a single warm store.  Resolution order
for every job:

1. **in-process memo** — same object back, zero cost (preserves the
   old ``_CACHE`` identity semantics);
2. **disk store** — deserialised via
   :func:`repro.core.export.result_from_dict`; renders byte-identical
   exhibits;
3. **trace replay** — a stored trace of the same *execution*
   (:func:`repro.runner.job.trace_key`) is decoded and re-analysed
   under the job's config, skipping simulation;
4. **compute** — simulate, store the captured trace for the next
   config, analyse, then write through to every layer.

The sweep entry point :meth:`ExperimentRunner.run_many` goes further:
jobs that miss both disk tiers are grouped by execution identity and
each group is simulated (or replayed) exactly once, with
:func:`repro.core.analyze_many` fanning the single pass out to one
analyzer per config.

Parallel runs ship nothing through pipes: each worker writes its
result into the store (content-addressed by job key, atomic replace)
and the parent reads it back.  The store *is* the transport, which is
also why a ``--no-cache`` parallel run still uses one — a throwaway
store in a temp directory.

Environment knobs (read at :func:`default_runner` construction):

* ``REPRO_CACHE_DIR`` — store location (default ``.repro-cache/``);
* ``REPRO_NO_CACHE`` — set to disable the disk store entirely;
* ``REPRO_JOBS`` — default worker count for suite runs.
"""

from __future__ import annotations

import logging
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from itertools import islice

from repro.core import analyze_machine, analyze_many, analyze_trace
from repro.core.export import result_from_dict, result_to_dict
from repro.core.kernel import TraceColumns, columnar_unsupported
from repro.errors import (
    JournalConflict,
    RunnerError,
    RunnerInterrupted,
    error_for_kind,
)
from repro.obs import (
    ObsConfig,
    Recorder,
    get_recorder,
    recording,
    set_recorder,
    write_jsonl,
)
from repro.runner.cache import DEFAULT_MAX_BYTES, ResultStore
from repro.runner.faults import FaultPlan, set_fault_plan
from repro.runner.journal import (
    JOURNAL_NAME,
    STATUS_DONE,
    STATUS_FAILED as JOURNAL_FAILED,
    RunJournal,
)
from repro.runner.job import (
    ExperimentConfig,
    Job,
    JobFailure,
    job_key,
    trace_key,
)
from repro.runner.metrics import (
    STATUS_CACHE_HIT,
    STATUS_COMPUTED,
    STATUS_FAILED,
    STATUS_MEMO_HIT,
    STATUS_REPLAYED,
    JobMetric,
    RunMetrics,
)
from repro.runner.policy import (
    ExecutionPolicy,
    PolicyError,
    assert_excluded_from_identity,
)
from repro.runner.tracestore import DEFAULT_TRACE_MAX_BYTES, TraceStore
from repro.runner.pool import Task, TaskError, TaskPool
from repro.workloads import SUITE, get_workload

_log = logging.getLogger(__name__)

#: Default store location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


def _store_put_safe(store: ResultStore, key: str, payload: dict) -> bool:
    """Write through the store, degrading gracefully on I/O failure.

    A result that cannot be cached is still a result: the caller keeps
    the in-memory object (serial paths) or recomputes inline (parallel
    read-back), so a sick disk slows the run instead of sinking it.
    """
    try:
        store.put(key, payload)
        return True
    except OSError as error:
        get_recorder().count("store.result.write_errors", 1)
        _log.warning("result store write failed (%s); continuing "
                     "without the cached copy", error)
        return False


@dataclass
class ExperimentRun:
    """Outcome of one suite run.

    ``results`` holds every successful workload in request order;
    ``failures`` the rest.  ``metrics`` always covers both.
    """

    results: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    metrics: RunMetrics = field(default_factory=RunMetrics)
    journal_path: str | None = None

    def require(self) -> dict:
        """The results, raising on interruption or any failure.

        An interrupted (checkpointed) run raises
        :class:`~repro.errors.RunnerInterrupted`.  Failures raise the
        :class:`~repro.errors.RunnerError` subclass matching the
        failures' ``kind`` when they all agree (e.g. every job timed
        out → :class:`~repro.errors.TimeoutExceeded`), the plain base
        class otherwise.
        """
        if self.metrics.interrupted:
            raise RunnerInterrupted(
                f"run interrupted: {len(self.results)} job(s) "
                f"checkpointed, the rest never ran; re-run with "
                f"resume=True (CLI: --resume) to pick up from the "
                f"journal",
                failures=self.failures,
                journal_path=self.journal_path,
            )
        if self.failures:
            detail = "; ".join(
                f"{name}: "
                f"{(failure.error.strip().splitlines() or ['unknown'])[-1]}"
                for name, failure in self.failures.items()
            )
            kinds = {failure.kind for failure in self.failures.values()}
            error_class = (error_for_kind(next(iter(kinds)))
                           if len(kinds) == 1 else RunnerError)
            raise error_class(
                f"{len(self.failures)} job(s) failed: {detail}",
                failures=self.failures,
            )
        return self.results


def _analyze(name: str, config: ExperimentConfig):
    workload = get_workload(name)
    machine = workload.machine(scale=config.scale)
    job = Job(name, config)
    return analyze_machine(machine, name, job.analysis_config())


def _capture(name: str, config: ExperimentConfig, budget: int | None):
    """Simulate and record: ``(n_static, records, complete)``.

    ``budget`` bounds how much of the execution is captured (None =
    run to halt); ``complete`` reports whether the machine halted
    within it.
    """
    workload = get_workload(name)
    machine = workload.machine(scale=config.scale)
    with get_recorder().span("simulate"):
        stream = machine.trace()
        if budget is not None:
            stream = islice(stream, budget)
        records = list(stream)
        del stream  # close the generator: flush its sim.* counters
    return len(machine.program.instructions), records, machine.halted


def _maybe_write_segindex(trace_store: TraceStore, key: str, columns,
                          policy: ExecutionPolicy | None) -> None:
    """Persist a segment-index sidecar for a stored columnar trace.

    Only when the policy opts into sharding (``segments > 1``), the
    trace is long enough for at least two ``segment_records`` spans,
    and no sidecar exists yet (the build costs about one analysis
    pass, so it runs once per stored trace).  Failure is never fatal:
    an unwritable sidecar just means serial analysis.
    """
    if policy is None or policy.segments <= 1:
        return
    if trace_store.has_segindex(key):
        return
    from repro.core.shard import build_index, plan_bounds

    n = columns.n_records
    spans = n // policy.segment_records
    if spans < 2:
        return
    try:
        with get_recorder().span("shard.index.build"):
            index = build_index(columns, plan_bounds(n, spans))
        trace_store.put_segindex(key, index)
        get_recorder().count("shard.index.built", 1)
    except Exception as error:  # derived data: degrade, don't fail
        _log.warning("segment index build failed (%s); trace stays "
                     "serial", error)


def _resolve_trace(name: str, config: ExperimentConfig,
                   trace_store: TraceStore | None, budget: int | None,
                   policy: ExecutionPolicy | None = None):
    """Trace tier: ``(n_static, columns, status)`` — replay or capture.

    A stored trace that covers ``budget`` is replayed
    (:data:`STATUS_REPLAYED`) as :class:`~repro.core.kernel.TraceColumns`,
    skipping per-record object construction entirely; otherwise the
    workload is simulated, the capture written through the store for
    the next config, and :data:`STATUS_COMPUTED` reported with (and
    memoized on the store) the capture's columnar layout.
    """
    key = None
    if trace_store is not None:
        key = trace_key(name, config.scale)
        stored = trace_store.get(key, budget, columns=True)
        if stored is not None:
            header, columns = stored
            # Backfill the sidecar on first sharded-policy replay so
            # the *next* replay can go segment-parallel.
            _maybe_write_segindex(trace_store, key, columns, policy)
            return header["n_static"], columns, STATUS_REPLAYED
    n_static, records, complete = _capture(name, config, budget)
    stored_ok = False
    if trace_store is not None:
        try:
            trace_store.put(key, records, n_static, complete=complete,
                            workload=name)
            stored_ok = True
        except OSError as error:
            # A trace that cannot be stored only costs the *next*
            # config a re-simulation; never fail the current job.
            get_recorder().count("store.trace.write_errors", 1)
            _log.warning("trace store write failed (%s); continuing "
                         "without the stored trace", error)
    recorder = get_recorder()
    with recorder.span("trace.columnize"):
        columns = TraceColumns.from_records(records, n_static)
    recorder.count("trace.columnize.records", columns.n_records)
    if stored_ok:
        trace_store.memoize_columns(
            key,
            {"n_static": n_static, "n_records": columns.n_records,
             "complete": complete},
            columns,
        )
        _maybe_write_segindex(trace_store, key, columns, policy)
    return n_static, columns, STATUS_COMPUTED


def _analyze_two_tier(name: str, config: ExperimentConfig,
                      trace_store: TraceStore,
                      policy: ExecutionPolicy | None = None):
    """Compute one job serially through the trace tier:
    ``(result, status)``.

    Byte-identical to :func:`_analyze`: the analyzer sees the same
    record stream whether it comes from a live machine or a stored
    trace (``analyze_trace`` re-truncates to the config's own budget).
    ``policy`` only decides whether a capture or replay writes the
    segment-index sidecar; segment-parallel replay is planned by the
    parent runner (:meth:`ExperimentRunner._prepare_segments`), never
    here, so pool workers cannot nest pools.
    """
    n_static, columns, status = _resolve_trace(
        name, config, trace_store, config.max_instructions, policy=policy,
    )
    result = analyze_trace(columns, n_static, name=name,
                           config=Job(name, config).analysis_config())
    return result, status


def _execute_job(name: str, config: ExperimentConfig, key: str,
                 store_root: str, max_bytes: int,
                 trace_root: str | None = None,
                 trace_max_bytes: int = DEFAULT_TRACE_MAX_BYTES,
                 observe: bool = False,
                 policy: ExecutionPolicy | None = None) -> tuple:
    """Pool worker: compute one job and write it through the store.

    Returns ``(key, profile)`` — the key so the parent knows where to
    read the result, and (when ``observe``) the worker's own recorder
    snapshot for the parent to merge, else None.  Runs in a separate
    process; must stay picklable/module-level.  ``policy`` rides along
    for capture-time sidecar writes.
    """
    with recording(Recorder() if observe else None) as rec:
        store = ResultStore(store_root, max_bytes=max_bytes)
        if store.get(key) is None:
            if trace_root is not None:
                trace_store = TraceStore(
                    trace_root, max_bytes=trace_max_bytes
                )
                result, __ = _analyze_two_tier(name, config, trace_store,
                                               policy=policy)
            else:
                result = _analyze(name, config)
            _store_put_safe(store, key, result_to_dict(result))
    return key, (rec.snapshot() if observe else None)


def _execute_sweep(name: str, configs, keys, store_root: str,
                   max_bytes: int, trace_root: str | None,
                   trace_max_bytes: int, observe: bool = False,
                   policy: ExecutionPolicy | None = None) -> tuple:
    """Pool worker: every sweep job of one workload in a single pass.

    Resolves the workload's trace once (replay or capture) with a
    budget covering the largest config, then fans it out to one
    analyzer per still-missing config via :func:`analyze_many`.
    Returns ``(keys, profile)`` (profile as in :func:`_execute_job`).
    """
    with recording(Recorder() if observe else None) as rec:
        store = ResultStore(store_root, max_bytes=max_bytes)
        missing = [
            (config, key) for config, key in zip(configs, keys)
            if store.get(key) is None
        ]
        if missing:
            budgets = [config.max_instructions for config, __ in missing]
            budget = (None if any(b is None for b in budgets)
                      else max(budgets))
            trace_store = (
                TraceStore(trace_root, max_bytes=trace_max_bytes)
                if trace_root is not None else None
            )
            analysis_configs = [Job(name, config).analysis_config()
                                for config, __ in missing]
            n_static, columns, __ = _resolve_trace(
                name, missing[0][0], trace_store, budget, policy=policy,
            )
            results = analyze_many(columns, n_static, analysis_configs,
                                   name=name)
            for (__, key), result in zip(missing, results):
                _store_put_safe(store, key, result_to_dict(result))
    return tuple(keys), (rec.snapshot() if observe else None)


class _SegmentedJob:
    """Parent-side merge state for one job fanned out as segment tasks.

    ``absorb`` feeds settled segment outcomes (any order — payloads
    buffer until their turn) into the sequential
    :class:`~repro.core.shard.SegmentMerge`; ``result`` is set once
    the last segment merges, ``failed`` once any segment exhausts its
    retries or the merge itself raises.
    """

    __slots__ = ("name", "key", "tasks", "merge", "total", "pending",
                 "next", "failed", "wall", "attempts", "result")

    def __init__(self, name: str, key: str, tasks, merge):
        self.name = name
        self.key = key
        self.tasks = tasks
        self.merge = merge
        self.total = len(tasks)
        self.pending: dict[int, object] = {}
        self.next = 0
        self.failed: str | None = None
        self.wall = 0.0
        self.attempts = 1
        self.result = None

    def absorb(self, idx: int, outcome) -> None:
        if self.failed is not None:
            return
        if isinstance(outcome, TaskError):
            tail = (outcome.error.strip().splitlines()[-1]
                    if outcome.error else "")
            self.failed = (f"segment {idx} failed after "
                           f"{outcome.attempts} attempt(s) "
                           f"({outcome.kind}): {tail}")
            return
        self.wall += outcome.wall_time
        self.attempts = max(self.attempts, outcome.attempts)
        self.pending[idx] = outcome.value
        try:
            while self.next in self.pending:
                self.merge.add(self.pending.pop(self.next))
                self.next += 1
            if self.next == self.total:
                self.result = self.merge.finalize()
        except Exception as error:
            self.failed = f"segment merge failed: {error}"


def _note(run: ExperimentRun, metric: JobMetric) -> None:
    """Record a job outcome in the run metrics *and* the recorder.

    Every resolution lands here, so ``runner.resolve.<status>``
    counters always reconcile with the :class:`RunMetrics` job list.
    """
    get_recorder().count(f"runner.resolve.{metric.status}", 1)
    run.metrics.add(metric)


class ExperimentRunner:
    """Owns the memo, the store and the pool for experiment suites.

    Args:
        store: a :class:`ResultStore`, or None to run without a disk
            cache (in-process memo only).
        trace_store: a :class:`TraceStore`, or None to simulate on
            every result-tier miss (no trace capture or replay).
        observe: ``True`` or an :class:`repro.obs.ObsConfig` to record
            a profile (spans + counters) per run and attach it to the
            run's metrics; ``False`` (default) records nothing.
        faults: a :class:`repro.runner.faults.FaultPlan` installed for
            the duration of each run — the chaos-testing channel; None
            (default) injects nothing.
        policy: an :class:`~repro.runner.policy.ExecutionPolicy`
            carrying every execution knob (jobs, timeout, retries,
            segments, segment_records); None = the defaults.  Policy is
            execution, never identity: job keys exclude all of it, so
            changing how work runs always hits the same caches.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        *,
        trace_store: TraceStore | None = None,
        observe: bool | ObsConfig = False,
        faults: FaultPlan | None = None,
        policy: ExecutionPolicy | None = None,
    ):
        if policy is None:
            policy = ExecutionPolicy()
        elif not isinstance(policy, ExecutionPolicy):
            raise PolicyError(f"policy must be an ExecutionPolicy, got "
                              f"{type(policy).__name__}")
        self.policy = policy
        assert_excluded_from_identity()
        self.store = store
        self.trace_store = trace_store
        self.obs = self._normalize_obs(observe)
        self.faults = faults
        self._memo: dict[str, object] = {}
        #: run-scoped state (set by run()/run_many(), read by the
        #: serial/parallel strategies; the runner is not thread-safe).
        self._journal: RunJournal | None = None
        self._cancel = None

    @staticmethod
    def _normalize_obs(observe: bool | ObsConfig) -> ObsConfig:
        if isinstance(observe, ObsConfig):
            return observe
        return ObsConfig(enabled=bool(observe))

    # ------------------------------------------------------------------
    # Observation lifecycle.
    # ------------------------------------------------------------------

    def _begin_observation(self):
        """Start observing this run if configured; returns a token.

        When an *enabled* recorder is already installed (the caller is
        running inside :func:`repro.obs.recording`), it is borrowed —
        its snapshot is then cumulative and the caller keeps ownership.
        Otherwise a fresh :class:`Recorder` is installed for the run
        and the previous (no-op) recorder restored afterwards.
        """
        if not self.obs.enabled:
            return None
        current = get_recorder()
        if current.enabled:
            return (current, None, False)
        rec = Recorder()
        return (rec, set_recorder(rec), True)

    def _finish_observation(self, token) -> dict | None:
        """End observation; returns the profile snapshot (or None)."""
        if token is None:
            return None
        rec, previous, owned = token
        if owned:
            set_recorder(previous)
        profile = rec.snapshot()
        if self.obs.events_path:
            try:
                write_jsonl(profile, self.obs.events_path)
            except OSError:
                pass  # observation must never sink a run
        return profile

    # ------------------------------------------------------------------
    # Fault-injection and journal lifecycle.
    # ------------------------------------------------------------------

    def _begin_faults(self):
        """Install this runner's fault plan for the run; returns a
        restore token (None when the runner injects nothing)."""
        if self.faults is None:
            return None
        return (set_fault_plan(self.faults),)

    def _finish_faults(self, token) -> None:
        if token is not None:
            set_fault_plan(token[0])

    def _open_journal(self, resume: bool) -> RunJournal | None:
        """The run's crash-safety journal (``<cache>/journal.jsonl``).

        Journaling needs a disk store (the journal records that a
        result was durably published *there*).  An unavailable journal
        — locked by a live sibling process, unwritable directory —
        degrades to running without checkpointing rather than failing
        the run.
        """
        if self.store is None:
            return None
        journal = RunJournal(self.store.root / JOURNAL_NAME, resume=resume)
        try:
            return journal.open()
        except JournalConflict as error:
            get_recorder().count("journal.conflicts", 1)
            _log.warning("journal unavailable (%s); running without "
                         "crash-safe checkpointing", error)
            return None
        except OSError as error:
            _log.warning("journal unwritable (%s); running without "
                         "crash-safe checkpointing", error)
            return None

    def _journal_record(self, key: str, workload: str,
                        status: str) -> None:
        if self._journal is not None and key:
            self._journal.record(key, workload, status)

    def _journal_check(self, key: str, name: str, hit) -> None:
        """Reconcile a journaled-done job against the store."""
        if self._journal is None or not self._journal.completed(key):
            return
        if hit is None:
            self._journal.conflict(key, name)
        else:
            get_recorder().count("journal.skips", 1)

    def _cancelled(self) -> bool:
        return self._cancel is not None and self._cancel.is_set()

    def _safe_put(self, key: str, result) -> None:
        if self.store is not None:
            _store_put_safe(self.store, key, result_to_dict(result))

    def _compute(self, name: str, config: ExperimentConfig):
        """Compute one job serially through whichever tiers exist:
        ``(result, status)``."""
        if self.trace_store is not None:
            return _analyze_two_tier(name, config, self.trace_store,
                                     policy=self.policy)
        return _analyze(name, config), STATUS_COMPUTED

    # ------------------------------------------------------------------
    # Single-job path (the report layer's run_workload).
    # ------------------------------------------------------------------

    def run_one(self, name: str, config: ExperimentConfig):
        """Analyse one workload in-process; exceptions propagate.

        Repeat calls with an equal config return the identical object
        (memo), so exhibit code can rely on result identity.  When the
        runner observes, the call's profile is attached to the result
        (``result.profile``).
        """
        token = self._begin_observation()
        fault_token = self._begin_faults()
        try:
            with get_recorder().span("runner.run_one"):
                result = self._run_one_impl(name, config)
        finally:
            self._finish_faults(fault_token)
            profile = self._finish_observation(token)
        if profile is not None:
            result.profile = profile
        return result

    def _run_one_impl(self, name: str, config: ExperimentConfig):
        key = job_key(Job(name, config))
        result = self._memo.get(key)
        if result is not None:
            get_recorder().count(
                f"runner.resolve.{STATUS_MEMO_HIT}", 1
            )
            return result
        result = self._load(key)
        if result is not None:
            get_recorder().count(
                f"runner.resolve.{STATUS_CACHE_HIT}", 1
            )
        else:
            result, status = self._compute_one(name, config, key)
            get_recorder().count(f"runner.resolve.{status}", 1)
            if self.store is not None:
                self.store.put(key, result_to_dict(result))
        self._memo[key] = result
        return result

    def _compute_one(self, name: str, config: ExperimentConfig,
                     key: str):
        """Compute one in-process job: ``(result, status)``.

        Segment-parallel when the planner allows: the planned segment
        tasks stream through their own :class:`TaskPool` and settle
        through :meth:`_finish_segmented`, exactly as a parallel
        :meth:`run` settles them.  Otherwise serial (:meth:`_compute`).
        """
        seg = self._prepare_segments(name, config, key)
        if seg is None:
            return self._compute(name, config)
        pool = TaskPool(max_workers=self.policy.jobs,
                        timeout=self.policy.timeout,
                        retries=self.policy.retries)
        for tkey, outcome in pool.run_stream(seg.tasks):
            seg.absorb(int(tkey.rpartition("#seg")[2]), outcome)
        return self._finish_segmented(config, seg)

    # ------------------------------------------------------------------
    # Suite path.
    # ------------------------------------------------------------------

    def run(self, config: ExperimentConfig | None = None,
            jobs: int | None = None, resume: bool = False,
            cancel=None) -> ExperimentRun:
        """Run every configured workload; never raises for job errors.

        A job that fails to hash, times out, crashes or raises is
        recorded as a :class:`JobFailure` in ``run.failures``; the
        remaining jobs complete normally.  When the runner observes,
        the run's profile lands in ``run.metrics.profile``.

        When a disk store is configured the run keeps a write-ahead
        journal next to it; ``resume=True`` replays a previous
        (interrupted) run's journal.  ``cancel`` is an optional
        :class:`threading.Event`: once set, in-flight jobs drain and
        are checkpointed, the rest never start, and the returned run
        has ``metrics.interrupted`` set.
        """
        token = self._begin_observation()
        fault_token = self._begin_faults()
        self._journal = self._open_journal(resume)
        self._cancel = cancel
        try:
            with get_recorder().span("runner.run"):
                run = self._run_impl(config, jobs)
            if self._journal is not None:
                run.journal_path = str(self._journal.path)
        finally:
            if self._journal is not None:
                self._journal.close()
            self._journal = None
            self._cancel = None
            self._finish_faults(fault_token)
            profile = self._finish_observation(token)
        run.metrics.profile = profile
        return run

    def _run_impl(self, config: ExperimentConfig | None,
                  jobs: int | None) -> ExperimentRun:
        config = config or ExperimentConfig()
        workers = max(1, jobs if jobs is not None else self.policy.jobs)
        names = config.workloads or tuple(w.name for w in SUITE)
        run = ExperimentRun()
        run.metrics.requested_workers = workers
        run.metrics.policy = self.policy.describe()
        start = time.monotonic()

        # Hash every job; a workload whose compile/input generation
        # blows up fails here without sinking the suite.  Unknown names
        # still raise — that is a caller bug, not a job fault.
        keyed: list[tuple[str, str]] = []
        for name in names:
            get_workload(name)
            try:
                keyed.append((name, job_key(Job(name, config))))
            except Exception as error:
                self._record_failure(run, name, "", JobFailure(
                    workload=name, error=f"{type(error).__name__}: {error}",
                ))

        # Serve memo/store hits; collect the rest for execution.
        misses: list[tuple[str, str]] = []
        for name, key in keyed:
            hit = self._memo.get(key)
            status = STATUS_MEMO_HIT
            if hit is None:
                hit = self._load(key)
                status = STATUS_CACHE_HIT
                self._journal_check(key, name, hit)
            if hit is None:
                misses.append((name, key))
                continue
            self._memo[key] = hit
            run.results[name] = hit
            _note(run, JobMetric(workload=name, key=key, status=status))

        if misses and not self._cancelled():
            if workers == 1 or len(misses) == 1:
                self._run_serial(run, config, misses)
            else:
                self._run_parallel(run, config, misses, workers)

        if self._cancelled():
            run.metrics.interrupted = True

        # Present results in request order regardless of completion order.
        run.results = {
            name: run.results[name] for name in names if name in run.results
        }
        run.metrics.jobs.sort(key=lambda m: names.index(m.workload))
        run.metrics.total_wall = time.monotonic() - start
        return run

    # ------------------------------------------------------------------
    # Sweep path: many configs over one trace capture per workload.
    # ------------------------------------------------------------------

    def run_many(self, configs, jobs: int | None = None,
                 resume: bool = False, cancel=None,
                 ) -> list[ExperimentRun]:
        """Run a config sweep; each workload is simulated at most once.

        Returns one :class:`ExperimentRun` per config, aligned with
        ``configs``.  Jobs missing from both disk tiers are grouped by
        execution identity (workload + scale), each group resolves its
        trace once — stored replay or a single capture with a budget
        covering the group's largest config — and
        :func:`repro.core.analyze_many` fans the one pass out to every
        config.  Failures follow :meth:`run` semantics: recorded per
        job, never raised.  When the runner observes, the sweep's one
        shared profile is attached to every run's metrics.

        ``resume`` / ``cancel`` follow :meth:`run`: each job's
        terminal state is journaled (fsync'd) before its result is
        published, a set ``cancel`` event drains in-flight work and
        checkpoints, and a resumed sweep re-executes only the jobs not
        journaled as complete.
        """
        token = self._begin_observation()
        fault_token = self._begin_faults()
        self._journal = self._open_journal(resume)
        self._cancel = cancel
        try:
            with get_recorder().span("runner.sweep"):
                runs = self._run_many_impl(configs, jobs)
            if self._journal is not None:
                for run in runs:
                    run.journal_path = str(self._journal.path)
        finally:
            if self._journal is not None:
                self._journal.close()
            self._journal = None
            self._cancel = None
            self._finish_faults(fault_token)
            profile = self._finish_observation(token)
        if profile is not None:
            for run in runs:
                run.metrics.profile = profile
        return runs

    def _run_many_impl(self, configs, jobs: int | None,
                       ) -> list[ExperimentRun]:
        configs = list(configs)
        workers = max(1, jobs if jobs is not None else self.policy.jobs)
        runs = [ExperimentRun() for __ in configs]
        name_lists = []
        start = time.monotonic()

        # Serve memo/store hits; group the rest by execution identity.
        groups: dict[tuple, list] = {}
        for run, config in zip(runs, configs):
            run.metrics.requested_workers = workers
            run.metrics.policy = self.policy.describe()
            names = config.workloads or tuple(w.name for w in SUITE)
            name_lists.append(names)
            for name in names:
                get_workload(name)
                try:
                    key = job_key(Job(name, config))
                except Exception as error:
                    self._record_failure(run, name, "", JobFailure(
                        workload=name,
                        error=f"{type(error).__name__}: {error}",
                    ))
                    continue
                hit = self._memo.get(key)
                status = STATUS_MEMO_HIT
                if hit is None:
                    hit = self._load(key)
                    status = STATUS_CACHE_HIT
                    self._journal_check(key, name, hit)
                if hit is None:
                    groups.setdefault((name, config.scale), []).append(
                        (run, config, key)
                    )
                    continue
                self._memo[key] = hit
                run.results[name] = hit
                _note(run, JobMetric(workload=name, key=key, status=status))

        if groups and not self._cancelled():
            if workers == 1 or len(groups) == 1:
                self._sweep_serial(groups)
            else:
                self._sweep_parallel(groups, workers)

        total = time.monotonic() - start
        interrupted = self._cancelled()
        for run, names in zip(runs, name_lists):
            run.results = {
                name: run.results[name]
                for name in names if name in run.results
            }
            run.metrics.jobs.sort(key=lambda m: names.index(m.workload))
            run.metrics.total_wall = total
            run.metrics.interrupted = interrupted
        return runs

    def _sweep_serial(self, groups) -> None:
        for (name, __scale), entries in groups.items():
            if self._cancelled():
                return
            for run, __, __k in entries:
                run.metrics.peak_workers = max(run.metrics.peak_workers, 1)
            group_start = time.monotonic()
            budgets = [config.max_instructions for __, config, __k in entries]
            budget = (None if any(b is None for b in budgets)
                      else max(budgets))
            try:
                analysis_configs = [Job(name, config).analysis_config()
                                    for __, config, __k in entries]
                n_static, columns, status = _resolve_trace(
                    name, entries[0][1], self.trace_store, budget,
                )
                results = analyze_many(columns, n_static,
                                       analysis_configs, name=name)
            except Exception as error:
                wall = time.monotonic() - group_start
                for run, __, key in entries:
                    self._record_failure(run, name, key, JobFailure(
                        workload=name,
                        error=f"{type(error).__name__}: {error}",
                        wall_time=wall,
                    ))
                continue
            # The group's one pass served every entry; split its cost.
            wall = (time.monotonic() - group_start) / len(entries)
            for (run, __, key), result in zip(entries, results):
                self._safe_put(key, result)
                self._journal_record(key, name, STATUS_DONE)
                self._memo[key] = result
                run.results[name] = result
                _note(run, JobMetric(
                    workload=name, key=key, status=status,
                    wall_time=wall, instructions=result.nodes, attempts=1,
                ))

    def _sweep_parallel(self, groups, workers: int) -> None:
        scratch = None
        store = self.store
        if store is None:
            scratch = tempfile.TemporaryDirectory(prefix="repro-runner-")
            store = ResultStore(scratch.name)
        trace_root, trace_max = self._trace_store_args()
        try:
            pool = TaskPool(max_workers=workers,
                            timeout=self.policy.timeout,
                            retries=self.policy.retries)
            observing = get_recorder().enabled
            tasks = [
                Task(key=f"{name}@{scale}", fn=_execute_sweep,
                     args=(name,
                           tuple(config for __, config, __k in entries),
                           tuple(key for __, __c, key in entries),
                           str(store.root), store.max_bytes,
                           trace_root, trace_max, observing, self.policy))
                for (name, scale), entries in groups.items()
            ]
            pool_run = pool.run(tasks, cancel=self._cancel)
            self._merge_worker_profiles(pool_run.outcomes)
            for (name, scale), entries in groups.items():
                for run, __, __k in entries:
                    run.metrics.peak_workers = max(
                        run.metrics.peak_workers, pool_run.peak_workers
                    )
                outcome = pool_run.outcomes.get(f"{name}@{scale}")
                if outcome is None and pool_run.cancelled:
                    continue  # never launched: not a failure, just unrun
                if isinstance(outcome, TaskError):
                    for run, __, key in entries:
                        failure = JobFailure(
                            workload=name, error=outcome.error,
                            attempts=outcome.attempts,
                            wall_time=outcome.wall_time,
                            timed_out=outcome.timed_out,
                            kind=outcome.kind,
                        )
                        self._journal_record(key, name, JOURNAL_FAILED)
                        self._record_failure(run, name, key, failure)
                    continue
                wall = ((outcome.wall_time if outcome else 0.0)
                        / len(entries))
                attempts = outcome.attempts if outcome else 1
                for run, config, key in entries:
                    payload = store.get(key)
                    if payload is None:
                        # The worker reported success but its stored
                        # result is unreadable (torn write, eviction
                        # race, corruption): recompute in-process
                        # rather than failing a job that already ran.
                        result = self._recover_inline(run, name, config,
                                                      key, attempts)
                        if result is None:
                            continue
                    else:
                        result = result_from_dict(payload)
                    self._journal_record(key, name, STATUS_DONE)
                    self._memo[key] = result
                    run.results[name] = result
                    _note(run, JobMetric(
                        workload=name, key=key, status=STATUS_COMPUTED,
                        wall_time=wall, instructions=result.nodes,
                        attempts=attempts,
                    ))
        finally:
            if scratch is not None:
                scratch.cleanup()

    def _recover_inline(self, run, name: str, config, key: str,
                        attempts: int):
        """Recompute a job in-process after its stored result vanished.

        Returns the result, or None after recording the failure.
        """
        get_recorder().count("runner.recovered", 1)
        _log.warning("runner: %s completed in a worker but its stored "
                     "result is unreadable; recomputing in-process", name)
        try:
            result, __ = self._compute(name, config)
        except Exception as error:
            self._journal_record(key, name, JOURNAL_FAILED)
            self._record_failure(run, name, key, JobFailure(
                workload=name,
                error=f"{type(error).__name__}: {error}",
                attempts=attempts,
            ))
            return None
        self._safe_put(key, result)
        return result

    # ------------------------------------------------------------------
    # Execution strategies.
    # ------------------------------------------------------------------

    def _trace_store_args(self) -> tuple[str | None, int]:
        """(root, max_bytes) of the trace tier, for pool workers."""
        if self.trace_store is None:
            return None, 0
        return str(self.trace_store.root), self.trace_store.max_bytes

    @staticmethod
    def _merge_worker_profiles(outcomes) -> None:
        """Fold observing workers' snapshots into the parent recorder.

        Workers return ``(payload, profile)``; a worker that ran
        unobserved (or failed), or a segment task (whose value is a
        payload dict), contributes nothing.
        """
        recorder = get_recorder()
        if not recorder.enabled:
            return
        for outcome in outcomes.values():
            if isinstance(outcome, TaskError):
                continue
            value = outcome.value
            if (isinstance(value, tuple) and len(value) == 2
                    and value[1] is not None):
                recorder.merge(value[1])

    def _run_serial(self, run: ExperimentRun, config, misses) -> None:
        run.metrics.peak_workers = max(run.metrics.peak_workers, 1)
        for name, key in misses:
            if self._cancelled():
                return
            job_start = time.monotonic()
            try:
                result, status = self._compute_one(name, config, key)
            except Exception as error:
                self._journal_record(key, name, JOURNAL_FAILED)
                self._record_failure(run, name, key, JobFailure(
                    workload=name,
                    error=f"{type(error).__name__}: {error}",
                    wall_time=time.monotonic() - job_start,
                ))
                continue
            self._safe_put(key, result)
            self._journal_record(key, name, STATUS_DONE)
            self._memo[key] = result
            run.results[name] = result
            _note(run, JobMetric(
                workload=name, key=key, status=status,
                wall_time=time.monotonic() - job_start,
                instructions=result.nodes, attempts=1,
            ))

    def _prepare_segments(self, name: str, config, key: str):
        """Plan one miss as segment pool tasks, or None for a whole job.

        The one segment planner, for :meth:`run_one` and :meth:`run`
        alike.  The segmented plan applies only when the policy shards,
        the kernel can run the config, and the stored trace covers the
        budget with a usable sidecar index; everything else (including
        a cold capture, which has no trace to split yet) stays a
        whole-job task.  A plan the sidecar cannot serve counts
        ``analyze.shard.fallback``.
        """
        policy = self.policy
        if policy.segments <= 1 or self.trace_store is None:
            return None
        analysis_config = Job(name, config).analysis_config()
        if columnar_unsupported(analysis_config) is not None:
            return None
        tkey = trace_key(name, config.scale)
        header = self.trace_store.header(tkey)
        if header is None or not self.trace_store._serves(
                header, config.max_instructions):
            return None
        index = self.trace_store.get_segindex(tkey)
        if index is None:
            return None
        from repro.core.shard import (
            ShardError,
            _segment_task,
            prepare_file_segments,
        )

        try:
            task_args, merge = prepare_file_segments(
                self.trace_store.path_for(tkey), analysis_config,
                index, policy.segments, name=name,
            )
        except (ShardError, OSError):
            get_recorder().count("analyze.shard.fallback", 1)
            return None
        tasks = [
            Task(key=f"{key}#seg{i}", fn=_segment_task, args=args)
            for i, args in enumerate(task_args)
        ]
        self.trace_store._hit()
        self.trace_store._touch(self.trace_store.path_for(tkey))
        return _SegmentedJob(name, key, tasks, merge)

    def _finish_segmented(self, config, seg: "_SegmentedJob"):
        """A settled segmented job's ``(result, status)``.

        The merged result when every segment landed; otherwise (a
        segment task failed every pool retry, or the merge raised) the
        whole job is recomputed serially in the parent — byte-identical
        by the parity suite's guarantee.  Recompute errors propagate.
        """
        if seg.result is not None:
            get_recorder().count("analyze.shard.runs", 1)
            return seg.result, STATUS_REPLAYED
        get_recorder().count("analyze.shard.fallback", 1)
        _log.warning("runner: segmented %s failed (%s); retrying the "
                     "whole job serially", seg.name, seg.failed)
        return self._compute(seg.name, config)

    def _settle_segmented(self, run: ExperimentRun, config,
                          seg: "_SegmentedJob",
                          pool_cancelled: bool) -> None:
        """Publish a segmented job's merged (or serially recomputed)
        result into ``run``."""
        name, key = seg.name, seg.key
        merged = seg.result is not None
        if not merged and seg.failed is None and pool_cancelled:
            return  # segments never all ran: not a failure, just unrun
        job_start = time.monotonic()
        attempts = seg.attempts if merged else seg.attempts + 1
        try:
            result, status = self._finish_segmented(config, seg)
        except Exception as error:
            self._journal_record(key, name, JOURNAL_FAILED)
            self._record_failure(run, name, key, JobFailure(
                workload=name,
                error=f"{type(error).__name__}: {error}",
                wall_time=time.monotonic() - job_start,
                attempts=attempts,
            ))
            return
        self._safe_put(key, result)
        self._journal_record(key, name, STATUS_DONE)
        self._memo[key] = result
        run.results[name] = result
        _note(run, JobMetric(
            workload=name, key=key, status=status,
            wall_time=seg.wall if merged else time.monotonic() - job_start,
            instructions=result.nodes, attempts=attempts,
        ))

    def _run_parallel(self, run: ExperimentRun, config, misses,
                      workers: int) -> None:
        # A disk store is the result channel; without one, use a
        # throwaway store that only lives for this run.
        scratch = None
        store = self.store
        if store is None:
            scratch = tempfile.TemporaryDirectory(prefix="repro-runner-")
            store = ResultStore(scratch.name)
        try:
            pool = TaskPool(max_workers=workers,
                            timeout=self.policy.timeout,
                            retries=self.policy.retries)
            trace_root, trace_max = self._trace_store_args()
            observing = get_recorder().enabled
            # Jobs whose stored trace carries a usable segment index
            # fan out as per-segment tasks; the rest run whole.  Both
            # kinds share the one pool, so segments schedule alongside
            # whole jobs and fill its idle slots.
            tasks = []
            whole: list[tuple[str, str]] = []
            seg_jobs: dict[str, _SegmentedJob] = {}
            for name, key in misses:
                seg = self._prepare_segments(name, config, key)
                if seg is not None:
                    seg_jobs[key] = seg
                    tasks.extend(seg.tasks)
                    continue
                whole.append((name, key))
                tasks.append(Task(
                    key=key, fn=_execute_job,
                    args=(name, config, key, str(store.root),
                          store.max_bytes, trace_root, trace_max,
                          observing, self.policy),
                ))
            outcomes: dict = {}
            stats: dict = {}
            # Stream so each segmented job's sequential merge overlaps
            # the still-running workers.
            for tkey, outcome in pool.run_stream(
                    tasks, cancel=self._cancel, stats=stats):
                outcomes[tkey] = outcome
                jkey, sep, idx = tkey.partition("#seg")
                if sep and jkey in seg_jobs:
                    seg_jobs[jkey].absorb(int(idx), outcome)
            pool_cancelled = stats.get("cancelled", False)
            self._merge_worker_profiles(outcomes)
            run.metrics.peak_workers = max(
                run.metrics.peak_workers, stats.get("peak", 0)
            )
            for seg in seg_jobs.values():
                self._settle_segmented(run, config, seg, pool_cancelled)
            for name, key in whole:
                outcome = outcomes.get(key)
                if outcome is None and pool_cancelled:
                    continue  # never launched: not a failure, just unrun
                if isinstance(outcome, TaskError):
                    failure = JobFailure(
                        workload=name, error=outcome.error,
                        attempts=outcome.attempts,
                        wall_time=outcome.wall_time,
                        timed_out=outcome.timed_out,
                        kind=outcome.kind,
                    )
                    self._journal_record(key, name, JOURNAL_FAILED)
                    self._record_failure(run, name, key, failure)
                    continue
                payload = store.get(key)
                if payload is None:
                    result = self._recover_inline(
                        run, name, config, key,
                        outcome.attempts if outcome else 1,
                    )
                    if result is None:
                        continue
                else:
                    result = result_from_dict(payload)
                self._journal_record(key, name, STATUS_DONE)
                self._memo[key] = result
                run.results[name] = result
                _note(run, JobMetric(
                    workload=name, key=key, status=STATUS_COMPUTED,
                    wall_time=outcome.wall_time if outcome else 0.0,
                    instructions=result.nodes,
                    attempts=outcome.attempts if outcome else 1,
                ))
        finally:
            if scratch is not None:
                scratch.cleanup()

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------

    def _load(self, key: str):
        if self.store is None:
            return None
        payload = self.store.get(key)
        if payload is None:
            return None
        return result_from_dict(payload)

    def _record_failure(self, run: ExperimentRun, name: str, key: str,
                        failure: JobFailure) -> None:
        run.failures[name] = failure
        _note(run, JobMetric(
            workload=name, key=key, status=STATUS_FAILED,
            wall_time=failure.wall_time, attempts=failure.attempts,
            error=failure.error.strip().splitlines()[-1]
            if failure.error else "",
        ))

    def clear_memo(self) -> None:
        """Drop the in-process memo (the disk store is untouched)."""
        self._memo.clear()


# ----------------------------------------------------------------------
# The shared default runner.
# ----------------------------------------------------------------------

_DEFAULT_RUNNER: ExperimentRunner | None = None

#: Guards the lazy construction/replacement of the shared runner —
#: concurrent first callers (server threads) must agree on one
#: instance rather than each building (and caching into) their own.
_DEFAULT_RUNNER_LOCK = threading.RLock()


def default_store() -> ResultStore | None:
    """The store the default runner uses, honouring the environment."""
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    return ResultStore(root, max_bytes=DEFAULT_MAX_BYTES)


def default_trace_store() -> TraceStore | None:
    """The trace tier the default runner uses (same root, own cap)."""
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    return TraceStore(root, max_bytes=DEFAULT_TRACE_MAX_BYTES)


def default_runner() -> ExperimentRunner:
    """The process-wide runner every consumer shares.

    Thread-safe: concurrent first callers race to construct, but all
    of them leave with the *same* instance.
    """
    global _DEFAULT_RUNNER
    with _DEFAULT_RUNNER_LOCK:
        if _DEFAULT_RUNNER is None:
            _DEFAULT_RUNNER = ExperimentRunner(
                store=default_store(),
                trace_store=default_trace_store(),
                policy=ExecutionPolicy(
                    jobs=int(os.environ.get("REPRO_JOBS", "1"))),
            )
        return _DEFAULT_RUNNER


def set_default_runner(runner: ExperimentRunner | None) -> None:
    """Install ``runner`` as the process-wide default (None = rebuild
    from the environment on next use).  This is how
    :func:`repro.api.configure` swaps cache/observation settings in
    without environment-variable side channels."""
    global _DEFAULT_RUNNER
    with _DEFAULT_RUNNER_LOCK:
        _DEFAULT_RUNNER = runner


def swap_default_runner(make) -> ExperimentRunner:
    """Atomically replace the default runner.

    ``make(current)`` builds the replacement while the lock is held,
    so concurrent ``repro.api.configure`` calls serialise instead of
    both deriving from the same "current" and losing one update.
    """
    global _DEFAULT_RUNNER
    with _DEFAULT_RUNNER_LOCK:
        runner = make(default_runner())
        _DEFAULT_RUNNER = runner
        return runner


def reset_default_runner() -> None:
    """Forget the shared runner (tests re-read the environment)."""
    set_default_runner(None)
