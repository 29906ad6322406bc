"""Experiment orchestration: jobs -> pool -> store -> results.

:class:`ExperimentRunner` is the one place experiment execution
happens; the report layer, the benchmark harness and the CLI all
delegate here, so they share a single warm store.

Every entry point is a sweep through one lifecycle:
:meth:`~ExperimentRunner.run_many` runs many configs,
:meth:`~ExperimentRunner.run` one config and
:meth:`~ExperimentRunner.run_one` one workload.  A job is served from
the in-process memo (same object back), else the disk store
(:func:`repro.core.export.result_from_dict`, byte-identical exhibits).
The misses are grouped by execution identity (workload + scale), and
each group resolves its trace once — a stored replay
(:func:`repro.runner.job.trace_key`) or one capture with a budget
covering its largest config, stored for the next sweep — and
:func:`repro.core.analyze_many` fans that pass out to every config.  A
group of one config whose stored trace has a segment-index sidecar is
split into segment tasks when the policy shards (docs/sharding.md).

Groups run in-process, or on a :class:`TaskPool` when there are
several groups and workers, or a segmented group.  Pool workers ship
nothing through pipes: each writes its results into the store
(content-addressed by job key, atomic replace) and the parent reads
them back.  The store *is* the transport, which is also why a
``--no-cache`` parallel run still uses a throwaway one.

Environment knobs (read at :func:`default_runner` construction):

* ``REPRO_CACHE_DIR`` — store location (default ``.repro-cache/``);
* ``REPRO_NO_CACHE`` — set to disable the disk store entirely;
* ``REPRO_JOBS`` — default worker count for suite runs (unset = 1;
  :func:`repro.runner.policy.env_jobs` rejects anything but an int
  >= 1).
"""

from __future__ import annotations

import logging
import os
import resource
import tempfile
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice

from repro.core import analyze_many, analyze_trace
from repro.core.export import result_from_dict, result_to_dict
from repro.core.kernel import TraceColumns
from repro.errors import RunnerError, RunnerInterrupted, error_for_kind
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
    env_jobs,
)
from repro.runner.tracestore import DEFAULT_TRACE_MAX_BYTES, TraceStore
from repro.runner.pool import Task, TaskError, TaskPool, TaskResult
from repro.workloads import SUITE, get_workload

_log = logging.getLogger(__name__)

#: Default store location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


def _store_put_safe(store: ResultStore, key: str, payload: dict) -> bool:
    """Write through the store, degrading gracefully on I/O failure.

    A result that cannot be cached is still a result: the caller keeps
    the in-memory object (in-process groups) or recomputes inline
    (pool read-back), so a sick disk slows the run instead of sinking
    it.
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

    def require(self) -> dict:
        """The results, raising on interruption or any failure.

        An interrupted run raises
        :class:`~repro.errors.RunnerInterrupted`.  Failures raise the
        :class:`~repro.errors.RunnerError` subclass matching the
        failures' ``kind`` when they all agree (e.g. every job timed
        out → :class:`~repro.errors.TimeoutExceeded`), the plain base
        class otherwise.
        """
        if self.metrics.interrupted:
            raise RunnerInterrupted(
                f"run interrupted after {len(self.results)} job(s); "
                f"finished jobs are in the result store, so re-run "
                f"the same call to continue",
                failures=self.failures,
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
    """One job simulated and analysed with no store in between: the
    live-machine answer every runner path must reproduce byte for
    byte (the tests' oracle)."""
    workload = get_workload(name)
    machine = workload.machine(scale=config.scale)
    return analyze_trace(machine.trace(), len(machine.program.instructions),
                         name=name, config=Job(name, config).analysis_config())


def _capped(stream, budget: int | None):
    """``stream``'s first ``budget`` records; the generator is closed
    (flushing its ``sim.*`` counters) as soon as they are taken, before
    the consumer finishes with them."""
    with closing(stream):
        yield from islice(stream, budget)


def _capture(name: str, config: ExperimentConfig, budget: int | None):
    """Simulate and record: ``(n_static, columns, complete)``.

    The live trace streams straight into
    :class:`~repro.core.kernel.TraceColumns` inside the ``simulate``
    span, so no per-record list is ever held.  ``budget`` bounds how
    much of the execution is captured (None = run to halt);
    ``complete`` reports whether the machine halted within it.
    """
    workload = get_workload(name)
    machine = workload.machine(scale=config.scale)
    n_static = len(machine.program.instructions)
    with get_recorder().span("simulate"):
        columns = TraceColumns.from_records(
            _capped(machine.trace(), budget), n_static)
    return n_static, columns, machine.halted


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


def _gauge_peak_rss(recorder) -> None:
    """Gauge ``process.peak_rss_mb`` from ``getrusage``: this process's
    peak (``scope="self"``) and its largest reaped child's
    (``scope="children"``, 0 before any child exits).  Linux reports
    ``ru_maxrss`` in KiB."""
    for scope, who in (("self", resource.RUSAGE_SELF),
                       ("children", resource.RUSAGE_CHILDREN)):
        recorder.gauge("process.peak_rss_mb",
                       resource.getrusage(who).ru_maxrss / 1024.0,
                       labels={"scope": scope})


def _resolve_trace(name: str, config: ExperimentConfig,
                   trace_store: TraceStore | None, budget: int | None,
                   policy: ExecutionPolicy | None):
    """Trace tier: ``(n_static, columns, status)`` — replay or capture.

    A stored trace that covers ``budget`` is replayed
    (:data:`STATUS_REPLAYED`) as :class:`~repro.core.kernel.TraceColumns`;
    otherwise the workload is simulated straight into columns
    (:func:`_capture`), which are written through the store for the
    next config (the store keeps them in its one slot) and reported
    :data:`STATUS_COMPUTED`.  Either way a sharding ``policy`` gets the
    trace its segment-index sidecar.
    """
    key = None
    if trace_store is not None:
        key = trace_key(name, config.scale)
        stored = trace_store.get(key, budget)
        if stored is not None:
            header, columns = stored
            # Backfill the sidecar on first sharded-policy replay so
            # the *next* replay can go segment-parallel.
            _maybe_write_segindex(trace_store, key, columns, policy)
            return header["n_static"], columns, STATUS_REPLAYED
    n_static, columns, complete = _capture(name, config, budget)
    if trace_store is not None:
        try:
            trace_store.put(key, columns, n_static, complete=complete,
                            workload=name)
        except OSError as error:
            # A trace that cannot be stored only costs the *next*
            # config a re-simulation; never fail the current job.
            get_recorder().count("store.trace.write_errors", 1)
            _log.warning("trace store write failed (%s); continuing "
                         "without the stored trace", error)
        else:
            _maybe_write_segindex(trace_store, key, columns, policy)
    return n_static, columns, STATUS_COMPUTED


def _analyze_group(name: str, configs, trace_store: TraceStore | None,
                   policy: ExecutionPolicy | None):
    """One execution analysed under many configs: ``(results, status)``.

    The trace is resolved once (:func:`_resolve_trace`) with a budget
    covering the largest config, and :func:`analyze_many` fans the one
    pass out to one analyzer per config, each re-truncated to its own
    budget — so every result is byte-identical to :func:`_analyze`.
    """
    budgets = [config.max_instructions for config in configs]
    budget = None if None in budgets else max(budgets)
    n_static, columns, status = _resolve_trace(
        name, configs[0], trace_store, budget, policy,
    )
    results = analyze_many(
        columns, n_static,
        [Job(name, config).analysis_config() for config in configs],
        name=name,
    )
    return results, status


def _execute_sweep(name: str, configs, keys, store_root: str,
                   max_bytes: int, trace_root: str | None,
                   trace_max_bytes: int, observe: bool = False,
                   policy: ExecutionPolicy | None = None) -> tuple:
    """Pool worker: one group's still-missing jobs in a single pass.

    Writes each result through the store and returns ``(status,
    profile)``: the trace tier's status (:data:`STATUS_REPLAYED` or
    :data:`STATUS_COMPUTED`; :data:`STATUS_CACHE_HIT` when every
    result was already stored) and, when ``observe``, the worker's own
    recorder snapshot for the parent to merge, else None.  Runs in a
    separate process; must stay picklable/module-level.
    """
    with recording(Recorder() if observe else None) as rec:
        store = ResultStore(store_root, max_bytes=max_bytes)
        missing = [
            (config, key) for config, key in zip(configs, keys)
            if store.get(key) is None
        ]
        status = STATUS_CACHE_HIT
        if missing:
            trace_store = (
                TraceStore(trace_root, max_bytes=trace_max_bytes)
                if trace_root is not None else None
            )
            results, status = _analyze_group(
                name, [config for config, __ in missing], trace_store,
                policy,
            )
            for (__, key), result in zip(missing, results):
                _store_put_safe(store, key, result_to_dict(result))
    return status, (rec.snapshot() if observe else None)


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


def _suite_names(config: ExperimentConfig) -> tuple[str, ...]:
    return config.workloads or tuple(w.name for w in SUITE)


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
        self.obs = (observe if isinstance(observe, ObsConfig)
                    else ObsConfig(enabled=bool(observe)))
        self.faults = faults
        self._memo: dict[str, object] = {}
        #: run-scoped state (set by the lifecycle, read by the group
        #: strategies; the runner is not thread-safe).
        self._cancel = None

    def _cancelled(self) -> bool:
        return self._cancel is not None and self._cancel.is_set()

    # ------------------------------------------------------------------
    # Entry points: each is a sweep through one lifecycle.
    # ------------------------------------------------------------------

    def run_one(self, name: str, config: ExperimentConfig):
        """Analyse one workload in-process.

        Repeat calls with an equal config return the identical object
        (memo), so exhibit code can rely on result identity.  When the
        runner observes, the call's profile is attached to the result
        (``result.profile``).  A failed job raises through
        :meth:`ExperimentRun.require` (a
        :class:`~repro.errors.RunnerError`); an unknown workload name
        raises ``KeyError``.
        """
        (run,) = self._lifecycle("runner.run_one", [(config, (name,))], None)
        result = run.require()[name]
        if run.metrics.profile is not None:
            result.profile = run.metrics.profile
        return result

    def run(self, config: ExperimentConfig | None = None,
            jobs: int | None = None, cancel=None) -> ExperimentRun:
        """Run every configured workload; never raises for job errors.

        A job that fails to hash, times out, crashes or raises is
        recorded as a :class:`JobFailure` in ``run.failures``; the
        remaining jobs complete normally.  When the runner observes,
        the run's profile lands in ``run.metrics.profile``.

        ``cancel`` is an optional :class:`threading.Event`: once set,
        in-flight jobs drain and publish, the rest never start, and the
        returned run has ``metrics.interrupted`` set.  Every published
        result is in the store, so re-running the same call continues
        an interrupted run.
        """
        config = config or ExperimentConfig()
        (run,) = self._lifecycle("runner.run",
                                 [(config, _suite_names(config))], jobs,
                                 cancel=cancel)
        return run

    def run_many(self, configs, jobs: int | None = None, cancel=None,
                 ) -> list[ExperimentRun]:
        """Run a config sweep; each workload is simulated at most once.

        Returns one :class:`ExperimentRun` per config, aligned with
        ``configs``.  Failures and ``cancel`` follow
        :meth:`run`.  When the runner observes, the sweep's one shared
        profile is attached to every run's metrics.
        """
        requests = [(config, _suite_names(config)) for config in configs]
        return self._lifecycle("runner.sweep", requests, jobs,
                               cancel=cancel)

    def _lifecycle(self, span: str, requests, jobs: int | None, *,
                   cancel=None) -> list[ExperimentRun]:
        """Observation, faults and cancel around one sweep.

        ``requests`` holds one ``(config, workload names)`` pair per
        returned run; the sweep itself runs under the ``span`` root.
        A set ``cancel`` event drains in-flight work.  The result store
        is the sweep's checkpoint: each job's result is published there
        as it finishes, so a re-run serves those as cache hits and
        executes only the rest.
        """
        # Observe into a fresh recorder, or borrow the enabled one the
        # caller installed (its snapshot is then cumulative).
        rec = owned = None
        if self.obs.enabled:
            rec = get_recorder()
            if not rec.enabled:
                rec = owned = Recorder()
                previous = set_recorder(owned)
        # The fault plan (the chaos-testing channel) lives for the run.
        plan = (set_fault_plan(self.faults)
                if self.faults is not None else None)
        self._cancel = cancel
        try:
            with get_recorder().span(span):
                runs = self._sweep(requests, jobs)
        finally:
            self._cancel = None
            if self.faults is not None:
                set_fault_plan(plan)
            if owned is not None:
                set_recorder(previous)
        if rec is not None:
            _gauge_peak_rss(rec)
        profile = rec.snapshot() if rec is not None else None
        if profile is not None and self.obs.events_path:
            try:
                write_jsonl(profile, self.obs.events_path)
            except OSError:
                pass  # observation must never sink a run
        for run in runs:
            run.metrics.profile = profile
        return runs

    # ------------------------------------------------------------------
    # The sweep: plan, execute, publish.
    # ------------------------------------------------------------------

    def _sweep(self, requests, jobs: int | None) -> list[ExperimentRun]:
        workers = max(1, jobs if jobs is not None else self.policy.jobs)
        start = time.monotonic()
        runs, groups = self._plan(requests, workers)
        if groups and not self._cancelled():
            segmented = self._plan_segments(groups)
            if segmented or (workers > 1 and len(groups) > 1):
                self._sweep_pool(groups, segmented, workers)
            else:
                for (name, __), entries in groups.items():
                    if self._cancelled():
                        break
                    for run, __, __k in entries:
                        run.metrics.peak_workers = max(
                            run.metrics.peak_workers, 1)
                    self._run_inline(name, entries)

        total = time.monotonic() - start
        interrupted = self._cancelled()
        for run, (__, names) in zip(runs, requests):
            run.results = {
                name: run.results[name]
                for name in names if name in run.results
            }
            run.metrics.jobs.sort(key=lambda m: names.index(m.workload))
            run.metrics.total_wall = total
            run.metrics.interrupted = interrupted
        return runs

    def _plan(self, requests, workers: int):
        """Hash every job, serve memo/store hits, and group the misses
        by execution identity: ``(runs, {(name, scale): entries})``
        with one ``(run, config, key)`` entry per missing job.

        A workload whose input generation blows up fails here without
        sinking the suite; keying never compiles, so a source that
        fails to compile fails its jobs when they execute.  Unknown
        names still raise — that is a caller bug, not a job fault.
        """
        runs = []
        groups: dict[tuple, list] = {}
        for config, names in requests:
            run = ExperimentRun()
            run.metrics.requested_workers = workers
            run.metrics.policy = self.policy.describe()
            runs.append(run)
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
                if hit is None and self.store is not None:
                    payload = self.store.get(key)
                    if payload is not None:
                        hit = result_from_dict(payload)
                    status = STATUS_CACHE_HIT
                if hit is None:
                    groups.setdefault((name, config.scale), []).append(
                        (run, config, key)
                    )
                    continue
                self._memo[key] = hit
                run.results[name] = hit
                _note(run, JobMetric(workload=name, key=key, status=status))
        return runs, groups

    def _plan_segments(self, groups) -> dict:
        """The groups to run as segment tasks: ``{group: job}``.

        Only a group of one config qualifies: a multi-config group's
        one shared pass beats sharding it.
        """
        segmented = {}
        for group, entries in groups.items():
            if len(entries) == 1:
                __, config, key = entries[0]
                seg = self._prepare_segments(group[0], config, key)
                if seg is not None:
                    segmented[group] = seg
        return segmented

    def _prepare_segments(self, name: str, config, key: str):
        """Plan one job as segment pool tasks, or None for a whole job.

        The segmented plan applies only when the policy shards and the
        stored trace covers the budget with a usable sidecar index;
        everything else (including a cold capture, which has no trace
        to split yet) stays a whole-group task.  A plan the sidecar
        cannot serve counts ``analyze.shard.fallback``.
        """
        policy = self.policy
        if policy.segments <= 1 or self.trace_store is None:
            return None
        analysis_config = Job(name, config).analysis_config()
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

    def _run_inline(self, name: str, entries, attempts: int = 1) -> None:
        """Analyse one group in-process and publish every entry."""
        start = time.monotonic()
        try:
            results, status = _analyze_group(
                name, [config for __, config, __k in entries],
                self.trace_store, self.policy,
            )
        except Exception as error:
            wall = time.monotonic() - start
            for run, __, key in entries:
                self._record_failure(run, name, key, JobFailure(
                    workload=name,
                    error=f"{type(error).__name__}: {error}",
                    wall_time=wall, attempts=attempts,
                ))
            return
        # The group's one pass served every entry; split its cost.
        wall = (time.monotonic() - start) / len(entries)
        for (run, __, key), result in zip(entries, results):
            self._publish(run, name, key, result, status, wall=wall,
                          attempts=attempts)

    def _sweep_pool(self, groups, segmented, workers: int) -> None:
        """Run the groups on one pool: segmented groups as per-segment
        tasks, the rest as one :func:`_execute_sweep` task each, so
        segments schedule alongside whole groups and fill idle slots."""
        # A disk store is the result channel; without one, use a
        # throwaway store that only lives for this run.
        scratch = None
        store = self.store
        if store is None:
            scratch = tempfile.TemporaryDirectory(prefix="repro-runner-")
            store = ResultStore(scratch.name)
        trace_root, trace_max = None, 0
        if self.trace_store is not None:
            trace_root = str(self.trace_store.root)
            trace_max = self.trace_store.max_bytes
        observing = get_recorder().enabled
        tasks = []
        for (name, scale), entries in groups.items():
            seg = segmented.get((name, scale))
            if seg is not None:
                tasks.extend(seg.tasks)
                continue
            tasks.append(Task(
                key=f"{name}@{scale}", fn=_execute_sweep,
                args=(name,
                      tuple(config for __, config, __k in entries),
                      tuple(key for __, __c, key in entries),
                      str(store.root), store.max_bytes,
                      trace_root, trace_max, observing, self.policy),
            ))
        by_key = {seg.key: seg for seg in segmented.values()}
        try:
            pool = TaskPool(max_workers=workers,
                            timeout=self.policy.timeout,
                            retries=self.policy.retries)
            outcomes: dict = {}
            stats: dict = {}
            # Stream so each segmented job's sequential merge overlaps
            # the still-running workers.
            for tkey, outcome in pool.run_stream(
                    tasks, cancel=self._cancel, stats=stats):
                outcomes[tkey] = outcome
                jkey, sep, idx = tkey.partition("#seg")
                if sep:
                    by_key[jkey].absorb(int(idx), outcome)
                elif observing and isinstance(outcome, TaskResult):
                    # Fold the group worker's own profile into ours.
                    get_recorder().merge(outcome.value[1])
            cancelled = stats.get("cancelled", False)
            for (name, scale), entries in groups.items():
                for run, __, __k in entries:
                    run.metrics.peak_workers = max(
                        run.metrics.peak_workers, stats.get("peak", 0)
                    )
                seg = segmented.get((name, scale))
                if seg is not None:
                    self._settle_segmented(entries[0], seg, cancelled)
                    continue
                outcome = outcomes.get(f"{name}@{scale}")
                if outcome is None:
                    continue  # never launched (cancelled): unrun
                self._settle_group(name, entries, outcome, store)
        finally:
            if scratch is not None:
                scratch.cleanup()

    def _settle_group(self, name: str, entries, outcome, store) -> None:
        """Publish a pool group's results, read back from ``store``."""
        if isinstance(outcome, TaskError):
            for run, __, key in entries:
                self._record_failure(run, name, key, JobFailure(
                    workload=name, error=outcome.error,
                    attempts=outcome.attempts,
                    wall_time=outcome.wall_time,
                    timed_out=outcome.timed_out,
                    kind=outcome.kind,
                ))
            return
        status = outcome.value[0]
        wall = outcome.wall_time / len(entries)
        for entry in entries:
            run, __, key = entry
            payload = store.get(key)
            if payload is not None:
                self._publish(run, name, key, result_from_dict(payload),
                              status, wall=wall, attempts=outcome.attempts,
                              stored=True)
                continue
            # The worker reported success but its stored result is
            # unreadable (torn write, eviction race, corruption):
            # recompute in-process rather than failing a job that ran.
            get_recorder().count("runner.recovered", 1)
            _log.warning("runner: %s completed in a worker but its "
                         "stored result is unreadable; recomputing "
                         "in-process", name)
            self._run_inline(name, [entry], attempts=outcome.attempts)

    def _settle_segmented(self, entry, seg: _SegmentedJob,
                          cancelled: bool) -> None:
        """Publish a segmented job's merged result, or recompute the
        whole job in-process when a segment failed every pool retry or
        the merge raised — byte-identical by the parity suite's
        guarantee."""
        run, __, key = entry
        if seg.result is not None:
            get_recorder().count("analyze.shard.runs", 1)
            self._publish(run, seg.name, key, seg.result, STATUS_REPLAYED,
                          wall=seg.wall, attempts=seg.attempts)
            return
        if seg.failed is None and cancelled:
            return  # segments never all ran: not a failure, just unrun
        get_recorder().count("analyze.shard.fallback", 1)
        _log.warning("runner: segmented %s failed (%s); retrying the "
                     "whole job serially", seg.name, seg.failed)
        self._run_inline(seg.name, [entry], attempts=seg.attempts + 1)

    def _publish(self, run: ExperimentRun, name: str, key: str, result,
                 status: str, *, wall: float, attempts: int,
                 stored: bool = False) -> None:
        """The one publish step: write through the store (unless a
        pool worker ``stored`` it already), memo, note."""
        if not stored and self.store is not None:
            _store_put_safe(self.store, key, result_to_dict(result))
        self._memo[key] = result
        run.results[name] = result
        _note(run, JobMetric(
            workload=name, key=key, status=status, wall_time=wall,
            instructions=result.nodes, attempts=attempts,
        ))

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------

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
                policy=ExecutionPolicy(jobs=env_jobs() or 1),
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
