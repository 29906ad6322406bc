"""Experiment orchestration: parallel, disk-cached, fault-tolerant.

The runner is the layer between the analysis core and every consumer
of suite results (the report exhibits, the benchmark harness, the
CLIs).  It owns

* the **job model** (:mod:`repro.runner.job`) — a deterministic
  content hash per (workload, config) pair, derived from the compiled
  program bytes, the generated inputs and the analysis configuration;
* the **result store** (:mod:`repro.runner.cache`) — persistent,
  content-addressed, checksummed, LRU-bounded;
* the **trace store** (:mod:`repro.runner.tracestore`) — the execution
  tier underneath it: one captured trace per (workload, scale),
  replayed for every analysis configuration;
* the **pool** (:mod:`repro.runner.pool`) — per-job processes with
  timeout, retry with exponential backoff, crash isolation and
  serial fallback when process spawning itself keeps failing;
* the **journal** (:mod:`repro.runner.journal`) — a write-ahead,
  fsync'd record of job fates that makes interrupted sweeps resumable;
* the **fault plan** (:mod:`repro.runner.faults`) — deterministic
  seeded fault injection for chaos-testing all of the above
  (``python -m repro chaos``);
* the **metrics** (:mod:`repro.runner.metrics`) — per-job wall time
  and throughput, cache hit/miss counts, peak concurrency;
* the **API** (:mod:`repro.runner.api`) tying them together, driven
  from the command line by ``python -m repro run`` / ``repro cache``.

See docs/runner.md for the architecture and on-disk formats.
"""

from repro.runner.api import (
    DEFAULT_CACHE_DIR,
    ExperimentRun,
    ExperimentRunner,
    default_runner,
    default_store,
    default_trace_store,
    reset_default_runner,
    set_default_runner,
    swap_default_runner,
)
from repro.runner.cache import ResultStore
from repro.runner.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    default_chaos_plan,
    default_fleet_chaos_plan,
    fault_enospc,
    get_fault_plan,
    injecting,
    is_enospc,
    set_fault_plan,
)
from repro.runner.journal import RunJournal
from repro.runner.job import (
    RESULT_SCHEMA,
    TRACE_SCHEMA,
    ExperimentConfig,
    Job,
    JobFailure,
    job_key,
    trace_key,
)
from repro.runner.policy import (
    DEFAULT_SEGMENT_RECORDS,
    ExecutionPolicy,
    PolicyError,
)
from repro.runner.tracestore import TraceStore
from repro.runner.metrics import JobMetric, RunMetrics
from repro.runner.pool import (
    PoolRun,
    Task,
    TaskError,
    TaskPool,
    TaskResult,
    backoff_delay,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_SEGMENT_RECORDS",
    "ExecutionPolicy",
    "ExperimentConfig",
    "ExperimentRun",
    "ExperimentRunner",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "Job",
    "JobFailure",
    "JobMetric",
    "PolicyError",
    "PoolRun",
    "RESULT_SCHEMA",
    "ResultStore",
    "RunJournal",
    "RunMetrics",
    "TRACE_SCHEMA",
    "TraceStore",
    "Task",
    "TaskError",
    "TaskPool",
    "TaskResult",
    "backoff_delay",
    "default_chaos_plan",
    "default_fleet_chaos_plan",
    "default_runner",
    "default_store",
    "default_trace_store",
    "fault_enospc",
    "get_fault_plan",
    "injecting",
    "is_enospc",
    "job_key",
    "reset_default_runner",
    "set_default_runner",
    "set_fault_plan",
    "swap_default_runner",
    "trace_key",
]
