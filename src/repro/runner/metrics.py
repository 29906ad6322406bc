"""Run instrumentation.

Every suite run — serial or parallel, via the API, the CLI or the
benchmark harness — produces a :class:`RunMetrics`: one
:class:`JobMetric` per job (status, wall time, dynamic-instruction
throughput, attempts) plus run-level cache and concurrency counters.
The CLI dumps it as JSON next to the result store (see docs/runner.md
for the schema) so sweeps can be profiled after the fact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: JobMetric.status values.
STATUS_MEMO_HIT = "memo-hit"      #: served from the in-process memo
STATUS_CACHE_HIT = "cache-hit"    #: deserialised from the disk store
STATUS_COMPUTED = "computed"      #: traced and analysed this run
STATUS_REPLAYED = "replayed"      #: analysed from a stored trace
STATUS_FAILED = "failed"          #: all attempts failed


@dataclass
class JobMetric:
    """Per-job measurements.

    Attributes:
        workload: workload name.
        key: job content hash ("" when hashing itself failed).
        status: one of the ``STATUS_*`` constants.
        wall_time: seconds spent producing the outcome.
        instructions: dynamic instructions analysed (0 on hit/failure —
            a hit re-traces nothing, which is the point).
        attempts: process attempts (0 for in-process outcomes).
        error: failure description, empty on success.
    """

    workload: str
    key: str
    status: str
    wall_time: float = 0.0
    instructions: int = 0
    attempts: int = 0
    error: str = ""

    @property
    def instructions_per_second(self) -> float:
        if self.wall_time <= 0.0:
            return 0.0
        return self.instructions / self.wall_time

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "key": self.key,
            "status": self.status,
            "wall_time": round(self.wall_time, 6),
            "instructions": self.instructions,
            "instructions_per_second": round(
                self.instructions_per_second, 1
            ),
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass
class RunMetrics:
    """Whole-run measurements.

    ``profile`` is the structured observability section — a recorder
    snapshot (``{"counters", "gauges", "spans"}``, see
    :mod:`repro.obs`) attached when the producing runner ran with
    observation enabled, None otherwise.
    """

    jobs: list[JobMetric] = field(default_factory=list)
    requested_workers: int = 1
    peak_workers: int = 0
    total_wall: float = 0.0
    profile: dict | None = None
    #: ``ExecutionPolicy.describe()`` of the producing runner, when known.
    policy: dict | None = None
    #: True when the run was cancelled (SIGINT/SIGTERM) mid-way:
    #: finished jobs are in the result store, the rest never ran.
    interrupted: bool = False

    def add(self, metric: JobMetric) -> None:
        self.jobs.append(metric)

    # ------------------------------------------------------------------
    # Aggregates.
    # ------------------------------------------------------------------

    def count(self, status: str) -> int:
        return sum(1 for job in self.jobs if job.status == status)

    @property
    def cache_hits(self) -> int:
        return self.count(STATUS_CACHE_HIT) + self.count(STATUS_MEMO_HIT)

    @property
    def cache_misses(self) -> int:
        return (self.count(STATUS_COMPUTED) + self.count(STATUS_REPLAYED)
                + self.count(STATUS_FAILED))

    @property
    def replays(self) -> int:
        """Jobs analysed by replaying a stored trace (trace-tier hit,
        result-tier miss)."""
        return self.count(STATUS_REPLAYED)

    @property
    def failures(self) -> int:
        return self.count(STATUS_FAILED)

    @property
    def total_instructions(self) -> int:
        return sum(job.instructions for job in self.jobs)

    @property
    def throughput(self) -> float:
        """Aggregate dynamic instructions per wall-clock second."""
        if self.total_wall <= 0.0:
            return 0.0
        return self.total_instructions / self.total_wall

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        payload = {
            "jobs": [job.to_dict() for job in self.jobs],
            "requested_workers": self.requested_workers,
            "peak_workers": self.peak_workers,
            "total_wall": round(self.total_wall, 6),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "replays": self.replays,
            "failures": self.failures,
            "total_instructions": self.total_instructions,
            "instructions_per_second": round(self.throughput, 1),
            "interrupted": self.interrupted,
        }
        if self.policy is not None:
            payload["policy"] = self.policy
        if self.profile is not None:
            payload["profile"] = self.profile
        return payload

    def dump(self, path: str | Path) -> Path:
        """Write the metrics as JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def summary(self) -> str:
        """One-line human summary for CLI/bench output."""
        text = (
            f"{len(self.jobs)} jobs in {self.total_wall:.2f}s "
            f"({self.throughput:,.0f} instr/s): "
            f"{self.cache_hits} hit, {self.count(STATUS_COMPUTED)} computed, "
            f"{self.replays} replayed, "
            f"{self.failures} failed; peak {self.peak_workers} worker(s)"
        )
        if self.interrupted:
            text += (" [interrupted: finished jobs are in the result "
                     "store; re-run the same call to continue]")
        return text
