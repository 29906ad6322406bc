"""The runner's job model.

A :class:`Job` is the unit of orchestration: one workload analysed
under one :class:`ExperimentConfig`.  Every job has a deterministic
**content hash** (:func:`job_key`) derived from

* the compiled program bytes (instruction listing, data segment and
  entry point) — so recompiling after a mini-C source or compiler
  change invalidates cached results;
* the mini-C source hash itself (defence in depth: it also changes the
  compiled bytes, but hashing it directly makes the invalidation
  independent of listing formatting);
* the generated input streams at the configured scale;
* every field of the effective :class:`repro.core.AnalysisConfig`;
* :data:`RESULT_SCHEMA`, bumped whenever analysis *semantics* change
  without any input changing (see docs/runner.md).

Two processes — or two sessions days apart — that build the same job
therefore agree on its key, which is what lets the disk store double
as the transport channel between pool workers and the parent.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

from repro.core import AnalysisConfig
from repro.predictors.base import PREDICTOR_KINDS
from repro.workloads import get_workload

#: Bump when the analyzer's semantics change in a way that should
#: invalidate previously cached results (new statistic, changed
#: classification rule, predictor behaviour fix, ...).
RESULT_SCHEMA = 1

#: Bump when the substrate's execution semantics change in a way that
#: should invalidate stored traces (ISA behaviour fix, machine model
#: change, ...).  Analysis-only changes must NOT bump this — that is
#: the whole point of the two-tier split.
TRACE_SCHEMA = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Scope of one experiment run.

    Attributes:
        scale: workload problem-size multiplier.
        max_instructions: dynamic-instruction budget per workload.
        workloads: workload names to run (None = the full suite).
        predictors: predictor kinds to analyse side by side.
        trees_for: predictors with per-generate tree tracking.
        gen_cap: generator-id cap for tree tracking; an int >= 1
            (``ValueError`` otherwise: a cap of 0 truncates every
            multi-generator union, and a negative one drops the
            largest ids instead of capping).
    """

    scale: int = 1
    max_instructions: int = 150_000
    workloads: tuple[str, ...] | None = None
    predictors: tuple[str, ...] = PREDICTOR_KINDS
    trees_for: tuple[str, ...] = ("context",)
    gen_cap: int = 64

    def __post_init__(self):
        cap = self.gen_cap
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
            raise ValueError(f"gen_cap must be an integer >= 1, "
                             f"got {cap!r}")


@dataclass(frozen=True)
class Job:
    """One (workload, config) pair — the unit the pool schedules."""

    workload: str
    config: ExperimentConfig

    def analysis_config(self) -> AnalysisConfig:
        """The analyzer knobs this job runs with."""
        return AnalysisConfig(
            predictors=self.config.predictors,
            trees_for=self.config.trees_for,
            gen_cap=self.config.gen_cap,
            max_instructions=self.config.max_instructions,
        )


@dataclass(frozen=True)
class JobFailure:
    """Record of a job that could not produce a result.

    A failed job never aborts the suite; it is returned alongside the
    successful results so callers can decide what a partial suite is
    worth.

    Attributes:
        workload: the job's workload name.
        error: human-readable error (exception repr or traceback tail).
        attempts: how many times the job was attempted.
        wall_time: seconds spent on the final attempt.
        timed_out: True when the final attempt hit the per-job timeout.
        kind: failure taxonomy tag — one of the
            :data:`repro.errors.FAILURE_KINDS` keys ("timeout",
            "crash", "spawn", "error"); drives which
            :class:`~repro.errors.RunnerError` subclass
            ``ExperimentRun.require`` raises.
    """

    workload: str
    error: str
    attempts: int = 1
    wall_time: float = 0.0
    timed_out: bool = False
    kind: str = "error"


def _feed_execution(digest, workload, scale: int) -> None:
    """Hash everything that determines what would actually execute:
    program content, source hash, and the generated inputs at scale."""

    def feed(*parts) -> None:
        for part in parts:
            digest.update(str(part).encode())
            digest.update(b"\x00")

    feed("source", workload.source_hash())
    digest.update(workload.program().canonical_bytes())
    words, floats = workload.make_inputs(scale)
    feed("scale", scale, "words", len(words))
    digest.update(",".join(map(str, words)).encode())
    feed("floats", len(floats))
    digest.update(",".join(repr(value) for value in floats).encode())


def job_key(job: Job) -> str:
    """Deterministic content hash of ``job`` (hex sha256).

    Compiles the workload (cached per :class:`~repro.workloads.Workload`
    instance) and generates its inputs, so the key reflects what would
    actually run — not just the names on the label.
    """
    workload = get_workload(job.workload)
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        for part in parts:
            digest.update(str(part).encode())
            digest.update(b"\x00")

    feed("repro-job", RESULT_SCHEMA, workload.name, workload.spec_name,
         workload.kind)
    _feed_execution(digest, workload, job.config.scale)
    analysis = job.analysis_config()
    for config_field in dataclasses.fields(analysis):
        feed(config_field.name, getattr(analysis, config_field.name))
    return digest.hexdigest()


def trace_key(workload_name: str, scale: int = 1) -> str:
    """Execution-identity hash of a workload run (hex sha256).

    Deliberately narrower than :func:`job_key`: only what determines
    the dynamic instruction stream — program bytes, source hash, inputs
    at ``scale`` — plus the trace format version.  Every analyzer knob
    *and the instruction budget* are excluded, so one stored trace
    serves any analysis of the same execution (a shorter budget is a
    prefix of a longer one; length adequacy is checked against the
    stored header, see :class:`repro.runner.tracestore.TraceStore`).
    """
    from repro.cpu.tracefile import FORMAT as TRACE_FORMAT

    workload = get_workload(workload_name)
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        for part in parts:
            digest.update(str(part).encode())
            digest.update(b"\x00")

    feed("repro-trace", TRACE_SCHEMA, TRACE_FORMAT, workload.name,
         workload.spec_name, workload.kind)
    _feed_execution(digest, workload, scale)
    return digest.hexdigest()
