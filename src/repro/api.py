"""The stable public API of the reproduction.

Exhibits, benchmarks, notebooks and examples should import from here
(or from the top-level :mod:`repro` package) rather than deep-importing
internals; everything below is covered by the deprecation policy in
docs/api.md, everything else is free to move between releases.

Three execution entry points, all backed by the shared two-tier-cached
:class:`~repro.runner.ExperimentRunner` (see docs/runner.md):

* :func:`run_workload` — one workload, one config;
* :func:`run_suite` — every configured workload under one config;
* :func:`run_sweep` — many configs, each workload simulated at most
  once and fanned out to one analyzer per config.

plus :func:`analyze` for ad-hoc material (mini-C source, a compiled
program, a live machine) that does not go through the workload suite
or its caches.

Two synthesis entry points (see docs/generator.md and
docs/campaign.md):

* :func:`generate` — resolve/synthesize a seeded workload
  (``gen:<preset>@<seed>``) as a first-class suite member;
* :func:`run_campaign` — run a declarative workloads x predictor-bank
  design-space campaign and (optionally) emit its registry-driven
  report.

Session-level settings go through :func:`configure` — cache location,
worker count, observation — instead of environment variables, and the
suite/sweep entry points return :class:`SuiteResult` /
:class:`SweepResult`: drop-in dict/list values that additionally carry
the run's metrics and (when observing) its profile.  See
docs/observability.md for the profiling story.
"""

from __future__ import annotations

from repro.asm import Program
from repro.core import (
    AnalysisConfig,
    AnalysisResult,
    Analyzer,
    analyze_machine,
    analyze_many,
    analyze_trace,
)
from repro.cpu import Machine
from repro.minic import compile_program
from repro.obs import ObsConfig, Recorder, get_recorder, recording
from repro.runner import (
    ExecutionPolicy,
    ExperimentConfig,
    ExperimentRun,
    ExperimentRunner,
    FaultPlan,
    FaultSpec,
    ResultStore,
    TraceStore,
    default_chaos_plan,
    default_runner,
    set_default_runner,
    swap_default_runner,
)
from repro.service.qos import (
    QosError,
    QosPolicy,
    Tenant,
    load_qos_policy,
)
from repro.workloads import SUITE, Workload, get_workload

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "Analyzer",
    "ExecutionPolicy",
    "ExperimentConfig",
    "ExperimentRun",
    "ExperimentRunner",
    "FaultPlan",
    "FaultSpec",
    "ObsConfig",
    "QosError",
    "QosPolicy",
    "Recorder",
    "ResultStore",
    "SUITE",
    "SuiteResult",
    "SweepResult",
    "Tenant",
    "TraceStore",
    "Workload",
    "analyze",
    "analyze_machine",
    "analyze_many",
    "analyze_trace",
    "configure",
    "default_chaos_plan",
    "default_runner",
    "generate",
    "get_recorder",
    "get_workload",
    "load_qos_policy",
    "recording",
    "run_campaign",
    "run_suite",
    "run_sweep",
    "run_workload",
]

#: Sentinel distinguishing "not passed" from an explicit None.
_UNSET = object()


def configure(
    *,
    cache_dir=_UNSET,
    observe=_UNSET,
    faults=_UNSET,
    policy=_UNSET,
) -> ExperimentRunner:
    """Reconfigure the shared runner behind the ``run_*`` entry points.

    Keyword-only; every setting not passed is inherited from the
    current default runner, so ``configure(observe=True)`` flips
    observation on without disturbing the cache setup.  No environment
    variables are involved — this *is* the programmatic channel.

    Args:
        cache_dir: store root for both cache tiers; ``None`` disables
            the disk caches entirely (in-process memo only).
        observe: ``True``/``False`` or an :class:`repro.obs.ObsConfig`;
            when on, results returned by :func:`run_workload` /
            :func:`run_suite` / :func:`run_sweep` carry a profile.
        faults: a :class:`repro.runner.FaultPlan` installed during each
            run — the chaos-testing channel (see docs/robustness.md);
            ``None`` injects nothing.
        policy: an :class:`~repro.runner.ExecutionPolicy` — the one
            object carrying every execution knob (jobs, timeout,
            retries, segments, segment_records); see docs/sharding.md
            for the segment-parallel knobs; ``None`` restores the
            defaults.  Policy is execution, never identity: it never
            enters job keys, so changing it hits the same caches.

    Returns the newly installed :class:`ExperimentRunner` (also handy
    for direct use).  Call ``repro.runner.reset_default_runner()`` to
    fall back to the environment-derived defaults.  Thread-safe: the
    read-modify-install is atomic, so concurrent ``configure`` calls
    serialise instead of silently dropping one another's settings.
    """

    def build(current: ExperimentRunner) -> ExperimentRunner:
        if cache_dir is _UNSET:
            store, trace_store = current.store, current.trace_store
        elif cache_dir is None:
            store, trace_store = None, None
        else:
            store = ResultStore(cache_dir)
            trace_store = TraceStore(cache_dir)
        return ExperimentRunner(
            store=store,
            trace_store=trace_store,
            observe=current.obs if observe is _UNSET else observe,
            faults=current.faults if faults is _UNSET else faults,
            policy=current.policy if policy is _UNSET else policy,
        )

    return swap_default_runner(build)


class SuiteResult(dict):
    """``name -> AnalysisResult`` mapping that also carries its run.

    Behaves exactly like the plain dict :func:`run_suite` used to
    return; additionally ``.run`` is the underlying
    :class:`ExperimentRun`, ``.metrics`` its
    :class:`~repro.runner.RunMetrics` and ``.profile`` the
    observability snapshot (None unless the runner observed).
    """

    def __init__(self, run: ExperimentRun):
        super().__init__(run.results)
        self.run = run

    @property
    def metrics(self):
        return self.run.metrics

    @property
    def profile(self) -> dict | None:
        return self.run.metrics.profile


class SweepResult(list):
    """List of :class:`SuiteResult` (one per sweep config).

    ``.runs`` holds the underlying :class:`ExperimentRun` objects and
    ``.profile`` the sweep's shared observability snapshot (a sweep is
    observed as a whole — every config's run carries the same one).
    """

    def __init__(self, runs):
        runs = list(runs)
        super().__init__(SuiteResult(run) for run in runs)
        self.runs = runs

    @property
    def profile(self) -> dict | None:
        for run in self.runs:
            if run.metrics.profile is not None:
                return run.metrics.profile
        return None


def run_workload(name: str,
                 config: ExperimentConfig | None = None) -> AnalysisResult:
    """Analyse one workload under ``config``.

    Delegates to the shared :class:`~repro.runner.ExperimentRunner`:
    repeat calls return the identical in-memory object, and results
    persist in the disk store so later processes replay the stored
    trace — or skip execution entirely (disable with
    ``REPRO_NO_CACHE=1``).
    """
    return default_runner().run_one(name, config or ExperimentConfig())


def run_suite(config: ExperimentConfig | None = None,
              jobs: int | None = None, cancel=None) -> SuiteResult:
    """Analyse all configured workloads; returns name -> result.

    ``jobs`` > 1 fans workloads out over the runner's process pool
    (default: the ``REPRO_JOBS`` environment variable, else serial).
    Raises :class:`repro.errors.RunnerError` (the ``kind``-specific
    subclass when every failure agrees) if any workload fails, and
    :class:`repro.errors.RunnerInterrupted` when a ``cancel`` event
    stopped the run mid-way — finished jobs are in the result store,
    so re-running the same call continues.  The returned
    :class:`SuiteResult` is a plain mapping that also carries
    ``.metrics`` and (when observing) ``.profile``.
    """
    config = config or ExperimentConfig()
    run = default_runner().run(config, jobs=jobs, cancel=cancel)
    run.require()
    return SuiteResult(run)


def run_sweep(configs, jobs: int | None = None,
              cancel=None) -> SweepResult:
    """Analyse a sweep of configs; returns one mapping per config.

    Each workload is simulated (or replayed from the trace store) at
    most once for the whole sweep — the single pass feeds one analyzer
    per config (:func:`repro.core.analyze_many`).  Raises
    :class:`repro.errors.RunnerError` if any job fails;
    ``cancel`` follows :func:`run_suite`.  The returned
    :class:`SweepResult` is a plain list of per-config mappings that
    also carries ``.runs`` and (when observing) ``.profile``.
    """
    runs = default_runner().run_many(configs, jobs=jobs, cancel=cancel)
    for run in runs:
        run.require()
    return SweepResult(runs)


def generate(preset: str, seed: int | None = None, **knobs) -> Workload:
    """Synthesize (or resolve) a seeded workload.

    Two call shapes::

        generate("gen:graph-walk@7")               # full name
        generate("graph-walk", 7, imm_mix=6)       # parts + overrides

    The returned workload is a first-class suite member: pass its
    ``.name`` to :func:`run_workload`, an
    :class:`ExperimentConfig`, or a campaign spec, and the two-tier
    cache, pool workers and exhibits all resolve it from the name
    alone.  Same ``(preset, seed, knobs)`` -> byte-identical source in
    any process.

    Raises:
        ValueError: unknown preset/knob, out-of-range value, or a
            malformed ``gen:`` name.
    """
    from repro.gen import canonical_gen_name, generated_workload

    if preset.startswith("gen:"):
        if seed is not None or knobs:
            raise ValueError(
                "pass either a full gen: name or (preset, seed, knobs),"
                " not both"
            )
        return generated_workload(preset)
    if seed is None:
        raise ValueError("generate(preset, ...) needs a seed")
    return generated_workload(canonical_gen_name(preset, seed, knobs))


def run_campaign(spec, jobs: int | None = None,
                 report_dir=None):
    """Run a design-space campaign; returns its
    :class:`~repro.campaign.CampaignResult`.

    ``spec`` may be a :class:`~repro.campaign.CampaignSpec`, a plain
    dict in the spec shape, or a path to a ``.toml``/``.json`` spec
    file.  Execution goes through the shared runner's sweep path: each
    workload is simulated at most once across all variants, and an
    unchanged re-run is served entirely from the cache
    (``result.fully_warm``).  When ``report_dir`` is given, the
    registry-driven report is emitted there
    (:func:`repro.campaign.create_report`).
    """
    from pathlib import Path

    from repro.campaign import (
        CampaignSpec,
        create_report,
        load_spec,
        spec_from_dict,
    )
    from repro.campaign import run_campaign as _run

    if isinstance(spec, (str, Path)):
        spec = load_spec(spec)
    elif isinstance(spec, dict):
        spec = spec_from_dict(spec)
    elif not isinstance(spec, CampaignSpec):
        raise ValueError(
            f"spec must be a CampaignSpec, dict or path, got "
            f"{type(spec).__name__}"
        )
    result = _run(spec, runner=default_runner(), jobs=jobs)
    if report_dir is not None:
        create_report(result, report_dir)
    return result


def analyze(target, name: str = "program",
            config: AnalysisConfig | None = None) -> AnalysisResult:
    """Analyse ad-hoc material outside the workload suite.

    ``target`` may be mini-C source text, a compiled
    :class:`~repro.asm.Program`, or a ready :class:`~repro.cpu.Machine`
    (useful for non-default memory or instruction budgets).  No cache
    is involved — ad-hoc material has no content identity to key on.
    """
    if isinstance(target, str):
        target = compile_program(target)
    if isinstance(target, Program):
        target = Machine(target)
    return analyze_machine(target, name, config)
