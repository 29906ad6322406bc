"""Benchmarks the experiment runner itself.

Measures the orchestration layer rather than any exhibit: serial vs
parallel suite wall time (cold store), cold vs warm cache, and the
two-tier sweep path — a 4-config sweep over all 12 workloads cold,
with a warm trace store, and with both tiers warm.  On a multi-core
machine the parallel cold run should land well under the serial one
(the 12 workloads are independent); the warm runs should beat cold by
a wide margin because nothing is re-simulated (trace tier) or even
re-analysed (result tier).

Run under pytest for statistics, or directly for the CI smoke that
records ``BENCH_runner.json`` at the repo root::

    python benchmarks/bench_runner.py

Worker count comes from ``REPRO_BENCH_JOBS`` (default: CPU count;
the smoke always runs serial so its ratios are scheduling-free).
"""

from __future__ import annotations

import os

from repro.runner import (
    ExecutionPolicy,
    ExperimentConfig,
    ExperimentRunner,
    ResultStore,
    TraceStore,
)

#: Smaller budget than the exhibit benches: each round pays the full
#: 12-workload trace cost from scratch.
RUNNER_BUDGET = 6_000

CONFIG = ExperimentConfig(max_instructions=RUNNER_BUDGET)

#: The sweep the acceptance benchmark measures: one full-predictor
#: config plus three single-predictor variants, all sharing each
#: workload's execution.
SWEEP_CONFIGS = (
    ExperimentConfig(max_instructions=RUNNER_BUDGET),
    ExperimentConfig(max_instructions=RUNNER_BUDGET,
                     predictors=("last",), trees_for=()),
    ExperimentConfig(max_instructions=RUNNER_BUDGET,
                     predictors=("stride",), trees_for=()),
    ExperimentConfig(max_instructions=RUNNER_BUDGET,
                     predictors=("context",), gen_cap=32),
)

JOBS = int(os.environ.get("REPRO_BENCH_JOBS", str(os.cpu_count() or 1)))

#: Alternating cold / trace-warm sweep pairs the smoke samples, each
#: into fresh stores; the warm <= cold ``analyze`` gate compares their
#: medians, since one pair of timings swings with host noise.
ANALYZE_PAIRS = 5

#: How far the warm ``analyze`` median may exceed the cold one, as a
#: fraction of the cold median.  Both sides run equal kernel work, so
#: a zero tolerance fails correct trees on host noise; this is the
#: spread (interquartile range) of the per-pair warm/cold ratio over 35
#: pairs in 7 smokes of the tree before column-block trace files, on a
#: 2-vCPU shared host (quartiles 0.863 and 1.058).  A second layout of
#: the decoded trace inside the warm ``analyze`` span costs about +48%.
ANALYZE_TOLERANCE = 0.19

#: The counters naming the analysis kernel's work in a sweep (see
#: docs/observability.md): equal on a cold and a trace-warm sweep of
#: the same configs, whatever the timings.
KERNEL_WORK = (
    "analyze.passes",
    "analyze.assemble.calls",
    "analyze.walk.records.tracked",
    "analyze.walk.records.untracked",
    "analyze.walk.sets",
    "analyze.walk.expanded",
)

#: Segment-parallel smoke: one large stored trace, serial vs sharded
#: replay.  ~1e6 records is the paper-scale regime the segment index
#: was designed for; ``REPRO_PARALLEL_RECORDS`` shrinks it for quick
#: local runs.
PARALLEL_RECORDS = int(os.environ.get("REPRO_PARALLEL_RECORDS",
                                      "1000000"))
PARALLEL_SCALE = int(os.environ.get("REPRO_PARALLEL_SCALE", "4"))
PARALLEL_JOBS = int(os.environ.get("REPRO_PARALLEL_JOBS",
                                   str(os.cpu_count() or 1)))


def _cold_setup(tmp_path_factory, jobs):
    def setup():
        root = tmp_path_factory.mktemp("runner-cold")
        return (ExperimentRunner(store=ResultStore(root),
                                 policy=ExecutionPolicy(jobs=jobs)),), {}

    return setup


def _run(runner):
    return runner.run(CONFIG).require()


def bench_suite_serial_cold(benchmark, tmp_path_factory):
    results = benchmark.pedantic(
        _run, setup=_cold_setup(tmp_path_factory, jobs=1),
        rounds=2, iterations=1,
    )
    assert len(results) == 12


def bench_suite_parallel_cold(benchmark, tmp_path_factory):
    results = benchmark.pedantic(
        _run, setup=_cold_setup(tmp_path_factory, jobs=JOBS),
        rounds=2, iterations=1,
    )
    assert len(results) == 12


def bench_suite_warm_cache(benchmark, tmp_path_factory):
    root = tmp_path_factory.mktemp("runner-warm")
    ExperimentRunner(store=ResultStore(root)).run(CONFIG).require()

    def warm_run():
        # A fresh runner each call: hits come from the disk store, not
        # the in-process memo.
        run = ExperimentRunner(store=ResultStore(root)).run(CONFIG)
        assert run.metrics.count("computed") == 0
        return run.require()

    results = benchmark(warm_run)
    assert len(results) == 12


# ----------------------------------------------------------------------
# The two-tier sweep path.
# ----------------------------------------------------------------------

def _two_tier(root, observe: bool = False) -> ExperimentRunner:
    return ExperimentRunner(
        store=ResultStore(root), trace_store=TraceStore(root),
        observe=observe,
    )


def _sweep(runner):
    runs = runner.run_many(SWEEP_CONFIGS)
    for run in runs:
        run.require()
    return runs


def bench_sweep_cold(benchmark, tmp_path_factory):
    def setup():
        return (_two_tier(tmp_path_factory.mktemp("sweep-cold")),), {}

    runs = benchmark.pedantic(_sweep, setup=setup, rounds=2, iterations=1)
    assert len(runs) == len(SWEEP_CONFIGS)


def bench_sweep_trace_warm(benchmark, tmp_path_factory):
    """Warm trace tier, cold result tier: every job replays."""
    root = tmp_path_factory.mktemp("sweep-tw")
    _sweep(_two_tier(root))

    counter = iter(range(1_000_000))

    def setup():
        runner = ExperimentRunner(
            store=ResultStore(root / f"fresh{next(counter)}"),
            trace_store=TraceStore(root),
        )
        return (runner,), {}

    runs = benchmark.pedantic(_sweep, setup=setup, rounds=2, iterations=1)
    assert all(
        metric.status == "replayed"
        for run in runs for metric in run.metrics.jobs
    )


def bench_sweep_full_warm(benchmark, tmp_path_factory):
    """Both tiers warm: every job is a result-store hit."""
    root = tmp_path_factory.mktemp("sweep-fw")
    _sweep(_two_tier(root))

    def warm_run():
        runs = _sweep(_two_tier(root))
        assert all(
            metric.status == "cache-hit"
            for run in runs for metric in run.metrics.jobs
        )
        return runs

    runs = benchmark(warm_run)
    assert len(runs) == len(SWEEP_CONFIGS)


# ----------------------------------------------------------------------
# Segment-parallel single-trace smoke.
# ----------------------------------------------------------------------

def parallel_smoke() -> dict:
    """Serial vs segment-parallel replay of one large stored trace.

    Captures a ``PARALLEL_RECORDS``-record ``com`` trace once (writing
    its segment-index sidecar), then times two trace-warm replays from
    a cold result tier: serial, and segment-parallel over
    ``PARALLEL_JOBS`` workers.  The two results must serialize to the
    same bytes; ``analyze_parallel_speedup`` is their wall ratio.  The
    >= 2.5x acceptance gate arms only with 4+ cores (:func:`check`, from
    ``os.cpu_count()``).  This shape (a 1e6-record trace, ``max(4,
    jobs)`` segments) has not been sampled at 2 cores; perfbench's
    shard probe, a different shape (150k-record gcc, 2 segments,
    ``jobs=2``), read a median of 1.24x over 10 probes on 2 vCPUs.
    """
    import json
    import shutil
    import tempfile
    import time
    from pathlib import Path

    from repro.core.export import result_to_dict

    jobs = max(1, PARALLEL_JOBS)
    segments = max(4, jobs)
    spacing = max(1, PARALLEL_RECORDS // (2 * segments))
    policy = ExecutionPolicy(jobs=jobs, segments=segments,
                             segment_records=spacing)
    config = ExperimentConfig(max_instructions=PARALLEL_RECORDS,
                              workloads=("com",), scale=PARALLEL_SCALE)
    seconds = {}

    def timed(label, fn):
        start = time.perf_counter()
        out = fn()
        seconds[label] = round(time.perf_counter() - start, 3)
        return out

    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-shard-"))
    try:
        trace_store = TraceStore(scratch)
        capture = ExperimentRunner(store=ResultStore(scratch),
                                   trace_store=trace_store,
                                   policy=policy)
        timed("capture", lambda: capture.run_one("com", config))

        def replay(replay_policy, tag):
            runner = ExperimentRunner(store=ResultStore(scratch / tag),
                                      trace_store=TraceStore(scratch),
                                      policy=replay_policy)
            return timed(tag, lambda: runner.run_one("com", config))

        serial = replay(ExecutionPolicy(), "serial_replay")
        sharded = replay(policy, "segmented_replay")
        assert (json.dumps(result_to_dict(sharded))
                == json.dumps(result_to_dict(serial))), \
            "segment-parallel replay diverged from the serial kernel"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "records": PARALLEL_RECORDS,
        "scale": PARALLEL_SCALE,
        "jobs": jobs,
        "segments": segments,
        "segment_records": spacing,
        "cores": os.cpu_count() or 1,
        "seconds": seconds,
        "analyze_parallel_speedup": round(
            seconds["serial_replay"]
            / max(seconds["segmented_replay"], 1e-9), 2
        ),
    }


# ----------------------------------------------------------------------
# CI smoke: cold vs warm sweep, recorded at the repo root.
# ----------------------------------------------------------------------

def smoke(output_path=None) -> dict:
    """One serial cold-vs-warm sweep comparison; writes BENCH_runner.json.

    Measured phases, all with ``jobs=1`` so the ratios are pure cache
    effects rather than scheduling:

    * ``naive`` — the pre-two-tier baseline: one independent
      simulate-and-analyse suite run per config, no stores;
    * ``cold`` — the two-tier sweep into empty stores (each workload
      simulated once, analyzers fanned out over the single pass);
    * ``trace_warm`` — warm trace store, empty result store (every job
      replays the stored trace);
    * ``full_warm`` — both tiers warm (every job is a store hit).

    ``cold`` and ``trace_warm`` run as ``ANALYZE_PAIRS`` pairs, taking
    turns at going first, under an observing runner
    (:mod:`repro.obs`); their ``seconds`` are the medians and
    ``samples`` counts every timing's samples.  Each pair's
    ``analyze`` span walls land in ``analyze_samples`` (median,
    quartiles, samples, and how many pairs the warm sweep won); the
    first pair's per-layer breakdown in ``phases.columnar`` and
    kernel-work counters in ``kernel_work``.  ``reference_analyze`` times
    the reference oracle (:func:`repro.core.analyze_reference`) over
    the cold sweep's stored traces, and
    ``speedup.analyze_columnar_vs_reference`` compares it with the
    cold sweep's ``analyze`` wall — the columnar kernel's headline
    number (see docs/kernel.md).
    """
    import json
    import platform
    import shutil
    import statistics
    import sys
    import tempfile
    import time
    from pathlib import Path

    from repro.core import analyze_reference
    from repro.obs import decode_labels, layer_seconds
    from repro.runner import Job, trace_key
    from repro.workloads import SUITE

    def phase_breakdown(runs) -> dict:
        """Per-layer wall seconds of a sweep's recorded profile: the
        :func:`repro.obs.layer_seconds` rows, so ``kernel.analyze`` is
        the ``analyze`` spans' wall and ``store`` excludes the trace
        encode and decode nested in it.  ``cpu.sim`` includes the
        capture's column layout: the live trace streams into
        ``TraceColumns`` inside the ``simulate`` span.  ``gc`` is the
        cyclic collector's pause time; collections run inside the
        other layers, so it is their share, not one more row.
        """
        profile = runs[0].metrics.profile
        phases = {layer: round(seconds, 3) for layer, seconds
                  in layer_seconds(profile["spans"]).items()}
        phases["gc"] = round(sum(
            value for name, value in profile["counters"].items()
            if decode_labels(name)[0] == "gc.pause_s"
        ), 3)
        return phases

    def kernel_work(runs) -> dict:
        """The kernel-work counters of a sweep's profile: what the
        columnar kernel did, independent of timing."""
        counters = runs[0].metrics.profile["counters"]
        return {name: counters.get(name, 0) for name in KERNEL_WORK}

    timings = {}
    samples = {}
    phases = {}
    work = {}

    def timed(label, fn):
        start = time.perf_counter()
        out = fn()
        samples.setdefault(label, []).append(time.perf_counter() - start)
        timings[label] = statistics.median(samples[label])
        return out

    def spread(values) -> dict:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
        return {"median": round(median, 3), "q1": round(q1, 3),
                "q3": round(q3, 3),
                "samples": [round(value, 3) for value in values]}

    def columnar_sweeps(scratch: Path) -> dict:
        """``ANALYZE_PAIRS`` cold / trace-warm sweep pairs; returns
        their ``analyze`` samples.  The first pair fills ``phases`` and
        ``work``.

        Every cold sweep starts from empty stores and every trace-warm
        sweep from an empty result store.  Odd pairs run the warm
        sweep first, over the previous pair's traces, so drift over
        the run favours neither side.
        """
        analyze = {"cold": [], "trace_warm": []}

        def cold_sweep(root):
            return timed("cold", lambda: _sweep(ExperimentRunner(
                store=ResultStore(root), trace_store=TraceStore(root),
                observe=True,
            )))

        def warm_sweep(root, tag):
            runner = ExperimentRunner(
                store=ResultStore(root / f"fresh-results-{tag}"),
                trace_store=TraceStore(root), observe=True,
            )
            runs = timed("trace_warm", lambda: _sweep(runner))
            assert all(
                metric.status == "replayed"
                for run in runs for metric in run.metrics.jobs
            )
            return runs

        root = scratch / "pair0"
        for pair in range(ANALYZE_PAIRS):
            if pair % 2 == 0:
                root = scratch / f"pair{pair}"
                sweeps = {"cold": cold_sweep(root),
                          "trace_warm": warm_sweep(root, pair)}
            else:
                sweeps = {"trace_warm": warm_sweep(root, pair)}
                root = scratch / f"pair{pair}"
                sweeps["cold"] = cold_sweep(root)
            for label, runs in sweeps.items():
                breakdown = phase_breakdown(runs)
                analyze[label].append(breakdown["kernel.analyze"])
                if pair == 0:
                    phases.setdefault("columnar", {})[label] = breakdown
                    work[label] = kernel_work(runs)
        wins = sum(warm <= cold for cold, warm
                   in zip(analyze["cold"], analyze["trace_warm"]))
        return {"pairs": ANALYZE_PAIRS, "warm_wins": wins,
                "cold": spread(analyze["cold"]),
                "trace_warm": spread(analyze["trace_warm"])}

    def reference_analyze(scratch: Path) -> float:
        """The oracle's analyze wall over the cold sweep's traces.

        Records are decoded and rebuilt from the stored columns outside
        the timer, as the sweep's ``analyze`` span excludes decode.
        """
        trace_store = TraceStore(scratch)
        total = 0.0
        for workload in SUITE:
            header, columns = trace_store.get(trace_key(workload.name),
                                              RUNNER_BUDGET)
            records = columns.to_records()
            configs = [Job(workload.name, config).analysis_config()
                       for config in SWEEP_CONFIGS]
            start = time.perf_counter()
            analyze_reference(records, header["n_static"], configs,
                              name=workload.name)
            total += time.perf_counter() - start
        return total

    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-runner-"))
    try:
        def naive():
            runner = ExperimentRunner(store=None)
            return [
                runner.run(config).require() for config in SWEEP_CONFIGS
            ]

        timed("naive", naive)
        analyze_samples = columnar_sweeps(scratch)
        warm_root = scratch / "pair0"
        samples["reference_analyze"] = [reference_analyze(warm_root)]
        timings["reference_analyze"] = samples["reference_analyze"][0]
        full_warm = timed("full_warm", lambda: _sweep(ExperimentRunner(
            store=ResultStore(warm_root), trace_store=TraceStore(warm_root),
        )))
        assert all(
            metric.status == "cache-hit"
            for run in full_warm for metric in run.metrics.jobs
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    parallel = parallel_smoke()

    analyze_speedup = round(
        timings["reference_analyze"]
        / max(phases["columnar"]["cold"]["kernel.analyze"], 1e-9), 2
    )

    workloads = len(full_warm[0].results)
    report = {
        "benchmark": "4-config sweep over the full suite, serial",
        "budget": RUNNER_BUDGET,
        "configs": len(SWEEP_CONFIGS),
        "workloads": workloads,
        "seconds": {k: round(v, 3) for k, v in timings.items()},
        "samples": {k: len(v) for k, v in samples.items()},
        "speedup": {
            "cold_vs_naive": round(timings["naive"] / timings["cold"], 2),
            "trace_warm_vs_cold": round(
                timings["cold"] / timings["trace_warm"], 2
            ),
            "full_warm_vs_cold": round(
                timings["cold"] / timings["full_warm"], 2
            ),
            "analyze_columnar_vs_reference": analyze_speedup,
        },
        "analyze_speedup": analyze_speedup,
        "analyze_parallel_speedup": parallel["analyze_parallel_speedup"],
        "parallel": parallel,
        "analyze_samples": analyze_samples,
        "phases": phases,
        "kernel_work": work,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if output_path is None:
        output_path = Path(__file__).resolve().parent.parent \
            / "BENCH_runner.json"
    Path(output_path).write_text(json.dumps(report, indent=2) + "\n")

    print(f"{workloads} workloads x {len(SWEEP_CONFIGS)} configs "
          f"@ {RUNNER_BUDGET} instructions:")
    for label in ("naive", "cold", "trace_warm", "full_warm",
                  "reference_analyze"):
        print(f"  {label:<22} {timings[label]:>7.2f}s "
              f"(median of {len(samples[label])})")
    for label, value in report["speedup"].items():
        print(f"  {label:<29} {value:>6.2f}x")
    for label in ("cold", "trace_warm"):
        parts = ", ".join(
            f"{name} {seconds:.2f}s"
            for name, seconds in phases["columnar"][label].items()
        )
        print(f"  {label} phases: {parts}")
    print(f"  analyze over {analyze_samples['pairs']} pairs: cold median "
          f"{analyze_samples['cold']['median']}s, trace-warm median "
          f"{analyze_samples['trace_warm']['median']}s "
          f"(warm won {analyze_samples['warm_wins']})")
    print(f"  segment-parallel replay of {parallel['records']:,} "
          f"records ({parallel['jobs']} worker(s), "
          f"{parallel['segments']} segments, "
          f"{parallel['cores']} core(s)): "
          f"serial {parallel['seconds']['serial_replay']}s vs "
          f"sharded {parallel['seconds']['segmented_replay']}s "
          f"({parallel['analyze_parallel_speedup']}x)")
    print(f"[written to {output_path}]", file=sys.stderr)
    return report


def check(report) -> list[str]:
    """The smoke's acceptance gates; returns failed-gate descriptions.

    The warm <= cold ``analyze`` gate compares the medians of
    ``ANALYZE_PAIRS`` alternating samples (``analyze_samples``), within
    ``ANALYZE_TOLERANCE`` of the cold median: the cold sweep analyses
    the columns it built while simulating, the trace-warm sweep the
    columns it decodes from the stored traces, and both run the same
    passes, assemblies and walk records.  The deterministic gate beside
    it checks that equal work itself: the ``KERNEL_WORK`` counters must
    match between the two sweeps.
    """
    failures = []
    if report["speedup"]["full_warm_vs_cold"] < 3.0:
        failures.append(
            "full_warm_vs_cold "
            f"{report['speedup']['full_warm_vs_cold']}x < 3x"
        )
    if report["analyze_speedup"] < 3.0:
        failures.append(
            f"analyze_speedup {report['analyze_speedup']}x < 3x "
            "(columnar vs reference)"
        )
    work = report["kernel_work"]
    if not work["cold"]["analyze.passes"]:
        failures.append("cold sweep recorded no analyze passes")
    elif work["trace_warm"] != work["cold"]:
        failures.append(
            f"trace-warm kernel work {work['trace_warm']} differs from "
            f"cold {work['cold']}"
        )
    analyze = report["analyze_samples"]
    bound = analyze["cold"]["median"] * (1 + ANALYZE_TOLERANCE)
    if analyze["trace_warm"]["median"] > bound:
        failures.append(
            "warm replay analyze median "
            f"({analyze['trace_warm']['median']}s) exceeds cold "
            f"analyze median ({analyze['cold']['median']}s) by more "
            f"than {ANALYZE_TOLERANCE:.0%} over {analyze['pairs']} pairs"
        )
    # The segment-parallel gate needs real cores to mean anything:
    # on a 1-2 core host the number is recorded but not enforced.
    parallel = report.get("parallel", {})
    speedup = parallel.get("analyze_parallel_speedup", 0.0)
    if parallel.get("cores", 0) >= 4 and speedup < 2.5:
        failures.append(
            f"analyze_parallel_speedup {speedup}x < 2.5x "
            f"on {parallel['cores']} cores"
        )
    return failures


if __name__ == "__main__":
    report = smoke()
    failed = check(report)
    for failure in failed:
        print(f"GATE FAILED: {failure}")
    raise SystemExit(1 if failed else 0)
