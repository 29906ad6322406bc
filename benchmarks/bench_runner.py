"""Smoke benchmark of the experiment runner: ``make bench-smoke``.

Measures the orchestration layer rather than any exhibit: a 4-config
sweep over all 12 workloads naive (no stores), cold, with a warm trace
store and with both tiers warm, then one large stored trace replayed
serially and segment-parallel.  The warm sweeps should beat cold by a
wide margin because nothing is re-simulated (trace tier) or even
re-analysed (result tier).  It records ``BENCH_runner.json`` at the
repo root and exits non-zero when a :func:`check` gate fails::

    python benchmarks/bench_runner.py

The sweeps run serial, so their ratios are scheduling-free; the
segment-parallel replay uses one worker per core.
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

#: A small budget: each cold sweep pays the full 12-workload trace
#: cost from scratch.
RUNNER_BUDGET = 6_000

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

#: Alternating cold / trace-warm sweep pairs the smoke samples, each
#: into fresh stores; the warm <= cold ``analyze`` gate reads the
#: median of the per-pair warm/cold ratios, since one pair of timings
#: swings with host noise and the two sides of a pair share its drift.
ANALYZE_PAIRS = 5

#: How far the median per-pair warm/cold ``analyze`` ratio may exceed
#: 1.  Both sides run equal kernel work, so a zero tolerance fails
#: correct trees on host noise; this is the spread (interquartile
#: range) of the per-pair ratio over 35 pairs in 7 smokes of the tree
#: before column-block trace files, on a 2-vCPU shared host (quartiles
#: 0.863 and 1.058).  A second layout of the decoded trace inside the
#: warm ``analyze`` span costs about +48%.
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


def _sweep(runner):
    runs = runner.run_many(SWEEP_CONFIGS)
    for run in runs:
        run.require()
    return runs


# ----------------------------------------------------------------------
# Segment-parallel single-trace smoke.
# ----------------------------------------------------------------------

def parallel_smoke() -> dict:
    """Serial vs segment-parallel replay of one large stored trace.

    Captures a ``PARALLEL_RECORDS``-record ``com`` trace once (writing
    its segment-index sidecar), then times two trace-warm replays from
    a cold result tier: serial, and segment-parallel with one worker
    per core (``os.cpu_count()``).  The two results must serialize to
    the same bytes; ``analyze_parallel_speedup`` is their wall ratio.
    The >= 2.5x acceptance gate arms only with 4+ cores (:func:`check`,
    from the same count).  This shape (a 1e6-record trace, ``max(4,
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

    jobs = os.cpu_count() or 1
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
    quartiles and samples per side, the same for the per-pair
    warm/cold ratio, and how many pairs the warm sweep won); the
    first pair's per-layer breakdown in ``phases.columnar`` and
    kernel-work counters in ``kernel_work``.  ``reference_analyze`` times
    the reference oracle (:func:`repro.core.analyze_reference`) over
    the cold sweep's stored traces, and
    ``speedup.analyze_columnar_vs_reference`` divides it by the median
    cold ``analyze`` wall — the columnar kernel's headline number (see
    docs/kernel.md).
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
        ratios = [warm / max(cold, 1e-9) for cold, warm
                  in zip(analyze["cold"], analyze["trace_warm"])]
        return {"pairs": ANALYZE_PAIRS,
                "warm_wins": sum(ratio <= 1 for ratio in ratios),
                "cold": spread(analyze["cold"]),
                "trace_warm": spread(analyze["trace_warm"]),
                "ratio": spread(ratios)}

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
        / max(analyze_samples["cold"]["median"], 1e-9), 2
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
          f"{analyze_samples['trace_warm']['median']}s, median "
          f"warm/cold ratio {analyze_samples['ratio']['median']} "
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

    The warm <= cold ``analyze`` gate reads the median of the
    ``ANALYZE_PAIRS`` per-pair warm/cold ratios (``analyze_samples``),
    which may exceed 1 by ``ANALYZE_TOLERANCE``: the cold sweep analyses
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
    if analyze["ratio"]["median"] > 1 + ANALYZE_TOLERANCE:
        failures.append(
            "median warm/cold analyze ratio "
            f"({analyze['ratio']['median']}) exceeds "
            f"{1 + ANALYZE_TOLERANCE:.2f} over {analyze['pairs']} pairs"
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
