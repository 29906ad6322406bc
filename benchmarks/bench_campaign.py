"""The campaign engine's end-to-end smoke, ``make campaign-smoke``::

    python benchmarks/bench_campaign.py

The smoke runs ``examples/campaigns/smoke.toml`` (2 generated
workloads x 2 predictor banks) cold into a scratch cache, re-runs it
with a *fresh* runner over the same store — asserting, via the
``runner.resolve.*`` obs counters, that the warm pass touched zero
pool jobs — and emits the registry-driven report to
``campaign-report/`` at the repo root, asserting the directory
contains every registered table and plot.  Wall times land in
``BENCH_campaign.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.campaign import (
    create_report,
    load_spec,
    plot_registry,
    run_campaign,
    table_registry,
)
from repro.runner import ExperimentRunner, ResultStore, TraceStore

_ROOT = Path(__file__).resolve().parents[1]
SMOKE_SPEC = _ROOT / "examples" / "campaigns" / "smoke.toml"


def _runner(root, observe: bool = False) -> ExperimentRunner:
    return ExperimentRunner(
        store=ResultStore(root), trace_store=TraceStore(root),
        observe=observe,
    )


def smoke(output_path=None, report_dir=None) -> dict:
    """Cold-vs-warm campaign; writes BENCH_campaign.json and a report.

    Fails (raises) when the warm re-run touches the pool, when the
    ``runner.resolve.*`` counters disagree with the grid size, or when
    the report directory is missing any registered exhibit.
    """
    import json
    import tempfile
    import time

    spec = load_spec(SMOKE_SPEC)
    spec.validate()
    grid = spec.jobs()

    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as scratch:
        print(f"[campaign-smoke] cold: {len(spec.workloads)} workload(s) "
              f"x {len(spec.variants)} variant(s) = {grid} jobs")
        start = time.perf_counter()
        cold = run_campaign(spec, runner=_runner(scratch))
        cold_s = time.perf_counter() - start
        assert cold.pool_jobs == grid, cold.resolve_counts

        print("[campaign-smoke] warm: fresh runner over the same store")
        warm_runner = _runner(scratch, observe=True)
        start = time.perf_counter()
        warm = run_campaign(spec, runner=warm_runner)
        warm_s = time.perf_counter() - start
        assert warm.fully_warm, warm.resolve_counts
        assert warm.pool_jobs == 0, warm.resolve_counts

        # The acceptance check proper: the runner's own resolution
        # counters say every grid cell resolved without computing.
        runs = warm_runner.run_many(spec.configs())
        profile = next(
            run.metrics.profile for run in runs
            if run.metrics.profile is not None
        )
        resolve = {
            counter: count
            for counter, count in profile.get("counters", {}).items()
            if counter.startswith("runner.resolve.")
        }
        assert resolve.get("runner.resolve.computed", 0) == 0, resolve
        assert resolve.get("runner.resolve.replayed", 0) == 0, resolve
        assert sum(resolve.values()) >= grid, resolve
        print(f"[campaign-smoke] resolve counters: "
              + ", ".join(f"{k.rsplit('.', 1)[1]}={v}"
                          for k, v in sorted(resolve.items())))

        out = Path(report_dir or _ROOT / "campaign-report")
        create_report(warm, out)
        missing = [
            str(path) for path in
            [out / "index.md", out / "campaign.json"]
            + [out / "tables" / f"{name}.txt" for name in table_registry]
            + [out / "plots" / f"{name}.svg" for name in plot_registry]
            if not path.is_file()
        ]
        assert not missing, f"report incomplete: {missing}"
        print(f"[campaign-smoke] report at {out}: "
              f"{len(table_registry)} table(s), "
              f"{len(plot_registry)} plot(s)")

    report = {
        "spec": str(SMOKE_SPEC.relative_to(_ROOT)),
        "grid_jobs": grid,
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "warm_vs_cold": round(cold_s / warm_s, 1) if warm_s else None,
        "cold_resolve": dict(cold.resolve_counts),
        "warm_resolve": dict(warm.resolve_counts),
        "warm_pool_jobs": warm.pool_jobs,
        "report_dir": str(out),
        "tables": sorted(table_registry),
        "plots": sorted(plot_registry),
    }
    path = Path(output_path or _ROOT / "BENCH_campaign.json")
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[campaign-smoke] cold {cold_s:.2f}s -> warm {warm_s:.2f}s "
          f"({report['warm_vs_cold']}x); written to {path}")
    return report


if __name__ == "__main__":
    try:
        smoke()
    except AssertionError as error:
        print(f"[campaign-smoke] FAIL: {error}", file=sys.stderr)
        raise SystemExit(1)
