"""Medians and spreads of recorded benchmark runs.

Reads ``.perfbench-out/results.jsonl`` (one line per run of
``run.py``), keeps the runs of the code now in ``src/`` made by the
latest benchmark version that measured it, and prints,
per workload and end-to-end metric, the median, the interquartile
spread as a share of the median, and how that spread compares with the
metric's bound in ``BENCHMARK.json``::

    python3 perfbench/summarize.py [--write-baseline]

``--write-baseline`` stores the table, with the traced runs' per-layer
medians and the host facts, in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

BASELINE_PATH = common.BENCH_DIR / "baseline.json"


def load_runs(src_sha256: str) -> list[dict]:
    """Recorded runs of this program source by the benchmark version
    that recorded the latest of them."""
    path = common.OUT / "results.jsonl"
    if not path.is_file():
        return []
    runs = [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]
    runs = [run for run in runs if run["src_sha256"] == src_sha256]
    if not runs:
        return []
    latest = runs[-1]["bench_sha256"]
    return [run for run in runs if run.get("bench_sha256") == latest]


def table(runs: list[dict]) -> dict:
    """``{workload: {metric: {median, spread, n, unit}}}``."""
    grouped: dict[str, dict[str, list]] = {}
    units: dict[str, str] = {}
    for run in runs:
        metrics = grouped.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
    return {
        workload: {
            name: {"median": common.median(values),
                   "spread": (common.spread(values) if len(values) > 1
                              else None),
                   "n": len(values), "unit": units[name]}
            for name, values in sorted(metrics.items())
        }
        for workload, metrics in sorted(grouped.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    runs = load_runs(common.source_identity()["src_sha256"])
    if not runs:
        print("no recorded runs of this source", file=sys.stderr)
        return 1
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    runs = [run for run in runs if run["seconds"] == bench["run_seconds"]]
    bounds = {metric["name"]: metric["bound"]
              for metric in bench["end_to_end"]}
    end_to_end = table([run for run in runs if not run["trace"]])
    # Every traced run re-executes all three workloads: pool them.
    per_layer = table([dict(run, workload="traced")
                       for run in runs if run["trace"]]).get("traced", {})
    for workload, metrics in end_to_end.items():
        print(workload)
        for name, row in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and row["spread"] is not None:
                flag = ("ok" if row["spread"] < bound / 3 else
                        "WIDE" if row["spread"] < bound else "OVER BOUND")
            spread = ("-" if row["spread"] is None
                      else f"{row['spread']:.4f}")
            print(f"  {name:<16} median {row['median']:>14.4f} "
                  f"{row['unit']:<5} spread {spread:>7} (n={row['n']}) "
                  f"bound {bound} {flag}")
    if args.write_baseline:
        facts = {key: runs[-1][key]
                 for key in ("nproc", "python", "platform", "commit",
                             "src_sha256", "bench_sha256")}
        BASELINE_PATH.write_text(json.dumps({
            **facts,
            "runs": len(runs),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
