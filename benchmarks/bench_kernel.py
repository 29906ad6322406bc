"""Kernel parity report: columnar kernel vs the reference oracle.

Runs a (workload x analysis-variant) matrix through the columnar
kernel (``analyze_trace``) and the reference loop
(``analyze_reference``) and verifies the byte-identity contract case
by case — ``result_to_dict`` of each result pair must serialise to
exactly the same JSON.  Alongside the verdicts it records each path's
analyze wall time, so the report doubles as a coarse per-case speedup
table.

This is the artifact behind ``make kernel-parity`` and the CI
``kernel-parity`` job: it writes ``reports/kernel_parity.json`` and
exits non-zero on any mismatch, so a red run always leaves the exact
diverging (workload, variant) pair in the uploaded report.

    python benchmarks/bench_kernel.py

The matrix budget comes from ``REPRO_PARITY_BUDGET`` (default 4000
instructions; the differential *fuzz* tier lives in
tests/properties/test_kernel_fuzz.py and sweeps far more configs).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.core import (
    AnalysisConfig,
    analyze_reference,
    analyze_trace,
    columnar_unsupported,
)
from repro.core.export import result_to_dict
from repro.gen import generated_workload
from repro.workloads import SUITE, get_workload

BUDGET = int(os.environ.get("REPRO_PARITY_BUDGET", "4000"))

#: Variants mirroring tests/core/test_kernel_parity.py: every
#: classification path the kernel implements.
VARIANTS = {
    "default": AnalysisConfig(max_instructions=BUDGET),
    "hybrid": AnalysisConfig(
        predictors=("hybrid", "last"), max_instructions=BUDGET
    ),
    "local-branch": AnalysisConfig(
        branch_predictor="local", gshare_bits=10, max_instructions=BUDGET
    ),
    "params": AnalysisConfig(
        predictors=("last(bits=8,hysteresis=0)",
                    "context(l1=8,l2=10,order=2)", "stride(bits=8)"),
        max_instructions=BUDGET,
    ),
    "trees-all": AnalysisConfig(
        trees_for=("last", "stride", "context"), gen_cap=4,
        max_instructions=BUDGET,
    ),
    "tracking-off": AnalysisConfig(
        track_sequences=False, track_branches=False, track_unpred=False,
        track_paths=False, max_instructions=BUDGET,
    ),
}

#: Generated workloads extend the fixed suite with fuzz-grid points.
GEN_NAMES = ("gen:loopy@11", "gen:branchy@12", "gen:float-kernel@13")


def _trace_of(name: str):
    if name.startswith("gen:"):
        machine = generated_workload(name).machine()
    else:
        machine = get_workload(name).machine()
    return list(machine.trace()), len(machine.program.instructions)


#: In-memory segment count for the segmented column (thread executor).
SEGMENTS = int(os.environ.get("REPRO_PARITY_SEGMENTS", "4"))


def _timed_analysis(records, n_static, name, config, reference=False,
                    segments=None):
    """Serialised result and wall time of one analysis: the reference
    oracle, or the columnar kernel (``segments`` > 1 = segmented)."""
    start = time.perf_counter()
    if reference:
        (result,) = analyze_reference(records, n_static, [config],
                                      name=name)
    else:
        assert columnar_unsupported(config) is None, config
        result = analyze_trace(records, n_static, name=name,
                               config=config, segments=segments)
    wall = time.perf_counter() - start
    return json.dumps(result_to_dict(result), sort_keys=False), wall


def parity_report() -> dict:
    """Run the matrix; returns the report dict (see module docstring)."""
    cases = []
    ref_total = col_total = seg_total = 0.0
    mismatches = 0
    matrix = [(w.name, "default") for w in SUITE]
    matrix += [("com", variant) for variant in sorted(VARIANTS)
               if variant != "default"]
    matrix += [(name, "default") for name in GEN_NAMES]
    for workload, variant in matrix:
        records, n_static = _trace_of(workload)
        config = VARIANTS[variant]
        # Fresh column decode per case: a shared object would let the
        # kernel's bank caches mask a per-case divergence.
        reference, ref_wall = _timed_analysis(
            records, n_static, workload, config, reference=True
        )
        columnar, col_wall = _timed_analysis(
            records, n_static, workload, config
        )
        # The segment-parallel kernel shares the identity contract:
        # same bytes through checkpointed cuts (docs/sharding.md).
        segmented, seg_wall = _timed_analysis(
            records, n_static, workload, config, segments=SEGMENTS,
        )
        match = columnar == reference and segmented == reference
        mismatches += 0 if match else 1
        ref_total += ref_wall
        col_total += col_wall
        seg_total += seg_wall
        cases.append({
            "workload": workload,
            "variant": variant,
            "match": match,
            "reference_s": round(ref_wall, 4),
            "columnar_s": round(col_wall, 4),
            "segmented_s": round(seg_wall, 4),
            "speedup": round(ref_wall / max(col_wall, 1e-9), 2),
        })
    return {
        "benchmark": "columnar-vs-reference parity matrix",
        "budget": BUDGET,
        "segments": SEGMENTS,
        "cases": cases,
        "summary": {
            "cases": len(cases),
            "mismatches": mismatches,
            "reference_s": round(ref_total, 3),
            "columnar_s": round(col_total, 3),
            "segmented_s": round(seg_total, 3),
            "speedup": round(ref_total / max(col_total, 1e-9), 2),
        },
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(output_path=None) -> int:
    report = parity_report()
    if output_path is None:
        output_path = Path(__file__).resolve().parent.parent \
            / "reports" / "kernel_parity.json"
    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    output_path.write_text(json.dumps(report, indent=2) + "\n")

    summary = report["summary"]
    print(f"{summary['cases']} parity cases @ {BUDGET} instructions: "
          f"{summary['mismatches']} mismatches, "
          f"reference {summary['reference_s']}s vs columnar "
          f"{summary['columnar_s']}s ({summary['speedup']}x); "
          f"segmented x{report['segments']} {summary['segmented_s']}s")
    for case in report["cases"]:
        if not case["match"]:
            print(f"PARITY FAILED: {case['workload']} / {case['variant']}")
    print(f"[written to {output_path}]", file=sys.stderr)
    return 1 if summary["mismatches"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
