"""Instruction reuse vs. value prediction (paper Section 6).

Run:  python examples/reuse_vs_prediction.py

The paper's Section 6 suggests "reuse/memoization of regions with
predictable nodes and arcs" (citing Sodani & Sohi's instruction reuse).
This example runs a reuse buffer alongside the predictability analysis
and measures how the two opportunities overlap: reuse needs literally
repeated inputs, prediction only needs *patterned* ones, so prediction
reaches strictly further on induction-style code.
"""

from repro.core import AnalysisConfig, analyze_machine
from repro.workloads import SUITE


def main() -> None:
    config = AnalysisConfig(
        predictors=("stride",), trees_for=(), track_reuse=True,
        max_instructions=60_000,
    )
    print(f"{'bench':<6} {'reuse rate':>11} {'reuse∩pred':>11} "
          f"{'pred only':>10}")
    print("-" * 42)
    for workload in SUITE:
        if workload.kind != "int":
            continue
        result = analyze_machine(workload.machine(), workload.name,
                                 config)
        stats = result.reuse
        print(f"{workload.name:<6} "
              f"{100 * stats.reuse_rate():>10.1f}% "
              f"{100 * stats.hits_predicted / stats.eligible:>10.1f}% "
              f"{100 * stats.predicted_only / stats.eligible:>9.1f}%")
    print()
    print("reuse rate     = ALU instances whose exact inputs repeat")
    print("reuse∩pred     = reusable AND fully predicted (stride)")
    print("pred only      = fully predicted but NOT reusable -- the")
    print("                 margin prediction has over memoization.")


if __name__ == "__main__":
    main()
