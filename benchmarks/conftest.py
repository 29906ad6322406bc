"""Shared fixtures for the benchmark harness.

``bench_exhibits.py`` regenerates every registered exhibit (the
paper's Table 1 and Figs. 5-13 among them) from one paper campaign.
The underlying workload analyses flow through the shared experiment
runner (:mod:`repro.runner`): the first harness run traces every
workload and writes the results into the persistent store, so later
harness runs — and ``python -m repro report`` at the same budget —
start warm and re-trace nothing.  Rendered tables are written to
``benchmarks/results/`` so the regenerated exhibits persist as
artifacts.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.campaign import paper_spec, run_campaign

#: Dynamic-instruction budget per workload for the bench harness.  The
#: paper-quality runs use the report CLI with a larger budget; the
#: bench runs keep the suite fast while preserving the shapes.
BENCH_BUDGET = 25_000


@pytest.fixture(scope="session")
def paper_campaign():
    """The paper suite as a one-variant campaign at BENCH_BUDGET."""
    return run_campaign(paper_spec(max_instructions=BENCH_BUDGET))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    path = Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path
