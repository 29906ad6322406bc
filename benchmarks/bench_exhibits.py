"""Regenerates every registered exhibit from the paper campaign.

One case per :data:`repro.campaign.table_registry` entry — the paper's
Table 1 and Figs. 5-13, the critical points and the campaign tables —
timing the builder and writing its tables to
``benchmarks/results/<name>.txt``.  The exhibits' shape checks live in
``tests/integration/test_report.py``.
"""

import pytest

from repro.campaign import table_registry
from repro.campaign.exhibits import build_tables


@pytest.mark.parametrize("name", sorted(table_registry))
def bench_exhibit(benchmark, paper_campaign, results_dir, name):
    tables = benchmark(build_tables, name, paper_campaign)
    text = "\n\n".join(table.render() for table in tables) + "\n"
    (results_dir / f"{name}.txt").write_text(text)
    assert all(table.title for table in tables)
