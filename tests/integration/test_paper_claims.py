"""The paper's orderings that already hold at a CI-sized budget.

One paper campaign at 20,000 instructions per workload; every claim
reads the exhibit registry's tables, the same ones ``repro report``
prints.  Each ordering below held on the INT average at 20k, 40k, 60k,
100k and 150k instructions.  C > S > L is deliberately not gated: on
the INT average it only holds from about 150k instructions (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import re

import pytest

from repro.campaign import paper_spec, run_campaign, table_registry
from repro.runner import ExperimentRunner, ResultStore, TraceStore
from repro.workloads import get_workload

BUDGET = 20_000


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    """Exhibit name -> its tables for the paper campaign."""
    root = tmp_path_factory.mktemp("paper-claims")
    campaign = run_campaign(
        paper_spec(max_instructions=BUDGET),
        runner=ExperimentRunner(store=ResultStore(root),
                                trace_store=TraceStore(root)),
    )
    return {name: build(campaign) for name, build in table_registry.items()}


def int_average(table) -> dict[str, list[float]]:
    """``predictor label -> numeric cells`` of the INT average rows."""
    rows, bench = {}, None
    for row in table.rows:
        bench = row[0] or bench
        if bench == "INT":
            rows[row[1]] = row[2:]
    return rows


def test_propagation_exceeds_generation_and_termination(paper):
    """Fig. 5: for S and C, propagation (node + arc) dominates."""
    average = int_average(paper["fig5"])
    for label in ("S", "C"):
        node_gen, node_prop, node_term, arc_gen, arc_prop, arc_term = (
            average[label][:6]
        )
        propagation = node_prop + arc_prop
        assert propagation > node_gen + arc_gen, label
        assert propagation > node_term + arc_term, label


def test_node_termination_exceeds_arc_termination(paper):
    """Fig. 5: unpredictability ends at nodes more than on arcs."""
    for label, cells in int_average(paper["fig5"]).items():
        assert cells[2] > cells[5], label


def test_context_propagates_more_on_arcs_than_nodes(paper):
    """Fig. 5: C's arc propagation exceeds its node propagation."""
    cells = int_average(paper["fig5"])["C"]
    assert cells[4] > cells[1]


def test_context_terminates_on_predicted_inputs(paper):
    """Fig. 8: p,p->n plus p,i->n is notable only for C (>= 10x L, S)."""
    node_table, __ = paper["fig8"]
    assert node_table.headers[2:] == ["p,n->n", "p,p->n", "p,i->n"]
    average = int_average(node_table)
    share = {label: cells[1] + cells[2] for label, cells in average.items()}
    assert share["C"] >= 10 * share["L"]
    assert share["C"] >= 10 * share["S"]


def test_context_propagates_on_single_use_arcs(paper):
    """Fig. 7: C propagates on single-use more than repeated-use arcs."""
    __, arc_table = paper["fig7"]
    assert arc_table.headers[2:] == ["<wl:p,p>", "<r:p,p>", "<1:p,p>"]
    __, repeated, single = int_average(arc_table)["C"]
    assert single > repeated


def test_gshare_accuracy(paper):
    """Fig. 13: gshare predicts at least 90% of INT branches."""
    note = next(note for note in paper["fig13"].notes
                if note.startswith("gshare accuracy"))
    accuracy = float(re.search(r"([\d.]+)%", note).group(1))
    assert accuracy >= 90.0


def test_float_dpgs_have_more_edges_per_node(paper):
    """Table 1: FP mean edges/node exceeds INT mean edges/node."""
    ratios: dict[str, list[float]] = {"int": [], "fp": []}
    for row in paper["table1"].rows:
        ratios[get_workload(row[0]).kind].append(row[4])
    mean = {kind: sum(values) / len(values)
            for kind, values in ratios.items()}
    assert mean["fp"] > mean["int"]
