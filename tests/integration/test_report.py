"""Tests for the report layer: tables, the paper exhibits and the CLI.

The paper exhibits are read through the campaign's exhibit registry,
the one path ``repro report`` and campaign reports render them by.
"""

import dataclasses

import pytest

from repro.api import run_suite
from repro.campaign import (
    CampaignResult,
    PredictorVariant,
    paper_spec,
    run_campaign,
    table_registry,
)
from repro.campaign.exhibits import build_tables
from repro.report.experiments import SEQUENCE_BUCKETS
from repro.runner import reset_default_runner
from repro.report.tables import (
    Table,
    bucket_label,
    cumulative_percent,
    log2_bucket_edges,
    percentage,
)

#: Small budget keeps this module fast; results are cached in-process.
SPEC = paper_spec(max_instructions=8_000)
CONFIG = SPEC.configs()[0]


@pytest.fixture(scope="module", autouse=True)
def _isolated_default_store(tmp_path_factory):
    """The module's default runner (campaign, ``run_suite`` and the
    CLI without ``--cache-dir``) over a store of its own, never the
    checkout's ``.repro-cache/``; module-scoped for ``campaign``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("default-cache")))
        reset_default_runner()
        yield
    reset_default_runner()


@pytest.fixture(scope="module")
def campaign(_isolated_default_store):
    return run_campaign(SPEC)


def exhibit(name, campaign):
    """The registry builder's output for ``name``."""
    return table_registry[name](campaign)


class TestTableRendering:
    def test_alignment_and_title(self):
        table = Table("Demo", ["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("b", 22.125)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "alpha" in text and "22.12" in text

    def test_notes_rendered(self):
        table = Table("T", ["x"])
        table.add_note("hello")
        assert "note: hello" in table.render()

    def test_percentage(self):
        assert percentage(1, 4) == 25.0
        assert percentage(5, 0) == 0.0

    def test_log2_edges(self):
        assert log2_bucket_edges(9) == [1, 2, 4, 8, 16]
        assert log2_bucket_edges(1) == [1]

    def test_bucket_label(self):
        assert bucket_label(3, 4) == "3-4"
        assert bucket_label(2, 2) == "2"

    def test_cumulative_percent(self):
        hist = {1: 2, 3: 2}
        assert cumulative_percent(hist, [1, 2, 4]) == [50.0, 50.0, 100.0]

    def test_cumulative_percent_weighted(self):
        hist = {1: 1, 3: 1}
        curve = cumulative_percent(hist, [1, 4], weight=lambda v: v)
        assert curve == [25.0, 100.0]


class TestExperiments:
    def test_table1_covers_suite(self, campaign):
        table = exhibit("table1", campaign)
        assert len(table.rows) == 12
        assert table.headers == ["bench", "static", "nodes", "edges",
                                 "edges/node", "D-nodes %", "D-edges %"]
        for row in table.rows:
            assert row[2] > 0 and row[3] > 0  # nodes, edges

    def test_figure5_percentages_bounded(self, campaign):
        table = exhibit("fig5", campaign)
        # 12 workloads + INT + FLOAT averages, one row per predictor.
        assert len(table.rows) == (12 + 2) * 3
        for row in table.rows:
            for cell in row[2:]:
                assert 0.0 <= cell <= 100.0

    def test_figure5_has_averages(self, campaign):
        table = exhibit("fig5", campaign)
        first_column = [row[0] for row in table.rows]
        assert "INT" in first_column and "FLOAT" in first_column

    def test_figure6_detail_sums_to_overall(self, campaign):
        """Figure 6's arc generation classes partition Figure 5's
        arc-generation total."""
        overall = exhibit("fig5", campaign)
        node_detail, arc_detail = exhibit("fig6", campaign)
        assert node_detail.headers[2:] == ["i,i->p", "n,n->p", "i,n->p"]
        assert arc_detail.headers[2:] == [
            "<wl:n,p>", "<rd:n,p>", "<r:n,p>", "<1:n,p>"
        ]
        for overall_row, detail_row in zip(overall.rows, arc_detail.rows):
            assert overall_row[0] == detail_row[0]
            assert overall_row[1] == detail_row[1]
            arc_gen = overall_row[5]
            detail_total = sum(detail_row[2:])
            assert detail_total == pytest.approx(arc_gen, abs=1e-9)

    def test_figure9_combo_counts_bounded(self, campaign):
        overall, combos = exhibit("fig9", campaign)
        assert overall.headers[1:] == ["C", "D", "W", "I", "N", "M"]
        assert len(overall.rows) == 3
        assert combos.headers == ["combo", "L", "S", "C"]
        for row in combos.rows:
            for cell in row[1:]:
                assert 0.0 <= cell <= 100.0
        # Exact combinations are disjoint: their sum is bounded by the
        # overall propagate share (<= 100).
        for column in (1, 2, 3):
            assert sum(row[column] for row in combos.rows) <= 100.0

    def test_figure10_curves_cumulative(self, campaign):
        table = exhibit("fig10", campaign)
        assert "(gcc, context predictor)" in table.title
        gens = [row[1] for row in table.rows]
        aggs = [row[2] for row in table.rows]
        assert gens == sorted(gens) and aggs == sorted(aggs)
        assert gens[-1] == pytest.approx(100.0)
        assert aggs[-1] == pytest.approx(100.0)

    def test_figure11_requires_trees(self, campaign):
        """Without a tree-tracked predictor (or without com/go/gcc),
        Fig. 11 names the missing input instead of raising."""
        influence, distance = exhibit("fig11", campaign)
        assert influence.headers == ["K", "com", "go", "gcc"]
        for row in influence.rows:
            for cell in row[1:]:
                assert 0.0 <= cell <= 100.0
        untracked = run_campaign(dataclasses.replace(
            paper_spec(workloads=("com",), max_instructions=2_000),
            trees_for=(),
        ))
        for table in exhibit("fig11", untracked):
            assert not table.rows
            assert any("tree-tracked" in note for note in table.notes)
        no_inputs = CampaignResult(
            spec=dataclasses.replace(SPEC, workloads=("ijp",)),
            results={"paper": {"ijp": campaign.results["paper"]["ijp"]}},
        )
        for table in exhibit("fig11", no_inputs):
            assert not table.rows
            assert any("com, go, gcc" in note for note in table.notes)

    def test_figure12_bucket_structure(self, campaign):
        table = exhibit("fig12", campaign)
        assert len(table.rows) == len(SEQUENCE_BUCKETS)
        assert table.rows[0][0] == "1"
        assert table.rows[-1][0] == "257+"
        # Bucket shares cannot exceed 100% of instructions in total.
        for column in (1, 2, 3):
            assert sum(row[column] for row in table.rows) <= 100.0 + 1e-9

    def test_figure13_partitions_branches(self, campaign):
        table = exhibit("fig13", campaign)
        assert len(table.rows) == 12
        for column in (1, 2, 3):
            assert sum(row[column] for row in table.rows) == pytest.approx(
                100.0
            )

    def test_results_cached(self):
        first = run_suite(CONFIG)
        second = run_suite(CONFIG)
        assert first["com"] is second["com"]


class TestCli:
    def test_cli_single_exhibit(self, capsys):
        from repro.cli import main

        code = main([
            "report", "--exhibit", "table1", "--max-instructions", "2000",
            "--workloads", "com,go",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "com" in captured.out

    def test_cli_figure(self, capsys):
        from repro.cli import main

        code = main([
            "report", "--exhibit", "fig12", "--max-instructions", "2000",
            "--workloads", "com",
        ])
        assert code == 0
        assert "Figure 12" in capsys.readouterr().out

    def test_cli_all_prints_every_registered_table(self, tmp_path, capsys):
        from repro.cli import main
        from repro.runner import ExperimentRunner, ResultStore, TraceStore

        workloads = ("com", "go", "gcc", "swm")
        cache = tmp_path / "cache"
        code = main([
            "report", "--exhibit", "all", "--workloads", ",".join(workloads),
            "--max-instructions", "2000", "--cache-dir", str(cache),
        ])
        assert code == 0
        out = capsys.readouterr().out
        warm = run_campaign(
            paper_spec(workloads=workloads, max_instructions=2_000),
            runner=ExperimentRunner(store=ResultStore(cache),
                                    trace_store=TraceStore(cache)),
        )
        assert warm.fully_warm
        for name in table_registry:
            for table in build_tables(name, warm):
                assert table.title in out, name


class TestDetailConsistency:
    """Figures 6-8 must partition Figure 5's aggregate bars exactly."""

    def test_figure7_nodes_partition_propagation(self, campaign):
        overall = exhibit("fig5", campaign)
        node_detail, __ = exhibit("fig7", campaign)
        assert node_detail.headers[2:] == ["p,p->p", "p,i->p", "p,n->p"]
        for overall_row, detail_row in zip(overall.rows, node_detail.rows):
            node_prop = overall_row[3]
            assert sum(detail_row[2:]) == pytest.approx(node_prop)

    def test_figure7_arcs_partition_propagation(self, campaign):
        overall = exhibit("fig5", campaign)
        __, arc_detail = exhibit("fig7", campaign)
        for overall_row, detail_row in zip(overall.rows, arc_detail.rows):
            arc_prop = overall_row[6]
            # wl + r + 1 use classes; rd:p,p cannot exist (D arcs are
            # <n,*>), so the three classes cover everything.
            assert sum(detail_row[2:]) == pytest.approx(arc_prop)

    def test_figure8_nodes_partition_termination(self, campaign):
        overall = exhibit("fig5", campaign)
        node_detail, __ = exhibit("fig8", campaign)
        assert node_detail.headers[2:] == ["p,n->n", "p,p->n", "p,i->n"]
        for overall_row, detail_row in zip(overall.rows, node_detail.rows):
            node_term = overall_row[4]
            assert sum(detail_row[2:]) == pytest.approx(node_term)

    def test_figure8_arcs_partition_termination(self, campaign):
        overall = exhibit("fig5", campaign)
        __, arc_detail = exhibit("fig8", campaign)
        for overall_row, detail_row in zip(overall.rows, arc_detail.rows):
            arc_term = overall_row[7]
            assert sum(detail_row[2:]) == pytest.approx(arc_term)

    def test_critical_points_exhibit(self, campaign):
        """``critical`` ranks by the variant's last-listed predictor."""
        stride_last = CampaignResult(
            spec=dataclasses.replace(SPEC, variants=(
                PredictorVariant("paper", ("context", "stride")),
            )),
            results=campaign.results,
        )
        table = exhibit("critical", stride_last)
        assert "(stride predictor)" in table.title
        assert table.rows
        # miss % column bounded.
        for row in table.rows:
            assert 0.0 <= row[5] <= 100.0
