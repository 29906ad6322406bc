"""Tests for the report layer: tables, experiments and the CLI."""

import pytest

from repro.api import run_suite
from repro.report import (
    ExperimentConfig,
    figure5,
    figure6,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    table1,
)
from repro.report.tables import (
    Table,
    bucket_label,
    cumulative_percent,
    log2_bucket_edges,
    percentage,
)

#: Small budget keeps this module fast; results are cached in-process.
CONFIG = ExperimentConfig(max_instructions=8_000)


@pytest.fixture(scope="module")
def results():
    return run_suite(CONFIG)


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
    def test_table1_covers_suite(self, results):
        table = table1(results)
        assert len(table.rows) == 12
        for row in table.rows:
            assert row[2] > 0 and row[3] > 0  # nodes, edges

    def test_figure5_percentages_bounded(self, results):
        table = figure5(results)
        for row in table.rows:
            for cell in row[2:]:
                assert 0.0 <= cell <= 100.0

    def test_figure5_has_averages(self, results):
        table = figure5(results)
        first_column = [row[0] for row in table.rows]
        assert "INT" in first_column and "FLOAT" in first_column

    def test_figure6_detail_sums_to_overall(self, results):
        """Figure 6's arc generation classes partition Figure 5's
        arc-generation total."""
        overall = figure5(results)
        __, arc_detail = figure6(results)
        for overall_row, detail_row in zip(overall.rows, arc_detail.rows):
            assert overall_row[0] == detail_row[0]
            assert overall_row[1] == detail_row[1]
            arc_gen = overall_row[5]
            detail_total = sum(detail_row[2:])
            assert detail_total == pytest.approx(arc_gen, abs=1e-9)

    def test_figure9_combo_counts_bounded(self, results):
        overall, combos = figure9(results)
        for row in combos.rows:
            for cell in row[1:]:
                assert 0.0 <= cell <= 100.0
        # Exact combinations are disjoint: their sum is bounded by the
        # overall propagate share (<= 100).
        for column in (1, 2, 3):
            assert sum(row[column] for row in combos.rows) <= 100.0

    def test_figure10_curves_cumulative(self, results):
        table = figure10(results, "gcc", "context")
        gens = [row[1] for row in table.rows]
        assert gens == sorted(gens)
        assert gens[-1] == pytest.approx(100.0)

    def test_figure11_requires_trees(self, results):
        with pytest.raises(ValueError, match="tree tracking"):
            figure11(results, workloads=("com",), predictor="last")

    def test_figure12_bucket_structure(self, results):
        table = figure12(results)
        assert table.rows[0][0] == "1"
        assert table.rows[-1][0] == "257+"

    def test_figure13_partitions_branches(self, results):
        table = figure13(results)
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


class TestDetailConsistency:
    """Figures 6-8 must partition Figure 5's aggregate bars exactly."""

    def test_figure7_nodes_partition_propagation(self, results):
        from repro.report import figure7

        overall = figure5(results)
        node_detail, __ = figure7(results)
        for overall_row, detail_row in zip(overall.rows, node_detail.rows):
            node_prop = overall_row[3]
            assert sum(detail_row[2:]) == pytest.approx(node_prop)

    def test_figure7_arcs_partition_propagation(self, results):
        from repro.report import figure7

        overall = figure5(results)
        __, arc_detail = figure7(results)
        for overall_row, detail_row in zip(overall.rows, arc_detail.rows):
            arc_prop = overall_row[6]
            # wl + r + 1 use classes; rd:p,p cannot exist (D arcs are
            # <n,*>), so the three classes cover everything.
            assert sum(detail_row[2:]) == pytest.approx(arc_prop)

    def test_figure8_nodes_partition_termination(self, results):
        from repro.report import figure8

        overall = figure5(results)
        node_detail, __ = figure8(results)
        for overall_row, detail_row in zip(overall.rows, node_detail.rows):
            node_term = overall_row[4]
            assert sum(detail_row[2:]) == pytest.approx(node_term)

    def test_figure8_arcs_partition_termination(self, results):
        from repro.report import figure8

        overall = figure5(results)
        __, arc_detail = figure8(results)
        for overall_row, detail_row in zip(overall.rows, arc_detail.rows):
            arc_term = overall_row[7]
            assert sum(detail_row[2:]) == pytest.approx(arc_term)

    def test_critical_points_exhibit(self, results):
        from repro.report import critical_points

        table = critical_points(results, predictor="stride", top=3)
        assert table.rows
        # miss % column bounded.
        for row in table.rows:
            assert 0.0 <= row[5] <= 100.0
