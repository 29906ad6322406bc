"""Tests for the unpredictability and critical-point analyses."""

import pytest

from repro.asm import assemble
from repro.core import analyze_machine
from repro.core.unpred import CriticalPoints, UnpredTracker
from repro.cpu import Machine


class TestUnpredTracker:
    def test_runs_counted(self):
        tracker = UnpredTracker()
        for flag in [True, True, False, True]:
            tracker.on_node(flag)
        tracker.finalize()
        assert dict(tracker.stats.lengths) == {2: 1, 1: 1}

    def test_no_flags_no_runs(self):
        tracker = UnpredTracker()
        for __ in range(5):
            tracker.on_node(False)
        tracker.finalize()
        assert not tracker.stats.lengths


class TestCriticalPoints:
    def test_record_and_rank(self):
        critical = CriticalPoints(n_static=5)
        for __ in range(3):
            critical.record(2, terminated=True)
        critical.record(4, terminated=False)
        sites = critical.top_sites([10] * 5, count=3)
        assert sites[0].pc == 2
        assert sites[0].terminations == 3
        assert sites[0].output_misses == 3
        # pc 4 missed but never terminated; by terminations it ranks 0.
        assert all(site.terminations > 0 for site in sites)

    def test_rank_by_output_misses(self):
        critical = CriticalPoints(n_static=5)
        critical.record(4, terminated=False)
        sites = critical.top_sites([1] * 5, count=1, by="output_misses")
        assert sites[0].pc == 4

    def test_bad_ranking_rejected(self):
        with pytest.raises(ValueError):
            CriticalPoints(n_static=2).top_sites([1, 1], by="vibes")

    def test_miss_rate(self):
        critical = CriticalPoints(n_static=2)
        critical.record(0, terminated=True)
        site = critical.top_sites([4, 1], count=1)[0]
        assert site.miss_rate == 0.25

    def test_concentration(self):
        critical = CriticalPoints(n_static=10)
        for __ in range(9):
            critical.record(0, terminated=True)
        critical.record(1, terminated=True)
        assert critical.concentration(top=1) == 0.9
        assert CriticalPoints(n_static=3).concentration() == 0.0


class TestIntegration:
    SOURCE = """
        .data
buf:    .space 64
        .text
__start:
        li   $s0, 0
        la   $s1, buf
loop:   andi $t0, $s0, 15
        mul  $t1, $t0, $t0
        xor  $t1, $t1, $s0
        sll  $t2, $t0, 2
        addu $t2, $t2, $s1
        sw   $t1, 0($t2)
        lw   $t3, 0($t2)
        addiu $s0, $s0, 1
        slti $t4, $s0, 200
        bne  $t4, $zero, loop
        halt
"""

    @pytest.fixture(scope="class")
    def result(self):
        machine = Machine(assemble(self.SOURCE))
        return analyze_machine(machine, "unpred")

    def test_unpred_runs_present(self, result):
        for pred in result.predictors.values():
            assert pred.unpred is not None
            # Predictable and unpredictable runs cannot overlap.
            assert (
                pred.unpred.instructions_in_runs()
                + pred.sequences.instructions_in_runs()
                <= result.nodes
            )

    def test_critical_totals_match_terminations(self, result):
        from repro.core import Behavior

        for pred in result.predictors.values():
            terminations = pred.nodes.behavior_counts()[Behavior.TERMINATE]
            assert pred.critical.total_terminations() == terminations

    def test_top_sites_are_real_instructions(self, result):
        pred = result.predictors["stride"]
        sites = pred.critical.top_sites(
            [1] * result.static_instructions, count=5
        )
        for site in sites:
            assert 0 <= site.pc < result.static_instructions
