"""Tests for the instruction-reuse analysis."""

import pytest

from repro.asm import assemble
from repro.core import (
    AnalysisConfig,
    analyze_machine,
    analyze_reference,
    analyze_trace,
)
from repro.core.reuse import ReuseTracker
from repro.cpu import Machine
from repro.cpu.trace import DynInst, Source
from repro.isa.opcodes import Category


class TestReuseTracker:
    def test_first_instance_misses(self):
        tracker = ReuseTracker()
        assert tracker.on_node(5, (1, 2), False) is False
        assert tracker.stats.eligible == 1
        assert tracker.stats.hits == 0

    def test_identical_inputs_hit(self):
        tracker = ReuseTracker()
        tracker.on_node(5, (1, 2), False)
        assert tracker.on_node(5, (1, 2), False) is True
        assert tracker.stats.hits == 1

    def test_different_pc_does_not_hit(self):
        tracker = ReuseTracker()
        tracker.on_node(5, (1, 2), False)
        assert tracker.on_node(6, (1, 2), False) is False

    def test_capacity_eviction_fifo_lru(self):
        tracker = ReuseTracker(ways=2)
        tracker.on_node(5, (1,), False)
        tracker.on_node(5, (2,), False)
        tracker.on_node(5, (3,), False)   # evicts (1,)
        assert tracker.on_node(5, (1,), False) is False
        assert tracker.on_node(5, (3,), False) is True

    def test_hit_refreshes_lru_position(self):
        tracker = ReuseTracker(ways=2)
        tracker.on_node(5, (1,), False)
        tracker.on_node(5, (2,), False)
        tracker.on_node(5, (1,), False)   # refresh (1,)
        tracker.on_node(5, (3,), False)   # evicts (2,)
        assert tracker.on_node(5, (1,), False) is True
        assert tracker.on_node(5, (2,), False) is False

    def test_non_alu_ignored(self):
        """Only ALU instances with an output feed the buffer, in the
        kernel and in the reference loop alike."""
        def record(uid, op, category, out, passthrough=None):
            return DynInst(
                uid=uid, pc=5, op=op, category=category, has_imm=False,
                srcs=(Source(7, None, None, True, 0x1000),), out=out,
                passthrough=passthrough,
            )

        records = [
            record(0, "lw", Category.LOAD, 7, passthrough=0),
            record(1, "lw", Category.LOAD, 7, passthrough=0),
            record(2, "sw", Category.STORE, None),
            record(3, "addu", Category.ALU, 8),
            record(4, "addu", Category.ALU, 8),
            record(5, "addu", Category.ALU, None),
        ]
        config = AnalysisConfig(track_reuse=True)
        (oracle,) = analyze_reference(records, 8, [config])
        kernel = analyze_trace(records, 8, config=config)
        for stats in (oracle.reuse, kernel.reuse):
            assert (stats.eligible, stats.hits) == (2, 1)

    def test_prediction_overlap_accounting(self):
        tracker = ReuseTracker()
        tracker.on_node(5, (1, 2), True)   # miss, predicted
        tracker.on_node(5, (1, 2), True)   # hit, predicted
        tracker.on_node(5, (1, 2), False)  # hit, unpredicted
        assert tracker.stats.predicted_only == 1
        assert tracker.stats.hits_predicted == 1
        assert tracker.stats.hits == 2

    def test_bad_ways_rejected(self):
        with pytest.raises(ValueError):
            ReuseTracker(ways=0)

    def test_reuse_rate(self):
        tracker = ReuseTracker()
        tracker.on_node(5, (1,), False)
        tracker.on_node(5, (1,), False)
        assert tracker.stats.reuse_rate() == 0.5


class TestAnalyzerIntegration:
    SOURCE = """
__start:
        li   $s0, 0
loop:   andi $t0, $s0, 3
        sll  $t1, $t0, 2
        addu $t2, $t1, $t0
        addiu $s0, $s0, 1
        slti $t3, $s0, 100
        bne  $t3, $zero, loop
        halt
"""

    def test_reuse_enabled(self):
        config = AnalysisConfig(track_reuse=True)
        machine = Machine(assemble(self.SOURCE))
        result = analyze_machine(machine, "reuse", config)
        stats = result.reuse
        assert stats is not None
        # The masked counter makes sll/addu inputs repeat with period 4
        # (reusable), while the counter-fed andi/addiu/slti inputs are
        # all distinct (never reusable): rate lands near 192/501.
        assert 0.3 < stats.reuse_rate() < 0.5
        assert stats.hits <= stats.eligible

    def test_reuse_disabled_by_default(self):
        machine = Machine(assemble(self.SOURCE))
        result = analyze_machine(machine, "noreuse")
        assert result.reuse is None

    def test_reuse_prediction_overlap_bounded(self):
        config = AnalysisConfig(track_reuse=True)
        machine = Machine(assemble(self.SOURCE))
        result = analyze_machine(machine, "reuse", config)
        stats = result.reuse
        assert stats.hits_predicted <= stats.hits
