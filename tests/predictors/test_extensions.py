"""Tests for the predictor extensions: hybrid, confidence, delayed
update, and the two-level local branch predictor."""

import pytest

from repro.predictors import (
    ConfidentPredictor,
    DelayedPredictor,
    GsharePredictor,
    HybridPredictor,
    LocalBranchPredictor,
    make_branch_predictor,
    make_predictor,
)


def accuracy(predictor, values, key=5):
    hits = sum(predictor.see(key, value) for value in values)
    return hits / len(values)


class TestHybrid:
    def test_factory(self):
        assert isinstance(make_predictor("hybrid"), HybridPredictor)

    def test_matches_stride_on_strides(self):
        values = list(range(200))
        hybrid = accuracy(HybridPredictor(), values)
        stride = accuracy(make_predictor("stride"), values)
        assert hybrid >= stride - 0.05

    def test_matches_context_on_patterns(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6] * 40
        hybrid = accuracy(HybridPredictor(), values)
        context = accuracy(make_predictor("context"), values)
        assert hybrid >= context - 0.05

    def test_beats_both_on_mixed_keys(self):
        """Stride sequence on one key, pattern on another: the chooser
        picks the right component per entry."""
        hybrid = HybridPredictor()
        stride_only = make_predictor("stride")
        context_only = make_predictor("context")
        stride_values = list(range(300))
        pattern_values = ([7, 2, 9] * 100)[:300]
        hybrid_hits = 0
        stride_hits = 0
        context_hits = 0
        for s_value, p_value in zip(stride_values, pattern_values):
            hybrid_hits += hybrid.see(1, s_value)
            hybrid_hits += hybrid.see(2 << 16, p_value)
            stride_hits += stride_only.see(1, s_value)
            stride_hits += stride_only.see(2 << 16, p_value)
            context_hits += context_only.see(1, s_value)
            context_hits += context_only.see(2 << 16, p_value)
        assert hybrid_hits > stride_hits
        assert hybrid_hits > context_hits

    def test_peek_consistent_with_chooser(self):
        predictor = HybridPredictor()
        for value in (5, 5, 5, 5):
            predictor.see(0, value)
        assert predictor.peek(0) == 5


class TestConfidence:
    def test_gating_builds_up(self):
        predictor = ConfidentPredictor(make_predictor("last"), threshold=3)
        # First few correct predictions are not yet confident.
        results = [predictor.see(1, 42) for __ in range(10)]
        assert results[1] is False      # correct but not confident
        assert results[-1] is True      # confident and correct

    def test_reset_on_miss(self):
        predictor = ConfidentPredictor(make_predictor("last"), threshold=2)
        for __ in range(6):
            predictor.see(1, 7)
        assert predictor.estimator.confident(1)
        predictor.see(1, 8)             # misprediction resets
        assert not predictor.estimator.confident(1)

    def test_decrement_policy(self):
        predictor = ConfidentPredictor(
            make_predictor("last"), threshold=2, penalty="decrement"
        )
        for __ in range(8):
            predictor.see(1, 7)
        predictor.see(1, 8)
        assert predictor.estimator.confident(1)  # one miss only dents it

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            ConfidentPredictor(make_predictor("last"), penalty="explode")

    def test_accuracy_exceeds_raw_on_noisy_stream(self):
        """Confidence trades coverage for accuracy: the used subset
        must be more accurate than the raw predictor stream."""
        from repro.workloads.inputs import Rng

        rng = Rng(9)
        values = []
        for i in range(4000):
            # Mostly a stride, with bursts of noise.
            if (i // 100) % 4 == 3:
                values.append(rng.below(10_000))
            else:
                values.append(i)
        raw = make_predictor("stride")
        raw_hits = sum(raw.see(3, v) for v in values)
        gated = ConfidentPredictor(make_predictor("stride"), threshold=4)
        for value in values:
            gated.see(3, value)
        assert gated.accuracy() > raw_hits / len(values)
        assert 0.0 < gated.coverage() < 1.0

    def test_peek_respects_confidence(self):
        predictor = ConfidentPredictor(make_predictor("last"), threshold=4)
        predictor.see(1, 9)
        assert predictor.peek(1) is None  # not confident yet


class TestDelayed:
    def test_zero_delay_equals_immediate(self):
        values = [(i * 3) & 0xFF for i in range(100)]
        immediate = make_predictor("stride")
        delayed = DelayedPredictor(make_predictor("stride"), delay=0)
        for value in values:
            assert immediate.see(5, value) == delayed.see(5, value)

    def test_delayed_stride_systematically_misses_strides(self):
        """The 'implementation idiosyncrasy' the paper's immediate
        update avoids: with naive delayed update, a stride predictor's
        view lags the stream and every stride prediction is off by the
        delay; accuracy collapses from ~95% to ~0."""
        values = list(range(60))
        immediate_predictor = make_predictor("stride")
        immediate = sum(immediate_predictor.see(1, v) for v in values)
        predictor = DelayedPredictor("stride", delay=16)
        late = sum(predictor.see(1, v) for v in values)
        assert immediate > 50
        assert late == 0

    def test_constants_survive_delay(self):
        """Constant sequences are delay-insensitive: the lagged state
        still predicts the same value."""
        predictor = DelayedPredictor("last", delay=8)
        hits = [predictor.see(1, 7) for __ in range(50)]
        assert all(hits[10:])

    def test_flush_applies_pending(self):
        predictor = DelayedPredictor("last", delay=50)
        for __ in range(5):
            predictor.see(1, 7)
        assert predictor.peek(1) is None  # nothing applied yet
        predictor.flush()
        assert predictor.peek(1) == 7

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayedPredictor("last", delay=-1)


class TestLocalBranchPredictor:
    def test_factory(self):
        assert isinstance(make_branch_predictor("gshare"), GsharePredictor)
        assert isinstance(make_branch_predictor("local"),
                          LocalBranchPredictor)
        with pytest.raises(ValueError):
            make_branch_predictor("oracle")

    def test_learns_per_branch_patterns(self):
        predictor = LocalBranchPredictor()
        pattern = [True, True, False]
        hits = []
        for __ in range(200):
            for taken in pattern:
                hits.append(predictor.see(40, taken))
        assert all(hits[-30:])

    def test_interleaved_branches_do_not_destroy_history(self):
        """Local histories keep two interleaved branches separate,
        where a single global history would mix them."""
        predictor = LocalBranchPredictor()
        correct = 0
        total = 0
        for i in range(600):
            correct += predictor.see(10, i % 2 == 0)
            correct += predictor.see(20, i % 3 == 0)
            total += 2
        assert correct / total > 0.9

    def test_analysis_accepts_local_kind(self):
        from repro.asm import assemble
        from repro.core import AnalysisConfig, analyze_machine
        from repro.cpu import Machine

        source = (
            "__start: li $s0, 0\n"
            "loop: addiu $s0, $s0, 1\nslti $t0, $s0, 30\n"
            "bne $t0, $zero, loop\nhalt\n"
        )
        config = AnalysisConfig(branch_predictor="local")
        result = analyze_machine(Machine(assemble(source)), "x", config)
        assert result.predictors["context"].branches.total() == 30


@pytest.mark.parametrize("kind", ["gshare", "local"])
def test_branch_predictor_accurate_on_go(kind):
    """Both branch predictor kinds learn a real workload's branches:
    the 2,877 branches among go's first 30k instructions."""
    from itertools import islice

    from repro.workloads import get_workload

    branches = [(dyn.pc, dyn.taken) for dyn in
                islice(get_workload("go").machine().trace(), 30_000)
                if dyn.is_branch]
    predictor = make_branch_predictor(kind)
    hits = sum(predictor.see(pc, taken) for pc, taken in branches)
    assert hits / len(branches) > 0.7
