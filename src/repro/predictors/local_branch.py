"""Two-level local-history branch predictor.

The paper chose gshare for branch directions but remarks that "an
interesting alternative would be a two-level predictor that more
closely mirrors the structure of the context-based predictor" — i.e. a
per-branch history indexing a shared pattern table, exactly parallel
to the value predictor's per-PC context indexing a shared second
level (Yeh & Patt, paper ref [18]).

This class is interchangeable with :class:`GsharePredictor` and can be
selected via ``AnalysisConfig(branch_predictor="local")``.
"""

from __future__ import annotations

from repro.predictors.gshare import GSHARE_BITS, GsharePredictor


class LocalBranchPredictor:
    """Per-branch history, shared 2-bit-counter pattern table."""

    kind = "local"

    def __init__(self, history_bits: int = 12, table_bits: int = 14):
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._table_mask = (1 << table_bits) - 1
        #: first level: per-PC branch history register.
        self._histories = [0] * (1 << table_bits)
        #: second level: shared pattern history table.
        self._counters = bytearray([1]) * (1 << table_bits)

    def see(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``, learn ``taken``, report hit."""
        slot = pc & self._table_mask
        history = self._histories[slot]
        index = (history ^ (pc << 2)) & self._table_mask
        counter = self._counters[index]
        correct = (counter >= 2) == taken
        if taken:
            if counter < 3:
                self._counters[index] = counter + 1
        elif counter > 0:
            self._counters[index] = counter - 1
        self._histories[slot] = (
            ((history << 1) | (1 if taken else 0)) & self._history_mask
        )
        return correct

    def peek(self, pc: int) -> bool:
        slot = pc & self._table_mask
        index = (self._histories[slot] ^ (pc << 2)) & self._table_mask
        return self._counters[index] >= 2


def make_branch_predictor(kind: str, index_bits: int = GSHARE_BITS):
    """Factory for branch predictors: ``"gshare"`` or ``"local"``."""
    if kind == "gshare":
        return GsharePredictor(index_bits)
    if kind == "local":
        return LocalBranchPredictor()
    raise ValueError(f"unknown branch predictor kind: {kind!r}")
