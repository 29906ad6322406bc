"""64K-entry gshare conditional-branch predictor (McFarling, ref [11]).

A global history register of taken/not-taken outcomes is XORed with the
branch PC to index a table of 2-bit saturating counters.  The paper
uses this predictor for all conditional branch directions and reports
an overall accuracy of 93% on its SPEC95 integer traces.
"""

from __future__ import annotations

#: Index bits of the paper's 64K-entry table: the one size every
#: analysis runs.
GSHARE_BITS = 16


class GsharePredictor:
    """Global-history XOR-indexed pattern history table."""

    kind = "gshare"

    def __init__(self, index_bits: int = GSHARE_BITS):
        self.index_bits = index_bits
        self._mask = (1 << index_bits) - 1
        self._counters = bytearray([1]) * (1 << index_bits)
        self._history = 0

    def see(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``, learn ``taken``, report hit."""
        index = (pc ^ self._history) & self._mask
        counters = self._counters
        counter = counters[index]
        correct = (counter >= 2) == taken
        if taken:
            if counter < 3:
                counters[index] = counter + 1
        elif counter > 0:
            counters[index] = counter - 1
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._mask
        return correct

    def peek(self, pc: int) -> bool:
        """Return the direction that ``see`` would predict."""
        index = (pc ^ self._history) & self._mask
        return self._counters[index] >= 2
