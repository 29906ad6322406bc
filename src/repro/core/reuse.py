"""Instruction reuse analysis (paper ref [16], Sodani & Sohi).

Section 6 of the paper suggests that "the large number of p,p->p and
p,i->p nodes and <p,p> arcs naturally suggest speculation and/or
reuse/memoization of regions with predictable nodes and arcs".  This
module provides the measurement behind that suggestion: a *reuse
buffer* — per static instruction, the last few input-value tuples (a
real buffer also holds each tuple's output; a hit only needs the
inputs) — through which the dynamic stream is filtered.  An instruction
instance is **reusable** when an earlier instance of the same static
instruction computed the same inputs, so its result could be looked up
instead of executed.

Only ALU-category instructions with an output participate (a load's
output is not a function of its register inputs; real reuse buffers
need memory invalidation machinery the paper does not discuss).  The
columnar kernel feeds the tracker those instances from its columns,
and the reference loop from its records.  The tracker also counts the
overlap with full predictability, quantifying how much of the reuse
opportunity the paper's predictable regions already cover.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

#: Reuse-buffer entries per static instruction: the one size every
#: analysis runs.
REUSE_WAYS = 4


@dataclass(slots=True)
class ReuseStats:
    """Reuse-buffer measurement results.

    Attributes:
        eligible: dynamic ALU instructions (reuse candidates).
        hits: instances whose inputs matched a buffered entry.
        hits_predicted: reuse hits that were *also* fully predicted
            (under the reference predictor the analyzer pairs this
            tracker with) — the overlap between reuse and prediction.
        predicted_only: fully predicted instances the reuse buffer
            missed (prediction reaches beyond literal recomputation).
    """

    eligible: int = 0
    hits: int = 0
    hits_predicted: int = 0
    predicted_only: int = 0

    def reuse_rate(self) -> float:
        return self.hits / self.eligible if self.eligible else 0.0


class ReuseTracker:
    """A ``ways``-deep reuse buffer per static instruction."""

    def __init__(self, ways: int = REUSE_WAYS):
        if ways < 1:
            raise ValueError("ways must be positive")
        self.ways = ways
        self.stats = ReuseStats()
        self._buffers: dict[int, OrderedDict] = {}

    def on_node(self, pc: int, inputs: tuple,
                fully_predicted: bool) -> bool:
        """Feed one eligible instance (an ALU instruction with an
        output); returns True on a reuse hit.

        Args:
            pc: the static instruction.
            inputs: its input values, in operand order.
            fully_predicted: whether the reference predictor predicted
                all of this instance's inputs and its output.
        """
        stats = self.stats
        stats.eligible += 1
        buffer = self._buffers.get(pc)
        if buffer is None:
            buffer = OrderedDict()
            self._buffers[pc] = buffer
        hit = inputs in buffer
        if hit:
            buffer.move_to_end(inputs)
            stats.hits += 1
            if fully_predicted:
                stats.hits_predicted += 1
        else:
            buffer[inputs] = None
            if len(buffer) > self.ways:
                buffer.popitem(last=False)
            if fully_predicted:
                stats.predicted_only += 1
        return hit
