"""Result containers for the predictability analysis.

Counts are kept raw (per class / per length / per distance); the
reporting layer (:mod:`repro.report`) turns them into the percentage
tables and cumulative curves the paper's figures show.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.events import (
    ARC_LABELS,
    Behavior,
    GEN_CLASS_NAMES,
    IN_KIND_NAMES,
    InKind,
    USE_NAMES,
    UseClass,
    node_behavior,
)


@dataclass(slots=True)
class NodeStats:
    """Node classification counts for one predictor.

    ``class_counts[kind][out]`` counts nodes with input kind ``kind``
    (an :class:`InKind` value) and output predicted (``out=1``) or not
    (``out=0``).  ``no_output`` counts nodes the model cannot classify
    (direct jumps, nops, syscalls) — they still count as DPG nodes.
    """

    class_counts: list = field(
        default_factory=lambda: [[0, 0] for _ in range(6)]
    )
    no_output: int = 0

    def add(self, kind: InKind, out_predicted: bool) -> None:
        self.class_counts[kind][1 if out_predicted else 0] += 1

    def count(self, kind: InKind, out_predicted: bool) -> int:
        return self.class_counts[kind][1 if out_predicted else 0]

    def classified(self) -> int:
        """Nodes with a predictable output (sum over all classes)."""
        return sum(sum(pair) for pair in self.class_counts)

    def total(self) -> int:
        return self.classified() + self.no_output

    def behavior_counts(self) -> dict[Behavior, int]:
        """Aggregate counts per behaviour (generate/propagate/...)."""
        totals: Counter = Counter()
        for kind in InKind:
            for out in (False, True):
                totals[node_behavior(kind, out)] += self.count(kind, out)
        totals[Behavior.OTHER] += self.no_output
        return dict(totals)

    def by_class_name(self) -> dict[str, int]:
        """Counts keyed by human-readable class names (``"i,i->p"``)."""
        return {
            f"{IN_KIND_NAMES[kind]}->{'p' if out else 'n'}": self.count(
                kind, out
            )
            for kind in InKind
            for out in (True, False)
        }


@dataclass(slots=True)
class ArcStats:
    """Arc classification counts for one predictor.

    ``counts[use][xy]`` counts arcs of use class ``use`` (an
    :class:`UseClass` value) with ``<x,y>`` label code ``xy``.
    """

    counts: list = field(
        default_factory=lambda: [[0, 0, 0, 0] for _ in range(4)]
    )

    def add(self, use: UseClass, xy: int, count: int = 1) -> None:
        self.counts[use][xy] += count

    def count(self, use: UseClass, xy: int) -> int:
        return self.counts[use][xy]

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def xy_total(self, xy: int) -> int:
        return sum(row[xy] for row in self.counts)

    def behavior_counts(self) -> dict[Behavior, int]:
        from repro.core.events import ARC_BEHAVIOR

        totals: Counter = Counter()
        for xy in range(4):
            totals[ARC_BEHAVIOR[xy]] += self.xy_total(xy)
        return dict(totals)

    def by_class_name(self) -> dict[str, int]:
        """Counts keyed by names like ``"<r:n,p>"``."""
        return {
            f"<{USE_NAMES[use]}:{ARC_LABELS[xy][1:-1]}>": self.counts[use][xy]
            for use in UseClass
            for xy in range(4)
        }


@dataclass(slots=True)
class PathStats:
    """Path-analysis accumulators for one predictor (paper Fig. 9).

    ``class_counts[c]`` counts propagate elements (nodes and arcs) on
    predictable paths beginning at a generator of class ``c`` — an
    element influenced by several classes counts once per class.
    ``combo_counts[mask]`` counts each element exactly once, keyed by
    the exact set (bitmask) of generator classes influencing it.
    """

    propagate_elements: int = 0
    class_counts: list = field(default_factory=lambda: [0] * 6)
    combo_counts: Counter = field(default_factory=Counter)
    gen_counts: list = field(default_factory=lambda: [0] * 6)

    def by_class_name(self) -> dict[str, int]:
        return dict(zip(GEN_CLASS_NAMES, self.class_counts))

    def total_generates(self) -> int:
        return sum(self.gen_counts)


@dataclass(slots=True)
class TreeStats:
    """Per-generate tree statistics (paper Figs. 10 and 11).

    ``depth_hist[d]`` counts generates whose tree's longest path
    contains ``d`` propagate elements; ``agg_hist[d]`` sums those
    trees' total propagate-element counts.  ``influence_hist[k]``
    counts propagate elements influenced by ``k`` distinct generates;
    ``distance_hist[d]`` counts propagate elements whose farthest
    influencing generate is ``d`` elements away.  ``truncated`` counts
    elements whose generate set hit the configured cap (their influence
    histograms undercount; see DESIGN.md).
    """

    depth_hist: Counter = field(default_factory=Counter)
    agg_hist: Counter = field(default_factory=Counter)
    influence_hist: Counter = field(default_factory=Counter)
    distance_hist: Counter = field(default_factory=Counter)
    truncated: int = 0

    def total_generates(self) -> int:
        return sum(self.depth_hist.values())

    def total_propagates(self) -> int:
        return sum(self.influence_hist.values())

    def aggregate_propagation(self) -> int:
        return sum(self.agg_hist.values())


@dataclass(slots=True)
class SequenceStats:
    """Contiguous fully-predictable sequence lengths (paper Fig. 12).

    ``lengths[n]`` counts maximal runs of exactly ``n`` consecutive
    dynamic instructions whose inputs and outputs were all predicted
    correctly.
    """

    lengths: Counter = field(default_factory=Counter)

    def add_run(self, length: int) -> None:
        if length > 0:
            self.lengths[length] += 1

    def instructions_in_runs(self) -> int:
        return sum(length * count for length, count in self.lengths.items())


@dataclass(slots=True)
class BranchStats:
    """Branch-node classification (paper Fig. 13): value-predicted
    inputs crossed with the gshare direction outcome."""

    class_counts: list = field(
        default_factory=lambda: [[0, 0] for _ in range(6)]
    )

    def add(self, kind: InKind, predicted: bool) -> None:
        self.class_counts[kind][1 if predicted else 0] += 1

    def count(self, kind: InKind, predicted: bool) -> int:
        return self.class_counts[kind][1 if predicted else 0]

    def total(self) -> int:
        return sum(sum(pair) for pair in self.class_counts)

    def correct(self) -> int:
        return sum(pair[1] for pair in self.class_counts)

    def accuracy(self) -> float:
        total = self.total()
        return self.correct() / total if total else 0.0


@dataclass(slots=True)
class PredictorResult:
    """All per-predictor results for one workload run.

    A finished analysis sets every field; ``trees`` stays None for a
    bank outside ``AnalysisConfig.trees_for``.
    """

    kind: str
    nodes: NodeStats = field(default_factory=NodeStats)
    arcs: ArcStats = field(default_factory=ArcStats)
    paths: PathStats | None = None
    trees: TreeStats | None = None
    sequences: SequenceStats | None = None
    branches: BranchStats | None = None
    #: fully-mispredicted run lengths (Section 6 unpredictability view)
    unpred: SequenceStats | None = None
    #: per-PC termination attribution ("critical points")
    critical: object | None = None
    #: (InKind, out_predicted, opcode) -> count, for opcode attribution
    node_ops: Counter | None = None

    def ops_for_class(self, kind: InKind, out_predicted: bool) -> Counter:
        """Opcode counts of one node class."""
        out: Counter = Counter()
        for (node_kind, predicted, op), count in self.node_ops.items():
            if node_kind == kind and predicted == out_predicted:
                out[op] += count
        return out


@dataclass(slots=True)
class AnalysisResult:
    """Full result of analysing one workload trace.

    Attributes:
        name: workload name.
        nodes: dynamic instruction count (DPG nodes, excluding D nodes).
        arcs: total dependence arcs (DPG edges).
        d_nodes: distinct D (input-data) nodes consumed.
        d_arcs: arcs whose producer is a D node.
        static_instructions: program size in static instructions.
        predictors: per-predictor results keyed by predictor kind.
    """

    name: str
    nodes: int = 0
    arcs: int = 0
    d_nodes: int = 0
    d_arcs: int = 0
    static_instructions: int = 0
    predictors: dict[str, PredictorResult] = field(default_factory=dict)
    #: per-PC execution counts over the analysed trace
    static_counts: list = field(default_factory=list, repr=False)
    #: instruction reuse measurement (when enabled); a
    #: :class:`repro.core.reuse.ReuseStats`
    reuse: object | None = None
    #: observability snapshot attached by an observing runner's
    #: ``run_one`` (see :mod:`repro.obs`); not part of the stored
    #: payload — a cached result gets the profile of the run that
    #: served it, not the one that computed it
    profile: dict | None = field(default=None, repr=False, compare=False)

    @property
    def elements(self) -> int:
        """Total nodes + arcs, the paper's percentage denominator."""
        return self.nodes + self.arcs

    def edge_node_ratio(self) -> float:
        return self.arcs / self.nodes if self.nodes else 0.0
