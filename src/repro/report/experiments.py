"""One function per paper exhibit (Table 1, Figures 5-13).

Every function takes the per-workload :class:`AnalysisResult` mapping
produced by :func:`repro.api.run_suite` and renders the same rows/series the
paper's figure plots.  Percentages follow the paper's convention: the
y-axes of Figs. 5-9 are percentages of *total nodes plus arcs* of the
workload's DPG; Fig. 12 is a percentage of dynamic instructions;
Fig. 13 a percentage of dynamic conditional branches.
"""

from __future__ import annotations

from repro.core import AnalysisResult
from repro.core.events import (
    ARC_NP,
    ARC_PN,
    ARC_PP,
    GenClass,
    InKind,
    UseClass,
    gen_mask_name,
)
from repro.core.stats import PredictorResult
from repro.predictors.base import PREDICTOR_KINDS
from repro.report.tables import (
    Table,
    bucket_label,
    cumulative_percent,
    log2_bucket_edges,
    percentage,
)
# Re-exported for backwards compatibility: the config type moved to
# the runner subsystem, which owns experiment execution.
from repro.runner.job import ExperimentConfig  # noqa: F401
from repro.workloads import get_workload

#: Single-letter predictor labels in the paper's order.
LETTERS = {"last": "L", "stride": "S", "context": "C"}


def _kinds(results):
    kinds = {}
    for name in results:
        kinds[name] = get_workload(name).kind
    return kinds


def _averaged_rows(results, row_fn):
    """Yield per-workload rows plus INT/FLOAT average rows.

    ``row_fn(result) -> list[float]`` produces the numeric cells for
    one workload; averages are arithmetic means of those percentages,
    matching the paper's averaging.
    """
    kinds = _kinds(results)
    groups = {"int": [], "fp": []}
    rows = []
    for name, result in results.items():
        cells = row_fn(result)
        rows.append((name, cells))
        groups[kinds[name]].append(cells)
    for label, key in (("INT", "int"), ("FLOAT", "fp")):
        member_rows = groups[key]
        if member_rows:
            mean = [
                sum(column) / len(member_rows)
                for column in zip(*member_rows)
            ]
            rows.append((label, mean))
    return rows


# ----------------------------------------------------------------------
# Table 1.
# ----------------------------------------------------------------------

def table1(results) -> Table:
    """Benchmark characteristics (paper Table 1)."""
    table = Table(
        "Table 1: Benchmark characteristics (DPG statistics)",
        ["bench", "static", "nodes", "edges", "edges/node",
         "D-nodes %", "D-edges %"],
        float_format="{:.3f}",
    )
    for name, result in results.items():
        table.add_row(
            name,
            result.static_instructions,
            result.nodes,
            result.arcs,
            result.edge_node_ratio(),
            percentage(result.d_nodes, result.nodes),
            percentage(result.d_arcs, result.arcs),
        )
    table.add_note("paper: edges/node ~1.5 INT, ~1.7 FP; "
                   "D nodes < 0.03%; D-edge share mostly < 1%")
    return table


# ----------------------------------------------------------------------
# Figure 5: overall generation / propagation / termination.
# ----------------------------------------------------------------------

def _behavior_cells(result: AnalysisResult, pred: PredictorResult):
    elements = result.elements
    nodes = pred.nodes
    arcs = pred.arcs
    node_gen = node_prop = node_term = 0
    for kind in InKind:
        predicted = nodes.count(kind, True)
        missed = nodes.count(kind, False)
        if kind in (InKind.PP, InKind.PI, InKind.PN):
            node_prop += predicted
            node_term += missed
        else:
            node_gen += predicted
    return [
        percentage(node_gen, elements),
        percentage(node_prop, elements),
        percentage(node_term, elements),
        percentage(arcs.xy_total(ARC_NP), elements),
        percentage(arcs.xy_total(ARC_PP), elements),
        percentage(arcs.xy_total(ARC_PN), elements),
    ]


def figure5(results) -> Table:
    """Overall node and arc predictability (paper Fig. 5)."""
    table = Table(
        "Figure 5: overall node/arc generation, propagation, termination"
        " (% of nodes+arcs)",
        ["bench", "pred", "node gen", "node prop", "node term",
         "arc gen", "arc prop", "arc term", "prop total"],
    )
    for name, cells in _averaged_rows(
        results, lambda r: _all_pred_cells(r, _behavior_cells)
    ):
        _emit_pred_rows(table, name, cells, per_pred=6, extra_total=(1, 4))
    table.add_note("paper: propagation dominates; 40-65% (INT) / "
                   "25-60% (FP) of nodes+arcs propagate; C > S > L")
    return table


def _all_pred_cells(result: AnalysisResult, cell_fn):
    cells = []
    for kind in PREDICTOR_KINDS:
        pred = result.predictors.get(kind)
        if pred is not None:
            cells.extend(cell_fn(result, pred))
    return cells


def _emit_pred_rows(table, name, cells, per_pred, extra_total=None):
    """Split a flat averaged row back into one table row per predictor."""
    for index, kind in enumerate(PREDICTOR_KINDS):
        chunk = cells[index * per_pred:(index + 1) * per_pred]
        if not chunk:
            continue
        row = [name if index == 0 else "", LETTERS[kind], *chunk]
        if extra_total is not None:
            node_prop_idx, arc_prop_idx = extra_total
            row.append(chunk[node_prop_idx] + chunk[arc_prop_idx])
        table.add_row(*row)


# ----------------------------------------------------------------------
# Figures 6-8: generation / propagation / termination detail.
# ----------------------------------------------------------------------

def _node_class_cells(kinds_out):
    def cell_fn(result, pred):
        elements = result.elements
        return [
            percentage(pred.nodes.count(kind, out), elements)
            for kind, out in kinds_out
        ]
    return cell_fn


def _arc_class_cells(uses_xy):
    def cell_fn(result, pred):
        elements = result.elements
        return [
            percentage(pred.arcs.count(use, xy), elements)
            for use, xy in uses_xy
        ]
    return cell_fn


def _detail_figure(results, title, node_headers, node_kinds, arc_headers,
                   arc_uses, xy):
    node_table = Table(
        f"{title} -- nodes (% of nodes+arcs)",
        ["bench", "pred", *node_headers],
    )
    node_fn = _node_class_cells([(kind, xy == ARC_PP or xy == ARC_NP)
                                 for kind in node_kinds])
    for name, cells in _averaged_rows(
        results, lambda r: _all_pred_cells(r, node_fn)
    ):
        _emit_pred_rows(node_table, name, cells, per_pred=len(node_kinds))
    arc_table = Table(
        f"{title} -- arcs (% of nodes+arcs)",
        ["bench", "pred", *arc_headers],
    )
    arc_fn = _arc_class_cells([(use, xy) for use in arc_uses])
    for name, cells in _averaged_rows(
        results, lambda r: _all_pred_cells(r, arc_fn)
    ):
        _emit_pred_rows(arc_table, name, cells, per_pred=len(arc_uses))
    return node_table, arc_table


def figure6(results):
    """Generation detail (paper Fig. 6)."""
    node_table, arc_table = _detail_figure(
        results,
        "Figure 6: generation",
        ["i,i->p", "n,n->p", "i,n->p"],
        [InKind.II, InKind.NN, InKind.IN],
        ["<wl:n,p>", "<rd:n,p>", "<r:n,p>", "<1:n,p>"],
        [UseClass.WRITE_ONCE, UseClass.DATA, UseClass.REPEAT,
         UseClass.SINGLE],
        ARC_NP,
    )
    arc_table.add_note("paper: repeated-use arcs dominate generation for "
                       "L/S; single-use arcs comparable for C")
    node_table.add_note("paper: all-immediate nodes (i,i->p) are most of "
                        "node generation")
    return node_table, arc_table


def figure7(results):
    """Propagation detail (paper Fig. 7)."""
    node_table, arc_table = _detail_figure(
        results,
        "Figure 7: propagation",
        ["p,p->p", "p,i->p", "p,n->p"],
        [InKind.PP, InKind.PI, InKind.PN],
        ["<wl:p,p>", "<r:p,p>", "<1:p,p>"],
        [UseClass.WRITE_ONCE, UseClass.REPEAT, UseClass.SINGLE],
        ARC_PP,
    )
    arc_table.add_note("paper: most propagation is on single-use arcs "
                       "(same-basic-block dependences)")
    node_table.add_note("paper: p,n->p propagation is mostly memory "
                        "instructions with unpredictable addresses")
    return node_table, arc_table


def figure8(results):
    """Termination detail (paper Fig. 8)."""
    node_table, arc_table = _detail_figure(
        results,
        "Figure 8: termination",
        ["p,n->n", "p,p->n", "p,i->n"],
        [InKind.PN, InKind.PP, InKind.PI],
        ["<wl:p,n>", "<r:p,n>", "<1:p,n>"],
        [UseClass.WRITE_ONCE, UseClass.REPEAT, UseClass.SINGLE],
        ARC_PN,
    )
    node_table.add_note("paper: p,n->n dominates (predictable address, "
                        "unpredictable data); p,p->n notable only for C")
    arc_table.add_note("paper: termination arcs are mostly single-use "
                       "'filtering' control flow")
    return node_table, arc_table


# ----------------------------------------------------------------------
# Figure 9: path analysis.
# ----------------------------------------------------------------------

def figure9(results, top: int = 24):
    """Generator-class contributions to propagation (paper Fig. 9).

    Averages over the integer workloads in ``results``.
    """
    kinds = _kinds(results)
    int_results = [
        result for name, result in results.items() if kinds[name] == "int"
    ]
    overall = Table(
        "Figure 9 (top): % of nodes+arcs on predictable paths from each "
        "generator class (INT average)",
        ["pred", *(cls.name for cls in GenClass)],
    )
    for kind in PREDICTOR_KINDS:
        row = [LETTERS[kind]]
        for cls in GenClass:
            shares = [
                percentage(
                    r.predictors[kind].paths.class_counts[cls], r.elements
                )
                for r in int_results if kind in r.predictors
            ]
            row.append(sum(shares) / len(shares) if shares else 0.0)
        overall.add_row(*row)
    overall.add_note("paper: control flow (C) dominates (~45% of the DPG "
                     "for C prediction); immediates (I) second (~30%)")

    # Bottom: exact combinations, top-N by the context predictor share.
    combo_shares: dict[int, dict[str, float]] = {}
    for kind in PREDICTOR_KINDS:
        shares: dict[int, float] = {}
        count = 0
        for result in int_results:
            pred = result.predictors.get(kind)
            if pred is None:
                continue
            count += 1
            for mask, value in pred.paths.combo_counts.items():
                if mask:
                    shares[mask] = shares.get(mask, 0.0) + percentage(
                        value, result.elements
                    )
        for mask, total in shares.items():
            combo_shares.setdefault(mask, {})[kind] = (
                total / count if count else 0.0
            )
    ranked = sorted(
        combo_shares,
        key=lambda mask: combo_shares[mask].get("context", 0.0),
        reverse=True,
    )[:top]
    combos = Table(
        f"Figure 9 (bottom): top {top} generator combinations "
        "(% of nodes+arcs, INT average)",
        ["combo", "L", "S", "C"],
    )
    for mask in ranked:
        combos.add_row(
            gen_mask_name(mask),
            combo_shares[mask].get("last", 0.0),
            combo_shares[mask].get("stride", 0.0),
            combo_shares[mask].get("context", 0.0),
        )
    combos.add_note("paper: C is the largest set (12-17%), then I (~10% "
                    "for L), CI and M close behind")
    return overall, combos


# ----------------------------------------------------------------------
# Figure 10: predictability trees.
# ----------------------------------------------------------------------

def figure10(results, workload: str = "gcc",
             predictor: str = "context") -> Table:
    """Tree longest-path and aggregate-propagation curves (Fig. 10)."""
    result = results[workload]
    trees = result.predictors[predictor].trees
    if trees is None:
        raise ValueError(f"tree tracking was not enabled for {predictor}")
    maximum = max(trees.depth_hist) if trees.depth_hist else 1
    edges = log2_bucket_edges(max(maximum, 1))
    gen_curve = cumulative_percent(trees.depth_hist, edges)
    agg_curve = cumulative_percent(trees.agg_hist, edges)
    table = Table(
        f"Figure 10: predictability trees ({workload}, {predictor} "
        "predictor)",
        ["longest path <=", "% of generates", "% of aggregate propagation"],
    )
    for edge, gen_pct, agg_pct in zip(edges, gen_curve, agg_curve):
        table.add_row(edge, gen_pct, agg_pct)
    table.add_note("paper: ~90% of generates have longest path <= 8, yet "
                   "trees with longest path >= 256 carry ~80% of "
                   "aggregate propagation")
    return table


# ----------------------------------------------------------------------
# Figure 11: generates influencing a propagate; distances.
# ----------------------------------------------------------------------

def figure11(results, workloads=("com", "go", "gcc"),
             predictor: str = "context"):
    """Influence counts and generate distances (paper Fig. 11)."""
    influence = Table(
        "Figure 11 (top): cumulative % of propagates influenced by <= K "
        f"generates ({predictor} predictor)",
        ["K", *workloads],
    )
    distance = Table(
        "Figure 11 (bottom): cumulative % of propagates with farthest "
        f"generate <= D elements away ({predictor} predictor)",
        ["D", *workloads],
    )
    hists = []
    dist_hists = []
    for name in workloads:
        trees = results[name].predictors[predictor].trees
        if trees is None:
            raise ValueError(f"tree tracking was not enabled for {name}")
        hists.append(trees.influence_hist)
        dist_hists.append(trees.distance_hist)
    max_influence = max((max(h) if h else 1) for h in hists)
    edges = log2_bucket_edges(max(max_influence, 1))
    curves = [cumulative_percent(h, edges) for h in hists]
    for index, edge in enumerate(edges):
        influence.add_row(edge, *(curve[index] for curve in curves))
    max_distance = max((max(h) if h else 1) for h in dist_hists)
    dist_edges = log2_bucket_edges(max(max_distance, 1))
    dist_curves = [cumulative_percent(h, dist_edges) for h in dist_hists]
    for index, edge in enumerate(dist_edges):
        distance.add_row(edge, *(curve[index] for curve in dist_curves))
    influence.add_note("paper: 70-85% of propagates influenced by < 4 "
                       "generates")
    distance.add_note("paper: ~50% of compress propagates within 64 "
                      "elements of their farthest generate; go/gcc reach "
                      "1024+")
    return influence, distance


# ----------------------------------------------------------------------
# Figure 12: predictable contiguous sequences.
# ----------------------------------------------------------------------

#: Paper's Fig. 12 x-axis buckets.
SEQUENCE_BUCKETS = [(1, 1), (2, 2), (3, 4), (5, 8), (9, 16), (17, 32),
                    (33, 64), (65, 128), (129, 256), (257, 1 << 30)]


def figure12(results) -> Table:
    """Predictable sequence lengths (paper Fig. 12), INT average."""
    kinds = _kinds(results)
    int_results = [
        result for name, result in results.items() if kinds[name] == "int"
    ]
    table = Table(
        "Figure 12: % of instructions inside fully-predictable sequences, "
        "by sequence length (INT average)",
        ["length", "L", "S", "C"],
    )
    for low, high in SEQUENCE_BUCKETS:
        label = bucket_label(low, high) if high < (1 << 30) else f"{low}+"
        row = [label]
        for kind in PREDICTOR_KINDS:
            shares = []
            for result in int_results:
                pred = result.predictors.get(kind)
                if pred is None or pred.sequences is None:
                    continue
                in_bucket = sum(
                    length * count
                    for length, count in pred.sequences.lengths.items()
                    if low <= length <= high
                )
                shares.append(percentage(in_bucket, result.nodes))
            row.append(sum(shares) / len(shares) if shares else 0.0)
        table.add_row(*row)
    table.add_note("paper: long sequences common -- e.g. ~13% of "
                   "instructions in 9-16 blocks and ~40% in 9-256 "
                   "sequences for C")
    return table


# ----------------------------------------------------------------------
# Figure 13: branch predictability.
# ----------------------------------------------------------------------

# ----------------------------------------------------------------------
# Extension exhibit: critical points (not a paper figure; Section 1's
# third stated application of the model).
# ----------------------------------------------------------------------

def critical_points(results, predictor: str = "context",
                     top: int = 5) -> Table:
    """Top termination sites per workload — the model's 'critical
    points for prediction'."""
    table = Table(
        f"Critical points: top-{top} termination sites per workload "
        f"({predictor} predictor)",
        ["bench", "pc", "instruction", "executed", "terminated",
         "miss %"],
        float_format="{:.1f}",
    )
    for name, result in results.items():
        critical = result.predictors[predictor].critical
        if critical is None:
            continue
        listing = {
            index: instr.render()
            for index, instr in enumerate(
                get_workload(name).program().instructions
            )
        }
        concentration = critical.concentration(top)
        sites = critical.top_sites(result.static_counts, count=top)
        for index, site in enumerate(sites):
            label = name if index == 0 else ""
            table.add_row(
                label, site.pc, listing.get(site.pc, "?"),
                site.executions, site.terminations,
                100.0 * site.miss_rate,
            )
        if sites:
            table.add_note(
                f"{name}: top-{top} sites cause "
                f"{100 * concentration:.0f}% of terminations"
            )
    return table


#: Paper's Fig. 13 x-axis, predicted classes first.
FIG13_CLASSES = [
    (InKind.PP, True), (InKind.PI, True), (InKind.PN, True),
    (InKind.NN, True), (InKind.IN, True), (InKind.II, True),
    (InKind.PP, False), (InKind.PI, False), (InKind.PN, False),
    (InKind.NN, False), (InKind.IN, False), (InKind.II, False),
]


def figure13(results) -> Table:
    """Branch predictability behaviour (paper Fig. 13), INT average."""
    from repro.core.events import node_class_name

    kinds = _kinds(results)
    int_results = [
        result for name, result in results.items() if kinds[name] == "int"
    ]
    table = Table(
        "Figure 13: branch classes, value-predicted inputs x gshare "
        "direction (% of branches, INT average)",
        ["class", "L", "S", "C"],
    )
    for kind_class, predicted in FIG13_CLASSES:
        row = [node_class_name(kind_class, predicted)]
        for kind in PREDICTOR_KINDS:
            shares = []
            for result in int_results:
                pred = result.predictors.get(kind)
                if pred is None or pred.branches is None:
                    continue
                shares.append(percentage(
                    pred.branches.count(kind_class, predicted),
                    pred.branches.total(),
                ))
            row.append(sum(shares) / len(shares) if shares else 0.0)
        table.add_row(*row)
    accuracies = [
        result.predictors[PREDICTOR_KINDS[0]].branches.accuracy()
        for result in int_results
    ]
    if accuracies:
        table.add_note(
            "gshare accuracy (INT average): "
            f"{100 * sum(accuracies) / len(accuracies):.1f}% "
            "(paper: 93%)"
        )
    table.add_note("paper: 70-82% of branches propagate; slightly over "
                   "half of mispredictions have all-predictable inputs")
    return table
