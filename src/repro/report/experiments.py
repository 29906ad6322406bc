"""The paper's exhibits (Table 1, Figures 5-13) as campaign builders.

Each builder takes a :class:`~repro.campaign.engine.CampaignResult`
and returns one :class:`~repro.report.tables.Table` or a tuple of
them; :mod:`repro.campaign.exhibits` registers them.  Series follow
each variant's own predictor list (bare paper kinds read L/S/C).

Percentages follow the paper's convention: the y-axes of Figs. 5-9
are percentages of *total nodes plus arcs* of the workload's DPG;
Fig. 12 is a percentage of dynamic instructions; Fig. 13 a percentage
of dynamic conditional branches.
"""

from __future__ import annotations

import functools

from repro.core import AnalysisResult
from repro.core.events import (
    ARC_NP,
    ARC_PN,
    ARC_PP,
    GenClass,
    InKind,
    UseClass,
    gen_mask_name,
    node_class_name,
)
from repro.core.stats import PredictorResult
from repro.report.tables import (
    Table,
    bucket_label,
    cumulative_percent,
    log2_bucket_edges,
    percentage,
)
from repro.workloads import get_workload

#: Single-letter predictor labels in the paper's order.
LETTERS = {"last": "L", "stride": "S", "context": "C"}

#: The workloads Figs. 10 and 11 plot, when the campaign runs them.
FIG10_WORKLOAD = "gcc"
FIG11_WORKLOADS = ("com", "go", "gcc")


def _label(spec: str) -> str:
    return LETTERS.get(spec, spec)


def _per_variant(build):
    """Lift ``build(variant, results)`` to a campaign builder.

    ``results`` is the variant's ``workload -> AnalysisResult`` map in
    spec order.  The tables of every variant are concatenated; with
    more than one variant each title names its variant.
    """
    @functools.wraps(build)
    def builder(campaign):
        variants = campaign.spec.variants
        tables = []
        for variant in variants:
            built = build(variant, campaign.results.get(variant.name, {}))
            for table in built if isinstance(built, tuple) else (built,):
                if len(variants) > 1:
                    table.title += f" [variant {variant.name}]"
                tables.append(table)
        return tables[0] if len(tables) == 1 else tuple(tables)
    return builder


def _int_results(results) -> list[AnalysisResult]:
    return [result for name, result in results.items()
            if get_workload(name).kind == "int"]


def _add_bank_rows(table, predictors, results, cell_fn,
                   prop_total=False):
    """One row per (workload, predictor), then INT/FLOAT averages.

    ``cell_fn(result, pred) -> list[float]`` produces one predictor's
    cells; averages are arithmetic means of those percentages,
    matching the paper's averaging.  ``prop_total`` appends node plus
    arc propagation (Fig. 5's cells 1 and 4).
    """
    groups = {"int": [], "fp": []}
    rows = []
    for name, result in results.items():
        cells = [cell_fn(result, result.predictors[spec])
                 for spec in predictors]
        rows.append((name, cells))
        groups[get_workload(name).kind].append(cells)
    for label, key in (("INT", "int"), ("FLOAT", "fp")):
        members = groups[key]
        if members:
            rows.append((label, [
                [sum(column) / len(members) for column in zip(*chunks)]
                for chunks in zip(*members)
            ]))
    for name, cells in rows:
        for index, (spec, chunk) in enumerate(zip(predictors, cells)):
            row = [name if index == 0 else "", _label(spec), *chunk]
            if prop_total:
                row.append(chunk[1] + chunk[4])
            table.add_row(*row)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Table 1.
# ----------------------------------------------------------------------

def table1(campaign) -> Table:
    """Benchmark characteristics (paper Table 1).

    The DPG does not depend on the predictor bank, so one table serves
    every variant; it reads the first variant's results.
    """
    table = Table(
        "Table 1: Benchmark characteristics (DPG statistics)",
        ["bench", "static", "nodes", "edges", "edges/node",
         "D-nodes %", "D-edges %"],
        float_format="{:.3f}",
    )
    first = campaign.results[campaign.spec.variants[0].name]
    for name, result in first.items():
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


@_per_variant
def figure5(variant, results) -> Table:
    """Overall node and arc predictability (paper Fig. 5)."""
    table = Table(
        "Figure 5: overall node/arc generation, propagation, termination"
        " (% of nodes+arcs)",
        ["bench", "pred", "node gen", "node prop", "node term",
         "arc gen", "arc prop", "arc term", "prop total"],
    )
    _add_bank_rows(table, variant.predictors, results, _behavior_cells,
                   prop_total=True)
    table.add_note("paper: propagation dominates; 40-65% (INT) / "
                   "25-60% (FP) of nodes+arcs propagate; C > S > L")
    return table


# ----------------------------------------------------------------------
# Figures 6-8: generation / propagation / termination detail.
# ----------------------------------------------------------------------

def _detail_figure(variant, results, title, node_headers, node_kinds,
                   arc_headers, arc_uses, xy):
    node_out = xy == ARC_PP or xy == ARC_NP

    def node_cells(result, pred):
        return [percentage(pred.nodes.count(kind, node_out),
                           result.elements) for kind in node_kinds]

    def arc_cells(result, pred):
        return [percentage(pred.arcs.count(use, xy), result.elements)
                for use in arc_uses]

    tables = []
    for part, headers, cell_fn in (("nodes", node_headers, node_cells),
                                   ("arcs", arc_headers, arc_cells)):
        table = Table(f"{title} -- {part} (% of nodes+arcs)",
                      ["bench", "pred", *headers])
        _add_bank_rows(table, variant.predictors, results, cell_fn)
        tables.append(table)
    return tuple(tables)


@_per_variant
def figure6(variant, results):
    """Generation detail (paper Fig. 6)."""
    node_table, arc_table = _detail_figure(
        variant, results,
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


@_per_variant
def figure7(variant, results):
    """Propagation detail (paper Fig. 7)."""
    node_table, arc_table = _detail_figure(
        variant, results,
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


@_per_variant
def figure8(variant, results):
    """Termination detail (paper Fig. 8)."""
    node_table, arc_table = _detail_figure(
        variant, results,
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

@_per_variant
def figure9(variant, results, top: int = 24):
    """Generator-class contributions to propagation (paper Fig. 9).

    Averages over the integer workloads; the bottom table ranks the
    exact combinations by the variant's last-listed predictor.
    """
    int_results = _int_results(results)
    predictors = variant.predictors
    overall = Table(
        "Figure 9 (top): % of nodes+arcs on predictable paths from each "
        "generator class (INT average)",
        ["pred", *(cls.name for cls in GenClass)],
    )
    for spec in predictors:
        overall.add_row(_label(spec), *(
            _mean(percentage(r.predictors[spec].paths.class_counts[cls],
                             r.elements) for r in int_results)
            for cls in GenClass
        ))
    overall.add_note("paper: control flow (C) dominates (~45% of the DPG "
                     "for C prediction); immediates (I) second (~30%)")

    # Bottom: exact combinations, top-N by the ranking predictor.
    combo_shares: dict[int, dict[str, float]] = {}
    for spec in predictors:
        shares: dict[int, float] = {}
        for result in int_results:
            counts = result.predictors[spec].paths.combo_counts
            for mask, value in counts.items():
                if mask:
                    shares[mask] = shares.get(mask, 0.0) + percentage(
                        value, result.elements
                    )
        for mask, total in shares.items():
            combo_shares.setdefault(mask, {})[spec] = total / len(int_results)
    ranked = sorted(
        combo_shares,
        key=lambda mask: combo_shares[mask].get(predictors[-1], 0.0),
        reverse=True,
    )[:top]
    combos = Table(
        f"Figure 9 (bottom): top {top} generator combinations "
        "(% of nodes+arcs, INT average)",
        ["combo", *map(_label, predictors)],
    )
    for mask in ranked:
        combos.add_row(
            gen_mask_name(mask),
            *(combo_shares[mask].get(spec, 0.0) for spec in predictors),
        )
    combos.add_note("paper: C is the largest set (12-17%), then I (~10% "
                    "for L), CI and M close behind")
    return overall, combos


# ----------------------------------------------------------------------
# Figures 10-11: predictability trees.
# ----------------------------------------------------------------------

def _tree_inputs(variant, results, wanted):
    """``(workloads, predictor, missing)`` for a tree exhibit: the
    ``wanted`` workloads the campaign runs, the variant's first
    tree-tracked predictor, and a note naming what is missing."""
    workloads = [name for name in wanted if name in results]
    if not workloads:
        return workloads, None, (f"needs workload(s) {', '.join(wanted)},"
                                 " not in this campaign")
    predictor = next((spec for spec in variant.predictors
                      if results[workloads[0]].predictors[spec].trees
                      is not None), None)
    if predictor is None:
        return workloads, None, ("needs a tree-tracked predictor: the "
                                 "campaign's trees_for names none of "
                                 "this variant's predictors")
    return workloads, predictor, None


@_per_variant
def figure10(variant, results) -> Table:
    """Tree longest-path and aggregate-propagation curves (Fig. 10)."""
    __, predictor, missing = _tree_inputs(variant, results,
                                          (FIG10_WORKLOAD,))
    table = Table(
        "Figure 10: predictability trees" + (
            f" ({FIG10_WORKLOAD}, {predictor} predictor)" if predictor
            else ""
        ),
        ["longest path <=", "% of generates", "% of aggregate propagation"],
    )
    if missing:
        table.add_note(missing)
        return table
    trees = results[FIG10_WORKLOAD].predictors[predictor].trees
    maximum = max(trees.depth_hist) if trees.depth_hist else 1
    edges = log2_bucket_edges(max(maximum, 1))
    gen_curve = cumulative_percent(trees.depth_hist, edges)
    agg_curve = cumulative_percent(trees.agg_hist, edges)
    for edge, gen_pct, agg_pct in zip(edges, gen_curve, agg_curve):
        table.add_row(edge, gen_pct, agg_pct)
    table.add_note("paper: ~90% of generates have longest path <= 8, yet "
                   "trees with longest path >= 256 carry ~80% of "
                   "aggregate propagation")
    return table


@_per_variant
def figure11(variant, results):
    """Influence counts and generate distances (paper Fig. 11)."""
    workloads, predictor, missing = _tree_inputs(variant, results,
                                                 FIG11_WORKLOADS)
    suffix = f" ({predictor} predictor)" if predictor else ""
    influence = Table(
        "Figure 11 (top): cumulative % of propagates influenced by <= K "
        f"generates{suffix}",
        ["K", *workloads],
    )
    distance = Table(
        "Figure 11 (bottom): cumulative % of propagates with farthest "
        f"generate <= D elements away{suffix}",
        ["D", *workloads],
    )
    if missing:
        influence.add_note(missing)
        distance.add_note(missing)
        return influence, distance
    trees = [results[name].predictors[predictor].trees
             for name in workloads]
    for table, hists in (
        (influence, [t.influence_hist for t in trees]),
        (distance, [t.distance_hist for t in trees]),
    ):
        maximum = max((max(h) if h else 1) for h in hists)
        edges = log2_bucket_edges(max(maximum, 1))
        curves = [cumulative_percent(h, edges) for h in hists]
        for index, edge in enumerate(edges):
            table.add_row(edge, *(curve[index] for curve in curves))
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


@_per_variant
def figure12(variant, results) -> Table:
    """Predictable sequence lengths (paper Fig. 12), INT average."""
    int_results = _int_results(results)
    table = Table(
        "Figure 12: % of instructions inside fully-predictable sequences, "
        "by sequence length (INT average)",
        ["length", *map(_label, variant.predictors)],
    )
    for low, high in SEQUENCE_BUCKETS:
        label = bucket_label(low, high) if high < (1 << 30) else f"{low}+"
        table.add_row(label, *(
            _mean(percentage(
                sum(length * count for length, count
                    in r.predictors[spec].sequences.lengths.items()
                    if low <= length <= high),
                r.nodes,
            ) for r in int_results)
            for spec in variant.predictors
        ))
    table.add_note("paper: long sequences common -- e.g. ~13% of "
                   "instructions in 9-16 blocks and ~40% in 9-256 "
                   "sequences for C")
    return table


# ----------------------------------------------------------------------
# Figure 13: branch predictability.
# ----------------------------------------------------------------------

#: Paper's Fig. 13 x-axis, predicted classes first.
FIG13_CLASSES = [
    (InKind.PP, True), (InKind.PI, True), (InKind.PN, True),
    (InKind.NN, True), (InKind.IN, True), (InKind.II, True),
    (InKind.PP, False), (InKind.PI, False), (InKind.PN, False),
    (InKind.NN, False), (InKind.IN, False), (InKind.II, False),
]


@_per_variant
def figure13(variant, results) -> Table:
    """Branch predictability behaviour (paper Fig. 13), INT average.

    The gshare accuracy note reads the variant's first-listed
    predictor (every bank sees the same gshare outcomes).
    """
    int_results = _int_results(results)
    table = Table(
        "Figure 13: branch classes, value-predicted inputs x gshare "
        "direction (% of branches, INT average)",
        ["class", *map(_label, variant.predictors)],
    )
    for kind_class, predicted in FIG13_CLASSES:
        table.add_row(node_class_name(kind_class, predicted), *(
            _mean(percentage(r.predictors[spec].branches.count(
                kind_class, predicted), r.predictors[spec].branches.total())
                for r in int_results)
            for spec in variant.predictors
        ))
    if int_results:
        accuracy = _mean(r.predictors[variant.predictors[0]]
                         .branches.accuracy() for r in int_results)
        table.add_note(f"gshare accuracy (INT average): "
                       f"{100 * accuracy:.1f}% (paper: 93%)")
    table.add_note("paper: 70-82% of branches propagate; slightly over "
                   "half of mispredictions have all-predictable inputs")
    return table


# ----------------------------------------------------------------------
# Extension exhibit: critical points (not a paper figure; Section 1's
# third stated application of the model).
# ----------------------------------------------------------------------

@_per_variant
def critical_points(variant, results, top: int = 5) -> Table:
    """Top termination sites per workload — the model's 'critical
    points for prediction' — under the variant's last-listed
    predictor."""
    predictor = variant.predictors[-1]
    table = Table(
        f"Critical points: top-{top} termination sites per workload "
        f"({predictor} predictor)",
        ["bench", "pc", "instruction", "executed", "terminated",
         "miss %"],
        float_format="{:.1f}",
    )
    for name, result in results.items():
        critical = result.predictors[predictor].critical
        instructions = get_workload(name).program().instructions
        concentration = critical.concentration(top)
        sites = critical.top_sites(result.static_counts, count=top)
        for index, site in enumerate(sites):
            label = name if index == 0 else ""
            table.add_row(
                label, site.pc, instructions[site.pc].render(),
                site.executions, site.terminations,
                100.0 * site.miss_rate,
            )
        if sites:
            table.add_note(
                f"{name}: top-{top} sites cause "
                f"{100 * concentration:.0f}% of terminations"
            )
    return table
