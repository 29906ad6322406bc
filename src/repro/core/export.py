"""Export utilities: explicit DPGs and analysis results.

:func:`to_dot` renders a (small) dynamic prediction graph in Graphviz
DOT, colour-coding the paper's behaviours — useful for papers, slides
and debugging the model on snippets like the Fig. 1 loop.
:func:`to_records` flattens a DPG to plain dictionaries for JSON
serialisation or pandas-style analysis.

:func:`result_to_dict` / :func:`result_from_dict` round-trip a full
:class:`~repro.core.stats.AnalysisResult` through plain JSON-safe
dictionaries.  Every count the exhibits consume is an integer, so the
round trip is exact: a deserialised result renders byte-identical
tables.  This is what the runner's disk store
(:mod:`repro.runner.cache`) persists.
"""

from __future__ import annotations

from collections import Counter

from repro.core.events import Behavior, InKind
from repro.core.reuse import ReuseStats
from repro.core.stats import (
    AnalysisResult,
    ArcStats,
    BranchStats,
    NodeStats,
    PathStats,
    PredictorResult,
    SequenceStats,
    TreeStats,
)
from repro.core.unpred import CriticalPoints

#: Fill colours per behaviour (generate/propagate/terminate/...).
_BEHAVIOR_COLORS = {
    Behavior.GENERATE: "palegreen",
    Behavior.PROPAGATE: "lightblue",
    Behavior.TERMINATE: "lightsalmon",
    Behavior.UNPRED: "gainsboro",
    Behavior.OTHER: "white",
    None: "khaki",  # D nodes
}

_EDGE_COLORS = {
    Behavior.GENERATE: "forestgreen",
    Behavior.PROPAGATE: "steelblue",
    Behavior.TERMINATE: "orangered",
    Behavior.UNPRED: "gray",
}


def _node_id(node) -> str:
    if isinstance(node, tuple):  # ("D", key)
        return f"D_{node[1]:x}"
    return f"n{node}"


def _node_label(node, data) -> str:
    if data.get("kind") == "data":
        return f"D@{node[1]:#x}"
    label = data.get("label") or ""
    return f"uid {node}\\npc {data['pc']}: {data['op']}\\n{label}"


def to_dot(graph, title: str = "dynamic prediction graph") -> str:
    """Render an explicit DPG (from :func:`repro.core.build_dpg`) as
    Graphviz DOT text."""
    lines = [
        "digraph dpg {",
        f'  label="{title}";',
        "  rankdir=TB;",
        '  node [shape=box, style=filled, fontsize=10];',
    ]
    for node, data in graph.nodes(data=True):
        color = _BEHAVIOR_COLORS.get(data.get("behavior"), "white")
        lines.append(
            f'  {_node_id(node)} [label="{_node_label(node, data)}", '
            f'fillcolor={color}];'
        )
    for producer, consumer, data in graph.edges(data=True):
        color = _EDGE_COLORS.get(data.get("behavior"), "black")
        lines.append(
            f"  {_node_id(producer)} -> {_node_id(consumer)} "
            f'[label="{data.get("label", "")}", color={color}, '
            f"fontsize=9];"
        )
    lines.append("}")
    return "\n".join(lines)


def to_records(graph) -> tuple[list[dict], list[dict]]:
    """Flatten a DPG into (node records, edge records) of plain dicts
    suitable for ``json.dump`` or tabular analysis."""
    nodes = []
    for node, data in graph.nodes(data=True):
        if data.get("kind") == "data":
            nodes.append({"id": _node_id(node), "type": "data",
                          "key": node[1]})
            continue
        behavior = data.get("behavior")
        nodes.append({
            "id": _node_id(node),
            "type": "instruction",
            "uid": node,
            "pc": data["pc"],
            "op": data["op"],
            "out": data.get("out"),
            "out_predicted": data.get("out_predicted"),
            "class": data.get("label"),
            "behavior": behavior.name if behavior is not None else None,
        })
    edges = []
    for producer, consumer, data in graph.edges(data=True):
        edges.append({
            "from": _node_id(producer),
            "to": _node_id(consumer),
            "label": data.get("label"),
            "x": data.get("x"),
            "y": data.get("y"),
            "value": data.get("value"),
            "use": data["use"].name if "use" in data else None,
            "slot": data.get("slot"),
        })
    return nodes, edges


# ----------------------------------------------------------------------
# AnalysisResult <-> JSON-safe dictionaries.
# ----------------------------------------------------------------------

def _counter_to_dict(counter: Counter) -> dict[str, int]:
    # JSON object keys must be strings.  Insertion order is preserved
    # deliberately: exhibit code breaks ranking ties by it (Fig. 9),
    # and byte-identical tables require the round trip to keep it.
    return {str(key): value for key, value in counter.items()}


def _counter_from_dict(payload: dict) -> Counter:
    return Counter({int(key): value for key, value in payload.items()})


def _predictor_to_dict(pred: PredictorResult) -> dict:
    out: dict = {
        "kind": pred.kind,
        "nodes": {
            "class_counts": pred.nodes.class_counts,
            "no_output": pred.nodes.no_output,
        },
        "arcs": {"counts": pred.arcs.counts},
        "paths": {
            "propagate_elements": pred.paths.propagate_elements,
            "class_counts": pred.paths.class_counts,
            "combo_counts": _counter_to_dict(pred.paths.combo_counts),
            "gen_counts": pred.paths.gen_counts,
        },
    }
    if pred.trees is not None:
        out["trees"] = {
            "depth_hist": _counter_to_dict(pred.trees.depth_hist),
            "agg_hist": _counter_to_dict(pred.trees.agg_hist),
            "influence_hist": _counter_to_dict(pred.trees.influence_hist),
            "distance_hist": _counter_to_dict(pred.trees.distance_hist),
            "truncated": pred.trees.truncated,
        }
    out["sequences"] = {"lengths": _counter_to_dict(pred.sequences.lengths)}
    out["branches"] = {"class_counts": pred.branches.class_counts}
    out["unpred"] = {"lengths": _counter_to_dict(pred.unpred.lengths)}
    out["critical"] = {
        "n_static": pred.critical.n_static,
        "output_misses": pred.critical.output_misses,
        "terminations": pred.critical.terminations,
    }
    out["node_ops"] = [
        [int(kind), int(predicted), op, count]
        for (kind, predicted, op), count in sorted(
            pred.node_ops.items(),
            key=lambda item: (item[0][0], item[0][1], item[0][2]),
        )
    ]
    return out


def _predictor_from_dict(payload: dict) -> PredictorResult:
    paths = payload["paths"]
    critical = payload["critical"]
    pred = PredictorResult(
        kind=payload["kind"],
        nodes=NodeStats(
            class_counts=payload["nodes"]["class_counts"],
            no_output=payload["nodes"]["no_output"],
        ),
        arcs=ArcStats(counts=payload["arcs"]["counts"]),
        paths=PathStats(
            propagate_elements=paths["propagate_elements"],
            class_counts=paths["class_counts"],
            combo_counts=_counter_from_dict(paths["combo_counts"]),
            gen_counts=paths["gen_counts"],
        ),
        sequences=SequenceStats(
            lengths=_counter_from_dict(payload["sequences"]["lengths"])),
        branches=BranchStats(
            class_counts=payload["branches"]["class_counts"]),
        unpred=SequenceStats(
            lengths=_counter_from_dict(payload["unpred"]["lengths"])),
        critical=CriticalPoints(
            n_static=critical["n_static"],
            output_misses=critical["output_misses"],
            terminations=critical["terminations"],
        ),
        node_ops=Counter({
            (InKind(kind), bool(predicted), op): count
            for kind, predicted, op, count in payload["node_ops"]
        }),
    )
    trees = payload.get("trees")
    if trees is not None:
        pred.trees = TreeStats(
            depth_hist=_counter_from_dict(trees["depth_hist"]),
            agg_hist=_counter_from_dict(trees["agg_hist"]),
            influence_hist=_counter_from_dict(trees["influence_hist"]),
            distance_hist=_counter_from_dict(trees["distance_hist"]),
            truncated=trees["truncated"],
        )
    return pred


def result_to_dict(result: AnalysisResult) -> dict:
    """Flatten an :class:`AnalysisResult` to a JSON-safe dictionary."""
    payload: dict = {
        "name": result.name,
        "nodes": result.nodes,
        "arcs": result.arcs,
        "d_nodes": result.d_nodes,
        "d_arcs": result.d_arcs,
        "static_instructions": result.static_instructions,
        "static_counts": result.static_counts,
        "predictors": {
            kind: _predictor_to_dict(pred)
            for kind, pred in result.predictors.items()
        },
    }
    if result.reuse is not None:
        payload["reuse"] = {
            "eligible": result.reuse.eligible,
            "hits": result.reuse.hits,
            "hits_predicted": result.reuse.hits_predicted,
            "predicted_only": result.reuse.predicted_only,
        }
    return payload


def result_from_dict(payload: dict) -> AnalysisResult:
    """Rebuild an :class:`AnalysisResult` from :func:`result_to_dict`
    output.  Exact inverse: ``result_from_dict(result_to_dict(r)) == r``.
    """
    result = AnalysisResult(
        name=payload["name"],
        nodes=payload["nodes"],
        arcs=payload["arcs"],
        d_nodes=payload["d_nodes"],
        d_arcs=payload["d_arcs"],
        static_instructions=payload["static_instructions"],
        static_counts=payload["static_counts"],
    )
    for kind, pred_payload in payload["predictors"].items():
        result.predictors[kind] = _predictor_from_dict(pred_payload)
    reuse = payload.get("reuse")
    if reuse is not None:
        result.reuse = ReuseStats(
            eligible=reuse["eligible"],
            hits=reuse["hits"],
            hits_predicted=reuse["hits_predicted"],
            predicted_only=reuse["predicted_only"],
        )
    return result
