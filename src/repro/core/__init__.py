"""The paper's predictability model.

This package implements the dynamic-prediction-graph (DPG) model of
Sazeides & Smith: streaming classification of every dynamic instruction
(node) and true dependence (arc) into *generation*, *propagation* and
*termination* of predictability, plus the paper's path/tree analysis,
predictable-sequence statistics and branch study.

Entry points:

* :func:`analyze_machine` / :func:`analyze_trace` — full streaming
  analysis of a workload trace under all configured predictors.
* :func:`analyze_reference` — the per-instruction reference loop, the
  differential oracle of the columnar kernel.
* :func:`build_dpg` — explicit (networkx) DPG for small traces.
"""

from repro.core.analysis import (
    AnalysisConfig,
    Analyzer,
    analyze_machine,
    analyze_many,
    analyze_reference,
    analyze_trace,
)
from repro.core.dpg import behavior_counts, build_dpg, classify_uses
from repro.core.export import to_dot, to_records
from repro.core.kernel import TraceColumns, columnar_unsupported
from repro.core.events import (
    ARC_LABELS,
    Behavior,
    GenClass,
    InKind,
    UseClass,
    arc_code,
    gen_mask_name,
    in_kind,
    node_behavior,
    node_class_name,
)
from repro.core.unpred import CriticalPoints, CriticalSite, UnpredTracker
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

__all__ = [
    "ARC_LABELS",
    "AnalysisConfig",
    "AnalysisResult",
    "Analyzer",
    "TraceColumns",
    "columnar_unsupported",
    "ArcStats",
    "Behavior",
    "BranchStats",
    "GenClass",
    "InKind",
    "NodeStats",
    "PathStats",
    "PredictorResult",
    "SequenceStats",
    "TreeStats",
    "UseClass",
    "CriticalPoints",
    "CriticalSite",
    "UnpredTracker",
    "analyze_machine",
    "analyze_many",
    "analyze_reference",
    "analyze_trace",
    "arc_code",
    "to_dot",
    "to_records",
    "behavior_counts",
    "build_dpg",
    "classify_uses",
    "gen_mask_name",
    "in_kind",
    "node_behavior",
    "node_class_name",
]
