"""The paper's predictor suite.

Three finite-state value predictors (Section 3 of the paper):

* **last-value** — 2^16 entries, 2-bit saturating replacement counter
  (Lipasti/Wilkerson/Shen-style).
* **stride** — the 2-delta stride predictor, 2^16 entries; the stride
  is replaced only when a new stride appears twice in a row.
* **context** — a two-level context-based predictor: a 2^16-entry
  first-level table holding the last four values in hashed form, and a
  *shared* 2^20-entry second-level table with 3-bit replacement
  counters.

Conditional branch directions are predicted by a 64K-entry **gshare**.

All predictors expose ``see(key, value) -> bool``: predict the next
value for ``key``, compare with the actual ``value``, update
immediately (the paper's immediate-update caveat), and report whether
the prediction was correct.
"""

from repro.predictors.base import (
    PREDICTOR_KINDS,
    PREDICTOR_PARAMS,
    ValuePredictor,
    make_predictor,
    parse_predictor_spec,
    validate_predictor_specs,
)
from repro.predictors.bank import PredictorBank
from repro.predictors.confidence import ConfidenceEstimator, ConfidentPredictor
from repro.predictors.context import ContextPredictor
from repro.predictors.delayed import DelayedPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.hybrid import HybridPredictor
from repro.predictors.last_value import LastValuePredictor
from repro.predictors.local_branch import (
    LocalBranchPredictor,
    make_branch_predictor,
)
from repro.predictors.stride import StridePredictor

__all__ = [
    "ConfidenceEstimator",
    "ConfidentPredictor",
    "ContextPredictor",
    "DelayedPredictor",
    "GsharePredictor",
    "HybridPredictor",
    "LastValuePredictor",
    "LocalBranchPredictor",
    "PREDICTOR_KINDS",
    "PREDICTOR_PARAMS",
    "PredictorBank",
    "StridePredictor",
    "ValuePredictor",
    "make_branch_predictor",
    "make_predictor",
    "parse_predictor_spec",
    "validate_predictor_specs",
]
