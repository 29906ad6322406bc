"""Design-space campaigns over workloads x predictor banks.

A campaign is a declarative spec — a TOML or JSON file, or a
:class:`CampaignSpec` built in code — crossing a set of workloads
(fixed suite members and/or synthesized ``gen:`` names) with a set of
predictor-bank *variants* (parameterized predictor spec strings such
as ``context(l1=12,l2=16,order=6)``).  The engine expands the cross
product into one :class:`~repro.runner.ExperimentConfig` per variant
and executes the whole grid through the shared
:class:`~repro.runner.ExperimentRunner`'s sweep path, so each workload
is simulated at most once no matter how many variants analyse it, and
a re-run of an unchanged campaign is served entirely from the
two-tier cache.

Exhibits are registry-driven: :data:`~repro.campaign.exhibits.table_registry`
and :data:`~repro.campaign.exhibits.plot_registry` map exhibit names to
builder functions, and :func:`~repro.campaign.report.create_report`
iterates them mechanically into a self-contained report directory —
adding an exhibit is one decorated function, never a report-writer
edit.
"""

from repro.campaign.engine import CampaignResult, run_campaign
from repro.campaign.exhibits import plot_registry, table_registry
from repro.campaign.report import create_report
from repro.campaign.spec import (
    CampaignSpec,
    PredictorVariant,
    load_spec,
    paper_spec,
    spec_from_dict,
)

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "PredictorVariant",
    "create_report",
    "load_spec",
    "paper_spec",
    "plot_registry",
    "run_campaign",
    "spec_from_dict",
    "table_registry",
]
