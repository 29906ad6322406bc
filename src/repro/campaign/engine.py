"""Campaign execution: expand the grid, run it, collect the results.

The engine is a thin deterministic layer over
:meth:`repro.runner.ExperimentRunner.run_many`: one
:class:`~repro.runner.ExperimentConfig` per variant, all sharing the
spec's workload list, so the sweep path simulates each workload once
and fans the trace out to every variant's analyzer.  Everything the
exhibits need — per-(variant, workload) results, cache-resolution
statuses, wall time — rides on the returned :class:`CampaignResult`.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from repro.campaign.spec import CampaignSpec
from repro.core import AnalysisResult
from repro.runner.api import ExperimentRunner, default_runner
from repro.runner.metrics import STATUS_CACHE_HIT, STATUS_MEMO_HIT

#: Job statuses served without executing anything in a pool worker.
_WARM_STATUSES = frozenset({STATUS_MEMO_HIT, STATUS_CACHE_HIT})


@dataclass
class CampaignResult:
    """Everything a campaign run produced.

    Attributes:
        spec: the campaign that ran.
        results: ``variant name -> workload name -> AnalysisResult``.
        resolve_counts: ``runner.resolve`` status -> job count, over
            the whole grid (memo_hit / cache_hit / replayed /
            computed); the reconciliation channel for asserting a
            re-run was fully warm.
        wall: engine wall-clock seconds for the grid.
        profile: the sweep's profile (spans + counters) when the
            runner observes, else None.
    """

    spec: CampaignSpec
    results: dict[str, dict[str, AnalysisResult]] = field(
        default_factory=dict
    )
    resolve_counts: dict[str, int] = field(default_factory=dict)
    wall: float = 0.0
    profile: dict | None = None

    @property
    def pool_jobs(self) -> int:
        """Jobs that actually executed (not served from memo/cache)."""
        return sum(
            count for status, count in self.resolve_counts.items()
            if status not in _WARM_STATUSES
        )

    @property
    def fully_warm(self) -> bool:
        """True when every grid job came from the memo or the cache."""
        return self.pool_jobs == 0

    def variant_names(self) -> list[str]:
        return [variant.name for variant in self.spec.variants]

    def iter_cells(self):
        """Yield ``(variant, workload name, AnalysisResult)`` in spec
        order — the iteration every registry exhibit builds on."""
        for variant in self.spec.variants:
            per_workload = self.results.get(variant.name, {})
            for name in self.spec.workloads:
                result = per_workload.get(name)
                if result is not None:
                    yield variant, name, result


def run_campaign(
    spec: CampaignSpec,
    runner: ExperimentRunner | None = None,
    jobs: int | None = None,
) -> CampaignResult:
    """Validate ``spec``, run its grid, and collect the results.

    Raises :class:`ValueError` for an invalid spec and
    :class:`repro.errors.RunnerError` when any grid job fails — a
    campaign's exhibits compare cells, so a partial grid is not worth
    reporting.
    """
    spec.validate()
    runner = runner or default_runner()
    start = time.monotonic()
    runs = runner.run_many(spec.configs(), jobs=jobs)
    wall = time.monotonic() - start
    statuses: Counter = Counter()
    for run in runs:
        run.require()
        for metric in run.metrics.jobs:
            statuses[metric.status] += 1
    result = CampaignResult(
        spec=spec,
        resolve_counts=dict(statuses),
        wall=wall,
        profile=runs[0].metrics.profile if runs else None,
    )
    for variant, run in zip(spec.variants, runs):
        result.results[variant.name] = dict(run.results)
    return result
