"""Report completeness: every registered exhibit, mechanically."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    create_report,
    plot_registry,
    run_campaign,
    spec_from_dict,
    table_registry,
)
from repro.campaign.exhibits import (
    branch_accuracy_percent,
    predicted_node_percent,
)
from repro.core.events import InKind
from repro.report.tables import percentage
from repro.runner import ExperimentRunner, ResultStore, TraceStore

_SPEC = {
    "name": "report-e2e",
    "scale": 1,
    "max_instructions": 20_000,
    "workloads": ["gen:branchy@3", "gen:arith@5", "gcc"],
    "trees_for": ["context"],
    "variants": [
        {"name": "baseline", "predictors": ["last", "stride"]},
        {"name": "hybrid", "predictors": ["context", "stride"]},
    ],
}


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign-cache")
    runner = ExperimentRunner(store=ResultStore(root),
                              trace_store=TraceStore(root))
    return run_campaign(spec_from_dict(_SPEC), runner=runner)


def test_report_contains_every_registered_exhibit(campaign, tmp_path):
    out = create_report(campaign, tmp_path / "report")
    for name in table_registry:
        path = out / "tables" / f"{name}.txt"
        assert path.is_file(), f"missing table {name}"
        assert path.read_text().strip()
    for name in plot_registry:
        path = out / "plots" / f"{name}.svg"
        assert path.is_file(), f"missing plot {name}"
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")


def test_manifest_is_machine_readable(campaign, tmp_path):
    out = create_report(campaign, tmp_path / "report")
    manifest = json.loads((out / "campaign.json").read_text())
    assert manifest["campaign"]["name"] == "report-e2e"
    assert manifest["grid_jobs"] == 6
    assert manifest["pool_jobs"] + sum(
        count for status, count in manifest["resolve_counts"].items()
        if status in ("memo-hit", "cache-hit")
    ) == 6
    assert sorted(manifest["tables"]) == [
        f"tables/{name}.txt" for name in sorted(table_registry)
    ]
    assert sorted(manifest["plots"]) == [
        f"plots/{name}.svg" for name in sorted(plot_registry)
    ]


def test_index_inlines_every_table(campaign, tmp_path):
    out = create_report(campaign, tmp_path / "report")
    index = (out / "index.md").read_text()
    for name in table_registry:
        assert f"### {name}" in index
    for name in plot_registry:
        assert f"plots/{name}.svg" in index
    assert "report-e2e" in index


def test_report_is_idempotent(campaign, tmp_path):
    out = tmp_path / "report"
    create_report(campaign, out)
    first = {p: p.read_text() for p in sorted(out.rglob("*.txt"))}
    create_report(campaign, out)
    second = {p: p.read_text() for p in sorted(out.rglob("*.txt"))}
    assert first == second


def test_workloads_table_shows_provenance(campaign):
    rendered = table_registry["workloads"](campaign).render()
    assert "preset=branchy" in rendered
    assert "seed=3" in rendered


def test_metric_helpers_in_range(campaign):
    for variant, __, result in campaign.iter_cells():
        for spec in variant.predictors:
            nodes = predicted_node_percent(result, spec)
            assert 0.0 <= nodes <= 100.0
            branches = branch_accuracy_percent(result, spec)
            assert branches is None or 0.0 <= branches <= 100.0


def test_fig5_rows_carry_their_own_predictor(campaign):
    """Rows follow the variant's bank: ``hybrid`` lists context first,
    and its S rows hold stride's numbers, not context's."""
    __, hybrid = table_registry["fig5"](campaign)
    assert hybrid.title.endswith("[variant hybrid]")
    rows = iter(hybrid.rows)
    for name, result in campaign.results["hybrid"].items():
        for label, spec in (("C", "context"), ("S", "stride")):
            row = next(rows)
            assert row[:2] == [name if label == "C" else "", label]
            nodes = result.predictors[spec].nodes
            propagated = sum(nodes.count(kind, True)
                             for kind in (InKind.PP, InKind.PI, InKind.PN))
            assert row[3] == pytest.approx(
                percentage(propagated, result.elements)
            )


def test_paper_exhibits_render_per_variant(campaign):
    """One table (or pair) per variant; the tree exhibits read the
    campaign's tree-tracked predictor or say what they are missing."""
    baseline, hybrid = table_registry["fig10"](campaign)
    assert not baseline.rows
    assert any("tree-tracked" in note for note in baseline.notes)
    assert hybrid.title.startswith(
        "Figure 10: predictability trees (gcc, context predictor)"
    )
    assert hybrid.rows[-1][1] == pytest.approx(100.0)
    influence = table_registry["fig11"](campaign)[2]
    assert influence.headers == ["K", "gcc"]
    assert len(table_registry["fig9"](campaign)) == 4
    critical = table_registry["critical"](campaign)
    assert "(stride predictor)" in critical[0].title
    assert "(stride predictor)" in critical[1].title


def test_duplicate_registration_refused():
    from repro.campaign.exhibits import table

    existing = next(iter(table_registry))
    with pytest.raises(ValueError, match="duplicate"):
        table(existing)(lambda campaign: None)
