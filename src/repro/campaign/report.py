"""Mechanical report emission from the exhibit registries.

:func:`create_report` takes a finished
:class:`~repro.campaign.engine.CampaignResult` and writes a
self-contained directory::

    <out>/
      index.md          overview + every table inlined
      campaign.json     machine-readable manifest (spec, cache stats,
                        emitted exhibit files)
      tables/<name>.txt one file per table_registry entry (all of
                        the exhibit's tables, blank-line separated)
      plots/<name>.svg  one file per plot_registry entry

The writer iterates the registries — it never names an exhibit — so
the report provably contains every registered exhibit, which is what
the campaign-smoke CI job asserts.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.campaign.engine import CampaignResult
from repro.campaign.exhibits import (
    build_tables,
    plot_registry,
    table_registry,
)


def create_report(campaign: CampaignResult,
                  out_dir: str | Path) -> Path:
    """Emit the full report for ``campaign`` under ``out_dir``.

    Returns the report directory.  Existing files are overwritten —
    the report is a pure function of the campaign result, so
    re-emission is idempotent.
    """
    out = Path(out_dir)
    (out / "tables").mkdir(parents=True, exist_ok=True)
    (out / "plots").mkdir(parents=True, exist_ok=True)

    tables: dict[str, str] = {}
    for name in sorted(table_registry):
        rendered = "\n\n".join(
            table.render() for table in build_tables(name, campaign)
        )
        (out / "tables" / f"{name}.txt").write_text(rendered + "\n")
        tables[name] = rendered
    plots: list[str] = []
    for name in sorted(plot_registry):
        (out / "plots" / f"{name}.svg").write_text(
            plot_registry[name](campaign)
        )
        plots.append(name)

    (out / "index.md").write_text(_index_md(campaign, tables, plots))
    manifest = {
        "campaign": campaign.spec.to_dict(),
        "grid_jobs": campaign.spec.jobs(),
        "resolve_counts": campaign.resolve_counts,
        "pool_jobs": campaign.pool_jobs,
        "fully_warm": campaign.fully_warm,
        "wall_seconds": round(campaign.wall, 3),
        "tables": [f"tables/{name}.txt" for name in sorted(tables)],
        "plots": [f"plots/{name}.svg" for name in plots],
    }
    (out / "campaign.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return out


def _index_md(campaign: CampaignResult, tables: dict[str, str],
              plots: list[str]) -> str:
    spec = campaign.spec
    lines = [
        f"# Campaign: {spec.name}",
        "",
    ]
    if spec.description:
        lines += [spec.description, ""]
    lines += [
        f"- grid: {len(spec.workloads)} workloads x "
        f"{len(spec.variants)} variants = {spec.jobs()} jobs",
        f"- scale: {spec.scale}, "
        f"instruction budget: {spec.max_instructions}",
        f"- cache resolution: "
        + (", ".join(f"{status}={count}" for status, count
                     in sorted(campaign.resolve_counts.items()))
           or "none"),
        f"- pool jobs this run: {campaign.pool_jobs}"
        + (" (fully warm)" if campaign.fully_warm else ""),
        "",
        "## Plots",
        "",
    ]
    for name in plots:
        lines.append(f"![{name}](plots/{name}.svg)")
    lines += ["", "## Tables", ""]
    for name, rendered in tables.items():
        lines += [f"### {name}", "", "```", rendered, "```", ""]
    return "\n".join(lines) + "\n"
