"""Registry-driven campaign exhibits.

Every exhibit is a function from a
:class:`~repro.campaign.engine.CampaignResult` to either text — one
:class:`~repro.report.tables.Table` or a tuple of them — or an SVG
document string (plot), registered by decorating it with
:func:`table` or :func:`plot`.  The report writer and ``repro report``
iterate the registries mechanically — they have no idea which
exhibits exist — so adding one is a single decorated function
anywhere in this module (or a test/plugin module that imports it).
The paper's exhibits live in :mod:`repro.report.experiments` and are
registered here.

Plots are hand-rolled SVG: self-contained, deterministic, diffable,
and free of plotting-library dependencies.
"""

from __future__ import annotations

from typing import Callable

from repro.campaign.engine import CampaignResult
from repro.core.events import InKind
from repro.report import experiments
from repro.report.tables import Table, percentage

#: exhibit name -> builder(result) -> Table or tuple of Tables
table_registry: dict[
    str, Callable[[CampaignResult], Table | tuple[Table, ...]]
] = {}
#: exhibit name -> builder(result) -> SVG text
plot_registry: dict[str, Callable[[CampaignResult], str]] = {}


def table(name: str):
    """Register a table exhibit under ``name``."""
    def register(func):
        if name in table_registry:
            raise ValueError(f"duplicate table exhibit {name!r}")
        table_registry[name] = func
        return func
    return register


def build_tables(name: str, campaign: CampaignResult) -> tuple[Table, ...]:
    """The tables of exhibit ``name`` for ``campaign``, always a tuple."""
    built = table_registry[name](campaign)
    return built if isinstance(built, tuple) else (built,)


def plot(name: str):
    """Register a plot exhibit under ``name``."""
    def register(func):
        if name in plot_registry:
            raise ValueError(f"duplicate plot exhibit {name!r}")
        plot_registry[name] = func
        return func
    return register


# ----------------------------------------------------------------------
# Shared metric helpers.
# ----------------------------------------------------------------------

def predicted_node_percent(result, predictor: str) -> float:
    """Percent of DPG nodes whose output the predictor predicted."""
    pred = result.predictors[predictor]
    predicted = sum(pred.nodes.count(kind, True) for kind in InKind)
    return percentage(predicted, pred.nodes.total())


def branch_accuracy_percent(result, predictor: str) -> float | None:
    """Conditional-branch accuracy, or None when not tracked."""
    pred = result.predictors[predictor]
    if pred.branches is None:
        return None
    return 100.0 * pred.branches.accuracy()


def variant_mean_predictability(result, variant) -> float:
    """Mean predicted-node percent over the variant's predictors."""
    values = [
        predicted_node_percent(result, spec)
        for spec in variant.predictors
    ]
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Tables.
# ----------------------------------------------------------------------

@table("variants")
def variants_table(campaign: CampaignResult) -> Table:
    out = Table(
        f"{campaign.spec.name}: predictor-bank variants",
        ["variant", "predictors"],
    )
    for variant in campaign.spec.variants:
        out.add_row(variant.name, " ".join(variant.predictors))
    return out


@table("workloads")
def workloads_table(campaign: CampaignResult) -> Table:
    """Workload provenance: generated members show (seed, knobs)."""
    from repro.workloads.suite import get_workload

    out = Table(
        f"{campaign.spec.name}: workloads",
        ["workload", "kind", "provenance"],
    )
    for name in campaign.spec.workloads:
        workload = get_workload(name)
        preset = getattr(workload, "preset", None)
        if preset is not None:
            detail = (f"synthesized preset={preset} "
                      f"seed={workload.seed}")
        else:
            detail = f"fixed suite ({workload.spec_name})"
        out.add_row(name, workload.kind, detail)
    out.add_note("synthesized workloads regenerate byte-identically "
                 "from their name alone")
    return out


@table("predictability")
def predictability_table(campaign: CampaignResult) -> Table:
    out = Table(
        f"{campaign.spec.name}: predicted-node percent per grid cell",
        ["variant", "workload", "predictor", "% nodes", "% branches"],
    )
    for variant, name, result in campaign.iter_cells():
        for spec in variant.predictors:
            branches = branch_accuracy_percent(result, spec)
            out.add_row(
                variant.name, name, spec,
                predicted_node_percent(result, spec),
                "-" if branches is None else round(branches, 2),
            )
    return out


@table("summary")
def summary_table(campaign: CampaignResult) -> Table:
    """Variant-level means: the design-space comparison at a glance."""
    out = Table(
        f"{campaign.spec.name}: mean predictability by variant",
        ["variant", "workloads", "mean % nodes", "best workload",
         "worst workload"],
    )
    for variant in campaign.spec.variants:
        cells = [
            (name, variant_mean_predictability(result, variant))
            for v, name, result in campaign.iter_cells()
            if v.name == variant.name
        ]
        if not cells:
            continue
        mean = sum(value for __, value in cells) / len(cells)
        best = max(cells, key=lambda cell: cell[1])
        worst = min(cells, key=lambda cell: cell[1])
        out.add_row(
            variant.name, len(cells), mean,
            f"{best[0]} ({best[1]:.1f})",
            f"{worst[0]} ({worst[1]:.1f})",
        )
    out.add_note(f"grid: {len(campaign.spec.workloads)} workloads x "
                 f"{len(campaign.spec.variants)} variants")
    return out


# The paper's exhibits, under the names ``repro report --exhibit`` takes.
for _name, _builder in (
    ("table1", experiments.table1), ("fig5", experiments.figure5),
    ("fig6", experiments.figure6), ("fig7", experiments.figure7),
    ("fig8", experiments.figure8), ("fig9", experiments.figure9),
    ("fig10", experiments.figure10), ("fig11", experiments.figure11),
    ("fig12", experiments.figure12), ("fig13", experiments.figure13),
    ("critical", experiments.critical_points),
):
    table(_name)(_builder)


# ----------------------------------------------------------------------
# SVG plots.
# ----------------------------------------------------------------------

_PALETTE = ("#4878a8", "#e49444", "#5ba053", "#c44e52",
            "#8172b2", "#937860", "#dd8452", "#64b5cd")


def _svg_grouped_bars(title: str, groups: list[tuple[str, list[float]]],
                      series: list[str], y_label: str) -> str:
    """A grouped bar chart as a self-contained SVG document.

    ``groups`` is ``[(group label, [value per series])]``; values are
    percentages (y axis fixed at 0..100 so campaign plots compare).
    """
    bar_w = 18
    gap = 14
    group_w = bar_w * len(series) + gap
    left, top, height = 60, 40, 220
    width = left + group_w * len(groups) + 40
    legend_h = 18 * len(series) + 8
    total_h = top + height + 60 + legend_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width}" height="{total_h}" '
        f'font-family="monospace" font-size="11">',
        f'<text x="{left}" y="18" font-size="13">{_esc(title)}</text>',
    ]
    # y axis with gridlines every 25%.
    for tick in range(0, 101, 25):
        y = top + height - height * tick / 100.0
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{width - 20}" '
            f'y2="{y:.1f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" '
            f'text-anchor="end">{tick}</text>'
        )
    parts.append(
        f'<text x="14" y="{top + height / 2:.1f}" '
        f'transform="rotate(-90 14 {top + height / 2:.1f})" '
        f'text-anchor="middle">{_esc(y_label)}</text>'
    )
    for g_index, (label, values) in enumerate(groups):
        x0 = left + g_index * group_w
        for s_index, value in enumerate(values):
            clamped = max(0.0, min(100.0, value))
            bar_h = height * clamped / 100.0
            x = x0 + s_index * bar_w
            y = top + height - bar_h
            color = _PALETTE[s_index % len(_PALETTE)]
            parts.append(
                f'<rect x="{x}" y="{y:.1f}" width="{bar_w - 2}" '
                f'height="{bar_h:.1f}" fill="{color}">'
                f'<title>{_esc(label)} / {_esc(series[s_index])}: '
                f'{value:.2f}</title></rect>'
            )
        center = x0 + (group_w - gap) / 2
        parts.append(
            f'<text x="{center:.1f}" y="{top + height + 14}" '
            f'text-anchor="middle" font-size="9">{_esc(label)}</text>'
        )
    for s_index, name in enumerate(series):
        y = top + height + 40 + 18 * s_index
        color = _PALETTE[s_index % len(_PALETTE)]
        parts.append(
            f'<rect x="{left}" y="{y - 9}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        parts.append(f'<text x="{left + 18}" y="{y}">{_esc(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


@plot("predictability-by-workload")
def predictability_plot(campaign: CampaignResult) -> str:
    """Mean predicted-node percent: one bar group per workload."""
    series = campaign.variant_names()
    by_workload: dict[str, list[float]] = {
        name: [0.0] * len(series) for name in campaign.spec.workloads
    }
    index = {name: i for i, name in enumerate(series)}
    for variant, name, result in campaign.iter_cells():
        by_workload[name][index[variant.name]] = (
            variant_mean_predictability(result, variant)
        )
    groups = [(_short(name), values)
              for name, values in by_workload.items()]
    return _svg_grouped_bars(
        f"{campaign.spec.name}: mean predicted nodes by workload",
        groups, series, "% nodes predicted",
    )


@plot("branch-accuracy")
def branch_accuracy_plot(campaign: CampaignResult) -> str:
    """Best conditional-branch accuracy per (workload, variant)."""
    series = campaign.variant_names()
    by_workload: dict[str, list[float]] = {
        name: [0.0] * len(series) for name in campaign.spec.workloads
    }
    index = {name: i for i, name in enumerate(series)}
    for variant, name, result in campaign.iter_cells():
        accuracies = [
            branch_accuracy_percent(result, spec)
            for spec in variant.predictors
        ]
        accuracies = [a for a in accuracies if a is not None]
        if accuracies:
            by_workload[name][index[variant.name]] = max(accuracies)
    groups = [(_short(name), values)
              for name, values in by_workload.items()]
    return _svg_grouped_bars(
        f"{campaign.spec.name}: branch accuracy by workload",
        groups, series, "% branches correct",
    )


def _short(name: str) -> str:
    """Compact workload label for plot axes."""
    return name[4:] if name.startswith("gen:") else name
