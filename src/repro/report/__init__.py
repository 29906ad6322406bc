"""Reporting layer: regenerates every table and figure of the paper.

:mod:`repro.report.experiments` holds one function per paper exhibit
(Table 1, Figures 5–13); each returns a :class:`repro.report.tables.Table`
(or several) rendering the same rows/series the paper plots.  The CLI
(``python -m repro report``) runs them from the command line.
"""

from repro.report.experiments import (
    ExperimentConfig,
    critical_points,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    table1,
)
from repro.report.tables import Table

__all__ = [
    "ExperimentConfig",
    "Table",
    "critical_points",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "table1",
]
