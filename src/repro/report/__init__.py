"""Reporting layer: the paper's exhibits and the table renderer.

:mod:`repro.report.experiments` builds each paper exhibit (Table 1,
Figures 5–13, critical points) from a
:class:`~repro.campaign.engine.CampaignResult`; the campaign's exhibit
registry (:data:`repro.campaign.table_registry`) is how they are run,
by ``python -m repro report`` and by every campaign report.
:class:`repro.report.tables.Table` renders them.
"""

from repro.report.tables import Table

__all__ = ["Table"]
