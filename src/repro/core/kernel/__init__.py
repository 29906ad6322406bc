"""Columnar analysis kernel.

The kernel package is the one analysis path of
:mod:`repro.core.analysis`: the trace is laid out once as flat parallel
columns (:mod:`~repro.core.kernel.columns`), each predictor stream is
replayed by the kernel's one copy of its update rule
(:mod:`~repro.core.kernel.state`, the resumable slices segments also
run), and node/arc classification happens through translate tables
and Counters (:mod:`~repro.core.kernel.engine`) — byte-identical to
the reference loop (:func:`repro.core.analysis.analyze_reference`),
gated ≥3x faster on analyze by ``make bench-smoke`` (BENCH_runner.json).

The kernel runs every config, instruction-reuse tracking included;
the reference loop is only the differential oracle the kernel is
tested against.
"""

from __future__ import annotations

from repro.core.kernel.columns import TraceColumns, as_columns
from repro.core.kernel.engine import analyze_columns_many

__all__ = [
    "TraceColumns",
    "analyze_columns_many",
    "as_columns",
]
