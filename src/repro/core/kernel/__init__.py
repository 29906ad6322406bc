"""Columnar analysis kernel.

The kernel package is the fast path of :mod:`repro.core.analysis`:
the trace is decoded once into flat parallel columns
(:mod:`~repro.core.kernel.columns`), each predictor stream is replayed
by the kernel's one copy of its update rule
(:mod:`~repro.core.kernel.state`, the resumable slices segments also
run), and node/arc classification happens through translate tables
and Counters (:mod:`~repro.core.kernel.engine`) — byte-identical to
the reference loop (:func:`repro.core.analysis.analyze_reference`),
measured ≥5x faster on the analyze phase (benchmarks/bench_kernel.py).

The kernel runs every config except those :func:`columnar_unsupported`
names a reason for, which run the reference loop instead (counted
under ``analyze.fallback``).  The choice never enters an analysis'
identity, so both paths share the ``repro.runner`` caches.
"""

from __future__ import annotations


def columnar_unsupported(config) -> str | None:
    """Why the columnar kernel cannot run ``config`` (None = it can).

    Two configs are out of scope by design: instruction-reuse tracking
    consumes whole :class:`~repro.cpu.trace.DynInst` records, and more
    than four predictor banks would overflow the kernel's 2-bits-per-
    bank combo byte.
    """
    if config.track_reuse:
        return "track_reuse consumes per-record DynInst state"
    if len(config.predictors) > 4:
        return (
            f"{len(config.predictors)} predictor banks exceed the "
            f"kernel's 4-bank combo byte"
        )
    return None


from repro.core.kernel.columns import TraceColumns, as_columns  # noqa: E402
from repro.core.kernel.engine import (  # noqa: E402
    analyze_columns,
    analyze_columns_many,
)

__all__ = [
    "TraceColumns",
    "analyze_columns",
    "analyze_columns_many",
    "as_columns",
    "columnar_unsupported",
]
