"""repro.obs — observability: spans, counters and profiling hooks.

The instrumentation layer every other subsystem reports into:

* the **recorder** (:mod:`repro.obs.recorder`) — a hierarchical span
  timer (wall + CPU) plus a counter/gauge registry, with a process-wide
  *current recorder* that defaults to a no-op implementation so the
  instrumented hot paths cost nothing when observation is off;
* the **exporters** (:mod:`repro.obs.export`) — JSON-lines event logs,
  Prometheus-style text dumps, and the human rendering used by
  ``python -m repro stats`` and the ``--profile`` CLI flag.

Instrumented layers (see docs/observability.md for the span/counter
catalogue): compiler (``minic.*``, ``asm.*``), simulator, trace
codec, analyzer, stores, pool and runner; :mod:`repro.obs.layers`
maps span names to layers once, for every profile and attribution.

Enable observation through the facade::

    from repro import api
    api.configure(observe=True)
    result = api.run_workload("com")
    print(result.profile["counters"]["sim.instructions"])

or scoped, library-style::

    from repro.obs import Recorder, recording

    with recording(Recorder()) as rec:
        api.analyze(source)
    print(rec.snapshot())
"""

from repro.obs.export import (
    aggregate_spans,
    decode_labels,
    encode_labels,
    from_jsonl,
    iter_events,
    parse_prometheus,
    render_profile,
    to_jsonl,
    to_prometheus,
    write_jsonl,
)
from repro.obs.layers import LAYERS, layer_seconds
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    ObsConfig,
    Recorder,
    Span,
    get_recorder,
    recording,
    set_recorder,
    spanned,
)

__all__ = [
    "LAYERS",
    "NULL_RECORDER",
    "NullRecorder",
    "ObsConfig",
    "Recorder",
    "Span",
    "aggregate_spans",
    "decode_labels",
    "encode_labels",
    "from_jsonl",
    "get_recorder",
    "iter_events",
    "layer_seconds",
    "parse_prometheus",
    "recording",
    "render_profile",
    "set_recorder",
    "spanned",
    "to_jsonl",
    "to_prometheus",
    "write_jsonl",
]
