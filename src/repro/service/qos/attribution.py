"""Per-tenant bottleneck attribution: where did the latency go?

The paper treats predictability as a measurable, decomposable
property of a workload; the QoS layer applies the same stance to
service latency — every tenant's wall time is decomposed into named
phases so "tenant X is slow" becomes "tenant X spends 70% of its wall
time queued behind batch work".  The phases (:data:`PHASES`):

* ``queue`` — admitted and waiting for dispatch (plus, for coalesced
  requests, waiting on another tenant's identical in-flight job);
* ``simulate`` / ``analyze`` / ``store`` — the batch's recorded spans,
  billed by the shared walker (:func:`repro.obs.layer_seconds`) and
  folded by :data:`LAYER_PHASES`; each request is billed the full
  batch phase because every batch member genuinely waits for the
  whole batch;
* ``pool`` — the walker's ``unattributed`` row: batch execution not
  covered by a classified span (executor hand-off, runner
  bookkeeping, process-pool overhead).

:class:`TenantAccounting` is the broker-side sink: it keeps an
in-memory rollup (the ``/readyz`` ``qos`` section) and mirrors every
datum into labelled ``qos.*`` counters on the current recorder, which
is what ``/metrics`` exposes and ``repro qos report`` reads back —
from a live server's exposition text or from a metrics/profile JSON
dump (:func:`attribution_from_prometheus` /
:func:`attribution_from_counters`).
"""

from __future__ import annotations

from repro.obs.export import decode_labels, encode_labels, parse_prometheus

__all__ = [
    "LAYER_PHASES",
    "PHASES",
    "TenantAccounting",
    "attribution_from_counters",
    "attribution_from_prometheus",
    "phases_from_layers",
    "render_attribution",
]

#: The named phases every tenant's wall time decomposes into.
PHASES = ("queue", "pool", "simulate", "analyze", "store")

#: ``/metrics`` family name -> logical counter, for reading a live
#: server's exposition text back into a report.
_PROM_FAMILIES = {
    "repro_qos_requests_total": "qos.requests",
    "repro_qos_served_total": "qos.served",
    "repro_qos_shed_total": "qos.shed",
    "repro_qos_request_seconds_total": "qos.request_seconds",
    "repro_qos_phase_seconds_total": "qos.phase_seconds",
}

#: The phase each :mod:`repro.obs.layers` row is billed to.
LAYER_PHASES = {
    "minic.compile": "simulate", "asm.assemble": "simulate",
    "cpu.sim": "simulate", "kernel.analyze": "analyze",
    "tracefile.encode": "store", "tracefile.decode": "store",
    "store": "store", "unattributed": "pool",
}


def phases_from_layers(layers: dict[str, float]) -> dict[str, float]:
    """Fold one batch's :func:`repro.obs.layer_seconds` rows (taken
    with the batch's measured wall) into :data:`PHASES`."""
    phases: dict[str, float] = {}
    for layer, seconds in layers.items():
        phase = LAYER_PHASES[layer]
        phases[phase] = phases.get(phase, 0.0) + seconds
    return phases


class TenantAccounting:
    """The broker's per-tenant rollup plus labelled-counter mirror.

    Runs on the event-loop thread only (like the queue it annotates);
    the recorder it mirrors into is itself thread-safe.
    """

    def __init__(self):
        self._tenants: dict[str, dict] = {}

    def _bucket(self, tenant: str) -> dict:
        bucket = self._tenants.get(tenant)
        if bucket is None:
            bucket = self._tenants[tenant] = {
                "requests": 0,
                "served": {},
                "shed": {},
                "wall_seconds": 0.0,
                "phases": {},
            }
        return bucket

    def record(self, tenant: str, status: str, wall: float,
               phases: dict[str, float], recorder) -> None:
        """Bill one answered request: status, wall time, phase split."""
        bucket = self._bucket(tenant)
        bucket["requests"] += 1
        bucket["served"][status] = bucket["served"].get(status, 0) + 1
        bucket["wall_seconds"] += wall
        recorder.count("qos.requests", 1, labels={"tenant": tenant})
        recorder.count("qos.served", 1,
                       labels={"tenant": tenant, "status": status})
        recorder.count("qos.request_seconds", wall,
                       labels={"tenant": tenant})
        for phase, seconds in phases.items():
            if seconds <= 0.0:
                continue
            bucket["phases"][phase] = (
                bucket["phases"].get(phase, 0.0) + seconds
            )
            recorder.count("qos.phase_seconds", seconds,
                           labels={"tenant": tenant, "phase": phase})

    def record_shed(self, tenant: str, reason: str, recorder) -> None:
        """Bill one refused request (``rate``/``inflight``/``backpressure``)."""
        bucket = self._bucket(tenant)
        bucket["shed"][reason] = bucket["shed"].get(reason, 0) + 1
        recorder.count("qos.shed", 1,
                       labels={"tenant": tenant, "reason": reason})

    def snapshot(self) -> dict:
        """JSON-safe per-tenant rollup (the ``/readyz`` ``qos`` body)."""
        view = {}
        for tenant, bucket in sorted(self._tenants.items()):
            view[tenant] = {
                "requests": bucket["requests"],
                "served": dict(sorted(bucket["served"].items())),
                "shed": dict(sorted(bucket["shed"].items())),
                "wall_seconds": round(bucket["wall_seconds"], 4),
                "phases": {name: round(seconds, 4)
                           for name, seconds
                           in sorted(bucket["phases"].items())},
            }
        return view


# ----------------------------------------------------------------------
# The report: counters -> per-tenant bottleneck table.
# ----------------------------------------------------------------------

def attribution_from_counters(counters: dict) -> dict:
    """Build the attribution report from a profile's counter dict.

    Accepts any counter mapping that contains the labelled ``qos.*``
    counters (a recorder snapshot, a metrics JSON's profile section);
    everything else is ignored.
    """
    tenants: dict[str, dict] = {}

    def bucket(tenant: str) -> dict:
        return tenants.setdefault(tenant, {
            "requests": 0, "served": {}, "shed": {},
            "wall_seconds": 0.0, "phases": {},
        })

    for name, value in counters.items():
        base, labels = decode_labels(name)
        tenant = labels.get("tenant")
        if tenant is None or not base.startswith("qos."):
            continue
        entry = bucket(tenant)
        if base == "qos.requests":
            entry["requests"] += int(value)
        elif base == "qos.served":
            status = labels.get("status", "?")
            entry["served"][status] = (
                entry["served"].get(status, 0) + int(value)
            )
        elif base == "qos.shed":
            reason = labels.get("reason", "?")
            entry["shed"][reason] = entry["shed"].get(reason, 0) + int(value)
        elif base == "qos.request_seconds":
            entry["wall_seconds"] += float(value)
        elif base == "qos.phase_seconds":
            phase = labels.get("phase", "?")
            entry["phases"][phase] = (
                entry["phases"].get(phase, 0.0) + float(value)
            )
    return _finish(tenants)


def attribution_from_prometheus(text: str) -> dict:
    """Build the report from ``GET /metrics`` exposition text."""
    counters: dict[str, float] = {}
    for family, labels, value in parse_prometheus(text):
        logical = _PROM_FAMILIES.get(family)
        if logical is None:
            continue
        name = encode_labels(logical, labels)
        counters[name] = counters.get(name, 0.0) + value
    return attribution_from_counters(counters)


def _finish(tenants: dict) -> dict:
    for entry in tenants.values():
        attributed = sum(entry["phases"].values())
        wall = entry["wall_seconds"]
        entry["attributed_seconds"] = attributed
        entry["coverage"] = (attributed / wall) if wall > 0 else 1.0
        entry["bottleneck"] = (
            max(entry["phases"], key=entry["phases"].get)
            if entry["phases"] else None
        )
    return {"tenants": dict(sorted(tenants.items()))}


def render_attribution(report: dict) -> str:
    """The human table behind ``python -m repro qos report``."""
    tenants = report.get("tenants", {})
    if not tenants:
        return "(no qos.* counters recorded — is a QoS policy active?)"
    header = (f"{'tenant':<16} {'req':>6} {'shed':>5} {'wall':>9} "
              + "".join(f"{phase + '%':>10}" for phase in PHASES)
              + f" {'cover%':>8}  bottleneck")
    lines = [header, "-" * len(header)]
    for tenant, entry in tenants.items():
        wall = entry["wall_seconds"]
        shed = sum(entry["shed"].values())

        def pct(phase: str) -> str:
            if wall <= 0:
                return f"{'-':>10}"
            return f"{100.0 * entry['phases'].get(phase, 0.0) / wall:>9.1f}%"

        lines.append(
            f"{tenant:<16} {entry['requests']:>6} {shed:>5} "
            f"{wall:>8.2f}s "
            + "".join(pct(phase) for phase in PHASES)
            + f" {100.0 * entry['coverage']:>7.1f}%  "
            + (entry["bottleneck"] or "-")
        )
    return "\n".join(lines)
