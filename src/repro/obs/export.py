"""Profile exporters and renderers.

A *profile* is the JSON-safe dict a :class:`repro.obs.Recorder`
snapshot produces::

    {"counters": {...}, "gauges": {...}, "spans": [<span tree>, ...]}

Three output forms:

* **JSON-lines events** (:func:`to_jsonl` / :func:`from_jsonl`) — one
  event object per line (counters, gauges, then spans in pre-order
  with an explicit ``depth``), loss-free in both directions so a
  profile can be shipped through a log pipeline and reconstructed;
* **Prometheus text** (:func:`to_prometheus`) — valid exposition
  format (text format 0.0.4, what ``GET /metrics`` must serve to be
  scrapeable): counters and gauges as ``repro_<name>`` samples with
  dots sanitised to underscores and ``# HELP``/``# TYPE`` lines per
  family, span time aggregated per span name into
  ``repro_span_wall_seconds`` / ``repro_span_cpu_seconds`` /
  ``repro_span_calls`` with an escaped ``{span="..."}`` label;
* **human text** (:func:`render_profile`) — the span tree with
  sibling spans of the same name aggregated, the layer table
  (:func:`repro.obs.layers.layer_seconds`), then the counter table;
  what ``python -m repro stats`` and ``--profile`` print.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.obs.layers import layer_seconds

#: Event-stream schema version (the ``meta`` line of a JSONL export).
EVENTS_VERSION = 1

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")

#: A counter/gauge name carrying encoded labels: ``base{k="v",...}``.
_LABELED_NAME = re.compile(r"^(?P<base>[^{]+)\{(?P<labels>.*)\}$")
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_.]*)="((?:[^"\\]|\\.)*)"')


# ----------------------------------------------------------------------
# Labelled metric names.
# ----------------------------------------------------------------------

def encode_labels(name: str, labels: dict | None = None) -> str:
    """Fold ``labels`` into a canonical metric name.

    ``encode_labels("qos.requests", {"tenant": "alice"})`` →
    ``'qos.requests{tenant="alice"}'``.  Keys are sorted and values
    escaped, so equal label sets always produce the same string — the
    recorder stores labelled counters under these names directly,
    which keeps the JSONL round trip free (labelled names are opaque
    there) while :func:`to_prometheus` splits them back into
    per-family samples.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_prom_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


def decode_labels(name: str) -> tuple[str, dict]:
    """Inverse of :func:`encode_labels`: ``(base name, labels)``.

    Unlabelled names come back untouched with an empty dict.
    """
    match = _LABELED_NAME.match(name)
    if match is None:
        return name, {}
    labels = {
        key: _prom_unescape(value)
        for key, value in _LABEL_PAIR.findall(match["labels"])
    }
    return match["base"], labels


def _prom_unescape(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# ----------------------------------------------------------------------
# JSON-lines events.
# ----------------------------------------------------------------------

def iter_events(profile: dict):
    """Yield the profile as JSON-safe event dicts (see :func:`to_jsonl`)."""
    yield {"type": "meta", "version": EVENTS_VERSION}
    for name, value in profile.get("counters", {}).items():
        yield {"type": "counter", "name": name, "value": value}
    for name, value in profile.get("gauges", {}).items():
        yield {"type": "gauge", "name": name, "value": value}

    def walk(span: dict, depth: int):
        yield {
            "type": "span",
            "name": span["name"],
            "depth": depth,
            "wall": span.get("wall", 0.0),
            "cpu": span.get("cpu", 0.0),
        }
        for child in span.get("children", ()):
            yield from walk(child, depth + 1)

    for root in profile.get("spans", ()):
        yield from walk(root, 0)


def to_jsonl(profile: dict) -> str:
    """Serialise ``profile`` as one JSON event per line."""
    return "\n".join(
        json.dumps(event, sort_keys=True) for event in iter_events(profile)
    ) + "\n"


def from_jsonl(text: str) -> dict:
    """Rebuild a profile dict from :func:`to_jsonl` output.

    Exact inverse for any profile produced by a recorder snapshot:
    counters, gauges and the full span tree (reconstructed from the
    pre-order ``depth`` fields) survive the round trip.
    """
    profile: dict = {"counters": {}, "gauges": {}, "spans": []}
    stack: list[dict] = []  # open spans by depth
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        event = json.loads(line)
        kind = event.get("type")
        if kind == "counter":
            name = event["name"]
            profile["counters"][name] = (
                profile["counters"].get(name, 0) + event["value"]
            )
        elif kind == "gauge":
            profile["gauges"][event["name"]] = event["value"]
        elif kind == "span":
            span = {
                "name": event["name"],
                "wall": event.get("wall", 0.0),
                "cpu": event.get("cpu", 0.0),
                "children": [],
            }
            depth = event.get("depth", 0)
            del stack[depth:]
            if depth == 0:
                profile["spans"].append(span)
            else:
                stack[depth - 1]["children"].append(span)
            stack.append(span)
    return profile


def write_jsonl(profile: dict, path, append: bool = True) -> Path:
    """Write (or append) the profile's event stream to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a" if append else "w") as handle:
        handle.write(to_jsonl(profile))
    return path


# ----------------------------------------------------------------------
# Prometheus-style text.
# ----------------------------------------------------------------------

def _prom_name(name: str) -> str:
    """Sanitise a dotted counter/gauge name into a valid metric name.

    Dots (the obs namespace separator) and every other character
    outside ``[a-zA-Z0-9_]`` become underscores; the ``repro_`` prefix
    guarantees the result never starts with a digit.
    """
    return "repro_" + _PROM_BAD.sub("_", name)


def _prom_label(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _prom_value(value) -> str:
    """Render a sample value (integers stay integral)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def aggregate_spans(spans, totals: dict | None = None) -> dict:
    """Flatten a span forest into ``name -> {wall, cpu, calls}``.

    Every span in the tree contributes to its own name's bucket;
    nesting is preserved elsewhere (this is the exporter view, where a
    flat per-name total is what a scraper wants).
    """
    if totals is None:
        totals = {}
    for span in spans:
        bucket = totals.setdefault(
            span["name"], {"wall": 0.0, "cpu": 0.0, "calls": 0}
        )
        bucket["wall"] += span.get("wall", 0.0)
        bucket["cpu"] += span.get("cpu", 0.0)
        bucket["calls"] += 1
        aggregate_spans(span.get("children", ()), totals)
    return totals


def to_prometheus(profile: dict) -> str:
    """Render the profile in Prometheus exposition format.

    Scrapeable text format 0.0.4: every metric family gets one
    ``# HELP`` and one ``# TYPE`` line, names are sanitised (dots →
    underscores), families are sorted, and label values are escaped.
    """
    lines: list[str] = []

    def family(metric: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} {kind}")

    def emit_registry(registry: dict, kind: str, suffix: str) -> None:
        # Group labelled names (``base{k="v"}``) into one family each:
        # HELP/TYPE once, then every label set as its own sample.
        families: dict[str, list[tuple[str, object]]] = {}
        bases: dict[str, str] = {}
        for name, value in registry.items():
            base, labels = decode_labels(name)
            metric = _prom_name(base) + suffix
            labelled = ""
            if labels:
                labelled = "{" + ",".join(
                    f'{_PROM_BAD.sub("_", key)}="{_prom_label(str(val))}"'
                    for key, val in sorted(labels.items())
                ) + "}"
            families.setdefault(metric, []).append((labelled, value))
            bases.setdefault(metric, base)
        for metric in sorted(families):
            family(metric, kind,
                   f"repro.obs {kind} {_prom_label(bases[metric])}.")
            for labelled, value in sorted(families[metric]):
                lines.append(f"{metric}{labelled} {_prom_value(value)}")

    emit_registry(profile.get("counters", {}), "counter", "_total")
    emit_registry(profile.get("gauges", {}), "gauge", "")
    totals = aggregate_spans(profile.get("spans", ()))
    if totals:
        span_families = (
            ("repro_span_wall_seconds", "Wall-clock seconds per span name.",
             lambda b: f"{b['wall']:.6f}"),
            ("repro_span_cpu_seconds", "CPU seconds per span name.",
             lambda b: f"{b['cpu']:.6f}"),
            ("repro_span_calls", "Times each span name was entered.",
             lambda b: str(b["calls"])),
        )
        for metric, help_text, render in span_families:
            family(metric, "gauge", help_text)
            for name, bucket in sorted(totals.items()):
                lines.append(
                    f'{metric}{{span="{_prom_label(name)}"}} '
                    f"{render(bucket)}"
                )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str):
    """Parse exposition text into ``(family, labels, value)`` samples.

    The inverse, at the sample level, of :func:`to_prometheus` — what
    ``repro qos report`` uses to read a live server's ``/metrics``
    back.  Comment/HELP/TYPE lines and malformed samples are skipped;
    family names stay in their sanitised wire form (reconstructing
    dotted names from underscores would be ambiguous).
    """
    samples = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, __, tail = line.rpartition(" ")
        if not head:
            continue
        try:
            value = float(tail)
        except ValueError:
            continue
        base, labels = decode_labels(head)
        samples.append((base, labels, value))
    return samples


# ----------------------------------------------------------------------
# Human rendering.
# ----------------------------------------------------------------------

def _merge_siblings(spans) -> list[dict]:
    """Aggregate same-named siblings (recursively) for display."""
    merged: dict[str, dict] = {}
    for span in spans:
        bucket = merged.setdefault(span["name"], {
            "name": span["name"], "wall": 0.0, "cpu": 0.0, "calls": 0,
            "children": [],
        })
        bucket["wall"] += span.get("wall", 0.0)
        bucket["cpu"] += span.get("cpu", 0.0)
        bucket["calls"] += 1
        bucket["children"].extend(span.get("children", ()))
    for bucket in merged.values():
        bucket["children"] = _merge_siblings(bucket["children"])
    return list(merged.values())


def render_profile(profile: dict, max_counters: int | None = None) -> str:
    """Human-readable profile: span tree, layer table (shares of the
    roots' wall), then the counter and gauge tables."""
    lines: list[str] = []
    merged = _merge_siblings(profile.get("spans", ()))
    if merged:
        lines.append(f"{'span':<42} {'calls':>6} {'wall':>10} {'cpu':>10}")
        lines.append("-" * 71)

        def emit(buckets, depth):
            for bucket in buckets:
                label = "  " * depth + bucket["name"]
                lines.append(
                    f"{label:<42} {bucket['calls']:>6} "
                    f"{bucket['wall']:>9.3f}s {bucket['cpu']:>9.3f}s"
                )
                emit(bucket["children"], depth + 1)

        emit(merged, 0)
        wall = sum(span.get("wall", 0.0) for span in profile["spans"])
        lines.append("")
        lines.append(f"{'layer':<42} {'wall':>17} {'share':>10}")
        lines.append("-" * 71)
        for layer, seconds in layer_seconds(profile["spans"]).items():
            share = f"{100.0 * seconds / wall:.1f}%" if wall > 0 else "-"
            lines.append(f"{layer:<42} {seconds:>16.3f}s {share:>10}")
    counters = profile.get("counters", {})
    if counters:
        if lines:
            lines.append("")
        lines.append(f"{'counter':<48} {'value':>15}")
        lines.append("-" * 64)
        items = sorted(counters.items())
        if max_counters is not None:
            items = items[:max_counters]
        for name, value in items:
            lines.append(f"{name:<48} {value:>15,}")
    gauges = profile.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append(f"{'gauge':<48} {'value':>15}")
        lines.append("-" * 64)
        for name, value in sorted(gauges.items()):
            lines.append(f"{name:<48} {value:>15}")
    if not lines:
        return "(empty profile)"
    return "\n".join(lines)
