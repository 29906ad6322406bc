"""The layer table and the one walker that bills span time to layers:
profiles (``render_profile``), QoS attribution and the runner
benchmark all read :func:`layer_seconds`, so a span belongs to the
same layer everywhere.  Layer names follow perfbench's layers.
"""

from __future__ import annotations

from functools import partial

#: Span-name prefix -> layer.  A span matches a prefix when its name
#: equals it or continues it after a dot; ``shard.*``, ``runner.*``
#: and ``qos.*`` spans stay unclassified.
LAYERS = (
    ("minic.compile", "minic.compile"),
    ("asm.assemble", "asm.assemble"),
    ("simulate", "cpu.sim"),
    ("trace.encode", "tracefile.encode"),
    ("trace.decode", "tracefile.decode"),
    ("analyze", "kernel.analyze"),
    ("store", "store"),
)


def _layer_of(name: str) -> str | None:
    """The layer span ``name`` belongs to (None: unclassified)."""
    for prefix, layer in LAYERS:
        if name == prefix or name.startswith(prefix + "."):
            return layer
    return None


def layer_seconds(spans, wall: float | None = None) -> dict[str, float]:
    """Bill the span forest ``spans`` to layers, in table order.

    Each span's self time (its wall minus its children's, clamped at
    0) goes to the layer of its nearest classified ancestor-or-self.
    ``unattributed`` is ``wall`` (default: the roots' summed wall)
    minus every classified row, never negative.  Only layers present
    in the tree get a row; ``unattributed`` always does.  Children
    merged from pool workers can exceed their parent, so on pool runs
    the rows are busy time and can sum past the wall.
    """
    totals: dict[str, float] = {}

    def walk(span, layer) -> float:
        # A span dict or a span object (a null span has no fields).
        get = span.get if isinstance(span, dict) else partial(getattr, span)
        layer = _layer_of(get("name", "")) or layer
        inner = sum(walk(child, layer) for child in get("children", ()))
        own = get("wall", 0.0)
        if layer is not None:
            totals[layer] = totals.get(layer, 0.0) + max(0.0, own - inner)
        return own

    roots = sum(walk(span, None) for span in spans)
    rows = {layer: totals[layer] for __, layer in LAYERS if layer in totals}
    rows["unattributed"] = max(
        0.0, (roots if wall is None else wall) - sum(rows.values()))
    return rows
