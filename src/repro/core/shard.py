"""Segment-parallel analysis of a single trace.

The columnar engine (:mod:`repro.core.kernel.engine`) analyzes one
trace on one core.  This module splits a *stored* trace into
contiguous **segments** at the checkpoints of its sidecar index:
:func:`prepare_file_segments` plans one :func:`_segment_task` per
segment, the runner schedules them on its :class:`TaskPool` (each
worker decodes only its own record range), and :class:`SegmentMerge`
folds the payloads, in segment order, into an
:class:`~repro.core.stats.AnalysisResult` **byte-identical** to the
serial engine's (enforced by tests/core/test_shard.py, the extended
kernel-parity suite, and the ``segments>1`` fuzz).

What a boundary must carry
--------------------------
Predictors are stateful, so segment ``i`` cannot replay its slice from
scratch.  A :class:`SegmentIndex` checkpoint at record ``r`` carries:

* sparse **state deltas** for every predictor stream (per-bank input
  and output value predictors plus the shared branch predictor) as
  written by :mod:`repro.core.kernel.state` — folding deltas
  ``0..i-1`` reconstructs each table exactly, and the segment resumes
  the very slices the serial engine runs from a fresh state;
* the **arc index** at ``r``, which with ``r`` locates the segment in
  every fixed-width column block of the stored trace
  (:func:`repro.cpu.tracefile.decode_columns`);
* cumulative **per-PC execution counts** before ``r``, so the
  count-so-far write-once classification resumes mid-stream.

Producer state needs no snapshot: the trace format stores producers as
absolute uids, so a segment's arc group keys are correct as decoded,
and the one cross-segment read — arc predictability ``X``, the
producer's output byte — is returned as a patch list the merge applies
once the producer's segment has landed.

Why the merge is exact
----------------------
A segment assembles its bits and tallies with the serial engine's own
functions, and the merge finishes them with the serial engine's
:func:`~repro.core.kernel.engine.bank_result`.  Node/branch/arc class
counts are fixed-size additive tallies.  The order-sensitive exports
(run lengths, path combo counts, tree histograms) are never merged as
Counters: selectors are concatenated and split once, and the
generator-influence walk itself is resumed across segments
(:class:`~repro.core.kernel.engine.ResumableWalk`, the serial engine's
own walk), so every Counter is built in exactly the serial insertion
order.  See docs/sharding.md.
"""

from __future__ import annotations

import pickle
from bisect import bisect_left
from collections import Counter

from repro.core.kernel.engine import (
    _NODE_T,
    ResumableWalk,
    _ones,
    assemble_bits,
    bank_result,
    bank_tallies,
    composites,
    count_analysis,
    fold_arcs,
    merge_tallies,
    use_class_column,
)
from repro.core.kernel.state import (
    fold_deltas,
    new_branch_state,
    new_touched,
    run_branch_slice,
    run_value_slice,
    snapshot_delta,
    value_state_for,
)
from repro.core.stats import AnalysisResult
from repro.cpu.tracefile import decode_columns, read_trace_raw
from repro.errors import ReproError
from repro.obs import get_recorder
from repro.predictors.gshare import GSHARE_BITS

SEGIDX_VERSION = 1
SEGIDX_MAGIC = b"RPRSIDX1"


class ShardError(ReproError):
    """Segment-parallel analysis could not run or a segment failed."""


# ======================================================================
# Segment index (checkpoints).
# ======================================================================

class SegmentIndex:
    """Checkpoints every N records of one trace (see module doc).

    ``bounds[t]`` is the record index of boundary ``t`` (``bounds[0]``
    is 0, ``bounds[-1]`` is ``n_records``); ``arc_bounds[t]`` the arc
    count before it.  ``deltas[t]`` holds the state written by segment
    ``t`` (records ``bounds[t]:bounds[t+1]``) keyed ``{"in": {spec:
    delta}, "out": {spec: delta}, "br": delta}``; the last segment
    needs no delta.  ``counts[t]`` is the sparse per-PC record tally of
    segment ``t``.
    """

    __slots__ = ("n_records", "n_static", "specs", "branch", "bounds",
                 "arc_bounds", "counts", "deltas")

    def __init__(self, n_records, n_static, specs, branch, bounds,
                 arc_bounds, counts, deltas):
        self.n_records = n_records
        self.n_static = n_static
        self.specs = tuple(specs)
        self.branch = tuple(branch)
        self.bounds = list(bounds)
        self.arc_bounds = list(arc_bounds)
        self.counts = counts
        self.deltas = deltas

    # -- compatibility -------------------------------------------------

    def supports(self, config) -> str | None:
        """Why this index cannot serve ``config`` (None = it can)."""
        missing = set(config.predictors) - set(self.specs)
        if missing:
            return (f"predictor {sorted(missing)[0]!r} not in the "
                    f"index's checkpoint family")
        kind = config.branch_predictor
        if kind != self.branch[0]:
            return (f"branch predictor {kind!r} != indexed "
                    f"{self.branch[0]!r}")
        return None

    # -- resume inputs -------------------------------------------------

    def counts_at(self, t: int) -> list:
        """Dense per-PC counts of records before boundary ``t``."""
        dense = [0] * self.n_static
        for part in self.counts[:t]:
            for pc, n in part.items():
                dense[pc] += n
        return dense

    def states_at(self, t: int, specs, br_kind) -> dict:
        """Folded predictor states at boundary ``t`` for ``specs``."""
        states = {
            "in": {spec: value_state_for(spec) for spec in specs},
            "out": {spec: value_state_for(spec) for spec in specs},
            "br": new_branch_state(br_kind),
        }
        for delta in self.deltas[:t]:
            for spec in specs:
                fold_deltas(states["in"][spec], (delta["in"][spec],))
                fold_deltas(states["out"][spec], (delta["out"][spec],))
            fold_deltas(states["br"], (delta["br"],))
        return states

    # -- serialization (the .segidx sidecar) ---------------------------

    def to_bytes(self) -> bytes:
        payload = {
            "n_records": self.n_records, "n_static": self.n_static,
            "specs": self.specs, "branch": self.branch,
            "bounds": self.bounds, "arc_bounds": self.arc_bounds,
            "counts": self.counts, "deltas": self.deltas,
        }
        return (SEGIDX_MAGIC + bytes([SEGIDX_VERSION])
                + pickle.dumps(payload, protocol=4))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SegmentIndex":
        if raw[:8] != SEGIDX_MAGIC:
            raise ShardError("not a segment index (bad magic)")
        if raw[8] != SEGIDX_VERSION:
            raise ShardError(
                f"unsupported segment index version {raw[8]}")
        payload = pickle.loads(raw[9:])
        return cls(payload["n_records"], payload["n_static"],
                   payload["specs"], payload["branch"],
                   payload["bounds"], payload["arc_bounds"],
                   payload["counts"], payload["deltas"])


def default_family(config=None) -> tuple[tuple, tuple]:
    """The (specs, branch) checkpoint family for an index.

    ``None`` means the capture-time default: every default predictor
    spec plus the default branch predictor, so any default-config
    analysis can resume from a stored sidecar.
    """
    from repro.core.analysis import AnalysisConfig

    config = config if config is not None else AnalysisConfig()
    return (tuple(config.predictors), (config.branch_predictor, GSHARE_BITS))


def plan_bounds(m: int, segments: int) -> list[int]:
    """Near-equal record bounds: ``[0, ..., m]``, each segment >= 1
    record (so ``segments > m`` degrades to 1-record segments)."""
    k = max(1, min(segments, m))
    return [i * m // k for i in range(k + 1)]


def build_index(columns, bounds, specs=None, branch=None) -> SegmentIndex:
    """Build checkpoints for ``columns`` at ``bounds``.

    Runs every predictor stream once through the resumable slices of
    :mod:`repro.core.kernel.state`, snapshotting each segment's state
    delta and per-PC record tally at the boundary.  Capture, replay
    backfill and ``cache reindex`` build the default family and persist
    it as the sidecar.
    """
    if specs is None or branch is None:
        d_specs, d_branch = default_family()
        specs = d_specs if specs is None else tuple(specs)
        branch = d_branch if branch is None else tuple(branch)
    else:
        specs = tuple(specs)
        branch = tuple(branch)
    br_kind, br_bits = branch
    m = bounds[-1]
    starts = columns.src_start
    arc_bounds = [starts[r] for r in bounds]
    ov_idx = columns.ov_idx
    br_idx = columns.br_idx
    ov_bounds = [bisect_left(ov_idx, r) for r in bounds]
    br_bounds = [bisect_left(br_idx, r) for r in bounds]
    in_states = {spec: value_state_for(spec) for spec in specs}
    out_states = {spec: value_state_for(spec) for spec in specs}
    br_state = new_branch_state(br_kind)
    sink = bytearray()
    counts: list[dict] = []
    deltas: list[dict] = []
    pcs = columns.pc
    for t in range(len(bounds) - 1):
        r0, r1 = bounds[t], bounds[t + 1]
        a0, a1 = arc_bounds[t], arc_bounds[t + 1]
        o0, o1 = ov_bounds[t], ov_bounds[t + 1]
        b0, b1 = br_bounds[t], br_bounds[t + 1]
        counts.append(dict(Counter(pcs[r0:r1])))
        if t == len(bounds) - 2:
            break  # the last segment's delta is never resumed from
        delta = {"in": {}, "out": {}, "br": None}
        for spec in specs:
            touched = new_touched(in_states[spec])
            run_value_slice(spec, in_states[spec],
                            columns.in_key[a0:a1],
                            columns.src_value[a0:a1], sink, touched)
            delta["in"][spec] = snapshot_delta(in_states[spec], touched)
            touched = new_touched(out_states[spec])
            run_value_slice(spec, out_states[spec],
                            columns.ov_pc[o0:o1],
                            columns.ov_val[o0:o1], sink, touched)
            delta["out"][spec] = snapshot_delta(out_states[spec],
                                                touched)
        touched = new_touched(br_state)
        run_branch_slice(br_kind, br_bits, br_state,
                         columns.br_pc[b0:b1],
                         columns.br_taken[b0:b1], sink, touched)
        delta["br"] = snapshot_delta(br_state, touched)
        deltas.append(delta)
        sink.clear()
    return SegmentIndex(m, columns.n_static, specs, branch, bounds,
                        arc_bounds, counts, deltas)


def select_segments(index: SegmentIndex, m: int, segments: int) -> list:
    """Choose up to ``segments`` cut points from an index for a budget
    of ``m`` records.

    Returns ``[(r0, r1, arc0, t0), ...]`` where ``t0`` is the index
    boundary position of ``r0`` (states/counts are resumed from
    ``t0``).  Fewer segments come back when the index has too few
    usable boundaries below ``m``; one segment means "run serial".
    """
    bounds = index.bounds
    cands = [t for t in range(1, len(bounds) - 1) if 0 < bounds[t] < m]
    k = max(1, min(segments, m))
    picked: set[int] = set()
    for j in range(1, k):
        ideal = j * m / k
        best = None
        best_d = None
        for t in cands:
            if t in picked:
                continue
            d = abs(bounds[t] - ideal)
            if best_d is None or d < best_d:
                best, best_d = t, d
        if best is not None:
            picked.add(best)
    cuts = sorted(picked)
    edges = [(0, 0, 0)] + [(bounds[t], index.arc_bounds[t], t)
                           for t in cuts]
    out = []
    for i, (r0, arc0, t0) in enumerate(edges):
        r1 = edges[i + 1][0] if i + 1 < len(edges) else m
        out.append((r0, r1, arc0, t0))
    return out


# ======================================================================
# Per-segment compute (runs in a TaskPool worker process).
# ======================================================================

def compute_segment(cols, r0: int, states: dict, counts_start, config,
                    profile_counts=None) -> dict:
    """Analyse one segment's local columns into a mergeable payload.

    ``cols`` is a *local* TraceColumns (record 0 = global ``r0``);
    ``states`` the folded predictor states at ``r0``.  The payload
    carries each bank's tallies and bit columns (the serial engine's
    own :func:`~repro.core.kernel.engine.assemble_bits` and
    :func:`~repro.core.kernel.engine.bank_tallies`), plus the
    ``x_patches`` list for arcs whose producer lives in an earlier
    segment (their X bit is unknowable locally).
    """
    m = cols.n_records
    A = cols.src_start[-1]
    specs = config.predictors
    nk = len(specs)

    # --- resumed predictor slices ------------------------------------
    in_hits = []
    out_hits = []
    for spec in specs:
        hits = bytearray()
        run_value_slice(spec, states["in"][spec], cols.in_key,
                        cols.src_value, hits)
        in_hits.append(hits)
        hits = bytearray()
        run_value_slice(spec, states["out"][spec], cols.ov_pc,
                        cols.ov_val, hits)
        out_hits.append(hits)
    br_hits = bytearray()
    run_branch_slice(config.branch_predictor, GSHARE_BITS, states["br"],
                     cols.br_pc, cols.br_taken, br_hits)
    yb, out, union, inter = assemble_bits(cols, in_hits, out_hits,
                                          br_hits, m, A)

    # Per-arc X: the producer's O byte.  Producers inside the segment
    # resolve locally; earlier producers become patches the merge
    # applies once their segment's O column has landed.
    x = bytearray(A)
    x_patches = []
    prods = cols.src_prod
    for j in range(A):
        p = prods[j]
        if p >= r0:
            x[j] = out[p - r0]
        elif p >= 0:
            x_patches.append((j, p))

    # --- per-bank tallies ---------------------------------------------
    y_v = int.from_bytes(yb, "little")
    x_v = int.from_bytes(x, "little")
    ones_a = _ones(A)
    gcol = (
        cols.genclass_so_far(counts_start) if profile_counts is None
        else cols.genclass_profiled(profile_counts)
    )
    banks = []
    for k, comp in enumerate(composites(cols, out, union, inter, m, nk)):
        banks.append({
            "tallies": bank_tallies(comp, cols.op_index, cols.pc),
            "ybk": ((y_v >> k) & ones_a).to_bytes(A, "little"),
            "xbk": bytearray(
                ((x_v >> k) & ones_a).to_bytes(A, "little")),
            "codes": comp.translate(_NODE_T),
        })

    return {
        "r0": r0,
        "n": m,
        "A": A,
        "starts": cols.src_start,
        "prods": prods,
        "out": bytes(out),
        "x_patches": x_patches,
        "gcol": gcol,
        "pc_counts": Counter(cols.pc),
        "d_ids": set(cols.d_ids),
        "d_arcs": len(cols.d_ids),
        "group_key": cols.group_key,
        "banks": banks,
    }


# ======================================================================
# Merge: consume payloads in segment order, finalize to a result.
# ======================================================================

class SegmentMerge:
    """Accumulates segment payloads (in order) into one result."""

    def __init__(self, config, name, n_static, ops,
                 profile_counts=None, static_counts=None):
        self.name = name
        self.n_static = n_static
        self.ops = ops
        self.static_counts = static_counts
        self.specs = config.predictors
        self.m = 0
        self.A = 0
        self.segments = 0
        self.out_global = bytearray()
        self.pc_counts: Counter = Counter()
        self.d_ids: set = set()
        self.d_arcs = 0
        self.group_parts: list = []
        self.banks = [
            {
                "tallies": {},
                "y_parts": [],
                "x_parts": [],
                "walk": ResumableWalk(spec in config.trees_for,
                                      config.gen_cap),
            }
            for spec in self.specs
        ]

    def add(self, payload: dict) -> None:
        if payload["r0"] != self.m:
            raise ShardError(
                f"segment merged out of order: got r0={payload['r0']}, "
                f"expected {self.m}")
        banks = payload["banks"]
        # Resolve cross-segment X bits now: every producer < r0 has
        # already landed in out_global.
        patches = payload["x_patches"]
        if patches:
            out_global = self.out_global
            for j, p in patches:
                ob = out_global[p]
                if ob:
                    for k, bank in enumerate(banks):
                        if (ob >> k) & 1:
                            bank["xbk"][j] = 1
        self.out_global.extend(payload["out"])
        m = payload["n"]
        for acc, bank in zip(self.banks, banks):
            merge_tallies(acc["tallies"], bank["tallies"])
            acc["y_parts"].append(bank["ybk"])
            acc["x_parts"].append(bytes(bank["xbk"]))
            with get_recorder().span("analyze.kernel.paths"):
                acc["walk"].feed(
                    m, payload["starts"], bank["ybk"], bank["xbk"],
                    payload["prods"], payload["gcol"], bank["codes"])
        self.m += m
        self.A += payload["A"]
        self.segments += 1
        self.pc_counts.update(payload["pc_counts"])
        self.d_ids |= payload["d_ids"]
        self.d_arcs += payload["d_arcs"]
        self.group_parts.append(payload["group_key"])

    def finalize(self) -> AnalysisResult:
        n_static = self.n_static
        m, A = self.m, self.A
        if self.static_counts is None:
            final_counts = [0] * n_static
            for pc, n in self.pc_counts.items():
                final_counts[pc] = n
        else:
            final_counts = self.static_counts
        result = AnalysisResult(
            name=self.name,
            nodes=m,
            arcs=A,
            d_nodes=len(self.d_ids),
            d_arcs=self.d_arcs,
            static_instructions=n_static,
            static_counts=list(final_counts),
        )
        preds = [
            bank_result(spec, acc["tallies"], self.ops, n_static)
            for spec, acc in zip(self.specs, self.banks)
        ]

        recorder = get_recorder()
        with recorder.span("analyze.kernel.paths"):
            for pred, acc in zip(preds, self.banks):
                pred.paths, pred.trees = acc["walk"].finalize()
        # Arc fold over the whole trace at once (ArcStats cells are
        # purely additive), through the serial engine's helpers.
        with recorder.span("analyze.kernel.arcs"):
            group_all: list = []
            for part in self.group_parts:
                group_all.extend(part)
            use_v = use_class_column(group_all, final_counts, n_static)
            for pred, acc in zip(preds, self.banks):
                fold_arcs(
                    pred.arcs.counts, use_v,
                    int.from_bytes(b"".join(acc["x_parts"]), "little"),
                    int.from_bytes(b"".join(acc["y_parts"]), "little"),
                    A,
                )
        count_analysis(recorder, self.specs, preds, m, A)
        if recorder.enabled:
            recorder.count("analyze.segments", self.segments)
        for pred in preds:
            result.predictors[pred.kind] = pred
        return result


# ======================================================================
# Stored-trace planning: TaskPool workers decode their own record range,
# the parent merges (and walks) as payloads stream back.
# ======================================================================

def _segment_task(body, header, index, seg, config, profile_counts):
    """Worker entry: decode one record range and analyse it."""
    r0, r1, arc0, t0 = seg
    cols = decode_columns(body, header, r0, r1, arc0)
    states = index.states_at(t0, config.predictors,
                             config.branch_predictor)
    counts_start = index.counts_at(t0)
    return compute_segment(cols, r0, states, counts_start, config,
                           profile_counts)


def prepare_file_segments(path, config, index, segments, name="trace",
                          profile_counts=None, static_counts=None):
    """Plan a stored trace for segment-parallel execution.

    Returns ``(task_args, merge)``: one positional-args tuple per
    segment for :func:`_segment_task` (schedule them on any
    :class:`~repro.runner.pool.TaskPool` — the runner mixes them with
    whole-job tasks) and the :class:`SegmentMerge` to feed payloads in
    segment order.  Raises :class:`ShardError` when the trace cannot
    be segmented (a ``track_reuse`` config, stale/unsupported index,
    budget below the first checkpoint).  Segments never carry
    ``track_reuse``: the runner's configs cannot ask for it, so the
    segment payloads hold no reuse tally.
    """
    if config.track_reuse:
        raise ShardError("track_reuse configs are not segmented")
    header, body = read_trace_raw(path)
    n_records = header["n_records"]
    if index.n_records != n_records:
        raise ShardError(
            f"segment index is stale: indexed {index.n_records} "
            f"records, trace has {n_records}")
    reason = index.supports(config)
    if reason is not None:
        raise ShardError(f"segment index unusable: {reason}")
    m = (n_records if config.max_instructions is None
         else min(config.max_instructions, n_records))
    plan = select_segments(index, m, segments)
    if len(plan) < 2:
        raise ShardError("no usable checkpoint below the budget")
    task_args = [
        (body, header, index, seg, config, profile_counts)
        for seg in plan
    ]
    # ops entries from the header are (op, category_value, has_imm);
    # finalize only reads [0], the op name, so the raw tuples serve.
    merge = SegmentMerge(config, name, max(header["n_static"], 1),
                         [tuple(entry) for entry in header["ops"]],
                         profile_counts, static_counts)
    return task_args, merge

