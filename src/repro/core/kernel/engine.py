"""The columnar analysis engine.

Produces, for one :class:`~repro.core.kernel.columns.TraceColumns`
object and any :class:`~repro.core.analysis.AnalysisConfig`, an
:class:`~repro.core.stats.AnalysisResult` whose ``result_to_dict``
export is byte-identical to the reference analyzer's — the differential
suite in tests/core/test_kernel_parity.py enforces this for every
fixed workload and a fuzzed ``gen:`` grid.

The work is organised as batched passes instead of per-record dispatch:

1. **bank passes** — each predictor bank's hit stream is one
   :mod:`repro.core.kernel.state` slice per (spec, tier), replayed
   from a fresh state (segments resume the same slices from a
   checkpoint), cached on the columns object and shared across
   configs and budgets (:func:`analyze_columns_many` runs each at the
   largest budget the call needs, before any config);
2. **bit assembly** — per-bank hit streams are combined into per-arc
   ``Y`` and per-record ``O``/``U``/``I``/``X`` byte columns with
   big-integer bitwise arithmetic (each byte holds one element's
   per-bank bits, so shifts below 8 never carry across elements;
   :func:`assemble_bits`, shared with the segments).  The serial
   engine assembles once per branch predictor over every spec of the
   call (up to 8 per assembly, one lane each) and each bank reads its
   spec's lane, whatever tuple holds it (:func:`_assemble`);
3. **classification** — a composite byte per (record, bank) encoding
   (has_p, has_n, has_imm, out_p, has_out, is_branch, has_src) is
   mapped through precomputed 256-entry ``bytes.translate`` tables and
   tallied with ``collections.Counter`` at C speed
   (:func:`bank_tallies`, then :func:`bank_result`; a segment runs the
   first and the merge the second, and the serial engine tallies each
   bank's records once per call, merging budget ranges in ascending
   order, :func:`_run_banks`); run-length stats come from
   splitting the translated selector on zero bytes, which visits runs
   in stream order so Counter insertion order (part of the export
   contract) matches the streaming trackers;
4. **paths** — the generator-influence walk is inherently sequential
   (each value's influence feeds its consumers'), so it remains a
   Python loop (:class:`ResumableWalk`, shared with the segment
   merge), but one that touches only predicted arcs and reads
   precomputed byte columns instead of driving five predictors.  Tree
   tracking carries interned influence sets: a record stores a set id,
   an element counts against its set's row in O(1), and each snapshot
   expands the rows counted since the last one into per-generate
   depth and aggregate size.  The walk's inputs are prefix-closed, so
   one walk per (spec, branch predictor, tracked, ``gen_cap``) runs
   per call, to the largest budget asked of it, with a snapshot at
   each smaller one; untracked banks read a tracked walk of their
   spec when one reaches their budget (:func:`_run_walks`);
5. **arcs** — a per-budget use-class byte column packed with each
   bank's X and Y bits turns the 4x4 ``ArcStats`` table into sixteen
   ``bytes.count`` calls;
6. **reuse** — a ``track_reuse`` config feeds its eligible records,
   with the first bank's fully-predicted selector, through the one
   :class:`~repro.core.reuse.ReuseTracker` rule (:func:`_reuse_stats`).

Everything is stdlib-only; see docs/kernel.md for the full layout.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import replace
from itertools import compress, count, islice, repeat

from repro.core.arcs import ArcGroupTable
from repro.core.events import InKind, _KIND_TABLE
from repro.core.paths import _MASK_BITS
from repro.core.reuse import ReuseStats, ReuseTracker
from repro.core.stats import (
    AnalysisResult,
    BranchStats,
    NodeStats,
    PathStats,
    PredictorResult,
    SequenceStats,
    TreeStats,
)
from repro.core.unpred import CriticalPoints
from repro.isa.opcodes import Category
from repro.obs import get_recorder
from repro.predictors.gshare import GSHARE_BITS

# ----------------------------------------------------------------------
# Composite-byte layout: one byte per (record, bank) holding every flag
# node classification needs.  hn is derived from the intersection
# column (``I`` stores the full mask for 0-source records, mirroring
# the reference's ``inter_y`` initialisation), so ``not hn`` is exactly
# "all sources predicted or no sources".
# ----------------------------------------------------------------------

_HP = 0x01   # union bit: >= 1 correctly predicted data input
_HN = 0x02   # >= 1 incorrectly predicted data input
_HI = 0x04   # has an immediate input
_OP = 0x08   # output predicted (this bank's out bit)
_HO = 0x10   # has a classifiable output
_BR = 0x20   # conditional branch
_HS = 0x40   # has data sources

_NO_OUTPUT = 12  # node code for "no classifiable output"


def _build_tables():
    node = bytearray(256)
    branch = bytearray(256)
    seq = bytearray(256)
    unpred = bytearray(256)
    miss = bytearray(256)
    term = bytearray(256)
    for v in range(128):
        hp = v & _HP
        hn = v & _HN
        hi = v & _HI
        op = v & _OP
        ho = v & _HO
        br = v & _BR
        hs = v & _HS
        kind = _KIND_TABLE[
            (4 if hp else 0) | (2 if hn else 0) | (1 if hi else 0)
        ]
        code = kind * 2 + (1 if op else 0)
        node[v] = code if ho else _NO_OUTPUT
        branch[v] = code if br else _NO_OUTPUT
        # Fully predicted: every source predicted (or none) and the
        # output predicted (or absent).
        seq[v] = 1 if not hn and (not ho or op) else 0
        # Fully mispredicted: no predicted source, no predicted
        # output, and at least one actual prediction made.
        unpred[v] = 1 if (not hp and not (op and ho)
                          and (hs or ho)) else 0
        miss[v] = 1 if ho and not op else 0
        term[v] = 1 if ho and not op and hp else 0
    return (bytes(node), bytes(branch), bytes(seq), bytes(unpred),
            bytes(miss), bytes(term))


(_NODE_T, _BRANCH_T, _SEQ_T, _UNPRED_T, _MISS_T, _TERM_T) = _build_tables()

#: node kind -> GenClass when a generate node (paths.NODE_GEN_CLASS).
_NODE_GC = {int(InKind.II): 3, int(InKind.NN): 4, int(InKind.IN): 5}


# ----------------------------------------------------------------------
# Bit assembly: per-bank hit streams -> Y/O/U/I byte columns, shared by
# the serial engine (one assembly per branch predictor over every spec
# of the call, cut into per-spec lanes by _assemble) and by each segment
# (repro.core.shard).  Each caller adds its own X step: X is the
# producer's O byte, and only the serial engine has every producer's O
# byte at hand.
# ----------------------------------------------------------------------

def _ones(n: int) -> int:
    return int.from_bytes(b"\x01" * n, "little") if n else 0


def assemble_bits(columns, in_hits, out_hits, br_hits, m, A):
    """Combine hit streams into ``(yb, out, union, inter)`` over the
    first ``m`` records and ``A`` arcs.

    ``in_hits`` and ``out_hits`` hold one stream per bank (over the arcs
    and the ``ov_idx`` subset), ``br_hits`` the direction predictor's
    (over ``br_idx``); any of them may run past the budget.
    """
    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("analyze.assemble.calls", 1)
    nk = len(in_hits)
    full_mask = (1 << nk) - 1
    # Per-arc Y: each arc's byte holds every bank's input-hit bit.
    y_int = 0
    for k, hits in enumerate(in_hits):
        y_int |= int.from_bytes(memoryview(hits)[:A], "little") << k
    yb = y_int.to_bytes(A, "little")
    # Per-record O: the reference's out_flags byte stream.
    out = bytearray(m)
    br_idx = columns.br_idx
    br_cnt = bisect_left(br_idx, m)
    if br_cnt and full_mask:
        for i, hit in zip(br_idx, memoryview(br_hits)[:br_cnt]):
            if hit:
                out[i] = full_mask
    ov_idx = columns.ov_idx
    ov_cnt = bisect_left(ov_idx, m)
    if ov_cnt and nk:
        o_int = 0
        for k, hits in enumerate(out_hits):
            o_int |= int.from_bytes(
                memoryview(hits)[:ov_cnt], "little"
            ) << k
        for i, value in zip(ov_idx, o_int.to_bytes(ov_cnt, "little")):
            if value:
                out[i] = value
    for i, arc in zip(columns.pt_idx, columns.pt_arc):
        if i >= m:
            break
        value = yb[arc]
        if value:
            out[i] = value
    # Per-record U (union) and I (intersection; full mask when the
    # record has no sources) folds over the record's arcs.
    union = bytearray(m)
    inter = bytearray(m)
    starts = columns.src_start
    a = 0
    for r in range(m):
        b = starts[r + 1]
        if b == a:
            inter[r] = full_mask
        else:
            u = yb[a]
            i_ = u
            for j in range(a + 1, b):
                v = yb[j]
                u |= v
                i_ &= v
            union[r] = u
            inter[r] = i_
        a = b
    return yb, out, union, inter


#: Banks one assembly holds: each byte carries one bit (lane) per bank.
_LANES = 8


def _assemble(columns, specs, br_kind, m) -> dict:
    """Each spec's bit lanes under one branch predictor, over at least
    the first ``m`` records: ``{spec: {"y", "x", "comp"}}`` (``specs``
    without repeats).

    A bank's Y/O/U/I/X bits depend only on its spec and the branch
    predictor, never on the tuple holding it, and are prefix-closed.
    So one :func:`assemble_bits` call per group of at most ``_LANES``
    specs, at the largest budget, serves every tuple and budget: each
    spec reads its own lane (shift and mask) as ``y`` and ``x`` (0/1
    per arc) and ``comp``, its composite byte per record.  Cached on
    the columns object per branch predictor; a larger budget rebuilds
    the lanes it is asked for.
    """
    key = ("lanes", br_kind)
    entry = columns._pred_cache.get(key)
    if entry is None or entry["m"] < m:
        entry = {"m": m, "lanes": {}}
        columns._pred_cache[key] = entry
    lanes = entry["lanes"]
    todo = [spec for spec in specs if spec not in lanes]
    if not todo:
        return lanes
    m = entry["m"]
    A = columns.src_start[m]
    ov_cnt = bisect_left(columns.ov_idx, m)
    br_hits = columns.branch_hits(br_kind, GSHARE_BITS,
                                  bisect_left(columns.br_idx, m))
    ones_a = _ones(A)
    for g in range(0, len(todo), _LANES):
        group = todo[g:g + _LANES]
        yb, out, union, inter = assemble_bits(
            columns,
            [columns.input_hits(spec, A) for spec in group],
            [columns.output_hits(spec, ov_cnt) for spec in group],
            br_hits, m, A,
        )
        # Per-arc X: the producer's O byte.  D arcs have producer -1,
        # which reads the zero byte padded onto the end of O.
        padded_out = bytes(out) + b"\x00"
        x = bytes(map(padded_out.__getitem__, islice(columns.src_prod, A)))
        y_v = int.from_bytes(yb, "little")
        x_v = int.from_bytes(x, "little")
        comps = composites(columns, out, union, inter, m, len(group))
        for lane, (spec, comp) in enumerate(zip(group, comps)):
            lanes[spec] = {
                "y": ((y_v >> lane) & ones_a).to_bytes(A, "little"),
                "x": ((x_v >> lane) & ones_a).to_bytes(A, "little"),
                "comp": comp,
            }
    return lanes


def _comp_base(columns, m):
    """Bank-independent composite bits (him | ho | br | hs), cached."""
    cached = columns._pred_cache.get("comp_base")
    if cached is None:
        n = columns.n_records
        base = (
            (int.from_bytes(columns.has_imm, "little") << 2)
            | (int.from_bytes(columns.has_out, "little") << 4)
            | (int.from_bytes(columns.is_branch, "little") << 5)
            | (int.from_bytes(columns.has_src, "little") << 6)
        )
        cached = base.to_bytes(n, "little") if n else b""
        columns._pred_cache["comp_base"] = cached
    return cached[:m]


def composites(columns, out, union, inter, m, nk) -> list[bytes]:
    """One composite byte column per bank over the first ``m`` records
    (layout at the top of this module)."""
    ones = _ones(m)
    base_v = int.from_bytes(_comp_base(columns, m), "little")
    out_v = int.from_bytes(out, "little")
    union_v = int.from_bytes(union, "little")
    inter_v = int.from_bytes(inter, "little")
    comps = []
    for k in range(nk):
        hp = (union_v >> k) & ones
        hn = ((inter_v >> k) & ones) ^ ones
        op = (out_v >> k) & ones
        comps.append(
            (base_v | hp | (hn << 1) | (op << 3)).to_bytes(m, "little")
        )
    return comps


# ----------------------------------------------------------------------
# Run-length tallies: split the 0/1 selector on zero bytes; parts
# arrive in stream order, so Counter insertion order matches the
# streaming trackers' first-seen order (an export contract).
# ----------------------------------------------------------------------

def _run_lengths(selector: bytes) -> SequenceStats:
    stats = SequenceStats()
    stats.lengths.update(
        len(part) for part in selector.split(b"\x00") if part
    )
    return stats


# ----------------------------------------------------------------------
# Bank tallies: a bank's composite bytes -> additive tallies -> its
# PredictorResult.  The serial engine tallies the budget ranges of a
# call in ascending order and runs the second step at each budget; a
# segment runs the first, and the merge folds segments' tallies in
# stream order (merge_tallies) before running the second.
# ----------------------------------------------------------------------

def bank_tallies(comp: bytes, op_col, pcs) -> dict:
    """Node/ops/branch/seq/unpred/miss/term tallies of one bank's
    composite bytes (``op_col`` and ``pcs`` may run past them)."""
    node_codes = comp.translate(_NODE_T)
    return {
        "node": Counter(node_codes),
        "ops": Counter(zip(node_codes, op_col)),
        "branch": Counter(comp.translate(_BRANCH_T)),
        "seq": comp.translate(_SEQ_T),
        "unpred": comp.translate(_UNPRED_T),
        "miss": Counter(compress(pcs, comp.translate(_MISS_T))),
        "term": Counter(compress(pcs, comp.translate(_TERM_T))),
    }


def merge_tallies(total: dict, part: dict) -> None:
    """Fold the next span's tallies into ``total``: Counters add (first
    occurrence order survives ``Counter.update``), selectors
    concatenate (run lengths are split once, in :func:`bank_result`)."""
    for name, value in part.items():
        if name not in total:
            total[name] = (Counter(value) if isinstance(value, Counter)
                           else bytearray(value))
        elif isinstance(value, Counter):
            total[name].update(value)
        else:
            total[name] += value


def bank_result(spec: str, tallies: dict, ops,
                n_static: int) -> PredictorResult:
    """One bank's :class:`PredictorResult` from its tallies, minus the
    paths and arcs, which need the whole walk and the final counts."""
    node_stats = NodeStats()
    class_counts = node_stats.class_counts
    for code, n in tallies["node"].items():
        if code == _NO_OUTPUT:
            node_stats.no_output = n
        else:
            class_counts[code >> 1][code & 1] = n
    # Assigning (not adding) resolves op-name collisions in first
    # occurrence order, as the reference does.
    node_ops = Counter()
    for (code, opx), n in tallies["ops"].items():
        if code != _NO_OUTPUT:
            node_ops[(InKind(code >> 1), bool(code & 1), ops[opx][0])] = n
    branches = BranchStats()
    for code, n in tallies["branch"].items():
        if code != _NO_OUTPUT:
            branches.class_counts[code >> 1][code & 1] = n
    sequences = _run_lengths(tallies["seq"])
    unpred = _run_lengths(tallies["unpred"])
    critical = CriticalPoints(n_static)
    for pc, n in tallies["miss"].items():
        critical.output_misses[pc] = n
    for pc, n in tallies["term"].items():
        critical.terminations[pc] = n
    return PredictorResult(
        kind=spec, nodes=node_stats, branches=branches,
        sequences=sequences, unpred=unpred,
        critical=critical, node_ops=node_ops,
    )


def count_analysis(recorder, specs, preds, m: int, A: int) -> None:
    """The ``analyze.*`` counters of one finished analysis (mirrors
    ``Analyzer.finalize``)."""
    if not recorder.enabled:
        return
    recorder.count("analyze.passes", 1)
    recorder.count("analyze.nodes", m)
    recorder.count("analyze.arcs", A)
    for spec, pred in zip(specs, preds):
        for behavior, n in pred.nodes.behavior_counts().items():
            if n:
                recorder.count(
                    f"analyze.pred.{spec}.{behavior.name.lower()}", n)


# ----------------------------------------------------------------------
# The sequential paths walk.
# ----------------------------------------------------------------------

class ResumableWalk:
    """The generator-influence walk (PathTracker, array-ported).

    The serial engine feeds one walk over the shared columns in
    ascending budget steps (``r0`` is where the previous step stopped)
    and snapshots it with :meth:`finalize` at each budget; the segment
    merge (:class:`repro.core.shard.SegmentMerge`) feeds it each
    segment's local columns, in order.  Masks, sets and distances index
    records globally and survive across calls, so a walk split at any
    record boundary builds the same tallies as one unsplit walk, and a
    snapshot at a cut equals a fresh walk stopped there.

    Order-sensitive tallies (combo_counts and the tree histograms
    export in first-seen order) are collected as plain lists in stream
    order and folded into running Counters at the end of each
    :meth:`feed` — same insertion order as the reference's per-element
    increments, counted at C speed, and each element counted once
    however many snapshots follow.  The walk visits only predicted
    arcs: ``pred_idx`` is the compressed index list of ybk's set bits,
    and ``nxt`` leapfrogs whole records without predicted inputs.

    Tree tracking works on interned influence sets.  A record stores a
    set id (0 is the empty set); the set table holds each set's gid
    tuple, its length and the largest distance of any element counted
    with it, and ``pending`` how many elements were counted with it
    since the last snapshot.  So counting an element costs the same
    whatever its set's size.  A value whose producers' sets union to
    one of them keeps that set's id; only a new union (or a generate's
    singleton) adds a row.  Unions keep the reference's semantics: past
    ``gen_cap`` gids the smallest ``gen_cap`` are kept and ``truncated``
    counts the merge.  :meth:`finalize` expands the pending rows into
    per-generate depth and aggregate size — a generate's depth is the
    largest distance of a set holding it, its aggregate the sum of
    their counts — so each snapshot expands only what was counted
    since the previous one.
    """

    __slots__ = ("track_trees", "gen_cap", "gen_counts", "combo", "masks",
                 "truncated",
                 # tree tracking only:
                 "sids", "dists", "inf_hist", "dist_hist", "sets_",
                 "set_len", "set_max", "pending", "n_gens", "gen_depth",
                 "gen_agg", "expanded")

    def __init__(self, track_trees: bool, gen_cap: int):
        self.track_trees = track_trees
        self.gen_cap = gen_cap
        self.gen_counts = [0] * 6
        self.combo = Counter()
        self.masks = []
        self.truncated = 0
        if track_trees:
            self.sids = []
            self.dists = []
            self.inf_hist = Counter()
            self.dist_hist = Counter()
            # The set table.
            self.sets_ = [()]
            self.set_len = [0]
            self.set_max = [0]
            self.pending = Counter()
            self.n_gens = 0
            # Per generate: depth and aggregate expanded so far.
            self.gen_depth = []
            self.gen_agg = []
            self.expanded = 0

    def feed(self, m, starts, ybk, xbk, prods, gcol, codes,
             r0: int = 0) -> None:
        """Walk records ``r0`` to ``m`` (``ybk`` and the other columns
        may run past them)."""
        gen_counts = self.gen_counts
        node_gc = _NODE_GC
        a0 = starts[r0]
        end = starts[m]
        pred_idx = list(compress(count(a0), memoryview(ybk)[a0:end]))
        pred_idx.append(end)  # sentinel: never < any record bound
        counted = []
        count_mask = counted.append
        masks = self.masks
        store_mask = masks.append
        pi = 0
        nxt = pred_idx[0]
        gen_cap = self.gen_cap
        if self.track_trees:
            sids = self.sids
            dists = self.dists
            store_sid = sids.append
            store_dist = dists.append
            sid_list = []
            dist_list = []
            count_sid = sid_list.append
            count_dist = dist_list.append
            sets_ = self.sets_
            set_len = self.set_len
            set_max = self.set_max
            new_set = sets_.append
            new_len = set_len.append
            new_max = set_max.append
            n_gens = self.n_gens
            truncated = self.truncated
            for r in range(r0, m):
                b = starts[r + 1]
                cur_mask = 0
                # cur_set holds the gids of set cur_sid, or (cur_sid
                # -1) of a union not yet in the table.
                cur_sid = 0
                cur_set = ()
                cur_dist = -1
                while nxt < b:
                    j = nxt
                    pi += 1
                    nxt = pred_idx[pi]
                    if xbk[j]:
                        p = prods[j]
                        pmask = masks[p]
                        if not pmask:
                            continue
                        sid = sids[p]
                        dist = dists[p] + 1
                        count_mask(pmask)
                        count_sid(sid)
                        count_dist(dist)
                        if dist > set_max[sid]:
                            set_max[sid] = dist
                        cur_mask |= pmask
                        if sid:
                            gen_set = sets_[sid]
                            if cur_set:
                                merged = {*cur_set, *gen_set}
                                size = len(merged)
                                if size > gen_cap:
                                    cur_set = sorted(merged)[:gen_cap]
                                    cur_sid = -1
                                    truncated += 1
                                elif size == len(gen_set):
                                    cur_set = gen_set
                                    cur_sid = sid
                                elif size != len(cur_set):
                                    cur_set = merged
                                    cur_sid = -1
                            else:
                                cur_set = gen_set
                                cur_sid = sid
                        if dist > cur_dist:
                            cur_dist = dist
                    else:
                        gc = gcol[j]
                        gen_counts[gc] += 1
                        cur_mask |= 1 << gc
                        if cur_set:
                            merged = {*cur_set, n_gens}
                            if len(merged) > gen_cap:
                                merged = sorted(merged)[:gen_cap]
                                truncated += 1
                            cur_set = merged
                        else:
                            cur_set = (n_gens,)
                        cur_sid = -1
                        n_gens += 1
                        if cur_dist < 0:
                            cur_dist = 0
                code = codes[r]
                if code == _NO_OUTPUT or not code & 1:
                    store_mask(0)
                    store_sid(0)
                    store_dist(0)
                elif cur_mask:
                    dist = cur_dist + 1
                    if cur_sid < 0:
                        if cur_set:
                            cur_sid = len(set_len)
                            new_set(tuple(cur_set))
                            new_len(len(cur_set))
                            new_max(dist)
                        else:
                            cur_sid = 0
                    elif dist > set_max[cur_sid]:
                        set_max[cur_sid] = dist
                    count_mask(cur_mask)
                    count_sid(cur_sid)
                    count_dist(dist)
                    store_mask(cur_mask)
                    store_sid(cur_sid)
                    store_dist(dist)
                else:
                    gc = node_gc.get(code >> 1)
                    if gc is None:
                        store_mask(0)
                        store_sid(0)
                        store_dist(0)
                    else:
                        gen_counts[gc] += 1
                        store_mask(1 << gc)
                        store_sid(len(set_len))
                        store_dist(0)
                        new_set((n_gens,))
                        new_len(1)
                        new_max(0)
                        n_gens += 1
            self.n_gens = n_gens
            self.truncated = truncated
            self.pending.update(sid_list)
            self.inf_hist.update(map(set_len.__getitem__, sid_list))
            self.dist_hist.update(dist_list)
        else:
            for r in range(r0, m):
                b = starts[r + 1]
                cur_mask = 0
                while nxt < b:
                    j = nxt
                    pi += 1
                    nxt = pred_idx[pi]
                    if xbk[j]:
                        pmask = masks[prods[j]]
                        if pmask:
                            count_mask(pmask)
                            cur_mask |= pmask
                    else:
                        gc = gcol[j]
                        gen_counts[gc] += 1
                        cur_mask |= 1 << gc
                code = codes[r]
                if code == _NO_OUTPUT or not code & 1:
                    store_mask(0)
                elif cur_mask:
                    count_mask(cur_mask)
                    store_mask(cur_mask)
                else:
                    gc = node_gc.get(code >> 1)
                    if gc is None:
                        store_mask(0)
                    else:
                        gen_counts[gc] += 1
                        store_mask(1 << gc)
        self.combo.update(counted)

    def path_stats(self) -> PathStats:
        """The paths tallies of the records fed so far (a detached copy:
        later feeds leave it unchanged)."""
        stats = PathStats()
        stats.gen_counts = list(self.gen_counts)
        stats.combo_counts.update(self.combo)
        stats.propagate_elements = sum(self.combo.values())
        class_counts = stats.class_counts
        for mask, n in stats.combo_counts.items():
            for bit in _MASK_BITS[mask]:
                class_counts[bit] += n
        return stats

    def _expand(self) -> None:
        """Fold the sets counted since the last expansion into the
        per-generate depth and aggregate lists."""
        depth = self.gen_depth
        agg = self.gen_agg
        grow = self.n_gens - len(depth)
        depth.extend(repeat(0, grow))
        agg.extend(repeat(0, grow))
        sets_ = self.sets_
        set_max = self.set_max
        expanded = 0
        for sid, n in self.pending.items():
            dist = set_max[sid]
            gids = sets_[sid]
            expanded += len(gids)
            for gid in gids:
                agg[gid] += n
                if dist > depth[gid]:
                    depth[gid] = dist
        self.pending.clear()
        self.expanded += expanded

    def finalize(self) -> tuple[PathStats, TreeStats | None]:
        """Paths and (when tracked) tree tallies of the records fed so
        far; a snapshot, so the walk may be fed further afterwards."""
        stats = self.path_stats()
        if not self.track_trees:
            return stats, None
        self._expand()
        trees = TreeStats()
        trees.truncated = self.truncated
        trees.influence_hist.update(self.inf_hist)
        trees.distance_hist.update(self.dist_hist)
        depth_hist = trees.depth_hist
        depth_hist.update(self.gen_depth)
        # A generate no element counted has depth 0 and aggregate 0:
        # only counted ones add, over keys in depth_hist's order.
        agg_hist = trees.agg_hist
        agg_hist.update(dict.fromkeys(depth_hist, 0))
        for depth, n in zip(compress(self.gen_depth, self.gen_agg),
                            filter(None, self.gen_agg)):
            agg_hist[depth] += n
        return stats, trees


# ----------------------------------------------------------------------
# Arc fold.  An arc's use class needs its whole group (final static
# counts, group size), so arcs fold only once the budget is known.
# One use-class byte per arc, packed with a bank's X and Y bits as
# (use << 2) | (x << 1) | y, turns every ArcStats cell into a count of
# one byte value.
# ----------------------------------------------------------------------

def use_class_column(group_keys, final_counts, n_static: int) -> int:
    """Per-arc :class:`~repro.core.events.UseClass` codes of
    ``group_keys``, one byte per arc, packed little-endian in an int."""
    use_class = ArcGroupTable._use_class
    # Single-arc groups stay out of the map: they read UseClass.SINGLE.
    classes = {
        key: use_class(key, size, final_counts, n_static)
        for key, size in Counter(group_keys).items() if size > 1
    }
    column = bytes(map(classes.get, group_keys, repeat(0)))
    return int.from_bytes(column, "little")


def fold_arcs(counts, use_v: int, xk: int, yk: int, n_arcs: int) -> None:
    """Add one bank's arcs to its ``ArcStats.counts`` cells.

    ``use_v`` comes from :func:`use_class_column`; ``xk`` and ``yk``
    hold the bank's X and Y bit in each arc's byte (0 or 1, so the
    shifts cannot carry across byte lanes).
    """
    packed = ((use_v << 2) | (xk << 1) | yk).to_bytes(n_arcs, "little")
    for code in range(16):
        counts[code >> 2][code & 3] += packed.count(code)


# ----------------------------------------------------------------------
# The engine proper.
# ----------------------------------------------------------------------

def _budget(columns, config) -> int:
    """Records ``config`` analyses of ``columns``."""
    n_records = columns.n_records
    if config.max_instructions is None:
        return n_records
    return min(config.max_instructions, n_records)


def _warm_largest(columns, configs) -> dict:
    """Assemble every spec's lanes once per branch predictor, at the
    largest budget any config gives that predictor:
    ``{branch_predictor: lanes}`` (see :func:`_assemble`).

    Largest budget first, so each spec's predictor passes (shared by
    both branch predictors' lanes) also run once, at the largest budget
    the call needs.  Both are prefix-closed: every smaller budget
    slices them instead of recomputing, whatever order the configs
    come in.
    """
    need: dict = {}
    for cfg in configs:
        kind = cfg.branch_predictor
        m, specs = need.get(kind, (0, {}))
        specs.update(dict.fromkeys(cfg.predictors))
        need[kind] = (max(m, _budget(columns, cfg)), specs)
    return {
        kind: _assemble(columns, specs, kind, m)
        for kind, (m, specs) in sorted(
            need.items(), key=lambda item: -item[1][0])
    }


def _walk_key(cfg, spec) -> tuple:
    """The walk a config's bank reads its paths from: (spec, branch
    predictor, tracked, gen_cap when tracked)."""
    tracked = spec in cfg.trees_for
    return (spec, cfg.branch_predictor, tracked,
            cfg.gen_cap if tracked else None)


def _run_walks(columns, configs, lanes, snapshots: dict,
               profile_counts) -> None:
    """Add to ``snapshots`` every ``(walk key, budget) -> (paths,
    trees)`` the configs' banks need and it lacks.

    One walk per (spec, branch predictor, tracked, gen_cap) runs to
    the largest budget asked of it, fed in ascending budget order and
    snapshotted (:meth:`ResumableWalk.finalize`) at each budget: every
    walk input is prefix-closed.  A walk's masks, ``counted`` list and
    ``gen_counts`` do not depend on tree tracking or ``gen_cap``, so an
    untracked budget rides on a tracked walk of the same bank that
    reaches it.
    """
    plan: dict = {}  # walk key -> {budget: keys served at that cut}
    for cfg in configs:
        m = _budget(columns, cfg)
        for spec in cfg.predictors:
            key = _walk_key(cfg, spec)
            if (key, m) not in snapshots:
                plan.setdefault(key, {})[m] = {key}
    for key in [key for key in plan if not key[2]]:
        hosts = [host for host in plan if host[2] and host[:2] == key[:2]]
        for m in list(plan[key]):
            host = next((host for host in hosts if max(plan[host]) >= m),
                        None)
            if host is not None:
                plan[host].setdefault(m, set()).add(key)
                del plan[key][m]
        if not plan[key]:
            del plan[key]
    if not plan:
        return
    gcol = (
        columns.genclass_so_far() if profile_counts is None
        else columns.genclass_profiled(profile_counts)
    )
    starts = columns.src_start
    prods = columns.src_prod
    recorder = get_recorder()
    for key, cuts in plan.items():
        spec, kind, tracked, gen_cap = key
        lane = lanes[kind][spec]
        codes = lane["comp"].translate(_NODE_T)
        walk = ResumableWalk(tracked, gen_cap)
        r0 = 0
        for m in sorted(cuts):
            walk.feed(m, starts, lane["y"], lane["x"], prods, gcol, codes,
                      r0)
            r0 = m
            served = cuts[m]
            paths, trees = (walk.finalize() if key in served
                            else (walk.path_stats(), None))
            for want in served:
                snapshots[(want, m)] = (paths, trees if want[2] else None)
        if recorder.enabled:
            recorder.count("analyze.walk.records."
                           + ("tracked" if tracked else "untracked"), r0)
            if tracked:
                recorder.count("analyze.walk.sets", len(walk.set_len) - 1)
                recorder.count("analyze.walk.expanded", walk.expanded)


def _bank_key(cfg, spec, m) -> tuple:
    """A bank result's key: (spec, branch predictor, budget).  It holds
    no tree flags: paths and trees come from the walk snapshots."""
    return (spec, cfg.branch_predictor, m)


def _final_counts(columns, m, static_counts):
    return columns.counts_for(m) if static_counts is None else static_counts


def _run_banks(columns, configs, lanes, banks: dict,
               static_counts) -> None:
    """Add to ``banks`` every bank result (all of a
    :class:`PredictorResult` but its paths and trees) the configs need
    and it lacks.

    A bank's tallies add over record ranges (:func:`merge_tallies`, as
    the segment merge uses), so each (spec, branch predictor) tallies
    its records once, in ascending budget order, with a
    :func:`bank_result` at each budget.  The arc fold needs each
    budget's final counts, so it runs per budget.
    """
    plan: dict = {}  # key minus budget -> budgets
    for cfg in configs:
        m = _budget(columns, cfg)
        for spec in cfg.predictors:
            key = _bank_key(cfg, spec, m)
            if key not in banks:
                plan.setdefault(key[:-1], set()).add(m)
    recorder = get_recorder()
    n_static = columns.n_static
    for key, budgets in plan.items():
        spec, kind = key
        lane = lanes[kind][spec]
        fresh = []
        with recorder.span("analyze.kernel.classify"):
            totals: dict = {}
            r0 = 0
            for m in sorted(budgets):
                merge_tallies(totals, bank_tallies(
                    lane["comp"][r0:m],
                    memoryview(columns.op_index)[r0:m], columns.pc[r0:m],
                ))
                r0 = m
                fresh.append((m, bank_result(spec, totals, columns.ops,
                                             n_static)))
        with recorder.span("analyze.kernel.arcs"):
            for m, pred in fresh:
                A = columns.src_start[m]
                fold_arcs(pred.arcs.counts,
                          _use_class(columns, m, static_counts),
                          int.from_bytes(memoryview(lane["x"])[:A],
                                         "little"),
                          int.from_bytes(memoryview(lane["y"])[:A],
                                         "little"),
                          A)
                banks[key + (m,)] = pred


def _use_class(columns, m, static_counts) -> int:
    """The use-class column of the first ``m`` records' arcs, cached
    per budget unless ``static_counts`` overrides the final counts."""
    use_v = (columns._pred_cache.get(("use_class", m))
             if static_counts is None else None)
    if use_v is None:
        A = columns.src_start[m]
        group_keys = columns.group_key
        use_v = use_class_column(
            group_keys if A == len(group_keys) else group_keys[:A],
            _final_counts(columns, m, static_counts), columns.n_static,
        )
        if static_counts is None:
            columns._pred_cache[("use_class", m)] = use_v
    return use_v


def _reuse_stats(columns, cfg, lanes, m) -> ReuseStats:
    """The instruction-reuse measurement of the first ``m`` records.

    Eligible records (ALU with an output) feed the one
    :class:`~repro.core.reuse.ReuseTracker` rule in stream order, keyed
    by their input values; "fully predicted" is the first bank's
    sequence selector (every input and the output predicted).
    """
    lane = lanes[cfg.branch_predictor][cfg.predictors[0]]
    fully = lane["comp"][:m].translate(_SEQ_T)
    alu = bytes(cat is Category.ALU for __, cat, __i in columns.ops)
    alu_sel = bytes(columns.op_index[:m]).translate(alu.ljust(256, b"\0"))
    tracker = ReuseTracker()
    on_node = tracker.on_node
    pcs = columns.pc
    outs = columns.out
    values = columns.src_value
    starts = columns.src_start
    for r in compress(range(m), alu_sel):
        if outs[r] is not None:
            on_node(pcs[r], tuple(values[starts[r]:starts[r + 1]]),
                    fully[r])
    return tracker.stats


def analyze_columns_many(columns, configs, name="trace",
                         profile_counts=None,
                         static_counts=None) -> list[AnalysisResult]:
    """Analyse ``columns`` under many configs, doing per-spec work once.

    Equivalent to feeding each config's first ``max_instructions``
    records through a reference :class:`~repro.core.analysis.Analyzer`.
    Predictor passes and bit lanes are built up front at the largest
    budget the call needs (:func:`_warm_largest`); then each walk
    (:func:`_run_walks`) and each bank's tallies (:func:`_run_banks`)
    run once, to the largest budget that reads them, with a snapshot
    at each smaller one; a ``track_reuse`` config adds its reuse tally
    (:func:`_reuse_stats`).  Lanes, walk snapshots and bank results are
    cached on the columns object.  The caller is responsible for the
    enclosing ``"analyze"`` span.

    External per-PC counts (``profile_counts`` / ``static_counts``)
    change the generate classes and use classes without entering any
    cache key, so such calls share walks and banks only among their own
    configs and never read or write those two caches.
    """
    recorder = get_recorder()
    with recorder.span("analyze.kernel.banks"):
        lanes = _warm_largest(columns, configs)
    cache = columns._pred_cache
    if profile_counts is None and static_counts is None:
        snapshots = cache.setdefault("walks", {})
        banks = cache.setdefault("banks", {})
    else:
        snapshots, banks = {}, {}
    with recorder.span("analyze.kernel.paths"):
        _run_walks(columns, configs, lanes, snapshots, profile_counts)
    _run_banks(columns, configs, lanes, banks, static_counts)

    results = []
    for cfg in configs:
        m = _budget(columns, cfg)
        preds = []
        for spec in cfg.predictors:
            paths, trees = snapshots[(_walk_key(cfg, spec), m)]
            preds.append(replace(banks[_bank_key(cfg, spec, m)],
                                 paths=paths, trees=trees))
        A = columns.src_start[m]
        count_analysis(recorder, cfg.predictors, preds, m, A)
        result = AnalysisResult(
            name=name,
            nodes=m,
            arcs=A,
            d_nodes=len(set(columns.d_ids[:columns.d_prefix[m]])),
            d_arcs=columns.d_prefix[m],
            static_instructions=columns.n_static,
            static_counts=list(_final_counts(columns, m, static_counts)),
        )
        for pred in preds:
            result.predictors[pred.kind] = pred
        if cfg.track_reuse:
            with recorder.span("analyze.kernel.classify"):
                result.reuse = _reuse_stats(columns, cfg, lanes, m)
        results.append(result)
    return results
