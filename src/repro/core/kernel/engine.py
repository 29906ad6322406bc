"""The columnar analysis engine.

Produces, for one :class:`~repro.core.kernel.columns.TraceColumns`
object and one :class:`~repro.core.analysis.AnalysisConfig`, an
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
   :func:`assemble_bits`, shared with the segments);
3. **classification** — a composite byte per (record, bank) encoding
   (has_p, has_n, has_imm, out_p, has_out, is_branch, has_src) is
   mapped through precomputed 256-entry ``bytes.translate`` tables and
   tallied with ``collections.Counter`` at C speed
   (:func:`bank_tallies`, then :func:`bank_result`; a segment runs the
   first and the merge the second); run-length stats come from
   splitting the translated selector on zero bytes, which visits runs
   in stream order so Counter insertion order (part of the export
   contract) matches the streaming trackers;
4. **paths** — the generator-influence walk is inherently sequential
   (each value's influence feeds its consumers'), so it remains a
   Python loop (:class:`ResumableWalk`, shared with the segment
   merge), but one that touches only predicted arcs and reads
   precomputed byte columns instead of driving five predictors;
5. **arcs** — a per-budget use-class byte column packed with each
   bank's X and Y bits turns the 4x4 ``ArcStats`` table into sixteen
   ``bytes.count`` calls.

Everything is stdlib-only; see docs/kernel.md for the full layout.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import compress, count, islice, repeat

from repro.core.arcs import ArcGroupTable
from repro.core.events import InKind, _KIND_TABLE
from repro.core.paths import _MASK_BITS, _EMPTY_SET
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
from repro.obs import get_recorder

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
# the serial engine (one span, cached per (specs, branch predictor) on
# the columns object) and by each segment (repro.core.shard).  Each
# caller adds its own X step: X is the producer's O byte, and only the
# serial engine has every producer's O byte at hand.
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


def _derived(columns, specs, br_kind, br_bits, m, A):
    key = ("derived", specs, br_kind, br_bits)
    cached = columns._pred_cache.get(key)
    if cached is not None and cached["m"] >= m:
        return cached
    ov_cnt = bisect_left(columns.ov_idx, m)
    yb, out, union, inter = assemble_bits(
        columns,
        [columns.input_hits(spec, A) for spec in specs],
        [columns.output_hits(spec, ov_cnt) for spec in specs],
        columns.branch_hits(br_kind, br_bits,
                            bisect_left(columns.br_idx, m)),
        m, A,
    )
    # Per-arc X: the producer's O byte.  D arcs have producer -1, which
    # reads the zero byte padded onto the end of O.
    padded_out = bytes(out) + b"\x00"
    x = bytes(map(padded_out.__getitem__, islice(columns.src_prod, A)))
    entry = {"m": m, "A": A, "yb": yb, "out": out,
             "union": union, "inter": inter, "x": x}
    columns._pred_cache[key] = entry
    return entry


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
# PredictorResult.  The serial engine runs both steps on one span; a
# segment runs the first, and the merge folds segments' tallies in
# stream order (merge_tallies) before running the second.
# ----------------------------------------------------------------------

def bank_tallies(comp: bytes, cfg, op_col, pcs) -> dict:
    """Node/ops/branch/seq/unpred/miss/term tallies of one bank's
    composite bytes (``op_col`` and ``pcs`` may run past them)."""
    node_codes = comp.translate(_NODE_T)
    tallies = {"node": Counter(node_codes)}
    if cfg.track_ops:
        tallies["ops"] = Counter(zip(node_codes, op_col))
    if cfg.track_branches:
        tallies["branch"] = Counter(comp.translate(_BRANCH_T))
    if cfg.track_sequences:
        tallies["seq"] = comp.translate(_SEQ_T)
    if cfg.track_unpred:
        tallies["unpred"] = comp.translate(_UNPRED_T)
    if cfg.track_critical:
        tallies["miss"] = Counter(compress(pcs, comp.translate(_MISS_T)))
        tallies["term"] = Counter(compress(pcs, comp.translate(_TERM_T)))
    return tallies


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


def bank_result(spec: str, tallies: dict, cfg, ops,
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
    pred = PredictorResult(kind=spec, nodes=node_stats)
    if cfg.track_ops:
        # Assigning (not adding) resolves op-name collisions in first
        # occurrence order, as the reference does.
        node_ops = Counter()
        for (code, opx), n in tallies["ops"].items():
            if code != _NO_OUTPUT:
                node_ops[(InKind(code >> 1), bool(code & 1),
                          ops[opx][0])] = n
        pred.node_ops = node_ops
    if cfg.track_branches:
        branches = BranchStats()
        for code, n in tallies["branch"].items():
            if code != _NO_OUTPUT:
                branches.class_counts[code >> 1][code & 1] = n
        pred.branches = branches
    if cfg.track_sequences:
        pred.sequences = _run_lengths(tallies["seq"])
    if cfg.track_unpred:
        pred.unpred = _run_lengths(tallies["unpred"])
    if cfg.track_critical:
        critical = CriticalPoints(n_static)
        misses = critical.output_misses
        for pc, n in tallies["miss"].items():
            misses[pc] = n
        terms = critical.terminations
        for pc, n in tallies["term"].items():
            terms[pc] = n
        pred.critical = critical
    return pred


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

    The serial engine calls :meth:`feed` once with the whole budget;
    the segment merge (:class:`repro.core.shard.SegmentMerge`) calls it
    once per segment, in order.  Masks, sets and distances index
    records globally and survive across calls, so a walk split at any
    record boundary builds the same tallies as one unsplit walk.

    Order-sensitive tallies (combo_counts and the tree histograms
    export in first-seen order) are collected as plain lists in stream
    order and folded with ``Counter.update`` in :meth:`finalize` —
    same insertion order as the reference's per-element increments,
    counted at C speed.  The walk visits only predicted arcs:
    ``pred_idx`` is the compressed index list of ybk's set bits, and
    ``nxt`` leapfrogs whole records without predicted inputs.
    """

    __slots__ = ("track_trees", "gen_cap", "gen_counts", "counted",
                 "masks", "sets_", "dists", "gens", "inf_list",
                 "dist_list", "truncated")

    def __init__(self, track_trees: bool, gen_cap: int):
        self.track_trees = track_trees
        self.gen_cap = gen_cap
        self.gen_counts = [0] * 6
        self.counted = []
        self.masks = []
        self.truncated = 0
        if track_trees:
            self.sets_ = []
            self.dists = []
            self.gens = []
            self.inf_list = []
            self.dist_list = []

    def feed(self, m, starts, ybk, xbk, prods, gcol, codes) -> None:
        gen_counts = self.gen_counts
        node_gc = _NODE_GC
        end = starts[m]
        pred_idx = list(compress(count(), ybk))
        pred_idx.append(end)  # sentinel: never < any record bound
        count_mask = self.counted.append
        masks = self.masks
        store_mask = masks.append
        pi = 0
        nxt = pred_idx[0]
        gen_cap = self.gen_cap
        if self.track_trees:
            sets_ = self.sets_
            dists = self.dists
            gens = self.gens
            store_set = sets_.append
            store_dist = dists.append
            count_inf = self.inf_list.append
            count_dist = self.dist_list.append
            empty = _EMPTY_SET
            truncated = self.truncated
            for r in range(m):
                b = starts[r + 1]
                cur_mask = 0
                cur_set = empty
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
                        gen_set = sets_[p]
                        dist = dists[p] + 1
                        count_mask(pmask)
                        count_inf(len(gen_set))
                        count_dist(dist)
                        for gid in gen_set:
                            record = gens[gid]
                            if dist > record[0]:
                                record[0] = dist
                            record[1] += 1
                        cur_mask |= pmask
                        if gen_set:
                            if cur_set:
                                merged = cur_set | gen_set
                                if len(merged) > gen_cap:
                                    merged = frozenset(
                                        sorted(merged)[:gen_cap]
                                    )
                                    truncated += 1
                                cur_set = merged
                            else:
                                cur_set = gen_set
                        if dist > cur_dist:
                            cur_dist = dist
                    else:
                        gc = gcol[j]
                        gen_counts[gc] += 1
                        gens.append([0, 0])
                        gen_set = frozenset((len(gens) - 1,))
                        cur_mask |= 1 << gc
                        if cur_set:
                            merged = cur_set | gen_set
                            if len(merged) > gen_cap:
                                merged = frozenset(
                                    sorted(merged)[:gen_cap])
                                truncated += 1
                            cur_set = merged
                        else:
                            cur_set = gen_set
                        if cur_dist < 0:
                            cur_dist = 0
                code = codes[r]
                if code == _NO_OUTPUT or not code & 1:
                    store_mask(0)
                    store_set(empty)
                    store_dist(0)
                elif cur_mask:
                    dist = cur_dist + 1
                    count_mask(cur_mask)
                    count_inf(len(cur_set))
                    count_dist(dist)
                    for gid in cur_set:
                        record = gens[gid]
                        if dist > record[0]:
                            record[0] = dist
                        record[1] += 1
                    store_mask(cur_mask)
                    store_set(cur_set)
                    store_dist(dist)
                else:
                    gc = node_gc.get(code >> 1)
                    if gc is None:
                        store_mask(0)
                        store_set(empty)
                        store_dist(0)
                    else:
                        gen_counts[gc] += 1
                        gens.append([0, 0])
                        store_mask(1 << gc)
                        store_set(frozenset((len(gens) - 1,)))
                        store_dist(0)
            self.truncated = truncated
        else:
            for r in range(m):
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

    def finalize(self) -> tuple[PathStats, TreeStats | None]:
        stats = PathStats()
        stats.gen_counts = self.gen_counts
        stats.propagate_elements = len(self.counted)
        stats.combo_counts.update(self.counted)
        class_counts = stats.class_counts
        for mask, n in stats.combo_counts.items():
            for bit in _MASK_BITS[mask]:
                class_counts[bit] += n
        if not self.track_trees:
            return stats, None
        trees = TreeStats()
        trees.truncated = self.truncated
        trees.influence_hist.update(self.inf_list)
        trees.distance_hist.update(self.dist_list)
        depth_hist = trees.depth_hist
        agg_hist = trees.agg_hist
        for depth, n in self.gens:
            depth_hist[depth] += 1
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

def analyze_columns(columns, config, name="trace", profile_counts=None,
                    static_counts=None) -> AnalysisResult:
    """Analyse one budget-sliced view of ``columns`` under ``config``.

    Equivalent to feeding the first ``config.max_instructions`` records
    through a reference :class:`~repro.core.analysis.Analyzer`.  The
    caller is responsible for engine resolution (this function assumes
    the config is columnar-supported) and for the enclosing
    ``"analyze"`` span.
    """
    cfg = config
    m = _budget(columns, cfg)
    A = columns.src_start[m]
    n_static = columns.n_static
    specs = cfg.predictors
    nk = len(specs)
    recorder = get_recorder()

    with recorder.span("analyze.kernel.banks"):
        derived = _derived(
            columns, specs, cfg.branch_predictor, cfg.gshare_bits, m, A
        )

    with recorder.span("analyze.kernel.classify"):
        yb = derived["yb"][:A]
        out_col = derived["out"]
        union_col = derived["union"]
        inter_col = derived["inter"]
        x_col = derived["x"]
        if derived["m"] > m:
            out_col = out_col[:m]
            union_col = union_col[:m]
            inter_col = inter_col[:m]
            x_col = x_col[:A]
        y_v = int.from_bytes(yb, "little")
        x_v = int.from_bytes(x_col, "little")
        ones_a = _ones(A)

        if static_counts is None:
            final_counts = columns.counts_for(m)
        else:
            final_counts = static_counts
        gcol = (
            columns.genclass_so_far() if profile_counts is None
            else columns.genclass_profiled(profile_counts)
        )

        result = AnalysisResult(
            name=name,
            nodes=m,
            arcs=A,
            d_nodes=len(set(columns.d_ids[:columns.d_prefix[m]])),
            d_arcs=columns.d_prefix[m],
            static_instructions=n_static,
            static_counts=list(final_counts),
        )

        # --- per-bank composite classification -------------------------
        # Everything a bank's PredictorResult contains derives from its
        # composite stream (plus spec-determined hit columns and
        # columns-determined layout), so a finished result can be cached
        # on the columns object keyed by (spec, comp, tracking flags)
        # and reused verbatim when another config in the sweep runs the
        # same bank — e.g. a single-bank ablation of the default tuple.
        # External per-PC counts change gcol / final_counts without
        # touching the key, so those calls bypass the cache entirely.
        comp_list = composites(columns, out_col, union_col, inter_col,
                               m, nk)
        cacheable = profile_counts is None and static_counts is None
        bank_cache = columns._pred_cache
        preds = []
        bank_keys = [None] * nk
        fresh = []
        for k, comp in enumerate(comp_list):
            if cacheable:
                tracked = specs[k] in cfg.trees_for
                bkey = (
                    "bankres", specs[k], comp,
                    cfg.track_ops, cfg.track_branches,
                    cfg.track_sequences, cfg.track_unpred,
                    cfg.track_critical, cfg.track_paths,
                    tracked, cfg.gen_cap if tracked else None,
                )
                cached = bank_cache.get(bkey)
                if cached is not None:
                    preds.append(cached)
                    continue
                bank_keys[k] = bkey
            fresh.append(k)
            preds.append(bank_result(
                specs[k],
                bank_tallies(comp, cfg, columns.op_index, columns.pc),
                cfg, columns.ops, n_static,
            ))

    # --- paths ----------------------------------------------------------
    if cfg.track_paths:
        with recorder.span("analyze.kernel.paths"):
            for k in fresh:
                walk = ResumableWalk(specs[k] in cfg.trees_for, cfg.gen_cap)
                walk.feed(
                    m, columns.src_start,
                    ((y_v >> k) & ones_a).to_bytes(A, "little"),
                    ((x_v >> k) & ones_a).to_bytes(A, "little"),
                    columns.src_prod, gcol,
                    comp_list[k].translate(_NODE_T),
                )
                preds[k].paths, preds[k].trees = walk.finalize()

    # --- arcs -----------------------------------------------------------
    if fresh:
        with recorder.span("analyze.kernel.arcs"):
            use_v = (bank_cache.get(("use_class", m))
                     if static_counts is None else None)
            if use_v is None:
                group_keys = columns.group_key
                use_v = use_class_column(
                    group_keys if A == len(group_keys)
                    else group_keys[:A],
                    final_counts, n_static,
                )
                if static_counts is None:
                    bank_cache[("use_class", m)] = use_v
            for k in fresh:
                fold_arcs(preds[k].arcs.counts, use_v,
                          (x_v >> k) & ones_a, (y_v >> k) & ones_a, A)

    if cacheable:
        for k in fresh:
            bank_cache[bank_keys[k]] = preds[k]

    count_analysis(recorder, specs, preds, m, A)
    for pred in preds:
        result.predictors[pred.kind] = pred
    return result


def _budget(columns, config) -> int:
    """Records ``config`` analyses of ``columns``."""
    n_records = columns.n_records
    if config.max_instructions is None:
        return n_records
    return min(config.max_instructions, n_records)


def _warm_largest(columns, configs) -> None:
    """Assemble each bank tuple's derived columns once, at the largest
    budget any config in ``configs`` gives it.

    Largest budget first, so each spec's predictor passes (shared by
    every tuple holding the spec) also run once, at the largest budget
    the call needs.  Both are prefix-closed: every smaller budget
    slices them instead of recomputing, whatever order the configs
    come in.
    """
    need: dict = {}
    for cfg in configs:
        key = (cfg.predictors, cfg.branch_predictor, cfg.gshare_bits)
        need[key] = max(need.get(key, 0), _budget(columns, cfg))
    for (specs, kind, bits), m in sorted(need.items(),
                                         key=lambda item: -item[1]):
        _derived(columns, specs, kind, bits, m, columns.src_start[m])


def analyze_columns_many(columns, configs, name="trace",
                         profile_counts=None,
                         static_counts=None) -> list[AnalysisResult]:
    """Analyse ``columns`` under many configs, sharing bank passes.

    Hit streams (and the derived bit columns) are cached on the columns
    object keyed by predictor spec and computed up front at the largest
    budget the call needs, so configs that share specs pay for each
    predictor pass once — the multi-config analogue of the reference
    path's ``analyze_many`` single decode.
    """
    with get_recorder().span("analyze.kernel.banks"):
        _warm_largest(columns, configs)
    return [
        analyze_columns(columns, config, name, profile_counts,
                        static_counts)
        for config in configs
    ]
