"""Columnar trace representation — the kernel's data layout.

:class:`TraceColumns` holds one decoded trace as flat parallel arrays
instead of per-record :class:`~repro.cpu.trace.DynInst` objects: one
entry per dynamic instruction in the record columns (``pc``,
``op_index``, ``out`` ...) and one entry per consumed operand in the
arc columns (``src_value``, ``src_prod`` ...), joined by the
``src_start`` offset column (record ``r`` owns arcs
``src_start[r] : src_start[r+1]``).

A trace takes this form once, right after the machine: the cold path
streams the live trace into :meth:`TraceColumns.from_records`, and a
stored trace (:mod:`repro.cpu.tracefile`) keeps only the primary
columns — the constructor's keyword arguments — and rebuilds the
object through the same constructor.  Either way everything else the
analysis engine needs per element — arc offsets, predictor input
keys, arc group keys, D-node identities, the branch/output/passthrough
record subsets — is derived by one method (``_derive``, under the
``analyze.kernel.derive`` span) **on first use**: the first read of
any derived column builds them all.  Capturing a trace and storing it
never read one, so they pay only for the primaries; an analysis pays
the derivation once per object, and every analyzer runs as batched
passes over the columns (:mod:`repro.core.kernel.engine`).

Budget truncation never re-decodes: every column is prefix-closed, so
an analyzer with ``max_instructions = m`` reads ``pc[:m]`` and arcs
``[:src_start[m]]`` of the same object.  Predictor hit streams are
prefix-closed too (a predictor's verdict on element ``i`` depends only
on elements ``< i``), which is what makes the per-spec hit cache
(:meth:`input_hits` / :meth:`output_hits` / :meth:`branch_hits`)
shareable across configs and budgets.

Byte columns are ``bytearray`` so the engine can combine them with
big-integer bitwise arithmetic and count them with ``bytes.translate``
+ ``collections.Counter`` at C speed; everything is stdlib-only.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from itertools import accumulate, compress, islice

from repro.core.kernel.state import (
    new_branch_state,
    run_branch_slice,
    run_value_slice,
    value_state_for,
)
from repro.cpu.trace import DynInst, Source
from repro.errors import ReproError
from repro.isa.opcodes import Category
from repro.obs import get_recorder

#: ``taken`` column encoding (``None`` is distinct from ``False``: a
#: direction predictor can never be *correct* about an unknown
#: direction, but it still trains towards not-taken).
TAKEN_FALSE = 0
TAKEN_TRUE = 1
TAKEN_NONE = 2

#: D-node identity base of initial register values (memory data items
#: are their address, < 2**32); :meth:`repro.cpu.trace.Source.d_key`.
_REG_D = 0x2_0000_0000

#: Categories whose output passes an input's predictability through.
_PASS_CATS = (Category.LOAD, Category.STORE, Category.JUMP_REG)

#: byte -> bool(byte) table, for nsrc -> has_src.
_NONZERO = bytes(1 if v else 0 for v in range(256))


def _value_stream(spec: str, keys, values, n: int) -> bytearray:
    """One value predictor's hits over the first ``n`` (key, value)
    pairs, replayed from a fresh state."""
    hits = bytearray()
    run_value_slice(spec, value_state_for(spec), islice(keys, n),
                    islice(values, n), hits)
    return hits


def _branch_stream(kind: str, index_bits: int, pcs, takens,
                   n: int) -> bytearray:
    """The direction predictor's hits over the first ``n`` branches,
    replayed from a fresh state."""
    hits = bytearray()
    run_branch_slice(kind, index_bits, new_branch_state(kind),
                     islice(pcs, n), islice(takens, n), hits)
    return hits


#: The slots :meth:`TraceColumns._derive` fills, on first use.
_DERIVED = frozenset((
    "is_branch", "has_imm", "has_src", "has_out", "src_start", "in_key",
    "group_key", "d_prefix", "d_ids", "br_idx", "br_pc", "br_taken",
    "ov_idx", "ov_pc", "ov_val", "pt_idx", "pt_arc",
))

#: Serialises first reads: a stored trace's columns are shared by the
#: service's batch threads, and each object must derive only once.  A
#: forked pool worker gets a fresh one, since a parent thread may have
#: held it at the fork.
_DERIVE_LOCK = threading.Lock()


def _reset_derive_lock() -> None:
    global _DERIVE_LOCK
    _DERIVE_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_derive_lock)


class TraceColumns:
    """One decoded trace as flat parallel columns (see module doc)."""

    __slots__ = (
        # --- header facts -------------------------------------------------
        "n_static",      # max(n_static, 1), as the Analyzer uses it
        "n_records",
        "ops",           # op_index -> (op, Category, has_imm)
        # --- record columns (length n_records) ----------------------------
        "pc",            # list[int]
        "op_index",      # bytearray
        "out",           # list[int|float|None]
        "passthrough",   # list[int], -1 = None
        "taken",         # bytearray of TAKEN_* codes
        "nsrc",          # bytearray
        "has_imm",       # bytearray 0/1
        "has_src",       # bytearray 0/1
        "has_out",       # bytearray 0/1 (branches count as having one)
        "is_branch",     # bytearray 0/1
        # --- arc columns (length src_start[-1]) ----------------------------
        "src_start",     # list[int], length n_records + 1
        "src_value",     # list[int|float]
        "src_prod",      # list[int], -1 = D node
        "src_ppc",       # list[int], 0 for D arcs
        "src_mem",       # bytearray 0/1
        "src_loc",       # list[int]
        "in_key",        # list[int]: (pc << 2) | slot
        "group_key",     # list[int]: ArcGroupTable key
        # --- D-node bookkeeping --------------------------------------------
        "d_prefix",      # list[int], length n_records + 1: D arcs so far
        "d_ids",         # list[int]: d_key of each D arc, in arc order
        # --- record subsets (indices ascending; sliceable by bisect) -------
        "br_idx", "br_pc", "br_taken",
        "ov_idx", "ov_pc", "ov_val",
        "pt_idx", "pt_arc",
        # --- per-object caches ---------------------------------------------
        "_counts_cache",    # budget m -> per-PC execution counts list
        "_genclass_cache",  # count-so-far GenClass byte column
        "_pred_cache",      # (tier, spec, ...) -> (covered, hits)
    )

    def __init__(self, n_static: int, ops, *, pc, op_index, out,
                 passthrough, taken, nsrc, src_value, src_prod, src_ppc,
                 src_mem, src_loc):
        """Columns from the primary columns (the keyword arguments, the
        ones a stored trace keeps); every derived column is computed
        by :meth:`_derive` on first use."""
        self.n_static = max(n_static, 1)
        self.ops = ops
        self.n_records = len(pc)
        self.pc = pc
        self.op_index = op_index
        self.out = out
        self.passthrough = passthrough
        self.taken = taken
        self.nsrc = nsrc
        self.src_value = src_value
        self.src_prod = src_prod
        self.src_ppc = src_ppc
        self.src_mem = src_mem
        self.src_loc = src_loc
        self._counts_cache = {}
        self._genclass_cache = None
        self._pred_cache = {}

    def __getattr__(self, name):
        # Reached only for an unset slot: a derived one is built here,
        # together with all the others, the first time it is read.
        if name not in _DERIVED:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        with _DERIVE_LOCK:
            try:  # another thread may have derived while this one waited
                return object.__getattribute__(self, name)
            except AttributeError:
                pass
            with get_recorder().span("analyze.kernel.derive"):
                self._derive()
        return object.__getattribute__(self, name)

    @classmethod
    def from_records(cls, records, n_static: int,
                     limit: int | None = None) -> "TraceColumns":
        """Build columns from an iterable of :class:`DynInst` (a live
        machine's trace streams straight in; ``uid`` is the stream
        index and ``target`` is not kept)."""
        if limit is not None:
            records = islice(records, limit)
        op_table: dict[tuple, int] = {}
        ops = []
        pcs = []
        op_col = bytearray()
        outs = []
        pts = []
        takens = bytearray()
        nsrcs = bytearray()
        values = []
        prods = []
        ppcs = []
        mems = bytearray()
        locs = []
        for dyn in records:
            pcs.append(dyn.pc)
            entry = (dyn.op, dyn.category, dyn.has_imm)
            op_index = op_table.get(entry)
            if op_index is None:
                op_index = op_table[entry] = len(op_table)
                if op_index > 0xFF:
                    raise ReproError(
                        "opcode table overflow (more than 256 distinct "
                        "opcode/category combinations)"
                    )
                ops.append(entry)
            op_col.append(op_index)
            outs.append(dyn.out)
            pts.append(-1 if dyn.passthrough is None else dyn.passthrough)
            taken = dyn.taken
            takens.append(
                TAKEN_NONE if taken is None
                else (TAKEN_TRUE if taken else TAKEN_FALSE)
            )
            srcs = dyn.srcs
            nsrcs.append(len(srcs))
            for value, producer, producer_pc, is_mem, loc in srcs:
                values.append(value)
                if producer is None:
                    prods.append(-1)
                    ppcs.append(0)
                else:
                    prods.append(producer)
                    ppcs.append(producer_pc)
                mems.append(1 if is_mem else 0)
                locs.append(loc)
        return cls(n_static, ops, pc=pcs, op_index=op_col, out=outs,
                   passthrough=pts, taken=takens, nsrc=nsrcs,
                   src_value=values, src_prod=prods, src_ppc=ppcs,
                   src_mem=mems, src_loc=locs)

    # ------------------------------------------------------------------
    # Derived columns and subsets.
    # ------------------------------------------------------------------

    def _derive(self) -> None:
        """Compute every derived column and record subset from the
        primaries: the one derivation both builders share, run by the
        first read of a derived column.  Each slot is set only once its
        value is complete, so a concurrent reader never sees a partial
        column."""
        n = self.n_static
        pcs = self.pc
        nsrcs = self.nsrc
        self.src_start = starts = list(accumulate(nsrcs, initial=0))
        in_keys = []
        group_keys = []
        d_ids = []
        d_prefix = [0]
        d_count = 0  # appended as is: runs of one count share an int
        # One int object per (pc, slot) input key, shared by every arc
        # that carries it.
        slot_keys = [(key, key | 1, key | 2, key | 3)
                     for key in range(0, n << 2, 4)]
        arcs = zip(self.src_prod, self.src_ppc, self.src_mem, self.src_loc)
        for pc, k in zip(pcs, nsrcs):
            keys = slot_keys[pc]
            for slot, (producer, producer_pc, is_mem, loc) in zip(range(k),
                                                                  arcs):
                in_keys.append(keys[slot])
                if producer < 0:
                    # The D node's identity, as Source.d_key computes it.
                    d_id = loc if is_mem else _REG_D + loc
                    d_ids.append(d_id)
                    d_count += 1
                    group_keys.append(-(d_id * n + pc) - 1)
                else:
                    group_keys.append((producer * n + producer_pc) * n + pc)
            d_prefix.append(d_count)
        self.in_key = in_keys
        self.group_key = group_keys
        self.d_ids = d_ids
        self.d_prefix = d_prefix

        m = self.n_records
        ops = self.ops
        # Per-op lookup tables -> per-record flags via bytes.translate.
        pad = 256 - len(ops)
        br_table = bytes(
            1 if cat is Category.BRANCH else 0 for __, cat, __i in ops
        ) + bytes(pad)
        imm_table = bytes(
            1 if has_imm else 0 for __, __c, has_imm in ops
        ) + bytes(pad)
        pass_table = bytes(
            1 if cat in _PASS_CATS else 0 for __, cat, __i in ops
        ) + bytes(pad)
        op_col = bytes(self.op_index)
        self.is_branch = is_branch = bytearray(op_col.translate(br_table))
        self.has_imm = bytearray(op_col.translate(imm_table))
        self.has_src = bytearray(bytes(nsrcs).translate(_NONZERO))
        pass_cat = op_col.translate(pass_table)
        out_none = bytes(
            0 if value is not None else 1 for value in self.out
        )
        if m:
            ones = int.from_bytes(b"\x01" * m, "little")
            br_i = int.from_bytes(is_branch, "little")
            none_i = int.from_bytes(out_none, "little")
            pt_none = bytes(1 if p < 0 else 0 for p in self.passthrough)
            ptn_i = int.from_bytes(pt_none, "little")
            pass_i = int.from_bytes(pass_cat, "little")
            # has_out: a branch, or any record carrying an out value.
            self.has_out = bytearray(
                (br_i | (none_i ^ ones)).to_bytes(m, "little")
            )
            # Output-predictor subset: non-branch, real out, no
            # passthrough, not a pass-through category.
            ov_sel = ((none_i ^ ones) & (br_i ^ ones) & ptn_i
                      & (pass_i ^ ones)).to_bytes(m, "little")
            # Passthrough subset: non-branch, real out, passthrough set.
            pt_sel = ((none_i ^ ones) & (br_i ^ ones)
                      & (ptn_i ^ ones)).to_bytes(m, "little")
        else:
            self.has_out = bytearray()
            ov_sel = b""
            pt_sel = b""
        rng = range(m)
        self.br_idx = list(compress(rng, is_branch))
        takens = self.taken
        self.br_pc = [pcs[i] for i in self.br_idx]
        self.br_taken = bytearray(takens[i] for i in self.br_idx)
        self.ov_idx = list(compress(rng, ov_sel))
        outs = self.out
        self.ov_pc = [pcs[i] for i in self.ov_idx]
        self.ov_val = [outs[i] for i in self.ov_idx]
        self.pt_idx = list(compress(rng, pt_sel))
        pts = self.passthrough
        self.pt_arc = [starts[i] + pts[i] for i in self.pt_idx]

    # ------------------------------------------------------------------
    # Budget-dependent derived state (cached).
    # ------------------------------------------------------------------

    def counts_for(self, m: int) -> list:
        """Per-PC execution counts over the first ``m`` records."""
        cached = self._counts_cache.get(m)
        if cached is not None:
            return cached
        counts = [0] * self.n_static
        tally = Counter(self.pc if m == self.n_records else self.pc[:m])
        for pc, count in tally.items():
            counts[pc] = count
        self._counts_cache[m] = counts
        return counts

    def genclass_so_far(self, counts_start=None) -> bytearray:
        """Per-arc :class:`~repro.core.events.GenClass` codes using the
        count-so-far write-once approximation (profile-free analysis).

        Matches the reference analyzer exactly: the record's own
        execution is counted *before* its arcs are classified, so the
        column is independent of any budget prefix.  ``counts_start``
        seeds the per-PC counts with the records before these columns
        (a segment's local columns); such a column is not cached.
        """
        cached = self._genclass_cache
        if cached is not None and counts_start is None:
            return cached
        counts = ([0] * self.n_static if counts_start is None
                  else list(counts_start))
        out = bytearray(self.src_start[-1])
        pcs = self.pc
        starts = self.src_start
        prods = self.src_prod
        ppcs = self.src_ppc
        for r in range(self.n_records):
            counts[pcs[r]] += 1
            for a in range(starts[r], starts[r + 1]):
                prod = prods[a]
                if prod < 0:
                    out[a] = 1                      # GenClass.D
                elif counts[ppcs[a]] == 1:
                    out[a] = 2                      # GenClass.W
                # else 0                            # GenClass.C
        if counts_start is None:
            self._genclass_cache = out
        return out

    def genclass_profiled(self, profile_counts) -> bytearray:
        """Per-arc GenClass codes with whole-run profile counts."""
        out = bytearray(self.src_start[-1])
        ppcs = self.src_ppc
        a = 0
        for prod in self.src_prod:
            if prod < 0:
                out[a] = 1
            elif profile_counts[ppcs[a]] == 1:
                out[a] = 2
            a += 1
        return out

    # ------------------------------------------------------------------
    # Predictor hit-stream cache.
    #
    # Hit streams are pure functions of (column prefix, spec) and
    # prefix-closed, so one computation at the largest budget seen
    # serves every config that shares the spec: the engine slices.
    # ------------------------------------------------------------------

    def _cached_hits(self, key: tuple, need: int, compute):
        cached = self._pred_cache.get(key)
        if cached is not None and cached[0] >= need:
            return cached[1]
        hits = compute(need)
        self._pred_cache[key] = (need, hits)
        return hits

    def input_hits(self, spec: str, need: int) -> bytearray:
        """Hit stream of one bank's *input* predictor over the first
        ``need`` arcs (0/1 per arc; may be longer than ``need``)."""
        return self._cached_hits(
            ("in", spec), need,
            lambda n: _value_stream(spec, self.in_key, self.src_value, n),
        )

    def output_hits(self, spec: str, need: int) -> bytearray:
        """Hit stream of one bank's *output* predictor over the first
        ``need`` output-predicted records (the ``ov_idx`` subset)."""
        return self._cached_hits(
            ("out", spec), need,
            lambda n: _value_stream(spec, self.ov_pc, self.ov_val, n),
        )

    def branch_hits(self, kind: str, index_bits: int, need: int) -> bytearray:
        """Hit stream of the shared direction predictor over the first
        ``need`` branch records (the ``br_idx`` subset)."""
        return self._cached_hits(
            ("br", kind, index_bits), need,
            lambda n: _branch_stream(kind, index_bits, self.br_pc,
                                     self.br_taken, n),
        )

    # ------------------------------------------------------------------
    # Reconstruction (reference-loop input from columns).
    # ------------------------------------------------------------------

    def to_records(self) -> list:
        """Rebuild the :class:`DynInst` list (uid = stream index).

        Only the reference loop (the differential oracle) calls it.
        ``target`` is not stored in the columns — the analysis never
        reads it — so reconstructed records carry None.
        """
        records = []
        append = records.append
        ops = self.ops
        starts = self.src_start
        values = self.src_value
        prods = self.src_prod
        ppcs = self.src_ppc
        mems = self.src_mem
        locs = self.src_loc
        takens = self.taken
        for r in range(self.n_records):
            op, category, has_imm = ops[self.op_index[r]]
            srcs = []
            for a in range(starts[r], starts[r + 1]):
                prod = prods[a]
                if prod < 0:
                    srcs.append(Source(values[a], None, None,
                                       bool(mems[a]), locs[a]))
                else:
                    srcs.append(Source(values[a], prod, ppcs[a],
                                       bool(mems[a]), locs[a]))
            taken = takens[r]
            passthrough = self.passthrough[r]
            append(DynInst(
                uid=r,
                pc=self.pc[r],
                op=op,
                category=category,
                has_imm=has_imm,
                srcs=tuple(srcs),
                out=self.out[r],
                passthrough=None if passthrough < 0 else passthrough,
                taken=None if taken == TAKEN_NONE else taken == TAKEN_TRUE,
                target=None,
            ))
        return records


def as_columns(trace, n_static: int, limit=None) -> TraceColumns:
    """View ``trace`` as columns, building them once if records came in
    (under ``analyze.kernel.layout``)."""
    if isinstance(trace, TraceColumns):
        return trace
    with get_recorder().span("analyze.kernel.layout"):
        return TraceColumns.from_records(trace, n_static, limit=limit)
