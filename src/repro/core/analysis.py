"""Streaming predictability analysis — the model's main driver.

:class:`Analyzer` consumes a dynamic trace once and produces every
statistic the paper's evaluation reports: node and arc classifications
(Figs. 5–8), path/tree analysis (Figs. 9–11), predictable sequences
(Fig. 12), branch behaviour (Fig. 13) and the DPG characteristics of
Table 1 — for all configured predictors simultaneously.

The prediction protocol follows Section 3 of the paper:

* separate, identical predictors for inputs (keyed by consumer PC and
  operand slot) and outputs (keyed by producer PC);
* conditional branch directions predicted by one shared gshare;
* memory instructions and register-indirect jumps pass their input's
  predictability through to their output and never touch the output
  predictor (so they can never generate);
* predictors are updated immediately after each prediction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice

from repro.core.arcs import ArcGroupTable
from repro.core.branches import BranchTracker
from repro.core.events import GenClass, InKind, in_kind
from repro.core.kernel import TraceColumns, analyze_columns_many, as_columns
from repro.core.paths import PathTracker
from repro.core.sequences import SequenceTracker
from repro.core.stats import AnalysisResult, NodeStats, PredictorResult
from repro.core.reuse import ReuseTracker
from repro.core.unpred import CriticalPoints, UnpredTracker
from repro.cpu.trace import DynInst
from repro.isa.opcodes import Category
from repro.obs import get_recorder
from repro.predictors import PredictorBank, make_branch_predictor
from repro.predictors.base import MAX_BANKS, PREDICTOR_KINDS


@dataclass(slots=True)
class AnalysisConfig:
    """Knobs for one analysis run.

    Every analysis computes the paper's full model: node and arc
    classes, generator paths (Fig. 9), predictable sequences (Fig. 12),
    branch behaviour (Fig. 13), fully-mispredicted runs, critical
    points and per-opcode node classes.  Its fixed structures are
    constants: the paper's 64K-entry gshare
    (:data:`~repro.predictors.gshare.GSHARE_BITS` index bits) and the
    reuse buffer's :data:`~repro.core.reuse.REUSE_WAYS` entries per
    static instruction.

    Attributes:
        predictors: value-predictor kinds to run side by side, at most
            :data:`~repro.predictors.base.MAX_BANKS` (``ValueError``).
        trees_for: predictor kinds that additionally track per-generate
            trees, influence counts and distances (Figs. 10/11) — the
            memory-hungry part; the paper shows these for the
            context-based predictor.
        gen_cap: cap on generator ids carried per value (tree tracking).
        branch_predictor: direction-predictor kind — ``"gshare"`` (the
            paper's choice) or ``"local"`` (the two-level alternative
            the paper suggests in Section 3).
        track_reuse: run a Sodani/Sohi-style instruction reuse buffer
            alongside the analysis (Section 6's reuse/memoization
            suggestion); the overlap is measured against the *first*
            configured predictor.
        max_instructions: truncate the trace after this many dynamic
            instructions (None = run the workload to completion).
    """

    predictors: tuple[str, ...] = PREDICTOR_KINDS
    trees_for: tuple[str, ...] = ("context",)
    gen_cap: int = 64
    branch_predictor: str = "gshare"
    track_reuse: bool = False
    max_instructions: int | None = None

    def __post_init__(self):
        if len(self.predictors) > MAX_BANKS:
            raise ValueError(f"{len(self.predictors)} predictor banks "
                             f"exceed the maximum of {MAX_BANKS}")


class Analyzer:
    """One-pass streaming analysis over a dynamic trace.

    Args:
        n_static: number of static instructions in the program.
        config: analysis configuration.
        profile_counts: optional whole-run static execution counts from
            a prior profiling pass.  Used to classify write-once
            generates *online* during path analysis; without it the
            count-so-far approximation is used (arc statistics are
            always exact — they are resolved at flush time).
    """

    def __init__(
        self,
        n_static: int,
        config: AnalysisConfig | None = None,
        profile_counts=None,
    ):
        self.config = config or AnalysisConfig()
        cfg = self.config
        self._n_static = max(n_static, 1)
        self._banks = [PredictorBank(kind) for kind in cfg.predictors]
        # Bound-method fast paths: one call per prediction instead of a
        # wrapper hop (the analyzer makes ~5 predictions per node).
        self._see_inputs = [bank.inputs.see for bank in self._banks]
        self._see_outputs = [bank.outputs.see for bank in self._banks]
        self._nk = len(self._banks)
        self._full_mask = (1 << self._nk) - 1
        self._gshare = make_branch_predictor(cfg.branch_predictor)
        self._arc_table = ArcGroupTable(self._n_static, self._nk)
        self._node_stats = [NodeStats() for _ in self._banks]
        self._running_counts = [0] * self._n_static
        self._wl_counts = (
            profile_counts if profile_counts is not None
            else self._running_counts
        )
        self._path_trackers = [
            PathTracker(track_trees=bank.kind in cfg.trees_for,
                        gen_cap=cfg.gen_cap)
            for bank in self._banks
        ]
        self._seq_trackers = [SequenceTracker() for _ in self._banks]
        self._branch_trackers = [BranchTracker() for _ in self._banks]
        self._unpred_trackers = [UnpredTracker() for _ in self._banks]
        self._critical = [CriticalPoints(self._n_static)
                          for _ in self._banks]
        self._reuse = ReuseTracker() if cfg.track_reuse else None
        self._node_ops = [Counter() for _ in self._banks]
        self._out_flags = bytearray()
        self._d_nodes: set[int] = set()
        self._d_arcs = 0
        self._node_count = 0
        self._arc_count = 0
        # combo_table[xbits][ybits] -> interleaved per-bank <x,y> codes.
        size = 1 << self._nk
        self._combo_table = [
            [
                sum(
                    ((((x >> k) & 1) << 1) | ((y >> k) & 1)) << (2 * k)
                    for k in range(self._nk)
                )
                for y in range(size)
            ]
            for x in range(size)
        ]

    # ------------------------------------------------------------------
    # Streaming.
    # ------------------------------------------------------------------

    def feed(self, dyn: DynInst) -> None:
        """Process the next dynamic instruction of the trace."""
        pc = dyn.pc
        srcs = dyn.srcs
        banks = self._banks
        nk = self._nk
        full_mask = self._full_mask
        self._node_count += 1
        self._running_counts[pc] += 1

        # --- input predictions -----------------------------------------
        see_inputs = self._see_inputs
        y_list = []
        union_y = 0
        inter_y = full_mask
        for slot, src in enumerate(srcs):
            value = src.value
            key = (pc << 2) | slot
            ybits = 0
            bit = 1
            for see in see_inputs:
                if see(key, value):
                    ybits |= bit
                bit <<= 1
            y_list.append(ybits)
            union_y |= ybits
            inter_y &= ybits

        # --- output prediction -------------------------------------------
        category = dyn.category
        passthrough = dyn.passthrough
        if category is Category.BRANCH:
            direction_ok = self._gshare.see(pc, dyn.taken)
            outbits = full_mask if direction_ok else 0
            has_out = True
        elif dyn.out is None:
            outbits = 0
            has_out = False
        elif passthrough is not None:
            outbits = y_list[passthrough]
            has_out = True
        elif category in (Category.LOAD, Category.STORE, Category.JUMP_REG):
            # Pass-through instruction whose data input is an immediate
            # (e.g. ``sw $zero``): a constant, unpredicted output.
            outbits = 0
            has_out = True
        else:
            out_value = dyn.out
            outbits = 0
            bit = 1
            for see in self._see_outputs:
                if see(pc, out_value):
                    outbits |= bit
                bit <<= 1
            has_out = True
        self._out_flags.append(outbits)

        # --- arcs ----------------------------------------------------------
        x_list = []
        if srcs:
            n = self._n_static
            arc_add = self._arc_table.add
            out_flags = self._out_flags
            combo_table = self._combo_table
            for slot, src in enumerate(srcs):
                producer = src.producer
                if producer is None:
                    self._d_arcs += 1
                    data_id = src.d_key()
                    self._d_nodes.add(data_id)
                    key = -(data_id * n + pc) - 1
                    xbits = 0
                else:
                    xbits = out_flags[producer]
                    key = (producer * n + src.producer_pc) * n + pc
                arc_add(key, combo_table[xbits][y_list[slot]])
                x_list.append(xbits)
            self._arc_count += len(srcs)

        # --- per-predictor node classification and trackers ----------------
        has_imm = dyn.has_imm
        n_srcs = len(srcs)
        is_branch = category is Category.BRANCH
        path_trackers = self._path_trackers
        seq_trackers = self._seq_trackers
        wl_counts = self._wl_counts
        for k in range(nk):
            bit = 1 << k
            has_p = (union_y & bit) != 0
            has_n = n_srcs > 0 and (inter_y & bit) == 0
            kind = in_kind(has_p, has_n, has_imm)
            out_p = (outbits & bit) != 0
            if has_out:
                self._node_stats[k].add(kind, out_p)
                self._node_ops[k][(kind, out_p, dyn.op)] += 1
            else:
                self._node_stats[k].no_output += 1
            if is_branch:
                self._branch_trackers[k].on_branch(kind, out_p)
            fully = ((inter_y & bit) != 0 or n_srcs == 0) and (
                not has_out or out_p
            )
            seq_trackers[k].on_node(fully)
            fully_un = (
                (union_y & bit) == 0
                and not ((outbits & bit) != 0 and has_out)
                and (n_srcs > 0 or has_out)
            )
            self._unpred_trackers[k].on_node(fully_un)
            if has_out and not out_p:
                self._critical[k].record(pc, terminated=has_p)
            if (self._reuse is not None and k == 0
                    and category is Category.ALU and dyn.out is not None):
                self._reuse.on_node(
                    pc, tuple(src.value for src in srcs), fully)
            tracker = path_trackers[k]
            tracker.begin_node()
            for slot in range(n_srcs):
                if not (y_list[slot] & bit):
                    continue
                if x_list[slot] & bit:
                    tracker.feed_propagate_arc(srcs[slot].producer)
                else:
                    src = srcs[slot]
                    if src.producer is None:
                        gen_class = GenClass.D
                    elif wl_counts[src.producer_pc] == 1:
                        gen_class = GenClass.W
                    else:
                        gen_class = GenClass.C
                    tracker.feed_generate_arc(gen_class)
            if has_out:
                tracker.end_node(out_p, kind)
            else:
                tracker.skip_node()

    # ------------------------------------------------------------------
    # Finalisation.
    # ------------------------------------------------------------------

    def finalize(self, name: str, static_counts=None) -> AnalysisResult:
        """Flush deferred state and build the :class:`AnalysisResult`.

        Args:
            name: workload name recorded in the result.
            static_counts: final per-PC execution counts; defaults to
                the analyzer's own running counts (exact whenever the
                whole trace passed through this analyzer).
        """
        if static_counts is None:
            static_counts = self._running_counts
        arc_stats = []
        result = AnalysisResult(
            name=name,
            nodes=self._node_count,
            arcs=self._arc_count,
            d_nodes=len(self._d_nodes),
            d_arcs=self._d_arcs,
            static_instructions=self._n_static,
            static_counts=list(static_counts),
        )
        recorder = get_recorder()
        if recorder.enabled:
            recorder.count("analyze.passes", 1)
            recorder.count("analyze.nodes", self._node_count)
            recorder.count("analyze.arcs", self._arc_count)
            for k, bank in enumerate(self._banks):
                for behavior, n in (
                    self._node_stats[k].behavior_counts().items()
                ):
                    if n:
                        recorder.count(
                            f"analyze.pred.{bank.kind}."
                            f"{behavior.name.lower()}", n,
                        )
        for k, bank in enumerate(self._banks):
            tracker = self._path_trackers[k]
            tracker.finalize()
            self._seq_trackers[k].finalize()
            self._unpred_trackers[k].finalize()
            pred = PredictorResult(
                kind=bank.kind,
                nodes=self._node_stats[k],
                paths=tracker.stats,
                trees=tracker.trees,
                sequences=self._seq_trackers[k].stats,
                branches=self._branch_trackers[k].stats,
                unpred=self._unpred_trackers[k].stats,
                critical=self._critical[k],
                node_ops=self._node_ops[k],
            )
            arc_stats.append(pred.arcs)
            result.predictors[bank.kind] = pred
        if self._reuse is not None:
            result.reuse = self._reuse.stats
        self._arc_table.flush(static_counts, arc_stats)
        return result


def analyze_trace(
    trace,
    n_static: int,
    name: str = "trace",
    config: AnalysisConfig | None = None,
    profile_counts=None,
    static_counts=None,
) -> AnalysisResult:
    """Analyse an iterable of :class:`DynInst` records (or a
    pre-decoded :class:`~repro.core.kernel.TraceColumns`) under one
    config: the one-config call of :func:`analyze_many`.

    The whole pass runs under an ``"analyze"`` span.  When ``trace``
    is a live machine generator the span necessarily includes the
    interleaved simulation time; the runner's two-tier path feeds
    decoded columns here, so there the span is pure analysis.
    """
    return analyze_many(trace, n_static, [config], name, profile_counts,
                        static_counts)[0]


def analyze_many(
    trace,
    n_static: int,
    configs,
    name: str = "trace",
    profile_counts=None,
    static_counts=None,
) -> list[AnalysisResult]:
    """Analyse one trace under many configs in a single pass.

    The fan-out driver of the trace tier: each result is exactly what
    an independent :func:`analyze_trace` run with that config would
    produce, including per-config ``max_instructions`` truncation.

    The columnar kernel runs every config: records are laid out as
    columns once (columns pass straight through) and predictor passes
    are cached per spec, so configs sharing predictor specs pay for
    each bank pass once.  Results are byte-identical to
    :func:`analyze_reference` — see :mod:`repro.core.kernel`.
    """
    configs = [config or AnalysisConfig() for config in configs]
    if not configs:
        return []
    budgets = [config.max_instructions for config in configs]
    limit = None if None in budgets else max(budgets)
    with get_recorder().span("analyze"):
        columns = as_columns(trace, n_static, limit)
        return analyze_columns_many(
            columns, configs, name, profile_counts, static_counts
        )


def analyze_reference(
    trace,
    n_static: int,
    configs,
    name: str = "trace",
    profile_counts=None,
    static_counts=None,
) -> list[AnalysisResult]:
    """The reference loop: one :class:`Analyzer` per config, fed the
    trace record by record in a single pass.

    This is the readable model (docs/model.md) and the differential
    oracle the columnar kernel is tested against; production never
    calls it.  Columns are turned back into records.  A config whose
    ``max_instructions`` budget is exhausted stops being fed mid-pass
    while larger-budget siblings keep consuming.
    """
    configs = [config or AnalysisConfig() for config in configs]
    if isinstance(trace, TraceColumns):
        trace = trace.to_records()
    analyzers = [
        Analyzer(n_static, config, profile_counts) for config in configs
    ]
    with get_recorder().span("analyze"):
        budgets = {config.max_instructions for config in configs}
        if analyzers and len(budgets) == 1:
            # Uniform budget: no per-record bookkeeping.
            (budget,) = budgets
            if budget is not None:
                trace = islice(trace, budget)
            feeds = [analyzer.feed for analyzer in analyzers]
            for dyn in trace:
                for feed in feeds:
                    feed(dyn)
        elif analyzers:
            # Mixed budgets, largest (None = unlimited) first so the
            # next analyzer to retire is always at the end of the list.
            live = sorted(
                ((config.max_instructions, analyzer.feed)
                 for config, analyzer in zip(configs, analyzers)),
                key=lambda item: _inf if item[0] is None else item[0],
                reverse=True,
            )
            count = 0
            while live and live[-1][0] == count:
                live.pop()
            for dyn in trace:
                if not live:
                    break
                for __, feed in live:
                    feed(dyn)
                count += 1
                while live and live[-1][0] == count:
                    live.pop()
        return [
            analyzer.finalize(name, static_counts)
            for analyzer in analyzers
        ]


_inf = float("inf")


def analyze_machine(
    machine,
    name: str = "program",
    config: AnalysisConfig | None = None,
    profile_counts=None,
) -> AnalysisResult:
    """Run ``machine`` to completion (or the configured instruction
    budget) and analyse its trace."""
    return analyze_trace(
        machine.trace(),
        len(machine.program.instructions),
        name=name,
        config=config,
        profile_counts=profile_counts,
        static_counts=None,
    )
