"""Differential pinning of the columnar kernel to the reference loop.

The columnar kernel's correctness contract is byte-identity: for every
supported configuration, ``result_to_dict`` of the kernel's
:class:`AnalysisResult` must serialise to exactly the JSON the
reference per-instruction loop (:func:`analyze_reference`, the oracle)
produces — same counts, same
Counter insertion order, same float bits.  These tests pin that
contract over the fixed workload suite, a ``gen:`` sample grid, config
variants that exercise every classification path, and the v2
trace-file decode entry.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.core import (
    AnalysisConfig,
    analyze_many,
    analyze_reference,
    analyze_trace,
)
from repro.core.export import result_to_dict
from repro.core.kernel import TraceColumns, columnar_unsupported
from repro.core.events import GenClass, InKind
from repro.core.kernel.engine import (
    _NODE_T,
    _NO_OUTPUT,
    ResumableWalk,
    _assemble,
)
from repro.core.paths import PathTracker
from repro.gen import generated_workload
from repro.obs import Recorder, recording
from repro.workloads import SUITE, get_workload
from tests.conftest import analyze_segmented

#: Budget keeping the full-suite sweep inside tier-1 time.
BUDGET = 4_000

#: Config variants covering every kernel code path: default bank,
#: parameterized specs, hybrid + branch-predictor variants, tracking
#: toggles, tree tracking per bank, tiny budgets.
VARIANTS = {
    "default": AnalysisConfig(max_instructions=BUDGET),
    "hybrid": AnalysisConfig(
        predictors=("hybrid", "last"), max_instructions=BUDGET
    ),
    "local-branch": AnalysisConfig(
        branch_predictor="local", gshare_bits=10, max_instructions=BUDGET
    ),
    "params": AnalysisConfig(
        predictors=("last(bits=8,hysteresis=0)", "context(l1=8,l2=10,order=2)",
                    "stride(bits=8)"),
        max_instructions=BUDGET,
    ),
    "trees-all": AnalysisConfig(
        trees_for=("last", "stride", "context"), gen_cap=4,
        max_instructions=BUDGET,
    ),
    "tracking-off": AnalysisConfig(
        track_sequences=False, track_branches=False, track_unpred=False,
        track_paths=False, max_instructions=BUDGET,
    ),
    "tiny": AnalysisConfig(max_instructions=7),
}


def _trace_of(name: str):
    machine = get_workload(name).machine()
    records = list(machine.trace())
    return records, len(machine.program.instructions)


def _dump(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=False)


def _reference(records, n_static, config, name="trace",
               profile_counts=None):
    (result,) = analyze_reference(records, n_static, [config], name=name,
                                  profile_counts=profile_counts)
    return result


def _assert_engines_agree(records, n_static, config, directory,
                          name="trace", profile_counts=None):
    # A supported config, so analyze_trace runs the kernel.
    assert columnar_unsupported(config) is None
    reference = _reference(records, n_static, config, name=name,
                           profile_counts=profile_counts)
    columnar = analyze_trace(records, n_static, name=name, config=config,
                             profile_counts=profile_counts)
    assert _dump(columnar) == _dump(reference)
    # The segment-parallel kernel shares the byte-identity contract:
    # splitting the columnar pass must be invisible in the output
    # (docs/sharding.md).  Every budget here spans at least 3 records,
    # so the planner always splits.
    segmented = analyze_segmented(records, n_static, config, directory,
                                  segments=3, name=name,
                                  profile_counts=profile_counts)
    assert _dump(segmented) == _dump(reference)


@pytest.mark.parametrize("name", [w.name for w in SUITE])
def test_suite_workloads_identical(name, tmp_path):
    records, n_static = _trace_of(name)
    _assert_engines_agree(records, n_static,
                          AnalysisConfig(max_instructions=BUDGET),
                          tmp_path, name=name)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_config_variants_identical(variant, tmp_path):
    records, n_static = _trace_of("com")
    _assert_engines_agree(records, n_static, VARIANTS[variant], tmp_path,
                          name="com")


@pytest.mark.parametrize("gen_name", [
    "gen:loopy@1",
    "gen:branchy@2",
    "gen:pointer-chase@3",
    "gen:float-kernel@4",
    "gen:callgraph@5",
])
def test_generated_grid_identical(gen_name, tmp_path):
    machine = generated_workload(gen_name).machine()
    records = list(machine.trace())
    n_static = len(machine.program.instructions)
    _assert_engines_agree(records, n_static,
                          AnalysisConfig(max_instructions=BUDGET),
                          tmp_path, name=gen_name)


def test_profiled_counts_identical(tmp_path):
    records, n_static = _trace_of("go")
    counts = [0] * 4096
    for dyn in records:
        if dyn.pc < len(counts):
            counts[dyn.pc] += 1
    _assert_engines_agree(records, n_static,
                          AnalysisConfig(max_instructions=BUDGET),
                          tmp_path, name="go", profile_counts=counts)


def test_analyze_many_identical(tmp_path):
    records, n_static = _trace_of("com")
    mixed = [
        AnalysisConfig(max_instructions=BUDGET),
        AnalysisConfig(predictors=("hybrid",), max_instructions=2_000),
        AnalysisConfig(gshare_bits=8, max_instructions=BUDGET),
    ]
    # Shaped like a design-space sweep over one stored trace: the same
    # banks at a quarter, a half, then the full budget (smallest first,
    # so every shared predictor pass is first asked for a prefix),
    # context trees at two caps, and a single-bank ablation.
    sweep = [
        AnalysisConfig(max_instructions=BUDGET // 4),
        AnalysisConfig(max_instructions=BUDGET // 2),
        AnalysisConfig(max_instructions=BUDGET),
        AnalysisConfig(predictors=("context",), gen_cap=8,
                       max_instructions=BUDGET // 2),
        AnalysisConfig(predictors=("context",), gen_cap=32,
                       max_instructions=BUDGET),
        AnalysisConfig(predictors=("stride",), trees_for=(),
                       max_instructions=BUDGET),
    ]
    # Shaped like perfbench's replay sweep, to pin the per-call
    # sharing: context walked tracked at two caps and untracked, from
    # different bank tuples; budgets out of order; a second gshare
    # size; and ten distinct specs under the default branch predictor,
    # so its lanes split into two assembly groups.
    lasts = tuple(f"last(bits={bits})" for bits in range(6, 13))
    shared = [
        AnalysisConfig(predictors=("stride", "context"), gen_cap=4,
                       max_instructions=BUDGET // 2),
        AnalysisConfig(predictors=("context",), trees_for=(),
                       max_instructions=BUDGET),
        AnalysisConfig(predictors=("last", "context"), gen_cap=16,
                       max_instructions=BUDGET // 4),
        AnalysisConfig(predictors=("context", "stride"), gen_cap=4,
                       max_instructions=BUDGET),
        AnalysisConfig(predictors=lasts[:4], trees_for=lasts[:1],
                       max_instructions=BUDGET // 2),
        AnalysisConfig(predictors=lasts[4:], trees_for=(),
                       max_instructions=BUDGET // 4),
        AnalysisConfig(predictors=("context", "last"), trees_for=(),
                       gshare_bits=10, max_instructions=BUDGET // 2),
        AnalysisConfig(predictors=("context",), gen_cap=16,
                       gshare_bits=10, max_instructions=BUDGET),
    ]
    assert len(records) >= BUDGET
    for configs in (mixed, sweep, shared):
        reference = analyze_reference(records, n_static, configs,
                                      name="com")
        recorder = Recorder()
        with recording(recorder):
            columnar = analyze_many(records, n_static, configs,
                                    name="com")
        assert ([_dump(r) for r in columnar]
                == [_dump(r) for r in reference])
        segmented = [
            analyze_segmented(records, n_static, config, tmp_path,
                              segments=4, name="com")
            for config in configs
        ]
        assert ([_dump(r) for r in segmented]
                == [_dump(r) for r in reference])
    # The shared sweep's walks: context/4 to the full budget (its half
    # budget and the untracked full one ride on it), context/16 to a
    # quarter, last(bits=6)/64 to a half, and under gshare_bits=10
    # context/16 to the full budget (serving untracked context at a
    # half).  Untracked: stride to the full budget, last to a quarter,
    # three last(bits=..) to a half, three to a quarter, and last to a
    # half under gshare_bits=10.
    counters = recorder.snapshot()["counters"]
    assert counters["analyze.walk.records.tracked"] == (
        BUDGET + BUDGET // 4 + BUDGET // 2 + BUDGET)
    assert counters["analyze.walk.records.untracked"] == (
        BUDGET + BUDGET // 4 + 3 * (BUDGET // 2) + 3 * (BUDGET // 4)
        + BUDGET // 2)
    # Ten specs under gshare/16 fill two groups of at most 8 lanes;
    # gshare/10 holds two.
    assert counters["analyze.assemble.calls"] == 3
    # The tracked walks intern at most one set per record and at least
    # one per generate node, and their snapshots expand fewer gids
    # than a per-element walk updates (each element once per gid of
    # its set).  Each walk's largest snapshot is the config at its
    # largest budget.
    largest = [(reference[3], "context"), (reference[2], "context"),
               (reference[4], lasts[0]), (reference[7], "context")]
    preds = [result.predictors[spec] for result, spec in largest]
    node_generates = sum(sum(pred.paths.gen_counts[3:]) for pred in preds)
    updates = sum(size * n for pred in preds
                  for size, n in pred.trees.influence_hist.items())
    assert (node_generates <= counters["analyze.walk.sets"]
            <= counters["analyze.walk.records.tracked"])
    assert 0 < counters["analyze.walk.expanded"] < updates


def test_walk_snapshot_is_detached():
    """A finalized snapshot survives further feeds unchanged and equals
    a fresh walk cut at the same record."""
    records, n_static = _trace_of("com")
    columns = TraceColumns.from_records(records, n_static)
    lane = _assemble(columns, ("context",), "gshare", 16, BUDGET)["context"]
    codes = lane["comp"].translate(_NODE_T)
    gcol = columns.genclass_so_far()

    def walk_to(cut, track_trees, resume_to=None):
        walk = ResumableWalk(track_trees, 8)
        walk.feed(cut, columns.src_start, lane["y"], lane["x"],
                  columns.src_prod, gcol, codes)
        snapshot = walk.finalize()
        before = repr(snapshot)
        if resume_to is not None:
            walk.feed(resume_to, columns.src_start, lane["y"], lane["x"],
                      columns.src_prod, gcol, codes, cut)
        return snapshot, before

    for track_trees in (False, True):
        snapshot, before = walk_to(BUDGET // 3, track_trees,
                                   resume_to=BUDGET)
        fresh, __ = walk_to(BUDGET // 3, track_trees)
        assert repr(snapshot) == before == repr(fresh)


def _tallies(paths, trees) -> str:
    """A walk snapshot as JSON, Counters in insertion order."""
    return json.dumps([
        paths.propagate_elements, paths.class_counts,
        list(paths.combo_counts.items()), paths.gen_counts,
        [list(hist.items()) for hist in (
            trees.depth_hist, trees.agg_hist, trees.influence_hist,
            trees.distance_hist)],
        trees.truncated,
    ])


def _walk_columns(starts, ybk, xbk, prods, gcol, codes, cuts, gen_cap):
    """Snapshots at each cut of the kernel walk and of the reference
    PathTracker, driven over the same columns as the analyzer drives
    it (so the tracker is the oracle for every cut)."""
    walk = ResumableWalk(True, gen_cap)
    tracker = PathTracker(track_trees=True, gen_cap=gen_cap)
    ours, theirs = [], []
    r0 = 0
    for cut in cuts:
        walk.feed(cut, starts, ybk, xbk, prods, gcol, codes, r0)
        ours.append(_tallies(*walk.finalize()))
        for r in range(r0, cut):
            tracker.begin_node()
            for j in range(starts[r], starts[r + 1]):
                if ybk[j]:
                    if xbk[j]:
                        tracker.feed_propagate_arc(prods[j])
                    else:
                        tracker.feed_generate_arc(GenClass(gcol[j]))
            code = codes[r]
            if code == _NO_OUTPUT:
                tracker.skip_node()
            else:
                tracker.end_node(bool(code & 1), InKind(code >> 1))
        snapshot = copy.deepcopy(tracker)
        snapshot.finalize()
        theirs.append(_tallies(snapshot.stats, snapshot.trees))
        r0 = cut
    return walk, ours, theirs


@pytest.mark.parametrize("gen_cap", [0, 2, 64])
@pytest.mark.parametrize("spec", ["stride", "context"])
def test_walk_cut_anywhere_matches_tracker(spec, gen_cap):
    """A tracked walk fed in random cuts, snapshotted at each, matches
    the reference tracker at every cut and one unsplit walk at the
    last; a second snapshot at the same cut changes nothing."""
    records, n_static = _trace_of("com")
    columns = TraceColumns.from_records(records, n_static)
    lane = _assemble(columns, (spec,), "gshare", 16, BUDGET)[spec]
    args = (columns.src_start, lane["y"], lane["x"], columns.src_prod,
            columns.genclass_so_far(), lane["comp"].translate(_NODE_T))
    rng = random.Random(gen_cap)
    cuts = sorted(rng.sample(range(1, BUDGET), 7)) + [BUDGET]
    walk, ours, theirs = _walk_columns(*args, cuts, gen_cap)
    assert ours == theirs
    if spec == "stride" and gen_cap <= 2:
        assert json.loads(ours[-1])[-1] > 0  # truncation fired
    expanded = walk.expanded
    assert _tallies(*walk.finalize()) == ours[-1]
    assert walk.expanded == expanded
    __, (unsplit,), __ = _walk_columns(*args, [BUDGET], gen_cap)
    assert unsplit == ours[-1]


def test_walk_set_counted_after_later_sets():
    """A generate's singleton set stored uncounted and first counted
    after a later generate's set: per-generate tallies follow
    generate order, not the order sets were first counted."""
    pp = int(InKind.PP) * 2 + 1      # propagate node, output predicted
    ii = int(InKind.II) * 2 + 1      # generate node (immediates only)
    # Record: its predicted input arcs, as (producer, propagate?).
    stream = [
        (ii, []),                     # r0: gid 0, uncounted for now
        (ii, []),                     # r1: gid 1
        (pp, [(1, True)]),            # r2: counts gid 1's set first
        (pp, [(0, True), (2, True)]),  # r3: then gid 0's; a union
        (pp, [(2, True), (2, True)]),  # r4: one producer read twice
        (pp, [(4, True)]),            # r5
        (pp, [(3, True), (-1, False)]),  # r6: a union and gid 2
        (ii, []),                     # r7: gid 3, never counted
        (_NO_OUTPUT, [(5, True)]),    # r8: counted, stores nothing
    ]
    starts, ybk, xbk, prods, gcol, codes = [0], [], [], [], [], []
    for code, arcs in stream:
        for producer, propagate in arcs:
            ybk.append(1)
            xbk.append(1 if propagate else 0)
            prods.append(producer)
            gcol.append(int(GenClass.D))
        starts.append(len(prods))
        codes.append(code)
    # gen_cap 1 truncates r3's union and r6's generate arc; gen_cap 0
    # also r4's second read of the same set.
    for gen_cap in (0, 1, 64):
        __, ours, theirs = _walk_columns(
            starts, bytes(ybk), bytes(xbk), prods, gcol, codes,
            [3, 6, len(stream)], gen_cap)
        assert ours == theirs
    # Uncapped, gid 0 reaches depth 6 (r6) and gid 1 depth 7 (r8's
    # arc): the histograms list them in generate order, though gid 1's
    # set was counted first.
    depth_hist, agg_hist = json.loads(ours[-1])[4][:2]
    assert depth_hist == [[6, 2], [7, 1], [0, 1]]
    assert agg_hist == [[6, 5], [7, 12], [0, 0]]


def test_columns_accepted_by_both_engines():
    records, n_static = _trace_of("com")
    columns = TraceColumns.from_records(records, n_static)
    config = AnalysisConfig(max_instructions=BUDGET)
    from_records = analyze_trace(records, n_static, name="com",
                                 config=config)
    from_columns = analyze_trace(columns, n_static, name="com",
                                 config=config)
    # The reference loop rebuilds records from columns transparently.
    reference = _reference(columns, n_static, config, name="com")
    assert _dump(from_columns) == _dump(from_records) == _dump(reference)


def test_v2_file_decode_identical(tmp_path):
    from repro.cpu.tracefile import read_trace_columns, save_trace

    records, n_static = _trace_of("app")  # float workload: IEEE paths
    path = tmp_path / "app.trace.gz"
    save_trace(records, path, n_static, complete=True, workload="app")
    __, columns = read_trace_columns(path)
    config = AnalysisConfig(max_instructions=BUDGET)
    from_file = analyze_trace(columns, n_static, name="app",
                              config=config)
    reference = _reference(records, n_static, config, name="app")
    assert _dump(from_file) == _dump(reference)


# ----------------------------------------------------------------------
# Path selection: the config picks the kernel or the reference loop.
# ----------------------------------------------------------------------

def test_unsupported_configs_detected():
    assert columnar_unsupported(AnalysisConfig()) is None
    assert columnar_unsupported(AnalysisConfig(track_reuse=True))
    five = ("last", "stride", "context", "hybrid", "last(bits=8)")
    assert columnar_unsupported(AnalysisConfig(predictors=five))


def test_auto_falls_back_and_counts():
    records, n_static = _trace_of("com")
    config = AnalysisConfig(track_reuse=True, max_instructions=2_000)
    with recording(Recorder()) as rec:
        auto = analyze_trace(records, n_static, config=config)
        assert rec.snapshot()["counters"].get("analyze.fallback") == 1
    reference = _reference(records, n_static, config)
    assert _dump(auto) == _dump(reference)

