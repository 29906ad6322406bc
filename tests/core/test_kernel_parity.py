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

import json

import pytest

from repro.core import (
    AnalysisConfig,
    analyze_many,
    analyze_reference,
    analyze_trace,
)
from repro.core.export import result_to_dict
from repro.core.kernel import TraceColumns, columnar_unsupported
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
    for configs in (mixed, sweep):
        reference = analyze_reference(records, n_static, configs,
                                      name="com")
        columnar = analyze_many(records, n_static, configs, name="com")
        assert ([_dump(r) for r in columnar]
                == [_dump(r) for r in reference])
        segmented = [
            analyze_segmented(records, n_static, config, tmp_path,
                              segments=4, name="com")
            for config in configs
        ]
        assert ([_dump(r) for r in segmented]
                == [_dump(r) for r in reference])


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

