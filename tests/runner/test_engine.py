"""Analysis-path selection through the runner.

The config picks the path: the columnar kernel runs every job whose
config it supports, and a config :func:`columnar_unsupported` names a
reason for runs the reference loop instead, counting
``analyze.fallback``.  Either way the result is byte-identical to the
reference oracle, on cold captures, warm replays and pool workers.
"""

from __future__ import annotations

import json

import pytest

from repro.core import (
    AnalysisConfig,
    analyze_many,
    analyze_reference,
    analyze_trace,
    columnar_unsupported,
)
from repro.core.export import result_to_dict
from repro.core.kernel import TraceColumns
from repro.obs import Recorder, recording
from repro.runner import (
    ExecutionPolicy,
    ExperimentConfig,
    ExperimentRunner,
    Job,
    ResultStore,
    TraceStore,
    trace_key,
)
from repro.workloads import get_workload

CONFIG = ExperimentConfig(workloads=("com",), max_instructions=3_000)

#: Five banks overflow the kernel's combo byte — the one unsupported
#: shape reachable through ExperimentConfig.
FIVE_BANKS = ExperimentConfig(
    workloads=("com",), max_instructions=3_000,
    predictors=("last", "stride", "context", "hybrid", "last(bits=8)"),
)


def _dump(result) -> str:
    return json.dumps(result_to_dict(result))


def _oracle(name: str, config: ExperimentConfig) -> str:
    """The reference loop's result for one job, from a fresh capture."""
    machine = get_workload(name).machine(scale=config.scale)
    analysis_config = Job(name, config).analysis_config()
    (result,) = analyze_reference(
        machine.trace(), len(machine.program.instructions),
        [analysis_config], name=name,
    )
    return _dump(result)


def _fallbacks(run) -> int:
    return run.metrics.profile["counters"].get("analyze.fallback", 0)


def test_engines_agree_through_runner(tmp_path):
    runner = ExperimentRunner(store=None,
                              trace_store=TraceStore(tmp_path))
    run = runner.run(CONFIG)
    assert not run.failures, run.failures
    assert _dump(run.results["com"]) == _oracle("com", CONFIG)


def test_warm_replay_feeds_columns(tmp_path):
    trace_store = TraceStore(tmp_path)
    runner = ExperimentRunner(store=None, trace_store=trace_store)
    cold = runner.run(CONFIG)
    assert not cold.failures
    key = trace_key("com", CONFIG.scale)
    stored = trace_store.get(key, CONFIG.max_instructions)
    assert stored is not None
    __, columns = stored
    assert isinstance(columns, TraceColumns)
    runner.clear_memo()
    warm = runner.run(CONFIG)
    assert [m.status for m in warm.metrics.jobs] == ["replayed"]
    assert _dump(warm.results["com"]) == _dump(cold.results["com"])


def test_auto_falls_back_for_unsupported_config(tmp_path):
    assert columnar_unsupported(
        Job("com", FIVE_BANKS).analysis_config()) is not None
    runner = ExperimentRunner(store=None, trace_store=TraceStore(tmp_path),
                              observe=True)
    cold = runner.run(FIVE_BANKS)
    assert not cold.failures, cold.failures
    assert [m.status for m in cold.metrics.jobs] == ["computed"]
    assert _fallbacks(cold) >= 1
    # Warm replay: the stored trace comes back as columns and the
    # reference loop rebuilds records from them.
    runner.clear_memo()
    warm = runner.run(FIVE_BANKS)
    assert [m.status for m in warm.metrics.jobs] == ["replayed"]
    assert _fallbacks(warm) >= 1
    oracle = _oracle("com", FIVE_BANKS)
    assert _dump(cold.results["com"]) == oracle
    assert _dump(warm.results["com"]) == oracle


def test_track_reuse_falls_back_on_replayed_columns(tmp_path):
    """``track_reuse`` is not an ExperimentConfig field, so it is
    driven through the core entry points on a stored trace's columns
    — the same object a warm runner replay hands the analysis."""
    config = AnalysisConfig(track_reuse=True, max_instructions=3_000)
    assert columnar_unsupported(config) is not None
    trace_store = TraceStore(tmp_path)
    ExperimentRunner(store=None, trace_store=trace_store).run(CONFIG)
    header, columns = trace_store.get(trace_key("com", 1), 3_000)
    assert isinstance(columns, TraceColumns)
    n_static = header["n_static"]
    with recording(Recorder()) as rec:
        single = analyze_trace(columns, n_static, name="com",
                               config=config)
        many = analyze_many(columns, n_static, [config, AnalysisConfig(
            max_instructions=3_000)], name="com")
    assert rec.snapshot()["counters"]["analyze.fallback"] == 2
    (oracle,) = analyze_reference(columns.to_records(), n_static,
                                  [config], name="com")
    assert single.reuse is not None
    assert _dump(single) == _dump(oracle) == _dump(many[0])


def test_supported_config_never_falls_back(tmp_path):
    runner = ExperimentRunner(store=None, trace_store=TraceStore(tmp_path),
                              observe=True)
    run = runner.run(CONFIG)
    assert not run.failures
    assert _fallbacks(run) == 0


def test_parallel_workers_fall_back(tmp_path):
    config = ExperimentConfig(workloads=("com", "go"),
                              max_instructions=3_000,
                              predictors=FIVE_BANKS.predictors)
    runner = ExperimentRunner(
        store=ResultStore(tmp_path), trace_store=TraceStore(tmp_path),
        policy=ExecutionPolicy(jobs=2),
    )
    run = runner.run(config, jobs=2)
    assert not run.failures, run.failures
    for name in ("com", "go"):
        assert _dump(run.results[name]) == _oracle(name, config)


def test_runner_rejects_unknown_engine():
    with pytest.raises(TypeError):
        ExperimentRunner(engine="simd")
