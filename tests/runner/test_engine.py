"""One analysis path through the runner.

The columnar kernel runs every job: five predictor banks and
instruction-reuse tracking included.  Its result is byte-identical to
the reference oracle on cold captures, warm replays and pool workers,
and a warm replay hands the stored trace's columns straight to the
kernel: nothing lays the trace out a second time.
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

#: Five banks, reachable through ExperimentConfig with parameterised
#: specs.
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


def _counters(run) -> dict:
    return run.metrics.profile["counters"]


def _span_names(spans) -> set:
    names = set()
    for span in spans:
        names.add(span.name)
        names |= _span_names(span.children)
    return names


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


def test_five_banks_run_on_the_kernel(tmp_path):
    runner = ExperimentRunner(store=None, trace_store=TraceStore(tmp_path),
                              observe=True)
    cold = runner.run(FIVE_BANKS)
    assert not cold.failures, cold.failures
    assert [m.status for m in cold.metrics.jobs] == ["computed"]
    runner.clear_memo()
    warm = runner.run(FIVE_BANKS)
    assert [m.status for m in warm.metrics.jobs] == ["replayed"]
    oracle = _oracle("com", FIVE_BANKS)
    for run in (cold, warm):
        assert _dump(run.results["com"]) == oracle
        assert _counters(run)["analyze.passes"] >= 1
        assert "analyze.fallback" not in _counters(run)


def test_track_reuse_runs_on_replayed_columns(tmp_path):
    """``track_reuse`` is not an ExperimentConfig field, so it is
    driven through the core entry points on a stored trace's columns
    — the same object a warm runner replay hands the analysis."""
    config = AnalysisConfig(track_reuse=True, max_instructions=3_000)
    trace_store = TraceStore(tmp_path)
    ExperimentRunner(store=None, trace_store=trace_store).run(CONFIG)
    header, columns = trace_store.get(trace_key("com", 1), 3_000)
    assert isinstance(columns, TraceColumns)
    n_static = header["n_static"]
    (oracle,) = analyze_reference(columns.to_records(), n_static,
                                  [config], name="com")
    with recording(Recorder()) as rec:
        single = analyze_trace(columns, n_static, name="com",
                               config=config)
        many = analyze_many(columns, n_static, [config, AnalysisConfig(
            max_instructions=3_000)], name="com")
    assert "analyze.fallback" not in rec.snapshot()["counters"]
    assert single.reuse is not None and single.reuse.eligible > 0
    assert _dump(single) == _dump(oracle) == _dump(many[0])


def test_supported_config_never_falls_back(tmp_path, monkeypatch):
    """Every config is supported, and a warm replay never falls back
    to records: ``run`` and ``run_many`` replays and a ``track_reuse``
    analysis over a stored trace's columns open no
    ``analyze.kernel.layout`` span and never call ``to_records``."""
    trace_store = TraceStore(tmp_path)
    runner = ExperimentRunner(store=None, trace_store=trace_store,
                              observe=True)
    assert not runner.run(CONFIG).failures
    header, columns = trace_store.get(trace_key("com", 1), 3_000)
    runner.clear_memo()

    def refuse(self):
        raise AssertionError("a replay laid the trace out as records")

    monkeypatch.setattr(TraceColumns, "to_records", refuse)
    reuse = AnalysisConfig(track_reuse=True, max_instructions=3_000)
    stride = ExperimentConfig(workloads=("com",), max_instructions=2_000,
                              predictors=("stride",))
    with recording(Recorder()) as rec:
        runs = [runner.run(CONFIG),
                *runner.run_many([FIVE_BANKS, stride])]
        (result,) = analyze_many(columns, header["n_static"], [reuse],
                                 name="com")
    for run in runs:
        assert not run.failures, run.failures
        assert [m.status for m in run.metrics.jobs] == ["replayed"]
    assert result.reuse is not None
    names = _span_names(rec.roots)
    assert "analyze.kernel.banks" in names
    assert "analyze.kernel.layout" not in names


def test_parallel_workers_run_five_banks(tmp_path):
    config = ExperimentConfig(workloads=("com", "go"),
                              max_instructions=3_000,
                              predictors=FIVE_BANKS.predictors)
    runner = ExperimentRunner(
        store=ResultStore(tmp_path), trace_store=TraceStore(tmp_path),
        policy=ExecutionPolicy(jobs=2), observe=True,
    )
    run = runner.run(config, jobs=2)
    assert not run.failures, run.failures
    assert "analyze.fallback" not in _counters(run)
    for name in ("com", "go"):
        assert _dump(run.results[name]) == _oracle(name, config)


def test_runner_rejects_unknown_engine():
    with pytest.raises(TypeError):
        ExperimentRunner(engine="simd")
