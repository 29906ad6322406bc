"""Two-tier execution: replay equivalence and config-sweep fan-out."""

import json

import pytest

from repro.core import AnalysisConfig, analyze_many, analyze_trace
from repro.core.export import result_to_dict
from repro.errors import RunnerError
from repro.runner import (
    ExecutionPolicy,
    ExperimentConfig,
    ExperimentRunner,
    ExperimentRun,
    JobFailure,
    ResultStore,
    TraceStore,
)
from repro.runner.api import _analyze, _capture
from repro.workloads import SUITE

BUDGET = 1_500


def _dump(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestReplayEquivalence:
    """A stored-and-reloaded trace must analyse byte-identically."""

    @pytest.mark.parametrize("name", [w.name for w in SUITE])
    def test_replay_matches_direct_simulation(self, tmp_path, name):
        config = ExperimentConfig(
            max_instructions=BUDGET, workloads=(name,)
        )
        direct = _analyze(name, config)

        trace_store = TraceStore(tmp_path)
        runner = ExperimentRunner(
            store=ResultStore(tmp_path / "r1"), trace_store=trace_store,
        )
        captured = runner.run(config).require()[name]
        assert _dump(captured) == _dump(direct)

        # Fresh result store, warm trace store: forced replay.
        replay_runner = ExperimentRunner(
            store=ResultStore(tmp_path / "r2"), trace_store=trace_store,
        )
        run = replay_runner.run(config)
        assert [m.status for m in run.metrics.jobs] == ["replayed"]
        assert _dump(run.require()[name]) == _dump(direct)


class TestAnalyzeMany:
    """One pass over the trace == N independent analyses."""

    @pytest.fixture(scope="class")
    def trace(self):
        config = ExperimentConfig(max_instructions=4_000)
        n_static, columns, __ = _capture("com", config, 4_000)
        return n_static, columns.to_records()

    def test_matches_independent_runs(self, trace):
        n_static, records = trace
        configs = [
            AnalysisConfig(max_instructions=4_000),
            AnalysisConfig(predictors=("last",), max_instructions=4_000),
            AnalysisConfig(predictors=("stride",), branch_predictor="local",
                           max_instructions=4_000),
        ]
        fanned = analyze_many(iter(records), n_static, configs, name="com")
        for config, got in zip(configs, fanned):
            want = analyze_trace(iter(records), n_static, name="com",
                                 config=config)
            assert _dump(got) == _dump(want)

    def test_mixed_budgets_truncate_per_config(self, trace):
        n_static, records = trace
        configs = [
            AnalysisConfig(max_instructions=1_000),
            AnalysisConfig(max_instructions=3_000),
            AnalysisConfig(max_instructions=None),
        ]
        fanned = analyze_many(iter(records), n_static, configs, name="com")
        for config, got in zip(configs, fanned):
            want = analyze_trace(iter(records), n_static, name="com",
                                 config=config)
            assert _dump(got) == _dump(want)

    def test_empty_config_list(self, trace):
        n_static, records = trace
        assert analyze_many(iter(records), n_static, [], name="com") == []


class TestRunMany:
    CONFIGS = [
        ExperimentConfig(max_instructions=2_000, workloads=("com", "go")),
        ExperimentConfig(max_instructions=2_000, workloads=("com", "go"),
                         predictors=("last",)),
        ExperimentConfig(max_instructions=1_200, workloads=("com",),
                         predictors=("stride",)),
    ]

    def test_sweep_matches_independent_runs(self, tmp_path):
        runner = ExperimentRunner(
            store=ResultStore(tmp_path), trace_store=TraceStore(tmp_path),
        )
        runs = runner.run_many(self.CONFIGS)
        assert len(runs) == len(self.CONFIGS)
        for config, run in zip(self.CONFIGS, runs):
            results = run.require()
            assert tuple(results) == config.workloads
            for name, got in results.items():
                assert _dump(got) == _dump(_analyze(name, config))

    def test_sweep_simulates_each_workload_once(self, tmp_path):
        trace_store = TraceStore(tmp_path)
        runner = ExperimentRunner(
            store=ResultStore(tmp_path), trace_store=trace_store,
        )
        runner.run_many(self.CONFIGS)
        # Two distinct executions (com, go) -> two stored traces, and
        # the sweep's extra configs never re-captured them.
        assert len(trace_store.entries()) == 2

    def test_second_sweep_is_all_hits(self, tmp_path):
        runner = ExperimentRunner(
            store=ResultStore(tmp_path), trace_store=TraceStore(tmp_path),
        )
        runner.run_many(self.CONFIGS)
        warm = ExperimentRunner(
            store=ResultStore(tmp_path), trace_store=TraceStore(tmp_path),
        )
        runs = warm.run_many(self.CONFIGS)
        statuses = [m.status for run in runs for m in run.metrics.jobs]
        assert set(statuses) == {"cache-hit"}

    def test_new_config_after_sweep_replays(self, tmp_path):
        runner = ExperimentRunner(
            store=ResultStore(tmp_path), trace_store=TraceStore(tmp_path),
        )
        runner.run_many(self.CONFIGS)
        fresh = ExperimentRunner(
            store=ResultStore(tmp_path / "other"),
            trace_store=TraceStore(tmp_path),
        )
        config = ExperimentConfig(
            max_instructions=1_800, workloads=("com", "go"),
            predictors=("context",),
        )
        [run] = fresh.run_many([config])
        assert [m.status for m in run.metrics.jobs] == ["replayed"] * 2
        assert run.metrics.replays == 2

    def test_sweep_failure_spares_other_configs(self, tmp_path,
                                                monkeypatch):
        from repro.workloads import suite as suite_module
        from repro.workloads.suite import Workload

        def explode(scale):
            raise RuntimeError("injected input fault")

        bad = Workload("bad", "999.bad", "int", "always fails", explode,
                       source_file=suite_module.SUITE[0].source_path)
        monkeypatch.setitem(suite_module._BY_NAME, "bad", bad)

        configs = [
            ExperimentConfig(max_instructions=1_200,
                             workloads=("com", "bad")),
            ExperimentConfig(max_instructions=1_200, workloads=("com",),
                             predictors=("last",)),
        ]
        runner = ExperimentRunner(store=None, trace_store=None)
        runs = runner.run_many(configs)
        assert set(runs[0].failures) == {"bad"}
        assert set(runs[0].results) == {"com"}
        assert runs[1].require()  # unaffected config still succeeds

    @pytest.mark.parametrize("entry", ["run", "run_many"])
    def test_parallel_replays_report_replayed(self, tmp_path, entry):
        # Warm traces, fresh result store, two groups on two workers:
        # the pool workers replay, and the parent must say so.
        config = ExperimentConfig(max_instructions=1_200,
                                  workloads=("com", "go"))
        ExperimentRunner(store=ResultStore(tmp_path / "cold"),
                         trace_store=TraceStore(tmp_path)).run(config)
        warm = ExperimentRunner(store=ResultStore(tmp_path / "warm"),
                                trace_store=TraceStore(tmp_path),
                                policy=ExecutionPolicy(jobs=2))
        if entry == "run":
            run = warm.run(config)
        else:
            [run] = warm.run_many([config])
        assert [(m.workload, m.status) for m in run.metrics.jobs] == [
            ("com", "replayed"), ("go", "replayed")]
        for name, result in run.require().items():
            assert _dump(result) == _dump(_analyze(name, config))

    @pytest.mark.slow
    def test_parallel_sweep_matches_serial(self, tmp_path):
        serial = ExperimentRunner(
            store=ResultStore(tmp_path / "s"),
            trace_store=TraceStore(tmp_path / "s"),
        ).run_many(self.CONFIGS)
        parallel = ExperimentRunner(
            store=ResultStore(tmp_path / "p"),
            trace_store=TraceStore(tmp_path / "p"),
            policy=ExecutionPolicy(jobs=2),
        ).run_many(self.CONFIGS, jobs=2)
        for left, right in zip(serial, parallel):
            for name in left.require():
                assert _dump(left.results[name]) == \
                    _dump(right.require()[name])


class TestRequireBugfix:
    def test_empty_error_string_still_raises_runner_error(self):
        run = ExperimentRun()
        run.failures["com"] = JobFailure(workload="com", error="")
        with pytest.raises(RunnerError, match="com: unknown"):
            run.require()

    def test_whitespace_error_string_still_raises_runner_error(self):
        run = ExperimentRun()
        run.failures["com"] = JobFailure(workload="com", error="  \n ")
        with pytest.raises(RunnerError, match="1 job\\(s\\) failed"):
            run.require()
