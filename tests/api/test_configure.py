"""configure(), the result wrappers, and the profiling CLI surface."""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.obs import set_recorder
from repro.runner import (
    ExecutionPolicy,
    ExperimentConfig,
    reset_default_runner,
)

BUDGET = 1_200


@pytest.fixture(autouse=True)
def _isolated_session(tmp_path, monkeypatch):
    """Each test gets its own default runner, cache and recorder."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-cache"))
    reset_default_runner()
    previous = set_recorder(None)
    yield
    set_recorder(previous)
    reset_default_runner()


def _config(**kwargs) -> ExperimentConfig:
    kwargs.setdefault("workloads", ("com",))
    kwargs.setdefault("max_instructions", BUDGET)
    return ExperimentConfig(**kwargs)


class TestConfigure:
    def test_returns_and_installs_the_runner(self):
        from repro.runner import default_runner

        runner = api.configure(observe=True)
        assert default_runner() is runner
        assert runner.obs.enabled

    def test_cache_dir_builds_both_tiers(self, tmp_path):
        runner = api.configure(cache_dir=tmp_path / "mine")
        assert runner.store.root == tmp_path / "mine"
        assert runner.trace_store.root == tmp_path / "mine"

    def test_cache_dir_none_disables_caching(self):
        runner = api.configure(cache_dir=None)
        assert runner.store is None and runner.trace_store is None

    def test_unspecified_settings_are_inherited(self, tmp_path):
        api.configure(cache_dir=tmp_path / "mine",
                      policy=ExecutionPolicy(jobs=3))
        runner = api.configure(observe=True)
        assert runner.store.root == tmp_path / "mine"
        assert runner.policy.jobs == 3
        assert runner.obs.enabled

    def test_accepts_obs_config(self, tmp_path):
        events = tmp_path / "events.jsonl"
        runner = api.configure(
            observe=api.ObsConfig(events_path=str(events))
        )
        runner.run(_config())
        assert events.exists()


class TestResultsCarryProfiles:
    def test_run_workload_profile(self):
        api.configure(observe=True)
        result = api.run_workload("com", _config())
        assert result.profile is not None
        assert "runner.resolve.computed" in result.profile["counters"]

    def test_run_suite_result_is_a_dict_with_extras(self):
        api.configure(observe=True)
        results = api.run_suite(_config())
        assert isinstance(results, dict)
        assert list(results) == ["com"]
        assert results.metrics.count("computed") == 1
        assert results.profile["counters"]["sim.instructions"] == BUDGET

    def test_run_sweep_result_is_a_list_with_extras(self):
        api.configure(observe=True)
        sweep = api.run_sweep([_config(), _config(predictors=("last",))])
        assert isinstance(sweep, list) and len(sweep) == 2
        assert all(list(entry) == ["com"] for entry in sweep)
        assert sweep.profile["counters"]["sim.traces"] == 1
        assert sweep[0].profile is sweep.profile

    def test_profiles_absent_when_not_observing(self):
        results = api.run_suite(_config())
        assert results.profile is None
        assert api.run_sweep([_config()]).profile is None


class TestProfilingCli:
    def _run(self, main, cache, *extra):
        return main([
            "run", "--workloads", "com", "--max-instructions", str(BUDGET),
            "--jobs", "1", "--cache-dir", str(cache), *extra,
        ])

    def test_run_profile_prints_and_persists(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        assert self._run(main, cache, "--profile") == 0
        out = capsys.readouterr().out
        assert "runner.run" in out and "sim.instructions" in out
        payload = json.loads((cache / "metrics.json").read_text())
        counters = payload["profile"]["counters"]
        assert counters["runner.resolve.computed"] == 1
        assert counters["sim.instructions"] == BUDGET
        # Spans cover the whole pipeline.
        names = set()

        def walk(spans):
            for span in spans:
                names.add(span["name"])
                walk(span["children"])

        walk(payload["profile"]["spans"])
        assert {"runner.run", "simulate", "analyze",
                "trace.encode", "store.result.put"} <= names

    def test_run_without_profile_stays_clean(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        assert self._run(main, cache) == 0
        assert "sim.instructions" not in capsys.readouterr().out
        payload = json.loads((cache / "metrics.json").read_text())
        assert "profile" not in payload

    def test_stats_renders_formats(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        assert self._run(main, cache, "--profile") == 0
        capsys.readouterr()

        assert main(["stats", "--cache-dir", str(cache)]) == 0
        assert "sim.instructions" in capsys.readouterr().out

        assert main(["stats", "--cache-dir", str(cache),
                     "--format", "prom"]) == 0
        assert "repro_sim_instructions_total" in capsys.readouterr().out

        assert main(["stats", "--cache-dir", str(cache),
                     "--format", "jsonl"]) == 0
        events = [json.loads(line) for line in
                  capsys.readouterr().out.strip().splitlines()]
        assert events[0] == {"type": "meta", "version": 1}

    def test_stats_without_profile_explains(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        assert self._run(main, cache) == 0
        capsys.readouterr()
        assert main(["stats", "--cache-dir", str(cache)]) == 1
        assert "--profile" in capsys.readouterr().err

    def test_cache_info_reports_occupancy_and_hit_rates(
            self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        assert self._run(main, cache, "--profile") == 0
        assert self._run(main, cache, "--profile") == 0  # warm: hits
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "% full" in out
        assert "hit-rate: 100%" in out

    def test_cache_prune_evicts_to_cap(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        assert self._run(main, cache, "--profile") == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "evicted 0 cached result(s)" in out  # within cap: no-op
