"""End-to-end runner behaviour: suites, caching, faults, CLI parity."""

import multiprocessing

import pytest

from repro import api
from repro.cli import main as cli_main
from repro.errors import RunnerError
from repro.campaign import CampaignResult, paper_spec
from repro.campaign.exhibits import build_tables
from repro.runner import (
    ExecutionPolicy,
    ExperimentConfig,
    ExperimentRunner,
    ResultStore,
)
from repro.runner import api as runner_api
from repro.runner.api import _analyze
from repro.workloads import suite as suite_module
from repro.workloads.suite import Workload

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

SMALL = ExperimentConfig(max_instructions=3_000, workloads=("com", "go"))

_analyze_group = runner_api._analyze_group


def _crashing_analyze_group(name, configs, trace_store, policy):
    if name == "go":
        raise RuntimeError("injected analysis fault")
    return _analyze_group(name, configs, trace_store, policy)


@pytest.fixture
def faulty_workload(monkeypatch):
    """Registers 'bad': a workload whose input generator explodes."""

    def explode(scale):
        raise RuntimeError("injected input fault")

    workload = Workload("bad", "999.bad", "int", "always fails", explode,
                        source_file=suite_module.SUITE[0].source_path)
    monkeypatch.setitem(suite_module._BY_NAME, "bad", workload)
    return workload


class TestSerialRunner:
    def test_suite_run_and_memo_identity(self, tmp_path):
        runner = ExperimentRunner(store=ResultStore(tmp_path))
        first = runner.run(SMALL).require()
        second = runner.run(SMALL).require()
        assert list(first) == ["com", "go"]
        assert first["com"] is second["com"]

    def test_warm_store_skips_retracing(self, tmp_path):
        store_root = tmp_path / "store"
        cold = ExperimentRunner(store=ResultStore(store_root)).run(SMALL)
        assert cold.metrics.count("computed") == 2
        # A fresh runner (empty memo, same store) re-traces nothing.
        warm = ExperimentRunner(store=ResultStore(store_root)).run(SMALL)
        assert warm.metrics.count("computed") == 0
        assert warm.metrics.count("cache-hit") == 2
        assert warm.require()["com"] == cold.require()["com"]

    def test_no_store_runner_still_memoises(self):
        runner = ExperimentRunner(store=None)
        first = runner.run(SMALL).require()
        assert runner.run(SMALL).require()["go"] is first["go"]

    def test_faulty_workload_does_not_sink_suite(self, faulty_workload):
        config = ExperimentConfig(
            max_instructions=2_000, workloads=("com", "bad", "go")
        )
        run = ExperimentRunner(store=None).run(config)
        assert set(run.results) == {"com", "go"}
        assert set(run.failures) == {"bad"}
        assert "injected input fault" in run.failures["bad"].error
        with pytest.raises(RunnerError, match="1 job\\(s\\) failed"):
            run.require()

    @pytest.mark.parametrize("jobs", [1, pytest.param(
        2, marks=pytest.mark.skipif(not HAS_FORK,
                                    reason="needs fork start method"))])
    def test_compile_error_fails_only_its_jobs(self, tmp_path, monkeypatch,
                                               jobs):
        # Keying never compiles, so the error surfaces when the
        # workload's group executes (inline or in a pool worker).
        source = tmp_path / "broken.mc"
        source.write_text("int main() { return undefined_name; }\n")
        broken = Workload("broken", "998.broken", "int", "fails to compile",
                          lambda scale: ([scale], []), source_file=source)
        monkeypatch.setitem(suite_module._BY_NAME, "broken", broken)
        configs = [
            ExperimentConfig(max_instructions=1_200,
                             workloads=("com", "broken", "go")),
            ExperimentConfig(max_instructions=1_200,
                             workloads=("com", "broken", "go"),
                             predictors=("last",)),
        ]
        runner = ExperimentRunner(store=ResultStore(tmp_path / "store"),
                                  policy=ExecutionPolicy(jobs=jobs,
                                                         retries=0))
        for run in runner.run_many(configs):
            assert set(run.results) == {"com", "go"}
            assert set(run.failures) == {"broken"}
            assert "undefined" in run.failures["broken"].error
            with pytest.raises(RunnerError, match="1 job\\(s\\) failed"):
                run.require()

    def test_unknown_workload_raises_immediately(self):
        runner = ExperimentRunner(store=None)
        config = ExperimentConfig(workloads=("com", "nope"))
        with pytest.raises(KeyError, match="unknown workload"):
            runner.run(config)


@pytest.mark.slow
class TestParallelRunner:
    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        serial = {
            name: _analyze(name, SMALL) for name in SMALL.workloads
        }
        runner = ExperimentRunner(store=ResultStore(tmp_path),
                                  policy=ExecutionPolicy(jobs=2))
        parallel = runner.run(SMALL).require()
        spec = paper_spec(workloads=SMALL.workloads,
                          max_instructions=SMALL.max_instructions)
        # Figure 9 breaks ranking ties by Counter insertion order: the
        # store round trip must preserve it, not just the counts.
        for name in ("table1", "fig5", "fig9"):
            serial_text, parallel_text = (
                [table.render() for table in build_tables(
                    name, CampaignResult(spec=spec,
                                         results={"paper": results}),
                )]
                for results in (serial, parallel)
            )
            assert serial_text == parallel_text

    def test_parallel_without_store_uses_scratch_transport(self):
        runner = ExperimentRunner(store=None,
                                  policy=ExecutionPolicy(jobs=2))
        run = runner.run(SMALL)
        assert set(run.require()) == {"com", "go"}
        assert run.metrics.peak_workers >= 1

    def test_per_job_timeout_records_failure(self, tmp_path):
        config = ExperimentConfig(
            max_instructions=200_000, workloads=("com", "go")
        )
        runner = ExperimentRunner(
            store=ResultStore(tmp_path),
            policy=ExecutionPolicy(jobs=2, timeout=0.05, retries=0),
        )
        run = runner.run(config)
        assert run.failures
        assert all(f.timed_out for f in run.failures.values())

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_injected_child_fault_spares_siblings(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.setattr(runner_api, "_analyze_group",
                            _crashing_analyze_group)
        runner = ExperimentRunner(
            store=ResultStore(tmp_path),
            policy=ExecutionPolicy(jobs=2, retries=0),
        )
        run = runner.run(SMALL)
        assert set(run.results) == {"com"}
        assert set(run.failures) == {"go"}
        assert "injected analysis fault" in run.failures["go"].error
        assert run.metrics.failures == 1


@pytest.mark.usefixtures("isolated_default_store")
class TestReportIntegration:
    def test_run_workload_uses_shared_runner(self):
        config = ExperimentConfig(max_instructions=2_000)
        first = api.run_workload("com", config)
        second = api.run_workload("com", config)
        assert first is second

    def test_run_suite_order_matches_request(self):
        config = ExperimentConfig(
            max_instructions=2_000, workloads=("go", "com")
        )
        results = api.run_suite(config)
        assert list(results) == ["go", "com"]


class TestRunnerCli:
    def test_cli_runs_and_writes_metrics(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code = cli_main([
            "run", "--jobs", "2", "--workloads", "com,go",
            "--max-instructions", "2000", "--cache-dir", str(cache),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "com" in out and "go" in out and "computed" in out
        assert (cache / "metrics.json").is_file()

    def test_cli_reports_a_rejected_config_as_usage_error(
            self, tmp_path, capsys, monkeypatch):
        # No flag sets gen_cap, so hand the CLI a config type carrying
        # a bad one: the check must surface as a usage error (exit 2),
        # not a traceback.
        import functools

        from repro import cli

        monkeypatch.setattr(cli, "ExperimentConfig", functools.partial(
            ExperimentConfig, gen_cap=0))
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", "--workloads", "com", "--max-instructions",
                      "1000", "--cache-dir", str(tmp_path / "cache")])
        assert excinfo.value.code == 2
        assert "gen_cap must be an integer >= 1" in capsys.readouterr().err

    def test_cli_second_run_is_all_hits(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["run", "--jobs", "2", "--workloads", "com,go",
                "--max-instructions", "2000", "--cache-dir", str(cache)]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "cache-hit" in out
        assert "0 computed" in out

    def test_cli_cache_info_and_clear(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cli_main(["run", "--workloads", "com", "--max-instructions",
                  "1000", "--cache-dir", str(cache), "--jobs", "1"])
        capsys.readouterr()
        assert cli_main(["cache", "info", "--cache-dir", str(cache)]) == 0
        assert "entries: 1" in capsys.readouterr().out
        assert cli_main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert "removed 1" in capsys.readouterr().out

    @pytest.mark.usefixtures("isolated_default_store")
    def test_report_cli_accepts_jobs_flag(self, capsys):
        code = cli_main([
            "report", "--exhibit", "table1", "--max-instructions", "1000",
            "--workloads", "com", "--jobs", "1",
        ])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out
