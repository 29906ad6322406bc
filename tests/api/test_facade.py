"""The repro.api facade, the unified CLI and the removed entry points."""

import importlib.util
import json

import pytest

from repro import api
from repro.core.export import result_to_dict
from repro.runner import ExperimentConfig
from repro.runner.api import _analyze


def _dump(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestFacadeSurface:
    def test_public_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_configs_are_reexported(self):
        from repro.core import AnalysisConfig

        assert api.ExperimentConfig is ExperimentConfig
        assert api.AnalysisConfig is AnalysisConfig

    @pytest.mark.parametrize("cap", [0, -3, True, 1.5, "64"])
    def test_experiment_config_rejects_bad_gen_cap(self, cap):
        with pytest.raises(ValueError, match="gen_cap must be an integer"):
            api.ExperimentConfig(gen_cap=cap)

    def test_experiment_config_bounds_the_banks(self):
        eight = tuple(f"last(bits={bits})" for bits in range(4, 12))
        assert len(api.ExperimentConfig(predictors=eight).predictors) == 8
        with pytest.raises(ValueError, match="9 predictor banks exceed"):
            api.ExperimentConfig(predictors=(*eight, "stride"))
        with pytest.raises(ValueError, match="is repeated"):
            api.ExperimentConfig(predictors=("last", "last"))

    def test_analysis_config_bounds_the_banks(self):
        # The kernel and the oracle accept the same configs: nine
        # banks would overflow the oracle's one-byte output flags.
        eight = tuple(f"last(bits={bits})" for bits in range(4, 12))
        assert len(api.AnalysisConfig(predictors=eight).predictors) == 8
        with pytest.raises(ValueError, match="9 predictor banks exceed"):
            api.AnalysisConfig(predictors=(*eight, "stride"))

    def test_gen_cap_check_leaves_analysis_config_alone(self):
        # The kernel's walk tests drive a cap of 0 directly.
        assert api.ExperimentConfig(gen_cap=1).gen_cap == 1
        assert api.AnalysisConfig(gen_cap=0).gen_cap == 0


class TestFacadeExecution:
    def test_run_workload_memo_identity(self):
        config = ExperimentConfig(max_instructions=1_500)
        first = api.run_workload("com", config)
        assert api.run_workload("com", config) is first

    def test_run_suite(self):
        config = ExperimentConfig(
            max_instructions=1_500, workloads=("go", "com")
        )
        results = api.run_suite(config)
        assert list(results) == ["go", "com"]

    def test_run_sweep_matches_independent(self):
        configs = [
            ExperimentConfig(max_instructions=1_500, workloads=("com",)),
            ExperimentConfig(max_instructions=1_500, workloads=("com",),
                             predictors=("last",)),
        ]
        sweep = api.run_sweep(configs)
        assert len(sweep) == 2
        for config, results in zip(configs, sweep):
            assert _dump(results["com"]) == _dump(_analyze("com", config))

    def test_analyze_accepts_source_program_and_machine(self):
        from repro import Machine, compile_program

        source = "int main() { int i; for (i = 0; i < 5; i = i + 1) "\
                 "{ print_int(i); } return 0; }"
        from_source = api.analyze(source, name="mine")
        program = compile_program(source)
        from_program = api.analyze(program, name="mine")
        from_machine = api.analyze(Machine(program), name="mine")
        assert _dump(from_source) == _dump(from_program)
        assert _dump(from_source) == _dump(from_machine)


class TestRemovedPaths:
    """The expired shims and the engine knob are gone, not forwarding."""

    @pytest.mark.parametrize("module", ["repro.report", "repro.runner",
                                        "repro.workloads"])
    def test_old_module_entry_points_are_gone(self, module):
        assert importlib.util.find_spec(f"{module}.__main__") is None

    def test_report_experiments_has_no_run_aliases(self):
        from repro.report import experiments

        assert not hasattr(experiments, "run_workload")
        assert not hasattr(experiments, "run_suite")

    @pytest.mark.parametrize("kwarg", ["jobs", "timeout", "retries",
                                       "engine"])
    def test_configure_takes_policy_only(self, kwarg):
        with pytest.raises(TypeError):
            api.configure(**{kwarg: 2})

    @pytest.mark.parametrize("argv", [
        ["run", "--engine", "reference"],
        ["report", "--engine", "columnar"],
        ["campaign", "validate", "spec.toml", "--engine", "auto"],
    ])
    def test_engine_flag_is_an_argparse_error(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestUnifiedCli:
    def test_workloads_list(self, capsys):
        from repro.cli import main

        assert main(["workloads", "--list"]) == 0
        out = capsys.readouterr().out
        assert "com" in out and "swm" in out

    def test_run_then_cache_info_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        assert main([
            "run", "--workloads", "com", "--max-instructions", "1000",
            "--jobs", "1", "--cache-dir", str(cache),
        ]) == 0
        capsys.readouterr()

        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "traces: 1" in out

        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "removed 1 cached result(s)" in out
        assert "removed 1 stored trace(s)" in out

    def test_second_run_hits_result_store(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["run", "--workloads", "com", "--max-instructions", "1000",
                "--jobs", "1", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache-hit" in out and "0 computed" in out

    def test_report_exhibit(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "report", "--exhibit", "table1", "--workloads", "com",
            "--max-instructions", "1000", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        assert "Table 1" in capsys.readouterr().out
