"""ExecutionPolicy: validation, parsing, merging, the runner's policy-only
constructor, and the identity-exclusion contract (policy never enters
job keys).
"""

from __future__ import annotations

import pytest

from repro.runner import (
    DEFAULT_SEGMENT_RECORDS,
    ExecutionPolicy,
    ExperimentConfig,
    ExperimentRunner,
    PolicyError,
    Job,
    job_key,
)
from repro.cli import _jobs_from_args, _policy_from_args, build_parser
from repro.runner import default_runner, reset_default_runner
from repro.runner.policy import (
    POLICY_FIELDS,
    assert_excluded_from_identity,
    env_jobs,
)


class TestValidation:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.jobs == 1
        assert policy.segments == 1
        assert policy.segment_records == DEFAULT_SEGMENT_RECORDS

    @pytest.mark.parametrize("kwargs", [
        {"jobs": 0},
        {"retries": -1},
        {"segments": 0},
        {"segment_records": 0},
        {"timeout": 0.0},
        {"timeout": -1.0},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(PolicyError):
            ExecutionPolicy(**kwargs)

    def test_fields_are_execution_knobs_only(self):
        assert POLICY_FIELDS == ("jobs", "timeout", "retries",
                                 "segments", "segment_records")

    def test_engine_is_not_a_policy_field(self):
        # The config, not a knob, picks the analysis path.
        with pytest.raises(TypeError):
            ExecutionPolicy(engine="columnar")
        with pytest.raises(PolicyError, match="unknown policy field"):
            ExecutionPolicy.parse("engine=reference")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionPolicy().jobs = 4


class TestParseAndMerge:
    def test_parse_full_string(self):
        policy = ExecutionPolicy.parse(
            "jobs=4,timeout=2.5,retries=2,segments=8,"
            "segment_records=1000")
        assert policy == ExecutionPolicy(
            jobs=4, timeout=2.5, retries=2, segments=8,
            segment_records=1000)

    def test_parse_over_base_wins(self):
        base = ExecutionPolicy(jobs=2, timeout=9.0)
        policy = ExecutionPolicy.parse("jobs=6,timeout=none", base=base)
        assert policy.jobs == 6
        assert policy.timeout is None

    @pytest.mark.parametrize("text", [
        "jobs", "jobs=x", "timeout=soon", "turbo=1", "segments=-1",
    ])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(PolicyError):
            ExecutionPolicy.parse(text)

    def test_merged_rejects_unknown_field(self):
        with pytest.raises(PolicyError):
            ExecutionPolicy().merged(workers=3)

    def test_describe_is_json_ready(self):
        import json

        desc = ExecutionPolicy(jobs=3).describe()
        assert json.loads(json.dumps(desc)) == desc
        assert set(desc) == set(POLICY_FIELDS)


class TestLegacyShims:
    """The loose execution kwargs are gone: ``policy=`` is the one way
    in, and the runner exposes no per-knob views."""

    @pytest.mark.parametrize("kwarg", ["jobs", "timeout", "retries"])
    def test_runner_rejects_loose_kwargs(self, kwarg):
        with pytest.raises(TypeError):
            ExperimentRunner(**{kwarg: 2})
        runner = ExperimentRunner(policy=ExecutionPolicy(jobs=2))
        assert not hasattr(runner, kwarg)

    def test_policy_alone_is_silent(self, recwarn, monkeypatch):
        from repro import api
        from repro.runner import reset_default_runner

        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        reset_default_runner()
        try:
            runner = api.configure(policy=ExecutionPolicy(jobs=2))
        finally:
            reset_default_runner()
        assert runner.policy.jobs == 2
        assert not recwarn.list

    def test_runner_rejects_non_policy(self):
        with pytest.raises(PolicyError, match="ExecutionPolicy"):
            ExperimentRunner(policy={"jobs": 2})

    def test_runner_accepts_policy(self, recwarn):
        runner = ExperimentRunner(policy=ExecutionPolicy(jobs=4))
        assert runner.policy.jobs == 4
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]


class TestIdentityExclusion:
    def test_contract_asserts_clean(self):
        assert_excluded_from_identity()

    def test_job_keys_ignore_policy(self):
        config = ExperimentConfig(max_instructions=1_000)
        key = job_key(Job("com", config))
        # Any policy — same experiment, same key, shared caches.
        assert key == job_key(Job("com", config))
        runner_a = ExperimentRunner(policy=ExecutionPolicy(
            jobs=8, segments=16, segment_records=100))
        runner_b = ExperimentRunner()
        assert runner_a.policy != runner_b.policy
        assert job_key(Job("com", config)) == key


class TestEnvJobs:
    """``REPRO_JOBS`` has one reader: unset is None, else an int >= 1."""

    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert env_jobs() is None

    def test_positive_int(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert env_jobs() == 3

    @pytest.mark.parametrize("raw", ["0", "-2", "abc", "", "1.5"])
    def test_rejects_everything_else(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(PolicyError, match="REPRO_JOBS"):
            env_jobs()

    def test_default_runner_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        reset_default_runner()
        try:
            assert default_runner().policy.jobs == 1
            reset_default_runner()
            monkeypatch.setenv("REPRO_JOBS", "2")
            assert default_runner().policy.jobs == 2
        finally:
            reset_default_runner()

    def test_run_suite_names_the_variable(self, monkeypatch, tmp_path):
        from repro import api

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_JOBS", "0")
        reset_default_runner()
        try:
            with pytest.raises(PolicyError, match="REPRO_JOBS"):
                api.run_suite(ExperimentConfig(workloads=("com",),
                                               max_instructions=1_000))
        finally:
            reset_default_runner()

    @pytest.mark.parametrize("command", [
        ["run", "--workloads", "com"],
        ["campaign", "run", "spec.toml"],
    ])
    def test_cli_reports_a_usage_error(self, monkeypatch, capsys,
                                       command):
        parser = build_parser()
        args = parser.parse_args(command)
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(SystemExit) as info:
            _jobs_from_args(parser, args, unset=1)
        assert info.value.code == 2
        assert "REPRO_JOBS" in capsys.readouterr().err

    def test_cli_unset_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        parser = build_parser()
        args = parser.parse_args(["run"])
        assert _jobs_from_args(parser, args, unset=7) == 7
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert _jobs_from_args(parser, args, unset=7) == 2
        args = parser.parse_args(["run", "--jobs", "4"])
        assert _jobs_from_args(parser, args, unset=7) == 4


class TestCliJobs:
    """``--jobs`` reaches the policy as given; below 1 is a usage error
    (it used to be raised to 1 silently)."""

    @pytest.mark.parametrize("command", [
        ["run"], ["campaign", "run", "spec.toml"], ["serve"],
    ])
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_value_passes_through(self, monkeypatch, command, jobs):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        parser = build_parser()
        args = parser.parse_args([*command, "--jobs", str(jobs)])
        policy = _policy_from_args(
            parser, args, jobs=_jobs_from_args(parser, args, unset=1))
        assert policy.jobs == jobs

    @pytest.mark.parametrize("command", [
        ["run"], ["campaign", "run", "spec.toml"], ["serve"],
    ])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_below_one_is_a_usage_error(self, monkeypatch, capsys,
                                        command, jobs):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        parser = build_parser()
        args = parser.parse_args([*command, "--jobs", jobs])
        with pytest.raises(SystemExit) as info:
            _policy_from_args(
                parser, args, jobs=_jobs_from_args(parser, args, unset=1))
        assert info.value.code == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err


class TestCliRetries:
    """``--retries`` reaches the policy as given; 0 means fail fast."""

    @pytest.mark.parametrize("command", ["run", "serve"])
    @pytest.mark.parametrize("retries", [0, 1, 3])
    def test_value_passes_through(self, command, retries):
        parser = build_parser()
        args = parser.parse_args([command, "--retries", str(retries)])
        assert _policy_from_args(parser, args).retries == retries

    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_negative_is_a_usage_error(self, command, capsys):
        parser = build_parser()
        args = parser.parse_args([command, "--retries", "-1"])
        with pytest.raises(SystemExit) as info:
            _policy_from_args(parser, args)
        assert info.value.code == 2
        assert "retries must be >= 0" in capsys.readouterr().err
