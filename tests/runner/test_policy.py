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
from repro.runner.policy import (
    POLICY_FIELDS,
    assert_excluded_from_identity,
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
