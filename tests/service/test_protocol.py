"""Wire-format validation: the protocol module is the trust boundary."""

import pytest

from repro.runner import ExperimentConfig
from repro.service import (
    ProtocolError,
    config_from_dict,
    config_to_dict,
    parse_analyze_request,
    parse_sweep_request,
)
from repro.workloads import SUITE

#: One bank more than a config may hold.
NINE_BANKS = [f"last(bits={bits})" for bits in range(4, 13)]


class TestConfigRoundTrip:
    def test_default_config_round_trips(self):
        config = ExperimentConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_custom_config_round_trips(self):
        config = ExperimentConfig(
            scale=3, max_instructions=9_999, workloads=("com", "go"),
            predictors=("last", "stride"), trees_for=("context",),
            gen_cap=16,
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_none_payload_is_the_default_config(self):
        assert config_from_dict(None) == ExperimentConfig()

    def test_missing_keys_inherit_defaults(self):
        config = config_from_dict({"scale": 2})
        assert config.scale == 2
        assert config.max_instructions == ExperimentConfig().max_instructions

    def test_sequences_become_tuples(self):
        config = config_from_dict({"workloads": ["com"]})
        assert config.workloads == ("com",)
        assert isinstance(config.predictors, tuple)

    def test_unbounded_budget_survives(self):
        config = config_from_dict({"max_instructions": None})
        assert config.max_instructions is None


class TestConfigRejection:
    def test_unknown_field_is_an_error(self):
        with pytest.raises(ProtocolError, match="unknown config field"):
            config_from_dict({"max_instrs": 10})

    def test_non_object_is_an_error(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            config_from_dict([1, 2])

    def test_string_where_array_expected(self):
        with pytest.raises(ProtocolError, match="array of strings"):
            config_from_dict({"workloads": "com"})

    def test_non_string_array_members(self):
        with pytest.raises(ProtocolError, match="array of strings"):
            config_from_dict({"predictors": [1, 2]})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ProtocolError, match="integer"):
            config_from_dict({"scale": True})

    def test_float_scale_is_an_error(self):
        with pytest.raises(ProtocolError, match="integer"):
            config_from_dict({"scale": 1.5})

    @pytest.mark.parametrize("cap", [0, -3, True])
    def test_gen_cap_below_one_is_an_error(self, cap):
        with pytest.raises(ProtocolError, match="gen_cap|integer"):
            config_from_dict({"gen_cap": cap})

    def test_gen_cap_of_one_is_accepted(self):
        assert config_from_dict({"gen_cap": 1}).gen_cap == 1

    @pytest.mark.parametrize("field", [
        "policy", "jobs", "timeout", "retries",
        "segments", "segment_records",
    ])
    def test_execution_policy_keys_are_operator_only(self, field):
        """Clients must not pick the server's parallelism: policy keys
        get a pointed trust-boundary rejection, not the generic
        unknown-field 400."""
        with pytest.raises(ProtocolError,
                           match="server-side execution policy"):
            config_from_dict({field: 4})

    def test_engine_is_an_unknown_field(self):
        # The config picks the analysis path; there is no engine knob.
        with pytest.raises(ProtocolError,
                           match="unknown config field 'engine'"):
            config_from_dict({"engine": "reference"})

    @pytest.mark.parametrize("predictors, match", [
        (["bogus"], "unknown predictor kind: 'bogus'"),
        (["last", "context(l1=99)"], "context\\(l1=99\\)"),
        ([], "no predictors"),
        (["last", "stride", "last"], "'last' is repeated"),
        (NINE_BANKS, "9 predictor banks exceed the maximum of 8"),
    ])
    def test_invalid_predictor_lists_are_rejected(self, predictors, match):
        """Bad banks are a 400 at the trust boundary, not a worker-side
        job failure (bogus spec) or a silently merged bank with its
        own job key (repeated spec)."""
        with pytest.raises(ProtocolError, match=match):
            config_from_dict({"predictors": predictors})
        with pytest.raises(ProtocolError, match=match):
            parse_analyze_request({"workload": "com",
                                   "config": {"predictors": predictors}})


class TestAnalyzeRequest:
    def test_minimal_request(self):
        name, config = parse_analyze_request({"workload": "com"})
        assert name == "com"
        assert config == ExperimentConfig()

    def test_request_with_config(self):
        name, config = parse_analyze_request(
            {"workload": "go", "config": {"max_instructions": 500}}
        )
        assert (name, config.max_instructions) == ("go", 500)

    def test_unknown_workload(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            parse_analyze_request({"workload": "nope"})

    def test_missing_workload(self):
        with pytest.raises(ProtocolError, match="workload"):
            parse_analyze_request({})

    def test_unknown_request_field(self):
        with pytest.raises(ProtocolError, match="unknown request field"):
            parse_analyze_request({"workload": "com", "extra": 1})

    def test_non_object_body(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_analyze_request("com")


class TestSweepRequest:
    def test_explicit_workloads_cross_configs(self):
        pairs = parse_sweep_request({
            "workloads": ["com", "go"],
            "configs": [{"scale": 1}, {"scale": 2}],
        })
        assert len(pairs) == 4
        assert {name for name, __ in pairs} == {"com", "go"}
        assert {config.scale for __, config in pairs} == {1, 2}

    def test_default_workloads_is_the_suite(self):
        pairs = parse_sweep_request({"configs": [{}]})
        assert [name for name, __ in pairs] == [w.name for w in SUITE]

    def test_empty_configs_rejected(self):
        with pytest.raises(ProtocolError, match="configs"):
            parse_sweep_request({"configs": []})

    def test_unknown_workload_rejected(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            parse_sweep_request({"workloads": ["zzz"], "configs": [{}]})


class TestTenantHeader:
    """X-Repro-Tenant parsing at the trust boundary (docs/qos.md)."""

    def test_absent_header_is_the_default_tenant(self):
        from repro.service import DEFAULT_TENANT, parse_tenant_header

        assert parse_tenant_header(None) is DEFAULT_TENANT

    def test_valid_header(self):
        from repro.service import parse_tenant_header

        assert parse_tenant_header("team-7.web").name == "team-7.web"

    def test_malformed_header_is_a_protocol_error(self):
        from repro.service import parse_tenant_header

        with pytest.raises(ProtocolError, match="lowercase"):
            parse_tenant_header("No Spaces Allowed")

    def test_empty_header_points_at_the_fix(self):
        from repro.service import parse_tenant_header

        with pytest.raises(ProtocolError, match="omit the header"):
            parse_tenant_header("")

    def test_overlong_header_is_rejected(self):
        from repro.service import parse_tenant_header

        with pytest.raises(ProtocolError, match="too long"):
            parse_tenant_header("x" * 64)


class TestQosKeyRejection:
    """Clients cannot smuggle tenant identity or QoS policy into a
    request body — pointed 400s, not generic unknown-key ones."""

    def test_tenant_in_analyze_body_names_the_header(self):
        with pytest.raises(ProtocolError,
                           match="X-Repro-Tenant request header"):
            parse_analyze_request({"workload": "com", "tenant": "alice"})

    def test_tenant_in_sweep_body_names_the_header(self):
        with pytest.raises(ProtocolError,
                           match="X-Repro-Tenant request header"):
            parse_sweep_request({"configs": [{}], "tenant": "alice"})

    @pytest.mark.parametrize("key", ["qos", "priority", "class",
                                     "quota", "weight"])
    def test_qos_keys_in_analyze_body_name_the_operator(self, key):
        with pytest.raises(ProtocolError,
                           match="service operator"):
            parse_analyze_request({"workload": "com", key: "high"})

    def test_qos_keys_in_sweep_body(self):
        with pytest.raises(ProtocolError, match="repro serve --qos"):
            parse_sweep_request({"configs": [{}], "priority": 1})

    def test_qos_keys_inside_config_object(self):
        with pytest.raises(ProtocolError, match="server-side QoS"):
            config_from_dict({"priority": "interactive"})

    def test_tenant_inside_config_object(self):
        with pytest.raises(ProtocolError,
                           match="X-Repro-Tenant request header"):
            config_from_dict({"tenant": "alice"})

    def test_rejection_beats_generic_unknown_key_error(self):
        # The pointed message, not "unknown request field(s): ...".
        with pytest.raises(ProtocolError) as excinfo:
            parse_analyze_request({"workload": "com", "quota": 5})
        assert "unknown request field" not in str(excinfo.value)
