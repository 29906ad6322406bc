"""Campaign spec loading, shape checks and semantic validation."""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignSpec, load_spec, spec_from_dict
from repro.campaign.spec import PredictorVariant

_SPEC_DICT = {
    "name": "unit",
    "description": "two-by-two",
    "scale": 1,
    "max_instructions": 30_000,
    "workloads": ["gen:loopy@1", "com"],
    "variants": [
        {"name": "baseline", "predictors": ["last", "stride"]},
        {"name": "ctx", "predictors": ["context(l1=10,l2=12,order=4)"]},
    ],
}

_SPEC_TOML = """
name = "unit"
description = "two-by-two"
scale = 1
max_instructions = 30000
workloads = ["gen:loopy@1", "com"]

[[variants]]
name = "baseline"
predictors = ["last", "stride"]

[[variants]]
name = "ctx"
predictors = ["context(l1=10,l2=12,order=4)"]
"""


class TestLoading:
    def test_toml_and_json_agree(self, tmp_path):
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(_SPEC_TOML)
        json_path = tmp_path / "spec.json"
        json_path.write_text(json.dumps(_SPEC_DICT))
        assert load_spec(toml_path) == load_spec(json_path)

    def test_unknown_suffix(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: nope")
        with pytest.raises(ValueError, match="unknown spec format"):
            load_spec(path)

    def test_dict_round_trip(self):
        spec = spec_from_dict(_SPEC_DICT)
        assert spec_from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec"):
            spec_from_dict({**_SPEC_DICT, "surprise": 1})

    def test_missing_name_rejected(self):
        data = dict(_SPEC_DICT)
        del data["name"]
        with pytest.raises(ValueError, match="missing key"):
            spec_from_dict(data)


class TestValidation:
    def _spec(self, **overrides) -> CampaignSpec:
        spec = spec_from_dict(_SPEC_DICT)
        if not overrides:
            return spec
        data = spec.to_dict()
        data.update(overrides)
        return spec_from_dict(data)

    def test_valid(self):
        self._spec().validate()

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            self._spec(workloads=["nope"]).validate()

    def test_bad_gen_workload(self):
        with pytest.raises(ValueError, match="unknown preset"):
            self._spec(workloads=["gen:nope@1"]).validate()

    def test_duplicate_workload(self):
        with pytest.raises(ValueError, match="repeats a workload"):
            self._spec(workloads=["com", "com"]).validate()

    def test_duplicate_variant_name(self):
        variant = {"name": "twin", "predictors": ["last"]}
        with pytest.raises(ValueError, match="repeats a variant"):
            self._spec(variants=[variant, dict(variant)]).validate()

    def test_bad_predictor_spec(self):
        variant = {"name": "v", "predictors": ["context(bogus=1)"]}
        with pytest.raises(ValueError):
            self._spec(variants=[variant]).validate()

    def test_too_many_banks(self):
        variant = {"name": "wide", "predictors": [
            f"last(bits={bits})" for bits in range(4, 13)]}
        with pytest.raises(ValueError,
                           match="variant 'wide': 9 predictor banks"):
            self._spec(variants=[variant]).validate()

    def test_empty_variant(self):
        with pytest.raises(ValueError, match="no predictors"):
            PredictorVariant("v", ()).validate()

    def test_no_workloads(self):
        with pytest.raises(ValueError, match="no workloads"):
            self._spec(workloads=[]).validate()


class TestGrid:
    def test_one_config_per_variant(self):
        spec = spec_from_dict(_SPEC_DICT)
        configs = spec.configs()
        assert len(configs) == 2
        assert [c.predictors for c in configs] == [
            ("last", "stride"),
            ("context(l1=10,l2=12,order=4)",),
        ]
        for config in configs:
            assert config.workloads == ("gen:loopy@1", "com")
            assert config.scale == 1
            assert config.max_instructions == 30_000

    def test_jobs_is_grid_size(self):
        assert spec_from_dict(_SPEC_DICT).jobs() == 4
