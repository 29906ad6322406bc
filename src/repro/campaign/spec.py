"""Campaign specs: the declarative grid description.

A spec names a set of workloads and a set of predictor-bank variants;
the engine crosses them.  Specs load from TOML (Python 3.11+'s
:mod:`tomllib`; gated so 3.10 still imports this module) or JSON, and
round-trip through plain dicts so they can be embedded in manifests.

Example (TOML)::

    name = "design-space"
    scale = 1
    workloads = [
      "gen:pointer-chase@1",
      "gen:graph-walk@1",
      "com",
    ]

    [[variants]]
    name = "baseline"
    predictors = ["last", "stride", "context"]

    [[variants]]
    name = "small-tables"
    predictors = ["last(bits=10)", "context(l1=10,l2=14)"]
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

try:
    import tomllib
except ImportError:  # pragma: no cover - Python 3.10
    tomllib = None

from repro.predictors.base import PREDICTOR_KINDS, validate_predictor_specs
from repro.runner.job import ExperimentConfig
from repro.workloads.suite import SUITE, get_workload


@dataclass(frozen=True)
class PredictorVariant:
    """One predictor-bank configuration of the design space."""

    name: str
    predictors: tuple[str, ...]

    def validate(self) -> None:
        if not self.name:
            raise ValueError("variant with empty name")
        try:
            validate_predictor_specs(self.predictors)
        except ValueError as error:
            raise ValueError(f"variant {self.name!r}: {error}") from None


@dataclass(frozen=True)
class CampaignSpec:
    """A full campaign: workloads x variants plus run parameters."""

    name: str
    workloads: tuple[str, ...]
    variants: tuple[PredictorVariant, ...]
    scale: int = 1
    max_instructions: int = 150_000
    trees_for: tuple[str, ...] = ()
    description: str = ""

    def validate(self) -> None:
        """Check the spec is runnable; raises ValueError if not."""
        if not self.name:
            raise ValueError("campaign needs a name")
        if not self.workloads:
            raise ValueError("campaign has no workloads")
        if not self.variants:
            raise ValueError("campaign has no variants")
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if len(set(self.workloads)) != len(self.workloads):
            raise ValueError("campaign repeats a workload")
        names = [variant.name for variant in self.variants]
        if len(set(names)) != len(names):
            raise ValueError("campaign repeats a variant name")
        for workload in self.workloads:
            try:
                get_workload(workload)
            except KeyError as error:
                raise ValueError(str(error)) from None
        for variant in self.variants:
            variant.validate()

    def configs(self) -> list[ExperimentConfig]:
        """One :class:`ExperimentConfig` per variant, spec order."""
        return [
            ExperimentConfig(
                scale=self.scale,
                max_instructions=self.max_instructions,
                workloads=self.workloads,
                predictors=variant.predictors,
                trees_for=self.trees_for,
            )
            for variant in self.variants
        ]

    def jobs(self) -> int:
        """Grid size: |workloads| x |variants|."""
        return len(self.workloads) * len(self.variants)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "scale": self.scale,
            "max_instructions": self.max_instructions,
            "trees_for": list(self.trees_for),
            "workloads": list(self.workloads),
            "variants": [
                {"name": v.name, "predictors": list(v.predictors)}
                for v in self.variants
            ],
        }


def paper_spec(workloads: tuple[str, ...] | None = None, scale: int = 1,
               max_instructions: int = 150_000) -> CampaignSpec:
    """The paper's run as a one-variant campaign (``repro report``):
    variant ``paper`` is the default :class:`ExperimentConfig` bank, so
    its job keys are a plain ``repro run``'s."""
    return CampaignSpec(
        name="paper",
        workloads=tuple(workloads or (w.name for w in SUITE)),
        variants=(PredictorVariant("paper", PREDICTOR_KINDS),),
        scale=scale,
        max_instructions=max_instructions,
        trees_for=("context",),
    )


def spec_from_dict(data: dict) -> CampaignSpec:
    """Build (and bounds-check the shape of) a spec from a plain dict."""
    if not isinstance(data, dict):
        raise ValueError(f"campaign spec must be a table, got {type(data)}")
    unknown = set(data) - {
        "name", "description", "scale", "max_instructions",
        "trees_for", "workloads", "variants",
    }
    if unknown:
        raise ValueError(
            f"unknown campaign spec keys: {', '.join(sorted(unknown))}"
        )
    try:
        variants = tuple(
            PredictorVariant(
                name=str(raw["name"]),
                predictors=tuple(str(p) for p in raw["predictors"]),
            )
            for raw in data.get("variants", ())
        )
        return CampaignSpec(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            scale=int(data.get("scale", 1)),
            max_instructions=int(data.get("max_instructions", 150_000)),
            trees_for=tuple(data.get("trees_for", ())),
            workloads=tuple(str(w) for w in data.get("workloads", ())),
            variants=variants,
        )
    except KeyError as error:
        raise ValueError(f"campaign spec missing key {error}") from None


def load_spec(path: str | Path) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file.

    The spec is shape-checked here; call :meth:`CampaignSpec.validate`
    (the engine does) for the semantic checks that need the workload
    and predictor registries.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".toml":
        if tomllib is None:  # pragma: no cover - Python 3.10
            raise ValueError(
                f"{path}: TOML specs need Python 3.11+ (no tomllib); "
                "use the JSON spec format instead"
            )
        data = tomllib.loads(text)
    elif path.suffix == ".json":
        data = json.loads(text)
    else:
        raise ValueError(
            f"{path}: unknown spec format {path.suffix!r} "
            "(expected .toml or .json)"
        )
    return spec_from_dict(data)
