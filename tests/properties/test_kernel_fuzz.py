"""Differential fuzzing: columnar kernel vs reference analyzer.

Seeded ``gen:`` workloads give unbounded, reproducible program
diversity; each seed also derives a random predictor-bank/analysis
variant, so the pair (program, config) sweeps the kernel's input space
far beyond the fixed suite.  The invariant is total: serialized
results must match byte for byte.

The fast tier runs a small seed set on every test run; the ``slow``
marked sweep covers 200 seeds for release-grade confidence
(``pytest -m slow tests/properties/test_kernel_fuzz.py``).
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.core import (
    AnalysisConfig,
    analyze_many,
    analyze_reference,
    analyze_trace,
    columnar_unsupported,
)
from repro.core.export import result_to_dict
from repro.gen import PRESETS, generated_workload
from tests.conftest import analyze_segmented

FAST_SEEDS = 10
SLOW_SEEDS = 200

#: Kept small: the point is breadth of (program, config) pairs, not
#: trace length.
BUDGET = 1_500

_SPEC_POOL = (
    "last",
    "stride",
    "context",
    "hybrid",
    "last(bits=6,hysteresis=1)",
    "stride(bits=7)",
    "context(l1=7,l2=9,order=3)",
    "hybrid(bits=7,l2=9)",
)


def _variant_for(seed: int) -> AnalysisConfig:
    """A reproducible analysis-config variant derived from ``seed``."""
    rng = random.Random(0xC0DE ^ seed)
    predictors = tuple(
        rng.sample(_SPEC_POOL, rng.randint(1, 4))
    )
    trees_for = tuple(
        spec for spec in predictors if rng.random() < 0.4
    )
    return AnalysisConfig(
        predictors=predictors,
        trees_for=trees_for,
        gen_cap=rng.choice((2, 8, 64)),
        branch_predictor=rng.choice(("gshare", "local")),
        gshare_bits=rng.choice((8, 12, 16)),
        track_sequences=rng.random() < 0.9,
        track_branches=rng.random() < 0.9,
        track_unpred=rng.random() < 0.9,
        track_paths=rng.random() < 0.9,
        max_instructions=rng.choice((200, BUDGET)),
    )


def _sibling_for(seed: int, config: AnalysisConfig) -> AnalysisConfig:
    """A second config from ``seed`` whose bank tuple overlaps
    ``config``'s in one spec, with that spec's tree tracking flipped
    and another ``gen_cap``: in one ``analyze_many`` call the two share
    the spec's bit lanes and its walk (a tracked walk serves the
    untracked bank's budgets it reaches)."""
    rng = random.Random(0x5EED ^ seed)
    shared = rng.choice(config.predictors)
    others = [spec for spec in _SPEC_POOL if spec not in config.predictors]
    predictors = [shared, *rng.sample(others, rng.randint(0, 3))]
    rng.shuffle(predictors)
    return dataclasses.replace(
        config,
        predictors=tuple(predictors),
        trees_for=() if shared in config.trees_for else (shared,),
        gen_cap=rng.choice([cap for cap in (2, 8, 64)
                            if cap != config.gen_cap]),
        track_paths=True,
        max_instructions=rng.choice((200, BUDGET)),
    )


def _check_seed(seed: int, directory) -> None:
    presets = sorted(PRESETS)
    preset = presets[seed % len(presets)]
    machine = generated_workload(f"gen:{preset}@{seed}").machine()
    records = list(machine.trace())
    n_static = len(machine.program.instructions)
    config = _variant_for(seed)
    assert columnar_unsupported(config) is None  # the kernel runs it
    (reference,) = analyze_reference(records, n_static, [config],
                                     name=preset)
    columnar = analyze_trace(records, n_static, name=preset,
                             config=config)
    assert (json.dumps(result_to_dict(columnar))
            == json.dumps(result_to_dict(reference))), (
        f"engines diverge for gen:{preset}@{seed} with {config}"
    )
    # One multi-config call, smallest budget first: the predictor
    # passes shared by both configs run once, at the larger budget,
    # and the smaller analysis reads a prefix of them.  The sibling
    # shares one spec's lanes and walk with them.
    sweep = [dataclasses.replace(config, max_instructions=200),
             _sibling_for(seed, config),
             dataclasses.replace(config, max_instructions=BUDGET)]
    assert ([json.dumps(result_to_dict(result)) for result in
             analyze_many(records, n_static, sweep, name=preset)]
            == [json.dumps(result_to_dict(result)) for result in
                analyze_reference(records, n_static, sweep,
                                  name=preset)]), (
        f"analyze_many diverges for gen:{preset}@{seed} with {config}"
    )
    # Segment-parallel kernel: same seed, same config, a seed-derived
    # segment count -- the split point sweeps the trace as seeds vary,
    # so loop bodies, producer/consumer arcs and gshare histories all
    # get cut mid-flight somewhere in the sweep (docs/sharding.md).
    segments = 2 + seed % 4
    segmented = analyze_segmented(records, n_static, config, directory,
                                  segments=segments, name=preset)
    assert (json.dumps(result_to_dict(segmented))
            == json.dumps(result_to_dict(reference))), (
        f"segmented kernel diverges for gen:{preset}@{seed} "
        f"with segments={segments} and {config}"
    )


@pytest.mark.parametrize("seed", range(FAST_SEEDS))
def test_differential_fast(seed, tmp_path):
    _check_seed(seed, tmp_path)


@pytest.mark.slow
def test_differential_sweep(tmp_path):
    for seed in range(FAST_SEEDS, SLOW_SEEDS):
        _check_seed(seed, tmp_path)
