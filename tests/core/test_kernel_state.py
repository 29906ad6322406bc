"""The kernel's one copy of each predictor rule, held to the oracle.

:mod:`repro.core.kernel.state` transcribes every update rule of
:mod:`repro.predictors`, and every hit stream the kernel serves comes
from it.  The whole-result differential suites only see a rule bug as
a diverging export; these tests compare the streams themselves, element
by element, against a fresh oracle predictor's ``see()`` over ``com``'s
columns, and check that a stream replayed in two slices -- through the
delta snapshot and fold a segment boundary uses -- equals the unsplit
stream.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest

from repro.core.kernel import TraceColumns
from repro.core.kernel.columns import TAKEN_NONE, TAKEN_TRUE
from repro.core.kernel.state import (
    fold_deltas,
    new_branch_state,
    new_touched,
    run_branch_slice,
    run_value_slice,
    snapshot_delta,
    value_state_for,
)
from repro.predictors import make_branch_predictor, make_predictor
from repro.workloads import get_workload
from tests.properties.test_kernel_fuzz import _SPEC_POOL

#: The paper's budget.  ``com`` first drives a last-value counter
#: through a full hysteresis cycle somewhere past 90k records, so a
#: shorter stream lets a wrong saturation bound through.
RECORDS = 150_000

#: (kind, index_bits): both direction predictors, gshare at two sizes.
BRANCHES = (("gshare", 16), ("gshare", 8), ("local", 16))


@pytest.fixture(scope="module")
def columns():
    machine = get_workload("com").machine()
    records = list(islice(machine.trace(), RECORDS))
    return TraceColumns.from_records(records,
                                     len(machine.program.instructions))


def _first_diff(got, want) -> int | None:
    if len(got) != len(want):
        return min(len(got), len(want))
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return i
    return None


def _oracle_values(spec, keys, values) -> bytes:
    predictor = make_predictor(spec)
    return bytes(predictor.see(key, value)
                 for key, value in zip(keys, values))


def _value_streams(columns, spec):
    """(tier, keys, values, the kernel's served hit stream) per tier."""
    return (
        ("input", columns.in_key, columns.src_value,
         columns.input_hits(spec, len(columns.in_key))),
        ("output", columns.ov_pc, columns.ov_val,
         columns.output_hits(spec, len(columns.ov_pc))),
    )


@pytest.mark.parametrize("spec", _SPEC_POOL)
def test_value_hits_match_oracle(columns, spec):
    for tier, keys, values, served in _value_streams(columns, spec):
        want = _oracle_values(spec, keys, values)
        at = _first_diff(bytes(served[:len(want)]), want)
        assert at is None, (
            f"{spec}: {tier} hit stream diverges from "
            f"make_predictor({spec!r}).see() at element {at}"
        )


@pytest.mark.parametrize("kind,bits", BRANCHES)
def test_branch_hits_match_oracle(columns, kind, bits):
    pcs = columns.br_pc
    takens = [None if code == TAKEN_NONE else code == TAKEN_TRUE
              for code in columns.br_taken]
    predictor = make_branch_predictor(kind, bits)
    want = bytes(predictor.see(pc, taken)
                 for pc, taken in zip(pcs, takens))
    got = bytes(columns.branch_hits(kind, bits, len(pcs))[:len(want)])
    at = _first_diff(got, want)
    assert at is None, (
        f"{kind}(bits={bits}): branch hit stream diverges from "
        f"make_branch_predictor at branch {at}"
    )


def _split_replay(run, new_state, keys, values, cut) -> bytearray:
    """Replay ``keys[:cut]`` from a fresh state, carry the state across
    the cut as a segment boundary does (touched cells -> delta -> fold
    into a fresh state), then replay the rest."""
    state = new_state()
    touched = new_touched(state)
    hits = bytearray()
    run(state, keys[:cut], values[:cut], hits, touched)
    resumed = fold_deltas(new_state(), (snapshot_delta(state, touched),))
    run(resumed, keys[cut:], values[cut:], hits, None)
    return hits


@pytest.mark.parametrize("spec", _SPEC_POOL)
def test_value_slice_resumes_across_a_cut(columns, spec):
    rng = random.Random(f"cut:{spec}")

    def run(state, keys, values, hits, touched):
        run_value_slice(spec, state, keys, values, hits, touched)

    for tier, keys, values, whole in _value_streams(columns, spec):
        cut = rng.randrange(1, len(keys))
        split = _split_replay(run, lambda: value_state_for(spec), keys,
                              values, cut)
        at = _first_diff(split, whole[:len(keys)])
        assert at is None, (
            f"{spec}: {tier} stream cut at {cut} diverges at element {at}"
        )


@pytest.mark.parametrize("kind,bits", BRANCHES)
def test_branch_slice_resumes_across_a_cut(columns, kind, bits):
    rng = random.Random(f"cut:{kind}:{bits}")
    pcs, takens = columns.br_pc, columns.br_taken
    whole = columns.branch_hits(kind, bits, len(pcs))[:len(pcs)]

    def run(state, keys, values, hits, touched):
        run_branch_slice(kind, bits, state, keys, values, hits, touched)

    cut = rng.randrange(1, len(pcs))
    split = _split_replay(run, lambda: new_branch_state(kind), pcs,
                          takens, cut)
    at = _first_diff(split, whole)
    assert at is None, (
        f"{kind}(bits={bits}): stream cut at {cut} diverges at "
        f"branch {at}"
    )
