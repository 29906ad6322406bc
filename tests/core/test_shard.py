"""Adversarial segment boundaries for the segment-parallel kernel.

The merge contract is byte-identity with the serial columnar kernel no
matter where a cut lands: inside a loop body, between a producer and
its consumer arc, after every single record, or past the end of the
trace.  These tests place checkpoints at exactly those spots and run
them through the production path (a stored trace file, its index, the
file planner, per-segment ``decode_columns`` range reads and the ordered
merge; see ``tests.conftest.analyze_segmented``), comparing serialized
results; the file-path planner's rejection cases (stale index,
unsupported config, budget below the first checkpoint or too small to
split) are pinned as :class:`ShardError`.
"""

from __future__ import annotations

import json

import pytest

from repro.core import AnalysisConfig, analyze_trace
from repro.core.export import result_to_dict
from repro.core.kernel import TraceColumns
from repro.core.shard import (
    ShardError,
    build_index,
    default_family,
    plan_bounds,
    prepare_file_segments,
    select_segments,
)
from repro.workloads import get_workload
from tests.conftest import analyze_segmented

BUDGET = 1_200


def _trace_of(name: str):
    machine = get_workload(name).machine()
    records = list(machine.trace())
    return records, len(machine.program.instructions)


def _dump(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=False)


@pytest.fixture(scope="module")
def com():
    records, n_static = _trace_of("com")
    columns = TraceColumns.from_records(records, n_static)
    return records, n_static, columns


def _serial(records, n_static, config):
    return _dump(analyze_trace(records, n_static, name="com",
                               config=config))


class TestAdversarialBoundaries:
    def test_single_record_segments(self, com, tmp_path):
        """Cut after *every* record: each boundary lands mid-loop and
        between every producer/consumer pair somewhere in the trace."""
        records, n_static, __ = com
        config = AnalysisConfig(max_instructions=120)
        segmented = analyze_segmented(records, n_static, config,
                                      tmp_path, segments=120, name="com")
        assert segmented.nodes == 120
        assert _dump(segmented) == _serial(records, n_static, config)

    def test_segments_exceed_record_count(self, com, tmp_path):
        records, n_static, __ = com
        config = AnalysisConfig(max_instructions=50)
        segmented = analyze_segmented(records, n_static, config,
                                      tmp_path, segments=500, name="com")
        assert _dump(segmented) == _serial(records, n_static, config)

    @pytest.mark.parametrize("cut", [1, 7, 64, 65, 66, 100, 501])
    def test_checkpoint_at_arbitrary_record(self, com, tmp_path, cut):
        """A single explicit cut swept across the trace: loop entries,
        loop bodies, and back-edge records all get split."""
        records, n_static, __ = com
        config = AnalysisConfig(max_instructions=BUDGET)
        segmented = analyze_segmented(records, n_static, config,
                                      tmp_path, bounds=[0, cut, BUDGET],
                                      name="com")
        assert _dump(segmented) == _serial(records, n_static, config)

    def test_producer_consumer_arc_split(self, com, tmp_path):
        """Cuts between a value's producing record and the consuming
        arc: with contiguous 1-record bounds over a window, every
        def-use pair inside it is separated by some boundary."""
        records, n_static, __ = com
        config = AnalysisConfig(max_instructions=300)
        bounds = [0] + list(range(200, 300)) + [300]
        segmented = analyze_segmented(records, n_static, config,
                                      tmp_path, segments=len(bounds) - 1,
                                      bounds=bounds, name="com")
        assert _dump(segmented) == _serial(records, n_static, config)

    def test_variant_configs_across_cuts(self, com, tmp_path):
        """Non-default banks (hybrid, local branch predictor) resumed
        mid-trace must fold their state deltas identically."""
        records, n_static, __ = com
        for config in (
            AnalysisConfig(predictors=("hybrid", "last"),
                           max_instructions=BUDGET),
            AnalysisConfig(branch_predictor="local",
                           max_instructions=BUDGET),
            AnalysisConfig(trees_for=("last",), gen_cap=4,
                           max_instructions=BUDGET),
        ):
            segmented = analyze_segmented(records, n_static, config,
                                          tmp_path, segments=5,
                                          name="com")
            assert _dump(segmented) == _serial(records, n_static, config)

    def test_budget_too_small_to_split_raises(self, com, tmp_path):
        """One record cannot be cut: the planner refuses instead of
        quietly running serial."""
        records, n_static, __ = com
        config = AnalysisConfig(max_instructions=1)
        with pytest.raises(ShardError, match="checkpoint"):
            analyze_segmented(records, n_static, config, tmp_path,
                              segments=4, name="com")


class TestPlanning:
    def test_plan_bounds_cover_and_order(self):
        bounds = plan_bounds(10, 3)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert bounds == sorted(bounds)
        assert plan_bounds(3, 100) == [0, 1, 2, 3]
        assert plan_bounds(5, 1) == [0, 5]

    def test_select_degrades_to_serial_without_usable_cuts(self, com):
        __, __, columns = com
        config = AnalysisConfig()
        specs, branch = default_family(config)
        m = columns.n_records
        index = build_index(columns, [0, m], specs=specs, branch=branch)
        # No interior boundary: one segment = run serial.
        assert len(select_segments(index, m, 4)) == 1


class TestFilePlannerRejections:
    @pytest.fixture()
    def stored(self, tmp_path, com):
        from repro.cpu.tracefile import save_trace

        __, __, columns = com
        path = tmp_path / "com.trace.gz"
        save_trace(columns, path, complete=True, workload="com")
        n = columns.n_records
        index = build_index(columns, plan_bounds(n, max(4, n // 300)))
        return path, index, columns

    def test_stale_index_raises(self, stored, com):
        from repro.core.shard import SegmentIndex

        path, index, columns = stored
        stale = SegmentIndex.from_bytes(index.to_bytes())
        stale.n_records = index.n_records + 1
        with pytest.raises(ShardError, match="stale"):
            prepare_file_segments(path, AnalysisConfig(), stale, 4)

    def test_unsupported_config_raises(self, stored):
        path, index, __ = stored
        config = AnalysisConfig(
            predictors=("last(bits=3,hysteresis=0)",))
        with pytest.raises(ShardError):
            prepare_file_segments(path, config, index, 4)

    def test_track_reuse_config_raises(self, stored):
        # Segment payloads carry no reuse tally: a track_reuse config
        # is refused, never merged into a result without ``reuse``.
        path, index, __ = stored
        config = AnalysisConfig(track_reuse=True)
        with pytest.raises(ShardError, match="track_reuse"):
            prepare_file_segments(path, config, index, 4)

    def test_budget_below_first_checkpoint_raises(self, stored):
        path, index, __ = stored
        config = AnalysisConfig(max_instructions=2)
        with pytest.raises(ShardError, match="checkpoint"):
            prepare_file_segments(path, config, index, 4)

    def test_plan_merges_byte_identical(self, stored, com):
        """The planner's task args, run inline in order, merge to the
        serial result — the contract the runner's pool relies on."""
        from repro.core.shard import _segment_task

        records, n_static, __ = com
        path, index, __c = stored
        config = AnalysisConfig(max_instructions=BUDGET)
        task_args, merge = prepare_file_segments(path, config, index, 4,
                                                 name="com")
        assert len(task_args) > 1
        for args in task_args:
            merge.add(_segment_task(*args))
        assert _dump(merge.finalize()) == _serial(records, n_static,
                                                  config)
