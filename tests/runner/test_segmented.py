"""Segment-parallel execution through the runner.

Covers the sidecar lifecycle (capture-time write, replay backfill,
invalidation on re-put), byte-identity of the segmented replay paths
against the serial engine, chaos-injected worker crashes of segment
tasks (pool-level retry and whole-job serial fallback), and how
``cache reindex`` skips and resumes (sidecar presence alone).
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.core.export import result_to_dict
from repro.obs import Recorder, recording
from repro.runner import (
    ExecutionPolicy,
    ExperimentConfig,
    ExperimentRunner,
    FaultPlan,
    FaultSpec,
    ResultStore,
    TraceStore,
    trace_key,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

CONFIG = ExperimentConfig(max_instructions=4_000, workloads=("com",))
#: 4000 records at 500-record spacing: 8 checkpoints, well-formed.
SEG_POLICY = ExecutionPolicy(jobs=2, segments=4, segment_records=500)
KEY = trace_key("com", CONFIG.scale)


def _dump(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=False)


@pytest.fixture()
def baseline(tmp_path_factory):
    """The serial, unsharded answer for CONFIG's one workload."""
    root = tmp_path_factory.mktemp("baseline")
    runner = ExperimentRunner(store=ResultStore(root),
                              trace_store=TraceStore(root))
    return _dump(runner.run_one("com", CONFIG))


def _stores(root):
    return ResultStore(root), TraceStore(root)


class TestSidecarLifecycle:
    def test_cold_capture_writes_sidecar(self, tmp_path):
        store, traces = _stores(tmp_path)
        ExperimentRunner(store=store, trace_store=traces,
                         policy=SEG_POLICY).run_one("com", CONFIG)
        assert traces.has_segindex(KEY)
        index = traces.get_segindex(KEY)
        assert index is not None and index.n_records == 4_000

    def test_unsharded_policy_writes_no_sidecar(self, tmp_path):
        store, traces = _stores(tmp_path)
        ExperimentRunner(store=store,
                         trace_store=traces).run_one("com", CONFIG)
        assert not traces.has_segindex(KEY)

    def test_replay_backfills_sidecar(self, tmp_path):
        store, traces = _stores(tmp_path)
        ExperimentRunner(store=store,
                         trace_store=traces).run_one("com", CONFIG)
        assert not traces.has_segindex(KEY)
        store.clear()
        ExperimentRunner(store=ResultStore(tmp_path), trace_store=traces,
                         policy=SEG_POLICY).run_one("com", CONFIG)
        assert traces.has_segindex(KEY)

    def test_serial_sweep_writes_sidecar(self, tmp_path):
        store, traces = _stores(tmp_path)
        ExperimentRunner(store=store, trace_store=traces,
                         policy=SEG_POLICY).run_many([CONFIG])
        assert traces.has_segindex(KEY)

    def test_serial_sweep_backfills_sidecar(self, tmp_path):
        store, traces = _stores(tmp_path)
        ExperimentRunner(store=store,
                         trace_store=traces).run_many([CONFIG])
        assert not traces.has_segindex(KEY)
        ExperimentRunner(store=ResultStore(tmp_path / "fresh"),
                         trace_store=traces,
                         policy=SEG_POLICY).run_many([CONFIG])
        assert traces.has_segindex(KEY)

    def test_put_invalidates_sidecar(self, tmp_path):
        store, traces = _stores(tmp_path)
        ExperimentRunner(store=store, trace_store=traces,
                         policy=SEG_POLICY).run_one("com", CONFIG)
        assert traces.has_segindex(KEY)
        header, columns = traces.get(KEY, need=CONFIG.max_instructions)
        traces.put(KEY, columns.to_records()[:100], header["n_static"],
                   complete=False, workload="com")
        assert not traces.has_segindex(KEY)

    def test_trace_removal_removes_sidecar(self, tmp_path):
        store, traces = _stores(tmp_path)
        ExperimentRunner(store=store, trace_store=traces,
                         policy=SEG_POLICY).run_one("com", CONFIG)
        sidecar = traces.path_for_segidx(KEY)
        assert sidecar.exists()
        traces.clear()
        assert not sidecar.exists()


class TestSegmentedReplay:
    def test_serial_path_segmented_replay_identical(self, tmp_path,
                                                    baseline):
        store, traces = _stores(tmp_path)
        cold = ExperimentRunner(store=store, trace_store=traces,
                                policy=SEG_POLICY)
        assert _dump(cold.run_one("com", CONFIG)) == baseline
        store.clear()
        warm = ExperimentRunner(store=ResultStore(tmp_path),
                                trace_store=traces, policy=SEG_POLICY)
        with recording(Recorder()) as rec:
            result = warm.run_one("com", CONFIG)
        assert _dump(result) == baseline
        counters = rec.snapshot()["counters"]
        assert counters.get("analyze.shard.runs", 0) >= 1

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_parallel_segment_tasks_identical(self, tmp_path, baseline):
        store, traces = _stores(tmp_path)
        ExperimentRunner(store=store, trace_store=traces,
                         policy=SEG_POLICY).run_one("com", CONFIG)
        store.clear()
        warm = ExperimentRunner(store=ResultStore(tmp_path),
                                trace_store=traces, policy=SEG_POLICY)
        run = warm.run(CONFIG, jobs=2)
        assert _dump(run.require()["com"]) == baseline
        statuses = [(m.workload, m.status) for m in run.metrics.jobs]
        assert statuses == [("com", "replayed")]


@pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
class TestChaos:
    def _warm(self, tmp_path):
        store, traces = _stores(tmp_path)
        ExperimentRunner(store=store, trace_store=traces,
                         policy=SEG_POLICY).run_one("com", CONFIG)
        store.clear()
        return traces

    def test_single_segment_crash_is_retried_by_pool(self, tmp_path,
                                                     baseline):
        traces = self._warm(tmp_path)
        plan = FaultPlan(seed=11, specs={
            "worker.crash": FaultSpec(schedule=(1,), max_fires=1),
        })
        runner = ExperimentRunner(store=ResultStore(tmp_path),
                                  trace_store=traces, faults=plan,
                                  policy=SEG_POLICY)
        run = runner.run(CONFIG, jobs=2)
        assert _dump(run.require()["com"]) == baseline

    def test_persistent_segment_crashes_fall_back_serial(self, tmp_path,
                                                         baseline):
        traces = self._warm(tmp_path)
        plan = FaultPlan(seed=11, specs={
            "worker.crash": FaultSpec(rate=1.0),
        })
        runner = ExperimentRunner(store=ResultStore(tmp_path),
                                  trace_store=traces, faults=plan,
                                  policy=SEG_POLICY)
        with recording(Recorder()) as rec:
            run = runner.run(CONFIG, jobs=2)
        # Every segment worker died; the whole job must retry serially
        # in the parent and still produce the fault-free bytes.
        assert _dump(run.require()["com"]) == baseline
        counters = rec.snapshot()["counters"]
        assert counters.get("analyze.shard.fallback", 0) >= 1


class TestReindex:
    def _capture(self, tmp_path):
        store, traces = _stores(tmp_path)
        ExperimentRunner(store=store,
                         trace_store=traces).run_one("com", CONFIG)
        assert not traces.has_segindex(KEY)
        return traces

    def test_reindex_builds_then_skips(self, tmp_path, capsys):
        from repro.cli import _reindex

        traces = self._capture(tmp_path)
        assert _reindex(traces, 500) == 0
        assert traces.has_segindex(KEY)
        first = capsys.readouterr().out
        assert "reindexed 1 trace(s)" in first
        assert _reindex(traces, 500) == 0
        second = capsys.readouterr().out
        assert "reindexed 0 trace(s); 1 already indexed" in second

    def test_short_traces_skipped_without_journal(self, tmp_path, capsys):
        from repro.cli import _reindex

        traces = self._capture(tmp_path)
        # Spacing larger than half the trace: cannot span 2 segments.
        assert _reindex(traces, 3_000) == 0
        assert not traces.has_segindex(KEY)
        assert "1 too short" in capsys.readouterr().out
        # A finer spacing afterwards must still index it: a short skip
        # leaves nothing behind that marks the trace done.
        assert _reindex(traces, 500) == 0
        assert traces.has_segindex(KEY)

    def test_killed_pass_resumes_by_sidecar_then_indexes_recapture(
            self, tmp_path, capsys, monkeypatch):
        from repro.cli import _reindex

        traces = self._capture(tmp_path)
        go = ExperimentConfig(max_instructions=4_000, workloads=("go",))
        ExperimentRunner(store=ResultStore(tmp_path),
                         trace_store=traces).run_one("go", go)
        keys = (KEY, trace_key("go", go.scale))
        # Kill the pass as it publishes its second sidecar.
        publish = traces.put_segindex
        calls = []

        def killed_on_second(key, index):
            calls.append(key)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return publish(key, index)

        monkeypatch.setattr(traces, "put_segindex", killed_on_second)
        with pytest.raises(KeyboardInterrupt):
            _reindex(traces, 500)
        monkeypatch.undo()
        done = [key for key in keys if traces.has_segindex(key)]
        assert done == [calls[0]]
        # The finished key is re-captured, which drops its sidecar.
        header, columns = traces.get(done[0], need=4_000)
        traces.put(done[0], columns, header["n_static"],
                   complete=header["complete"],
                   workload=header["workload"])
        assert not traces.has_segindex(done[0])
        capsys.readouterr()
        # The resumed pass indexes both: the one the kill interrupted
        # and the re-capture.  Nothing but a sidecar counts as done.
        assert _reindex(traces, 500) == 0
        assert ("reindexed 2 trace(s); 0 already indexed"
                in capsys.readouterr().out)
        assert all(traces.has_segindex(key) for key in keys)
        capsys.readouterr()
        assert _reindex(traces, 500) == 0
        assert ("reindexed 0 trace(s); 2 already indexed"
                in capsys.readouterr().out)
