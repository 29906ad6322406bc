"""Recorder primitives: spans, counters, the current-recorder plumbing."""

from __future__ import annotations

import gc
import time

import pytest

from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    ObsConfig,
    Recorder,
    Span,
    get_recorder,
    recording,
    set_recorder,
    spanned,
)


@pytest.fixture(autouse=True)
def _clean_recorder():
    """Every test starts and ends with the no-op recorder installed."""
    previous = set_recorder(None)
    yield
    set_recorder(previous)


class TestSpans:
    def test_nesting_builds_a_tree(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
            with rec.span("inner"):
                pass
        assert [s.name for s in rec.roots] == ["outer"]
        assert [s.name for s in rec.roots[0].children] == ["inner", "inner"]
        assert rec.roots[0].children[0].children == []

    def test_wall_time_is_monotone_and_covers_children(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                time.sleep(0.02)
        outer = rec.roots[0]
        inner = outer.children[0]
        assert inner.wall >= 0.02
        assert outer.wall >= inner.wall
        assert outer.cpu >= 0.0 and inner.cpu >= 0.0

    def test_span_survives_exceptions(self):
        rec = Recorder()
        with pytest.raises(ValueError):
            with rec.span("outer"):
                raise ValueError("boom")
        assert rec.roots[0].name == "outer"
        assert rec.roots[0].wall >= 0.0
        assert rec._stack == []

    def test_sequential_spans_are_siblings(self):
        rec = Recorder()
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
        assert [s.name for s in rec.roots] == ["a", "b"]

    def test_span_roundtrips_through_dict(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        payload = rec.roots[0].to_dict()
        clone = Span.from_dict(payload)
        assert clone.to_dict() == payload


class TestCountersAndGauges:
    def test_counters_accumulate(self):
        rec = Recorder()
        rec.count("x", 2)
        rec.count("x", 3)
        rec.count("y")
        assert rec.counters == {"x": 5, "y": 1}

    def test_gauges_overwrite(self):
        rec = Recorder()
        rec.gauge("g", 1.0)
        rec.gauge("g", 7.5)
        assert rec.gauges == {"g": 7.5}

    def test_snapshot_is_json_safe_and_sorted(self):
        rec = Recorder()
        rec.count("b")
        rec.count("a")
        with rec.span("s"):
            pass
        snap = rec.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["spans"][0]["name"] == "s"
        import json
        json.dumps(snap)  # must not raise


class TestMerge:
    def test_merge_adds_counters_and_attaches_spans(self):
        worker = Recorder()
        worker.count("sim.instructions", 100)
        with worker.span("analyze"):
            pass
        parent = Recorder()
        parent.count("sim.instructions", 10)
        with parent.span("runner.run"):
            parent.merge(worker.snapshot())
        assert parent.counters["sim.instructions"] == 110
        run_span = parent.roots[0]
        assert [s.name for s in run_span.children] == ["analyze"]

    def test_merge_outside_a_span_creates_roots(self):
        worker = Recorder()
        with worker.span("analyze"):
            pass
        parent = Recorder()
        parent.merge(worker.snapshot())
        assert [s.name for s in parent.roots] == ["analyze"]


class TestCurrentRecorder:
    def test_default_is_the_null_recorder(self):
        assert get_recorder() is NULL_RECORDER
        assert not get_recorder().enabled

    def test_null_recorder_is_inert(self):
        rec = NullRecorder()
        with rec.span("anything"):
            rec.count("x", 5)
            rec.gauge("g", 1)
        assert rec.snapshot() == {"counters": {}, "gauges": {}, "spans": []}

    def test_recording_installs_and_restores(self):
        rec = Recorder()
        with recording(rec) as installed:
            assert installed is rec
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with recording(Recorder()):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER

    def test_spanned_resolves_recorder_per_call(self):
        @spanned("work")
        def work():
            return 42

        assert work() == 42  # null recorder: no crash, nothing recorded
        rec = Recorder()
        with recording(rec):
            assert work() == 42
        assert [s.name for s in rec.roots] == ["work"]


class TestGcHook:
    """The collector's runs and pauses are counted while an enabled
    recorder is installed, and nothing is hooked otherwise."""

    @staticmethod
    def _hooked() -> bool:
        return any(getattr(cb, "__module__", "") == "repro.obs.recorder"
                   for cb in gc.callbacks)

    def test_collections_counted_per_generation(self):
        rec = Recorder()
        with recording(rec):
            assert self._hooked()
            gc.collect()
        counters = rec.snapshot()["counters"]
        assert counters['gc.collections{generation="2"}'] >= 1
        assert counters['gc.pause_s{generation="2"}'] > 0.0
        # The hook goes with the recorder: later collections are not
        # counted.
        assert not self._hooked()
        before = list(rec.gc_runs)
        gc.collect()
        assert rec.gc_runs == before

    def test_nothing_hooked_without_a_recorder(self):
        assert not self._hooked()
        with recording(None):
            assert not self._hooked()
        with recording(Recorder()):
            with recording(None):
                assert not self._hooked()
            assert self._hooked()
        assert not self._hooked()

    def test_nested_recorders_count_while_installed(self):
        outer, inner = Recorder(), Recorder()
        with recording(outer):
            with recording(inner):
                gc.collect()
            assert self._hooked()
            inner_runs = list(inner.gc_runs)
            gc.collect()
        assert inner.gc_runs == inner_runs
        assert outer.gc_runs[2] >= 1 and inner.gc_runs[2] >= 1

    def test_merged_worker_collections_add(self):
        worker = Recorder()
        worker.gc_runs[0] = 3
        worker.gc_pause[0] = 0.25
        parent = Recorder()
        parent.gc_runs[0] = 1
        parent.gc_pause[0] = 0.5
        parent.merge(worker.snapshot())
        counters = parent.snapshot()["counters"]
        assert counters['gc.collections{generation="0"}'] == 4
        assert counters['gc.pause_s{generation="0"}'] == 0.75


class TestObsConfig:
    def test_defaults(self):
        cfg = ObsConfig()
        assert cfg.enabled and cfg.events_path is None

    def test_frozen(self):
        with pytest.raises(Exception):
            ObsConfig().enabled = False
