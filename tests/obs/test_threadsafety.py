"""Regression tests for the process-wide globals under threads.

The service hosts the obs recorder and the shared default runner in a
multithreaded process (event loop + executor threads), so the
primitives they sit on must tolerate being hammered concurrently:
lost counter increments, torn recorder swaps or two threads
constructing two "default" runners are all bugs the server would hit
in production.
"""

import threading

import pytest

import repro.api
from repro.obs import NULL_RECORDER, Recorder, get_recorder, set_recorder
from repro.runner import (
    ExecutionPolicy,
    FaultPlan,
    default_runner,
    reset_default_runner,
    set_default_runner,
)

THREADS = 8
ITERATIONS = 2_000


@pytest.fixture
def no_cache_runner(monkeypatch):
    """A clean default-runner slot that never touches the repo's cache."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    reset_default_runner()
    yield
    reset_default_runner()


class TestRecorderConcurrency:
    def test_counters_lose_no_increments(self):
        recorder = Recorder()
        barrier = threading.Barrier(THREADS)

        def hammer():
            barrier.wait()
            for __ in range(ITERATIONS):
                recorder.count("shared", 1)
                recorder.gauge("depth", 1.0)

        threads = [threading.Thread(target=hammer)
                   for __ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert recorder.counters["shared"] == THREADS * ITERATIONS

    def test_spans_nest_per_thread(self):
        recorder = Recorder()
        barrier = threading.Barrier(THREADS)

        def nest(index):
            barrier.wait()
            with recorder.span(f"outer-{index}"):
                with recorder.span("inner"):
                    pass

        threads = [threading.Thread(target=nest, args=(i,))
                   for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        profile = recorder.snapshot()
        roots = {span["name"]: span for span in profile["spans"]}
        assert len(roots) == THREADS
        for index in range(THREADS):
            children = roots[f"outer-{index}"]["children"]
            assert [child["name"] for child in children] == ["inner"]

    def test_snapshot_during_writes_is_well_formed(self):
        recorder = Recorder()
        stop = threading.Event()

        def write():
            while not stop.is_set():
                recorder.count("noise", 1)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            for __ in range(200):
                profile = recorder.snapshot()
                assert set(profile) == {"counters", "gauges", "spans"}
        finally:
            stop.set()
            writer.join()

    def test_swap_restore_pairs_balance(self):
        assert get_recorder() is NULL_RECORDER
        barrier = threading.Barrier(THREADS)

        def churn():
            barrier.wait()
            for __ in range(200):
                mine = Recorder()
                previous = set_recorder(mine)
                set_recorder(previous)

        threads = [threading.Thread(target=churn)
                   for __ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert get_recorder() is NULL_RECORDER


class TestDefaultRunnerConcurrency:
    def test_racing_first_callers_share_one_instance(self, no_cache_runner):
        barrier = threading.Barrier(THREADS)
        seen = []
        lock = threading.Lock()

        def grab():
            barrier.wait()
            runner = default_runner()
            with lock:
                seen.append(id(runner))

        threads = [threading.Thread(target=grab)
                   for __ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(seen)) == 1

    def test_concurrent_configure_installs_exactly_one_winner(
            self, no_cache_runner):
        barrier = threading.Barrier(THREADS)
        installed = []
        lock = threading.Lock()

        def configure(jobs):
            barrier.wait()
            runner = repro.api.configure(policy=ExecutionPolicy(jobs=jobs))
            with lock:
                installed.append(runner)

        threads = [threading.Thread(target=configure, args=(i + 1,))
                   for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every call produced a runner; the shared slot holds the last
        # one installed (no torn/lost update).
        assert default_runner() in installed

    def test_configure_does_not_drop_concurrent_settings(
            self, no_cache_runner):
        # Each thread flips a different knob; serialised read-modify-
        # install means the final runner reflects *both* when the
        # second builder starts from the first's output.
        set_default_runner(None)
        policy = ExecutionPolicy(jobs=7, retries=9, timeout=123.0)
        repro.api.configure(policy=policy)
        plan = FaultPlan(seed=5)
        done = threading.Barrier(2)

        def set_observe():
            done.wait()
            repro.api.configure(observe=True)

        def set_faults():
            done.wait()
            repro.api.configure(faults=plan)

        threads = [threading.Thread(target=set_observe),
                   threading.Thread(target=set_faults)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        runner = default_runner()
        assert runner.policy == policy
        assert runner.obs.enabled
        assert runner.faults is plan
