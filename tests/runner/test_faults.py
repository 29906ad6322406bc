"""Seeded fault injection: determinism, wiring, and the chaos
invariant — a faulted run must produce fault-free results.

Worker functions must be module-level so they survive the trip into a
worker process under any start method.
"""

import json

import pytest

from repro.core.export import result_to_dict
from repro.obs import Recorder, recording
from repro.runner import (
    ExecutionPolicy,
    ExperimentConfig,
    ExperimentRunner,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResultStore,
    Task,
    TaskPool,
    TaskResult,
    TraceStore,
    default_chaos_plan,
    get_fault_plan,
    injecting,
    set_fault_plan,
)

KEY = "aa" + "0" * 62


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    set_fault_plan(None)
    yield
    set_fault_plan(None)


class TestFaultPlan:
    def test_schedule_fires_on_exact_ordinals(self):
        plan = FaultPlan(seed=0, specs={
            "x": FaultSpec(schedule=(2, 4)),
        })
        fired = [plan.should_fire("x") for __ in range(5)]
        assert fired == [False, True, False, True, False]

    def test_max_fires_caps_the_site(self):
        plan = FaultPlan(seed=0, specs={
            "x": FaultSpec(rate=1.0, max_fires=2),
        })
        fired = [plan.should_fire("x") for __ in range(5)]
        assert fired == [True, True, False, False, False]
        assert plan.fired["x"] == 2

    def test_rate_sequence_is_seed_deterministic(self):
        def sequence(seed):
            plan = FaultPlan(seed=seed, specs={"x": FaultSpec(rate=0.5)})
            return [plan.should_fire("x") for __ in range(64)]

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)

    def test_sites_draw_independent_rngs(self):
        plan = FaultPlan(seed=0, specs={
            "a": FaultSpec(rate=0.5), "b": FaultSpec(rate=0.5),
        })
        draws_a = [plan.should_fire("a") for __ in range(64)]
        solo = FaultPlan(seed=0, specs={"a": FaultSpec(rate=0.5)})
        # Interleaving "b" evaluations must not perturb "a"'s sequence.
        assert draws_a == [solo.should_fire("a") for __ in range(64)]

    def test_unknown_site_never_fires(self):
        plan = FaultPlan(seed=0, specs={})
        assert not plan.should_fire("nope")

    def test_round_trips_through_dict(self):
        plan = default_chaos_plan(seed=3, timeout=1.0)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.seed == plan.seed
        assert clone.specs == plan.specs

    def test_injection_fires_counters(self):
        plan = FaultPlan(seed=0, specs={"x": FaultSpec(schedule=(1,))})
        with recording(Recorder()) as rec:
            assert plan.should_fire("x")
        assert rec.snapshot()["counters"]["faults.injected.x"] == 1


class TestInstallation:
    def test_injecting_installs_and_restores(self):
        plan = FaultPlan(seed=0)
        assert get_fault_plan() is None
        with injecting(plan):
            assert get_fault_plan() is plan
        assert get_fault_plan() is None

    def test_no_plan_means_no_faults(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"x": 1})
        assert store.get(KEY) == {"x": 1}


class TestStoreWiring:
    def test_injected_read_error_keeps_the_file(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY, {"x": 1})
        plan = FaultPlan(seed=0, specs={
            "store.read": FaultSpec(schedule=(1,), max_fires=1),
        })
        with injecting(plan), recording(Recorder()) as rec:
            assert store.get(KEY) is None   # injected miss...
            assert path.exists()            # ...but nothing deleted
            assert store.get(KEY) == {"x": 1}
        counters = rec.snapshot()["counters"]
        assert counters["store.result.read_errors"] == 1
        assert "store.result.corruption" not in counters

    def test_truncated_write_is_caught_by_checksum(self, tmp_path):
        store = ResultStore(tmp_path)
        plan = FaultPlan(seed=0, specs={
            "store.truncate": FaultSpec(schedule=(1,), max_fires=1),
        })
        with injecting(plan), recording(Recorder()) as rec:
            path = store.put(KEY, {"x": 1})
            assert store.get(KEY) is None   # torn envelope detected
            assert not path.exists()        # corrupt entry dropped
        assert rec.snapshot()["counters"]["store.result.corruption"] == 1

    def test_injected_write_error_raises_oserror(self, tmp_path):
        store = ResultStore(tmp_path)
        plan = FaultPlan(seed=0, specs={
            "store.write": FaultSpec(schedule=(1,), max_fires=1),
        })
        with injecting(plan):
            with pytest.raises(OSError):
                store.put(KEY, {"x": 1})
            store.put(KEY, {"x": 1})  # next attempt succeeds
        assert store.get(KEY) == {"x": 1}

    def test_trace_corruption_recovers_on_next_get(self, tmp_path):
        from repro.cpu.trace import DynInst, Source
        from repro.isa.opcodes import Category

        trace_store = TraceStore(tmp_path)
        records = [
            DynInst(uid=uid, pc=3, op="addi", category=Category.ALU,
                    has_imm=True,
                    srcs=(Source(uid, uid - 1 if uid else None,
                                 3 if uid else None, False, 0),),
                    out=uid + 1)
            for uid in range(8)
        ]
        plan = FaultPlan(seed=0, specs={
            "trace.corrupt": FaultSpec(schedule=(1,), max_fires=1),
        })
        with injecting(plan), recording(Recorder()) as rec:
            path = trace_store.put(KEY, records, 4, complete=True)
            assert trace_store.get(KEY) is None  # rotted on disk
            assert not path.exists()
        assert rec.snapshot()["counters"]["store.trace.corruption"] == 1
        # A fresh capture repairs the tier.
        trace_store.put(KEY, records, 4, complete=True)
        assert trace_store.get(KEY) is not None


def _ok():
    return "ok"


class TestPoolWiring:
    def test_spawn_fault_is_retried(self):
        plan = FaultPlan(seed=0, specs={
            "pool.spawn": FaultSpec(schedule=(1,), max_fires=1),
        })
        with injecting(plan), recording(Recorder()) as rec:
            pool = TaskPool(max_workers=1, retries=2, backoff_base=0.001)
            run = pool.run([Task("t", _ok)])
        outcome = run.outcomes["t"]
        assert isinstance(outcome, TaskResult)
        assert outcome.attempts == 2
        assert rec.snapshot()["counters"]["pool.spawn_failures"] == 1

    def test_worker_crash_fault_is_retried(self):
        plan = FaultPlan(seed=0, specs={
            "worker.crash": FaultSpec(schedule=(1,), max_fires=1),
        })
        with injecting(plan):
            pool = TaskPool(max_workers=1, retries=2, backoff_base=0.001)
            run = pool.run([Task("t", _ok)])
        outcome = run.outcomes["t"]
        assert isinstance(outcome, TaskResult)
        assert outcome.attempts == 2
        assert plan.fired["worker.crash"] == 1


def _canonical(results) -> dict:
    return {name: json.dumps(result_to_dict(result), sort_keys=True)
            for name, result in results.items()}


class TestChaosInvariant:
    """The headline property: chaos changes nothing but the weather."""

    CONFIG = ExperimentConfig(workloads=("com",), max_instructions=2_000)

    def _run(self, root, faults=None):
        runner = ExperimentRunner(
            store=ResultStore(root), trace_store=TraceStore(root),
            policy=ExecutionPolicy(jobs=2, retries=6), faults=faults,
        )
        return runner.run(self.CONFIG)

    def test_faulted_run_matches_fault_free(self, tmp_path):
        clean = self._run(tmp_path / "clean")
        assert not clean.failures
        plan = default_chaos_plan(seed=0)
        chaotic = self._run(tmp_path / "chaos", faults=plan)
        assert not chaotic.failures
        assert _canonical(chaotic.results) == _canonical(clean.results)
        assert plan.distinct_fired() >= 2  # parent-side sites alone
        # The runner restored the fault-free world on exit.
        assert get_fault_plan() is None

    def test_no_temp_files_survive_chaos(self, tmp_path):
        root = tmp_path / "chaos"
        self._run(root, faults=default_chaos_plan(seed=1))
        assert list(root.rglob("*.tmp")) == []


class TestEnospcDegradation:
    """A full disk degrades the stores; it never fails a runnable job."""

    def test_result_store_evicts_and_retries_once(self, tmp_path):
        plan = FaultPlan(seed=0, specs={
            "store.enospc": FaultSpec(schedule=(1,), max_fires=1),
        })
        store = ResultStore(tmp_path)
        with injecting(plan), recording(Recorder()) as rec:
            store.put(KEY, {"x": 1})
        # First publish hit ENOSPC, eviction freed space, the retry
        # landed: the entry is readable and the incident was counted.
        assert store.get(KEY) == {"x": 1}
        assert rec.snapshot()["counters"]["store.result.enospc"] == 1

    def test_run_survives_a_persistently_full_disk(self, tmp_path):
        # Every store/journal write fails: the run completes anyway,
        # uncached and unjournaled, with zero job failures.
        plan = FaultPlan(seed=0, specs={
            "store.enospc": FaultSpec(rate=1.0),
        })
        runner = ExperimentRunner(store=ResultStore(tmp_path),
                                  faults=plan)
        with recording(Recorder()) as rec:
            run = runner.run(ExperimentConfig(
                workloads=("com",), max_instructions=1_000))
        assert not run.failures
        assert set(run.results) == {"com"}
        counters = rec.snapshot()["counters"]
        assert counters["journal.enospc"] == 1
        assert counters["store.result.enospc"] >= 1

    def test_run_one_survives_a_persistently_full_disk(self, tmp_path):
        # run_one publishes through the same degrading store write as
        # run: a full disk costs the cached copy, never the result.
        plan = FaultPlan(seed=0, specs={
            "store.enospc": FaultSpec(rate=1.0),
        })
        runner = ExperimentRunner(store=ResultStore(tmp_path),
                                  faults=plan)
        config = ExperimentConfig(workloads=("com",),
                                  max_instructions=1_000)
        with recording(Recorder()) as rec:
            result = runner.run_one("com", config)
        assert result is runner.run_one("com", config)
        counters = rec.snapshot()["counters"]
        assert counters["store.result.enospc"] >= 1
        assert counters["store.result.write_errors"] >= 1
