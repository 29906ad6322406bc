"""QoS through the broker: fairness, quota shedding, attribution.

Same style as ``test_broker.py`` — the broker runs on a real event
loop with an injected ``batch_runner`` (and here an injected quota
clock), so scheduling and quota behaviour is deterministic and no
instruction is ever simulated.
"""

import asyncio
import dataclasses
import threading

import pytest

from repro.runner import ExperimentConfig
from repro.service import AnalysisBroker, BrokerConfig, Overloaded
from repro.service.qos import QuotaExceeded, qos_policy_from_dict

CONFIG = ExperimentConfig(max_instructions=1_000)

#: The fairness cast: alice is interactive, mallory background.
FAIR_POLICY = qos_policy_from_dict({
    "batch_max": 1,
    "tenants": {
        "alice": {"class": "interactive"},
        "mallory": {"class": "background"},
    },
})


def cfg(gen_cap: int) -> ExperimentConfig:
    """Distinct job identities without distinct workloads (a
    ``gen_cap`` is an int >= 1, so tags start at 1)."""
    return dataclasses.replace(CONFIG, gen_cap=gen_cap)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class GatedRunner:
    """batch_runner seam whose *first* batch blocks on an event, so a
    test can pile up queued work behind a busy executor."""

    def __init__(self):
        self.calls: list[list] = []
        self.started = threading.Event()
        self.gate = threading.Event()

    def __call__(self, pairs):
        self.calls.append(list(pairs))
        if len(self.calls) == 1:
            self.started.set()
            self.gate.wait(10)
        return [{"workload": name, "gen_cap": config.gen_cap}
                for name, config in pairs]

    @property
    def jobs_run(self) -> int:
        return sum(len(call) for call in self.calls)


def run(coro):
    return asyncio.run(coro)


def make_broker(batch_runner, qos=None, quota_clock=None, **overrides):
    defaults = dict(workers=1, batch_window=0.0, qos=qos)
    defaults.update(overrides)
    return AnalysisBroker(config=BrokerConfig(**defaults),
                          batch_runner=batch_runner,
                          quota_clock=quota_clock)


class TestFairness:
    def test_background_flood_cannot_starve_interactive(self):
        # A background job occupies the single worker while six more
        # background jobs queue; two interactive jobs arrive *last*.
        # Weighted-fair dispatch must run both interactive jobs ahead
        # of (almost all of) the earlier background queue.
        runner = GatedRunner()
        done_order: list[tuple[str, int]] = []

        async def submit(broker, tenant, config):
            await broker.submit("com", config, tenant=tenant)
            done_order.append((tenant, config.gen_cap))

        async def main():
            broker = make_broker(runner, qos=FAIR_POLICY)
            broker.start()
            blocker = asyncio.create_task(
                submit(broker, "mallory", cfg(100))
            )
            await asyncio.to_thread(runner.started.wait, 5)
            background = [
                asyncio.create_task(submit(broker, "mallory", cfg(i)))
                for i in range(1, 7)
            ]
            await asyncio.sleep(0.2)    # let them reach the queue
            interactive = [
                asyncio.create_task(submit(broker, "alice", cfg(10 + i)))
                for i in range(2)
            ]
            await asyncio.sleep(0.2)
            runner.gate.set()
            await asyncio.gather(blocker, *background, *interactive)
            await broker.drain()

        run(main())
        # Ordering bound: the dispatcher may have pre-popped at most
        # one background job before the interactive work arrived, so
        # both interactive jobs run within the first three batches
        # after the blocker — never behind the whole background queue.
        post_blocker = [call[0][1].gen_cap for call in runner.calls[1:]]
        assert set(post_blocker[:3]) >= {10, 11}, post_blocker
        # Latency bound on completions: every interactive request
        # finishes before the last four background requests.
        positions = {gen_cap: index
                     for index, (__, gen_cap) in enumerate(done_order)}
        last_interactive = max(positions[10], positions[11])
        later_background = sum(
            1 for (tenant, gen_cap), index
            in zip(done_order, range(len(done_order)))
            if tenant == "mallory" and index > last_interactive
        )
        assert later_background >= 4, done_order

    def test_batch_max_bounds_every_batch(self):
        runner = GatedRunner()

        async def main():
            policy = qos_policy_from_dict({"batch_max": 2})
            broker = make_broker(runner, qos=policy)
            broker.start()
            blocker = asyncio.create_task(
                broker.submit("com", cfg(100), tenant="alice")
            )
            await asyncio.to_thread(runner.started.wait, 5)
            tasks = [
                asyncio.create_task(
                    broker.submit("com", cfg(i), tenant="alice")
                )
                for i in range(1, 6)
            ]
            await asyncio.sleep(0.2)
            runner.gate.set()
            await asyncio.gather(blocker, *tasks)
            await broker.drain()

        run(main())
        assert runner.jobs_run == 6
        assert max(len(call) for call in runner.calls) <= 2

    def test_no_policy_keeps_single_fifo_class(self):
        runner = GatedRunner()

        async def main():
            broker = make_broker(runner)       # qos=None
            broker.start()
            payload, status = await broker.submit("com", CONFIG,
                                                  tenant="alice")
            await broker.drain()
            assert "qos" not in broker.stats()
            return status

        assert run(main()) == "computed"


class TestQuotas:
    def test_rate_shed_is_per_tenant_with_retry_after(self):
        clock = FakeClock()
        policy = qos_policy_from_dict(
            {"tenants": {"mallory": {"rate": 1.0, "burst": 1}}}
        )
        runner = GatedRunner()

        async def main():
            broker = make_broker(runner, qos=policy, quota_clock=clock)
            broker.start()
            await broker.submit("com", CONFIG, tenant="mallory")
            # Bucket dry: shed before any queue or store work, with a
            # per-tenant hint; Overloaded so the 429 path is shared.
            with pytest.raises(QuotaExceeded) as excinfo:
                await broker.submit("com", CONFIG, tenant="mallory")
            assert isinstance(excinfo.value, Overloaded)
            assert excinfo.value.tenant == "mallory"
            assert excinfo.value.scope == "rate"
            assert excinfo.value.retry_after >= 1
            # An innocent tenant is untouched by mallory's dry bucket.
            await broker.submit("com", CONFIG, tenant="alice")
            # And the bucket refills on the injected clock.
            clock.advance(1.0)
            __, status = await broker.submit("com", CONFIG,
                                             tenant="mallory")
            await broker.drain()
            return status, broker.attribution()

        status, attribution = run(main())
        assert status == "warm"                # rate bills warm hits too
        assert attribution["mallory"]["shed"] == {"rate": 1}
        assert attribution["alice"]["shed"] == {}

    def test_inflight_cap_counts_owned_cold_jobs_only(self):
        policy = qos_policy_from_dict(
            {"tenants": {"mallory": {"max_inflight": 1}}}
        )
        runner = GatedRunner()

        async def main():
            broker = make_broker(runner, qos=policy)
            broker.start()
            first = asyncio.create_task(
                broker.submit("com", cfg(1), tenant="mallory")
            )
            await asyncio.to_thread(runner.started.wait, 5)
            # A second *distinct* cold job would exceed the cap...
            with pytest.raises(QuotaExceeded) as excinfo:
                await broker.submit("com", cfg(2), tenant="mallory")
            assert excinfo.value.scope == "inflight"
            # ...but joining the job already in flight is free: a
            # coalesced request owns nothing.
            __, status = await broker.submit("com", cfg(1),
                                             tenant="mallory")
            assert status == "coalesced"
            runner.gate.set()
            await first
            # The done callback released the slot: cold is admitted.
            __, status = await broker.submit("com", cfg(3),
                                             tenant="mallory")
            assert status == "computed"
            await broker.drain()

        run(main())

    def test_quota_errors_do_not_leak_inflight_slots(self):
        # A shed at the global admission gate must release the
        # tenant's just-claimed in-flight slot.
        policy = qos_policy_from_dict(
            {"tenants": {"alice": {"max_inflight": 4}}}
        )
        runner = GatedRunner()

        async def main():
            broker = make_broker(runner, qos=policy, max_queue=0)
            broker.start()
            with pytest.raises(Overloaded):
                await broker.submit("com", CONFIG, tenant="alice")
            # end() dropped the zeroed entry: nothing is in flight.
            assert broker.stats()["qos"]["quotas"] == {}
            await broker.drain()
            return broker.attribution()

        attribution = run(main())
        assert attribution["alice"]["shed"] == {"backpressure": 1}


class TestAttribution:
    def test_coalesced_billed_to_each_requester_executed_once(self):
        runner = GatedRunner()

        async def main():
            broker = make_broker(runner, qos=FAIR_POLICY)
            broker.start()
            owner = asyncio.create_task(
                broker.submit("com", CONFIG, tenant="alice")
            )
            await asyncio.to_thread(runner.started.wait, 5)
            joiner = asyncio.create_task(
                broker.submit("com", CONFIG, tenant="mallory")
            )
            await asyncio.sleep(0.05)
            runner.gate.set()
            (__, owner_status), (__, joiner_status) = \
                await asyncio.gather(owner, joiner)
            await broker.drain()
            return owner_status, joiner_status, broker.attribution()

        owner_status, joiner_status, attribution = run(main())
        assert runner.jobs_run == 1            # executed once
        assert owner_status == "computed"
        assert joiner_status == "coalesced"
        # ...billed to each requester.
        assert attribution["alice"]["requests"] == 1
        assert attribution["mallory"]["requests"] == 1
        assert attribution["mallory"]["served"] == {"coalesced": 1}

    def test_computed_requests_split_into_phases(self):
        runner = GatedRunner()

        async def main():
            broker = make_broker(runner, qos=FAIR_POLICY)
            broker.start()
            await broker.submit("com", CONFIG, tenant="alice")
            await broker.submit("com", CONFIG, tenant="alice")  # warm
            await broker.drain()
            return broker.attribution()

        attribution = run(main())
        entry = attribution["alice"]
        assert entry["served"] == {"computed": 1, "warm": 1}
        # The computed request carries queue + pool residual; the warm
        # one billed its whole (tiny) wall to the store phase.
        assert "pool" in entry["phases"]
        assert "store" in entry["phases"]
        assert entry["wall_seconds"] > 0

    def test_anonymous_requests_bill_the_default_tenant(self):
        runner = GatedRunner()

        async def main():
            broker = make_broker(runner, qos=FAIR_POLICY)
            broker.start()
            await broker.submit("com", CONFIG)
            await broker.drain()
            return broker.attribution()

        attribution = run(main())
        assert attribution["default"]["requests"] == 1

    def test_stats_expose_policy_quotas_and_tenants(self):
        runner = GatedRunner()

        clock = FakeClock()

        async def main():
            policy = qos_policy_from_dict(
                {"tenants": {"alice": {"rate": 8.0}}}
            )
            broker = make_broker(runner, qos=policy, quota_clock=clock)
            broker.start()
            await broker.submit("com", CONFIG, tenant="alice")
            stats = broker.stats()
            await broker.drain()
            return stats

        stats = run(main())
        qos = stats["qos"]
        assert qos["policy"]["tenants"]["alice"]["rate"] == 8.0
        assert qos["quotas"]["alice"]["tokens"] == 7.0
        assert qos["tenants"]["alice"]["requests"] == 1
