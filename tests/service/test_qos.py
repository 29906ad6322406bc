"""QoS subsystem units: tenants, policy, quotas, DRR, attribution.

Everything here is deterministic — fake clocks for the token buckets,
the pure :class:`DeficitScheduler` driven directly, attribution built
from hand-made span trees — so the fairness and quota arithmetic is
checked without an event loop or a single simulated instruction (the
broker-level behaviour is in ``test_qos_broker.py``).
"""

import json
import pickle

import pytest

from repro.obs import Recorder, layer_seconds
from repro.service.qos import (
    CLASSES,
    DEFAULT_TENANT,
    DeficitScheduler,
    PHASES,
    QosError,
    QosPolicy,
    QuotaExceeded,
    TenantAccounting,
    TenantError,
    TenantQuotas,
    TokenBucket,
    attribution_from_counters,
    attribution_from_prometheus,
    load_qos_policy,
    parse_tenant,
    phases_from_layers,
    qos_policy_from_dict,
    render_attribution,
)


class FakeClock:
    """A controllable monotonic clock for the token buckets."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Tenant identity.
# ----------------------------------------------------------------------

class TestTenant:
    def test_absent_header_is_default_tenant(self):
        assert parse_tenant(None) is DEFAULT_TENANT

    def test_valid_names(self):
        for name in ("alice", "team-7", "a.b_c", "0x9"):
            assert parse_tenant(name).name == name

    def test_surrounding_whitespace_is_stripped(self):
        assert parse_tenant("  alice ").name == "alice"

    def test_empty_is_rejected_with_pointed_message(self):
        with pytest.raises(TenantError, match="omit the header"):
            parse_tenant("   ")

    def test_too_long_is_rejected(self):
        with pytest.raises(TenantError, match="too long"):
            parse_tenant("a" * 33)

    def test_uppercase_and_bad_characters_are_rejected(self):
        for bad in ("Alice", "a b", "-lead", "a/b", "a\nb"):
            with pytest.raises(TenantError, match="lowercase"):
                parse_tenant(bad)


# ----------------------------------------------------------------------
# Policy file.
# ----------------------------------------------------------------------

POLICY_DICT = {
    "default_class": "batch",
    "batch_max": 4,
    "classes": {"interactive": {"weight": 10}},
    "defaults": {"rate": 5.0, "max_inflight": 8},
    "tenants": {
        "alice": {"class": "interactive", "rate": 20.0, "burst": 40},
        "mallory": {"class": "background", "rate": 2.0,
                    "max_inflight": 1},
    },
}


class TestQosPolicy:
    def test_from_dict_resolves_tenants(self):
        policy = qos_policy_from_dict(POLICY_DICT)
        alice = policy.spec_for("alice")
        assert (alice.klass, alice.rate, alice.burst) == \
            ("interactive", 20.0, 40)
        assert alice.max_inflight == 8           # from [defaults]

    def test_unlisted_tenant_inherits_defaults(self):
        policy = qos_policy_from_dict(POLICY_DICT)
        spec = policy.spec_for("nobody")
        assert spec.klass == "batch"
        assert spec.rate == 5.0
        assert spec.burst == 5                   # derived from rate
        assert spec.max_inflight == 8

    def test_empty_policy_means_unlimited(self):
        policy = qos_policy_from_dict({})
        spec = policy.spec_for("anyone")
        assert spec.rate is None
        assert spec.max_inflight is None
        assert spec.klass == "batch"
        assert policy.batch_max is None

    def test_class_weights_in_priority_order(self):
        policy = qos_policy_from_dict(POLICY_DICT)
        assert list(policy.class_weights()) == list(CLASSES)
        assert policy.class_weights()["interactive"] == 10
        assert policy.class_weights()["background"] == 1

    def test_unknown_top_level_key_is_rejected(self):
        with pytest.raises(QosError, match="unknown top-level"):
            qos_policy_from_dict({"tenant": {}})

    def test_unknown_tenant_key_is_rejected(self):
        with pytest.raises(QosError, match="unknown key"):
            qos_policy_from_dict(
                {"tenants": {"alice": {"ratelimit": 5}}}
            )

    def test_unknown_class_is_rejected(self):
        with pytest.raises(QosError, match="classes are fixed"):
            qos_policy_from_dict({"classes": {"express": {"weight": 9}}})

    def test_bad_weight_is_rejected(self):
        with pytest.raises(QosError, match="weight"):
            qos_policy_from_dict({"classes": {"batch": {"weight": 0}}})

    def test_bad_rate_is_rejected(self):
        with pytest.raises(QosError, match="'rate'"):
            qos_policy_from_dict({"tenants": {"alice": {"rate": -1}}})

    def test_bad_batch_max_is_rejected(self):
        with pytest.raises(QosError, match="batch_max"):
            qos_policy_from_dict({"batch_max": 0})

    def test_default_class_must_exist(self):
        with pytest.raises(QosError, match="default_class"):
            QosPolicy(default_class="express")

    def test_load_json(self, tmp_path):
        path = tmp_path / "qos.json"
        path.write_text(json.dumps(POLICY_DICT))
        assert load_qos_policy(path).spec_for("alice").rate == 20.0

    def test_load_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "qos.toml"
        path.write_text(
            'default_class = "batch"\n'
            "batch_max = 4\n"
            "[tenants.alice]\n"
            'class = "interactive"\n'
            "rate = 20.0\n"
        )
        policy = load_qos_policy(path)
        assert policy.spec_for("alice").klass == "interactive"
        assert policy.batch_max == 4

    def test_load_errors_name_the_file(self, tmp_path):
        path = tmp_path / "qos.json"
        path.write_text("{nope")
        with pytest.raises(QosError, match="qos.json"):
            load_qos_policy(path)
        with pytest.raises(QosError, match="cannot read"):
            load_qos_policy(tmp_path / "missing.json")

    def test_policy_is_picklable_for_fleet_shipping(self):
        policy = qos_policy_from_dict(POLICY_DICT)
        assert pickle.loads(pickle.dumps(policy)) == policy

    def test_describe_is_json_safe(self):
        described = qos_policy_from_dict(POLICY_DICT).describe()
        assert json.loads(json.dumps(described)) == described
        assert described["tenants"]["mallory"]["class"] == "background"


# ----------------------------------------------------------------------
# Quotas.
# ----------------------------------------------------------------------

class TestTokenBucket:
    def test_starts_full_and_spends(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == pytest.approx(1.0)

    def test_hint_is_the_accrual_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1, clock=clock)
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == pytest.approx(0.25)
        clock.advance(0.1)                       # 0.4 tokens back
        assert bucket.try_take() == pytest.approx(0.15)

    def test_refill_is_capped_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3, clock=clock)
        for __ in range(3):
            assert bucket.try_take() == 0.0
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(3.0)


class TestTenantQuotas:
    def test_no_policy_means_no_limits(self):
        quotas = TenantQuotas(None, clock=FakeClock())
        for __ in range(1000):
            quotas.charge("anyone")
            quotas.begin("anyone")
        assert quotas.class_for("anyone") == "batch"

    def test_rate_shed_carries_tenant_and_hint(self):
        clock = FakeClock()
        policy = qos_policy_from_dict(
            {"tenants": {"mallory": {"rate": 2.0, "burst": 2}}}
        )
        quotas = TenantQuotas(policy, clock=clock)
        quotas.charge("mallory")
        quotas.charge("mallory")
        with pytest.raises(QuotaExceeded) as excinfo:
            quotas.charge("mallory")
        assert excinfo.value.tenant == "mallory"
        assert excinfo.value.scope == "rate"
        assert excinfo.value.retry_after >= 1    # rounded hint, >= 1s
        clock.advance(0.5)                       # one token back
        quotas.charge("mallory")                 # admitted again

    def test_inflight_cap_and_release(self):
        policy = qos_policy_from_dict(
            {"tenants": {"alice": {"max_inflight": 2}}}
        )
        quotas = TenantQuotas(policy, clock=FakeClock())
        quotas.begin("alice")
        quotas.begin("alice")
        with pytest.raises(QuotaExceeded) as excinfo:
            quotas.begin("alice")
        assert excinfo.value.scope == "inflight"
        quotas.end("alice")
        quotas.begin("alice")                    # slot freed

    def test_tenants_do_not_share_buckets(self):
        policy = qos_policy_from_dict({"defaults": {"rate": 1.0}})
        quotas = TenantQuotas(policy, clock=FakeClock())
        quotas.charge("alice")
        quotas.charge("bob")                     # own bucket, still full
        with pytest.raises(QuotaExceeded):
            quotas.charge("alice")

    def test_snapshot_is_json_safe(self):
        policy = qos_policy_from_dict({"defaults": {"rate": 4.0}})
        quotas = TenantQuotas(policy, clock=FakeClock())
        quotas.charge("alice")
        quotas.begin("alice")
        snapshot = quotas.snapshot()
        assert snapshot["alice"]["inflight"] == 1
        assert snapshot["alice"]["tokens"] == pytest.approx(3.0)
        json.dumps(snapshot)


# ----------------------------------------------------------------------
# Deficit round-robin.
# ----------------------------------------------------------------------

class TestDeficitScheduler:
    def test_default_is_plain_fifo(self):
        queue = DeficitScheduler()
        for item in "abc":
            queue.push("batch", item)
        assert queue.pop() == ["a", "b", "c"]
        assert len(queue) == 0

    def test_unknown_class_is_an_error(self):
        with pytest.raises(KeyError, match="express"):
            DeficitScheduler().push("express", "x")

    def test_higher_weight_goes_first(self):
        queue = DeficitScheduler({"interactive": 8, "batch": 4,
                                  "background": 1})
        for index in range(3):
            queue.push("background", f"bg{index}")
        for index in range(3):
            queue.push("interactive", f"int{index}")
        popped = queue.pop()
        assert popped[:3] == ["int0", "int1", "int2"]

    def test_weight_shares_over_saturated_period(self):
        # 2:1 weights, both classes kept saturated: over any window of
        # bounded pops the dispatch split tracks the weights.
        queue = DeficitScheduler({"batch": 2, "background": 1})
        for index in range(30):
            queue.push("batch", ("batch", index))
            queue.push("background", ("background", index))
        first_30 = []
        while len(first_30) < 30:
            first_30.extend(queue.pop(3))
        batch_share = sum(1 for klass, __ in first_30
                          if klass == "batch")
        assert batch_share == 20                 # exactly 2/3 of 30

    def test_limit_cut_mid_quantum_resumes_same_class(self):
        queue = DeficitScheduler({"interactive": 4, "background": 1})
        for index in range(4):
            queue.push("interactive", f"int{index}")
        queue.push("background", "bg0")
        assert queue.pop(2) == ["int0", "int1"]
        # The quantum was cut at 2 of 4; the next bounded pop resumes
        # interactive's unspent deficit instead of advancing.
        assert queue.pop(2) == ["int2", "int3"]
        assert queue.pop(2) == ["bg0"]

    def test_background_is_not_starved(self):
        # A continuous flood of interactive work: background must
        # still drain at its weight's pace, never be starved out.
        queue = DeficitScheduler({"interactive": 8, "background": 1})
        queue.push("background", "bg0")
        popped = []
        for round_number in range(10):
            for index in range(8):
                queue.push("interactive", (round_number, index))
            popped.extend(queue.pop(9))
            if "bg0" in popped:
                break
        assert "bg0" in popped

    def test_idle_class_banks_no_credit(self):
        queue = DeficitScheduler({"interactive": 8, "background": 1})
        for __ in range(5):                      # interactive idles
            queue.push("background", "bg")
            assert queue.pop() == ["bg"]
        for index in range(2):
            queue.push("interactive", f"int{index}")
            queue.push("background", f"late{index}")
        # Interactive's unused turns did not pile up deficit for
        # background (nor vice versa): normal 8:1 order applies.
        assert queue.pop()[:2] == ["int0", "int1"]

    def test_depth_and_classes_views(self):
        queue = DeficitScheduler({"interactive": 8, "background": 1})
        queue.push("background", "x")
        assert queue.classes == ("interactive", "background")
        assert queue.depth("background") == 1
        assert queue.depth("interactive") == 0


# ----------------------------------------------------------------------
# Attribution.
# ----------------------------------------------------------------------

def span_tree():
    """A hand-made qos.batch span in dict form (nested children)."""
    return {
        "name": "qos.batch", "wall": 1.0, "children": [
            {"name": "simulate", "wall": 0.4, "children": [
                # Nested under simulate: must NOT double count.
                {"name": "store.trace.put", "wall": 0.1, "children": []},
            ]},
            {"name": "analyze.kernel", "wall": 0.3, "children": []},
            {"name": "runner.batch", "wall": 0.2, "children": [
                {"name": "store.result.put", "wall": 0.1, "children": []},
            ]},
        ],
    }


def batch_phases(span, wall):
    """What the broker bills a batch: the walker's layers, folded."""
    return phases_from_layers(layer_seconds([span], wall))


class TestBatchPhases:
    def test_self_time_goes_to_nearest_classified_layer(self):
        phases = batch_phases(span_tree(), wall=1.2)
        # simulate keeps its own 0.3; the store.trace.put nested in it
        # is billed to store, beside the store.result.put under the
        # unclassified runner.batch.  Nothing is double-counted.
        assert phases["simulate"] == pytest.approx(0.3)
        assert phases["analyze"] == pytest.approx(0.3)
        assert phases["store"] == pytest.approx(0.2)
        assert phases["pool"] == pytest.approx(0.4)
        assert sum(phases.values()) == pytest.approx(1.2)

    def test_null_span_bills_everything_to_pool(self):
        class NullSpan:
            children = ()

        phases = batch_phases(NullSpan(), wall=2.0)
        assert phases == {"pool": 2.0}

    def test_residual_never_negative(self):
        phases = batch_phases(span_tree(), wall=0.5)
        assert phases["pool"] == 0.0

    def test_compile_and_decode_fold_into_simulate_and_store(self):
        tree = {"name": "qos.batch", "wall": 1.0, "children": [
            {"name": "minic.compile", "wall": 0.1, "children": []},
            {"name": "asm.assemble", "wall": 0.2, "children": []},
            {"name": "store.trace.get", "wall": 0.3, "children": [
                {"name": "trace.decode", "wall": 0.25, "children": []},
            ]},
        ]}
        phases = batch_phases(tree, wall=1.0)
        assert phases == pytest.approx(
            {"simulate": 0.3, "store": 0.3, "pool": 0.4})


class TestTenantAccounting:
    def make(self):
        return TenantAccounting(), Recorder()

    def test_record_mirrors_into_labelled_counters(self):
        accounting, recorder = self.make()
        accounting.record("alice", "computed", 2.0,
                          {"queue": 0.5, "simulate": 1.0}, recorder)
        counters = recorder.snapshot()["counters"]
        assert counters['qos.requests{tenant="alice"}'] == 1
        assert counters[
            'qos.served{status="computed",tenant="alice"}'] == 1
        assert counters[
            'qos.phase_seconds{phase="simulate",tenant="alice"}'] \
            == pytest.approx(1.0)

    def test_shed_split_by_reason(self):
        accounting, recorder = self.make()
        accounting.record_shed("mallory", "rate", recorder)
        accounting.record_shed("mallory", "rate", recorder)
        accounting.record_shed("mallory", "inflight", recorder)
        snapshot = accounting.snapshot()
        assert snapshot["mallory"]["shed"] == {"inflight": 1, "rate": 2}

    def test_report_round_trips_through_counters(self):
        accounting, recorder = self.make()
        accounting.record("alice", "computed", 2.0,
                          {"queue": 0.5, "simulate": 1.4}, recorder)
        accounting.record_shed("alice", "rate", recorder)
        report = attribution_from_counters(
            recorder.snapshot()["counters"]
        )
        entry = report["tenants"]["alice"]
        assert entry["requests"] == 1
        assert entry["shed"] == {"rate": 1}
        assert entry["wall_seconds"] == pytest.approx(2.0)
        assert entry["coverage"] == pytest.approx(0.95)
        assert entry["bottleneck"] == "simulate"

    def test_report_round_trips_through_prometheus(self):
        from repro.obs.export import to_prometheus

        accounting, recorder = self.make()
        accounting.record("alice", "warm", 0.25, {"store": 0.25},
                          recorder)
        accounting.record_shed("bob", "backpressure", recorder)
        text = to_prometheus(recorder.snapshot())
        report = attribution_from_prometheus(text)
        assert report["tenants"]["alice"]["coverage"] \
            == pytest.approx(1.0)
        assert report["tenants"]["bob"]["shed"] == {"backpressure": 1}

    def test_render_lists_every_phase_column(self):
        accounting, recorder = self.make()
        accounting.record("alice", "computed", 1.0,
                          {"queue": 0.2, "pool": 0.8}, recorder)
        table = render_attribution(
            attribution_from_counters(recorder.snapshot()["counters"])
        )
        for phase in PHASES:
            assert f"{phase}%" in table
        assert "alice" in table
        assert "pool" in table.splitlines()[-1]  # the bottleneck

    def test_render_empty_report(self):
        assert "no qos.* counters" in render_attribution({"tenants": {}})
