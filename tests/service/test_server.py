"""HTTP contract, coalescing over the wire, shedding, faults, drain.

Every test hosts the real stack — asyncio server, broker, runner — on
a daemon thread via :class:`BackgroundServer` and talks to it with the
blocking :class:`ServiceClient`, exactly as an operator would.
Budgets are kept tiny: these tests exercise plumbing, not analysis.
"""

import threading

import pytest

from repro.runner import FaultPlan, FaultSpec, ResultStore, TraceStore
from repro.runner.faults import set_fault_plan
from repro.service import (
    BackgroundServer,
    BrokerConfig,
    RequestFailed,
    ServiceClient,
    ServiceUnavailable,
)

BUDGET = 1_500


@pytest.fixture
def server(tmp_path):
    with BackgroundServer(
        store=ResultStore(tmp_path), trace_store=TraceStore(tmp_path),
        broker_config=BrokerConfig(workers=2, batch_window=0.02),
    ) as background:
        yield background


def client_for(server, **kwargs) -> ServiceClient:
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("timeout", 120.0)
    return ServiceClient(port=server.port, **kwargs)


class TestEndpointContract:
    def test_healthz(self, server):
        assert client_for(server).health() == {"status": "ok"}

    def test_readyz_reports_load(self, server):
        ready = client_for(server).ready()
        assert ready["ready"] is True
        assert ready["queue_depth"] == 0

    def test_workloads_catalogue(self, server):
        catalogue = client_for(server).workloads()
        assert {"name", "kind", "description"} <= set(catalogue[0])
        assert any(entry["name"] == "com" for entry in catalogue)

    def test_metrics_is_valid_exposition(self, server):
        client = client_for(server)
        client.health()
        text = client.metrics()
        typed = set()
        for line in text.splitlines():
            if line.startswith("# TYPE"):
                typed.add(line.split()[2])
            elif line and not line.startswith("#"):
                name = line.split("{")[0].split()[0]
                assert name in typed, f"sample {name} missing # TYPE"
        assert "repro_service_http_2xx_total" in text

    def test_unknown_route_is_404(self, server):
        with pytest.raises(RequestFailed) as excinfo:
            client_for(server).request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, server):
        with pytest.raises(RequestFailed) as excinfo:
            client_for(server).request("GET", "/v1/analyze")
        assert excinfo.value.status == 405

    def test_bad_json_is_400(self, server):
        status, __, raw = client_for(server)._attempt(
            "POST", "/v1/analyze", b"{nope"
        )
        assert status == 400
        assert b"error" in raw

    def test_unknown_workload_is_400(self, server):
        with pytest.raises(RequestFailed) as excinfo:
            client_for(server).analyze("zzz")
        assert excinfo.value.status == 400
        assert "unknown workload" in excinfo.value.payload["error"]

    @pytest.mark.parametrize("config, named", [
        ({"predictors": ["bogus"]}, "'bogus'"),
        ({"predictors": []}, "no predictors"),
        ({"predictors": ["last", "last"]}, "'last' is repeated"),
        ({"engine": "reference"}, "unknown config field 'engine'"),
        ({"gen_cap": 0}, "gen_cap must be an integer >= 1"),
    ])
    def test_invalid_config_is_400(self, server, config, named):
        with pytest.raises(RequestFailed) as excinfo:
            client_for(server).analyze("com", config)
        assert excinfo.value.status == 400
        assert named in excinfo.value.payload["error"]


class TestAnalyzeFlow:
    def test_cold_then_warm(self, server):
        client = client_for(server)
        first = client.analyze("com", {"max_instructions": BUDGET})
        second = client.analyze("com", {"max_instructions": BUDGET})
        assert first["status"] == "computed"
        assert second["status"] == "warm"
        assert first["result"] == second["result"]
        assert first["result"]["nodes"] == BUDGET

    def test_concurrent_identical_requests_coalesce(self, server):
        client = client_for(server)
        barrier = threading.Barrier(6)
        statuses, errors = [], []

        def hit():
            barrier.wait()
            try:
                response = client.analyze(
                    "go", {"max_instructions": 40_000}
                )
                statuses.append(response["status"])
            except Exception as error:  # noqa: BLE001 — fail the test
                errors.append(error)

        threads = [threading.Thread(target=hit) for __ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        # Exactly one computation; everyone else coalesced onto it or
        # (having arrived after it finished) was served warm.
        assert statuses.count("computed") == 1
        assert set(statuses) <= {"computed", "coalesced", "warm"}

    def test_sweep_runs_every_pair(self, server):
        response = client_for(server).sweep(
            configs=[{"max_instructions": 1_000},
                     {"max_instructions": 2_000}],
            workloads=["com"],
        )
        assert response["failed"] == 0
        nodes = sorted(job["result"]["nodes"]
                       for job in response["jobs"])
        assert nodes == [1_000, 2_000]


class TestBackpressure:
    def test_saturated_server_sheds_with_429(self, tmp_path):
        with BackgroundServer(
            store=ResultStore(tmp_path),
            broker_config=BrokerConfig(workers=1, max_queue=0),
        ) as background:
            client = ServiceClient(port=background.port, retries=0)
            with pytest.raises(ServiceUnavailable) as excinfo:
                client.analyze("com", {"max_instructions": BUDGET})
            assert excinfo.value.last_status == 429

    def test_client_honours_retry_after(self, tmp_path):
        naps = []
        with BackgroundServer(
            store=ResultStore(tmp_path),
            broker_config=BrokerConfig(workers=1, max_queue=0),
        ) as background:
            client = ServiceClient(port=background.port, retries=1,
                                   sleep=naps.append)
            with pytest.raises(ServiceUnavailable):
                client.analyze("com", {"max_instructions": BUDGET})
        # One backoff nap, at least as long as the 429's Retry-After.
        assert len(naps) == 1
        assert naps[0] >= 1.0


class TestFaultSites:
    def teardown_method(self):
        set_fault_plan(None)

    def test_client_retries_through_dropped_connections(self, server):
        set_fault_plan(FaultPlan(specs={
            "service.accept": FaultSpec(schedule=(1, 2), max_fires=2),
        }))
        response = client_for(server, retries=3).request("GET", "/healthz")
        assert response.payload == {"status": "ok"}
        assert response.attempts == 3

    def test_client_retries_through_injected_500(self, server):
        set_fault_plan(FaultPlan(specs={
            "service.handler": FaultSpec(schedule=(1,), max_fires=1),
        }))
        response = client_for(server, retries=2).request("GET", "/healthz")
        assert response.payload == {"status": "ok"}
        assert response.attempts == 2

    def test_retries_exhausted_reports_unavailable(self, server):
        set_fault_plan(FaultPlan(specs={
            "service.accept": FaultSpec(schedule=(1, 2, 3, 4)),
        }))
        client = client_for(server, retries=1,
                            backoff_base=0.001, backoff_cap=0.01)
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.request("GET", "/healthz")
        assert excinfo.value.attempts == 2


class TestGracefulDrain:
    def test_drain_mid_request_answers_then_exits_zero(self, tmp_path):
        background = BackgroundServer(
            store=ResultStore(tmp_path), trace_store=TraceStore(tmp_path),
            broker_config=BrokerConfig(workers=1, batch_window=0.02),
        ).start()
        client = ServiceClient(port=background.port, retries=0,
                               timeout=120.0)
        box = {}

        def slow():
            box["response"] = client.analyze(
                "go", {"max_instructions": 100_000}
            )

        thread = threading.Thread(target=slow)
        thread.start()
        # Give the request time to be admitted, then drain under it.
        deadline_event = threading.Event()
        deadline_event.wait(0.3)
        exit_code = background.stop()       # blocks until drained
        thread.join(timeout=120)
        assert exit_code == 0
        assert box["response"]["status"] in ("computed", "coalesced")
        assert box["response"]["result"]["nodes"] == 100_000

    def test_drained_server_refuses_new_work(self, tmp_path):
        background = BackgroundServer(store=ResultStore(tmp_path)).start()
        port = background.port
        assert background.stop() == 0
        client = ServiceClient(port=port, retries=0, timeout=5.0)
        with pytest.raises(ServiceUnavailable):
            client.health()


class TestTenantAndQos:
    """Tenant identity over the wire and QoS end to end
    (docs/qos.md; the deterministic quota/fairness logic is covered
    in test_qos*.py — here we prove the HTTP plumbing)."""

    def qos_server(self, tmp_path, **tenant_specs):
        from repro.service.qos import qos_policy_from_dict

        policy = qos_policy_from_dict({"tenants": tenant_specs})
        return BackgroundServer(
            store=ResultStore(tmp_path), trace_store=TraceStore(tmp_path),
            broker_config=BrokerConfig(workers=2, batch_window=0.02,
                                       qos=policy),
        )

    def test_malformed_tenant_header_is_pointed_400(self, server):
        client = client_for(server, tenant="NOT A TENANT")
        with pytest.raises(RequestFailed) as excinfo:
            client.analyze("com", {"max_instructions": BUDGET})
        assert excinfo.value.status == 400
        assert "X-Repro-Tenant" in excinfo.value.payload["error"]

    def test_qos_key_in_body_is_pointed_400(self, server):
        with pytest.raises(RequestFailed) as excinfo:
            client_for(server).request(
                "POST", "/v1/analyze",
                {"workload": "com", "priority": "high"},
            )
        assert excinfo.value.status == 400
        assert "operator" in excinfo.value.payload["error"]

    def test_tenant_flows_into_attribution_and_metrics(self, tmp_path):
        with self.qos_server(
            tmp_path, alice={"class": "interactive"},
        ) as server:
            client = client_for(server, tenant="alice")
            client.analyze("com", {"max_instructions": BUDGET})
            ready = client.ready()
            assert ready["qos"]["tenants"]["alice"]["requests"] == 1
            assert 'tenant="alice"' in client.metrics()

    def test_quota_429_surfaces_per_tenant_retry_after(self, tmp_path):
        # mallory's bucket holds exactly one token and refills over
        # 1000s, so the second request sheds with a *large* hint that
        # can only have come from mallory's own bucket; the client
        # surfaces it exactly as global-shedding 429s.
        with self.qos_server(
            tmp_path, mallory={"rate": 0.001, "burst": 1},
        ) as server:
            client = client_for(server, tenant="mallory", retries=0)
            client.analyze("com", {"max_instructions": BUDGET})
            with pytest.raises(ServiceUnavailable) as excinfo:
                client.analyze("com", {"max_instructions": BUDGET})
            assert excinfo.value.last_status == 429
            assert excinfo.value.retry_after >= 100
            # An innocent tenant is untouched.
            other = client_for(server, tenant="alice")
            response = other.analyze("com",
                                     {"max_instructions": BUDGET})
            assert response["status"] == "warm"
