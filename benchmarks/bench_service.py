"""Load generator and benchmark for the analysis service.

Hosts the full service stack (:class:`repro.service.BackgroundServer`)
and drives it with concurrent blocking clients whose job popularity is
zipf-skewed — a few hot jobs dominate, a long tail stays cold — which
is exactly the distribution request coalescing and the warm tier are
built for.  Three phases:

* **burst** — every client simultaneously requests the same cold job:
  the single-flight guarantee means one computation serves them all
  (this is what pins the coalesce rate above zero even in the smoke);
* **mixed** — each client issues a stream of zipf-sampled requests:
  head jobs go warm almost immediately, tail jobs trickle in cold;
* **warm sweep** — every catalogue job once more, all answered from
  the memo/store without touching the pool.

A fourth phase (:func:`measure_qos`) soaks the multi-tenant QoS layer
(docs/qos.md): two compliant tenants stream zipf load while an
abusive third hammers cold jobs at well over 5x its quota, against a
no-abuse baseline of the same compliant load.  The ``qos`` section of
the report records per-tenant p50/p99 under both runs, the shed
split, and the isolation delta; the per-tenant bottleneck-attribution
report is written to ``reports/qos_attribution.json``.

The report (``BENCH_service.json``) records throughput, p50/p99
latency split by how the request was served, the coalesce and shed
rates, and the server-side counter reconciliation proving warm and
coalesced requests never reached the pool (``pool_jobs`` equals the
number of distinct computations).  The run ends with a drain
(:meth:`BackgroundServer.stop`) and records that it exited cleanly.

CI smoke::

    python benchmarks/bench_service.py --smoke

exits non-zero if any request got a 5xx, the coalesce rate was zero,
or the warm path failed the acceptance bar (warm p50 at least 5x
better than cold p50).
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.runner import ExperimentConfig, ResultStore, TraceStore
from repro.service import (
    BackgroundServer,
    BrokerConfig,
    ServiceClient,
    ServiceError,
)

#: Default load shape (the smoke shrinks all of these).
CLIENTS = 6
REQUESTS_PER_CLIENT = 20
BUDGET = 6_000
ZIPF_ALPHA = 1.2

#: Workloads the catalogue cycles through (cheap, diverse kinds).
CATALOG_WORKLOADS = ("com", "go", "ijp")


def build_catalog(budget: int, entries: int) -> list[tuple[str, dict]]:
    """``entries`` distinct (workload, config-dict) jobs.

    Configs vary the analysis knobs, not the budget, so every job of
    one workload shares a trace — batching then collapses concurrent
    cold tail jobs into single simulations.
    """
    variants = (
        {},
        {"predictors": ["last"], "trees_for": []},
        {"predictors": ["stride"], "trees_for": []},
        {"predictors": ["context"], "gen_cap": 32},
        {"predictors": ["last", "stride"], "trees_for": []},
        {"gen_cap": 16},
    )
    catalog = []
    for rank in range(entries):
        name = CATALOG_WORKLOADS[rank % len(CATALOG_WORKLOADS)]
        config = dict(variants[rank % len(variants)])
        config["max_instructions"] = budget
        catalog.append((name, config))
    return catalog


def zipf_weights(entries: int, alpha: float = ZIPF_ALPHA) -> list[float]:
    return [1.0 / (rank + 1) ** alpha for rank in range(entries)]


class LoadStats:
    """Thread-safe accumulator of per-request outcomes."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latencies: dict[str, list[float]] = {}
        self.errors: list[str] = []
        self.http_5xx = 0

    def record(self, status: str, seconds: float) -> None:
        with self.lock:
            self.latencies.setdefault(status, []).append(seconds)

    def record_error(self, error: Exception) -> None:
        with self.lock:
            self.errors.append(f"{type(error).__name__}: {error}")
            status = getattr(error, "status",
                             getattr(error, "last_status", None))
            if status is not None and status >= 500:
                self.http_5xx += 1

    def all_latencies(self) -> list[float]:
        return [value for values in self.latencies.values()
                for value in values]


def percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _timed_analyze(client: ServiceClient, stats: LoadStats,
                   name: str, config: dict) -> None:
    start = time.perf_counter()
    try:
        response = client.analyze(name, config)
    except ServiceError as error:
        stats.record_error(error)
    else:
        stats.record(response["status"], time.perf_counter() - start)


def run_load(port: int, catalog, clients: int, requests_each: int,
             stats: LoadStats) -> float:
    """Burst + mixed phases; returns the load's wall-clock seconds."""
    weights = zipf_weights(len(catalog))
    barrier = threading.Barrier(clients)
    hot_name, hot_config = catalog[0]

    def worker(index: int) -> None:
        rng = random.Random(1000 + index)
        client = ServiceClient(port=port, retries=2, timeout=300.0)
        # Burst: everyone hits the cold zipf-head job at once.
        barrier.wait()
        _timed_analyze(client, stats, hot_name, hot_config)
        # Mixed: zipf-sampled stream.
        for __ in range(requests_each):
            name, config = rng.choices(catalog, weights=weights)[0]
            _timed_analyze(client, stats, name, config)

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def warm_sweep(port: int, catalog, stats: LoadStats) -> None:
    client = ServiceClient(port=port, retries=2, timeout=300.0)
    for name, config in catalog:
        _timed_analyze(client, stats, name, config)


def parse_counters(metrics_text: str) -> dict[str, float]:
    counters = {}
    for line in metrics_text.splitlines():
        if line.startswith("repro_service_") and " " in line:
            name, value = line.rsplit(" ", 1)
            try:
                counters[name] = float(value)
            except ValueError:
                pass
    return counters


def measure_availability(budget: int, requests_each: int = 12) -> dict:
    """Failover cost through a 2-worker fleet: p99 with and without a
    ``kill -9`` of the owning worker mid-stream, plus how long the
    supervisor took to put a healthy replacement back.

    The acceptance bar is the fleet's headline invariant: zero failed
    client requests even though the preferred worker was SIGKILLed.
    """
    import os
    import signal

    from repro.service import FleetClient, FleetConfig, FleetSupervisor

    name, config = "com", {"max_instructions": budget}
    scratch = tempfile.TemporaryDirectory(prefix="repro-bench-fleet-")
    fleet = FleetSupervisor(FleetConfig(workers=2),
                            cache_root=scratch.name)
    steady: list[float] = []
    failover: list[float] = []
    failed = 0
    try:
        fleet.start()
        fleet.wait_healthy(timeout=30)
        client = FleetClient(fleet, timeout=60.0, deadline=120.0)
        client.analyze(name, config)        # cold fill, uncounted

        def stream(bucket: list[float]) -> None:
            nonlocal failed
            for __ in range(requests_each):
                start = time.perf_counter()
                try:
                    client.analyze(name, config)
                except ServiceError:
                    failed += 1
                else:
                    bucket.append(time.perf_counter() - start)

        stream(steady)
        key = FleetClient.request_key(name, config)
        owner = fleet.workers[fleet.ring.owner(key)]
        os.kill(owner.process.pid, signal.SIGKILL)
        killed_at = time.perf_counter()
        stream(failover)
        recovered = fleet.wait_healthy(timeout=60)
        restart_seconds = time.perf_counter() - killed_at
    finally:
        fleet.stop()
        scratch.cleanup()
    return {
        "workers": 2,
        "requests_per_phase": requests_each,
        "steady_p50": round(percentile(steady, 0.50), 4),
        "steady_p99": round(percentile(steady, 0.99), 4),
        "failover_p50": round(percentile(failover, 0.50), 4),
        "failover_p99": round(percentile(failover, 0.99), 4),
        "failed_requests": failed,
        "recovered": recovered,
        "restart_seconds": round(restart_seconds, 2),
    }


#: The soak's cast: two compliant tenants and one abusive one.  The
#: abusive tenant is rate-limited by the policy; the compliant pair
#: has no quota at all, so any shed they see is a QoS bug.
QOS_ABUSIVE_RATE = 2.0      # mallory's tokens/second
QOS_PACING = 0.02           # compliant inter-request think time (s)
QOS_GRACE = 0.05            # absolute p99 noise allowance (s)


def _qos_policy():
    from repro.service.qos import qos_policy_from_dict

    return qos_policy_from_dict({
        "default_class": "batch",
        "batch_max": 4,
        "tenants": {
            "alice": {"class": "interactive"},
            "bob": {"class": "batch"},
            "mallory": {"class": "background",
                        "rate": QOS_ABUSIVE_RATE,
                        "max_inflight": 1},
        },
    })


def _qos_phase(policy, catalog, abuse_catalog, requests_each: int,
               abuse: bool) -> dict:
    """One fresh server under ``policy``; compliant zipf streams from
    alice (interactive) and bob (batch), optionally with mallory
    hammering cold jobs flat-out.  Returns per-tenant latencies, the
    captured result bytes (for the byte-identity check), mallory's
    issued/admitted/shed split, and the attribution report read back
    from ``/metrics``."""
    from repro.service.qos import attribution_from_prometheus

    weights = zipf_weights(len(catalog))
    scratch = tempfile.TemporaryDirectory(prefix="repro-bench-qos-")
    server = BackgroundServer(
        store=ResultStore(scratch.name),
        trace_store=TraceStore(scratch.name),
        broker_config=BrokerConfig(workers=2, batch_window=0.02,
                                   qos=policy),
    ).start()
    latencies: dict[str, list[float]] = {"alice": [], "bob": []}
    errors: dict[str, int] = {"alice": 0, "bob": 0}
    results: dict[str, str] = {}
    serial_results: dict[str, str] = {}
    results_lock = threading.Lock()
    issued = admitted = shed = 0
    try:
        # Serial reference pass: every catalog job once, one at a
        # time, before any concurrency.  These bytes are the ground
        # truth the concurrent streams must reproduce.
        reference = ServiceClient(port=server.port, retries=2,
                                  timeout=300.0, tenant="alice")
        for name, config in catalog:
            response = reference.analyze(name, config)
            key = json.dumps([name, config], sort_keys=True)
            serial_results[key] = json.dumps(response["result"],
                                             sort_keys=True)

        stop = threading.Event()

        def compliant(tenant: str, seed: int) -> None:
            rng = random.Random(seed)
            client = ServiceClient(port=server.port, retries=2,
                                   timeout=300.0, tenant=tenant)
            for __ in range(requests_each):
                name, config = rng.choices(catalog, weights=weights)[0]
                start = time.perf_counter()
                try:
                    response = client.analyze(name, config)
                except ServiceError:
                    errors[tenant] += 1
                else:
                    latencies[tenant].append(time.perf_counter() - start)
                    key = json.dumps([name, config], sort_keys=True)
                    with results_lock:
                        results[key] = json.dumps(response["result"],
                                                  sort_keys=True)
                time.sleep(QOS_PACING)

        abuse_lock = threading.Lock()

        def abuser(seed: int) -> None:
            # Several threads so one admitted (slow, cold) job never
            # throttles the offered load: the others keep hammering
            # and getting shed, which is the point of the abuse.
            nonlocal issued, admitted, shed
            rng = random.Random(seed)
            client = ServiceClient(port=server.port, retries=0,
                                   timeout=300.0, tenant="mallory")
            while not stop.is_set():
                name, config = rng.choice(abuse_catalog)
                with abuse_lock:
                    issued += 1
                try:
                    client.analyze(name, config)
                except ServiceError as error:
                    if getattr(error, "last_status", None) == 429:
                        with abuse_lock:
                            shed += 1
                    # Brief pause so the shed loop is merely abusive
                    # (hundreds of requests/second), not a connection
                    # flood that measures the TCP stack instead.
                    time.sleep(0.005)
                else:
                    with abuse_lock:
                        admitted += 1

        threads = [
            threading.Thread(target=compliant, args=("alice", 31)),
            threading.Thread(target=compliant, args=("bob", 32)),
        ]
        if abuse:
            threads.extend(threading.Thread(target=abuser, args=(70 + i,))
                           for i in range(4))
        load_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads[:2]:
            thread.join()
        stop.set()
        for thread in threads[2:]:
            thread.join()
        load_wall = time.perf_counter() - load_start
        attribution = attribution_from_prometheus(
            ServiceClient(port=server.port, retries=2).metrics()
        )
    finally:
        server.stop()
        scratch.cleanup()
    return {
        "latencies": latencies,
        "errors": errors,
        "results": results,
        "serial_results": serial_results,
        "abuser": {"issued": issued, "admitted": admitted, "shed": shed},
        "load_wall": load_wall,
        "attribution": attribution,
    }


def measure_qos(budget: int, requests_each: int) -> tuple[dict, dict]:
    """The multi-tenant isolation soak: a no-abuse baseline run, then
    the same compliant load with mallory hammering cold jobs at well
    over its quota.  Returns the ``qos`` report section and the
    abuse run's attribution report (the CI artifact)."""
    policy = _qos_policy()
    catalog = build_catalog(budget, 4)
    # Mallory's own cold jobs: distinct configs so its admitted
    # requests cost real pool time instead of hitting the warm tier.
    abuse_catalog = [
        (CATALOG_WORKLOADS[rank % len(CATALOG_WORKLOADS)],
         {"max_instructions": budget, "gen_cap": 8 + rank})
        for rank in range(4)
    ]

    baseline = _qos_phase(policy, catalog, abuse_catalog,
                          requests_each, abuse=False)
    abuse = _qos_phase(policy, catalog, abuse_catalog,
                       requests_each, abuse=True)

    # Byte-identity: concurrent answers match the serial reference
    # pass of their own run, and the two runs match each other.
    identical = all(
        run["results"][key] == run["serial_results"].get(key)
        for run in (baseline, abuse) for key in run["results"]
    ) and all(
        abuse["serial_results"][key] == baseline["serial_results"][key]
        for key in abuse["serial_results"]
    )

    tenants = {}
    isolation = {}
    for tenant in ("alice", "bob"):
        base_values = baseline["latencies"][tenant]
        abuse_values = abuse["latencies"][tenant]
        base_p99 = percentile(base_values, 0.99)
        abuse_p99 = percentile(abuse_values, 0.99)
        tenants[tenant] = {
            "requests": len(abuse_values),
            "errors": abuse["errors"][tenant],
            "p50": round(percentile(abuse_values, 0.50), 4),
            "p99": round(abuse_p99, 4),
            "baseline_p50": round(percentile(base_values, 0.50), 4),
            "baseline_p99": round(base_p99, 4),
        }
        isolation[tenant] = {
            "p99_delta_pct": round(
                100.0 * (abuse_p99 - base_p99) / base_p99, 1
            ) if base_p99 > 0 else 0.0,
            # The bound is an absolute p99 ceiling: at a ~10 ms
            # baseline the grace outweighs the 25% many times over.
            "ceiling_s": round(1.25 * base_p99 + QOS_GRACE, 4),
            "within_bound": abuse_p99 <= base_p99 * 1.25 + QOS_GRACE,
        }
    abuser = abuse["abuser"]
    quota_budget = QOS_ABUSIVE_RATE * abuse["load_wall"] + QOS_ABUSIVE_RATE
    abuse_factor = (abuser["issued"] / quota_budget
                    if quota_budget > 0 else 0.0)
    report_tenants = abuse["attribution"]["tenants"]
    compliant_sheds = sum(
        sum(report_tenants.get(name, {}).get("shed", {}).values())
        for name in ("alice", "bob")
    )
    total_wall = sum(entry["wall_seconds"]
                     for entry in report_tenants.values())
    total_attributed = sum(entry["attributed_seconds"]
                           for entry in report_tenants.values())
    coverage = {
        # The gated number: across all tenants, how much wall time the
        # named phases explain.  Per-tenant values ride along for the
        # report (an abusive tenant's own 429 flood adds event-loop
        # latency to its wall that no batch span can account for).
        "aggregate": round(total_attributed / total_wall, 4)
        if total_wall > 0 else 1.0,
        "tenants": {
            name: round(entry["coverage"], 4)
            for name, entry in report_tenants.items()
            if entry["wall_seconds"] > 0
        },
    }
    section = {
        "policy": policy.describe(),
        "requests_per_tenant": requests_each,
        "tenants": tenants,
        "abuser": dict(abuser, abuse_factor=round(abuse_factor, 1)),
        "isolation": dict(isolation, bound_pct=25.0,
                          grace_seconds=QOS_GRACE),
        "compliant_sheds": int(compliant_sheds),
        "results_identical": identical,
        "attribution_coverage": coverage,
    }
    return section, abuse["attribution"]


def smoke(clients: int = CLIENTS,
          requests_each: int = REQUESTS_PER_CLIENT,
          budget: int = BUDGET, catalog_size: int = 12,
          output_path=None) -> dict:
    """One full load run against a fresh server; writes the report."""
    catalog = build_catalog(budget, catalog_size)
    stats = LoadStats()
    scratch = tempfile.TemporaryDirectory(prefix="repro-bench-service-")
    server = BackgroundServer(
        store=ResultStore(scratch.name),
        trace_store=TraceStore(scratch.name),
        broker_config=BrokerConfig(workers=2, batch_window=0.02),
    ).start()
    try:
        load_wall = run_load(server.port, catalog, clients,
                             requests_each, stats)
        warm_sweep(server.port, catalog, stats)
        counters = parse_counters(
            ServiceClient(port=server.port, retries=2).metrics()
        )
    finally:
        exit_code = server.stop()
        scratch.cleanup()

    availability = measure_availability(budget)
    qos_section, qos_attribution = measure_qos(
        budget, requests_each=max(4 * requests_each, 40)
    )

    total = len(stats.all_latencies()) + len(stats.errors)
    cold = stats.latencies.get("computed", [])
    warm = (stats.latencies.get("warm", [])
            + stats.latencies.get("coalesced", []))
    warm_only = stats.latencies.get("warm", [])
    requests_seen = counters.get("repro_service_requests_total", 0)
    coalesced = counters.get("repro_service_coalesced_total", 0)
    shed = counters.get("repro_service_shed_total", 0)
    pool_jobs = counters.get("repro_service_batch_jobs_total", 0)

    cold_p50 = percentile(cold, 0.50)
    warm_p50 = percentile(warm_only, 0.50)
    report = {
        "benchmark": "zipf-skewed concurrent load against repro serve",
        "clients": clients,
        "requests_per_client": requests_each + 1,
        "catalog_jobs": len(catalog),
        "budget": budget,
        "requests": {
            "total": total,
            "by_status": {status: len(values)
                          for status, values in stats.latencies.items()},
            "errors": len(stats.errors),
            "http_5xx": stats.http_5xx,
        },
        "throughput_rps": round(
            (total - len(catalog)) / load_wall, 2
        ) if load_wall else 0.0,
        "latency_seconds": {
            "overall": {
                "p50": round(percentile(stats.all_latencies(), 0.50), 4),
                "p99": round(percentile(stats.all_latencies(), 0.99), 4),
            },
            "cold_p50": round(cold_p50, 4),
            "cold_p99": round(percentile(cold, 0.99), 4),
            "warm_p50": round(warm_p50, 4),
            "warm_p99": round(percentile(warm_only, 0.99), 4),
            "warm_speedup_p50": round(cold_p50 / warm_p50, 2)
            if warm_p50 else None,
        },
        "coalesce_rate": round(coalesced / requests_seen, 4)
        if requests_seen else 0.0,
        "shed_rate": round(shed / requests_seen, 4)
        if requests_seen else 0.0,
        "pool_jobs": int(pool_jobs),
        "computed": int(counters.get("repro_service_computed_total", 0)),
        "warm_hits": int(counters.get("repro_service_warm_total", 0)),
        "availability": availability,
        "qos": qos_section,
        "drain_exit_code": exit_code,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if output_path is None:
        output_path = (Path(__file__).resolve().parent.parent
                       / "BENCH_service.json")
    Path(output_path).write_text(json.dumps(report, indent=2) + "\n")
    attribution_path = Path(output_path).parent / "reports"
    attribution_path.mkdir(exist_ok=True)
    attribution_path = attribution_path / "qos_attribution.json"
    attribution_path.write_text(
        json.dumps(qos_attribution, indent=2, sort_keys=True) + "\n"
    )

    print(f"{total} requests from {clients} client(s) over "
          f"{len(catalog)} jobs @ {budget} instructions:")
    print(f"  throughput     {report['throughput_rps']:>8.2f} req/s")
    print(f"  cold p50/p99   {report['latency_seconds']['cold_p50']:>8.4f}s"
          f" / {report['latency_seconds']['cold_p99']:.4f}s")
    print(f"  warm p50/p99   {report['latency_seconds']['warm_p50']:>8.4f}s"
          f" / {report['latency_seconds']['warm_p99']:.4f}s")
    print(f"  warm speedup   "
          f"{report['latency_seconds']['warm_speedup_p50']}x (p50)")
    print(f"  coalesce rate  {report['coalesce_rate']:>8.2%}")
    print(f"  shed rate      {report['shed_rate']:>8.2%}")
    print(f"  pool jobs      {report['pool_jobs']:>8d} "
          f"(of {int(requests_seen)} requests)")
    print(f"  drain exit     {exit_code}")
    print(f"  fleet steady/failover p99  "
          f"{availability['steady_p99']:.4f}s / "
          f"{availability['failover_p99']:.4f}s "
          f"(restart {availability['restart_seconds']:.2f}s, "
          f"{availability['failed_requests']} failed)")
    for tenant, entry in qos_section["tenants"].items():
        bound = qos_section["isolation"][tenant]
        print(f"  qos {tenant:<9} p99 {entry['baseline_p99']:.4f}s -> "
              f"{entry['p99']:.4f}s under abuse "
              f"({bound['p99_delta_pct']:+.1f}%, ceiling "
              f"{bound['ceiling_s']:.4f}s)")
    abuser = qos_section["abuser"]
    print(f"  qos abuser     {abuser['issued']} issued @ "
          f"{abuser['abuse_factor']}x quota, {abuser['shed']} shed, "
          f"{abuser['admitted']} admitted; compliant sheds "
          f"{qos_section['compliant_sheds']}")
    print(f"[attribution report in {attribution_path}]", file=sys.stderr)
    if stats.errors:
        print(f"  errors: {stats.errors[:5]}", file=sys.stderr)
    print(f"[written to {output_path}]", file=sys.stderr)
    return report


def check(report: dict) -> list[str]:
    """The acceptance bars; returns human-readable violations."""
    problems = []
    if report["requests"]["http_5xx"]:
        problems.append(
            f"{report['requests']['http_5xx']} request(s) got a 5xx"
        )
    if report["requests"]["errors"]:
        problems.append(
            f"{report['requests']['errors']} request(s) errored"
        )
    if report["coalesce_rate"] <= 0:
        problems.append("coalesce rate was zero (single-flight broken?)")
    speedup = report["latency_seconds"]["warm_speedup_p50"]
    if speedup is None or speedup < 5.0:
        problems.append(
            f"warm p50 speedup {speedup}x below the 5x acceptance bar"
        )
    if report["pool_jobs"] > report["computed"]:
        problems.append(
            f"pool ran {report['pool_jobs']} job(s) for only "
            f"{report['computed']} computed response(s) — warm or "
            f"coalesced requests reached the pool"
        )
    if report["drain_exit_code"] != 0:
        problems.append(
            f"drain exited {report['drain_exit_code']}, expected 0"
        )
    availability = report.get("availability", {})
    if availability.get("failed_requests"):
        problems.append(
            f"{availability['failed_requests']} fleet request(s) "
            f"failed during failover — the kill must be invisible"
        )
    if not availability.get("recovered", True):
        problems.append("fleet did not return to healthy after the "
                        "kill")
    qos = report.get("qos", {})
    if qos:
        for tenant, entry in qos["isolation"].items():
            if not isinstance(entry, dict) or "within_bound" not in entry:
                continue
            if not entry["within_bound"]:
                problems.append(
                    f"compliant tenant {tenant!r} p99 "
                    f"{qos['tenants'][tenant]['p99']} s over the "
                    f"{entry['ceiling_s']} s ceiling "
                    f"(+{qos['isolation']['bound_pct']:g}% + "
                    f"{qos['isolation']['grace_seconds']:g} s)"
                )
        if qos["compliant_sheds"]:
            problems.append(
                f"{qos['compliant_sheds']} compliant request(s) were "
                f"shed — quotas must only bite the abusive tenant"
            )
        for tenant in ("alice", "bob"):
            if qos["tenants"][tenant]["errors"]:
                problems.append(
                    f"compliant tenant {tenant!r} saw "
                    f"{qos['tenants'][tenant]['errors']} error(s)"
                )
        if not qos["results_identical"]:
            problems.append(
                "results under multi-tenant load differ from the "
                "serial reference — QoS must never change answers"
            )
        if qos["abuser"]["abuse_factor"] < 5.0:
            problems.append(
                f"abusive tenant only reached "
                f"{qos['abuser']['abuse_factor']}x its quota — the "
                f"soak did not actually abuse"
            )
        if qos["abuser"]["shed"] == 0:
            problems.append(
                "the abusive tenant was never shed — quotas are not "
                "biting"
            )
        coverage = qos["attribution_coverage"]["aggregate"]
        if coverage < 0.90:
            problems.append(
                f"attribution coverage {coverage:.1%} below 90% — "
                f"wall time is leaking out of the named phases"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small load for CI (fewer clients/requests, "
                             "smaller budget)")
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--output", default=None,
                        help="report path (default: BENCH_service.json "
                             "at the repo root)")
    args = parser.parse_args(argv)

    if args.smoke:
        defaults = dict(clients=4, requests_each=6, budget=3_000,
                        catalog_size=6)
    else:
        defaults = dict(clients=CLIENTS,
                        requests_each=REQUESTS_PER_CLIENT,
                        budget=BUDGET, catalog_size=12)
    if args.clients is not None:
        defaults["clients"] = args.clients
    if args.requests is not None:
        defaults["requests_each"] = args.requests
    if args.budget is not None:
        defaults["budget"] = args.budget

    report = smoke(output_path=args.output, **defaults)
    problems = check(report)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
