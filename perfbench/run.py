"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 30 --trace 0

Workloads (the seed generates the inputs; the program sees only them):

* ``cold_sweep`` -- a researcher's first study: suite and generated
  programs through ``ExperimentRunner.run_many`` with the 4-config
  sweep, ``jobs`` = core count, stores empty.  Compile, simulate,
  trace encode, columnize and the process pool carry the time.
* ``replay_sweep`` -- design-space exploration over stored traces:
  each round's set-up captures two 150k-record traces, then the round
  replays them under 8 analysis configs with a serial ``run_many`` and
  fresh stores, one such study per core side by side.  Nothing is
  simulated in a study, so decode and the analysis kernel carry the
  time.
* ``service_zipf`` -- interactive use: open-loop zipf load against
  ``python -m repro serve`` (see :mod:`service`).  Besides the
  end-to-end metrics ``BENCHMARK.json`` lists, it prints ``p50_ms``,
  ``tail_ms`` and ``goodput_rps``.

Each sweep repetition runs in a fresh interpreter (:mod:`rep`), so no
in-memory cache carries from one repetition to the next.  Every result
is digested and checked against ``digests.json`` (committed for the
default seed) or, on other seeds, against the run's own first answer
for that job; every job's status is checked against the mix the
workload must produce.

With ``--trace 0`` the end-to-end metrics are printed.  With
``--trace 1`` a separate traced run re-executes all three workloads
with spans around every call into a layer (:mod:`tracer`) and prints
the per-layer metrics, including the time no span covers.  The last
line of standard output is always one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run is also appended, with ``nproc``, the Python version, the
platform and the code identity, to ``.perfbench-out/results.jsonl``;
the spans of a traced run go to ``.perfbench-out/spans-*.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Start no repetition after this many seconds of a run.
RUN_LIMIT = 120.0
MIN_COLD_REPS = 3
#: Each replay round captures its own traces, so the set-up samples
#: are spread over the run rather than taken in one burst up front.
MIN_REPLAY_ROUNDS = 3
SERVICE_SETUPS = 3
CHILD_TIMEOUT = 170.0
#: Prefix of the longest replay trace the kernel-reuse probe analyses.
PROBE_RECORDS = 50_000
#: Metrics ``service_zipf`` prints beyond those BENCHMARK.json lists.
SERVICE_UNITS = {"p50_ms": "ms", "tail_ms": "ms", "goodput_rps": "1/s"}


class RunFailed(Exception):
    """A child process of the benchmark died or misbehaved."""


class Tally:
    """Ops attempted and failed, plus the reasons runs deviated."""

    def __init__(self, book: common.DigestBook):
        self.book = book
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def sweep(self, done: dict, expect: str) -> int:
        """Account one sweep's jobs; returns the number answered right.

        ``expect`` is the one status every job must have.
        """
        good = 0
        self.attempted += len(done["digests"]) + len(done["failures"])
        self.failed += len(done["failures"])
        self.problems.extend(done["failures"])
        for label, digest in done["digests"].items():
            if self.book.check(label, digest):
                good += 1
            else:
                self.failed += 1
                self.problems.append(f"digest mismatch: {label}")
        if set(done["statuses"]) != {expect}:
            self.problems.append(f"status mix {done['statuses']}, "
                                 f"expected all {expect}")
        return good

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def run_children(specs: list[dict], work: Path) -> list[tuple]:
    """Run :mod:`rep` processes side by side.

    Returns ``(setup_s, done event, wall)`` per spec; ``setup_s`` runs
    from spawn to the child's ready line (stamped by the child on the
    shared monotonic clock).  Every child has ended when this returns.
    """
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    started = []
    results = []
    try:
        for spec in specs:
            spawn = time.monotonic()
            process = subprocess.Popen(
                [sys.executable, str(common.BENCH_DIR / "rep.py"),
                 json.dumps(spec)],
                cwd=common.ROOT, env=common.child_env(tmp),
                stdout=subprocess.PIPE, text=True,
            )
            started.append((spec, spawn, process))
        for spec, spawn, process in started:
            timer = threading.Timer(CHILD_TIMEOUT, process.kill)
            timer.start()
            ready = done = None
            try:
                for line in process.stdout:
                    try:
                        event = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if event.get("event") == "ready":
                        ready = event["at"]
                    elif event.get("event") == "done":
                        done = event
                process.wait()
            finally:
                timer.cancel()
            if process.returncode != 0 or done is None or ready is None:
                raise RunFailed(f"{spec['kind']} repetition exited with "
                                f"{process.returncode}")
            results.append((ready - spawn, done, time.monotonic() - spawn))
    finally:
        for __, __, process in started:
            if process.poll() is None:
                process.kill()
            process.wait()
            process.stdout.close()
    return results


def run_child(spec: dict, work: Path) -> tuple[float, dict, float]:
    return run_children([spec], work)[0]


def sweep_spec(names, configs, jobs: int, result_root: Path,
               trace_root: Path, **extra) -> dict:
    return {"kind": "sweep", "names": names, "configs": configs,
            "jobs": jobs, "result_root": str(result_root),
            "trace_root": str(trace_root), **extra}


def capture(names, work: Path, tag: str) -> tuple[float, Path]:
    """The replay set-up: capture the traces into a fresh store.

    Returns the seconds the capturing process took from its ready
    stamp on (interpreter start-up left out) and the store's root.
    """
    root = work / tag
    __, done, __ = run_child(
        {"kind": "capture", "names": names, "records": common.REPLAY_RECORDS,
         "trace_root": str(root)}, work)
    return done["seconds"], root


def sweep_metrics(reps: list[dict], setups: list[float]) -> dict:
    walls = ", ".join(f"{rep['wall']:.2f}" for rep in reps)
    print(f"  repetition walls {walls} s; set-ups "
          f"{', '.join(f'{setup:.2f}' for setup in setups)} s")
    return {
        "setup_s": common.median(setups),
        "records_per_s": common.median(rep["records"] / rep["wall"]
                                       for rep in reps),
        "peak_rss_mb": max(rep["rss_kb"] for rep in reps) / 1024.0,
    }


def repeat(run_one, minimum: int, seconds: float) -> list[dict]:
    """Rounds until ``seconds`` have passed and ``minimum`` ran; each
    round returns a list of repetitions."""
    start = time.monotonic()
    rounds = []
    while (len(rounds) < minimum
           or time.monotonic() - start < seconds) \
            and time.monotonic() - start < RUN_LIMIT:
        rounds.append(run_one(len(rounds)))
    return [rep for reps in rounds for rep in reps]


def cold_sweep(args, work: Path, tally: Tally) -> dict:
    names, configs = common.cold_inputs(args.seed)
    setups = []

    def one(index: int) -> list[dict]:
        root = work / f"rep{index}"
        setup, done, __ = run_child(
            sweep_spec(names, configs, common.NPROC, root, root), work)
        shutil.rmtree(root, ignore_errors=True)
        setups.append(setup)
        tally.sweep(done, "computed")
        return [done]

    reps = repeat(one, MIN_COLD_REPS, args.seconds)
    print(f"cold_sweep: {len(names)} workloads x {len(configs)} configs "
          f"@ {common.COLD_BUDGET} records, jobs={common.NPROC}, "
          f"{len(reps)} repetitions")
    return sweep_metrics(reps, setups)


def replay_sweep(args, work: Path, tally: Tally) -> dict:
    names, configs = common.replay_inputs(args.seed)
    setups = []

    def one(index: int) -> list[dict]:
        setup, traces = capture(names, work, f"traces{index}")
        setups.append(setup)
        # One serial study per core, side by side, each with its own
        # fresh result store over the round's traces.
        results = [work / f"results{index}-{study}"
                   for study in range(common.NPROC)]
        studies = run_children(
            [sweep_spec(names, configs, 1, root, traces)
             for root in results], work)
        reps = []
        for root, (__, done, __) in zip(results, studies):
            shutil.rmtree(root, ignore_errors=True)
            tally.sweep(done, "replayed")
            reps.append(done)
        shutil.rmtree(traces, ignore_errors=True)
        return reps

    reps = repeat(one, MIN_REPLAY_ROUNDS, args.seconds)
    print(f"replay_sweep: {len(names)} traces x {len(configs)} configs "
          f"@ {common.REPLAY_RECORDS} records, {common.NPROC} serial "
          f"studies side by side, {len(reps)} repetitions")
    return sweep_metrics(reps, setups)


def start_service(work: Path, entries, tag: str):
    """Start a server and pre-warm the catalogue head: the set-up."""
    import service

    started = time.monotonic()
    server = service.Server(work / tag, common.child_env(work / "tmp"))
    try:
        server.start()
        server.prewarm(entries)
    except BaseException:
        server.stop()
        raise
    return server, time.monotonic() - started


def service_load(args, work: Path, tally: Tally, seconds: float,
                 setups: int):
    """Set up ``setups`` times and load the last server.

    Returns the load report, the set-up samples, the server's peak RSS
    in KiB, the catalogue and (traced runs) the probe timings.
    """
    import service

    (work / "tmp").mkdir(parents=True, exist_ok=True)
    entries = service.catalogue(args.seed)
    samples = []
    server = None
    for index in range(setups):
        if server is not None:
            server.stop()
        server, setup = start_service(work, entries, f"server{index}")
        samples.append(setup)
    try:
        report = service.drive(server, entries, args.seed, seconds,
                               tally.book)
        extra = trace_service_probes(server, entries) if args.trace else {}
    finally:
        rss_kb = server.stop()
    outcomes = report.outcomes
    counts = {status: sum(1 for outcome in outcomes
                          if outcome.status == status)
              for status in ("warm", "computed", "coalesced", "shed",
                             "failed")}
    answered = sum(1 for outcome in outcomes if outcome.answered)
    tally.attempted += len(outcomes)
    tally.failed += sum(1 for outcome in outcomes if not outcome.correct)
    tally.problems.extend(report.faults)
    lag = [outcome.lag_ms for outcome in outcomes]
    print(f"service_zipf: {len(outcomes)} requests sent, {answered} "
          f"succeeded, {counts['shed']} shed, {counts['failed']} failed "
          f"(warm {counts['warm']}, computed {counts['computed']}, "
          f"coalesced {counts['coalesced']}); {service.RATE}/s over "
          f"{len(entries)} jobs, zipf a={service.ZIPF_ALPHA}, "
          f"{common.NPROC} connection(s); generator lag p50 "
          f"{common.median(lag):.2f} ms, max {max(lag):.2f} ms")
    return report, samples, rss_kb, entries, extra


def service_zipf(args, work: Path, tally: Tally) -> dict:
    import service

    report, setups, rss_kb, __, __ = service_load(
        args, work, tally, args.seconds, SERVICE_SETUPS)
    latencies = [outcome.latency_ms for outcome in report.outcomes]
    good = [outcome for outcome in report.outcomes
            if outcome.correct
            and outcome.latency_ms <= service.LATENCY_LIMIT_MS]
    tail_ms, pct, samples = common.tail(latencies)
    print(f"  tail_ms is p{pct:.1f} of {samples} requests; goodput limit "
          f"{service.LATENCY_LIMIT_MS:.0f} ms")
    return {
        "setup_s": common.median(setups),
        "records_per_s": sum(outcome.records for outcome in good)
        / report.wall,
        "p50_ms": common.median(latencies),
        "tail_ms": tail_ms,
        "goodput_rps": len(good) / report.wall,
        "peak_rss_mb": rss_kb / 1024.0,
    }


# ----------------------------------------------------------------------
# The traced run.
# ----------------------------------------------------------------------

def trace_service_probes(server, entries) -> dict:
    """Spans around ``GET /healthz`` and ``parse_analyze_request``."""
    from repro.service import ServiceClient
    from repro.service.protocol import parse_analyze_request

    client = ServiceClient(port=server.port, retries=0, timeout=10.0)
    health = []
    for __ in range(50):
        start = time.perf_counter()
        client.health()
        health.append(time.perf_counter() - start)
    parse = []
    for entry in entries:
        body = {"workload": entry.name, "config": entry.config}
        start = time.perf_counter()
        parse_analyze_request(body)
        parse.append(time.perf_counter() - start)
    return {"healthz_ms": common.median(health) * 1000.0,
            "parse_us": common.median(parse) * 1e6}


def traced(args, work: Path, tally: Tally) -> dict:
    import tracer

    metrics: dict = {}
    walls = {"traced": 0.0, "untraced": 0.0}

    # cold_sweep: parallel and serial untraced, then serial traced.
    names, configs = common.cold_inputs(args.seed)
    runs = {}
    for tag, jobs, traced_run in (("parallel", common.NPROC, False),
                                  ("serial", 1, False),
                                  ("traced", 1, True)):
        root = work / f"cold-{tag}"
        __, runs[tag], __ = run_child(
            sweep_spec(names, configs, jobs, root, root, traced=traced_run),
            work)
        tally.sweep(runs[tag], "computed")
        shutil.rmtree(root, ignore_errors=True)
    cold_spans = runs["traced"]["spans"]
    walls["traced"] += runs["traced"]["wall"]
    walls["untraced"] += runs["serial"]["wall"]
    cold_table = tracer.layer_table([cold_spans])
    layer_seconds = sum(entry["self"] for name, entry in cold_table.items()
                        if name != "residual")
    metrics["runner.pool_efficiency"] = layer_seconds / (
        common.NPROC * runs["parallel"]["wall"])
    statuses: dict = {}

    # replay_sweep: one capture, untraced and traced serial replays.
    names, configs = common.replay_inputs(args.seed)
    __, traces = capture(names, work, "traces")
    __, untraced, __ = run_child(
        sweep_spec(names, configs, 1, work / "replay-untraced", traces),
        work)
    tally.sweep(untraced, "replayed")
    __, replay, __ = run_child(
        sweep_spec(names, configs, 1, work / "replay-traced", traces,
                   traced=True, probes=True, records=common.REPLAY_RECORDS,
                   probe_records=PROBE_RECORDS, shard_jobs=common.NPROC),
        work)
    tally.sweep(replay, "replayed")
    probes = replay["probes"]
    tally.sweep(probes["warm"], "cache-hit")
    shard = probes["shard"]
    if not shard["identical"]:
        tally.failed += 1
        tally.problems.append("segmented replay diverged from serial")
    if not shard["indexed"]:
        tally.problems.append("no segment index sidecar was built")
    if shard["segmented_runs"] < 1:
        tally.problems.append("segmented replay fell back to serial")
    walls["traced"] += replay["wall"]
    walls["untraced"] += untraced["wall"]
    for done in (runs["traced"], replay, probes["warm"]):
        for status, count in done["statuses"].items():
            statuses[status] = statuses.get(status, 0) + count
    table = tracer.layer_table([cold_spans, replay["spans"]])

    # service_zipf: a shorter load against one pre-warmed server.
    report, __, __, entries, extra = service_load(
        args, work, tally, max(5.0, args.seconds / 2), 1)

    metrics.update(layer_metrics(table, probes, statuses))
    metrics.update(service_layer_metrics(report, entries, extra))
    metrics["bench.trace_overhead_pct"] = 100.0 * (
        walls["traced"] / walls["untraced"] - 1.0)
    metrics["bench.unattributed_pct"] = (
        100.0 * table["residual"]["self"] / table["residual"]["wall"])
    print_layer_table(table)
    common.OUT.mkdir(exist_ok=True)
    (common.OUT / f"spans-{args.workload}-{args.seed}.json").write_text(
        json.dumps({"cold_sweep": cold_spans,
                    "replay_sweep": replay["spans"]}))
    return metrics


def layer_metrics(table: dict, probes: dict, statuses: dict) -> dict:
    """Per-layer metrics of the traced sweeps and probes.

    A layer without spans fails the run: its site was never wrapped or
    never called, and a 0 s reading would look like a gain.
    """
    def entry(name):
        if name not in table:
            raise RunFailed(f"layer {name} recorded no spans")
        return table[name]

    def total(name, field="self"):
        return entry(name)[field]

    def attr(name, key):
        return entry(name)["attrs"].get(key, 0)

    reuse = probes["reuse"]
    shard = probes["shard"]
    return {
        "minic.compile_s": total("minic.compile"),
        "asm.assemble_s": total("asm.assemble"),
        "gen.emit_s": total("gen.emit"),
        "cpu.sim_s": total("cpu.sim"),
        "cpu.sim_kips": attr("cpu.sim", "records")
        / total("cpu.sim", "wall") / 1000.0,
        "tracefile.encode_s": total("tracefile.encode"),
        "tracefile.bytes_per_record": attr("tracefile.encode", "bytes")
        / attr("tracefile.encode", "records"),
        "tracefile.decode_s": total("tracefile.decode"),
        "tracefile.decode_krps": attr("tracefile.decode", "records")
        / total("tracefile.decode") / 1000.0,
        "kernel.columnize_s": total("kernel.columnize"),
        "kernel.analyze_s": total("kernel.analyze"),
        "kernel.analyze_first_s": reuse["shared"][0],
        "kernel.reuse_ratio": sum(reuse["fresh"]) / sum(reuse["shared"]),
        "shard.serial_s": shard["serial_s"],
        "shard.segmented_s": shard["segmented_s"],
        "shard.speedup": shard["serial_s"] / shard["segmented_s"],
        "store.trace_put_s": total("store.trace_put"),
        "store.trace_get_s": total("store.trace_get"),
        "store.result_put_s": total("store.result_put"),
        "store.result_get_s": total("store.result_get"),
        "store.trace_hit_ratio": attr("store.trace_get", "hit")
        / total("store.trace_get", "calls"),
        "store.result_hit_ratio": attr("store.result_get", "hit")
        / total("store.result_get", "calls"),
        "runner.job_key_ms": common.median(entry("runner.job_key")["selfs"])
        * 1000.0,
        "runner.overhead_s": total("residual"),
        "runner.status.computed": statuses.get("computed", 0),
        "runner.status.replayed": statuses.get("replayed", 0),
        "runner.status.cache-hit": statuses.get("cache-hit", 0),
    }


def service_layer_metrics(report, entries, extra: dict) -> dict:
    def service_ms(kind, status):
        values = [(outcome.done - outcome.sent) * 1000.0
                  for outcome in report.outcomes
                  if outcome.status == status
                  and (kind is None or entries[outcome.index].kind == kind)]
        if not values:
            raise RunFailed(f"no {status} answers to "
                            f"{kind or 'any'} requests")
        return common.median(values)

    outcomes = report.outcomes
    coalesced = sum(1 for outcome in outcomes
                    if outcome.status == "coalesced")
    computed = sum(1 for outcome in outcomes if outcome.status == "computed")
    return {
        "server.healthz_ms": extra["healthz_ms"],
        "protocol.parse_us": extra["parse_us"],
        "broker.warm_ms": service_ms(None, "warm"),
        "broker.trace_warm_ms": service_ms("replay", "computed"),
        "broker.cold_ms": service_ms("cold", "computed"),
        "broker.coalesced": coalesced,
        "broker.shed": sum(1 for outcome in outcomes
                           if outcome.status == "shed"),
        "broker.coalesce_ratio": coalesced / max(1, coalesced + computed),
        "qos.queue_s": report.phase_delta("queue"),
        "qos.pool_s": report.phase_delta("pool"),
        "qos.simulate_s": report.phase_delta("simulate"),
        "qos.analyze_s": report.phase_delta("analyze"),
        "qos.store_s": report.phase_delta("store"),
        "loadgen.lag_ms": common.median(outcome.lag_ms
                                        for outcome in outcomes),
    }


def print_layer_table(table: dict) -> None:
    print(f"  {'layer':<20} {'calls':>7} {'wall s':>9} {'self s':>9}")
    for name in sorted(table, key=lambda name: -table[name]["self"]):
        entry = table[name]
        label = "unattributed" if name == "residual" else name
        print(f"  {label:<20} {entry['calls']:>7} {entry['wall']:>9.3f} "
              f"{entry['self']:>9.3f}")


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------

WORKLOADS = {
    "cold_sweep": cold_sweep,
    "replay_sweep": replay_sweep,
    "service_zipf": service_zipf,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    common.require_source()
    facts = dict(common.host_facts(), **common.source_identity())
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} | nproc "
          f"{facts['nproc']}, python {facts['python']}, "
          f"{facts['platform']}, commit {facts['commit'] or 'none'}, "
          f"src {facts['src_sha256'][:12]}")
    work = common.WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    tally = Tally(common.DigestBook(args.seed))
    started = time.monotonic()
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in
             declared["per_layer" if args.trace else "end_to_end"]}
    if args.workload == "service_zipf" and not args.trace:
        units.update(SERVICE_UNITS)
    try:
        if args.trace:
            values = traced(args, work, tally)
        else:
            values = WORKLOADS[args.workload](args, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise RunFailed(f"measured {sorted(values)}, expected "
                        f"{sorted(units)}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.4f} {entry['unit']}")
    for problem in tally.problems[:20]:
        print(f"  PROBLEM: {problem}")
    combined = tally.book.combined()
    error_rate = tally.failed / max(1, tally.attempted)
    print(f"  ops attempted {tally.attempted}, failed {tally.failed}, "
          f"error_rate {error_rate:.4f}; combined digest {combined}")
    common.OUT.mkdir(exist_ok=True)
    with open(common.OUT / "results.jsonl", "a") as handle:
        handle.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **facts,
            "wall_s": time.monotonic() - started,
            "correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "error_rate": error_rate,
            "digest": combined, "metrics": metrics,
        }) + "\n")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
