"""One benchmark repetition, run in a fresh interpreter.

A fresh process per repetition is the cache-hygiene rule: compiled
programs, generated sources, the trace store's columns memo and
``TraceColumns`` bank caches all live in process memory, so nothing
can carry from one repetition to the next.

Usage (the parent, :mod:`run`, builds the spec)::

    python3 perfbench/rep.py '<json spec>'

The process prints one JSON line ``{"event": "ready", "at": ...}``
(its monotonic clock) once the program is imported and the inputs are
built, and one ``{"event": "done", ...}`` line with its measurements
at the end.
Spec kinds:

* ``capture`` -- simulate each named workload and store its trace
  (the replay workload's set-up);
* ``sweep`` -- one ``ExperimentRunner.run_many`` over fresh result
  and trace store objects; with ``traced`` the layers are wrapped in
  spans (:mod:`tracer`) and, for a replay sweep, the kernel-reuse and
  segment-parallel probes run after it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.require_source()


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def peak_rss_kb() -> int:
    """Largest resident set of this process and its reaped children."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def experiment_config(config: dict, names):
    from repro.runner import ExperimentConfig

    return ExperimentConfig(
        scale=config["scale"], max_instructions=config["max_instructions"],
        workloads=tuple(names), predictors=tuple(config["predictors"]),
        trees_for=tuple(config["trees_for"]), gen_cap=config["gen_cap"],
    )


def capture(spec: dict) -> dict:
    """Simulate each workload up to the budget and store the trace.

    ``seconds`` is timed from the ready stamp on, so interpreter
    start-up stays out of the replay workload's set-up time.
    """
    from repro.runner import TraceStore, trace_key
    from repro.workloads import get_workload

    store = TraceStore(spec["trace_root"])
    emit("ready", at=time.monotonic())
    start = time.perf_counter()
    records = 0
    for name in spec["names"]:
        machine = get_workload(name).machine()
        captured = []
        for record in machine.trace():
            captured.append(record)
            if len(captured) >= spec["records"]:
                break
        store.put(trace_key(name), captured,
                  len(machine.program.instructions),
                  complete=machine.halted, workload=name)
        records += len(captured)
    return {"records": records, "seconds": time.perf_counter() - start}


def _collect(runs, names, configs) -> dict:
    """Digests, status counts and record totals of a sweep."""
    from repro.core.export import result_to_dict

    digests, statuses, failures = {}, {}, []
    records = 0
    for run, config in zip(runs, configs):
        for metric in run.metrics.jobs:
            statuses[metric.status] = statuses.get(metric.status, 0) + 1
        for name in names:
            label = common.job_label(name, config)
            result = run.results.get(name)
            if result is None:
                failure = run.failures.get(name)
                failures.append(f"{label}: "
                                f"{failure.error if failure else 'missing'}")
                continue
            digests[label] = common.payload_digest(result_to_dict(result))
            records += result.nodes
    return {"digests": digests, "statuses": statuses,
            "failures": failures, "records": records}


def sweep(spec: dict) -> dict:
    from repro.runner import (
        ExecutionPolicy,
        ExperimentRunner,
        ResultStore,
        TraceStore,
    )

    tracer = None
    if spec.get("traced"):
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer_module.install(tracer)
    names = spec["names"]
    configs = [experiment_config(config, names) for config in spec["configs"]]
    runner = ExperimentRunner(
        store=ResultStore(spec["result_root"]),
        trace_store=TraceStore(spec["trace_root"]),
        policy=ExecutionPolicy(jobs=spec["jobs"]),
    )
    emit("ready", at=time.monotonic())
    start = time.perf_counter()
    runs = runner.run_many(configs)
    wall = time.perf_counter() - start
    out = _collect(runs, names, spec["configs"])
    out["wall"] = wall
    out["rss_kb"] = peak_rss_kb()
    if tracer is not None and spec.get("probes"):
        out["probes"] = replay_probes(spec, configs)
    if tracer is not None:
        out["spans"] = tracer.spans
    return out


def replay_probes(spec: dict, configs) -> dict:
    """Warm re-run, kernel reuse and segment-parallel probes."""
    from repro.core import analyze_trace
    from repro.core.export import result_to_dict
    from repro.cpu.tracefile import read_trace_columns
    from repro.runner import (
        ExecutionPolicy,
        ExperimentConfig,
        ExperimentRunner,
        Job,
        ResultStore,
        TraceStore,
        trace_key,
    )

    root = Path(spec["result_root"])
    names = spec["names"]
    probes: dict = {}

    # Both tiers warm, fresh runner: every job is a result-store hit.
    warm = ExperimentRunner(store=ResultStore(root),
                            trace_store=TraceStore(spec["trace_root"]))
    runs = warm.run_many(configs)
    probes["warm"] = _collect(runs, names, spec["configs"])

    # Kernel reuse on the first (full-length) trace, capped at a
    # prefix: every config on one fresh columns object (as the runner
    # shares it), then every config on a fresh object of its own.  The
    # full config goes first and the rest in a fixed order, so every
    # seed times the same analyses.
    longest = names[0]
    key = trace_key(longest)
    path = TraceStore(spec["trace_root"]).path_for(key)
    budget = spec["probe_records"]
    full = common.config_dict(spec["records"])
    ordered = [full] + sorted(
        (config for config in spec["configs"] if config != full),
        key=lambda config: json.dumps(config, sort_keys=True))
    analysis = [
        Job(longest, experiment_config(
            dict(config, max_instructions=min(budget,
                                              config["max_instructions"])),
            (longest,))).analysis_config()
        for config in ordered
    ]
    header, shared = read_trace_columns(path)
    shared_times = []
    for config in analysis:
        start = time.perf_counter()
        analyze_trace(shared, header["n_static"], name=longest,
                      config=config)
        shared_times.append(time.perf_counter() - start)
    fresh_times = []
    for config in analysis:
        header, fresh = read_trace_columns(path)
        start = time.perf_counter()
        analyze_trace(fresh, header["n_static"], name=longest,
                      config=config)
        fresh_times.append(time.perf_counter() - start)
    probes["reuse"] = {"shared": shared_times, "fresh": fresh_times}

    # Segment-parallel vs serial replay of the same full-length trace,
    # observed so the counters show whether the segmented path ran or
    # fell back to serial.
    config = ExperimentConfig(max_instructions=spec["records"],
                              workloads=(longest,))
    sharded = ExecutionPolicy(jobs=spec["shard_jobs"], segments=2,
                              segment_records=spec["records"] // 2)

    def replay(policy, tag):
        runner = ExperimentRunner(store=ResultStore(root / tag),
                                  trace_store=TraceStore(spec["trace_root"]),
                                  policy=policy, observe=True)
        start = time.perf_counter()
        result = runner.run_one(longest, config)
        return (time.perf_counter() - start,
                common.payload_digest(result_to_dict(result)),
                result.profile["counters"].get("analyze.shard.runs", 0))

    serial_s, serial_digest, __ = replay(ExecutionPolicy(), "shard-serial")
    replay(sharded, "shard-index")   # builds the segment index sidecar
    indexed = TraceStore(spec["trace_root"]).has_segindex(key)
    segmented_s, segmented_digest, runs = replay(sharded, "shard-segmented")
    probes["shard"] = {"serial_s": serial_s, "segmented_s": segmented_s,
                       "jobs": spec["shard_jobs"],
                       "identical": serial_digest == segmented_digest,
                       "indexed": indexed, "segmented_runs": runs}
    return probes


def main() -> None:
    spec = json.loads(sys.argv[1])
    kinds = {"capture": capture, "sweep": sweep}
    out = kinds[spec["kind"]](spec)
    emit("done", **out)


if __name__ == "__main__":
    main()
