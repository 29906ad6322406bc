"""The unified command line: ``python -m repro <command>``.

Eleven subcommands over one shared flag vocabulary
(``--jobs/--scale/--cache-dir/--no-cache``):

* ``report`` — regenerate the paper's tables and figures: the suite
  runs as a one-variant campaign and the exhibit registry renders it;
* ``run`` — run the experiment suite through the two-tier-cached
  orchestrator and print per-job status (``--profile`` records and
  prints a span/counter profile, see docs/observability.md;
  re-running an interrupted sweep continues it from the result store);
* ``workloads`` — list, run or disassemble the SPEC95-analogue suite
  (``--generated`` lists cached synthesized workloads with their
  ``(seed, knobs)`` provenance);
* ``gen`` — synthesize, inspect or run a seeded ``gen:`` workload
  (see docs/generator.md);
* ``campaign`` — run/report/validate a predictor design-space
  campaign spec (see docs/campaign.md);
* ``cache`` — inspect, prune or clear both cache tiers;
* ``stats`` — render the profile recorded by an earlier
  ``run --profile`` (text, JSON-lines or Prometheus format);
* ``chaos`` — run the suite under seeded fault injection and verify
  the robustness invariants (see docs/robustness.md);
* ``serve`` — host the analysis service (request coalescing, batching,
  backpressure, graceful SIGTERM drain — see docs/service.md);
* ``query`` — ask a running service for one workload's analysis;
* ``qos`` — render the per-tenant bottleneck-attribution report from
  ``qos.*`` counters (see docs/qos.md).

Exit codes: :data:`EXIT_OK` (0) on success, :data:`EXIT_JOB_FAILURE`
(1) when jobs failed, :data:`EXIT_INTERRUPTED` (3) when a run was
stopped by SIGINT/SIGTERM after draining in-flight jobs — distinct so
wrappers and CI can tell "re-run to continue" from "investigate a
failure".
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.core.export import result_to_dict
from repro.obs.export import render_profile, to_jsonl, to_prometheus
from repro.runner.api import (
    DEFAULT_CACHE_DIR,
    ExperimentRunner,
    default_store,
    default_trace_store,
)
from repro.runner.cache import DEFAULT_MAX_BYTES, ResultStore
from repro.runner.faults import FaultSpec, default_chaos_plan
from repro.runner.job import ExperimentConfig
from repro.runner.policy import (
    DEFAULT_SEGMENT_RECORDS,
    ExecutionPolicy,
    PolicyError,
    env_jobs,
)
from repro.runner.tracestore import DEFAULT_TRACE_MAX_BYTES, TraceStore

#: Process exit codes (see module docstring).
EXIT_OK = 0
EXIT_JOB_FAILURE = 1
EXIT_INTERRUPTED = 3


@contextlib.contextmanager
def _cancel_on_signals():
    """A cancel event wired to SIGINT/SIGTERM for the block's duration.

    The first signal sets the event — the runner drains in-flight
    jobs, publishes their results to the store and returns with
    ``metrics.interrupted`` — instead of unwinding mid-write.  Handlers
    are restored on exit; outside the main thread (embedded use) the
    event is simply never signal-driven.
    """
    cancel = threading.Event()
    previous = {}

    def handler(signum, frame):
        cancel.set()

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):
            pass  # not the main thread: run uncancellable
    try:
        yield cancel
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _jobs_from_args(parser, args, unset: int) -> int:
    """``--jobs``, else ``$REPRO_JOBS``, else ``unset``; a malformed
    ``REPRO_JOBS`` is a usage error."""
    if args.jobs is not None:
        return args.jobs
    try:
        jobs = env_jobs()
    except PolicyError as error:
        parser.error(str(error))
    return unset if jobs is None else jobs


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the persistent stores")
    parser.add_argument("--cache-dir", default=None,
                        help=f"store location (default: $REPRO_CACHE_DIR "
                             f"or {DEFAULT_CACHE_DIR}/)")
    parser.add_argument("--cache-cap-mb", type=int,
                        default=DEFAULT_MAX_BYTES // (1024 * 1024),
                        help="result-store size cap in MiB before LRU "
                             "eviction")
    parser.add_argument("--trace-cap-mb", type=int,
                        default=DEFAULT_TRACE_MAX_BYTES // (1024 * 1024),
                        help="trace-store size cap in MiB before LRU "
                             "eviction")


def _add_suite_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: $REPRO_JOBS, "
                             "else CPU count for run / serial for report)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload problem-size multiplier")
    parser.add_argument("--max-instructions", type=int, default=150_000,
                        help="dynamic-instruction budget per workload")
    parser.add_argument("--profile", action="store_true",
                        help="record spans/counters for the run and print "
                             "the profile (also lands in the metrics JSON)")
    _add_policy_flag(parser)


def _add_policy_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", default=None, metavar="K=V,...",
                        help="execution-policy overrides as key=val "
                             "pairs (jobs, timeout, retries, segments, "
                             "segment_records); applied over "
                             "the individual flags, e.g. "
                             "--policy segments=4,jobs=4 enables "
                             "segment-parallel single-trace analysis "
                             "(docs/sharding.md)")


def _policy_from_args(parser, args, jobs: int = 1):
    """The run's :class:`ExecutionPolicy` from flags.

    The per-knob flags (``--jobs``/``--timeout``/``--retries``) seed
    the policy; a ``--policy key=val,...`` string is parsed on top and
    wins where both are given.
    """
    try:
        base = ExecutionPolicy(
            jobs=jobs,
            timeout=getattr(args, "timeout", None),
            retries=getattr(args, "retries", 1),
        )
        text = getattr(args, "policy", None)
        if text:
            base = ExecutionPolicy.parse(text, base=base)
    except PolicyError as error:
        parser.error(str(error))
    return base


def _policy_line(desc: dict) -> str:
    """``key=value`` rendering of ``ExecutionPolicy.describe()``."""
    return " ".join(f"{key}={value}" for key, value in desc.items())


def _make_stores(args) -> tuple[ResultStore | None, TraceStore | None]:
    """Both cache tiers, honouring the shared flags and environment."""
    if args.no_cache:
        return None, None
    if args.cache_dir is not None:
        store = ResultStore(
            args.cache_dir, max_bytes=args.cache_cap_mb * 1024 * 1024
        )
        trace_store = TraceStore(
            args.cache_dir, max_bytes=args.trace_cap_mb * 1024 * 1024
        )
        return store, trace_store
    store = default_store()
    if store is not None:
        store.max_bytes = args.cache_cap_mb * 1024 * 1024
    trace_store = default_trace_store()
    if trace_store is not None:
        trace_store.max_bytes = args.trace_cap_mb * 1024 * 1024
    return store, trace_store


def _workload_tuple(parser, value):
    if value is None:
        return None
    names = tuple(name.strip() for name in value.split(",") if name.strip())
    if not names:
        parser.error("--workloads requires at least one workload name")
    return names


def _experiment_config(parser, args) -> ExperimentConfig:
    """The config the shared flags describe; a value the config type
    rejects is a usage error."""
    try:
        return ExperimentConfig(
            scale=args.scale,
            max_instructions=args.max_instructions,
            workloads=_workload_tuple(parser, args.workloads),
        )
    except ValueError as error:
        parser.error(str(error))


# ----------------------------------------------------------------------
# repro run
# ----------------------------------------------------------------------

def cmd_run(parser, args) -> int:
    store, trace_store = _make_stores(args)
    config = _experiment_config(parser, args)
    policy = _policy_from_args(
        parser, args,
        jobs=_jobs_from_args(parser, args, unset=os.cpu_count() or 1),
    )
    runner = ExperimentRunner(
        store=store, trace_store=trace_store,
        observe=args.profile, policy=policy,
    )
    with _cancel_on_signals() as cancel:
        run = runner.run(config, cancel=cancel)

    print(f"{'workload':<9} {'status':<10} {'wall':>8} {'instr':>9} "
          f"{'instr/s':>11}")
    print("-" * 52)
    for metric in run.metrics.jobs:
        rate = (f"{metric.instructions_per_second:,.0f}"
                if metric.instructions else "-")
        instr = f"{metric.instructions:,}" if metric.instructions else "-"
        print(f"{metric.workload:<9} {metric.status:<10} "
              f"{metric.wall_time:>7.2f}s {instr:>9} {rate:>11}")
        if metric.error:
            print(f"          !! {metric.error}")
    print("-" * 52)
    print(run.metrics.summary())

    if run.metrics.profile is not None:
        print()
        print(render_profile(run.metrics.profile))

    if args.metrics != "-":
        if args.metrics is not None:
            metrics_path = args.metrics
        elif store is not None:
            metrics_path = store.root / "metrics.json"
        else:
            metrics_path = None
        if metrics_path is not None:
            path = run.metrics.dump(metrics_path)
            print(f"[metrics written to {path}]", file=sys.stderr)

    if run.metrics.interrupted:
        if store is not None:
            print(f"[interrupted; finished jobs are in {store.root} — "
                  f"re-run the same command to continue]",
                  file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_JOB_FAILURE if run.failures else EXIT_OK


# ----------------------------------------------------------------------
# repro cache
# ----------------------------------------------------------------------

def _last_profile(store) -> dict | None:
    """The profile of the last observed run against ``store``, if any.

    ``repro run`` dumps its metrics (profile included, when observing)
    to ``<cache>/metrics.json``; ``cache info`` mines it for hit-rate
    reporting.  Anything unreadable simply reads as "no profile".
    """
    try:
        payload = json.loads((store.root / "metrics.json").read_text())
    except (OSError, ValueError):
        return None
    profile = payload.get("profile")
    return profile if isinstance(profile, dict) else None


def _tier_report(prefix: str, store, counters: dict) -> None:
    """Print one tier's occupancy (always) and hit-rate (when known)."""
    size = store.size_bytes()
    print(f"{prefix}size: {size / 1024:.1f} KiB "
          f"(cap {store.max_bytes / (1024 * 1024):.0f} MiB, "
          f"{100.0 * size / store.max_bytes:.1f}% full)")
    hits = counters.get(f"store.{store.metric}.hits", 0)
    misses = counters.get(f"store.{store.metric}.misses", 0)
    if hits or misses:
        rate = 100.0 * hits / (hits + misses)
        print(f"{prefix}hit-rate: {rate:.0f}% "
              f"({hits} hit(s) / {misses} miss(es), last observed run)")


def cmd_cache(parser, args) -> int:
    store, trace_store = _make_stores(args)
    if store is None:
        print("cache disabled", file=sys.stderr)
        return 1
    if args.action == "reindex":
        if trace_store is None:
            print("trace store disabled", file=sys.stderr)
            return 1
        return _reindex(trace_store, args.segment_records)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached result(s) from {store.root}")
        if trace_store is not None:
            removed = trace_store.clear()
            print(f"removed {removed} stored trace(s) from "
                  f"{trace_store.root}")
        return 0
    if args.action == "prune":
        # Evict down to the (possibly flag-lowered) caps right now
        # instead of waiting for the next write.
        evicted = store.evict()
        print(f"evicted {evicted} cached result(s) from {store.root}")
        if trace_store is not None:
            evicted = trace_store.evict()
            print(f"evicted {evicted} stored trace(s) from "
                  f"{trace_store.root}")
            swept = trace_store.sweep_orphan_segidx()
            if swept:
                print(f"swept {swept} orphaned segment-index "
                      f"sidecar(s)")
        return 0
    if args.action == "scrub":
        return _scrub(store, args)
    profile = _last_profile(store)
    counters = profile.get("counters", {}) if profile else {}
    entries = store.entries()
    print(f"store: {store.root}")
    print(f"entries: {len(entries)} ({_occupancy(store, trace_store)})")
    _tier_report("", store, counters)
    if trace_store is not None:
        trace_entries = trace_store.entries()
        print(f"traces: {len(trace_entries)} "
              f"({_occupancy(store, trace_store, tier='traces')})")
        _tier_report("traces ", trace_store, counters)
        _segidx_report(trace_store, trace_entries)
    return 0


def _scrub(store, args) -> int:
    """``cache scrub``: full-store integrity pass with quarantine."""
    from repro.runner.scrub import scrub_store

    report = scrub_store(store.root,
                         quarantine=not args.no_quarantine,
                         report_path=args.report)
    checked = sum(report.checked.values())
    tiers = ", ".join(f"{count} {tier}"
                      for tier, count in sorted(report.checked.items()))
    print(f"scrubbed {store.root}: {checked} entr(ies) checked "
          f"({tiers}) in {report.wall_time:.2f}s")
    for finding in report.findings:
        action = (f"quarantined -> {finding.quarantined_to}"
                  if finding.quarantined_to else "left in place")
        print(f"  {finding.tier} {Path(finding.path).name}: "
              f"{finding.problem} ({action})")
    if report.clean:
        print("store is clean")
    else:
        print(f"{len(report.findings)} finding(s), "
              f"{report.quarantined} quarantined")
    if report.report_path:
        print(f"report: {report.report_path}")
    return 0 if report.clean else 1


def _segidx_report(trace_store, trace_entries) -> None:
    """Per-trace segment-index presence and coverage.

    Loading each sidecar through :meth:`TraceStore.get_segindex` also
    validates it, so corrupt or stale indexes are pruned as a side
    effect of ``cache info``.
    """
    from repro.cpu.tracefile import trace_header
    from repro.runner.tracestore import TRACE_SUFFIX

    orphans = trace_store.orphan_segidx()
    if orphans:
        # Orphans are dead weight, never coverage: nothing reads a
        # sidecar without first finding its trace.
        print(f"segment indexes: {len(orphans)} orphaned sidecar(s) "
              f"not counted as coverage (sweep with `python -m repro "
              f"cache prune`)")
    if not trace_entries:
        return
    indexed = 0
    lines = []
    for path in trace_entries:
        key = path.name[: -len(TRACE_SUFFIX)]
        try:
            workload = trace_header(path).get("workload") or "?"
        except Exception:
            workload = "?"
        index = trace_store.get_segindex(key)
        if index is None:
            lines.append(f"  {key[:12]} [{workload}]: no segment index")
            continue
        indexed += 1
        segs = max(1, len(index.bounds) - 1)
        spacing = index.n_records // segs if segs else index.n_records
        lines.append(f"  {key[:12]} [{workload}]: {segs} segment(s), "
                     f"~{spacing:,} record(s) each")
    print(f"segment indexes: {indexed}/{len(trace_entries)} trace(s) "
          f"indexed" +
          ("" if indexed == len(trace_entries)
           else " (backfill with `python -m repro cache reindex`)"))
    for line in lines:
        print(line)


def _reindex(trace_store, segment_records: int) -> int:
    """Backfill segment-index sidecars for every stored trace.

    Idempotent and resumable: sidecar presence is the only resume
    point.  A trace that already carries a sidecar is skipped, so a
    killed reindex picks up where it stopped, and a trace re-captured
    since (``TraceStore.put`` drops its sidecar) is indexed again.
    Traces too short to span two segments are skipped.
    """
    from repro.core.shard import build_index, plan_bounds
    from repro.cpu.tracefile import read_trace_columns
    from repro.runner.tracestore import TRACE_SUFFIX

    if segment_records < 1:
        print("--segment-records must be >= 1", file=sys.stderr)
        return 1
    indexed = present = short = failed = 0
    for path in trace_store.entries():
        key = path.name[: -len(TRACE_SUFFIX)]
        if trace_store.has_segindex(key):
            present += 1
            continue
        header = trace_store.header(key)
        if header is None:
            failed += 1
            continue
        workload = header.get("workload") or "?"
        n = header.get("n_records", 0)
        spans = n // segment_records
        if spans < 2:
            short += 1
            continue
        try:
            __, columns = read_trace_columns(path)
            index = build_index(columns, plan_bounds(n, spans))
            written = trace_store.put_segindex(key, index)
        except Exception as error:
            failed += 1
            print(f"  {key[:12]} [{workload}]: reindex failed "
                  f"({error})", file=sys.stderr)
            continue
        if written is None:
            failed += 1
            continue
        indexed += 1
        print(f"  {key[:12]} [{workload}]: indexed "
              f"{len(index.bounds) - 1} segment(s) over {n:,} "
              f"record(s)")
    print(f"reindexed {indexed} trace(s); {present} already indexed, "
          f"{short} too short, {failed} failed")
    return 0 if failed == 0 else 1


def _occupancy(store, trace_store, tier: str = "results") -> str:
    """``fixed N, generated M[, unknown K]`` for one cache tier.

    Results are classified by the envelope's ``payload["name"]``,
    traces by the ``workload`` header field (absent on traces written
    before the annotation existed — those count as unknown).
    """
    from repro.cpu.tracefile import trace_header

    fixed = generated = unknown = 0
    if tier == "results":
        for path in store.entries():
            try:
                name = json.loads(path.read_text())["payload"]["name"]
            except (OSError, ValueError, KeyError, TypeError):
                unknown += 1
                continue
            if isinstance(name, str) and name.startswith("gen:"):
                generated += 1
            else:
                fixed += 1
    else:
        for path in trace_store.entries():
            try:
                name = trace_header(path).get("workload")
            except Exception:
                name = None
            if name is None:
                unknown += 1
            elif name.startswith("gen:"):
                generated += 1
            else:
                fixed += 1
    text = f"fixed {fixed}, generated {generated}"
    if unknown:
        text += f", unknown {unknown}"
    return text


# ----------------------------------------------------------------------
# repro stats
# ----------------------------------------------------------------------

def cmd_stats(parser, args) -> int:
    """Render a recorded profile from a metrics JSON dump."""
    path = args.metrics
    if path is None:
        store, __ = _make_stores(args)
        if store is None:
            print("cache disabled and no --metrics path given",
                  file=sys.stderr)
            return 1
        path = store.root / "metrics.json"
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as error:
        print(f"cannot read {path}: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"{path} is not valid JSON: {error}", file=sys.stderr)
        return 1
    profile = payload.get("profile")
    if not isinstance(profile, dict):
        # Still worth a line: the execution policy is recorded even
        # on unprofiled runs.
        if args.format == "text" and payload.get("policy"):
            print(f"policy: {_policy_line(payload['policy'])}")
        print(f"{path} has no profile section; re-run with "
              f"python -m repro run --profile", file=sys.stderr)
        return 1
    if args.format == "jsonl":
        print(to_jsonl(profile), end="")
    elif args.format == "prom":
        print(to_prometheus(profile), end="")
    else:
        jobs = payload.get("jobs", [])
        print(f"profile of {path} ({len(jobs)} job(s), "
              f"{payload.get('total_wall', 0.0):.2f}s total)")
        if payload.get("policy"):
            print(f"policy: {_policy_line(payload['policy'])}")
        print()
        print(render_profile(profile))
    return 0


# ----------------------------------------------------------------------
# repro report
# ----------------------------------------------------------------------

def cmd_report(parser, args) -> int:
    """Run the paper suite as a one-variant campaign and print the
    selected registry exhibits (``all``: every one, sorted by name)."""
    from repro.campaign import paper_spec, table_registry
    from repro.campaign.exhibits import build_tables

    if args.exhibit != "all" and args.exhibit not in table_registry:
        parser.error(f"unknown exhibit {args.exhibit!r}")
    spec = paper_spec(
        workloads=_workload_tuple(parser, args.workloads),
        scale=args.scale,
        max_instructions=args.max_instructions,
    )
    campaign = _run_campaign(parser, args, spec)
    if campaign is None:
        return EXIT_JOB_FAILURE
    names = (sorted(table_registry) if args.exhibit == "all"
             else [args.exhibit])
    for name in names:
        for table in build_tables(name, campaign):
            print(table.render())
            print()
    print(f"[analysed {len(spec.workloads)} workloads in "
          f"{campaign.wall:.1f}s]", file=sys.stderr)
    if campaign.profile is not None:
        # stderr: exhibit tables own stdout.
        print(render_profile(campaign.profile), file=sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------------
# repro workloads
# ----------------------------------------------------------------------

def _generated_names(store, trace_store) -> dict[str, set[str]]:
    """``gen: name -> {tier, ...}`` mined from both cache tiers.

    Generated workloads have no files of their own — their identity
    lives in the cache: result envelopes carry ``payload["name"]`` and
    stored traces a ``workload`` header field.  Unreadable entries and
    pre-annotation traces are simply skipped.
    """
    from repro.cpu.tracefile import trace_header

    names: dict[str, set[str]] = {}
    if store is not None:
        for path in store.entries():
            try:
                payload = json.loads(path.read_text())["payload"]
                name = payload.get("name", "")
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if isinstance(name, str) and name.startswith("gen:"):
                names.setdefault(name, set()).add("results")
    if trace_store is not None:
        for path in trace_store.entries():
            try:
                name = trace_header(path).get("workload") or ""
            except Exception:
                continue
            if name.startswith("gen:"):
                names.setdefault(name, set()).add("traces")
    return names


def _workloads_generated(args) -> int:
    """``workloads --generated``: cached synthesized workloads."""
    from repro.gen import PRESETS, parse_gen_name

    store, trace_store = _make_stores(args)
    names = _generated_names(store, trace_store)
    print(f"{'name':<36} {'preset':<13} {'seed':>9} "
          f"{'overrides':<18} tiers")
    print("-" * 88)
    for name in sorted(names):
        try:
            preset, seed, overrides = parse_gen_name(name)
        except ValueError:
            preset, seed, overrides = "?", "?", {}
        knob_text = ",".join(
            f"{key}={value}" for key, value in sorted(overrides.items())
        ) or "-"
        print(f"{name:<36} {preset:<13} {seed:>9} {knob_text:<18} "
              f"{','.join(sorted(names[name]))}")
    if not names:
        print("(no synthesized workloads in the cache)")
    print(f"\npresets: {', '.join(sorted(PRESETS))}")
    print("any gen:<preset>@<seed>[:knob=value,...] name regenerates "
          "its workload byte-identically")
    return 0


def cmd_workloads(parser, args) -> int:
    from repro.minic import compile_source
    from repro.workloads import SUITE, get_workload

    if args.generated:
        return _workloads_generated(args)

    if args.list or not args.run:
        print(f"{'name':<5} {'spec':<14} {'kind':<5} description")
        print("-" * 72)
        for workload in SUITE:
            print(f"{workload.name:<5} {workload.spec_name:<14} "
                  f"{workload.kind:<5} {workload.description}")
        return 0

    try:
        workload = get_workload(args.run)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 1
    if args.emit_asm:
        print(compile_source(workload.source()))
        return 0
    machine = workload.machine(scale=args.scale, tracing=False)
    start = time.time()
    result = machine.run()
    elapsed = time.time() - start
    print(result.output, end="")
    print(
        f"[{workload.spec_name} analogue: {result.instructions} "
        f"instructions, exit {result.exit_code}, {elapsed:.2f}s]",
        file=sys.stderr,
    )
    return result.exit_code


# ----------------------------------------------------------------------
# repro gen
# ----------------------------------------------------------------------

def _print_presets() -> int:
    from repro.gen import PRESETS
    from repro.gen.knobs import GenKnobs

    defaults = GenKnobs()
    print(f"{'preset':<13} knobs (differences from defaults)")
    print("-" * 72)
    for name in sorted(PRESETS):
        overrides = PRESETS[name].overrides_from(defaults)
        text = ", ".join(f"{key}={value}"
                         for key, value in sorted(overrides.items()))
        print(f"{name:<13} {text or '(defaults)'}")
    print(f"\ndefaults: {defaults}")
    return 0


def cmd_gen(parser, args) -> int:
    """Synthesize one seeded workload: print, inspect, compile or run."""
    import hashlib

    from repro.gen import generated_workload
    from repro.minic import compile_source
    from repro.runner.job import trace_key

    if args.presets:
        return _print_presets()
    if not args.name:
        parser.error("gen needs a gen:<preset>@<seed> name "
                     "(or --presets)")
    try:
        workload = generated_workload(args.name)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 1
    if args.info:
        source = workload.source()
        digest = hashlib.sha256(source.encode()).hexdigest()
        print(f"name:        {workload.name}")
        print(f"preset:      {workload.preset}")
        print(f"seed:        {workload.seed}")
        print(f"kind:        {workload.kind}")
        print(f"knobs:       {workload.knobs}")
        print(f"source:      {len(source.splitlines())} lines, "
              f"sha256 {digest[:16]}")
        print(f"trace key:   {trace_key(workload.name, args.scale)} "
              f"(scale {args.scale})")
        return 0
    if args.emit_asm:
        print(compile_source(workload.source()))
        return 0
    if args.run:
        machine = workload.machine(scale=args.scale, tracing=False)
        start = time.time()
        result = machine.run()
        elapsed = time.time() - start
        print(result.output, end="")
        print(f"[{workload.name}: {result.instructions} instructions, "
              f"exit {result.exit_code}, {elapsed:.2f}s]",
              file=sys.stderr)
        return result.exit_code
    print(workload.source(), end="")
    return 0


# ----------------------------------------------------------------------
# repro campaign
# ----------------------------------------------------------------------

def _run_campaign(parser, args, spec):
    """Run ``spec`` over the flag-configured stores, policy and runner.

    Shared by ``repro campaign`` and ``repro report``.  Returns the
    :class:`~repro.campaign.CampaignResult`, or None (after printing
    why) when the spec is invalid or a grid job failed.
    """
    from repro.campaign import run_campaign
    from repro.errors import RunnerError

    store, trace_store = _make_stores(args)
    policy = _policy_from_args(
        parser, args, jobs=_jobs_from_args(parser, args, unset=1),
    )
    runner = ExperimentRunner(
        store=store, trace_store=trace_store,
        observe=getattr(args, "profile", False), policy=policy,
    )
    try:
        return run_campaign(spec, runner=runner, jobs=args.jobs)
    except (RunnerError, ValueError) as error:
        print(f"campaign failed: {error}", file=sys.stderr)
        return None


def cmd_campaign(parser, args) -> int:
    """Run, report on, or validate a design-space campaign spec."""
    from repro.campaign import create_report, load_spec

    try:
        spec = load_spec(args.spec)
    except (OSError, ValueError) as error:
        print(f"cannot load {args.spec}: {error}", file=sys.stderr)
        return 1
    try:
        spec.validate()
    except (ValueError, KeyError) as error:
        print(f"invalid spec {args.spec}: {error}", file=sys.stderr)
        return 1
    grid = (f"{len(spec.workloads)} workload(s) x "
            f"{len(spec.variants)} variant(s) = {spec.jobs()} jobs")
    if args.action == "validate":
        print(f"{args.spec}: ok — campaign '{spec.name}', {grid}")
        return 0
    if args.action == "report" and args.out is None:
        parser.error("campaign report requires --out DIR")

    campaign = _run_campaign(parser, args, spec)
    if campaign is None:
        return EXIT_JOB_FAILURE
    resolution = ", ".join(
        f"{status}={count}" for status, count
        in sorted(campaign.resolve_counts.items())
    )
    print(f"campaign '{spec.name}': {grid}")
    print(f"cache resolution: {resolution or 'none'}")
    print(f"pool jobs: {campaign.pool_jobs}"
          + (" (fully warm)" if campaign.fully_warm else ""))
    print(f"wall: {campaign.wall:.2f}s")
    if args.out is not None:
        out = create_report(campaign, args.out)
        from repro.campaign import plot_registry, table_registry
        print(f"report written to {out} "
              f"({len(table_registry)} table(s), "
              f"{len(plot_registry)} plot(s))")
    return EXIT_OK


# ----------------------------------------------------------------------
# repro chaos
# ----------------------------------------------------------------------

def _canonical_results(results) -> dict:
    """``name -> canonical JSON`` of each result, for byte comparison."""
    return {
        name: json.dumps(result_to_dict(result), sort_keys=True,
                         separators=(",", ":"))
        for name, result in results.items()
    }


def _parse_fault_overrides(parser, pairs):
    """``SITE=RATE`` flags -> ``{site: FaultSpec}`` overrides."""
    overrides = {}
    for pair in pairs or ():
        site, __, rate = pair.partition("=")
        if not site or not rate:
            parser.error(f"--fault needs SITE=RATE, got {pair!r}")
        try:
            overrides[site] = FaultSpec(rate=float(rate))
        except ValueError:
            parser.error(f"--fault rate must be a float, got {rate!r}")
    return overrides


def _fired_sites(plan, profile) -> dict:
    """``site -> fire count`` from the plan and worker counters combined.

    Parent-side decisions (worker.crash, pool.spawn, store reads in
    the parent) land in ``plan.fired``; faults fired *inside* worker
    processes only surface through their merged obs snapshots — both
    views are needed for the full tally.
    """
    fired = dict(plan.fired)
    prefix = "faults.injected."
    for counter, count in (profile or {}).get("counters", {}).items():
        if counter.startswith(prefix):
            site = counter[len(prefix):]
            fired[site] = max(fired.get(site, 0), count)
    return {site: count for site, count in fired.items() if count}


def _cmd_chaos_fleet(parser, args) -> int:
    """``chaos --fleet``: the supervised-fleet acceptance invariant.

    Under a seeded :func:`repro.runner.faults.default_fleet_chaos_plan`
    — ``kill -9`` of one worker mid-request, a SIGSTOP wedge, one
    injected disk-full write — zipf load against the fleet must see
    zero failed requests and byte-identical results, and the fleet
    must return to healthy (docs/robustness.md).
    """
    from repro.service.fleet import run_fleet_chaos

    keep = Path(args.keep) if args.keep else None
    cache_root = log_path = None
    if keep is not None:
        keep.mkdir(parents=True, exist_ok=True)
        cache_root = keep / "cache"
        log_path = keep / "supervisor.log"
    workloads = _workload_tuple(parser, args.workloads)
    print(f"[chaos] fleet: {args.fleet_workers} worker(s), "
          f"{args.fleet_requests} zipf request(s), seed {args.seed}")
    report = run_fleet_chaos(
        seed=args.seed, workloads=workloads,
        max_instructions=args.max_instructions,
        requests=args.fleet_requests, workers=args.fleet_workers,
        cache_root=cache_root, log_path=log_path,
    )

    failed = False

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failed
        mark = "ok" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[chaos] {mark}: {label}{suffix}")
        failed = failed or not ok

    check("worker.kill fired at least once", report["kills"] >= 1,
          f"kills={report['kills']}, wedges={report['wedges']}")
    check("zero failed client requests",
          report["failed_requests"] == 0,
          "; ".join(report["failures"]) or
          f"{report['requests']} request(s) served")
    check("results byte-identical to fault-free run",
          not report["mismatches"],
          ", ".join(report["mismatches"]) or
          "every payload matched")
    check("fleet restarted and healthy",
          report["recovered"] and report["restarts"] >= 1,
          f"restarts={report['restarts']}, "
          f"failovers={report['failovers']}")
    if keep is not None:
        print(f"[chaos] artifacts kept in {keep} (supervisor.log, "
              f"cache/)")
    return EXIT_JOB_FAILURE if failed else EXIT_OK


def cmd_chaos(parser, args) -> int:
    """Chaos smoke test: a faulted sweep must equal a fault-free one.

    Runs the same suite twice in throwaway cache directories — once
    clean, once under a seeded :func:`default_chaos_plan` — and checks
    the robustness invariants (docs/robustness.md): byte-identical
    results, several distinct fault kinds actually fired, no orphaned
    temp files, and job metrics that reconcile with the obs counters.
    ``--fleet`` runs the supervised-fleet variant instead (see
    :func:`_cmd_chaos_fleet`).
    """
    if args.fleet:
        return _cmd_chaos_fleet(parser, args)
    config = _experiment_config(parser, args)

    policy = _policy_from_args(parser, args, jobs=args.jobs)
    print(f"[chaos] baseline: fault-free run ({args.jobs} worker(s))")
    with tempfile.TemporaryDirectory(prefix="repro-chaos-base-") as base:
        baseline = ExperimentRunner(
            store=ResultStore(base), trace_store=TraceStore(base),
            policy=policy,
        ).run(config)
    if baseline.failures:
        for name, failure in baseline.failures.items():
            print(f"[chaos] baseline failure: {name}: {failure.error}",
                  file=sys.stderr)
        print("[chaos] FAIL: the fault-free baseline itself failed",
              file=sys.stderr)
        return EXIT_JOB_FAILURE
    expected = _canonical_results(baseline.results)

    plan = default_chaos_plan(seed=args.seed, timeout=args.timeout)
    plan.specs.update(_parse_fault_overrides(parser, args.fault))
    sites = ", ".join(sorted(plan.specs))
    print(f"[chaos] injecting (seed {args.seed}): {sites}")

    keep = Path(args.keep) if args.keep else None
    scratch = None
    if keep is not None:
        keep.mkdir(parents=True, exist_ok=True)
        chaos_dir = keep
    else:
        scratch = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        chaos_dir = Path(scratch.name)
    try:
        runner = ExperimentRunner(
            store=ResultStore(chaos_dir), trace_store=TraceStore(chaos_dir),
            policy=policy, observe=True, faults=plan,
        )
        run = runner.run(config)
        profile = run.metrics.profile

        failed = False

        def check(label: str, ok: bool, detail: str = "") -> None:
            nonlocal failed
            mark = "ok" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"[chaos] {mark}: {label}{suffix}")
            failed = failed or not ok

        fired = _fired_sites(plan, profile)
        fired_text = ", ".join(
            f"{site}x{count}" for site, count in sorted(fired.items())
        )
        check("injected >= 3 distinct fault kinds", len(fired) >= 3,
              fired_text or "nothing fired")

        check("no job failed under chaos", not run.failures,
              "; ".join(f"{name}: {f.error}"
                        for name, f in run.failures.items()))

        actual = _canonical_results(run.results)
        identical = actual == expected
        if not identical:
            differing = sorted(
                set(expected) ^ set(actual)
                | {name for name in set(expected) & set(actual)
                   if expected[name] != actual[name]}
            )
            check("results byte-identical to fault-free run", False,
                  f"differ: {', '.join(differing)}")
        else:
            check("results byte-identical to fault-free run", True,
                  f"{len(actual)} workload(s)")

        orphans = sorted(str(p.relative_to(chaos_dir))
                         for p in chaos_dir.rglob("*.tmp"))
        check("no orphaned temp files", not orphans, ", ".join(orphans))

        resolved = sum(
            count for counter, count in
            (profile or {}).get("counters", {}).items()
            if counter.startswith("runner.resolve.")
        )
        check("obs counters reconcile with job metrics",
              resolved == len(run.metrics.jobs),
              f"runner.resolve.* = {resolved}, "
              f"jobs = {len(run.metrics.jobs)}")

        print(f"[chaos] {run.metrics.summary()}")
        if keep is not None:
            payload = dict(run.metrics.to_dict(), faults_fired=fired)
            (keep / "metrics.json").write_text(
                json.dumps(payload, indent=2) + "\n")
            print(f"[chaos] artifacts kept in {keep} (metrics.json, "
                  f"results/, traces/)")
        return EXIT_JOB_FAILURE if failed else EXIT_OK
    finally:
        if scratch is not None:
            scratch.cleanup()


# ----------------------------------------------------------------------
# repro serve / repro query
# ----------------------------------------------------------------------

def cmd_serve(parser, args) -> int:
    """Host the analysis service until SIGTERM/SIGINT, then drain."""
    from repro.service import BrokerConfig, QosError, load_qos_policy, run_server

    store, trace_store = _make_stores(args)
    policy = _policy_from_args(
        parser, args, jobs=args.jobs if args.jobs is not None else 1,
    )
    qos = None
    if args.qos is not None:
        try:
            qos = load_qos_policy(args.qos)
        except OSError as error:
            parser.error(f"cannot read QoS policy {args.qos}: {error}")
        except QosError as error:
            parser.error(f"invalid QoS policy {args.qos}: {error}")
    broker_config = BrokerConfig(
        workers=args.workers,
        max_queue=args.max_queue,
        max_wait=args.max_wait,
        batch_window=args.batch_window,
        policy=policy,
        qos=qos,
    )
    if args.fleet:
        return _serve_fleet(args, broker_config, store)
    qos_note = ""
    if qos is not None:
        weights = ", ".join(f"{name}={weight}" for name, weight
                            in qos.class_weights().items())
        qos_note = f"; qos classes {weights}"
    print(f"serving on http://{args.host}:{args.port} "
          f"({args.workers} batch worker(s); "
          f"policy {_policy_line(policy.describe())}{qos_note}; "
          f"SIGTERM drains)",
          file=sys.stderr)
    return run_server(host=args.host, port=args.port,
                      broker_config=broker_config,
                      store=store, trace_store=trace_store)


def _serve_fleet(args, broker_config, store) -> int:
    """``serve --fleet N``: a supervised worker fleet until SIGTERM.

    Workers bind ephemeral ports and share the content-addressed
    stores; the supervisor prints the routing table, probes, restarts
    and — on SIGTERM/SIGINT — drains the fleet one worker at a time.
    """
    from repro.service.fleet import FleetConfig, FleetSupervisor

    cache_root = None
    if store is not None:
        cache_root = store.root
    fleet = FleetSupervisor(
        FleetConfig(workers=args.fleet, host=args.host,
                    log_path=args.fleet_log),
        cache_root=cache_root, broker_config=broker_config,
    )
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    fleet.start()
    for worker_id, handle in sorted(fleet.workers.items()):
        print(f"fleet worker {worker_id}: "
              f"http://{handle.host}:{handle.port}", file=sys.stderr)
    print(f"supervising {args.fleet} worker(s); SIGTERM drains the "
          f"fleet one worker at a time", file=sys.stderr)
    stop.wait()
    print("draining fleet", file=sys.stderr)
    fleet.stop()
    print("fleet drained cleanly", file=sys.stderr)
    return EXIT_OK


def cmd_query(parser, args) -> int:
    """One ``/v1/analyze`` round trip against a running service."""
    from repro.service import (
        RequestFailed,
        ServiceClient,
        ServiceUnavailable,
    )

    client = ServiceClient(host=args.host, port=args.port,
                           timeout=args.timeout, retries=args.retries,
                           tenant=args.tenant)
    config = {"scale": args.scale,
              "max_instructions": args.max_instructions}
    try:
        response = client.analyze(args.workload, config)
    except RequestFailed as error:
        print(f"query failed: {error}", file=sys.stderr)
        return EXIT_JOB_FAILURE
    except ServiceUnavailable as error:
        print(f"service unreachable: {error}", file=sys.stderr)
        return EXIT_JOB_FAILURE
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return EXIT_OK
    result = response["result"]
    print(f"{response['workload']}: served {response['status']}, "
          f"{result['nodes']:,} node(s), {result['arcs']:,} arc(s)")
    for kind in sorted(result.get("predictors", {})):
        print(f"  predictor: {kind}")
    return EXIT_OK


# ----------------------------------------------------------------------
# repro qos
# ----------------------------------------------------------------------

def cmd_qos(parser, args) -> int:
    """``repro qos report``: per-tenant bottleneck attribution.

    Reads ``qos.*`` counters either from a metrics JSON dump (a
    profiled run or a saved broker snapshot) or live from a running
    service's ``/metrics`` exposition, and renders where each
    tenant's wall time went (queue / pool / simulate / analyze /
    store) plus the dominant phase — the bottleneck.
    """
    from repro.service.qos import (
        attribution_from_counters,
        attribution_from_prometheus,
        render_attribution,
    )

    if args.metrics is not None:
        try:
            payload = json.loads(Path(args.metrics).read_text())
        except OSError as error:
            print(f"cannot read {args.metrics}: {error}", file=sys.stderr)
            return EXIT_JOB_FAILURE
        except ValueError as error:
            print(f"{args.metrics} is not valid JSON: {error}",
                  file=sys.stderr)
            return EXIT_JOB_FAILURE
        counters = {}
        if isinstance(payload, dict):
            profile = payload.get("profile")
            if isinstance(profile, dict):
                counters = profile.get("counters", {})
            elif isinstance(payload.get("counters"), dict):
                counters = payload["counters"]
        report = attribution_from_counters(counters)
    else:
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(host=args.host, port=args.port,
                               timeout=args.timeout, retries=args.retries)
        try:
            text = client.metrics()
        except ServiceError as error:
            print(f"cannot fetch /metrics from "
                  f"{args.host}:{args.port}: {error}", file=sys.stderr)
            return EXIT_JOB_FAILURE
        report = attribution_from_prometheus(text)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return EXIT_OK
    if not report.get("tenants"):
        print("no qos.* counters found (serve with --qos and send "
              "some requests, or pass --metrics from a profiled run)",
              file=sys.stderr)
        return EXIT_JOB_FAILURE
    print(render_attribution(report))
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser assembly.
# ----------------------------------------------------------------------

class _VersionAction(argparse.Action):
    """``--version``: reads the package version only when it is given,
    so no other call pays for the metadata lookup."""

    def __call__(self, parser, namespace, values, option_string=None):
        import repro

        print(f"{parser.prog} {repro.__version__}")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description='Reproduction of "Modeling Program Predictability" '
                    "(Sazeides & Smith, ISCA 1998).",
    )
    parser.add_argument("--version", action=_VersionAction, nargs=0,
                        default=argparse.SUPPRESS,
                        help="show program's version number and exit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run the experiment suite through the orchestrator",
        description="Parallel, disk-cached experiment orchestration.",
    )
    _add_suite_flags(run)
    _add_cache_flags(run)
    run.add_argument("--timeout", type=float, default=None,
                     help="per-job wall-clock limit in seconds")
    run.add_argument("--retries", type=int, default=1,
                     help="extra attempts for a failed job (default: 1)")
    run.add_argument("--metrics", default=None,
                     help="metrics JSON path (default: <cache>/"
                          "metrics.json; '-' to skip)")
    run.set_defaults(func=cmd_run)

    chaos = sub.add_parser(
        "chaos", help="run the suite under seeded fault injection",
        description="Chaos smoke test: run the suite under a seeded "
                    "fault-injection plan and verify the robustness "
                    "invariants (byte-identical results, no orphaned "
                    "temp files, reconciling counters).",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed (default: 0)")
    chaos.add_argument("--workloads", default="com,go",
                       help="comma-separated workload names "
                            "(default: com,go)")
    chaos.add_argument("--scale", type=int, default=1,
                       help="workload problem-size multiplier")
    chaos.add_argument("--max-instructions", type=int, default=20_000,
                       help="dynamic-instruction budget per workload "
                            "(default: 20000 — chaos is a smoke test)")
    chaos.add_argument("--jobs", type=int, default=2,
                       help="worker processes (default: 2; worker-level "
                            "faults only fire in parallel runs)")
    chaos.add_argument("--retries", type=int, default=6,
                       help="extra attempts per failed job (default: 6 — "
                            "high enough to outlast the injected faults)")
    chaos.add_argument("--timeout", type=float, default=None,
                       help="per-job timeout in seconds (also arms the "
                            "worker.hang fault)")
    chaos.add_argument("--keep", metavar="DIR", default=None,
                       help="keep the chaos run's cache dir at DIR "
                            "instead of deleting it, with the run's "
                            "metrics (profile, fired faults) in "
                            "DIR/metrics.json")
    chaos.add_argument("--fault", action="append", metavar="SITE=RATE",
                       help="override/add an injection site with a "
                            "probabilistic rate (repeatable)")
    chaos.add_argument("--fleet", action="store_true",
                       help="run the supervised-fleet chaos variant: "
                            "kill -9 / wedge workers under zipf load "
                            "and assert zero failed requests "
                            "(docs/robustness.md)")
    chaos.add_argument("--fleet-workers", type=int, default=2,
                       help="fleet worker processes (default: 2)")
    chaos.add_argument("--fleet-requests", type=int, default=24,
                       help="zipf-distributed requests to drive "
                            "(default: 24)")
    chaos.set_defaults(func=cmd_chaos)

    report = sub.add_parser(
        "report", help="regenerate the paper's tables and figures",
        description="Regenerate the paper's tables and figures.",
    )
    report.add_argument("--exhibit", default="all",
                        help="registry exhibit to print: table1, fig5 "
                             "... fig13, critical, or a campaign table "
                             "(default: all)")
    _add_suite_flags(report)
    _add_cache_flags(report)
    report.set_defaults(func=cmd_report)

    workloads = sub.add_parser(
        "workloads", help="list, run or disassemble the workload suite",
        description="Run or inspect the SPEC95-analogue workloads.",
    )
    workloads.add_argument("--list", action="store_true",
                           help="list the suite and exit")
    workloads.add_argument("--run", metavar="NAME",
                           help="compile and run one workload")
    workloads.add_argument("--scale", type=int, default=1,
                           help="problem-size multiplier")
    workloads.add_argument("--emit-asm", action="store_true",
                           help="print the generated assembly instead of "
                                "running")
    workloads.add_argument("--generated", action="store_true",
                           help="list cached synthesized (gen:) "
                                "workloads with their (seed, knobs) "
                                "provenance")
    _add_cache_flags(workloads)
    workloads.set_defaults(func=cmd_workloads)

    gen = sub.add_parser(
        "gen", help="synthesize, inspect or run a seeded workload",
        description="Seeded workload synthesis: any "
                    "gen:<preset>@<seed>[:knob=value,...] name "
                    "regenerates the same mini-C program "
                    "byte-identically in any process "
                    "(docs/generator.md).",
    )
    gen.add_argument("name", nargs="?",
                     help="workload name, e.g. gen:graph-walk@7")
    gen.add_argument("--presets", action="store_true",
                     help="list the named presets and exit")
    gen.add_argument("--info", action="store_true",
                     help="print provenance (preset, seed, knobs, "
                          "source hash, trace key) instead of source")
    gen.add_argument("--emit-asm", action="store_true",
                     help="print the compiled assembly")
    gen.add_argument("--run", action="store_true",
                     help="compile and execute the workload")
    gen.add_argument("--scale", type=int, default=1,
                     help="problem-size multiplier (for --run/--info)")
    gen.set_defaults(func=cmd_gen)

    campaign = sub.add_parser(
        "campaign", help="run a predictor design-space campaign",
        description="Expand a declarative TOML/JSON campaign spec "
                    "(workloads x predictor-bank variants) into a "
                    "cached job grid and emit its registry-driven "
                    "report (docs/campaign.md).",
    )
    campaign.add_argument("action", choices=("run", "report", "validate"),
                          help="execute the grid, execute + emit the "
                               "report (from cached results when warm), "
                               "or just check the spec")
    campaign.add_argument("spec", help="campaign spec (.toml or .json)")
    campaign.add_argument("--out", default=None, metavar="DIR",
                          help="report output directory (required for "
                               "report, optional for run)")
    _add_policy_flag(campaign)
    campaign.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: $REPRO_JOBS, "
                               "else serial)")
    _add_cache_flags(campaign)
    campaign.set_defaults(func=cmd_campaign)

    cache = sub.add_parser(
        "cache", help="inspect, prune or clear both cache tiers",
        description="Inspect, prune or clear the result and trace "
                    "stores.",
    )
    cache.add_argument("action",
                       choices=("info", "prune", "clear", "reindex",
                                "scrub"),
                       help="print tier occupancy and hit-rates, evict "
                            "down to the caps, empty the tiers, "
                            "backfill segment-index sidecars for "
                            "stored traces (docs/sharding.md), or "
                            "verify every entry's integrity and "
                            "quarantine the rot (docs/robustness.md)")
    cache.add_argument("--segment-records", type=int,
                       default=DEFAULT_SEGMENT_RECORDS, metavar="N",
                       help="checkpoint spacing for reindex (default: "
                            f"{DEFAULT_SEGMENT_RECORDS})")
    cache.add_argument("--no-quarantine", action="store_true",
                       help="scrub: audit only — report findings but "
                            "leave every file in place")
    cache.add_argument("--report", default=None, metavar="PATH",
                       help="scrub: JSONL report path (default: "
                            "<cache>/quarantine/scrub_report.jsonl)")
    _add_cache_flags(cache)
    cache.set_defaults(func=cmd_cache)

    stats = sub.add_parser(
        "stats", help="render the profile of an observed run",
        description="Render the span/counter profile recorded by "
                    "python -m repro run --profile.",
    )
    stats.add_argument("--metrics", default=None,
                       help="metrics JSON to read (default: "
                            "<cache>/metrics.json)")
    stats.add_argument("--format", choices=("text", "jsonl", "prom"),
                       default="text",
                       help="output format (default: text)")
    _add_cache_flags(stats)
    stats.set_defaults(func=cmd_stats)

    serve = sub.add_parser(
        "serve", help="host the analysis service over HTTP",
        description="Serve repro.api over HTTP: request coalescing, "
                    "batched execution, 429 load shedding and a "
                    "graceful SIGTERM drain (docs/service.md).",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="bind port, 0 for ephemeral (default: 8642)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent batch executors (default: 2)")
    serve.add_argument("--jobs", type=int, default=None,
                       help="worker processes per batch (default: 1)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="queued jobs before shedding with 429 "
                            "(default: 64)")
    serve.add_argument("--max-wait", type=float, default=30.0,
                       help="estimated wait (s) before shedding "
                            "(default: 30)")
    serve.add_argument("--batch-window", type=float, default=0.02,
                       help="seconds to gather a batch (default: 0.02)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock limit in seconds")
    serve.add_argument("--retries", type=int, default=1,
                       help="extra attempts for a failed job (default: 1)")
    serve.add_argument("--fleet", type=int, default=None, metavar="N",
                       help="supervise a fleet of N worker serve "
                            "processes (ephemeral ports, shared "
                            "stores, circuit-breaking failover; "
                            "docs/service.md)")
    serve.add_argument("--fleet-log", default=None, metavar="PATH",
                       help="fleet supervisor event-log path")
    serve.add_argument("--qos", default=None, metavar="PATH",
                       help="QoS policy file (TOML or JSON): per-tenant "
                            "quotas, priority classes, weighted-fair "
                            "scheduling (docs/qos.md)")
    _add_policy_flag(serve)
    _add_cache_flags(serve)
    serve.set_defaults(func=cmd_serve)

    query = sub.add_parser(
        "query", help="query a running analysis service",
        description="POST /v1/analyze against a running "
                    "`python -m repro serve` and print the answer.",
    )
    query.add_argument("workload", help="workload name (see `workloads`)")
    query.add_argument("--host", default="127.0.0.1",
                       help="service address (default: 127.0.0.1)")
    query.add_argument("--port", type=int, default=8642,
                       help="service port (default: 8642)")
    query.add_argument("--scale", type=int, default=1,
                       help="workload problem-size multiplier")
    query.add_argument("--max-instructions", type=int, default=150_000,
                       help="dynamic-instruction budget")
    query.add_argument("--timeout", type=float, default=120.0,
                       help="per-attempt socket timeout (default: 120)")
    query.add_argument("--retries", type=int, default=3,
                       help="client retry attempts (default: 3)")
    query.add_argument("--tenant", default=None, metavar="NAME",
                       help="tenant name sent on the X-Repro-Tenant "
                            "header (default: the server's default "
                            "tenant)")
    query.add_argument("--json", action="store_true",
                       help="print the full JSON response body")
    query.set_defaults(func=cmd_query)

    qos = sub.add_parser(
        "qos", help="per-tenant QoS attribution report",
        description="Render the per-tenant bottleneck-attribution "
                    "report from qos.* counters (docs/qos.md).",
    )
    qos_sub = qos.add_subparsers(dest="action", required=True)
    qos_report = qos_sub.add_parser(
        "report", help="render the per-tenant attribution report",
        description="Read qos.* counters from a metrics JSON dump "
                    "(--metrics) or a live service's /metrics "
                    "(--host/--port) and show where each tenant's "
                    "wall time went.",
    )
    qos_report.add_argument("--metrics", default=None, metavar="PATH",
                            help="metrics JSON dump to read instead of "
                                 "querying a live service")
    qos_report.add_argument("--host", default="127.0.0.1",
                            help="service address (default: 127.0.0.1)")
    qos_report.add_argument("--port", type=int, default=8642,
                            help="service port (default: 8642)")
    qos_report.add_argument("--timeout", type=float, default=30.0,
                            help="socket timeout (default: 30)")
    qos_report.add_argument("--retries", type=int, default=1,
                            help="client retry attempts (default: 1)")
    qos_report.add_argument("--json", action="store_true",
                            help="print the report as JSON")
    qos_report.set_defaults(func=cmd_qos)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    raise SystemExit(main())
