"""The ``service_zipf`` workload: open-loop load against ``repro serve``.

The server runs as a child process (``python -m repro serve``) over a
scratch store.  Set-up starts it and pre-warms the head of a seeded
catalogue of (workload, analysis config) jobs, ranked by popularity:

* **head** -- the catalogue of the repository's service benchmark
  (``benchmarks/bench_service.py``: its workloads, analysis variants
  and budget), pre-warmed, so every request is a broker memo hit;
* **replay** -- the next ranks: the same workloads and variants under
  budgets never asked before, so the first request replays a stored
  trace and later ones are warm;
* **cold** -- the last ranks: generated programs no one has run, so
  the first request simulates; a duplicate follows it within a few
  milliseconds, so coalescing is exercised.

The load is an open loop: the arrival schedule (:func:`schedule`:
Poisson arrivals at one fixed rate, each drawing a catalogue rank from
a zipf law with ``bench_service.py``'s exponent) is computed from the
seed, and each request is timed from when it was due.  It is sent from
this one process over at most ``nproc`` connections at a time.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import common

#: ``bench_service.py``'s catalogue: ``build_catalog(BUDGET, 12)``
#: cycles these workloads and analysis variants at one budget, and
#: its popularity is zipf with this exponent.
BUDGET = 6_000
HEAD_ENTRIES = 12
HEAD_WORKLOADS = ("com", "go", "ijp")
VARIANTS = (
    {},
    {"predictors": ["last"], "trees_for": []},
    {"predictors": ["stride"], "trees_for": []},
    {"predictors": ["context"], "gen_cap": 32},
    {"predictors": ["last", "stride"], "trees_for": []},
    {"gen_cap": 16},
)
ZIPF_ALPHA = 1.2
#: Ranks past the head: replay entries, then the cold tail.
REPLAY_ENTRIES = 24
COLD_ENTRIES = 24
COLD_PRESETS = ("arith", "pointer-chase")
#: Requests per second, offered whatever the answers' speed: a third
#: of the closed-loop throughput ``bench_service.py`` recorded in
#: ``BENCH_service.json`` (30.9 requests/s), so the server is busy but
#: not saturated.
RATE = 10.0
#: A cold entry's first request is followed this soon by a duplicate,
#: as ``bench_service.py``'s burst phase asks one cold job from every
#: client at once.
DUPLICATE_GAP = 0.005
#: Latency limit a request must meet to count towards goodput: about
#: twice the overall p99 recorded in ``BENCH_service.json`` (0.48 s).
LATENCY_LIMIT_MS = 1000.0


@dataclass(frozen=True)
class Entry:
    name: str
    config: dict
    kind: str           # "head", "replay" or "cold"

    @property
    def label(self) -> str:
        return common.job_label(self.name, self.config)


def _variant(index: int, budget: int) -> dict:
    return dict(VARIANTS[index % len(VARIANTS)], max_instructions=budget)


def catalogue(seed: int) -> list[Entry]:
    """The seeded catalogue in popularity-rank order."""
    entries = [Entry(HEAD_WORKLOADS[rank % len(HEAD_WORKLOADS)],
                     _variant(rank, BUDGET), "head")
               for rank in range(HEAD_ENTRIES)]
    # Budgets below the head's are served by the head's stored traces.
    entries += [Entry(HEAD_WORKLOADS[j % len(HEAD_WORKLOADS)],
                      _variant(j, BUDGET - 1 - j), "replay")
                for j in range(REPLAY_ENTRIES)]
    base = random.Random(f"service_zipf:catalogue:{seed}").randrange(
        1, 1_000_000)
    entries += [Entry(f"gen:{COLD_PRESETS[j % len(COLD_PRESETS)]}@{base + j}",
                      _variant(j, BUDGET), "cold")
                for j in range(COLD_ENTRIES)]
    return entries


def schedule(seed: int, seconds: float,
             entries: list[Entry]) -> list[tuple[float, int]]:
    """``(due offset, entry index)`` arrivals, sorted by due time.

    One open-loop Poisson stream at ``RATE``, conditioned on its count
    (``RATE * seconds`` arrivals uniform over the window); each arrival
    draws a catalogue rank by zipf popularity.  The first request for
    a cold entry is duplicated ``DUPLICATE_GAP`` later.

    Times and ranks come from separate generators, so a shorter load
    asks for a prefix of a longer one's draws.
    """
    clock = random.Random(f"service_zipf:clock:{seed}")
    dues = sorted(clock.uniform(0.0, seconds)
                  for __ in range(round(RATE * seconds)))
    weights = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_ALPHA for rank in range(len(entries))))
    draws = random.Random(f"service_zipf:draws:{seed}")
    arrivals = []
    asked = set()
    for due in dues:
        rank = bisect.bisect(weights, draws.random() * weights[-1])
        index = min(rank, len(entries) - 1)
        arrivals.append((due, index))
        if entries[index].kind == "cold" and index not in asked:
            arrivals.append((due + DUPLICATE_GAP, index))
        asked.add(index)
    arrivals.sort()
    return arrivals


@dataclass
class Outcome:
    index: int            # catalogue entry
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: str = ""      # broker status, or "shed" / "failed"
    digest: str = ""
    records: int = 0
    correct: bool = False   # answered with the expected digest
    error: str = ""

    @property
    def answered(self) -> bool:
        return self.status in ("warm", "computed", "coalesced")

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


def status_faults(entries: list[Entry], outcomes: list[Outcome]) -> list[str]:
    """Requests whose broker status breaks the expected mix.

    Head entries are pre-warmed, so every answer is ``warm``.  A tail
    entry is computed exactly once; a request sent after that answer
    arrived must be ``warm``, one sent before it may also be
    ``coalesced`` (it joined the in-flight job).
    """
    faults = []
    by_entry: dict[int, list[Outcome]] = {}
    for outcome in outcomes:
        if outcome.answered:
            by_entry.setdefault(outcome.index, []).append(outcome)
    for index, answers in by_entry.items():
        entry = entries[index]
        if entry.kind == "head":
            faults.extend(f"{entry.label}: head answered {answer.status}"
                          for answer in answers if answer.status != "warm")
            continue
        computed = [answer for answer in answers
                    if answer.status == "computed"]
        if len(computed) != 1:
            faults.append(f"{entry.label}: computed {len(computed)} times")
            continue
        first_done = computed[0].done
        for answer in answers:
            if answer is computed[0]:
                continue
            if answer.sent >= first_done and answer.status != "warm":
                faults.append(f"{entry.label}: {answer.status} after the "
                              f"computed answer arrived")
    return faults


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``python -m repro serve`` as a child process over a scratch store."""

    def __init__(self, work: Path, env: dict):
        self.work = work
        self.env = env
        self.port = free_port()
        self.process: subprocess.Popen | None = None
        self.log = None

    def start(self, timeout: float = 60.0) -> None:
        from repro.service import ServiceClient, ServiceError

        self.work.mkdir(parents=True, exist_ok=True)
        self.log = open(self.work / "server.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", str(self.port), "--cache-dir",
             str(self.work / "cache"), "--workers", "2", "--jobs", "1"],
            cwd=common.ROOT, env=self.env, stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        client = ServiceClient(port=self.port, retries=0, timeout=5.0)
        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with "
                                   f"{self.process.returncode}; see "
                                   f"{self.work / 'server.log'}")
            try:
                client.health()
                return
            except ServiceError:
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not become healthy")
                time.sleep(0.02)

    def stop(self, timeout: float = 60.0) -> int:
        """Drain (SIGTERM) and reap; returns the peak RSS in KiB."""
        rss_kb = 0
        if self.process is not None and self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + timeout
            while True:
                pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
                if pid:
                    self.process.returncode = os.waitstatus_to_exitcode(
                        status)
                    rss_kb = usage.ru_maxrss
                    break
                if time.monotonic() > deadline:
                    self.process.kill()
                    self.process.wait()
                    break
                time.sleep(0.02)
        if self.log is not None:
            self.log.close()
            self.log = None
        return rss_kb

    def prewarm(self, entries: list[Entry]) -> None:
        """Compute every head job: one sweep request per workload."""
        from repro.service import ServiceClient

        by_name: dict[str, list[dict]] = {}
        for entry in entries:
            if entry.kind != "head":
                continue
            configs = by_name.setdefault(entry.name, [])
            if entry.config not in configs:
                configs.append(entry.config)
        client = ServiceClient(port=self.port, retries=0, timeout=120.0)
        for name, configs in by_name.items():
            response = client.sweep(configs, [name])
            if response["failed"]:
                raise RuntimeError(f"pre-warm failed: {response}")

    def counters(self) -> dict:
        """The server's counters and per-phase attribution seconds."""
        from repro.obs.export import parse_prometheus
        from repro.service import ServiceClient
        from repro.service.qos import attribution_from_prometheus

        text = ServiceClient(port=self.port, retries=2).metrics()
        counters: dict[str, float] = {}
        for family, __, value in parse_prometheus(text):
            counters[family] = counters.get(family, 0.0) + value
        phases: dict[str, float] = {}
        for tenant in attribution_from_prometheus(text)["tenants"].values():
            for phase, seconds in tenant["phases"].items():
                phases[phase] = phases.get(phase, 0.0) + seconds
        counters["phases"] = phases
        return counters


def run_load(port: int, entries: list[Entry],
             arrivals: list[tuple[float, int]],
             connections: int) -> tuple[list[Outcome], float]:
    """Send ``arrivals`` open-loop; returns outcomes and the load wall.

    ``connections`` sender threads share the schedule: each takes the
    next due request, waits until it is due, and sends it.  A request
    that finds every connection busy goes out late, and its lateness
    counts in its latency.
    """
    from repro.service import ServiceClient, ServiceError, ServiceUnavailable

    outcomes = [Outcome(index, due) for due, index in arrivals]
    order = iter(range(len(outcomes)))
    lock = threading.Lock()
    start = time.monotonic() + 0.05

    def sender() -> None:
        client = ServiceClient(port=port, retries=0, timeout=120.0)
        while True:
            with lock:
                position = next(order, None)
            if position is None:
                return
            outcome = outcomes[position]
            entry = entries[outcome.index]
            outcome.due += start
            delay = outcome.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            outcome.sent = time.monotonic()
            try:
                body = client.analyze(entry.name, entry.config)
            except ServiceUnavailable as error:
                outcome.status = ("shed" if error.last_status == 429
                                  else "failed")
                outcome.error = str(error)
            except ServiceError as error:
                outcome.status = "failed"
                outcome.error = str(error)
            else:
                outcome.status = body["status"]
                outcome.digest = common.payload_digest(body["result"])
                outcome.records = body["result"]["nodes"]
            outcome.done = time.monotonic()

    threads = [threading.Thread(target=sender, name=f"perfbench-send-{i}")
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = max(outcome.done for outcome in outcomes) - start
    return outcomes, wall


@dataclass
class LoadReport:
    outcomes: list[Outcome]
    wall: float
    before: dict
    after: dict
    faults: list[str] = field(default_factory=list)

    def delta(self, family: str) -> float:
        return self.after.get(family, 0.0) - self.before.get(family, 0.0)

    def phase_delta(self, phase: str) -> float:
        return (self.after["phases"].get(phase, 0.0)
                - self.before["phases"].get(phase, 0.0))


def drive(server: Server, entries: list[Entry], seed: int, seconds: float,
          book: common.DigestBook) -> LoadReport:
    """Run the load and check every answer: digest, status, tier."""
    arrivals = schedule(seed, seconds, entries)
    before = server.counters()
    outcomes, wall = run_load(server.port, entries, arrivals,
                              connections=common.NPROC)
    after = server.counters()
    report = LoadReport(outcomes, wall, before, after)
    for outcome in outcomes:
        if outcome.answered:
            label = entries[outcome.index].label
            outcome.correct = book.check(label, outcome.digest)
            if not outcome.correct:
                report.faults.append(f"digest mismatch: {label}")
    report.faults.extend(status_faults(entries, outcomes))
    computed = {kind: sum(1 for outcome in outcomes
                          if outcome.status == "computed"
                          and entries[outcome.index].kind == kind)
                for kind in ("replay", "cold")}
    replayed = report.delta("repro_runner_resolve_replayed_total")
    simulated = report.delta("repro_runner_resolve_computed_total")
    if replayed != computed["replay"] or simulated != computed["cold"]:
        report.faults.append(
            f"server resolved {replayed:.0f} replayed / {simulated:.0f} "
            f"simulated jobs for {computed['replay']} replay / "
            f"{computed['cold']} cold computed answers")
    return report
