"""Store integrity scrubbing: verify every entry, quarantine the rot.

``python -m repro cache scrub`` walks both cache tiers plus the
segment-index sidecars and *fully validates* each entry — not just the
cheap header checks the hot read path does:

* **results**: JSON envelope parses, schema version matches, the
  envelope's ``key`` matches the filename, and the payload checksum
  verifies;
* **traces**: the complete file decodes (gzip framing, record framing,
  header/record-count agreement) — a scrub reads every byte;
* **segidx**: the sidecar decodes, its trace still exists (orphans are
  findings, see :meth:`TraceStore.orphan_segidx`), and its
  ``n_records`` agrees with the trace header (stale = finding).

A bad entry is **quarantined, never deleted**: moved to
``<cache>/quarantine/<tier>/<filename>`` so an operator can inspect
(or forensically diff) what rotted, and each finding is appended to a
JSONL report (``<cache>/quarantine/scrub_report.jsonl`` by default).
Valid entries are left untouched — a scrub is safe to run against a
live store — and a rerun over a scrubbed store reports clean.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import get_recorder
from repro.runner.cache import (SCHEMA_VERSION, ResultStore, _canonical,
                                _checksum)
from repro.runner.tracestore import SEGIDX_SUFFIX, TRACE_SUFFIX, TraceStore

_log = logging.getLogger(__name__)

#: Quarantine directory name inside a cache root.
QUARANTINE_DIR = "quarantine"

#: Default JSONL report filename inside the quarantine directory.
REPORT_NAME = "scrub_report.jsonl"


@dataclass
class ScrubFinding:
    """One bad entry a scrub pass turned up."""

    tier: str        #: "result" | "trace" | "segidx"
    key: str         #: content-address key (filename stem)
    path: str        #: original entry path
    problem: str     #: human-readable diagnosis
    quarantined_to: str | None = None  #: destination, None = left alone

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "key": self.key,
            "path": self.path,
            "problem": self.problem,
            "quarantined_to": self.quarantined_to,
        }


@dataclass
class ScrubReport:
    """Everything one scrub pass checked and found."""

    root: str
    checked: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)
    report_path: str | None = None
    wall_time: float = 0.0

    @property
    def quarantined(self) -> int:
        return sum(1 for f in self.findings if f.quarantined_to)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "checked": dict(self.checked),
            "findings": [f.to_dict() for f in self.findings],
            "quarantined": self.quarantined,
            "clean": self.clean,
            "report_path": self.report_path,
            "wall_time": self.wall_time,
        }


def scrub_store(cache_dir: str | Path, quarantine: bool = True,
                report_path: str | Path | None = None) -> ScrubReport:
    """Verify every entry under ``cache_dir``; quarantine failures.

    Returns a :class:`ScrubReport`.  ``quarantine=False`` runs a pure
    audit: findings are reported but every file stays in place (and no
    report file is written unless ``report_path`` is given).
    """
    start = time.monotonic()
    root = Path(cache_dir)
    report = ScrubReport(root=str(root))
    quarantine_root = root / QUARANTINE_DIR

    results = ResultStore(root)
    traces = TraceStore(root)

    report.checked["result"] = 0
    for path in results.entries():
        report.checked["result"] += 1
        problem = _check_result(path)
        if problem:
            _finding(report, "result", path, problem,
                     quarantine_root if quarantine else None)

    report.checked["trace"] = 0
    for path in traces.entries():
        report.checked["trace"] += 1
        problem = _check_trace(path)
        if problem:
            _finding(report, "trace", path, problem,
                     quarantine_root if quarantine else None)

    report.checked["segidx"] = 0
    for path in traces.segidx_entries():
        report.checked["segidx"] += 1
        problem = _check_segidx(path)
        if problem:
            _finding(report, "segidx", path, problem,
                     quarantine_root if quarantine else None)

    report.wall_time = time.monotonic() - start
    recorder = get_recorder()
    recorder.count("store.scrub.runs", 1)
    recorder.count("store.scrub.checked", sum(report.checked.values()))
    if report.findings:
        recorder.count("store.scrub.findings", len(report.findings))

    if quarantine or report_path is not None:
        target = Path(report_path) if report_path is not None \
            else quarantine_root / REPORT_NAME
        _write_report(target, report)
        report.report_path = str(target)
    return report


# ----------------------------------------------------------------------
# Per-tier validators: return a problem string, or None when sound.
# ----------------------------------------------------------------------

def _check_result(path: Path) -> str | None:
    key = path.stem
    try:
        text = path.read_text()
    except OSError as error:
        return f"unreadable: {error}"
    try:
        envelope = json.loads(text)
    except ValueError as error:
        return f"garbled envelope: {error}"
    if not isinstance(envelope, dict):
        return "garbled envelope: not an object"
    if envelope.get("schema") != SCHEMA_VERSION:
        return f"schema {envelope.get('schema')!r} != {SCHEMA_VERSION}"
    if envelope.get("key") != key:
        return f"key mismatch: envelope says {envelope.get('key')!r}"
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        return "missing payload"
    if _checksum(_canonical(payload)) != envelope.get("checksum"):
        return "checksum mismatch"
    return None


def _check_trace(path: Path) -> str | None:
    from repro.cpu.tracefile import read_trace_columns

    try:
        read_trace_columns(path)
    except OSError as error:
        return f"unreadable: {error}"
    except Exception as error:
        return f"corrupt trace: {error}"
    return None


def _check_segidx(path: Path) -> str | None:
    from repro.core.shard import SegmentIndex
    from repro.cpu.tracefile import trace_header

    trace_path = path.with_name(path.name[: -len(SEGIDX_SUFFIX)])
    if not trace_path.is_file():
        return "orphaned sidecar: trace is gone"
    try:
        index = SegmentIndex.from_bytes(path.read_bytes())
    except OSError as error:
        return f"unreadable: {error}"
    except Exception as error:
        return f"corrupt segment index: {error}"
    try:
        header = trace_header(trace_path)
    except Exception:
        # The trace itself is rotten; the trace pass owns that finding
        # and this sidecar will be orphaned on the next scrub.
        return None
    if header.get("n_records") != index.n_records:
        return (f"stale sidecar: index covers {index.n_records} records,"
                f" trace has {header.get('n_records')}")
    return None


# ----------------------------------------------------------------------
# Quarantine / report plumbing.
# ----------------------------------------------------------------------

def _finding(report: ScrubReport, tier: str, path: Path, problem: str,
             quarantine_root: Path | None) -> None:
    key = path.name.split(".", 1)[0]
    finding = ScrubFinding(tier=tier, key=key, path=str(path),
                           problem=problem)
    if quarantine_root is not None:
        destination = _quarantine(path, tier, quarantine_root)
        finding.quarantined_to = (str(destination)
                                  if destination is not None else None)
        get_recorder().count(f"store.scrub.quarantined.{tier}", 1)
    _log.warning("scrub: %s %s — %s%s", tier, path.name, problem,
                 " (quarantined)" if finding.quarantined_to else "")
    report.findings.append(finding)


def _quarantine(path: Path, tier: str,
                quarantine_root: Path) -> Path | None:
    """Move ``path`` under ``quarantine/<tier>/``; never raises."""
    destination = quarantine_root / tier / path.name
    try:
        destination.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, destination)
    except OSError as error:
        _log.warning("scrub: could not quarantine %s (%s); left in "
                     "place", path, error)
        return None
    return destination


def _write_report(target: Path, report: ScrubReport) -> None:
    """Append one summary line plus one line per finding (JSONL)."""
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "a") as handle:
            summary = {
                "scrub": 1,
                "timestamp": time.time(),
                "root": report.root,
                "checked": dict(report.checked),
                "findings": len(report.findings),
                "quarantined": report.quarantined,
                "clean": report.clean,
            }
            handle.write(json.dumps(summary, separators=(",", ":"))
                         + "\n")
            for finding in report.findings:
                handle.write(json.dumps(finding.to_dict(),
                                        separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
    except OSError as error:
        _log.warning("scrub: could not write report %s (%s)", target,
                     error)
