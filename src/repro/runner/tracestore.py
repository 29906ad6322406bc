"""Persistent content-addressed trace store — tier 1 of the cache.

Where the :class:`~repro.runner.cache.ResultStore` keys on the full
*analysis* identity (workload content + every analyzer knob), the
trace store keys on the *execution* identity alone
(:func:`repro.runner.job.trace_key`: program bytes + inputs + scale).
One stored trace therefore serves every analysis configuration of its
workload: the runner simulates once, then replays.

Traces live under ``<root>/traces/<key[:2]>/<key>.trace.gz`` in the
binary v2 format of :mod:`repro.cpu.tracefile`.  The file's own header
records how much execution it covers (``n_records``, ``complete``);
:meth:`TraceStore.get` only reports a hit when the stored trace can
serve the requested instruction budget — a truncated capture never
silently shortens a larger analysis, it is simply re-captured with the
bigger budget and overwritten.

The same robustness rules as the result store apply: writes are atomic
(temp file + ``os.replace``), any unreadable or corrupt file is
removed and treated as a miss, and the store is LRU-bounded by its own
``max_bytes`` cap (traces are ~50× larger than result payloads, so the
tiers are budgeted independently).
"""

from __future__ import annotations

import logging
import os
import tempfile
from pathlib import Path

from repro.cpu.tracefile import (
    read_trace,
    read_trace_columns,
    save_trace,
    trace_header,
)
from repro.obs import get_recorder
from repro.runner.cache import LRUFileStore
from repro.runner.faults import (InjectedFault, fault_enospc, fault_io,
                                 is_enospc, maybe_fault)

_log = logging.getLogger(__name__)

#: Default size cap for the trace tier (bytes).  Traces dwarf result
#: payloads, so the tier gets its own, larger budget.
DEFAULT_TRACE_MAX_BYTES = 512 * 1024 * 1024

#: Stored-trace filename suffix.
TRACE_SUFFIX = ".trace.gz"

#: Segment-index sidecar suffix (appended to the trace filename).
SEGIDX_SUFFIX = ".segidx"


class TraceStore(LRUFileStore):
    """Disk-backed, content-addressed store of captured traces."""

    metric = "trace"

    #: In-memory columns memo bound (entry count, LRU).  Decoded
    #: :class:`TraceColumns` are prefix-closed and carry per-bank hit
    #: and result caches, so handing every sweep config the *same*
    #: object lets those caches compound across configs and budgets.
    columns_memo_entries = 16

    def __init__(self, root: str | Path,
                 max_bytes: int = DEFAULT_TRACE_MAX_BYTES):
        self.root = Path(root)
        self.traces_dir = self.root / "traces"
        self._columns_memo: dict = {}
        super().__init__(self.traces_dir, TRACE_SUFFIX, max_bytes)

    # ------------------------------------------------------------------
    # Lookup / insert.
    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.traces_dir / key[:2] / f"{key}{TRACE_SUFFIX}"

    def contains(self, key: str) -> bool:
        return self.path_for(key).is_file()

    # ------------------------------------------------------------------
    # Segment-index sidecar.
    # ------------------------------------------------------------------

    def path_for_segidx(self, key: str) -> Path:
        """The segment-index sidecar path next to the stored trace."""
        path = self.path_for(key)
        return path.with_name(path.name + SEGIDX_SUFFIX)

    def put_segindex(self, key: str, index) -> Path | None:
        """Atomically store a :class:`~repro.core.shard.SegmentIndex`.

        The sidecar is pure derived data — a write failure degrades to
        "no index" (serial analysis) rather than raising.
        """
        path = self.path_for_segidx(key)
        if not self.contains(key):
            # Never publish an index with no trace beside it.
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(index.to_bytes())
            os.replace(tmp_name, path)
        except OSError:
            self._remove(Path(tmp_name))
            return None
        if not self.contains(key):
            # The trace was evicted between the guard above and the
            # replace: take the sidecar back out rather than leave an
            # orphan behind.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        get_recorder().count("store.trace.segidx_puts", 1)
        return path

    def get_segindex(self, key: str):
        """The stored :class:`SegmentIndex` for ``key``, or None.

        A corrupt or stale sidecar (unreadable, wrong magic, or
        ``n_records`` disagreeing with the trace header) is removed and
        reads as a miss — the caller falls back to serial analysis or a
        reindex, never to a wrong merge.
        """
        from repro.core.shard import SegmentIndex

        path = self.path_for_segidx(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            return None
        try:
            index = SegmentIndex.from_bytes(blob)
        except Exception as error:
            get_recorder().count("store.trace.segidx_corruption", 1)
            _log.warning("store: dropping corrupt segment index %s (%s)",
                         path.name, error)
            self._remove(path)
            return None
        header = self.header(key)
        if header is None or header.get("n_records") != index.n_records:
            # Stale: the trace was re-captured under this sidecar.
            self._remove(path)
            return None
        return index

    def has_segindex(self, key: str) -> bool:
        return self.path_for_segidx(key).is_file()

    def segidx_entries(self) -> list[Path]:
        """Every published segment-index sidecar, orphans included."""
        if not self.traces_dir.is_dir():
            return []
        return sorted(self.traces_dir.glob(f"*/*{SEGIDX_SUFFIX}"))

    def orphan_segidx(self) -> list[Path]:
        """Sidecars whose trace is gone (a crash between a trace's
        unlink and a sidecar publish, pre-fix eviction leftovers).
        Nothing reads a sidecar without first finding its trace, so
        these are pure dead weight — ``cache info`` must not count
        them as segment-index coverage."""
        orphans = []
        for path in self.segidx_entries():
            trace = path.with_name(path.name[: -len(SEGIDX_SUFFIX)])
            if not trace.is_file():
                orphans.append(path)
        return orphans

    def sweep_orphan_segidx(self) -> int:
        """Remove orphaned sidecars; returns the number removed."""
        orphans = self.orphan_segidx()
        for path in orphans:
            try:
                path.unlink()
            except OSError:
                pass
        if orphans:
            get_recorder().count("store.trace.segidx_orphans_swept",
                                 len(orphans))
        return len(orphans)

    @staticmethod
    def _remove(path: Path) -> None:
        # A trace never outlives removal with its sidecar still
        # published: eviction, corruption recovery and clear() all
        # funnel through here.
        try:
            path.unlink()
        except OSError:
            pass
        if path.name.endswith(TRACE_SUFFIX):
            try:
                path.with_name(path.name + SEGIDX_SUFFIX).unlink()
            except OSError:
                pass

    def header(self, key: str) -> dict | None:
        """The stored trace's header, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            return trace_header(path)
        except FileNotFoundError:
            return None
        except Exception:
            self._remove(path)
            return None

    def get(self, key: str, need: int | None = None,
            columns: bool = False):
        """``(header, records)`` when the stored trace serves ``need``.

        ``need`` is the analysis instruction budget; None demands a
        complete trace.  A stored trace that is complete serves any
        budget, an incomplete one only budgets within its length.
        Corruption of any kind removes the file and reads as a miss.

        ``columns=True`` decodes straight into
        :class:`~repro.core.kernel.TraceColumns` for the columnar
        kernel, skipping per-record ``DynInst`` construction entirely.
        """
        with get_recorder().span("store.trace.get"):
            path = self.path_for(key)
            if columns:
                memo = self._columns_memo.get(key)
                if memo is not None and self._serves(memo[0], need):
                    try:
                        # The memo is content-addressed so the copy is
                        # always valid, but a read still goes through
                        # fault injection: a store whose disk reads are
                        # failing should degrade, not hide behind RAM.
                        fault_io("trace.read")
                    except InjectedFault as error:
                        self._read_error(error)
                        self._miss()
                        return None
                    self._columns_memo.pop(key)
                    self._memoize(key, memo)
                    self._hit()
                    get_recorder().count("store.trace.columns_memo", 1)
                    self._touch(path)
                    return memo
            try:
                fault_io("trace.read")
                if columns:
                    header, records = read_trace_columns(path)
                else:
                    header, records = read_trace(path)
            except FileNotFoundError:
                self._miss()
                return None
            except InjectedFault as error:
                # Transient I/O failure: leave the file, read as a miss.
                self._read_error(error)
                self._miss()
                return None
            except Exception as error:
                # Truncated/garbled/stale file: drop it, treat as a miss.
                self._corrupt(path, error)
                self._miss()
                return None
            if not self._serves(header, need):
                self._miss()
                return None
            self._hit()
            self._touch(path)
            if columns:
                self._memoize(key, (header, records))
            return header, records

    def _memoize(self, key: str, entry) -> None:
        self._columns_memo[key] = entry
        while len(self._columns_memo) > self.columns_memo_entries:
            self._columns_memo.pop(next(iter(self._columns_memo)))

    def memoize_columns(self, key: str, header: dict, columns) -> None:
        """Seed the columns memo with a freshly built object.

        Called by the runner right after a cold capture is persisted,
        so sibling configs replay the very object whose bank caches the
        first analysis already warmed.
        """
        self._memoize(key, (header, columns))

    def clear(self) -> int:
        self._columns_memo.clear()
        return super().clear()

    @staticmethod
    def _serves(header: dict, need: int | None) -> bool:
        if header.get("complete"):
            return True
        if need is None:
            return False
        return header.get("n_records", 0) >= need

    def put(self, key: str, records, n_static: int,
            complete: bool | None = None,
            workload: str | None = None) -> Path:
        """Atomically store ``records`` under ``key``; returns the path.

        Overwrites an existing trace — the caller only re-captures when
        the stored one could not serve, so the replacement is strictly
        longer.  ``workload`` annotates the header for ``cache info``'s
        fixed-vs-generated occupancy breakdown; it is not part of the
        content address.
        """
        with get_recorder().span("store.trace.put"):
            fault_io("trace.write")
            self._columns_memo.pop(key, None)
            # New content invalidates any segment index built over the
            # old bytes (get_segindex would also catch the n_records
            # mismatch, but only when lengths differ).
            try:
                self.path_for_segidx(key).unlink()
            except OSError:
                pass
            path = self.path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                self._publish(path, key, records, n_static, complete,
                              workload)
            except OSError as error:
                if not is_enospc(error):
                    raise
                get_recorder().count("store.trace.enospc", 1)
                _log.warning(
                    "store: trace write hit ENOSPC; evicting and "
                    "retrying once")
                self.evict_for_space()
                self._publish(path, key, records, n_static, complete,
                              workload)
            if maybe_fault("trace.corrupt"):
                # Injected bit rot: truncate the published file so the
                # next read must take the corruption-recovery path.
                self._rot(path)
            get_recorder().count("store.trace.puts", 1)
            self.evict()
            return path

    def _publish(self, path: Path, key: str, records, n_static: int,
                 complete: bool | None, workload: str | None) -> None:
        fault_enospc("store.enospc")
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        os.close(fd)
        try:
            save_trace(records, tmp_name, n_static, complete=complete,
                       workload=workload)
            os.replace(tmp_name, path)
        except BaseException:
            self._remove(Path(tmp_name))
            raise

    @staticmethod
    def _rot(path: Path) -> None:
        try:
            size = path.stat().st_size
            with open(path, "r+b") as handle:
                handle.truncate(max(1, size // 2))
        except OSError:
            pass
