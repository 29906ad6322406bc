"""Trace store: replay adequacy, corruption recovery, LRU bounding."""

import gzip
import json
import os
import struct

from repro.cpu.trace import DynInst, Source
from repro.isa.opcodes import Category
from repro.runner.tracestore import TraceStore

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62


def _records(n, pc=3):
    out = []
    for uid in range(n):
        out.append(DynInst(
            uid=uid, pc=pc, op="addi", category=Category.ALU,
            has_imm=True,
            srcs=(Source(uid, uid - 1 if uid else None,
                         pc if uid else None, False, 0),),
            out=uid + 1,
        ))
    return out


class TestStoreBasics:
    def test_miss_then_hit(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.get(KEY_A, 2) is None
        store.put(KEY_A, _records(5), n_static=8, complete=True)
        header, columns = store.get(KEY_A, 2)
        assert columns.to_records() == _records(5)
        assert header["n_static"] == 8
        assert store.hits == 1 and store.misses == 1

    def test_put_memoizes_and_a_fresh_store_decodes(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(KEY_A, _records(5), n_static=8, complete=True)
        __, memo = store.get(KEY_A, 2)
        assert store.get(KEY_A, 2)[1] is memo
        header, decoded = TraceStore(tmp_path).get(KEY_A, 2)
        assert decoded is not memo
        assert decoded.to_records() == _records(5)
        assert header["n_records"] == 5 and header["n_arcs"] == 5

    def test_another_key_empties_the_slot(self, tmp_path):
        """The store holds one decoded trace: a get or a put of key B
        drops key A's columns, so A's next get decodes anew."""
        store = TraceStore(tmp_path)
        store.put(KEY_A, _records(5), n_static=8, complete=True)
        store.put(KEY_B, _records(4), n_static=8, complete=True)
        __, first = store.get(KEY_A, 2)
        store.get(KEY_B, 2)
        __, second = store.get(KEY_A, 2)
        assert second is not first
        store.put(KEY_B, _records(6), n_static=8, complete=True)
        __, third = store.get(KEY_A, 2)
        assert third is not second
        assert third.to_records() == _records(5)

    def test_header_reports_counts_and_completeness(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(KEY_A, _records(4), n_static=6, complete=False)
        header = store.header(KEY_A)
        assert header["n_records"] == 4
        assert header["complete"] is False
        assert header["counts"][3] == 4
        assert store.header(KEY_B) is None

    def test_results_and_traces_do_not_collide(self, tmp_path):
        # Both tiers share one root directory in the default layout.
        from repro.runner import ResultStore

        results = ResultStore(tmp_path)
        traces = TraceStore(tmp_path)
        results.put(KEY_A, {"x": 1})
        traces.put(KEY_A, _records(2), n_static=4, complete=True)
        assert len(results.entries()) == 1
        assert len(traces.entries()) == 1
        assert results.get(KEY_A) == {"x": 1}


class TestAdequacy:
    """A stored trace only replays when it covers the requested budget."""

    def test_complete_trace_serves_any_budget(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(KEY_A, _records(5), n_static=8, complete=True)
        assert store.get(KEY_A, 1_000_000) is not None
        assert store.get(KEY_A, None) is not None

    def test_incomplete_trace_serves_only_shorter_budgets(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(KEY_A, _records(5), n_static=8, complete=False)
        assert store.get(KEY_A, 5) is not None
        assert store.get(KEY_A, 6) is None
        assert store.get(KEY_A, None) is None

    def test_recapture_overwrites(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(KEY_A, _records(3), n_static=8, complete=False)
        store.put(KEY_A, _records(7), n_static=8, complete=True)
        header, columns = store.get(KEY_A, None)
        assert columns.n_records == 7
        assert len(store.entries()) == 1


def _rewrite_body(path, edit):
    """Re-frame a stored trace with ``edit`` applied to its body."""
    raw = gzip.decompress(path.read_bytes())
    (length,) = struct.unpack_from("<I", raw, 8)
    head = raw[:12 + length]
    path.write_bytes(gzip.compress(head + edit(raw[12 + length:])))


class TestCorruption:
    """Corrupt files are read through a fresh store: the one that wrote
    a trace serves it from its columns memo without reading the file."""

    def test_truncated_file_is_a_miss_and_removed(self, tmp_path):
        path = TraceStore(tmp_path).put(KEY_A, _records(50), n_static=8,
                                        complete=True)
        path.write_bytes(path.read_bytes()[:40])
        assert TraceStore(tmp_path).get(KEY_A, 1) is None
        assert not path.exists()

    def test_body_one_byte_short_is_a_miss_and_removed(self, tmp_path):
        path = TraceStore(tmp_path).put(KEY_A, _records(50), n_static=8,
                                        complete=True)
        _rewrite_body(path, lambda body: body[:-1])
        assert TraceStore(tmp_path).get(KEY_A, 1) is None
        assert not path.exists()

    def test_body_one_byte_long_is_a_miss_and_removed(self, tmp_path):
        path = TraceStore(tmp_path).put(KEY_A, _records(50), n_static=8,
                                        complete=True)
        _rewrite_body(path, lambda body: body + b"\x00")
        assert TraceStore(tmp_path).get(KEY_A, 1) is None
        assert not path.exists()

    def test_v2_file_is_corrupt_and_a_miss(self, tmp_path):
        """The retired record-packed v2 format is not read back: a v2
        file under a key is dropped as corrupt and counts a miss."""
        store = TraceStore(tmp_path)
        path = store.path_for(KEY_A)
        path.parent.mkdir(parents=True)
        header = json.dumps({
            "format": "repro-trace-v2", "n_static": 8, "n_records": 1,
            "complete": True, "counts": [0, 0, 0, 1, 0, 0, 0, 0],
            "ops": [["addi", int(Category.ALU), 1]],
        }).encode()
        record = struct.pack("<IIBBbqI", 0, 3, 0x01, 0, -1, 1, 0)
        path.write_bytes(gzip.compress(
            b"RPRT2BIN" + struct.pack("<I", len(header)) + header
            + record))
        assert store.get(KEY_A, 1) is None
        assert store.hits == 0 and store.misses == 1
        assert not path.exists()

    def test_garbage_file_is_a_miss_and_removed(self, tmp_path):
        store = TraceStore(tmp_path)
        path = store.path_for(KEY_A)
        path.parent.mkdir(parents=True)
        path.write_bytes(gzip.compress(b"not a trace at all"))
        assert store.get(KEY_A, 1) is None
        assert not path.exists()
        assert store.header(KEY_A) is None

    def test_v1_file_is_corrupt_and_a_miss(self, tmp_path):
        """The retired JSON-lines v1 format is not read back: a v1 file
        under a key is dropped as corrupt and counts a miss."""
        import json

        store = TraceStore(tmp_path)
        path = store.path_for(KEY_A)
        path.parent.mkdir(parents=True)
        header = {"format": "repro-trace-v1", "n_static": 8,
                  "n_records": 1, "complete": True}
        record = [0, 3, "addi", int(Category.ALU), 1, [], 1, None, None,
                  None]
        path.write_bytes(gzip.compress(
            (json.dumps(header) + "\n" + json.dumps(record) + "\n")
            .encode()))
        assert store.get(KEY_A, 1) is None
        assert store.hits == 0 and store.misses == 1
        assert not path.exists()

    def test_pc_beyond_n_static_is_a_miss_and_removed(self, tmp_path):
        # The first body block holds each record's pc (u32).
        path = TraceStore(tmp_path).put(KEY_A, _records(50), n_static=8,
                                        complete=True)
        _rewrite_body(path, lambda body: struct.pack("<I", 8) + body[4:])
        store = TraceStore(tmp_path)
        assert store.get(KEY_A, 1) is None
        assert store.hits == 0 and store.misses == 1
        assert not path.exists()

    def test_short_but_valid_trace_is_not_removed(self, tmp_path):
        store = TraceStore(tmp_path)
        path = store.put(KEY_A, _records(3), n_static=8, complete=False)
        assert store.get(KEY_A, 100) is None
        assert path.exists()


class TestEviction:
    def test_lru_bounded(self, tmp_path):
        store = TraceStore(tmp_path, max_bytes=1)
        store.put(KEY_A, _records(10), n_static=8, complete=True)
        first = store.path_for(KEY_A)
        os.utime(first, (1, 1))
        store.put(KEY_B, _records(10), n_static=8, complete=True)
        assert not first.exists()
        assert store.get(KEY_B, 1) is not None

    def test_clear(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(KEY_A, _records(2), n_static=4, complete=True)
        store.put(KEY_B, _records(2), n_static=4, complete=True)
        assert store.clear() == 2
        assert store.entries() == []


class _FakeIndex:
    def to_bytes(self) -> bytes:
        return b"fake-index-bytes"


class TestSegidxLifecycle:
    """Sidecars are pure derived data: never orphaned, never load-bearing."""

    def test_put_refuses_to_publish_an_orphan(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.put_segindex(KEY_A, _FakeIndex()) is None
        assert store.segidx_entries() == []

    def test_eviction_cascades_to_the_sidecar(self, tmp_path):
        store = TraceStore(tmp_path, max_bytes=1)
        store.put(KEY_A, _records(10), n_static=8, complete=True)
        sidecar = store.path_for_segidx(KEY_A)
        sidecar.write_bytes(b"x")
        os.utime(store.path_for(KEY_A), (1, 1))
        store.put(KEY_B, _records(10), n_static=8, complete=True)
        assert not store.path_for(KEY_A).exists()
        assert not sidecar.exists()

    def test_orphans_are_listed_and_swept(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(KEY_A, _records(3), n_static=4, complete=True)
        live = store.path_for_segidx(KEY_A)
        live.write_bytes(b"x")
        # Vandalise: remove KEY_B's trace behind the store's back.
        store.put(KEY_B, _records(3), n_static=4, complete=True)
        orphan = store.path_for_segidx(KEY_B)
        orphan.write_bytes(b"y")
        os.unlink(store.path_for(KEY_B))
        assert store.orphan_segidx() == [orphan]
        assert store.sweep_orphan_segidx() == 1
        assert not orphan.exists()
        assert live.exists()            # the live sidecar is untouched
        assert store.sweep_orphan_segidx() == 0


class TestSlotUnderThreads:
    def test_threads_never_get_another_keys_columns(self, tmp_path):
        """Batch threads share one store: racing gets of two keys may
        each decode, but none may see the other key's columns."""
        import sys
        import threading

        store = TraceStore(tmp_path)
        store.put(KEY_A, _records(5, pc=3), n_static=8, complete=True)
        store.put(KEY_B, _records(7, pc=5), n_static=8, complete=True)
        errors = []

        def reader(key, n_records):
            for __ in range(60):
                __, columns = store.get(key, 1)
                if columns.n_records != n_records:
                    errors.append(f"{key[:2]}: {columns.n_records}")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=args)
                       for args in [(KEY_A, 5), (KEY_B, 7)] * 3]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestSweepReadsEachTraceOnce:
    """A sweep reads each trace once, so one slot serves it whole."""

    def test_serial_sweep_decodes_each_trace_once(self, tmp_path):
        from repro.obs import Recorder, recording
        from repro.runner import (ExperimentConfig, ExperimentRunner,
                                  ResultStore, trace_key)

        budget = 1_200
        names = ("com", "go")
        configs = [
            ExperimentConfig(workloads=names, max_instructions=budget),
            ExperimentConfig(workloads=names, max_instructions=budget,
                             predictors=("last",), trees_for=()),
        ]
        ExperimentRunner(trace_store=TraceStore(tmp_path / "cache"),
                         store=None).run(configs[0]).require()
        store = TraceStore(tmp_path / "cache")
        runs = ExperimentRunner(
            store=ResultStore(tmp_path / "results"), trace_store=store,
            observe=True).run_many(configs)
        assert all(metric.status == "replayed"
                   for run in runs for metric in run.metrics.jobs)
        counters = runs[0].metrics.profile["counters"]
        assert counters["trace.decode.records"] == budget * len(names)
        first, last = (trace_key(name) for name in names)
        with recording(Recorder()) as rec:
            store.get(last, budget)
            assert "trace.decode.records" not in rec.snapshot()["counters"]
            store.get(first, budget)
            assert rec.snapshot()["counters"]["trace.decode.records"] == \
                budget
