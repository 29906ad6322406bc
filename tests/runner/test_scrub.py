"""Store scrubbing: seeded corruption is quarantined, never deleted."""

import json

import pytest

from repro.cpu.trace import DynInst, Source
from repro.isa.opcodes import Category
from repro.runner import ResultStore, TraceStore
from repro.runner.scrub import QUARANTINE_DIR, scrub_store

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62
KEY_C = "cc" + "0" * 62
KEY_D = "dd" + "0" * 62


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


def seed_store(root):
    """One valid result+trace pair (KEY_A) in each tier."""
    results = ResultStore(root)
    traces = TraceStore(root)
    results.put(KEY_A, {"name": "com", "nodes": 4})
    traces.put(KEY_A, _records(5), n_static=8, complete=True)
    return results, traces


def seed_corruption(results, traces):
    """Four distinct kinds of rot across all three tiers."""
    # 1. Garbled result envelope (torn write).
    torn = results.put(KEY_B, {"name": "go"})
    torn.write_text(torn.read_text()[:25])
    # 2. Truncated trace (bad gzip framing).
    rotten = traces.put(KEY_B, _records(20), n_static=8, complete=True)
    rotten.write_bytes(rotten.read_bytes()[:30])
    # 3. Orphaned segment-index sidecar: no trace beside it.
    orphan = traces.path_for_segidx(KEY_C)
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_bytes(b"whatever")
    # 4. Key mismatch: a valid envelope filed under the wrong name.
    wrong = results.path_for(KEY_D)
    wrong.parent.mkdir(parents=True, exist_ok=True)
    wrong.write_text(results.path_for(KEY_A).read_text())
    return {("result", KEY_B), ("trace", KEY_B),
            ("segidx", KEY_C), ("result", KEY_D)}


class TestCleanStore:
    def test_clean_store_reports_clean(self, tmp_path):
        seed_store(tmp_path)
        report = scrub_store(tmp_path)
        assert report.clean
        assert report.quarantined == 0
        assert report.checked == {"result": 1, "trace": 1, "segidx": 0}

    def test_valid_sidecar_is_not_a_finding(self, tmp_path):
        __, traces = seed_store(tmp_path)
        from repro.core.kernel import TraceColumns
        from repro.core.shard import build_index

        columns = TraceColumns.from_records(_records(5), 8)
        index = build_index(columns, [0, 2, 5])
        assert traces.put_segindex(KEY_A, index) is not None
        report = scrub_store(tmp_path)
        assert report.clean
        assert report.checked["segidx"] == 1


class TestQuarantine:
    def test_every_seeded_corruption_is_quarantined(self, tmp_path):
        results, traces = seed_store(tmp_path)
        expected = seed_corruption(results, traces)
        report = scrub_store(tmp_path)
        assert {(f.tier, f.key) for f in report.findings} == expected
        for finding in report.findings:
            assert finding.quarantined_to is not None
            destination = tmp_path / QUARANTINE_DIR / finding.tier
            assert (destination / finding.path.rsplit("/", 1)[-1]).exists()
            assert not (tmp_path / finding.path).exists()

    def test_valid_entries_survive_and_rerun_is_clean(self, tmp_path):
        results, traces = seed_store(tmp_path)
        seed_corruption(results, traces)
        scrub_store(tmp_path)
        # The good entries never moved and still read back.
        assert results.get(KEY_A) == {"name": "com", "nodes": 4}
        header, columns = traces.get(KEY_A, None)
        assert columns.n_records == 5
        # A second pass over the scrubbed store finds nothing.
        rerun = scrub_store(tmp_path)
        assert rerun.clean

    def test_audit_mode_reports_but_leaves_files(self, tmp_path):
        results, traces = seed_store(tmp_path)
        expected = seed_corruption(results, traces)
        report = scrub_store(tmp_path, quarantine=False)
        assert {(f.tier, f.key) for f in report.findings} == expected
        assert report.quarantined == 0
        for finding in report.findings:
            assert (tmp_path / finding.path).exists() or \
                finding.path.startswith(str(tmp_path))
        # Nothing moved: a real scrub afterwards still finds it all.
        assert not scrub_store(tmp_path).clean


class TestReport:
    def test_report_is_appending_jsonl(self, tmp_path):
        results, traces = seed_store(tmp_path)
        seed_corruption(results, traces)
        report = scrub_store(tmp_path)
        assert report.report_path is not None
        lines = [json.loads(line) for line in
                 open(report.report_path).read().splitlines()]
        summary, findings = lines[0], lines[1:]
        assert summary["scrub"] == 1
        assert summary["findings"] == len(report.findings) == \
            len(findings)
        assert {f["tier"] for f in findings} == \
            {"result", "trace", "segidx"}
        # The rerun appends its (clean) summary to the same file.
        scrub_store(tmp_path)
        lines2 = open(report.report_path).read().splitlines()
        assert len(lines2) == len(lines) + 1
        assert json.loads(lines2[-1])["clean"] is True

    def test_to_dict_round_trips_through_json(self, tmp_path):
        seed_store(tmp_path)
        report = scrub_store(tmp_path)
        decoded = json.loads(json.dumps(report.to_dict()))
        assert decoded["clean"] is True
        assert decoded["checked"]["result"] == 1


class TestScrubCli:
    def test_cli_exit_codes_and_rerun(self, tmp_path, capsys):
        from repro.cli import main

        results, traces = seed_store(tmp_path)
        seed_corruption(results, traces)
        argv = ["cache", "scrub", "--cache-dir", str(tmp_path)]
        assert main(argv) != 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert main(argv) == 0
        assert "clean" in capsys.readouterr().out
