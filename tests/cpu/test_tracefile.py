"""Tests for trace serialisation."""

import struct
from itertools import islice

import pytest

from repro.asm import assemble
from repro.core import AnalysisConfig, analyze_machine
from repro.core.kernel import TraceColumns
from repro.cpu import Machine
from repro.cpu.trace import DynInst, Source
from repro.cpu.tracefile import (
    analyze_trace_file,
    decode_columns,
    read_trace_columns,
    read_trace_raw,
    save_trace,
    trace_header,
)
from repro.errors import ReproError
from repro.isa.opcodes import Category

SOURCE = """
        .data
v:      .double 1.5
w:      .word 7
        .text
__start:
        li   $s0, 0
loop:   l.d  $f4, v
        lw   $t0, w
        addu $s0, $s0, $t0
        add.d $f6, $f4, $f4
        slti $t1, $s0, 70
        bne  $t1, $zero, loop
        halt
"""


@pytest.fixture()
def trace_path(tmp_path):
    program = assemble(SOURCE)
    machine = Machine(program)
    path = tmp_path / "run.trace"
    columns = TraceColumns.from_records(machine.trace(),
                                        len(program.instructions))
    count = save_trace(columns, path)
    assert count == machine.uid
    return path


def _records(path):
    return read_trace_columns(path)[1].to_records()


class TestRoundTrip:
    def test_header(self, trace_path):
        header = trace_header(trace_path)
        assert header["n_static"] == len(assemble(SOURCE).instructions)

    def test_records_identical(self, trace_path):
        machine = Machine(assemble(SOURCE))
        original = list(machine.trace())
        loaded = _records(trace_path)
        assert len(loaded) == len(original)
        for fresh, stored in zip(original, loaded):
            assert fresh.uid == stored.uid
            assert fresh.pc == stored.pc
            assert fresh.op == stored.op
            assert fresh.category == stored.category
            assert fresh.srcs == stored.srcs
            assert fresh.out == stored.out
            assert fresh.taken == stored.taken

    def test_floats_exact(self, trace_path):
        loaded = _records(trace_path)
        fp_values = [
            dyn.out for dyn in loaded if isinstance(dyn.out, float)
        ]
        assert 3.0 in fp_values  # add.d result 1.5 + 1.5
        assert all(isinstance(v, float) for v in fp_values)

    def test_analysis_matches_fresh(self, trace_path):
        config = AnalysisConfig(trees_for=())
        from_file = analyze_trace_file(trace_path, "x", config)
        fresh = analyze_machine(Machine(assemble(SOURCE)), "x", config)
        assert from_file.nodes == fresh.nodes
        assert from_file.arcs == fresh.arcs
        for kind in fresh.predictors:
            assert (
                from_file.predictors[kind].nodes.by_class_name()
                == fresh.predictors[kind].nodes.by_class_name()
            )

    def test_gzip_round_trip(self, tmp_path):
        program = assemble(SOURCE)
        machine = Machine(program)
        path = tmp_path / "run.trace.gz"
        save_trace(TraceColumns.from_records(
            islice(machine.trace(), 50), len(program.instructions)), path)
        assert read_trace_columns(path)[1].n_records == 50

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "junk.trace"
        path.write_text('{"format": "nope"}\n')
        with pytest.raises(ReproError, match="not a repro-trace"):
            trace_header(path)
        with pytest.raises(ReproError):
            read_trace_columns(path)


class TestSharedPcInts:
    """Decoded pcs are shared int objects: each distinct PC is one
    object, however many records or arcs carry it.  The PCs sit past
    CPython's small-int cache and the records outnumber ``N_STATIC``,
    so a per-element copy would show."""

    N_STATIC = 400
    PCS = range(300, 310)

    @pytest.fixture()
    def raw(self, tmp_path):
        records = []
        for uid in range(3 * self.N_STATIC):
            pc = self.PCS[uid % len(self.PCS)]
            srcs = [Source(uid, uid - 1, self.PCS[(uid - 1) % 10])
                    for __ in range(min(uid, 3))]
            srcs.append(Source(7, None, None, False, 2))
            records.append(DynInst(
                uid=uid, pc=pc, op="addu", category=Category.ALU,
                has_imm=False, srcs=tuple(srcs), out=uid))
        path = tmp_path / "shared.trace"
        save_trace(TraceColumns.from_records(records, self.N_STATIC), path)
        return read_trace_raw(path)

    @staticmethod
    def _distinct(values) -> int:
        return len({id(value) for value in values})

    def _check(self, columns):
        assert self._distinct(columns.pc) <= self.N_STATIC
        assert self._distinct(columns.src_ppc) <= self.N_STATIC
        assert self._distinct(columns.in_key) <= 4 * self.N_STATIC
        assert columns.in_key == [
            (pc << 2) | slot for pc, k in zip(columns.pc, columns.nsrc)
            for slot in range(k)]

    def test_whole_decode_shares_pcs(self, raw):
        header, body = raw
        columns = decode_columns(body, header)
        assert set(columns.pc) == set(self.PCS)
        self._check(columns)

    def test_range_decode_shares_pcs(self, raw):
        header, body = raw
        whole = decode_columns(body, header)
        r0, r1 = 101, 1033
        arc0 = sum(whole.nsrc[:r0])
        part = decode_columns(body, header, r0, r1, arc0)
        assert part.pc == whole.pc[r0:r1]
        self._check(part)

    def test_pc_beyond_n_static_is_corrupt(self, raw):
        header, body = raw
        # Records 5-9 run at pcs 305-309.
        short = dict(header, n_static=305)
        with pytest.raises(ReproError, match="n_static"):
            decode_columns(body, short)
        with pytest.raises(ReproError, match="n_static"):
            decode_columns(body, short, 5, 10, 14)
        assert decode_columns(body, short, 0, 5, 0).n_records == 5

    def test_producer_pc_beyond_n_static_is_corrupt(self, raw):
        header, body = raw
        # The producer-pc block follows the record blocks (17 bytes a
        # record) and three arc blocks (flags, value bits, producer).
        at = header["n_records"] * 17 + header["n_arcs"] * 13
        bad = body[:at] + struct.pack("<I", self.N_STATIC) + body[at + 4:]
        with pytest.raises(ReproError, match="n_static"):
            decode_columns(bad, header)
