"""Tests for trace serialisation."""

from itertools import islice

import pytest

from repro.asm import assemble
from repro.core import AnalysisConfig, analyze_machine
from repro.core.kernel import TraceColumns
from repro.cpu import Machine
from repro.cpu.tracefile import (
    analyze_trace_file,
    read_trace_columns,
    save_trace,
    trace_header,
)
from repro.errors import ReproError

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
