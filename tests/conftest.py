"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.asm import assemble
from repro.core.kernel import TraceColumns
from repro.core.shard import (
    _segment_task,
    build_index,
    default_family,
    plan_bounds,
    prepare_file_segments,
)
from repro.cpu import Machine
from repro.cpu.tracefile import read_trace_columns, save_trace
from repro.minic import compile_program
from repro.runner import reset_default_runner


def run_asm(source: str, input_words=None, input_floats=None,
            max_instructions: int = 2_000_000):
    """Assemble and run ``source``; return the finished Machine."""
    program = assemble(source)
    machine = Machine(
        program,
        input_words=input_words,
        input_floats=input_floats,
        max_instructions=max_instructions,
        tracing=False,
    )
    machine.run()
    return machine


def trace_asm(source: str, input_words=None, input_floats=None,
              max_instructions: int = 2_000_000):
    """Assemble and run ``source`` with tracing; return (machine, trace)."""
    program = assemble(source)
    machine = Machine(
        program,
        input_words=input_words,
        input_floats=input_floats,
        max_instructions=max_instructions,
    )
    records = list(machine.trace())
    return machine, records


def run_minic(source: str, input_words=None, input_floats=None,
              max_instructions: int = 5_000_000):
    """Compile and run mini-C ``source``; return the program's output."""
    program = compile_program(source)
    machine = Machine(
        program,
        input_words=input_words,
        input_floats=input_floats,
        max_instructions=max_instructions,
        tracing=False,
    )
    machine.run()
    return machine.output


def analyze_segmented(records, n_static: int, config, directory,
                      segments: int = 2, bounds=None, name: str = "trace",
                      profile_counts=None):
    """Analyse ``records`` through the runner's segment-parallel path.

    The production pipeline with the pool replaced by an in-order
    loop: ``save_trace`` writes the config's budget of records as a
    trace file under ``directory``, ``build_index`` checkpoints them at
    ``bounds`` (default: ``segments`` near-equal spans) for the
    config's own predictor family, ``prepare_file_segments`` plans the
    tasks, each ``_segment_task`` decodes its record range with
    ``decode_columns`` (block slices), and ``SegmentMerge`` folds the
    payloads.  A budget too small for two segments raises the
    planner's ``ShardError``.
    """
    budget = config.max_instructions
    records = records if budget is None else records[:budget]
    path = Path(directory) / "segmented.trace.gz"
    save_trace(TraceColumns.from_records(records, n_static), path,
               complete=True, workload=name)
    __, columns = read_trace_columns(path)
    if bounds is None:
        bounds = plan_bounds(columns.n_records, segments)
    index = build_index(columns, bounds, *default_family(config))
    task_args, merge = prepare_file_segments(
        path, config, index, segments, name=name,
        profile_counts=profile_counts)
    for args in task_args:
        merge.add(_segment_task(*args))
    return merge.finalize()


@pytest.fixture
def isolated_default_store(tmp_path, monkeypatch):
    """A default runner over a store of the test's own, never the
    checkout's ``.repro-cache/`` (CI fails if the suite leaves one)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-cache"))
    reset_default_runner()
    yield
    reset_default_runner()


@pytest.fixture
def gcc_loop_source() -> str:
    """The paper's Fig. 1 loop (126.gcc, invalidate_for_call), adapted
    to this repo's assembler syntax."""
    return """
        .data
regs_ever_live:   .word 0x8000bfff, 0xfffffff0
        .text
__start:
        add  $6, $0, $0
LL1:    srl  $2, $6, 5
        sll  $2, $2, 2
        la   $19, regs_ever_live
        addu $2, $2, $19
        lw   $2, 0($2)
        andi $3, $6, 31
        srlv $2, $2, $3
        andi $2, $2, 1
        beq  $2, $0, LL2
        nop
LL2:    addiu $6, $6, 1
        slti $2, $6, 64
        bne  $2, $0, LL1
        halt
"""
