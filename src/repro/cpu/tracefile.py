"""Dynamic-trace serialisation.

Traces are the interface between the substrate and the model, so they
are worth persisting: capture a workload's trace once, then re-analyse
it under different predictor configurations without re-simulating.
This is the bottom tier of the runner's two-tier cache (see
docs/runner.md); replay speed is what makes a warm trace store pay, so
the format is a compact binary one:

* the file is gzip-framed end to end (regardless of suffix);
* a fixed magic plus a JSON header carry the static facts the analyzer
  needs — instruction count, per-PC execution counts of the captured
  trace, a table of distinct (opcode, category, has_imm) triples — so
  records never repeat strings or enum values;
* each record is struct-packed with a *fixed* layout — a 23-byte head
  (uid, pc, flags, opcode table index, passthrough, output bits,
  target) plus 25 bytes per source — so decoding costs exactly two
  ``Struct.unpack_from`` calls per record; floats travel bit-exactly
  as the 64-bit pattern of their IEEE double, reinterpreted only when
  the float flag is set.

Integers travel as signed 64-bit fields and floats as IEEE doubles,
so values survive the round trip exactly *including their type* —
predictors compare values exactly and ``5 != 5.0`` for a last-value
hit streak.  v2 is the only format read or written: any other file
raises :class:`~repro.errors.ReproError`, which the trace store treats
as a corrupt entry (a miss).
"""

from __future__ import annotations

import gzip
import json
import os
import struct
from pathlib import Path

from repro.cpu.trace import DynInst, Source
from repro.errors import ReproError
from repro.obs import get_recorder
from repro.isa.opcodes import Category

#: Format identifier of the binary format written by :func:`save_trace`.
FORMAT = "repro-trace-v2"

#: Leading magic of a v2 payload (inside the gzip frame).
MAGIC = b"RPRT2BIN"

# Record head: uid, pc, flags, opcode-table index, passthrough (-1 =
# None), output bits (q; IEEE double pattern when the float flag is
# set), target (0 when absent).
_REC_HEAD = struct.Struct("<IIBBbqI")
# Per-source group: flags, value bits, producer, producer_pc, loc
# (producer fields are 0 when the produced flag is clear).
_SRC_FMT = "BqIIQ"
_SRC_GROUPS = [struct.Struct("<" + _SRC_FMT * n) for n in range(8)]
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

# Record-head flag bits.
_HAS_OUT = 0x01
_OUT_FLOAT = 0x02
_HAS_TAKEN = 0x04
_TAKEN = 0x08
_HAS_TARGET = 0x10
# bits 5-7: number of sources (0-7)
_NSRC_SHIFT = 5

# Per-source flag bits.
_SRC_MEM = 0x01
_SRC_PRODUCED = 0x02
_SRC_FLOAT = 0x04


def _open_read(path):
    """Binary read handle, transparently un-gzipping."""
    handle = open(path, "rb")
    magic = handle.read(2)
    handle.seek(0)
    if magic == b"\x1f\x8b":
        return gzip.open(handle, "rb")
    return handle


def save_trace(trace, path, n_static: int, complete: bool | None = None,
               workload: str | None = None) -> int:
    """Write ``trace`` (an iterable of :class:`DynInst`) to ``path``.

    ``complete`` records whether the iterable covered the workload's
    whole execution (None = unknown); the trace store uses it to decide
    replay eligibility.  ``workload`` annotates the header with the
    originating workload name (purely informational — it is not part
    of the content address; ``cache info`` uses it to break occupancy
    out fixed-vs-generated).  Returns the number of records written.
    """
    recorder = get_recorder()
    with recorder.span("trace.encode"):
        return _save_trace(trace, path, n_static, complete, workload,
                           recorder)


def _save_trace(trace, path, n_static: int, complete, workload,
                recorder) -> int:
    counts = [0] * max(n_static, 1)
    # Distinct (op, category value, has_imm) triples; records index it.
    op_table: dict[tuple[str, int, int], int] = {}
    pack_head = _REC_HEAD.pack
    pack_f64 = _F64.pack
    unpack_i64 = _I64.unpack
    body = bytearray()
    count = 0
    for dyn in trace:
        pc = dyn.pc
        srcs = dyn.srcs
        n_srcs = len(srcs)
        if n_srcs > 7:
            raise ReproError(
                f"cannot encode {n_srcs} sources (record flag budget is 7)"
            )
        if pc < len(counts):
            counts[pc] += 1
        entry = (dyn.op, int(dyn.category), 1 if dyn.has_imm else 0)
        op_index = op_table.setdefault(entry, len(op_table))
        if op_index > 0xFF:
            raise ReproError("opcode table overflow (more than 256 "
                             "distinct opcode/category combinations)")
        flags = n_srcs << _NSRC_SHIFT
        out = dyn.out
        if out is None:
            out_bits = 0
        elif isinstance(out, float):
            flags |= _HAS_OUT | _OUT_FLOAT
            (out_bits,) = unpack_i64(pack_f64(out))
        else:
            flags |= _HAS_OUT
            out_bits = out
        if dyn.taken is not None:
            flags |= _HAS_TAKEN
            if dyn.taken:
                flags |= _TAKEN
        target = dyn.target
        if target is None:
            target = 0
        else:
            flags |= _HAS_TARGET
        passthrough = -1 if dyn.passthrough is None else dyn.passthrough
        body += pack_head(dyn.uid, pc, flags, op_index, passthrough,
                          out_bits, target)
        if n_srcs:
            fields = []
            for src in srcs:
                src_flags = 0
                if src.is_mem:
                    src_flags |= _SRC_MEM
                value = src.value
                if isinstance(value, float):
                    src_flags |= _SRC_FLOAT
                    (value,) = unpack_i64(pack_f64(value))
                if src.producer is not None:
                    src_flags |= _SRC_PRODUCED
                    fields += (src_flags, value, src.producer,
                               src.producer_pc, src.loc)
                else:
                    fields += (src_flags, value, 0, 0, src.loc)
            body += _SRC_GROUPS[n_srcs].pack(*fields)
        count += 1
    header = json.dumps({
        "format": FORMAT,
        "n_static": n_static,
        "n_records": count,
        "complete": complete,
        "workload": workload,
        "counts": counts,
        "ops": [list(entry) for entry in op_table],
    }).encode()
    with gzip.open(path, "wb", compresslevel=1) as handle:
        handle.write(MAGIC)
        handle.write(_U32.pack(len(header)))
        handle.write(header)
        handle.write(bytes(body))
    recorder.count("trace.encode.records", count)
    recorder.count("trace.encode.bytes", len(body) + len(header))
    try:
        recorder.count("trace.encode.file_bytes", os.stat(path).st_size)
    except (OSError, TypeError):
        pass
    return count


def _read_header(handle, path) -> dict:
    if handle.read(len(MAGIC)) != MAGIC:
        raise ReproError(f"not a {FORMAT} file: {path}")
    (length,) = _U32.unpack(handle.read(4))
    try:
        header = json.loads(handle.read(length))
    except ValueError as error:
        raise ReproError(f"corrupt {FORMAT} header: {path}") from error
    if header.get("format") != FORMAT:
        raise ReproError(f"not a {FORMAT} file: {path}")
    return header


def trace_header(path) -> dict:
    """Read and validate the header of a trace file."""
    with _open_read(path) as handle:
        return _read_header(handle, path)


def load_trace(path):
    """Yield the :class:`DynInst` records stored in ``path``.

    Decode errors raise :class:`ReproError` — callers holding a cache
    treat that as a miss.  For the replay hot path prefer
    :func:`read_trace`, which returns the fully-decoded list.
    """
    with _open_read(path) as handle:
        header = _read_header(handle, path)
        records = _decode_v2(handle, header, path)
    yield from records


def read_trace(path) -> tuple[dict, list[DynInst]]:
    """Decode a whole trace file at once: ``(header, records)``.

    The replay fast path: one tight decode loop, no generator overhead.
    """
    with _open_read(path) as handle:
        header = _read_header(handle, path)
        return header, _decode_v2(handle, header, path)


def _decode_v2(handle, header, path) -> list[DynInst]:
    recorder = get_recorder()
    with recorder.span("trace.decode"):
        records = _decode_v2_body(handle, header, path)
    recorder.count("trace.decode.records", len(records))
    return records


def _decode_v2_body(handle, header, path) -> list[DynInst]:
    try:
        buf = handle.read()
    except (OSError, EOFError) as error:
        raise ReproError(f"truncated trace file: {path}") from error
    get_recorder().count("trace.decode.bytes", len(buf))
    ops = [
        (entry[0], Category(entry[1]), bool(entry[2]))
        for entry in header["ops"]
    ]
    n_records = header["n_records"]
    rec_head = _REC_HEAD.unpack_from
    src_groups = _SRC_GROUPS
    pack_i64 = _I64.pack
    unpack_f64 = _F64.unpack
    dyn_inst = DynInst
    source = Source
    records = []
    append = records.append
    pos = 0
    try:
        for _ in range(n_records):
            uid, pc, flags, op_index, passthrough, out_bits, target = \
                rec_head(buf, pos)
            pos += 23
            if flags & _HAS_OUT:
                if flags & _OUT_FLOAT:
                    (out,) = unpack_f64(pack_i64(out_bits))
                else:
                    out = out_bits
            else:
                out = None
            n_srcs = flags >> _NSRC_SHIFT
            if n_srcs:
                fields = src_groups[n_srcs].unpack_from(buf, pos)
                pos += 25 * n_srcs
                srcs = []
                for base in range(0, 5 * n_srcs, 5):
                    src_flags = fields[base]
                    value = fields[base + 1]
                    if src_flags & _SRC_FLOAT:
                        (value,) = unpack_f64(pack_i64(value))
                    if src_flags & _SRC_PRODUCED:
                        srcs.append(source(
                            value, fields[base + 2], fields[base + 3],
                            bool(src_flags & _SRC_MEM), fields[base + 4],
                        ))
                    else:
                        srcs.append(source(
                            value, None, None,
                            bool(src_flags & _SRC_MEM), fields[base + 4],
                        ))
                srcs = tuple(srcs)
            else:
                srcs = ()
            op, category, has_imm = ops[op_index]
            append(dyn_inst(
                uid, pc, op, category, has_imm, srcs,
                out,
                None if passthrough < 0 else passthrough,
                bool(flags & _TAKEN) if flags & _HAS_TAKEN else None,
                target if flags & _HAS_TARGET else None,
            ))
    except (struct.error, IndexError, TypeError) as error:
        raise ReproError(f"truncated trace file: {path}") from error
    return records


def read_trace_columns(path):
    """Decode a whole trace file into columns: ``(header, columns)``.

    The columnar engine's replay fast path: the v2 byte stream is
    parsed straight into :class:`~repro.core.kernel.TraceColumns` flat
    arrays without materialising a ``DynInst`` per record.  Decode
    errors raise :class:`ReproError`, same as :func:`read_trace`.
    """
    from repro.core.kernel import TraceColumns

    recorder = get_recorder()
    with _open_read(path) as handle:
        header = _read_header(handle, path)
        with recorder.span("trace.decode"):
            try:
                buf = handle.read()
            except (OSError, EOFError) as error:
                raise ReproError(
                    f"truncated trace file: {path}"
                ) from error
            recorder.count("trace.decode.bytes", len(buf))
            columns = TraceColumns.from_v2(buf, header, path=path)
    recorder.count("trace.decode.records", columns.n_records)
    recorder.count("trace.decode.columnar", 1)
    return header, columns


def read_trace_raw(path) -> tuple[dict, bytes]:
    """Read a v2 trace's header and **undecoded** body bytes.

    The segment-parallel path (:mod:`repro.core.shard`) un-gzips once
    in the parent and lets each worker decode only its own byte range
    — decode is the dominant serial cost, so it must happen in the
    workers.
    """
    recorder = get_recorder()
    with _open_read(path) as handle:
        header = _read_header(handle, path)
        try:
            body = handle.read()
        except (OSError, EOFError) as error:
            raise ReproError(f"truncated trace file: {path}") from error
    recorder.count("trace.decode.bytes", len(body))
    return header, body


def analyze_trace_file(path, name=None, config=None, profile_counts=None,
                       stored_profile: bool = False):
    """Analyse a saved trace end to end.

    ``stored_profile=True`` feeds the trace's recorded per-PC execution
    counts to the analyzer as profile counts, so write-once generates
    classify exactly without the separate profiling pass a live
    two-pass run needs.  (The default keeps the single-pass
    count-so-far approximation, matching direct simulation.)
    """
    from repro.core.analysis import analyze_trace

    header = trace_header(path)
    if stored_profile and profile_counts is None:
        profile_counts = header.get("counts")
    return analyze_trace(
        load_trace(path),
        header["n_static"],
        name=name or Path(path).stem,
        config=config,
        profile_counts=profile_counts,
    )
