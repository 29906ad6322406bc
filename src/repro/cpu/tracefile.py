"""Dynamic-trace serialisation (format v3: column blocks).

Traces are the interface between the substrate and the model, so they
are worth persisting: capture a workload's trace once, then re-analyse
it under different predictor configurations without re-simulating.
This is the bottom tier of the runner's two-tier cache (see
docs/runner.md).  A trace has one form after the machine,
:class:`~repro.core.kernel.TraceColumns`, and the file stores that
form's primary columns (the ones its constructor takes) as they
are:

* the file is gzip-framed end to end (regardless of suffix);
* a fixed magic plus a JSON header carry the static facts — static
  instruction count, record and arc counts (``n_records``,
  ``n_arcs``), per-PC execution counts of the captured trace, a table
  of distinct (opcode, category, has_imm) triples;
* the body is one fixed-width little-endian block per column, all
  record blocks first (``pc`` u32, ``op_index`` u8, ``passthrough``
  i8, ``taken`` u8, ``nsrc`` u8, out kind u8 — none/int/float — and
  out bits i64), then the arc blocks (flags u8 — mem/produced/float —
  value bits i64, producer u32, producer pc u32, loc u64).  Encoding
  is one ``array.tobytes`` per column and decoding one ``frombytes``
  per block; a record range ``[r0, r1)`` whose first arc is known is
  a slice of every block, which is how segment workers read their
  share (:mod:`repro.core.shard`).

Floats travel as the 64-bit pattern of their IEEE double, so values
survive the round trip exactly *including their type* — predictors
compare values exactly and ``5 != 5.0`` for a last-value hit streak.
A record's ``uid`` is not stored (it is always the record index), nor
is a branch's ``target`` (no analysis reads it).

v3 is the only format read or written: any other file, and any body
whose length disagrees with its header's counts, raises
:class:`~repro.errors.ReproError`, which the trace store treats as a
corrupt entry (a miss).
"""

from __future__ import annotations

import gzip
import json
import os
import struct
import sys
from array import array
from itertools import compress
from pathlib import Path

from repro.core.kernel.columns import TraceColumns
from repro.errors import ReproError
from repro.isa.opcodes import Category
from repro.obs import get_recorder

#: Format identifier of the binary format written by :func:`save_trace`.
FORMAT = "repro-trace-v3"

#: Leading magic of a v3 payload (inside the gzip frame).
MAGIC = b"RPRT3BIN"

_U32 = struct.Struct("<I")

#: Array typecodes of the record blocks and of the arc blocks, in file
#: order (see the module doc).
_RECORD_CODES = "IBbBBBq"
_ARC_CODES = "BqIIQ"
_RECORD_WIDTH = sum(array(code).itemsize for code in _RECORD_CODES)
_ARC_WIDTH = sum(array(code).itemsize for code in _ARC_CODES)

#: Blocks are little-endian; arrays are native.
_SWAP = sys.byteorder != "little"

# Out kinds.
_OUT_NONE = 0
_OUT_INT = 1
_OUT_FLOAT = 2

# Arc flag bits.
_ARC_MEM = 0x01
_ARC_PRODUCED = 0x02
_ARC_FLOAT = 0x04


def _table(pick) -> bytes:
    """A ``bytes.translate`` table: byte -> 1 where ``pick(byte)``."""
    return bytes(1 if pick(byte) else 0 for byte in range(256))


_KIND_NONE = _table(lambda kind: kind == _OUT_NONE)
_KIND_FLOAT = _table(lambda kind: kind == _OUT_FLOAT)
_FLAG_MEM = _table(lambda flags: flags & _ARC_MEM)
_FLAG_D = _table(lambda flags: not flags & _ARC_PRODUCED)
_FLAG_FLOAT = _table(lambda flags: flags & _ARC_FLOAT)


def _open_read(path):
    """Binary read handle, transparently un-gzipping."""
    handle = open(path, "rb")
    magic = handle.read(2)
    handle.seek(0)
    if magic == b"\x1f\x8b":
        return gzip.open(handle, "rb")
    return handle


# ----------------------------------------------------------------------
# Encoding.
# ----------------------------------------------------------------------

def _bits(values, floats: bytes) -> list:
    """``values`` as i64 bit patterns: ints as themselves, None as 0,
    and the floats ``floats`` marks as their IEEE double pattern."""
    at = list(compress(range(len(values)), floats))
    if at:
        values = list(values)
        doubles = array("d", [values[i] for i in at])
        for i, pattern in zip(at, array("q", doubles.tobytes())):
            values[i] = pattern
    return [0 if value is None else value for value in values]


def _blocks(columns: TraceColumns):
    """Yield the body blocks of ``columns`` in file order, one
    ``(typecode, values)`` at a time (so each list built here is
    dropped before the next)."""
    yield "I", columns.pc
    yield "B", columns.op_index
    yield "b", columns.passthrough
    yield "B", columns.taken
    yield "B", columns.nsrc
    outs = columns.out
    kinds = bytes(
        _OUT_NONE if value is None
        else (_OUT_FLOAT if value.__class__ is float else _OUT_INT)
        for value in outs
    )
    yield "B", kinds
    yield "q", _bits(outs, kinds.translate(_KIND_FLOAT))
    values = columns.src_value
    prods = columns.src_prod
    flags = bytes(
        mem | (0 if producer < 0 else _ARC_PRODUCED)
        | (_ARC_FLOAT if value.__class__ is float else 0)
        for mem, producer, value in zip(columns.src_mem, prods, values)
    )
    yield "B", flags
    yield "q", _bits(values, flags.translate(_FLAG_FLOAT))
    yield "I", [0 if producer < 0 else producer for producer in prods]
    yield "I", columns.src_ppc
    yield "Q", columns.src_loc


def header_for(columns: TraceColumns, complete: bool | None = None,
               workload: str | None = None) -> dict:
    """The header :func:`save_trace` writes for ``columns``."""
    return {
        "format": FORMAT,
        "n_static": columns.n_static,
        "n_records": columns.n_records,
        "n_arcs": len(columns.src_value),
        "complete": complete,
        "workload": workload,
        "counts": columns.counts_for(columns.n_records),
        "ops": [[op, int(category), 1 if has_imm else 0]
                for op, category, has_imm in columns.ops],
    }


def save_trace(columns: TraceColumns, path, complete: bool | None = None,
               workload: str | None = None) -> int:
    """Write ``columns`` (a :class:`~repro.core.kernel.TraceColumns`)
    to ``path``; returns the number of records written.

    ``complete`` records whether the columns cover the workload's whole
    execution (None = unknown); the trace store uses it to decide
    replay eligibility.  ``workload`` annotates the header with the
    originating workload name (purely informational — it is not part
    of the content address; ``cache info`` uses it to break occupancy
    out fixed-vs-generated).
    """
    recorder = get_recorder()
    with recorder.span("trace.encode"):
        count = columns.n_records
        header = json.dumps(
            header_for(columns, complete, workload)).encode()
        body_bytes = 0
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(MAGIC)
            handle.write(_U32.pack(len(header)))
            handle.write(header)
            for code, values in _blocks(columns):
                block = array(code, values)
                if _SWAP:
                    block.byteswap()
                handle.write(block)
                body_bytes += len(block) * block.itemsize
    recorder.count("trace.encode.records", count)
    recorder.count("trace.encode.bytes", body_bytes + len(header))
    try:
        recorder.count("trace.encode.file_bytes", os.stat(path).st_size)
    except (OSError, TypeError):
        pass
    return count


# ----------------------------------------------------------------------
# Decoding.
# ----------------------------------------------------------------------

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


def _read_body(handle, path) -> bytes:
    try:
        return handle.read()
    except (OSError, EOFError) as error:
        raise ReproError(f"truncated trace file: {path}") from error


def _slices(body, codes: str, total: int, lo: int, hi: int, offset: int):
    """Yield elements ``[lo, hi)`` of each block of ``total`` elements
    laid out from ``offset``, one array at a time (so a caller can
    drop each before the next is read)."""
    for code in codes:
        block = array(code)
        width = block.itemsize
        block.frombytes(body[offset + width * lo:offset + width * hi])
        if _SWAP:
            block.byteswap()
        yield block
        offset += width * total


def _values(bits: array, floats: bytes, nones: bytes = b"") -> list:
    """Values from an i64 bit-pattern block: floats where ``floats``
    marks them, None where ``nones`` does, ints elsewhere."""
    values = bits.tolist()
    at = list(compress(range(len(values)), floats))
    if at:
        doubles = memoryview(bits).cast("B").cast("d")
        for i in at:
            values[i] = doubles[i]
    for i in compress(range(len(values)), nones):
        values[i] = None
    return values


def _static(static_pcs: list, block: array, path) -> list:
    """``block``'s PCs as the shared ints of ``static_pcs``, so each
    distinct PC is one object however often it recurs; a PC past the
    header's ``n_static`` raises :class:`ReproError`."""
    try:
        return list(map(static_pcs.__getitem__, block))
    except IndexError:
        raise ReproError(
            f"corrupt trace body: pc beyond n_static: {path}") from None


def decode_columns(body, header: dict, r0: int = 0, r1: int | None = None,
                   arc0: int = 0, path="<trace>") -> TraceColumns:
    """Build columns for records ``[r0, r1)`` of a v3 trace body.

    ``arc0`` is the number of arcs before record ``r0`` (a segment
    index stores it at every checkpoint); the defaults read the whole
    trace.  The columns are *local* — record and arc indices start at
    zero — but producer uids and ``group_key`` stay global, because the
    format stores producers as absolute uids.  A body whose length
    disagrees with the header's ``n_records``/``n_arcs``, or with a pc
    or producer pc outside ``range(n_static)``, raises
    :class:`ReproError`.  Equal PCs decode to one shared int object.
    """
    n_records = header["n_records"]
    n_arcs = header["n_arcs"]
    expected = n_records * _RECORD_WIDTH + n_arcs * _ARC_WIDTH
    if len(body) != expected:
        raise ReproError(
            f"corrupt trace body: {len(body)} bytes, header implies "
            f"{expected}: {path}")
    if r1 is None:
        r1 = n_records
    static_pcs = list(range(max(header["n_static"], 1)))
    records = _slices(body, _RECORD_CODES, n_records, r0, r1, 0)
    pc = _static(static_pcs, next(records), path)
    op_index = bytearray(next(records))
    passthrough = next(records).tolist()
    taken = bytearray(next(records))
    nsrc = bytearray(next(records))
    kinds = next(records).tobytes()
    out = _values(next(records), kinds.translate(_KIND_FLOAT),
                  kinds.translate(_KIND_NONE))
    arc1 = arc0 + sum(nsrc)
    if arc1 > n_arcs or (r1 == n_records and arc1 != n_arcs):
        raise ReproError(f"corrupt trace body: arc counts disagree: {path}")
    arcs = _slices(body, _ARC_CODES, n_arcs, arc0, arc1,
                   n_records * _RECORD_WIDTH)
    flags = next(arcs).tobytes()
    src_value = _values(next(arcs), flags.translate(_FLAG_FLOAT))
    src_prod = next(arcs).tolist()
    for a in compress(range(len(src_prod)), flags.translate(_FLAG_D)):
        src_prod[a] = -1
    src_ppc = _static(static_pcs, next(arcs), path)
    src_loc = next(arcs).tolist()
    ops = [(entry[0], Category(entry[1]), bool(entry[2]))
           for entry in header["ops"]]
    return TraceColumns(
        header["n_static"], ops, pc=pc, op_index=op_index, out=out,
        passthrough=passthrough, taken=taken, nsrc=nsrc,
        src_value=src_value, src_prod=src_prod, src_ppc=src_ppc,
        src_mem=bytearray(flags.translate(_FLAG_MEM)), src_loc=src_loc,
    )


def read_trace_columns(path):
    """Decode a whole trace file into columns: ``(header, columns)``.

    Decode errors raise :class:`ReproError`.
    """
    recorder = get_recorder()
    with _open_read(path) as handle:
        header = _read_header(handle, path)
        with recorder.span("trace.decode"):
            body = _read_body(handle, path)
            recorder.count("trace.decode.bytes", len(body))
            columns = decode_columns(body, header, path=path)
    recorder.count("trace.decode.records", columns.n_records)
    return header, columns


def read_trace_raw(path) -> tuple[dict, bytes]:
    """Read a v3 trace's header and **undecoded** body bytes.

    The segment-parallel path (:mod:`repro.core.shard`) un-gzips once
    in the parent and lets each worker decode only its own record
    range — decode is the dominant serial cost, so it must happen in
    the workers.
    """
    with _open_read(path) as handle:
        header = _read_header(handle, path)
        body = _read_body(handle, path)
    get_recorder().count("trace.decode.bytes", len(body))
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

    header, columns = read_trace_columns(path)
    if stored_profile and profile_counts is None:
        profile_counts = header.get("counts")
    return analyze_trace(
        columns,
        header["n_static"],
        name=name or Path(path).stem,
        config=config,
        profile_counts=profile_counts,
    )
