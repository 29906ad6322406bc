"""Property tests: the trace format round-trips arbitrary records.

Records go through :meth:`TraceColumns.from_records`, :func:`save_trace`
and back; every primary and derived column must come back identical,
value types included (``5 != 5.0`` to a value predictor).  A record's
``uid`` (always its index) and a branch's ``target`` are not stored,
so the strategy draws neither.  Range reads are how segment workers
decode, so any ``[r0, r1)`` read must equal the matching slice of the
whole decode: local record and arc indices, global producers.
"""

from hypothesis import given, settings, strategies as st

from repro.core.kernel import TraceColumns
from repro.cpu.trace import DynInst, Source
from repro.cpu.tracefile import (
    decode_columns,
    read_trace_columns,
    read_trace_raw,
    save_trace,
)
from repro.isa.opcodes import Category

N_STATIC = 5001

_values = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
)

#: Every column a TraceColumns exposes (primary and derived).
_COLUMNS = [name for name in TraceColumns.__slots__
            if not name.startswith("_")]


@st.composite
def dyn_insts(draw):
    n_srcs = draw(st.integers(min_value=0, max_value=3))
    srcs = []
    for __ in range(n_srcs):
        producer = draw(st.one_of(
            st.none(), st.integers(min_value=0, max_value=10**6)))
        srcs.append(Source(
            value=draw(_values),
            producer=producer,
            producer_pc=None if producer is None else draw(
                st.integers(min_value=0, max_value=N_STATIC - 1)
            ),
            is_mem=draw(st.booleans()),
            loc=draw(st.integers(min_value=0, max_value=2**32)),
        ))
    return DynInst(
        uid=0,
        pc=draw(st.integers(min_value=0, max_value=N_STATIC - 1)),
        op=draw(st.sampled_from(["addu", "lw", "beq", "mul.d"])),
        category=draw(st.sampled_from(list(Category))),
        has_imm=draw(st.booleans()),
        srcs=tuple(srcs),
        out=draw(st.one_of(st.none(), _values)),
        passthrough=draw(st.one_of(
            st.none(),
            st.integers(min_value=0, max_value=n_srcs - 1),
        )) if n_srcs else None,
        taken=draw(st.one_of(st.none(), st.booleans())),
    )


def _typed(value):
    """A column (or column element) with the type of every value."""
    if isinstance(value, (list, tuple)):
        return [(type(item), item) for item in value]
    return (type(value), value)


@given(st.lists(dyn_insts(), max_size=30))
@settings(max_examples=40, deadline=None)
def test_round_trip_arbitrary_records(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("traces") / "t.trace"
    columns = TraceColumns.from_records(records, N_STATIC)
    assert save_trace(columns, path) == len(records)
    __, loaded = read_trace_columns(path)
    for name in _COLUMNS:
        assert _typed(getattr(loaded, name)) == \
            _typed(getattr(columns, name)), name
    expected = [
        DynInst(r, dyn.pc, dyn.op, dyn.category, dyn.has_imm, dyn.srcs,
                dyn.out, dyn.passthrough, dyn.taken)
        for r, dyn in enumerate(records)
    ]
    assert loaded.to_records() == expected


@st.composite
def ranged_traces(draw):
    records = draw(st.lists(dyn_insts(), max_size=30))
    r0 = draw(st.integers(min_value=0, max_value=len(records)))
    r1 = draw(st.integers(min_value=r0, max_value=len(records)))
    return records, r0, r1


@given(ranged_traces())
@settings(max_examples=40, deadline=None)
def test_range_read_is_a_slice_of_the_whole(tmp_path_factory, case):
    records, r0, r1 = case
    path = tmp_path_factory.mktemp("traces") / "t.trace"
    save_trace(TraceColumns.from_records(records, N_STATIC), path)
    header, body = read_trace_raw(path)
    whole = decode_columns(body, header)
    a0, a1 = whole.src_start[r0], whole.src_start[r1]
    part = decode_columns(body, header, r0, r1, a0)
    assert part.n_records == r1 - r0
    for name in ("pc", "op_index", "out", "passthrough", "taken", "nsrc"):
        assert _typed(getattr(part, name)) == \
            _typed(getattr(whole, name)[r0:r1]), name
    for name in ("src_value", "src_prod", "src_ppc", "src_mem", "src_loc",
                 "in_key", "group_key"):
        assert _typed(getattr(part, name)) == \
            _typed(getattr(whole, name)[a0:a1]), name
    assert part.src_start == [a - a0 for a in whole.src_start[r0:r1 + 1]]
    d0, d1 = whole.d_prefix[r0], whole.d_prefix[r1]
    assert part.d_ids == whole.d_ids[d0:d1]
    assert part.d_prefix == [d - d0 for d in whole.d_prefix[r0:r1 + 1]]
