"""Derived trace columns are built on first use, once per object.

Capturing and storing a trace read only the primary columns, so
neither ``TraceStore.put`` nor ``save_trace`` may open an
``analyze.kernel.derive`` span.  A derived column read lazily must
equal what ``_derive`` gives right after construction, for a whole
suite trace and for a decoded record range, and however many columns,
analyses or threads read them, ``_derive`` runs once.
"""

from __future__ import annotations

import threading
from itertools import islice

import pytest

from repro.core import AnalysisConfig, analyze_many
from repro.core.kernel import TraceColumns
from repro.core.kernel.columns import _DERIVED
from repro.cpu.tracefile import decode_columns, read_trace_raw, save_trace
from repro.obs import Recorder, recording
from repro.runner import TraceStore, trace_key
from repro.workloads import get_workload

RECORDS = 20_000

#: Record range of the decoded-range case (arcs before it: ``arc0``).
R0, R1 = 7_301, 15_000


@pytest.fixture(scope="module")
def com():
    machine = get_workload("com").machine()
    records = list(islice(machine.trace(), RECORDS))
    return records, len(machine.program.instructions)


def _fresh(com) -> TraceColumns:
    records, n_static = com
    return TraceColumns.from_records(records, n_static)


def _span_names(spans) -> list:
    names = []
    for span in spans:
        names.append(span.name)
        names += _span_names(span.children)
    return names


def _derived_slots_set(columns) -> set:
    """Derived slots holding a value, read past ``__getattr__``."""
    present = set()
    for name in _DERIVED:
        try:
            getattr(TraceColumns, name).__get__(columns)
        except AttributeError:
            continue
        present.add(name)
    return present


def _eager(columns: TraceColumns) -> dict:
    columns._derive()
    return {name: getattr(columns, name) for name in _DERIVED}


def test_derived_names_are_slots():
    assert _DERIVED <= set(TraceColumns.__slots__)


def test_construction_derives_nothing(com):
    columns = _fresh(com)
    assert _derived_slots_set(columns) == set()
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        columns.nope


def test_put_of_records_opens_no_derive_span(com, tmp_path):
    records, n_static = com
    store = TraceStore(tmp_path)
    with recording(Recorder()) as rec:
        store.put(trace_key("com"), records, n_static, complete=False,
                  workload="com")
    names = _span_names(rec.roots)
    assert "analyze.kernel.layout" in names
    assert "analyze.kernel.derive" not in names
    header, columns = store.get(trace_key("com"), RECORDS)
    assert header["n_arcs"] == len(columns.src_value)
    assert _derived_slots_set(columns) == set()


def test_save_of_fresh_columns_opens_no_derive_span(com, tmp_path):
    columns = _fresh(com)
    with recording(Recorder()) as rec:
        save_trace(columns, tmp_path / "com.trace")
    assert "analyze.kernel.derive" not in _span_names(rec.roots)
    assert _derived_slots_set(columns) == set()


def test_lazy_columns_equal_eager_on_a_suite_trace(com):
    want = _eager(_fresh(com))
    for name in sorted(_DERIVED):
        # Each derived column on its own fresh object, read first.
        assert getattr(_fresh(com), name) == want[name], name


def test_lazy_columns_equal_eager_on_a_decoded_range(com, tmp_path):
    path = tmp_path / "com.trace"
    whole = _fresh(com)
    save_trace(whole, path)
    header, body = read_trace_raw(path)
    arc0 = sum(whole.nsrc[:R0])

    def decoded():
        return decode_columns(body, header, R0, R1, arc0)

    assert _derived_slots_set(decoded()) == set()
    want = _eager(decoded())
    assert want["src_start"][-1] == sum(whole.nsrc[R0:R1])
    for name in sorted(_DERIVED):
        assert getattr(decoded(), name) == want[name], name


def test_derive_runs_once_per_object(com, monkeypatch):
    calls = []
    derive = TraceColumns._derive

    def counted(self):
        calls.append(self)
        derive(self)

    monkeypatch.setattr(TraceColumns, "_derive", counted)
    __, n_static = com
    columns = _fresh(com)
    configs = [AnalysisConfig(max_instructions=RECORDS),
               AnalysisConfig(max_instructions=RECORDS // 2,
                              predictors=("last",))]
    with recording(Recorder()) as rec:
        for name in sorted(_DERIVED) * 2:
            getattr(columns, name)
        analyze_many(columns, n_static, configs, name="com")
        analyze_many(columns, n_static, configs, name="com")
    assert calls == [columns]
    assert _span_names(rec.roots).count("analyze.kernel.derive") == 1


def test_concurrent_first_reads_derive_once(com, monkeypatch):
    calls = []
    derive = TraceColumns._derive

    def counted(self):
        calls.append(self)
        derive(self)

    want = _eager(_fresh(com))
    monkeypatch.setattr(TraceColumns, "_derive", counted)
    columns = _fresh(com)
    start = threading.Barrier(4)
    seen = {}

    def read(name):
        start.wait()
        seen[name] = getattr(columns, name)

    threads = [threading.Thread(target=read, args=(name,))
               for name in ("in_key", "group_key", "d_prefix", "pt_arc")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert calls == [columns]
    assert seen == {name: want[name] for name in seen}
