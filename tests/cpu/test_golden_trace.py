"""Golden traces: the machine's records for every suite workload.

Each digest is a sha256 over every :class:`DynInst` field (``srcs``
and ``target`` included) of the first 20k records of
``Machine.trace()``.  The ``repr`` of each field keeps ``True`` apart
from ``1`` and ``1.0`` from ``1``, so a change to how the step builds
its records — not only to what it computes — changes a digest.
"""

import hashlib
from itertools import islice

import pytest

from repro.cpu.trace import DynInst, Source
from repro.workloads import SUITE

RECORDS = 20_000

GOLDEN = {
    "com": "15ba0c02c9bc2e7d4702ed7f86b6a47ca22f0b2a5874eaa4be1b665dad322419",
    "gcc": "0636d2d29928273a91c2a9450f2b973991b41d559d308bb9b9a50ea0772346e6",
    "go": "2a9efd026f7d5b24b0c3be3ee0461545dd0e1ed400e27acadac4e588b83b3884",
    "ijp": "fb7528945b6c0d40097ae95beaa2c083e59b6856c5194cde29cf8c2aba31d82a",
    "per": "61a304a0c4bbbdbda9d4edbe2ab1279fdbdc224e447f61f5c9c220cfba70ebc0",
    "m88": "a159000a75d968615e762f126c1a43da9db54d4eaaf893f1d94bc5e5208fc6f3",
    "vor": "454483360031f4593e7c5175f39404f5365f832492dfcefbd4b53ef1608305c2",
    "xli": "e5048f934426faf57557ffddae34d1fb1cd1247586d81b8e5edc53af18d5371e",
    "app": "1e47629d740b28b30e95eb06aa92294596e515a06bb99aed967bd10afda7d512",
    "fpp": "bc53bf56456f6f4652b8c6888950dd8c23e8832942ac0e9ce638e2fab707ab6f",
    "mgr": "d3ce9d94800b1e04f67a5edc7d384294b7e63a61fbbc023692e4870ede11cb60",
    "swm": "09296be02884cfd231892fb7f130fce9fb62a781e6e845826713e05f322ae5ab",
}


def trace_digest(records) -> str:
    digest = hashlib.sha256()
    for dyn in records:
        digest.update(repr((
            dyn.uid, dyn.pc, dyn.op, dyn.category.name, dyn.has_imm,
            tuple(tuple(src) for src in dyn.srcs), dyn.out,
            dyn.passthrough, dyn.taken, dyn.target,
        )).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_every_suite_workload_has_a_digest():
    assert sorted(GOLDEN) == sorted(w.name for w in SUITE)


@pytest.mark.parametrize("workload", SUITE, ids=lambda w: w.name)
def test_trace_matches_golden(workload):
    records = list(islice(workload.machine().trace(), RECORDS))
    assert len(records) == RECORDS
    for dyn in records[:100]:
        assert type(dyn) is DynInst
        assert type(dyn.srcs) is tuple
        assert all(type(src) is Source for src in dyn.srcs)
    assert trace_digest(records) == GOLDEN[workload.name]
