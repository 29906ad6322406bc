"""Self-tests of the benchmark's own accounting.

Run with ``python3 -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import http.server
import importlib.util
import json
import sys
import threading
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.require_source()

import run  # noqa: E402
import service  # noqa: E402
import tracer  # noqa: E402


# ----------------------------------------------------------------------
# Tail percentile rule.
# ----------------------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    values = list(range(1000))
    value, pct, samples = common.tail(values)
    assert samples == 1000
    assert sum(1 for v in values if v > value) == 10
    assert value == 989 and pct == pytest.approx(99.0)


def test_tail_of_eleven_samples_is_their_minimum():
    value, pct, __ = common.tail(list(range(11, 0, -1)))
    assert value == 1 and pct == pytest.approx(100 / 11)


def test_tail_with_too_few_samples_falls_back_to_maximum():
    assert common.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_spread_is_quartile_distance_over_median():
    assert common.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == \
        pytest.approx((8.25 - 2.75) / 5.5)


# ----------------------------------------------------------------------
# Due-time latency accounting.
# ----------------------------------------------------------------------

class _SlowHandler(http.server.BaseHTTPRequestHandler):
    delay = 0.1

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.delay)
        body = json.dumps({"workload": "com", "status": "warm",
                           "result": {"nodes": 7}}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def slow_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_latency_counts_the_wait_for_a_busy_connection(slow_server):
    entries = [service.Entry("com", common.config_dict(10), "head")]
    # Three requests due together over one connection: the later ones
    # wait for the earlier answers, and that wait is their latency.
    outcomes, wall = service.run_load(slow_server, entries,
                                      [(0.0, 0), (0.0, 0), (0.0, 0)],
                                      connections=1)
    latencies = sorted(outcome.latency_ms for outcome in outcomes)
    lags = sorted(outcome.lag_ms for outcome in outcomes)
    assert latencies[0] >= 100 and latencies[2] >= 300
    assert lags[0] < 50 and lags[2] >= 200
    for outcome in outcomes:
        assert outcome.latency_ms == pytest.approx(
            outcome.lag_ms + (outcome.done - outcome.sent) * 1000)
        assert outcome.status == "warm" and outcome.records == 7
    assert wall >= 0.3


def test_schedule_is_seeded_and_shorter_loads_ask_a_prefix():
    entries = service.catalogue(5)
    long = service.schedule(5, 20.0, entries)
    assert long == service.schedule(5, 20.0, entries)
    assert long != service.schedule(6, 20.0, service.catalogue(6))
    drawn = [index for __, index in long]
    short = [index for __, index in service.schedule(5, 10.0, entries)]
    assert set(short) <= set(drawn)
    assert {entries[index].kind for index in drawn} == {"head", "replay",
                                                        "cold"}
    # A cold entry's first request has its duplicate right behind it.
    for index in {index for index in drawn if entries[index].kind == "cold"}:
        dues = sorted(due for due, i in long if i == index)
        assert dues[1] - dues[0] == pytest.approx(service.DUPLICATE_GAP)


def test_head_is_the_service_benchmarks_catalogue():
    path = common.ROOT / "benchmarks" / "bench_service.py"
    spec = importlib.util.spec_from_file_location("bench_service", path)
    bench_service = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_service)
    head = [(entry.name, entry.config) for entry in service.catalogue(1)
            if entry.kind == "head"]
    assert head == bench_service.build_catalog(service.BUDGET,
                                               service.HEAD_ENTRIES)
    assert service.ZIPF_ALPHA == bench_service.ZIPF_ALPHA


# ----------------------------------------------------------------------
# Digest checks.
# ----------------------------------------------------------------------

def test_committed_digest_must_match_on_any_seed():
    book = common.DigestBook(seed=9, committed={"a": "1"})
    assert book.check("a", "1")
    assert not book.check("a", "2")


def test_default_seed_requires_every_label_committed():
    book = common.DigestBook(seed=common.DEFAULT_SEED, committed={})
    assert not book.check("new", "1")


def test_other_seeds_hold_repeats_to_the_first_answer():
    book = common.DigestBook(seed=9, committed={})
    assert book.check("x", "1") and book.check("x", "1")
    assert not book.check("x", "2")
    assert book.combined() == common.combined_digest({"x": "1"})


def test_payload_digest_is_the_result_json():
    payload = {"name": "com", "nodes": 3}
    assert common.payload_digest(payload) == common.payload_digest(
        json.loads(json.dumps(payload)))


# ----------------------------------------------------------------------
# Status-mix assertions.
# ----------------------------------------------------------------------

def _outcome(index, status, sent, done):
    return service.Outcome(index, due=sent, sent=sent, done=done,
                           status=status)


ENTRIES = [service.Entry("com", {}, "head"),
           service.Entry("com", {"max_instructions": 5}, "replay"),
           service.Entry("gen:arith@1", {}, "cold")]


def test_expected_mix_passes():
    outcomes = [_outcome(0, "warm", 0, 1),
                _outcome(2, "computed", 0, 5),
                _outcome(2, "coalesced", 1, 5),
                _outcome(2, "warm", 6, 7),
                _outcome(1, "computed", 2, 3),
                _outcome(1, "shed", 2, 3)]
    assert service.status_faults(ENTRIES, outcomes) == []


@pytest.mark.parametrize("outcomes", [
    [_outcome(0, "computed", 0, 1)],                 # head not warm
    [_outcome(1, "computed", 0, 1),
     _outcome(1, "computed", 2, 3)],                 # computed twice
    [_outcome(2, "computed", 0, 5),
     _outcome(2, "coalesced", 6, 7)],                # joined a done job
    [_outcome(1, "warm", 0, 1)],                     # tail never computed
])
def test_deviating_mix_is_reported(outcomes):
    assert service.status_faults(ENTRIES, outcomes)


def test_sweep_status_mix_must_be_uniform():
    tally = run.Tally(common.DigestBook(seed=9, committed={}))
    done = {"digests": {"a": "1", "b": "2"}, "failures": [],
            "statuses": {"computed": 1, "replayed": 1}}
    assert tally.sweep(done, "replayed") == 2
    assert not tally.correct and tally.attempted == 2
    tally = run.Tally(common.DigestBook(seed=9, committed={"a": "0"}))
    done["statuses"] = {"replayed": 2}
    assert tally.sweep(done, "replayed") == 1
    assert tally.failed == 1 and not tally.correct


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------

def _span(sid, name, parent, start, end, **attrs):
    return {"id": sid, "name": name, "parent": parent, "start": start,
            "end": end, "attrs": attrs}


def test_layer_self_time_and_residual():
    spans = [_span(0, "runner.run_many", None, 0.0, 10.0),
             _span(1, "store.trace_put", 0, 1.0, 4.0),
             _span(2, "tracefile.encode", 1, 1.5, 3.5, records=10),
             _span(3, "kernel.analyze", 0, 5.0, 9.0),
             _span(4, "kernel.analyze", None, 0.0, 1.0)]   # not under a root
    table = tracer.layer_table([spans])
    assert table["store.trace_put"]["self"] == pytest.approx(1.0)
    assert table["tracefile.encode"]["self"] == pytest.approx(2.0)
    assert table["tracefile.encode"]["attrs"] == {"records": 10}
    assert table["kernel.analyze"]["calls"] == 1
    assert table["residual"]["self"] == pytest.approx(3.0)
    assert sum(entry["self"] for entry in table.values()) == \
        pytest.approx(10.0)


@pytest.fixture
def fake_layer(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")
    module.compile_source = lambda text: text.upper()
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_install_wraps_each_site_in_a_span(fake_layer, monkeypatch):
    monkeypatch.setattr(tracer, "SITES", (
        (fake_layer.__name__, "compile_source", "minic.compile", "call",
         None),))
    recorder = tracer.Tracer()
    tracer.install(recorder)
    assert fake_layer.compile_source("x") == "X"
    assert [span["name"] for span in recorder.spans] == ["minic.compile"]


def test_a_missing_site_fails_the_traced_run(fake_layer, monkeypatch):
    original = fake_layer.compile_source
    monkeypatch.setattr(tracer, "SITES", (
        (fake_layer.__name__, "compile_source", "minic.compile", "call",
         None),
        (fake_layer.__name__, "assemble", "asm.assemble", "call", None)))
    with pytest.raises(tracer.MissingSites,
                       match="perfbench_fake_layer.assemble"):
        tracer.install(tracer.Tracer())
    assert fake_layer.compile_source is original


def test_every_layer_site_exists_in_the_program():
    for module_name, path, *__ in tracer.SITES:
        tracer.lookup(module_name, path)


def test_a_layer_without_spans_fails_rather_than_reads_zero():
    probes = {"reuse": {"shared": [1.0], "fresh": [1.0]},
              "shard": {"serial_s": 1.0, "segmented_s": 1.0}}
    with pytest.raises(run.RunFailed, match="minic.compile"):
        run.layer_metrics({}, probes, {})


def test_sweeps_report_the_listed_end_to_end_metrics():
    reps = [{"wall": 2.0, "records": 100, "rss_kb": 2048},
            {"wall": 4.0, "records": 100, "rss_kb": 1024}]
    metrics = run.sweep_metrics(reps, [0.5, 0.7, 0.6])
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {metric["name"]
                            for metric in declared["end_to_end"]}
    assert metrics == {"setup_s": 0.6, "records_per_s": 37.5,
                       "peak_rss_mb": 2.0}


def test_generator_span_covers_consumption_until_close():
    recorder = tracer.Tracer()

    def produce():
        yield from range(5)

    wrapped = tracer._wrap_generator(recorder, "cpu.sim", produce)
    stream = wrapped()
    assert [next(stream), next(stream)] == [0, 1]
    stream.close()
    (span,) = recorder.spans
    assert span["attrs"]["records"] == 2 and span["end"] >= span["start"]
