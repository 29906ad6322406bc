"""Exporters: JSONL round-trip, Prometheus text, human rendering."""

from __future__ import annotations

import json

from repro.obs import (
    Recorder,
    aggregate_spans,
    from_jsonl,
    render_profile,
    to_jsonl,
    to_prometheus,
    write_jsonl,
)


def _sample_profile() -> dict:
    rec = Recorder()
    rec.count("sim.instructions", 1234)
    rec.count("runner.resolve.cache-hit", 2)
    rec.gauge("store.bytes", 9876)
    with rec.span("runner.run"):
        with rec.span("simulate"):
            pass
        with rec.span("analyze"):
            pass
        with rec.span("analyze"):
            pass
    return rec.snapshot()


class TestJsonl:
    def test_round_trip_is_exact(self):
        profile = _sample_profile()
        assert from_jsonl(to_jsonl(profile)) == profile

    def test_one_valid_json_object_per_line(self):
        for line in to_jsonl(_sample_profile()).strip().splitlines():
            event = json.loads(line)
            assert event["type"] in {"meta", "counter", "gauge", "span"}

    def test_depth_encodes_nesting(self):
        events = [json.loads(line) for line in
                  to_jsonl(_sample_profile()).strip().splitlines()]
        spans = [e for e in events if e["type"] == "span"]
        assert [(s["name"], s["depth"]) for s in spans] == [
            ("runner.run", 0), ("simulate", 1), ("analyze", 1),
            ("analyze", 1),
        ]

    def test_write_jsonl_appends(self, tmp_path):
        profile = _sample_profile()
        path = tmp_path / "events.jsonl"
        write_jsonl(profile, path)
        write_jsonl(profile, path)
        lines = path.read_text().strip().splitlines()
        metas = [ln for ln in lines if json.loads(ln)["type"] == "meta"]
        assert len(metas) == 2  # two appended event streams

    def test_from_jsonl_skips_blank_lines(self):
        profile = _sample_profile()
        padded = "\n".join(["", *to_jsonl(profile).splitlines(), "", ""])
        assert from_jsonl(padded) == profile


class TestPrometheus:
    def test_counters_gauges_and_span_aggregates(self):
        text = to_prometheus(_sample_profile())
        assert "repro_sim_instructions_total 1234" in text
        # hyphens sanitised to underscores
        assert "repro_runner_resolve_cache_hit_total 2" in text
        assert "repro_store_bytes 9876" in text
        assert 'repro_span_calls{span="analyze"} 2' in text
        assert 'repro_span_wall_seconds{span="runner.run"}' in text

    def test_every_sample_has_a_type_line(self):
        lines = to_prometheus(_sample_profile()).strip().splitlines()
        metrics = {ln.split("{")[0].split(" ")[0]
                   for ln in lines if not ln.startswith("#")}
        typed = {ln.split(" ")[2] for ln in lines if ln.startswith("# TYPE")}
        assert metrics <= typed


class TestAggregateAndRender:
    def test_aggregate_spans_flattens_by_name(self):
        totals = aggregate_spans(_sample_profile()["spans"])
        assert totals["analyze"]["calls"] == 2
        assert set(totals) == {"runner.run", "simulate", "analyze"}

    def test_render_merges_siblings_and_lists_counters(self):
        text = render_profile(_sample_profile())
        tree = text.partition("\nlayer ")[0]
        assert tree.count("analyze") == 1  # merged siblings
        assert "kernel.analyze" in text  # one layer row for both
        assert "sim.instructions" in text
        assert "1,234" in text

    def test_render_empty_profile(self):
        empty = {"counters": {}, "gauges": {}, "spans": []}
        assert render_profile(empty) == "(empty profile)"


class TestLabels:
    """Labelled counters: canonical encoding, Prometheus exposition,
    and lossless round-trips (the qos.* attribution path)."""

    def test_encode_is_canonical(self):
        from repro.obs import encode_labels

        # Sorted keys: insertion order never leaks into the name.
        a = encode_labels("qos.served", {"tenant": "alice", "status": "warm"})
        b = encode_labels("qos.served", {"status": "warm", "tenant": "alice"})
        assert a == b == 'qos.served{status="warm",tenant="alice"}'

    def test_decode_inverts_encode(self):
        from repro.obs import decode_labels, encode_labels

        labels = {"tenant": "a.b-c_d", "phase": "queue"}
        base, decoded = decode_labels(encode_labels("qos.x", labels))
        assert base == "qos.x"
        assert decoded == labels

    def test_escaping_round_trips(self):
        from repro.obs import decode_labels, encode_labels

        labels = {"k": 'quo"te\\slash\nline'}
        __, decoded = decode_labels(encode_labels("n", labels))
        assert decoded == labels

    def test_unlabelled_name_decodes_to_empty_labels(self):
        from repro.obs import decode_labels

        assert decode_labels("service.requests") == \
            ("service.requests", {})

    def test_recorder_folds_labels_into_counter_names(self):
        rec = Recorder()
        rec.count("qos.requests", 1, labels={"tenant": "alice"})
        rec.count("qos.requests", 2, labels={"tenant": "alice"})
        rec.count("qos.requests", 1, labels={"tenant": "bob"})
        counters = rec.snapshot()["counters"]
        assert counters['qos.requests{tenant="alice"}'] == 3
        assert counters['qos.requests{tenant="bob"}'] == 1

    def test_labelled_counters_survive_jsonl(self):
        rec = Recorder()
        rec.count("qos.shed", 4, labels={"tenant": "t", "reason": "rate"})
        profile = rec.snapshot()
        assert from_jsonl(to_jsonl(profile))["counters"] == \
            profile["counters"]

    def test_prometheus_groups_label_sets_into_one_family(self):
        rec = Recorder()
        rec.count("qos.requests", 1, labels={"tenant": "alice"})
        rec.count("qos.requests", 2, labels={"tenant": "bob"})
        rec.count("qos.requests", 5)           # unlabelled sibling
        text = to_prometheus(rec.snapshot())
        assert text.count("# TYPE repro_qos_requests_total") == 1
        assert 'repro_qos_requests_total{tenant="alice"} 1' in text
        assert 'repro_qos_requests_total{tenant="bob"} 2' in text
        assert "\nrepro_qos_requests_total 5" in text

    def test_parse_prometheus_round_trips_samples(self):
        from repro.obs import parse_prometheus

        rec = Recorder()
        rec.count("qos.phase_seconds", 1.5,
                  labels={"tenant": "alice", "phase": "simulate"})
        rec.gauge("service.queue_depth", 3, labels={"klass": "batch"})
        samples = {
            (family, tuple(sorted(labels.items()))): value
            for family, labels, value
            in parse_prometheus(to_prometheus(rec.snapshot()))
        }
        key = ("repro_qos_phase_seconds_total",
               (("phase", "simulate"), ("tenant", "alice")))
        assert samples[key] == 1.5
        assert samples[("repro_service_queue_depth",
                        (("klass", "batch"),))] == 3

    def test_parse_prometheus_skips_comments_and_junk(self):
        from repro.obs import parse_prometheus

        text = ("# HELP x y\n# TYPE x counter\n"
                "x 1\nmalformed line without value-number nope\n")
        assert parse_prometheus(text) == [("x", {}, 1.0)]
