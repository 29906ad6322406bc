"""The layer table and its walker (``repro.obs.layers``), which
profiles, QoS attribution and the runner benchmark all read."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import LAYERS, Recorder, layer_seconds, render_profile

REPO = Path(__file__).resolve().parents[2]


def span(name, wall, *children):
    return {"name": name, "wall": wall, "cpu": wall,
            "children": list(children)}


class TestWalker:
    def test_serial_tree_rows_sum_to_root_wall(self):
        tree = span("runner.run", 2.0,
                    span("minic.compile", 0.1),
                    span("asm.assemble", 0.2),
                    span("simulate", 0.5),
                    span("store.trace.put", 0.3, span("trace.encode", 0.2)),
                    span("analyze", 0.6,
                         span("analyze.kernel.banks", 0.4),
                         span("shard.merge", 0.1)),
                    span("shard.index.build", 0.05))
        rows = layer_seconds([tree])
        assert list(rows) == ["minic.compile", "asm.assemble", "cpu.sim",
                              "tracefile.encode", "kernel.analyze",
                              "store", "unattributed"]
        assert rows["store"] == pytest.approx(0.1)
        assert rows["tracefile.encode"] == pytest.approx(0.2)
        # Unclassified spans inside analyze bill to it.
        assert rows["kernel.analyze"] == pytest.approx(0.6)
        assert rows["unattributed"] == pytest.approx(0.3)
        assert sum(rows.values()) == pytest.approx(2.0)

    def test_recorded_tree_rows_sum_to_root_wall(self):
        rec = Recorder()
        with rec.span("runner.run"):
            with rec.span("simulate"):
                with rec.span("store.trace.put"):
                    pass
            with rec.span("analyze"):
                with rec.span("analyze.kernel.paths"):
                    pass
        roots = rec.snapshot()["spans"]
        rows = layer_seconds(roots)
        assert sum(rows.values()) == pytest.approx(roots[0]["wall"])
        assert min(rows.values()) >= 0.0

    def test_merged_pool_tree_clamps_unattributed_at_zero(self):
        # Two workers' analyze spans merged under a parent whose wall
        # is shorter than their sum: busy time, not wall time.
        tree = span("runner.sweep", 1.0,
                    span("analyze", 0.8), span("analyze", 0.7),
                    span("shard.segment", 0.4, span("analyze", 0.5)))
        rows = layer_seconds([tree])
        assert rows["kernel.analyze"] == pytest.approx(2.0)
        assert rows["unattributed"] == 0.0

    def test_external_wall_and_null_span(self):
        class NullSpan:
            pass

        assert layer_seconds([NullSpan()], wall=1.5) == {
            "unattributed": 1.5}
        assert layer_seconds([], wall=0.0) == {"unattributed": 0.0}

    def test_names_match_whole_dotted_prefixes(self):
        rows = layer_seconds([span("runner.run", 1.0,
                                   span("analyzer", 0.5),
                                   span("storey", 0.25),
                                   span("qos.batch", 0.25))])
        assert rows == {"unattributed": 1.0}

    def test_derive_bills_to_kernel_analyze_wherever_it_opens(self):
        # The derived columns are built on first read, which may come
        # from outside an ``analyze`` span (a segment-index build).
        rows = layer_seconds([span("runner.run", 1.0,
                                   span("shard.index.build", 0.5,
                                        span("analyze.kernel.derive",
                                             0.25)))])
        assert rows == {"kernel.analyze": 0.25, "unattributed": 0.75}

    def test_layer_names_are_perfbench_span_names(self):
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", REPO / "perfbench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        site_names = {site[2] for site in tracer.SITES}
        layers = {layer for __, layer in LAYERS} - {"store"}
        assert layers <= site_names

    def test_render_profile_prints_layer_table(self):
        profile = {"counters": {}, "gauges": {}, "spans": [
            span("runner.run", 1.0, span("simulate", 0.25))]}
        text = render_profile(profile)
        tree, __, table = text.partition("\nlayer ")
        assert "runner.run" in tree
        rows = {line.split()[0]: line.split()[-1]
                for line in table.splitlines()[2:]}
        assert rows == {"cpu.sim": "25.0%", "unattributed": "75.0%"}


def _profile_rows(cache: Path, budget: int) -> dict:
    """Run ``repro run --profile`` in a fresh process (the workload
    is compiled once per process) and return its layer rows."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "repro", "run", "--profile", "--workloads",
         "com", "--max-instructions", str(budget), "--cache-dir",
         str(cache)],
        env=env, cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout
    table = out.split("\nlayer ", 1)[1].split("\n\n", 1)[0]
    return {line.split()[0]: line for line in table.splitlines()[2:]}


class TestProfileCli:
    def test_cold_then_replayed_run_report_their_layers(self, tmp_path):
        cache = tmp_path / "cache"
        cold = _profile_rows(cache, 2000)
        assert {"minic.compile", "asm.assemble", "cpu.sim",
                "tracefile.encode", "kernel.analyze", "store",
                "unattributed"} <= set(cold)
        assert "tracefile.decode" not in cold
        replayed = _profile_rows(cache, 1000)
        assert "tracefile.decode" in replayed
        assert "cpu.sim" not in replayed
