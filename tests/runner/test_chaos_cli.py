"""CLI robustness: the chaos command, a SIGTERM'd run that a re-run
continues from the result store, and the distinct interrupted exit
code."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import (
    EXIT_INTERRUPTED,
    EXIT_JOB_FAILURE,
    EXIT_OK,
    main,
)

REPO = Path(__file__).resolve().parents[2]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


class TestChaosCommand:
    def test_chaos_smoke_passes_with_fixed_seed(self, tmp_path, capsys):
        keep = tmp_path / "artifacts"
        code = main([
            "chaos", "--seed", "0", "--workloads", "com",
            "--max-instructions", "2000", "--keep", str(keep),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "injected >= 3 distinct fault kinds" in out
        assert "byte-identical" in out
        assert "FAIL" not in out
        # --keep preserved the run's metrics for post-mortems/CI
        # artifacts: the profile and the faults that fired.
        metrics = json.loads((keep / "metrics.json").read_text())
        assert len(metrics["faults_fired"]) >= 3
        assert any(counter.startswith("faults.injected.")
                   for counter in metrics["profile"]["counters"])
        assert len(metrics["jobs"]) == 1

    def test_chaos_rejects_bad_fault_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--fault", "nonsense"])

    def test_fault_override_parses(self, capsys):
        # rate=0.0 on every site: chaos with nothing armed must fail
        # the >=3-distinct-kinds invariant, proving overrides land.
        code = main([
            "chaos", "--workloads", "com", "--max-instructions", "1000",
            *(flag for site in
              ("store.read", "store.truncate", "store.write",
               "trace.read", "trace.corrupt", "worker.crash",
               "worker.slow", "pool.spawn")
              for flag in ("--fault", f"{site}=0.0")),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_JOB_FAILURE
        assert "FAIL: injected >= 3 distinct fault kinds" in out


@pytest.mark.slow
class TestSigtermResume:
    def test_sigterm_checkpoints_and_resume_completes(self, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            sys.executable, "-m", "repro", "run",
            "--workloads", "com,go,ijp,per", "--max-instructions",
            "60000", "--jobs", "1", "--cache-dir", str(cache),
            "--metrics", "-",
        ]
        process = subprocess.Popen(
            argv, env=_env(), cwd=REPO,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        # Let it get at least one job deep, then interrupt it.
        deadline = time.monotonic() + 60
        results = cache / "results"
        while time.monotonic() < deadline:
            if any(results.rglob("*.json")):
                break
            if process.poll() is not None:
                break
            time.sleep(0.05)
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        __, stderr = process.communicate(timeout=120)

        if process.returncode == 0:
            pytest.skip("run finished before SIGTERM landed")
        assert process.returncode == EXIT_INTERRUPTED, stderr
        assert "re-run the same command" in stderr
        done_before = list(results.rglob("*.json"))
        assert done_before  # something was published

        resumed = subprocess.run(
            [*argv, "--profile"], env=_env(), cwd=REPO,
            capture_output=True, text=True, timeout=600,
        )
        assert resumed.returncode == EXIT_OK, resumed.stderr
        # The published jobs were served from the cache, not re-run.
        assert "cache-hit" in resumed.stdout
        assert f"{len(done_before)} hit" in resumed.stdout

        # Byte-identical to a fresh uninterrupted run: every stored
        # result envelope matches its own content checksum and key set.
        fresh = tmp_path / "fresh"
        again = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--workloads",
             "com,go,ijp,per", "--max-instructions", "60000", "--jobs",
             "1", "--cache-dir", str(fresh), "--metrics", "-"],
            env=_env(), cwd=REPO, capture_output=True, text=True,
            timeout=600,
        )
        assert again.returncode == EXIT_OK, again.stderr

        def envelopes(root):
            return {
                path.name: json.loads(path.read_text())["checksum"]
                for path in (root / "results").rglob("*.json")
            }

        assert envelopes(cache) == envelopes(fresh)
