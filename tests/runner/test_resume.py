"""An interrupted sweep resumes from the result store.

Job keys hash source, toolchain, inputs and config, so the
content-addressed store is an idempotent checkpoint: a re-run serves
every job an earlier (interrupted, killed, or sibling) run published
as a ``cache-hit`` and executes only the rest.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.cli import main
from repro.core.export import result_to_dict
from repro.errors import RunnerInterrupted
from repro.runner import (
    ExperimentConfig,
    ExperimentRunner,
    Job,
    ResultStore,
    TraceStore,
    job_key,
)
from repro.runner.metrics import STATUS_CACHE_HIT, STATUS_REPLAYED

SRC = Path(__file__).resolve().parents[2] / "src"

CONFIG = ExperimentConfig(workloads=("com", "go", "ijp"),
                          max_instructions=1_500)


class _CancelAfterStoreHas:
    """Cancel 'event' that trips once the store holds >= n results."""

    def __init__(self, store, n):
        self.store = store
        self.n = n

    def is_set(self) -> bool:
        return len(self.store.entries()) >= self.n


def _runner(root, **kwargs) -> ExperimentRunner:
    return ExperimentRunner(
        store=ResultStore(root), trace_store=TraceStore(root), **kwargs
    )


def _statuses(run) -> dict:
    return {metric.workload: metric.status for metric in run.metrics.jobs}


def _hits(run) -> set:
    return {name for name, status in _statuses(run).items()
            if status == STATUS_CACHE_HIT}


def _canonical(results) -> dict:
    return {name: json.dumps(result_to_dict(result), sort_keys=True)
            for name, result in results.items()}


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """Canonical results of one fresh, uninterrupted run of CONFIG."""
    run = _runner(tmp_path_factory.mktemp("fresh")).run(CONFIG)
    assert not run.failures
    return _canonical(run.results)


class TestStoreResume:
    def test_interrupted_run_checkpoints_then_resumes(
            self, tmp_path, uninterrupted):
        root = tmp_path / "cache"
        runner = _runner(root)
        run = runner.run(CONFIG, cancel=_CancelAfterStoreHas(runner.store, 1))
        assert run.metrics.interrupted
        assert 1 <= len(run.results) < len(CONFIG.workloads)
        with pytest.raises(RunnerInterrupted, match="re-run the same call"):
            run.require()

        # A fresh runner (fresh memo) re-runs the same call: every job
        # the cancelled run stored is a cache hit, the rest execute.
        rerun = _runner(root).run(CONFIG)
        assert not rerun.failures
        assert not rerun.metrics.interrupted
        assert _hits(rerun) == set(run.results)
        assert _canonical(rerun.results) == uninterrupted

    def test_deleted_result_reexecutes(self, tmp_path, uninterrupted):
        root = tmp_path / "cache"
        assert not _runner(root).run(CONFIG).failures
        store = ResultStore(root)
        store.path_for(job_key(Job("com", CONFIG))).unlink()

        rerun = _runner(root).run(CONFIG)
        assert _statuses(rerun) == {"com": STATUS_REPLAYED,
                                    "go": STATUS_CACHE_HIT,
                                    "ijp": STATUS_CACHE_HIT}
        assert _canonical(rerun.results) == uninterrupted

    def test_an_intervening_run_keeps_the_checkpoint(self, tmp_path):
        # Other runs on the same store between the interruption and
        # the re-run (a run_one, a service batch's run_many) add to the
        # checkpoint and never erase it.
        root = tmp_path / "cache"
        runner = _runner(root)
        run = runner.run(CONFIG, cancel=_CancelAfterStoreHas(runner.store, 1))
        assert run.metrics.interrupted
        other = ExperimentConfig(workloads=("go",), max_instructions=1_000)
        _runner(root).run_one("go", other)
        _runner(root).run_many([other])

        rerun = _runner(root).run(CONFIG)
        assert set(run.results) <= _hits(rerun)

    def test_results_survive_a_hard_kill(self, tmp_path):
        """A result published before SIGKILL is in the store (atomic
        replace), and a re-run serves it."""
        root = tmp_path / "cache"
        script = (
            "import os, sys\n"
            "sys.path.insert(0, %r)\n"
            "from repro.runner import (ExperimentConfig, "
            "ExperimentRunner, ResultStore, TraceStore)\n"
            "root = %r\n"
            "run = ExperimentRunner(store=ResultStore(root), "
            "trace_store=TraceStore(root)).run(ExperimentConfig("
            "workloads=('com',), max_instructions=%d))\n"
            "assert not run.failures\n"
            "os.kill(os.getpid(), 9)\n"
        ) % (str(SRC), str(root), CONFIG.max_instructions)
        process = subprocess.run([sys.executable, "-c", script])
        assert process.returncode == -9
        assert not list(root.rglob("*.tmp"))

        rerun = _runner(root).run(CONFIG)
        assert not rerun.failures
        assert _hits(rerun) == {"com"}

    def test_sibling_runs_share_one_store(self, tmp_path, uninterrupted):
        # Two processes sweeping one store at once need no lock: each
        # result is content-addressed and published by atomic replace.
        root = tmp_path / "cache"
        script = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from repro.runner import (ExperimentConfig, "
            "ExperimentRunner, ResultStore, TraceStore)\n"
            "root = %r\n"
            "run = ExperimentRunner(store=ResultStore(root), "
            "trace_store=TraceStore(root)).run(ExperimentConfig("
            "workloads=%r, max_instructions=%d))\n"
            "sys.exit(1 if run.failures else 0)\n"
        ) % (str(SRC), str(root), CONFIG.workloads,
             CONFIG.max_instructions)
        sibling = subprocess.Popen([sys.executable, "-c", script])
        try:
            run = _runner(root).run(CONFIG)
        finally:
            assert sibling.wait(timeout=300) == 0
        assert not run.failures
        assert _canonical(run.results) == uninterrupted
        rerun = _runner(root).run(CONFIG)
        assert _hits(rerun) == set(CONFIG.workloads)


@pytest.mark.usefixtures("isolated_default_store")
class TestResumeDeprecated:
    """``resume=`` and ``--resume`` finished their deprecation cycle:
    both are gone, and a plain run warns about nothing."""

    SMALL = ExperimentConfig(workloads=("com",), max_instructions=1_000)

    @pytest.mark.parametrize("entry", [
        lambda root, config: _runner(root).run(config, resume=True),
        lambda root, config: _runner(root).run_many([config], resume=True),
        lambda root, config: api.run_suite(config, resume=True),
        lambda root, config: api.run_sweep([config], resume=True),
    ], ids=["run", "run_many", "run_suite", "run_sweep"])
    def test_resume_argument_is_gone(self, tmp_path, entry):
        with pytest.raises(TypeError, match="resume"):
            entry(tmp_path, self.SMALL)

    def test_resume_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["run", "--workloads", "com", "--cache-dir",
                  str(tmp_path), "--resume"])
        assert exited.value.code == 2
        assert "--resume" in capsys.readouterr().err

    def test_omitting_resume_is_silent(self, tmp_path, recwarn):
        _runner(tmp_path).run(self.SMALL)
        api.run_suite(self.SMALL)
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]
