"""Job model: content hashing and source-change invalidation."""

import pytest

from repro.runner import (
    ExperimentConfig,
    ExperimentRunner,
    Job,
    ResultStore,
    TraceStore,
    job_key,
    trace_key,
)
from repro.runner import job as job_module
from repro.workloads import get_workload
from repro.workloads import suite as suite_module
from repro.workloads.suite import Workload

SMALL = ExperimentConfig(max_instructions=2_000)

PROGRAM_V1 = """
int main() {
    int i;
    int total;
    total = 0;
    for (i = 0; i < 8; i++) total = total + i;
    return total;
}
"""

PROGRAM_V2 = PROGRAM_V1.replace("i < 8", "i < 16")


@pytest.fixture
def temp_workload(tmp_path, monkeypatch):
    """A throwaway workload whose source lives under tmp_path."""
    source = tmp_path / "tmpw.mc"
    source.write_text(PROGRAM_V1)
    workload = Workload(
        "tmpw", "000.tmpw", "int", "temp workload",
        lambda scale: ([scale], []), source_file=source,
    )
    monkeypatch.setitem(suite_module._BY_NAME, "tmpw", workload)
    return workload


class TestJobKey:
    def test_deterministic(self):
        job = Job("com", SMALL)
        assert job_key(job) == job_key(job)
        assert len(job_key(job)) == 64

    def test_workload_changes_key(self):
        assert job_key(Job("com", SMALL)) != job_key(Job("go", SMALL))

    def test_budget_changes_key(self):
        other = ExperimentConfig(max_instructions=3_000)
        assert job_key(Job("com", SMALL)) != job_key(Job("com", other))

    def test_scale_changes_key(self):
        other = ExperimentConfig(max_instructions=2_000, scale=2)
        assert job_key(Job("com", SMALL)) != job_key(Job("com", other))

    def test_predictor_set_changes_key(self):
        other = ExperimentConfig(max_instructions=2_000,
                                 predictors=("stride",))
        assert job_key(Job("com", SMALL)) != job_key(Job("com", other))

    def test_suite_scope_does_not_change_key(self):
        # `workloads` selects which jobs run; it is not part of any
        # single job's identity.
        other = ExperimentConfig(max_instructions=2_000,
                                 workloads=("com", "go"))
        assert job_key(Job("com", SMALL)) == job_key(Job("com", other))

    def test_source_edit_changes_key(self, temp_workload):
        before = job_key(Job("tmpw", SMALL))
        temp_workload.source_path.write_text(PROGRAM_V2)
        assert job_key(Job("tmpw", SMALL)) != before

    def test_toolchain_digest_changes_both_keys(self, monkeypatch):
        job_before = job_key(Job("com", SMALL))
        trace_before = trace_key("com")
        digest = job_module.toolchain_digest()
        monkeypatch.setattr(job_module, "toolchain_digest",
                            lambda: "0" * len(digest))
        assert job_key(Job("com", SMALL)) != job_before
        assert trace_key("com") != trace_before

    def test_keying_never_compiles(self, temp_workload):
        job_key(Job("tmpw", SMALL))
        trace_key("tmpw")
        assert temp_workload._program is None


def _span_names(profile) -> set:
    names = set()

    def walk(spans) -> None:
        for span in spans:
            names.add(span["name"])
            walk(span.get("children", ()))

    walk(profile["spans"])
    return names


class TestWarmRunsNeverCompile:
    """A job compiles its workload only when it simulates."""

    CONFIGS = [ExperimentConfig(max_instructions=1_000,
                                workloads=("com", "go")),
               ExperimentConfig(max_instructions=1_000,
                                workloads=("com", "go"),
                                predictors=("last",))]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("tier", ["cache-hit", "replayed"])
    def test_warm_sweep_opens_no_compile_span(self, tmp_path, monkeypatch,
                                              tier, jobs):
        traces = TraceStore(tmp_path / "traces")
        ExperimentRunner(store=ResultStore(tmp_path / "cold"),
                         trace_store=traces).run_many(self.CONFIGS)
        for name in ("com", "go"):
            monkeypatch.setattr(get_workload(name), "_program", None)
        results = tmp_path / ("cold" if tier == "cache-hit" else "warm")
        runner = ExperimentRunner(store=ResultStore(results),
                                  trace_store=traces, observe=True)
        runs = runner.run_many(self.CONFIGS, jobs=jobs)
        statuses = {metric.status for run in runs
                    for metric in run.metrics.jobs}
        assert statuses == {tier}
        names = _span_names(runs[0].metrics.profile)
        assert not names & {"minic.compile", "asm.assemble"}
        assert get_workload("com")._program is None


class TestWorkloadProgramCache:
    def test_program_cached_while_source_unchanged(self, temp_workload):
        assert temp_workload.program() is temp_workload.program()

    def test_source_edit_recompiles(self, temp_workload):
        stale = temp_workload.program()
        temp_workload.source_path.write_text(PROGRAM_V2)
        fresh = temp_workload.program()
        assert fresh is not stale
        assert fresh.listing() != stale.listing()

    def test_source_hash_tracks_file(self, temp_workload):
        before = temp_workload.source_hash()
        temp_workload.source_path.write_text(PROGRAM_V2)
        assert temp_workload.source_hash() != before

    def test_bundled_workloads_resolve_sources(self):
        for workload in suite_module.SUITE:
            assert workload.source_path.is_file()
            assert len(workload.source_hash()) == 64


class TestAnalysisConfig:
    def test_job_analysis_config_mirrors_experiment_config(self):
        config = ExperimentConfig(
            max_instructions=5_000, predictors=("last", "stride"),
            trees_for=("stride",), gen_cap=32,
        )
        analysis = Job("com", config).analysis_config()
        assert analysis.max_instructions == 5_000
        assert analysis.predictors == ("last", "stride")
        assert analysis.trees_for == ("stride",)
        assert analysis.gen_cap == 32

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            job_key(Job("nope", SMALL))

    def test_get_workload_still_exposes_registry(self):
        assert get_workload("com").name == "com"
