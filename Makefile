PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast bench-smoke perfbench-check kernel-parity \
        shard-parity service-smoke qos-smoke campaign-smoke fleet-smoke clean-cache

## Tier-1 verification: the full test suite.
test:
	$(PYTHON) -m pytest -x -q

## The suite minus the slow end-to-end runs.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

## Fast CI smoke: cold-vs-warm sweep through the two-tier cache;
## writes BENCH_runner.json at the repo root and fails if a warm
## sweep is not >= 3x faster than cold.
bench-smoke:
	$(PYTHON) benchmarks/bench_runner.py

## perfbench's self-tests (outside `testpaths`): its metric plumbing,
## and that every layer site it wraps still exists in the program, so
## a refactor of src that drops a wrapped function fails here.
perfbench-check:
	$(PYTHON) -m pytest -q perfbench/test_perfbench.py

## Columnar-kernel parity gate: the predictor slices against the
## oracle's predictors, the differential test suites (fast fuzz tier
## and the segmented cases included), and the runner suite (five
## banks, reuse on stored columns, no second layout on replay).  The
## parity suite's matrix (every suite workload, every config variant
## with eight banks and reuse among them, a grid of generated seeds)
## fails on any byte-level divergence between the columnar kernel and
## the reference oracle, analyze_reference (see docs/kernel.md).
kernel-parity:
	$(PYTHON) -m pytest -x -q tests/core/test_kernel_state.py \
		tests/core/test_kernel_parity.py \
		tests/properties/test_kernel_fuzz.py tests/runner/test_engine.py

## Segment-parallel parity gate: adversarial boundary tests, the
## runner's segmented/chaos/reindex suite, policy semantics, and the
## trace-format properties (a segment worker's decode is a record-range
## read of the stored column blocks, tracefile.decode_columns, which
## must equal the matching slice of the whole decode).  The segmented
## differential tier (the parity suite and the fuzz run every case
## through tests.conftest.analyze_segmented, the stored-file path:
## save_trace, build_index, prepare_file_segments, _segment_task,
## SegmentMerge) runs in `make kernel-parity`.  See docs/sharding.md.
shard-parity:
	$(PYTHON) -m pytest -x -q tests/core/test_shard.py \
		tests/runner/test_segmented.py tests/runner/test_policy.py \
		tests/properties/test_tracefile_properties.py

## Service load smoke: zipf-skewed concurrent clients against a
## fresh server; writes BENCH_service.json at the repo root and
## fails on any 5xx, a zero coalesce rate, warm p50 < 5x cold, or
## an unclean drain.
service-smoke:
	$(PYTHON) benchmarks/bench_service.py --smoke

## Multi-tenant QoS smoke: the deterministic fairness/quota/
## attribution suites and the span walker they fold (tests/obs/
## test_layers.py), then the bench soak's qos phase — an abusive
## tenant at >=5x quota must not push compliant p99 over its ceiling
## (baseline p99 +25% + 0.05 s), shed zero compliant requests, or
## change any result byte vs the serial reference; attribution must
## cover >=90% of wall time.
## Artifacts: BENCH_service.json (qos section) and
## reports/qos_attribution.json (see docs/qos.md).
qos-smoke:
	$(PYTHON) -m pytest -x -q tests/service/test_qos.py \
		tests/service/test_qos_broker.py tests/obs/test_layers.py
	$(PYTHON) benchmarks/bench_service.py --smoke

## Campaign smoke: the 2x2 generated-workload campaign end-to-end,
## cold then warm (a fresh runner over the same store must touch 0
## pool jobs, checked via the runner.resolve.* counters); emits the
## registry-complete report to campaign-report/ and cold-vs-warm
## wall times to BENCH_campaign.json at the repo root.
campaign-smoke:
	$(PYTHON) benchmarks/bench_campaign.py

## Fleet chaos smoke: a supervised 2-worker fleet under the seeded
## kill/wedge plan (zero failed client requests, byte-identical
## results, healthy restart through backoff), then the store scrub
## over seeded corruption (every bad entry quarantined, rerun
## clean).  Artifacts: fleet-out/ (supervisor.log, shared cache/)
## and scrub-out/scrub_report.jsonl — the CI uploads both.
fleet-smoke:
	$(PYTHON) -m repro chaos --fleet --keep fleet-out
	$(PYTHON) benchmarks/scrub_smoke.py --out scrub-out

## Drop both cache tiers of the default store.
clean-cache:
	$(PYTHON) -m repro cache clear
