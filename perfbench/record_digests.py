"""Regenerate ``digests.json``: the default seed's reference digests.

Every job the default seed's workloads can ask for (both sweeps, and
the service catalogue's head plus every job a load of up to
``LOAD_SECONDS`` requests) is computed through the plain serial
runner with no stores at all -- no pool, no trace replay, no HTTP --
so the benchmarked paths are checked against an independent one::

    python3 perfbench/record_digests.py

Run it only when a change is meant to alter analysis results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Longest service load whose requests the table covers.
LOAD_SECONDS = 60.0


def default_seed_jobs() -> dict[str, tuple[str, dict]]:
    import service

    seed = common.DEFAULT_SEED
    jobs = {}
    for names, configs in (common.cold_inputs(seed),
                           common.replay_inputs(seed)):
        for name in names:
            for config in configs:
                jobs[common.job_label(name, config)] = (name, config)
    entries = service.catalogue(seed)
    asked = {index for __, index in
             service.schedule(seed, LOAD_SECONDS, entries)}
    for index, entry in enumerate(entries):
        if entry.kind == "head" or index in asked:
            jobs[entry.label] = (entry.name, entry.config)
    return jobs


def main() -> int:
    common.require_source()
    from repro.core.export import result_to_dict
    from repro.runner import ExperimentConfig, ExperimentRunner

    by_name: dict[str, list[dict]] = {}
    for name, config in default_seed_jobs().values():
        by_name.setdefault(name, []).append(config)
    digests = {}
    for name, configs in sorted(by_name.items()):
        runs = ExperimentRunner(store=None).run_many([
            ExperimentConfig(workloads=(name,), **{
                key: tuple(value) if isinstance(value, list) else value
                for key, value in config.items()})
            for config in configs
        ])
        for config, run in zip(configs, runs):
            digests[common.job_label(name, config)] = common.payload_digest(
                result_to_dict(run.require()[name]))
        print(f"{name}: {len(configs)} job(s)", file=sys.stderr)
    common.DIGESTS_PATH.write_text(json.dumps(
        {"seed": common.DEFAULT_SEED, "digests": digests},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {common.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
