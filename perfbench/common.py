"""Shared pieces of the repository benchmark.

Everything here is pure: seeded inputs for the three workloads, the
statistics the benchmark reports (medians, quartile spreads, the tail
rule), result digests, and the identity of the code under test.  The
program itself (``src/repro``) is imported only by :mod:`rep` and
:mod:`service`, after :func:`require_source` has found it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch stores, server logs and child temp files (removed per run).
WORK = ROOT / ".perfbench-work"
#: Per-run records and span dumps (kept; listed in .gitignore).
OUT = ROOT / ".perfbench-out"
DIGESTS_PATH = BENCH_DIR / "digests.json"

#: The seed whose result digests are committed in ``digests.json``.
DEFAULT_SEED = 1

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

NPROC = os.cpu_count() or 1


def require_source() -> None:
    """Put the checkout's ``src/`` on the import path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under "
                         f"{SRC}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(tmp_dir: Path) -> dict:
    """Environment for every process the benchmark starts: the
    checkout's source on the path, temp files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp_dir)
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_NO_CACHE", None)
    env.pop("REPRO_JOBS", None)
    return env


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the tail rule.

    The value is the highest percentile that leaves at least
    ``beyond`` samples above it: the ``(n - beyond)``-th smallest
    sample, i.e. percentile ``100 * (n - beyond) / n``.  With
    ``beyond`` or fewer samples no percentile qualifies and the
    maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= beyond:
        return float(ordered[-1]), 100.0, n
    index = n - beyond - 1
    return float(ordered[index]), 100.0 * (index + 1) / n, n


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


# ----------------------------------------------------------------------
# Digests.
# ----------------------------------------------------------------------

def payload_digest(payload: dict) -> str:
    """sha256 of a result payload as ``result_to_dict`` shapes it."""
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def job_label(name: str, config: dict) -> str:
    """Stable identity of one (workload, analysis config) job."""
    return f"{name}|{json.dumps(config, sort_keys=True)}"


def combined_digest(digests: dict) -> str:
    """One digest over every job of a run, comparable across commits."""
    text = "\n".join(f"{label}={digests[label]}" for label in sorted(digests))
    return hashlib.sha256(text.encode()).hexdigest()


def load_committed() -> dict:
    """The committed default-seed digests (empty when absent)."""
    try:
        return json.loads(DIGESTS_PATH.read_text())["digests"]
    except FileNotFoundError:
        return {}


class DigestBook:
    """Checks result digests as a run produces them.

    A label with a committed digest must match it on any seed (suite
    workloads do not depend on the seed).  On the default seed every
    label must be committed.  On other seeds an uncommitted label must
    agree with its first digest in the run, so repetitions, replay
    paths and service tiers are held to each other.
    """

    def __init__(self, seed: int, committed: dict | None = None):
        self.seed = seed
        self.committed = load_committed() if committed is None else committed
        self.seen: dict[str, str] = {}

    def check(self, label: str, digest: str) -> bool:
        expected = self.committed.get(label)
        if expected is None and self.seed != DEFAULT_SEED:
            expected = self.seen.setdefault(label, digest)
        self.seen.setdefault(label, digest)
        return digest == expected

    def combined(self) -> str:
        return combined_digest(self.seen)


# ----------------------------------------------------------------------
# Seeded inputs.
# ----------------------------------------------------------------------

def config_dict(budget: int, predictors=("last", "stride", "context"),
                trees_for=("context",), gen_cap: int = 64) -> dict:
    """The JSON shape of an ``ExperimentConfig`` minus its workloads."""
    return {"scale": 1, "max_instructions": budget,
            "predictors": list(predictors), "trees_for": list(trees_for),
            "gen_cap": gen_cap}


def sweep_configs(budget: int) -> list[dict]:
    """The 4-config sweep: full, ``last``, ``stride``, ``context``."""
    return [
        config_dict(budget),
        config_dict(budget, predictors=("last",), trees_for=()),
        config_dict(budget, predictors=("stride",), trees_for=()),
        config_dict(budget, predictors=("context",), gen_cap=32),
    ]


COLD_SUITE = ("com", "gcc", "go", "vor", "app", "swm")
#: Presets whose programs run ~10-20k instructions whatever the seed.
COLD_GEN_PRESETS = ("arith", "pointer-chase", "branchy")
COLD_BUDGET = 40_000


def cold_inputs(seed: int) -> tuple[list[str], list[dict]]:
    """Workload names (suite plus seeded generated programs) and the
    4-config sweep of ``cold_sweep``."""
    rng = random.Random(f"cold_sweep:{seed}")
    names = list(COLD_SUITE) + [
        f"gen:{preset}@{rng.randrange(1, 1_000_000)}"
        for preset in COLD_GEN_PRESETS
    ]
    rng.shuffle(names)
    return names, sweep_configs(COLD_BUDGET)


#: One integer and one floating-point trace, at paper scale.
REPLAY_SUITE = ("gcc", "swm")
REPLAY_RECORDS = 150_000


def replay_inputs(seed: int) -> tuple[list[str], list[dict]]:
    """Trace workloads and the 8 analysis configs of ``replay_sweep``,
    in seeded order.

    Budgets mix the full trace with half and quarter prefixes, so one
    decoded trace serves shorter analyses (prefix-closed reuse).
    """
    rng = random.Random(f"replay_sweep:{seed}")
    names = list(REPLAY_SUITE)
    full, half, quarter = (REPLAY_RECORDS, REPLAY_RECORDS // 2,
                           REPLAY_RECORDS // 4)
    configs = [
        config_dict(full),
        config_dict(full, predictors=("last",), trees_for=()),
        config_dict(half, predictors=("stride",), trees_for=()),
        config_dict(half, predictors=("context",), gen_cap=32),
        config_dict(quarter),
        config_dict(half, predictors=("last", "stride"), trees_for=()),
        config_dict(quarter, predictors=("stride", "context"),
                    trees_for=("stride",), gen_cap=16),
        config_dict(quarter, predictors=("context",), trees_for=()),
    ]
    rng.shuffle(configs)
    return names, configs


# ----------------------------------------------------------------------
# Identity of the code under test.
# ----------------------------------------------------------------------

def _tree_digest(paths, base: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(base)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def source_identity() -> dict:
    """Commit (when the checkout is a git work tree), a digest of every
    file under ``src/`` and one of the benchmark itself."""
    bench = [ROOT / "BENCHMARK.json", DIGESTS_PATH, *BENCH_DIR.glob("*.py")]
    commit = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "src_sha256": _tree_digest(SRC.rglob("*"), SRC),
            "bench_sha256": _tree_digest(bench, ROOT)}


def host_facts() -> dict:
    return {"nproc": NPROC, "python": platform.python_version(),
            "platform": platform.platform()}
