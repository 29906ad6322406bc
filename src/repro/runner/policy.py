"""ExecutionPolicy — the one object that says *how* work executes.

Pool shape and segment-parallel analysis are one frozen dataclass that
travels as a unit through ``api.configure(policy=)``,
``ExperimentRunner(policy=)``, the service broker, and a
``--policy key=val,...`` CLI flag.

Policy is *execution*, never *identity*: none of these fields may
enter ``job_key``/``trace_key``, so changing how work runs always hits
the same caches.  :func:`assert_excluded_from_identity` is the
enforced contract (called from tests and at runner construction).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ReproError


class PolicyError(ReproError):
    """An ExecutionPolicy value or ``--policy`` string is invalid."""


#: Default boundary spacing for segment-parallel analysis.  Chosen so
#: paper-scale traces (1e6+ records) split into enough segments to
#: keep a small pool busy while each segment still amortizes worker
#: startup and state-fold cost.
DEFAULT_SEGMENT_RECORDS = 250_000


@dataclass(frozen=True)
class ExecutionPolicy:
    """How experiments execute: pool shape, segmentation.

    ``jobs``
        Worker-pool width for cold jobs (and segment tasks).
    ``timeout`` / ``retries``
        Per-task deadline (seconds, None = none) and extra attempts
        per failing task (0 = fail fast), as in
        :class:`repro.runner.pool.TaskPool`.
    ``segments``
        Target segment count for single-trace segment-parallel
        analysis; 1 disables sharding (the default).
    ``segment_records``
        Checkpoint spacing written into the v2 segment index at
        capture/reindex time; also the floor below which a trace is
        never sharded (a segment smaller than this costs more to
        fold than it saves).
    """

    jobs: int = 1
    timeout: float | None = None
    retries: int = 1
    segments: int = 1
    segment_records: int = DEFAULT_SEGMENT_RECORDS

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise PolicyError(f"policy jobs must be >= 1, got {self.jobs}")
        if self.timeout is not None and self.timeout <= 0:
            raise PolicyError(
                f"policy timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise PolicyError(
                f"policy retries must be >= 0, got {self.retries}")
        if self.segments < 1:
            raise PolicyError(
                f"policy segments must be >= 1, got {self.segments}")
        if self.segment_records < 1:
            raise PolicyError(
                f"policy segment_records must be >= 1, "
                f"got {self.segment_records}")

    # ------------------------------------------------------------------

    def merged(self, **overrides) -> "ExecutionPolicy":
        """A copy with ``overrides`` applied (unknown keys rejected)."""
        names = {field.name for field in dataclasses.fields(self)}
        unknown = set(overrides) - names
        if unknown:
            raise PolicyError(
                f"unknown policy field {sorted(unknown)[0]!r} "
                f"(known: {', '.join(sorted(names))})")
        return dataclasses.replace(self, **overrides)

    def describe(self) -> dict:
        """JSON-ready view for ``/readyz`` and ``repro stats``."""
        return dataclasses.asdict(self)

    @classmethod
    def parse(cls, text: str,
              base: "ExecutionPolicy | None" = None) -> "ExecutionPolicy":
        """Parse a ``--policy`` string: ``key=val,key=val,...``.

        Values are coerced per field type; ``timeout=none`` clears the
        deadline.  Unknown keys and malformed values raise
        :class:`PolicyError` with the accepted spelling.
        """
        policy = base if base is not None else cls()
        text = text.strip()
        if not text:
            return policy
        overrides: dict = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise PolicyError(
                    f"policy entry {part!r} is not key=value")
            key, __, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key in ("jobs", "retries", "segments", "segment_records"):
                try:
                    overrides[key] = int(raw)
                except ValueError:
                    raise PolicyError(
                        f"policy {key} expects an integer, got {raw!r}"
                    ) from None
            elif key == "timeout":
                if raw.lower() in ("none", ""):
                    overrides[key] = None
                else:
                    try:
                        overrides[key] = float(raw)
                    except ValueError:
                        raise PolicyError(
                            f"policy timeout expects a number or "
                            f"'none', got {raw!r}") from None
            else:
                raise PolicyError(
                    f"unknown policy field {key!r} (known: "
                    f"{', '.join(POLICY_FIELDS)})")
        return policy.merged(**overrides)


#: Field names, for the identity-exclusion contract below.
POLICY_FIELDS = tuple(
    field.name for field in dataclasses.fields(ExecutionPolicy))


def assert_excluded_from_identity() -> None:
    """Policy fields must never be hashed into job/trace identity.

    ``job_key``/``trace_key`` feed every :class:`AnalysisConfig` and
    :class:`ExperimentConfig` field into the hash; if a policy field
    name ever appears there, execution knobs would start splitting the
    caches.  Cheap to check, so the runner checks it at construction.
    """
    from repro.core.analysis import AnalysisConfig
    from repro.runner.job import ExperimentConfig

    hashed = {f.name for f in dataclasses.fields(AnalysisConfig)}
    hashed |= {f.name for f in dataclasses.fields(ExperimentConfig)}
    overlap = set(POLICY_FIELDS) & hashed
    if overlap:  # pragma: no cover - guarded by test_policy
        raise AssertionError(
            f"ExecutionPolicy fields leak into job identity: "
            f"{sorted(overlap)}")
