"""Exception hierarchy shared across the repro packages."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class AsmError(ReproError):
    """An assembly source could not be assembled.

    Attributes:
        line: 1-based source line number, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class MinicError(ReproError):
    """Base of every diagnostic the mini-C toolchain raises.

    The generator fuzz harness (tests/gen/test_fuzz.py) holds the
    toolchain to this contract: feeding it arbitrary source — garbled,
    truncated, machine-generated — may raise MinicError subclasses and
    nothing else (no bare ``KeyError``/``IndexError`` escaping an
    internal table lookup).
    """


class CompileError(MinicError):
    """A mini-C source could not be compiled.

    Attributes:
        line: 1-based source line number, when known.
        col: 1-based source column, when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        self.line = line
        self.col = col
        if line is not None and col is not None:
            prefix = f"line {line}, col {col}: "
        elif line is not None:
            prefix = f"line {line}: "
        else:
            prefix = ""
        super().__init__(prefix + message)


class InternalCompilerError(CompileError):
    """An unexpected exception escaped a compiler pass.

    The driver (:mod:`repro.minic.compiler`) converts stray
    ``KeyError``/``IndexError``/... into this so callers — fuzzers
    included — always see a :class:`MinicError`; the original
    exception is chained as ``__cause__`` for debugging."""


class SimError(ReproError):
    """The simulated machine hit a fault (bad PC, unaligned access,
    division by zero, instruction limit, ...)."""


class RunnerError(ReproError):
    """An experiment suite run finished with failed jobs.

    Base of the structured runner-failure taxonomy: callers that need
    to react to *how* something failed catch the subclass (or inspect
    :attr:`repro.runner.job.JobFailure.kind`) instead of string-matching
    error text.

    Attributes:
        failures: workload name -> :class:`repro.runner.job.JobFailure`.
    """

    def __init__(self, message: str, failures=None):
        self.failures = dict(failures or {})
        super().__init__(message)


class TimeoutExceeded(RunnerError):
    """A job exhausted its attempts by hitting the per-job timeout."""


class WorkerCrash(RunnerError):
    """A worker process died without reporting (segfault, ``os._exit``,
    OOM-kill) on every attempt."""


class PoolSpawnError(RunnerError):
    """A worker process could not be spawned (fork/exec failure,
    resource exhaustion, or an injected ``pool.spawn`` fault)."""


class StoreCorruption(RunnerError):
    """A cache-store entry failed validation (checksum mismatch,
    truncated envelope, garbled trace framing).

    The stores themselves *recover* from corruption — they drop the
    entry, count it and treat it as a miss — so this is raised only
    where corruption cannot be transparently recovered (e.g. the chaos
    harness verifying invariants)."""


class DiskFull(RunnerError):
    """A job failed because the disk filled up (``ENOSPC``).

    The stores *degrade* on ENOSPC — eviction retry, then running
    uncached — so this surfaces only when a job could not complete at
    all without the space.  Structured (``kind="enospc"``) so callers
    can tell "buy a bigger disk" from a code bug without parsing a
    traceback."""


class RunnerInterrupted(RunnerError):
    """A run was interrupted (SIGINT/SIGTERM): in-flight jobs were
    drained and published, the rest never ran.  Finished jobs are in
    the result store, so re-running the same call continues the sweep.
    """


#: ``JobFailure.kind`` / ``TaskError.kind`` -> exception class, the
#: structured replacement for matching substrings of error text.
FAILURE_KINDS: dict = {
    "timeout": TimeoutExceeded,
    "crash": WorkerCrash,
    "spawn": PoolSpawnError,
    "enospc": DiskFull,
    "error": RunnerError,
}


def error_for_kind(kind: str) -> type:
    """The :class:`RunnerError` subclass for a failure ``kind``."""
    return FAILURE_KINDS.get(kind, RunnerError)
