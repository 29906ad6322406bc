"""repro — a reproduction of "Modeling Program Predictability"
(Sazeides & Smith, ISCA 1998).

The library has four layers:

* **Substrate** — a MIPS-like ISA (:mod:`repro.isa`), an assembler
  (:mod:`repro.asm`), a tracing functional simulator
  (:mod:`repro.cpu`) and a mini-C compiler (:mod:`repro.minic`),
  standing in for the paper's SimpleScalar + gcc toolchain.
* **Predictors** (:mod:`repro.predictors`) — last-value, 2-delta
  stride, two-level context, and gshare.
* **Model** (:mod:`repro.core`) — the dynamic prediction graph and the
  streaming classification of predictability generation, propagation
  and termination, with path/tree, sequence and branch analyses.
* **Evaluation** (:mod:`repro.workloads`, :mod:`repro.report`) — the
  SPEC95-analogue workload suite and the harness regenerating every
  table and figure of the paper.

Quick start::

    from repro import compile_program, Machine, analyze_machine

    program = compile_program("int main() { ... }")
    result = analyze_machine(Machine(program), "mine")
    print(result.predictors["stride"].nodes.behavior_counts())
"""

from repro.asm import AsmError, Program, assemble
from repro.core import (
    AnalysisConfig,
    AnalysisResult,
    Analyzer,
    Behavior,
    GenClass,
    InKind,
    UseClass,
    analyze_machine,
    analyze_trace,
    build_dpg,
)
from repro.cpu import DynInst, Machine, MachineResult, Source, run_program
from repro.errors import CompileError, ReproError, SimError
from repro.minic import compile_program, compile_source
from repro.predictors import (
    ContextPredictor,
    GsharePredictor,
    LastValuePredictor,
    PredictorBank,
    StridePredictor,
    make_predictor,
)
from repro.workloads import SUITE, Workload, get_workload


def _resolve_version() -> str:
    """The package version, from metadata rather than a constant.

    Installed (even editable) distributions answer via
    ``importlib.metadata``; a plain ``PYTHONPATH=src`` checkout — the
    supported no-install mode — falls back to parsing the adjacent
    ``pyproject.toml``, so there is exactly one place the version
    lives.
    """
    from importlib import metadata

    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:
        pass
    try:
        import pathlib
        import tomllib

        pyproject = (pathlib.Path(__file__).resolve().parents[2]
                     / "pyproject.toml")
        with open(pyproject, "rb") as handle:
            return tomllib.load(handle)["project"]["version"]
    except (OSError, KeyError, ImportError, ValueError):
        return "0+unknown"


def __getattr__(name: str):
    # ``__version__`` is resolved on first read, not at import: the
    # metadata scan costs more than most runs spend importing.
    if name == "__version__":
        version = globals()["__version__"] = _resolve_version()
        return version
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "Analyzer",
    "AsmError",
    "Behavior",
    "CompileError",
    "ContextPredictor",
    "DynInst",
    "GenClass",
    "GsharePredictor",
    "InKind",
    "LastValuePredictor",
    "Machine",
    "MachineResult",
    "PredictorBank",
    "Program",
    "ReproError",
    "SUITE",
    "SimError",
    "Source",
    "StridePredictor",
    "UseClass",
    "Workload",
    "analyze_machine",
    "analyze_trace",
    "assemble",
    "build_dpg",
    "compile_program",
    "compile_source",
    "get_workload",
    "make_predictor",
    "run_program",
]
