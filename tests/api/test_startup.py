"""Start-up cost: a ``repro`` process imports only what its run executes.

Checked by module sets in fresh interpreters, not by a timer: the
runtime never loads networkx (the optional ``dpg`` extra, needed by
:func:`repro.core.build_dpg` alone) or ``importlib.metadata`` (read
by ``repro.__version__`` on first access only).
"""

import json
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import repro
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def _python(script: str) -> str:
    prelude = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
    done = subprocess.run([sys.executable, "-c", prelude + script],
                          capture_output=True, text=True, timeout=300,
                          cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _pyproject_version() -> str:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]["version"]


def test_import_loads_neither_networkx_nor_metadata():
    out = _python(
        "before = set(sys.modules)\n"
        "import repro.runner, repro.cli\n"
        "repro.cli.build_parser().parse_args(['cache', 'info'])\n"
        "import json\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    loaded = set(json.loads(out))
    assert "repro.runner" in loaded
    assert not {name for name in loaded
                if name == "networkx" or name.startswith("networkx.")}
    assert "importlib.metadata" not in loaded


def test_runtime_runs_with_networkx_blocked():
    out = _python(
        "sys.modules['networkx'] = None\n"
        "import repro, repro.runner, repro.cli\n"
        "from repro.runner import ExperimentConfig, ExperimentRunner\n"
        "config = ExperimentConfig(workloads=('com',), "
        "max_instructions=500)\n"
        "[run] = ExperimentRunner().run_many([config])\n"
        "assert set(run.require()) == {'com'}\n"
        "try:\n"
        "    repro.build_dpg([])\n"
        "except ImportError as error:\n"
        "    print(error)\n"
    )
    assert "networkx" in out


def test_version_matches_pyproject():
    assert repro.__version__ == _pyproject_version()


def test_version_flag_prints_it(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--version"])
    assert exited.value.code == 0
    assert capsys.readouterr().out == (
        f"python -m repro {_pyproject_version()}\n")
