"""Smoke tests keeping the example scripts from rotting.

The fast examples run end to end; the slow ones (which analyse 100k+
instruction traces) are only checked for importability and a main()
entry point, so the unit-test suite stays quick.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))

#: Fast enough to execute in the unit-test suite.
FAST_EXAMPLES = ["predictor_comparison.py", "gcc_loop.py",
                 "reuse_vs_prediction.py"]


def test_example_inventory():
    assert set(FAST_EXAMPLES) <= set(ALL_EXAMPLES)
    assert len(ALL_EXAMPLES) >= 8


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_examples_define_main(name):
    spec = importlib.util.spec_from_file_location(
        name[:-3], EXAMPLES_DIR / name
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # import-time work only
    assert callable(getattr(module, "main", None)), name


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_examples_run(name):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_gcc_loop_reproduces_fig1_sequences():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "gcc_loop.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout
    # The Fig. 1 value-sequence signatures.
    assert "(0)^32 (1)^32" in out
    assert "(0x8000bfff)^32" in out
    assert "(T)^63" in out
