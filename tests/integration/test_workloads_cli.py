"""Tests for the workload CLI and suite plumbing."""

import pytest

from repro.cli import main as cli_main
from repro.workloads import get_workload


def main(argv):
    """``python -m repro workloads <argv>``."""
    return cli_main(["workloads", *argv])


class TestWorkloadsCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        for name in ("com", "gcc", "swm"):
            assert name in output

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "129.compress" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        assert main(["--run", "nothere"]) == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_emit_asm(self, capsys):
        assert main(["--run", "com", "--emit-asm"]) == 0
        asm = capsys.readouterr().out
        assert "jal main" in asm
        assert "g_hash_code" in asm

    def test_run_small_workload(self, capsys):
        assert main(["--run", "fpp"]) == 0
        captured = capsys.readouterr()
        assert "2.98259" in captured.out
        assert "145.fpppp" in captured.err


class TestWorkloadPlumbing:
    def test_program_cached(self):
        workload = get_workload("com")
        assert workload.program() is workload.program()

    def test_machine_independence(self):
        workload = get_workload("com")
        first = workload.machine(tracing=False)
        second = workload.machine(tracing=False)
        first.run()
        # The second machine is untouched by the first's run.
        assert second.uid == 0
        assert not second.halted

    def test_max_instructions_forwarded(self):
        from repro.errors import SimError

        workload = get_workload("com")
        machine = workload.machine(tracing=False, max_instructions=100)
        with pytest.raises(SimError, match="instruction limit"):
            machine.run()

    def test_source_matches_program_file(self):
        workload = get_workload("xli")
        assert "mark-sweep" in workload.source() or "cons" in workload.source()
