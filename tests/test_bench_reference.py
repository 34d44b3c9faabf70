"""The benchmark's workloads, run here through the checks the benchmark
applies to their outputs.

``bench/workloads.py`` defines each workload's invocations and its check:
for the paper and network equilibrium runs, the iteration count, and
exploitability, regrets and profile within 1e-10 of
``bench/reference.json``; for the single-player solves, feasible plans, KKT
residuals at most 1e-8 and objectives no more than 1e-8 below the recorded
ones; for ``verify --suite all``, a report that passes.  This test loads that
module and runs operation 0 of each workload through ``cli.main`` in a
temporary directory, so a propagator, kernel or solver change that would
fail the benchmark's output check fails here first.  Nothing under
``bench/`` is written.
"""

import pytest

import influencegame
import influencegame.cli
import influencegame.verification
from conftest import load_bench_workloads


workloads = load_bench_workloads()


def bench_problems(name, tmp_path, capsys):
    """The problems the benchmark's check finds in operation 0 of ``name``."""
    workload = workloads.WORKLOADS[name](influencegame, 0, tmp_path)
    for argv in workload.invocations(0):
        assert influencegame.cli.main(argv) == 0
    problems, _ = workload.check(0, capsys.readouterr().out)
    return problems


@pytest.mark.parametrize("name", ["paper-equilibrium", "network-equilibrium"])
def test_equilibrium_workload_matches_bench_reference(tmp_path, capsys, name):
    assert bench_problems(name, tmp_path, capsys) == []


@pytest.mark.parametrize("name", ["single-player", "verify-all"])
def test_workload_passes_its_bench_check(tmp_path, capsys, name):
    assert bench_problems(name, tmp_path, capsys) == []
