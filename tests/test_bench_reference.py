"""The benchmark's equilibrium workloads, run here against its recorded outputs.

``bench/workloads.py`` defines the paper and network equilibrium runs and
the check the benchmark applies to their results: the iteration count, and
exploitability, regrets and profile within 1e-10 of ``bench/reference.json``.
This test loads that module and runs the same invocations through
``cli.main`` in a temporary directory, so a kernel or solver change that
would fail the benchmark's output check fails here first.  Nothing under
``bench/`` is written.
"""

import pytest

import influencegame
import influencegame.cli
import influencegame.verification
from conftest import load_bench_workloads


workloads = load_bench_workloads()


@pytest.mark.parametrize("name", ["paper-equilibrium", "network-equilibrium"])
def test_equilibrium_workload_matches_bench_reference(tmp_path, capsys, name):
    workload = workloads.WORKLOADS[name](influencegame, 0, tmp_path)
    for argv in workload.invocations(0):
        assert influencegame.cli.main(argv) == 0
    problems, _ = workload.check(0, capsys.readouterr().out)
    assert problems == []
