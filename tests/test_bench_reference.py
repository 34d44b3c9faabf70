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
fail the benchmark's output check fails here first.  Each workload's
operation 0 also runs traced, inside ``bench/tracing.py``'s
``Tracer().patched()`` as the benchmark's trace mode runs it, and must give
the untraced run's bytes.  Nothing under ``bench/`` is written.
"""

import contextlib
import math

import pytest

import influencegame
import influencegame.cli
import influencegame.verification
from conftest import load_bench_module


workloads = load_bench_module("workloads")
tracing = load_bench_module("tracing")


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


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_operation_gives_the_untraced_bytes(tmp_path, capsys, name):
    workload = workloads.WORKLOADS[name](influencegame, 0, tmp_path)

    def run(tracer=None):
        """Exit codes, stdout and output files of operation 0; the files are
        removed after reading, so the next run must write them anew."""
        with tracer.patched() if tracer else contextlib.nullcontext():
            codes = [influencegame.cli.main(argv) for argv in workload.invocations(0)]
        stdout = capsys.readouterr().out
        outputs = [path.read_bytes() for path in workload.output_files(0)]
        problems, _ = workload.check(0, stdout)
        for path in workload.output_files(0):
            path.unlink()
        return codes, problems, stdout, outputs

    plain = run()
    tracer = tracing.Tracer()
    tracer.operation = 0
    traced = run(tracer)
    assert traced[:2] == ([0] * len(workload.invocations(0)), [])
    assert traced == plain
    medians = tracing.per_layer_medians(tracer.spans, [0])
    assert medians and all(math.isfinite(value) for value in medians.values())
