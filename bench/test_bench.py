"""The benchmark's own checks: tracing changes no output and leaves no patch behind.

    python3 -m pytest bench/test_bench.py -q
"""

import contextlib
import inspect
import io
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import calibration
import run
import tracing

sys.path.insert(0, str(run.SRC))
ig = run.import_package()


def function_bindings():
    return {
        (module.__name__, name): value
        for module in tracing.package_modules()
        for name, value in vars(module).items()
        if inspect.isfunction(value)
    }


def equilibrate(prefix):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert ig.cli.main(["equilibrate", "--paper-example", "--T", "30", "--out", str(prefix)]) == 0
    return (stdout.getvalue().replace(str(prefix), "<out>"),
            Path(f"{prefix}_trace.csv").read_bytes(),
            Path(f"{prefix}_result.json").read_bytes())


def test_traced_operation_output_is_byte_identical(tmp_path):
    untraced = equilibrate(tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracer.patched():
        traced = equilibrate(tmp_path / "traced")
    assert traced == untraced
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "equilibrium_solver.run_no_regret", "opinion_dynamics.propagator",
            "fileio.atomic_write_text"} <= names


def test_patched_names_are_restored_even_after_an_error():
    before = function_bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().patched():
            patched = function_bindings()
            raise RuntimeError
    assert function_bindings() == before
    changed = {key for key in before if patched[key] is not before[key]}
    # Names bound by ``from .x import y`` are patched along with the definition.
    assert {("influencegame.game_model", "interval_propagators"),
            ("influencegame.opinion_dynamics", "interval_propagators"),
            ("influencegame.cli", "solve_equilibrium"),
            ("influencegame", "propagator")} <= changed
    assert not any(name.startswith("_") for _, name in changed)


def test_self_time_subtracts_child_spans():
    spans = [
        ["equilibrium_solver.best_response", 0.0, 10.0, -1, 0, 0],
        ["game_model.total_payoff", 1.0, 4.0, 0, 0, 0],
        ["opinion_dynamics.propagator", 2.0, 3.0, 1, 0, 7],
        ["game_model.total_payoff", 5.0, 6.0, -1, 0, 0],
    ]
    per_operation, inside = tracing.summarize(spans)
    record = per_operation[0]
    assert record["equilibrium_solver.best_response"] == [1, 10.0, 7.0, 0]
    assert record["game_model.total_payoff"] == [2, 4.0, 3.0, 0]
    assert record["opinion_dynamics.propagator"] == [1, 1.0, 1.0, 7]
    assert inside[0]["game_model.total_payoff"] == 1


@pytest.mark.parametrize("dt", [0.1, 1.0, 37.5])
def test_propagator_flops_follow_the_squaring_count(dt):
    network = ig.opinion_dynamics.build_network(np.array([[1.0, 2.0], [3.0, 1.0]]))
    norm = np.linalg.norm(-network.laplacian * dt, np.inf)
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    assert tracing.propagator_flops(network, dt) == 2 * 8 * (13 + squarings)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["solve_s", "cpu_s", "peak_rss_mb", "setup_s"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_probe_takes_its_kernel_runs_out_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with calibration.Probe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Bracketing runs plus about one every INTERVAL_S inside the block.
    assert len(probe.samples) >= 2 + 0.3 / calibration.INTERVAL_S / 2
    spent = sum(wall for wall, _ in probe.samples[1:-1])
    assert probe.wall == pytest.approx(0.3 - spent, abs=0.02)
    speed = calibration.speed([wall for wall, _ in probe.samples])
    assert probe.scaled_wall == pytest.approx(probe.wall * speed)


def test_per_operation_sums_the_median_of_each_invocation():
    assert run.per_operation([[1.0, 10.0], [9.0, 2.0], [2.0, 3.0]]) == 2.0 + 3.0
