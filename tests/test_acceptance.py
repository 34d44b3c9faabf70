"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from influencegame import (
    exploitability,
    payoff_gradient,
    propagator,
    regret,
    run_no_regret,
    solve_single,
    total_payoff,
)
from influencegame.cli import reference_scenario
from influencegame.game_model import _midpoint_violations
from influencegame.verification import (
    brute_force_best_response,
    random_feasible_profile,
    random_linear_game,
    random_network,
)
from conftest import payoff_fd_gradients, subprocess_env

HORIZONS = (25, 50, 100, 200, 400)


def report(number: int, passed: bool, detail: str):
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {verdict} — {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def reference_spec():
    return reference_scenario().spec


@pytest.fixture(scope="module")
def long_trace(reference_spec):
    """One T=400 reference run; its running averages at T' < 400 coincide with
    what a T' run would produce, since the stepsizes depend only on tau."""
    return run_no_regret(reference_spec, 400)


def test_criterion_1_reference_reproduction(tmp_path):
    prefix = str(tmp_path / "repro")
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "influencegame.cli", "equilibrate",
         "--paper-example", "--T", "100", "--out", prefix],
        capture_output=True, text=True, env=subprocess_env(),
    )
    elapsed = time.perf_counter() - start
    ok = completed.returncode == 0 and elapsed < 10.0

    averages = {}
    rows = (tmp_path / "repro_trace.csv").read_text().splitlines()[1:]
    for row in rows:
        tau, player, stage, individual, _, average, _ = row.split(",")
        averages[(int(tau), int(player), int(stage), int(individual))] = float(average)

    worst_spread = 0.0
    for player in (0, 1):
        for stage in (1, 2):
            values = [averages[(100, player, stage, i)] for i in range(3)]
            worst_spread = max(worst_spread, max(values) - min(values))
    ok = ok and worst_spread <= 1e-2

    drift = max(
        abs(averages[(100, p, k, i)] - averages[(50, p, k, i)])
        for p in (0, 1) for k in (1, 2) for i in range(3)
    )
    ok = ok and drift < 0.1
    report(1, ok, f"CLI run {elapsed:.2f}s (<10s), per-individual spread "
                  f"{worst_spread:.2e} (<=1e-2), |avg100-avg50| {drift:.3f} (<0.1)")


def test_criterion_2_convergence_rate(reference_spec, long_trace):
    exploitabilities = [
        exploitability(reference_spec, long_trace.averages[T - 1]) for T in HORIZONS
    ]
    decreasing_expl = all(a > b for a, b in zip(exploitabilities, exploitabilities[1:]))

    ratios_ok = True
    slopes = []
    for j in range(2):
        regrets = [regret(long_trace, j, horizon=T) for T in HORIZONS]
        ratios = [r / T for r, T in zip(regrets, HORIZONS)]
        ratios_ok = ratios_ok and all(a > b for a, b in zip(ratios, ratios[1:]))
        slopes.append(float(np.polyfit(np.log(HORIZONS), np.log(regrets), 1)[0]))

    report(2, decreasing_expl and ratios_ok,
           f"exploitability {['%.2e' % e for e in exploitabilities]} strictly "
           f"decreasing={decreasing_expl}, R(T)/T strictly decreasing={ratios_ok}; "
           f"fitted log-log regret slopes {['%.3f' % s for s in slopes]} "
           "(informational; <1 means sublinear)")


def test_criterion_3_constant_sum(reference_spec, long_trace):
    worst = 0.0
    for trace in (long_trace,
                  run_no_regret(reference_spec, 100)):
        spend = trace.iterates.sum(axis=(1, 2, 3))
        total = trace.payoffs.sum(axis=1)
        worst = max(worst, float(np.max(np.abs(total - (3.0 - spend / 3.0)))))

    rng = np.random.default_rng(2024)
    worst_full = 0.0
    for _ in range(5):
        profile = np.empty((2, 2, 3))
        for j in range(2):
            raw = rng.random((2, 3)) + 0.05
            profile[j] = raw / raw.sum() * float(reference_spec.budgets[j])
        plans = profile
        total = sum(total_payoff(reference_spec, plans, j) for j in range(2))
        worst_full = max(worst_full, abs(total - 1.0 / 3.0))
    ok = worst <= 1e-10 and worst_full <= 1e-10
    report(3, ok, f"identity violation {worst:.2e} along traces (<=1e-10), "
                  f"full-spend total within {worst_full:.2e} of 1/3")


def test_criterion_4_stochastic_propagators():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst_row, worst_neg = 0.0, 0.0
    for _ in range(500):
        network = random_network(rng, int(rng.integers(2, 9)))
        matrix = propagator(network, float(rng.random() * 100.0))
        worst_row = max(worst_row, float(np.max(np.abs(matrix.sum(axis=1) - 1.0))))
        worst_neg = max(worst_neg, float(max(0.0, -np.min(matrix))))
    elapsed = time.perf_counter() - start
    ok = worst_row <= 1e-10 and worst_neg <= 1e-12 and elapsed < 30.0
    report(4, ok, f"500 propagators: row-sum violation {worst_row:.2e} (<=1e-10), "
                  f"negativity {worst_neg:.2e} (<=1e-12), {elapsed:.1f}s (<30s)")


def test_criterion_5_convexity_properties():
    rng = np.random.default_rng(505)
    worst_product = -np.inf
    for _ in range(200):
        d = int(rng.integers(1, 6))
        width = int(rng.integers(1, 5))
        a = rng.random(d) * 2.0 + 0.1
        w = rng.random((d, width)) * 2.0

        def product_of_reciprocals(y, a=a, w=w, d=d, width=width):
            y = y.reshape(-1, d, width)
            return np.prod(1.0 / (a + np.einsum("ij,bij->bi", w, y)), axis=-1)

        # 16 pairs drawn as one block from the function's own seed
        points = np.random.default_rng(int(rng.integers(1 << 30))).random((32, d * width)) * 3.0
        violations = _midpoint_violations(product_of_reciprocals, points[0::2], points[1::2])
        worst_product = max(worst_product, float(np.max(violations)))

    worst_game = -np.inf
    pairs = 0
    while pairs < 100:
        m = int(rng.integers(2, 4))
        spec = random_linear_game(rng, m, int(rng.integers(2, 6)), int(rng.integers(1, 4)))
        j = int(rng.integers(m))
        own = random_feasible_profile(rng, spec)[j]
        others = [ell for ell in range(m) if ell != j]

        def payoff_of_opponents(flat):
            profile = np.empty((m, spec.K, spec.n))
            profile[j] = own
            for pos, ell in enumerate(others):
                profile[ell] = flat.reshape(len(others), spec.K, spec.n)[pos]
            return total_payoff(spec, profile, j)

        for _ in range(5):
            a = np.concatenate([random_feasible_profile(rng, spec)[l].ravel() for l in others])
            b = np.concatenate([random_feasible_profile(rng, spec)[l].ravel() for l in others])
            violation = payoff_of_opponents((a + b) / 2.0) - (
                payoff_of_opponents(a) + payoff_of_opponents(b)
            ) / 2.0
            worst_game = max(worst_game, violation)
            pairs += 1
    ok = worst_product <= 1e-9 and worst_game <= 1e-9
    report(5, ok, f"worst midpoint violation: reciprocal products {worst_product:.2e}, "
                  f"payoff vs opponents {worst_game:.2e} (both <=1e-9)")


def test_criterion_6_gradient_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(1, 4))
        spec = random_linear_game(rng, m, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
        for _ in range(20):
            profile = random_feasible_profile(rng, spec)
            j = int(rng.integers(m))
            analytic = payoff_gradient(spec, profile, j)
            numeric = payoff_fd_gradients(spec, profile[None], j)[0]
            scale = max(float(np.max(np.abs(numeric))), 1e-12)
            worst = max(worst, float(np.max(np.abs(analytic - numeric))) / scale)
    report(6, worst < 1e-6,
           f"max relative error {worst:.2e} over 10 scenarios x 20 points (<1e-6)")


def test_criterion_7_solver_vs_brute_force():
    rng = np.random.default_rng(707)
    shapes = [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)]
    worst_gap = -np.inf
    worst_concavity = -np.inf
    for n, K in shapes:
        spec = random_linear_game(rng, 1, n, K)
        result = solve_single(spec)
        _, grid_value = brute_force_best_response(
            spec, np.zeros((1, K, n)), 0, grid_step=0.01
        )
        gradient = payoff_gradient(spec, np.zeros((1, K, n)), 0)
        margin = float(np.linalg.norm(gradient)) * 0.01 * np.sqrt(K * n)
        worst_gap = max(worst_gap, grid_value - margin - result.objective)

        def objective(flat, spec=spec, K=K, n=n):
            return total_payoff(spec, flat.reshape(1, K, n), 0)

        for _ in range(10):
            a = random_feasible_profile(rng, spec).ravel()
            b = random_feasible_profile(rng, spec).ravel()
            chord = (objective(a) + objective(b)) / 2.0
            worst_concavity = max(worst_concavity, chord - objective((a + b) / 2.0))
    ok = worst_gap <= 0.0 and worst_concavity <= 1e-9
    report(7, ok, f"5 instances: worst (grid - margin - solver) gap {worst_gap:.2e} "
                  f"(<=0), concavity violation {worst_concavity:.2e} (<=1e-9)")


def test_criterion_8_cross_module_equivalence():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(3):
        spec = random_linear_game(rng, 1, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        solver_objective = solve_single(spec).objective
        trace = run_no_regret(spec, 400)
        loop_objective = total_payoff(spec, trace.iterates[-1], 0)
        worst = max(worst, abs(solver_objective - loop_objective))
    report(8, worst <= 1e-4,
           f"|single-player loop - solver| objective gap {worst:.2e} (<=1e-4)")


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        prefix = str(tmp_path / name)
        completed = subprocess.run(
            [sys.executable, "-m", "influencegame.cli", "equilibrate",
             "--paper-example", "--T", "25", "--out", prefix],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append((
            (tmp_path / f"{name}_trace.csv").read_bytes(),
            (tmp_path / f"{name}_result.json").read_bytes(),
        ))
    identical = outputs[0] == outputs[1]
    report(9, identical, "two identical runs produced byte-identical "
                         "trace and result files")
