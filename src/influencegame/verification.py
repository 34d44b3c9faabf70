"""Independent numerical oracles: finite differences, grid search, and shape checks.

These routines deliberately avoid the analytic code paths they are used to
check.  Finite differences validate the exact payoff gradients, exhaustive
grid search validates the solvers on tiny instances, and the midpoint
samplers turn the structural facts the algorithms rely on (propagators are
stochastic, payoffs are convex in opponents' strategies, the single-player
objective is concave) into executable checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .game_model import plans_from_array, profile_array, total_payoff
from .single_player_solver import build_region


@dataclass(frozen=True)
class StochasticityReport:
    passed: bool
    row_sum_violation: float
    negativity_violation: float


def check_stochastic(matrix: np.ndarray, tol: float = 1e-10) -> StochasticityReport:
    """Pass iff every row sums to 1 within tol and no entry dips below -tol."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("stochasticity check needs a square matrix")
    row_sum_violation = float(np.max(np.abs(matrix.sum(axis=1) - 1.0)))
    negativity_violation = float(max(0.0, -np.min(matrix)))
    passed = row_sum_violation <= tol and negativity_violation <= tol
    return StochasticityReport(passed, row_sum_violation, negativity_violation)


@dataclass(frozen=True)
class ConvexityProbe:
    """A function, a sampler for points of its convex domain, and a tolerance."""

    function: Callable
    sampler: Callable
    samples: int = 100
    tolerance: float = 1e-9


@dataclass(frozen=True)
class ConvexityReport:
    passed: bool
    worst_violation: float


def midpoint_convexity_check(probe: ConvexityProbe, seed: int = 0) -> ConvexityReport:
    """Sample point pairs and assert f(midpoint) <= mean of endpoint values.

    Returns the worst signed violation; positive values beyond the tolerance
    mean the function bulged above a chord somewhere.
    """
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(probe.samples):
        y = np.asarray(probe.sampler(rng), dtype=float)
        y_hat = np.asarray(probe.sampler(rng), dtype=float)
        midpoint = probe.function((y + y_hat) / 2.0)
        chord = (probe.function(y) + probe.function(y_hat)) / 2.0
        worst = max(worst, float(midpoint - chord))
    return ConvexityReport(passed=worst <= probe.tolerance, worst_violation=worst)


@dataclass(frozen=True)
class FiniteDifferenceResult:
    """Central-difference gradient; ``one_sided`` lists coordinates where a
    perturbed evaluation failed and a one-sided difference was used instead."""

    gradient: np.ndarray
    one_sided: tuple[int, ...] = ()


def fd_gradient(evaluator: Callable, point: np.ndarray, h: float = 1e-5) -> FiniteDifferenceResult:
    """Finite-difference gradient of a scalar function, coordinate by coordinate.

    Central differences by default; when a perturbed evaluation fails (for
    instance at a feasibility boundary) the coordinate falls back to a
    second-order one-sided stencil on the side that works, degrading to the
    plain one-sided quotient when even the two-step point is out of reach.
    """
    point = np.asarray(point, dtype=float)
    gradient = np.empty(point.size)
    one_sided = []
    flat = point.ravel()

    def at(offset_index, delta):
        shifted = flat.copy()
        shifted[offset_index] += delta
        return evaluator(shifted.reshape(point.shape))

    for i in range(flat.size):
        try:
            gradient[i] = (at(i, h) - at(i, -h)) / (2.0 * h)
            continue
        except Exception:
            pass
        center = evaluator(point)
        for sign in (1.0, -1.0):
            try:
                near = at(i, sign * h)
            except Exception:
                continue
            try:
                far = at(i, sign * 2.0 * h)
                gradient[i] = sign * (-3.0 * center + 4.0 * near - far) / (2.0 * h)
            except Exception:
                gradient[i] = sign * (near - center) / h
            break
        else:
            raise ValueError(f"evaluator failed on both sides of coordinate {i}")
        one_sided.append(i)
    return FiniteDifferenceResult(gradient=gradient.reshape(point.shape),
                                  one_sided=tuple(one_sided))


def _grid_candidates(cap: float, dims: int, grid_step: float) -> np.ndarray:
    """Lexicographically ordered grid of [0, cap]^dims filtered to sum <= cap."""
    axis = np.arange(0.0, cap + grid_step / 2.0, grid_step)
    mesh = np.meshgrid(*([axis] * dims), indexing="ij")
    candidates = np.stack([m.ravel() for m in mesh], axis=1)
    return candidates[candidates.sum(axis=1) <= cap + 1e-12]


def brute_force_best_response(spec, profile, j: int, grid_step: float):
    """Exhaustive grid search for player j's best response; returns (entries, payoff).

    Candidates are enumerated lexicographically and ties keep the earliest
    (lexicographically smallest) point, so the result is deterministic.
    Guarded to K*n <= 4 variables.
    """
    K, n = spec.K, spec.n
    if K * n > 4:
        raise ValueError("grid search is limited to K*n <= 4 variables")
    cap = float(spec.budgets[j])
    candidates = _grid_candidates(cap, K * n, grid_step)

    entries = profile if isinstance(profile, np.ndarray) else profile_array(profile)
    entries = np.array(entries, dtype=float)

    if spec.m == 1 and spec.utilities[0].is_linear:
        best_index, best_value = _batched_single_player_search(spec, candidates)
    else:
        if spec.m == 1:
            region = build_region(spec)
            keep = np.array([region.contains(c, tol=1e-9) for c in candidates])
            candidates = candidates[keep]
        best_index, best_value = -1, -np.inf
        for idx, candidate in enumerate(candidates):
            entries[j] = candidate.reshape(K, n)
            try:
                value = total_payoff(spec, plans_from_array(spec, entries), j)
            except Exception:
                continue
            if value > best_value:
                best_index, best_value = idx, value
    if best_index < 0:
        raise ValueError("no feasible grid point found")
    return candidates[best_index].reshape(K, n), float(best_value)


# ---------------------------------------------------------------------------
# Random instance generation (shared by the property suites and the test bed)
# ---------------------------------------------------------------------------


def random_network(rng: np.random.Generator, n: int):
    """Random dense weighted graph with guaranteed positive row sums."""
    from .opinion_dynamics import build_network

    weights = rng.random((n, n)) + 0.05
    mask = rng.random((n, n)) < 0.75
    weights = weights * mask + np.eye(n)  # self-loops keep every row alive
    return build_network(weights)


def random_linear_game(rng: np.random.Generator, m: int, n: int, K: int,
                       budget_scale: float = 1.0):
    """Random game with linear-favor utilities and simplex initial opinions
    for multiplayer instances.

    Single-player budgets are kept small enough that any split of the budget
    respects the opinion caps along the trajectory, so random profiles are
    feasible without rejection sampling.
    """
    from .game_model import GameSpec, StageUtility
    from .opinion_dynamics import CampaignSchedule, OpinionState

    network = random_network(rng, n)
    times = np.concatenate([[0.0], np.cumsum(rng.random(K + 1) * 1.5 + 0.25)])
    schedule = CampaignSchedule(times=times)
    if m == 1:
        x0 = OpinionState(rng.random((n, 1)) * 0.3 + 0.1)
        budgets = rng.random(1) * 0.07 + 0.25
    else:
        raw = rng.random((n, m)) + 0.2
        x0 = OpinionState(raw / raw.sum(axis=1, keepdims=True))
        budgets = rng.random(m) * budget_scale + 0.3
    utilities = tuple(
        StageUtility(
            kind="linear-favor",
            rho=rng.random((K + 1, n)) * 1.5 + 0.1,
            cost_coefficient=float(rng.random() * 0.8 + 0.1),
        )
        for _ in range(m)
    )
    return GameSpec(network=network, schedule=schedule, x0=x0,
                    budgets=budgets, utilities=utilities)


def random_feasible_profile(rng: np.random.Generator, spec, margin: float = 1e-3):
    """Strictly feasible joint profile with entries bounded away from zero."""
    profile = np.empty((spec.m, spec.K, spec.n))
    for j in range(spec.m):
        raw = rng.random((spec.K, spec.n)) + margin
        target = float(spec.budgets[j]) * (0.3 + 0.5 * rng.random())
        profile[j] = raw / raw.sum() * target
    return profile


# ---------------------------------------------------------------------------
# Property suites (exposed through the CLI verify command)
# ---------------------------------------------------------------------------

SUITES = ("lemmas", "gradients", "oracles", "all")


def _check(name: str, passed: bool, **details) -> dict:
    record = {"name": name, "passed": bool(passed)}
    record.update({k: (float(v) if isinstance(v, (np.floating, float)) else v)
                   for k, v in details.items()})
    return record


def _suite_lemmas(seed: int) -> list[dict]:
    from .opinion_dynamics import propagator

    rng = np.random.default_rng(seed)
    checks = []

    worst_row, worst_neg = 0.0, 0.0
    for _ in range(500):
        network = random_network(rng, int(rng.integers(2, 9)))
        t = float(rng.random() * 100.0)
        matrix = propagator(network, t).matrix
        worst_row = max(worst_row, float(np.max(np.abs(matrix.sum(axis=1) - 1.0))))
        worst_neg = max(worst_neg, float(max(0.0, -np.min(matrix))))
    checks.append(_check(
        "propagator-stochasticity",
        worst_row <= 1e-10 and worst_neg <= 1e-12,
        worst_row_sum_violation=worst_row,
        worst_negativity=worst_neg,
    ))

    worst = -np.inf
    for _ in range(200):
        d = int(rng.integers(1, 6))
        width = int(rng.integers(1, 5))
        a = rng.random(d) * 2.0 + 0.1
        w = rng.random((d, width)) * 2.0

        def product_of_reciprocals(y, a=a, w=w, d=d, width=width):
            y = y.reshape(d, width)
            return float(np.prod(1.0 / (a + np.einsum("ij,ij->i", w, y))))

        probe = ConvexityProbe(
            function=product_of_reciprocals,
            sampler=lambda r, d=d, width=width: r.random(d * width) * 3.0,
            samples=20,
            tolerance=1e-9,
        )
        report = midpoint_convexity_check(probe, seed=int(rng.integers(1 << 30)))
        worst = max(worst, report.worst_violation)
    checks.append(_check("reciprocal-product-convexity", worst <= 1e-9,
                         worst_violation=worst))

    worst_u, worst_coord = -np.inf, -np.inf
    pairs_done = 0
    while pairs_done < 100:
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 6))
        K = int(rng.integers(1, 4))
        spec = random_linear_game(rng, m, n, K)
        j = int(rng.integers(m))
        own = random_feasible_profile(rng, spec)[j]
        others = [ell for ell in range(m) if ell != j]

        def payoff_of_opponents(flat, spec=spec, j=j, own=own, others=others):
            profile = np.empty((spec.m, spec.K, spec.n))
            profile[j] = own
            for pos, ell in enumerate(others):
                profile[ell] = flat.reshape(len(others), spec.K, spec.n)[pos]
            return total_payoff(spec, plans_from_array(spec, profile), j)

        def coordinate_of_opinions(flat, spec=spec, j=j, own=own, others=others,
                                   k=int(rng.integers(1, K + 2)), i=int(rng.integers(n))):
            from .game_model import opinions_at_campaigns

            profile = np.empty((spec.m, spec.K, spec.n))
            profile[j] = own
            for pos, ell in enumerate(others):
                profile[ell] = flat.reshape(len(others), spec.K, spec.n)[pos]
            return float(
                opinions_at_campaigns(spec, plans_from_array(spec, profile))[k - 1][i, j]
            )

        for _ in range(5):
            opp_a = np.concatenate(
                [random_feasible_profile(rng, spec)[ell].ravel() for ell in others]
            )
            opp_b = np.concatenate(
                [random_feasible_profile(rng, spec)[ell].ravel() for ell in others]
            )
            for function in (payoff_of_opponents, coordinate_of_opinions):
                mid = function((opp_a + opp_b) / 2.0)
                chord = (function(opp_a) + function(opp_b)) / 2.0
                violation = mid - chord
                if function is payoff_of_opponents:
                    worst_u = max(worst_u, violation)
                else:
                    worst_coord = max(worst_coord, violation)
            pairs_done += 1
    checks.append(_check("payoff-convex-in-opponents", worst_u <= 1e-9,
                         worst_violation=worst_u))
    checks.append(_check("opinions-convex-in-opponents", worst_coord <= 1e-9,
                         worst_violation=worst_coord))

    worst = -np.inf
    for _ in range(40):
        spec = random_linear_game(rng, 1, int(rng.integers(1, 5)), int(rng.integers(1, 4)))

        def objective(flat, spec=spec):
            return total_payoff(
                spec, plans_from_array(spec, flat.reshape(1, spec.K, spec.n)), 0
            )

        plan_a = random_feasible_profile(rng, spec).ravel()
        plan_b = random_feasible_profile(rng, spec).ravel()
        mid = objective((plan_a + plan_b) / 2.0)
        chord = (objective(plan_a) + objective(plan_b)) / 2.0
        worst = max(worst, chord - mid)  # concavity: chord must not exceed midpoint
    checks.append(_check("single-player-objective-concavity", worst <= 1e-9,
                         worst_violation=worst))
    return checks


def _suite_gradients(seed: int) -> list[dict]:
    from .game_model import payoff_gradient

    rng = np.random.default_rng(seed)
    worst = 0.0
    for scenario in range(10):
        m = int(rng.integers(1, 4))
        spec = random_linear_game(rng, m, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
        for _ in range(20):
            profile = random_feasible_profile(rng, spec)
            j = int(rng.integers(m))
            analytic = payoff_gradient(spec, plans_from_array(spec, profile), j)

            def payoff_of_own(own, spec=spec, profile=profile, j=j):
                candidate = profile.copy()
                candidate[j] = own
                return total_payoff(spec, plans_from_array(spec, candidate), j)

            numeric = fd_gradient(payoff_of_own, profile[j], h=1e-5).gradient
            scale = max(float(np.max(np.abs(numeric))), 1e-12)
            worst = max(worst, float(np.max(np.abs(analytic - numeric))) / scale)
    return [_check("analytic-vs-finite-difference", worst < 1e-6,
                   max_relative_error=worst)]


def _suite_oracles(seed: int) -> list[dict]:
    from .game_model import payoff_gradient
    from .single_player_solver import solve_single

    rng = np.random.default_rng(seed)
    checks = []

    gap_worst = -np.inf
    for _ in range(3):
        n = int(rng.integers(1, 3))
        K = 1 if n == 2 else int(rng.integers(1, 4))
        spec = random_linear_game(rng, 1, n, K)
        report = solve_single(spec)
        _, grid_value = brute_force_best_response(
            spec, np.zeros((1, spec.K, spec.n)), 0, grid_step=0.01
        )
        zero = plans_from_array(spec, np.zeros((1, spec.K, spec.n)))
        lipschitz = float(np.linalg.norm(payoff_gradient(spec, zero, 0)))
        margin = lipschitz * 0.01 * np.sqrt(spec.K * spec.n)
        gap_worst = max(gap_worst, grid_value - report.objective)
        checks.append(_check(
            f"solver-vs-grid-{n}x{K}",
            report.objective >= grid_value - margin,
            solver_objective=report.objective,
            grid_objective=grid_value,
            allowed_margin=margin,
        ))

    from .equilibrium_solver import project_budget_set

    worst_excess = -np.inf
    for _ in range(20):
        dims = int(rng.integers(1, 4))
        cap = float(rng.random() * 1.2 + 0.2)
        v = rng.standard_normal(dims) * 2.0
        projected = project_budget_set(v, cap)
        grid = _grid_candidates(cap, dims, 0.05)
        grid_best = float(np.min(np.linalg.norm(grid - v, axis=1)))
        excess = float(np.linalg.norm(projected - v)) - grid_best
        worst_excess = max(worst_excess, excess)
        feasible = projected.min() >= -1e-12 and projected.sum() <= cap + 1e-9
        if not feasible:
            checks.append(_check("projection-feasibility", False))
            break
    checks.append(_check("projection-vs-grid", worst_excess <= 1e-9,
                         worst_distance_excess=worst_excess))
    return checks


def run_suite(name: str, seed: int = 0) -> dict:
    """Run a named property suite; returns a JSON-ready report."""
    if name == "all":
        checks = _suite_lemmas(seed) + _suite_gradients(seed) + _suite_oracles(seed)
    elif name == "lemmas":
        checks = _suite_lemmas(seed)
    elif name == "gradients":
        checks = _suite_gradients(seed)
    elif name == "oracles":
        checks = _suite_oracles(seed)
    else:
        raise ValueError(f"unknown suite {name!r}")
    return {"suite": name, "seed": seed, "passed": all(c["passed"] for c in checks),
            "checks": checks}


def _batched_single_player_search(spec, candidates: np.ndarray):
    """Evaluate all single-player linear-utility candidates in one stacked pass.

    Re-derives the payoff from the flow matrices directly (independent of the
    game-model evaluation path): diffuse the stacked states across each gap,
    add the stage investments, and drop candidates whose investment overruns
    the remaining opinion headroom anywhere along the way.
    """
    from .opinion_dynamics import interval_propagators

    K, n = spec.K, spec.n
    utility = spec.utilities[0]
    rho, lam = utility.rho, utility.cost_coefficient
    sign = 1.0 if utility.kind == "linear-favor" else -1.0
    gaps = interval_propagators(spec.network, spec.schedule)
    count = candidates.shape[0]
    states = np.broadcast_to(spec.x0.values[:, 0], (count, n)).copy()
    values = np.zeros(count)
    alive = np.ones(count, dtype=bool)
    for k in range(1, K + 2):
        states = states @ gaps[k - 1].T
        stage = candidates[:, (k - 1) * n : k * n] if k <= K else np.zeros((count, n))
        values += sign * states @ rho[k - 1] - lam * stage.sum(axis=1)
        if utility.kind == "linear-complement":
            values += float(rho[k - 1].sum())
        if k <= K:
            alive &= np.all(stage <= 1.0 - states + 1e-9, axis=1)
            states = states + stage
    values /= K + 1
    values[~alive] = -np.inf
    if not alive.any():
        raise ValueError("no feasible grid point found")
    best_index = int(np.argmax(values))  # argmax keeps the first (lex smallest) tie
    return best_index, float(values[best_index])
