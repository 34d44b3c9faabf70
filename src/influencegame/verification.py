"""Independent numerical oracles: finite differences, grid search, the
closed-form opinion sum, and shape checks.

These routines deliberately avoid the analytic code paths they are used to
check.  Finite differences validate the exact payoff gradients, exhaustive
grid search validates the solvers on tiny instances, and midpoint checks
turn the structural facts the algorithms rely on (payoffs are convex in
opponents' strategies, the single-player objective is concave) into
executable checks.

Campaign-time opinions also admit a closed form: with damping matrices
D(k) = diag(1 / (1 + total budget on individual i)), the pre-jump state at
t_k is the sum over earlier stages s of (A_k D(k-1) ... A_{s+1} D(s)) B(s),
seeded with D(0) = I and B(0) = x0.  ``opinions_at_campaigns_closed_form``
evaluates that summation apart from the game kernel's stage recursion; the
two agree to round-off.  Every midpoint check is judged by one rule, defined
here, ``_midpoint_violations`` with its one bound ``_MIDPOINT_TOL``, and
propagators by ``propagator``'s rule, ``check_stochastic``.  The suites draw
a check's pairs and a profile's players in one generator call each and
normalize each size's networks in one expression, with the stream and the
values of drawing and building them one at a time.

Every point-wise oracle evaluates all its points in one call.  The function
judged by the midpoint rule takes a stack of points shaped (B, *shape) and
returns B values; the one handed to ``fd_gradient`` takes the 2d perturbed
points of B points at once, shaped (2d, B, *shape), and returns (2d, B)
values.  So a game payoff goes through the kernel's batch axes:
``total_payoff`` on a (B, m, K, n) or (2d, B, m, K, n) stack of profiles, as
do a grid search's candidates.  The gradients suite makes one
finite-difference call per scenario and player, on all the profiles drawn
for that player, beside one analytic gradient per profile.  A check reports
its own failure: the stochasticity check measures ``_flow``, the matrices
``propagator`` builds and would refuse, as one stack per network size, and
a NaN value fails every check.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

import numpy as np

from .equilibrium_solver import project_budget_set
from .game_model import (FEASIBILITY_TOL, GameSpec, StageUtility, opinions_at_campaigns,
                         payoff_gradient, total_payoff, _column, _one_profile)
from .opinion_dynamics import (CampaignSchedule, OpinionState, build_network,
                               check_stochastic, _finite, _flow, _one_number, _real)
from .single_player_solver import solve_single

# Added to every raw weight of ``random_feasible_profile``, so that no entry is 0.
_PROFILE_MARGIN = 1e-3

# How far f(midpoint) may exceed the mean of the endpoint values: the one
# bound of the midpoint rule.
_MIDPOINT_TOL = 1e-9


def _worst(values) -> float:
    """Largest of the values; a NaN among them makes it NaN, which fails any
    ``worst <= bound`` check."""
    return float(np.max(np.hstack(values), initial=-np.inf))


def _midpoint_violations(function: Callable, y: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """f((y + y_hat) / 2) - (f(y) + f(y_hat)) / 2 for each row of the stacks y
    and y_hat, from one call of the stacked ``function`` on all 3B points.
    A value above ``_MIDPOINT_TOL``, or a NaN, refutes convexity."""
    values = np.asarray(function(np.concatenate([(y + y_hat) / 2.0, y, y_hat])), dtype=float)
    midpoint, left, right = values.reshape(3, len(y))
    return midpoint - (left + right) / 2.0


def fd_gradient(evaluator: Callable, points: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradients of a scalar function at a stack of
    points shaped (B, *shape); returns the (B, *shape) gradients.

    ``evaluator`` gets all 2d perturbed points of every row, d the size of
    one point, in one call: a (2d, B, *shape) stack holding the d forward
    points x + h e_i and then the d backward ones, whose (2d, B) values it
    returns.  Row b's gradient is read from row b's values alone, so a
    B-row stack gives the B one-row results bit for bit when the evaluator
    scores each point on its own.  A step h that is not one positive and
    finite real number (``_one_number``), points that fail ``_finite`` or
    lack a stack axis raise ValueError before any evaluation; an error the
    evaluator raises propagates.
    """
    if not 0 < _one_number(h, "finite-difference step", _real) < np.inf:
        raise ValueError(f"finite-difference step must be positive and finite, got {h!r}")
    points = _finite(points, "finite-difference points")
    if points.ndim == 0:
        raise ValueError("finite-difference points must be stacked as (B, *shape)")
    flat = points.reshape(len(points), -1)
    d = flat.shape[1]
    steps = h * np.eye(d)[:, None]  # (d, 1, d): step i for every row
    stack = np.concatenate([flat + steps, flat - steps])
    values = np.asarray(evaluator(stack.reshape((2 * d,) + points.shape)), dtype=float)
    plus, minus = values.reshape(2, d, len(flat))
    return ((plus - minus) / (2.0 * h)).T.reshape(points.shape)


def _grid_candidates(cap: float, dims: int, grid_step: float) -> np.ndarray:
    """Lexicographically ordered grid of [0, cap]^dims filtered to sum <= cap."""
    axis = np.arange(0.0, cap + grid_step / 2.0, grid_step)
    mesh = np.meshgrid(*([axis] * dims), indexing="ij")
    candidates = np.stack([m.ravel() for m in mesh], axis=1)
    return candidates[candidates.sum(axis=1) <= cap + 1e-12]


def brute_force_best_response(spec, profile, j: int, grid_step: float):
    """Exhaustive grid search for player j's best response to the others'
    plans in the (m, K, n) ``profile``; returns (entries, payoff).

    A lone player is scored by ``_batched_single_player_search``; among
    several, one ``total_payoff`` call scores the (C, m, K, n) stack of all
    candidates.  Candidates are enumerated lexicographically and ties keep
    the earliest (lexicographically smallest) point, so the result is
    deterministic.  Guarded to K*n <= 4 variables; a grid step that is not
    one positive and finite real number (``_one_number``) raises ValueError
    before any evaluation, and a player index is checked as
    ``total_payoff`` checks it, before any grid is built.
    """
    j = _column(spec, j).start
    if not 0 < _one_number(grid_step, "grid step", _real) < np.inf:
        raise ValueError(f"grid step must be positive and finite, got {grid_step!r}")
    K, n = spec.K, spec.n
    if K * n > 4:
        raise ValueError("grid search is limited to K*n <= 4 variables")
    cap = float(spec.budgets[j])
    entries = _one_profile(spec, profile)
    candidates = _grid_candidates(cap, K * n, grid_step)

    if spec.m == 1:
        values = _batched_single_player_search(spec, candidates)
    else:
        stack = np.repeat(entries[None], len(candidates), axis=0)
        stack[:, j] = candidates.reshape(-1, K, n)
        values = total_payoff(spec, stack, j)
    best_index = int(np.argmax(values))  # argmax keeps the first (lex smallest) tie
    return candidates[best_index].reshape(K, n), float(values[best_index])


def opinions_at_campaigns_closed_form(spec: GameSpec, profile) -> np.ndarray:
    """The (K+1, n, m) states of ``opinions_at_campaigns`` for one profile,
    via the explicit summation over investment stages.

    Exists as an independent evaluation route; agrees with the recursion to
    round-off.  Single-player games have no damping, so every D(r) is the
    identity there."""
    profile = _one_profile(spec, profile)
    gaps = spec.kernel.gaps
    K, n, m = spec.K, spec.n, spec.m

    def damping_diag(r: int) -> np.ndarray:
        if r == 0 or m == 1:
            return np.ones(n)
        return 1.0 / (1.0 + profile[:, r - 1].sum(axis=0))

    out = np.zeros((K + 1, n, m))
    for k in range(1, K + 2):
        total = np.zeros((n, m))
        for s in range(0, k):
            block = profile[:, s - 1].T if s >= 1 else np.array(spec.x0.values)
            # apply A_{r+1} D(r) factors from the inside out, leftmost last
            term = damping_diag(s)[:, None] * block
            for r in range(s, k):
                term = gaps[r] @ term
                if r + 1 < k:
                    term = damping_diag(r + 1)[:, None] * term
            total += term
        out[k - 1] = total
    return out



# ---------------------------------------------------------------------------
# Random instance generation (shared by the property suites and the test bed)
# ---------------------------------------------------------------------------


def _random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Raw (n, n) weights of a random dense graph, drawn in two (n, n) calls;
    the self-loops keep every row sum positive."""
    weights = rng.random((n, n)) + 0.05
    mask = rng.random((n, n)) < 0.75
    return weights * mask + np.eye(n)


def random_network(rng: np.random.Generator, n: int):
    """Random dense weighted graph with guaranteed positive row sums: the
    weights ``_random_weights`` draws, normalized by ``build_network``."""
    return build_network(_random_weights(rng, n))


def random_linear_game(rng: np.random.Generator, m: int, n: int, K: int):
    """Random game with linear-favor utilities and simplex initial opinions
    for multiplayer instances.

    Single-player budgets are kept small enough that any split of the budget
    respects the opinion caps along the trajectory, so random profiles are
    feasible without rejection sampling.
    """
    network = random_network(rng, n)
    times = np.concatenate([[0.0], np.cumsum(rng.random(K + 1) * 1.5 + 0.25)])
    schedule = CampaignSchedule(times=times)
    if m == 1:
        x0 = OpinionState(rng.random((n, 1)) * 0.3 + 0.1)
        budgets = rng.random(1) * 0.07 + 0.25
    else:
        raw = rng.random((n, m)) + 0.2
        x0 = OpinionState(raw / raw.sum(axis=1, keepdims=True))
        budgets = rng.random(m) + 0.3
    utilities = tuple(
        StageUtility(
            rho=rng.random((K + 1, n)) * 1.5 + 0.1,
            cost_coefficient=float(rng.random() * 0.8 + 0.1),
        )
        for _ in range(m)
    )
    return GameSpec(network=network, schedule=schedule, x0=x0,
                    budgets=budgets, utilities=utilities)


def random_feasible_profile(rng: np.random.Generator, spec):
    """Strictly feasible joint profile with entries bounded away from zero.

    One (m, K n + 1) draw gives each player a row: K n raw weights and then
    the fraction, in [0.3, 0.8), of its budget that the plan spends.  The
    stream and the values are those of drawing each player's weights and
    fraction in turn."""
    draws = rng.random((spec.m, spec.K * spec.n + 1))
    raw = draws[:, :-1] + _PROFILE_MARGIN
    targets = spec.budgets * (0.3 + 0.5 * draws[:, -1])
    return (raw / raw.sum(axis=1, keepdims=True) * targets[:, None]).reshape(
        spec.m, spec.K, spec.n)


# ---------------------------------------------------------------------------
# Property suites (exposed through the CLI verify command)
# ---------------------------------------------------------------------------

def _check(name: str, passed: bool, **details) -> dict:
    # a NaN or inf value has failed its check; None keeps the record JSON-ready
    record = {"name": name, "passed": bool(passed)}
    record.update({k: ((float(v) if np.isfinite(v) else None)
                       if isinstance(v, (np.floating, float)) else v)
                   for k, v in details.items()})
    return record


def _suite_lemmas(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    # n -> (raw weights, times); each size's stack is normalized in one
    # expression, as ``build_network`` would normalize each draw
    by_size = defaultdict(lambda: ([], []))
    for _ in range(500):
        n = int(rng.integers(2, 9))
        weights, times = by_size[n]
        weights.append(_random_weights(rng, n))
        times.append(float(rng.random() * 100.0))
    reports = []
    for weights, times in by_size.values():
        weights = np.stack(weights)
        adjacencies = weights / weights.sum(axis=-1, keepdims=True)
        reports.append(check_stochastic(_flow(adjacencies, np.array(times))))
    worst_row = _worst([report.row_sum_violation for report in reports])
    worst_neg = _worst([report.negativity_violation for report in reports])
    checks.append(_check(
        "propagator-stochasticity",
        all(report.passed for report in reports),
        worst_row_sum_violation=worst_row,
        worst_negativity=worst_neg,
    ))

    violations = []
    for _ in range(200):
        d = int(rng.integers(1, 6))
        width = int(rng.integers(1, 5))
        a = rng.random(d) * 2.0 + 0.1
        w = rng.random((d, width)) * 2.0

        def product_of_reciprocals(y, a=a, w=w, d=d, width=width):
            y = y.reshape(-1, d, width)
            return np.prod(1.0 / (a + np.einsum("ij,bij->bi", w, y)), axis=-1)

        # 20 pairs (y, y_hat) from one call of this function's own generator
        draws = np.random.default_rng(int(rng.integers(1 << 30))).random((40, d * width)) * 3.0
        violations.append(_midpoint_violations(product_of_reciprocals, draws[0::2], draws[1::2]))
    worst = _worst(violations)
    checks.append(_check("reciprocal-product-convexity", worst <= _MIDPOINT_TOL,
                         worst_violation=worst))

    payoff_violations, opinion_violations = [], []
    for _ in range(20):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 6))
        K = int(rng.integers(1, 4))
        spec = random_linear_game(rng, m, n, K)
        j = int(rng.integers(m))
        own = random_feasible_profile(rng, spec)[j]
        others = [ell for ell in range(m) if ell != j]
        k, i = int(rng.integers(1, K + 2)), int(rng.integers(n))
        # five opponent pairs, each drawn as (a, b); all 15 points go in one stack
        draws = [
            np.concatenate([random_feasible_profile(rng, spec)[ell].ravel() for ell in others])
            for _ in range(10)
        ]
        opp_a, opp_b = np.array(draws[0::2]), np.array(draws[1::2])

        def profiles(flat):
            stack = np.empty((len(flat), m, K, n))
            stack[:, j] = own
            stack[:, others] = flat.reshape(len(flat), len(others), K, n)
            return stack

        payoff_violations.append(_midpoint_violations(
            lambda flat: total_payoff(spec, profiles(flat), j), opp_a, opp_b))
        opinion_violations.append(_midpoint_violations(
            lambda flat: opinions_at_campaigns(spec, profiles(flat))[:, k - 1, i, j],
            opp_a, opp_b))
    worst_u, worst_coord = _worst(payoff_violations), _worst(opinion_violations)
    checks.append(_check("payoff-convex-in-opponents", worst_u <= _MIDPOINT_TOL,
                         worst_violation=worst_u))
    checks.append(_check("opinions-convex-in-opponents", worst_coord <= _MIDPOINT_TOL,
                         worst_violation=worst_coord))

    violations = []
    for _ in range(40):
        spec = random_linear_game(rng, 1, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        plan_a = random_feasible_profile(rng, spec).reshape(1, -1)
        plan_b = random_feasible_profile(rng, spec).reshape(1, -1)
        # concavity: the chord must not exceed the midpoint
        violations.append(-_midpoint_violations(
            lambda flat: total_payoff(spec, flat.reshape(-1, 1, spec.K, spec.n), 0),
            plan_a, plan_b))
    worst = _worst(violations)
    checks.append(_check("single-player-objective-concavity", worst <= _MIDPOINT_TOL,
                         worst_violation=worst))
    return checks


def _suite_gradients(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    errors = []
    for scenario in range(10):
        m = int(rng.integers(1, 4))
        spec = random_linear_game(rng, m, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
        # j -> (profiles, analytic gradients), drawn profile after profile;
        # each player's profiles then share one finite-difference call
        by_player = defaultdict(lambda: ([], []))
        for _ in range(20):
            profile = random_feasible_profile(rng, spec)
            j = int(rng.integers(m))
            profiles, analytic = by_player[j]
            profiles.append(profile)
            analytic.append(payoff_gradient(spec, profile, j))
        for j, (profiles, analytic) in by_player.items():
            profiles = np.array(profiles)

            def payoff_of_own(own, spec=spec, profiles=profiles, j=j):
                candidates = np.broadcast_to(profiles, own.shape[:1] + profiles.shape).copy()
                candidates[..., j, :, :] = own
                return total_payoff(spec, candidates, j)

            numeric = fd_gradient(payoff_of_own, profiles[:, j], h=1e-5)
            scale = np.maximum(np.abs(numeric).max(axis=(1, 2)), 1e-12)
            errors.append(np.abs(np.array(analytic) - numeric).max(axis=(1, 2)) / scale)
    worst = _worst(errors)
    return [_check("analytic-vs-finite-difference", worst < 1e-6,
                   max_relative_error=worst)]


def _suite_oracles(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    for _ in range(3):
        n = int(rng.integers(1, 3))
        K = 1 if n == 2 else int(rng.integers(1, 4))
        spec = random_linear_game(rng, 1, n, K)
        report = solve_single(spec)
        zero = np.zeros((1, spec.K, spec.n))
        _, grid_value = brute_force_best_response(spec, zero, 0, grid_step=0.01)
        lipschitz = float(np.linalg.norm(payoff_gradient(spec, zero, 0)))
        margin = lipschitz * 0.01 * np.sqrt(spec.K * spec.n)
        checks.append(_check(
            f"solver-vs-grid-{n}x{K}",
            report.objective >= grid_value - margin,
            solver_objective=report.objective,
            grid_objective=grid_value,
            allowed_margin=margin,
        ))

    excesses, feasible = [], True
    for _ in range(20):
        dims = int(rng.integers(1, 4))
        cap = float(rng.random() * 1.2 + 0.2)
        v = rng.standard_normal(dims) * 2.0
        projected = project_budget_set(v, cap)
        grid = _grid_candidates(cap, dims, 0.05)
        grid_best = float(np.min(np.linalg.norm(grid - v, axis=1)))
        excesses.append(float(np.linalg.norm(projected - v)) - grid_best)
        feasible = feasible and bool(projected.min() >= -1e-12
                                     and projected.sum() <= cap + 1e-9)
    worst_excess = _worst(excesses)
    checks.append(_check("projection-vs-grid", feasible and worst_excess <= 1e-9,
                         worst_distance_excess=worst_excess))
    return checks


_SUITE_PARTS = {
    "lemmas": (_suite_lemmas,),
    "gradients": (_suite_gradients,),
    "oracles": (_suite_oracles,),
    "all": (_suite_lemmas, _suite_gradients, _suite_oracles),
}
SUITES = tuple(_SUITE_PARTS)


def run_suite(name: str, seed: int = 0) -> dict:
    """Run a named property suite; returns a JSON-ready report."""
    if name not in _SUITE_PARTS:
        raise ValueError(f"unknown suite {name!r}")
    checks = [check for suite in _SUITE_PARTS[name] for check in suite(seed)]
    return {"suite": name, "seed": seed, "passed": all(c["passed"] for c in checks),
            "checks": checks}


def _batched_single_player_search(spec, candidates: np.ndarray) -> np.ndarray:
    """Values of all single-player linear-utility candidates from one stacked pass.

    Re-derives the payoff from the flow matrices directly (independent of the
    game-model evaluation path): diffuse the stacked states across each gap,
    add the stage investments, and score -inf a candidate whose investment
    overruns the remaining opinion headroom anywhere along the way.  The
    zero plan, the grid's first point, is always scored finite.
    """
    K, n = spec.K, spec.n
    utility = spec.utilities[0]
    rho, lam = utility.rho, utility.cost_coefficient
    gaps = spec.kernel.gaps
    count = candidates.shape[0]
    states = np.broadcast_to(spec.x0.values[:, 0], (count, n)).copy()
    values = np.zeros(count)
    alive = np.ones(count, dtype=bool)
    for k in range(1, K + 2):
        states = states @ gaps[k - 1].T
        stage = candidates[:, (k - 1) * n : k * n] if k <= K else np.zeros((count, n))
        values += states @ rho[k - 1] - lam * stage.sum(axis=1)
        if k <= K:
            alive &= np.all(stage <= 1.0 - states + FEASIBILITY_TOL, axis=1)
            states = states + stage
    values /= K + 1
    values[~alive] = -np.inf
    return values
