"""Open-loop equilibria by simultaneous no-regret gradient ascent.

Every player repeatedly plays projected gradient ascent on its own payoff
against the others' current strategies; for socially concave games the
running average of the joint iterates converges to a pure open-loop
equilibrium.  The trace records the iterates and the per-iteration payoffs
(the running averages are derived from the iterates), and the diagnostics
below quantify how close the averaged profile is to equilibrium:

* regret -- gap between the best fixed strategy in hindsight and the payoff
  actually accumulated,
* exploitability -- the largest unilateral improvement any player can still
  find against the averaged profile.

Best-response and hindsight subproblems are themselves concave maximizations
over the budget set (or the single-player polytope), solved by one monotone
projected gradient ascent (``_maximize_concave``): a backtracking line search
whose trial step after each accepted move is the Barzilai-Borwein step, the
spectral projected gradient method of Birgin, Martinez and Raydan (SIAM J.
Optim., 2000), which reaches the tight tolerances the diagnostics need in a
few dozen kernel passes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, HypothesisCheckError
from .game_model import (
    GameSpec,
    plans_from_array,
    profile_array,
    total_payoff,
    _objective_for_player,
    _player_pass,
)
from .opinion_dynamics import _readonly
from .single_player_solver import build_region, project_feasible


def project_budget_set(point: np.ndarray, cap: float) -> np.ndarray:
    """Exact Euclidean projection onto {b >= 0, sum(b) <= cap}.

    Clamping negatives suffices when the clamped sum fits under the cap;
    otherwise the usual water-filling threshold projects onto the face
    {b >= 0, sum(b) = cap}.  Exact in finitely many operations.
    """
    if cap < 0:
        raise ValueError("budget cap must be nonnegative")
    v = np.asarray(point, dtype=float)
    clamped = np.maximum(v, 0.0)
    if clamped.sum() <= cap:
        return clamped
    flat = v.ravel()
    u = np.sort(flat)[::-1]
    cumulative = np.cumsum(u) - cap
    ranks = np.arange(1, flat.size + 1)
    feasible = u - cumulative / ranks > 0
    rho = int(np.count_nonzero(feasible))
    theta = cumulative[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


@dataclass(frozen=True)
class StepSchedule:
    """Diminishing stepsize eta_tau = c / tau or c / sqrt(tau)."""

    kind: str
    c: float

    def __post_init__(self):
        if self.kind not in ("c_over_tau", "c_over_sqrt_tau"):
            raise ValueError(f"unknown step schedule kind {self.kind!r}")
        if not (np.isfinite(self.c) and self.c > 0):
            raise ValueError("step schedule constant must be positive and finite")

    def eta(self, tau: int) -> float:
        if self.kind == "c_over_tau":
            return self.c / tau
        return self.c / np.sqrt(tau)


def default_step_schedule(spec: GameSpec) -> StepSchedule:
    """c/tau when every utility is linear (attested concave per player),
    c/sqrt(tau) otherwise."""
    if all(u.is_linear for u in spec.utilities):
        return StepSchedule(kind="c_over_tau", c=10.0)
    return StepSchedule(kind="c_over_sqrt_tau", c=1.0)


@dataclass(frozen=True)
class LearningTrace:
    """Everything one no-regret run computed.

    ``iterates[tau-1]`` is the joint profile played at iteration tau (shape
    (m, K, n)) and ``payoffs[tau-1, j]`` player j's payoff at that iterate.
    """

    spec: GameSpec
    iterates: np.ndarray
    payoffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "iterates", _readonly(self.iterates))
        object.__setattr__(self, "payoffs", _readonly(self.payoffs))

    @property
    def iterations(self) -> int:
        return self.iterates.shape[0]

    @cached_property
    def averages(self) -> np.ndarray:
        """Read-only running averages: ``averages[tau-1]`` is the mean of the
        first tau iterates, computed on first access."""
        taus = np.arange(1, self.iterations + 1).reshape(-1, 1, 1, 1)
        averages = np.cumsum(self.iterates, axis=0) / taus
        averages.flags.writeable = False
        return averages


@dataclass(frozen=True)
class EquilibriumResult:
    """Averaged profile plus closeness-to-equilibrium diagnostics."""

    profile: np.ndarray
    exploitability: float
    regrets: np.ndarray
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "profile", _readonly(self.profile))
        object.__setattr__(self, "regrets", _readonly(np.atleast_1d(self.regrets)))
        if self.exploitability < -1e-8:
            raise ValueError("exploitability cannot be materially negative")


def _require_convergence_hypotheses(spec: GameSpec):
    """Multiplayer convergence rests on utilities increasing and convex in opinions."""
    if spec.m == 1:
        return
    for j, utility in enumerate(spec.utilities):
        if utility.kind == "linear-favor":
            continue
        if utility.kind == "custom" and utility.declared_increasing_convex:
            continue
        raise HypothesisCheckError(
            f"player {j}'s utility is not attested increasing and convex in "
            "opinions, which the no-regret convergence guarantee needs"
        )


def _require_own_concave(spec: GameSpec, j: int):
    """Best-response subproblems must be concave maximizations."""
    utility = spec.utilities[j]
    if spec.m == 1:
        if utility.is_linear:
            return  # opinions are linear in own investments: linear objective
        from .single_player_solver import _check_concave_stages

        _check_concave_stages(spec)
        return
    if utility.kind == "linear-favor":
        return
    if utility.kind == "custom" and utility.declared_own_concave:
        return
    raise HypothesisCheckError(
        f"player {j}'s best-response subproblem is not attested concave"
    )


def _projections(spec: GameSpec):
    if spec.m == 1:
        region = build_region(spec)
        return [lambda v: project_feasible(v, region)]
    return [
        (lambda v, cap=float(spec.budgets[j]): project_budget_set(v, cap))
        for j in range(spec.m)
    ]


def run_no_regret(spec: GameSpec, T: int, step_schedule: StepSchedule | None = None) -> LearningTrace:
    """Simultaneous projected gradient ascent for all players, T iterations.

    Players start from the interior half-budget spread (each entry
    beta_j / (2 K n)) and update together from the same joint iterate with
    stepsize ``step_schedule.eta(tau)`` (``default_step_schedule`` when None).
    The run draws no random numbers: the spec and schedule determine it.
    """
    if T < 1:
        raise ValueError("iteration count must be at least 1")
    _require_convergence_hypotheses(spec)
    if step_schedule is None:
        step_schedule = default_step_schedule(spec)
    m, K, n = spec.m, spec.K, spec.n
    projections = _projections(spec)

    current = np.stack(
        [np.full((K, n), float(spec.budgets[j]) / (2 * K * n)) for j in range(m)]
    )
    if m == 1:
        current[0] = projections[0](current[0].ravel()).reshape(K, n)

    iterates = np.empty((T, m, K, n))
    payoffs = np.empty((T, m))

    for tau in range(1, T + 1):
        iterates[tau - 1] = current
        eta = step_schedule.eta(tau)
        updated = np.empty_like(current)
        for j in range(m):
            _, _, payoffs[tau - 1, j], gradient = _player_pass(spec, j, current)
            stepped = (current[j] + eta * gradient).ravel()
            updated[j] = projections[j](stepped).reshape(K, n)
        current = updated

    return LearningTrace(spec=spec, iterates=iterates, payoffs=payoffs)


def _maximize_concave(evaluate, project, start, max_iters=50_000, tol=1e-9, values=None):
    """Monotone projected gradient ascent with backtracking line search.

    ``evaluate`` maps a point to its (value, gradient).  The step is halved
    until the candidate clears the quadratic ascent model (so every accepted
    move is an ascent up to round-off); if 80 halvings find no such
    candidate, ConvergenceError carries the current point.  After each
    accepted move s = x_new - x_old, with gradient change y = g_old - g_new,
    the next trial step is the Barzilai-Borwein step s's / s'y; where that
    is not a positive finite number (a linear objective gives s'y = 0), the
    accepted step grows by 1.5 instead.  Either is clamped to [1e-12, 1e6],
    so 80 halvings still reach below 1e-12, and an unbounded objective cannot
    push the candidate so far out that the projection's round-off (about eps
    times the candidate's norm) leaves it infeasible.  Returns (point, value,
    residual, converged) where the residual is the projected-gradient-step
    norm at a unit-capped probe step.  A list passed as ``values`` receives
    the value at the start and after every accepted step.
    """
    x = project(np.asarray(start, dtype=float).ravel())
    fx, g = evaluate(x)
    if values is not None:
        values.append(fx)
    step = 1.0
    noise = 1e-13 * max(1.0, abs(fx))

    def residual_at(point, gradient):
        probe = min(step, 1.0)
        move = project(point + probe * gradient) - point
        return float(np.linalg.norm(move)) / probe

    for _ in range(max_iters):
        for _ in range(80):
            candidate = project(x + step * g)
            f_candidate, g_candidate = evaluate(candidate)
            delta = candidate - x
            model = float(g @ delta) - float(delta @ delta) / (2.0 * step)
            if f_candidate >= fx + model - noise:
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                "line search found no ascent step in 80 halvings",
                last_iterate=x,
                residual=residual_at(x, g),
            )
        curvature = float(delta @ (g - g_candidate))
        x, fx, g = candidate, f_candidate, g_candidate
        if values is not None:
            values.append(fx)
        residual = residual_at(x, g)
        if residual <= tol:
            return x, fx, residual, True
        spectral = float(delta @ delta) / curvature if curvature > 0.0 else 0.0
        step = min(max(spectral if 0.0 < spectral < np.inf else 1.5 * step, 1e-12), 1e6)
    return x, fx, residual_at(x, g), False


def best_response(
    spec: GameSpec, plans, j: int, max_iters: int = 50_000, tol: float = 1e-9
):
    """Best response of player j to the others' plans; returns (entries, payoff).

    Warm-started at player j's current plan, so the returned payoff is never
    below the played one.
    """
    _require_own_concave(spec, j)
    entries = profile_array(plans)
    evaluate = _objective_for_player(spec, entries, j)
    project = _projections(spec)[j if spec.m > 1 else 0]
    point, value, residual, converged = _maximize_concave(
        evaluate, project, entries[j].ravel(), max_iters=max_iters, tol=tol
    )
    if not converged:
        raise ConvergenceError(
            "best-response ascent did not converge", residual=residual
        )
    return point.reshape(spec.K, spec.n), value


def exploitability(spec: GameSpec, profile) -> float:
    """Largest unilateral payoff improvement available at the profile.

    Zero exactly at an open-loop equilibrium; small positive values bound the
    distance from equilibrium in payoff terms.
    """
    arr = profile if isinstance(profile, np.ndarray) else profile_array(profile)
    plans = plans_from_array(spec, arr)
    gaps = []
    for j in range(spec.m):
        base = total_payoff(spec, plans, j)
        _, improved = best_response(spec, plans, j)
        gaps.append(improved - base)
    return float(max(gaps))


def _hindsight_objective(spec: GameSpec, trace: LearningTrace, j: int, horizon: int):
    """Sum over the first ``horizon`` iterations of player j's payoff against the
    opponents' played strategies, as a function of one fixed own plan.

    Returns ``evaluate(flat) -> (value, gradient)``.  The played profiles, with
    the own plan substituted, form the batch axis of one kernel pass.  A single
    player has no opponents, so every term equals the first.
    """
    if spec.m == 1:
        evaluate_one = _objective_for_player(spec, trace.iterates[0], j)

        def evaluate(flat):
            value, gradient = evaluate_one(flat)
            return horizon * value, horizon * gradient

        return evaluate

    profiles = np.array(trace.iterates[:horizon])

    def evaluate(flat):
        profiles[:, j] = flat.reshape(spec.K, spec.n)
        _, _, payoffs, gradients = _player_pass(spec, j, profiles)
        return float(payoffs.sum()), gradients.sum(axis=0).ravel()

    return evaluate


def regret(trace: LearningTrace, j: int, horizon: int | None = None) -> float:
    """Realized regret of player j: best fixed strategy in hindsight versus the
    payoffs actually collected over the first ``horizon`` iterations."""
    spec = trace.spec
    T = trace.iterations if horizon is None else int(horizon)
    if not 1 <= T <= trace.iterations:
        raise ValueError("horizon must lie within the recorded iterations")
    _require_own_concave(spec, j)
    evaluate = _hindsight_objective(spec, trace, j, T)
    project = _projections(spec)[j if spec.m > 1 else 0]
    start = trace.averages[T - 1, j].ravel()
    _, value, residual, converged = _maximize_concave(
        evaluate, project, start, max_iters=30_000, tol=1e-9 * T
    )
    if not converged:
        raise ConvergenceError(
            "hindsight optimization did not converge", residual=residual
        )
    played = float(trace.payoffs[:T, j].sum())
    return float(value - played)


def solve_equilibrium(spec: GameSpec, T: int, step_schedule: StepSchedule | None = None):
    """Run the learning dynamics and package the averaged profile with its
    diagnostics; returns (trace, result)."""
    trace = run_no_regret(spec, T, step_schedule=step_schedule)
    averaged = trace.averages[-1]
    result = EquilibriumResult(
        profile=averaged,
        exploitability=exploitability(spec, averaged),
        regrets=np.array([regret(trace, j) for j in range(spec.m)]),
        iterations=T,
    )
    return trace, result


def trace_to_csv(trace: LearningTrace) -> str:
    """Render a trace as CSV with one row per (iteration, player, stage, individual)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["iteration", "player", "stage", "individual", "iterate_value", "average_value", "payoff"]
    )
    T, m, K, n = trace.iterates.shape
    for tau in range(T):
        for j in range(m):
            payoff = repr(float(trace.payoffs[tau, j]))
            for k in range(K):
                for i in range(n):
                    writer.writerow(
                        [
                            tau + 1,
                            j,
                            k + 1,
                            i,
                            repr(float(trace.iterates[tau, j, k, i])),
                            repr(float(trace.averages[tau, j, k, i])),
                            payoff,
                        ]
                    )
    return buffer.getvalue()


def result_to_json(result: EquilibriumResult) -> str:
    document = {
        "iterations": result.iterations,
        "exploitability": result.exploitability,
        "regrets": [float(r) for r in result.regrets],
        "profile": [
            [[float(v) for v in stage] for stage in player] for player in result.profile
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
