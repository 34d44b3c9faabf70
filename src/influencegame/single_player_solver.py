"""Single-player optimal investment by monotone projected gradient ascent.

With one player the jump is additive and the campaign-time opinions are
linear in the investment variables, so the problem of maximizing the average
stage utility is a concave program over a polytope: Kn cap constraints
(investment plus already-accumulated opinion must stay at most 1, rowwise),
one total-budget constraint, and Kn sign constraints -- 2Kn + 1 halfspaces in
Kn variables.  The solver is the package's one concave-ascent routine
(projected gradient with a backtracking line search, shared with the
best-response and hindsight subproblems), and every Euclidean projection
onto the polytope is computed exactly, in finitely many steps, by a primal
active-set method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, HypothesisCheckError
from .game_model import BudgetPlan, GameSpec, _objective_for_player
from .opinion_dynamics import _readonly

DEFAULT_PROJECTION_TOL = 1e-12
DEFAULT_PROJECTION_CYCLES = 10_000


@dataclass(frozen=True)
class FeasibleRegion:
    """Intersection of halfspaces normal'x <= offset in R^{Kn}."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "normals", _readonly(np.atleast_2d(self.normals)))
        object.__setattr__(self, "offsets", _readonly(np.atleast_1d(self.offsets)))
        if self.normals.shape[0] != self.offsets.shape[0]:
            raise ValueError("each halfspace needs a normal and an offset")

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def count(self) -> int:
        return self.normals.shape[0]

    def violations(self, x: np.ndarray) -> np.ndarray:
        return self.normals @ x - self.offsets

    def max_violation(self, x: np.ndarray) -> float:
        return float(max(0.0, np.max(self.violations(x))))

    def contains(self, x: np.ndarray, tol: float = 1e-8) -> bool:
        return self.max_violation(x) <= tol


def build_region(spec: GameSpec) -> FeasibleRegion:
    """Assemble the single-player constraint polytope.

    The pairwise propagators exp(-L (t_k - t_s)) are products of the game's
    cached adjacent-gap propagators; the diffusion of the initial opinions is
    folded into the cap offsets, so every constraint is affine in the
    flattened (stage-major) investment vector.
    """
    if spec.m != 1:
        raise ValueError("the constraint polytope is defined for single-player games")
    K, n = spec.K, spec.n
    d = K * n
    x0 = spec.x0.values[:, 0]
    gaps = spec.gap_propagators

    normals = []
    offsets = []
    flows = []  # flows[s] carries opinions from t_s to t_k, s = 0, ..., k-1
    for k in range(1, K + 1):
        flows = [gaps[k - 1] @ flow for flow in flows] + [gaps[k - 1]]
        block = np.zeros((n, d))
        block[:, (k - 1) * n : k * n] = np.eye(n)
        for s in range(1, k):
            block[:, (s - 1) * n : s * n] = flows[s]
        reach = flows[0] @ x0
        normals.append(block)
        offsets.append(1.0 - reach)
    normals.append(np.ones((1, d)))
    offsets.append(np.array([float(spec.budgets[0])]))
    normals.append(-np.eye(d))
    offsets.append(np.zeros(d))

    region = FeasibleRegion(
        normals=np.vstack(normals), offsets=np.concatenate(offsets)
    )
    assert region.count == 2 * K * n + 1
    assert region.contains(np.zeros(d)), "zero plan must always be feasible"
    return region


def project_feasible(
    point: np.ndarray,
    region: FeasibleRegion,
    tol: float = DEFAULT_PROJECTION_TOL,
    max_cycles: int = DEFAULT_PROJECTION_CYCLES,
) -> np.ndarray:
    """Exact Euclidean projection argmin ||x - point|| subject to A x <= c.

    Primal active-set method for a quadratic program with identity Hessian
    (Nocedal & Wright, *Numerical Optimization*, Alg. 16.3), started at the
    origin with an empty working set W.  Precondition: the origin lies in the
    region (every offset is nonnegative), as ``build_region`` guarantees.

    Each iteration projects the point onto the affine set {A_W y = c_W} with
    one linear solve, y = point - A_W' lam where (A_W A_W') lam = A_W point -
    c_W.  If y exceeds a constraint outside W by more than ``tol``, the
    iterate walks towards y up to the first constraint the walk would cross,
    which joins W.  Otherwise the iterate becomes y; it is returned once
    every multiplier lam is at least -tol, else the most negative one leaves
    W.  That is the certificate: the result meets W's constraints as
    equalities and all others to ``tol``, and the multipliers satisfy the KKT
    conditions to ``tol``.  A point already feasible to ``tol`` comes back
    unchanged.

    ``max_cycles`` bounds the active-set iterations (one linear solve each);
    when it runs out, ConvergenceError carries the last iterate.
    """
    p = np.asarray(point, dtype=float)
    if p.shape != (region.dim,):
        raise ValueError(f"point must live in R^{region.dim}")
    normals, offsets = region.normals, region.offsets
    if np.min(offsets) < 0.0:
        raise ValueError("the active-set projection starts at the origin, "
                         "which must lie in the region")
    x = np.zeros(region.dim)
    working: list[int] = []
    gap = np.inf
    for _ in range(max_cycles):
        rows = normals[working]
        multipliers = np.linalg.solve(rows @ rows.T, rows @ p - offsets[working])
        y = p - rows.T @ multipliers
        excess = normals @ y - offsets
        excess[working] = -np.inf
        if excess.max() > tol:
            # A constraint the full step moves by at most tol cannot end more
            # than tol past its bound; skipping those keeps round-off copies
            # of W's rows out of W.
            step = y - x
            rate = normals @ step
            rate[working] = 0.0
            candidates = np.flatnonzero((rate > tol) | (excess > tol))
            ratios = (offsets[candidates] - normals[candidates] @ x) / rate[candidates]
            block = int(np.argmin(ratios))
            x = x + max(0.0, float(ratios[block])) * step
            working.append(int(candidates[block]))
            gap = float(excess.max())
            continue
        x = y
        if not working or multipliers.min() >= -tol:
            return x
        gap = float(-multipliers.min())
        del working[int(np.argmin(multipliers))]
    raise ConvergenceError(
        f"active-set projection did not reach tolerance {tol:g} "
        f"within {max_cycles} iterations",
        last_iterate=x,
        residual=gap,
    )


@dataclass(frozen=True)
class SolveReport:
    """Solution summary: the plan, its objective, and first-order diagnostics.

    ``iterations`` counts the accepted ascent steps.  ``final_step_norm`` is
    the stopping residual ||P(b + s g) - b|| / s at the returned plan b, with
    g the gradient, P the projection and s = min(line-search step, 1).
    ``kkt_residual`` is the largest positive component of the projected
    gradient at the returned plan (zero at an exact maximizer).
    ``objectives`` records the objective value at the zero plan and after
    every accepted step.
    """

    plan: BudgetPlan
    objective: float
    iterations: int
    final_step_norm: float
    kkt_residual: float
    objectives: np.ndarray | None = None


def _check_concave_stages(spec: GameSpec):
    """Midpoint-concavity spot check for custom stage utilities."""
    from .verification import ConvexityProbe, midpoint_convexity_check

    utility = spec.utilities[0]
    if utility.is_linear:
        return
    n, stages = spec.n, spec.K + 1
    for k in (1, stages):
        probe = ConvexityProbe(
            function=lambda z, k=k: -utility.value(z[:n], z[n:], k),
            sampler=lambda r: np.concatenate([r.random(n), r.random(n) * 0.5]),
            samples=64,
            tolerance=1e-9,
        )
        report = midpoint_convexity_check(probe, seed=11)
        if not report.passed:
            raise HypothesisCheckError(
                "custom stage utility failed the concavity midpoint check "
                f"(worst violation {report.worst_violation:.3e})",
                report=report,
            )


def solve_single(
    spec: GameSpec,
    max_iters: int = 100_000,
    tol: float = 1e-8,
    keep_objectives: bool = False,
) -> SolveReport:
    """Maximize the single-player payoff over the constraint polytope.

    Monotone projected gradient ascent with a backtracking line search
    (``equilibrium_solver._maximize_concave``) from the zero plan, which is
    always feasible.  The trial step is the Barzilai-Borwein step of the
    last move; a linear utility makes the gradient constant, so its steps
    grow by 1.5 after each acceptance instead, up to 1e6.  It stops once the
    projected-gradient step norm ``final_step_norm`` is at most ``tol``;
    ``_maximize_concave`` raises ConvergenceError, carrying the last plan,
    if ``max_iters`` accepted steps do not get there.  Every projection is
    exact to ``DEFAULT_PROJECTION_TOL``, the feasibility and multiplier
    tolerance of ``project_feasible``.  A game with other than one player
    raises ValueError.
    """
    from .equilibrium_solver import _maximize_concave

    if spec.m != 1:
        raise ValueError("solve_single handles single-player games only")
    _check_concave_stages(spec)
    region = build_region(spec)
    K, n = spec.K, spec.n

    evaluate = _objective_for_player(spec, np.zeros((1, K, n)), 0)
    project = lambda v: project_feasible(v, region)
    objectives = []
    b, objective, step_norm = _maximize_concave(
        evaluate, project, np.zeros(K * n), max_iters=max_iters, tol=tol,
        values=objectives,
    )

    g = evaluate(b)[1]
    probe = 1e-3
    projected_gradient = (project(b + probe * g) - b) / probe
    kkt_residual = float(max(0.0, projected_gradient.max()))

    plan = BudgetPlan(player=0, entries=b.reshape(K, n), budget_cap=float(spec.budgets[0]))
    assert region.contains(b, tol=1e-8)
    return SolveReport(
        plan=plan,
        objective=objective,
        iterations=len(objectives) - 1,
        final_step_norm=step_norm,
        kkt_residual=kkt_residual,
        objectives=np.asarray(objectives) if keep_objectives else None,
    )
