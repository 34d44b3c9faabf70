"""Single-player optimal investment by projected gradient ascent.

With one player the jump is additive and the campaign-time opinions are
linear in the investment variables, so the problem of maximizing the average
stage utility is a concave program over a polytope: Kn cap constraints
(investment plus already-accumulated opinion must stay at most 1, rowwise),
one total-budget constraint, and Kn sign constraints -- 2Kn + 1 halfspaces in
Kn variables, all with closed-form single-halfspace projections.  The solver
is plain projected gradient ascent with a diminishing step, using Dykstra's
cyclic algorithm to compute exact Euclidean projections onto the polytope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, HypothesisCheckError
from .game_model import BudgetPlan, GameSpec, _objective_for_player
from .opinion_dynamics import pair_propagator, _readonly

DEFAULT_PROJECTION_TOL = 1e-10
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

    The pairwise propagators are computed once up front; the diffusion of the
    initial opinions is folded into the cap offsets, so every constraint is
    affine in the flattened (stage-major) investment vector.
    """
    if spec.m != 1:
        raise ValueError("the constraint polytope is defined for single-player games")
    K, n = spec.K, spec.n
    d = K * n
    x0 = spec.x0.values[:, 0]

    normals = []
    offsets = []
    for k in range(1, K + 1):
        block = np.zeros((n, d))
        block[:, (k - 1) * n : k * n] = np.eye(n)
        for s in range(1, k):
            block[:, (s - 1) * n : s * n] = pair_propagator(
                spec.network, spec.schedule, k, s
            ).matrix
        reach = pair_propagator(spec.network, spec.schedule, k, 0).matrix @ x0
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
    """Euclidean projection onto the region by Dykstra's cyclic algorithm.

    Plain cyclic projection only finds a feasible point; Dykstra's correction
    vectors make the iterates converge to the exact projection.  Raises
    ConvergenceError (carrying the last iterate) if the cycle budget runs out.
    """
    x = np.asarray(point, dtype=float).copy()
    if x.shape != (region.dim,):
        raise ValueError(f"point must live in R^{region.dim}")
    normals, offsets = region.normals, region.offsets
    norms_sq = np.einsum("ij,ij->i", normals, normals)
    corrections = np.zeros((region.count, region.dim))

    for _ in range(max_cycles):
        previous = x.copy()
        for i in range(region.count):
            u = x + corrections[i]
            violation = normals[i] @ u - offsets[i]
            if violation > 0.0:
                x = u - (violation / norms_sq[i]) * normals[i]
            else:
                x = u
            corrections[i] = u - x
        if region.max_violation(x) <= tol and np.max(np.abs(x - previous)) <= tol:
            return x
    raise ConvergenceError(
        f"Dykstra projection did not reach tolerance {tol:g} "
        f"within {max_cycles} cycles",
        last_iterate=x,
        residual=region.max_violation(x),
    )


@dataclass(frozen=True)
class SolveReport:
    """Solution summary: the plan, its objective, and first-order diagnostics.

    ``kkt_residual`` is the largest positive component of the projected
    gradient at the returned plan (zero at an exact maximizer).
    ``objectives`` records the objective value at every iterate.
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
    step_schedule=None,
    max_iters: int = 100_000,
    tol: float = 1e-8,
    projection_tol: float = 1e-12,
    keep_objectives: bool = False,
) -> SolveReport:
    """Maximize the single-player payoff over the constraint polytope.

    Projected gradient ascent from the zero plan (always feasible) with the
    step schedule eta_t = eta0 / sqrt(t), where eta0 is the reciprocal of the
    gradient norm at the start; terminates when the projected step shrinks
    below ``tol``.  ``step_schedule`` may override with any callable t -> eta.
    """
    if spec.m != 1:
        raise ValueError("solve_single handles single-player games only")
    _check_concave_stages(spec)
    region = build_region(spec)
    K, n = spec.K, spec.n
    d = K * n

    evaluate = _objective_for_player(spec, np.zeros((1, K, n)), 0)
    b = np.zeros(d)
    objective, g = evaluate(b)
    if step_schedule is None:
        eta0 = 1.0 / max(np.linalg.norm(g), 1e-8)
        step_schedule = lambda t: eta0 / np.sqrt(t)

    objectives = [objective] if keep_objectives else None
    step_norm = np.inf
    iterations = 0
    for t in range(1, max_iters + 1):
        iterations = t
        candidate = project_feasible(
            b + step_schedule(t) * g, region, tol=projection_tol
        )
        step_norm = float(np.linalg.norm(candidate - b))
        b = candidate
        objective, g = evaluate(b)
        if keep_objectives:
            objectives.append(objective)
        if step_norm < tol:
            break

    probe = 1e-3
    projected_gradient = (
        project_feasible(b + probe * g, region, tol=projection_tol) - b
    ) / probe
    kkt_residual = float(max(0.0, projected_gradient.max()))

    plan = BudgetPlan(player=0, entries=b.reshape(K, n), budget_cap=float(spec.budgets[0]))
    assert region.contains(b, tol=1e-8)
    return SolveReport(
        plan=plan,
        objective=objective,
        iterations=iterations,
        final_step_norm=step_norm,
        kkt_residual=kkt_residual,
        objectives=np.asarray(objectives) if keep_objectives else None,
    )
