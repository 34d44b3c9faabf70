"""Single-player optimal investment: a linear program solved by projection.

With one player the jump is additive and the campaign-time opinions are
affine in the investments, and utilities are linear, so the payoff is g'b
plus a constant, g the gradient at the zero plan, over a polytope: Kn cap
constraints (investment plus already-accumulated opinion must stay at most
1, rowwise), one total-budget constraint, and Kn sign constraints, implied
rather than stored.  Past a finite s, the projection of s g onto the
polytope is the program's least-norm optimum (Mangasarian & Meyer, SIAM J.
Control Optim. 17, 1979).  Every projection is exact, in finitely many
steps, by a dual active-set method whose working set stays linearly
independent; a call with no working set to start from starts from that of
the point's projection onto the budget set alone, ``_project_rows``, the
routine the multiplayer solver projects by.  ``_maximize_concave``, the
package's one concave ascent, serves only best responses and hindsight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .game_model import FEASIBILITY_TOL, GameSpec, validate_plans, _objective_for_player
from .opinion_dynamics import _finite, _readonly, _real

# Fixed stopping rules, read at call time: the projections' tolerance and
# iteration budget, the ascent's relative residual tolerance and step budget,
# and the largest multiple of the scaled gradient ``solve_single`` projects.
PROJECTION_TOL = 1e-12
PROJECTION_MAX_CYCLES = 10_000
ASCENT_TOL = 1e-9
ASCENT_MAX_STEPS = 2_000
SEARCH_MAX_SCALE = 2.0**20


@dataclass(frozen=True, eq=False)
class FeasibleRegion:
    """Nonnegative x in R^{Kn} with normal'x <= offset, sign constraints last in
    ``violations``; the normals and offsets pass ``_finite``, the package's
    gate for finite real numbers (ValueError otherwise).  A point with a
    non-finite entry violates the region by inf, and one that is not real
    numbers raises ValueError; ``contains`` allows the payoff functions'
    slack, ``FEASIBILITY_TOL``."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        normals = np.atleast_2d(_finite(self.normals, "halfspace normals"))
        offsets = np.atleast_1d(_finite(self.offsets, "halfspace offsets"))
        object.__setattr__(self, "normals", _readonly(normals))
        object.__setattr__(self, "offsets", _readonly(offsets))
        if self.normals.shape[0] != self.offsets.shape[0]:
            raise ValueError("each halfspace needs a normal and an offset")

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def count(self) -> int:
        return self.normals.shape[0]

    def violations(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([self.normals @ x - self.offsets, -x])

    def max_violation(self, x: np.ndarray) -> float:
        x = _real(x, "the point")
        if not np.isfinite(x).all():
            return np.inf
        return float(max(0.0, np.max(self.violations(x))))

    def contains(self, x: np.ndarray) -> bool:
        return self.max_violation(x) <= FEASIBILITY_TOL


def build_region(spec: GameSpec) -> FeasibleRegion:
    """Assemble the single-player constraint polytope.

    The cap rows are the Jacobian of the stage recursion, carried forward
    as one matrix of K + 1 blocks: block 0 takes x0 from t_0 and block s
    stage s's investment to the current campaign.  At campaign k the
    matrix takes one product with the adjacent-gap propagator
    exp(-L (t_k - t_{k-1})) of the game's bundle ``GameSpec.kernel``, block
    k becomes I, and blocks 1..K are stage k's cap rows; block 0 applied to
    x0 folds the diffusion of the initial opinions into the cap offsets, so
    every constraint is affine in the flattened (stage-major) investment
    vector.
    """
    if spec.m != 1:
        raise ValueError("build_region and solve_single handle single-player games only")
    K, n = spec.K, spec.n
    carried = np.eye(n, (K + 1) * n)

    normals, offsets = [], []
    for k, gap in enumerate(spec.kernel.gaps[:K], start=1):
        carried = gap @ carried
        carried[:, k * n : (k + 1) * n] = np.eye(n)
        normals.append(carried[:, n:])
        reach = carried[:, :n] @ spec.x0.values[:, 0]
        offsets.append(np.maximum(1.0 - reach, 0.0))  # reach <= 1 up to round-off
    normals.append(np.ones((1, K * n)))
    offsets.append(np.array([float(spec.budgets[0])]))
    return FeasibleRegion(normals=np.vstack(normals), offsets=np.concatenate(offsets))


def _project_rows(rows: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """The projection onto the budget set {b >= 0, sum(b) <= cap}, of (r, d)
    rows onto r caps known to be nonnegative, by the water-filling that
    ``equilibrium_solver.project_budget_set`` describes; a non-finite entry
    raises ValueError."""
    if not np.isfinite(rows).all():
        raise ValueError("the point to project must be finite")
    d = rows.shape[-1]
    projected = np.maximum(rows, 0.0)
    # Overflow is harmless here: a clamped sum past the largest float is over
    # any finite cap, and a shift past it is an entry far below -cap.
    with np.errstate(over="ignore"):
        over = projected.sum(axis=-1) > caps
        if over.any():
            v, caps = rows[over], caps[over, None]
            v = v - v.max(axis=-1, keepdims=True)
            u = np.maximum(np.sort(v, axis=-1)[:, ::-1], -caps)
            cumulative = u.cumsum(axis=-1) - caps
            feasible = (u > -caps) & (u - cumulative / np.arange(1, d + 1) > 0)
            # the top entry is always in the support, but the strict tests
            # drop it when the cap is zero
            rho = np.maximum(1, feasible.sum(axis=-1))
            theta = cumulative[np.arange(len(v)), rho - 1] / rho
            projected[over] = np.maximum(v - theta[:, None], 0.0)
    return projected


def _budget_start(p, region: FeasibleRegion) -> np.ndarray:
    """The working set at which ``_active_set`` starts a cold call: empty,
    unless the region's last row is the all-ones budget row that
    ``build_region`` puts last, with a cap c >= 0.  Then it is the working
    set of the projection of ``p`` onto the budget set {x >= 0, sum(x) <= c}
    alone.  If the clamped sum of p exceeds c, the budget row is held and so
    is every entry ``_project_rows`` sends to 0, save the top entry of p when
    it sends every one there (a zero cap), so that a column stays free;
    otherwise every entry with p_i < 0 is held.  This set is independent and
    dual feasible: the budget row's multiplier is the water-filling
    threshold theta >= 0 (max p at a zero cap) and a held entry's is
    theta - p_i >= 0, or -p_i > 0 without the budget row.  So a point whose
    budget-set projection meets every cap takes one linear solve, and the
    zero plan starts, and ends, with the empty set."""
    start = np.zeros(region.count + region.dim, dtype=bool)
    cap = region.offsets[-1:]
    if not (region.count and cap[0] >= 0.0 and (region.normals[-1] == 1.0).all()):
        return start
    with np.errstate(over="ignore"):  # a clamped sum past the float range is over c
        over = np.maximum(p, 0.0).sum() > cap[0]
    if over:
        free = _project_rows(p[None], cap)[0] > 0.0
        if not free.any():
            free[p.argmax()] = True
        start[region.count - 1] = True
        start[region.count:] = ~free
    else:
        start[region.count:] = p < 0.0
    return start


def _solve_working(region: FeasibleRegion, working: np.ndarray, pair: np.ndarray):
    """The system of ``_warm_projection`` for the working set W and the
    rows (y, n) of ``pair``: returns y's multipliers, n's, the projection of
    y onto W's affine set with the held variables at 0, and n's residual."""
    held, fixed = working[: region.count], working[region.count :]
    rows = region.normals[held]
    free = rows * ~fixed
    targets = free @ pair.T
    targets[:, 0] -= region.offsets[held]
    solution = np.linalg.solve(free @ free.T, targets)
    gaps = pair - solution.T @ rows
    multipliers, rates = np.concatenate([solution.T, -gaps[:, fixed]], axis=1)
    x, residual = np.where(fixed, 0.0, gaps)
    return multipliers, rates, x, residual


def _active_set(point, region: FeasibleRegion, working: np.ndarray):
    """The dual active-set loop of ``_warm_projection``: returns the
    projection of ``point`` and only then stores its final working set in
    ``working``, a boolean mask over the halfspaces and then the variables.
    It starts from ``working``, or from ``_budget_start`` when that is
    empty.  The constraints it holds must be linearly independent over the
    free columns; the stored set is, so it may start the next call.
    """
    p = np.asarray(point, dtype=float)
    if p.shape != (region.dim,) or not np.isfinite(p).all():
        raise ValueError(f"point must be a finite vector in R^{region.dim}")
    tol = PROJECTION_TOL * max(1.0, float(np.abs(p).max(initial=0.0)))
    trial = working.copy() if working.any() else _budget_start(p, region)
    # row 0: the point less the entering row's normal times that row's
    # multiplier so far; row 1: the entering row's normal
    pair = np.array([p, np.zeros(region.dim)])
    entering = None
    for _ in range(PROJECTION_MAX_CYCLES):
        multipliers, rates, x, residual = _solve_working(region, trial, pair)
        if multipliers.min(initial=0.0) < -tol:
            trial[trial.nonzero()[0][multipliers < -tol]] = False
            continue
        if entering is not None:
            with np.errstate(all="ignore"):  # a ratio past the float range is no block
                ratios = np.where(rates > 0.0, multipliers / rates, np.inf)
            partial = ratios.min(initial=np.inf)
            squared = float(residual @ residual)
            independent = squared > PROJECTION_TOL * float(pair[1] @ pair[1])
            full = violation / squared if independent else np.inf
            if partial == full == np.inf:
                raise ConvergenceError(
                    "dual active-set projection found a violated row that depends on "
                    "its working set with no row to drop: the region is empty up to "
                    "round-off", last_iterate=x, residual=region.max_violation(x))
            step = max(0.0, min(partial, full))
            if partial < full:
                pair[0] -= step * pair[1]
                violation -= step * squared
                trial[trial.nonzero()[0][ratios.argmin()]] = False
                continue
            trial[entering] = True
            x = np.where(trial[region.count :], 0.0, x - step * residual)
            pair[0] = p
        excess = np.where(trial, -np.inf, region.violations(x))
        entering = int(excess.argmax())
        violation = excess[entering]
        if violation <= tol:
            working[:] = trial
            return x
        pair[1] = region.normals[entering] if entering < region.count else 0.0
        if entering >= region.count:
            pair[1, entering - region.count] = -1.0
    raise ConvergenceError(
        f"dual active-set projection did not reach tolerance {PROJECTION_TOL:g} within "
        f"{PROJECTION_MAX_CYCLES} iterations on independent working constraints",
        last_iterate=x, residual=region.max_violation(x))


def _warm_projection(region: FeasibleRegion):
    """Exact Euclidean projection argmin ||x - point|| subject to A x <= c
    and x >= 0, as a closure whose first call starts cold, and is thus
    independent of every other, and whose later calls start from the
    previous call's final working set W.  Successive iterates of one-player
    learning lie close together, so a call adds or drops only a few
    constraints where a cold start adds every active one.  A cold call, and a later one whose
    W is empty, starts from ``_budget_start``: with the budget row of
    ``build_region`` last, the W of the point's projection onto the budget
    set alone, so a point whose budget-set answer meets every cap takes one
    linear solve; on any other region, the empty W.  W changes only when a
    call returns, so a ConvergenceError leaves the next call's start as it
    was.

    Dual active-set method for a quadratic program with identity Hessian
    (Goldfarb & Idnani, Math. Programming 27, 1983): W holds halfspaces as
    equalities and variables at 0.  The iterate is the projection onto W's
    affine set of the point less t n, where n is the normal of the entering
    row q and t its multiplier so far, and every multiplier is at least
    -tol.  Held variables are eliminated, so each iteration is one linear
    solve, ``_solve_working``, over the free variables F with two
    right-hand sides:
    (A_F A_F') lam = A_F y_F - c_W gives the multipliers (a held variable's
    is (A' lam - y)_i), y the shifted point, and (A_F A_F') r = A_F n_F gives
    the rates r at which they fall as t grows and the residual z = n - A' r
    of n against W.  Each iteration first drops every row of W whose
    multiplier is below -tol, which makes a warm start's W dual feasible;
    then, with no q yet, it adds the most violated row as q.  When
    ||z||^2 <= ``PROJECTION_TOL`` ||n||^2, q counts as dependent on W: the
    step is dual only, and the row of W whose multiplier reaches 0 first
    leaves.
    Otherwise the iterate takes the full step that meets q, after which q
    joins W, unless a multiplier reaches 0 first: then the step is partial
    and that row leaves.  So W stays linearly independent by construction.
    A ratio past the float range blocks nothing.

    The multiplier and violation tests use one scale: tol is
    ``PROJECTION_TOL`` times max(1, max|p|) for the point p, so a far point
    stops as a point of size 1 does.  The result meets the constraints
    outside W to tol and W's as equalities up to round-off at that scale, so
    every row to tol (a point of scale 1e8 may exceed a row by about 1e-6).
    Its KKT multipliers are met to tol, and from a cold start a point
    already feasible to tol comes back unchanged (on a region with the
    budget row last, if it is also nonnegative and within the budget
    exactly, as ``_budget_start`` holds the rest).  ``PROJECTION_MAX_CYCLES`` bounds the iterations (one
    linear solve each).  When they run out, or a dependent q has no row of
    W to drop (the region is empty up to round-off, which the error says),
    ConvergenceError carries the last dual iterate, which need not be
    feasible, and its largest violation.  A point of the wrong shape or
    with a non-finite entry raises ValueError."""
    working = np.zeros(region.count + region.dim, dtype=bool)
    return lambda point: _active_set(point, region, working)


def _maximize_concave(evaluate, project, start):
    """Monotone projected gradient ascent with backtracking line search, in
    units of the starting gradient.

    ``evaluate`` maps a point to its (value, gradient).  The ascent divides
    every value and gradient by c = max(1, max|g0|), g0 the gradient at the
    projected start (its first evaluation, so no evaluation is added), and so
    starts from a gradient of at most 1 however large the payoff's weights.
    Multiplying the payoff by a power of two 2^k, with max|g0| >= 1, leaves
    every iterate bit-identical and multiplies c by exactly 2^k.

    The step is halved until the candidate clears the quadratic ascent model
    (so every accepted move is an ascent up to round-off); if 80 halvings
    find no such candidate, ConvergenceError carries the current point.
    After each accepted move s = x_new - x_old, with gradient change
    y = g_old - g_new, the next trial step is the Barzilai-Borwein step
    s's / s'y (the spectral projected gradient of Birgin, Martinez and
    Raydan, SIAM J. Optim., 2000); where that is not a positive finite
    number (a linear objective gives s'y = 0), the accepted step grows by
    1.5 instead.  Either is clamped to [1e-12, 1e6], so 80 halvings still
    reach below 1e-12, and a candidate lies at most 1e6 from the current
    point before its projection, since the scaled gradient is of order 1.

    The residual is the projected-gradient step norm r = ||P(x + s g) - x|| / s
    at the probe step s = min(step, 1), with g the scaled gradient, and
    reported times c.  Returns (point, value, residual, values) at the
    first accepted point with r <= ``ASCENT_TOL`` c, a rule free of the
    objective's scale.  The value and ``values`` (the value at the start
    and after every accepted step) are the payoffs ``evaluate`` returned and
    the residual is in payoff units.  If ``ASCENT_MAX_STEPS`` accepted steps
    do not get there, ConvergenceError carries the last accepted point and
    its residual.  Both of the ascent's errors carry the residual, and the
    step norm bound named in the message, in payoff units; a projection's
    ConvergenceError, in the plan's units, passes through unchanged.

    The residual certifies the value: for a concave objective over a feasible
    set of diameter D, f* - f(x) <= r (D + s ||g(x)||), since the projection
    gives g'(y - P) <= r D for every feasible y.  D = sqrt(2) cap for a budget
    set, so exploitability and regret are exact to that absolute error.
    """
    x = project(np.asarray(start, dtype=float).ravel())
    value, g = evaluate(x)
    scale = max(1.0, float(np.max(np.abs(g))))
    values, fx, g, step = [value], value / scale, g / scale, 1.0
    noise = 1e-13 * max(1.0, abs(fx))

    def residual_at(point, gradient):  # in the ascent's units
        probe = min(step, 1.0)
        move = project(point + probe * gradient) - point
        return float(np.linalg.norm(move)) / probe

    for _ in range(ASCENT_MAX_STEPS):
        for _ in range(80):
            candidate = project(x + step * g)
            value, g_candidate = evaluate(candidate)
            f_candidate, g_candidate = value / scale, g_candidate / scale
            delta = candidate - x
            model = float(g @ delta) - float(delta @ delta) / (2.0 * step)
            if f_candidate >= fx + model - noise:
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                "line search found no ascent step in 80 halvings",
                last_iterate=x,
                residual=residual_at(x, g) * scale,
            )
        curvature = float(delta @ (g - g_candidate))
        x, fx, g = candidate, f_candidate, g_candidate
        values.append(value)
        residual = residual_at(x, g)
        if residual <= ASCENT_TOL:
            return x, value, residual * scale, np.array(values)
        spectral = float(delta @ delta) / curvature if curvature > 0.0 else 0.0
        step = min(max(spectral if 0.0 < spectral < np.inf else 1.5 * step, 1e-12), 1e6)
    raise ConvergenceError(
        f"projected gradient ascent did not reach step norm {ASCENT_TOL * scale:g} "
        f"within {ASCENT_MAX_STEPS} accepted steps",
        last_iterate=x,
        residual=residual_at(x, g) * scale,
    )


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution summary: the plan, its objective, and a first-order check.

    ``plan`` is the read-only K x n investment matrix that ``validate_plans``
    returns for the solved plan.  ``iterations`` counts the projections of
    ``solve_single``'s search.  ``kkt_residual`` is the largest positive
    component of the projected gradient at the plan (zero at an exact
    maximizer).  ``objective`` and ``kkt_residual`` are in payoff units.  The
    ascent's path fields ``final_step_norm`` and ``objectives`` are gone.
    """

    plan: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float


def _certified_plan(region: FeasibleRegion, working: np.ndarray, g: np.ndarray):
    """The plan that the working set W gives for max g'b over the region, the
    least-norm point of W's affine set with the held variables at 0, from
    the solve that also expresses g on W.  Returns the plan, its largest
    violation of the region, and the certificate's largest failure: that
    violation, g's most negative multiplier or its largest residual on the
    free columns.  At 0 the plan is optimal by the program's KKT conditions."""
    _, lam, plan, rest = _solve_working(region, working, np.array([np.zeros(g.size), g]))
    violation = region.max_violation(plan)
    return plan, violation, max(violation, -lam.min(initial=0.0), np.abs(rest).max(initial=0.0))


def solve_single(spec: GameSpec) -> SolveReport:
    """Maximize the single-player payoff, g'b plus a constant, over the
    constraint polytope.

    One kernel pass at the zero plan gives g.  The search projects
    s g / max|g| for s = 1, 4, 16, ... (s g when g is 0, whose zero plan is
    certified at once), so its plan does not depend on the scale of the
    utility weights.  Each projection starts from the previous one's
    working set W, held by this call alone.  After each it solves for the
    plan from W alone, at unit scale, so a far point's round-off never
    reaches it, and returns the first plan that ``_certified_plan``
    certifies to ``PROJECTION_TOL``.  Past
    ``SEARCH_MAX_SCALE`` it raises ConvergenceError carrying the last plan
    that met every row (else the zero plan) and the last certificate's
    failure.  One more pass at the plan gives the objective and the gradient
    that the KKT probe projects.  A game with other than one player raises
    ValueError, from ``build_region``.
    """
    region = build_region(spec)
    payoff = _objective_for_player(spec, np.zeros((1, spec.K, spec.n)), 0)
    g = payoff(np.zeros(region.dim))[1]
    scale = float(np.max(np.abs(g))) or 1.0
    g = g / scale
    working = np.zeros(region.count + region.dim, dtype=bool)
    last, shortfall, iterations = np.zeros(region.dim), np.inf, 0
    while shortfall > PROJECTION_TOL:
        if 4.0**iterations > SEARCH_MAX_SCALE:
            raise ConvergenceError(f"no projection of s g, s up to {SEARCH_MAX_SCALE:g}, left "
                                   "a working set that certifies its plan", last, shortfall)
        _active_set(4.0**iterations * g, region, working)
        b, violation, shortfall = _certified_plan(region, working, g)
        last, iterations = b if violation <= PROJECTION_TOL else last, iterations + 1
    objective, gradient = payoff(b)
    probe = _active_set(b + 1e-3 * gradient / scale, region, working) - b
    plan = _readonly(validate_plans(spec, b.reshape(1, spec.K, spec.n))[0])
    return SolveReport(plan, objective, iterations, float(max(0.0, probe.max())) / 1e-3 * scale)
