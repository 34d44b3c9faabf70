"""Single-player optimal investment by monotone projected gradient ascent.

With one player the jump is additive and the campaign-time opinions are
linear in the investment variables, so the problem of maximizing the average
stage utility is a concave program over a polytope: Kn cap constraints
(investment plus already-accumulated opinion must stay at most 1, rowwise),
one total-budget constraint, and Kn sign constraints, implied rather than
stored.  The solver is ``_maximize_concave``, the package's one concave
ascent, which runs in units of its starting gradient and also solves the
best-response and hindsight subproblems.  Every Euclidean projection onto
the polytope is computed exactly, in finitely many steps, by a dual
active-set method whose working set stays linearly independent.  Within one
``solve_single`` call each projection starts warm from the previous one's
working set, as successive ascent points share most active rows.  A call
with no such set (the first, or one after a call that ended with none, as
the zero plan's does) starts from the working set of the point's projection
onto the budget set alone, ``_project_rows``, the routine the multiplayer
solver projects by; where that answer meets every cap, one linear solve
returns it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .game_model import FEASIBILITY_TOL, GameSpec, validate_plans, _objective_for_player
from .opinion_dynamics import _finite, _readonly, _real

# Fixed stopping rules, read at call time: the projections' tolerance and
# iteration budget, the ascent's relative residual tolerance and step budget.
PROJECTION_TOL = 1e-12
PROJECTION_MAX_CYCLES = 10_000
ASCENT_TOL = 1e-9
ASCENT_MAX_STEPS = 100_000


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

    normals = []
    offsets = []
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
    held, fixed = trial[: region.count], trial[region.count :]
    # row 0: the point less the entering row's normal times that row's
    # multiplier so far; row 1: the entering row's normal
    pair = np.array([p, np.zeros(region.dim)])
    entering = None
    for _ in range(PROJECTION_MAX_CYCLES):
        rows = region.normals[held]
        free = rows * ~fixed
        targets = free @ pair.T
        targets[:, 0] -= region.offsets[held]
        solution = np.linalg.solve(free @ free.T, targets)
        gaps = pair - solution.T @ rows
        multipliers, rates = np.concatenate([solution.T, -gaps[:, fixed]], axis=1)
        x, residual = np.where(fixed, 0.0, gaps)
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
            x = np.where(fixed, 0.0, x - step * residual)
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
    previous call's final working set W.  Successive points of one ascent
    lie close together, so a call adds or drops only a few constraints where
    a cold start adds every active one.  A cold call, and a later one whose
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
    solve over the free variables F with two right-hand sides:
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
    reported times c.  Returns (point, value, residual, gradient, values, c)
    at the first accepted point with r <= ``ASCENT_TOL`` c, a rule free of
    the objective's scale.  The value and ``values`` (the value at the start
    and after every accepted step) are the payoffs ``evaluate`` returned and
    the residual is in payoff units; the gradient is the one ``evaluate``
    gave at the point, divided by c.  If ``ASCENT_MAX_STEPS`` accepted steps
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
    values = [value]
    fx, g = value / scale, g / scale
    step = 1.0
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
            return x, value, residual * scale, g, np.array(values), scale
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
    """Solution summary: the plan, its objective, and first-order diagnostics.

    ``plan`` is the read-only K x n investment matrix that ``validate_plans``
    returns for the solved plan.  ``iterations`` counts the accepted ascent
    steps.  ``final_step_norm`` is the stopping residual ||P(b + s g) - b|| / s
    at the returned plan b, with g the gradient, P the projection and
    s = min(line-search step, 1).
    ``kkt_residual`` is the largest positive component of the projected
    gradient at the returned plan (zero at an exact maximizer).
    ``objectives`` holds the objective value at the zero plan and after
    every accepted step, so it has ``iterations + 1`` entries and never
    decreases beyond round-off.  ``objective``, ``objectives``,
    ``final_step_norm`` and ``kkt_residual`` are in payoff units.
    """

    plan: np.ndarray
    objective: float
    iterations: int
    final_step_norm: float
    kkt_residual: float
    objectives: np.ndarray


def solve_single(spec: GameSpec) -> SolveReport:
    """Maximize the single-player payoff over the constraint polytope.

    Runs ``_maximize_concave`` from the zero plan, which is always
    feasible, so the ascent starts from a gradient of at most 1 however
    large the utility weights are and the report is in payoff units.  A
    linear utility makes the gradient constant, so the trial steps grow by
    1.5 after each acceptance, up to 1e6, instead of taking the
    Barzilai-Borwein step.  It stops once ``final_step_norm`` is at most
    ``ASCENT_TOL`` times max(1, max|g|), g the gradient at the zero plan,
    and raises ConvergenceError, carrying the last plan, if
    ``ASCENT_MAX_STEPS`` accepted steps do not get there.  Every projection
    meets the polytope's rows and its KKT multipliers on one scale,
    ``PROJECTION_TOL`` times max(1, max|p|), p the projected point; each
    starts the dual active-set method from the previous projection's final
    working set, a state held by this call alone, so two calls on one game
    return the same report.  The zero
    plan's projection ends with an empty working set, so the next one starts
    from that of its point's budget-set projection (``_budget_start``),
    which meets every cap at once on a game where only the budget binds.
    The ascent returns the gradient it measured at the plan, in its own
    units, which the KKT probe reuses before scaling its residual back to
    payoff units.  A game with other than one player raises ValueError, from
    ``build_region``.
    """
    region = build_region(spec)
    K, n = spec.K, spec.n

    payoff = _objective_for_player(spec, np.zeros((1, K, n)), 0)
    project = _warm_projection(region)
    b, objective, step_norm, g, objectives, scale = _maximize_concave(
        payoff, project, np.zeros(K * n))

    probe = 1e-3
    projected_gradient = (project(b + probe * g) - b) / probe
    kkt_residual = float(max(0.0, projected_gradient.max()))

    plan = _readonly(validate_plans(spec, b.reshape(1, K, n))[0])
    return SolveReport(
        plan=plan,
        objective=objective,
        iterations=len(objectives) - 1,
        final_step_norm=step_norm,
        kkt_residual=kkt_residual * scale,
        objectives=objectives,
    )
