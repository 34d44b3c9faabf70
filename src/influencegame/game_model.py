"""Game data model: stage utilities, strategy profiles, payoffs, and exact payoff gradients.

A game couples a network, a campaign schedule, initial opinions, and one
stage-utility/budget pair per player.  A strategy profile is one (m, K, n)
float array, the stack of the players' K x n open-loop investment plans;
every function here takes that array and checks it once, with
``validate_plans``.  Player j's payoff is the average of its stage utilities
evaluated at the pre-jump campaign-time opinions of its own opinion column,
with the terminal stage charged no investment.

Every payoff, gradient and opinion state comes from one kernel,
``_columns_pass``: a forward pass of the stage recursion (diffuse across a
gap by the propagator A_k, then jump: for one player additively, x + b,
refusing an investment over the headroom 1 - x, and for several normalized,
(x + b) / (1 + sigma)) that carries a set of players' opinion columns as one
state, followed by its reverse-mode sweep for each column's exact
own-investment gradient.  It always takes the columns' own plans and
the damping totals, which set its batch and through which alone other
players reach a column; in a one-player game the totals are the plan
itself, and the game's player count picks the additive jump.  Whole
profiles give both (``_profile_pass``), and a best-response or hindsight
objective one own plan, without a batch axis, against the totals of every
profile it scores.  The kernel stores its states stage-major.  What it
reads of the game (the gap propagators and their transposes, x0's columns,
the linear utilities' weights and scaled gradients) is built once per game
into one read-only bundle, ``GameSpec.kernel``.  A custom utility's
callables are called once per stage on the column's slice of the kernel's
stack: (n,) for one profile, (rows, n) for a batch.
``simulate_trajectory`` samples the hybrid process from the kernel's
campaign-time states, carrying each state into the gap that follows it.

A custom utility is admitted when its game is built, by midpoint spot
checks on pairs drawn in one block from fixed seeds.  The midpoint rule,
``_midpoint_violations`` with its one bound ``_MIDPOINT_TOL``, lives here,
the lowest module that judges midpoints; the verify suites import it, so
this module imports nothing from ``verification``.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import HypothesisCheckError, InfeasiblePlanError
from .opinion_dynamics import (
    CampaignSchedule,
    Network,
    OpinionState,
    TrajectoryPoint,
    interval_propagators,
    propagator,
    _readonly,
)

# Slack of every plan check: ``validate_plans``' signs and budgets, the
# one-player jump's headroom, ``FeasibleRegion.contains`` and the grid
# oracles' caps (absorbs projection round-off).
FEASIBILITY_TOL = 1e-9

# Bound on (sum(rho) + lambda) / (K + 1), which bounds a linear utility's
# payoff gradient entries.  No solver steps further than 1e6 along a gradient
# (the ascent's clamp; the no-regret stepsize is at most 10) and a hindsight
# objective sums one gradient per iteration, so over even 1e12 iterations a
# step stays below 1e6 * 1e12 * 1e288 = 1e306 and cannot overflow a plan.
_MAX_GRADIENT = 1e288

# Matrix entries in one stack of ``simulate_trajectory``'s in-gap propagators
# (1 MiB of floats): the builder holds a few arrays of the stack's size, so a
# block keeps a long sampling at a few MiB however many samples a gap holds.
_SAMPLE_BLOCK = 2 ** 17

# How far f(midpoint) may exceed the mean of the endpoint values: the one
# bound of the midpoint rule, for custom-utility admission and the verify suites.
_MIDPOINT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StageUtility:
    """Per-stage utility u(x, b, k) of one player, linear or custom by what it
    holds.

    A linear utility holds weights ``rho`` and scores rho(k)'x - lambda 1'b,
    lambda the ``cost_coefficient``; the game kernel reads its weights from
    the game's stack in the bundle ``GameSpec.kernel``.  A custom utility
    holds a value and both partial gradients as callables fn(x, b, k) of
    opinions x and budgets b shaped (..., n), a stack of length-n vectors,
    and an int stage k: ``value_fn`` returns the (...) values,
    ``opinion_grad_fn`` and ``budget_grad_fn`` the (..., n) gradients.  The
    kernel calls each once per stage on its whole stack.  Weights together
    with a callable, a custom utility with a nonzero cost coefficient (its
    callables price the budget), and neither weights nor all three
    callables raise ValueError, so no field is held and then ignored, as
    does a cost coefficient that is not a real number (a bool is not one).
    ``GameSpec`` checks a custom utility once, when the game is built: each
    callable must answer a stack of the right shape (ValueError otherwise),
    and the utility must pass the midpoint spot checks of the shape its game
    needs (HypothesisCheckError otherwise).  Alone in a game it must be
    concave; in a game of m >= 2 players it must be increasing and convex in
    the opinion argument and concave in the own budget.
    """

    rho: np.ndarray | None = None
    cost_coefficient: float = 0.0
    value_fn: Callable | None = None
    opinion_grad_fn: Callable | None = None
    budget_grad_fn: Callable | None = None

    def __post_init__(self):
        cost = self.cost_coefficient
        if isinstance(cost, bool) or not isinstance(cost, numbers.Real):
            raise ValueError(f"cost coefficient must be a real number, got {cost!r}")
        object.__setattr__(self, "cost_coefficient", float(cost))
        if not np.isfinite(self.cost_coefficient):
            raise ValueError("cost coefficient must be finite")
        if self.cost_coefficient < 0:
            raise ValueError("cost coefficient must be nonnegative")
        callables = (self.value_fn, self.opinion_grad_fn, self.budget_grad_fn)
        if self.rho is None:
            if not all(map(callable, callables)):
                raise ValueError("a stage utility needs weights rho or value, opinion-gradient "
                                 "and budget-gradient callables")
            if self.cost_coefficient != 0:
                raise ValueError("a custom utility prices the budget in its callables: "
                                 "its cost coefficient must be 0")
            return
        if any(fn is not None for fn in callables):
            raise ValueError("a utility holds weights rho or callables, not both")
        rho = np.atleast_2d(np.asarray(self.rho, dtype=float))
        if not np.all(np.isfinite(rho)):
            raise ValueError("stage weights rho must be finite")
        if np.any(rho < 0):
            raise ValueError("stage weights rho must be nonnegative")
        object.__setattr__(self, "rho", _readonly(rho))

    @property
    def is_linear(self) -> bool:
        return self.rho is not None


_KernelConstants = namedtuple(  # see GameSpec.kernel
    "_KernelConstants", "rho cost opinion_gradient budget_gradient x0 gaps gaps_transposed")


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Immutable description of one game instance.

    The schedule must hold at least one campaign time (K >= 1) and the
    opinions at least one player's column (m >= 1).  With m >= 2 players
    every row of ``x0`` must sum to 1 (within 1e-9): the players'
    opinions of each individual form a distribution, which the constant-sum
    identity and the normalized jump keep along the trajectory.  A linear
    utility's weights must keep (sum(rho) + lambda) / (K + 1) at most
    ``_MAX_GRADIENT``, 1e288, so that no solver step overflows.  The budgets
    are a flat vector of m entries.  Every custom utility's callables are
    probed here on a stack, and the utility is checked for the shape its
    game needs (see ``StageUtility``), so no solver checks a hypothesis or
    meets a callable that cannot take its stacks.
    """

    network: Network
    schedule: CampaignSchedule
    x0: OpinionState
    budgets: np.ndarray
    utilities: tuple[StageUtility, ...]

    def __post_init__(self):
        object.__setattr__(self, "budgets", _readonly(np.atleast_1d(self.budgets)))
        object.__setattr__(self, "utilities", tuple(self.utilities))
        if self.schedule.K < 1:
            raise ValueError("a game needs at least one campaign time")
        if self.x0.n != self.network.n:
            raise ValueError("initial opinions and network disagree on n")
        m = self.x0.m
        if m < 1:
            raise ValueError("a game needs at least one player")
        if self.budgets.shape != (m,) or len(self.utilities) != m:
            raise ValueError("budgets (a flat vector), utilities and opinion columns "
                             "must all count m")
        if m >= 2 and np.max(np.abs(self.x0.values.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("initial opinions of each individual must sum to 1 across players")
        if not np.all(np.isfinite(self.budgets)):
            raise ValueError("budgets must be finite")
        if np.any(self.budgets < 0):
            raise ValueError("budgets must be nonnegative")
        stages = self.schedule.K + 1
        for j, utility in enumerate(self.utilities):
            if not utility.is_linear:
                _admit_custom(utility, self.network.n, stages, player=j, multiplayer=m >= 2)
            elif utility.rho.shape != (stages, self.network.n):
                raise ValueError(
                    f"rho must supply all {stages} stages for {self.network.n} individuals"
                )
            # scaled before summing, so that the sum cannot overflow
            elif (np.sum(utility.rho / _MAX_GRADIENT)
                  + utility.cost_coefficient / _MAX_GRADIENT) > stages:
                raise ValueError(f"(sum(rho) + lambda) / (K + 1) above {_MAX_GRADIENT:g}: "
                                 "a solver step may overflow")

    @property
    def m(self) -> int:
        return self.x0.m

    @property
    def n(self) -> int:
        return self.network.n

    @property
    def K(self) -> int:
        return self.schedule.K

    @cached_property
    def kernel(self) -> _KernelConstants:
        """What the kernel reads of the game, read-only, built on first use and
        kept for the game's life (not a field: ``replace`` returns a game
        without it): the linear utilities' stage-major (K+1, m, n) weights
        rho and (m,) costs lambda (zero for custom utilities), their gradients
        rho / (K+1) and -lambda / (K+1) (m, 1), x0 as (m, n) columns, and the
        adjacent-gap propagators, one ``propagator`` call per gap, with their
        transposes.  Building it runs the propagators' stochasticity gate."""
        rho = np.zeros((self.K + 1, self.m, self.n))
        cost = np.zeros(self.m)
        for j, utility in enumerate(self.utilities):
            if utility.is_linear:
                rho[:, j], cost[j] = utility.rho, utility.cost_coefficient
        scale = 1.0 / (self.K + 1)
        x0 = np.ascontiguousarray(self.x0.values.T) + 0.0  # a -0.0 opinion becomes 0.0
        arrays = map(_readonly, (rho, cost, scale * rho, scale * -cost[:, None], x0))
        gaps = tuple(interval_propagators(self.network, self.schedule))
        return _KernelConstants(*arrays, gaps, tuple(gap.T for gap in gaps))


def _probe_stacked(utility: StageUtility, n: int, stages: int, player: int):
    """Call each of a custom utility's callables at k = 1 and k = K+1 on a
    (2, n+1, n) stack, whose batch axes differ from n so that a callable
    written for a single vector cannot pass by broadcasting; raise
    ValueError naming the player and the callable if one raises TypeError,
    ValueError or IndexError (a table short of K+1 stages) or returns the
    wrong shape."""
    x = np.full((2, n + 1, n), 0.5)
    b = np.full(x.shape, 0.25)
    for k in (1, stages):
        for name, shape in (("value_fn", x.shape[:-1]), ("opinion_grad_fn", x.shape),
                            ("budget_grad_fn", x.shape)):
            try:
                answer = np.shape(getattr(utility, name)(x, b, k))
            except (TypeError, ValueError, IndexError) as exc:
                raise ValueError(f"{name} of player {player} failed on opinions and budgets "
                                 f"shaped {x.shape} at stage {k}: {exc}") from exc
            if answer != shape:
                raise ValueError(f"{name} of player {player} returned shape {answer} for "
                                 f"opinions and budgets shaped {x.shape}, not {shape}")


def _midpoint_violations(function: Callable, y: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """f((y + y_hat) / 2) - (f(y) + f(y_hat)) / 2 for each row of the stacks y
    and y_hat, from one call of the stacked ``function`` on all 3B points.
    A value above ``_MIDPOINT_TOL``, or a NaN, refutes convexity."""
    values = np.asarray(function(np.concatenate([(y + y_hat) / 2.0, y, y_hat])), dtype=float)
    midpoint, left, right = values.reshape(3, len(y))
    return midpoint - (left + right) / 2.0


def _require_midpoint_convex(function: Callable, points: np.ndarray, message: str):
    """Midpoint rule on the pairs (points[2i], points[2i+1]) of a block of
    points; a violation above ``_MIDPOINT_TOL`` or a NaN raises
    HypothesisCheckError, after ``message``, naming the worst violation."""
    worst = float(np.max(_midpoint_violations(function, points[0::2], points[1::2])))
    if not worst <= _MIDPOINT_TOL:
        raise HypothesisCheckError(f"{message} (worst violation {worst:.3e})")


def _admit_custom(utility: StageUtility, n: int, stages: int, player: int,
                  multiplayer: bool):
    """Admit a custom utility: ``_probe_stacked``, then midpoint spot checks
    of the shape its game needs at k = 1 and k = K+1.  Alone in a game it
    must be concave in (opinions, budgets) on the same 64 pairs of points,
    the budgets in [0, 0.5).  In a game of m >= 2 players, on the same 32
    pairs of points y in [0, 1)^n, it must be convex in the opinions y at a
    budget drawn per stage, not fall by more than 1e-9 over one step of 0.1
    up any opinion from an opinion point drawn per stage, and concave in the
    own budgets y / 2 at that opinion point."""
    _probe_stacked(utility, n, stages, player)
    value = utility.value_fn
    if not multiplayer:
        points = np.random.default_rng(11).random((128, 2, n))
        points[:, 1] *= 0.5
        for k in (1, stages):
            _require_midpoint_convex(lambda z: -value(z[:, 0], z[:, 1], k), points,
                                     "custom stage utility failed the concavity midpoint check")
        return
    rng = np.random.default_rng(0)
    points = np.random.default_rng(7).random((64, n))
    for k in (1, stages):
        b = rng.random(n) * 0.5
        _require_midpoint_convex(
            lambda x: value(x, np.broadcast_to(b, x.shape), k), points,
            f"custom utility of player {player} failed the convexity midpoint check")
        # the point itself, then one step of 0.1 up each opinion, in one stack
        x = rng.random(n) * 0.8 + np.vstack([np.zeros(n), 0.1 * np.eye(n)])
        values = np.asarray(value(x, np.broadcast_to(b, x.shape), k))
        if np.any(values[1:] < values[0] - 1e-9):
            raise HypothesisCheckError(
                f"custom utility of player {player} is not increasing in opinions"
            )
        _require_midpoint_convex(
            lambda budgets: -value(np.broadcast_to(x[0], budgets.shape), budgets, k),
            0.5 * points,
            f"custom utility of player {player} failed the own-budget concavity midpoint check")


def validate_plans(spec: GameSpec, profile) -> np.ndarray:
    """Check a strategy profile, or a stack of them, against the game; returns
    it clamped at zero.

    A profile is an (m, K, n) array: ``profile[j]`` is player j's open-loop
    plan, whose row k holds its per-individual investments at campaign time
    t_k (the terminal stage invests nothing).  A stack (..., m, K, n) gets
    the same checks on every profile at once.  Raises InfeasiblePlanError
    for a wrong shape, an entry below -FEASIBILITY_TOL or a player spending
    more than its budget plus FEASIBILITY_TOL, and ValueError for non-finite
    entries; the message names the first player with a bad plan and that
    plan's first failed check.  Returns ``np.maximum(profile, 0.0)``, a new
    float array.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.shape[-3:] != (spec.m, spec.K, spec.n):
        raise InfeasiblePlanError(
            f"profile must be shaped ({spec.m}, {spec.K}, {spec.n}), got {profile.shape}"
        )
    clamped = np.maximum(profile, 0.0)
    plans = (-1, spec.m, spec.K * spec.n)
    non_finite = ~np.isfinite(profile).reshape(plans).all(axis=-1)
    negative = profile.reshape(plans).min(axis=-1) < -FEASIBILITY_TOL
    spend = clamped.reshape(plans).sum(axis=-1)
    over_budget = spend > spec.budgets + FEASIBILITY_TOL
    bad = non_finite | negative | over_budget
    if bad.any():
        j = int(np.flatnonzero(bad.any(axis=0))[0])
        row = int(np.flatnonzero(bad[:, j])[0])
        if non_finite[row, j]:
            raise ValueError(f"plan for player {j} has non-finite investments")
        if negative[row, j]:
            raise InfeasiblePlanError(f"plan for player {j} has a negative investment")
        raise InfeasiblePlanError(
            f"player {j} spends {spend[row, j]:.6g} over budget {spec.budgets[j]:.6g}"
        )
    return clamped


def _one_profile(spec: GameSpec, profile) -> np.ndarray:
    """``validate_plans`` for the entry points that take one (m, K, n) profile."""
    profile = validate_plans(spec, profile)
    if profile.ndim != 3:
        raise InfeasiblePlanError(
            f"profile must be shaped ({spec.m}, {spec.K}, {spec.n}), got {profile.shape}"
        )
    return profile


def _columns_pass(spec: GameSpec, own: np.ndarray, totals: np.ndarray,
                  players: slice = slice(None)):
    """Forward pass and adjoint sweep of the opinion columns of ``players``
    (a slice of range(m), every player by default).

    ``totals`` (..., K, n) is every player's investment per individual,
    ``_ordered_total``, and sets the batch; ``own`` holds the p columns'
    plans, (..., p, K, n), with the totals' batch axes or none (one plan
    for every profile).  Other players reach a column solely through the
    totals, whose damping 1/(1 + sigma) scales the multiplayer jump
    (x + b) / (1 + sigma).  In a one-player game the totals are the plan
    itself, and the jump adds them to the opinions and passes its adjoint on
    1:1.  Over the whole stack it refuses, by InfeasiblePlanError, an entry
    below -``FEASIBILITY_TOL`` (a projection of a far point may leave one
    inside an ascent) and an investment over the opinion headroom 1 - x by
    more than ``FEASIBILITY_TOL``, a NaN failing both; it then clips the
    opinions to [0, 1].  Its states come from a validated x0 through
    stochastic propagators, so it checks no opinion.

    The p columns travel as one state, stored stage-major, the batch
    flattened into rows: per stage one product with the gap propagator, one
    jump and, in reverse, one adjoint product, whatever p and the batch.
    The constants come from the per-game bundle ``GameSpec.kernel``.  The
    sweep runs the recursion backwards (reverse mode), so each gradient is
    exact: own investments enter both linearly and through every damping
    denominator.

    Returns views of the columns' pre-jump opinions (..., p, K+1, n),
    post-jump opinions (..., p, K, n), payoffs (..., p) and own-investment
    gradients (..., p, K, n).
    """
    constants = spec.kernel
    K, n, p = spec.K, spec.n, own.shape[-3]
    single = spec.m == 1
    batch = totals.shape[:-2]
    # stage-major views, the batch in one lead axis, if any, after the stage
    if batch:
        lead, axes = (math.prod(batch),), (1, 2, 0, 3)
        own = own.reshape(-1, p, K, n).transpose(2, 0, 1, 3)
        totals = totals.reshape(-1, K, n).transpose(1, 0, 2)
    else:
        lead, axes = (), (1, 0, 2)
        own = own.transpose(1, 0, 2)
    totals = totals[..., None, :]  # (K, [rows,] 1, n), against the columns
    if not single:
        denominators = 1.0 + totals
    pre = np.empty((K + 1,) + lead + (p, n))
    post = np.empty((K,) + lead + (p, n))

    def product(x, matrix, out=None):
        # ndarray.dot: the same BLAS product as @ at a third of the call cost
        if x.ndim == 2:
            return x.dot(matrix, out)
        rows = None if out is None else out.reshape(-1, n)
        return x.reshape(-1, n).dot(matrix, rows).reshape(x.shape)

    state = constants.x0[players]
    if batch:
        state = np.repeat(state[None], lead[0], axis=0)
    for k in range(1, K + 2):
        state = product(state, constants.gaps_transposed[k - 1], pre[k - 1])
        if k <= K:
            if single:  # the additive jump x + b, within the opinion cap
                b = totals[k - 1]
                if not np.min(b) >= -FEASIBILITY_TOL:
                    raise InfeasiblePlanError("negative budget entry in single-player jump")
                excess = np.max(b - (1.0 - state))
                if not excess <= FEASIBILITY_TOL:
                    raise InfeasiblePlanError("infeasible jump: investment exceeds remaining "
                                              f"opinion headroom by {excess:.3e}")
                state = np.clip(state + b, 0.0, 1.0, out=post[k - 1])
            else:
                state = np.divide(state + own[k - 1], denominators[k - 1], out=post[k - 1])

    values, opinion_gradients, budget_gradients = _stage_terms(spec, players, pre, own)
    # summed stage after stage, in the order the recursion visits them
    payoff = values.cumsum(axis=0)[K] / (K + 1)
    if not single:
        damp = 1.0 / denominators
        sensitivity = damp * (1.0 - post)

    gradient = np.empty(post.shape)
    v = opinion_gradients[K]
    for k in range(K, 0, -1):
        w = product(v, constants.gaps[k])
        if single:  # the additive jump passes opinions and investments 1:1
            gradient[k - 1] = w
        else:
            np.multiply(sensitivity[k - 1], w, out=gradient[k - 1])
            w = damp[k - 1] * w
        v = opinion_gradients[k - 1] + w
    gradient += budget_gradients

    # stage-major (S, [rows,] p, n) -> ([rows,] p, S, n)
    arrays = pre.transpose(axes), post.transpose(axes), payoff, gradient.transpose(axes)
    if len(batch) < 2:  # the lead axis, if any, is the batch
        return arrays
    return tuple(array.reshape(batch + array.shape[1:]) for array in arrays)


def _stage_terms(spec: GameSpec, players: slice, pre: np.ndarray, own: np.ndarray):
    """Stage utilities of the columns ``players`` at the kernel's
    stage-major states pre (K+1, [rows,] p, n) and own plans.

    Returns values (K+1, [rows,] p), opinion gradients (K+1, [rows,] p, n)
    and budget gradients (K, [rows,] p, n), both scaled by 1/(K+1); the
    terminal stage invests nothing.  Linear columns are scored at once
    through the game's weights, their state-free gradients cached.  A custom
    utility's callables are called once per stage on the column's slice of
    the kernel's stack: opinions and budgets shaped (n,) for one profile,
    (rows, n) for a batch.
    """
    K = spec.K
    constants = spec.kernel
    weights = constants.rho[:, players]
    if pre.ndim == 4:  # a batch: the weights serve every row
        weights = weights[:, None]
    values = (pre * weights).sum(axis=-1)
    values[:K] -= constants.cost[players] * own.sum(axis=-1)
    custom = [(c, u) for c, u in enumerate(spec.utilities[players]) if not u.is_linear]
    if not custom:
        return (values, constants.opinion_gradient[:, players],
                constants.budget_gradient[players])
    opinion = weights + np.zeros(pre.shape)
    budget = -constants.cost[players, None] + np.zeros(pre[:K].shape)

    own = np.broadcast_to(own, budget.shape)  # one plan may serve every profile
    for c, utility in custom:
        for k in range(1, K + 2):
            x = pre[k - 1, ..., c, :]
            b = own[k - 1, ..., c, :] if k <= K else np.zeros(x.shape)
            values[k - 1, ..., c] = utility.value_fn(x, b, k)
            opinion[k - 1, ..., c, :] = utility.opinion_grad_fn(x, b, k)
            if k <= K:
                budget[k - 1, ..., c, :] = utility.budget_grad_fn(x, b, k)
    scale = 1.0 / (K + 1)
    return values, scale * opinion, scale * budget


def _is_integer(value) -> bool:
    """A count or an index is an integer, and a bool is not one (an int is
    tested first: the ``numbers.Integral`` check costs it half a microsecond)."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def _column(spec: GameSpec, j: int) -> slice:
    """Player j's column as the one-player slice ``_columns_pass`` takes; a
    negative j counts from the last player, a j that is not an integer
    raises ValueError, and one out of range IndexError."""
    if not _is_integer(j):
        raise ValueError(f"player index must be an integer, got {j!r}")
    j = range(spec.m)[j]
    return slice(j, j + 1)


def _objective_for_player(spec: GameSpec, profiles: np.ndarray, j: int):
    """Player j's payoff and gradient as a function of its own flat plan, the
    other players' plans fixed at ``profiles``; the plan is not validated.

    ``profiles`` is one (m, K, n) profile or a batch (..., m, K, n) of them,
    over which one kernel pass sums the payoffs and gradients: the
    hindsight objective of ``regret`` is this sum over the played iterates.
    The pass gets the plan once, without the batch axes, and the totals of
    the substituted profiles, which carry the batch: those before j are
    summed once, and each pass adds the plan and then the players after j,
    in ``_ordered_total``'s order, so the bits are the same.  The batch
    lives in the fixed players' plans, so in a one-player game, where no
    plan is fixed, the objective is the plan's own payoff and gradient.
    """
    profiles = np.asarray(profiles, dtype=float)
    column = _column(spec, j)
    if column.start:
        before = _ordered_total(profiles[..., :column.start, :, :])
    after = [profiles[..., i, :, :] for i in range(column.stop, spec.m)]

    def evaluate(flat: np.ndarray):
        own = flat.reshape(1, spec.K, spec.n)
        totals = before + own[0] if column.start else own[0]  # then after j, in order
        for plan in after:
            totals = totals + plan
        _, _, payoff, gradient = _columns_pass(spec, own, totals, column)
        # summed over the batch in C order, profile after profile
        gradient = np.ascontiguousarray(gradient).reshape(-1, flat.size)
        return float(np.sum(payoff)), gradient.sum(axis=0)

    return evaluate


def _ordered_total(plans: np.ndarray) -> np.ndarray:
    """The (..., q, K, n) plans of q >= 1 players summed in player order, the
    one order of every damping total: ``plans.sum(axis=-3)`` bit for bit
    unless K n = 1, where numpy sums eight or more players pairwise."""
    total = plans[..., 0, :, :]
    for i in range(1, plans.shape[-3]):
        total = total + plans[..., i, :, :]
    return total


def _profile_pass(spec: GameSpec, profile: np.ndarray, players: slice = slice(None)):
    """``_columns_pass`` of the columns ``players`` over whole (..., m, K, n)
    profiles: their own plans and the damping totals ``_ordered_total``."""
    return _columns_pass(spec, profile[..., players, :, :], _ordered_total(profile), players)


def opinions_at_campaigns(spec: GameSpec, profile) -> np.ndarray:
    """Pre-jump opinion states at t_1..t_{K+1}, shaped (K+1, n, m), or
    (..., K+1, n, m) for a stack (..., m, K, n) of profiles.

    Evaluated by the stage recursion: diffuse across each gap, then apply the
    jump for the budgets invested at that campaign."""
    profile = validate_plans(spec, profile)
    return np.moveaxis(_profile_pass(spec, profile)[0], -3, -1)


def simulate_trajectory(spec: GameSpec, profile, sample_times) -> list[TrajectoryPoint]:
    """Sample the hybrid opinion process of the game at sorted times.

    The pre-jump and post-jump states at campaign times come from the
    kernel; a sample inside the gap after t_{k-1} is carried there from the
    post-jump state at t_{k-1} (x0 for k = 1) by exp(-L (t - t_{k-1})), the
    gap's samples sharing stacked ``propagator`` calls of at most
    ``_SAMPLE_BLOCK`` matrix entries each.  A sample landing on a campaign
    time (within relative tolerance 1e-9) produces two records, the pre-jump
    state and then the post-jump state; one on the terminal time produces
    only the pre-jump record.
    """
    times = spec.schedule.times
    samples = np.asarray(sample_times, dtype=float)
    if samples.ndim != 1:
        raise ValueError("sample times must form a flat list")
    if not np.all(np.isfinite(samples)):
        raise ValueError("sample times must be finite")
    if samples.size and np.any(np.diff(samples) < 0):
        raise ValueError("sample times must be sorted")
    if samples.size and (samples[0] < times[0] - 1e-12 or samples[-1] > times[-1] + 1e-12):
        raise ValueError("sample times must lie within the schedule horizon")

    profile = _one_profile(spec, profile)
    pre, post, _, _ = _profile_pass(spec, profile)
    pre = np.moveaxis(pre, 0, -1)
    # leaving[k] is the state that starts the gap after t_k, with t_0's being x0
    leaving = np.concatenate([spec.x0.values[None], np.moveaxis(post, 0, -1)])

    points: list[TrajectoryPoint] = []
    block = max(1, _SAMPLE_BLOCK // spec.n ** 2)  # samples per propagator stack
    si = 0
    for k in range(1, spec.K + 2):
        t_start, t_end = float(times[k - 1]), float(times[k])
        match_tol = 1e-9 * max(1.0, abs(t_end))
        first = si
        while si < samples.size and samples[si] < t_end - match_tol:
            si += 1
        # the horizon check lets a sample sit up to 1e-12 before t_0
        for lo in range(first, si, block):
            inside = samples[lo:min(si, lo + block)]
            flows = propagator(spec.network, np.maximum(inside - t_start, 0.0))
            points.extend(TrajectoryPoint(float(t), OpinionState(flow @ leaving[k - 1]))
                          for t, flow in zip(inside, flows))
        while si < samples.size and samples[si] <= t_end + match_tol:
            points.append(TrajectoryPoint(t_end, OpinionState(pre[k - 1])))
            if k <= spec.K:
                points.append(TrajectoryPoint(t_end, OpinionState(leaving[k]), post_jump=True))
            si += 1
    return points


def total_payoff(spec: GameSpec, profile, j: int):
    """Average of player j's stage utilities over t_1..t_{K+1}: a float for
    one (m, K, n) profile, an array of shape (...) for a stack (..., m, K, n)
    of them, evaluated in one kernel pass."""
    profile = validate_plans(spec, profile)
    payoff = _profile_pass(spec, profile, _column(spec, j))[2][..., 0]
    return float(payoff) if profile.ndim == 3 else payoff


def payoff_gradient(spec: GameSpec, profile, j: int) -> np.ndarray:
    """Exact gradient of total_payoff with respect to player j's own entries,
    shaped like ``profile[..., j, :, :]`` and stored in C order."""
    profile = validate_plans(spec, profile)
    return np.ascontiguousarray(_profile_pass(spec, profile, _column(spec, j))[3][..., 0, :, :])
