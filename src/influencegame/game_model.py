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
gap by the propagator A_k, then jump) that carries a set of players' opinion
columns as one state, followed by its reverse-mode sweep for each column's
exact own-investment gradient.  The learning dynamics pass every column at
once; a payoff, gradient or best-response objective of one player passes
that player's column.  What the kernel reads of the game (the gap
propagators and their transposes, x0's columns, the linear utilities'
weights and scaled gradients) is built once per game and cached read-only
on the ``GameSpec``.  ``simulate_trajectory`` samples the hybrid process
from the kernel's campaign-time states, carrying each state into the gap
that follows it.

Campaign-time opinions also admit a closed form: with damping matrices
D(k) = diag(1 / (1 + total budget on individual i)), the pre-jump state at
t_k is the sum over earlier stages s of (A_k D(k-1) ... A_{s+1} D(s)) B(s),
seeded with D(0) = I and B(0) = x0.  That summation is kept separate from the
kernel as an independent check; the two agree to round-off.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import HypothesisCheckError, InfeasiblePlanError
from .opinion_dynamics import (
    FEASIBILITY_TOL,
    CampaignSchedule,
    Network,
    OpinionState,
    TrajectoryPoint,
    interval_propagators,
    jump_single,
    propagator,
    _readonly,
)

UTILITY_KINDS = ("linear-favor", "custom")

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


@dataclass(frozen=True, eq=False)
class StageUtility:
    """Per-stage utility u(x, b, k) of one player.

    ``linear-favor`` scores rho(k)'x - lambda 1'b; the game kernel reads its
    weights from the game's stack, ``GameSpec.linear_weights``.  Custom
    utilities supply a value and both partial gradients as callables of one
    length-n opinion vector x, budget vector b and stage k, which the kernel
    applies column by column; to participate in a multiplayer game they must
    additionally be declared increasing and convex in the opinion argument,
    and to act as a best-response objective, concave in the own budget.
    """

    kind: str
    rho: np.ndarray | None = None
    cost_coefficient: float = 0.0
    value_fn: Callable | None = None
    opinion_grad_fn: Callable | None = None
    budget_grad_fn: Callable | None = None
    declared_increasing_convex: bool = False
    declared_own_concave: bool = False

    def __post_init__(self):
        if self.kind not in UTILITY_KINDS:
            raise ValueError(f"unknown stage-utility kind {self.kind!r}")
        if not np.isfinite(self.cost_coefficient):
            raise ValueError("cost coefficient must be finite")
        if self.cost_coefficient < 0:
            raise ValueError("cost coefficient must be nonnegative")
        if self.kind == "custom":
            if not (self.value_fn and self.opinion_grad_fn and self.budget_grad_fn):
                raise ValueError("custom utilities need value, opinion-gradient and "
                                 "budget-gradient callables")
        else:
            if self.rho is None:
                raise ValueError("linear utilities need per-stage weights rho")
            rho = np.atleast_2d(np.asarray(self.rho, dtype=float))
            if not np.all(np.isfinite(rho)):
                raise ValueError("stage weights rho must be finite")
            if np.any(rho < 0):
                raise ValueError("stage weights rho must be nonnegative")
            object.__setattr__(self, "rho", _readonly(rho))

    @property
    def is_linear(self) -> bool:
        return self.kind == "linear-favor"


def _rowwise(fn: Callable, x: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Apply a custom utility's per-vector callable fn(x, b, k) to one
    length-n vector or to each row of a (batch, n) array."""
    if x.ndim == 1:
        return np.asarray(fn(x, b, k), dtype=float)
    return np.array([fn(x_row, b_row, k) for x_row, b_row in zip(x, b)], dtype=float)


_KernelConstants = namedtuple(  # see GameSpec.linear_weights
    "_KernelConstants", "rho cost opinion_gradient budget_gradient x0 gaps_transposed")


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Immutable description of one game instance.

    The schedule must hold at least one campaign time (K >= 1).  With m >= 2
    players every row of ``x0`` must sum to 1 (within 1e-9): the players'
    opinions of each individual form a distribution, which the constant-sum
    identity and the normalized jump keep along the trajectory.  A linear
    utility's weights must keep (sum(rho) + lambda) / (K + 1) at most
    ``_MAX_GRADIENT``, 1e288, so that no solver step overflows.
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
        if len(self.budgets) != m or len(self.utilities) != m:
            raise ValueError("budgets, utilities and opinion columns must all count m")
        if m >= 2 and np.max(np.abs(self.x0.values.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("initial opinions of each individual must sum to 1 across players")
        if not np.all(np.isfinite(self.budgets)):
            raise ValueError("budgets must be finite")
        if np.any(self.budgets < 0):
            raise ValueError("budgets must be nonnegative")
        stages = self.schedule.K + 1
        for utility in self.utilities:
            if utility.is_linear and utility.rho.shape != (stages, self.network.n):
                raise ValueError(
                    f"rho must supply all {stages} stages for {self.network.n} individuals"
                )
            # scaled before summing, so that the sum cannot overflow
            if utility.is_linear and (np.sum(utility.rho / _MAX_GRADIENT)
                                      + utility.cost_coefficient / _MAX_GRADIENT) > stages:
                raise ValueError(f"(sum(rho) + lambda) / (K + 1) above {_MAX_GRADIENT:g}: "
                                 "a solver step may overflow")
        if m >= 2:
            for j, utility in enumerate(self.utilities):
                if utility.kind == "custom":
                    _check_increasing_convex(utility, self.network.n, stages, player=j)

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
    def gap_propagators(self) -> tuple[np.ndarray, ...]:
        """Read-only adjacent-gap propagators, built on first use and kept for
        the game's life (not a field: ``replace`` returns a game without them)."""
        return tuple(interval_propagators(self.network, self.schedule))

    @cached_property
    def linear_weights(self) -> _KernelConstants:
        """Read-only kernel constants, built on first use like ``gap_propagators``:
        the linear utilities' (m, K+1, n) weights rho and (m, 1) costs lambda
        (zero for custom utilities), their gradients rho / (K+1) and
        -lambda / (K+1) (m, 1, 1), x0 as (m, n) columns and the transposed gaps."""
        rho = np.zeros((self.m, self.K + 1, self.n))
        cost = np.zeros((self.m, 1))
        for j, utility in enumerate(self.utilities):
            if utility.is_linear:
                rho[j], cost[j] = utility.rho, utility.cost_coefficient
        scale = 1.0 / (self.K + 1)
        x0 = np.ascontiguousarray(self.x0.values.T) + 0.0  # a -0.0 opinion becomes 0.0
        arrays = map(_readonly, (rho, cost, scale * rho, scale * -cost[:, :, None], x0))
        return _KernelConstants(*arrays, tuple(gap.T for gap in self.gap_propagators))


def _require_midpoint_convex(function: Callable, sampler: Callable, samples: int,
                             seed: int, message: str):
    """Midpoint-convexity spot check by ``midpoint_convexity_check``; a failure
    raises HypothesisCheckError carrying the report, after ``message``."""
    from .verification import ConvexityProbe, midpoint_convexity_check

    probe = ConvexityProbe(function=function, sampler=sampler, samples=samples)
    report = midpoint_convexity_check(probe, seed=seed)
    if not report.passed:
        raise HypothesisCheckError(
            f"{message} (worst violation {report.worst_violation:.3e})", report=report)


def _check_increasing_convex(utility: StageUtility, n: int, stages: int, player: int):
    """Spot-check a custom utility's declared shape on registration."""
    if not utility.declared_increasing_convex:
        raise HypothesisCheckError(
            f"custom utility of player {player} must be declared increasing and "
            "convex in the opinion argument to join a multiplayer game"
        )
    rng = np.random.default_rng(0)
    for k in (1, stages):
        b = rng.random(n) * 0.5
        _require_midpoint_convex(
            lambda x, b=b, k=k: _rowwise(utility.value_fn, x, np.broadcast_to(b, x.shape), k),
            lambda r: r.random(n), samples=32, seed=7,
            message=f"custom utility of player {player} failed the convexity midpoint check")
        # the point itself, then one step of 0.1 up each opinion, in one stack
        x = rng.random(n) * 0.8 + np.vstack([np.zeros(n), 0.1 * np.eye(n)])
        values = _rowwise(utility.value_fn, x, np.broadcast_to(b, x.shape), k)
        if np.any(values[1:] < values[0] - 1e-9):
            raise HypothesisCheckError(
                f"custom utility of player {player} is not increasing in opinions"
            )


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


def _columns_pass(spec: GameSpec, profile: np.ndarray, players: slice = slice(None)):
    """Forward pass and adjoint sweep of the opinion columns of ``players``
    (a slice of range(m), every player by default) over an (..., m, K, n)
    profile or stack of profiles.

    The p selected columns travel as one (..., p, n) state: per stage one
    product with the gap propagator, one jump and, in reverse, one adjoint
    product, whatever p and the stack.  x0's columns, the transposed
    propagators and the linear gradients come from the per-game cache
    ``GameSpec.linear_weights``; only a stack is reshaped for a product.
    Other players reach a column solely through the per-individual total
    investment, whose damping 1/(1 + sigma) scales the multiplayer jump
    (x + b) / (1 + sigma).  A single player jumps additively, with
    ``jump_single``'s headroom check over the whole stack.  The sweep runs
    the recursion backwards (reverse mode), so each gradient is exact: own
    investments enter both linearly and through every damping denominator.

    Returns the columns' pre-jump opinions (..., p, K+1, n), post-jump
    opinions (..., p, K, n), payoffs (..., p) and own-investment gradients
    (..., p, K, n).
    """
    constants, gaps = spec.linear_weights, spec.gap_propagators
    K, n, single = spec.K, spec.n, spec.m == 1
    own = profile[..., players, :, :]
    if not single:
        # (..., 1, K, n): every column of a profile shares its damping
        denominators = 1.0 + profile.sum(axis=-3)[..., None, :, :]
    pre = np.empty(own.shape[:-2] + (K + 1, n))
    post = np.empty(own.shape)

    def product(x, matrix):
        # ndarray.dot: the same BLAS product as @ at a third of the call cost
        return x.dot(matrix) if x.ndim == 2 else x.reshape(-1, n).dot(matrix).reshape(x.shape)

    state = constants.x0[players]
    if own.ndim > 3:
        state = state + np.zeros(own.shape[:-2] + (n,))
    for k in range(1, K + 2):
        state = product(state, constants.gaps_transposed[k - 1])
        pre[..., k - 1, :] = state
        if k <= K:
            b_k = own[..., k - 1, :]
            if single:
                state = jump_single(state, b_k)
            else:
                state = (state + b_k) / denominators[..., k - 1, :]
            post[..., k - 1, :] = state

    values, opinion_gradients, budget_gradients = _stage_terms(spec, players, pre, own)
    # summed stage after stage, in the order the recursion visits them
    payoff = values.cumsum(axis=-1)[..., K] / (K + 1)
    if not single:
        damp = 1.0 / denominators
        sensitivity = damp * (1.0 - post)

    gradient = np.empty(own.shape)
    v = opinion_gradients[..., K, :]
    for k in range(K, 0, -1):
        w = product(v, gaps[k])
        # the additive single-player jump passes opinions and investments 1:1
        gradient[..., k - 1, :] = w if single else sensitivity[..., k - 1, :] * w
        v = opinion_gradients[..., k - 1, :] + (w if single else damp[..., k - 1, :] * w)
    gradient += budget_gradients
    return pre, post, payoff, gradient


def _stage_terms(spec: GameSpec, players: slice, pre: np.ndarray, own: np.ndarray):
    """Stage utilities of the columns ``players`` at the kernel's states.

    Returns values (..., p, K+1), opinion gradients (..., p, K+1, n) and
    budget gradients (..., p, K, n), both scaled by 1/(K+1); the terminal
    stage invests nothing.  Linear columns are scored at once through the
    game's weights; their gradients do not depend on the state and come
    cached as (p, K+1, n) and (p, 1, 1) arrays that broadcast over the stack.
    Custom utilities apply their callables column by column.
    """
    K = spec.K
    constants = spec.linear_weights
    values = (pre * constants.rho[players]).sum(axis=-1)
    values[..., :K] -= constants.cost[players] * own.sum(axis=-1)
    custom = [(c, u) for c, u in enumerate(spec.utilities[players]) if not u.is_linear]
    if not custom:
        return values, constants.opinion_gradient[players], constants.budget_gradient[players]
    opinion = constants.rho[players] + np.zeros(pre.shape)
    budget = -constants.cost[players, :, None] + np.zeros(own.shape)
    for c, utility in custom:
        for k in range(1, K + 2):
            x = pre[..., c, k - 1, :]
            b = own[..., c, k - 1, :] if k <= K else np.zeros(x.shape)
            values[..., c, k - 1] = _rowwise(utility.value_fn, x, b, k)
            opinion[..., c, k - 1, :] = _rowwise(utility.opinion_grad_fn, x, b, k)
            if k <= K:
                budget[..., c, k - 1, :] = _rowwise(utility.budget_grad_fn, x, b, k)
    scale = 1.0 / (K + 1)
    return values, scale * opinion, scale * budget


def _column(spec: GameSpec, j: int) -> slice:
    """Player j's opinion column as the one-player slice ``_columns_pass`` takes."""
    j = range(spec.m)[j]
    return slice(j, j + 1)


def _objective_for_player(spec: GameSpec, profiles: np.ndarray, j: int):
    """Player j's payoff and gradient as a function of its own flat plan, the
    other players' plans fixed at ``profiles``; the plan is not validated.

    ``profiles`` is one (m, K, n) profile or a batch (..., m, K, n) of them.
    The own plan is substituted into every profile and the payoffs and
    gradients are summed over the batch in one kernel pass: the hindsight
    objective of ``regret`` is this sum over the played iterates.
    """
    profiles = np.array(profiles, dtype=float)
    column = _column(spec, j)

    def evaluate(flat: np.ndarray):
        profiles[..., j, :, :] = flat.reshape(spec.K, spec.n)
        _, _, payoff, gradient = _columns_pass(spec, profiles, column)
        return float(np.sum(payoff)), gradient.reshape(-1, flat.size).sum(axis=0)

    return evaluate


def opinions_at_campaigns(spec: GameSpec, profile) -> np.ndarray:
    """Pre-jump opinion states at t_1..t_{K+1}, shaped (K+1, n, m), or
    (..., K+1, n, m) for a stack (..., m, K, n) of profiles.

    Evaluated by the stage recursion: diffuse across each gap, then apply the
    jump for the budgets invested at that campaign."""
    profile = validate_plans(spec, profile)
    return np.moveaxis(_columns_pass(spec, profile)[0], -3, -1)


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
    pre, post, _, _ = _columns_pass(spec, profile)
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


def opinions_at_campaigns_closed_form(spec: GameSpec, profile) -> np.ndarray:
    """Same states via the explicit summation over investment stages.

    Exists as an independent evaluation route; agrees with the recursion to
    round-off.  Single-player games have no damping, so every D(r) is the
    identity there."""
    profile = _one_profile(spec, profile)
    gaps = spec.gap_propagators
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


def total_payoff(spec: GameSpec, profile, j: int):
    """Average of player j's stage utilities over t_1..t_{K+1}: a float for
    one (m, K, n) profile, an array of shape (...) for a stack (..., m, K, n)
    of them, evaluated in one kernel pass."""
    profile = validate_plans(spec, profile)
    payoff = _columns_pass(spec, profile, _column(spec, j))[2][..., 0]
    return float(payoff) if profile.ndim == 3 else payoff


def payoff_gradient(spec: GameSpec, profile, j: int) -> np.ndarray:
    """Exact gradient of total_payoff with respect to player j's own entries,
    shaped like ``profile[..., j, :, :]``."""
    profile = validate_plans(spec, profile)
    return _columns_pass(spec, profile, _column(spec, j))[3][..., 0, :, :]
