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
into one read-only bundle, ``GameSpec.kernel``.
``simulate_trajectory`` samples the hybrid process from the kernel's
campaign-time states, carrying each state into the gap that follows it,
and returns its records as three arrays: times, stacked states and
post-jump flags.

Every stage utility is linear, rho(k)'x - lambda 1'b: the utility of the
paper's example and of the one scenario kind, ``linear-favor``.  So the
kernel's stage terms are the bundle's constants, and every game has the
shape the solvers rely on by construction.  The package reproduces the
paper's claims for this family only.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasiblePlanError
from .opinion_dynamics import (
    CampaignSchedule,
    Network,
    OpinionState,
    interval_propagators,
    propagator,
    _finite,
    _one_number,
    _readonly,
    _real,
)

# Slack of every plan check: ``validate_plans``' signs and budgets, the
# one-player jump's headroom, ``FeasibleRegion.contains`` and the grid
# oracles' caps (absorbs projection round-off).
FEASIBILITY_TOL = 1e-9

# Bound on (sum(rho) + lambda) / (K + 1), which bounds a utility's payoff
# gradient entries.  No solver steps further than 1e6 along a gradient
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
    """Per-stage utility u(x, b, k) = rho(k)'x - lambda 1'b of one player,
    lambda the ``cost_coefficient``.

    The game kernel reads the weights ``rho`` from the game's stack in the
    bundle ``GameSpec.kernel``.  The weights and the cost coefficient pass
    ``_finite``, the package's gate for finite real numbers (a bool, a
    string or a complex number is not one); the weights must be
    nonnegative, and the cost one nonnegative number (``_one_number``).
    """

    rho: np.ndarray
    cost_coefficient: float = 0.0

    def __post_init__(self):
        cost = _one_number(self.cost_coefficient, "cost coefficient", _finite)
        if cost < 0:
            raise ValueError("cost coefficient must be nonnegative")
        object.__setattr__(self, "cost_coefficient", cost)
        rho = np.atleast_2d(_finite(self.rho, "stage weights rho"))
        if np.any(rho < 0):
            raise ValueError("stage weights rho must be nonnegative")
        object.__setattr__(self, "rho", _readonly(rho))


_KernelConstants = namedtuple(  # see GameSpec.kernel
    "_KernelConstants", "rho cost opinion_gradient budget_gradient x0 gaps gaps_transposed")


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Immutable description of one game instance.

    The schedule must hold at least one campaign time (K >= 1) and the
    opinions at least one player's column (m >= 1).  With m >= 2 players
    every row of ``x0`` must sum to 1 (within 1e-9): the players'
    opinions of each individual form a distribution, which the constant-sum
    identity and the normalized jump keep along the trajectory.  Each
    utility must be a ``StageUtility`` whose weights supply all K + 1 stages
    and keep (sum(rho) + lambda) / (K + 1) at most ``_MAX_GRADIENT``, 1e288,
    so that no solver step overflows.  The budgets are a flat vector of m
    nonnegative entries that pass ``_finite``, the package's gate for finite
    real numbers.
    """

    network: Network
    schedule: CampaignSchedule
    x0: OpinionState
    budgets: np.ndarray
    utilities: tuple[StageUtility, ...]

    def __post_init__(self):
        object.__setattr__(self, "budgets",
                           _readonly(np.atleast_1d(_finite(self.budgets, "budgets"))))
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
        if np.any(self.budgets < 0):
            raise ValueError("budgets must be nonnegative")
        stages = self.schedule.K + 1
        for j, utility in enumerate(self.utilities):
            if not isinstance(utility, StageUtility):
                raise ValueError(f"utility of player {j} must be a StageUtility, "
                                 f"got {type(utility).__name__}")
            if utility.rho.shape != (stages, self.network.n):
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
        without it): the utilities' stage-major (K+1, m, n) weights rho and
        (m,) costs lambda, their gradients rho / (K+1) and -lambda / (K+1)
        (m, 1), x0 as (m, n) columns, and the adjacent-gap propagators, one
        ``propagator`` call per gap, with their transposes.  Building it runs
        the propagators' stochasticity gate."""
        rho = np.stack([utility.rho for utility in self.utilities], axis=1)
        cost = np.array([utility.cost_coefficient for utility in self.utilities])
        scale = 1.0 / (self.K + 1)
        x0 = np.ascontiguousarray(self.x0.values.T) + 0.0  # a -0.0 opinion becomes 0.0
        arrays = map(_readonly, (rho, cost, scale * rho, scale * -cost[:, None], x0))
        gaps = tuple(interval_propagators(self.network, self.schedule))
        return _KernelConstants(*arrays, gaps, tuple(gap.T for gap in gaps))


def validate_plans(spec: GameSpec, profile) -> np.ndarray:
    """Check a strategy profile, or a stack of them, against the game; returns
    it clamped at zero.

    A profile is an (m, K, n) array: ``profile[j]`` is player j's open-loop
    plan, whose row k holds its per-individual investments at campaign time
    t_k (the terminal stage invests nothing).  A stack (..., m, K, n) gets
    the same checks on every profile at once.  Entries that are not real
    numbers raise ValueError from the package's gate, ``_real``.  Raises
    InfeasiblePlanError for a wrong shape, an entry below -FEASIBILITY_TOL
    or a player spending more than its budget plus FEASIBILITY_TOL, and
    ValueError for non-finite entries; the message names the first player
    with a bad plan and that plan's first failed check.  Returns
    ``np.maximum(profile, 0.0)``, a new float array.
    """
    profile = _real(profile, "plans")
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
    The constants come from the per-game bundle ``GameSpec.kernel``, the
    linear utilities' state-free gradients among them, and so do the sizes
    K + 1, m and n, the shape of its weights.  The sweep runs the recursion
    backwards (reverse mode), so each gradient is exact: own investments
    enter both linearly and through every damping denominator.  A
    multiplayer sweep multiplies the jump's sensitivities (1 - x+) / (1 +
    sigma), x+ the post-jump opinions, by the adjoints in place, stage by
    stage, so that they become the gradients.

    Returns views of the columns' pre-jump opinions (..., p, K+1, n),
    post-jump opinions (..., p, K, n), payoffs (..., p) and own-investment
    gradients (..., p, K, n).
    """
    constants = spec.kernel
    stages, m, n = constants.rho.shape
    K, p = stages - 1, own.shape[-3]
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
    if m > 1:
        denominators = 1.0 + totals
    pre = np.empty((stages,) + lead + (p, n))
    post = np.empty((K,) + lead + (p, n))

    # The products use ndarray.dot, the same BLAS product as @ at a third of
    # the call cost: on a one-profile pass's (p, n) states directly, on a
    # batched pass's states reshaped to rows.
    state = constants.x0[players]
    if batch:
        state = np.repeat(state[None], lead[0], axis=0)
    for k in range(1, stages + 1):
        if batch:
            state.reshape(-1, n).dot(constants.gaps_transposed[k - 1], pre[k - 1].reshape(-1, n))
            state = pre[k - 1]
        else:
            state = state.dot(constants.gaps_transposed[k - 1], pre[k - 1])
        if k <= K:
            if m == 1:  # the additive jump x + b, within the opinion cap
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

    # the stage utilities rho(k)'x - lambda 1'b
    weights = constants.rho[:, players]
    if batch:  # the weights serve every row
        weights = weights[:, None]
    values = (pre * weights).sum(axis=-1)
    values[:K] -= constants.cost[players] * own.sum(axis=-1)
    # summed stage after stage, in the order the recursion visits them
    payoff = values.cumsum(axis=0)[K] / (K + 1)
    opinion_gradients = constants.opinion_gradient[:, players]
    if m == 1:
        gradient = np.empty(post.shape)
    else:  # the jump's sensitivities, times the adjoints stage by stage
        damp = 1.0 / denominators
        gradient = damp * (1.0 - post)

    v = opinion_gradients[K]
    for k in range(K, 0, -1):
        gap = constants.gaps[k]
        w = v.reshape(-1, n).dot(gap).reshape(v.shape) if batch else v.dot(gap)
        if m == 1:  # the additive jump passes opinions and investments 1:1
            gradient[k - 1] = w
        else:
            gradient[k - 1] *= w
            w = damp[k - 1] * w
        v = opinion_gradients[k - 1] + w
    gradient += constants.budget_gradient[players]

    # stage-major (S, [rows,] p, n) -> ([rows,] p, S, n)
    arrays = pre.transpose(axes), post.transpose(axes), payoff, gradient.transpose(axes)
    if len(batch) < 2:  # the lead axis, if any, is the batch
        return arrays
    return tuple(array.reshape(batch + array.shape[1:]) for array in arrays)


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


def simulate_trajectory(spec: GameSpec, profile, sample_times) -> tuple:
    """Sample the hybrid opinion process of the game at sorted times, as
    read-only arrays ``(times, states, post_jump)`` shaped (R,), (R, n, m)
    and (R,), the last of bools marking the post-jump records.

    The pre-jump and post-jump states at campaign times come from the
    kernel; a sample inside the gap after t_{k-1} is carried there from the
    post-jump state at t_{k-1} (x0 for k = 1) by exp(-L (t - t_{k-1})), one
    product per stacked ``propagator`` call of at most ``_SAMPLE_BLOCK``
    matrix entries.  A sample landing on a campaign time t_k, within
    1e-9 max(1, |t_k|) of it and at most a quarter of the way to the
    schedule time next to it on its side, produces two records stamped t_k,
    the pre-jump state and then the post-jump state; one on the terminal
    time produces only the pre-jump record.  One clip to [0, 1] over the
    stack removes round-off.
    """
    times = spec.schedule.times
    samples = _finite(sample_times, "sample times")
    if samples.ndim != 1:
        raise ValueError("sample times must form a flat list")
    if samples.size and np.any(np.diff(samples) < 0):
        raise ValueError("sample times must be sorted")
    if samples.size and (samples[0] < times[0] - 1e-12 or samples[-1] > times[-1] + 1e-12):
        raise ValueError("sample times must lie within the schedule horizon")

    profile = _one_profile(spec, profile)
    pre, post, _, _ = _profile_pass(spec, profile)
    pre = np.moveaxis(pre, 0, -1)
    # leaving[k] is the state that starts the gap after t_k, with t_0's being x0
    leaving = np.concatenate([spec.x0.values[None], np.moveaxis(post, 0, -1)])

    pieces = []  # the records' times, states and post-jump flags, gap by gap
    block = max(1, _SAMPLE_BLOCK // spec.n ** 2)  # samples per propagator stack
    quarters = np.append(np.diff(times), np.inf) / 4  # a quarter of the gap after each t_k
    si = 0
    for k in range(1, spec.K + 2):
        t_start, t_end = float(times[k - 1]), float(times[k])
        # t_k's matching window, each side within a quarter of the gap there
        before, after = np.minimum(1e-9 * max(1.0, abs(t_end)), quarters[k - 1 : k + 1])
        gap_end = max(si, int(np.searchsorted(samples, t_end - before)))
        # the horizon check lets a sample sit up to 1e-12 before t_0
        for lo in range(si, gap_end, block):
            inside = samples[lo:min(gap_end, lo + block)]
            flows = propagator(spec.network, np.maximum(inside - t_start, 0.0))
            pieces.append((inside, flows @ leaving[k - 1], np.zeros(inside.size, bool)))
        si = max(gap_end, int(np.searchsorted(samples, t_end + after, "right")))
        matched = si - gap_end  # samples on t_k, each giving the records of jump
        jump = (pre[k - 1], leaving[k]) if k <= spec.K else (pre[k - 1],)
        pieces.append((np.full(matched * len(jump), t_end), np.tile(jump, (matched, 1, 1)),
                       np.tile((False, True)[:len(jump)], matched)))
    record_times, states, post_jump = map(np.concatenate, zip(*pieces))
    trajectory = record_times, np.clip(states, 0.0, 1.0), post_jump
    for array in trajectory:
        array.flags.writeable = False
    return trajectory


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
