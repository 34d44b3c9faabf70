"""Game data model: budget plans, stage utilities, payoffs, and exact payoff gradients.

A game couples a network, a campaign schedule, initial opinions, and one
stage-utility/budget pair per player.  Player j's payoff is the average of its
stage utilities evaluated at the pre-jump campaign-time opinions of its own
opinion column, with the terminal stage charged no investment.

Every payoff, gradient and opinion state comes from one kernel,
``_player_pass``: a forward pass of the stage recursion (diffuse across a gap
by the propagator A_k, then jump) over player j's column, followed by its
reverse-mode sweep for the exact own-investment gradient.  The adjacent-gap
propagators are built once per game and cached on the ``GameSpec``.

Campaign-time opinions also admit a closed form: with damping matrices
D(k) = diag(1 / (1 + total budget on individual i)), the pre-jump state at
t_k is the sum over earlier stages s of (A_k D(k-1) ... A_{s+1} D(s)) B(s),
seeded with D(0) = I and B(0) = x0.  That summation is kept separate from the
kernel as an independent check; the two agree to round-off.
"""

from __future__ import annotations

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
    interval_propagators,
    jump_single,
    _readonly,
)

UTILITY_KINDS = ("linear-favor", "linear-complement", "custom")


@dataclass(frozen=True)
class StageUtility:
    """Per-stage utility u(x, b, k) of one player.

    ``linear-favor`` scores rho(k)'x - lambda 1'b, ``linear-complement``
    scores rho(k)'(1 - x) - lambda 1'b.  Custom utilities supply a value and
    both partial gradients; to participate in a multiplayer game they must
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
        return self.kind in ("linear-favor", "linear-complement")

    # x and b are length-n vectors, or (batch, n) arrays scored row by row.

    def value(self, x: np.ndarray, b: np.ndarray, k: int):
        if self.kind == "linear-favor":
            return x @ self.rho[k - 1] - self.cost_coefficient * b.sum(axis=-1)
        if self.kind == "linear-complement":
            return (1.0 - x) @ self.rho[k - 1] - self.cost_coefficient * b.sum(axis=-1)
        return _rowwise(self.value_fn, x, b, k)

    def opinion_gradient(self, x: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
        if self.kind == "linear-favor":
            return self.rho[k - 1]
        if self.kind == "linear-complement":
            return -self.rho[k - 1]
        return _rowwise(self.opinion_grad_fn, x, b, k)

    def budget_gradient(self, x: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
        if self.is_linear:
            return np.full(x.shape, -self.cost_coefficient)
        return _rowwise(self.budget_grad_fn, x, b, k)


def _rowwise(fn: Callable, x: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Apply a custom per-vector callable to one vector or to each batch row."""
    if x.ndim == 1:
        return np.asarray(fn(x, b, k), dtype=float)
    return np.array([fn(x_row, b_row, k) for x_row, b_row in zip(x, b)], dtype=float)


@dataclass(frozen=True)
class BudgetPlan:
    """One player's K x n investment matrix under a total-budget cap.

    Row k holds the per-individual investments at campaign time t_k; the
    implicit terminal-stage action is zero.
    """

    player: int
    entries: np.ndarray
    budget_cap: float

    def __post_init__(self):
        entries = np.atleast_2d(np.asarray(self.entries, dtype=float))
        if not np.isfinite(entries).all():
            raise ValueError(f"plan for player {self.player} has non-finite investments")
        if entries.min() < -FEASIBILITY_TOL:
            raise InfeasiblePlanError(
                f"plan for player {self.player} has a negative investment"
            )
        entries = np.maximum(entries, 0.0)
        if entries.sum() > self.budget_cap + FEASIBILITY_TOL:
            raise InfeasiblePlanError(
                f"plan for player {self.player} spends {entries.sum():.6g} "
                f"over its cap {self.budget_cap:.6g}"
            )
        object.__setattr__(self, "entries", _readonly(entries))

    @property
    def total_spend(self) -> float:
        return float(self.entries.sum())


@dataclass(frozen=True)
class GameSpec:
    """Immutable description of one game instance.

    The schedule must hold at least one campaign time (K >= 1).  With m >= 2
    players every row of ``x0`` must sum to 1 (within 1e-9): the players'
    opinions of each individual form a distribution, which the constant-sum
    identity and ``jump_multi`` keep along the trajectory.
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
        the game's life (not a field: equality and ``replace`` ignore it)."""
        return tuple(interval_propagators(self.network, self.schedule))


def _check_increasing_convex(utility: StageUtility, n: int, stages: int, player: int):
    """Spot-check a custom utility's declared shape on registration."""
    from .verification import ConvexityProbe, midpoint_convexity_check

    if not utility.declared_increasing_convex:
        raise HypothesisCheckError(
            f"custom utility of player {player} must be declared increasing and "
            "convex in the opinion argument to join a multiplayer game"
        )
    rng = np.random.default_rng(0)
    for k in (1, stages):
        b = rng.random(n) * 0.5
        probe = ConvexityProbe(
            function=lambda x, b=b, k=k: utility.value(x, b, k),
            sampler=lambda r: r.random(n),
            samples=32,
            tolerance=1e-9,
        )
        report = midpoint_convexity_check(probe, seed=7)
        if not report.passed:
            raise HypothesisCheckError(
                f"custom utility of player {player} failed the convexity midpoint "
                f"check (worst violation {report.worst_violation:.3e})",
                report=report,
            )
        x = rng.random(n) * 0.8
        step = 0.1 * np.eye(n)
        base = utility.value(x, b, k)
        for i in range(n):
            if utility.value(x + step[i], b, k) < base - 1e-9:
                raise HypothesisCheckError(
                    f"custom utility of player {player} is not increasing in opinions"
                )


def validate_plans(spec: GameSpec, plans) -> list[BudgetPlan]:
    """Check a joint plan list against the spec; returns it for chaining."""
    plans = list(plans)
    if len(plans) != spec.m:
        raise InfeasiblePlanError(f"expected {spec.m} plans, got {len(plans)}")
    for j, plan in enumerate(plans):
        if plan.player != j:
            raise InfeasiblePlanError(f"plan at position {j} is labeled player {plan.player}")
        if plan.entries.shape != (spec.K, spec.n):
            raise InfeasiblePlanError(
                f"plan for player {j} must be shaped ({spec.K}, {spec.n})"
            )
        if plan.total_spend > spec.budgets[j] + FEASIBILITY_TOL:
            raise InfeasiblePlanError(
                f"player {j} spends {plan.total_spend:.6g} over budget {spec.budgets[j]:.6g}"
            )
    return plans


def plans_from_array(spec: GameSpec, profile: np.ndarray) -> list[BudgetPlan]:
    """Wrap an (m, K, n) array as a validated plan list."""
    profile = np.asarray(profile, dtype=float)
    plans = [
        BudgetPlan(player=j, entries=profile[j], budget_cap=float(spec.budgets[j]))
        for j in range(spec.m)
    ]
    return validate_plans(spec, plans)


def profile_array(plans) -> np.ndarray:
    """Stack a plan list into an (m, K, n) array."""
    return np.stack([plan.entries for plan in plans])


def _stage_matrix(entries: list[np.ndarray], k: int) -> np.ndarray:
    """Joint n x m budget matrix invested at campaign k (1-based)."""
    return np.column_stack([e[k - 1] for e in entries])


def _player_pass(spec: GameSpec, j: int, profile: np.ndarray):
    """Forward pass and adjoint sweep for player j over an (..., m, K, n) profile.

    Only player j's opinion column is carried: the opponents reach it solely
    through the per-individual total investment, whose damping 1/(1 + sigma)
    scales the multiplayer jump (x + b) / (1 + sigma).  A single player
    jumps additively, with ``jump_single``'s headroom check, and cannot be
    batched.  The sweep runs the recursion backwards (reverse mode), so the
    gradient is exact: own investments enter both linearly and through every
    damping denominator they touch.

    Returns player j's pre-jump opinions (..., K+1, n), post-jump opinions
    (..., K, n), payoff (...) and own-investment gradient (..., K, n).
    """
    gaps = spec.gap_propagators
    utility = spec.utilities[j]
    K, n, single = spec.K, spec.n, spec.m == 1
    own = profile[..., j, :, :]
    batch = own.shape[:-2]
    if not single:
        denominators = 1.0 + profile.sum(axis=-3)
    zero = np.zeros(batch + (n,))
    pre = np.empty(batch + (K + 1, n))
    post = np.empty(own.shape)

    state = np.broadcast_to(spec.x0.values[:, j], batch + (n,))
    payoff = 0.0
    for k in range(1, K + 2):
        state = state @ gaps[k - 1].T
        pre[..., k - 1, :] = state
        b_k = own[..., k - 1, :] if k <= K else zero
        payoff = payoff + utility.value(state, b_k, k)
        if k <= K:
            if single:
                state = jump_single(state, b_k)
            else:
                state = (state + b_k) / denominators[..., k - 1, :]
            post[..., k - 1, :] = state
    payoff = payoff / (K + 1)

    scale = 1.0 / (K + 1)
    gradient = np.empty(own.shape)
    v = scale * utility.opinion_gradient(pre[..., K, :], zero, K + 1)
    for k in range(K, 0, -1):
        w = v @ gaps[k]
        x_k, b_k = pre[..., k - 1, :], own[..., k - 1, :]
        if single:
            damp = sensitivity = 1.0
        else:
            damp = 1.0 / denominators[..., k - 1, :]
            sensitivity = damp * (1.0 - post[..., k - 1, :])
        gradient[..., k - 1, :] = scale * utility.budget_gradient(x_k, b_k, k) + sensitivity * w
        v = scale * utility.opinion_gradient(x_k, b_k, k) + damp * w
    return pre, post, payoff, gradient


def _objective_for_player(spec: GameSpec, profile: np.ndarray, j: int):
    """Player j's payoff and gradient as a function of its own flat plan, the
    other players' plans fixed at ``profile``; the plan is not validated."""
    profile = np.array(profile, dtype=float)

    def evaluate(flat: np.ndarray):
        profile[j] = flat.reshape(spec.K, spec.n)
        _, _, payoff, gradient = _player_pass(spec, j, profile)
        return float(payoff), gradient.ravel()

    return evaluate


def opinions_at_campaigns(spec: GameSpec, plans) -> np.ndarray:
    """Pre-jump opinion states at t_1..t_{K+1}, shaped (K+1, n, m).

    Evaluated by the stage recursion: diffuse across each gap, then apply the
    jump for the budgets invested at that campaign."""
    profile = profile_array(validate_plans(spec, plans))
    return np.stack([_player_pass(spec, j, profile)[0] for j in range(spec.m)], axis=-1)


def opinions_at_campaigns_closed_form(spec: GameSpec, plans) -> np.ndarray:
    """Same states via the explicit summation over investment stages.

    Exists as an independent evaluation route; agrees with the recursion to
    round-off.  Single-player games have no damping, so every D(r) is the
    identity there."""
    plans = validate_plans(spec, plans)
    entries = [plan.entries for plan in plans]
    gaps = spec.gap_propagators
    K, n, m = spec.K, spec.n, spec.m

    def damping_diag(r: int) -> np.ndarray:
        if r == 0 or m == 1:
            return np.ones(n)
        return 1.0 / (1.0 + _stage_matrix(entries, r).sum(axis=1))

    out = np.zeros((K + 1, n, m))
    for k in range(1, K + 2):
        total = np.zeros((n, m))
        for s in range(0, k):
            block = _stage_matrix(entries, s) if s >= 1 else np.array(spec.x0.values)
            # apply A_{r+1} D(r) factors from the inside out, leftmost last
            term = damping_diag(s)[:, None] * block
            for r in range(s, k):
                term = gaps[r] @ term
                if r + 1 < k:
                    term = damping_diag(r + 1)[:, None] * term
            total += term
        out[k - 1] = total
    return out


def total_payoff(spec: GameSpec, plans, j: int) -> float:
    """Average of player j's stage utilities over t_1..t_{K+1}."""
    profile = profile_array(validate_plans(spec, plans))
    return float(_player_pass(spec, j, profile)[2])


def payoff_gradient(spec: GameSpec, plans, j: int) -> np.ndarray:
    """Exact gradient of total_payoff with respect to player j's own entries."""
    profile = profile_array(validate_plans(spec, plans))
    return _player_pass(spec, j, profile)[3]
