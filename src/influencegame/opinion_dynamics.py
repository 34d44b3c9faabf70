"""Opinion flow on a social network: smooth averaging drift punctuated by budget jumps.

The network carries a row-stochastic weight matrix A and Laplacian L = I - A.
Between campaign times opinions follow the continuous averaging dynamics
x'(t) = -L x(t), so carrying opinions across a gap of length dt amounts to
multiplying by the propagator exp(-L dt), which is itself row-stochastic.
At a campaign time each player's budget allocation moves opinions
discontinuously: additively when there is a single player, normalized across
players otherwise so that each individual's opinion row stays in the simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePlanError

# Slack allowed when checking jump feasibility (absorbs projection round-off).
FEASIBILITY_TOL = 1e-9

_ROW_SUM_TOL = 1e-10
_NEGATIVITY_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Network:
    """Weighted social graph with row-stochastic adjacency and Laplacian L = I - A."""

    n: int
    adjacency: np.ndarray
    laplacian: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "adjacency", _readonly(self.adjacency))
        object.__setattr__(self, "laplacian", _readonly(self.laplacian))
        a, lap = self.adjacency, self.laplacian
        if a.shape != (self.n, self.n) or lap.shape != (self.n, self.n):
            raise ValueError("adjacency and laplacian must be n x n")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(lap))):
            raise ValueError("network weights must be finite")
        if np.any(a < 0):
            raise ValueError("adjacency entries must be nonnegative")
        if np.max(np.abs(a.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("adjacency rows must sum to 1")
        if np.max(np.abs(lap.sum(axis=1))) > 1e-12:
            raise ValueError("laplacian rows must sum to 0")


@dataclass(frozen=True)
class CampaignSchedule:
    """Ordered times t_0 < t_1 < ... < t_K < t_{K+1} bracketing the K campaigns."""

    times: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _readonly(np.atleast_1d(self.times)))
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("schedule needs at least initial and terminal times")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("schedule times must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("schedule times must be strictly increasing")

    @property
    def K(self) -> int:
        return self.times.size - 2

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def tf(self) -> float:
        return float(self.times[-1])

    def gap(self, k: int) -> float:
        """Length of the interval (t_{k-1}, t_k], for k = 1..K+1."""
        return float(self.times[k] - self.times[k - 1])


@dataclass(frozen=True)
class OpinionState:
    """Opinion matrix: entry (i, j) is individual i's opinion of player j, in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise ValueError("opinions must form an n x m matrix")
        if not np.all(np.isfinite(v)):
            raise ValueError("opinions must be finite")
        if np.any(v < -1e-10) or np.any(v > 1 + 1e-10):
            raise ValueError("opinions must lie in [0, 1]")
        object.__setattr__(self, "values", _readonly(np.clip(v, 0.0, 1.0)))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Propagator:
    """Row-stochastic flow matrix exp(-L dt) for one campaign-free interval."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(self.matrix))
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("propagator must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("propagator has non-finite entries")
        if np.max(np.abs(m.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
            raise ValueError("propagator rows must sum to 1")
        if np.min(m) < -_NEGATIVITY_TOL:
            raise ValueError("propagator entries must be nonnegative")


def build_network(adjacency) -> Network:
    """Normalize a nonnegative weight matrix into a Network.

    Rows are rescaled to sum to 1, so arbitrary weighted graphs are accepted;
    a row of all zeros (an individual listening to nobody) is rejected.
    """
    a = np.asarray(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if np.any(a < 0):
        raise ValueError("adjacency entries must be nonnegative")
    row_sums = a.sum(axis=1)
    if np.any(row_sums <= 0):
        raise ValueError("every adjacency row needs positive total weight")
    a = a / row_sums[:, None]
    n = a.shape[0]
    return Network(n=n, adjacency=a, laplacian=np.eye(n) - a)


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling-and-squaring of a fixed-degree truncated series.

    The input is scaled by 2**-s until its infinity norm is at most 1/2,
    where a degree-13 series evaluated by Horner's rule has relative
    truncation error below 1e-15, then squared s times.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    norm = np.linalg.norm(a, np.inf)
    squarings = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    scaled = a / (2.0 ** squarings)
    eye = np.eye(n)
    result = eye.copy()
    for k in range(13, 0, -1):
        result = eye + (scaled @ result) / k
    for _ in range(squarings):
        result = result @ result
    return result


def propagator(network: Network, dt: float) -> Propagator:
    """Flow matrix exp(-L dt) carrying opinions across a campaign-free gap."""
    if dt < 0:
        raise ValueError("propagation time must be nonnegative")
    matrix = matrix_exponential(-network.laplacian * dt)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("propagator computation produced non-finite entries")
    return Propagator(matrix=matrix)


def interval_propagators(network: Network, schedule: CampaignSchedule) -> list[np.ndarray]:
    """Adjacent-gap propagators: entry k-1 carries opinions from t_{k-1}^+ to t_k."""
    return [
        propagator(network, schedule.gap(k)).matrix
        for k in range(1, schedule.K + 2)
    ]


def jump_single(x: np.ndarray, b: np.ndarray, tol: float = FEASIBILITY_TOL) -> np.ndarray:
    """Additive single-player jump x + b, requiring b <= 1 - x componentwise."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if x.shape != b.shape:
        raise ValueError("opinion and budget vectors must have matching shape")
    if np.min(b) < -tol:
        raise InfeasiblePlanError("negative budget entry in single-player jump")
    excess = np.max(b - (1.0 - x))
    if excess > tol:
        raise InfeasiblePlanError(
            f"infeasible jump: investment exceeds remaining opinion headroom by {excess:.3e}"
        )
    return np.clip(x + b, 0.0, 1.0)


def jump_multi(x: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Normalized multiplayer jump: entry (i, j) becomes (x_ij + b_ij) / (1 + sum_l b_il).

    Rows that start on the probability simplex stay on it.
    """
    x = np.asarray(x, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    if x.shape != budgets.shape:
        raise ValueError("opinion and budget matrices must have matching shape")
    if np.min(budgets) < -1e-12:
        raise InfeasiblePlanError("negative budget entry in multiplayer jump")
    denom = 1.0 + np.maximum(budgets, 0.0).sum(axis=1)
    return (x + np.maximum(budgets, 0.0)) / denom[:, None]


@dataclass(frozen=True)
class TrajectoryPoint:
    """One sampled opinion state; ``post_jump`` marks the record taken just after
    a campaign-time jump (a campaign-time sample yields a pre and a post record)."""

    time: float
    state: OpinionState
    post_jump: bool = False


def _plan_entries(plans) -> list[np.ndarray]:
    entries = []
    for plan in plans:
        raw = getattr(plan, "entries", plan)
        arr = np.asarray(raw, dtype=float)
        if arr.ndim != 2:
            raise ValueError("each plan must be a K x n matrix of investments")
        entries.append(arr)
    return entries


def simulate_trajectory(
    network: Network,
    schedule: CampaignSchedule,
    x0: OpinionState,
    plans,
    sample_times,
) -> list[TrajectoryPoint]:
    """Simulate the hybrid opinion process and sample it at the requested times.

    Opinions diffuse by exp(-L dt) between campaign times; at each campaign
    time the joint budget matrix is applied through the single-player jump
    when there is one plan and the normalized jump otherwise.  A sample
    landing on a campaign time (within relative tolerance 1e-9) produces two
    records: the pre-jump state and the post-jump state.
    """
    samples = np.asarray(sample_times, dtype=float)
    if samples.ndim != 1:
        raise ValueError("sample times must form a flat list")
    if samples.size and np.any(np.diff(samples) < 0):
        raise ValueError("sample times must be sorted")
    if samples.size and (
        samples[0] < schedule.t0 - 1e-12 or samples[-1] > schedule.tf + 1e-12
    ):
        raise ValueError("sample times must lie within the schedule horizon")

    entries = _plan_entries(plans)
    m = x0.m
    K = schedule.K
    if len(entries) != m:
        raise ValueError(f"expected {m} plans, got {len(entries)}")
    for arr in entries:
        if arr.shape != (K, x0.n):
            raise ValueError("each plan must be shaped (campaign count, individuals)")
        if arr.size and np.min(arr) < -FEASIBILITY_TOL:
            raise InfeasiblePlanError("negative investment in plan")
    for plan, arr in zip(plans, entries):
        cap = getattr(plan, "budget_cap", None)
        if cap is not None and arr.sum() > cap + FEASIBILITY_TOL:
            raise InfeasiblePlanError("plan total exceeds its budget cap")

    def flow(state, dt):
        if dt <= 1e-15:
            return state
        return matrix_exponential(-network.laplacian * dt) @ state

    points: list[TrajectoryPoint] = []
    state = np.array(x0.values, dtype=float)
    t_cur = schedule.t0
    si = 0

    for k in range(1, K + 2):
        t_end = float(schedule.times[k])
        match_tol = 1e-9 * max(1.0, abs(t_end))
        while si < samples.size and samples[si] < t_end - match_tol:
            t_s = float(samples[si])
            state = flow(state, t_s - t_cur)
            t_cur = t_s
            points.append(TrajectoryPoint(t_s, OpinionState(state), post_jump=False))
            si += 1
        state = flow(state, t_end - t_cur)
        t_cur = t_end
        sampled_here = si < samples.size and abs(samples[si] - t_end) <= match_tol
        if k <= K:
            if sampled_here:
                points.append(TrajectoryPoint(t_end, OpinionState(state), post_jump=False))
            stage = np.column_stack([arr[k - 1] for arr in entries])
            if m == 1:
                state = jump_single(state[:, 0], stage[:, 0])[:, None]
            else:
                state = jump_multi(state, stage)
            if sampled_here:
                points.append(TrajectoryPoint(t_end, OpinionState(state), post_jump=True))
        elif sampled_here:
            points.append(TrajectoryPoint(t_end, OpinionState(state), post_jump=False))
        if sampled_here:
            si += 1
    return points
