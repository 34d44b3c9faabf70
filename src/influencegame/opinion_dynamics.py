"""Opinion flow on a social network: the building blocks of the hybrid process.

The network carries a row-stochastic weight matrix A and Laplacian L = I - A.
Between campaign times opinions follow the continuous averaging dynamics
x'(t) = -L x(t), so carrying opinions across a gap of length dt amounts to
multiplying by the propagator exp(-L dt), which is itself row-stochastic:
``propagator`` refuses what ``check_stochastic`` fails, and the lemma suite
measures the same builder with the same rule.  At a campaign time a single player's
budget moves opinions additively (``jump_single``); the normalized
multiplayer jump and the forward recursion that strings gaps and jumps
together live in ``game_model``, whose kernel also samples trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasiblePlanError

# Slack allowed when checking jump feasibility (absorbs projection round-off).
FEASIBILITY_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Network:
    """Weighted social graph given by its row-stochastic adjacency A alone;
    ``n`` and the read-only Laplacian L = I - A, built once, derive from it."""

    adjacency: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "adjacency", _readonly(self.adjacency))
        a = self.adjacency
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if not np.all(np.isfinite(a)):
            raise ValueError("network weights must be finite")
        if np.any(a < 0):
            raise ValueError("adjacency entries must be nonnegative")
        if np.max(np.abs(a.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("adjacency rows must sum to 1")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def laplacian(self) -> np.ndarray:
        return _readonly(np.eye(self.n) - self.adjacency)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    return Network(adjacency=a / row_sums[:, None])


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


@dataclass(frozen=True)
class StochasticityReport:
    passed: bool
    row_sum_violation: float
    negativity_violation: float


def check_stochastic(matrix: np.ndarray) -> StochasticityReport:
    """Row-stochasticity of a square matrix: it passes iff every row sums to 1
    within 1e-10 and no entry lies below -1e-12.  A NaN entry makes its row
    sum NaN, which fails.  A matrix that is not square raises ValueError."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("stochasticity check needs a square matrix")
    row_sum_violation = float(np.max(np.abs(matrix.sum(axis=1) - 1.0)))
    negativity_violation = float(max(0.0, -np.min(matrix)))
    passed = row_sum_violation <= 1e-10 and negativity_violation <= 1e-12
    return StochasticityReport(passed, row_sum_violation, negativity_violation)


def _flow(network: Network, dt: float) -> np.ndarray:
    """exp(-L dt), unchecked: the matrix ``propagator`` gates and the lemma
    suite measures."""
    return matrix_exponential(-network.laplacian * dt)


def propagator(network: Network, dt: float) -> np.ndarray:
    """Read-only flow matrix exp(-L dt) carrying opinions across a
    campaign-free gap; a matrix ``check_stochastic`` fails raises ValueError,
    as does a negative or non-finite ``dt``."""
    if not 0 <= dt < np.inf:
        raise ValueError("propagation time must be finite and nonnegative")
    matrix = _readonly(_flow(network, dt))
    report = check_stochastic(matrix)
    if not report.passed:
        raise ValueError(f"propagator is not row-stochastic: {report}")
    return matrix


def interval_propagators(network: Network, schedule: CampaignSchedule) -> list[np.ndarray]:
    """Adjacent-gap propagators: entry k-1 carries opinions from t_{k-1}^+ to t_k."""
    return [propagator(network, schedule.gap(k)) for k in range(1, schedule.K + 2)]


def jump_single(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Additive single-player jump x + b, requiring 0 <= b <= 1 - x to ``FEASIBILITY_TOL``."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if x.shape != b.shape:
        raise ValueError("opinion and budget vectors must have matching shape")
    if np.min(b) < -FEASIBILITY_TOL:
        raise InfeasiblePlanError("negative budget entry in single-player jump")
    excess = np.max(b - (1.0 - x))
    if excess > FEASIBILITY_TOL:
        raise InfeasiblePlanError(
            f"infeasible jump: investment exceeds remaining opinion headroom by {excess:.3e}"
        )
    return np.clip(x + b, 0.0, 1.0)


@dataclass(frozen=True)
class TrajectoryPoint:
    """One sampled opinion state; ``post_jump`` marks the record taken just after
    a campaign-time jump (a campaign-time sample yields a pre and a post record)."""

    time: float
    state: OpinionState
    post_jump: bool = False
