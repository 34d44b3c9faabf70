"""Opinion flow on a social network: the building blocks of the hybrid process.

The network carries a row-stochastic weight matrix A and Laplacian L = I - A.
Between campaign times opinions follow the continuous averaging dynamics
x'(t) = -L x(t), so carrying opinions across a gap of length dt amounts to
multiplying by the propagator exp(-L dt).  Its one builder, ``_flow``, keeps
it row-stochastic at any finite dt (a series of nonnegative terms, rows
renormalized as it squares) and builds a whole stack (..., n, n) in one
call, each matrix bit for bit as if built alone; ``propagator`` takes one
gap or an array of them and refuses what ``check_stochastic`` fails, and the
lemma suite measures the same builder, one stack per network size.  The
jumps at campaign times, additive for one player and normalized for
several, and the forward recursion that strings gaps and jumps together live
in ``game_model``, whose kernel also samples trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _check_square(adjacency: np.ndarray):
    """Refuse an adjacency that is not a square matrix of at least one
    individual, before any reduction over its rows."""
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if adjacency.shape[0] == 0:
        raise ValueError("a network needs at least one individual")


@dataclass(frozen=True, eq=False)
class Network:
    """Weighted social graph given by its row-stochastic adjacency A alone;
    ``n`` and the read-only Laplacian L = I - A, built once, derive from it."""

    adjacency: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "adjacency", _readonly(self.adjacency))
        a = self.adjacency
        _check_square(a)
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
    _check_square(a)
    if np.any(a < 0):
        raise ValueError("adjacency entries must be nonnegative")
    row_sums = a.sum(axis=1)
    if np.any(row_sums <= 0):
        raise ValueError("every adjacency row needs positive total weight")
    return Network(adjacency=a / row_sums[:, None])


@dataclass(frozen=True)
class StochasticityReport:
    passed: bool
    row_sum_violation: float
    negativity_violation: float


def check_stochastic(matrix: np.ndarray) -> StochasticityReport:
    """Row-stochasticity of a square matrix, or of a stack (..., n, n) of
    them: it passes iff every row sums to 1 within 1e-10 and no entry lies
    below -1e-12, and reports the worst row sum and the worst entry over the
    stack.  A NaN entry makes its row sum NaN, which fails; as for one
    matrix, a matrix holding NaN adds no negativity of its own.  A shape
    whose last two axes are not square raises ValueError."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError("stochasticity check needs a square matrix")
    row_sum_violation = float(np.abs(matrix.sum(axis=-1) - 1.0).max(initial=0.0))
    lowest = matrix.min(axis=(-2, -1))  # NaN for a matrix holding NaN
    negativity_violation = float((-lowest[lowest < 0]).max(initial=0.0))
    passed = row_sum_violation <= 1e-10 and negativity_violation <= 1e-12
    return StochasticityReport(passed, row_sum_violation, negativity_violation)


def _flow(adjacency: np.ndarray, dt) -> np.ndarray:
    """exp(-L dt) for L = I - A, unchecked, for a stack of adjacencies
    (..., n, n) and gap lengths ``dt`` broadcasting to (...): the matrices
    ``propagator`` gates and the lemma suite measures, all built in one call.
    As exp(-L tau) = e^-tau exp(A tau), the degree-13 series at
    tau = dt / 2**s <= 1/4 has nonnegative terms; dividing its rows by their
    sums (exp(-L tau) 1 = 1) drops e^-tau and round-off.  Of an item's s
    squarings, which double that round-off, every 32nd and its last are
    followed by the same renormalization, so nothing overflows.  Items are
    squared in order of falling s, so the ones still squaring are a prefix."""
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[-1]
    shape = np.broadcast(adjacency[..., 0, 0], dt).shape
    times = np.broadcast_to(np.asarray(dt, dtype=float), shape).ravel().tolist()
    squarings = [max(0, math.ceil(math.log2(t)) + 2) if t > 0 else 0 for t in times]
    scales = np.array([math.ldexp(t, -s) for t, s in zip(times, squarings)])
    scaled = adjacency * scales.reshape(shape + (1, 1))
    result = eye = np.eye(n)
    for k in range(13, 0, -1):
        result = eye + (scaled @ result) / k
    result /= result.sum(axis=-1, keepdims=True)
    order = sorted(range(len(times)), key=squarings.__getitem__, reverse=True)
    counts = [squarings[i] for i in order]
    result = result.reshape(-1, n, n)[order]
    # at_least[c]: how many items take c squarings or more; they lead the stack
    at_least = np.cumsum(np.bincount(counts, minlength=1)[::-1])[::-1].tolist() + [0]
    for count in range(1, len(at_least) - 1):
        active, staying = at_least[count], at_least[count + 1]
        head = result[:active] @ result[:active]
        done = head if count % 32 == 0 else head[staying:]
        done /= done.sum(axis=-1, keepdims=True)
        result[:active] = head
    out = np.empty(shape + (n, n))
    out.reshape(-1, n, n)[order] = result
    return out


def propagator(network: Network, dt) -> np.ndarray:
    """Read-only flow matrix exp(-L dt) carrying opinions across a
    campaign-free gap, or for an array of gap lengths the read-only stack
    (..., n, n) of them, built in one ``_flow`` call.  A stack
    ``check_stochastic`` fails raises ValueError, as does a negative or
    non-finite gap anywhere in ``dt``."""
    dt = np.asarray(dt, dtype=float)
    if not ((dt >= 0) & (dt < np.inf)).all():
        raise ValueError("propagation time must be finite and nonnegative")
    matrix = _flow(network.adjacency, dt)
    matrix.flags.writeable = False
    report = check_stochastic(matrix)
    if not report.passed:
        raise ValueError(f"propagator is not row-stochastic: {report}")
    return matrix


def interval_propagators(network: Network, schedule: CampaignSchedule) -> list[np.ndarray]:
    """Adjacent-gap propagators: entry k-1 carries opinions from t_{k-1}^+ to t_k."""
    return [propagator(network, dt) for dt in np.diff(schedule.times)]


@dataclass(frozen=True)
class TrajectoryPoint:
    """One sampled opinion state; ``post_jump`` marks the record taken just after
    a campaign-time jump (a campaign-time sample yields a pre and a post record)."""

    time: float
    state: OpinionState
    post_jump: bool = False
