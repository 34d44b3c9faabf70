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
builder's products and divisions write two buffers in place, taking turns,
so one small matrix costs little more than numpy's per-call floor times
the calls its series and squarings need.  A game still builds its K + 1
gaps with one ``propagator`` call each (``interval_propagators``): the
bench tracer counts a call's flops from one gap length, so one stacked call
per game waits for a bench change (ROADMAP item 4).  Every number a caller
hands the package passes one gate defined here, in the lowest layer:
``_real`` refuses bools, strings, complex numbers and objects rather than
cast them to floats, ``_finite`` refuses NaN and inf as well, and
``_one_number`` applies either to an argument that must be one number.  The
jumps at campaign times, additive for one player and normalized for several,
and the forward recursion that strings gaps and jumps together live in
``game_model``, whose kernel also samples trajectories.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


_SERIES_DIVISORS = tuple(float(k) for k in range(12, 0, -1))


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _real(values, name: str) -> np.ndarray:
    """``values`` as a float array: the package's one gate for the numbers a
    caller hands it.  Values whose numpy dtype is not an integer or a float
    one (bools, strings, complex numbers, objects, among them ``None`` and
    Python integers past 64 bits) raise ValueError rather than being cast.
    Entries that take only finite numbers use ``_finite``."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got {array.dtype} entries")
    return array.astype(float, copy=False)


def _finite(values, name: str) -> np.ndarray:
    """``_real``, and then ValueError if an entry is NaN or infinite."""
    array = _real(values, name)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    return array


def _one_number(values, name: str, gate) -> float:
    """``values`` passed through ``gate``, ``_real`` or ``_finite``, as one
    float: an argument that holds more than one number raises ValueError."""
    array = gate(values, name)
    if array.ndim:
        raise ValueError(f"{name} must be one number, got shape {array.shape}")
    return float(array)


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
        a = _readonly(_finite(self.adjacency, "network weights"))
        object.__setattr__(self, "adjacency", a)
        _check_square(a)
        if np.any(a < 0):
            raise ValueError("adjacency entries must be nonnegative")
        with np.errstate(over="ignore"):  # a row past the float range sums to inf
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
    """Ordered times t_0 < t_1 < ... < t_K < t_{K+1} bracketing the K campaigns;
    finite times whose gap overflows the float range are refused."""

    times: np.ndarray

    def __post_init__(self):
        times = np.atleast_1d(_finite(self.times, "schedule times"))
        object.__setattr__(self, "times", _readonly(times))
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("schedule needs at least initial and terminal times")
        with np.errstate(over="ignore"):  # an infinite gap is refused by name below
            gaps = np.diff(self.times)
        if np.any(gaps <= 0):
            raise ValueError("schedule times must be strictly increasing")
        if not np.isfinite(gaps).all():
            raise ValueError("schedule gaps must be finite")

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
        v = _finite(self.values, "opinions")
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise ValueError("opinions must form an n x m matrix")
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
    a row of all zeros (an individual listening to nobody) is rejected, and
    so is a row whose total weight overflows the float range.
    """
    a = _finite(adjacency, "network weights")
    _check_square(a)
    if np.any(a < 0):
        raise ValueError("adjacency entries must be nonnegative")
    with np.errstate(over="ignore"):  # an infinite total is refused by name below
        row_sums = a.sum(axis=1)
    if not np.isfinite(row_sums).all():
        raise ValueError("adjacency rows must have finite total weight")
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
    matrix, a matrix holding NaN adds no negativity of its own.  Entries
    that are not real numbers (``_real``), a shape whose last two axes are
    not square and matrices of no rows raise ValueError; a stack of no
    matrices, (0, n, n), passes with nothing to report."""
    matrix = _real(matrix, "stochasticity check entries")
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError("stochasticity check needs a square matrix")
    if matrix.shape[-1] == 0:
        raise ValueError("stochasticity check needs matrices of at least one row")
    row_sum_violation = float(np.abs(matrix.sum(axis=-1) - 1.0).max(initial=0.0))
    lowest = matrix.min(axis=(-2, -1))  # NaN for a matrix holding NaN
    negativity_violation = float((-lowest[lowest < 0]).max(initial=0.0))
    passed = row_sum_violation <= 1e-10 and negativity_violation <= 1e-12
    return StochasticityReport(passed, row_sum_violation, negativity_violation)


def _product(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x @ y written into ``out``: ``ndarray.dot`` on one (n, n) matrix, the
    same BLAS product as @ at a third of the call cost, and matmul on a
    stack (..., n, n)."""
    return x.dot(y, out) if x.ndim == 2 else np.matmul(x, y, out=out)


def _renormalize(rows: np.ndarray):
    """Divide each row of ``rows`` by its sum, in place."""
    rows /= np.add.reduce(rows, axis=-1, keepdims=True)


def _flow(adjacency: np.ndarray, dt) -> np.ndarray:
    """exp(-L dt) for L = I - A, unchecked, for a stack of adjacencies
    (..., n, n) and gap lengths ``dt`` broadcasting to (...): the matrices
    ``propagator`` gates and the lemma suite measures, all built in one call.
    As exp(-L tau) = e^-tau exp(A tau), the degree-13 series at
    tau = dt / 2**s <= 1/4 has nonnegative terms; dividing its rows by their
    sums (exp(-L tau) 1 = 1) drops e^-tau and round-off.  Of an item's s
    squarings, which double that round-off, every 32nd and its last are
    followed by the same renormalization, so nothing overflows.

    The series and the squarings write two buffers in place, taking turns,
    through ``_product``: one matrix is multiplied by ``ndarray.dot`` and a
    stack (flattened to (N, n, n)) by matmul.  The series starts at
    A tau / 13 + I, which equals I + (A tau I) / 13 bit for bit, as the
    product with I is exact on finite, nonnegative entries; its divisors
    are floats.  A stack's items are squared in order of falling s (sorted
    first only if they are not; one matrix never is), so the ones still
    squaring are a prefix; an item that is done is copied, once, into the
    buffer the last squaring writes.  Every matrix comes out bit for bit as
    if built alone, and as the builder with fresh arrays at every step that
    the tests keep as its reference.  A game calls this once per gap, not
    once for its K + 1 gaps, because the bench tracer's flop count reads one
    gap (ROADMAP item 4)."""
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[-1]
    shape = np.broadcast(adjacency[..., 0, 0], dt).shape
    dt = np.asarray(dt, dtype=float)
    times = (dt if dt.shape == shape else np.broadcast_to(dt, shape)).ravel().tolist()
    squarings = [max(0, math.ceil(math.log2(t)) + 2) if t > 0 else 0 for t in times]
    scales = [math.ldexp(t, -s) for t, s in zip(times, squarings)]
    if shape:
        scaled = adjacency * np.array(scales).reshape(shape + (1, 1))
        scaled = scaled.reshape(-1, n, n)
    else:
        scaled = adjacency * scales[0]
    order = None
    if any(map(operator.lt, squarings, squarings[1:])):
        order = sorted(range(len(times)), key=squarings.__getitem__, reverse=True)
        scaled = scaled[order]
        squarings = [squarings[i] for i in order]
    eye = np.eye(n)
    result = scaled / 13.0
    result += eye
    spare = np.empty_like(result)
    for k in _SERIES_DIVISORS:
        _product(scaled, result, spare)
        spare /= k
        spare += eye
        result, spare = spare, result
    _renormalize(result)
    top = squarings[0] if squarings else 0
    # the items taking count squarings or more, [:active], lead the stack;
    # one matrix is never sliced, as it stays active until it is done
    active = len(squarings)
    for count in range(top + 1):
        staying = active
        while staying and squarings[staying - 1] == count:
            staying -= 1
        if count:
            head, into = ((result, spare) if active == len(squarings)
                          else (result[:active], spare[:active]))
            _product(head, head, into)
            if count % 32 == 0:
                _renormalize(into)
            elif staying < active:
                _renormalize(into[staying:])
            result, spare = spare, result
        if (top - count) % 2 and staying < active:
            spare[staying:active] = result[staying:active]
        active = staying
    if order is not None:
        out = np.empty_like(result)
        out[order] = result
        result = out
    return result.reshape(shape + (n, n))


def propagator(network: Network, dt) -> np.ndarray:
    """Read-only flow matrix exp(-L dt) carrying opinions across a
    campaign-free gap, or for an array of gap lengths the read-only stack
    (..., n, n) of them, built in one ``_flow`` call.  A stack
    ``check_stochastic`` fails raises ValueError, as does a negative or
    non-finite gap anywhere in ``dt``, and so does a gap that is not a real
    number (a bool, a string or a complex number)."""
    dt = _real(dt, "propagation time")
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
