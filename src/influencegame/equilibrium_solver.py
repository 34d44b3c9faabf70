"""Open-loop equilibria by simultaneous no-regret gradient ascent.

Every player repeatedly plays projected gradient ascent on its own payoff
against the others' current strategies; for socially concave games the
running average of the joint iterates converges to a pure open-loop
equilibrium.  A game has that shape by construction: its utilities are
linear, so no entry point here checks a hypothesis.  One iteration is one
game-kernel pass that carries every player's opinion column and yields every
payoff and gradient, then one projection of the m stepped plans, stacked,
onto their budget sets, with the one stepsize 10 / tau.  The trace records
the iterates and the per-iteration payoffs (the running averages are
derived from the iterates), and the diagnostics below quantify how close
the averaged profile is to equilibrium:

* regret -- gap between the best fixed strategy in hindsight and the payoff
  actually accumulated,
* exploitability -- the largest unilateral improvement any player can still
  find against the averaged profile.

The diagnostics need two or more players; a single player's optimum is
``single_player_solver.solve_single``.  Exploitability and regret both
solve one subproblem, ``_best_fixed_plan``: player j's best fixed plan
against a batch of the others' profiles (one profile for exploitability's
best responses, the played iterates for regret), a concave maximization
over j's budget set by the package's one ascent,
``single_player_solver._maximize_concave``, which runs in units of its
starting gradient and, here, of the budget max(1, beta_j).  Its stopping
residual bounds the value gap, so exploitability and regret carry an
absolute error bound.  Each subproblem takes a few kernel passes: on the
paper's game at T = 400, 5 and 11 for the best responses behind
exploitability and 2 for each regret; on the bench's 3-player game of 10
individuals at T = 100, 10 to 16 for either.

``solve_equilibrium``, ``exploitability`` and ``regret`` run under
``np.errstate(over="raise", invalid="raise")``: a float-scale game (budgets
near 1e308, say) whose payoffs or hindsight sums overflow raises
FloatingPointError instead of returning NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .game_model import (
    GameSpec,
    _column,
    _is_integer,
    _objective_for_player,
    _profile_pass,
    _one_profile,
)
from .opinion_dynamics import _finite, _one_number, _readonly, _real
from .single_player_solver import (
    _active_set,
    _maximize_concave,
    _project_rows,
    build_region,
)


def project_budget_set(point: np.ndarray, cap: float | np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto {b >= 0, sum(b) <= cap}, row by row.

    ``point`` is one vector (d,) or a stack (..., d) of them; ``cap`` is one
    cap for every row or one per row, shaped like the stack.  Each row comes
    out bit-for-bit as if projected alone.  Clamping negatives suffices when
    the clamped sum fits under the cap; otherwise the usual water-filling
    threshold projects onto the face {b >= 0, sum(b) = cap}.  That
    projection does not change when the same constant is added to every
    entry, so such a row is first shifted to a top entry of 0, where the cap
    cannot be lost to round-off.  The threshold then lies in [-cap, 0], so an
    entry at or below -cap never enters the support; it is held at -cap in
    the sorted sums, which therefore stay within d + 1 caps of 0, d the
    row's length, however far down it reaches.  A row whose d + 1 caps come
    within a factor 2 of the largest float is projected scaled, with its
    cap, by the power of two that brings the cap below 1, and scaled back;
    both scalings are exact.  Exact in finitely many operations.  A point
    or a cap that is not real numbers (``_real``), a cap that numpy cannot
    assign into the stack's shape (...), a scalar point, a NaN or negative
    cap, or a point with a non-finite entry raises ValueError; an infinite
    cap leaves its rows merely clamped.
    """
    v = _real(point, "the point to project")
    if v.ndim == 0:
        raise ValueError("the point to project must be a vector or a stack of them")
    cap, caps = _real(cap, "budget cap"), np.empty(v.shape[:-1])
    try:
        caps[...] = cap
    except ValueError:  # numpy's message names no argument
        raise ValueError(f"budget cap must be one number or one per row, not {cap.shape}") from None
    if not (caps >= 0).all():
        raise ValueError("budget cap must be nonnegative")
    return _project_rows(v.reshape(caps.size, v.shape[-1]), caps.reshape(-1)).reshape(v.shape)


@dataclass(frozen=True, eq=False)
class LearningTrace:
    """Everything one no-regret run computed.

    ``iterates[tau-1]`` is the joint profile played at iteration tau (shape
    (m, K, n)) and ``payoffs[tau-1, j]`` player j's payoff at that iterate.
    Entries that are not real numbers (``_real``), iterates not shaped
    (T, m, K, n) for the spec, or payoffs not shaped (T, m) with the same T
    raise ValueError.
    """

    spec: GameSpec
    iterates: np.ndarray
    payoffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "iterates", _readonly(_real(self.iterates, "iterates")))
        object.__setattr__(self, "payoffs", _readonly(_real(self.payoffs, "payoffs")))
        spec, shape = self.spec, self.iterates.shape
        if len(shape) != 4 or shape[1:] != (spec.m, spec.K, spec.n):
            raise ValueError(f"iterates must be shaped (T, {spec.m}, {spec.K}, {spec.n}) "
                             f"for the spec, got {shape}")
        if self.payoffs.shape != (shape[0], spec.m):
            raise ValueError(f"payoffs must be shaped ({shape[0]}, {spec.m}) to match "
                             f"the iterates, got {self.payoffs.shape}")

    @property
    def iterations(self) -> int:
        return self.iterates.shape[0]

    @cached_property
    def averages(self) -> np.ndarray:
        """Read-only running averages: ``averages[tau-1]`` is the mean of the
        first tau iterates, computed on first access and summed scaled by the
        power of two 2^-e that brings every budget below 1 (exact, no overflow)."""
        taus = np.arange(1, self.iterations + 1).reshape(-1, 1, 1, 1)
        e = max(0, int(np.frexp(np.max(self.spec.budgets))[1]))
        averages = np.ldexp(np.cumsum(np.ldexp(self.iterates, -e), axis=0) / taus, e)
        averages.flags.writeable = False
        return averages


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Averaged profile plus closeness-to-equilibrium diagnostics; the
    profile, the exploitability and the regrets pass ``_finite``, the
    package's gate for finite real numbers, the profile is one (m, K, n)
    plan per player and the regrets are one per player, the exploitability
    is one number held as a float (``_one_number``), and ``iterations`` is
    an integer, not a bool, of at least 1, held as an int (ValueError
    otherwise)."""

    profile: np.ndarray
    exploitability: float
    regrets: np.ndarray
    iterations: int

    def __post_init__(self):
        profile = _finite(self.profile, "profile")
        if profile.ndim != 3:
            raise ValueError(f"profile must be one (K, n) plan per player, "
                             f"got shape {profile.shape}")
        regrets = _finite(self.regrets, "regrets")
        if regrets.shape != profile.shape[:1]:
            raise ValueError(f"regrets must be one per player, got shape {regrets.shape} "
                             f"for {profile.shape[0]} players")
        object.__setattr__(self, "profile", _readonly(profile))
        object.__setattr__(self, "regrets", _readonly(regrets))
        exploitability = _one_number(self.exploitability, "exploitability", _finite)
        if exploitability < -1e-8:
            raise ValueError("exploitability cannot be materially negative")
        object.__setattr__(self, "exploitability", exploitability)
        if not (_is_integer(self.iterations) and self.iterations >= 1):
            raise ValueError(f"iterations must be an integer of at least 1, "
                             f"got {self.iterations!r}")
        object.__setattr__(self, "iterations", int(self.iterations))


def _require_multiplayer(spec: GameSpec):
    """Exploitability and regret are multiplayer diagnostics."""
    if spec.m < 2:
        raise ValueError(
            "the equilibrium diagnostics need two or more players; "
            "a single player's optimum is solve_single"
        )


# Float-scale overflow inside the diagnostics is an error, not a NaN result.
_RAISE_ON_OVERFLOW = np.errstate(over="raise", invalid="raise")


def _best_fixed_plan(spec: GameSpec, profiles: np.ndarray, j: int, start):
    """Player j's best fixed plan against ``profiles`` (one (m, K, n) profile
    or a batch of them) and its payoff summed over the batch, by
    ``_maximize_concave`` from ``start`` over j's budget set; returns the
    flat plan, the payoff ``evaluate`` measured there and the payoff it
    measured at the projected start.

    The ascent runs in budget units: it climbs y = b / u, u = max(1, beta_j),
    over the budget set of cap beta_j / u, and the plan returned is u y.
    Its step clamp and stopping rule are thus relative to the budget, so a
    budget of 1e16 ends as a budget of 1 does, and a budget of at most 1
    ascends exactly as in plan units.  A ConvergenceError carries its point
    in budget units.  The ascent also runs in units of its starting
    gradient, which for a batch of T profiles sums T payoff gradients, so
    its first trial step moves each entry by at most u rather than by up to
    T times a payoff gradient."""
    u = max(1.0, float(spec.budgets[j]))
    cap = spec.budgets[[j]] / u  # a list index keeps a negative j on its player
    evaluate = _objective_for_player(spec, profiles, j)

    def in_budget_units(y):
        value, gradient = evaluate(u * y)
        return value, u * gradient

    y, value, _, values = _maximize_concave(
        in_budget_units, lambda v: _project_rows(v[None], cap)[0], start / u)
    return u * y, value, values[0]


def run_no_regret(spec: GameSpec, T: int) -> LearningTrace:
    """Simultaneous projected gradient ascent for all players, T iterations.

    Players start from the interior half-budget spread (each entry
    beta_j / (2 K n)) and update together from the same joint iterate, with
    stepsize eta_tau = 10 / tau.  Each iteration makes one kernel pass
    over all players' columns and one projection of the (m, K n) stack of
    stepped plans, by ``_project_rows`` on the caps ``GameSpec`` checked; a
    lone player's plan goes onto its polytope by ``_active_set``, from the
    working set of the iteration before.
    The run draws no random numbers: the spec and T determine it.  T must be
    an integer (not a bool) of at least 1, else ValueError before any pass;
    a T whose (T, m, K, n) iterates cannot be allocated raises MemoryError.
    """
    if not (_is_integer(T) and T >= 1):
        raise ValueError(f"iteration count must be an integer of at least 1, got {T!r}")
    m, K, n = spec.m, spec.K, spec.n
    current = np.broadcast_to(spec.budgets[:, None] / (2 * K * n), (m, K * n))
    if m == 1:
        region = build_region(spec)
        working = np.zeros(region.count + region.dim, dtype=bool)
        project = lambda rows: _active_set(rows[0], region, working)[None]
        current = project(current)
    else:
        project = lambda rows: _project_rows(rows, spec.budgets)
    current = current.reshape(m, K, n)

    try:  # numpy refuses an array past the address space with ValueError
        iterates = np.empty((T, m, K, n))
    except ValueError as exc:
        raise MemoryError(f"cannot allocate the ({T}, {m}, {K}, {n}) iterates: {exc}") from exc
    payoffs = np.empty((T, m))

    for tau in range(1, T + 1):
        iterates[tau - 1] = current
        eta = 10.0 / tau
        _, _, payoffs[tau - 1], gradient = _profile_pass(spec, current)
        current = project((current + eta * gradient).reshape(m, K * n)).reshape(m, K, n)

    return LearningTrace(spec=spec, iterates=iterates, payoffs=payoffs)


@_RAISE_ON_OVERFLOW
def exploitability(spec: GameSpec, profile) -> float:
    """Largest unilateral payoff improvement available at the profile.

    Zero exactly at an open-loop equilibrium; small positive values bound the
    distance from equilibrium in payoff terms.  Each player's ascent starts
    at its played plan, so its best fixed plan earns at least the start's
    payoff: the gain is measured against that payoff, from the same kernel
    pass, and an ascent that ends within round-off below its start gains 0.
    A one-player game raises ValueError before any work; a profile
    ``validate_plans`` refuses raises its error.
    """
    _require_multiplayer(spec)
    profile = _one_profile(spec, profile)
    return float(max(
        max(value, played) - played
        for _, value, played in (_best_fixed_plan(spec, profile, j, profile[j])
                                 for j in range(spec.m))
    ))


@_RAISE_ON_OVERFLOW
def regret(trace: LearningTrace, j: int, horizon: int | None = None) -> float:
    """Realized regret of player j: best fixed strategy in hindsight versus the
    payoffs actually collected over the first ``horizon`` iterations.

    The hindsight objective is player j's payoff summed over the played
    profiles with one fixed own plan substituted, ``_objective_for_player``
    on the batch of the first ``horizon`` iterates.  ``_best_fixed_plan``
    climbs it from the last played plan, iterate ``horizon``, a start that
    took fewer kernel passes than the average played plan on every game
    tried; its step and its stopping rule scale with the budget and with the
    starting gradient, which sums ``horizon`` payoff gradients.  It raises
    ConvergenceError if the step budget runs out first.  A one-player game,
    a player index j that is not an integer (a bool is not one), a trace
    with no iterations, or a horizon that is not an integer within the
    recorded iterations raises ValueError; a negative j counts from the
    last player.
    """
    spec = trace.spec
    _require_multiplayer(spec)
    j = _column(spec, j).start
    if trace.iterations == 0:
        raise ValueError("the trace records no iterations, so it has no regret")
    T = trace.iterations if horizon is None else horizon
    if not (_is_integer(T) and 1 <= T <= trace.iterations):
        raise ValueError(f"horizon must be an integer within the {trace.iterations} "
                         f"recorded iterations, got {T!r}")
    _, value, _ = _best_fixed_plan(spec, trace.iterates[:T], j, trace.iterates[T - 1, j])
    return float(value - trace.payoffs[:T, j].sum())


@_RAISE_ON_OVERFLOW
def solve_equilibrium(spec: GameSpec, T: int):
    """Run T iterations of the learning dynamics (``run_no_regret``) and
    package the averaged profile with its diagnostics; returns (trace,
    result).  A one-player game or a bad T raises ValueError before the run."""
    _require_multiplayer(spec)
    trace = run_no_regret(spec, T)
    averaged = trace.averages[-1]
    result = EquilibriumResult(
        profile=averaged,
        exploitability=exploitability(spec, averaged),
        regrets=np.array([regret(trace, j) for j in range(spec.m)]),
        iterations=T,
    )
    return trace, result


# Iterations ``trace_to_csv`` renders together: one ``_distinct_reprs`` call
# and one join per block, so the transient strings stay bounded in T.
TRACE_BLOCK = 32


def _distinct_reprs(values: np.ndarray) -> tuple[list[str], list[int]]:
    """The ``repr(float(x))`` of each distinct bit pattern in ``values`` and,
    for every value in C order, the index of its string.

    The key is the int64 view of the values as C-contiguous float64s, so
    0.0 and -0.0, and NaNs of different payloads, keep their own strings.
    ``np.unique`` finds the patterns and one ``repr`` of their list formats
    them: a trace repeats exact zeros often, and the shortest round-trip
    ``repr`` is the cost of rendering it."""
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits, where = np.unique(flat.view(np.int64), return_inverse=True)
    return repr(bits.view(np.float64).tolist())[1:-1].split(", "), where.tolist()


def trace_to_csv(trace: LearningTrace) -> str:
    """Render a trace as CSV with one row per (iteration, player, stage,
    individual); every float is its ``repr``, the shortest string that reads
    back to the same double.

    Each block of ``TRACE_BLOCK`` iterations formats its iterate, average
    and payoff values in one ``_distinct_reprs`` pass and is laid out as
    five strings per row (iteration, ``,player,stage,individual,``, iterate
    and ``,``, average and ``,``, payoff and newline), filled a column at a
    time by slice assignment and joined once."""
    T, m, K, n = trace.iterates.shape
    keys = [f",{j},{k},{i}," for j in range(m) for k in range(1, K + 1) for i in range(n)]
    chunks = ["iteration,player,stage,individual,iterate_value,average_value,payoff\n"]
    for first in range(0, T, TRACE_BLOCK):
        block = slice(first, first + TRACE_BLOCK)
        taus = range(first + 1, min(first + TRACE_BLOCK, T) + 1)
        rows = len(taus) * len(keys)
        strings, where = _distinct_reprs(np.concatenate(
            [trace.iterates[block].ravel(), trace.averages[block].ravel(),
             trace.payoffs[block].ravel()]))
        valued = [s + "," for s in strings]
        parts = [""] * (5 * rows)
        parts[0::5] = [tau for tau in map(str, taus) for _ in keys]
        parts[1::5] = keys * len(taus)
        parts[2::5] = map(valued.__getitem__, where[:rows])
        parts[3::5] = map(valued.__getitem__, where[rows:2 * rows])
        parts[4::5] = [p for p in (strings[i] + "\n" for i in where[2 * rows:])
                       for _ in range(K * n)]
        chunks.append("".join(parts))
    return "".join(chunks)
