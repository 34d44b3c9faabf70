"""Command-line front end: scenario files in, solver runs and trace files out.

Subcommands
    simulate     hybrid opinion trajectory for a scenario and a plans file
    solve        single-player optimal investment (writes a solve report)
    equilibrate  multiplayer no-regret run (writes trace CSV + result JSON)
    verify       property suites (stochasticity, convexity, gradients, oracles)

Exit codes: 0 ok, 1 verify failure, 2 bad input (a scenario, plans file or
option that does not parse, a path that cannot be read or written, values
that overflow the float range, or an iteration or sample count too large to
allocate), 3 infeasible plans, 4 wrong mode (single- vs multi-player), 6 a
solver ran out of its iteration budget.
All files are written atomically, and ``equilibrate`` writes both of its
files or neither, so a failed run never leaves partial output.  The
scenario's ``solver`` section sets only the iteration count ``T``; the
no-regret stepsize follows from the game.  The run draws no random numbers,
so equal scenarios give byte-identical outputs; only ``verify --seed`` seeds
a random draw.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasiblePlanError, ScenarioError
from .equilibrium_solver import solve_equilibrium, trace_to_csv, _distinct_reprs
from .fileio import atomic_write_text
from .game_model import GameSpec, StageUtility, simulate_trajectory, validate_plans
from .opinion_dynamics import CampaignSchedule, OpinionState, build_network
from .single_player_solver import solve_single
from .verification import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILURE = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_WRONG_MODE = 4
EXIT_CONVERGENCE = 6


@dataclass(frozen=True)
class SolverSettings:
    T: int = 100


@dataclass(frozen=True)
class Scenario:
    spec: GameSpec
    solver: SolverSettings


def _strict_keys(mapping: dict, allowed, required, context: str):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{context} must be a JSON object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ScenarioError(f"unknown keys {unknown} in {context}")
    missing = sorted(set(required) - set(mapping))
    if missing:
        raise ScenarioError(f"missing keys {missing} in {context}")


def _convert(value, convert, context: str):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{context}: {exc}") from exc


def _json_number(value, kind: type, context: str):
    """Convert a JSON number to ``kind``; with ``kind`` int only a JSON integer
    is a number.  Bools and strings are refused, not coerced."""
    allowed = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ScenarioError(f"{context} must be a JSON {'integer' if kind is int else 'number'}")
    return _convert(value, kind, context)


def _json_array(value, context: str) -> np.ndarray:
    """Convert a JSON number, or nested lists of them, to a float array.
    Every entry goes through ``_json_number``, so bools and strings are
    refused; ragged lists are refused too.  The walk keeps its own stack,
    so deep nesting cannot exhaust Python's."""
    pending = [value]
    while pending:
        node = pending.pop()
        if isinstance(node, list):
            pending.extend(node)
        else:
            _json_number(node, float, f"each entry of {context}")
    return _convert(value, lambda v: np.asarray(v, dtype=float), context)


def scenario_from_dict(document: dict) -> Scenario:
    """Parse a scenario document; unknown keys are rejected to surface typos."""
    _strict_keys(document, ("network", "schedule", "players", "x0", "solver"),
                 ("network", "schedule", "players", "x0"), "scenario")
    try:  # the game is built in document order; a refusal is a ScenarioError
        network = build_network(_json_array(document["network"], "network"))
        schedule = CampaignSchedule(times=_json_array(document["schedule"], "schedule"))
        x0 = OpinionState(_json_array(document["x0"], "x0"))

        players = document["players"]
        if not isinstance(players, list) or not players:
            raise ScenarioError("players must be a nonempty list")
        budgets, utilities = [], []
        for idx, player in enumerate(players):
            _strict_keys(player, ("budget", "utility"), ("budget", "utility"),
                         f"players[{idx}]")
            utility_doc = player["utility"]
            _strict_keys(utility_doc, ("kind", "rho", "lambda"), ("kind", "rho", "lambda"),
                         f"players[{idx}].utility")
            if utility_doc["kind"] != "linear-favor":
                raise ScenarioError(f"unknown utility kind {utility_doc['kind']!r} in "
                                    f"players[{idx}]; the scenario kind is linear-favor")
            cost = _json_number(utility_doc["lambda"], float, f"players[{idx}].utility.lambda")
            budgets.append(_json_number(player["budget"], float, f"players[{idx}].budget"))
            try:
                utilities.append(StageUtility(
                    rho=_json_array(utility_doc["rho"], f"players[{idx}].utility.rho"),
                    cost_coefficient=cost,
                ))
            except ValueError as exc:
                raise ScenarioError(f"players[{idx}]: {exc}") from exc

        solver_doc = document.get("solver", {})
        _strict_keys(solver_doc, ("T",), (), "solver")
        spec = GameSpec(network=network, schedule=schedule, x0=x0,
                        budgets=np.asarray(budgets), utilities=tuple(utilities))
        spec.kernel  # the propagators' stochasticity gate runs here
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    T = _json_number(solver_doc.get("T", 100), int, "solver.T")
    if T < 1:
        raise ScenarioError("solver.T must be at least 1")
    return Scenario(spec=spec, solver=SolverSettings(T=T))


def scenario_to_dict(scenario: Scenario) -> dict:
    spec = scenario.spec
    players = []
    for j, utility in enumerate(spec.utilities):
        players.append({
            "budget": float(spec.budgets[j]),
            "utility": {
                "kind": "linear-favor",
                "rho": utility.rho.tolist(),
                "lambda": float(utility.cost_coefficient),
            },
        })
    return {
        "network": spec.network.adjacency.tolist(),
        "schedule": spec.schedule.times.tolist(),
        "players": players,
        "x0": spec.x0.values.tolist(),
        "solver": {"T": scenario.solver.T},
    }


def _read_json(path):
    """Parse a UTF-8 JSON file; undecodable bytes, bad JSON and nesting too
    deep for the parser are ScenarioErrors."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:  # also JSONDecodeError, UnicodeDecodeError
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_read_json(path))


# The built-in two-player configuration, the README's scenario file: three
# individuals on a path, two campaigns at t = 1, 2 on a [0, 3] horizon,
# budgets 3 and 5, unit opinion weights and unit advertising costs, everyone
# starting undecided at 1/2.
REFERENCE_DOCUMENT = """\
{
  "network": [[2, 1, 0], [1, 1, 1], [0, 1, 2]],
  "schedule": [0.0, 1.0, 2.0, 3.0],
  "players": [
    {"budget": 3.0,
     "utility": {"kind": "linear-favor", "rho": [[1,1,1],[1,1,1],[1,1,1]], "lambda": 1.0}},
    {"budget": 5.0,
     "utility": {"kind": "linear-favor", "rho": [[1,1,1],[1,1,1],[1,1,1]], "lambda": 1.0}}
  ],
  "x0": [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
  "solver": {"T": 100}
}
"""


def reference_scenario() -> Scenario:
    """``REFERENCE_DOCUMENT``, parsed and checked as any scenario file is."""
    return scenario_from_dict(json.loads(REFERENCE_DOCUMENT))


def load_plans(path, spec: GameSpec) -> np.ndarray:
    """Read a plans file, one K x n matrix per player, as the (m, K, n)
    profile ``validate_plans`` returns.  A malformed file, an entry that is
    not a JSON number or a non-finite entry is a ScenarioError; an
    infeasible plan an InfeasiblePlanError."""
    document = _read_json(path)
    _strict_keys(document, ("plans",), ("plans",), "plans file")
    plans = _json_array(document["plans"], "plans")
    if plans.shape != (spec.m, spec.K, spec.n):
        raise ScenarioError(f"plans must hold one ({spec.K}, {spec.n}) matrix per player "
                            f"({spec.m}), got shape {plans.shape}")
    try:
        return validate_plans(spec, plans)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _json_text(document) -> str:
    """Indented, key-sorted standard JSON; a NaN or inf raises ScenarioError."""
    try:
        return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ScenarioError(f"{exc}: the scenario's values overflow the float range") from exc


def _trajectory_csv(times: np.ndarray, states: np.ndarray) -> str:
    rows = ["time,individual,player,opinion\n"]
    _, n, m = states.shape
    keys = [f"{i},{j}" for i in range(n) for j in range(m)]
    strings, where = _distinct_reprs(states)
    opinions = map(strings.__getitem__, where)
    rows.extend(f"{time!r},{key},{next(opinions)}\n" for time in times.tolist() for key in keys)
    return "".join(rows)


def cmd_simulate(args) -> int:
    if args.samples < 0:
        raise ScenarioError("--samples must be nonnegative")
    scenario = load_scenario(args.scenario)
    spec = scenario.spec
    profile = load_plans(args.plans, spec)
    try:  # numpy refuses too large an array with MemoryError or ValueError, and
        # linspace near 2^63 samples with IndexError
        samples = np.linspace(spec.schedule.t0, spec.schedule.tf, args.samples)
    except (MemoryError, ValueError, IndexError) as exc:
        raise ScenarioError(f"--samples {args.samples} is too large: {exc}") from exc
    times, states, _ = simulate_trajectory(spec, profile, samples)
    atomic_write_text(args.out, _trajectory_csv(times, states))
    print(f"wrote {times.size} trajectory records to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    spec = scenario.spec
    if spec.m != 1:
        print("solve handles single-player scenarios; use `equilibrate` for "
              f"this {spec.m}-player game", file=sys.stderr)
        return EXIT_WRONG_MODE
    report = solve_single(spec)
    atomic_write_text(args.out, _json_text({
        "plan": report.plan.tolist(),
        "objective": report.objective,
        "iterations": report.iterations,
        "final_step_norm": report.final_step_norm,
        "kkt_residual": report.kkt_residual,
    }))
    print(f"objective {report.objective!r} after {report.iterations} iterations "
          f"(kkt residual {report.kkt_residual:.3e})")
    return EXIT_OK


def cmd_equilibrate(args) -> int:
    if args.paper_example == (args.scenario is not None):
        raise ScenarioError("provide either a scenario file or --paper-example")
    scenario = reference_scenario() if args.paper_example else load_scenario(args.scenario)
    spec = scenario.spec
    if spec.m < 2:
        print("equilibrate handles multiplayer scenarios; use `solve` for "
              "single-player games", file=sys.stderr)
        return EXIT_WRONG_MODE
    T = args.T if args.T is not None else scenario.solver.T
    try:  # the (T, m, K, n) iterates may not fit in memory
        trace, result = solve_equilibrium(spec, T)
    except MemoryError as exc:
        raise ScenarioError(f"iteration count {T} is too large: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    trace_path = f"{args.out}_trace.csv"
    result_path = f"{args.out}_result.json"
    trace_text = trace_to_csv(trace)
    result_text = _json_text({
        "iterations": result.iterations,
        "exploitability": result.exploitability,
        "regrets": result.regrets.tolist(),
        "profile": result.profile.tolist(),
    })
    atomic_write_text(trace_path, trace_text)
    try:
        atomic_write_text(result_path, result_text)
    except BaseException:
        os.remove(trace_path)
        raise
    print(f"exploitability of averaged profile: {result.exploitability:.6e}")
    for j in range(spec.m):
        regret_value = float(result.regrets[j])
        print(f"player {j}: regret {regret_value:.6e} "
              f"({regret_value / T:.6e} per iteration)")
    print(f"wrote {trace_path} and {result_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ScenarioError("--seed must be nonnegative")
    report = run_suite(args.suite, seed=args.seed)
    text = _json_text(report)
    if args.out:
        atomic_write_text(args.out, text)
    print(text, end="")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as
    it was, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="influence-game",
        description="Budget allocation and open-loop equilibria for "
                    "influence games over social networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="sample a hybrid opinion trajectory")
    simulate.add_argument("scenario", help="scenario JSON file")
    simulate.add_argument("plans", help="plans JSON file ({\"plans\": [K x n, ...]})")
    simulate.add_argument("--samples", type=int, default=100,
                          help="number of evenly spaced sample times")
    simulate.add_argument("--out", required=True, help="output CSV path")
    simulate.set_defaults(handler=cmd_simulate)

    solve = sub.add_parser("solve", help="single-player optimal investment")
    solve.add_argument("scenario", help="scenario JSON file (single player)")
    solve.add_argument("--out", required=True, help="solve report JSON path")
    solve.set_defaults(handler=cmd_solve)

    equilibrate = sub.add_parser("equilibrate",
                                 help="multiplayer no-regret equilibrium run")
    equilibrate.add_argument("scenario", nargs="?",
                             help="scenario JSON file (omit with --paper-example)")
    equilibrate.add_argument("--paper-example", action="store_true",
                             help="run the built-in two-player reference configuration")
    equilibrate.add_argument("--T", type=int, default=None,
                             help="iteration count (overrides the scenario)")
    equilibrate.add_argument("--out", required=True,
                             help="output prefix for <prefix>_trace.csv and "
                                  "<prefix>_result.json")
    equilibrate.set_defaults(handler=cmd_equilibrate)

    verify = sub.add_parser("verify", help="run property suites")
    verify.add_argument("--suite", choices=SUITES, default="all")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", default=None, help="optional report JSON path")
    verify.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # values at the float scale overflow inside the solvers: bad input,
        # reported as an error rather than as a numpy warning
        with np.errstate(over="raise", invalid="raise"):
            return args.handler(args)
    except (ScenarioError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfeasiblePlanError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"error: did not converge: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
