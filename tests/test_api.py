"""The public surface, pinned: every exported name and the parameters of
every exported callable.  A new export, keyword or default is a new setting,
so it shows up here as a diff to review."""

import ast
import dataclasses
import inspect
from pathlib import Path

import influencegame
from influencegame import single_player_solver

EXPORTS = [
    "CampaignSchedule",
    "ConvergenceError",
    "EquilibriumResult",
    "FeasibleRegion",
    "GameSpec",
    "InfeasiblePlanError",
    "InfluenceGameError",
    "LearningTrace",
    "Network",
    "OpinionState",
    "ScenarioError",
    "SolveReport",
    "StageUtility",
    "StochasticityReport",
    "brute_force_best_response",
    "build_network",
    "build_region",
    "check_stochastic",
    "equilibrium_solver",
    "errors",
    "exploitability",
    "fd_gradient",
    "game_model",
    "opinion_dynamics",
    "opinions_at_campaigns",
    "opinions_at_campaigns_closed_form",
    "payoff_gradient",
    "project_budget_set",
    "propagator",
    "regret",
    "run_no_regret",
    "run_suite",
    "simulate_trajectory",
    "single_player_solver",
    "solve_equilibrium",
    "solve_single",
    "total_payoff",
    "validate_plans",
    "verification",
]

# Parameter names with their defaults; None marks an exception class that
# takes Exception's own arguments.
SIGNATURES = {
    "CampaignSchedule": "times",
    "ConvergenceError": "message, last_iterate=None, residual=None",
    "EquilibriumResult": "profile, exploitability, regrets, iterations",
    "FeasibleRegion": "normals, offsets",
    "GameSpec": "network, schedule, x0, budgets, utilities",
    "InfeasiblePlanError": None,
    "InfluenceGameError": None,
    "LearningTrace": "spec, iterates, payoffs",
    "Network": "adjacency",
    "OpinionState": "values",
    "ScenarioError": None,
    "SolveReport": "plan, objective, iterations, kkt_residual",
    "StageUtility": "rho, cost_coefficient=0.0",
    "StochasticityReport": "passed, row_sum_violation, negativity_violation",
    "brute_force_best_response": "spec, profile, j, grid_step",
    "build_network": "adjacency",
    "build_region": "spec",
    "check_stochastic": "matrix",
    "exploitability": "spec, profile",
    "fd_gradient": "evaluator, points, h=1e-05",
    "opinions_at_campaigns": "spec, profile",
    "opinions_at_campaigns_closed_form": "spec, profile",
    "payoff_gradient": "spec, profile, j",
    "project_budget_set": "point, cap",
    "propagator": "network, dt",
    "regret": "trace, j, horizon=None",
    "run_no_regret": "spec, T",
    "run_suite": "name, seed=0",
    "simulate_trajectory": "spec, profile, sample_times",
    "solve_equilibrium": "spec, T",
    "solve_single": "spec",
    "total_payoff": "spec, profile, j",
    "validate_plans": "spec, profile",
}

# The fixed stopping rules of the projections, of the one concave ascent and
# of the single-player projection search.
STOPPING_RULES = {
    "PROJECTION_TOL": 1e-12,
    "PROJECTION_MAX_CYCLES": 10_000,
    "ASCENT_TOL": 1e-9,
    "ASCENT_MAX_STEPS": 2_000,
    "SEARCH_MAX_SCALE": 2.0**20,
}


def parameters(obj):
    """``inspect.signature`` rendered as "name, name=default, *args, **kwargs"."""
    try:
        signature = inspect.signature(obj)
    except ValueError:
        return None
    marks = {inspect.Parameter.VAR_POSITIONAL: "*", inspect.Parameter.VAR_KEYWORD: "**"}
    rendered = []
    for parameter in signature.parameters.values():
        text = marks.get(parameter.kind, "") + parameter.name
        if parameter.default is not parameter.empty:
            text += "=" + repr(parameter.default)
        rendered.append(text)
    return ", ".join(rendered)


def test_exported_names():
    assert influencegame.__all__ == EXPORTS


def test_exported_signatures():
    callables = {
        name: parameters(getattr(influencegame, name))
        for name in influencegame.__all__
        if not inspect.ismodule(getattr(influencegame, name))
    }
    assert callables == SIGNATURES


def test_stage_utility_is_weights_and_a_cost():
    utility = influencegame.StageUtility(rho=[[1.0]])
    assert repr(utility) == "StageUtility(rho=array([[1.]]), cost_coefficient=0.0)"


def test_one_concave_ascent_with_fixed_stopping_rules():
    ascent = single_player_solver._maximize_concave
    assert ascent.__module__ == "influencegame.single_player_solver"
    assert parameters(ascent) == "evaluate, project, start"
    for name, value in STOPPING_RULES.items():
        assert getattr(single_player_solver, name) == value


def test_array_dataclasses_compare_by_identity():
    # a generated __eq__ over an array field raises instead of answering,
    # and a generated __hash__ cannot hash the array
    holding_arrays = {
        name for name in influencegame.__all__
        if dataclasses.is_dataclass(getattr(influencegame, name))
        and any("ndarray" in str(f.type) for f in dataclasses.fields(getattr(influencegame, name)))
    }
    assert {"Network", "GameSpec", "SolveReport", "LearningTrace"} <= holding_arrays
    for name in sorted(holding_arrays):
        assert not getattr(influencegame, name).__dataclass_params__.eq, name


def _imports_package(node):
    """Whether an import statement names a module of the package."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "influencegame"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "influencegame" for alias in node.names)


def test_no_assert_statement_in_the_package():
    # an assert vanishes under python -O, and its AssertionError would escape
    # the CLI's exit-code mapping as a traceback
    asserts = []
    for path in sorted(Path(influencegame.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Assert)]
    assert asserts == []


def test_no_package_import_inside_a_function():
    # every dependency between the package's modules is a module-level import,
    # so the import graph is read off the module headers and has no hidden cycle
    deferred = []
    for path in sorted(Path(influencegame.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                deferred += [f"{path.name}:{node.lineno}" for node in ast.walk(function)
                             if _imports_package(node)]
    assert deferred == []
