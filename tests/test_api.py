"""The public surface, pinned: every exported name and the parameters of
every exported callable.  A new export, keyword or default is a new setting,
so it shows up here as a diff to review."""

import dataclasses
import inspect

import influencegame
from influencegame import single_player_solver

EXPORTS = [
    "CampaignSchedule",
    "ConvergenceError",
    "ConvexityProbe",
    "ConvexityReport",
    "EquilibriumResult",
    "FeasibleRegion",
    "FiniteDifferenceResult",
    "GameSpec",
    "HypothesisCheckError",
    "InfeasiblePlanError",
    "InfluenceGameError",
    "LearningTrace",
    "Network",
    "OpinionState",
    "ScenarioError",
    "SolveReport",
    "StageUtility",
    "StochasticityReport",
    "TrajectoryPoint",
    "best_response",
    "brute_force_best_response",
    "build_network",
    "build_region",
    "check_stochastic",
    "equilibrium_solver",
    "errors",
    "exploitability",
    "fd_gradient",
    "game_model",
    "jump_single",
    "midpoint_convexity_check",
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
    "ConvexityProbe": "function, sampler, samples=100",
    "ConvexityReport": "passed, worst_violation",
    "EquilibriumResult": "profile, exploitability, regrets, iterations",
    "FeasibleRegion": "normals, offsets",
    "FiniteDifferenceResult": "gradient, one_sided=()",
    "GameSpec": "network, schedule, x0, budgets, utilities",
    "HypothesisCheckError": "message, report=None",
    "InfeasiblePlanError": None,
    "InfluenceGameError": None,
    "LearningTrace": "spec, iterates, payoffs",
    "Network": "adjacency",
    "OpinionState": "values",
    "ScenarioError": None,
    "SolveReport": "plan, objective, iterations, final_step_norm, kkt_residual, objectives",
    "StageUtility": (
        "kind, rho=None, cost_coefficient=0.0, value_fn=None, opinion_grad_fn=None, "
        "budget_grad_fn=None, declared_increasing_convex=False, declared_own_concave=False"
    ),
    "StochasticityReport": "passed, row_sum_violation, negativity_violation",
    "TrajectoryPoint": "time, state, post_jump=False",
    "best_response": "spec, profile, j",
    "brute_force_best_response": "spec, profile, j, grid_step",
    "build_network": "adjacency",
    "build_region": "spec",
    "check_stochastic": "matrix",
    "exploitability": "spec, profile",
    "fd_gradient": "evaluator, point, h=1e-05",
    "jump_single": "x, b",
    "midpoint_convexity_check": "probe, seed=0",
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

# The fixed stopping rules of the projections and of the one concave ascent.
STOPPING_RULES = {
    "PROJECTION_TOL": 1e-12,
    "PROJECTION_MAX_CYCLES": 10_000,
    "ASCENT_TOL": 1e-9,
    "ASCENT_MAX_STEPS": 100_000,
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


def test_one_concave_ascent_with_fixed_stopping_rules():
    ascent = single_player_solver._maximize_concave
    assert ascent.__module__ == "influencegame.single_player_solver"
    assert parameters(ascent) == "evaluate, project, start, values=None"
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
