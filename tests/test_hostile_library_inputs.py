"""The library-level hostile sweep: every numeric argument of the public
entries that take numbers from the caller gets each of eight hostile values,
NaN, inf, -inf, ``True``, ``np.bool_(True)``, ``"1.5"``, ``1 + 0j`` and
``None``, under warnings-as-errors.  An array argument is filled with the
value, so that numpy cannot promote it away among real entries.

A value that is not a real number must raise the gate's ValueError,
"<name> must be real numbers", never a TypeError, a ComplexWarning or a
cast.  NaN and the infinities must raise the gate's "<name> must be finite"
or the entry's own named error; four entries judge them instead, as
documented: ``check_stochastic`` reports them as a failed check,
``project_budget_set`` takes an infinite cap as no cap at all,
``FeasibleRegion.max_violation`` finds an infinite violation and a
``LearningTrace`` records them as a run computed them.

An argument that must be one number refuses a list or an array of any
other shape by name, and an ``EquilibriumResult`` holds its exploitability
as a float and refuses an ``iterations`` count that is not an integer of
at least 1, a bool among them."""

import dataclasses
import warnings

import numpy as np
import pytest

from influencegame import (
    CampaignSchedule,
    EquilibriumResult,
    FeasibleRegion,
    GameSpec,
    LearningTrace,
    Network,
    OpinionState,
    StageUtility,
    brute_force_best_response,
    build_network,
    check_stochastic,
    fd_gradient,
    opinions_at_campaigns,
    payoff_gradient,
    project_budget_set,
    propagator,
    simulate_trajectory,
    total_payoff,
    validate_plans,
)
from conftest import PATH_ADJACENCY, single_player_spec

HOSTILE = {"nan": np.nan, "inf": np.inf, "minus-inf": -np.inf, "bool": True,
           "numpy-bool": np.bool_(True), "string": "1.5", "complex": 1 + 0j, "none": None}
NON_FINITE = ("nan", "inf", "minus-inf")

NETWORK = build_network(PATH_ADJACENCY)
GAME = GameSpec(network=NETWORK, schedule=CampaignSchedule(times=[0.0, 1.0, 2.0, 3.0]),
                x0=OpinionState(np.full((3, 2), 0.5)), budgets=np.array([3.0, 5.0]),
                utilities=(StageUtility(rho=np.ones((3, 3)), cost_coefficient=1.0),) * 2)
PLANS = (2, 2, 3)
REGION = FeasibleRegion(normals=np.ones((1, 2)), offsets=[1.0])


def report_fails(call, value):
    # a NaN or an infinite entry fails the check rather than raising
    assert not call(value).passed


def cap_judged(call, value):
    if value == np.inf:  # no cap: the point is merely clamped
        np.testing.assert_array_equal(call(value), np.ones(3))
    else:
        with pytest.raises(ValueError, match="^budget cap must be nonnegative$"):
            call(value)


def violated_by_inf(call, value):
    assert call(value) == np.inf


def recorded(call, value):
    call(value)  # a trace holds what its run computed


def result(profile=np.zeros((2, 1, 1)), exploitability=0.0, regrets=(0.0, 0.0)):
    return EquilibriumResult(profile=profile, exploitability=exploitability,
                             regrets=regrets, iterations=1)


# entry: (the name the gate gives, the call, what NaN and the infinities meet:
# a pattern of the ValueError or a check of their own)
ENTRIES = {
    "GameSpec.budgets": ("budgets", lambda v: dataclasses.replace(GAME, budgets=np.full(2, v)),
                         "^budgets must be finite$"),
    "StageUtility.rho": ("stage weights rho", lambda v: StageUtility(rho=np.full((3, 3), v)),
                         "^stage weights rho must be finite$"),
    "StageUtility.cost_coefficient": (
        "cost coefficient", lambda v: StageUtility(rho=np.ones((3, 3)), cost_coefficient=v),
        "^cost coefficient must be finite$"),
    "validate_plans": ("plans", lambda v: validate_plans(GAME, np.full(PLANS, v)),
                       "^plan for player 0 has non-finite investments$"),
    "total_payoff": ("plans", lambda v: total_payoff(GAME, np.full(PLANS, v), 0),
                     "^plan for player 0 has non-finite investments$"),
    "payoff_gradient": ("plans", lambda v: payoff_gradient(GAME, np.full(PLANS, v), 1),
                        "^plan for player 0 has non-finite investments$"),
    "opinions_at_campaigns": ("plans", lambda v: opinions_at_campaigns(GAME, np.full(PLANS, v)),
                              "^plan for player 0 has non-finite investments$"),
    "simulate_trajectory.sample_times": (
        "sample times", lambda v: simulate_trajectory(GAME, np.zeros(PLANS), np.full(2, v)),
        "^sample times must be finite$"),
    "FeasibleRegion.normals": (
        "halfspace normals", lambda v: FeasibleRegion(normals=np.full((1, 2), v), offsets=[1.0]),
        "^halfspace normals must be finite$"),
    "FeasibleRegion.offsets": (
        "halfspace offsets", lambda v: FeasibleRegion(normals=np.ones((1, 2)), offsets=[v]),
        "^halfspace offsets must be finite$"),
    "FeasibleRegion.max_violation": ("the point",
                                     lambda v: REGION.max_violation(np.full(2, v)),
                                     violated_by_inf),
    "project_budget_set.point": ("the point to project",
                                 lambda v: project_budget_set(np.full(3, v), 1.0),
                                 "^the point to project must be finite$"),
    "project_budget_set.cap": ("budget cap", lambda v: project_budget_set(np.ones(3), v),
                               cap_judged),
    "check_stochastic": ("stochasticity check entries",
                         lambda v: check_stochastic(np.full((2, 2), v)), report_fails),
    "fd_gradient.points": ("finite-difference points",
                           lambda v: fd_gradient(lambda x: x.sum(axis=-1), np.full((1, 2), v)),
                           "^finite-difference points must be finite$"),
    "fd_gradient.h": ("finite-difference step",
                      lambda v: fd_gradient(lambda x: x.sum(axis=-1), np.ones((1, 2)), h=v),
                      "^finite-difference step must be positive and finite"),
    "brute_force_best_response.grid_step": (
        "grid step", lambda v: brute_force_best_response(single_player_spec(), np.zeros((1, 1, 1)),
                                                         0, v),
        "^grid step must be positive and finite"),
    "EquilibriumResult.profile": ("profile", lambda v: result(profile=np.full((2, 1, 1), v)),
                                  "^profile must be finite$"),
    "EquilibriumResult.exploitability": ("exploitability", lambda v: result(exploitability=v),
                                         "^exploitability must be finite$"),
    "EquilibriumResult.regrets": ("regrets", lambda v: result(regrets=np.full(2, v)),
                                  "^regrets must be finite$"),
    "LearningTrace.iterates": (
        "iterates", lambda v: LearningTrace(GAME, np.full((1,) + PLANS, v), np.zeros((1, 2))),
        recorded),
    "LearningTrace.payoffs": (
        "payoffs", lambda v: LearningTrace(GAME, np.zeros((1,) + PLANS), np.full((1, 2), v)),
        recorded),
    "Network": ("network weights", lambda v: Network(np.full((2, 2), v)),
                "^network weights must be finite$"),
    "build_network": ("network weights", lambda v: build_network(np.full((2, 2), v)),
                      "^network weights must be finite$"),
    "CampaignSchedule": ("schedule times", lambda v: CampaignSchedule(times=np.full(2, v)),
                         "^schedule times must be finite$"),
    "OpinionState": ("opinions", lambda v: OpinionState(np.full((2, 1), v)),
                     "^opinions must be finite$"),
    "propagator": ("propagation time", lambda v: propagator(NETWORK, v),
                   "^propagation time must be finite and nonnegative$"),
}


@pytest.mark.parametrize("value", HOSTILE)
@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_refuses_hostile_value(entry, value):
    name, call, non_finite = ENTRIES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if value not in NON_FINITE:
            with pytest.raises(ValueError, match=f"^{name} must be real numbers, got "):
                call(HOSTILE[value])
        elif callable(non_finite):
            non_finite(call, HOSTILE[value])
        else:
            with pytest.raises(ValueError, match=non_finite):
                call(HOSTILE[value])



# entry: (the name the gate gives, the call) for the arguments that must be one number
ONE_NUMBER = {
    "StageUtility.cost_coefficient": (
        "cost coefficient", lambda v: StageUtility(rho=np.ones((3, 3)), cost_coefficient=v)),
    "EquilibriumResult.exploitability": ("exploitability", lambda v: result(exploitability=v)),
    "fd_gradient.h": ("finite-difference step",
                      lambda v: fd_gradient(lambda x: x.sum(axis=-1), np.ones((1, 2)), h=v)),
    "brute_force_best_response.grid_step": (
        "grid step", lambda v: brute_force_best_response(single_player_spec(), np.zeros((1, 1, 1)),
                                                         0, v)),
}


@pytest.mark.parametrize("value", [[0.1, 0.2], [0.5], [[0.5]]],
                         ids=["two-entries", "one-entry", "one-by-one"])
@pytest.mark.parametrize("entry", ONE_NUMBER)
def test_one_number_argument_refuses_an_array(entry, value):
    name, call = ONE_NUMBER[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be one number, "
                                             rf"got shape \({', '.join(map(str, np.shape(value)))},?\)$"):
            call(value)


@pytest.mark.parametrize("value", [0, 2, np.float32(0.25), np.int64(3), np.array(0.5)],
                         ids=["int", "two", "float32", "int64", "zero-dimensional"])
def test_exploitability_held_as_a_float(value):
    held = result(exploitability=value).exploitability
    assert type(held) is float and held == value


@pytest.mark.parametrize("iterations", [True, np.bool_(True), "x", 1.0, None, 0, -3],
                         ids=["bool", "numpy-bool", "string", "float", "none", "zero", "negative"])
def test_iterations_must_be_an_integer_of_at_least_one(iterations):
    with pytest.raises(ValueError, match="^iterations must be an integer of at least 1, got "):
        EquilibriumResult(profile=np.zeros((2, 1, 1)), exploitability=0.0,
                          regrets=np.zeros(2), iterations=iterations)


@pytest.mark.parametrize("profile", [np.zeros(7), np.zeros((2, 3)), np.zeros((2, 1, 1, 1))],
                         ids=["flat", "two-dimensional", "four-dimensional"])
def test_profile_must_be_one_plan_per_player(profile):
    with pytest.raises(ValueError, match=r"^profile must be one \(K, n\) plan per player, got shape "):
        result(profile=profile)


@pytest.mark.parametrize("regrets", [np.zeros(5), np.zeros(1), 0.0, np.zeros((2, 1))],
                         ids=["five", "one", "scalar", "column"])
def test_regrets_must_be_one_per_player(regrets):
    with pytest.raises(ValueError, match=r"^regrets must be one per player, got shape .* for 2 players$"):
        result(regrets=regrets)


@pytest.mark.parametrize("iterations", [np.int64(3), np.int32(3), 3],
                         ids=["int64", "int32", "int"])
def test_iterations_held_as_an_int(iterations):
    held = EquilibriumResult(profile=np.zeros((2, 1, 1)), exploitability=0.0,
                             regrets=np.zeros(2), iterations=iterations).iterations
    assert type(held) is int and held == 3
