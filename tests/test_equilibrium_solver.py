import dataclasses
import functools
import itertools
import re
import warnings

import numpy as np
import pytest

from influencegame import (
    CampaignSchedule,
    ConvergenceError,
    EquilibriumResult,
    FeasibleRegion,
    GameSpec,
    OpinionState,
    StageUtility,
    exploitability,
    payoff_gradient,
    project_budget_set,
    regret,
    run_no_regret,
    solve_equilibrium,
    solve_single,
    total_payoff,
)
from influencegame import equilibrium_solver, game_model, single_player_solver
from influencegame.cli import reference_scenario
from influencegame.equilibrium_solver import LearningTrace, _distinct_reprs, trace_to_csv
from influencegame.single_player_solver import _maximize_concave, build_region
from influencegame.verification import random_feasible_profile, random_linear_game
from conftest import (cold_projection, count_flow_builds, count_kernel_passes,
                      count_linear_solves, nested_loop_csv)


def best_fixed_plan(spec, profile, j):
    """Player j's best response to the validated ``profile``, warm-started
    at j's own plan: the (K, n) plan and its payoff."""
    profile = game_model._one_profile(spec, profile)
    plan, value, _ = equilibrium_solver._best_fixed_plan(spec, profile, j, profile[j])
    return plan.reshape(spec.K, spec.n), value


def reference_variant(spec, cost):
    """Reference two-player game with a different advertising cost."""
    rho = np.ones((3, 3))
    return GameSpec(
        network=spec.network,
        schedule=spec.schedule,
        x0=spec.x0,
        budgets=spec.budgets,
        utilities=(
            StageUtility(rho=rho, cost_coefficient=cost),
            StageUtility(rho=rho, cost_coefficient=cost),
        ),
    )


class TestProjectBudgetSet:
    def test_symmetric_excess_split(self):
        np.testing.assert_allclose(project_budget_set(np.array([2.0, 2.0]), 3.0),
                                   [1.5, 1.5])

    def test_clamp_suffices_under_cap(self):
        np.testing.assert_allclose(project_budget_set(np.array([-1.0, 2.0]), 3.0),
                                   [0.0, 2.0])

    def test_threshold_case(self):
        np.testing.assert_allclose(project_budget_set(np.array([3.0, 1.0, 0.0]), 2.0),
                                   [2.0, 0.0, 0.0], atol=1e-12)

    def test_against_dense_grid_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            dims = int(rng.integers(1, 4))
            cap = float(rng.random() + 0.1)
            v = rng.standard_normal(dims) * 2.0
            projected = project_budget_set(v, cap)
            assert projected.min() >= 0.0 and projected.sum() <= cap + 1e-9
            axis = np.arange(0.0, cap + 0.01, 0.02)
            mesh = np.stack([m.ravel() for m in np.meshgrid(*([axis] * dims))], axis=1)
            mesh = mesh[mesh.sum(axis=1) <= cap + 1e-12]
            grid_best = np.min(np.linalg.norm(mesh - v, axis=1))
            assert np.linalg.norm(projected - v) <= grid_best + 1e-9

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            cap = float(rng.random() * 3.0 + 0.1)
            u = rng.standard_normal(4) * 2.0
            v = rng.standard_normal(4) * 2.0
            pu, pv = project_budget_set(u, cap), project_budget_set(v, cap)
            np.testing.assert_allclose(project_budget_set(pu, cap), pu, atol=1e-12)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            project_budget_set(np.array([1.0]), -0.5)

    def test_scalar_point_rejected(self):
        # a 0-d point has no row to project; it once raised IndexError
        with pytest.raises(ValueError, match="vector"):
            project_budget_set(np.float64(2.0), 1.0)

    @pytest.mark.parametrize("point, cap, nearest", [
        (np.array([1e300, 0.0]), 1.0, [1.0, 0.0]),
        (np.array([1e17, 3.0, -2.0]), 1.0, [1.0, 0.0, 0.0]),
        (np.array([2.0, 1.0]), 0.0, [0.0, 0.0]),
        (np.array([-1e308, -1e308, 5.0]), 1.0, [0.0, 0.0, 1.0]),
        (np.array([-1e308, -1e308, 5.0, 3.0]), 1.0, [0.0, 0.0, 1.0, 0.0]),
        (np.array([-1e308, 1e308]), 1.0, [0.0, 1.0]),
        (np.array([1e308, 1e308, -1e308]), 1.0, [0.5, 0.5, 0.0]),
    ])
    def test_far_points_and_zero_cap_stay_feasible(self, point, cap, nearest):
        # the cap must not be lost to round-off next to a far-out top entry,
        # the water-filling count must keep the top entry at cap zero, and
        # entries far below the top must not overflow the sorted sums
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            projected = project_budget_set(point, cap)
        assert np.all(np.isfinite(projected))
        assert projected.min() >= 0.0 and projected.sum() <= cap
        np.testing.assert_array_equal(projected, nearest)

    def test_stack_equals_row_by_row(self):
        rng = np.random.default_rng(97)
        points = rng.standard_normal((8, 5)) * 2.0
        caps = rng.random(8) * 2.0
        caps[:3] = np.maximum(points[:3], 0.0).sum(axis=1) + rng.random(3)
        caps[-1] = 0.0
        over = np.maximum(points, 0.0).sum(axis=1) > caps
        assert 0 < over.sum() < len(points)
        # every row over its cap: a zero cap and a row of equal entries among them
        binding = np.vstack([np.abs(points[:7]) + 0.5, np.full((1, 5), 0.7)])
        binding_caps = np.array([0.0, 1e-300, 0.3, 1.0, 1.7, 2.0, 0.0, 2.0])
        assert (binding.sum(axis=1) > binding_caps).all()
        for stack, stack_caps in ((points, caps), (binding, binding_caps)):
            rows = np.stack([project_budget_set(p, c) for p, c in zip(stack, stack_caps)])
            assert np.array_equal(project_budget_set(stack, stack_caps), rows)
            nested = project_budget_set(stack.reshape(2, 4, 5), stack_caps.reshape(2, 4))
            assert np.array_equal(nested, rows.reshape(2, 4, 5))
            shared = np.stack([project_budget_set(p, 1.5) for p in stack])
            assert np.array_equal(project_budget_set(stack, 1.5), shared)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
    def test_empty_stack_projects_to_empty(self, shape):
        caps = np.ones(shape[0])
        for projected in (project_budget_set(np.zeros(shape), caps),
                          single_player_solver._project_rows(np.zeros(shape), caps)):
            assert projected.shape == shape

    @pytest.mark.parametrize("caps", [[1.0, np.nan], [1.0, -0.5]], ids=["nan", "negative"])
    def test_one_bad_row_cap_rejected(self, caps):
        with pytest.raises(ValueError, match="cap"):
            project_budget_set(np.ones((2, 3)), np.array(caps))


    @pytest.mark.parametrize("point, cap", [
        pytest.param(np.ones(3), np.ones(2), id="two-caps-for-one-vector"),
        pytest.param(np.ones((2, 3)), np.ones(3), id="three-caps-for-two-rows"),
        pytest.param(np.ones((2, 3)), np.ones((2, 1)), id="column-of-caps"),
    ])
    def test_cap_of_the_wrong_shape_named(self, point, cap):
        # numpy's "could not broadcast input array" once came through
        message = f"budget cap must be one number or one per row, not {np.shape(cap)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            project_budget_set(point, cap)

    @pytest.mark.parametrize("point, cap", [
        pytest.param(np.ones(3), 1.5, id="scalar"),
        pytest.param(np.ones(3), [1.5], id="one-cap-for-a-vector"),
        pytest.param(np.ones((2, 3)), [1.5], id="one-cap-for-a-stack"),
        pytest.param(np.ones((2, 3)), [1.5, 1.5], id="one-per-row"),
    ])
    def test_caps_that_fit_the_rows_accepted(self, point, cap):
        np.testing.assert_array_equal(project_budget_set(point, cap), np.full(point.shape, 0.5))

    def test_mixed_stack_with_a_row_past_the_float_range(self):
        # a row under its cap is discarded after the whole stack's
        # water-filling, which must not make a NaN of it
        points = np.array([[1e308, -1e308], [5.0, 5.0], [1.7e308, -1.7e308]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            projected = project_budget_set(points, [np.inf, 1.0, 1.7e308])
        np.testing.assert_array_equal(projected, [[1e308, 0.0], [0.5, 0.5], [1.7e308, 0.0]])

    @pytest.mark.parametrize("point, cap", [
        ([1.7e308, 1.5e308, -1.7e308], 1.7e308),
        ([1.7e308, 1.5e308, 0.0], 1.7e308),
        ([1e308, 9e307, 0.0], 1.7e308),
        (np.linspace(3e307, 0.0, 12), 3e307),  # its sorted sums overflow at the 12th entry
    ])
    def test_cap_near_the_float_maximum(self, point, cap):
        # the sorted sums reach (d + 1) caps, past the largest float, so the
        # row is projected scaled by a power of two; an ordinary row beside
        # it keeps the bits it has when projected alone
        point = np.array(point)
        ordinary = np.linspace(2.0, -1.0, point.size)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            projected = project_budget_set(point, cap)
            stack = project_budget_set(np.stack([point, ordinary]), [cap, 1.0])
            alone = project_budget_set(ordinary, 1.0)
        assert np.isfinite(projected).all() and (projected >= 0).all()
        assert projected.sum() <= cap
        assert stack[0].tobytes() == projected.tobytes()
        assert stack[1].tobytes() == alone.tobytes()


UNIT_BUDGET_REGION = FeasibleRegion(normals=np.ones((1, 2)), offsets=np.array([1.0]))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: project_budget_set(np.array([np.nan, 1.0]), 1.0), id="budget-nan"),
    pytest.param(lambda: project_budget_set(np.array([np.inf, 0.2]), 1.0), id="budget-inf"),
    pytest.param(lambda: project_budget_set(np.array([0.5, 0.2]), np.nan), id="budget-nan-cap"),
    pytest.param(lambda: project_budget_set(np.array([[0.5, 0.2], [np.inf, 0.0]]), [1.0, 2.0]),
                 id="budget-inf-in-stack"),
    pytest.param(lambda: cold_projection(np.array([np.nan, 0.2]), UNIT_BUDGET_REGION),
                 id="polytope-nan"),
    pytest.param(lambda: cold_projection(np.array([-np.inf, 0.2]), UNIT_BUDGET_REGION),
                 id="polytope-inf"),
])
def test_projections_refuse_non_finite_input(call):
    with pytest.raises(ValueError):
        call()


class TestRunNoRegret:
    def test_reference_game_per_individual_symmetry(self, two_player_spec):
        trace = run_no_regret(two_player_spec, 100)
        averaged = trace.averages[-1]
        for j in range(2):
            for k in range(2):
                stage = averaged[j, k]
                assert stage.max() - stage.min() <= 1e-2

    def test_averages_settle(self, two_player_spec):
        trace = run_no_regret(two_player_spec, 100)
        assert np.max(np.abs(trace.averages[99] - trace.averages[49])) < 0.1

    def test_iterates_stay_feasible(self, two_player_spec):
        trace = run_no_regret(two_player_spec, 50)
        for j in range(2):
            totals = trace.iterates[:, j].sum(axis=(1, 2))
            assert totals.max() <= float(two_player_spec.budgets[j]) + 1e-9
            assert trace.iterates[:, j].min() >= -1e-9

    def test_single_player_loop_matches_solver(self):
        rng = np.random.default_rng(97)
        for _ in range(2):
            spec = random_linear_game(rng, 1, int(rng.integers(1, 3)),
                                      int(rng.integers(1, 3)))
            report = solve_single(spec)
            trace = run_no_regret(spec, 400)
            last = total_payoff(spec, trace.iterates[-1], 0)
            assert abs(last - report.objective) <= 1e-4

    def test_prohibitive_cost_pins_iterates_at_zero(self, two_player_spec):
        spec = reference_variant(two_player_spec, cost=50.0)
        trace = run_no_regret(spec, 10)
        # the first update projects to the zero profile, which the dynamics fix
        np.testing.assert_array_equal(trace.iterates[1:], 0.0)

    def test_deterministic(self, two_player_spec):
        first = run_no_regret(two_player_spec, 30)
        second = run_no_regret(two_player_spec, 30)
        assert np.array_equal(first.iterates, second.iterates)
        assert trace_to_csv(first) == trace_to_csv(second)

    def test_constant_sum_identity_along_trace(self, two_player_spec):
        trace = run_no_regret(two_player_spec, 60)
        spend = trace.iterates.sum(axis=(1, 2, 3))
        total = trace.payoffs.sum(axis=1)
        np.testing.assert_allclose(total, 3.0 - spend / 3.0, atol=1e-10)

    def test_stepsize_is_ten_over_tau(self, two_player_spec):
        spec = dataclasses.replace(two_player_spec, utilities=tuple(
            StageUtility(rho=np.ones((3, 3)), cost_coefficient=0.5) for _ in range(2)))
        trace = run_no_regret(spec, 3)
        for tau, eta in enumerate((10.0, 5.0), start=1):
            plans = trace.iterates[tau - 1]
            for j in range(2):
                stepped = trace.iterates[tau - 1, j] + eta * payoff_gradient(spec, plans, j)
                expected = project_budget_set(stepped, float(spec.budgets[j]))
                np.testing.assert_allclose(trace.iterates[tau, j], expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("m", [2, 3])
    def test_one_kernel_call_and_one_projection_per_iteration(self, monkeypatch, m):
        spec = random_linear_game(np.random.default_rng(5), m=m, n=4, K=3)
        passes = count_kernel_passes(monkeypatch)
        projections = []
        project = equilibrium_solver._project_rows

        def counted(*args):
            projections.append(1)
            return project(*args)

        monkeypatch.setattr(equilibrium_solver, "_project_rows", counted)
        run_no_regret(spec, 17)
        assert (len(passes), len(projections)) == (17, 17)

    def test_one_player_steps_are_exact_projections(self, monkeypatch):
        # each of the 31 projections starts warm from the one before, so they
        # take far fewer linear solves than 211 cold starts, and each gives
        # the cold projection's point
        spec = random_linear_game(np.random.default_rng(0), 1, 3, 2)
        region = build_region(spec)
        solves = count_linear_solves(monkeypatch)
        trace = run_no_regret(spec, 30)
        monkeypatch.undo()
        assert len(solves) <= 60
        for tau in range(1, 30):
            plan = trace.iterates[tau - 1]
            stepped = plan[0] + 10.0 / tau * payoff_gradient(spec, plan, 0)
            np.testing.assert_allclose(trace.iterates[tau, 0].ravel(),
                                       cold_projection(stepped.ravel(), region),
                                       rtol=0, atol=1e-10)

    def test_budgets_at_the_float_scale_still_run(self, two_player_spec):
        spec = dataclasses.replace(two_player_spec, budgets=np.array([1e308, 1e308]))
        trace, result = solve_equilibrium(spec, 3)
        assert np.all(np.isfinite(trace.iterates)) and np.isfinite(result.exploitability)

    def test_averages_are_the_running_mean_of_the_iterates(self, two_player_spec):
        trace = run_no_regret(two_player_spec, 50)
        running_sum = np.zeros(trace.iterates.shape[1:])
        for tau, iterate in enumerate(trace.iterates, start=1):
            running_sum += iterate
            assert np.array_equal(trace.averages[tau - 1], running_sum / tau)
        assert trace.averages is trace.averages
        with pytest.raises(ValueError):
            trace.averages[0, 0, 0, 0] = 1.0
        assert [f.name for f in dataclasses.fields(LearningTrace)] == [
            "spec", "iterates", "payoffs"]


class TestRegret:
    def test_single_iteration_definition(self, two_player_spec):
        trace = run_no_regret(two_player_spec, 1)
        for j in range(2):
            value = regret(trace, j, horizon=1)
            _, br_payoff = best_fixed_plan(two_player_spec, trace.iterates[0], j)
            assert value == pytest.approx(br_payoff - trace.payoffs[0, j], abs=1e-8)
            assert value >= -1e-9

    def test_constant_objectives_give_zero_regret(self, path_network):
        # rho = 0 and no cost: every payoff is identically zero
        rho = np.zeros((2, 3))
        spec = GameSpec(
            network=path_network,
            schedule=CampaignSchedule(times=np.array([0.0, 1.0, 2.0])),
            x0=OpinionState(np.full((3, 2), 0.5)),
            budgets=np.array([1.0, 1.0]),
            utilities=(
                StageUtility(rho=rho, cost_coefficient=0.0),
                StageUtility(rho=rho, cost_coefficient=0.0),
            ),
        )
        trace = run_no_regret(spec, 5)
        assert regret(trace, 0) == pytest.approx(0.0, abs=1e-10)

    def test_time_average_decreases(self, two_player_spec):
        trace = run_no_regret(two_player_spec, 80)
        for j in range(2):
            ratios = [regret(trace, j, horizon=T) / T for T in (10, 20, 40, 80)]
            assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestHindsightObjective:
    @pytest.mark.parametrize("horizon", [1, 7])
    def test_batched_pass_equals_sum_over_played_profiles(self, horizon):
        rng = np.random.default_rng(101)
        spec = random_linear_game(rng, 3, 4, 3)
        iterates = np.stack([random_feasible_profile(rng, spec) for _ in range(horizon)])
        own = random_feasible_profile(rng, spec)
        for j in range(spec.m):
            evaluate = game_model._objective_for_player(spec, iterates, j)
            value, gradient = evaluate(own[j].ravel())
            expected_value, expected_gradient = 0.0, np.zeros((spec.K, spec.n))
            for played in iterates:
                profile = played.copy()
                profile[j] = own[j]
                plans = profile
                expected_value += total_payoff(spec, plans, j)
                expected_gradient += payoff_gradient(spec, plans, j)
            assert value == pytest.approx(expected_value, abs=1e-12)
            np.testing.assert_allclose(gradient, expected_gradient.ravel(), rtol=0, atol=1e-12)


class TestPropagatorBuilds:
    def test_reference_run_builds_each_gap_once(self, two_player_spec, monkeypatch):
        builds = count_flow_builds(monkeypatch)
        trace = run_no_regret(two_player_spec, 20)
        exploitability(two_player_spec, trace.averages[-1])
        for j in range(two_player_spec.m):
            regret(trace, j)
        # one builder call and one matrix per gap, for the whole game
        assert builds == [(two_player_spec.n, two_player_spec.n)] * (two_player_spec.K + 1)

    def test_single_player_solve_builds_each_gap_once(self, monkeypatch):
        spec = random_linear_game(np.random.default_rng(5), 1, 4, 3)
        builds = count_flow_builds(monkeypatch)
        solve_single(spec)
        assert builds == [(spec.n, spec.n)] * (spec.K + 1) == [(4, 4)] * 4


class TestKernelConstants:
    def test_constants_are_read_only(self, two_player_spec):
        constants = two_player_spec.kernel
        arrays = [*constants[:5], *constants.gaps, *constants.gaps_transposed]
        assert all(not array.flags.writeable for array in arrays)
        with pytest.raises(ValueError, match="read-only"):
            constants.opinion_gradient[0, 0, 0] = 1.0

    def test_reference_run_builds_them_once(self, two_player_spec, monkeypatch):
        builds = []
        original = game_model.GameSpec.kernel.func

        def counting(spec):
            builds.append(spec)
            return original(spec)

        cached = functools.cached_property(counting)
        cached.__set_name__(game_model.GameSpec, "kernel")
        monkeypatch.setattr(game_model.GameSpec, "kernel", cached)
        trace = run_no_regret(two_player_spec, 20)
        exploitability(two_player_spec, trace.averages[-1])
        for j in range(two_player_spec.m):
            regret(trace, j)
        assert builds == [two_player_spec]

    def test_two_runs_on_one_game_agree_exactly(self, two_player_spec):
        # a write into a shared cached array would make the second run differ
        first_trace, first = solve_equilibrium(two_player_spec, 30)
        second_trace, second = solve_equilibrium(two_player_spec, 30)
        assert np.array_equal(first_trace.iterates, second_trace.iterates)
        assert np.array_equal(first_trace.payoffs, second_trace.payoffs)
        assert np.array_equal(first.profile, second.profile)
        assert first.exploitability == second.exploitability
        assert np.array_equal(first.regrets, second.regrets)


class TestIterationCounts:
    @pytest.mark.parametrize("T", [2.0, True, np.float64(3.0), "3", None])
    @pytest.mark.parametrize("entry", [run_no_regret, solve_equilibrium])
    def test_non_integer_counts_refused_before_any_kernel_pass(self, two_player_spec,
                                                               monkeypatch, entry, T):
        passes = count_kernel_passes(monkeypatch)
        with pytest.raises(ValueError, match="iteration count must be an integer"):
            entry(two_player_spec, T)
        assert passes == []

    @pytest.mark.parametrize("j", [True, False, 1.0, np.float64(0.0)])
    def test_non_integer_player_refused_before_any_kernel_pass(self, two_player_spec,
                                                               monkeypatch, j):
        trace = run_no_regret(two_player_spec, 4)
        passes = count_kernel_passes(monkeypatch)
        with pytest.raises(ValueError, match="player index must be an integer"):
            regret(trace, j)
        assert passes == []

    def test_negative_player_counts_from_the_last(self, two_player_spec):
        trace = run_no_regret(two_player_spec, 4)
        assert regret(trace, -1) == regret(trace, np.int64(1)) == regret(trace, 1)

    @pytest.mark.parametrize("horizon", [2.7, 2.0, True, np.float64(1.0)])
    def test_non_integer_horizon_refused(self, two_player_spec, horizon):
        trace = run_no_regret(two_player_spec, 4)
        with pytest.raises(ValueError, match="horizon must be an integer"):
            regret(trace, 0, horizon)

    @pytest.mark.parametrize("horizon", [None, 0, 1])
    def test_empty_trace_refused_before_its_horizon(self, two_player_spec, horizon):
        trace = LearningTrace(two_player_spec, np.zeros((0, 2, 2, 3)), np.zeros((0, 2)))
        with pytest.raises(ValueError, match="^the trace records no iterations"):
            regret(trace, 0, horizon)

    def test_numpy_integers_accepted(self, two_player_spec):
        trace = run_no_regret(two_player_spec, np.int64(4))
        assert trace.iterations == 4
        assert regret(trace, 0, np.int32(3)) == regret(trace, 0, 3)


class TestMaximizeConcave:
    def test_wrong_sign_gradient_raises_instead_of_descending(self, monkeypatch):
        # value -1e10 (x1 + x2) reported with the opposite gradient: every
        # step along it descends.  In units of c = 1e10 the line search
        # accepts a step of about 3e-14, whose loss is within its round-off
        # allowance of 1e-13; so each of the three accepted steps loses at
        # most 1e-13 c, and then the step budget runs out
        slope = np.full(2, 1e10)

        def evaluate(x):
            return float(-slope @ x), slope.copy()

        monkeypatch.setattr(single_player_solver, "ASCENT_MAX_STEPS", 3)
        with pytest.raises(ConvergenceError) as excinfo:
            _maximize_concave(evaluate, lambda v: v, np.zeros(2))
        assert evaluate(excinfo.value.last_iterate)[0] >= -3 * 1e-13 * 1e10

    def test_line_search_exhaustion_carries_the_projected_start(self):
        # every point but the projected start is worth -inf, so no candidate
        # clears the ascent model and the 80 halvings run out there
        def project(v):
            return project_budget_set(v, 1.0)

        first = project(np.array([2.0, -1.0, 0.5]))
        evaluations = []

        def evaluate(x):
            evaluations.append(x)
            return (1.0 if np.array_equal(x, first) else -np.inf), np.array([-1.0, 1.0, 0.0])

        with pytest.raises(ConvergenceError,
                           match="^line search found no ascent step in 80 halvings$") as excinfo:
            _maximize_concave(evaluate, project, np.array([2.0, -1.0, 0.5]))
        assert excinfo.value.last_iterate.tobytes() == first.tobytes()
        assert np.isfinite(excinfo.value.residual) and excinfo.value.residual > 0.0
        assert len(evaluations) == 81

    def test_ill_conditioned_quadratic_reaches_enumerated_optimum(self, monkeypatch):
        # c'b - b'Qb/2 with cond(Q) = 1e4 over {b >= 0, sum(b) <= cap}; the
        # gradients are of order one, like the game payoffs', so the 1e-9
        # stopping bound sits well above round-off
        d, cap = 6, 4.0
        rng = np.random.default_rng(0)
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        Q = basis @ np.diag(np.logspace(-4, 0, d)) @ basis.T
        c = rng.uniform(-1, 1, d)
        # independent route: the one support and cap state whose KKT system
        # gives a feasible point with nonnegative multipliers
        optima = []
        for size in range(1, d + 1):
            for support in map(list, itertools.combinations(range(d), size)):
                for cap_binds in (False, True):
                    b = np.zeros(d)
                    if cap_binds:
                        kkt = np.block([[Q[np.ix_(support, support)], np.ones((size, 1))],
                                        [np.ones((1, size)), np.zeros((1, 1))]])
                        solution = np.linalg.solve(kkt, np.append(c[support], cap))
                        b[support], price = solution[:-1], solution[-1]
                    else:
                        b[support] = np.linalg.solve(Q[np.ix_(support, support)], c[support])
                        price = 0.0
                    slack = np.delete(Q @ b - c + price, support)
                    if (b[support].min() > 0 and b.sum() <= cap and price >= 0
                            and np.all(slack >= 0)):
                        optima.append(b)
        assert len(optima) == 1
        optimum = optima[0]
        assert 0 < np.count_nonzero(optimum) < d  # zero and free coordinates

        evaluations = []

        def evaluate(x):
            evaluations.append(x)
            return float(c @ x - 0.5 * x @ Q @ x), c - Q @ x

        monkeypatch.setattr(single_player_solver, "ASCENT_TOL", 1e-9)
        point, value, residual, values = _maximize_concave(
            evaluate, lambda v: project_budget_set(v, cap), np.zeros(d)
        )
        assert residual <= 1e-9
        # with curvature between mu = 1e-4 and L = 1 and a probe step s <= 1,
        # the certificate bounds the distance to the optimum by (1 + s L) / mu
        # times the residual
        assert np.linalg.norm(point - optimum) <= 2.0 / 1e-4 * residual
        assert value == pytest.approx(c @ optimum - 0.5 * optimum @ Q @ optimum, abs=1e-12)
        # the value it returns is the one it measured at the point
        assert values[-1] == value == evaluate(point)[0]
        assert np.diff(values).min() >= -1e-13 * max(1.0, abs(values[0]))
        assert len(evaluations) < 200

    def test_linear_objective_grows_the_step_by_half_up_to_the_clamp(self, monkeypatch):
        # a constant gradient gives s'y = 0, so no Barzilai-Borwein step; on
        # this unbounded objective the growth stops at 1e6 instead of inf,
        # and the step budget runs out
        slope = np.array([0.5, 1.0])  # max|g| <= 1, so the ascent's unit c is 1
        points = []

        def evaluate(x):
            points.append(x)
            return float(slope @ x), slope.copy()

        monkeypatch.setattr(single_player_solver, "ASCENT_MAX_STEPS", 100)
        with pytest.raises(ConvergenceError) as excinfo:
            _maximize_concave(evaluate, lambda v: v, np.zeros(2))
        # every candidate ascends, so the last one evaluated was accepted
        assert len(points) == 101
        np.testing.assert_array_equal(excinfo.value.last_iterate, points[-1])
        steps = [(b - a)[0] / slope[0] for a, b in zip(points, points[1:])]
        assert steps[:5] == [1.0, 1.5, 2.25, 3.375, 5.0625]
        assert max(steps) == pytest.approx(1e6) == steps[-1]

    @pytest.mark.parametrize("seed, n, K, budget", [
        (0, 10, 3, None), (1, 10, 3, None), (2, 10, 3, None), (0, 5, 3, 3.0), (0, 6, 2, 3.0),
    ])
    def test_linear_single_player_gradient_is_constant(self, seed, n, K, budget):
        # the payoff is linear on the polytope, so solve_single reads its
        # gradient once, at the zero plan
        spec = random_linear_game(np.random.default_rng(seed), 1, n, K)
        if budget is not None:
            spec = dataclasses.replace(spec, budgets=np.array([budget]))
        evaluate = game_model._objective_for_player(spec, np.zeros((1, K, n)), 0)
        plan = cold_projection(np.random.default_rng(seed).random(K * n), build_region(spec))
        np.testing.assert_array_equal(evaluate(np.zeros(K * n))[1], evaluate(plan)[1])


class TestAscentPasses:
    @pytest.mark.parametrize("n, K, T", [(10, 3, 100), (50, 4, 50)])
    def test_diagnostics_kernel_passes(self, monkeypatch, n, K, T):
        # exploitability plus three hindsight regrets: 4 757 kernel passes on
        # the n = 10 game and 13 635 on the n = 50 game with the x1.5 step rule
        spec = random_linear_game(np.random.default_rng(0), m=3, n=n, K=K)
        trace = run_no_regret(spec, T)
        passes = count_kernel_passes(monkeypatch)
        gap = exploitability(spec, trace.averages[-1])
        regrets = [regret(trace, j) for j in range(spec.m)]
        assert gap >= -1e-8
        assert np.all(np.isfinite(regrets))
        assert len(passes) <= 300

    def test_reference_game_regrets_kernel_passes(self, monkeypatch):
        # each hindsight objective sums 400 payoff gradients; a first trial
        # step of 1 in payoff units went about 400 times too far and took
        # some ten halvings (13 + 15 passes), one in units of the starting
        # gradient takes none (4 + 4 from the average played plan, 2 + 2
        # from the last one)
        spec = reference_scenario().spec
        trace = run_no_regret(spec, 400)
        passes = count_kernel_passes(monkeypatch)
        regrets = [regret(trace, j) for j in range(spec.m)]
        assert np.all(np.isfinite(regrets))
        assert len(passes) <= 4


class TestBestResponseCertificate:
    @pytest.mark.parametrize("seed", range(5))
    def test_residual_bounds_the_value_gap(self, monkeypatch, seed):
        # f* - f(x) <= r (D + s ||g(x)||) with probe step s <= 1 and
        # D = sqrt(2) cap, the diameter of the budget set
        spec = random_linear_game(np.random.default_rng(seed), 3, 10, 3)
        profile = run_no_regret(spec, 20).averages[-1]
        ascent = single_player_solver._maximize_concave
        residuals = []

        def recording(*args):
            result = ascent(*args)
            residuals.append(result[2])
            return result

        monkeypatch.setattr(equilibrium_solver, "_maximize_concave", recording)
        for j in range(spec.m):
            monkeypatch.setattr(single_player_solver, "ASCENT_TOL", 1e-13)
            _, reference = best_fixed_plan(spec, profile, j)
            monkeypatch.setattr(single_player_solver, "ASCENT_TOL", 1e-3)
            plan, value = best_fixed_plan(spec, profile, j)
            played = profile.copy()
            played[j] = plan
            gradient = payoff_gradient(spec, played, j)
            diameter = np.sqrt(2.0) * spec.budgets[j]
            bound = residuals[-1] * (diameter + np.linalg.norm(gradient))
            assert 0.0 <= reference - value <= bound


class TestExploitability:
    def test_zero_profile_is_equilibrium_at_unit_cost(self, two_player_spec):
        # at cost 1 the stage-1 gradient at the origin vanishes exactly and
        # stage 2 is strictly unprofitable: nobody can gain by deviating
        value = exploitability(two_player_spec, np.zeros((2, 2, 3)))
        assert -1e-8 <= value <= 1e-4

    def test_zero_profile_exploitable_at_lower_cost(self, two_player_spec):
        spec = reference_variant(two_player_spec, cost=0.8)
        zero = np.zeros((2, 2, 3))
        gradient = payoff_gradient(spec, zero, 0)
        assert gradient[0].max() > 0  # investing at the first campaign pays
        assert exploitability(spec, zero) > 1e-4

    @pytest.mark.parametrize("power", [26, 37])
    def test_not_negative_at_large_weights(self, two_player_spec, power):
        # each ascent here ends within an ulp of its start, the played plan,
        # which the best fixed plan earns at least
        scale = 3.0 ** power
        spec = dataclasses.replace(two_player_spec, utilities=tuple(
            dataclasses.replace(u, rho=u.rho * scale, cost_coefficient=u.cost_coefficient * scale)
            for u in two_player_spec.utilities))
        assert exploitability(spec, np.zeros((2, 2, 3))) >= 0.0

    def test_decreases_along_averaging(self, two_player_spec):
        trace = run_no_regret(two_player_spec, 400)
        early = exploitability(two_player_spec, trace.averages[99])
        late = exploitability(two_player_spec, trace.averages[399])
        assert late < early

    def test_result_invariant(self):
        with pytest.raises(ValueError):
            EquilibriumResult(profile=np.zeros((2, 1, 1)), exploitability=-1.0,
                              regrets=np.zeros(2), iterations=1)

    @pytest.mark.parametrize("gap, regrets", [
        (np.nan, [0.0, 0.0]), (np.inf, [0.0, 0.0]), (0.0, [0.0, np.nan]), (0.0, [-np.inf, 0.0]),
    ])
    def test_result_refuses_non_finite_diagnostics(self, gap, regrets):
        with pytest.raises(ValueError, match="must be finite"):
            EquilibriumResult(profile=np.zeros((2, 1, 1)), exploitability=gap,
                              regrets=np.array(regrets), iterations=1)


class TestBestFixedPlan:
    """Exploitability and regret solve one subproblem."""

    @pytest.mark.parametrize("game", ["reference", "three-player"])
    def test_exploitability_is_the_largest_one_iterate_regret(self, two_player_spec, game):
        spec = (two_player_spec if game == "reference"
                else random_linear_game(np.random.default_rng(0), 3, 10, 3))
        profile = run_no_regret(spec, 50).averages[-1]
        payoffs = np.array([[total_payoff(spec, profile, j) for j in range(spec.m)]])
        trace = LearningTrace(spec=spec, iterates=profile[None], payoffs=payoffs)
        assert exploitability(spec, profile) == max(regret(trace, j) for j in range(spec.m))

    def test_negative_player_index_counts_from_the_last(self):
        spec = random_linear_game(np.random.default_rng(0), 3, 10, 3)
        trace = run_no_regret(spec, 20)
        profile = trace.averages[-1]
        plan, value = best_fixed_plan(spec, profile, -1)
        last_plan, last_value = best_fixed_plan(spec, profile, spec.m - 1)
        assert np.array_equal(plan, last_plan) and value == last_value
        assert regret(trace, -1) == regret(trace, spec.m - 1)


class TestBudgetUnits:
    """The best fixed plans ascend in units of max(1, budget)."""

    @pytest.mark.parametrize("player", [0, 1])
    def test_budget_of_1e16_ends(self, player):
        # in plan units the stopping rule asked a plan of 1e16 for a step
        # norm of 1e-9 and ran out of 2000 accepted steps
        spec = reference_scenario().spec
        budgets = spec.budgets.copy()
        budgets[player] = 1e16
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, result = solve_equilibrium(dataclasses.replace(spec, budgets=budgets), 5)
        assert np.isfinite(result.exploitability) and np.isfinite(result.regrets).all()

    def test_budget_at_most_1_ascends_in_plan_units(self):
        spec = random_linear_game(np.random.default_rng(0), 3, 10, 3)
        assert spec.budgets.max() <= 1.0
        trace = run_no_regret(spec, 20)
        for j in range(spec.m):
            plan, value, start = equilibrium_solver._best_fixed_plan(
                spec, trace.iterates, j, trace.iterates[-1, j])
            direct = _maximize_concave(
                game_model._objective_for_player(spec, trace.iterates, j),
                lambda v: project_budget_set(v, spec.budgets[j]), trace.iterates[-1, j])
            np.testing.assert_array_equal(plan, direct[0])
            assert (value, start) == (direct[1], direct[3][0])


class TestFloatScale:
    """Float-scale games raise FloatingPointError from the library itself,
    without a numpy warning and without a NaN in the result."""

    @pytest.mark.parametrize("T, cost", [(3, 10.0), (50, 1.0)],
                             ids=["cost-times-budget", "hindsight-sum"])
    def test_overflow_raises_without_a_warning(self, two_player_spec, T, cost):
        # lambda = 10 overflows the payoff value in the run, and at T = 50
        # the hindsight payoff sum overflows in regret
        spec = reference_variant(
            dataclasses.replace(two_player_spec, budgets=np.array([1e308, 1e308])), cost)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow"):
                solve_equilibrium(spec, T)


class TestOnePlayerGames:
    @pytest.mark.parametrize("diagnostic", [
        pytest.param(lambda spec, trace: exploitability(spec, trace.iterates[-1]),
                     id="exploitability"),
        pytest.param(lambda spec, trace: regret(trace, 0), id="regret"),
        pytest.param(lambda spec, trace: solve_equilibrium(spec, 5), id="solve-equilibrium"),
    ])
    def test_multiplayer_diagnostics_refuse_one_player(self, diagnostic):
        # a single player's optimum is solve_single's job
        spec = random_linear_game(np.random.default_rng(0), 1, 3, 2)
        trace = run_no_regret(spec, 5)
        with pytest.raises(ValueError, match="two or more players"):
            diagnostic(spec, trace)


class TestSolveEquilibrium:
    def test_end_to_end_outputs(self, two_player_spec):
        trace, result = solve_equilibrium(two_player_spec, 40)
        assert result.iterations == 40
        assert result.exploitability >= -1e-8
        assert result.regrets.shape == (2,)
        np.testing.assert_allclose(result.profile, trace.averages[-1])
        csv_text = trace_to_csv(trace)
        header, first = csv_text.splitlines()[:2]
        assert header == "iteration,player,stage,individual,iterate_value,average_value,payoff"
        assert first.startswith("1,0,1,0,")


class TestTraceToCsv:
    # one past the block size, so a block edge is rendered too
    @pytest.mark.parametrize("T", [1, 9, equilibrium_solver.TRACE_BLOCK + 1])
    @pytest.mark.parametrize("game", ["paper", "three-player"])
    def test_matches_nested_loop_rendering(self, game, T):
        spec = (reference_scenario().spec if game == "paper"
                else random_linear_game(np.random.default_rng(3), 3, 4, 2))
        trace = run_no_regret(spec, T)
        assert trace_to_csv(trace) == nested_loop_csv(trace)

    def test_unusual_floats_render_as_their_repr(self, two_player_spec):
        iterates = run_no_regret(two_player_spec, 2).iterates.copy()
        iterates.flat[:7] = [-0.0, 5e-324, 1e300, 0.1 + 0.2, -1e-17, 2.0**60, 1 / 3]
        payoffs = np.array([[np.nan, -np.inf], [1e-310, -2.5]])
        trace = LearningTrace(spec=two_player_spec, iterates=iterates, payoffs=payoffs)
        assert trace_to_csv(trace) == nested_loop_csv(trace)

    def test_signed_zeros_and_repeats_across_a_block_edge(self, two_player_spec):
        # 0.0 and -0.0 share one column of the first block, and one value
        # and one payoff recur on either side of the block edge
        T = equilibrium_solver.TRACE_BLOCK + 1
        trace = run_no_regret(two_player_spec, T)
        iterates, payoffs = trace.iterates.copy(), trace.payoffs.copy()
        iterates[0, 0, 0, :2] = [0.0, -0.0]
        iterates[T - 2, 1, 1, 2] = iterates[T - 1, 0, 0, 1] = 0.1 + 0.2
        payoffs[T - 2, 0] = payoffs[T - 1, 1] = 1 / 3
        trace = LearningTrace(spec=two_player_spec, iterates=iterates, payoffs=payoffs)
        csv_text, payoff = trace_to_csv(trace), float(payoffs[0, 0])
        assert csv_text.splitlines()[1:3] == [f"1,0,1,0,0.0,0.0,{payoff!r}",
                                              f"1,0,1,1,-0.0,-0.0,{payoff!r}"]
        assert csv_text == nested_loop_csv(trace)

    def test_zero_iterations_render_the_header_alone(self, two_player_spec):
        spec = two_player_spec
        trace = LearningTrace(spec=spec, iterates=np.empty((0, spec.m, spec.K, spec.n)),
                              payoffs=np.empty((0, spec.m)))
        header = "iteration,player,stage,individual,iterate_value,average_value,payoff\n"
        assert trace_to_csv(trace) == nested_loop_csv(trace) == header


class TestFloatReprs:
    """``_distinct_reprs`` maps each entry, in C order, to ``repr(float(x))``,
    however often a bit pattern repeats."""

    @pytest.mark.parametrize("values", [
        pytest.param(np.array([0.0, -0.0, 0.0, -0.0]), id="signed-zeros"),
        # nan, -nan and a signalling NaN: three keys, each formatted "nan"
        pytest.param(np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                               0x7FF8000000000000], dtype=np.uint64).view(np.float64),
                     id="nan-payloads"),
        pytest.param(np.array([np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 1e-310,
                               0.1, 0.1, 1 / 3, 1 / 3, -0.0, 0.1]), id="inf-subnormal-repeats"),
        pytest.param(np.array([[0.1, 1 / 3], [0.1, -2.5]], dtype=np.float32), id="float32"),
        pytest.param(np.arange(24.0).reshape(2, 3, 4)[:, ::2, 1::2] / 7, id="non-contiguous"),
        pytest.param(np.empty((0, 3)), id="empty"),
    ])
    def test_each_entry_is_its_repr(self, values):
        strings, where = _distinct_reprs(values)
        assert [strings[i] for i in where] == [repr(float(x)) for x in np.ravel(values)]


class TestLearningTraceShapes:
    """A trace refuses arrays that disagree with its spec."""

    # the first has one stage where the K = 2 spec has two
    @pytest.mark.parametrize("shape", [(3, 2, 1, 3), (2, 2, 3), (3, 2, 2, 3, 1), (3, 3, 2, 3)])
    def test_iterates_not_shaped_for_the_spec_raise(self, two_player_spec, shape):
        with pytest.raises(ValueError, match=r"iterates must be shaped \(T, 2, 2, 3\)"):
            LearningTrace(spec=two_player_spec, iterates=np.zeros(shape),
                          payoffs=np.zeros((3, 2)))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3,), (3, 2, 1)])
    def test_payoffs_not_matching_the_iterates_raise(self, two_player_spec, shape):
        trace = run_no_regret(two_player_spec, 3)
        with pytest.raises(ValueError, match=r"payoffs must be shaped \(3, 2\)"):
            LearningTrace(spec=two_player_spec, iterates=trace.iterates,
                          payoffs=np.zeros(shape))
