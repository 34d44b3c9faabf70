import dataclasses
import itertools

import numpy as np
import pytest

from influencegame import (
    CampaignSchedule,
    GameSpec,
    OpinionState,
    StageUtility,
    brute_force_best_response,
    build_network,
    build_region,
    check_stochastic,
    fd_gradient,
    propagator,
    solve_single,
    total_payoff,
)
from influencegame import game_model, opinion_dynamics, verification
from influencegame.game_model import _MIDPOINT_TOL, _midpoint_violations
from influencegame.verification import random_feasible_profile, random_linear_game, run_suite
from conftest import single_player_spec


def stacked(matrix):
    """A replacement for ``_flow`` whose every item is ``matrix(n)``, shaped
    like the stack the builder would return."""
    def flow(adjacency, dt):
        shape = np.broadcast_shapes(adjacency.shape[:-2], np.shape(dt))
        return np.broadcast_to(matrix(adjacency.shape[-1]), shape + adjacency.shape[-2:]).copy()
    return flow


class TestFdGradient:
    def test_quadratic(self):
        result = fd_gradient(lambda x: x[:, 0] ** 2, np.array([3.0]))
        assert result.gradient[0] == pytest.approx(6.0, abs=1e-9)
        assert result.one_sided == ()

    def test_linear_is_exact(self):
        c = np.array([2.0, -1.5, 0.25])
        result = fd_gradient(lambda x: x @ c, np.array([0.3, 0.7, 0.1]))
        np.testing.assert_allclose(result.gradient, c, atol=1e-9)

    def test_game_payoff_hand_value(self):
        # one individual, two players, static network, free budgets: the
        # marginal value of the first player's first-stage unit is 1/4
        spec = GameSpec(
            network=build_network(np.array([[1.0]])),
            schedule=CampaignSchedule(times=np.array([0.0, 1.0, 2.0])),
            x0=OpinionState(np.array([[0.5, 0.5]])),
            budgets=np.array([1.0, 1.0]),
            utilities=(
                StageUtility(rho=np.ones((2, 1)), cost_coefficient=0.0),
                StageUtility(rho=np.ones((2, 1)), cost_coefficient=0.0),
            ),
        )

        def payoff(own):
            profiles = np.zeros((len(own), 2, 1, 1))
            profiles[:, 0] = own.reshape(-1, 1, 1)
            return total_payoff(spec, profiles, 0)

        result = fd_gradient(payoff, np.zeros((1, 1)))
        assert result.gradient[0, 0] == pytest.approx(0.25, abs=1e-7)

    def test_one_sided_fallback_recorded(self):
        def half_line(x):
            if np.any(x[:, 0] < 1.0):
                raise ValueError("outside domain")
            return x[:, 0] ** 2

        result = fd_gradient(half_line, np.array([1.0]), h=1e-6)
        assert result.one_sided == (0,)
        assert result.gradient[0] == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("at_zero", [False, True])
    def test_stack_matches_a_per_coordinate_loop(self, at_zero):
        # h = 1e-2 keeps round-off (about eps / h) far below the 1e-12 bound;
        # with player 0's last entry at zero its backward point is infeasible,
        # so the stacked call raises and that coordinate goes one-sided
        spec = random_linear_game(np.random.default_rng(29), 2, 3, 2)
        profile = np.full((2, 2, 3), 0.03)
        if at_zero:
            profile[0, 1, 2] = 0.0
        h = 1e-2

        def stacked(own):
            candidates = np.repeat(profile[None], len(own), axis=0)
            candidates[:, 0] = own
            return total_payoff(spec, candidates, 0)

        def one(flat):
            candidate = profile.copy()
            candidate[0] = flat.reshape(2, 3)
            return total_payoff(spec, candidate, 0)

        flat = profile[0].ravel()
        expected = []
        for step, entry in zip(h * np.eye(6), flat):
            if entry >= h:
                expected.append((one(flat + step) - one(flat - step)) / (2.0 * h))
            else:
                expected.append((-3.0 * one(flat) + 4.0 * one(flat + step)
                                 - one(flat + 2.0 * step)) / (2.0 * h))
        result = fd_gradient(stacked, profile[0], h=h)
        assert result.one_sided == ((5,) if at_zero else ())
        np.testing.assert_allclose(result.gradient.ravel(), expected, rtol=0, atol=1e-12)


    def test_fallback_evaluates_each_point_at_most_once(self):
        # coordinate 0 sits on the lower edge of the domain, coordinate 1 on
        # the upper one, coordinate 2 inside: the stacked call raises and the
        # fallback needs 4 + 3 + 2 one-row evaluations, the centre only once
        rows = []

        def boxed(x):
            if len(x) == 1:
                rows.append(tuple(x[0]))
            if np.any(x[:, 0] < 1.0) or np.any(x[:, 1] > 2.0):
                raise ValueError("outside domain")
            return x[:, 0] ** 2 + x[:, 1] ** 3 + x[:, 2]

        result = fd_gradient(boxed, np.array([1.0, 2.0, 0.5]), h=1e-6)
        assert result.one_sided == (0, 1)
        np.testing.assert_allclose(result.gradient, [2.0, 12.0, 1.0], atol=1e-5)
        assert len(rows) == 9 and len(set(rows)) == 9

    def test_plain_one_sided_quotient_when_the_two_step_point_fails(self):
        # the domain is [1, 1 + 1.5 h]: from x = 1 only the + neighbour
        # evaluates, so the gradient is (f(1 + h) - f(1)) / h = 2 + h, not
        # the second-order stencil's 2
        h = 1e-3

        def narrow(x):
            if np.any(x[:, 0] < 1.0) or np.any(x[:, 0] > 1.0 + 1.5 * h):
                raise ValueError("outside domain")
            return x[:, 0] ** 2

        result = fd_gradient(narrow, np.array([1.0]), h=h)
        assert result.one_sided == (0,)
        assert result.gradient[0] == pytest.approx(2.0 + h, rel=1e-9)

    def test_both_sides_failing_is_refused(self):
        def nowhere_but_the_point(x):
            if np.any(x[:, 0] != 1.0):
                raise ValueError("outside domain")
            return x[:, 0]

        with pytest.raises(ValueError, match="both sides of coordinate 0"):
            fd_gradient(nowhere_but_the_point, np.array([1.0]))

    @pytest.mark.parametrize("h", [0.0, -1e-5, np.nan, np.inf])
    def test_step_must_be_positive_and_finite(self, h):
        calls = []

        def evaluator(x):
            calls.append(len(x))
            return x[:, 0]

        with pytest.raises(ValueError, match="positive and finite"):
            fd_gradient(evaluator, np.array([1.0]), h=h)
        assert calls == []


def per_candidate_search(spec, profile, j, grid_step):
    """The grid search one candidate at a time: the lexicographic grid of
    [0, cap]^(K n) under the cap, a single player's points kept inside its
    polytope, the first strictly best value winning."""
    cap = float(spec.budgets[j])
    axis = np.arange(0.0, cap + grid_step / 2.0, grid_step)
    region = build_region(spec) if spec.m == 1 else None
    best_plan, best_value = None, -np.inf
    for point in itertools.product(axis, repeat=spec.K * spec.n):
        point = np.array(point)
        if point.sum() > cap + 1e-12 or (region and region.max_violation(point) > 1e-9):
            continue
        candidate = np.array(profile, dtype=float)
        candidate[j] = point.reshape(spec.K, spec.n)
        value = total_payoff(spec, candidate, j)
        if value > best_value:
            best_plan, best_value = candidate[j], value
    return best_plan, best_value


def custom_single_player_game():
    # concave in the opinions, budgets up to 1.5 so the opinion caps bind
    spec = random_linear_game(np.random.default_rng(4), 1, 2, 2)
    utility = StageUtility(
        value_fn=lambda x, b, k: np.sqrt(x).sum(-1) - 0.3 * b.sum(-1),
        opinion_grad_fn=lambda x, b, k: 0.5 / np.sqrt(x),
        budget_grad_fn=lambda x, b, k: np.full(x.shape, -0.3),
    )
    return dataclasses.replace(spec, budgets=np.array([1.5]), utilities=(utility,))


class TestBruteForce:
    @pytest.mark.parametrize("game, j, grid_step", [
        pytest.param(lambda: random_linear_game(np.random.default_rng(5), 2, 2, 2), 1, 0.1,
                     id="two-players"),
        pytest.param(lambda: random_linear_game(np.random.default_rng(6), 3, 3, 1), 2, 0.1,
                     id="three-players"),
        pytest.param(custom_single_player_game, 0, 0.1, id="custom-one-player"),
    ])
    def test_stacked_search_matches_a_per_candidate_loop(self, game, j, grid_step):
        spec = game()
        profile = random_feasible_profile(np.random.default_rng(7), spec)
        plan, value = brute_force_best_response(spec, profile, j, grid_step)
        expected_plan, expected_value = per_candidate_search(spec, profile, j, grid_step)
        np.testing.assert_array_equal(plan, expected_plan)
        assert value == pytest.approx(expected_value, rel=0, abs=1e-15)

    def test_matches_solver_on_scalar_example(self):
        spec = single_player_spec(n=1, K=1, x0=0.5, budget=1.0, cost=0.4)
        plan, value = brute_force_best_response(spec, np.zeros((1, 1, 1)), 0, 0.01)
        assert plan[0, 0] == pytest.approx(0.5, abs=0.011)
        report = solve_single(spec)
        assert value == pytest.approx(report.objective, abs=1e-6)

    def test_zero_cap_returns_zero_plan(self):
        spec = single_player_spec(n=1, K=1, x0=0.5, budget=0.0, cost=0.4)
        plan, value = brute_force_best_response(spec, np.zeros((1, 1, 1)), 0, 0.01)
        np.testing.assert_array_equal(plan, 0.0)
        assert value == pytest.approx(0.5)

    def test_tie_break_is_lexicographically_smallest(self):
        # zero weights and zero cost: every grid point scores the same
        spec = single_player_spec(n=2, K=1, x0=0.5, budget=0.4, rho=0.0, cost=0.0)
        plan, _ = brute_force_best_response(spec, np.zeros((1, 1, 2)), 0, 0.1)
        np.testing.assert_array_equal(plan, 0.0)

    @pytest.mark.parametrize("grid_step", [0.0, -0.1, np.nan, np.inf])
    def test_grid_step_must_be_positive_and_finite(self, monkeypatch, grid_step):
        def no_evaluation(*args):
            raise AssertionError("evaluated before the step was checked")

        monkeypatch.setattr(verification, "_batched_single_player_search", no_evaluation)
        monkeypatch.setattr(verification, "total_payoff", no_evaluation)
        for spec in (single_player_spec(n=1, K=1), custom_single_player_game()):
            profile = np.zeros((1, spec.K, spec.n))
            with pytest.raises(ValueError, match="positive and finite"):
                brute_force_best_response(spec, profile, 0, grid_step)

    @pytest.mark.parametrize("j, error, match", [
        *(pytest.param(j, ValueError, "player index must be an integer", id=repr(j))
          for j in (True, False, 1.0, np.float64(0.0), "1", None)),
        pytest.param(2, IndexError, None, id="past-the-last"),
        pytest.param(-3, IndexError, None, id="before-the-first"),
    ])
    def test_player_index_checked_before_any_grid(self, monkeypatch, j, error, match):
        def no_grid(*args):
            raise AssertionError("grid built before the player index was checked")

        monkeypatch.setattr(verification, "_grid_candidates", no_grid)
        spec = random_linear_game(np.random.default_rng(0), 2, 2, 1)
        with pytest.raises(error, match=match):
            brute_force_best_response(spec, np.zeros((2, 1, 2)), j, 0.5)

    def test_dimension_guard(self):
        spec = single_player_spec(n=3, K=2, x0=0.5, budget=1.0)
        with pytest.raises(ValueError):
            brute_force_best_response(spec, np.zeros((1, 2, 3)), 0, 0.1)

    def test_multiplayer_grid(self, two_player_spec):
        # opponent abstains; the grid picks a better response than abstaining
        from influencegame import CampaignSchedule, OpinionState

        spec = GameSpec(
            network=two_player_spec.network,
            schedule=CampaignSchedule(times=np.array([0.0, 1.0, 2.0])),
            x0=OpinionState(np.full((3, 2), 0.5)),
            budgets=np.array([1.0, 1.0]),
            utilities=tuple(
                StageUtility(rho=np.ones((2, 3)), cost_coefficient=0.5) for _ in range(2)
            ),
        )
        plan, value = brute_force_best_response(spec, np.zeros((2, 1, 3)), 0, 0.25)
        base = total_payoff(spec, np.zeros((2, 1, 3)), 0)
        assert value >= base


class TestCheckStochastic:
    def test_identity_passes(self):
        assert check_stochastic(np.eye(4)).passed

    def test_propagators_pass(self, path_network):
        rng = np.random.default_rng(101)
        for _ in range(50):
            report = check_stochastic(
                propagator(path_network, float(rng.random() * 100))
            )
            assert report.passed

    def test_deficient_row_reported(self):
        matrix = np.array([[0.5, 0.4], [0.5, 0.5]])
        report = check_stochastic(matrix)
        assert not report.passed
        assert report.row_sum_violation == pytest.approx(0.1)

    def test_entry_below_the_negativity_bound_refused(self):
        matrix = (1.0 + 5e-11) * np.eye(3) - 5e-11 * np.roll(np.eye(3), 1, axis=1)
        report = check_stochastic(matrix)
        assert not report.passed
        assert report.negativity_violation == pytest.approx(5e-11)

    def test_stack_reports_the_worst_of_its_matrices(self, path_network):
        good = propagator(path_network, 0.7)
        matrices = {
            "good": good,
            "nan": np.full((3, 3), np.nan),
            "short-row": np.diag([0.9, 1.0, 1.0]),
            "negative": (1.0 + 5e-11) * np.eye(3) - 5e-11 * np.roll(np.eye(3), 1, axis=1),
            "nan-and-negative": np.where(np.eye(3) > 0, np.nan, -0.5),
        }
        for size in range(1, len(matrices) + 1):
            for names in itertools.permutations(matrices, size):
                reports = [check_stochastic(matrices[name]) for name in names]
                stack = check_stochastic(np.stack([matrices[name] for name in names]))
                assert stack.passed is all(report.passed for report in reports)
                for field in ("row_sum_violation", "negativity_violation"):
                    worst = np.max([getattr(report, field) for report in reports])
                    np.testing.assert_equal(getattr(stack, field), worst)
        nested = np.stack([good, matrices["negative"], good, matrices["short-row"]])
        assert check_stochastic(nested.reshape(2, 2, 3, 3)) == check_stochastic(nested)

    @pytest.mark.parametrize("seed", range(5))
    def test_lemma_record_equals_the_per_matrix_reports(self, seed):
        # the suite builds one stack per size; its record must equal checking
        # the same 500 draws one matrix at a time
        rng = np.random.default_rng(seed)
        reports = []
        for _ in range(500):
            network = verification.random_network(rng, int(rng.integers(2, 9)))
            t = float(rng.random() * 100.0)
            reports.append(check_stochastic(opinion_dynamics._flow(network.adjacency, t)))
        record = run_suite("lemmas", seed=seed)["checks"][0]
        assert record == {
            "name": "propagator-stochasticity",
            "passed": all(report.passed for report in reports),
            "worst_row_sum_violation": max(r.row_sum_violation for r in reports),
            "worst_negativity": max(r.negativity_violation for r in reports),
        }

    @pytest.mark.parametrize("flow", [
        pytest.param(stacked(lambda n: np.full((n, n), np.nan)), id="nan"),
        pytest.param(stacked(lambda n: np.diag(np.r_[0.9, np.ones(n - 1)])), id="short-row"),
        pytest.param(stacked(lambda n: (1.0 + 5e-11) * np.eye(n)
                             - 5e-11 * np.roll(np.eye(n), 1, axis=1)), id="negative-5e-11"),
        pytest.param(opinion_dynamics._flow, id="propagator"),
    ])
    def test_one_verdict_for_propagator_and_suite(self, monkeypatch, path_network, flow):
        # the same builder output is refused by ``propagator`` and failed by
        # the lemma suite exactly when ``check_stochastic`` fails it
        passed = check_stochastic(flow(path_network.adjacency, 0.7)).passed
        with monkeypatch.context() as patch:
            patch.setattr(opinion_dynamics, "_flow", flow)
            if passed:
                propagator(path_network, 0.7)
            else:
                with pytest.raises(ValueError, match="row-stochastic"):
                    propagator(path_network, 0.7)
        # the suite's random games need working propagators of their own
        monkeypatch.setattr(verification, "_flow", flow)
        record = run_suite("lemmas", seed=0)["checks"][0]
        assert record["name"] == "propagator-stochasticity"
        assert record["passed"] is passed


def worst_violation(function, points):
    """The midpoint rule's worst violation over the pairs (points[2i], points[2i+1])."""
    return float(np.max(_midpoint_violations(function, points[0::2], points[1::2])))


class TestMidpointConvexity:
    def test_reciprocal_is_convex(self):
        points = np.random.default_rng(0).random((200, 1)) * 5.0
        assert worst_violation(lambda y: 1.0 / (1.0 + y[:, 0]), points) <= _MIDPOINT_TOL

    def test_two_factor_product_is_convex(self):
        # h(y) = 1 / ((1 + y1)(2 + y2)): Hessian determinant is
        # 3 / ((1+y1)^4 (2+y2)^4) > 0 with positive diagonal, so h is convex
        points = np.random.default_rng(0).random((400, 2)) * 4.0
        function = lambda y: 1.0 / ((1.0 + y[:, 0]) * (2.0 + y[:, 1]))
        assert worst_violation(function, points) <= _MIDPOINT_TOL

    def test_concave_function_fails(self):
        points = np.random.default_rng(0).random((100, 1)) * 2.0 + 0.5
        assert worst_violation(lambda y: -(y[:, 0] ** 2), points) > _MIDPOINT_TOL

    @pytest.mark.parametrize("function", [
        pytest.param(lambda y: np.full(len(y), np.nan), id="all-nan"),
        pytest.param(lambda y: np.where(np.arange(len(y)) == 7, np.nan, y[:, 0] ** 2),
                     id="one-nan"),
    ])
    def test_nan_value_fails(self, function):
        worst = worst_violation(function, np.random.default_rng(0).random((20, 1)))
        assert not worst <= _MIDPOINT_TOL
        assert np.isnan(worst)

    def test_one_rule_judges_the_suites_and_the_admission(self):
        assert verification._midpoint_violations is game_model._midpoint_violations
        assert verification._MIDPOINT_TOL is game_model._MIDPOINT_TOL


class TestRandomFeasibleProfile:
    @staticmethod
    def per_player(rng, spec):
        """Each player's weights and budget fraction drawn in turn."""
        profile = np.empty((spec.m, spec.K, spec.n))
        for j in range(spec.m):
            raw = rng.random((spec.K, spec.n)) + 1e-3
            target = float(spec.budgets[j]) * (0.3 + 0.5 * rng.random())
            profile[j] = raw / raw.sum() * target
        return profile

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n, K", [(1, 1), (3, 2), (10, 3)])
    def test_equals_the_per_player_draws(self, m, n, K):
        spec = random_linear_game(np.random.default_rng(m), m, n, K)
        for seed in range(5):
            block, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                np.testing.assert_array_equal(random_feasible_profile(block, spec),
                                              self.per_player(loop, spec))
            assert block.random() == loop.random()  # the stream goes on as before


class TestSuites:
    @pytest.mark.parametrize("name", ["gradients", "oracles"])
    def test_suites_pass(self, name):
        report = run_suite(name, seed=1)
        assert report["passed"], report

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    @pytest.mark.parametrize("seed", range(5))
    def test_reciprocal_record_equals_the_probe_reports(self, seed):
        # the suite's record must equal judging the same 200 probe functions,
        # each on the 20 pairs its own seed draws as one block
        rng = np.random.default_rng(seed)
        for _ in range(500):  # the stochasticity check's draws come first
            verification.random_network(rng, int(rng.integers(2, 9)))
            rng.random()
        worst = []
        for _ in range(200):
            d, width = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            a = rng.random(d) * 2.0 + 0.1
            w = rng.random((d, width)) * 2.0

            def function(y, a=a, w=w, d=d, width=width):
                y = y.reshape(-1, d, width)
                return np.prod(1.0 / (a + np.einsum("ij,bij->bi", w, y)), axis=-1)

            points = np.random.default_rng(int(rng.integers(1 << 30))).random((40, d * width))
            worst.append(worst_violation(function, points * 3.0))
        record = run_suite("lemmas", seed=seed)["checks"][1]
        assert record == {
            "name": "reciprocal-product-convexity",
            "passed": max(worst) <= _MIDPOINT_TOL,
            "worst_violation": max(worst),
        }

    def test_over_budget_projection_fails_projection_vs_grid(self, monkeypatch):
        # clamping alone is never farther from the point than the projection,
        # so only the feasibility half of the verdict can fail it
        monkeypatch.setattr(verification, "project_budget_set", lambda v, cap: np.maximum(v, 0.0))
        report = run_suite("oracles", seed=0)
        record = next(c for c in report["checks"] if c["name"] == "projection-vs-grid")
        assert record["passed"] is False and report["passed"] is False
        assert record["worst_distance_excess"] <= 1e-9

    @pytest.mark.parametrize("target, replacement, suite, check, value", [
        pytest.param("total_payoff", lambda spec, profile, j: np.full(profile.shape[:-3], np.nan),
                     "gradients", "analytic-vs-finite-difference", "max_relative_error",
                     id="finite-difference-error"),
        pytest.param("total_payoff", lambda spec, profile, j: np.full(profile.shape[:-3], np.nan),
                     "lemmas", "payoff-convex-in-opponents", "worst_violation",
                     id="payoff-convexity"),
        pytest.param("opinions_at_campaigns",
                     lambda spec, profile: np.full(profile.shape[:-3] + (spec.K + 1, spec.n,
                                                                         spec.m), np.nan),
                     "lemmas", "opinions-convex-in-opponents", "worst_violation",
                     id="opinion-convexity"),
        pytest.param("total_payoff", lambda spec, profile, j: np.full(profile.shape[:-3], np.nan),
                     "lemmas", "single-player-objective-concavity", "worst_violation",
                     id="single-player-concavity"),
        pytest.param("_flow", stacked(lambda n: np.full((n, n), np.nan)),
                     "lemmas", "propagator-stochasticity", "worst_row_sum_violation",
                     id="propagator-stochasticity"),
        pytest.param("_midpoint_violations",
                     lambda function, y, y_hat: np.full(len(y), np.nan),
                     "lemmas", "reciprocal-product-convexity", "worst_violation",
                     id="reciprocal-product-convexity"),
    ])
    def test_nan_fails_the_check(self, monkeypatch, target, replacement, suite, check, value):
        monkeypatch.setattr(verification, target, replacement)
        report = run_suite(suite, seed=0)
        record = next(c for c in report["checks"] if c["name"] == check)
        assert record["passed"] is False and report["passed"] is False
        assert record[value] is None  # a NaN value is recorded as JSON null

    @pytest.mark.parametrize("replacement, failed, held", [
        pytest.param(stacked(lambda n: 0.9 * np.eye(n)),
                     "worst_row_sum_violation", "worst_negativity", id="row-sums"),
        pytest.param(stacked(lambda n: (1.0 + 1e-9) * np.eye(n)
                             - 1e-9 * np.roll(np.eye(n), 1, axis=1)),
                     "worst_negativity", "worst_row_sum_violation", id="negative-entry"),
    ])
    def test_non_stochastic_sample_fails_the_check(self, monkeypatch, replacement, failed, held):
        # the check measures the propagator's builder itself, so a bad matrix
        # is reported as a failed check instead of ending the suite in a ValueError
        monkeypatch.setattr(verification, "_flow", replacement)
        report = run_suite("lemmas", seed=0)
        record = report["checks"][0]
        assert record["name"] == "propagator-stochasticity"
        assert record["passed"] is False and report["passed"] is False
        assert record[failed] >= 1e-9 and record[held] <= 1e-12
        assert all(c["passed"] for c in report["checks"][1:])
