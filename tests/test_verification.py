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
    payoff_gradient,
    propagator,
    solve_single,
    total_payoff,
)
from influencegame import opinion_dynamics, verification
from influencegame.verification import (random_feasible_profile, random_linear_game, run_suite,
                                        _MIDPOINT_TOL, _midpoint_violations)
from conftest import count_kernel_passes, payoff_fd_gradients, single_player_spec


def stacked(matrix):
    """A replacement for ``_flow`` whose every item is ``matrix(n)``, shaped
    like the stack the builder would return."""
    def flow(adjacency, dt):
        shape = np.broadcast_shapes(adjacency.shape[:-2], np.shape(dt))
        return np.broadcast_to(matrix(adjacency.shape[-1]), shape + adjacency.shape[-2:]).copy()
    return flow


class TestFdGradient:
    def test_quadratic(self):
        gradient = fd_gradient(lambda x: x[..., 0] ** 2, np.array([[3.0]]))
        assert gradient.shape == (1, 1)
        assert gradient[0, 0] == pytest.approx(6.0, abs=1e-9)

    def test_linear_is_exact(self):
        c = np.array([2.0, -1.5, 0.25])
        gradient = fd_gradient(lambda x: x @ c, np.array([[0.3, 0.7, 0.1], [0.0, -4.0, 9.0]]))
        np.testing.assert_allclose(gradient, [c, c], atol=1e-9)

    def test_evaluator_gets_the_forward_then_the_backward_points(self):
        points = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])  # B = 2 points shaped (1, 2)
        h = 0.5
        seen = []

        def evaluator(x):
            seen.append(x.copy())
            return x.sum(axis=(-2, -1))

        fd_gradient(evaluator, points, h=h)
        steps = h * np.eye(2).reshape(2, 1, 1, 2)
        np.testing.assert_array_equal(seen[0], np.concatenate([points + steps, points - steps]))

    def test_game_payoff_hand_value(self):
        # one individual, two players, static network, free budgets, the
        # second player idle: the first player's payoff is (1/2 + x1) / 2 with
        # x1 = (1/2 + b) / (1 + b), so its marginal value at b is 1 / (4 (1 + b)^2)
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
        profiles = np.zeros((2, 2, 1, 1))
        profiles[:, 0, 0, 0] = [0.1, 0.5]
        gradient = payoff_fd_gradients(spec, profiles, 0)
        np.testing.assert_allclose(gradient.ravel(), 0.25 / np.array([1.1, 1.5]) ** 2,
                                   rtol=0, atol=1e-7)

    def test_stack_matches_a_per_coordinate_loop(self):
        # h = 1e-2 keeps round-off (about eps / h) far below the 1e-12 bound
        spec = random_linear_game(np.random.default_rng(29), 2, 3, 2)
        profile = np.full((2, 2, 3), 0.03)
        h = 1e-2

        def one(flat):
            candidate = profile.copy()
            candidate[0] = flat.reshape(2, 3)
            return total_payoff(spec, candidate, 0)

        flat = profile[0].ravel()
        expected = [(one(flat + step) - one(flat - step)) / (2.0 * h) for step in h * np.eye(6)]
        gradient = payoff_fd_gradients(spec, profile[None], 0, h=h)
        np.testing.assert_allclose(gradient.ravel(), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_equals_one_row_calls_on_the_suites_games(self, seed):
        # the gradients suite's own games and draws: a B-row stack gives the
        # B one-row results bit for bit
        rng = np.random.default_rng(seed)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            spec = random_linear_game(rng, m, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            draws = [(random_feasible_profile(rng, spec), int(rng.integers(m))) for _ in range(20)]
            for j in range(m):
                profiles = np.array([profile for profile, player in draws if player == j])
                if len(profiles):
                    stacked = payoff_fd_gradients(spec, profiles, j)
                    rows = [payoff_fd_gradients(spec, profile[None], j)[0] for profile in profiles]
                    np.testing.assert_array_equal(stacked, rows)

    def test_raising_evaluator_propagates_after_one_call(self):
        calls = []

        def half_line(x):
            calls.append(x.shape)
            if np.any(x[..., 0] < 1.0):
                raise ValueError("outside domain")
            return x[..., 0] ** 2

        with pytest.raises(ValueError, match="outside domain"):
            fd_gradient(half_line, np.array([[1.0], [2.0]]), h=1e-6)
        assert calls == [(2, 2, 1)]

    @pytest.mark.parametrize("h", [0.0, -1e-5, np.nan, np.inf])
    def test_step_must_be_positive_and_finite(self, h):
        calls = []

        def evaluator(x):
            calls.append(len(x))
            return x[..., 0]

        with pytest.raises(ValueError, match="positive and finite"):
            fd_gradient(evaluator, np.array([[1.0]]), h=h)
        assert calls == []

    @pytest.mark.parametrize("h", [True, np.bool_(True), "1e-5", 1e-5 + 0j, None],
                             ids=["bool", "numpy-bool", "string", "complex", "none"])
    def test_step_must_be_a_real_number(self, h):
        # a bool step once ran as 1.0 and a string one raised TypeError
        calls = []

        def evaluator(x):
            calls.append(len(x))
            return x[..., 0]

        with pytest.raises(ValueError, match="finite-difference step must be real numbers"):
            fd_gradient(evaluator, np.array([[1.0]]), h=h)
        assert calls == []

    @pytest.mark.parametrize("points, match", [
        pytest.param([[1.0, 2.0], [3.0, np.nan]], "points must be finite", id="nan"),
        pytest.param([[1.0, 2.0], [3.0, np.inf]], "points must be finite", id="inf"),
        pytest.param([[1.0, 2.0], [3.0, -np.inf]], "points must be finite", id="minus-inf"),
        pytest.param(1.0, "stacked as", id="no-stack-axis"),
    ])
    def test_bad_points_refused_before_any_evaluation(self, points, match):
        calls = []

        def evaluator(x):
            calls.append(len(x))
            return x[..., 0]

        with pytest.raises(ValueError, match=match):
            fd_gradient(evaluator, np.array(points))
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


class TestBruteForce:
    @pytest.mark.parametrize("game, j, grid_step", [
        pytest.param(lambda: random_linear_game(np.random.default_rng(5), 2, 2, 2), 1, 0.1,
                     id="two-players"),
        pytest.param(lambda: random_linear_game(np.random.default_rng(6), 3, 3, 1), 2, 0.1,
                     id="three-players"),
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
        for spec in (single_player_spec(n=1, K=1),
                     random_linear_game(np.random.default_rng(5), 2, 2, 2)):
            profile = np.zeros((spec.m, spec.K, spec.n))
            with pytest.raises(ValueError, match="positive and finite"):
                brute_force_best_response(spec, profile, 0, grid_step)

    @pytest.mark.parametrize("grid_step", [True, np.bool_(True), "0.5", 0.5 + 0j, None],
                             ids=["bool", "numpy-bool", "string", "complex", "none"])
    def test_grid_step_must_be_a_real_number(self, monkeypatch, grid_step):
        # a bool step once searched a grid of step 1.0 and a string one raised TypeError
        def no_evaluation(*args):
            raise AssertionError("evaluated before the step was checked")

        monkeypatch.setattr(verification, "_batched_single_player_search", no_evaluation)
        monkeypatch.setattr(verification, "total_payoff", no_evaluation)
        for spec in (single_player_spec(n=1, K=1),
                     random_linear_game(np.random.default_rng(5), 2, 2, 2)):
            profile = np.zeros((spec.m, spec.K, spec.n))
            with pytest.raises(ValueError, match="grid step must be real numbers"):
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

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_record_equals_a_one_row_reference_loop(self, seed):
        # the suite one profile at a time: one one-row finite-difference
        # call beside each analytic gradient
        rng = np.random.default_rng(seed)
        errors = []
        for _ in range(10):
            m = int(rng.integers(1, 4))
            spec = random_linear_game(rng, m, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            for _ in range(20):
                profile = random_feasible_profile(rng, spec)
                j = int(rng.integers(m))
                analytic = payoff_gradient(spec, profile, j)
                numeric = payoff_fd_gradients(spec, profile[None], j)[0]
                scale = max(float(np.max(np.abs(numeric))), 1e-12)
                errors.append(float(np.max(np.abs(analytic - numeric))) / scale)
        worst = max(errors)
        check = {"name": "analytic-vs-finite-difference", "passed": worst < 1e-6,
                 "max_relative_error": worst}
        assert run_suite("gradients", seed) == {
            "suite": "gradients", "seed": seed, "passed": worst < 1e-6, "checks": [check]}

    @pytest.mark.parametrize("seed", range(3))
    def test_one_finite_difference_call_per_scenario_and_player(self, monkeypatch, seed):
        # per scenario: its player count, then its evaluator calls
        scenarios, analytic = [], []
        build, differences, gradient = (verification.random_linear_game,
                                        verification.fd_gradient, verification.payoff_gradient)

        def building(rng, m, n, K):
            scenarios.append([m, 0])
            return build(rng, m, n, K)

        def differencing(evaluator, points, h=1e-5):
            def counted(x):
                scenarios[-1][1] += 1
                return evaluator(x)
            return differences(counted, points, h)

        def analytic_pass(spec, profile, j):
            analytic.append(profile.shape)
            return gradient(spec, profile, j)

        monkeypatch.setattr(verification, "random_linear_game", building)
        monkeypatch.setattr(verification, "fd_gradient", differencing)
        monkeypatch.setattr(verification, "payoff_gradient", analytic_pass)
        passes = count_kernel_passes(monkeypatch)
        assert run_suite("gradients", seed)["passed"]
        assert len(scenarios) == 10
        assert all(1 <= calls <= m for m, calls in scenarios)
        assert len(analytic) == 200 and all(len(shape) == 3 for shape in analytic)
        # each evaluator call and each analytic gradient is one kernel pass
        assert len(passes) == 200 + sum(calls for _, calls in scenarios)

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
