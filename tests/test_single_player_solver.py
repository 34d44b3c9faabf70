import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from influencegame import (
    CampaignSchedule,
    ConvergenceError,
    FeasibleRegion,
    GameSpec,
    InfeasiblePlanError,
    OpinionState,
    StageUtility,
    build_network,
    build_region,
    payoff_gradient,
    propagator,
    solve_single,
    total_payoff,
    validate_plans,
)
from influencegame.verification import (
    brute_force_best_response,
    random_feasible_profile,
    random_linear_game,
)
import influencegame
from influencegame import single_player_solver
from influencegame.game_model import _objective_for_player
from influencegame.single_player_solver import (_active_set, _certified_plan,
                                                _maximize_concave, _project_rows,
                                                _solve_working)
from conftest import (cold_projection, count_kernel_passes, count_linear_solves,
                      empty_working_set, load_bench_module, single_player_spec)

# The benchmark's five single-player games; in games 3 and 4 the opinion caps
# bind as well as the budget.
BENCH_GAMES = load_bench_module("workloads").single_player_specs(influencegame)

# Recipe B games (budget 10) on which a primal active-set projection let its
# working set become numerically dependent and cycled: (n, K, generator seed).
RECIPE_B_CYCLING = [(5, 3, 28), (5, 3, 30), (6, 4, 9), (6, 4, 32), (8, 4, 5),
                    (8, 4, 6), (8, 4, 19), (8, 4, 20), (8, 4, 38)]


def recipe_b_game(n, K, seed):
    spec = random_linear_game(np.random.default_rng(seed), 1, n, K)
    return dataclasses.replace(spec, budgets=np.array([10.0]))


def budget_3_game(seed, n, K):
    spec = random_linear_game(np.random.default_rng(seed), 1, n, K)
    return dataclasses.replace(spec, budgets=np.array([3.0]))


def _exact_solve_gate_games():
    """The bench games, a 200-individual game as drawn and at budget 3, and
    twenty small games at budget 3."""
    for index, spec in enumerate(BENCH_GAMES):
        yield pytest.param(spec, id=f"bench-{index}")
    yield pytest.param(random_linear_game(np.random.default_rng(0), 1, 200, 4), id="n200")
    yield pytest.param(budget_3_game(0, 200, 4), id="n200-budget-3")
    for seed in range(10, 30):
        n, K = 3 + seed % 8, 1 + seed % 4
        yield pytest.param(budget_3_game(seed, n, K), id=f"s{seed}-n{n}-K{K}")


def linear_program_ascent(spec):
    """``_maximize_concave`` from the zero plan on the payoff of a
    single-player game over its polytope: the linear program that
    ``solve_single`` solves, by the ascent of best responses and hindsight."""
    payoff = _objective_for_player(spec, np.zeros((1, spec.K, spec.n)), 0)
    region = build_region(spec)
    working = empty_working_set(region)
    return _maximize_concave(payoff, lambda point: _active_set(point, region, working),
                             np.zeros(spec.K * spec.n))


def scaled_gradient(spec):
    """The zero plan's payoff gradient divided by max(1, its largest entry)."""
    g = payoff_gradient(spec, np.zeros((1, spec.K, spec.n)), 0).ravel()
    return g / max(1.0, np.abs(g).max())


class TestBuildRegion:
    def test_static_one_variable_region(self):
        spec = single_player_spec(n=1, K=1, x0=0.5, budget=2.0)
        region = build_region(spec)
        assert region.count == 2
        # cap b <= 1 - x0, budget b <= 2; the sign b >= 0 is implied
        np.testing.assert_allclose(region.normals, [[1.0], [1.0]])
        np.testing.assert_allclose(region.offsets, [0.5, 2.0], atol=1e-12)
        np.testing.assert_allclose(region.violations(np.array([-0.25])), [-0.75, -2.25, 0.25])
        assert not region.contains(np.array([-0.25]))

    def test_halfspace_count(self):
        # Kn cap rows and the budget row
        spec = single_player_spec(n=3, K=2, x0=0.2, budget=1.0)
        assert build_region(spec).count == 7

    def test_reference_network_offsets_use_propagated_opinions(self, path_network):
        from influencegame import CampaignSchedule, GameSpec, OpinionState, StageUtility

        n = 3
        for times in ([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 1.25, 2.0, 3.5, 4.0]):
            K = len(times) - 2
            spec = GameSpec(
                network=path_network,
                schedule=CampaignSchedule(times=np.array(times)),
                x0=OpinionState(np.full((n, 1), 0.5)),
                budgets=np.array([3.0]),
                utilities=(StageUtility(rho=np.ones((K + 1, n)), cost_coefficient=1.0),),
            )
            region = build_region(spec)
            for k in range(1, K + 1):
                rows = slice((k - 1) * n, k * n)
                reach = propagator(path_network, times[k] - times[0]) @ spec.x0.values[:, 0]
                np.testing.assert_allclose(region.offsets[rows], 1.0 - reach, rtol=0, atol=1e-12)
                # cap block (k, s) carries stage s's investment to t_k: the
                # propagator over t_k - t_s before stage k, I at k, 0 after
                for s in range(1, K + 1):
                    block = region.normals[rows, (s - 1) * n : s * n]
                    if s < k:
                        flow = propagator(path_network, times[k] - times[s])
                        np.testing.assert_allclose(block, flow, rtol=0, atol=1e-12)
                    elif s == k:
                        assert np.array_equal(block, np.eye(n))
                    else:
                        assert np.all(block == 0.0)

    def test_zero_plan_always_feasible(self):
        spec = single_player_spec(n=2, K=2, x0=0.9, budget=0.5)
        region = build_region(spec)
        assert region.contains(np.zeros(4))

    def test_rejects_multiplayer(self, two_player_spec):
        with pytest.raises(ValueError):
            build_region(two_player_spec)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_outside(self, entry):
        region = build_region(random_linear_game(np.random.default_rng(0), 1, 3, 2))
        point = np.zeros(region.dim)
        point[2] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert region.max_violation(point) == np.inf
            assert not region.contains(point)

    def test_contains_refuses_what_the_payoff_functions_refuse(self):
        # a stage-1 entry 5e-9 over its opinion cap: between FEASIBILITY_TOL
        # and the looser bound ``contains`` once allowed
        spec = dataclasses.replace(random_linear_game(np.random.default_rng(0), 1, 3, 2),
                                   budgets=np.array([5.0]))
        region = build_region(spec)
        plan = np.zeros(region.dim)
        plan[0] = region.offsets[0] + 5e-9
        assert region.max_violation(plan) == pytest.approx(5e-9, rel=1e-6)
        assert not region.contains(plan)
        with pytest.raises(InfeasiblePlanError, match="opinion headroom by 5.000e-09"):
            total_payoff(spec, plan.reshape(1, spec.K, spec.n), 0)


class TestProjectFeasible:
    def test_feasible_point_unchanged(self):
        spec = single_player_spec(n=1, K=1, x0=0.0, budget=1.0)
        region = build_region(spec)
        point = np.array([0.25])
        np.testing.assert_array_equal(cold_projection(point, region), point)

    def test_scalar_clamp(self):
        spec = single_player_spec(n=1, K=1, x0=0.0, budget=1.0)
        region = build_region(spec)
        np.testing.assert_allclose(cold_projection(np.array([2.5]), region), [1.0],
                                   atol=1e-10)

    def test_symmetric_budget_split(self):
        region = FeasibleRegion(normals=np.ones((1, 2)), offsets=np.array([3.0]))
        np.testing.assert_allclose(cold_projection(np.array([2.0, 2.0]), region),
                                   [1.5, 1.5], atol=1e-10)

    def test_projection_is_exact_not_merely_feasible(self):
        # plain cyclic projection would land elsewhere; the active-set method
        # must match the true projection, computed here by dense search over
        # the active face
        region = FeasibleRegion(normals=np.ones((1, 2)), offsets=np.array([1.0]))
        point = np.array([1.7, 0.3])
        projected = cold_projection(point, region)
        # true projection onto the face x+y=1 from (1.7, 0.3): (1.2, -0.2) -> clip
        # at the corner: KKT solution is (1.0, 0.0)
        np.testing.assert_allclose(projected, [1.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("normal, point, last_iterate", [
        # x <= -1 and x >= 0: the sign row depends on the cap row, and no
        # working row can leave to make room for it
        pytest.param([1.0], [5.0], [-1.0], id="dependent"),
        # x1 + 1e-8 x2 <= -1 and x >= 0: x1's sign row is independent of the
        # cap row only by a residual of 1e-16 against its norm, so the
        # dependence rule, not an exact zero, must stop the full step that
        # would leave the cap row violated by 1 at the origin
        pytest.param([1.0, 1e-8], [0.5, 0.5], [-1.0, 0.5], id="nearly-dependent"),
    ])
    def test_empty_region_raises_convergence_error(self, normal, point, last_iterate):
        region = FeasibleRegion(normals=np.array([normal]), offsets=np.array([-1.0]))
        with pytest.raises(ConvergenceError, match="region is empty up to round-off") as excinfo:
            cold_projection(np.array(point), region)
        np.testing.assert_allclose(excinfo.value.last_iterate, last_iterate)

    def test_more_normals_than_offsets_refused(self):
        with pytest.raises(ValueError, match="a normal and an offset"):
            FeasibleRegion(normals=np.ones((2, 2)), offsets=np.array([1.0]))

    def test_cycle_budget_exhaustion_reports_last_iterate(self, monkeypatch):
        # the last row is not all ones, so the call starts from an empty
        # working set and needs more than one iteration
        region = FeasibleRegion(normals=np.array([[2.0, 1.0]]), offsets=np.array([1.0]))
        monkeypatch.setattr(single_player_solver, "PROJECTION_TOL", 1e-15)
        monkeypatch.setattr(single_player_solver, "PROJECTION_MAX_CYCLES", 1)
        with pytest.raises(ConvergenceError) as excinfo:
            cold_projection(np.array([5.0, 5.0]), region)
        assert excinfo.value.last_iterate is not None

    @pytest.mark.parametrize("normals, offsets", [
        pytest.param(np.ones((1, 2)), [np.nan], id="nan-offset"),
        pytest.param(np.ones((1, 2)), [np.inf], id="inf-offset"),
        pytest.param(np.array([[np.nan, 1.0]]), [1.0], id="nan-normal"),
    ])
    def test_non_finite_halfspaces_refused(self, normals, offsets):
        # a NaN offset never counts as exceeded, so the projection of (2, 2)
        # onto the unit budget set would come back as the infeasible (2, 2)
        with pytest.raises(ValueError, match="finite"):
            FeasibleRegion(normals=normals, offsets=np.array(offsets))


def enumerated_projections(points, region):
    """Row-wise nearest feasible point among the projections onto every
    affine set {A_S x = c_S} with |S| <= dim, A and c the region's halfspaces
    stacked over the sign rows -x <= 0: the exact projection's active set has
    an independent subset of at most dim rows, so it is a candidate."""
    d = region.dim
    normals = np.vstack([region.normals, -np.eye(d)])
    offsets_all = np.concatenate([region.offsets, np.zeros(d)])
    candidates = []
    for size in range(d + 1):
        for subset in itertools.combinations(range(len(offsets_all)), size):
            rows = normals[list(subset)]
            kkt = np.block([[np.eye(d), rows.T], [rows, np.zeros((size, size))]])
            offsets = np.broadcast_to(offsets_all[list(subset), None], (size, len(points)))
            try:
                solution = np.linalg.solve(kkt, np.vstack([points.T, offsets]))
            except np.linalg.LinAlgError:
                continue  # dependent rows: a smaller subset spans the same set
            candidates.append(solution[:d].T)
    candidates = np.stack(candidates, axis=1)  # (point, subset, coordinate)
    excess = (candidates @ normals.T - offsets_all).max(axis=2)
    distance = np.linalg.norm(candidates - points[:, None, :], axis=2)
    nearest = np.where(excess <= 1e-12, distance, np.inf).argmin(axis=1)
    return candidates[np.arange(len(points)), nearest]


def _oracle_regions():
    rng = np.random.default_rng(89)
    for n, K in ((1, 1), (2, 1), (1, 2), (2, 2), (4, 1), (1, 4)):
        yield pytest.param(build_region(random_linear_game(rng, 1, n, K)),
                           id=f"random-n{n}-K{K}")
    # at budget 1.5 the budget and the caps bind together, and some points
    # need a working-set row dropped on the way
    tight = random_linear_game(np.random.default_rng(6), 1, 2, 2)
    for budget, name in ((1.5, "binding-caps"), (0.0, "zero-budget")):
        yield pytest.param(
            build_region(dataclasses.replace(tight, budgets=np.array([budget]))), id=name
        )
    # isolated individuals; individual 0 starts at x0 = 1, so both its cap
    # rows are active at the origin, opposite to its stage-1 sign row
    saturated = GameSpec(
        network=build_network(np.eye(2)),
        schedule=CampaignSchedule(times=np.arange(4.0)),
        x0=OpinionState(np.array([[1.0], [0.3]])),
        budgets=np.array([1.0]),
        utilities=(StageUtility(rho=np.ones((3, 2)), cost_coefficient=0.4),),
    )
    yield pytest.param(build_region(saturated), id="saturated-individual")


class TestProjectionOracle:
    @pytest.mark.parametrize("region", list(_oracle_regions()))
    def test_matches_enumerated_active_sets(self, region):
        assert region.dim <= 4
        rng = np.random.default_rng(101)
        scales = np.repeat([0.3, 1.0, 3.0, 10.0], 50)[:, None]
        points = scales * (rng.standard_normal((scales.size, region.dim)) + 0.5)
        expected = enumerated_projections(points, region)
        for point, nearest in zip(points, expected):
            np.testing.assert_allclose(cold_projection(point, region), nearest,
                                       rtol=0, atol=1e-10)

    def test_zero_budget_projects_to_origin(self):
        spec = random_linear_game(np.random.default_rng(97), 1, 2, 2)
        region = build_region(dataclasses.replace(spec, budgets=np.array([0.0])))
        point = np.array([0.7, -0.2, 0.7, 1.5])
        np.testing.assert_allclose(cold_projection(point, region), 0.0, atol=1e-15)

    def test_feasible_point_returned_byte_for_byte(self):
        region = build_region(random_linear_game(np.random.default_rng(89), 1, 2, 2))
        point = np.array([0.01, 0.02, 0.03, 1e-17])
        assert region.max_violation(point) == 0.0
        projected = cold_projection(point, region)
        assert projected is not point
        assert projected.tobytes() == point.tobytes()


def linear_ascent_path(region, rng):
    """The points a linear ascent over the region hands to its projection,
    in order."""
    path = []

    def project(point):
        path.append(point)
        return cold_projection(point, region)

    direction = rng.standard_normal(region.dim) + 0.5
    _maximize_concave(lambda x: (float(direction @ x), direction), project,
                      np.zeros(region.dim))
    return path


def solve_single_path(spec):
    """The points ``solve_single`` hands to its projection, in order."""
    path = []

    def record(point, region, working):
        path.append(point)
        return _active_set(point, region, working)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(single_player_solver, "_active_set", record)
        solve_single(spec)
    return path


def warm_sequence(region, path, rng, count=50):
    """About ``count`` points that move the warm start around: far-out points
    and points already feasible around an ascent's path, which keeps its
    order."""
    def far():
        return 10.0 * (rng.standard_normal(region.dim) + 0.5)

    randoms = [far() if rng.random() < 0.5 else rng.random() * cold_projection(far(), region)
               for _ in range(max(count - len(path), 20))]
    half = len(randoms) // 2
    return randoms[:half] + list(path) + randoms[half:]


class TestWarmProjection:
    """Each warm call must give the cold projection's point; only the start
    of the active-set method differs."""

    @staticmethod
    def check_sequence(region, points):
        working = empty_working_set(region)
        results = np.array([_active_set(point, region, working) for point in points])
        cold = np.array([cold_projection(point, region) for point in points])
        np.testing.assert_allclose(results, cold, rtol=0, atol=1e-10)
        assert max(region.max_violation(result) for result in results) <= 1e-10
        return results

    @pytest.mark.parametrize("region", list(_oracle_regions()))
    def test_sequence_matches_cold_projection_and_oracle(self, region):
        rng = np.random.default_rng(103)
        points = warm_sequence(region, linear_ascent_path(region, rng), rng)
        results = self.check_sequence(region, points)
        np.testing.assert_allclose(results, enumerated_projections(np.array(points), region),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("region", list(_oracle_regions()))
    def test_held_variables_are_exactly_zero(self, region):
        # the full step that adds a sign constraint leaves round-off at its
        # variable unless the step zeroes it
        rng = np.random.default_rng(103)
        working = empty_working_set(region)
        for point in warm_sequence(region, linear_ascent_path(region, rng), rng):
            x = _active_set(point, region, working)
            assert np.all(x[working[region.count :]] == 0.0)

    @pytest.mark.parametrize("spec, seed", [
        pytest.param(BENCH_GAMES[3], 3, id="3"),
        pytest.param(BENCH_GAMES[4], 4, id="4"),
        pytest.param(recipe_b_game(5, 3, 28), 28, id="recipe-b-n5-K3-s28"),
    ])
    def test_sequence_on_cap_binding_bench_games(self, spec, seed):
        region = build_region(spec)
        path = solve_single_path(spec)
        self.check_sequence(region, warm_sequence(region, path, np.random.default_rng(seed)))

    def test_convergence_error_leaves_the_start_intact(self, monkeypatch):
        # a working set whose call failed must go on exactly as its twin that
        # never made that call, linear solve for linear solve
        region = build_region(BENCH_GAMES[3])
        rng = np.random.default_rng(107)
        points = warm_sequence(region, solve_single_path(BENCH_GAMES[3])[:30], rng)
        failed, twin = empty_working_set(region), empty_working_set(region)
        for point in points[:25]:
            _active_set(point, region, failed)
            _active_set(point, region, twin)
        far = 10.0 * (rng.standard_normal(region.dim) + 0.5)
        monkeypatch.setattr(single_player_solver, "PROJECTION_MAX_CYCLES", 1)
        with pytest.raises(ConvergenceError):
            _active_set(far, region, failed)
        monkeypatch.undo()
        assert np.array_equal(failed, twin)
        solves = count_linear_solves(monkeypatch)
        for point in [far] + points[25:]:
            solves.clear()
            result, failed_solves = _active_set(point, region, failed), len(solves)
            assert result.tobytes() == _active_set(point, region, twin).tobytes()
            assert len(solves) == 2 * failed_solves
            np.testing.assert_allclose(result, cold_projection(point, region),
                                       rtol=0, atol=1e-10)

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e6, 1e8])
    def test_far_points_meet_every_row_relative_to_their_size(self, scale):
        # the working set's rows are met up to round-off at the point's
        # scale, so a far point's projection can exceed a row by more than
        # 1e-12 absolute (about 1e-6 at scale 1e8), never relative
        rng = np.random.default_rng(7)
        for spec in BENCH_GAMES:
            region = build_region(spec)
            working = empty_working_set(region)
            for _ in range(10):
                point = scale * rng.standard_normal(region.dim)
                bound = 1e-12 * max(1.0, np.abs(point).max())
                assert region.max_violation(_active_set(point, region, working)) <= bound

    @pytest.mark.parametrize("seed, n, K", [(0, 4, 4), (0, 5, 3), (1, 6, 2)])
    def test_warm_zero_budget_far_points_converge(self, seed, n, K):
        # one working set, 40 successive far calls at the degenerate vertex {0},
        # where Kn + 1 rows are active: with tolerances absolute rather than
        # relative to the point, 17, 16 and 12 of them raised; the answer is
        # the origin up to round-off at the point's scale
        spec = random_linear_game(np.random.default_rng(seed), 1, n, K)
        region = build_region(dataclasses.replace(spec, budgets=np.array([0.0])))
        working = empty_working_set(region)
        for point in 1e4 * np.random.default_rng(1).standard_normal((40, region.dim)):
            bound = 1e-12 * np.abs(point).max()
            np.testing.assert_allclose(_active_set(point, region, working), 0.0,
                                       rtol=0, atol=bound)

    def test_repeated_solves_are_identical(self):
        first, second = solve_single(BENCH_GAMES[4]), solve_single(BENCH_GAMES[4])
        for field in dataclasses.fields(first):
            a, b = getattr(first, field.name), getattr(second, field.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name

    def test_bench_games_linear_solve_count(self, monkeypatch):
        # a cold start at every projection of the former ascent took 809,
        # warm starts after a first call from the empty working set 163, and
        # from the budget set's working set 72; the projection search takes 57
        solves = count_linear_solves(monkeypatch)
        for spec in BENCH_GAMES:
            solve_single(spec)
        assert len(solves) <= 100


class TestBudgetStart:
    """A cold call on a region whose last row is the budget row starts from
    the working set of the budget set's projection."""

    @pytest.mark.parametrize("shift", [
        pytest.param(0.3, id="budget-binds"),
        pytest.param(-0.5, id="budget-slack"),
    ])
    def test_budget_set_answer_takes_one_solve(self, monkeypatch, shift):
        spec = BENCH_GAMES[0]
        region = build_region(spec)
        point = np.random.default_rng(5).standard_normal(region.dim) * 0.1 + shift
        cap = spec.budgets[:1]
        expected = _project_rows(point[None], cap)[0]
        assert region.contains(expected)
        assert (np.maximum(point, 0.0).sum() > cap[0]) == (shift > 0)
        solves = count_linear_solves(monkeypatch)
        projected = cold_projection(point, region)
        assert len(solves) == 1
        np.testing.assert_allclose(projected, expected, rtol=0, atol=1e-12)

    def test_zero_plan_leaves_the_next_call_seeded(self, monkeypatch):
        # the zero plan holds nothing, so the ascent's second projection
        # starts from the budget set's answer as a cold call's would
        region = build_region(BENCH_GAMES[0])
        point = np.random.default_rng(5).standard_normal(region.dim) * 0.1 + 0.3
        working = empty_working_set(region)
        solves = count_linear_solves(monkeypatch)
        _active_set(np.zeros(region.dim), region, working)
        assert len(solves) == 1
        _active_set(point, region, working)
        assert len(solves) == 2

    def test_region_without_halfspaces_projects_onto_the_orthant(self):
        # no budget row: a cold call starts from the empty working set, and
        # a warm one from the previous call's
        region = FeasibleRegion(np.zeros((0, 3)), np.zeros(0))
        points = np.array([[1.0, -2.0, 3.0], [-1.0, 2.0, -3.0], [0.5, -0.5, 0.0]])
        working = empty_working_set(region)
        for point in np.concatenate([points, points]):
            np.testing.assert_array_equal(cold_projection(point, region), np.maximum(point, 0))
            np.testing.assert_array_equal(_active_set(point, region, working),
                                          np.maximum(point, 0))

    def test_zero_budget_far_points_take_one_solve(self, monkeypatch):
        # at a zero cap the budget row is held with every entry but the top
        # one, a dual feasible start; from the empty working set 18 of these
        # 40 points ran out of iterations
        spec = random_linear_game(np.random.default_rng(0), 1, 4, 4)
        region = build_region(dataclasses.replace(spec, budgets=np.array([0.0])))
        points = 1e4 * np.random.default_rng(1).standard_normal((40, region.dim))
        solves = count_linear_solves(monkeypatch)
        for point in points:
            solves.clear()
            np.testing.assert_array_equal(cold_projection(point, region), 0.0)
            assert len(solves) == 1

    def test_large_single_player_game_solve_count(self, monkeypatch):
        # from an empty working set the ascent's second projection alone
        # took 707 of 826 linear solves
        spec = random_linear_game(np.random.default_rng(0), 1, 200, 4)
        spec = dataclasses.replace(spec, budgets=np.array([3.0]))
        solves = count_linear_solves(monkeypatch)
        solve_single(spec)
        assert len(solves) <= 200


class TestMaximizeConcaveScale:
    @staticmethod
    def ascent(factor):
        """``_maximize_concave`` on factor (c'x - x'Qx/2) over the box [0, 4]^6
        from the zero plan, where the gradient c has entries up to 8, and the
        points it evaluated: 82 of them, 49 accepted, ending with free entries
        and entries at 0, the values it measured there and the ascent's unit
        c = max(1, max|g0|), g0 = factor c its first gradient."""
        rng = np.random.default_rng(3)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        Q = basis @ np.diag(np.logspace(0, 1, 6)) @ basis.T
        c = 8.0 * rng.uniform(-1, 1, 6)
        points, measured = [], []

        def evaluate(x):
            points.append(x)
            measured.append(factor * float(c @ x - 0.5 * x @ Q @ x))
            return measured[-1], factor * (c - Q @ x)

        result = _maximize_concave(evaluate, lambda v: np.clip(v, 0.0, 4.0), np.zeros(6))
        return result, points, measured, max(1.0, factor * np.abs(c).max())

    @pytest.mark.parametrize("k", [1, 20, 60])
    def test_power_of_two_payoff_scale_is_exact(self, k):
        # with max|g0| >= 1 the scale c = max|g0| takes the factor 2^k
        # exactly, so the ascent sees the same payoff / c bit for bit
        (x, value, residual, values), points, _, scale = self.ascent(1.0)
        (x2, value2, residual2, values2), points2, _, scale2 = self.ascent(2.0**k)
        assert scale > 1.0 and scale2 == 2.0**k * scale
        assert len(points2) == len(points)
        for a, b in zip(points, points2):
            assert a.tobytes() == b.tobytes()
        assert x2.tobytes() == x.tobytes()
        assert value2 == 2.0**k * value and residual2 == 2.0**k * residual
        assert np.array_equal(values2, 2.0**k * values)

    def test_values_are_the_payoffs_it_measured(self):
        # with c = max|g0| > 1, (f / c) c need not give f back; the ascent
        # reports what ``evaluate`` returned, bit for bit
        (x, value, _, values), points, measured, scale = self.ascent(0.3)
        assert scale > 1.0
        last = max(i for i, point in enumerate(points) if point.tobytes() == x.tobytes())
        assert value == measured[last] == values[-1]
        assert values[0] == measured[0]
        assert set(values.tolist()) <= set(measured)


class TestSolveSingle:
    def test_hand_derived_scalar_instance(self):
        # u = x - 0.4 b at both stages, cap 1 - x0 = 0.5 binds
        spec = single_player_spec(n=1, K=1, x0=0.5, budget=1.0, cost=0.4)
        report = solve_single(spec)
        assert report.plan[0, 0] == pytest.approx(0.5, abs=1e-8)
        assert report.objective == pytest.approx(0.65, abs=1e-10)
        assert report.kkt_residual <= 1e-6

    def test_free_budget_saturates_earliest_campaign(self):
        spec = single_player_spec(n=1, K=2, x0=0.3, budget=5.0, cost=0.0)
        report = solve_single(spec)
        np.testing.assert_allclose(report.plan[0], [0.7], atol=1e-8)
        np.testing.assert_allclose(report.plan[1], [0.0], atol=1e-8)

    def test_prohibitive_cost_keeps_zero_plan(self):
        # marginal opinion value per unit is at most K stages of unit mass;
        # a cost above that makes the zero-plan gradient componentwise <= 0
        spec = single_player_spec(n=2, K=2, x0=0.2, budget=1.0, cost=5.0)
        gradient = payoff_gradient(spec, np.zeros((1, 2, 2)), 0)
        assert np.all(gradient <= 0)
        report = solve_single(spec)
        np.testing.assert_allclose(report.plan, 0.0, atol=1e-10)

    def test_report_plan_is_feasible(self):
        rng = np.random.default_rng(61)
        for _ in range(3):
            spec = random_linear_game(rng, 1, int(rng.integers(1, 4)),
                                      int(rng.integers(1, 3)))
            report = solve_single(spec)
            region = build_region(spec)
            assert region.contains(report.plan.ravel())

    def test_first_order_certificate(self):
        rng = np.random.default_rng(71)
        spec = random_linear_game(rng, 1, 2, 1)
        report = solve_single(spec)
        b = report.plan.ravel()
        g = payoff_gradient(spec, [report.plan], 0).ravel()
        region = build_region(spec)
        for _ in range(50):
            target = cold_projection(rng.standard_normal(b.size), region)
            direction = target - b
            norm = np.linalg.norm(direction)
            if norm < 1e-12:
                continue
            assert g @ direction <= report.kkt_residual * norm + 1e-6

    def test_agrees_with_grid_search(self):
        rng = np.random.default_rng(73)
        for _ in range(3):
            spec = random_linear_game(rng, 1, 1, int(rng.integers(1, 4)))
            report = solve_single(spec)
            _, grid_value = brute_force_best_response(
                spec, np.zeros((1, spec.K, spec.n)), 0, grid_step=0.01
            )
            margin = np.linalg.norm(
                payoff_gradient(spec, np.zeros((1, spec.K, spec.n)), 0)
            ) * 0.01 * np.sqrt(spec.K * spec.n)
            assert report.objective >= grid_value - margin

    def test_objective_concavity_midpoint(self):
        rng = np.random.default_rng(79)
        spec = random_linear_game(rng, 1, 3, 2)

        def objective(flat):
            return total_payoff(spec, flat.reshape(1, 2, 3), 0)

        for _ in range(20):
            a = random_feasible_profile(rng, spec).ravel()
            b = random_feasible_profile(rng, spec).ravel()
            midpoint = objective((a + b) / 2.0)
            chord = (objective(a) + objective(b)) / 2.0
            assert chord <= midpoint + 1e-9

    def test_projection_failure_keeps_its_plan_units(self, monkeypatch):
        # the caps bind, so a later projection needs more than one cycle; its
        # residual is a violation of the polytope, not a payoff quantity
        spec = BENCH_GAMES[3]
        utility = spec.utilities[0]
        weighted = dataclasses.replace(utility, rho=2.0**10 * utility.rho,
                                       cost_coefficient=2.0**10 * utility.cost_coefficient)
        spec = dataclasses.replace(spec, utilities=(weighted,))
        monkeypatch.setattr(single_player_solver, "PROJECTION_MAX_CYCLES", 1)
        with pytest.raises(ConvergenceError, match="dual active-set projection") as excinfo:
            solve_single(spec)
        error = excinfo.value
        assert error.residual == build_region(spec).max_violation(error.last_iterate) > 0.0

    @pytest.mark.parametrize("seed", [13, 124, 181, 193, 197, 248])
    def test_degenerate_vertices_do_not_cycle(self, seed):
        # many constraints tight at one point: unless the working set stays
        # linearly independent, the projection can repeat its working sets
        rng = np.random.default_rng(seed)
        n, K, budget = rng.integers(2, 9), rng.integers(1, 5), rng.choice([0.5, 1, 3, 10])
        spec = random_linear_game(np.random.default_rng(seed), 1, int(n), int(K))
        report = solve_single(dataclasses.replace(spec, budgets=np.array([budget])))
        assert report.kkt_residual <= 1e-8

    @pytest.mark.parametrize("n, K, seed", RECIPE_B_CYCLING)
    def test_nearly_dependent_working_sets_converge(self, n, K, seed):
        # a cap row comes within round-off of the working set's span; the
        # projection must still end, at the optimum
        report = solve_single(recipe_b_game(n, K, seed))
        assert report.kkt_residual <= 1e-8

    def test_float_scale_budget_raises_no_warning(self):
        # budget 1e308: the budget row's slack is near the float range, so a
        # ratio test that divided it by a small rate overflowed
        spec = random_linear_game(np.random.default_rng(0), 1, 3, 2)
        utility = dataclasses.replace(spec.utilities[0], cost_coefficient=1.0)
        spec = dataclasses.replace(spec, budgets=np.array([1e308]), utilities=(utility,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve_single(spec)
        assert build_region(spec).contains(report.plan.ravel())
        assert report.kkt_residual <= 1e-8

    @staticmethod
    def _check_weights_scale_the_objective_only(seed, budget, scales):
        spec = random_linear_game(np.random.default_rng(seed), 1, 5, 3)
        if budget is not None:
            spec = dataclasses.replace(spec, budgets=np.array([budget]))
        base = solve_single(spec)
        utility = spec.utilities[0]
        for s in scales:
            weighted = dataclasses.replace(utility, rho=s * utility.rho,
                                           cost_coefficient=s * utility.cost_coefficient)
            report = solve_single(dataclasses.replace(spec, utilities=(weighted,)))
            assert report.objective == pytest.approx(s * base.objective, rel=1e-12, abs=0)
            np.testing.assert_allclose(report.plan, base.plan, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("budget", [None, 3.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_large_utility_weights_scale_the_objective_only(self, seed, budget):
        # the ascent clamps its step in absolute terms: with weights of 1e6
        # and more, unscaled candidates lay so far out that the projection's
        # round-off overran a cap, or the ascent stopped short
        self._check_weights_scale_the_objective_only(seed, budget, (1e6, 1e8, 1e12))

    @pytest.mark.parametrize("budget", [None, 3.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_small_utility_weights_scale_the_objective_only(self, seed, budget):
        # a gradient divided by max(1, max|g|) stayed small, so no multiple up
        # to SEARCH_MAX_SCALE reached the budget or a cap, and its residual on
        # the free columns failed the certificate's absolute tolerance
        self._check_weights_scale_the_objective_only(seed, budget, (1e-4, 1e-8, 1e-11))

    def test_rejects_multiplayer(self, two_player_spec):
        with pytest.raises(ValueError, match="single-player games only"):
            solve_single(two_player_spec)

    @pytest.mark.parametrize("index", range(len(BENCH_GAMES)))
    def test_two_kernel_passes_at_the_zero_plan_and_the_plan(self, monkeypatch, index):
        # the gradient is constant on the polytope, so the search needs none
        # past the zero plan's, and the report one at the plan
        profiles = count_kernel_passes(monkeypatch)
        report = solve_single(BENCH_GAMES[index])
        assert len(profiles) == 2
        assert np.all(profiles[0] == 0.0)
        assert np.array_equal(np.maximum(profiles[1][0], 0.0), report.plan)

    def test_twenty_individuals_three_campaigns(self):
        # the largest single-player size in the suite: 60 variables, 121 halfspaces
        spec = random_linear_game(np.random.default_rng(0), 1, 20, 3)
        report = solve_single(spec)
        assert build_region(spec).contains(report.plan.ravel())
        assert report.kkt_residual <= 1e-8

    @pytest.mark.parametrize("spec", list(_exact_solve_gate_games()))
    def test_no_worse_than_the_ascent(self, spec):
        report = solve_single(spec)
        ascent_value = linear_program_ascent(spec)[1]
        assert report.objective >= ascent_value - 1e-12 * max(1.0, abs(report.objective))
        assert report.kkt_residual <= 1e-8
        validate_plans(spec, report.plan[None])

    @pytest.mark.parametrize("cap", [0.5, 1.0, 4.0])
    def test_exhausted_search_raises_with_a_feasible_plan(self, monkeypatch, cap):
        # the caps bind in bench game 3, whose search certifies at s = 16
        spec = BENCH_GAMES[3]
        monkeypatch.setattr(single_player_solver, "SEARCH_MAX_SCALE", cap)
        with pytest.raises(ConvergenceError, match="certifies its plan") as excinfo:
            solve_single(spec)
        assert build_region(spec).contains(excinfo.value.last_iterate)
        assert excinfo.value.residual > single_player_solver.PROJECTION_TOL


class TestCertificate:
    """A working set W certifies its plan only if the plan meets every row
    and the gradient is a nonnegative combination of W's rows."""

    @staticmethod
    def far_working_set(spec):
        """The working set of one projection of 4^5 times the scaled gradient,
        past the threshold on the bench games, with that gradient."""
        region, g = build_region(spec), scaled_gradient(spec)
        working = empty_working_set(region)
        _active_set(4.0**5 * g, region, working)
        return region, working, g

    @pytest.mark.parametrize("index", range(len(BENCH_GAMES)))
    def test_far_working_set_certifies_the_optimum(self, index):
        spec = BENCH_GAMES[index]
        region, working, g = self.far_working_set(spec)
        plan, violation, shortfall = _certified_plan(region, working, g)
        assert violation <= shortfall <= single_player_solver.PROJECTION_TOL
        np.testing.assert_allclose(plan, solve_single(spec).plan.ravel(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("index", range(len(BENCH_GAMES)))
    def test_a_dropped_row_fails_the_certificate(self, index):
        # every held entry of W carries a positive multiplier of g, so W
        # without it leaves g a residual or the plan off a row
        region, working, g = self.far_working_set(BENCH_GAMES[index])
        _, multipliers, _, _ = _solve_working(
            region, working, np.array([np.zeros(region.dim), g]))
        held = working.nonzero()[0]
        assert held.size and multipliers.min() > 1e-6
        for entry in held:
            planted = working.copy()
            planted[entry] = False
            assert _certified_plan(region, planted, g)[2] > 1e-6

    @pytest.mark.parametrize("index", range(len(BENCH_GAMES)))
    def test_a_flipped_gradient_fails_the_certificate(self, index):
        region, working, g = self.far_working_set(BENCH_GAMES[index])
        assert _certified_plan(region, working, -g)[2] > 1e-6


class TestLinearProgramAscent:
    """``_maximize_concave`` on a single-player game's linear program: the
    ascent that best responses and hindsight run, and its step budget."""

    def test_monotone_ascent(self):
        rng = np.random.default_rng(67)
        spec = random_linear_game(rng, 1, 2, 2)
        values = linear_program_ascent(spec)[3]
        assert len(values) >= 2
        diffs = np.diff(values)
        assert diffs.min() >= -1e-12

    def test_iteration_budget_exhaustion_raises(self, monkeypatch):
        spec = random_linear_game(np.random.default_rng(0), 1, 10, 3)
        monkeypatch.setattr(single_player_solver, "ASCENT_MAX_STEPS", 1)
        with pytest.raises(ConvergenceError) as excinfo:
            linear_program_ascent(spec)
        assert build_region(spec).contains(excinfo.value.last_iterate)

    def test_budget_exhaustion_reports_in_payoff_units(self, monkeypatch):
        # weights 2^4 and 2^24 times a random game's: both start from
        # max|g0| >= 1, so the ascent runs identically in units of payoff / c
        # and only the payoff units differ, by exactly 2^20
        spec = random_linear_game(np.random.default_rng(0), 1, 5, 3)
        utility = spec.utilities[0]
        monkeypatch.setattr(single_player_solver, "ASCENT_MAX_STEPS", 1)
        errors, scales = [], []
        for factor in (2.0**4, 2.0**24):
            weighted = dataclasses.replace(utility, rho=factor * utility.rho,
                                           cost_coefficient=factor * utility.cost_coefficient)
            game = dataclasses.replace(spec, utilities=(weighted,))
            g0 = payoff_gradient(game, np.zeros((1, 3, 5)), 0)
            scales.append(float(np.max(np.abs(g0))))
            with pytest.raises(ConvergenceError) as excinfo:
                linear_program_ascent(game)
            errors.append(excinfo.value)
            assert f"step norm {1e-9 * scales[-1]:g} " in str(excinfo.value)
        assert scales[0] >= 1.0
        assert errors[1].residual == 2.0**20 * errors[0].residual > 0.0
        np.testing.assert_array_equal(errors[1].last_iterate, errors[0].last_iterate)

    def test_unreachable_tolerance_runs_out_of_iterations_not_feasibility(self, monkeypatch):
        # a linear objective grows the step by 1.5 per acceptance; past about
        # 1e10 the projection's round-off would leave the plan infeasible.  A
        # negative tolerance is never met, not even by the exact residual 0
        spec = random_linear_game(np.random.default_rng(1), 1, 10, 3)
        monkeypatch.setattr(single_player_solver, "ASCENT_TOL", -1.0)
        monkeypatch.setattr(single_player_solver, "ASCENT_MAX_STEPS", 100)
        with pytest.raises(ConvergenceError) as excinfo:
            linear_program_ascent(spec)
        assert build_region(spec).contains(excinfo.value.last_iterate)
