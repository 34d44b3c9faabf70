import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from influencegame import (
    CampaignSchedule,
    GameSpec,
    InfeasiblePlanError,
    OpinionState,
    StageUtility,
    build_network,
    exploitability,
    opinions_at_campaigns,
    opinions_at_campaigns_closed_form,
    payoff_gradient,
    propagator,
    simulate_trajectory,
    total_payoff,
    validate_plans,
)
from influencegame import game_model
from influencegame.verification import (
    brute_force_best_response,
    random_feasible_profile,
    random_linear_game,
)
from influencegame.equilibrium_solver import regret, run_no_regret
from conftest import (count_flow_builds, count_kernel_passes, payoff_fd_gradients,
                      single_player_spec)


def eig_expm(sym: np.ndarray, t: float) -> np.ndarray:
    """Independent matrix exponential for symmetric matrices (test oracle)."""
    w, v = np.linalg.eigh(sym)
    return v @ np.diag(np.exp(-w * t)) @ v.T


def full_spend_profile(rng, spec):
    profile = np.empty((spec.m, spec.K, spec.n))
    for j in range(spec.m):
        raw = rng.random((spec.K, spec.n)) + 0.05
        profile[j] = raw / raw.sum() * float(spec.budgets[j])
    return profile


class TestOpinionsAtCampaigns:
    def test_zero_plans_are_pure_diffusion(self, two_player_spec):
        spec = two_player_spec
        plans = np.zeros((2, 2, 3))
        states = opinions_at_campaigns(spec, plans)
        for k in range(1, spec.K + 2):
            direct = eig_expm(spec.network.laplacian, spec.schedule.times[k]) @ spec.x0.values
            np.testing.assert_allclose(states[k - 1], direct, atol=1e-12)

    def test_static_network_single_jump(self):
        spec = single_player_spec(n=2, K=1, x0=0.4, budget=1.0)
        states = opinions_at_campaigns(spec, np.array([[[0.3, 0.1]]]))
        np.testing.assert_allclose(states[0][:, 0], [0.4, 0.4])
        np.testing.assert_allclose(states[1][:, 0], [0.7, 0.5])

    def test_reference_game_matches_stepwise_oracle(self, two_player_spec):
        # uniform plans: 0.5 and 0.8 per stage per individual
        spec = two_player_spec
        profile = np.stack([np.full((2, 3), 0.5), np.full((2, 3), 0.8)])
        states = opinions_at_campaigns(spec, profile)

        # independent step-by-step simulation via the eigendecomposition oracle
        state = np.full((3, 2), 0.5)
        flow = eig_expm(spec.network.laplacian, 1.0)
        expected = []
        for k in range(1, 4):
            state = flow @ state
            expected.append(state.copy())
            if k <= 2:
                stage = np.column_stack([profile[0][k - 1], profile[1][k - 1]])
                state = (state + stage) / (1.0 + stage.sum(axis=1))[:, None]
        np.testing.assert_allclose(states, np.array(expected), atol=1e-10)

    def test_recursion_agrees_with_summation_form(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            spec = random_linear_game(rng, int(rng.integers(1, 4)),
                                      int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            plans = random_feasible_profile(rng, spec)
            recursion = opinions_at_campaigns(spec, plans)
            summation = opinions_at_campaigns_closed_form(spec, plans)
            assert np.max(np.abs(recursion - summation)) <= 1e-10

    def test_simplex_rows_preserved_at_every_campaign(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            spec = random_linear_game(rng, int(rng.integers(2, 4)),
                                      int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            plans = random_feasible_profile(rng, spec)
            states = opinions_at_campaigns(spec, plans)
            np.testing.assert_allclose(states.sum(axis=2), 1.0, atol=1e-9)

    def test_infeasible_plans_rejected(self, two_player_spec):
        overspend = np.stack([np.full((2, 3), 1.0), np.zeros((2, 3))])
        with pytest.raises(InfeasiblePlanError):
            validate_plans(two_player_spec, overspend)


def unit_linear_game(network, times, x0, budgets):
    """Linear-favor game with unit opinion weights and unit costs."""
    return GameSpec(
        network=network,
        schedule=CampaignSchedule(times=np.asarray(times, dtype=float)),
        x0=OpinionState(np.asarray(x0, dtype=float)),
        budgets=np.asarray(budgets, dtype=float),
        utilities=tuple(
            StageUtility(rho=np.ones((len(times) - 1, network.n)), cost_coefficient=1.0)
            for _ in budgets
        ),
    )


def static_one_player_game(x0, budget=1.0):
    """Unit linear one-player game on isolated individuals, so that every
    propagator is I, with one campaign at t = 1."""
    x0 = np.asarray(x0, dtype=float)
    return unit_linear_game(build_network(np.eye(x0.size)), [0.0, 1.0, 2.0], x0[:, None],
                            [budget])


class TestSinglePlayerJump:
    """The kernel's additive one-player jump x + b, within the opinion cap."""

    def test_zero_budget_is_the_identity(self):
        spec = static_one_player_game([0.5, 0.25, 1.0])
        _, states, post_jump = simulate_trajectory(spec, np.zeros((1, 1, 3)), [1.0])
        assert post_jump[1]
        np.testing.assert_array_equal(states[1], states[0])

    def test_post_jump_row_by_hand(self):
        spec = static_one_player_game([0.2, 0.9])
        plan = np.array([[[0.3, 0.1]]])
        states = simulate_trajectory(spec, plan, [1.0])[1]
        np.testing.assert_allclose(states[1][:, 0], [0.5, 1.0])
        np.testing.assert_allclose(opinions_at_campaigns(spec, plan)[1, :, 0], [0.5, 1.0])

    @pytest.mark.parametrize("entry_point", [
        pytest.param(opinions_at_campaigns, id="opinions"),
        pytest.param(lambda spec, p: simulate_trajectory(spec, p, [2.0]), id="simulate"),
        pytest.param(lambda spec, p: total_payoff(spec, p, 0), id="payoff"),
        pytest.param(lambda spec, p: payoff_gradient(spec, p, 0), id="gradient"),
    ])
    def test_headroom_overrun_refused(self, entry_point):
        spec = static_one_player_game([0.9])
        with pytest.raises(InfeasiblePlanError,
                           match=r"exceeds remaining opinion headroom by 1\.000e-01"):
            entry_point(spec, np.array([[[0.2]]]))

    def test_jump_is_monotone(self):
        rng = np.random.default_rng(5)
        x0 = rng.random(200)
        spec = static_one_player_game(x0, budget=200.0)
        states = opinions_at_campaigns(spec, (rng.random(200) * (1.0 - x0))[None, None])
        assert np.all(states[1] >= states[0])

    @pytest.mark.parametrize("entry", [-0.1, np.nan])
    def test_negative_or_nan_entry_refused_by_the_kernel(self, entry):
        # ``validate_plans`` refuses both at every public entry point, but the
        # ascents hand the kernel projections, which may leave an entry below 0
        spec = static_one_player_game([0.5, 0.5])
        own = np.array([[[0.1, entry]]])
        with pytest.raises(InfeasiblePlanError, match="negative budget entry"):
            game_model._columns_pass(spec, own, own[0])
        own[0, 0, 1] = -1e-10  # within FEASIBILITY_TOL
        np.testing.assert_array_equal(game_model._columns_pass(spec, own, own[0])[1],
                                      [[[0.6, 0.4999999999]]])

    @pytest.mark.parametrize("entry", [
        pytest.param(np.nan, id="nan-budget"),
        pytest.param(np.inf, id="infinite-budget"),
        pytest.param(-np.inf, id="minus-infinite-budget"),
    ])
    def test_non_finite_entry_refused_before_the_kernel(self, monkeypatch, entry):
        # the kernel's jump has no finiteness check: validate_plans is its guard
        spec = static_one_player_game([0.5, 0.5])
        passes = count_kernel_passes(monkeypatch)
        with pytest.raises(ValueError, match="non-finite"):
            total_payoff(spec, np.array([[[0.1, entry]]]), 0)
        assert passes == []

    @pytest.mark.parametrize("x0, match", [
        pytest.param([np.nan, 0.5], "finite", id="nan-opinion"),
        pytest.param([np.inf, 0.5], "finite", id="infinite-opinion"),
        pytest.param([-np.inf, 0.5], "finite", id="minus-infinite-opinion"),
        pytest.param([-5.0, 0.5], r"\[0, 1\]", id="negative-opinion"),
        pytest.param([0.5, -2e-9], r"\[0, 1\]", id="just-beyond-the-tolerance"),
    ])
    def test_bad_initial_opinion_refused_before_the_kernel(self, x0, match):
        # the kernel's jump has no opinion check: the game's x0 is its guard
        with pytest.raises(ValueError, match=match):
            static_one_player_game(x0)

    def test_initial_opinion_within_the_tolerance_below_zero_clipped(self):
        spec = static_one_player_game([-1e-11, 0.5])
        states = opinions_at_campaigns(spec, np.zeros((1, 1, 2)))
        np.testing.assert_array_equal(states[:, :, 0], [[0.0, 0.5], [0.0, 0.5]])
        assert not np.signbit(states[1, 0, 0])


KERNEL_GAMES = [
    pytest.param(lambda rng: random_linear_game(rng, 1, 4, 3), id="one-player"),
    pytest.param(lambda rng: random_linear_game(rng, 2, 4, 3), id="two-player"),
    pytest.param(lambda rng: random_linear_game(rng, 3, 5, 2), id="three-player"),
]


def closed_form_payoff(spec, profile, j):
    """Player j's payoff scored stage by stage from the closed-form states."""
    states = opinions_at_campaigns_closed_form(spec, profile)
    utility, total = spec.utilities[j], 0.0
    for k in range(1, spec.K + 2):
        x = states[k - 1][:, j]
        b = profile[j, k - 1] if k <= spec.K else np.zeros(spec.n)
        total += x @ utility.rho[k - 1] - utility.cost_coefficient * b.sum()
    return total / (spec.K + 1)


class TestColumnsPass:
    """The one kernel carries every player's column at once."""

    @pytest.mark.parametrize("game", KERNEL_GAMES)
    def test_every_column_matches_the_closed_form(self, game):
        rng = np.random.default_rng(59)
        for _ in range(3):
            spec = game(rng)
            profile = random_feasible_profile(rng, spec)
            pre, _, payoffs, _ = game_model._profile_pass(spec, profile)
            closed = opinions_at_campaigns_closed_form(spec, profile)
            for j in range(spec.m):
                np.testing.assert_allclose(pre[j], closed[..., j], rtol=0, atol=1e-12)
                expected = closed_form_payoff(spec, profile, j)
                assert payoffs[j] == pytest.approx(expected, rel=0, abs=1e-12)

    @pytest.mark.parametrize("game", KERNEL_GAMES)
    def test_every_column_gradient_matches_finite_differences(self, game):
        rng = np.random.default_rng(61)
        spec = game(rng)
        profile = random_feasible_profile(rng, spec)
        _, _, payoffs, gradients = game_model._profile_pass(spec, profile)
        for j in range(spec.m):
            numeric = payoff_fd_gradients(spec, profile[None], j)[0]
            scale = max(np.max(np.abs(numeric)), 1e-12)
            assert np.max(np.abs(gradients[j] - numeric)) / scale < 1e-6
            assert payoffs[j] == pytest.approx(total_payoff(spec, profile, j), abs=1e-14)

    @pytest.mark.parametrize("game", KERNEL_GAMES)
    def test_one_column_and_stacks_agree_with_the_all_column_pass(self, game):
        rng = np.random.default_rng(67)
        spec = game(rng)
        stack = np.stack([random_feasible_profile(rng, spec) for _ in range(4)])
        together = game_model._profile_pass(spec, stack)
        for j in range(spec.m):
            alone = game_model._profile_pass(spec, stack, slice(j, j + 1))
            for joint, single in zip(together, alone):
                np.testing.assert_allclose(single[:, 0], joint[:, j], rtol=0, atol=1e-14)
        for b, profile in enumerate(stack):
            for joint, single in zip(together, game_model._profile_pass(spec, profile)):
                np.testing.assert_allclose(single, joint[b], rtol=0, atol=1e-14)


HINDSIGHT_GAMES = [
    *(pytest.param(lambda rng, m=m: random_linear_game(rng, m, 4, 3), id=f"{m}-player")
      for m in (2, 3, 4)),
    pytest.param(lambda rng: random_linear_game(rng, 3, 1, 3), id="3-player-one-individual"),
    # one entry per plan, where numpy would sum nine players pairwise
    pytest.param(lambda rng: random_linear_game(rng, 9, 1, 1), id="9-player-one-entry"),
]


class TestOwnPlansAndTotals:
    """A hindsight pass hands the kernel one own plan, without the batch
    axes, and the damping totals of the substituted profiles."""

    @pytest.mark.parametrize("game", HINDSIGHT_GAMES)
    def test_objective_is_the_substituted_stack_bit_for_bit(self, game):
        rng = np.random.default_rng(73)
        spec = game(rng)
        own = random_feasible_profile(rng, spec)
        batch = np.stack([random_feasible_profile(rng, spec) for _ in range(9)])
        for profiles in (batch, batch[0]):
            for j in range(spec.m):
                evaluate = game_model._objective_for_player(spec, profiles, j)
                value, gradient = evaluate(own[j].ravel())
                stack = profiles.copy()
                stack[..., j, :, :] = own[j]
                assert value == float(np.sum(total_payoff(spec, stack, j)))
                summed = payoff_gradient(spec, stack, j).reshape(-1, spec.K * spec.n).sum(axis=0)
                np.testing.assert_array_equal(gradient, summed)

    def test_one_player_objective_is_the_plans_own_payoff_whatever_the_batch(self):
        # no plan is fixed, so the profiles hold no batch for the totals to carry
        rng = np.random.default_rng(89)
        spec = random_linear_game(rng, 1, 4, 3)
        own = random_feasible_profile(rng, spec)
        expected = total_payoff(spec, own, 0), payoff_gradient(spec, own, 0).ravel()
        for batch in [(), (5,), (2, 3)]:
            profiles = np.stack([random_feasible_profile(rng, spec)
                                 for _ in range(math.prod(batch))]).reshape(batch + own.shape)
            value, gradient = game_model._objective_for_player(spec, profiles, 0)(own.ravel())
            assert value == expected[0]
            np.testing.assert_array_equal(gradient, expected[1])

    def test_objective_pass_takes_one_own_plan_without_a_batch_axis(self, monkeypatch):
        spec = random_linear_game(np.random.default_rng(79), 3, 4, 3)
        trace = run_no_regret(spec, 12)
        plans = count_kernel_passes(monkeypatch)
        for j in range(spec.m):
            regret(trace, j)
        assert plans and {plan.shape for plan in plans} == {(1, spec.K, spec.n)}

    @pytest.mark.parametrize("m", range(2, 11))
    def test_ordered_totals_equal_the_profile_sum(self, m):
        # numpy's sum over the players adds them in order, as the kernel's
        # totals do, except over one entry per plan (K n = 1), where it sums
        # eight or more players pairwise
        rng = np.random.default_rng(m)
        for shape in [(3, 10), (4, 1), (1, 2), (1, 1)]:
            for batch in [(), (1,), (7,), (2, 3)]:
                scales = 10.0 ** rng.integers(-6, 7, size=batch + (m, 1, 1))
                plans = rng.random(batch + (m,) + shape) * scales
                total = game_model._ordered_total(plans)
                in_order = functools.reduce(np.add, [plans[..., i, :, :] for i in range(m)])
                assert np.array_equal(total, in_order)
                if shape != (1, 1) or m < 8:
                    assert np.array_equal(total, plans.sum(axis=-3))


class TestPlayerIndex:
    @pytest.mark.parametrize("j", [True, False, 1.0, np.float64(0.0), "1", None])
    @pytest.mark.parametrize("entry", [total_payoff, payoff_gradient])
    def test_non_integer_index_refused(self, two_player_spec, entry, j):
        with pytest.raises(ValueError, match="player index must be an integer"):
            entry(two_player_spec, np.zeros((2, 2, 3)), j)

    def test_negative_and_numpy_indices_keep_their_meaning(self, two_player_spec):
        spec = two_player_spec
        profile = random_feasible_profile(np.random.default_rng(83), spec)
        assert total_payoff(spec, profile, -1) == total_payoff(spec, profile, np.int64(1))
        assert total_payoff(spec, profile, -1) == total_payoff(spec, profile, 1)
        np.testing.assert_array_equal(payoff_gradient(spec, profile, -2),
                                      payoff_gradient(spec, profile, 0))
        with pytest.raises(IndexError):
            total_payoff(spec, profile, 2)


class TestSimulateTrajectory:
    def test_zero_plans_match_pure_diffusion(self, path_network):
        rng = np.random.default_rng(23)
        raw = rng.random((3, 2))
        spec = unit_linear_game(path_network, [0.0, 1.0, 2.0, 3.0],
                                raw / raw.sum(axis=1, keepdims=True), [3.0, 5.0])
        plans = np.zeros((2, 2, 3))
        samples = np.linspace(0.0, 3.0, 17)
        times, states, post_jump = simulate_trajectory(spec, plans, samples)
        assert np.count_nonzero(~post_jump) == 17
        for time, state in zip(times[~post_jump], states[~post_jump]):
            direct = eig_expm(path_network.laplacian, time) @ spec.x0.values
            assert np.max(np.abs(state - direct)) <= 1e-10

    def test_consensus_on_connected_graph(self, path_network):
        rng = np.random.default_rng(29)
        spec = unit_linear_game(path_network, [0.0, 50.0, 100.0], rng.random((3, 1)), [1.0])
        states = simulate_trajectory(spec, np.zeros((1, 1, 3)), [100.0])[1]
        final = states[-1]
        assert final.max() - final.min() < 1e-4

    def test_saturating_single_player_jump(self, path_network):
        spec = unit_linear_game(path_network, [0.0, 1.0, 2.0], np.full((3, 1), 0.25), [3.0])
        pre = eig_expm(path_network.laplacian, 1.0) @ spec.x0.values
        _, states, post_jump = simulate_trajectory(spec, (1.0 - pre[:, 0])[None, None, :],
                                                   [1.0, 2.0])
        np.testing.assert_allclose(states[post_jump][0], 1.0, atol=1e-12)
        np.testing.assert_allclose(states[-1], 1.0, atol=1e-10)

    def test_samples_in_a_gap_share_one_build(self, two_player_spec, monkeypatch):
        spec = two_player_spec
        plans = np.stack([np.full((2, 3), 0.3), np.full((2, 3), 0.5)])
        times = spec.schedule.times
        _, states, post_jump = simulate_trajectory(spec, plans, times[1:-1])
        leaving = [spec.x0.values, *states[post_jump]]
        builds = count_flow_builds(monkeypatch)
        sampled, states, _ = simulate_trajectory(spec, plans, np.linspace(0.0, 3.0, 200))
        inside = ~np.isin(sampled, times[1:])  # t = 0 opens the first gap
        assert len(builds) <= spec.K + 1
        assert sum(shape[0] for shape in builds) == np.count_nonzero(inside) == 199
        for time, state in zip(sampled[inside], states[inside]):
            k = int(np.searchsorted(times, time, side="right"))
            flow = propagator(spec.network, time - times[k - 1])
            expected = OpinionState(flow @ leaving[k - 1]).values
            assert np.array_equal(state, expected)

    def test_a_gap_builds_in_blocks_of_bounded_size(self, two_player_spec, monkeypatch):
        spec = two_player_spec
        plans = np.stack([np.full((2, 3), 0.3), np.full((2, 3), 0.5)])
        samples = np.linspace(0.0, 3.0, 200)
        whole = simulate_trajectory(spec, plans, samples)
        monkeypatch.setattr(game_model, "_SAMPLE_BLOCK", 5 * spec.n ** 2)
        builds = count_flow_builds(monkeypatch)
        blocked = simulate_trajectory(spec, plans, samples)
        assert max(shape[0] for shape in builds) == 5
        assert sum(shape[0] for shape in builds) == 199
        for one, other in zip(blocked, whole, strict=True):
            assert np.array_equal(one, other)

    def test_records_are_three_read_only_arrays(self, two_player_spec):
        # one record per sample, and one more per sample on an interior
        # campaign time: 6 samples, three of them on t = 1 or t = 2
        spec = two_player_spec
        samples = np.array([0.0, 1.0, 1.0, 1.5, 2.0, 3.0])
        times, states, post_jump = simulate_trajectory(spec, np.zeros((2, 2, 3)), samples)
        assert (times.shape, states.shape, post_jump.shape) == ((9,), (9, 3, 2), (9,))
        assert (times.dtype, states.dtype, post_jump.dtype) == (float, float, bool)
        assert not any(array.flags.writeable for array in (times, states, post_jump))
        assert samples.flags.writeable  # the records do not share the caller's array
        assert post_jump.tolist() == [False, False, True, False, True, False, False, True, False]

    def test_no_samples_give_no_records(self, two_player_spec):
        times, states, post_jump = simulate_trajectory(two_player_spec, np.zeros((2, 2, 3)), [])
        assert (times.shape, states.shape, post_jump.shape) == ((0,), (0, 3, 2), (0,))
        assert post_jump.dtype == bool

    def test_many_samples_in_a_gap_keep_memory_bounded(self):
        # 500 samples per gap at n = 60 would be stacks of 14 MB each if a
        # gap were built in one call
        spec = random_linear_game(np.random.default_rng(0), 1, 60, 1)
        samples = np.linspace(spec.schedule.t0, spec.schedule.tf, 1000)
        spec.kernel  # built before tracing: only the samples' stacks count
        tracemalloc.start()
        try:
            times = simulate_trajectory(spec, np.zeros((1, 1, 60)), samples)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert times.size == 1000
        assert peak < 16 * 2 ** 20

    def test_campaign_time_sample_reports_pre_and_post(self, path_network):
        spec = unit_linear_game(path_network, [0.0, 1.0, 2.0], np.full((3, 2), 0.5),
                                [3.0, 5.0])
        plans = np.stack([np.full((1, 3), 0.2), np.full((1, 3), 0.4)])
        times, states, post_jump = simulate_trajectory(spec, plans, [0.0, 1.0, 2.0])
        at_campaign = times == 1.0
        assert post_jump[at_campaign].tolist() == [False, True]
        assert not np.allclose(*states[at_campaign])

    def test_boundary_and_repeated_samples(self, path_network):
        # a sample within the horizon slack before t_0 records x0; every copy
        # of a campaign-time sample gives a pre and a post record; the
        # terminal time has no jump, so only a pre-jump record
        spec = unit_linear_game(path_network, [0.0, 1.0, 2.0], np.full((3, 1), 0.25), [3.0])
        plans = np.full((1, 1, 3), 0.1)
        times, states, post_jump = simulate_trajectory(spec, plans, [-1e-13, 1.0, 1.0, 2.0])
        np.testing.assert_array_equal(states[0], spec.x0.values)
        assert list(zip(times[1:].tolist(), post_jump[1:].tolist())) == [
            (1.0, False), (1.0, True), (1.0, False), (1.0, True), (2.0, False)]
        np.testing.assert_array_equal(states[1], states[3])
        np.testing.assert_array_equal(states[2], states[4])

    def test_close_campaign_times_keep_their_own_samples(self):
        # t_1 = 1e6's window of 1e-9 |t_1| = 1e-3 once reached past t_2 =
        # t_1 + 1e-4: both samples came back stamped t_1 with t_1's states
        network = build_network(np.array([[1.0]]))
        t1, t2 = 1e6, 1e6 + 1e-4
        spec = unit_linear_game(network, [0.0, t1, t2, 2e6], [[0.5, 0.5]], [3.0, 3.0])
        plans = np.array([[[0.0], [0.5]], [[0.0], [0.0]]])  # player 0 invests at t_2
        times, states, post_jump = simulate_trajectory(spec, plans, [t1 + 5e-5, t2])
        assert times.tolist() == [t1 + 5e-5, t2, t2]
        assert post_jump.tolist() == [False, False, True]
        np.testing.assert_allclose(states[:2, 0], [[0.5, 0.5]] * 2, atol=1e-15)
        np.testing.assert_allclose(states[2, 0], [2 / 3, 1 / 3], atol=1e-15)

    def test_multiplayer_jump_direct_evaluation(self):
        # one isolated individual: the post-jump row is (x + b) / (1 + sum b)
        network = build_network(np.array([[1.0]]))
        for x0, budgets, expected in [
            ([[0.5, 0.5]], [1.0, 0.0], [[0.75, 0.25]]),
            ([[0.3, 0.7]], [2.0, 2.0], [[0.46, 0.54]]),
        ]:
            spec = unit_linear_game(network, [0.0, 1.0, 2.0], x0, [3.0, 3.0])
            plans = np.reshape(budgets, (2, 1, 1))
            pre, post = simulate_trajectory(spec, plans, [1.0])[1]
            np.testing.assert_allclose(pre, x0, atol=1e-15)
            np.testing.assert_allclose(post, expected, atol=1e-15)

    def test_multiplayer_zero_budget_jump_is_identity(self, path_network):
        spec = unit_linear_game(path_network, [0.0, 1.0, 2.0],
                                [[0.3, 0.7], [0.5, 0.5], [0.9, 0.1]], [1.0, 1.0])
        _, states, post_jump = simulate_trajectory(spec, np.zeros((2, 1, 3)), [1.0])
        assert post_jump.tolist() == [False, True]
        np.testing.assert_array_equal(states[1], states[0])

    def test_multiplayer_negative_budget_rejected(self):
        network = build_network(np.array([[1.0]]))
        spec = unit_linear_game(network, [0.0, 1.0, 2.0], [[0.5, 0.5]], [1.0, 1.0])
        with pytest.raises(InfeasiblePlanError):
            validate_plans(spec, np.array([[[-0.1]], [[0.2]]]))

    def test_multiplayer_jump_law_on_random_games(self, path_network):
        # at every campaign time the post-jump rows equal (pre + b) / (1 + sum b)
        rng = np.random.default_rng(13)
        for _ in range(20):
            raw = rng.random((3, 3))
            spec = unit_linear_game(path_network, [0.0, 0.5, 1.5, 2.0],
                                    raw / raw.sum(axis=1, keepdims=True), [6.0, 6.0, 6.0])
            profile = rng.random((3, 2, 3))
            states = simulate_trajectory(spec, profile, [0.5, 1.5])[1]
            for k in range(2):
                pre, post = states[2 * k], states[2 * k + 1]
                b = profile[:, k, :].T
                expected = (pre + b) / (1.0 + b.sum(axis=1, keepdims=True))
                np.testing.assert_allclose(post, expected, atol=1e-12)

    def test_multiplayer_jump_preserves_simplex(self):
        rng = np.random.default_rng(17)
        adjacency = np.diag(np.ones(3), 1)
        network = build_network(adjacency + adjacency.T)
        raw = rng.random((4, 3))
        spec = unit_linear_game(network, [0.0, 1.0, 2.0], raw / raw.sum(axis=1, keepdims=True),
                                [12.0, 12.0, 12.0])
        plans = rng.random((3, 1, 4)) * 3.0
        _, states, post_jump = simulate_trajectory(spec, plans, np.linspace(0.0, 2.0, 9))
        assert post_jump.any()
        for state in states:
            np.testing.assert_allclose(state.sum(axis=1), 1.0, atol=1e-12)

    def test_unsorted_samples_rejected(self, path_network):
        spec = unit_linear_game(path_network, [0.0, 1.0, 2.0], np.full((3, 1), 0.5), [1.0])
        with pytest.raises(ValueError):
            simulate_trajectory(spec, np.zeros((1, 1, 3)),
                                [1.5, 0.5])

    @pytest.mark.parametrize("call", [
        lambda spec: simulate_trajectory(spec, np.zeros((2, 2, 3)), [0.5, np.nan, 2.5]),
        lambda spec: simulate_trajectory(spec, np.zeros((2, 2, 3)), [np.nan]),
        lambda spec: propagator(spec.network, np.inf),
        lambda spec: propagator(spec.network, np.nan),
    ], ids=["simulate-nan-inside", "simulate-nan-alone", "propagator-inf", "propagator-nan"])
    def test_non_finite_times_refused(self, two_player_spec, call):
        # a NaN sample used to drop itself and every later sample, and a
        # non-finite gap used to fail inside the matrix exponential
        with pytest.raises(ValueError, match="finite"):
            call(two_player_spec)

    @pytest.mark.parametrize("times, match", [
        pytest.param([[0.5, 1.0]], "flat list", id="two-dimensional"),
        pytest.param([0.5, 3.5], "horizon", id="after-the-horizon"),
        pytest.param([-0.5, 0.5], "horizon", id="before-the-horizon"),
    ])
    def test_bad_sample_times_refused(self, two_player_spec, times, match):
        with pytest.raises(ValueError, match=match):
            simulate_trajectory(two_player_spec, np.zeros((2, 2, 3)), times)

    def test_infeasible_plan_rejected(self, path_network):
        spec = unit_linear_game(path_network, [0.0, 1.0, 2.0], np.full((3, 1), 0.9), [3.0])
        with pytest.raises(InfeasiblePlanError):
            simulate_trajectory(spec, np.full((1, 1, 3), 0.5),
                                [2.0])

    def test_matches_campaign_time_closed_form(self, two_player_spec):
        # pre-jump samples at the campaign times must agree with the
        # closed-form summation, and post-jump rows stay on the simplex
        spec = two_player_spec
        profile = np.stack([np.full((2, 3), 0.5), np.full((2, 3), 0.8)])
        plans = profile
        closed_form = opinions_at_campaigns_closed_form(spec, plans)
        times, states, post_jump = simulate_trajectory(spec, plans, [1.0, 2.0, 3.0])
        assert times[~post_jump].tolist() == [1.0, 2.0, 3.0]
        for k, state in enumerate(states[~post_jump]):
            assert np.max(np.abs(state - closed_form[k])) <= 1e-8
        assert times[post_jump].tolist() == [1.0, 2.0]
        for state in states[post_jump]:
            assert np.max(np.abs(state.sum(axis=1) - 1.0)) <= 1e-12


def profile_with_entry(value):
    """Zero reference-game profile with player 1's last first-stage entry set."""
    profile = np.zeros((2, 2, 3))
    profile[1, 0, 2] = value
    return profile


class TestValidatePlans:
    @pytest.mark.parametrize("profile, error", [
        pytest.param(np.zeros((3, 2, 3)), InfeasiblePlanError, id="wrong-m"),
        pytest.param(np.zeros((2, 1, 3)), InfeasiblePlanError, id="wrong-K"),
        pytest.param(np.zeros((2, 2, 4)), InfeasiblePlanError, id="wrong-n"),
        pytest.param(profile_with_entry(np.nan), ValueError, id="nan"),
        pytest.param(profile_with_entry(-2e-9), InfeasiblePlanError, id="negative"),
        pytest.param(profile_with_entry(-5e-10), None, id="negative-within-tolerance"),
        pytest.param(profile_with_entry(5.0 + 2e-9), InfeasiblePlanError, id="over-budget"),
        pytest.param(profile_with_entry(5.0 + 5e-10), None, id="budget-within-tolerance"),
    ])
    def test_checks_and_clamps(self, two_player_spec, profile, error):
        if error is not None:
            with pytest.raises(error, match="player 1|shaped"):
                validate_plans(two_player_spec, profile)
            return
        validated = validate_plans(two_player_spec, profile)
        np.testing.assert_array_equal(validated, np.maximum(profile, 0.0))
        assert validated is not profile
        if profile[1, 0, 2] < 0:
            assert validated[1, 0, 2] == 0.0 and not np.signbit(validated[1, 0, 2])

    @pytest.mark.parametrize("entry_point", [
        pytest.param(lambda spec, p: opinions_at_campaigns(spec, p), id="opinions"),
        pytest.param(lambda spec, p: opinions_at_campaigns_closed_form(spec, p),
                     id="closed-form"),
        pytest.param(lambda spec, p: simulate_trajectory(spec, p, [1.0]), id="simulate"),
        pytest.param(lambda spec, p: total_payoff(spec, p, 0), id="payoff"),
        pytest.param(lambda spec, p: payoff_gradient(spec, p, 0), id="gradient"),
        pytest.param(lambda spec, p: exploitability(spec, p), id="exploitability"),
        pytest.param(lambda spec, p: brute_force_best_response(spec, p, 0, grid_step=1.0),
                     id="grid-search"),
    ])
    def test_entry_points_refuse_over_budget_opponent(self, path_network, entry_point):
        # player 1 spends 12 from a budget of 5; K * n = 3 keeps the grid search legal
        spec = unit_linear_game(path_network, [0.0, 1.0, 2.0], np.full((3, 2), 0.5),
                                [3.0, 5.0])
        profile = np.stack([np.zeros((1, 3)), np.full((1, 3), 4.0)])
        with pytest.raises(InfeasiblePlanError, match="player 1"):
            entry_point(spec, profile)

    @pytest.mark.parametrize("player, entry, error, match", [
        pytest.param(1, 5.0 + 2e-9, InfeasiblePlanError, "player 1 spends", id="over-budget"),
        pytest.param(0, -2e-9, InfeasiblePlanError, "player 0 has a negative", id="negative"),
        pytest.param(1, np.nan, ValueError, "player 1 has non-finite", id="nan"),
    ])
    def test_stack_with_one_bad_row_names_its_player(self, two_player_spec, player,
                                                     entry, error, match):
        stack = np.full((4, 2, 2, 3), 0.1)
        stack[2, player, 0, 2] = entry
        with pytest.raises(error, match=match):
            validate_plans(two_player_spec, stack)
        stack[2, player, 0, 2] = 0.1
        np.testing.assert_array_equal(validate_plans(two_player_spec, stack), stack)

    @pytest.mark.parametrize("entry_point", [
        pytest.param(lambda spec, p: opinions_at_campaigns_closed_form(spec, p),
                     id="closed-form"),
        pytest.param(lambda spec, p: simulate_trajectory(spec, p, [1.0]), id="simulate"),
        pytest.param(lambda spec, p: exploitability(spec, p), id="exploitability"),
        pytest.param(lambda spec, p: brute_force_best_response(spec, p, 0, grid_step=1.0),
                     id="grid-search"),
    ])
    def test_single_profile_entry_points_refuse_a_stack(self, path_network, entry_point):
        spec = unit_linear_game(path_network, [0.0, 1.0, 2.0], np.full((3, 2), 0.5),
                                [3.0, 5.0])
        with pytest.raises(InfeasiblePlanError, match="shaped"):
            entry_point(spec, np.zeros((2, 2, 1, 3)))


class TestTotalPayoff:
    def test_reference_game_constant_sum_at_full_spend(self, two_player_spec):
        # with both budgets fully spent: (1/3)(9 - 3 - 5) = 1/3
        rng = np.random.default_rng(41)
        for _ in range(10):
            profile = full_spend_profile(rng, two_player_spec)
            plans = profile
            u1 = total_payoff(two_player_spec, plans, 0)
            u2 = total_payoff(two_player_spec, plans, 1)
            assert abs(u1 + u2 - 1.0 / 3.0) <= 1e-10

    def test_constant_sum_depends_only_on_spend(self, two_player_spec):
        rng = np.random.default_rng(43)
        for _ in range(5):
            profile = random_feasible_profile(rng, two_player_spec)
            plans = profile
            total = sum(total_payoff(two_player_spec, plans, j) for j in range(2))
            expected = 3.0 - profile.sum() / 3.0
            assert abs(total - expected) <= 1e-10

    @pytest.mark.parametrize("m", [1, 3])
    def test_stack_evaluates_each_profile(self, m):
        rng = np.random.default_rng(47)
        spec = random_linear_game(rng, m, 4, 2)
        stack = np.array([random_feasible_profile(rng, spec) for _ in range(6)]).reshape(
            2, 3, m, 2, 4)
        payoffs = total_payoff(spec, stack, m - 1)
        opinions = opinions_at_campaigns(spec, stack)
        assert payoffs.shape == (2, 3) and opinions.shape == (2, 3, 3, 4, m)
        for index in np.ndindex(2, 3):
            single = total_payoff(spec, stack[index], m - 1)
            assert isinstance(single, float)
            assert abs(payoffs[index] - single) <= 1e-14
            np.testing.assert_allclose(opinions[index], opinions_at_campaigns(spec, stack[index]),
                                       rtol=0, atol=1e-14)

    def test_static_zero_plan_payoff(self):
        spec = single_player_spec(n=3, K=2, x0=0.5, budget=1.0, rho=1.0, cost=1.0)
        plans = np.zeros((1, 2, 3))
        assert total_payoff(spec, plans, 0) == pytest.approx(1.5, abs=1e-12)

    def test_saturation_reaches_consensus_value(self, path_network):
        # after driving everyone to 1 at the first campaign, diffusion keeps
        # opinions at 1, so later stages collect the full weight mass
        schedule = CampaignSchedule(times=np.array([0.0, 1.0, 2.0, 3.0]))
        x0 = OpinionState(np.full((3, 1), 0.25))
        rho = np.ones((3, 3))
        spec = GameSpec(network=path_network, schedule=schedule, x0=x0,
                        budgets=np.array([3.0]),
                        utilities=(StageUtility(rho=rho, cost_coefficient=0.0),))
        pre = eig_expm(path_network.laplacian, 1.0) @ x0.values
        entries = np.zeros((2, 3))
        entries[0] = 1.0 - pre[:, 0]
        plans = entries[None]
        states = opinions_at_campaigns(spec, plans)
        np.testing.assert_allclose(states[1], 1.0, atol=1e-12)
        np.testing.assert_allclose(states[2], 1.0, atol=1e-12)
        expected = (float(pre.sum()) + 3.0 + 3.0) / 3.0
        assert total_payoff(spec, plans, 0) == pytest.approx(expected, abs=1e-10)


class TestPayoffGradient:
    def test_single_player_linear_formula(self):
        # no damping: gradient entry (k, i) is the discounted mass
        # sum_{k'>k} (A_{k',k}' rho(k'))_i minus the cost coefficient
        rng = np.random.default_rng(47)
        spec = random_linear_game(rng, 1, 3, 2)
        plans = random_feasible_profile(rng, spec)
        gradient = payoff_gradient(spec, plans, 0)
        utility = spec.utilities[0]
        K = spec.K
        times = spec.schedule.times
        expected = np.empty((K, spec.n))
        for k in range(1, K + 1):
            acc = np.full(spec.n, -utility.cost_coefficient)
            for k_later in range(k + 1, K + 2):
                flow = propagator(spec.network, times[k_later] - times[k])
                acc = acc + flow.T @ utility.rho[k_later - 1]
            expected[k - 1] = acc / (K + 1)
        np.testing.assert_allclose(gradient, expected, atol=1e-10)

    def test_one_individual_two_player_hand_value(self):
        # static network, one individual, x0 = 1/2, free budgets:
        # dU1/db1 at the origin is (1 - x0) / 2 = 1/4
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
        plans = np.zeros((2, 1, 1))
        gradient = payoff_gradient(spec, plans, 0)
        assert gradient[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_entries_bounded_by_the_weights(self):
        # the bound GameSpec keeps under 1e288 for linear utilities
        rng = np.random.default_rng(17)
        for m in (1, 2, 3):
            spec = random_linear_game(rng, m, 4, 3)
            profiles = np.array([random_feasible_profile(rng, spec) for _ in range(20)])
            for j, utility in enumerate(spec.utilities):
                bound = (utility.rho.sum() + utility.cost_coefficient) / (spec.K + 1)
                assert np.abs(payoff_gradient(spec, profiles, j)).max() <= bound

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(4):
            spec = random_linear_game(rng, int(rng.integers(1, 4)),
                                      int(rng.integers(2, 4)), int(rng.integers(1, 3)))
            for _ in range(5):
                profile = random_feasible_profile(rng, spec)
                j = int(rng.integers(spec.m))
                analytic = payoff_gradient(spec, profile, j)
                numeric = payoff_fd_gradients(spec, profile[None], j)[0]
                scale = max(np.max(np.abs(numeric)), 1e-12)
                worst = max(worst, np.max(np.abs(analytic - numeric)) / scale)
        assert worst < 1e-6


class TestConvexityInOpponents:
    def test_midpoint_convexity_of_payoff(self):
        rng = np.random.default_rng(59)
        for _ in range(5):
            spec = random_linear_game(rng, 2, 3, 2)
            own = random_feasible_profile(rng, spec)[0]

            def payoff(opponent):
                profile = np.stack([own, opponent.reshape(spec.K, spec.n)])
                return total_payoff(spec, profile, 0)

            for _ in range(5):
                a = random_feasible_profile(rng, spec)[1].ravel()
                b = random_feasible_profile(rng, spec)[1].ravel()
                mid = payoff((a + b) / 2.0)
                chord = (payoff(a) + payoff(b)) / 2.0
                assert mid <= chord + 1e-9


class TestStageUtility:
    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            StageUtility(rho=np.array([[-1.0]]))

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            StageUtility(rho=np.ones((2, 2)), cost_coefficient=-0.1)

    def test_linear_needs_rho(self):
        with pytest.raises(TypeError, match="rho"):
            StageUtility(cost_coefficient=0.5)

    @pytest.mark.parametrize("cost", ["1.0", None, True, np.bool_(True)],
                             ids=["string", "none", "bool", "numpy-bool"])
    def test_cost_coefficient_must_be_a_real_number(self, cost):
        with pytest.raises(ValueError, match="cost coefficient must be real numbers"):
            StageUtility(rho=np.ones((3, 3)), cost_coefficient=cost)

    @pytest.mark.parametrize("cost", [2, np.float64(0.5), np.int64(3), np.float32(0.25)])
    def test_real_cost_coefficients_are_held_as_floats(self, cost):
        utility = StageUtility(rho=np.ones((3, 3)), cost_coefficient=cost)
        assert type(utility.cost_coefficient) is float
        assert utility.cost_coefficient == cost


class TestGameSpec:
    def test_game_objects_compare_and_hash_by_identity(self, two_player_spec):
        assert (build_network(np.ones((2, 2))) == build_network(np.ones((2, 2)))) is False
        assert two_player_spec == two_player_spec
        assert hash(two_player_spec) == hash(two_player_spec)
        assert two_player_spec != dataclasses.replace(two_player_spec)

    @pytest.mark.parametrize("rho, cost, accepted", [
        pytest.param(1e308, 1e308, False, id="every-weight-at-the-float-scale"),
        pytest.param(0.0, 3.1e288, False, id="cost-alone-over"),
        pytest.param(1e287, 1e287, True, id="just-under"),
        pytest.param(1.0, 1.0, True, id="reference"),
    ])
    def test_weights_that_could_overflow_a_solver_step_refused(self, two_player_spec, rho,
                                                               cost, accepted):
        # (sum(rho) + lambda) / (K + 1) bounds every gradient entry; over 1e288
        # a solver step may overflow
        utility = StageUtility(rho=np.full((3, 3), rho), cost_coefficient=cost)
        make = lambda: dataclasses.replace(two_player_spec, utilities=(utility, utility))
        if accepted:
            assert make().utilities[0] is utility
        else:
            with pytest.raises(ValueError, match="solver step may overflow"):
                make()

    @pytest.mark.parametrize("budgets", [np.full((2, 1), 4.0), np.full((1, 2), 4.0),
                                         np.full(3, 4.0)], ids=["column", "row", "three"])
    def test_budgets_must_be_a_flat_vector_of_m_entries(self, two_player_spec, budgets):
        with pytest.raises(ValueError, match="flat vector"):
            dataclasses.replace(two_player_spec, budgets=budgets)

    @pytest.mark.parametrize("first_row, accepted", [
        ([0.5 + 5e-10, 0.5], True),
        ([0.5 + 2e-9, 0.5], False),
        ([0.2, 0.2], False),
    ])
    def test_multiplayer_x0_rows_must_sum_to_one(self, two_player_spec, first_row, accepted):
        values = np.full((3, 2), 0.5)
        values[0] = first_row
        make = lambda: dataclasses.replace(two_player_spec, x0=OpinionState(values))
        if accepted:
            assert make().x0.values[0, 0] == first_row[0]
        else:
            with pytest.raises(ValueError, match="sum to 1"):
                make()

    def test_game_without_players_refused(self, two_player_spec):
        # with no opinion columns the kernel has nothing to carry; a payoff
        # call would fail inside numpy on a (0, n) reshape
        with pytest.raises(ValueError, match="at least one player"):
            dataclasses.replace(two_player_spec, x0=OpinionState(np.zeros((3, 0))),
                                budgets=np.zeros(0), utilities=())

    @pytest.mark.parametrize("utility", [None, np.ones((3, 3)), "linear-favor", 1.0],
                             ids=["none", "weights-array", "string", "number"])
    @pytest.mark.parametrize("player", [0, 1])
    def test_utility_that_is_not_a_stage_utility_refused(self, two_player_spec, utility,
                                                         player):
        # each once failed on an attribute of the utility with AttributeError
        utilities = list(two_player_spec.utilities)
        utilities[player] = utility
        with pytest.raises(ValueError,
                           match=f"^utility of player {player} must be a StageUtility, got "):
            dataclasses.replace(two_player_spec, utilities=utilities)

    def test_weights_must_supply_every_stage(self, two_player_spec):
        short = StageUtility(rho=np.ones((2, 3)), cost_coefficient=1.0)
        with pytest.raises(ValueError, match=r"^rho must supply all 3 stages for 3 individuals$"):
            dataclasses.replace(two_player_spec, utilities=(short, two_player_spec.utilities[1]))
