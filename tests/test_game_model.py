import dataclasses

import numpy as np
import pytest

from influencegame import (
    BudgetPlan,
    CampaignSchedule,
    GameSpec,
    HypothesisCheckError,
    InfeasiblePlanError,
    OpinionState,
    StageUtility,
    build_network,
    opinions_at_campaigns,
    opinions_at_campaigns_closed_form,
    payoff_gradient,
    plans_from_array,
    propagator,
    total_payoff,
)
from influencegame.verification import (
    fd_gradient,
    random_feasible_profile,
    random_linear_game,
)
from conftest import single_player_spec


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
        plans = plans_from_array(spec, np.zeros((2, 2, 3)))
        states = opinions_at_campaigns(spec, plans)
        for k in range(1, spec.K + 2):
            direct = eig_expm(spec.network.laplacian, spec.schedule.times[k]) @ spec.x0.values
            np.testing.assert_allclose(states[k - 1], direct, atol=1e-12)

    def test_static_network_single_jump(self):
        spec = single_player_spec(n=2, K=1, x0=0.4, budget=1.0)
        plan = BudgetPlan(player=0, entries=np.array([[0.3, 0.1]]), budget_cap=1.0)
        states = opinions_at_campaigns(spec, [plan])
        np.testing.assert_allclose(states[0][:, 0], [0.4, 0.4])
        np.testing.assert_allclose(states[1][:, 0], [0.7, 0.5])

    def test_reference_game_matches_stepwise_oracle(self, two_player_spec):
        # uniform plans: 0.5 and 0.8 per stage per individual
        spec = two_player_spec
        profile = np.stack([np.full((2, 3), 0.5), np.full((2, 3), 0.8)])
        states = opinions_at_campaigns(spec, plans_from_array(spec, profile))

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
            plans = plans_from_array(spec, random_feasible_profile(rng, spec))
            recursion = opinions_at_campaigns(spec, plans)
            summation = opinions_at_campaigns_closed_form(spec, plans)
            assert np.max(np.abs(recursion - summation)) <= 1e-10

    def test_simplex_rows_preserved_at_every_campaign(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            spec = random_linear_game(rng, int(rng.integers(2, 4)),
                                      int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            plans = plans_from_array(spec, random_feasible_profile(rng, spec))
            states = opinions_at_campaigns(spec, plans)
            np.testing.assert_allclose(states.sum(axis=2), 1.0, atol=1e-9)

    def test_infeasible_plans_rejected(self, two_player_spec):
        overspend = np.stack([np.full((2, 3), 1.0), np.zeros((2, 3))])
        with pytest.raises(InfeasiblePlanError):
            plans_from_array(two_player_spec, overspend)


class TestTotalPayoff:
    def test_reference_game_constant_sum_at_full_spend(self, two_player_spec):
        # with both budgets fully spent: (1/3)(9 - 3 - 5) = 1/3
        rng = np.random.default_rng(41)
        for _ in range(10):
            profile = full_spend_profile(rng, two_player_spec)
            plans = plans_from_array(two_player_spec, profile)
            u1 = total_payoff(two_player_spec, plans, 0)
            u2 = total_payoff(two_player_spec, plans, 1)
            assert abs(u1 + u2 - 1.0 / 3.0) <= 1e-10

    def test_constant_sum_depends_only_on_spend(self, two_player_spec):
        rng = np.random.default_rng(43)
        for _ in range(5):
            profile = random_feasible_profile(rng, two_player_spec)
            plans = plans_from_array(two_player_spec, profile)
            total = sum(total_payoff(two_player_spec, plans, j) for j in range(2))
            expected = 3.0 - profile.sum() / 3.0
            assert abs(total - expected) <= 1e-10

    def test_static_zero_plan_payoff(self):
        spec = single_player_spec(n=3, K=2, x0=0.5, budget=1.0, rho=1.0, cost=1.0)
        plans = plans_from_array(spec, np.zeros((1, 2, 3)))
        assert total_payoff(spec, plans, 0) == pytest.approx(1.5, abs=1e-12)

    def test_saturation_reaches_consensus_value(self, path_network):
        # after driving everyone to 1 at the first campaign, diffusion keeps
        # opinions at 1, so later stages collect the full weight mass
        schedule = CampaignSchedule(times=np.array([0.0, 1.0, 2.0, 3.0]))
        x0 = OpinionState(np.full((3, 1), 0.25))
        rho = np.ones((3, 3))
        spec = GameSpec(network=path_network, schedule=schedule, x0=x0,
                        budgets=np.array([3.0]),
                        utilities=(StageUtility(kind="linear-favor", rho=rho,
                                                cost_coefficient=0.0),))
        pre = eig_expm(path_network.laplacian, 1.0) @ x0.values
        entries = np.zeros((2, 3))
        entries[0] = 1.0 - pre[:, 0]
        plans = [BudgetPlan(player=0, entries=entries, budget_cap=3.0)]
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
        plans = plans_from_array(spec, random_feasible_profile(rng, spec))
        gradient = payoff_gradient(spec, plans, 0)
        utility = spec.utilities[0]
        K = spec.K
        times = spec.schedule.times
        expected = np.empty((K, spec.n))
        for k in range(1, K + 1):
            acc = np.full(spec.n, -utility.cost_coefficient)
            for k_later in range(k + 1, K + 2):
                flow = propagator(spec.network, times[k_later] - times[k]).matrix
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
                StageUtility(kind="linear-favor", rho=np.ones((2, 1)), cost_coefficient=0.0),
                StageUtility(kind="linear-favor", rho=np.ones((2, 1)), cost_coefficient=0.0),
            ),
        )
        plans = plans_from_array(spec, np.zeros((2, 1, 1)))
        gradient = payoff_gradient(spec, plans, 0)
        assert gradient[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(4):
            spec = random_linear_game(rng, int(rng.integers(1, 4)),
                                      int(rng.integers(2, 4)), int(rng.integers(1, 3)))
            for _ in range(5):
                profile = random_feasible_profile(rng, spec)
                j = int(rng.integers(spec.m))
                analytic = payoff_gradient(spec, plans_from_array(spec, profile), j)

                def payoff_of_own(own, profile=profile, j=j, spec=spec):
                    candidate = profile.copy()
                    candidate[j] = own
                    return total_payoff(spec, plans_from_array(spec, candidate), j)

                numeric = fd_gradient(payoff_of_own, profile[j]).gradient
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
                return total_payoff(spec, plans_from_array(spec, profile), 0)

            for _ in range(5):
                a = random_feasible_profile(rng, spec)[1].ravel()
                b = random_feasible_profile(rng, spec)[1].ravel()
                mid = payoff((a + b) / 2.0)
                chord = (payoff(a) + payoff(b)) / 2.0
                assert mid <= chord + 1e-9


class TestStageUtility:
    def test_linear_complement_value(self):
        utility = StageUtility(kind="linear-complement", rho=np.ones((2, 2)),
                               cost_coefficient=0.5)
        x = np.array([0.3, 0.4])
        b = np.array([0.2, 0.0])
        assert utility.value(x, b, 1) == pytest.approx((0.7 + 0.6) - 0.5 * 0.2)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            StageUtility(kind="linear-favor", rho=np.array([[-1.0]]))

    def test_custom_needs_all_callables(self):
        with pytest.raises(ValueError):
            StageUtility(kind="custom", value_fn=lambda x, b, k: 0.0)

    def test_undeclared_custom_rejected_in_multiplayer(self, path_network):
        flat = lambda x, b, k: float(x.sum())
        ones = lambda x, b, k: np.ones_like(x)
        zeros = lambda x, b, k: np.zeros_like(x)
        custom = StageUtility(kind="custom", value_fn=flat, opinion_grad_fn=ones,
                              budget_grad_fn=zeros)
        favor = StageUtility(kind="linear-favor", rho=np.ones((2, 3)),
                             cost_coefficient=1.0)
        with pytest.raises(HypothesisCheckError):
            GameSpec(
                network=path_network,
                schedule=CampaignSchedule(times=np.array([0.0, 1.0, 2.0])),
                x0=OpinionState(np.full((3, 2), 0.5)),
                budgets=np.array([1.0, 1.0]),
                utilities=(custom, favor),
            )

    def test_concave_custom_fails_registration_check(self, path_network):
        # declared increasing+convex but actually strictly concave in opinions
        value = lambda x, b, k: float(np.sqrt(x + 1e-9).sum())
        grad = lambda x, b, k: 0.5 / np.sqrt(x + 1e-9)
        zeros = lambda x, b, k: np.zeros_like(x)
        custom = StageUtility(kind="custom", value_fn=value, opinion_grad_fn=grad,
                              budget_grad_fn=zeros, declared_increasing_convex=True)
        favor = StageUtility(kind="linear-favor", rho=np.ones((2, 3)),
                             cost_coefficient=1.0)
        with pytest.raises(HypothesisCheckError):
            GameSpec(
                network=path_network,
                schedule=CampaignSchedule(times=np.array([0.0, 1.0, 2.0])),
                x0=OpinionState(np.full((3, 2), 0.5)),
                budgets=np.array([1.0, 1.0]),
                utilities=(custom, favor),
            )


class TestGameSpec:
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
