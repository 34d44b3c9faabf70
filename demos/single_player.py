"""Optimal advertising for a single player.

With one player the campaign-time opinions are linear in the investments, so
the best plan solves a concave program over a small polytope.  Two stories:
a one-individual instance solvable by hand, and a path network where the
solver decides how to spread budget over campaigns and individuals.

Usage: python demos/single_player.py
"""

import numpy as np

from influencegame import (
    CampaignSchedule,
    GameSpec,
    OpinionState,
    StageUtility,
    brute_force_best_response,
    build_network,
    build_region,
    solve_single,
)


def scalar_story():
    print("=" * 64)
    print("One individual, one campaign: solvable by hand")
    print("=" * 64)
    # utility x - 0.4 b per stage; the average payoff is 0.5 + 0.3 b, so the
    # opinion cap b <= 1 - x0 = 0.5 binds and the optimum is b = 0.5
    spec = GameSpec(
        network=build_network(np.eye(1)),
        schedule=CampaignSchedule(times=np.array([0.0, 1.0, 2.0])),
        x0=OpinionState(np.array([[0.5]])),
        budgets=np.array([1.0]),
        utilities=(StageUtility(rho=np.ones((2, 1)), cost_coefficient=0.4),),
    )
    report = solve_single(spec)
    print(f"optimal investment: {report.plan.ravel()}  (hand value: 0.5)")
    print(f"objective:          {report.objective:.6f}      (hand value: 0.65)")
    print(f"iterations: {report.iterations}, first-order residual: "
          f"{report.kkt_residual:.2e}")
    _, grid_value = brute_force_best_response(spec, np.zeros((1, 1, 1)), 0, 0.01)
    print(f"exhaustive 0.01-grid search agrees: {grid_value:.6f}")


def network_story():
    print()
    print("=" * 64)
    print("Three individuals on a path, two campaigns, tight budget")
    print("=" * 64)
    adjacency = np.array([
        [2 / 3, 1 / 3, 0.0],
        [1 / 3, 1 / 3, 1 / 3],
        [0.0, 1 / 3, 2 / 3],
    ])
    # the middle individual relays influence to both ends; later campaigns
    # count for fewer remaining stages
    spec = GameSpec(
        network=build_network(adjacency),
        schedule=CampaignSchedule(times=np.array([0.0, 1.0, 2.0, 3.0])),
        x0=OpinionState(np.array([[0.2], [0.3], [0.4]])),
        budgets=np.array([0.8]),
        utilities=(StageUtility(rho=np.array([[1.0, 2.0, 1.0]] * 3),
                                cost_coefficient=0.3),),
    )
    region = build_region(spec)
    print(f"constraint polytope: nonnegative R^{region.dim} within {region.count} halfspaces")
    report = solve_single(spec)
    print("optimal plan (rows = campaigns, columns = individuals):")
    print(report.plan.round(4))
    print(f"spent {report.plan.sum():.4f} of budget "
          f"{spec.budgets[0]:.1f}, objective {report.objective:.6f}")


if __name__ == "__main__":
    scalar_story()
    network_story()
