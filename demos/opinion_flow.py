"""Opinion flow on a small social network.

Walk through the building blocks: normalize a weighted graph, carry opinions
across campaign-free intervals with the row-stochastic propagator, and sample
a two-player game's trajectory as arrays of record times, opinion states and
post-jump flags, whose budget jumps at campaign times show as a pre-jump and
a post-jump record.

Usage: python demos/opinion_flow.py
"""

import numpy as np

from influencegame import (
    CampaignSchedule,
    GameSpec,
    OpinionState,
    StageUtility,
    build_network,
    propagator,
    simulate_trajectory,
)


def main():
    print("=" * 64)
    print("1. A three-individual path network")
    print("=" * 64)
    adjacency = np.array([
        [2 / 3, 1 / 3, 0.0],
        [1 / 3, 1 / 3, 1 / 3],
        [0.0, 1 / 3, 2 / 3],
    ])
    network = build_network(adjacency)
    print("adjacency (row-stochastic):\n", network.adjacency)
    print("Laplacian L = I - A:\n", network.laplacian)

    print()
    print("=" * 64)
    print("2. Propagators exp(-L dt) are row-stochastic at every horizon")
    print("=" * 64)
    gaps = np.array([0.5, 1.0, 5.0, 50.0, 1e4])
    for dt, matrix in zip(gaps, propagator(network, gaps)):  # one stacked build
        print(f"dt = {dt:7.1f}: row sums {matrix.sum(axis=1)}, "
              f"min entry {matrix.min():.3e}")
    print("long-run rows converge to the uniform stationary weights:")
    print(propagator(network, 200.0).round(6))

    print()
    print("=" * 64)
    print("3. A normalized two-player jump keeps opinion rows on the simplex")
    print("=" * 64)
    spec = GameSpec(
        network=network,
        schedule=CampaignSchedule(times=np.array([0.0, 1.0, 2.0, 3.0])),
        x0=OpinionState(np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])),
        budgets=np.array([3.0, 1.0]),
        utilities=tuple(StageUtility(rho=np.ones((3, 3)), cost_coefficient=1.0)
                        for _ in range(2)),
    )
    profile = np.stack([np.full((2, 3), 0.4), np.full((2, 3), 0.1)])
    pre, post = simulate_trajectory(spec, profile, [1.0])[1]  # the states
    print("pre-jump rows at t = 1: ", pre.round(4).tolist())
    print("investments at t = 1:   ", profile[:, 0].T.tolist())
    print("post-jump rows at t = 1:", post.round(4).tolist())
    print("row sums stay 1:", post.sum(axis=1))

    print()
    print("=" * 64)
    print("4. A full hybrid trajectory: drift, jump, drift, jump, drift")
    print("=" * 64)
    times, states, post_jump = simulate_trajectory(spec, profile, np.linspace(0.0, 3.0, 13))
    for time, state, jumped in zip(times, states, post_jump):
        tag = "post-jump" if jumped else ""
        print(f"t = {time:5.2f} {tag:>9}  opinions of player 0: "
              f"{np.array2string(state[:, 0], precision=4)}")

if __name__ == "__main__":
    main()
