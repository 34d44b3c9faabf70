"""Open-loop equilibria via no-regret learning.

Both players repeatedly play projected gradient ascent against each other,
with the stepsize 10 / tau that linear utilities fix; the running average of their joint strategies converges to an open-loop
equilibrium.  The built-in reference game (budgets 3 and 5, unit advertising
cost) sits exactly at the profitability knife edge, so we also run a variant
with cheaper advertising where both players invest at equilibrium.

Usage: python demos/equilibrium.py
"""

import numpy as np

from influencegame import (
    GameSpec,
    StageUtility,
    exploitability,
    regret,
    run_no_regret,
)
from influencegame.cli import reference_scenario


def describe(spec, label, T=200):
    print("=" * 64)
    print(label)
    print("=" * 64)
    trace = run_no_regret(spec, T)
    averaged = trace.averages[-1]
    for j in range(spec.m):
        print(f"player {j}: averaged strategy (rows = campaigns)")
        print(averaged[j].round(4))
        print(f"  spend {averaged[j].sum():.4f} of budget {spec.budgets[j]:.1f}, "
              f"regret {regret(trace, j):.4e}")
    print(f"exploitability of the averaged profile: "
          f"{exploitability(spec, averaged):.4e}")
    for T_check in (T // 4, T // 2, T):
        gap = exploitability(spec, trace.averages[T_check - 1])
        print(f"  after {T_check:4d} iterations: exploitability {gap:.4e}")
    weighted_spend = sum(
        spec.utilities[j].cost_coefficient * trace.iterates[-1, j].sum()
        for j in range(spec.m)
    )
    print(f"payoff conservation: U1 + U2 = {trace.payoffs[-1].sum():.6f} "
          f"(= 3 - weighted spend / 3 = {3 - weighted_spend / 3:.6f})")
    print()
    return trace


def cheaper_advertising(spec):
    rho = np.ones((3, 3))
    return GameSpec(
        network=spec.network,
        schedule=spec.schedule,
        x0=spec.x0,
        budgets=spec.budgets,
        utilities=tuple(
            StageUtility(kind="linear-favor", rho=rho, cost_coefficient=0.5)
            for _ in range(2)
        ),
    )


def main():
    spec = reference_scenario().spec
    describe(spec, "Reference game (advertising cost 1.0): abstaining is an "
                   "equilibrium")
    describe(cheaper_advertising(spec),
             "Cheaper advertising (cost 0.5): both players invest")


if __name__ == "__main__":
    main()
