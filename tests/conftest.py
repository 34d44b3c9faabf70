import os
import types
from pathlib import Path

import numpy as np
import pytest

from influencegame import (
    CampaignSchedule,
    GameSpec,
    OpinionState,
    StageUtility,
    build_network,
    fd_gradient,
    total_payoff,
)
from influencegame import equilibrium_solver, game_model, opinion_dynamics
from influencegame.single_player_solver import _active_set

ROOT = Path(__file__).resolve().parents[1]


def subprocess_env() -> dict:
    """This process's environment with the checkout's ``src`` first on
    PYTHONPATH, so child interpreters import the package under test, and
    with warnings turned into errors there as they are in this process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env["PYTHONWARNINGS"] = "error"
    return env


def load_bench_module(stem):
    """``bench/<stem>.py`` as a module, compiled from its source so that no
    bytecode cache is written next to it."""
    path = ROOT / "bench" / f"{stem}.py"
    module = types.ModuleType(f"bench_{stem}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def empty_working_set(region):
    """A working-set mask for ``_active_set`` over the halfspaces of
    ``region`` and then its variables, holding nothing."""
    return np.zeros(region.count + region.dim, dtype=bool)


def cold_projection(point, region):
    """The projection onto ``region`` by ``_active_set`` from an empty
    working set, which starts the dual active-set method cold: from the
    working set of the point's budget-set projection when the region's last
    row is the all-ones budget row with a nonnegative cap (as
    ``build_region`` makes it), else from the empty working set."""
    return _active_set(point, region, empty_working_set(region))


def count_linear_solves(monkeypatch) -> list:
    """A list that grows by one entry per ``np.linalg.solve`` call until the
    monkeypatch is undone."""
    solves = []
    solve = np.linalg.solve

    def counted(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return solves


def count_flow_builds(monkeypatch) -> list:
    """A list that gains the shape of every stack ``opinion_dynamics._flow``
    builds until the monkeypatch is undone."""
    builds = []
    original = opinion_dynamics._flow

    def counting(adjacency, dt):
        stack = original(adjacency, dt)
        builds.append(stack.shape)
        return stack

    monkeypatch.setattr(opinion_dynamics, "_flow", counting)
    return builds


def count_kernel_passes(monkeypatch) -> list:
    """A list that gains a copy of the own plans, (..., p, K, n), of every
    game-kernel pass, ``game_model._columns_pass`` as ``game_model`` calls
    it, until the monkeypatch is undone."""
    plans = []
    original = game_model._columns_pass

    def counting(spec, own, *args):
        plans.append(np.array(own))
        return original(spec, own, *args)

    monkeypatch.setattr(game_model, "_columns_pass", counting)
    return plans


def payoff_fd_gradients(spec, profiles, j, h=1e-5):
    """Central differences of player j's payoff in its own plan at each
    profile of the (B, m, K, n) stack, from one ``fd_gradient`` call: the
    perturbed plans of row b are scored in profile b."""
    def payoff_of_own(own):
        candidates = np.broadcast_to(profiles, own.shape[:1] + profiles.shape).copy()
        candidates[..., j, :, :] = own
        return total_payoff(spec, candidates, j)

    return fd_gradient(payoff_of_own, profiles[:, j], h)


def nested_loop_csv(trace):
    """``trace_to_csv``'s rendering, one f-string per row in nested loops:
    the reference the per-iteration rendering must match byte for byte."""
    lines = ["iteration,player,stage,individual,iterate_value,average_value,payoff"]
    rows = zip(trace.iterates.tolist(), trace.averages.tolist(), trace.payoffs.tolist())
    for tau, (iterate, average, payoffs) in enumerate(rows, start=1):
        for j, (plan, mean, payoff) in enumerate(zip(iterate, average, payoffs)):
            for k, (stage, stage_mean) in enumerate(zip(plan, mean), start=1):
                for i, (x, y) in enumerate(zip(stage, stage_mean)):
                    lines.append(f"{tau},{j},{k},{i},{x!r},{y!r},{payoff!r}")
    return "\n".join(lines) + "\n"


# Path network used by the reference two-player configuration.
PATH_LAPLACIAN = np.array([
    [1 / 3, -1 / 3, 0.0],
    [-1 / 3, 2 / 3, -1 / 3],
    [0.0, -1 / 3, 1 / 3],
])
PATH_ADJACENCY = np.eye(3) - PATH_LAPLACIAN


def star_adjacency(n):
    """A hub (individual 0) listening equally to n - 1 leaves, each leaf
    listening to the hub alone.  Its stationary row puts 1/2 on the hub and
    1/(2(n-1)) on each leaf, and every row of exp(-L dt) tends to it."""
    adjacency = np.zeros((n, n))
    adjacency[0, 1:] = 1.0
    adjacency[1:, 0] = 1.0
    return adjacency


@pytest.fixture
def path_network():
    return build_network(PATH_ADJACENCY)


@pytest.fixture
def two_player_spec(path_network):
    """Reference configuration: two campaigns on [0, 3], budgets 3 and 5,
    unit weights and costs, everyone starting at 1/2."""
    rho = np.ones((3, 3))
    return GameSpec(
        network=path_network,
        schedule=CampaignSchedule(times=np.array([0.0, 1.0, 2.0, 3.0])),
        x0=OpinionState(np.full((3, 2), 0.5)),
        budgets=np.array([3.0, 5.0]),
        utilities=(
            StageUtility(rho=rho, cost_coefficient=1.0),
            StageUtility(rho=rho, cost_coefficient=1.0),
        ),
    )


def single_player_spec(n=1, K=1, x0=0.5, budget=1.0, rho=1.0, cost=0.4, times=None):
    """Isolated-individuals single-player game (L = 0 unless times say otherwise)."""
    if times is None:
        times = np.arange(K + 2, dtype=float)
    return GameSpec(
        network=build_network(np.eye(n)),
        schedule=CampaignSchedule(times=np.asarray(times, dtype=float)),
        x0=OpinionState(np.full((n, 1), x0)),
        budgets=np.array([budget]),
        utilities=(StageUtility(rho=np.full((K + 1, n), rho), cost_coefficient=cost),),
    )
