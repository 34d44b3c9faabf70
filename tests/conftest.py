import os
from pathlib import Path

import numpy as np
import pytest

from influencegame import (
    CampaignSchedule,
    GameSpec,
    OpinionState,
    StageUtility,
    build_network,
)

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


# Path network used by the reference two-player configuration.
PATH_LAPLACIAN = np.array([
    [1 / 3, -1 / 3, 0.0],
    [-1 / 3, 2 / 3, -1 / 3],
    [0.0, -1 / 3, 1 / 3],
])
PATH_ADJACENCY = np.eye(3) - PATH_LAPLACIAN


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
            StageUtility(kind="linear-favor", rho=rho, cost_coefficient=1.0),
            StageUtility(kind="linear-favor", rho=rho, cost_coefficient=1.0),
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
        utilities=(StageUtility(kind="linear-favor",
                                rho=np.full((K + 1, n), rho),
                                cost_coefficient=cost),),
    )
