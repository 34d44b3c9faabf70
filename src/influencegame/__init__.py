"""Budget allocation and open-loop equilibria for influence games on social networks.

Opinions diffuse between campaign times by the averaging flow exp(-L dt) and
jump when players invest advertising budget.  A single player's optimal plan
is the solution of a concave program over a polytope; multiplayer open-loop
equilibria are the limits of simultaneous no-regret gradient ascent.
"""

from .errors import (
    ConvergenceError,
    InfeasiblePlanError,
    InfluenceGameError,
    ScenarioError,
)
from .opinion_dynamics import (
    CampaignSchedule,
    Network,
    OpinionState,
    StochasticityReport,
    build_network,
    check_stochastic,
    propagator,
)
from .game_model import (
    GameSpec,
    StageUtility,
    opinions_at_campaigns,
    payoff_gradient,
    simulate_trajectory,
    total_payoff,
    validate_plans,
)
from .single_player_solver import (
    FeasibleRegion,
    SolveReport,
    build_region,
    solve_single,
)
from .equilibrium_solver import (
    EquilibriumResult,
    LearningTrace,
    exploitability,
    project_budget_set,
    regret,
    run_no_regret,
    solve_equilibrium,
)
from .verification import (
    brute_force_best_response,
    fd_gradient,
    opinions_at_campaigns_closed_form,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
