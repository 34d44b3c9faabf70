"""Budget allocation and open-loop equilibria for influence games on social networks.

Opinions diffuse between campaign times by the averaging flow exp(-L dt) and
jump when players invest advertising budget.  A single player's optimal plan
is the solution of a concave program over a polytope; multiplayer open-loop
equilibria are the limits of simultaneous no-regret gradient ascent.
"""

from .errors import (
    ConvergenceError,
    HypothesisCheckError,
    InfeasiblePlanError,
    InfluenceGameError,
    ScenarioError,
)
from .opinion_dynamics import (
    CampaignSchedule,
    Network,
    OpinionState,
    Propagator,
    TrajectoryPoint,
    build_network,
    jump_multi,
    jump_single,
    matrix_exponential,
    propagator,
    simulate_trajectory,
)
from .game_model import (
    BudgetPlan,
    GameSpec,
    StageUtility,
    opinions_at_campaigns,
    opinions_at_campaigns_closed_form,
    payoff_gradient,
    plans_from_array,
    profile_array,
    total_payoff,
    validate_plans,
)
from .single_player_solver import (
    FeasibleRegion,
    SolveReport,
    build_region,
    project_feasible,
    solve_single,
)
from .equilibrium_solver import (
    EquilibriumResult,
    LearningTrace,
    StepSchedule,
    best_response,
    default_step_schedule,
    exploitability,
    project_budget_set,
    regret,
    run_no_regret,
    solve_equilibrium,
)
from .verification import (
    ConvexityProbe,
    ConvexityReport,
    FiniteDifferenceResult,
    StochasticityReport,
    brute_force_best_response,
    check_stochastic,
    fd_gradient,
    midpoint_convexity_check,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
