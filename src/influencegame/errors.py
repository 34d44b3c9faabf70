"""Exception types shared across the package."""


class InfluenceGameError(Exception):
    """Base class for all package-specific errors."""


class ScenarioError(InfluenceGameError):
    """A scenario document is malformed or dimensionally inconsistent."""


class InfeasiblePlanError(InfluenceGameError):
    """A budget plan violates its constraints beyond tolerance."""


class ConvergenceError(InfluenceGameError):
    """An iterative routine ran out of its iteration budget.

    ``last_iterate`` holds the final point reached and ``residual`` the
    remaining violation or certificate value, when available.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
