"""Exception hierarchy.

Validation problems (bad parameters, points on a branch cut, degenerate
targets) derive from ValueError; numerical failures (quadrature that does
not converge, stalled iterations, precision budgets that cannot be met)
derive from ArithmeticError or RuntimeError so callers can tell the two
apart.
"""

from __future__ import annotations


class BernlabError(Exception):
    """Base class for every error raised by this package."""


class GammaPoleError(BernlabError, ValueError):
    """log_gamma evaluated at a non-positive integer."""


class CutViolationError(BernlabError, ValueError):
    """A Cauchy transform was requested at a point on its cut [0, inf)."""


class InvalidProblemError(BernlabError, ValueError):
    """Problem parameters outside the supported domain."""


class QuadratureError(BernlabError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class PrecisionBudgetError(BernlabError, ArithmeticError):
    """The requested computation would underflow the precision budget."""


class BranchTrackingError(BernlabError, RuntimeError):
    """Analytic continuation could not keep the phase branch consistent."""


class NonConvergenceError(BernlabError, RuntimeError):
    """An iterative solver stalled; diagnostics carry the best state seen."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics
