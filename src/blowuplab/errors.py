"""Exception and warning types shared across the package."""


class BlowupLabError(Exception):
    """Base class for package errors."""


class DomainError(BlowupLabError, ValueError):
    """An argument is outside the documented domain of an operation."""


class EvaluationError(BlowupLabError, RuntimeError):
    """An integrand or field produced non-finite values."""


class DegeneracyError(BlowupLabError, RuntimeError):
    """A quadratic form has no strictly negative direction to normalize on."""


class CoverageError(BlowupLabError, ValueError):
    """A sampled field does not cover the ball required by a stencil."""


class EscapeError(BlowupLabError, RuntimeError):
    """A trajectory left the small-delta ball where the half-scale map is defined."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class QuadratureConvergenceWarning(UserWarning):
    """Two refinement levels of a quadrature disagree beyond the requested tolerance."""


class ConditioningWarning(UserWarning):
    """A projection is too close to zero for its normalization to be trustworthy."""
