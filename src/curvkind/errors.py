"""Exception types shared across the package."""


class CurvkindError(ValueError):
    """Base class for all input-contract violations."""


class ShapeMismatch(CurvkindError):
    """Array has the wrong shape for its dimension, or a non-finite entry."""


class DimensionMismatch(CurvkindError):
    """Two operands live on spaces of different dimension."""


class NotSymmetric(CurvkindError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class CurvatureSymmetryError(CurvkindError):
    """A (0,4)-tensor violates the algebraic curvature symmetries."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class KOutOfRange(CurvkindError):
    """Partial-sum order k exceeds the number of eigenvalues."""


class InfeasibleWeights(CurvkindError):
    """Total weight exceeds what the eigenvalue count allows."""


class POutOfRange(CurvkindError):
    """Form degree p outside the valid range for the requested quantity."""


class VariantPreconditionFailed(CurvkindError):
    """A bound variant was requested on input that violates its hypothesis."""
