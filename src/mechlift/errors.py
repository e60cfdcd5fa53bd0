"""Exception types shared across the package."""


class MechliftError(Exception):
    """Base class for all package-specific errors.

    ``step`` and ``state`` name the failed step of a stepping loop and
    the state it started from; None elsewhere.
    """

    step = None
    state = None


class NonFinite(MechliftError):
    """A numerical evaluation produced NaN or Inf."""


class NotSkew(MechliftError):
    """Matrix handed to the inverse-hat operator is not skew-symmetric."""


class AngleAtPi(MechliftError):
    """Rotation angle too close to pi; the matrix logarithm branch is ambiguous."""


class OutsideChart(MechliftError):
    """A chart map or its inverse was evaluated outside its domain of validity."""


class DimensionMismatch(MechliftError):
    """Array dimensions inconsistent with the system's (n, m)."""


class WrongDimensions(MechliftError):
    """Operation requires a specific (n, m) signature."""


class SingularFeedback(MechliftError):
    """Feedback transformation is singular at the requested point."""


class NoConvergence(MechliftError):
    """Implicit solver failed to reach its residual tolerance."""

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"solver stalled after {iterations} iterations, residual {residual:.3e}")


class NotLinearityPreserving(MechliftError):
    """Discretization map does not induce an affine one-step update."""


class Uncontrollable(MechliftError):
    """Controllability matrix is rank deficient; pole placement impossible."""


class MultiInputUnsupported(MechliftError):
    """Pole placement is implemented for single-input systems only."""


class SingularStep(MechliftError):
    """One-step resolvent matrix is singular at this step size."""


class UnknownSystem(MechliftError):
    """Requested system name is not registered."""
