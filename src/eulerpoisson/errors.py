"""Exception types shared across the package.

Every package exception derives from `EulerPoissonError`, which the CLI
maps to exit code 2, and also from ValueError or RuntimeError.

Integration halts (blowup, step underflow, exhausted budget) carry the
partial trajectory so callers can recover the solution up to the halt.
"""

from __future__ import annotations


class EulerPoissonError(Exception):
    """Base of every exception raised by the package."""


class DomainError(EulerPoissonError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class OutOfRange(EulerPoissonError, ValueError):
    """A query point lies outside the solved time or profile range."""


class OutsideRegion(EulerPoissonError, ValueError):
    """A spacetime point violates the validity region of a solution piece."""


class NotPeriodic(EulerPoissonError, ValueError):
    """A period-related operation was invoked on a non-periodic orbit."""


class NoConvergence(EulerPoissonError, RuntimeError):
    """An iterative refinement exhausted its budget before reaching tolerance."""


class NoCompactSupport(EulerPoissonError, ValueError):
    """A profile has no first zero, so no support radius is available."""


class NonRealPower(EulerPoissonError, ValueError):
    """A fractional power of a negative profile value was requested."""


class StencilOutOfDomain(EulerPoissonError, ValueError):
    """A finite-difference stencil arm crossed a validity boundary."""


class MissingGravity(EulerPoissonError, ValueError):
    """A self-gravitating residual was requested on samples without phi_r."""


class IntegrationHalted(EulerPoissonError, RuntimeError):
    """Base for abnormal integrator termination.

    Attributes:
        t: time at which integration stopped.
        trajectory: partial trajectory up to ``t`` (None when no step was
            accepted before the halt).
    """

    def __init__(self, message: str, t: float, trajectory=None):
        super().__init__(message)
        self.t = t
        self.trajectory = trajectory


class StepBudgetExceeded(IntegrationHalted):
    """The configured maximum number of steps was reached."""


class StateBlowup(IntegrationHalted):
    """A state component exceeded the overflow guard (finite-time blowup)."""


class StepUnderflow(IntegrationHalted):
    """The step size collapsed below the relative floor (singularity ahead)."""
