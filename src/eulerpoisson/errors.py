"""Exception types shared across the package.

Every package exception derives from `EulerPoissonError`, which the CLI
maps to exit code 2, and also from ValueError or RuntimeError.

Integration halts (blowup, step underflow, exhausted budget) carry the
partial trajectory so callers can recover the solution up to the halt.
`raise_where` raises for array arguments, naming the first bad point; the
error keeps the mask of all of them, so a caller can drop them and go on.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class EulerPoissonError(Exception):
    """Base of every exception raised by the package; `where` is the mask of the bad
    points, broadcast over the coordinates named, if `raise_where` raised it."""

    where = None


def raise_where(bad, error: type[EulerPoissonError], message: str, **point) -> None:
    """Raise error(message) naming the coordinates where `bad` first holds (C order),
    with the whole mask as its `where`; a bad input value raises also when the
    coordinates broadcast to no point."""
    if np.any(bad):
        bad, *coords = np.broadcast_arrays(bad, *point.values())
        if bad.size:
            i = int(np.argmax(bad))
            at = ", ".join(f"{k}={float(v.flat[i])}" for k, v in zip(point, coords))
        else:  # no point: name the coordinates given as scalars
            at = ", ".join(f"{k}={float(v)}" for k, v in point.items() if np.ndim(v) == 0)
        exc = error(f"{message} at ({at})")
        exc.where = bad
        raise exc


class DomainError(EulerPoissonError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class OutOfRange(EulerPoissonError, ValueError):
    """A point has no field: it is outside the solved range or, as a subclass, a region."""


class OutsideRegion(OutOfRange):
    """A spacetime point violates the validity region of a solution piece."""


class NotPeriodic(EulerPoissonError, ValueError):
    """A period-related operation was invoked on a non-periodic orbit."""


class NoConvergence(EulerPoissonError, RuntimeError):
    """An iterative refinement exhausted its budget before reaching tolerance."""


class NoCompactSupport(OutOfRange):
    """A profile has no first zero, so no support radius is available."""


class NonRealPower(EulerPoissonError, ValueError):
    """A profile goes negative inside its support; the density clamps f at 0,
    so it never takes a fractional power of a negative value."""


class StencilOutOfDomain(EulerPoissonError, ValueError):
    """A finite-difference stencil arm crossed a validity boundary."""


class MissingGravity(EulerPoissonError, ValueError):
    """A self-gravitating residual was requested on samples without phi_r."""


class IntegrationHalted(EulerPoissonError, RuntimeError):
    """Base for abnormal integrator termination: `trajectory` is the run up to the halt,
    at least its start node (`integrate` builds one for every halt, and `naming` passes
    it on), and `t`, the time at which the run stopped, is read off its end."""

    def __init__(self, message: str, trajectory):
        super().__init__(message)
        self.trajectory = trajectory

    @property
    def t(self) -> float:
        return self.trajectory.t_end


class StepBudgetExceeded(IntegrationHalted):
    """The configured maximum number of steps was reached."""


class StateBlowup(IntegrationHalted):
    """A state component exceeded the overflow guard (finite-time blowup)."""


class StepUnderflow(IntegrationHalted):
    """The step size collapsed below the relative floor (singularity ahead)."""


@contextmanager
def naming(clause: str):
    """How a solver's failure names its parameters: a halt or DomainError raised in the block
    is re-raised as its own type, `clause` after its message, a halt with its trajectory."""
    try:
        yield
    except IntegrationHalted as halt:
        raise type(halt)(f"{halt} {clause}", halt.trajectory) from None
    except DomainError as exc:
        raise DomainError(f"{exc} {clause}") from None
