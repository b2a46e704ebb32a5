"""Finite-difference residuals of the compressible flow equations.

The verifier treats a field as a black-box function (t, x, y) -> FieldSample
on arrays of one shape and measures how well it satisfies

    mass:      rho_t + (rho u1)_x + (rho u2)_y = 0
    momentum:  rho (u_t + (u . grad) u) + grad P + rho grad Phi = 0
    gravity:   (1/r) (r Phi_r)_r = 2 pi rho        (radial form, 2D)

with centered second-order stencils.  Feeding an exact solution must leave
pure discretization error, so halving the step shrinks every residual by
four; `convergence_study` fits that order and flags the floating-point
floor.  Corrupted fields are first-class citizens: they are the negative
controls proving the oracle can fail.  `eulerpoisson.verify` runs these
studies over the exact families.

Each operator takes one step h for time and space and makes one field call,
on arrays of shape (n, 7) for mass and momentum (each point and its
neighbours at t +- h, x +- h, y +- h) and (n, 3) for gravity (each point and
its two radial neighbours).

Gravity gradients are never re-differenced: grad Phi = (x/r, y/r) * Phi_r
uses the sampled radial derivative directly, since the potential itself is
only defined up to a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    MissingGravity,
    OutOfRange,
    OutsideRegion,
    StencilOutOfDomain,
    raise_where,
)
from .fields import FieldSample

FieldFn = Callable[[np.ndarray, np.ndarray, np.ndarray], FieldSample]
Point = tuple[float, float, float]

# Norm level at the smallest step below which a study is considered to sit
# on the floating-point floor (residual indistinguishable from roundoff in
# the stencil); the order estimate is meaningless there.
FLOOR_COEFF = 1e-11
# observed orders that count as second-order convergence
ORDER_BAND = (1.8, 2.2)


@dataclass(frozen=True)
class ResidualReport:
    eq_name: str
    max_abs: float
    l2: float


@dataclass(frozen=True)
class ConvergenceResult:
    h_sequence: tuple[float, ...]
    norms: tuple[float, ...]
    estimated_order: float | None
    at_floor: bool


@dataclass(frozen=True)
class PressureLaw:
    """Pressure closure: isothermal P = K*rho, gamma2 P = K*rho^2, or none."""

    kind: str
    K: float = 0.0

    def __post_init__(self):
        if self.kind not in ("isothermal", "gamma2", "none"):
            raise DomainError("pressure kind must be isothermal, gamma2, or none")
        if self.kind != "none" and not self.K > 0:
            raise DomainError("pressure law needs K > 0")

    def __call__(self, rho: float) -> float:
        if self.kind == "isothermal":
            return self.K * rho
        if self.kind == "gamma2":
            return self.K * rho * rho
        return 0.0


# t, x and y offsets of the centre and its neighbours t +- h, x +- h, y +- h
_OFFSETS = np.array([[0, 1, -1, 0, 0, 0, 0], [0, 0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 0, 1, -1]], float)


def _columns(pts: Sequence[Point], h: float) -> np.ndarray:
    """The t, x and y columns of the points, each of shape (n, 1), once the
    stencil step h is known to be > 0."""
    if not h > 0:  # NaN fails too
        raise DomainError(f"stencil step must be > 0, got {h}")
    return np.asarray(pts, dtype=float).reshape(-1, 3).T[..., None]


def _sample(field: FieldFn, t, x, y) -> list:
    """rho, u1, u2 and phi_r (or None) of one field call, each broadcast to
    the shape of t; the field's error names the point that left its domain."""
    try:
        s = field(t, x, y)
    except (OutOfRange, OutsideRegion, DomainError) as exc:
        raise StencilOutOfDomain(f"stencil point crossed a validity boundary: {exc}") from exc
    return [v if v is None else np.broadcast_to(v, t.shape) for v in (s.rho, s.u1, s.u2, s.phi_r)]


def _stencil(field: FieldFn, pts: Sequence[Point], h: float):
    """The centre columns and the samples at every point and its six
    neighbours, one call on arrays of shape (n, 7) ordered as the offsets."""
    t, x, y = _columns(pts, h)
    return (t[:, 0], x[:, 0], y[:, 0]), _sample(
        field, t + h * _OFFSETS[0], x + h * _OFFSETS[1], y + h * _OFFSETS[2])


def _report(eq_name, values: np.ndarray) -> ResidualReport:
    return ResidualReport(
        eq_name=eq_name,
        max_abs=float(np.max(np.abs(values))) if len(values) else 0.0,
        l2=float(np.sqrt(np.sum(values**2))),
    )


def mass_residual(field: FieldFn, pts: Sequence[Point], h: float) -> ResidualReport:
    """Centered residual of rho_t + (rho u1)_x + (rho u2)_y at each point."""
    _, (rho, u1, u2, _) = _stencil(field, pts, h)
    rho_t = (rho[:, 1] - rho[:, 2]) / (2 * h)
    flux_x = (rho[:, 3] * u1[:, 3] - rho[:, 4] * u1[:, 4]) / (2 * h)
    flux_y = (rho[:, 5] * u2[:, 5] - rho[:, 6] * u2[:, 6]) / (2 * h)
    return _report("mass", rho_t + flux_x + flux_y)


def momentum_residual(
    field: FieldFn,
    pts: Sequence[Point],
    h: float,
    pressure: PressureLaw,
) -> tuple[ResidualReport, ResidualReport]:
    """Centered residuals of both momentum components.

    The gravity term rho * (x/r, y/r) * Phi_r is included whenever the
    samples carry phi_r; an isothermal residual without gravity data
    is a contract violation (MissingGravity) rather than a silent omission.
    """
    (_, x, y), (rho, u1, u2, phi_r) = _stencil(field, pts, h)
    if phi_r is None and pressure.kind == "isothermal":
        raise MissingGravity("isothermal momentum residual requires phi_r in the samples")

    def d(v, k):  # centered difference between offsets k and k + 1
        return (v[:, k] - v[:, k + 1]) / (2 * h)

    p = np.broadcast_to(pressure(rho), rho.shape)
    rho0, u10, u20 = rho[:, 0], u1[:, 0], u2[:, 0]
    grav_x = grav_y = 0.0
    if phi_r is not None:
        r = np.hypot(x, y)
        r = np.where(r > 0, r, 1.0)  # x = y = 0 there, so both terms are 0
        grav_x = rho0 * (x / r) * phi_r[:, 0]
        grav_y = rho0 * (y / r) * phi_r[:, 0]
    adv_x = u10 * d(u1, 3) + u20 * d(u1, 5)
    adv_y = u10 * d(u2, 3) + u20 * d(u2, 5)
    return (
        _report("momentum_x", rho0 * (d(u1, 1) + adv_x) + d(p, 3) + grav_x),
        _report("momentum_y", rho0 * (d(u2, 1) + adv_y) + d(p, 5) + grav_y),
    )


def poisson_residual(field: FieldFn, pts: Sequence[Point], h: float) -> ResidualReport:
    """Centered residual of (1/r) d(r Phi_r)/dr - 2 pi rho along each ray."""
    t, x, y = _columns(pts, h)
    r = np.hypot(x, y)
    raise_where(r <= 2 * h, StencilOutOfDomain, f"point too close to r=0 for h={h}",
                t=t, x=x, y=y)
    d = h * np.array([0.0, 1.0, -1.0])  # the point and its radial neighbours
    rho, _, _, phi_r = _sample(field, *np.broadcast_arrays(t, x + d * (x / r), y + d * (y / r)))
    if phi_r is None:
        raise MissingGravity("gravity residual requires phi_r in the samples")
    r = r[:, 0]
    d_rphi = ((r + h) * phi_r[:, 1] - (r - h) * phi_r[:, 2]) / (2 * h)
    return _report("poisson", d_rphi / r - 2 * math.pi * rho[:, 0])


ResidualOp = Callable[[FieldFn, Sequence[Point], float], ResidualReport]


def convergence_study(
    residual_op: ResidualOp,
    field: FieldFn,
    pts: Sequence[Point],
    h_list: Sequence[float],
) -> ConvergenceResult:
    """Residual norms over a decreasing step sequence and the log-log order.

    The order is a least-squares slope over the steps with nonzero norm;
    when the finest norm is already at the floating-point floor
    (FLOOR_COEFF / h^2) the study is flagged and the order, if any, should
    be ignored.
    """
    if len(h_list) < 3:
        raise DomainError("need at least 3 step sizes")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise DomainError("h_list must be strictly decreasing")
    norms = [residual_op(field, pts, h).max_abs for h in h_list]
    pos = [(h, n) for h, n in zip(h_list, norms) if n > 0]
    order = None
    if len(pos) >= 2:
        hlog = np.log([h for h, _ in pos])
        nlog = np.log([n for _, n in pos])
        order = float(np.polyfit(hlog, nlog, 1)[0])
    at_floor = norms[-1] <= FLOOR_COEFF / h_list[-1] ** 2
    return ConvergenceResult(
        h_sequence=tuple(h_list),
        norms=tuple(norms),
        estimated_order=order,
        at_floor=at_floor,
    )


def study_passes(result: ConvergenceResult) -> bool:
    """A study passes when its order lies in ORDER_BAND or it sits at the floor."""
    if result.at_floor:
        return True
    return (
        result.estimated_order is not None
        and ORDER_BAND[0] <= result.estimated_order <= ORDER_BAND[1]
    )


# ----------------------------------------------------------------------
# Negative-control field transforms
# ----------------------------------------------------------------------


def corrupt_density_offset(field: FieldFn, delta: float) -> FieldFn:
    """Add a constant to rho.  Breaks mass, momentum, and gravity residuals
    (the offset feels div(u), the inertial terms, and the source term)."""

    def corrupted(t: float, x: float, y: float) -> FieldSample:
        s = field(t, x, y)
        return FieldSample(rho=s.rho + delta, u1=s.u1, u2=s.u2, phi_r=s.phi_r)

    return corrupted


def corrupt_density_scale(field: FieldFn, factor: float) -> FieldFn:
    """Multiply rho by a constant.  Mass and momentum are linear in rho at
    fixed velocity, so they stay exactly satisfied; only the gravity
    residual detects this corruption."""

    def corrupted(t: float, x: float, y: float) -> FieldSample:
        s = field(t, x, y)
        return FieldSample(rho=s.rho * factor, u1=s.u1, u2=s.u2, phi_r=s.phi_r)

    return corrupted


def corrupt_gravity_scale(field: FieldFn, factor: float) -> FieldFn:
    """Multiply phi_r by a constant; breaks the gravity residual."""

    def corrupted(t: float, x: float, y: float) -> FieldSample:
        s = field(t, x, y)
        phi = None if s.phi_r is None else s.phi_r * factor
        return FieldSample(rho=s.rho, u1=s.u1, u2=s.u2, phi_r=phi)

    return corrupted
