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

An operator is split in two: for centres and one step h (for time and
space) it states the names of its equations and the points it samples, and
it turns the samples at those points into one residual array per equation.
`flow_residuals` samples each point and its neighbours at t +- h, x +- h,
y +- h (shape (n, 7)) for mass and both momentum components,
`poisson_residual` each point and its two radial neighbours (shape (n, 3))
for gravity.  `convergence_study` gathers the points of all its operators
and steps, calls the field once, and hands each operator its samples back.

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


# What an operator states for one step: its equation names, the (3, ...) t, x
# and y it samples, and the function that turns rho, u1, u2 and phi_r there
# (each of shape (...), phi_r possibly None) into one residual array per name.
Stencil = tuple[tuple[str, ...], np.ndarray, Callable[..., tuple[np.ndarray, ...]]]
ResidualOp = Callable[[Sequence[Point], float], Stencil]

# t, x and y offsets of the centre and its neighbours t +- h, x +- h, y +- h
_OFFSETS = np.array([[0, 1, -1, 0, 0, 0, 0], [0, 0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 0, 1, -1]], float)


def _columns(pts: Sequence[Point], h: float) -> np.ndarray:
    """The t, x and y columns of the points, shape (3, n, 1), once the
    stencil step h is known to be > 0."""
    if not h > 0:  # NaN fails too
        raise DomainError(f"stencil step must be > 0, got {h}")
    return np.asarray(pts, dtype=float).reshape(-1, 3).T[..., None]


def flow_residuals(pts: Sequence[Point], h: float, pressure: PressureLaw) -> Stencil:
    """Mass and both momentum components at step h: the names, the (3, n, 7)
    t, x and y of every point and its six neighbours (ordered as the
    offsets), and the centered residuals from the samples there.

    The gravity term rho * (x/r, y/r) * Phi_r is included whenever the
    samples carry phi_r; an isothermal residual without gravity data
    is a contract violation (MissingGravity) rather than a silent omission.
    A caller that wants mass alone passes PressureLaw("none").
    """
    centre = _columns(pts, h)
    x, y = centre[1:, :, 0]

    def residuals(rho, u1, u2, phi_r):
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
        return (d(rho, 1) + d(rho * u1, 3) + d(rho * u2, 5),
                rho0 * (d(u1, 1) + adv_x) + d(p, 3) + grav_x,
                rho0 * (d(u2, 1) + adv_y) + d(p, 5) + grav_y)

    return ("mass", "momentum_x", "momentum_y"), centre + h * _OFFSETS[:, None], residuals


def poisson_residual(pts: Sequence[Point], h: float) -> Stencil:
    """Gravity at step h: its name, the (3, n, 3) t, x and y of every point
    and its two radial neighbours, and the centered residual of
    (1/r) d(r Phi_r)/dr - 2 pi rho along each ray from the samples there."""
    t, x, y = _columns(pts, h)
    r = np.hypot(x, y)
    raise_where(r <= 2 * h, StencilOutOfDomain, f"point too close to r=0 for h={h}",
                t=t, x=x, y=y)
    d = h * np.array([0.0, 1.0, -1.0])  # the point and its radial neighbours
    points = np.array(np.broadcast_arrays(t, x + d * (x / r), y + d * (y / r)))

    def residuals(rho, u1, u2, phi_r):
        if phi_r is None:
            raise MissingGravity("gravity residual requires phi_r in the samples")
        d_rphi = ((r[:, 0] + h) * phi_r[:, 1] - (r[:, 0] - h) * phi_r[:, 2]) / (2 * h)
        return (d_rphi / r[:, 0] - 2 * math.pi * rho[:, 0],)

    return ("poisson",), points, residuals


def convergence_study(
    ops: Sequence[ResidualOp],
    field: FieldFn,
    pts: Sequence[Point],
    h_list: Sequence[float],
) -> dict[str, ConvergenceResult]:
    """Residual norms (max |residual| over the points) over a decreasing step
    sequence and the log-log order of every equation the operators report,
    in operator order.

    The field is called once, on the points of every operator and step,
    concatenated operator by operator, then step by step, then point by
    point; a field error becomes StencilOutOfDomain naming the first bad
    point in that order.  The order is a least-squares slope over the steps
    with nonzero norm; when the finest norm is already at the floating-point
    floor (FLOOR_COEFF / h^2) the study is flagged and the order, if any,
    should be ignored.
    """
    if len(h_list) < 3:
        raise DomainError("need at least 3 step sizes")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise DomainError("h_list must be strictly decreasing")
    h_min = h_list[-1]
    floor = FLOOR_COEFF / (h_min * h_min) if h_min * h_min > 0 else math.inf
    if not 0 < floor < math.inf:
        raise DomainError(f"the roundoff floor {FLOOR_COEFF}/h^2 is not a positive finite "
                          f"number at the smallest step h={h_min}")
    if not ops:
        raise DomainError("need at least one residual operator")
    steps = len(h_list)
    parts = [op(pts, h) for op in ops for h in h_list]
    names = [name for op_names, _, _ in parts[::steps] for name in op_names]
    twice = sorted({name for name in names if names.count(name) > 1})
    if twice:
        raise DomainError(f"more than one operator reports {', '.join(twice)}")
    t, x, y = np.concatenate([p.reshape(3, -1) for _, p, _ in parts], axis=1)
    try:
        s = field(t, x, y)
    except (OutOfRange, OutsideRegion, DomainError) as exc:
        raise StencilOutOfDomain(f"stencil point crossed a validity boundary: {exc}") from exc
    samples = [v if v is None else np.broadcast_to(v, t.shape)
               for v in (s.rho, s.u1, s.u2, s.phi_r)]
    stop, norms = 0, []
    for _, p, residuals in parts:
        start, stop = stop, stop + p[0].size
        at = (v if v is None else v[start:stop].reshape(p.shape[1:]) for v in samples)
        norms.append([float(np.max(np.abs(r))) if r.size else 0.0 for r in residuals(*at)])
    return {name: _fit(h_list, per_step, floor)
            for k in range(0, len(parts), steps)
            for name, per_step in zip(parts[k][0], zip(*norms[k:k + steps]))}


def _fit(h_list: Sequence[float], norms: Sequence[float], floor: float) -> ConvergenceResult:
    # the least-squares slope of log(norm) on log(h) over the nonzero norms
    pos = [(math.log(h), math.log(n)) for h, n in zip(h_list, norms) if n > 0]
    order = None
    if len(pos) >= 2:
        xm, ym = sum(x for x, _ in pos) / len(pos), sum(y for _, y in pos) / len(pos)
        sxx = sum((x - xm) ** 2 for x, _ in pos)
        if sxx > 0:  # steps so close that their logs coincide give no slope
            order = sum((x - xm) * (y - ym) for x, y in pos) / sxx
    return ConvergenceResult(
        h_sequence=tuple(h_list),
        norms=tuple(norms),
        estimated_order=order,
        at_floor=norms[-1] <= floor,
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
