"""Finite-difference residuals of the compressible flow equations.

The verifier treats a field as a black-box function (t, x, y) -> FieldSample
and measures how well it satisfies

    mass:      rho_t + (rho u1)_x + (rho u2)_y = 0
    momentum:  rho (u_t + (u . grad) u) + grad P + rho grad Phi = 0
    gravity:   (1/r) (r Phi_r)_r = 2 pi rho        (radial form, 2D)

with centered second-order stencils.  Feeding an exact solution must leave
pure discretization error, so halving the step shrinks every residual by
four; `convergence_study` fits that order and flags the floating-point
floor.  Corrupted fields are first-class citizens: they are the negative
controls proving the oracle can fail.  `eulerpoisson.verify` runs these
studies over the exact families.

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
)
from .fields import FieldSample

FieldFn = Callable[[float, float, float], FieldSample]
Point = tuple[float, float, float]

# Norm level at the smallest step below which a study is considered to sit
# on the floating-point floor (residual indistinguishable from roundoff in
# the stencil); the order estimate is meaningless there.
FLOOR_COEFF = 1e-11


@dataclass(frozen=True)
class StencilConfig:
    h_space: float
    h_time: float

    def __post_init__(self):
        if not self.h_space > 0 or not self.h_time > 0:
            raise DomainError("stencil steps must be > 0")


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


def _sample(field: FieldFn, t: float, x: float, y: float) -> FieldSample:
    try:
        return field(t, x, y)
    except (OutOfRange, OutsideRegion, DomainError) as exc:
        raise StencilOutOfDomain(
            f"stencil point (t={t}, x={x}, y={y}) crossed a validity boundary: {exc}"
        ) from exc


def _neighbours(field: FieldFn, t, x, y, hs, ht) -> tuple[FieldSample, ...]:
    """Samples at t +- ht, x +- hs and y +- hs around (t, x, y), in that order."""
    return (
        _sample(field, t + ht, x, y),
        _sample(field, t - ht, x, y),
        _sample(field, t, x + hs, y),
        _sample(field, t, x - hs, y),
        _sample(field, t, x, y + hs),
        _sample(field, t, x, y - hs),
    )


def _report(eq_name, values) -> ResidualReport:
    arr = np.asarray(values)
    return ResidualReport(
        eq_name=eq_name,
        max_abs=float(np.max(np.abs(arr))) if len(arr) else 0.0,
        l2=float(np.sqrt(np.sum(arr**2))),
    )


def mass_residual(
    field: FieldFn, pts: Sequence[Point], cfg: StencilConfig
) -> ResidualReport:
    """Centered residual of rho_t + (rho u1)_x + (rho u2)_y at each point."""
    hs, ht = cfg.h_space, cfg.h_time
    vals = []
    for t, x, y in pts:
        s_tp, s_tm, s_xp, s_xm, s_yp, s_ym = _neighbours(field, t, x, y, hs, ht)
        rho_t = (s_tp.rho - s_tm.rho) / (2 * ht)
        flux_x = (s_xp.rho * s_xp.u1 - s_xm.rho * s_xm.u1) / (2 * hs)
        flux_y = (s_yp.rho * s_yp.u2 - s_ym.rho * s_ym.u2) / (2 * hs)
        vals.append(rho_t + flux_x + flux_y)
    return _report("mass", vals)


def momentum_residual(
    field: FieldFn,
    pts: Sequence[Point],
    cfg: StencilConfig,
    pressure: PressureLaw,
) -> tuple[ResidualReport, ResidualReport]:
    """Centered residuals of both momentum components.

    The gravity term rho * (x/r, y/r) * Phi_r is included whenever the
    center sample carries phi_r; an isothermal residual without gravity data
    is a contract violation (MissingGravity) rather than a silent omission.
    """
    hs, ht = cfg.h_space, cfg.h_time
    vals_x, vals_y = [], []
    for t, x, y in pts:
        s0 = _sample(field, t, x, y)
        if s0.phi_r is None and pressure.kind == "isothermal":
            raise MissingGravity(
                "isothermal momentum residual requires phi_r in the samples"
            )
        s_tp, s_tm, s_xp, s_xm, s_yp, s_ym = _neighbours(field, t, x, y, hs, ht)

        u1_t = (s_tp.u1 - s_tm.u1) / (2 * ht)
        u2_t = (s_tp.u2 - s_tm.u2) / (2 * ht)
        u1_x = (s_xp.u1 - s_xm.u1) / (2 * hs)
        u2_x = (s_xp.u2 - s_xm.u2) / (2 * hs)
        u1_y = (s_yp.u1 - s_ym.u1) / (2 * hs)
        u2_y = (s_yp.u2 - s_ym.u2) / (2 * hs)
        p_x = (pressure(s_xp.rho) - pressure(s_xm.rho)) / (2 * hs)
        p_y = (pressure(s_yp.rho) - pressure(s_ym.rho)) / (2 * hs)

        grav_x = grav_y = 0.0
        if s0.phi_r is not None:
            r = math.hypot(x, y)
            if r > 0:
                grav_x = s0.rho * (x / r) * s0.phi_r
                grav_y = s0.rho * (y / r) * s0.phi_r
        adv_x = s0.u1 * u1_x + s0.u2 * u1_y
        adv_y = s0.u1 * u2_x + s0.u2 * u2_y
        vals_x.append(s0.rho * (u1_t + adv_x) + p_x + grav_x)
        vals_y.append(s0.rho * (u2_t + adv_y) + p_y + grav_y)
    return (
        _report("momentum_x", vals_x),
        _report("momentum_y", vals_y),
    )


def poisson_residual(
    field: FieldFn, pts: Sequence[Point], cfg: StencilConfig
) -> ResidualReport:
    """Centered residual of (1/r) d(r Phi_r)/dr - 2 pi rho along each ray."""
    hs = cfg.h_space
    vals = []
    for t, x, y in pts:
        r = math.hypot(x, y)
        if r <= 2 * hs:
            raise StencilOutOfDomain(
                f"point (t={t}, x={x}, y={y}) too close to r=0 for h={hs}"
            )
        ex, ey = x / r, y / r
        s0 = _sample(field, t, x, y)
        s_p = _sample(field, t, x + hs * ex, y + hs * ey)
        s_m = _sample(field, t, x - hs * ex, y - hs * ey)
        if s0.phi_r is None or s_p.phi_r is None or s_m.phi_r is None:
            raise MissingGravity("gravity residual requires phi_r in the samples")
        d_rphi = ((r + hs) * s_p.phi_r - (r - hs) * s_m.phi_r) / (2 * hs)
        vals.append(d_rphi / r - 2 * math.pi * s0.rho)
    return _report("poisson", vals)


ResidualOp = Callable[[FieldFn, Sequence[Point], StencilConfig], ResidualReport]


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
    norms = []
    for h in h_list:
        rep = residual_op(field, pts, StencilConfig(h_space=h, h_time=h))
        norms.append(rep.max_abs)
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


def study_passes(result: ConvergenceResult, band: tuple[float, float] = (1.8, 2.2)) -> bool:
    """A study passes when it converges at second order or sits at the floor."""
    if result.at_floor:
        return True
    return (
        result.estimated_order is not None
        and band[0] <= result.estimated_order <= band[1]
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
