"""Closed-form spacetime fields (rho, u, Phi_r) for the exact families.

Four families are assembled here:

* the rotating isothermal family: rho = e^f(r/a)/a^2 with uniform swirl
  xi/a^2 on top of the radial stretch a'/a;
* its xi = 0 limit (purely radial velocity, collapsing scale factor);
* the N-dimensional Goldreich-Weber family at z = 0 (`eval_gw`): the compact
  support density of `gw_density` with the radial stretch a'/a alone, no Phi_r;
* the two-region Zhang-Zheng spiral of the gamma = 2 Euler equations
  (parabolic density inside an expanding circle, constant density outside).

Every evaluator takes t, x, y as floats or arrays that broadcast together
and returns a FieldSample whose members broadcast to that shape; a float in
gives a float out.  An element out of the domain raises, naming the first
such point.  The residual verifier consumes these evaluations as a black box.

The inner Zhang-Zheng velocity is handled in two variants.  The
residual-validated default is u = ((x+y)/(2t), (y-x)/(2t)); the
sign-flipped variant u2 = (x-y)/(2t) leaves a nonzero continuity residual
and is kept available, behind an explicit flag, as a negative control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emden import EmdenParams, integrate_scale
from .errors import DomainError, OutOfRange, OutsideRegion, raise_where
from .goldreich_weber import gw_density
from .liouville import LiouvilleParams, RadialProfile, enclosed_mass, solve_profile
from .ode import TIGHT_CONFIG, Trajectory


@dataclass(frozen=True)
class FieldSample:
    """Primitive fields at spacetime points, each a float or an array that
    broadcasts to the points' shape (a constant is fine).

    phi_r is the radial derivative of the gravitational potential; it is
    None for families that solve the pure Euler equations.
    """

    rho: float
    u1: float
    u2: float
    phi_r: float | None = None


@dataclass(frozen=True)
class RotSolution2D:
    """One member of the rotating isothermal family, fully solved."""

    emden: EmdenParams
    profile: RadialProfile
    scale: Trajectory

    def __post_init__(self):
        if self.emden.lam != self.profile.params.lam:
            raise DomainError("scale and profile must share the same lam")


def build_rotational(
    lam: float, xi: float, K: float, alpha: float, a0: float, a1: float, t_max: float,
    samples: tuple[np.ndarray, np.ndarray | float],
) -> RotSolution2D:
    """Solve the scale factor and the profile, both at TIGHT_CONFIG, and bundle
    them for evaluation.

    `samples` are the t and r to be evaluated; the profile is solved to their
    `profile_reach`, however far that is: several profile steps, so the samples
    that a solve to 20 would reach fall in segments it shares bitwise.  A reach
    that the step budget cannot make raises its halt, naming the profile's
    parameters.  xi = 0 yields the non-rotating family; with lam > 0 that
    trajectory ends at its finite touchdown time instead of t_max.
    """
    emden_p = EmdenParams(lam=lam, xi=xi, a0=a0, a1=a1)
    scale = integrate_scale(emden_p, t_max, TIGHT_CONFIG)
    s_max = profile_reach(scale, t_max, *samples)
    profile = solve_profile(LiouvilleParams(K=K, lam=lam, alpha=alpha), s_max)
    return RotSolution2D(emden_p, profile, scale)


def profile_reach(scale: Trajectory, t_max: float, t, r) -> float:
    """1 past the largest r/a of the samples at times t and radii r, which broadcast,
    with a read off `scale`, the scale factor solved to t_max: the radius to which a
    profile is solved so that every sample has its field.  A time outside the solved
    range has no field and does not count.  Nor does the end of a run that stopped
    short of t_max: that is its touchdown, where a is all but 0, so that the samples
    there have no field but at r = 0."""
    t, r = np.broadcast_arrays(t, r)
    counts = (t >= scale.t_start) & (t <= scale.t_end)
    if scale.t_end < t_max:
        counts &= t != scale.t_end
    a = scale.evaluate(np.where(counts, t, scale.t_start))[..., 0]
    return 1.0 + float(np.max(r / a, where=counts, initial=0.0))


def _scale_at(scale: Trajectory, t, x, y):
    """(a, a') of `scale` at times t; one outside its solved range (NaN too) is OutOfRange."""
    raise_where(np.logical_not((t >= scale.t_start) & (t <= scale.t_end)), OutOfRange,
                f"t outside solved range [{scale.t_start}, {scale.t_end}]", t=t, x=x, y=y)
    return np.moveaxis(scale.evaluate(t), -1, 0)


def eval_rotational(sol: RotSolution2D, t, x, y) -> FieldSample:
    """rho = e^f(r/a)/a^2, u = (a'/a) x_vec + (xi/a^2) x_vec_perp, plus Phi_r."""
    r = np.hypot(x, y)
    a, adot = _scale_at(sol.scale, t, x, y)
    s = r / a
    raise_where(s > sol.profile.s_max, OutOfRange,
                f"r/a beyond solved profile range {sol.profile.s_max}", t=t, x=x, y=y)
    rho = sol.profile.density(sol.profile.f_at(s)) / (a * a)
    stretch = adot / a
    swirl = sol.emden.xi / (a * a)
    u1 = stretch * x - swirl * y
    u2 = swirl * x + stretch * y
    # Phi_r = enclosed_mass(r/a)/r (a cancels in the radial substitution), 0 at r = 0
    inside = r > 0
    mass = enclosed_mass(sol.profile, np.where(inside, s, sol.profile.s_max))
    phi_r = np.where(inside, mass / np.where(inside, r, 1.0), 0.0)[()]
    return FieldSample(rho=rho, u1=u1, u2=u2, phi_r=phi_r)


def eval_gw(profile: RadialProfile, scale: Trajectory, t, x, y) -> FieldSample:
    """rho = gw_density(profile, a, r) and u = (a'/a) x_vec, with a and a' read
    from the scale-factor trajectory `scale`; no swirl, and phi_r is None."""
    a, adot = _scale_at(scale, t, x, y)
    rho = gw_density(profile, a, np.hypot(x, y))
    return FieldSample(rho=rho, u1=adot / a * x, u2=adot / a * y)


def eval_gravity_radial(sol: RotSolution2D, t, r):
    """Phi_r(t, r) = (2*pi/r) * integral_0^r rho(t, eta) eta deta, for r > 0: the phi_r
    of `eval_rotational` at (x, y) = (r, 0).  No command calls it; it stays while the
    benchmark's tracer (`perfbench/tracing.py`) patches it by name."""
    raise_where(np.logical_not(r > 0), DomainError, "gravity evaluation requires r > 0", t=t, r=r)
    return eval_rotational(sol, t, r, 0.0).phi_r


# ----------------------------------------------------------------------
# Zhang-Zheng spiral (gamma = 2 Euler, no gravity)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ZZSolution:
    """Parameters of the two-region spiral: P = K*rho^2 and outer density rho0."""

    K: float
    rho0: float

    def __post_init__(self):
        if not 0 < self.K < math.inf:
            raise DomainError("K must be > 0 and finite")
        if not 0 < self.rho0 < math.inf:
            raise DomainError("rho0 must be > 0 and finite")

    @property
    def pdot0(self) -> float:
        """P'(rho0) = 2*K*rho0 for the quadratic pressure law."""
        return 2.0 * self.K * self.rho0


def zz_interface_radius(zz: ZZSolution, t):
    """Radius 2*t*sqrt(P'(rho0)) of the expanding interface circle."""
    raise_where(t < 0, DomainError, "interface radius requires t >= 0", t=t)
    return 2.0 * t * math.sqrt(zz.pdot0)


def eval_zz_inner(zz: ZZSolution, t, x, y, as_printed: bool = False) -> FieldSample:
    """Inner region (r <= interface): rho = r^2/(8Kt^2), shear-rotation velocity.

    as_printed=True selects the u2 = (x-y)/(2t) variant, which fails the
    continuity check; it exists solely as a negative control.
    """
    raise_where(np.logical_not(t > 0), DomainError, "inner region requires t > 0", t=t, x=x, y=y)
    r = np.hypot(x, y)
    raise_where(r > zz_interface_radius(zz, t), OutsideRegion, "beyond the interface",
                t=t, x=x, y=y)
    rho = r * r / (8.0 * zz.K * t * t)
    u1 = (x + y) / (2.0 * t)
    u2 = (x - y) / (2.0 * t) if as_printed else (y - x) / (2.0 * t)
    return FieldSample(rho=rho, u1=u1, u2=u2)


def eval_zz_outer(zz: ZZSolution, t, x, y) -> FieldSample:
    """Outer region (r > interface): constant density, swirling free flow."""
    raise_where(t < 0, DomainError, "outer region requires t >= 0", t=t, x=x, y=y)
    r = np.hypot(x, y)
    raise_where(r <= zz_interface_radius(zz, t), OutsideRegion, "inside the interface",
                t=t, x=x, y=y)
    pd = zz.pdot0
    cos_t, sin_t = x / r, y / r
    tang = math.sqrt(2.0 * pd) * np.sqrt(r * r - 2.0 * t * t * pd)
    u1 = (2.0 * t * pd * cos_t + tang * sin_t) / r
    u2 = (2.0 * t * pd * sin_t - tang * cos_t) / r
    return FieldSample(rho=zz.rho0, u1=u1, u2=u2)
