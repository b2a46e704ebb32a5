"""Closed-form spacetime fields (rho, u, Phi_r) for the exact families.

Five families are assembled here:

* the rotating isothermal family: rho = e^f(r/a)/a^2 with uniform swirl
  xi/a^2 on top of the radial stretch a'/a;
* its xi = 0 limit (purely radial velocity, collapsing scale factor);
* the N-dimensional Goldreich-Weber family at z = 0 (`eval_gw`): the compact
  support density of `gw_density` with the radial stretch a'/a alone, no Phi_r;
* the general mass-equation ansatz with an arbitrary swirl profile G(t, r),
  which satisfies continuity for any choice of G, a, f;
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
from typing import Callable

import numpy as np

from .emden import EmdenParams, integrate_scale
from .errors import DomainError, OutOfRange, OutsideRegion, raise_where
from .goldreich_weber import GWProfile, gw_density
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
    touchdown_time: float | None = None

    def __post_init__(self):
        if self.emden.lam != self.profile.params.lam:
            raise DomainError("scale and profile must share the same lam")


def build_rotational(
    lam: float, xi: float, K: float, alpha: float, a0: float, a1: float, t_max: float,
    samples: tuple[np.ndarray, np.ndarray | float] | None = None,
) -> RotSolution2D:
    """Solve the scale factor and the profile (to s = 20), both at
    TIGHT_CONFIG, and bundle them for evaluation.

    Given `samples`, the t and r to be evaluated (they broadcast), the profile
    stops 1 past their largest r/a if that is nearer: several profile steps,
    so the samples fall in segments a solve to 20 shares bitwise.  A time
    outside the solved range counts at its nearer end (past the end lies only
    a touchdown, where a is so small that the reach stays 20).  xi = 0 yields
    the non-rotating family; with lam > 0 that trajectory ends at its finite
    touchdown time instead of t_max.
    """
    emden_p = EmdenParams(lam=lam, xi=xi, a0=a0, a1=a1)
    run = integrate_scale(emden_p, t_max, TIGHT_CONFIG)
    scale, s_max = run.trajectory, 20.0
    if samples is not None:
        t, r = samples
        a = scale.evaluate(np.clip(t, scale.t_start, scale.t_end))[..., 0]
        s_max = min(s_max, 1.0 + float(np.max(r / a, initial=0.0)))
    profile = solve_profile(LiouvilleParams(K=K, lam=lam, alpha=alpha), s_max)
    return RotSolution2D(emden_p, profile, scale, run.touchdown_time)


def _scaled_radius(sol: RotSolution2D, t, r, point: dict):
    """a, a' and s = r/a at times t and radii r, checked against the solved
    ranges; `point` holds the coordinates an error names."""
    raise_where((t < sol.scale.t_start) | (t > sol.scale.t_end), OutOfRange,
                f"t outside solved range [{sol.scale.t_start}, {sol.scale.t_end}]", **point)
    scale = sol.scale.evaluate(t)
    a = scale[..., 0]
    s = r / a
    raise_where(s > sol.profile.s_max, OutOfRange,
                f"r/a beyond solved profile range {sol.profile.s_max}", **point)
    return a, scale[..., 1], s


def eval_rotational(sol: RotSolution2D, t, x, y) -> FieldSample:
    """rho = e^f(r/a)/a^2, u = (a'/a) x_vec + (xi/a^2) x_vec_perp, plus Phi_r."""
    r = np.hypot(x, y)
    a, adot, s = _scaled_radius(sol, t, r, dict(t=t, x=x, y=y))
    rho = sol.profile.density(sol.profile.f_at(s)) / (a * a)
    stretch = adot / a
    swirl = sol.emden.xi / (a * a)
    u1 = stretch * x - swirl * y
    u2 = swirl * x + stretch * y
    # Phi_r as in eval_gravity_radial, from the scale factor read above; 0 at r = 0
    inside = r > 0
    mass = enclosed_mass(sol.profile, np.where(inside, s, sol.profile.s_max))
    phi_r = np.where(inside, mass / np.where(inside, r, 1.0), 0.0)[()]
    return FieldSample(rho=rho, u1=u1, u2=u2, phi_r=phi_r)


def eval_gw(profile: GWProfile, scale: Trajectory, t, x, y) -> FieldSample:
    """rho = gw_density(profile, a, r) and u = (a'/a) x_vec, with a and a' read
    from the scale-factor trajectory `scale`; no swirl, and phi_r is None."""
    a, adot = np.moveaxis(scale.evaluate(t), -1, 0)
    rho = gw_density(profile, a, np.hypot(x, y))
    return FieldSample(rho=rho, u1=adot / a * x, u2=adot / a * y)


def eval_gravity_radial(sol: RotSolution2D, t, r):
    """Phi_r(t, r) = (2*pi/r) * integral_0^r rho(t, eta) eta deta.

    Computed as enclosed_mass(profile, r/a) / r via quadrature on the dense
    profile (the scale factor cancels in the radial substitution).
    """
    raise_where(np.logical_not(r > 0), DomainError, "gravity evaluation requires r > 0", t=t, r=r)
    _, _, s = _scaled_radius(sol, t, r, dict(t=t, r=r))
    return enclosed_mass(sol.profile, s) / r


def gravity_radial_two_ways(sol: RotSolution2D, t, r):
    """Phi_r by quadrature (eval_gravity_radial) and by the enclosed-mass
    identity, for cross-checks.

    The identity route is (lam*s - K*f'(s))/a at s = r/a; agreement of the
    two is an end-to-end check of the profile solve.
    """
    quad_route = eval_gravity_radial(sol, t, r)
    a, _, s = _scaled_radius(sol, t, r, dict(t=t, r=r))
    p = sol.profile.params
    return quad_route, (p.lam * s - p.K * sol.profile.fdot_at(s)) / a


# ----------------------------------------------------------------------
# General continuity ansatz with arbitrary swirl
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SwirlAnsatz:
    """rho = f(r/a)/a^2 with u = (a'/a) x_vec + (G(t,r)/r) x_vec_perp.

    Satisfies the continuity equation for any C^1 choices of f >= 0,
    a > 0 and swirl G; exists to property-test exactly that.
    """

    f_profile: Callable[[float], float]
    a_fn: Callable[[float], float]
    adot_fn: Callable[[float], float]
    G_fn: Callable[[float, float], float]


def eval_swirl_ansatz(ansatz: SwirlAnsatz, t, x, y) -> FieldSample:
    """Fields of the ansatz, its scalar callables applied elementwise; the
    swirl term is defined as 0 at r = 0 (G is called there too, unused)."""
    a_fn, adot_fn, f_fn, g_fn = (np.vectorize(fn, otypes=[float]) for fn in (
        ansatz.a_fn, ansatz.adot_fn, ansatz.f_profile, ansatz.G_fn))
    a = a_fn(t)
    raise_where(np.logical_not(a > 0), DomainError, "a(t) must stay positive", t=t, x=x, y=y)
    r = np.hypot(x, y)
    rho = f_fn(r / a) / (a * a)
    stretch = adot_fn(t) / a
    swirl = np.where(r > 0, g_fn(t, r) / np.where(r > 0, r, 1.0), 0.0)[()]
    return FieldSample(rho=rho, u1=stretch * x - swirl * y, u2=swirl * x + stretch * y)


# ----------------------------------------------------------------------
# Zhang-Zheng spiral (gamma = 2 Euler, no gravity)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ZZSolution:
    """Parameters of the two-region spiral: P = K*rho^2 and outer density rho0."""

    K: float
    rho0: float

    def __post_init__(self):
        if not self.K > 0:
            raise DomainError("K must be > 0")
        if not self.rho0 > 0:
            raise DomainError("rho0 must be > 0")

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
