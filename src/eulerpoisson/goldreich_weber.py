"""Goldreich-Weber style profiles and scale dynamics in dimension N >= 3.

The radial profile obeys

    f'' + (N-1)/s * f' + alpha(N)/((2N-2)K) * f^(N/(N-2)) = N(N-2)*lam / ((2N-2)K)

with f(0) = alpha_center > 0, f'(0) = 0, and (unlike the 2D isothermal
family) reaches a first zero S_mu where the density touches down, so the
star has compact support.  As in `liouville`, integration starts at the
regular singular point s = 0, where the right-hand side takes the limit
(N-1)/s * f' -> (N-1) * f''(0).  The companion scale factor obeys
a'' = -lam / a^(N-1).

alpha(N) is the dimension constant tied to the volume of the unit ball:
alpha(1) = 2, alpha(2) = 2*pi, alpha(N) = N(N-2)*V(N) for N >= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emden import ScaleRun, _run_to_touchdown
from .errors import DomainError, IntegrationHalted, NoCompactSupport, NonRealPower, raise_where
from .liouville import RadialProfile
from .ode import TIGHT_CONFIG, IntegratorConfig, OdeState, Trajectory

S_CAP_DEFAULT = 100.0


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n, pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    try:
        return math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    except OverflowError:
        raise DomainError(f"unit ball volume overflows at dimension N={n}") from None


def alpha_const(n: int) -> float:
    """Gravitational coupling constant: 2, 2*pi, then N(N-2)*V(N) for N >= 3."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    if n == 1:
        return 2.0
    if n == 2:
        return 2 * math.pi
    return n * (n - 2) * unit_ball_volume(n)


@dataclass(frozen=True)
class GWParams:
    """Dimension N >= 3, pressure constant K > 0, gravity strength lam,
    central profile value alpha_center > 0, and scale initial data."""

    N: int
    K: float
    lam: float
    alpha_center: float
    a0: float = 1.0
    a1: float = 0.0

    def __post_init__(self):
        if self.N < 3:
            raise DomainError("N must be >= 3")
        if not self.K > 0:
            raise DomainError("K must be > 0")
        if not self.alpha_center > 0:
            raise DomainError("alpha_center must be > 0")
        if not self.a0 > 0:
            raise DomainError("a0 must be > 0")
        vals = (self.K, self.lam, self.alpha_center, self.a0, self.a1)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("all parameters must be finite")


class GWProfile(RadialProfile):
    """Profile on [0, s_mu] (or [0, s_cap] when no zero exists)."""

    def __init__(self, params: GWParams, traj: Trajectory, s_mu: float | None):
        super().__init__(params, traj)
        self.s_mu = s_mu


def _gw_coefficients(p: GWParams) -> tuple[float, float]:
    """The profile equation's forcing N(N-2)*lam / ((2N-2)K) and gravity
    coefficient alpha(N) / ((2N-2)K)."""
    denom = (2 * p.N - 2) * p.K
    return p.N * (p.N - 2) * p.lam / denom, alpha_const(p.N) / denom


def gw_series_coefficient(p: GWParams) -> float:
    """c = f''(0)/2, from the s -> 0 limit of the equation.

    f'' -> 2c and (N-1)f'/s -> 2(N-1)c, so 2Nc + gravity(alpha_center) = forcing.
    """
    forcing, grav = _gw_coefficients(p)
    try:
        gravity = grav * p.alpha_center ** (p.N / (p.N - 2))
    except OverflowError:
        raise DomainError(f"alpha_center={p.alpha_center} overflows "
                          f"alpha_center^(N/(N-2)) at N={p.N}") from None
    c = (forcing - gravity) / (2 * p.N)
    if not math.isfinite(c):
        raise DomainError(f"f''(0) overflows at alpha_center={p.alpha_center}, N={p.N}, "
                          f"K={p.K}, lam={p.lam}")
    return c


def solve_gw_profile(
    p: GWParams, cfg: IntegratorConfig = TIGHT_CONFIG, s_cap: float = S_CAP_DEFAULT
) -> GWProfile:
    """Integrate the profile outward from s = 0, where f = alpha_center and
    f' = 0, to its first zero s_mu, the support radius.  At s = 0 the
    right-hand side is its limit (f', 2c), c the `gw_series_coefficient`.

    The right-hand side is NaN where f < 0, where the fractional power
    leaves the reals, so the zero is a touchdown of `_run_to_touchdown`:
    s_mu is the halt time, where the trajectory ends with f(s_mu) >= 0 and
    tiny.  With no zero before s_cap the full trajectory is kept and s_mu is
    None.  Any other halt is re-raised with the parameters in its message.
    """
    power = p.N / (p.N - 2)
    forcing, grav = _gw_coefficients(p)
    nm1 = p.N - 1
    fpp0 = 2 * gw_series_coefficient(p)

    def rhs(s: float, y: tuple[float, float]) -> tuple[float, float]:
        f = y[0]
        if f < 0.0:
            return (math.nan, math.nan)
        if s == 0.0:
            return (y[1], fpp0)
        return (y[1], forcing - grav * f**power - nm1 * y[1] / s)

    try:
        run = _run_to_touchdown(rhs, OdeState(0.0, (p.alpha_center, 0.0)), s_cap, cfg)
    except IntegrationHalted as halt:
        raise type(halt)(f"{halt} in the profile of {p}", halt.t, halt.trajectory) from None
    return GWProfile(p, run.trajectory, run.touchdown_time)


def integrate_gw_scale(p: GWParams, t_end: float) -> ScaleRun:
    """Trajectory of the scale factor under a'' = -lam / a^(N-1).

    For lam > 0 the collapse reaches a = 0 in finite time; like the 2D case
    the halt time is reported as the touchdown time.
    """
    lam, nm1 = p.lam, p.N - 1

    def rhs(t: float, y: tuple[float, float]) -> tuple[float, float]:
        a = y[0]
        if a <= 0.0:
            return (math.nan, math.nan)
        return (y[1], -lam / a**nm1)

    return _run_to_touchdown(rhs, OdeState(0.0, np.array([p.a0, p.a1])), t_end, IntegratorConfig())


def gw_density(prof: GWProfile, a, r):
    """Density f(r/a)^(N/(N-2)) / a^N inside the support, exactly 0 outside;
    a and r of any shapes that broadcast, a float in gives a float out."""
    raise_where(np.logical_not(a > 0), DomainError, "scale factor a must be > 0", a=a, r=r)
    raise_where(r < 0, DomainError, "radius r must be >= 0", a=a, r=r)
    p = prof.params
    s = r / a
    if prof.s_mu is not None:
        inside = np.logical_not(s >= prof.s_mu)
    else:
        raise_where(s > prof.s_max, NoCompactSupport,
                    "profile has no first zero and s exceeds the solved range", a=a, r=r)
        inside = True
    f = prof.f_at(np.where(inside, s, 0.0))
    raise_where(inside & (f < -1e-9), NonRealPower, "profile value f < 0", a=a, r=r)
    rho = np.power(np.maximum(f, 0.0), p.N / (p.N - 2)) / np.power(a, p.N)
    return np.where(inside, rho, 0.0)[()]
