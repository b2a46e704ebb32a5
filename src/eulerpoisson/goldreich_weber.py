"""Goldreich-Weber style profiles and scale dynamics in dimension N >= 3.

They solve the N-dimensional Euler-Poisson system with P = K rho^gamma,
gamma = (2N-2)/N, Laplacian(Phi) = alpha(N) rho, rho = f(r/a)^(N/(N-2)) / a^N,
u = (a'/a) x and a'' = -lam / a^(N-1).  The radial momentum balance times a^(N-1),
-lam*s + K(2N-2)/(N-2) f'(s) + alpha(N)/s^(N-1) * integral_0^s f^(N/(N-2)) t^(N-1) dt
= 0, is the first integral of the radial equation of `liouville` in d = N,

    f'' + (N-1)/s * f' + (N-2)*alpha(N)/((2N-2)K) * f^(N/(N-2)) = N(N-2)*lam / ((2N-2)K),

from f(0) = alpha_center > 0.  Unlike the 2D isothermal family it reaches a
first zero S_mu where the density touches down: the star has compact support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emden import ScaleRun, _run_to_touchdown
from .errors import DomainError, IntegrationHalted, NoCompactSupport, NonRealPower, raise_where
# alpha_const and unit_ball_volume live beside the enclosed mass and stay importable here
from .liouville import RadialLaw, RadialProfile, _radial_rhs, alpha_const, unit_ball_volume
from .ode import TIGHT_CONFIG, IntegratorConfig, OdeState, Trajectory

S_CAP_DEFAULT = 100.0


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

    @property
    def law(self) -> RadialLaw:
        """d = N, rho = f^(N/(N-2)) (NaN below f = 0 on floats, 0 on arrays),
        g = (N-2)*alpha(N)/((2N-2)K), F = N(N-2)*lam/((2N-2)K), f0 = alpha_center."""
        power, denom = self.N / (self.N - 2), (2 * self.N - 2) * self.K

        def rho(f: float) -> float:
            return f**power if f >= 0.0 else math.nan

        return RadialLaw(self.N, (self.N - 2) * alpha_const(self.N) / denom,
                         self.N * (self.N - 2) * self.lam / denom, self.alpha_center,
                         rho, lambda f: np.power(np.maximum(f, 0.0), power))


class GWProfile(RadialProfile):
    """Profile on [0, s_mu] (or [0, s_cap] when no zero exists)."""

    def __init__(self, params: GWParams, traj: Trajectory, s_mu: float | None):
        super().__init__(params, traj)
        self.s_mu = s_mu


def solve_gw_profile(
    p: GWParams, cfg: IntegratorConfig = TIGHT_CONFIG, s_cap: float = S_CAP_DEFAULT
) -> GWProfile:
    """Integrate the profile outward from s = 0, where f = alpha_center and
    f' = 0, to its first zero s_mu, the support radius.

    The density f^(N/(N-2)) is NaN where f < 0, where the fractional power
    leaves the reals, so the zero is a touchdown of `_run_to_touchdown`:
    s_mu is the halt time, where the trajectory ends with f(s_mu) >= 0 and
    tiny.  With no zero before s_cap the full trajectory is kept and s_mu is
    None.  Any other halt is re-raised with the parameters in its message.
    """
    try:
        run = _run_to_touchdown(_radial_rhs(p), OdeState(0.0, (p.alpha_center, 0.0)), s_cap, cfg)
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
    s = r / a
    if prof.s_mu is not None:
        inside = np.logical_not(s >= prof.s_mu)
    else:
        raise_where(s > prof.s_max, NoCompactSupport,
                    "profile has no first zero and s exceeds the solved range", a=a, r=r)
        inside = True
    f = prof.f_at(np.where(inside, s, 0.0))
    raise_where(inside & (f < -1e-9), NonRealPower, "profile value f < 0", a=a, r=r)
    rho = prof.density(f) / np.power(a, prof.d)
    return np.where(inside, rho, 0.0)[()]
