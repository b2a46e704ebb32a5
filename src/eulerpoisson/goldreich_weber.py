"""Goldreich-Weber style profiles and scale dynamics in dimension N >= 3.

They solve the N-dimensional Euler-Poisson system with P = K rho^gamma,
gamma = (2N-2)/N, Laplacian(Phi) = alpha(N) rho, rho = f(r/a)^(N/(N-2)) / a^N,
u = (a'/a) x and a'' = -lam / a^(N-1).  The radial momentum balance times a^(N-1),
-lam*s + K(2N-2)/(N-2) f'(s) + alpha(N)/s^(N-1) * integral_0^s f^(N/(N-2)) t^(N-1) dt
= 0, is the first integral of the radial equation of `liouville` in d = N,

    f'' + (N-1)/s * f' + (N-2)*alpha(N)/((2N-2)K) * f^(N/(N-2)) = N(N-2)*lam / ((2N-2)K),

from f(0) = alpha_center > 0, with the density max(f, 0)^(N/(N-2)) on floats
and arrays alike.  Unlike the 2D isothermal family it reaches a first zero
S_mu where the density touches down: the star has compact support.
`solve_gw_profile` returns it as the profile's `RadialProfile.s_mu`, found
as the end of one run of Henon's swap, which takes -f as its independent
variable (Henon 1982, Physica D 5, 412), so the step size never has to
collapse at the zero.  The scale factor is the one law of `emden` at d = N
with xi = 0 (`GWParams.scale_law`), solved by `emden.integrate_scale`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .emden import ScaleLaw
from .errors import DomainError, NoCompactSupport, NonRealPower, naming, raise_where
from .liouville import (
    RadialLaw,
    RadialProfile,
    _core_start,
    _forcing_source,
    _radial_rhs,
    alpha_const,
)
from .ode import (
    TIGHT_CONFIG,
    IntegratorConfig,
    IntegratorStats,
    OdeState,
    Rhs,
    Trajectory,
    integrate,
)

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
        if not (isinstance(self.N, Integral) and self.N >= 3):
            raise DomainError("N must be an integer >= 3")
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
        """d = N, rho = f^(N/(N-2)) clamped to 0 below f = 0, on floats and arrays,
        g = (N-2)*alpha(N)/((2N-2)K), F = N(N-2)*lam/((2N-2)K), f0 = alpha_center,
        fp_scale = 1: from the core's end, 2^-4 and 1 take the same steps (1,391 and
        1,393 nodes on the `profiles` pool of seed 20261017), and 1 holds f' closer
        (largest error 7.9e-13, not 1.1e-12)."""
        denom = (2 * self.N - 2) * self.K
        return RadialLaw(self.N, (self.N - 2) * alpha_const(self.N) / denom,
                         self.N * (self.N - 2) * self.lam / denom, self.alpha_center,
                         self.N / (self.N - 2), 1.0)

    @property
    def scale_law(self) -> ScaleLaw:
        """d = N, xi2 = 0: a'' = -lam/a^(N-1)."""
        return ScaleLaw(self.N, self.lam, 0.0, self.a0, self.a1)


def solve_gw_profile(
    p: GWParams, cfg: IntegratorConfig = TIGHT_CONFIG, s_cap: float = S_CAP_DEFAULT
) -> RadialProfile:
    """Integrate the profile outward from the end of its core (`liouville._core_start`),
    whose series starts from f = law.f0 = alpha_center and f' = 0 at s = 0, to its
    first zero s_mu, the support radius.

    Three runs locate s_mu.  The run in s stops at the first step over which
    f falls through 0 (`falls=(0, 1)`); that step is dropped, since the
    clamped density has a kink inside it.  From its first node (s_k, f_k, f'_k),
    the last with f > 0 (the core's end at the latest, where f > 0 and f' != 0),
    Henon's swap integrates (s, f') in x = -f, f' unscaled
    from the run's w*f' (`RadialLaw.fp_scale`, 1 here), with ds/dx = -1/f' and
    df'/dx = -f''/f', from x = -f_k to 0, where f = 0 exactly: its s is s_mu.
    A closing run in s from that node to s_mu makes the profile end on the
    node (s_mu, 0.0, f').  The trajectory is the run's first k nodes and
    segments, then the closing run, and its stats add up all three runs.  With no
    zero before s_cap the full trajectory is kept and s_mu is None.  A halt and
    a run that cannot start name the parameters (`errors.naming`).
    """
    rhs, law = _radial_rhs(p), p.law
    with naming(f"in the profile of {p}"):
        run = integrate(rhs, _core_start(law, s_cap, cfg), s_cap, cfg, falls=(0, 1))
        if run.y_end[0] > 0.0:
            return RadialProfile(p, run)
        k = run.n_nodes - 2  # the crossing step starts here
        fp = run.ys[k, 1] / law.fp_scale
        swap = integrate(_henon_rhs(p), OdeState(-run.ys[k, 0], (run.ts[k], fp)), 0.0, cfg)
        s_mu = float(swap.y_end[0])
        tail = integrate(rhs, OdeState(run.ts[k], run.ys[k]), s_mu, cfg)
    ts, ys, fs, cont = (np.concatenate([getattr(run, x)[:k], getattr(tail, x)])
                        for x in ("ts", "ys", "fs", "cont"))
    ys[-1, 0] = 0.0
    stats = IntegratorStats(*map(sum, zip(run.stats, swap.stats, tail.stats)))
    return RadialProfile(p, Trajectory(ts, ys, fs, cont, stats), s_mu)


def _henon_rhs(p: GWParams) -> Rhs:
    """(ds/dx, df'/dx) = (-1/f', -f''/f') on the state (s, f') in x = -f, with
    the f'' of `p.law`'s radial rhs (Henon 1982, Physica D 5, 412)."""
    law = p.law
    body = _HENON_BODY.format(forcing=_forcing_source(law.rho, "(-t)"))
    return Rhs(body, F=law.F, g=law.g, nm1=p.N - 1.0, **law.rho_consts)


_HENON_BODY = """\
fpp = {forcing} - nm1 * y_1 / y_0
f_0 = -1.0 / y_1
f_1 = -fpp / y_1"""


def gw_density(prof: RadialProfile, a, r):
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
