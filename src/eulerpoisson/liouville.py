"""Radial profiles f(s) of f'' + (d-1)/s * f' + g*rho(f) = F, f(0) = f0, f'(0) = 0.

A family's parameters give d, g, F, f0 and the density law rho (`RadialLaw`).
The Liouville profile of the rotating isothermal family is d = 2, rho = e^f,
g = 2*pi/K, F = 2*lam/K, f0 = alpha; `goldreich_weber` is the case d = N,
whose profile ends at its first zero, the support radius `RadialProfile.s_mu`.
Integration starts at the regular singular point s = 0, where f'/s -> f''(0)
and the right-hand side takes its limit f''(0) = (F - g*rho(f0)) / d.
The state is (f, w*f'), with the power of two w = `RadialLaw.fp_scale` of the
family: f' = 0 at s = 0, so its error weight atol + rtol*|f'| would sit at
atol there and crawl the steps out of the center; scaled, f' is held to
atol/w + rtol*|f'|.  Every reader of f' divides by w, which is exact.

The enclosed mass is alpha(d) * integral_0^s rho(f) tau^(d-1) dtau.  For the
Liouville profile, integrating s * (the ODE) from 0 gives the identity

    2*pi * integral_0^s e^f(tau) tau dtau = lam*s^2 - K*s*f'(s),

which is exactly what makes the radial momentum balance of the assembled
fields vanish.  `enclosed_mass` computes the left side by quadrature over
the dense solution, so the identity stays an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, OutOfRange, naming, raise_where
from .ode import (
    TIGHT_CONFIG,
    IntegratorConfig,
    OdeState,
    Rhs,
    Trajectory,
    _dense,
    integrate,
)


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


class RadialLaw(NamedTuple):
    """f'' + (d-1)/s * f' + g*rho(f) = F from f(0) = f0, f'(0) = 0.  The
    density law is `rho` on floats, a Python expression in `{f}` that reads
    the constants `rho_consts` and is pasted into the rhs, and `rho_array`
    on arrays.  The solved state is (f, fp_scale*f'): fp_scale is a power of
    two, the largest at which the family's step and accuracy bounds hold."""

    d: int
    g: float
    F: float
    f0: float
    rho: str
    rho_consts: dict[str, object]
    rho_array: Callable[[np.ndarray], np.ndarray]
    fp_scale: float


@dataclass(frozen=True)
class LiouvilleParams:
    """Pressure constant K > 0, gravity strength lam, central log-density alpha."""

    K: float
    lam: float
    alpha: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.K, self.lam, self.alpha)):
            raise DomainError("all parameters must be finite")
        if not self.K > 0:
            raise DomainError("K must be > 0")

    @property
    def law(self) -> RadialLaw:
        """d = 2, rho = e^f, g = 2*pi/K, F = 2*lam/K, f0 = alpha, fp_scale = 2^-7."""
        return RadialLaw(2, 2 * math.pi / self.K, 2 * self.lam / self.K, self.alpha,
                         "exp({f})", {"exp": math.exp}, np.exp, 2.0 ** -7)


def _radial_rhs(p) -> Rhs:
    """The right-hand side (f', w*f'') of `p.law` on the state (f, w*f'), w its
    fp_scale; at s = 0 it is the limit (f', w*f''(0)) with f''(0) =
    (F - g*rho(f0)) / d, which `integrate` checks.  Since w is a power of two,
    w*f'' is bit for bit w times the unscaled f'', and f' = (w*f') * (1/w)."""
    law = p.law
    body = _RADIAL_BODY.format(forcing=_forcing_source(law.rho, "y_0"))
    # d and d - 1 are floats: an int factor costs a conversion per call
    return Rhs(body, F=law.F, g=law.g, d=float(law.d), nm1=law.d - 1.0, w=law.fp_scale,
               iw=1.0 / law.fp_scale, **law.rho_consts)


def _forcing_source(rho: str, f: str) -> str:
    """F - g*rho(f) as Python source, with f spelled `f` and the law's density
    expression `rho` pasted in; f'' is this less (d-1)*f'/s."""
    return f"F - g * ({rho.format(f=f)})"


# the radius s is the integration time t
_RADIAL_BODY = """\
f_0 = y_1 * iw
f_1 = w * ({forcing}) / d if t == 0.0 else w * ({forcing}) - nm1 * y_1 / t"""


class RadialProfile:
    """Solved radial profile: the dense solution (f, w*f') on [0, s_max], whose
    w = law.fp_scale `fdot` and `fdot_at` divide out, the dimension d and array
    density law of its params, and the support radius s_mu: None for a Liouville profile, whose density e^f never vanishes,
    and for a Goldreich-Weber profile with no zero before its cap."""

    def __init__(self, params, traj: Trajectory, s_mu: float | None = None):
        self.params = params
        self.traj = traj
        self.s_mu = s_mu
        law = params.law
        self.d, self.density, self.fp_scale = law.d, law.rho_array, law.fp_scale

    @property
    def grid(self) -> np.ndarray:
        return self.traj.ts

    @property
    def f(self) -> np.ndarray:
        return self.traj.ys[:, 0]

    @property
    def fdot(self) -> np.ndarray:
        return self.traj.ys[:, 1] / self.fp_scale

    @property
    def s_max(self) -> float:
        return self.traj.t_end

    def f_at(self, s):
        """f at radii s of any shape; a float in gives a float out."""
        return self._at(s, 0)

    def fdot_at(self, s):
        """f' at radii s of any shape; a float in gives a float out."""
        return self._at(s, 1) / self.fp_scale

    def _at(self, s, k: int):
        raise_where((s < 0) | (s > self.s_max), OutOfRange, f"s outside [0, {self.s_max}]", s=s)
        return self.traj.evaluate(s)[..., k][()]

    def _mass_at_nodes(self) -> np.ndarray:
        """Cumulative enclosed mass at the grid nodes, one Kronrod panel per
        segment; the error controller keeps segments short against the
        integrand's variation scale, so each is accurate to roundoff."""
        ts = self.traj.ts
        seg = _panel_mass(self, np.arange(len(ts) - 1), ts[:-1], ts[1:])
        mass = np.zeros(len(ts))
        np.cumsum(seg, out=mass[1:])
        return mass


def solve_profile(
    p: LiouvilleParams, s_max: float, cfg: IntegratorConfig = TIGHT_CONFIG
) -> RadialProfile:
    """Integrate the profile from s = 0, where f = law.f0 = alpha and f' = 0, out
    to s_max, on the `_radial_rhs` of p.  A halt or DomainError is re-raised naming p."""
    if not s_max > 0:
        raise DomainError("s_max must be > 0")
    with naming(f"in the profile of {p}"):
        traj = integrate(_radial_rhs(p), OdeState(0.0, (p.law.f0, 0.0)), s_max, cfg)
    return RadialProfile(p, traj)


def enclosed_mass(prof: RadialProfile, s):
    """alpha(d) * integral_0^s rho(f(tau)) tau^(d-1) dtau via quadrature on the
    dense profile, at radii s of any shape; a float in gives a float out."""
    s = np.asarray(s, dtype=float)
    raise_where(~((s > 0) & (s <= prof.s_max)), OutOfRange, f"s outside (0, {prof.s_max}]", s=s)
    mass, ts = prof._mass_at_nodes(), prof.traj.ts
    flat = s.ravel()
    i = np.searchsorted(ts, flat)  # ts[i-1] < s <= ts[i], and ts[0] = 0 < s
    out, inner = mass[i], ts[i] != flat  # a radius off the nodes takes one panel
    seg = i[inner] - 1
    out[inner] = mass[seg] + _panel_mass(prof, seg, ts[seg], flat[inner])
    return out.reshape(s.shape)[()]


# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (QUADPACK constants), as floats.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
# the 15 Kronrod abscissas on [-1, 1] and their weights
_GK_X = np.concatenate([-np.array(_XGK[:-1][::-1]), _XGK[::-1]])
_GK_W = np.concatenate([_WGK[:-1][::-1], _WGK[::-1]])


def _panel_mass(prof: RadialProfile, i: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """alpha(d) * integral_a^b rho(f(tau)) tau^(d-1) dtau for each [a, b] inside
    segment i, by one 15-point Kronrod panel on the dense output, read by `_dense` on
    the segment's rows bit for bit as `traj.evaluate(tau)[..., 0]`: through `evaluate`,
    196 node panels took 637 us, not 175, and 600 off-node panels 2,828 us, not 367."""
    traj, d = prof.traj, prof.d
    ts, ys, fs, cont = traj.ts, traj.ys, traj.fs, traj.cont
    half = 0.5 * (b - a)[:, None]
    tau = 0.5 * (a + b)[:, None] + half * _GK_X
    f = _dense(tau, ts[i, None], ts[i + 1, None], ys[i, 0, None], ys[i + 1, 0, None],
               fs[i, 0, None], fs[i + 1, 0, None], cont[i, 0, None])
    return alpha_const(d) * np.sum(_GK_W * prof.density(f) * tau ** (d - 1), axis=1) * half[:, 0]


def node_brackets(prof: RadialProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node radii after s = 0 (where mass/s is 0/0), the enclosed mass and the
    momentum bracket -lam*s + K*f'(s) + mass/s there, f' read off the nodes: the tests'
    `momentum_bracket` bit for bit (`test_node_brackets_is_the_bracket_at_the_nodes`)."""
    s, p = prof.grid[1:], prof.params
    mass = enclosed_mass(prof, s)
    return s, mass, -p.lam * s + p.K * prof.fdot[1:] + mass / s
