"""Radial profiles f(s) of f'' + (d-1)/s * f' + g*rho(f) = F, f(0) = f0, f'(0) = 0.

A family's parameters give d, g, F, f0 and the density law rho (`RadialLaw`).
The Liouville profile of the rotating isothermal family is d = 2, rho = e^f,
g = 2*pi/K, F = 2*lam/K, f0 = alpha; `goldreich_weber` is the case d = N.
Integration starts at the regular singular point s = 0, where f'/s -> f''(0)
and the right-hand side takes its limit f''(0) = (F - g*rho(f0)) / d.

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

from .errors import DomainError, OutOfRange, raise_where
from .ode import (
    TIGHT_CONFIG,
    IntegratorConfig,
    OdeState,
    RhsFn,
    Trajectory,
    _WGK,
    _XGK,
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
    """f'' + (d-1)/s * f' + g*rho(f) = F from f(0) = f0, f'(0) = 0; the
    density law is rho on floats and rho_array on arrays."""

    d: int
    g: float
    F: float
    f0: float
    rho: Callable[[float], float]
    rho_array: Callable[[np.ndarray], np.ndarray]


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
        """d = 2, rho = e^f, g = 2*pi/K, F = 2*lam/K, f0 = alpha."""
        return RadialLaw(2, 2 * math.pi / self.K, 2 * self.lam / self.K, self.alpha,
                         math.exp, np.exp)


def _radial_rhs(p) -> RhsFn:
    """The right-hand side (f', f'') of `p.law`; at s = 0 it is the limit
    (f', f''(0)) with f''(0) = (F - g*rho(f0)) / d, which is checked finite."""
    d, g, F, f0, rho, _ = p.law
    try:
        fpp0 = (F - g * rho(f0)) / d
        if not math.isfinite(fpp0):
            raise OverflowError
    except OverflowError:
        raise DomainError(f"f''(0) overflows at {p}") from None
    nm1 = d - 1.0  # a float: an int factor costs a conversion per call

    def rhs(s: float, y: tuple[float, float]) -> tuple[float, float]:
        if s == 0.0:
            return (y[1], fpp0)
        return (y[1], F - g * rho(y[0]) - nm1 * y[1] / s)

    return rhs


class RadialProfile:
    """Solved radial profile: the dense solution (f, f') on [0, s_max], the
    dimension d and array density law of its params, and the enclosed mass
    at its nodes once asked for."""

    def __init__(self, params, traj: Trajectory):
        self.params = params
        self.traj = traj
        law = params.law
        self.d, self.density = law.d, law.rho_array
        self._node_mass: np.ndarray | None = None

    @property
    def grid(self) -> np.ndarray:
        return self.traj.ts

    @property
    def f(self) -> np.ndarray:
        return self.traj.ys[:, 0]

    @property
    def fdot(self) -> np.ndarray:
        return self.traj.ys[:, 1]

    @property
    def s_max(self) -> float:
        return self.traj.t_end

    def f_at(self, s):
        """f at radii s of any shape; a float in gives a float out."""
        return self._at(s, 0)

    def fdot_at(self, s):
        """f' at radii s of any shape; a float in gives a float out."""
        return self._at(s, 1)

    def _at(self, s, k: int):
        raise_where((s < 0) | (s > self.s_max), OutOfRange, f"s outside [0, {self.s_max}]", s=s)
        return self.traj.evaluate(s)[..., k][()]

    def _mass_at_nodes(self) -> np.ndarray:
        """Cumulative enclosed mass at the grid nodes, one Kronrod panel per
        segment; the error controller keeps segments short against the
        integrand's variation scale, so each is accurate to roundoff."""
        if self._node_mass is not None:
            return self._node_mass
        ts = self.traj.ts
        seg = _panel_mass(self, np.arange(len(ts) - 1), ts[:-1], ts[1:])
        mass = np.zeros(len(ts))
        np.cumsum(seg, out=mass[1:])
        self._node_mass = mass
        return mass


def solve_profile(
    p: LiouvilleParams, s_max: float, cfg: IntegratorConfig = TIGHT_CONFIG
) -> RadialProfile:
    """Integrate the profile from s = 0, where f = alpha and f' = 0, out to
    s_max, on the `_radial_rhs` of p."""
    if not s_max > 0:
        raise DomainError("s_max must be > 0")
    traj = integrate(_radial_rhs(p), OdeState(0.0, (p.alpha, 0.0)), s_max, cfg)
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


# the 15 Kronrod abscissas on [-1, 1] and their weights
_GK_X = np.concatenate([-np.array(_XGK[:-1][::-1]), _XGK[::-1]])
_GK_W = np.concatenate([_WGK[:-1][::-1], _WGK[::-1]])


def _panel_mass(prof: RadialProfile, i: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """alpha(d) * integral_a^b rho(f(tau)) tau^(d-1) dtau for each [a, b] inside
    segment i, by one 15-point Kronrod panel on the segment's dense output."""
    traj, d = prof.traj, prof.d
    ts, ys, fs, cont = traj.ts, traj.ys, traj.fs, traj.cont
    half = 0.5 * (b - a)[:, None]
    tau = 0.5 * (a + b)[:, None] + half * _GK_X
    f = _dense(tau, ts[i, None], ts[i + 1, None], ys[i, 0, None], ys[i + 1, 0, None],
               fs[i, 0, None], fs[i + 1, 0, None], cont[i, 0, None])
    return alpha_const(d) * np.sum(_GK_W * prof.density(f) * tau ** (d - 1), axis=1) * half[:, 0]


def momentum_bracket(prof: RadialProfile, s):
    """-lam*s + K*f'(s) + enclosed_mass(s)/s for a Liouville profile; zero for
    an exact profile.  OutOfRange unless 0 < s <= s_max."""
    mass, p = enclosed_mass(prof, s), prof.params
    return -p.lam * s + p.K * prof.fdot_at(s) + mass / s
