"""Radial log-density profile f(s) with f'' + f'/s + (2*pi/K)*e^f = 2*lam/K.

The origin is a regular singular point (the f'/s term).  Integration
starts there, from f(0) = alpha, f'(0) = 0, where the right-hand side takes
the limit f'/s -> f''(0) = 2c with c = (lam - pi*e^alpha) / (2K); the
stepper evaluates it at s = 0 only for the first stage of its first step.

Integrating s * (the ODE) from 0 gives the enclosed-mass identity

    2*pi * integral_0^s e^f(tau) tau dtau = lam*s^2 - K*s*f'(s),

which is exactly what makes the radial momentum balance of the assembled
fields vanish.  `enclosed_mass` deliberately computes the left side by
quadrature over the dense solution so the identity stays an independent
check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfRange, raise_where
from .ode import (
    TIGHT_CONFIG,
    IntegratorConfig,
    OdeState,
    Trajectory,
    _WGK,
    _XGK,
    _dense,
    integrate,
)


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


def series_coefficient(p: LiouvilleParams) -> float:
    """c = f''(0)/2 = (lam - pi*e^alpha) / (2K), from the s -> 0 limit of the
    equation, where f'' and f'/s both tend to f''(0)."""
    try:
        c = (p.lam - math.pi * math.exp(p.alpha)) / (2 * p.K)
    except OverflowError:
        raise DomainError(f"alpha={p.alpha} overflows e^alpha") from None
    if not math.isfinite(c):
        raise DomainError(f"f''(0) overflows at alpha={p.alpha}, K={p.K}, lam={p.lam}")
    return c


class RadialProfile:
    """Solved radial profile: the dense solution (f, f') on [0, s_max]."""

    def __init__(self, params, traj: Trajectory):
        self.params = params
        self.traj = traj

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


class LiouvilleProfile(RadialProfile):
    """Liouville profile with f(0) = alpha and the enclosed mass at its nodes."""

    def __init__(self, params: LiouvilleParams, traj: Trajectory):
        super().__init__(params, traj)
        self._node_mass: np.ndarray | None = None

    def _mass_at_nodes(self) -> np.ndarray:
        """Cumulative 2*pi*integral e^f tau dtau at the grid nodes.

        One 15-point Kronrod panel per integration segment, evaluated on the
        segment's dense output; the error controller keeps segments short
        against the integrand's variation scale, so each is accurate to
        roundoff.
        """
        if self._node_mass is not None:
            return self._node_mass
        ts = self.traj.ts
        seg = _panel_mass(self.traj, np.arange(len(ts) - 1), ts[:-1], ts[1:])
        mass = np.zeros(len(ts))
        np.cumsum(seg, out=mass[1:])
        self._node_mass = mass
        return mass


def solve_profile(
    p: LiouvilleParams, s_max: float, cfg: IntegratorConfig = TIGHT_CONFIG
) -> LiouvilleProfile:
    """Integrate the profile from s = 0, where f = alpha and f' = 0, out to
    s_max.  At s = 0 the right-hand side is its limit (f', 2c), c the
    `series_coefficient`."""
    if not s_max > 0:
        raise DomainError("s_max must be > 0")
    fpp0 = 2 * series_coefficient(p)
    two_lam_over_k = 2 * p.lam / p.K
    two_pi_over_k = 2 * math.pi / p.K

    def rhs(s: float, y: tuple[float, float]) -> tuple[float, float]:
        if s == 0.0:
            return (y[1], fpp0)
        return (y[1], two_lam_over_k - two_pi_over_k * math.exp(y[0]) - y[1] / s)

    traj = integrate(rhs, OdeState(0.0, (p.alpha, 0.0)), s_max, cfg)
    return LiouvilleProfile(p, traj)


def enclosed_mass(prof: LiouvilleProfile, s):
    """2*pi * integral_0^s e^f(tau) tau dtau via quadrature on the dense profile,
    at radii s of any shape; a float in gives a float out."""
    s = np.asarray(s, dtype=float)
    raise_where(~((s > 0) & (s <= prof.s_max)), OutOfRange, f"s outside (0, {prof.s_max}]", s=s)
    mass, ts = prof._mass_at_nodes(), prof.traj.ts
    flat = s.ravel()
    i = np.searchsorted(ts, flat)  # ts[i-1] < s <= ts[i], and ts[0] = 0 < s
    out, inner = mass[i], ts[i] != flat  # a radius off the nodes takes one panel
    seg = i[inner] - 1
    out[inner] = mass[seg] + _panel_mass(prof.traj, seg, ts[seg], flat[inner])
    return out.reshape(s.shape)[()]


# the 15 Kronrod abscissas on [-1, 1] and their weights
_GK_X = np.concatenate([-np.array(_XGK[:-1][::-1]), _XGK[::-1]])
_GK_W = np.concatenate([_WGK[:-1][::-1], _WGK[::-1]])


def _panel_mass(traj: Trajectory, i: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2*pi * integral_a^b e^f(tau) tau dtau for each [a, b] inside segment i,
    by one 15-point Kronrod panel on the segment's dense output."""
    ts, ys, fs, cont = traj.ts, traj.ys, traj.fs, traj.cont
    half = 0.5 * (b - a)[:, None]
    tau = 0.5 * (a + b)[:, None] + half * _GK_X
    f = _dense(tau, ts[i, None], ts[i + 1, None], ys[i, 0, None], ys[i + 1, 0, None],
               fs[i, 0, None], fs[i + 1, 0, None], cont[i, 0, None])
    return 2 * math.pi * np.sum(_GK_W * np.exp(f) * tau, axis=1) * half[:, 0]


def momentum_bracket(prof: LiouvilleProfile, s):
    """-lam*s + K*f'(s) + enclosed_mass(s)/s; zero for an exact profile.
    OutOfRange unless 0 < s <= s_max."""
    mass, p = enclosed_mass(prof, s), prof.params
    return -p.lam * s + p.K * prof.fdot_at(s) + mass / s


def mass_identity_residual(prof: LiouvilleProfile, s):
    """|2*pi*integral e^f tau dtau - (lam*s^2 - K*s*f'(s))| at radius s.
    OutOfRange unless 0 < s <= s_max."""
    mass, p = enclosed_mass(prof, s), prof.params
    return abs(mass - (p.lam * s * s - p.K * s * prof.fdot_at(s)))
