"""Radial profiles f(s) of f'' + (d-1)/s * f' + g*rho(f) = F, f(0) = f0, f'(0) = 0.

A family's parameters give d, g, F, f0 and the density law rho (`RadialLaw`).
The Liouville profile of the rotating isothermal family is d = 2, rho = e^f,
g = 2*pi/K, F = 2*lam/K, f0 = alpha; `goldreich_weber` is the case d = N,
whose profile ends at its first zero, the support radius `RadialProfile.s_mu`.
The center s = 0 is a regular singular point, where DOP853 would crawl
(steps of about 0.05*s).  So the profile starts from its Taylor series in
s^2 there, the core f = sum a_k s^(2k) of `_series` (the Lane-Emden center
series: Chandrasekhar 1939, An Introduction to the Study of Stellar
Structure, ch. IV), and the run starts at the core radius s_core, where the
core's last term falls below 1e-5 of the run's relative tolerance (`_core_start`).
`RadialProfile` reads the series on [0, s_core] and the run's dense output
beyond.  The state is (f, w*f'), with the power of two w =
`RadialLaw.fp_scale` of the family: scaled, f' is held to atol/w +
rtol*|f'|.  From the core's end the Liouville profiles of the `profiles`
pool of seed 20261017 take 7,529 nodes at w = 2^-7 and 9,475 at w = 1, and
the Goldreich-Weber profiles as many nodes at 1 as at 2^-4, so their w is
1.  Every reader of f' divides by w, which is exact.

The enclosed mass is alpha(d) * integral_0^s rho(f) tau^(d-1) dtau.  For the
Liouville profile, integrating s * (the ODE) from 0 gives the identity

    2*pi * integral_0^s e^f(tau) tau dtau = lam*s^2 - K*s*f'(s),

which is exactly what makes the radial momentum balance of the assembled
fields vanish.  `enclosed_mass` computes the left side by quadrature of
rho(f), over the series in the core and over the dense solution beyond, so
the identity stays an independent check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

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
    """f'' + (d-1)/s * f' + g*rho(f) = F from f(0) = f0, f'(0) = 0, with the
    density rho = e^f when `power` is None, else max(f, 0)^power.  `rho` is
    that law as a Python expression in `{f}`, pasted into the rhs, which reads
    the constants `rho_consts`; `rho_array` is the law on arrays.  The solved
    state is (f, fp_scale*f'): fp_scale is a power of two, the largest at
    which the family's step and accuracy bounds hold."""

    d: int
    g: float
    F: float
    f0: float
    power: float | None
    fp_scale: float

    @property
    def rho(self) -> str:
        return "exp({f})" if self.power is None else "{f} ** power if {f} > 0.0 else 0.0"

    @property
    def rho_consts(self) -> dict[str, object]:
        return {"exp": math.exp} if self.power is None else {"power": self.power}

    def rho_array(self, f: np.ndarray) -> np.ndarray:
        return np.exp(f) if self.power is None else np.power(np.maximum(f, 0.0), self.power)


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
        return RadialLaw(2, 2 * math.pi / self.K, 2 * self.lam / self.K, self.alpha, None,
                         2.0 ** -7)


def _radial_rhs(p) -> Rhs:
    """The right-hand side (f', w*f'') of `p.law` on the state (f, w*f'), w its
    fp_scale, for s > 0: every run starts at the end of the core.  The forcing
    reads w*F and w*g: since w is a power of two, w*f'' is bit for bit w times
    the unscaled f'', and f' = (w*f') * (1/w)."""
    law, w = p.law, p.law.fp_scale
    body = _RADIAL_BODY.format(forcing=_forcing_source(law.rho, "y_0"))
    # d - 1 is a float: an int factor costs a conversion per call
    return Rhs(body, F=w * law.F, g=w * law.g, nm1=law.d - 1.0, iw=1.0 / w, **law.rho_consts)


def _forcing_source(rho: str, f: str) -> str:
    """F - g*rho(f) as Python source, with f spelled `f` and the law's density
    expression `rho` pasted in; f'' is this less (d-1)*f'/s."""
    return f"F - g * ({rho.format(f=f)})"


# the radius s is the integration time t
_RADIAL_BODY = """\
f_0 = y_1 * iw
f_1 = {forcing} - nm1 * y_1 / t"""


# terms a_0..a_31 of the core, and the bound on its last term as a fraction of the
# run's relative tolerance
_CORE_TERMS = 32
_CORE_TAIL = 1e-5
# the least coefficient of the series: 2^60 times the least normal float, so that
# the at most 32 subnormal or lost products in one of its sums stay below 2^-55 of it
_TINY = 2.0 ** -962


@functools.lru_cache(maxsize=8)  # a solve and its profile read the series of one law
def _series(law: RadialLaw) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The Taylor series f = sum a_k x^k, x = s^2, of the profile at the center, and
    the series sum 2k*a_k x^(k-1) of f'/s: a_0 = f0, and with R_k the coefficients
    of rho(f), a_(k+1) = (F*[k = 0] - g*R_k) / ((2k+2)(2k+d)), where k*R_k =
    sum_j j*a_j*R_(k-j) for rho = e^f and, by J.C.P. Miller's recurrence for the
    powers of a series (Knuth, TAOCP vol. 2, 4.7), k*a_0*R_k = sum_j (p*j - (k-j))
    *a_j*R_(k-j) = (p+1) sum_j j*a_j*R_(k-j) - k sum_j a_j*R_(k-j) for rho = f^p,
    j = 1..k.  A non-finite a_1, f''(0)/2, raises DomainError.  The series stops
    before the first R_k or a_(k+1) that is not finite or lies below _TINY, where a
    term of its sums may have underflowed to 0: a series cut there would pass for
    exact.  So a_1 = 0, a balanced law, gives R_1 = 0 and the constant profile f = f0."""
    f0, p, g, d = law.f0, law.power, law.g, law.d
    try:
        r0 = math.exp(f0) if p is None else f0 ** p
    except OverflowError:
        r0 = math.inf
    a1 = (law.F - g * r0) / (2 * d)
    if not math.isfinite(a1):
        raise DomainError("f''(0) = (F - g*rho(f0))/d is not finite at the center")
    # a_j and j*a_j from j = 1, and R_(k-1) .. R_0
    a, ja, back = [a1], [a1], [r0]
    for k in range(1, _CORE_TERMS - 1):
        r = sum(map(mul, ja, back))
        if p is not None:
            r = ((p + 1) * r - k * sum(map(mul, a, back))) / f0
        rk = r / k
        ak = -g * rk / ((2 * k + 2) * (2 * k + d))
        if not (_TINY <= abs(rk) < math.inf and _TINY <= abs(ak) < math.inf):
            break
        back.insert(0, rk)
        a.append(ak)
        ja.append((k + 1) * ak)
    return (f0, *a), tuple(2 * j for j in ja)


def _horner(c: tuple[float, ...], x):
    """sum c_k x^k by Horner's rule, for a float or an array x (in place on a new array)."""
    out = c[-1] + 0.0 * x
    for ck in c[-2::-1]:
        out *= x
        out += ck
    return out


def _core_start(law: RadialLaw, s_max: float, cfg: IntegratorConfig) -> OdeState:
    """The state (f, w*f') of the core at its radius s_core, where the run starts:
    where its last term a_K s^(2K) falls to _CORE_TAIL * rtol, times f0 for f^p, at
    most s_max/2, and for a clamped law (power not None) halved until f > 0 there,
    since the series of f^p holds only while f > 0."""
    a, b = _series(law)
    s0, k = 0.5 * s_max, len(a) - 1
    if a[1]:  # else f = f0 exactly
        # in units of 1 for e^f, whose f is a logarithm, and of f0 for f^p, whose
        # profile scales with f0
        tail = _CORE_TAIL * cfg.rtol * (1.0 if law.power is None else law.f0)
        s0 = min(s0, tail ** (0.5 / k) / abs(a[-1]) ** (0.5 / k))  # no underflow in between
    while True:
        x = s0 * s0
        f = _horner(a, x)
        if law.power is None or f > 0.0:
            return OdeState(s0, (f, law.fp_scale * (s0 * _horner(b, x))))
        s0 *= 0.5


class RadialProfile:
    """Solved radial profile: the core series of its params' law on [0, s_core] and
    the run's dense solution (f, w*f') from s_core = traj.t_start to s_max, whose w =
    law.fp_scale `fdot` and `fdot_at` divide out; the dimension d and array density
    law of its params; and the support radius s_mu: None for a Liouville profile,
    whose density e^f never vanishes, and for a Goldreich-Weber profile with no zero
    before its cap.  The grid is the run's nodes, from s_core on."""

    def __init__(self, params, traj: Trajectory, s_mu: float | None = None):
        self.params = params
        self.traj = traj
        self.s_mu = s_mu
        law = params.law
        self.d, self.density, self.fp_scale = law.d, law.rho_array, law.fp_scale
        self.s_core, self._series = traj.t_start, _series(law)

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
        """Component k of the state (f, w*f') at radii s: the core's series below
        s_core, which gives the run's first node at s_core bit for bit, the dense
        output from there on."""
        raise_where(np.logical_not((s >= 0) & (s <= self.s_max)), OutOfRange,
                    f"s outside [0, {self.s_max}]", s=s)
        s = np.asarray(s, dtype=float)
        core = s < self.s_core
        out = self.traj.evaluate(np.where(core, self.s_core, s))[..., k]
        a, b = self._series
        x = s[core] ** 2
        out[core] = _horner(a, x) if k == 0 else self.fp_scale * (s[core] * _horner(b, x))
        return out[()]

    def _mass_at_nodes(self) -> np.ndarray:
        """Cumulative enclosed mass at the grid nodes: the core's, then one Kronrod
        panel per segment; the error controller keeps segments short against the
        integrand's variation scale, so each is accurate to roundoff."""
        ts = self.traj.ts
        seg = _panel_mass(self, np.arange(len(ts) - 1), ts[:-1], ts[1:])
        return np.cumsum(np.concatenate((_core_mass(self, ts[:1]), seg)))


def solve_profile(
    p: LiouvilleParams, s_max: float, cfg: IntegratorConfig = TIGHT_CONFIG
) -> RadialProfile:
    """Integrate the profile from the end of its core (`_core_start`), whose series
    starts from f = law.f0 = alpha and f' = 0 at s = 0, out to s_max, on the
    `_radial_rhs` of p.  A halt or DomainError is re-raised naming p."""
    if not s_max > 0:
        raise DomainError("s_max must be > 0")
    with naming(f"in the profile of {p}"):
        traj = integrate(_radial_rhs(p), _core_start(p.law, s_max, cfg), s_max, cfg)
    return RadialProfile(p, traj)


def enclosed_mass(prof: RadialProfile, s):
    """alpha(d) * integral_0^s rho(f(tau)) tau^(d-1) dtau via quadrature on the
    profile, at radii s of any shape; a float in gives a float out."""
    s = np.asarray(s, dtype=float)
    raise_where(~((s > 0) & (s <= prof.s_max)), OutOfRange, f"s outside (0, {prof.s_max}]", s=s)
    mass, ts = prof._mass_at_nodes(), prof.traj.ts
    flat = s.ravel()
    i = np.searchsorted(ts, flat)  # ts[i-1] < s <= ts[i]; i = 0 inside the core
    out, off = mass[i], ts[i] != flat  # a radius off the nodes takes its panels
    inner, core = off & (i > 0), off & (i == 0)
    seg = i[inner] - 1
    out[inner] = mass[seg] + _panel_mass(prof, seg, ts[seg], flat[inner])
    out[core] = _core_mass(prof, flat[core])
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


def _kronrod(prof: RadialProfile, a: np.ndarray, b: np.ndarray, f_at) -> np.ndarray:
    """alpha(d) * integral_a^b rho(f(tau)) tau^(d-1) dtau for each [a, b], by one
    15-point Kronrod panel, with f read by f_at on the (len(a), 15) abscissas."""
    half = 0.5 * (b - a)[:, None]
    tau = 0.5 * (a + b)[:, None] + half * _GK_X
    d = prof.d
    return alpha_const(d) * np.sum(_GK_W * prof.density(f_at(tau)) * tau ** (d - 1),
                                   axis=1) * half[:, 0]


def _panel_mass(prof: RadialProfile, i: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The `_kronrod` mass of each [a, b] inside segment i, on the dense output, read
    by `_dense` on the segment's rows bit for bit as `traj.evaluate(tau)[..., 0]`:
    through `evaluate`, 196 node panels took 637 us, not 175, and 600 off-node panels
    2,828 us, not 367."""
    traj = prof.traj
    ts, ys, fs, cont = traj.ts, traj.ys, traj.fs, traj.cont
    return _kronrod(prof, a, b, lambda tau: _dense(
        tau, ts[i, None], ts[i + 1, None], ys[i, 0, None], ys[i + 1, 0, None],
        fs[i, 0, None], fs[i + 1, 0, None], cont[i, 0, None]))


def _core_mass(prof: RadialProfile, s: np.ndarray) -> np.ndarray:
    """The mass of [0, s] for radii s in the core, on its series, by the `_kronrod` panels
    of ceil((d-1)/6) equal parts: tau^(d-1) then grows at most e^6-fold over a part."""
    parts = max(1, -(-(prof.d - 1) // 6))
    edges = s[:, None] * (np.arange(parts + 1) / parts)
    mass = _kronrod(prof, edges[:, :-1].ravel(), edges[:, 1:].ravel(),
                    lambda tau: _horner(prof._series[0], tau * tau))
    return mass.reshape(-1, parts).sum(axis=1)


def node_brackets(prof: RadialProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node radii (from s_core on, so mass/s is defined), the enclosed mass and the
    momentum bracket -lam*s + K*f'(s) + mass/s there, f' read off the nodes: the tests'
    `momentum_bracket` bit for bit (`test_node_brackets_is_the_bracket_at_the_nodes`)."""
    s, p = prof.grid, prof.params
    mass = enclosed_mass(prof, s)
    return s, mass, -p.lam * s + p.K * prof.fdot + mass / s
