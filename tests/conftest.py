"""Shared fixtures, built once per session if expensive, and the test-only oracles."""

import dataclasses
import math
from typing import Callable

import numpy as np
import pytest

from eulerpoisson.emden import EmdenParams, energy_level, equilibrium_radius, potential
from eulerpoisson.errors import DomainError, raise_where
from eulerpoisson.fields import FieldSample, ZZSolution, build_rotational, eval_gravity_radial
from eulerpoisson.liouville import enclosed_mass
from eulerpoisson.ode import IntegratorConfig


# the two orbits of the benchmark's confirmation pool (orbits, seed 20261017)
# whose period quadrature, at an absolute tolerance, exhausted its 4,096
# panels; their periods are 6.5e6 and 6.4e10
WIDE_ORBITS = [
    EmdenParams(0.29609930847768234, 2.3140885660693904, 1.1969327522449682, 2.1311544245429976),
    EmdenParams(0.37021281793076577, 1.8847639010257584, 0.5456176867545397, -2.4279244088861986),
]


@pytest.fixture(scope="session")
def unit_orbit():
    """The canonical periodic configuration: lam = xi = a0 = a1 = 1."""
    return EmdenParams(lam=1.0, xi=1.0, a0=1.0, a1=1.0)


@pytest.fixture(scope="session")
def rot_solution():
    """Rotating isothermal solution bundle used by field and residual tests."""
    return build_rotational(
        lam=1.0, xi=1.0, K=1.0, alpha=0.0, a0=1.0, a1=1.0, t_max=2.5, samples=(0.0, 19.0)
    )


@pytest.fixture(scope="session")
def zz():
    return ZZSolution(K=1.0, rho0=0.5)


@pytest.fixture(scope="session")
def tight_cfg():
    return IntegratorConfig(rtol=1e-12, atol=1e-14)


def disk_points(rng, n, t_range, r_range):
    """n random (t, x, y) samples in a time slab times an annulus."""
    pts = []
    for _ in range(n):
        t = rng.uniform(*t_range)
        r = rng.uniform(*r_range)
        ang = rng.uniform(0.0, 2 * math.pi)
        pts.append((float(t), float(r * math.cos(ang)), float(r * math.sin(ang))))
    return pts


@dataclasses.dataclass(frozen=True)
class SwirlAnsatz:
    """rho = f(r/a)/a^2 with u = (a'/a) x_vec + (G(t,r)/r) x_vec_perp: the general
    mass-equation ansatz with an arbitrary swirl profile G(t, r).

    Satisfies the continuity equation for any C^1 choices of f >= 0, a > 0 and
    swirl G: an oracle for the residual study's mass equation (acceptance 8) and
    an independent reference for `eval_rotational`'s velocity.
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


def linearized_period(p):
    """Small-oscillation period 2*pi/sqrt(V''(abar)), where V''(abar) = 2 lam/abar^2."""
    return 2 * math.pi * equilibrium_radius(p) / math.sqrt(2 * p.lam)


def energy_drift(traj, p):
    """Max |energy(t) - theta| over the trajectory nodes."""
    e = traj.ys[:, 1] ** 2 / 2 + potential(traj.ys[:, 0], p)
    return float(np.max(np.abs(e - energy_level(p))))


def gravity_radial_two_ways(sol, t, r):
    """Phi_r by quadrature (`eval_gravity_radial`) and by the enclosed-mass identity
    (lam*s - K*f'(s))/a at s = r/a: their agreement checks the profile solve end to end."""
    a = sol.scale.evaluate(t)[..., 0]
    s, p = r / a, sol.profile.params
    return eval_gravity_radial(sol, t, r), (p.lam * s - p.K * sol.profile.fdot_at(s)) / a


def momentum_bracket(prof, s):
    """-lam*s + K*f'(s) + enclosed_mass(s)/s, zero for an exact Liouville profile."""
    mass, p = enclosed_mass(prof, s), prof.params
    return -p.lam * s + p.K * prof.fdot_at(s) + mass / s


def radial_reference(law, s_end, zero=False):
    """scipy's DOP853 on the unscaled profile (f, f') of `law` from s = 0 to s_end,
    at atol 1e-22 and rtol 2.3e-14, just above the 100 eps to which scipy raises
    a smaller rtol with a warning.  Returns the dense solution, a callable of s
    giving the rows f and f', and the first falling zero of f, or None.  With
    zero the run stops there; a second pass from 2% before the zero, on steps of
    at most 1e-4 of it, locates it again and serves the solution past that point."""
    import scipy.integrate as scipy_integrate  # a test dependency, never skipped

    d, g, F = law.d, law.g, law.F

    def rhs(s, y):
        forcing = F - g * float(law.rho_array(y[0]))
        return [y[1], forcing / d if s == 0.0 else forcing - (d - 1) * y[1] / s]

    def falls(s, y):
        return y[0]

    falls.terminal, falls.direction = True, -1
    tight = dict(method="DOP853", rtol=2.3e-14, atol=1e-22, dense_output=True,
                 events=falls if zero else None)
    first = scipy_integrate.solve_ivp(rhs, (0.0, s_end), [law.f0, 0.0], **tight)
    assert first.success
    if not (zero and first.t_events[0].size):
        return first.sol, None
    s0 = 0.98 * float(first.t_events[0][0])
    again = scipy_integrate.solve_ivp(rhs, (s0, s_end), first.sol(s0), max_step=1e-4 * s0,
                                      **tight)
    assert again.success and again.t_events[0].size

    def sol(s):
        s = np.asarray(s, dtype=float)
        return np.where(s < s0, first.sol(np.minimum(s, s0)), again.sol(np.maximum(s, s0)))

    return sol, float(again.t_events[0][0])


def scaled_field(field, member, factor):
    """field with the `member` (rho or phi_r) of its samples times factor: a negative control."""
    def scaled(t, x, y):
        s = field(t, x, y)
        return dataclasses.replace(s, **{member: getattr(s, member) * factor})
    return scaled


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
