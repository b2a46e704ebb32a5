"""Dynamics of the scale factor a(t) with a'' = -lam/a + xi^2/a^3.

The motion is one-dimensional in the effective potential
V(a) = lam*ln(a) + xi^2/(2 a^2), so the conserved energy
theta = a1^2/2 + V(a0) classifies every orbit:

* lam > 0, xi != 0: V has a single minimum at abar = |xi|/sqrt(lam); the
  orbit is steady exactly at the minimum and periodic otherwise.
* xi = 0, lam > 0: no centrifugal barrier, a reaches zero in finite time
  (density blowup).
* lam <= 0: the solution exists globally and is unbounded.

The period of a periodic orbit is computed two independent ways: as the
singular quadrature 2 * integral da / sqrt(2*(theta - V(a))) between the
turning points, and by timing a'=0 events of a simulated trajectory.
Agreement between the two is one of the package's core self-checks.

Both work in the orbit's own scale u = ln(a/abar): V(a) - V(abar) = lam*phi(u),
phi(u) = u + expm1(-2u)/2, and the orbit's energy above the minimum is
E = a1^2/(2 lam) + phi(ln(a0/abar)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, IntegrationHalted, NotPeriodic, StateBlowup, StepUnderflow
from .ode import (
    IntegratorConfig,
    IntegratorStats,
    OdeState,
    Trajectory,
    detect_events,
    integrate,
    quad_singular,
)

# relative width of the band around (abar, 0) treated as the steady state
STEADY_RTOL = 1e-12


@dataclass(frozen=True)
class EmdenParams:
    """Parameters (lam, xi, a0, a1) of one scale-factor initial value problem."""

    lam: float
    xi: float
    a0: float
    a1: float

    def __post_init__(self):
        vals = (self.lam, self.xi, self.a0, self.a1)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("all parameters must be finite")
        if not self.a0 > 0:
            raise DomainError("a0 must be > 0")
        if self.xi * self.xi == 0 != self.xi:
            raise DomainError(f"xi={self.xi} underflows xi^2 to 0, losing the centrifugal term")


class OrbitClass(enum.Enum):
    STEADY = "steady"
    PERIODIC = "periodic"
    GLOBAL_NON_PERIODIC = "global_non_periodic"
    FINITE_TIME_BLOWUP = "finite_time_blowup"


class TurningPoints(NamedTuple):
    a_min: float
    a_max: float


@dataclass(frozen=True)
class PeriodEstimate:
    """A period with its error estimate; simulation estimates also carry the
    integrator counters of the run they added."""

    T: float
    err_est: float
    stats: IntegratorStats = IntegratorStats()


@dataclass(frozen=True)
class ScaleRun:
    """Result of a run to touchdown: trajectory plus touchdown time, if any."""

    trajectory: Trajectory
    touchdown_time: float | None = None


def scale_rhs(p: EmdenParams):
    """Right-hand side of the first-order system (a, a')."""
    lam, xi2 = p.lam, p.xi * p.xi

    def rhs(t: float, y: tuple[float, float]) -> tuple[float, float]:
        a = y[0]
        if a <= 0.0:
            return (math.nan, math.nan)
        return (y[1], -lam / a + xi2 / (a * a * a))

    return rhs


def potential(a: float, p: EmdenParams) -> float:
    """Effective potential lam*ln(a) + xi^2/(2 a^2)."""
    if not a > 0:
        raise DomainError("potential requires a > 0")
    try:
        return p.lam * math.log(a) + p.xi * p.xi / (2 * a * a)
    except ZeroDivisionError:  # a nonzero subnormal xi^2 can put a_min where a^2 underflows
        raise DomainError(f"a={a} underflows a^2 to 0 in the potential at {p}") from None


def energy_level(p: EmdenParams) -> float:
    """Conserved energy theta = a1^2/2 + lam*ln(a0) + xi^2/(2 a0^2)."""
    theta = p.a1 * p.a1 / 2 + potential(p.a0, p)
    if not math.isfinite(theta):
        raise DomainError(f"the energy level overflows at {p}")
    return theta


def equilibrium_radius(p: EmdenParams) -> float:
    """The unique potential minimum abar = |xi|/sqrt(lam) (needs lam>0, xi!=0)."""
    if p.lam <= 0 or p.xi == 0:
        raise DomainError("equilibrium requires lam > 0 and xi != 0")
    return abs(p.xi) / math.sqrt(p.lam)


def _is_steady(p: EmdenParams) -> bool:
    """Whether a rotating orbit (lam > 0, xi != 0, as `classify` checks first) rests at abar."""
    abar = equilibrium_radius(p)
    return (
        abs(p.a0 - abar) <= STEADY_RTOL * abar
        and abs(p.a1) <= STEADY_RTOL * max(1.0, abar)
    )


def classify(p: EmdenParams) -> OrbitClass:
    """Orbit trichotomy: steady / periodic (lam>0, xi!=0), blowup (xi=0, lam>0),
    global otherwise (lam<=0)."""
    if p.lam > 0 and p.xi != 0:
        return OrbitClass.STEADY if _is_steady(p) else OrbitClass.PERIODIC
    if p.lam > 0:
        return OrbitClass.FINITE_TIME_BLOWUP
    return OrbitClass.GLOBAL_NON_PERIODIC


def _phi(u: float) -> float:
    """phi(u) = u + expm1(-2u)/2, by its Taylor series sum_{k>=2} (-2u)^k/(2 k!)
    for |u| <= 1/4, where the two terms cancel."""
    if abs(u) > 0.25:
        return u + math.expm1(-2.0 * u) / 2
    x = -2.0 * u
    term, total, k = x * x / 4, 0.0, 2
    while total + term != total:
        total, k = total + term, k + 1
        term *= x / k
    return total


def _turning_exponents(p: EmdenParams) -> tuple[TurningPoints, float, float]:
    """The turning points and their exponents u_min, u_max (see `turning_points`)."""
    if classify(p) is not OrbitClass.PERIODIC:
        raise NotPeriodic("turning points exist only for periodic orbits")
    abar = equilibrium_radius(p)
    try:
        u0 = math.log(p.a0 / abar)
        E = p.a1 * p.a1 / (2 * p.lam) + _phi(u0)
    except (OverflowError, ValueError):  # e^(-2 u0) overflows, or a0/abar underflows to 0
        E = math.inf
    if not 0.0 < E < math.inf:
        raise DomainError(f"the energy above the minimum, E = {E}, is not a positive float at {p}")
    r, radii, exps = math.sqrt(E), [], []
    # u_max goes first: once a_max is a float, E < 1,500 and u_min's bracket is finite
    for side, inside, outside in ((1, E - math.expm1(-2 * r) / 2, E + 0.5),
                                  (-1, -math.log1p(2 * E) / 2, -math.log1p(2 * E + 2 * r) / 2)):
        at_a0 = p.a1 == 0.0 and side * u0 > 0  # the initial point is this turning point
        u = u0 if at_a0 else inside + (outside - inside) / 2
        while not at_a0 and u != inside and u != outside:  # phi(inside) <= E < phi(outside)
            inside, outside = (inside, u) if _phi(u) > E else (u, outside)
            u = inside + (outside - inside) / 2
        try:
            a = p.a0 if at_a0 else abar * math.exp(u)
        except OverflowError:
            a = math.inf
        if not 0.0 < a < math.inf:
            raise DomainError(f"the turning point abar*e^{u} = {a} is not a positive float at {p}")
        radii, exps = [a, *radii], [u, *exps]  # the lower turning point ends up first
    return TurningPoints(*radii), *exps


def turning_points(p: EmdenParams) -> TurningPoints:
    """Extreme scale factors abar*e^u of a periodic orbit, at the roots of phi(u) = E.

    As phi'' = 2 e^(-2u), u_min lies in [-log1p(2E + 2 sqrt(E))/2, -log1p(2E)/2]
    and u_max in [E - expm1(-2 sqrt(E))/2, E + 1/2], each bisected until the
    midpoint equals an end; with a1 = 0, a0 is returned exactly.  A non-finite E
    or a turning point that is not a positive float raises DomainError.
    """
    return _turning_exponents(p)[0]


# tolerance of each half-period quadrature, relative to each panel's value
PERIOD_QUAD_TOL = 1e-12


def period_by_quadrature(p: EmdenParams) -> PeriodEstimate:
    """Orbit period 2 * integral da / sqrt(2*(theta - V(a))), in u = ln(a/abar):
    T = (2 abar/sqrt(lam)) * sum_t integral_0^w e^(u_t + s) / sqrt(2 X_t(s)) dd.

    The sum runs over both turning points u_t, s = +-d points inward and
    w = (u_max - u_min)/2, and each integral is one `quad_singular` call to
    the relative PERIOD_QUAD_TOL.  X_t(s) = phi(u_t) - phi(u_t + s) is
    -phi(s) - expm1(-2 u_t) expm1(-2s)/2 for |s| <= 1/4, else
    -s - (e^(-2(u_t + s)) - e^(-2 u_t))/2.  An overflowing T raises DomainError.
    """
    tp, u_min, u_max = _turning_exponents(p)
    total = err = 0.0
    for u_t, inward in ((u_min, 1.0), (u_max, -1.0)):
        def integrand(d: float, u_t=u_t, inward=inward) -> float:
            s = inward * d
            if abs(s) <= 0.25:
                x = -_phi(s) - math.expm1(-2 * u_t) * math.expm1(-2 * s) / 2
            else:
                x = -s - (math.exp(-2 * (u_t + s)) - math.exp(-2 * u_t)) / 2
            return math.exp(u_t + s - u_max) / math.sqrt(2 * x)  # a_max is applied below

        val, e = quad_singular(integrand, 0.0, (u_max - u_min) / 2, PERIOD_QUAD_TOL)
        total, err = total + val, err + e
    scale = 2 * tp.a_max / math.sqrt(p.lam)  # a_max = abar e^(u_max)
    if not math.isfinite(scale * total):
        raise DomainError(f"the period overflows at {p}")
    return PeriodEstimate(T=scale * total, err_est=scale * err)


def linearized_period(p: EmdenParams) -> float:
    """Small-oscillation period 2*pi/sqrt(V''(abar)), where V''(abar) = 2 lam/abar^2."""
    return 2 * math.pi * equilibrium_radius(p) / math.sqrt(2 * p.lam)


_PERIOD_EVENTS_NEEDED = 4  # 3 full cycles


def period_by_simulation(p: EmdenParams, cfg: IntegratorConfig = IntegratorConfig(),
                         run: Trajectory | None = None) -> PeriodEstimate:
    """Orbit period timed from falling a'=0 events of a simulated trajectory.

    The falls of a' count first on the nodes of `run`, a trajectory of this
    orbit from t = 0 (else DomainError), and the event finder samples it only
    up to the node of the fourth.  With fewer falls or no `run`, the orbit is
    integrated on at cfg from the last node to the missing falls, however
    long that takes; cfg.max_steps bounds it, and a halt is re-raised with
    its type and the orbit's parameters.  The period is the mean of the three
    gaps between the first four maxima of a(t), err_est their largest
    deviation from it, and stats the counters of the integration it added.
    """
    if classify(p) is not OrbitClass.PERIODIC:
        raise NotPeriodic("period is defined only for periodic orbits")
    y0 = (p.a0, p.a1)
    if run is None:  # the start node alone; a lone node's derivative is never read
        run = Trajectory([0.0], [y0], [y0])
    elif not (run.t_start == 0.0 and np.array_equal(run.ys[0], y0)):
        raise DomainError(f"the run must start at t = 0 from (a0, a1) of {p}")
    adot = run.ys[:, 1]
    fall_nodes = (np.flatnonzero((adot[:-1] > 0) & (adot[1:] <= 0)) + 1)[:_PERIOD_EVENTS_NEEDED]
    n = fall_nodes[-1] + 1 if len(fall_nodes) == _PERIOD_EVENTS_NEEDED else run.n_nodes
    # each counted fall has a bracket on the finder's grid; a zero that the
    # nodes missed lies earlier, so the first four are the first four maxima
    events = detect_events(Trajectory(run.ts[:n], run.ys[:n], run.fs[:n], run.cont[:n - 1]), 1)
    stats = IntegratorStats()
    if len(fall_nodes) < _PERIOD_EVENTS_NEEDED:
        try:
            more = integrate(scale_rhs(p), OdeState(run.t_end, run.y_end), math.inf, cfg,
                             falls=(1, _PERIOD_EVENTS_NEEDED - len(fall_nodes)))
        except IntegrationHalted as halt:
            raise type(halt)(f"{halt} in the period of {p}", halt.t, halt.trajectory) from None
        events, stats = np.concatenate([events, detect_events(more, 1)]), more.stats

    gaps = np.diff(events[:_PERIOD_EVENTS_NEEDED])
    T = float(np.mean(gaps))
    return PeriodEstimate(T=T, err_est=float(np.max(np.abs(gaps - T))), stats=stats)


def integrate_scale(
    p: EmdenParams, t_end: float, cfg: IntegratorConfig = IntegratorConfig()
) -> ScaleRun:
    """Trajectory of (a, a') on [0, t_end], stopping cleanly at touchdown.

    When the orbit collapses (a -> 0, possible only without rotation and
    lam > 0, or with lam = xi = 0 and a1 < 0) the integrator's step size
    collapses at the singular time; that halt is reported as the touchdown
    time instead of an error.
    """
    return _run_to_touchdown(scale_rhs(p), OdeState(0.0, np.array([p.a0, p.a1])), t_end, cfg)


def _run_to_touchdown(rhs, start: OdeState, t_end: float, cfg: IntegratorConfig) -> ScaleRun:
    """Integrate (y, y') from `start` to t_end, stopping where y reaches zero.

    The callers (the 2D and the Goldreich-Weber scale factor, and the
    Goldreich-Weber profile, whose zero is its support radius) let rhs
    return NaN once y has crossed zero, so the step size collapses there.
    A StepUnderflow or StateBlowup halt with y already below 1e-6 of its
    start value is that touchdown: the trajectory up to the halt is
    returned with the halt time.  Any other halt is re-raised with its
    context.
    """
    try:
        return ScaleRun(trajectory=integrate(rhs, start, t_end, cfg), touchdown_time=None)
    except (StepUnderflow, StateBlowup) as halt:
        if halt.trajectory is None or halt.trajectory.y_end[0] > 1e-6 * start.y[0]:
            raise  # not a touchdown; surface the halt with its context
        return ScaleRun(trajectory=halt.trajectory, touchdown_time=halt.t)


def energy_drift(traj: Trajectory, p: EmdenParams) -> float:
    """Max |energy(t) - theta| over the trajectory nodes."""
    th = energy_level(p)
    a = traj.ys[:, 0]
    adot = traj.ys[:, 1]
    e = adot**2 / 2 + p.lam * np.log(a) + p.xi * p.xi / (2 * a**2)
    return float(np.max(np.abs(e - th)))
