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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DomainError, IntegrationHalted, NoConvergence, NotPeriodic, StateBlowup,
                     StepUnderflow)
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

# tolerances for turning-point roots
_BRACKET_MAX_DOUBLINGS = 600
_ROOT_ATOL = 1e-14


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


def turning_points(p: EmdenParams) -> TurningPoints:
    """Extreme scale factors of a periodic orbit, the roots of V(a) = theta.

    Brackets expand geometrically outward from the potential minimum, then
    bisection plus a guarded Newton polish drives |V(a) - theta| below
    1e-12 * max(1, |theta|).  When a1 = 0 the initial point itself is a
    turning point and is returned exactly.
    """
    if classify(p) is not OrbitClass.PERIODIC:
        raise NotPeriodic("turning points exist only for periodic orbits")
    th = energy_level(p)
    abar = equilibrium_radius(p)
    g = lambda a: potential(a, p) - th

    def solve_side(outward: float) -> float:
        # outward < 1 searches (0, abar), outward > 1 searches (abar, inf)
        hi = abar
        lo = abar * outward
        for _ in range(_BRACKET_MAX_DOUBLINGS):
            if lo == math.inf:
                raise DomainError(f"the turning-point bracket overflows at {p}")
            if g(lo) > 0:
                break
            hi = lo
            lo *= outward
        else:
            raise NoConvergence(f"turning-point bracket expansion failed at {p}")
        a, b = (lo, hi) if lo < hi else (hi, lo)
        ga = g(a)
        while b - a > _ROOT_ATOL:
            m = 0.5 * (a + b)
            if m == a or m == b:
                break
            gm = g(m)
            if gm == 0.0:
                return m
            if (gm > 0) == (ga > 0):
                a, ga = m, gm
            else:
                b = m
        root = 0.5 * (a + b)
        for _ in range(3):  # Newton polish, kept inside the bracket
            try:
                dv = p.lam / root - p.xi * p.xi / root**3
            except OverflowError:
                raise DomainError(f"the turning point a={root} overflows a^3 at {p}") from None
            except ZeroDivisionError:
                raise DomainError(f"the turning point a={root} underflows a^3 to 0 at {p}") from None
            if dv == 0:
                break
            step = g(root) / dv
            cand = root - step
            if a <= cand <= b:
                root = cand
        return root

    if p.a1 == 0.0:
        # a0 lies exactly on the level set with a'=0
        if p.a0 > abar:
            return TurningPoints(solve_side(0.5), p.a0)
        return TurningPoints(p.a0, solve_side(2.0))
    return TurningPoints(solve_side(0.5), solve_side(2.0))


# tolerance of the half-period quadrature, relative to each panel's value
PERIOD_QUAD_TOL = 1e-12


def period_by_quadrature(p: EmdenParams) -> PeriodEstimate:
    """Orbit period as 2 * integral da / sqrt(2*(theta - V(a))).

    The integrand has inverse-square-root singularities at both turning
    points, handled by `quad_singular` to the relative PERIOD_QUAD_TOL.
    """
    tp = turning_points(p)
    th = energy_level(p)

    def integrand(a: float) -> float:
        ex = th - potential(a, p)
        if ex <= 0.0:
            return 0.0
        return 1.0 / math.sqrt(2.0 * ex)

    val, err = quad_singular(integrand, tp.a_min, tp.a_max, PERIOD_QUAD_TOL)
    return PeriodEstimate(T=2.0 * val, err_est=2.0 * err)


def linearized_period(p: EmdenParams) -> float:
    """Small-oscillation period 2*pi/sqrt(V''(abar)) near the equilibrium."""
    abar = equilibrium_radius(p)
    ddv = -p.lam / abar**2 + 3 * p.xi * p.xi / abar**4
    return 2 * math.pi / math.sqrt(ddv)


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
