"""Dynamics of the scale factor a(t) with a'' = -lam/a^(d-1) + xi^2/a^3.

One law (`ScaleLaw`) serves both families: d = 2 for the rotating isothermal
family (`EmdenParams`), d = N with xi = 0 for Goldreich-Weber (`GWParams`).
With xi = 0 <= lam, a'' <= 0, so a fall cannot turn: a step underflow or
blowup at (t, a, a' < 0) with a <= 1e-9 * max(1, t) * |a'| is the collapse's
touchdown, and any other halt an error (`integrate_scale`).

At d = 2 the motion is one-dimensional in the effective potential
V(a) = lam*ln(a) + xi^2/(2 a^2), so the conserved energy
theta = a1^2/2 + V(a0) classifies every orbit:

* lam > 0, xi != 0: V has a single minimum at abar = |xi|/sqrt(lam); the
  orbit is steady exactly at the minimum and periodic otherwise.
* xi = 0, lam > 0, or xi = 0 = lam with a1 < 0: no centrifugal barrier, a
  reaches zero in finite time (density blowup), at a0/|a1| when lam = 0.
* otherwise (lam <= 0): the solution exists globally and is unbounded, or
  constant at xi = 0 = lam = a1.

The period of a periodic orbit is computed two independent ways: as the
quadrature 2 * integral da / sqrt(2*(theta - V(a))) between the
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

from .errors import DomainError, NotPeriodic, StateBlowup, StepUnderflow, naming, raise_where
from .ode import (
    IntegratorConfig,
    IntegratorStats,
    OdeState,
    Rhs,
    Trajectory,
    detect_events,
    integrate,
    quad_adaptive,
)

# relative width of the band around (abar, 0) treated as the steady state
STEADY_RTOL = 1e-12


class ScaleLaw(NamedTuple):
    """a'' = -lam/a^(d-1) + xi2/a^3 from a(0) = a0, a'(0) = a1."""

    d: int
    lam: float
    xi2: float
    a0: float
    a1: float


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

    @property
    def scale_law(self) -> ScaleLaw:
        """d = 2, xi2 = xi^2."""
        return ScaleLaw(2, self.lam, self.xi * self.xi, self.a0, self.a1)


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


def scale_rhs(p) -> Rhs:
    """Right-hand side of (a, a') under `p.scale_law`, NaN once a <= 0; at d = 2 the
    divisor a^(d-1) is `a` itself, as `a ** 1.0` rounds alike but costs a power per stage."""
    d, lam, xi2, _, _ = p.scale_law
    return Rhs(_SCALE_BODY.format(a_dm1="a" if d == 2 else "a ** dm1"),
               lam=lam, xi2=xi2, dm1=d - 1.0)


_SCALE_BODY = """\
a = y_0
if a <= 0.0:
    f_0 = f_1 = math.nan
else:
    f_0 = y_1
    f_1 = -lam / {a_dm1} + xi2 / (a * a * a)"""


def sundman_rhs(p: EmdenParams) -> Rhs:
    """Right-hand side of (ln a, a', t) in Sundman time tau, dt = a dtau, in which
    the bounce near a_min takes as many steps as the swing out to a_max."""
    _, lam, xi2, _, _ = p.scale_law
    return Rhs(_SUNDMAN_BODY, lam=lam, xi2=xi2)


_SUNDMAN_BODY = """\
f_0 = y_1
f_1 = -lam + xi2 * math.exp(-2.0 * y_0)
f_2 = math.exp(y_0)"""


def potential(a, p: EmdenParams):
    """Effective potential lam*ln(a) + xi^2/(2 a^2), elementwise on an array a of
    any shape; a float gives a float.  An a that is not > 0 (NaN too) raises
    DomainError naming p and the first such a."""
    x = np.asarray(a, dtype=float)
    raise_where(np.logical_not(x > 0), DomainError, f"the potential of {p} requires a > 0", a=x)
    with np.errstate(over="ignore"):  # an infinite a^2 leaves lam*ln(a)
        a2 = 2 * x * x
    if not np.all(a2):  # a nonzero subnormal xi^2 can put a_min where a^2 underflows
        raise DomainError(f"a={x.min()} underflows a^2 to 0 in the potential at {p}")
    v = p.lam * np.log(x) + p.xi * p.xi / a2
    return float(v) if v.ndim == 0 else v


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
    """Orbit trichotomy: steady / periodic (lam>0, xi!=0), blowup (xi=0 and lam>0, or
    xi=0=lam with a1<0, a = a0 + a1*t), global otherwise (lam<=0)."""
    if p.lam > 0 and p.xi != 0:
        return OrbitClass.STEADY if _is_steady(p) else OrbitClass.PERIODIC
    if p.xi == 0 and (p.lam > 0 or (p.lam == 0 and p.a1 < 0)):
        return OrbitClass.FINITE_TIME_BLOWUP
    return OrbitClass.GLOBAL_NON_PERIODIC


def _require_periodic(p: EmdenParams) -> None:
    """Raise NotPeriodic naming p and its class unless its orbit is periodic."""
    cls = classify(p)
    if cls is not OrbitClass.PERIODIC:
        raise NotPeriodic(f"turning points and periods exist only for periodic orbits, "
                          f"not for the {cls.value} orbit of {p!r}")


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
    _require_periodic(p)
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


def period_by_quadrature(p: EmdenParams) -> PeriodEstimate:
    """Orbit period 2 * integral da / sqrt(2*(theta - V(a))), as one midpoint sum
    in an angle psi.

    In u = ln(a/abar) = u_min + s with s = 2w sin^2(psi/2), w = (u_max - u_min)/2,
    du = sqrt(s (2w - s)) dpsi, so
    T = (2 a_max/sqrt(2 lam)) * integral_0^pi e^(u - u_max) / sqrt(R) dpsi,
    R = X_t/(s (2w - s)).  The excess X_t = phi(u_t) - phi(u_t + d) is taken
    from u_t = u_min with d = s for psi <= pi/2 and from u_max with
    d = -(2w - s) past it: -phi(d) - expm1(-2 u_t) expm1(-2d)/2 for |d| <= 1/4,
    else -d - (e^(-2(u_t + d)) - e^(-2 u_t))/2, without cancellation at either
    end.  The integrand is smooth, even and 2 pi-periodic in psi, so
    `quad_adaptive`'s midpoint sum converges geometrically.  err_est is its
    error estimate plus the rounding 4 (1 + max|u_t|) eps T: the
    turning exponents and u - u_max carry absolute errors of order
    eps max|u_t|, which e^(u - u_max) and a_max turn into relative ones.
    An overflowing T raises DomainError.
    """
    tp, u_min, u_max = _turning_exponents(p)
    w = (u_max - u_min) / 2

    def integrand(psi: float) -> float:
        s, rest = 2 * w * math.sin(psi / 2) ** 2, 2 * w * math.cos(psi / 2) ** 2
        u_t, d = (u_min, s) if psi <= math.pi / 2 else (u_max, -rest)
        if abs(d) <= 0.25:
            x = -_phi(d) - math.expm1(-2 * u_t) * math.expm1(-2 * d) / 2
        else:
            x = -d - (math.exp(-2 * (u_t + d)) - math.exp(-2 * u_t)) / 2
        return math.exp(-rest) / math.sqrt(x / (s * rest))  # a_max is applied below

    val, diff = quad_adaptive(integrand, 0.0, math.pi)
    scale = 2 * tp.a_max / math.sqrt(2 * p.lam)
    T = scale * val
    if not math.isfinite(T):
        raise DomainError(f"the period overflows at {p}")
    rounding = 4 * (1 + max(abs(u_min), abs(u_max))) * math.ulp(1.0) * T
    return PeriodEstimate(T=T, err_est=scale * diff + rounding)


_PERIOD_EVENTS_NEEDED = 4  # 3 full cycles


def period_by_simulation(p: EmdenParams, cfg: IntegratorConfig = IntegratorConfig(),
                         run: Trajectory | None = None) -> PeriodEstimate:
    """Orbit period timed from falling a'=0 events of a simulated trajectory.

    The events are searched first on `run`, a trajectory of this orbit from
    t = 0 (else DomainError).  With fewer than four, or no `run`, the orbit
    is integrated on at cfg from the last node to the missing falls, however
    long that takes, in Sundman time from (ln a, a', t) at tau = 0, where the
    step of an orbit 1e25 wide would underflow in t (see `sundman_rhs`); the
    falls' times t are read off its dense output.  cfg.max_steps bounds it;
    a halt (time tau, (ln a, a', t) trajectory) or a start that cannot run
    names p (`naming`).  The period is the mean of the three gaps between the
    first four maxima of a(t), err_est their largest deviation from it, and
    stats the counters of the integration it added.
    """
    _require_periodic(p)
    y0 = (p.a0, p.a1)
    if run is None:  # the start node alone; a lone node's derivative is never read
        run = Trajectory([0.0], [y0], [y0])
    elif not (run.t_start == 0.0 and np.array_equal(run.ys[0], y0)):
        raise DomainError(f"the run must start at t = 0 from (a0, a1) of {p}")
    events = detect_events(run, 1)[:_PERIOD_EVENTS_NEEDED]
    stats = IntegratorStats()
    if len(events) < _PERIOD_EVENTS_NEEDED:
        (a, v), t = run.y_end, run.t_end
        with naming(f"(Sundman time) in the period of {p}"):
            more = integrate(sundman_rhs(p), OdeState(0.0, (math.log(a), v, t)), math.inf, cfg,
                             falls=(1, _PERIOD_EVENTS_NEEDED - len(events)))
        found = more.evaluate(detect_events(more, 1))[:, 2]  # the falls' times t
        events, stats = np.concatenate([events, found]), more.stats

    gaps = np.diff(events[:_PERIOD_EVENTS_NEEDED])
    T = float(np.mean(gaps))
    return PeriodEstimate(T=T, err_est=float(np.max(np.abs(gaps - T))), stats=stats)


def integrate_scale(p, t_end: float, cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Trajectory of (a, a') under `p.scale_law` on [0, t_end], or up to its touchdown.

    Past a = 0 the rhs is NaN, so the step size collapses at the touchdown.
    With xi2 = 0 <= lam, a StepUnderflow or StateBlowup halt whose last node
    (t_k, a_k, a'_k) has a'_k < 0 and a_k <= 1e-9 * max(1, t_k) * |a'_k| is
    that touchdown, within a_k/|a'_k| of t_k: the halt's trajectory is returned,
    so a run ends before t_end exactly when it touched down.  Any other halt,
    and a run that cannot start (DomainError), is re-raised naming p (`naming`).
    """
    law = p.scale_law
    with naming(f"in the scale factor of {p}"):
        try:
            return integrate(scale_rhs(p), OdeState(0.0, (law.a0, law.a1)), t_end, cfg)
        except (StepUnderflow, StateBlowup) as halt:
            a, v = halt.trajectory.y_end
            if law.xi2 == 0 <= law.lam and v < 0 and a <= 1e-9 * max(1.0, halt.t) * -v:
                return halt.trajectory
            raise
