"""Adaptive ODE integration and quadrature primitives.

An explicit Dormand-Prince 5(4) pair drives all time integration in the
package.  Every system here has one or two components, so the step loop runs
on Python floats: a right-hand side takes `(t, y)` with y a tuple of floats
and returns a sequence of floats of the same length.  Accepted steps store
the state and derivative at both ends, so the trajectory supports continuous
cubic-Hermite dense output, post-hoc event location, and exact (bitwise)
reproduction of node states.  Dense output comes one time at a time
(`Trajectory.state_at`) or for a whole array of times at once
(`Trajectory.evaluate`); both use the same Hermite kernel.  Event location
evaluates the event function once on a subsample grid of every segment, so
an event function takes `(t, y)` with t of shape (S,) and y of shape (n, S)
(`y[k]` selects component k) as well as scalar t with a 1-D y.  Each
trajectory carries the integrator's work counters in `Trajectory.stats`.

Quadrature comes in two flavours: a plain adaptive Gauss-Kronrod 7/15 rule
for smooth integrands, and `quad_singular`, which first applies the
substitution x = lo + (hi-lo)*sin^2(theta).  The substitution removes
inverse-square-root endpoint singularities exactly, which is the worst
behaviour any integrand in this package exhibits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    NoConvergence,
    StateBlowup,
    StepBudgetExceeded,
    StepUnderflow,
)

RhsFn = Callable[[float, tuple[float, ...]], Sequence[float]]
EventFn = Callable[[float | np.ndarray, np.ndarray], float | np.ndarray]

# Fixed guards for abnormal termination.  Blowup is detected, never
# integrated through; persistent step rejection near a singularity ends in
# StepUnderflow instead of an infinite loop.
OVERFLOW_GUARD = 1e300
STEP_UNDERFLOW_REL = 1e-14

# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the derivative at the
# accepted point).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# 5th-order weights equal the last A row (FSAL); error weights are the
# difference against the embedded 4th-order solution.
_E = (
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)


@dataclass(frozen=True)
class OdeState:
    """A time point and the state vector attached to it."""

    t: float
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if not math.isfinite(self.t) or not np.all(np.isfinite(y)):
            raise DomainError("OdeState requires finite t and y")


@dataclass(frozen=True)
class IntegratorConfig:
    """Error tolerances and step limits for `integrate`."""

    rtol: float = 1e-10
    atol: float = 1e-12
    h_init: float = 1e-3
    h_max: float = math.inf
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not self.rtol > 0:
            raise DomainError("rtol must be > 0")
        if not self.atol >= 0:
            raise DomainError("atol must be >= 0")
        if not self.h_init > 0:
            raise DomainError("h_init must be > 0")
        if not self.h_max >= self.h_init:
            raise DomainError("h_max must be >= h_init")
        if not self.max_steps > 0:
            raise DomainError("max_steps must be > 0")


class IntegratorStats(NamedTuple):
    """Work counters of an integration: accepted and rejected steps, rhs calls."""

    accepted: int = 0
    rejected: int = 0
    rhs_calls: int = 0

    def __add__(self, other: "IntegratorStats") -> "IntegratorStats":
        return IntegratorStats(*map(sum, zip(self, other)))


@dataclass(frozen=True)
class EventSpec:
    """A scalar crossing condition evaluated along a trajectory.

    event_fn(t, y) is called on whole sample grids, with t of shape (S,) and
    y of shape (n, S), and on single points, with scalar t and y of shape
    (n,); `y[k]` is component k either way.  A scalar return means the same
    value at every sample.

    direction: 'rising' detects sign changes - to +, 'falling' + to -,
    'any' both.
    """

    event_fn: EventFn
    direction: str = "any"
    refine_tol: float = 1e-12

    def __post_init__(self):
        if self.direction not in ("rising", "falling", "any"):
            raise DomainError("direction must be rising, falling, or any")
        if not self.refine_tol > 0:
            raise DomainError("refine_tol must be > 0")


class Trajectory:
    """Accepted integration nodes plus cubic-Hermite dense output.

    Nodes are strictly increasing in t.  Evaluation at a node time returns
    the stored state bitwise; inside a segment the cubic Hermite through the
    segment's end states and derivatives is used, which keeps the dense
    output continuous with continuous first derivative.
    """

    __slots__ = ("ts", "ys", "fs", "stats")

    def __init__(self, ts: np.ndarray, ys: np.ndarray, fs: np.ndarray,
                 stats: IntegratorStats = IntegratorStats()):
        self.ts = np.asarray(ts, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.fs = np.asarray(fs, dtype=float)
        self.stats = stats
        if self.ts.ndim != 1 or len(self.ts) < 1:
            raise DomainError("trajectory needs at least one node")
        if np.any(np.diff(self.ts) <= 0):
            raise DomainError("trajectory nodes must strictly increase")

    @property
    def t_start(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def y_end(self) -> np.ndarray:
        return self.ys[-1]

    @property
    def n_nodes(self) -> int:
        return len(self.ts)

    def _segment_index(self, t: float) -> int:
        if not (self.ts[0] <= t <= self.ts[-1]):  # NaN fails too
            raise DomainError(
                f"t={t} outside trajectory range [{self.ts[0]}, {self.ts[-1]}]"
            )
        i = int(np.searchsorted(self.ts, t, side="right")) - 1
        return min(max(i, 0), len(self.ts) - 2) if len(self.ts) > 1 else 0

    def state_at(self, t: float) -> np.ndarray:
        """Dense state at time t (bitwise equal to node states at nodes)."""
        i = self._segment_index(t)
        if t == self.ts[i]:
            return self.ys[i].copy()
        if t == self.ts[i + 1]:
            return self.ys[i + 1].copy()
        ts, ys, fs = self.ts, self.ys, self.fs
        return _hermite(t, ts[i], ts[i + 1], ys[i], ys[i + 1], fs[i], fs[i + 1])

    def evaluate(self, ts) -> np.ndarray:
        """Dense states at the times `ts` (any shape), shape ts.shape + (n,).

        One searchsorted and one Hermite evaluation for all times; every
        value equals `state_at` bitwise, so node times give the stored node
        states.  Raises DomainError when a time is outside [t_start, t_end].
        """
        t = np.asarray(ts, dtype=float)
        nodes = self.ts
        if not np.all((t >= nodes[0]) & (t <= nodes[-1])):
            raise DomainError(
                f"times outside trajectory range [{nodes[0]}, {nodes[-1]}]"
            )
        if len(nodes) == 1:
            return np.broadcast_to(self.ys[0], t.shape + self.ys.shape[1:]).copy()
        i = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, len(nodes) - 2)
        t0, t1 = nodes[i], nodes[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        out = _hermite(t[..., None], t0[..., None], t1[..., None],
                       y0, y1, self.fs[i], self.fs[i + 1])
        at0, at1 = t == t0, t == t1
        out[at0] = y0[at0]
        out[at1] = y1[at1]
        return out

    def derivative_at(self, t: float) -> np.ndarray:
        """Derivative of the dense interpolant at time t."""
        i = self._segment_index(t)
        if t == self.ts[i]:
            return self.fs[i].copy()
        if t == self.ts[i + 1]:
            return self.fs[i + 1].copy()
        ts, ys, fs = self.ts, self.ys, self.fs
        return _hermite_deriv(t, ts[i], ts[i + 1], ys[i], ys[i + 1], fs[i], fs[i + 1])

    def __call__(self, t: float) -> np.ndarray:
        return self.state_at(t)

    def truncated(self, t_cut: float) -> "Trajectory":
        """Trajectory restricted to [t_start, t_cut], ending exactly at t_cut."""
        if t_cut >= self.t_end:
            return self
        if t_cut <= self.t_start:
            raise DomainError("t_cut must exceed t_start")
        keep = self.ts <= t_cut
        n = int(np.sum(keep))
        if self.ts[n - 1] == t_cut:
            return Trajectory(self.ts[:n], self.ys[:n], self.fs[:n], self.stats)
        ts = np.append(self.ts[:n], t_cut)
        ys = np.vstack([self.ys[:n], self.state_at(t_cut)])
        fs = np.vstack([self.fs[:n], self.derivative_at(t_cut)])
        return Trajectory(ts, ys, fs, self.stats)


def _hermite(t, t0, t1, y0, y1, f0, f1):
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    return (
        (2 * s3 - 3 * s2 + 1) * y0
        + (s3 - 2 * s2 + s) * h * f0
        + (-2 * s3 + 3 * s2) * y1
        + (s3 - s2) * h * f1
    )


def _hermite_deriv(t, t0, t1, y0, y1, f0, f1):
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    return (
        (6 * s2 - 6 * s) / h * y0
        + (3 * s2 - 4 * s + 1) * f0
        + (-6 * s2 + 6 * s) / h * y1
        + (3 * s2 - 2 * s) * f1
    )


def concat_trajectories(parts: Sequence[Trajectory]) -> Trajectory:
    """Join contiguous trajectories (each starting where the previous ends).

    The joined trajectory's stats are the sums of the parts' stats.
    """
    if not parts:
        raise DomainError("no trajectories to concatenate")
    ts = [parts[0].ts]
    ys = [parts[0].ys]
    fs = [parts[0].fs]
    for prev, nxt in zip(parts, parts[1:]):
        if nxt.t_start != prev.t_end:
            raise DomainError("trajectories are not contiguous")
        ts.append(nxt.ts[1:])
        ys.append(nxt.ys[1:])
        fs.append(nxt.fs[1:])
    stats = sum((p.stats for p in parts), IntegratorStats())
    return Trajectory(np.concatenate(ts), np.vstack(ys), np.vstack(fs), stats)


def integrate(
    rhs: RhsFn, y0: OdeState, t_end: float, config: IntegratorConfig | None = None
) -> Trajectory:
    """Integrate y' = rhs(t, y) from y0.t to t_end with adaptive steps.

    `rhs` receives the state as a tuple of floats and returns a new sequence
    of the same length (node derivatives keep it).  Local error is controlled against atol + rtol*|y| by
    the embedded 4th order solution.  A step is rejected when a stage is not
    finite or raises ArithmeticError (ZeroDivisionError, OverflowError), so
    integrands may signal domain exits (for example a scale factor touching
    zero) by returning NaN; the run then terminates with StepUnderflow at the
    singular time.

    Raises:
        StepBudgetExceeded: config.max_steps attempted steps reached.
        StateBlowup: a component passed the 1e300 overflow guard.
        StepUnderflow: the step fell below 1e-14 * max(1, |t|).
    """
    cfg = config or IntegratorConfig()
    t = float(y0.t)
    if not t_end > t:
        raise DomainError("t_end must exceed the initial time")
    y = tuple(y0.y.tolist())
    accepted = rejected = rhs_calls = 0
    isfinite = math.isfinite

    def stage(tc: float, yc: tuple[float, ...]) -> Sequence[float]:
        # FloatingPointError marks a non-finite stage, like the
        # ArithmeticError the rhs may raise itself
        nonlocal rhs_calls
        rhs_calls += 1
        k = rhs(tc, yc)
        if not all(map(isfinite, k)):
            raise FloatingPointError
        return k

    def make_traj() -> Trajectory:
        stats = IntegratorStats(accepted, rejected, rhs_calls)
        return Trajectory(np.array(ts), np.array(ys), np.array(fs), stats)

    try:
        k1 = stage(t, y)
    except ArithmeticError:
        raise DomainError("rhs is not finite at the initial state") from None
    n = len(y)
    if not 0 < len(k1) == n:
        raise DomainError(f"rhs returned {len(k1)} components for a {n}-state")
    ts, ys, fs = [t], [y], [k1]

    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54) = _A[1:5]
    (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76) = _A[5:]
    _, c2, c3, c4, c5, _, _ = _C
    e1, _, e3, e4, e5, e6, e7 = _E
    atol, rtol, h_max, max_steps = cfg.atol, cfg.rtol, cfg.h_max, cfg.max_steps
    h = min(cfg.h_init, h_max, t_end - t)
    while t < t_end:
        if h < STEP_UNDERFLOW_REL * max(1.0, abs(t)):
            raise StepUnderflow(f"step size {h:.3e} underflowed at t={t!r}", t, make_traj())
        if accepted + rejected >= max_steps:
            raise StepBudgetExceeded(f"exceeded {max_steps} steps at t={t!r}", t, make_traj())
        hits_end = h >= t_end - t
        hs = t_end - t if hits_end else h

        try:
            k2 = stage(t + c2 * hs, tuple([a + hs * (a21 * b1) for a, b1 in zip(y, k1)]))
            k3 = stage(t + c3 * hs, tuple([
                a + hs * (a31 * b1 + a32 * b2) for a, b1, b2 in zip(y, k1, k2)]))
            k4 = stage(t + c4 * hs, tuple([
                a + hs * (a41 * b1 + a42 * b2 + a43 * b3)
                for a, b1, b2, b3 in zip(y, k1, k2, k3)]))
            k5 = stage(t + c5 * hs, tuple([
                a + hs * (a51 * b1 + a52 * b2 + a53 * b3 + a54 * b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]))
            k6 = stage(t + hs, tuple([
                a + hs * (a61 * b1 + a62 * b2 + a63 * b3 + a64 * b4 + a65 * b5)
                for a, b1, b2, b3, b4, b5 in zip(y, k1, k2, k3, k4, k5)]))
            # the stage-7 input is the 5th-order solution (FSAL)
            y_new = tuple([
                a + hs * (a71 * b1 + a73 * b3 + a74 * b4 + a75 * b5 + a76 * b6)
                for a, b1, b3, b4, b5, b6 in zip(y, k1, k3, k4, k5, k6)])
            k7 = stage(t + hs, y_new)
            sq = 0.0
            for a, b, b1, b3, b4, b5, b6, b7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
                a, b = abs(a), abs(b)
                # not max(): a NaN in the new state must reach the norm
                q = hs * (e1 * b1 + e3 * b3 + e4 * b4 + e5 * b5 + e6 * b6 + e7 * b7) / (
                    atol + rtol * (a if a > b else b))
                sq += q * q
            err = math.sqrt(sq / n)
            if not isfinite(err):
                raise FloatingPointError
        except ArithmeticError:
            rejected += 1
            h = 0.1 * hs
            continue
        if err > 1.0:
            rejected += 1
            h = hs * max(0.2, 0.9 * err ** -0.2)
            continue

        accepted += 1
        t = t_end if hits_end else t + hs
        y, k1 = y_new, k7  # the end derivative is the next step's stage 1
        ts.append(t)
        ys.append(y)
        fs.append(k7)
        if max(map(abs, y)) > OVERFLOW_GUARD:
            raise StateBlowup(f"state exceeded {OVERFLOW_GUARD:.0e} at t={t!r}", t, make_traj())
        grow = 0.9 * err ** -0.2 if err > 0 else 5.0
        h = min(h_max, hs * min(5.0, max(0.2, grow)))
    return make_traj()


# ----------------------------------------------------------------------
# Event location
# ----------------------------------------------------------------------

_EVENT_SUBSAMPLES = 8


def detect_events(traj: Trajectory, spec: EventSpec) -> list[float]:
    """Times where the event function crosses zero along the trajectory.

    Every segment of the dense output is subsampled at the same time: the
    event function is called once on the whole (segments x subsamples) grid,
    with t of shape (S,) and y of shape (n, S).  Sign changes are bracketed,
    and only the bracketed pairs are refined, with scalar calls, by a
    bisection/secant hybrid to spec.refine_tol.  Results are sorted and
    deduplicated, so repeated calls on the same trajectory return identical
    times.
    """
    g = lambda t: float(spec.event_fn(t, traj.state_at(t)))
    times: list[float] = []
    if traj.n_nodes > 1:
        grid = np.linspace(traj.ts[:-1], traj.ts[1:], _EVENT_SUBSAMPLES, axis=1)
        flat = grid.ravel()
        vals = np.asarray(spec.event_fn(flat, traj.evaluate(flat).T), dtype=float)
        vals = np.broadcast_to(vals, flat.shape).reshape(grid.shape)
        lo, hi = vals[:, :-1], vals[:, 1:]
        hits = (lo == 0) | (lo * hi < 0)
        brackets = zip(grid[:, :-1][hits].tolist(), lo[hits].tolist(),
                       grid[:, 1:][hits].tolist(), hi[hits].tolist())
        for ta, ga, tb, gb in brackets:
            if ga == 0.0:
                dirn = "falling" if gb < 0 else "rising" if gb > 0 else None
                if dirn is not None and spec.direction in ("any", dirn):
                    times.append(ta)
            else:
                dirn = "falling" if ga > 0 else "rising"
                if spec.direction in ("any", dirn):
                    times.append(_refine_crossing(g, ta, ga, tb, gb, spec.refine_tol))
    # trailing endpoint zero (interior node zeros are the 'ga == 0' case)
    tl = traj.ts[-1]
    if traj.n_nodes > 1 and g(tl) == 0.0:
        gprev = g(tl - min(spec.refine_tol, (tl - traj.ts[0]) * 1e-6))
        dirn = "falling" if gprev > 0 else "rising" if gprev < 0 else None
        if dirn is not None and spec.direction in ("any", dirn):
            times.append(float(tl))

    times.sort()
    span = traj.t_end - traj.t_start
    merged: list[float] = []
    for t in times:
        if not merged or t - merged[-1] > max(10 * spec.refine_tol, 1e-14 * span):
            merged.append(t)
    return merged


def _refine_crossing(g, ta, ga, tb, gb, tol, max_iter=200):
    """Bracketed root of g on [ta, tb]: secant proposal, bisection fallback."""
    for _ in range(max_iter):
        if tb - ta <= tol:
            break
        tm = tb - gb * (tb - ta) / (gb - ga)
        margin = 0.1 * (tb - ta)
        if not (ta + margin <= tm <= tb - margin):
            tm = 0.5 * (ta + tb)
        gm = g(tm)
        if gm == 0.0:
            return float(tm)
        if (ga > 0) == (gm > 0):
            ta, ga = tm, gm
        else:
            tb, gb = tm, gm
    return float(0.5 * (ta + tb))


# ----------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (QUADPACK constants).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """15-point Kronrod estimate on [a, b] and its error estimate."""
    c = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(c)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for j in range(7):
        x = half * _XGK[j]
        fsum = f(c - x) + f(c + x)
        kron += _WGK[j] * fsum
        if j % 2 == 1:
            gauss += _WG[j // 2] * fsum
    kron *= half
    gauss *= half
    err = abs(kron - gauss)
    # standard QUADPACK error sharpening
    if err > 0:
        err = err * min(1.0, (200.0 * err / max(abs(kron), 1e-300)) ** 1.5) + abs(kron) * 1e-16
    return kron, err


_MAX_PANELS = 4096


def quad_adaptive(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod integral of a smooth f over [lo, hi].

    Returns (value, error estimate).  Deterministic: panels are processed in
    a fixed order.  Raises NoConvergence when the panel budget is exhausted.
    """
    if hi == lo:
        return 0.0, 0.0
    if hi < lo:
        raise DomainError("quad_adaptive requires hi >= lo")
    total = hi - lo
    stack = [(lo, hi)]
    value = 0.0
    err_acc = 0.0
    panels = 0
    while stack:
        a, b = stack.pop()
        panels += 1
        if panels > _MAX_PANELS:
            raise NoConvergence(
                f"quadrature budget exhausted ({_MAX_PANELS} panels) before tol={tol}"
            )
        val, err = _gk15(f, a, b)
        if err <= tol * (b - a) / total or (b - a) < 1e-14 * total:
            value += val
            err_acc += err
        else:
            m = 0.5 * (a + b)
            stack.append((m, b))
            stack.append((a, m))
    return value, err_acc


def quad_singular_estimate(
    g, lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Like `quad_singular` but also returns the accumulated error estimate."""
    if hi == lo:
        return 0.0, 0.0
    if hi < lo:
        raise DomainError("quad_singular requires hi >= lo")
    span = hi - lo

    def transformed(theta: float) -> float:
        sin_t = math.sin(theta)
        x = lo + span * sin_t * sin_t
        # endpoints are never hit (Kronrod nodes are interior) but guard anyway
        if x <= lo:
            x = lo + span * 1e-300
        elif x >= hi:
            x = hi - span * 1e-300
        return g(x) * span * math.sin(2 * theta)

    return quad_adaptive(transformed, 0.0, 0.5 * math.pi, tol)


def quad_singular(g, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Integral of g over (lo, hi) allowing |x-endpoint|^(-1/2) singularities.

    The substitution x = lo + (hi-lo)*sin^2(theta) turns an inverse square
    root endpoint singularity into a smooth integrand, which an adaptive
    Gauss-Kronrod rule then resolves to the requested tolerance.
    """
    return quad_singular_estimate(g, lo, hi, tol)[0]
