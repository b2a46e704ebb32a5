"""Adaptive ODE integration and quadrature primitives.

An explicit Dormand-Prince 8(5,3) pair, DOP853 (Hairer, Norsett & Wanner I,
section II.5), drives all time integration in the package.  Every system
here has one or two components, so the step loop runs on Python floats: a
right-hand side takes `(t, y)` with y a tuple of floats and returns a
sequence of floats of the same length.  A step costs 11 rhs calls before
its error check; an accepted one adds the derivative at the new point
(FSAL) and three stages for the stepper's own 7th-order continuous
extension (section II.6), so a run makes 1 + 11*attempts + 4*accepted rhs
calls.  The first step is Hairer's first estimate (section II.4), 0.01 *
|y0| / |k1| with both norms in the error norm's scale atol + rtol*|y0|, or
1e-6 when either norm is below 1e-5; it costs no rhs call and stops at
t_end.  Accepted steps store the state and derivative at both ends plus
four continuation rows, so the trajectory supports dense output, post-hoc
event location, and exact (bitwise) reproduction of node states.  Dense
output is one kernel, `Trajectory.evaluate`, for an array of times at once;
`Trajectory.state_at` is the same call on a single time.  Event location,
`detect_events(traj, k)`, finds the falling zeros of component k on the
dense output: it brackets them on an 8-point subsample grid of every
segment, with y[k] > 0 at one sample and y[k] <= 0 at the next, and
refines all brackets together to a width of 1e-12 * max(1, |t|).  Each
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
    raise_where,
)

RhsFn = Callable[[float, tuple[float, ...]], Sequence[float]]

# Fixed guards for abnormal termination.  Blowup is detected, never
# integrated through; persistent step rejection near a singularity ends in
# StepUnderflow instead of an infinite loop.
OVERFLOW_GUARD = 1e300
STEP_UNDERFLOW_REL = 1e-14

# DOP853 (Hairer, Norsett & Wanner I, section II.5; the coefficients of
# Hairer's dop853.f, as shortest round-trip floats).  Stages 1-12 make a
# step, stage 13 is the derivative at the new point (FSAL) and stages 14-16
# serve only the dense output.  Row i of _A weights stages 1..i-1 in the
# input of stage i; row 13 holds the 8th-order weights, since the FSAL stage
# is evaluated at the new state.
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
# Error weights on stages 1-12: the 5th-order estimate, and the 3rd-order
# one, which is the 8th-order weights less Hairer's bhh1..3.
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
       -0.022355307863886294)
_E3 = tuple(b - bhh for b, bhh in zip(_A[12], (
    0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7338466882816118, 0.0, 0.0,
    0.022058823529411766)))
# Continuous extension (dop853's CONTD8): the dense output of a step is its
# cubic Hermite plus w^2 (r0 + s (r1 + (1-s) (r2 + s r3))), w = s (1-s),
# with the rows r_j = h * sum(_D[j][i] k_i) over all 16 stages.
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)
# stages 2-5 carry no dense-output weight; `integrate` keeps only the others
_DENSE_STAGES = (0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
_D_KEPT = np.array(_D)[:, _DENSE_STAGES]


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
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not self.rtol > 0:
            raise DomainError("rtol must be > 0")
        if not self.atol >= 0:
            raise DomainError("atol must be >= 0")
        if not self.max_steps > 0:
            raise DomainError("max_steps must be > 0")


# the tight tolerances of the period, profile and rotational scale-factor solves
TIGHT_CONFIG = IntegratorConfig(rtol=1e-12, atol=1e-14)


class IntegratorStats(NamedTuple):
    """Work counters of an integration: accepted and rejected steps, rhs calls."""

    accepted: int = 0
    rejected: int = 0
    rhs_calls: int = 0

    def __add__(self, other: "IntegratorStats") -> "IntegratorStats":
        return IntegratorStats(*map(sum, zip(self, other)))


class Trajectory:
    """Accepted integration nodes plus the DOP853 dense output.

    Nodes are strictly increasing in t.  Evaluation at a node time returns
    the stored state bitwise; inside segment i the dense output is the
    cubic Hermite through the segment's end states and derivatives plus
    w^2 (r0 + s (r1 + (1-s) (r2 + s r3))) with w = s (1-s), s the fraction
    of the segment and r0..r3 = cont[i, :, 0..3].  That keeps it continuous
    with continuous first derivative.  `cont` holds four continuation rows
    per segment, shape (segments, n, 4), and defaults to zeros, the plain
    cubic Hermite.
    """

    __slots__ = ("ts", "ys", "fs", "cont", "stats")

    def __init__(self, ts: np.ndarray, ys: np.ndarray, fs: np.ndarray,
                 cont: np.ndarray | None = None, stats: IntegratorStats = IntegratorStats()):
        self.ts = np.asarray(ts, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.fs = np.asarray(fs, dtype=float)
        self.stats = stats
        if self.ts.ndim != 1 or len(self.ts) < 1:
            raise DomainError("trajectory needs at least one node")
        if np.any(np.diff(self.ts) <= 0):
            raise DomainError("trajectory nodes must strictly increase")
        shape = (len(self.ts) - 1,) + self.ys.shape[1:] + (4,)
        self.cont = np.zeros(shape) if cont is None else np.asarray(cont, dtype=float)
        if self.cont.shape != shape:
            raise DomainError(f"cont has shape {self.cont.shape}, expected {shape}")

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

    def state_at(self, t: float) -> np.ndarray:
        """Dense state at the single time t: `evaluate` on a scalar."""
        return self.evaluate(t)

    def evaluate(self, ts) -> np.ndarray:
        """Dense states at the times `ts` (any shape), shape ts.shape + (n,).

        One searchsorted and one kernel evaluation for all times; node times
        give the stored node states bitwise.  Raises DomainError when a time
        is outside [t_start, t_end] or NaN, naming the first such time.
        """
        t = np.asarray(ts, dtype=float)
        nodes = self.ts
        raise_where(~((t >= nodes[0]) & (t <= nodes[-1])), DomainError,
                    f"times outside trajectory range [{nodes[0]}, {nodes[-1]}]", t=t)
        if len(nodes) == 1:
            return np.broadcast_to(self.ys[0], t.shape + self.ys.shape[1:]).copy()
        i = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, len(nodes) - 2)
        t0, t1 = nodes[i], nodes[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        out = _dense(t[..., None], t0[..., None], t1[..., None],
                     y0, y1, self.fs[i], self.fs[i + 1], self.cont[i])
        at0, at1 = t == t0, t == t1
        out[at0] = y0[at0]
        out[at1] = y1[at1]
        return out


def _dense(t, t0, t1, y0, y1, f0, f1, cont):
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    w = s * (1 - s)
    r0, r1, r2, r3 = cont[..., 0], cont[..., 1], cont[..., 2], cont[..., 3]
    return (
        (2 * s3 - 3 * s2 + 1) * y0
        + (s3 - 2 * s2 + s) * h * f0
        + (-2 * s3 + 3 * s2) * y1
        + (s3 - s2) * h * f1
        + w * w * (r0 + s * (r1 + (1 - s) * (r2 + s * r3)))
    )


def _first_step(y: Sequence[float], k1: Sequence[float], span: float, cfg: IntegratorConfig):
    """Hairer's first estimate 0.01 * |y| / |k1| in the scale atol + rtol*|y|, where a
    component of scale 0 counts in neither norm; 1e-6 when either norm is below 1e-5 or
    the quotient is no positive number (an overflowed norm); at most `span`."""
    sc = [cfg.atol + cfg.rtol * abs(u) for u in y]
    d0 = math.hypot(*[u / s for u, s in zip(y, sc) if s])
    d1 = math.hypot(*[p / s for p, s in zip(k1, sc) if s])
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 0.0
    return min(h if h > 0.0 else 1e-6, span)


def integrate(
    rhs: RhsFn, y0: OdeState, t_end: float, config: IntegratorConfig = IntegratorConfig()
) -> Trajectory:
    """Integrate y' = rhs(t, y) from y0.t to t_end with adaptive DOP853 steps.

    `rhs` receives the state as a tuple of floats and returns a new sequence
    of the same length (node derivatives keep it).  Local error is
    controlled against atol + rtol*|y| by Hairer's combined 5th/3rd-order
    estimate, before the FSAL stage, so a rejected attempt costs 11 rhs
    calls and an accepted one 15 (11, the FSAL stage and three dense-output
    stages); a run makes 1 + 11*attempts + 4*accepted calls.  A step is
    rejected when a stage is not finite or raises ArithmeticError
    (ZeroDivisionError, OverflowError), so integrands may signal domain
    exits (for example a scale factor touching zero) by returning NaN; the
    run then terminates with StepUnderflow at the singular time.

    Raises:
        StepBudgetExceeded: config.max_steps attempted steps reached.
        StateBlowup: a component passed the 1e300 overflow guard.
        StepUnderflow: the step fell below 1e-14 * max(1, |t|).
    """
    t = float(y0.t)
    if not t_end > t:
        raise DomainError("t_end must exceed the initial time")
    y = tuple(y0.y.tolist())
    accepted = rejected = rhs_calls = 0
    isfinite, sqrt = math.isfinite, math.sqrt

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
        # the continuation rows h * D k of every accepted step, in one product
        ks = np.array(dense_ks, dtype=float).reshape(-1, len(_DENSE_STAGES), n)
        cont = np.array(hs_acc)[:, None, None] * np.einsum("sjn,rj->snr", ks, _D_KEPT)
        stats = IntegratorStats(accepted, rejected, rhs_calls)
        return Trajectory(np.array(ts), np.array(ys), np.array(fs), cont, stats)

    try:
        k1 = stage(t, y)
    except ArithmeticError:
        raise DomainError("rhs is not finite at the initial state") from None
    n = len(y)
    if not 0 < len(k1) == n:
        raise DomainError(f"rhs returned {len(k1)} components for a {n}-state")
    # per accepted step: its size and the flat stage values the dense output weights
    ts, ys, fs, hs_acc, dense_ks = [t], [y], [k1], [], []

    c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _C[1:11]
    c14, c15, c16 = _C[13:]
    (a21,), (a31, a32), (a41, _, a43), (a51, _, a53, a54) = _A[1:5]
    (a61, _, _, a64, a65), (a71, _, _, a74, a75, a76) = _A[5:7]
    a81, _, _, a84, a85, a86, a87 = _A[7]
    a91, _, _, a94, a95, a96, a97, a98 = _A[8]
    a101, _, _, a104, a105, a106, a107, a108, a109 = _A[9]
    a111, _, _, a114, a115, a116, a117, a118, a119, a1110 = _A[10]
    a121, _, _, a124, a125, a126, a127, a128, a129, a1210, a1211 = _A[11]
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = _A[12]
    a141, _, _, _, _, _, a147, a148, a149, a1410, a1411, a1412, a1413 = _A[13]
    a151, _, _, _, _, a156, a157, a158, _, _, a1511, a1512, a1513, a1514 = _A[14]
    a161, _, _, _, _, a166, a167, a168, a169, _, _, _, a1613, a1614, a1615 = _A[15]
    er1, _, _, _, _, er6, er7, er8, er9, er10, er11, er12 = _E5
    eh1, _, _, _, _, eh6, eh7, eh8, eh9, eh10, eh11, eh12 = _E3
    atol, rtol, max_steps = config.atol, config.rtol, config.max_steps
    h = _first_step(y, k1, t_end - t, config)
    while t < t_end:
        if h < STEP_UNDERFLOW_REL * max(1.0, abs(t)):
            raise StepUnderflow(f"step size {h:.3e} underflowed at t={t!r}", t, make_traj())
        if accepted + rejected >= max_steps:
            raise StepBudgetExceeded(f"exceeded {max_steps} steps at t={t!r}", t, make_traj())
        hits_end = h >= t_end - t
        hs = t_end - t if hits_end else h

        try:
            k2 = stage(t + c2 * hs, tuple([u + hs * (a21 * p1) for u, p1 in zip(y, k1)]))
            k3 = stage(t + c3 * hs, tuple([
                u + hs * (a31 * p1 + a32 * p2) for u, p1, p2 in zip(y, k1, k2)]))
            k4 = stage(t + c4 * hs, tuple([
                u + hs * (a41 * p1 + a43 * p3) for u, p1, p3 in zip(y, k1, k3)]))
            k5 = stage(t + c5 * hs, tuple([
                u + hs * (a51 * p1 + a53 * p3 + a54 * p4) for u, p1, p3, p4 in zip(y, k1, k3, k4)]))
            k6 = stage(t + c6 * hs, tuple([
                u + hs * (a61 * p1 + a64 * p4 + a65 * p5) for u, p1, p4, p5 in zip(y, k1, k4, k5)]))
            k7 = stage(t + c7 * hs, tuple([
                u + hs * (a71 * p1 + a74 * p4 + a75 * p5 + a76 * p6)
                for u, p1, p4, p5, p6 in zip(y, k1, k4, k5, k6)]))
            k8 = stage(t + c8 * hs, tuple([
                u + hs * (a81 * p1 + a84 * p4 + a85 * p5 + a86 * p6 + a87 * p7)
                for u, p1, p4, p5, p6, p7 in zip(y, k1, k4, k5, k6, k7)]))
            k9 = stage(t + c9 * hs, tuple([
                u + hs * (a91 * p1 + a94 * p4 + a95 * p5 + a96 * p6 + a97 * p7 + a98 * p8)
                for u, p1, p4, p5, p6, p7, p8 in zip(y, k1, k4, k5, k6, k7, k8)]))
            k10 = stage(t + c10 * hs, tuple([
                u + hs * (a101 * p1 + a104 * p4 + a105 * p5 + a106 * p6 + a107 * p7
                          + a108 * p8 + a109 * p9)
                for u, p1, p4, p5, p6, p7, p8, p9 in zip(y, k1, k4, k5, k6, k7, k8, k9)]))
            k11 = stage(t + c11 * hs, tuple([
                u + hs * (a111 * p1 + a114 * p4 + a115 * p5 + a116 * p6 + a117 * p7
                          + a118 * p8 + a119 * p9 + a1110 * p10)
                for u, p1, p4, p5, p6, p7, p8, p9, p10
                in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)]))
            k12 = stage(t + hs, tuple([
                u + hs * (a121 * p1 + a124 * p4 + a125 * p5 + a126 * p6 + a127 * p7
                          + a128 * p8 + a129 * p9 + a1210 * p10 + a1211 * p11)
                for u, p1, p4, p5, p6, p7, p8, p9, p10, p11
                in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)]))
            y_new = tuple([
                u + hs * (b1 * p1 + b6 * p6 + b7 * p7 + b8 * p8 + b9 * p9 + b10 * p10
                          + b11 * p11 + b12 * p12)
                for u, p1, p6, p7, p8, p9, p10, p11, p12
                in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)])
            sq5 = sq3 = 0.0
            for u, v, p1, p6, p7, p8, p9, p10, p11, p12 in zip(
                    y, y_new, k1, k6, k7, k8, k9, k10, k11, k12):
                u, v = abs(u), abs(v)
                # not max(): a NaN in the new state must reach the norm
                sc = atol + rtol * (u if u > v else v)
                q = (er1 * p1 + er6 * p6 + er7 * p7 + er8 * p8 + er9 * p9 + er10 * p10
                     + er11 * p11 + er12 * p12) / sc
                sq5 += q * q
                q = (eh1 * p1 + eh6 * p6 + eh7 * p7 + eh8 * p8 + eh9 * p9 + eh10 * p10
                     + eh11 * p11 + eh12 * p12) / sc
                sq3 += q * q
            # both estimates zero: no error (a NaN still reaches the check)
            den = sq5 + 0.01 * sq3
            err = hs * sq5 / sqrt(den * n) if den != 0.0 else 0.0
            if not isfinite(err):
                raise FloatingPointError
            if err <= 1.0:
                # the FSAL stage and the three dense-output stages
                k13 = stage(t + hs, y_new)
                k14 = stage(t + c14 * hs, tuple([
                    u + hs * (a141 * p1 + a147 * p7 + a148 * p8 + a149 * p9 + a1410 * p10
                              + a1411 * p11 + a1412 * p12 + a1413 * p13)
                    for u, p1, p7, p8, p9, p10, p11, p12, p13
                    in zip(y, k1, k7, k8, k9, k10, k11, k12, k13)]))
                k15 = stage(t + c15 * hs, tuple([
                    u + hs * (a151 * p1 + a156 * p6 + a157 * p7 + a158 * p8 + a1511 * p11
                              + a1512 * p12 + a1513 * p13 + a1514 * p14)
                    for u, p1, p6, p7, p8, p11, p12, p13, p14
                    in zip(y, k1, k6, k7, k8, k11, k12, k13, k14)]))
                k16 = stage(t + c16 * hs, tuple([
                    u + hs * (a161 * p1 + a166 * p6 + a167 * p7 + a168 * p8 + a169 * p9
                              + a1613 * p13 + a1614 * p14 + a1615 * p15)
                    for u, p1, p6, p7, p8, p9, p13, p14, p15
                    in zip(y, k1, k6, k7, k8, k9, k13, k14, k15)]))
        except ArithmeticError:
            rejected += 1
            h = 0.1 * hs
            continue
        if err > 1.0:
            rejected += 1
            h = hs * max(0.2, 0.9 * err ** -0.125)
            continue

        accepted += 1
        hs_acc.append(hs)
        dense_ks += (*k1, *k6, *k7, *k8, *k9, *k10, *k11, *k12, *k13, *k14, *k15, *k16)
        t = t_end if hits_end else t + hs
        y, k1 = y_new, k13  # the end derivative is the next step's stage 1
        ts.append(t)
        ys.append(y)
        fs.append(k13)
        if max(map(abs, y)) > OVERFLOW_GUARD:
            raise StateBlowup(f"state exceeded {OVERFLOW_GUARD:.0e} at t={t!r}", t, make_traj())
        grow = 0.9 * err ** -0.125 if err > 0 else 5.0
        # hs * min(5.0, max(0.2, grow)) without the builtin calls
        h = hs * (5.0 if grow > 5.0 else 0.2 if grow < 0.2 else grow)
    return make_traj()


# ----------------------------------------------------------------------
# Event location
# ----------------------------------------------------------------------

_EVENT_SUBSAMPLES = 8
# a root is located once its bracket is at most this wide, relative to |t| past 1
_EVENT_RTOL = 1e-12


def detect_events(traj: Trajectory, k: int) -> np.ndarray:
    """Times where component k of the dense output falls through zero, ascending.

    Every segment is subsampled on 8 points, all evaluated in one call.  A
    bracket is a pair of adjacent samples with y[k] > 0 at the first and
    y[k] <= 0 at the second; an exact zero at the second is the root itself.
    By that half-open rule a zero on a node or on the last time is reported
    once and a zero on the first time never, so trajectories that continue
    one another report a zero where they meet once in total.  All brackets
    are refined together, one `evaluate` call per round, by regula falsi
    with the Illinois modification, until each is at most
    tol = 1e-12 * max(1, |t|) wide; the root is then its midpoint.  Every
    round shrinks a bracket by at least tol/4, so the refinement ends.
    """
    if traj.n_nodes < 2:
        return np.empty(0)
    grid = np.linspace(traj.ts[:-1], traj.ts[1:], _EVENT_SUBSAMPLES, axis=1)
    g = traj.evaluate(grid)[..., k]
    hit = (g[:, :-1] > 0) & (g[:, 1:] <= 0)
    ta, tb, ga, gb = grid[:, :-1][hit], grid[:, 1:][hit], g[:, :-1][hit], g[:, 1:][hit]
    exact = gb == 0
    moved = np.full(len(ta), -1)  # 1: the last round moved the left end, 0: the right
    tol = lambda t: _EVENT_RTOL * np.maximum(1.0, np.abs(t))
    wide = lambda i: i[tb[i] - ta[i] > tol(tb[i])]
    live = wide(np.flatnonzero(~exact))
    while live.size:
        a, b, fa, fb = ta[live], tb[live], ga[live], gb[live]
        # a proposal stays tol/4 inside the bracket, so an end already on the
        # root closes it in one round; fmax/fmin send a NaN (0/0) to a + tol/4
        d = 0.25 * tol(b)
        tm = np.fmin(np.fmax(b - fb * (b - a) / (fb - fa), a + d), b - d)
        gm = traj.evaluate(tm)[:, k]
        left = gm > 0
        # Illinois: an end kept for a second round running has its value halved
        half = np.where(moved[live] == left, 0.5, 1.0)
        moved[live] = left
        ta[live], ga[live] = np.where(left, tm, a), np.where(left, gm, half * fa)
        tb[live], gb[live] = np.where(left, b, tm), np.where(left, half * fb, gm)
        exact[live] = gm == 0
        live = wide(live[gm != 0])
    return np.where(exact, tb, 0.5 * (ta + tb))


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
