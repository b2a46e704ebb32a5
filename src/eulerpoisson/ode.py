"""Adaptive ODE integration and a quadrature primitive.

An explicit Dormand-Prince 8(5,3) pair, DOP853 (Hairer, Norsett & Wanner I,
section II.5), drives all time integration in the package.  Every system
here has a few components, so the step runs on Python floats: a right-hand
side takes `(t, y)` with y a tuple of floats and returns a sequence of
floats of the same length.  Each run of `integrate` is one call of a
function compiled on first use for the state size n, the system and the
fall component, never per parameter set; `_run_source` returns its
source.  Its one loop holds the step checks, the attempt, the controller,
the guards and the stores.  The attempt, `_step_lines`, is straight-line
from the tableau, with one local per stage and component and the
tableau's term order.  Every stage has one template: it sets t and
y_0..y_{n-1} to the stage input, runs the body of the system, an `Rhs`,
which assigns f_0..f_{n-1}, and checks those finite.  A package system's
body is its own statements, so a stage makes no call; any other callable
fn becomes the `Rhs` of its call `f = fn(t, (y_0, ...))` and length
check.  A step costs 11 rhs calls before its error check; an accepted one
adds the derivative at the new point (FSAL) and three stages for the
stepper's own 7th-order continuous extension (section II.6), so a run makes
1 + 11*attempts + 4*accepted rhs calls.  A run starts in one way: the first
step is Hairer's first estimate (section II.4), 0.01 * |y0| / |k1| with both
norms in the error norm's scale atol + rtol*|y0|, or 1e-6 when either norm is
below 1e-5; an estimate at or below the underflow floor 1e-14 * max(1, |t0|)
becomes 100 times that floor, so the run does not halt before its first step.
It costs no rhs call and stops at t_end; a step that ends the run is spared
the floor, so a span shorter than the floor is one step.  The next step also
weighs the last accepted one, by Gustafsson's predictive controller
(Hairer & Wanner II, section IV.8; its formula is in `integrate`), so the
step does not saw-tooth between growth and rejection.  Accepted steps
store the state and derivative at both ends plus four continuation rows,
so the trajectory supports dense output, post-hoc event location, and
exact (bitwise) reproduction of node states.  Dense output is one kernel,
`Trajectory.evaluate`, for an array of times at once; `Trajectory.state_at`
is the same call on a single time.  It is Hairer's CONTD8 as one nested
product, y0 + s (D + s' (h f0 - D + s (2 D - h (f1 + f0) + s' (r0 + s (r1 +
s' (r2 + s r3)))))) with s' = 1 - s and D = y1 - y0, and returns bit for
bit what scipy's `Dop853DenseOutput` returns for the same step.  Event
location, `detect_events(traj, k)`, finds the falling zeros of component k
on the dense output: it searches only the segments over which y[k] falls
at the nodes, brackets the zeros there on an 8-point subsample grid, with
y[k] > 0 at one sample and y[k] <= 0 at the next, and refines all brackets
together to a width of 1e-12 * max(1, |t|), each round one `evaluate` call
on the open brackets' proposals.  A run keeps its nodes and steps in
Python lists only for 512 accepted steps at a time: then it packs them
(`_pack`) into a chunk of float64 arrays, each list converted in one pass
and the chunk's continuation rows formed in one product, and clears them.
So a run's memory is its arrays plus at most one chunk of lists, and a run
of any length gives the nodes and rows of one packing at its end, bit for
bit.  `integrate` packs what remains, concatenates the chunks only when the
run packed one, and builds its trajectory through the public constructor,
whose checks every run passes, a halted one too.  Each trajectory carries
the integrator's work counters in `Trajectory.stats`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral
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
# Continuous extension (dop853's CONTD8): the rows r_j = h * sum(_D[j][i] k_i)
# over all 16 stages are Hairer's rcont5..8 and scipy's F[3:]; `_dense` nests
# them with the step's end states and derivatives.
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
    """A time point and the state vector attached to it, 1-D and not empty."""

    t: float
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if y.ndim != 1 or not y.size:
            raise DomainError(f"OdeState requires a 1-D y of at least one component, not {y.shape}")
        if not math.isfinite(self.t) or not np.all(np.isfinite(y)):
            raise DomainError("OdeState requires finite t and y")


@dataclass(frozen=True)
class IntegratorConfig:
    """Error tolerances and step limits for `integrate`: 0 < rtol < 1 (at rtol >= 1 a
    step would pass with an error as large as the state), 0 <= atol < inf and an
    integer max_steps >= 1, else DomainError."""

    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not 0 < self.rtol < 1:
            raise DomainError(f"rtol must be > 0 and < 1, not {self.rtol!r}")
        if not 0 <= self.atol < math.inf:
            raise DomainError("atol must be finite and >= 0")
        if not (isinstance(self.max_steps, Integral) and self.max_steps > 0):
            raise DomainError("max_steps must be an integer > 0")


# the tight tolerances of the profile and rotational scale-factor solves
TIGHT_CONFIG = IntegratorConfig(rtol=1e-12, atol=1e-14)


class IntegratorStats(NamedTuple):
    """Work counters of an integration: accepted and rejected steps, rhs calls."""

    accepted: int = 0
    rejected: int = 0
    rhs_calls: int = 0


class Trajectory:
    """Accepted integration nodes plus the DOP853 dense output.

    Node times are finite and strictly increasing; the constructor checks
    them and the shapes, and every trajectory passes its checks, the one a
    halt of `integrate` carries too.  Evaluation at a node time returns
    the stored state bitwise.  Inside segment i, at the fraction s of its
    step h, with s' = 1 - s, D = y1 - y0 and the end derivatives f0, f1, it
    is y0 + s (D + s' (h f0 - D + s (2 D - h (f1 + f0) + s' (r0 + s (r1 +
    s' (r2 + s r3)))))), where r0..r3 = cont[i, :, 0..3] are Hairer's
    rcont5..8, scipy's F[3:].  They carry the factor s^2 s'^2, so the
    output is continuous with continuous first derivative.  `cont` holds
    four rows per segment, shape (segments, n, 4), and defaults to zeros,
    the plain cubic Hermite.
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
        if not np.isfinite(self.ts).all():
            raise DomainError("trajectory node times must be finite")
        if (self.ts[1:] <= self.ts[:-1]).any():
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
        is outside [t_start, t_end] or NaN, naming the first such time; the
        range is checked on the least and greatest time (a NaN fails it), and
        the per-time mask is built only to name the time.
        """
        t = np.asarray(ts, dtype=float)
        nodes = self.ts
        if t.size and not (nodes[0] <= t.min() and t.max() <= nodes[-1]):
            raise_where(~((t >= nodes[0]) & (t <= nodes[-1])), DomainError,
                        f"times outside trajectory range [{nodes[0]}, {nodes[-1]}]", t=t)
        if len(nodes) == 1:
            return np.broadcast_to(self.ys[0], t.shape + self.ys.shape[1:]).copy()
        # t >= nodes[0], so only t_end needs the cap to the last segment
        i = np.minimum(np.searchsorted(nodes, t, side="right") - 1, len(nodes) - 2)
        j = i + 1
        t, t0, t1 = t[..., None], nodes.take(i)[..., None], nodes.take(j)[..., None]
        y0, y1 = self.ys.take(i, 0), self.ys.take(j, 0)
        out = _dense(t, t0, t1, y0, y1, self.fs.take(i, 0), self.fs.take(j, 0),
                     self.cont.take(i, 0))
        np.copyto(out, y0, where=t == t0)
        np.copyto(out, y1, where=t == t1)
        return out


def _dense(t, t0, t1, y0, y1, f0, f1, cont):
    # scipy's Dop853DenseOutput operation order, so the two agree bit for bit
    h = t1 - t0
    s = (t - t0) / h
    u = 1 - s
    dy = y1 - y0
    r0, r1, r2, r3 = cont[..., 0], cont[..., 1], cont[..., 2], cont[..., 3]
    return y0 + s * (dy + u * (h * f0 - dy + s * (2 * dy - h * (f1 + f0) + u * (
        r0 + s * (r1 + u * (r2 + s * r3))))))


def _norm(v: Sequence[float], y: Sequence[float], cfg: IntegratorConfig) -> float:
    """|v| in the scale atol + rtol*|y|, where a component of scale 0 counts not at all."""
    sc = [cfg.atol + cfg.rtol * abs(u) for u in y]
    return math.hypot(*[p / s for p, s in zip(v, sc) if s])


def _first_step(t: float, y: Sequence[float], k1: Sequence[float], span: float,
                cfg: IntegratorConfig) -> float:
    """Hairer's first estimate 0.01 * d0 / d1 with d0 = |y| and d1 = |k1| (`_norm`); 1e-6
    when either norm is below 1e-5 or the quotient is no positive number (an overflowed
    norm); 100 times the underflow floor 1e-14 * max(1, |t|) when the estimate is at or
    below that floor, where it would halt the run before its first step; at most `span`."""
    d0, d1 = _norm(y, y, cfg), _norm(k1, y, cfg)
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 0.0
    h = h if h > 0.0 else 1e-6
    floor = STEP_UNDERFLOW_REL * max(1.0, abs(t))
    return min(h if h > floor else 100 * floor, span)


def _combo(weights: Sequence[float], j: int) -> str:
    """sum(w_i * k{i+1}_j) over the nonzero weights, in stage order."""
    return " + ".join(f"{w!r} * k{i + 1}_{j}" for i, w in enumerate(weights) if w).replace(
        "+ -", "- ")


def _step_lines(n: int, body: str) -> list[str]:
    """One DOP853 step attempt on an n-state, as the lines `_run_source` pastes
    into its loop: straight-line, one local per stage and component, sums in
    the tableau's order without its zero weights.  Every stage is one template:
    it sets `t` (only when `body` reads it, by its compiled `co_names`) and
    `y_0..y_{n-1}` to the stage input, runs `body`, an `Rhs`'s, which assigns
    `f_0..f_{n-1}`, copies those into `k{i}_j` and checks them finite.  The
    attempt steps h from t0, y0_j and k1_j and ends with the error norm `err`,
    the new state `yn_j`, its derivative `k13_j` and the stage values the dense
    output weights; a stage i that is not finite, or an error norm that is not
    finite or above 1, rejects it after the i - 1 (or 11) rhs calls it made."""
    js = range(n)
    reads_t = "t" in compile(body, "<rhs>", "exec").co_names
    lines = []

    def stage(i: int, y_in) -> None:
        if reads_t:
            lines.append("t = t0 + h" if _C[i - 1] == 1.0 else f"t = t0 + {_C[i - 1]!r} * h")
        finite = " and ".join(f"isfinite(k{i}_{j})" for j in js)
        lines.extend([*(f"y_{j} = {y_in(j)}" for j in js), f"calls = {i - 1}",
                      *body.splitlines(), *(f"k{i}_{j} = f_{j}" for j in js),
                      f"if not ({finite}): {_REJECT.format(i - 1)}"])

    inputs = lambda i: lambda j: f"y0_{j} + h * ({_combo(_A[i - 1], j)})"
    for i in range(2, 13):
        stage(i, inputs(i))
    for j in js:  # not max(): a NaN in the new state must reach the norm
        lines += [f"yn_{j} = y0_{j} + h * ({_combo(_A[12], j)})",
                  f"u, v = abs(y0_{j}), abs(yn_{j})",
                  "sc = atol + rtol * (u if u > v else v) or inf",  # a zero scale counts not at all
                  f"e5_{j} = ({_combo(_E5, j)}) / sc", f"e3_{j} = ({_combo(_E3, j)}) / sc"]
    # both estimates zero: no error (a NaN still reaches the check)
    lines += [f"sq5 = {' + '.join(f'e5_{j} * e5_{j}' for j in js)}",
              f"sq3 = {' + '.join(f'e3_{j} * e3_{j}' for j in js)}",
              "den = sq5 + 0.01 * sq3", f"err = h * sq5 / sqrt(den * {n}) if den != 0.0 else 0.0",
              f"if not isfinite(err): {_REJECT.format(11)}",
              # h * max(0.2, 0.9 err^(-1/8)) without the builtin call
              "if err > 1.0: grow = 0.9 * err ** -0.125; "
              "rhs_calls += 11; rejected += 1; h_try = h * (grow if grow > 0.2 else 0.2); continue"]
    stage(13, lambda j: f"yn_{j}")
    for i in range(14, 17):
        stage(i, inputs(i))
    return lines


# a failed stage: its calls counted, the step rejected and retried at a tenth
_REJECT = "rhs_calls += {}; rejected += 1; h_try = 0.1 * h; continue"
# accepted steps per packed chunk of a run's lists, a power of two (the run
# tests `accepted & (_CHUNK - 1)`)
_CHUNK = 512


def _run_source(n: int, step: list[str], names: tuple[str, ...], fall: int | None) -> str:
    """Source of `run(consts, t0, t_end, h_try, y0, k1, atol, rtol, max_steps,
    falls_left, ts, ys, fs, hs, ks, chunks, pack)`, the whole DOP853 run of
    `integrate` on an n-state from (t0, y0) with derivative k1 and first step
    h_try.  Each pass of its loop checks a step that does not end the run
    for underflow, then every step against the budget
    and a node time past the floats (in a run to t_end = inf), runs the
    attempt `step` (`_step_lines`) inside a handler that rejects it on
    ArithmeticError, and on acceptance stores the node (t0 on `ts`, the
    state and derivative flat on `ys` and `fs`, the step on `hs`, the
    dense stage values flat on `ks`), after every 512th accepted step
    appends `pack(n, ts, ys, fs, hs, ks)` (`_pack`, which empties the lists)
    to `chunks`, checks the overflow guard and, for `fall` k, the fall of
    y[k], and sets the next step.  `consts` holds the values of the
    constants `names`.  The run returns (halt, t, h_try, accepted, rejected,
    rhs calls after k1), where halt is the error type that ends it, or None
    at t_end or the `falls_left`-th fall."""
    js = range(n)
    vec = lambda f: "(" + "".join(f"{f(j)}, " for j in js) + ")"
    halt = "return {}, t0, h_try, accepted, rejected, rhs_calls"
    dense = "".join(f"k{i + 1}_{j}, " for i in _DENSE_STAGES for j in js)
    blowup = " or ".join(f"abs(y0_{j}) > {OVERFLOW_GUARD!r}" for j in js)
    fall_rule = [] if fall is None else [
        f"if y_old > 0.0 >= y0_{fall}:", "    falls_left -= 1",
        f"    if not falls_left: {halt.format(None)}"]
    loop = [
        "u = abs(t0)",  # max(1.0, |t0|); the floor spares a step that ends the run
        f"if h_try < {STEP_UNDERFLOW_REL!r} * (u if u > 1.0 else 1.0) and h_try < t_end - t0: "
        f"{halt.format('StepUnderflow')}",
        f"if accepted + rejected >= max_steps: {halt.format('StepBudgetExceeded')}",
        "if h_try >= t_end - t0: h = t_end - t0; t1 = t_end",  # the last step
        "else: h = h_try; t1 = t0 + h",
        # with t_end inf, a step whose node time t1 is past the floats halts before it
        f"if t1 == inf: {halt.format('StateBlowup')}",
        "try:", *("    " + line for line in step),
        "except ArithmeticError:", f"    {_REJECT.format('calls')}",
        "rhs_calls += 15", "accepted += 1", "hs.append(h)", f"ks += ({dense})",
        *([f"y_old = y0_{fall}"] if fall is not None else []),
        "t0 = t1",
        *(f"y0_{j} = yn_{j}" for j in js),
        *(f"k1_{j} = k13_{j}" for j in js),  # the end derivative is the next step's stage 1
        "ts.append(t0)", f"ys += {vec(lambda j: f'y0_{j}')}", f"fs += {vec(lambda j: f'k1_{j}')}",
        f"if not accepted & {_CHUNK - 1}: chunks.append(pack({n}, ts, ys, fs, hs, ks))",
        f"if {blowup}: {halt.format('StateBlowup')}", *fall_rule,
        "grow = 0.9 * err ** -0.125 if err > 0 else 5.0",
        "if h_prev and err > 0:  # Gustafsson's predictive factor, when it is the smaller",
        "    pred = grow * (h / h_prev) * (err_prev / err) ** 0.125",
        "    grow = pred if pred < grow else grow",
        "h_prev, err_prev = h, err if err > 1e-2 else 1e-2",
        # h * min(5.0, max(0.2, grow)) without the builtin calls
        "h_try = h * (5.0 if grow > 5.0 else 0.2 if grow < 0.2 else grow)"]
    return "\n".join([
        "def run(consts, t0, t_end, h_try, y0, k1, atol, rtol, max_steps, falls_left,"
        " ts, ys, fs, hs, ks, chunks, pack):",
        f"    ({''.join(f'{name}, ' for name in names)}) = consts",
        f"    {vec(lambda j: f'y0_{j}')} = y0", f"    {vec(lambda j: f'k1_{j}')} = k1",
        "    accepted = rejected = rhs_calls = 0",
        "    h_prev = err_prev = 0.0  # the last accepted step and its error, floored at 1e-2",
        "    while t0 < t_end:", *("        " + line for line in loop),
        f"    {halt.format(None)}", ""])


def _component(k, n: int) -> int | None:
    """k as the int index of one component of an n-state, if it is an integer in
    range(n) (never from the end; numpy would read a bool as a mask), else None."""
    return int(k) if isinstance(k, Integral) and 0 <= k < n else None


def _length_error(f, n: int, t: float) -> DomainError:
    got = f"{len(f)} components" if isinstance(f, Sequence) else repr(f)  # an array by its repr
    return DomainError(f"rhs returned {got} for a {n}-state at t={t!r}")


@functools.cache
def _call_body(n: int) -> str:
    """The `Rhs` body of a plain callable `fn` on an n-state; not `rhs`, the closure's name."""
    y, f = (", ".join(f"{x}_{j}" for j in range(n)) + "," for x in "yf")
    return (f"f = fn(t, ({y}))\ntry: {f} = f\n"
            f"except (TypeError, ValueError): raise _length_error(f, {n}, t) from None")


_NAMESPACE = {"isfinite": math.isfinite, "sqrt": math.sqrt, "math": math, "inf": math.inf,
              "_length_error": _length_error, "StepUnderflow": StepUnderflow,
              "StepBudgetExceeded": StepBudgetExceeded, "StateBlowup": StateBlowup}


@functools.cache
def _run(n: int, body: str, names: tuple[str, ...], fall: int | None):
    """The compiled run of `_run_source` on the attempt of `body`, once per
    state size, system and fall component; its tracebacks name "<DOP853 run, n=...>"."""
    namespace = dict(_NAMESPACE)
    source = _run_source(n, _step_lines(n, body), names, fall)
    exec(compile(source, f"<DOP853 run, n={n}>", "exec"), namespace)
    return namespace["run"]


@functools.cache
def _system_factory(body: str, names: tuple[str, ...]):
    """`make(*names)`, which returns the closure `rhs(t, y)` running `body` on
    y = (y_0, ...), and the number of components n, read off the `f_j` the body assigns."""
    n = sum(name[:2] == "f_" and name[2:].isdigit()
            for name in compile(body, "<rhs>", "exec").co_names)
    vec = lambda x: "(" + "".join(f"{x}_{j}, " for j in range(n)) + ")"
    source = "\n".join([f"def make({''.join(f'{name}, ' for name in names)}):",
                        "    def rhs(t, y):", f"        {vec('y')} = y",
                        *("        " + line for line in body.splitlines()),
                        f"        return {vec('f')}", "    return rhs", ""])
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<rhs>", "exec"), namespace)
    return namespace["make"], n


class Rhs(functools.partial):
    """A system y' = f(t, y) as Python statements, which `integrate` pastes
    into every stage of its generated run in place of a call.

    `body` reads `t`, `y_0..y_{n-1}`, the constants passed by keyword and
    `math`, and assigns `f_0..f_{n-1}`; its other locals must not be the
    run's own (`t0`, `h`, `y0_j`, `k{i}_j`, `yn_j`, `err`, `grow`, ...).  Its run
    is compiled once per process, whatever the constants, which reach it
    as the tuple `consts`.  Calling an Rhs runs a closure over the
    constants, compiled once from the same body.  `integrate` recognises
    the type, never the attributes (a `functools.wraps` wrapper copies
    them), and makes any other callable fn `Rhs(_call_body(n), fn=fn)`.
    """

    # a partial with no arguments of its own: a traced call rhs(*args) reaches
    # the closure without copying them
    def __new__(cls, body: str, **consts):
        names = tuple(consts)
        make, n = _system_factory(body, names)
        self = super().__new__(cls, make(*consts.values()))
        self.body, self.names, self.consts, self.n = body, names, tuple(consts.values()), n
        return self


def _packed(values: list) -> np.ndarray:
    """The floats of a list as a float64 array, filled in one pass into a
    buffer of the list's length, without the type discovery of `np.array`."""
    return np.fromiter(values, float, len(values))


def _pack(n: int, ts: list, ys: list, fs: list, hs: list, ks: list):
    """The chunk (ts, ys, fs, cont) of arrays of a run's lists, which it
    empties in place: the nodes, and per accepted step the continuation rows
    h * D k in one product, each row bitwise the same whatever the number of
    rows."""
    k = _packed(ks).reshape(-1, len(_DENSE_STAGES), n)
    ks.clear()  # most of the chunk's boxed floats, freed before the product
    chunk = (_packed(ts), _packed(ys).reshape(-1, n), _packed(fs).reshape(-1, n),
             _packed(hs)[:, None, None] * np.einsum("sjn,rj->snr", k, _D_KEPT))
    for values in (ts, ys, fs, hs):
        values.clear()
    return chunk


def integrate(
    rhs: RhsFn, y0: OdeState, t_end: float, config: IntegratorConfig = IntegratorConfig(),
    falls: tuple[int, int] | None = None,
) -> Trajectory:
    """Integrate y' = rhs(t, y) from y0.t to t_end with adaptive DOP853 steps.

    `rhs` receives the state as a tuple of floats and returns a new sequence of
    the same length (node derivatives keep it); another length, or no sequence,
    raises DomainError naming what came back and the time.  Local error is
    controlled against atol + rtol*|y|, where a component of scale 0 counts
    not at all, by Hairer's combined 5th/3rd-order estimate, before the FSAL
    stage, so a rejected attempt costs 11 rhs calls and an accepted one 15
    (11, the FSAL stage and three dense-output stages);
    a run makes 1 + 11*attempts + 4*accepted calls.  The first step is Hairer's
    first estimate, raised to 100 underflow floors if at or below one (`_first_step`).  A step h
    accepted after an accepted h_prev is followed by h times the smaller of 0.9
    err^(-1/8) and Gustafsson's 0.9 err^(-1/8) (h/h_prev) (err_prev/err)^(1/8),
    err_prev the error of h_prev floored at 1e-2.  A step is rejected when a
    stage is not finite or raises ArithmeticError (ZeroDivisionError,
    OverflowError), so integrands may signal domain exits (for example a scale
    factor touching zero) by returning NaN; the run then terminates with
    StepUnderflow at the singular time.  A stage i (2..16) that fails ends its
    attempt after i - 1 calls.  The whole run is one call of the function
    generated for n = len(y), the system and the fall component, on the first
    run of that triple; `_run_source` returns its source.  An `Rhs` (by type: a
    wrapper of one is a plain callable) has its body pasted into every stage,
    and must have n components, else DomainError; a plain callable becomes the
    `Rhs` whose body is its call (`_call_body`).  Both make the same arithmetic
    in the same order, so they give the same nodes, rows and counts bit for
    bit.  The run packs its lists into float64 arrays every 512 accepted steps
    (`_pack`), so it holds at most one chunk of boxed floats besides its
    arrays; the trajectory, and the one a halt carries, is the whole run, the
    same bit for bit as one packing at its end.

    With `falls=(k, n)` the run ends early, at the node of the n-th accepted
    step where y[k] falls: > 0 at its start and <= 0 at its end.  These are
    the steps `detect_events` searches, and it finds a zero in each.  A k
    outside range(len(y)), or an n that is no integer >= 1, raises
    DomainError.  t_end may then be math.inf: the run ends at the n-th fall
    or halts, at the latest when config.max_steps is reached.

    Raises:
        StepBudgetExceeded: config.max_steps attempted steps reached.
        StateBlowup: a component passed the 1e300 overflow guard, or the next
            step of a run to t_end = math.inf would carry its time past the
            float range; the run then ends on its last node, whose time is finite.
        StepUnderflow: the step fell below 1e-14 * max(1, |t|); the floor
            spares a step that ends the run, however short its span.
    """
    t = float(y0.t)
    if not t_end > t:
        raise DomainError("t_end must exceed the initial time")
    y = tuple(y0.y.tolist())
    n = len(y)
    if type(rhs) is not Rhs:
        rhs = Rhs(_call_body(n), fn=rhs)
    elif rhs.n != n:
        raise DomainError(f"a {rhs.n}-component system cannot take a {n}-state")
    try:
        k1 = rhs(t, y)
        if not all(map(math.isfinite, k1)):
            raise FloatingPointError
    except ArithmeticError:
        raise DomainError("rhs is not finite at the initial state") from None
    fall_k, falls_left = None, 1  # no fall rule and no check: isinstance on an ABC is slow
    if falls:
        fall_k, falls_left = falls
        fall_k = _component(fall_k, n)
        if fall_k is None or not (isinstance(falls_left, Integral) and falls_left >= 1):
            raise DomainError(f"falls={falls} needs a k in range({n}) and an integer count >= 1")
    run = _run(n, rhs.body, rhs.names, fall_k)
    h = _first_step(t, y, k1, t_end - t, config)
    # the nodes, and per accepted step its size and the stage values the dense output
    # weights; the run packs them into `chunks` of arrays every _CHUNK accepted steps
    ts, ys, fs, hs, ks, chunks = [t], list(y), list(k1), [], [], []
    halt, t, h, accepted, rejected, calls = run(
        rhs.consts, t, t_end, h, y, k1, config.atol, config.rtol, config.max_steps, falls_left,
        ts, ys, fs, hs, ks, chunks, _pack)
    if ts:  # the steps since the last full chunk, or all of a run shorter than one
        chunks.append(_pack(n, ts, ys, fs, hs, ks))
    arrays = chunks[0] if len(chunks) == 1 else map(np.concatenate, zip(*chunks))
    traj = Trajectory(*arrays, IntegratorStats(accepted, rejected, 1 + calls))
    if halt is None:
        return traj
    what = {StepUnderflow: f"step size {h:.3e} underflowed",
            StepBudgetExceeded: f"exceeded {config.max_steps} steps",
            StateBlowup: f"state exceeded {OVERFLOW_GUARD:.0e}" if t + h < math.inf
            else f"step size {h:.3e} overflowed"}[halt]
    raise halt(f"{what} at t={t!r}", traj)


# ----------------------------------------------------------------------
# Event location
# ----------------------------------------------------------------------

_EVENT_SUBSAMPLES = 8
# a root is located once its bracket is at most this wide, relative to |t| past 1
_EVENT_RTOL = 1e-12


def detect_events(traj: Trajectory, k: int) -> np.ndarray:
    """Times where component k of the dense output falls through zero, ascending.

    Only the segments over which y[k] falls at the nodes, > 0 at the start
    and <= 0 at the end (the rule `integrate(falls=...)` counts), are
    searched, so two zeros inside a segment whose nodes do not fall are not
    reported.  Each is subsampled on 8 points, all evaluated in one
    `evaluate` call.  A bracket is a pair of adjacent samples with y[k] > 0
    at the first and y[k] <= 0 at the second; an exact zero at the second is
    the root itself.  By that half-open rule a zero on a node or on the last
    time is reported once and a zero on the first time never, so
    trajectories that continue one another report a zero where they meet
    once in total.  All brackets are refined together by regula falsi with
    the Illinois modification, until each is at most tol = 1e-12 * max(1,
    |t|) wide; the root is then its midpoint.  Every round shrinks a bracket
    by at least tol/4, so the refinement ends, and each round is one
    `evaluate` call on the open brackets' proposals.  With no fall there is
    no bracket, and the result is empty.  k is read as an int (a bool or
    numpy integer too); a k that is no integer in range(n) raises
    DomainError, as in `integrate(falls=...)`.
    """
    if (j := _component(k, traj.ys.shape[1])) is None:
        raise DomainError(f"component k={k!r} is not in range({traj.ys.shape[1]})")
    y = traj.ys[:, j]
    fall = np.flatnonzero((y[:-1] > 0) & (y[1:] <= 0))
    grid = np.linspace(traj.ts[fall], traj.ts[fall + 1], _EVENT_SUBSAMPLES, axis=1)
    g = traj.evaluate(grid)[..., j]
    row, col = np.nonzero((g[:, :-1] > 0) & (g[:, 1:] <= 0))
    ta, tb, ga, gb = grid[row, col], grid[row, col + 1], g[row, col], g[row, col + 1]
    exact = gb == 0
    width = _EVENT_RTOL * np.maximum(1.0, np.abs(tb))  # each bracket's tol, at its right end
    live = np.flatnonzero(~exact & (tb - ta > width))
    a, b, fa, fb, width = ta[live], tb[live], ga[live], gb[live], width[live]
    moved = np.full(len(live), -1)  # 1: the last round moved the left end, 0: the right
    while live.size:
        # a proposal stays tol/4 inside the bracket, so an end already on the
        # root closes it in one round; fmax/fmin send a NaN (0/0) to a + tol/4
        d = 0.25 * width
        tm = np.fmin(np.fmax(b - fb * (b - a) / (fb - fa), a + d), b - d)
        gm = traj.evaluate(tm)[:, j]
        left = gm > 0
        # Illinois: an end kept for a second round running has its value halved
        half = np.where(moved == left, 0.5, 1.0)
        moved = left
        a, fa = np.where(left, tm, a), np.where(left, gm, half * fa)
        b, fb = np.where(left, b, tm), np.where(left, half * fb, gm)
        width = _EVENT_RTOL * np.maximum(1.0, np.abs(b))
        keep = (gm != 0) & (b - a > width)
        if not keep.all():  # store the closed brackets and drop them
            done = live[~keep]
            ta[done], tb[done], exact[done] = a[~keep], b[~keep], gm[~keep] == 0
            live, a, b, fa, fb, width, moved = (
                x[keep] for x in (live, a, b, fa, fb, width, moved))
    return np.where(exact, tb, 0.5 * (ta + tb))


# ----------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------

_MAX_NODES = 1 << 14


def quad_adaptive(f, lo: float, hi: float) -> tuple[float, float]:
    """Midpoint sum of f over [lo, hi], doubled until it settles.

    The n-point sum h * fsum(f(lo + (k + 1/2) h)), h = (hi - lo)/n, runs for
    n = 8, 16, ... until it differs from the previous one by at most 1e-14
    of its own value; returns (that sum, the difference).  An integrand whose
    own rounding keeps the sums further apart settles once two successive
    differences are both at most 1e-13 of the sum (a truncation error would
    have shrunk below 1e-14 by then, or be a fraction of the difference): it
    returns the sum and the spread of the last three, the two differences
    added.  The sum converges geometrically for a smooth f that is periodic
    with period hi - lo or even about both ends (Trefethen & Weideman 2014,
    SIAM Review 56, 385), and slowly otherwise.  Raises NoConvergence past
    16,384 nodes.

    The returned estimate measures how far the sums still moved, not the
    rounding of the integrand itself, so it is no bound on the error:
    `quad_adaptive(lambda p: 1 / (1 + 1e-4 - math.cos(p)), 0, 2 * math.pi)`
    estimates 4.0e-12, and its sum is 1.95e-11 off the integral of
    1/(1.0001 - cos p) over [0, 2 * math.pi], where 1.0001 - cos p loses four
    digits near p = 0.
    """
    if hi == lo:
        return 0.0, 0.0
    if hi < lo:
        raise DomainError("quad_adaptive requires hi >= lo")
    n, coarse, last = 8, math.nan, math.nan
    while n <= _MAX_NODES:
        h = float(hi - lo) / n
        fine = h * math.fsum(f(lo + (k + 0.5) * h) for k in range(n))
        diff = abs(fine - coarse)
        if diff <= 1e-14 * abs(fine):
            return fine, diff
        if diff <= 1e-13 * abs(fine) and last <= 1e-13 * abs(fine):
            return fine, diff + last
        n, coarse, last = 2 * n, fine, diff
    raise NoConvergence(f"the midpoint sum did not settle to 1e-14 within {_MAX_NODES} nodes")
