"""Scale-factor dynamics: energies, classification, turning points, periods.

Frozen reference values were computed offline with 50-digit arithmetic
(bisection for the level-set roots, tanh-sinh quadrature for the period);
lighter oracles (scalar bisection, linearization) run inline.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from conftest import WIDE_ORBITS
from eulerpoisson import emden
from eulerpoisson.emden import (
    EmdenParams,
    OrbitClass,
    classify,
    energy_drift,
    energy_level,
    equilibrium_radius,
    integrate_scale,
    linearized_period,
    period_by_quadrature,
    period_by_simulation,
    potential,
    scale_rhs,
    sundman_rhs,
    turning_points,
)
from eulerpoisson.errors import DomainError, NotPeriodic, StepBudgetExceeded, StepUnderflow
from eulerpoisson.ode import (
    TIGHT_CONFIG,
    IntegratorConfig,
    IntegratorStats,
    OdeState,
    Trajectory,
    detect_events,
    integrate,
)

# 50-digit offline references for lam=1, xi=1, a0=1, a1=1 (theta = 1)
UNIT_ORBIT_A_MIN = 0.56377693540918529122
UNIT_ORBIT_A_MAX = 2.5110546149519908796
UNIT_ORBIT_PERIOD = 7.089175331761335324
# lam=1, xi=1, a0=2, a1=0
A0_2_A_MIN = 0.62177044703699397007


class TestEnergyAndPotential:
    @pytest.mark.parametrize(
        "params,expected",
        [
            (EmdenParams(1.0, 1.0, 1.0, 0.0), 0.5),
            (EmdenParams(1.0, 1.0, 1.0, 1.0), 1.0),
            (EmdenParams(0.0, 2.0, 2.0, 0.0), 0.5),
        ],
    )
    def test_energy_level(self, params, expected):
        assert energy_level(params) == pytest.approx(expected, rel=1e-15)

    def test_potential_values(self):
        p = EmdenParams(1.0, 1.0, 1.0, 0.0)
        assert potential(1.0, p) == pytest.approx(0.5)
        assert potential(math.e, EmdenParams(1.0, 0.0, 1.0, 0.0)) == pytest.approx(1.0)
        assert type(potential(2.0, p)) is float
        # elementwise on any shape, each element the value of its float
        a = np.array([[0.5, 1.0], [2.0, math.e]])
        assert np.array_equal(potential(a, p), [[potential(v, p) for v in r] for r in a.tolist()])

    def test_potential_minimum_at_equilibrium(self):
        # golden-section search over a 1-D grid is the independent oracle
        p = EmdenParams(4.0, 2.0, 1.0, 0.0)
        abar = equilibrium_radius(p)
        assert abar == pytest.approx(1.0)
        assert potential(abar, p) == pytest.approx(2.0)
        a_best = _golden_minimize(lambda a: potential(a, p), 0.05, 20.0)
        assert a_best == pytest.approx(abar, abs=1e-8)

    def test_potential_domain(self):
        with pytest.raises(DomainError):
            potential(0.0, EmdenParams(1.0, 1.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            potential(-1.0, EmdenParams(1.0, 1.0, 1.0, 0.0))
        with pytest.raises(DomainError, match="requires a > 0"):
            potential(np.array([1.0, 0.0]), EmdenParams(1.0, 1.0, 1.0, 0.0))
        with pytest.raises(DomainError, match="a=1e-170 underflows a"):
            potential(np.array([1.0, 1e-170]), EmdenParams(1.0, 1e-160, 1.0, 0.0))

    @pytest.mark.parametrize(
        "lam,xi,expected", [(1.0, 1.0, 1.0), (4.0, 2.0, 1.0), (1.0, 3.0, 3.0)]
    )
    def test_equilibrium_radius(self, lam, xi, expected):
        assert equilibrium_radius(EmdenParams(lam, xi, 1.0, 0.0)) == pytest.approx(
            expected
        )

    def test_equilibrium_domain(self):
        with pytest.raises(DomainError):
            equilibrium_radius(EmdenParams(-1.0, 1.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            equilibrium_radius(EmdenParams(1.0, 0.0, 1.0, 0.0))

    def test_unrepresentable_orbits_raise_domain_errors(self):
        # xi^2 underflows to 0 (a subnormal square is kept); theta overflows;
        # the turning points are finite (a^3 once overflowed in a Newton
        # polish), but the period, about 1e450, is not
        with pytest.raises(DomainError, match="xi=1e-300"):
            EmdenParams(1e10, 1e-300, 1e10, 700.0)
        assert EmdenParams(1.0, 1e-161, 1.0, 0.0).xi == 1e-161
        with pytest.raises(DomainError, match=r"a1=1e\+300"):
            energy_level(EmdenParams(1.0, 0.3, 0.3, 1e300))
        p = EmdenParams(1e-300, 1e10, 1e300, 1e-300)
        assert all(0 < a < math.inf for a in turning_points(p))
        with pytest.raises(DomainError, match=r"period overflows at .*a0=1e\+300"):
            period_by_quadrature(p)


def _golden_minimize(f, lo, hi, iters=200):
    phi = (math.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(iters):
        if f(c) < f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return 0.5 * (a + b)


class TestClassify:
    @pytest.mark.parametrize(
        "params,expected",
        [
            (EmdenParams(1.0, 1.0, 1.0, 0.0), OrbitClass.STEADY),
            (EmdenParams(1.0, 1.0, 1.0, 1.0), OrbitClass.PERIODIC),
            (EmdenParams(1.0, 0.0, 1.0, 0.0), OrbitClass.FINITE_TIME_BLOWUP),
            (EmdenParams(-1.0, 1.0, 1.0, 0.0), OrbitClass.GLOBAL_NON_PERIODIC),
            (EmdenParams(0.0, 1.0, 1.0, 0.0), OrbitClass.GLOBAL_NON_PERIODIC),
            (EmdenParams(4.0, 2.0, 1.0, 0.0), OrbitClass.STEADY),
            (EmdenParams(1.0, 1.0, 1.0, 1e-6), OrbitClass.PERIODIC),
            (EmdenParams(1.0, 1.0, 1.0 + 1e-6, 0.0), OrbitClass.PERIODIC),
        ],
    )
    def test_trichotomy(self, params, expected):
        assert classify(params) is expected

    def test_sign_of_xi_is_irrelevant(self, unit_orbit):
        flipped = EmdenParams(
            unit_orbit.lam, -unit_orbit.xi, unit_orbit.a0, unit_orbit.a1
        )
        assert classify(flipped) is classify(unit_orbit)
        assert energy_level(flipped) == energy_level(unit_orbit)


class TestTurningPoints:
    def test_frozen_reference(self, unit_orbit):
        tp = turning_points(unit_orbit)
        assert tp.a_min == pytest.approx(UNIT_ORBIT_A_MIN, abs=1e-12)
        assert tp.a_max == pytest.approx(UNIT_ORBIT_A_MAX, abs=1e-12)

    def test_inline_bisection_oracle(self, unit_orbit):
        # independent fine bisection of V(a) - theta = 0 on each side
        th = energy_level(unit_orbit)
        g = lambda a: potential(a, unit_orbit) - th
        lo = _bisect(g, 0.1, 1.0)
        hi = _bisect(g, 1.0, 10.0)
        tp = turning_points(unit_orbit)
        assert tp.a_min == pytest.approx(lo, abs=1e-10)
        assert tp.a_max == pytest.approx(hi, abs=1e-10)

    def test_residual_bound(self, unit_orbit):
        tp = turning_points(unit_orbit)
        th = energy_level(unit_orbit)
        for a in tp:
            assert abs(potential(a, unit_orbit) - th) <= 1e-12 * max(1.0, abs(th))

    def test_start_at_turning_point_is_exact(self):
        p = EmdenParams(1.0, 1.0, 2.0, 0.0)
        tp = turning_points(p)
        assert tp.a_max == 2.0
        assert tp.a_min == pytest.approx(A0_2_A_MIN, abs=1e-12)

    def test_width_shrinks_linearly_near_steady(self):
        widths = []
        for eps in (1e-6, 5e-7):
            tp = turning_points(EmdenParams(1.0, 1.0, 1.0, eps))
            widths.append(tp.a_max - tp.a_min)
        assert widths[0] == pytest.approx(2 * widths[1], rel=1e-3)
        # harmonic estimate: width ~ 2*eps/omega with omega = sqrt(2)
        assert widths[0] == pytest.approx(2 * 1e-6 / math.sqrt(2.0), rel=1e-3)

    def test_ordering_around_equilibrium(self, unit_orbit):
        tp = turning_points(unit_orbit)
        abar = equilibrium_radius(unit_orbit)
        assert tp.a_min < abar < tp.a_max

    def test_steady_rejected(self):
        with pytest.raises(NotPeriodic):
            turning_points(EmdenParams(1.0, 1.0, 1.0, 0.0))

    def test_an_unrepresentable_turning_point_names_the_orbit(self):
        # a_max = e^(5e299): once an outward bracket that overflowed to inf
        with pytest.raises(DomainError, match="not a positive float at .*lam=1e-300"):
            turning_points(EmdenParams(1e-300, 1.0, 1.0, 1.0))
        # once a bracket expansion that stopped short; now a_max is about 1.6e300
        tp = turning_points(EmdenParams(1.0, 1.0, 1e300, 1.0))
        assert tp.a_min < 1.0 < 1e300 < tp.a_max < math.inf


def _bisect(g, a, b, iters=100):
    ga = g(a)
    for _ in range(iters):
        m = 0.5 * (a + b)
        gm = g(m)
        if (gm > 0) == (ga > 0):
            a, ga = m, gm
        else:
            b = m
    return 0.5 * (a + b)


class TestPeriods:
    def test_quadrature_matches_frozen_reference(self, unit_orbit):
        est = period_by_quadrature(unit_orbit)
        assert est.T == pytest.approx(UNIT_ORBIT_PERIOD, rel=1e-10)

    def test_methods_agree(self, unit_orbit):
        tq = period_by_quadrature(unit_orbit)
        ts = period_by_simulation(unit_orbit)
        assert abs(tq.T - ts.T) / tq.T <= 1e-6

    def test_near_steady_matches_linearization(self):
        p = EmdenParams(1.0, 1.0, 1.0, 1e-4)
        t_lin = 2 * math.pi / math.sqrt(2.0)
        assert linearized_period(p) == pytest.approx(t_lin, rel=1e-14)
        assert period_by_quadrature(p).T == pytest.approx(t_lin, rel=1e-3)
        assert period_by_simulation(p).T == pytest.approx(t_lin, rel=1e-3)

    def test_xi_sign_symmetry(self, unit_orbit):
        flipped = EmdenParams(1.0, -1.0, 1.0, 1.0)
        assert period_by_quadrature(flipped).T == period_by_quadrature(unit_orbit).T

    def test_cycle_gaps_consistent(self, unit_orbit):
        est = period_by_simulation(
            unit_orbit, IntegratorConfig(rtol=1e-12, atol=1e-14)
        )
        assert est.err_est <= 1e-8 * est.T

    def test_extrema_alternate_and_repeat_with_period(self, unit_orbit, tight_cfg):
        from eulerpoisson.emden import scale_rhs
        from eulerpoisson.ode import OdeState, Trajectory, detect_events, integrate

        T = period_by_quadrature(unit_orbit).T
        traj = integrate(
            scale_rhs(unit_orbit), OdeState(0.0, np.array([1.0, 1.0])),
            2.6 * T, tight_cfg,
        )
        maxima = detect_events(traj, 1)
        # minima: a' rises through zero, so -a' falls; negating the data is exact
        minima = detect_events(Trajectory(traj.ts, -traj.ys, -traj.fs, -traj.cont), 1)
        merged = sorted([(t, "max") for t in maxima] + [(t, "min") for t in minima])
        kinds = [k for _, k in merged]
        assert len(merged) >= 5
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        for seq in (maxima, minima):
            assert np.allclose(np.diff(seq), T, rtol=1e-8)

    def test_steady_is_rejected(self):
        steady = EmdenParams(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(NotPeriodic):
            period_by_quadrature(steady)
        with pytest.raises(NotPeriodic):
            period_by_simulation(steady)


class TestBothPeriodsOverTheOrbitsBox:
    """Every rotating orbit of the benchmark's `orbits` box gets both periods."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(lam=st.floats(math.log(0.25), math.log(4.0)).map(math.exp),
           xi=st.floats(math.log(0.25), math.log(4.0)).map(math.exp),
           a0=st.floats(0.5, 2.0), a1=st.floats(-2.5, 2.5))
    @example(*astuple(WIDE_ORBITS[0]))
    @example(*astuple(WIDE_ORBITS[1]))
    # pool orbits 1.4e12 to 5e25 wide, whose simulated period halted with
    # StepUnderflow in the bounce near a_min before it ran in Sundman time
    @example(0.5471947610313358, 3.2240853940496828, 0.5774562585920169, -0.22490240055212407)
    @example(0.2917266355434524, 2.4610975554598666, 0.6067221986520434, -2.135985281678403)
    @example(0.6132139428289507, 3.6587089972588362, 0.6311748460299516, -0.8296775407040127)
    @example(0.3611124046480019, 2.223036432301045, 0.5035774913329641, 0.9905438402028901)
    @example(0.25131726453529085, 2.9456578703096774, 0.559442016300047, 1.4147370519609908)
    def test_turning_points_and_both_periods(self, lam, xi, a0, a1):
        p = EmdenParams(lam, xi, a0, a1)
        assume(classify(p) is OrbitClass.PERIODIC)
        th = energy_level(p)
        for a in turning_points(p):
            assert abs(potential(a, p) - th) <= 1e-12 * max(1.0, abs(th))
        tq = period_by_quadrature(p).T
        assert abs(tq - period_by_simulation(p).T) / tq <= 1e-8


def _mpmath_period(mp, p, tp):
    """2 * integral of a / sqrt(2 (theta - V(a))) du over u = ln a, in 30 digits.

    The turning points u_t are tp refined by mpmath's secant on V(u) = theta,
    with 30 digits beyond those that V loses on an orbit of relative width
    w = (a_max - a_min)/a_max, about 2 log10(1/w).
    Each half runs from one u_t to the midpoint, in the offset d >= 0 with
    s = +-d pointing inward, where V(u_t) - V(u_t + s) is
    -lam s - (xi^2/2) e^(-2 u_t) expm1(-2s) at any d, however small.
    The integrand is scaled by e^(-u_max), and the sum back by e^(u_max), because
    mp.quad's error test is absolute: unscaled, an orbit of period 9e-88 came out
    8.7e-13 off relative.
    """
    lost = -2 * math.log10((tp.a_max - tp.a_min) / tp.a_max)
    with mp.workdps(30 + max(0, int(lost))):
        lam, xi2 = mp.mpf(p.lam), mp.mpf(p.xi) ** 2
        V = lambda u: lam * u + xi2 * mp.exp(-2 * u) / 2
        theta = mp.mpf(p.a1) ** 2 / 2 + V(mp.log(p.a0))
        lo, hi = (mp.findroot(lambda u: V(u) - theta, mp.log(a)) for a in tp)
    with mp.workdps(30):
        total = 0
        for u_t, inward in ((lo, 1), (hi, -1)):
            excess = lambda d: (-lam * inward * d
                                - xi2 * mp.exp(-2 * u_t) * mp.expm1(-2 * inward * d) / 2)
            total += mp.quad(lambda d: mp.exp(u_t + inward * d - hi) / mp.sqrt(2 * excess(d)),
                             [0, (hi - lo) / 2])
        return float(2 * total * mp.exp(hi))


class TestPeriodAgainstAnMpmathReference:
    """The quadrature's error stays within err_est over the `orbits` box, for
    wide orbits, and for orbits next to the steady state."""

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(lam=st.floats(math.log(0.25), math.log(4.0)).map(math.exp),
           xi=st.floats(math.log(0.25), math.log(4.0)).map(math.exp),
           a0=st.floats(0.5, 2.0), a1=st.floats(-2.5, 2.5))
    @example(*astuple(WIDE_ORBITS[0]))
    @example(*astuple(WIDE_ORBITS[1]))
    @example(1.0, 1.0, 1.0, 1e-8)  # without phi's series this was 1.7e-10 off
    @example(1.0, 1.0, 1.0, 1e-11)
    @example(1.0, 1.0, 1.0 + 3e-12, 0.0)
    # two wide pool orbits where the small-s form of the excess, used everywhere,
    # ran out of panels or divided by zero
    @example(0.2917266355434524, 2.4610975554598666, 0.6067221986520434, -2.135985281678403)
    @example(0.25131726453529085, 2.9456578703096774, 0.559442016300047, 1.4147370519609908)
    def test_the_error_is_within_its_estimate(self, lam, xi, a0, a1):
        mp = pytest.importorskip("mpmath")
        p = EmdenParams(lam, xi, a0, a1)
        assume(classify(p) is OrbitClass.PERIODIC)
        est = period_by_quadrature(p)
        assert abs(est.T - _mpmath_period(mp, p, turning_points(p))) <= est.err_est


    # the unit orbit, next to the steady state and at the default a1 = 1: the
    # estimate once claimed 1.4e-15 and 7.8e-14 for errors of 4.5e-14 and 9.6e-14
    # and an orbit of period 9.0e-88, on which the reference was 8.75e-13 of T off
    # (err_est 1.03e-15 of T) before it scaled its integrand
    @pytest.mark.parametrize("lam,xi,a0,a1", [
        (1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1e-5), (1.0, 1.0, 1.0, 1e-8),
        (1.0, 1.0, 1.0, 1e-11), (1.0, 1.0, 1.0 + 3e-12, 0.0),
        (0.8865, 1.80e-88, 1.91e-88, 1.7e-9),
    ])
    def test_the_estimate_bounds_the_error_of_the_unit_orbit(self, lam, xi, a0, a1):
        mp = pytest.importorskip("mpmath")
        p = EmdenParams(lam, xi, a0, a1)
        est = period_by_quadrature(p)
        assert abs(est.T - _mpmath_period(mp, p, turning_points(p))) <= est.err_est


class TestPeriodScaling:
    """Every periodic orbit is the lam = xi = 1 orbit from (a0/abar, a1/sqrt(lam))
    with its times scaled by abar/sqrt(lam), so the quadrature obeys
    T(p) = (abar/sqrt(lam)) T(1, 1, a0/abar, a1/sqrt(lam))."""

    # lam = 10^U(-4, 8) and xi = 10^U(-100, 4); an orbit starts near the steady
    # state at a0 = abar with a1 = +-10^U(-11, -3) sqrt(2 lam), or anywhere with
    # a0 = 10^U(-4, 4) and a1 = +-10^U(-4, 3)
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(log_lam=st.floats(-4.0, 8.0), log_xi=st.floats(-100.0, 4.0), near=st.booleans(),
           log_a0=st.floats(-4.0, 4.0), log_a1=st.floats(-4.0, 3.0),
           log_a1_near=st.floats(-11.0, -3.0), sign=st.sampled_from((-1.0, 1.0)))
    def test_the_period_scales_with_the_orbit(self, log_lam, log_xi, near, log_a0, log_a1,
                                             log_a1_near, sign):
        # measured worst over 1,784 orbits of this box: 1.14e-13
        lam, xi = 10.0**log_lam, 10.0**log_xi
        abar, v = xi / math.sqrt(lam), math.sqrt(lam)
        if near:
            a0, a1 = abar, sign * 10.0**log_a1_near * math.sqrt(2 * lam)
        else:
            a0, a1 = 10.0**log_a0, sign * 10.0**log_a1
        p, unit = EmdenParams(lam, xi, a0, a1), EmdenParams(1.0, 1.0, a0 / abar, a1 / v)
        assume(classify(p) is OrbitClass.PERIODIC and classify(unit) is OrbitClass.PERIODIC)
        try:
            T, T_unit = period_by_quadrature(p).T, period_by_quadrature(unit).T
        except DomainError:  # a turning point is not a float
            reject()
        assert abs(T - abar / v * T_unit) <= 5e-13 * T


class TestPeriodOfARun:
    """`period_by_simulation(p, cfg, run)` searches the falls of a' on `run` first."""

    def test_the_events_are_searched_on_the_run_itself(self, unit_orbit, monkeypatch):
        run = integrate_scale(unit_orbit, 200.0).trajectory
        gaps = np.diff(detect_events(run, 1)[:4])
        searched = []
        monkeypatch.setattr(emden, "detect_events",
                            lambda traj, k: searched.append(traj) or detect_events(traj, k))
        est = period_by_simulation(unit_orbit, IntegratorConfig(), run)
        assert est.T == float(np.mean(gaps))
        assert est.err_est == float(np.max(np.abs(gaps - est.T)))
        assert est.stats == IntegratorStats()  # the call integrated nothing
        # one search, on the whole run: no trajectory is cut from it
        (only,) = searched
        assert only is run

    def test_a_fall_on_the_last_node_of_the_run_counts_once(self, unit_orbit):
        p, cfg = unit_orbit, IntegratorConfig()
        start = OdeState(0.0, [p.a0, p.a1])
        first = detect_events(integrate(scale_rhs(p), start, 50.0, cfg, falls=(1, 1)), 1)[0]
        run = integrate(scale_rhs(p), start, first, cfg)
        assert run.ys[-2, 1] > 0
        run.ys[-1, 1] = 0.0  # a' of the last node was within rounding of zero
        est = period_by_simulation(p, cfg, run)
        # the run holds one fall, so the call integrates on to three more, in
        # Sundman time from (ln a, a', t) at the run's end ...
        start = OdeState(0.0, [math.log(run.ys[-1, 0]), 0.0, first])
        more = integrate(sundman_rhs(p), start, math.inf, cfg, falls=(1, 3))
        assert est.stats == more.stats
        # ... and the zero on the shared node is the first maximum, once
        gaps = np.diff([first, *more.evaluate(detect_events(more, 1)[:3])[:, 2]])
        assert est.T == float(np.mean(gaps))
        assert est.T == pytest.approx(UNIT_ORBIT_PERIOD, rel=1e-8)

    def test_a_run_far_short_of_its_falls_is_continued(self):
        # a_max near 4e5: the run of 300 linearized periods holds no fall, and
        # the period is about 1.1e6, far past the 256 linearized periods
        # (about 1,100) that once bounded the continuation
        p = EmdenParams(1.0, 1.0, 1.0, 5.0)
        run = integrate_scale(p, 300 * linearized_period(p)).trajectory
        est = period_by_simulation(p, IntegratorConfig(), run)
        assert est.stats.accepted > 0
        tq = period_by_quadrature(p).T
        assert tq > 256 * linearized_period(p)
        assert abs(est.T - tq) / tq <= 1e-6

    def test_an_orbit_9e22_wide_gets_its_period(self):
        # in t the step underflowed in the bounce near a_min; in Sundman time
        # the bounce takes as many steps as the swing out to a_max
        p = EmdenParams(1.0, 1.0, 1.0, 10.0)
        a_min, a_max = turning_points(p)
        assert a_max / a_min > 8e22
        tq = period_by_quadrature(p).T
        assert abs(period_by_simulation(p).T - tq) / tq <= 1e-8

    def test_a_halted_continuation_names_the_orbit(self):
        p = EmdenParams(1.0, 1.0, 1.0, 10.0)
        match = r"exceeded 50 steps .* in the period of EmdenParams\(.*a1=10\.0"
        with pytest.raises(StepBudgetExceeded, match=match) as exc:
            period_by_simulation(p, IntegratorConfig(max_steps=50))
        # the halt carries the Sundman-time run of (ln a, a', t)
        assert exc.value.trajectory.ys.shape[1] == 3
        assert exc.value.t == exc.value.trajectory.t_end

    def test_a_run_from_elsewhere_raises(self, unit_orbit):
        run = integrate_scale(unit_orbit, 10.0).trajectory
        late = Trajectory(run.ts + 1.0, run.ys, run.fs, run.cont)
        other = integrate_scale(EmdenParams(1.0, 1.0, 1.0, 0.5), 10.0).trajectory
        for bad in (late, other):
            with pytest.raises(DomainError, match="must start at t = 0"):
                period_by_simulation(unit_orbit, IntegratorConfig(), bad)


class TestIntegrateScale:
    def test_steady_stays_put(self):
        run = integrate_scale(
            EmdenParams(1.0, 1.0, 1.0, 0.0), 100.0, IntegratorConfig(rtol=1e-10)
        )
        assert run.touchdown_time is None
        assert np.abs(run.trajectory.ys[:, 0] - 1.0).max() <= 1e-10

    def test_touchdown_matches_energy_quadrature(self):
        run = integrate_scale(EmdenParams(1.0, 0.0, 1.0, 0.0), 10.0)
        # oracle: time = integral_0^1 da / sqrt(-2 ln a) = sqrt(pi/2)
        t_ref = math.sqrt(math.pi / 2)
        assert run.touchdown_time is not None
        assert abs(run.touchdown_time - t_ref) / t_ref <= 1e-6

    def test_a_rotating_halt_is_no_touchdown(self):
        # the bounce near a_min of about 1.9e-152 underflows the step in t; with xi != 0
        # a stays positive, so that halt is an error, not a touchdown at t = 0.652
        p = EmdenParams(4.0, 1e-150, 1.0, 0.1)
        with pytest.raises(StepUnderflow, match=r"in the scale factor of EmdenParams\(") as e:
            integrate_scale(p, 50.0)
        halt = e.value
        assert 0.65 < halt.t < 0.66 and halt.trajectory.t_end == halt.t
        assert str(p) in str(halt) and halt.trajectory.y_end[0] < 1e-6

    def test_global_growth_for_negative_lam(self):
        run = integrate_scale(EmdenParams(-1.0, 1.0, 1.0, 0.0), 100.0)
        assert run.touchdown_time is None
        a = run.trajectory.ys[:, 0]
        assert run.trajectory.t_end == 100.0
        assert a[-1] > 10.0
        # monotone growth after the initial transient
        late = a[len(a) // 10 :]
        assert np.all(np.diff(late) > 0)

    def test_blowup_monotone_decrease(self):
        run = integrate_scale(EmdenParams(1.0, 0.0, 1.0, -0.1), 10.0)
        a = run.trajectory.ys[:, 0]
        assert run.touchdown_time is not None
        assert np.all(np.diff(a) < 0)

    def test_energy_conservation_long_run(self, unit_orbit):
        run = integrate_scale(
            unit_orbit, 100.0, IntegratorConfig(rtol=1e-10, atol=1e-12)
        )
        th = energy_level(unit_orbit)
        assert energy_drift(run.trajectory, unit_orbit) <= 1e-8 * max(1.0, abs(th))

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(lam=st.floats(0.25, 4.0), xi=st.floats(0.25, 4.0), a0=st.floats(0.5, 2.0),
           a1=st.floats(-2.5, 2.5))
    def test_energy_is_conserved_over_the_orbits_box(self, lam, xi, a0, a1):
        # the box of the benchmark's orbits workload, wide orbits included
        p = EmdenParams(lam, xi, a0, a1)
        assume(classify(p) is not OrbitClass.STEADY)
        run = integrate_scale(p, 20.0, TIGHT_CONFIG)
        assert energy_drift(run.trajectory, p) / max(1.0, abs(energy_level(p))) <= 1e-9

    def test_confinement_to_turning_points(self, unit_orbit):
        run = integrate_scale(
            unit_orbit, 50.0, IntegratorConfig(rtol=1e-10, atol=1e-12)
        )
        tp = turning_points(unit_orbit)
        a = run.trajectory.ys[:, 0]
        assert a.min() >= tp.a_min - 1e-8
        assert a.max() <= tp.a_max + 1e-8

    def test_half_period_connects_turning_points(self, unit_orbit):
        tp = turning_points(unit_orbit)
        T = period_by_quadrature(unit_orbit).T
        run = integrate_scale(
            EmdenParams(1.0, 1.0, tp.a_min, 0.0),
            T / 2,
            IntegratorConfig(rtol=1e-12, atol=1e-14),
        )
        a_end, adot_end = run.trajectory.y_end
        assert a_end == pytest.approx(tp.a_max, abs=1e-7)
        assert adot_end == pytest.approx(0.0, abs=1e-7)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            EmdenParams(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            EmdenParams(math.nan, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate_scale(EmdenParams(1.0, 1.0, 1.0, 0.0), -1.0)
