"""Integrator, event location, and quadrature against closed-form references."""

import math
import warnings

import numpy as np
import pytest

from eulerpoisson.errors import (
    DomainError,
    NoConvergence,
    StateBlowup,
    StepUnderflow,
)
from eulerpoisson.emden import (
    EmdenParams,
    energy_level,
    linearized_period,
    period_by_quadrature,
    potential,
    scale_rhs,
    turning_points,
)
from eulerpoisson.goldreich_weber import GWParams, solve_gw_profile
from eulerpoisson.liouville import LiouvilleParams, solve_profile
from eulerpoisson.ode import (
    _EVENT_SUBSAMPLES,
    EventSpec,
    IntegratorConfig,
    IntegratorStats,
    OdeState,
    Trajectory,
    _refine_crossing,
    concat_trajectories,
    detect_events,
    integrate,
    quad_adaptive,
    quad_singular,
)

# the ten orbits of acceptance criterion 03
_ACCEPTANCE_03_ORBITS = [EmdenParams(1.0, 1.0, 1.0, 1.0)] + [
    EmdenParams(lam, xi, 1.0, 1.0) for lam in (0.5, 1.0, 2.0) for xi in (0.5, 1.0, 2.0)
]


def rhs_harmonic(t, y):
    return np.array([y[1], -y[0]])


class TestIntegrate:
    def test_harmonic_oscillator_full_period(self):
        traj = integrate(
            rhs_harmonic,
            OdeState(0.0, [1.0, 0.0]),
            2 * math.pi,
            IntegratorConfig(rtol=1e-10, atol=1e-12),
        )
        assert np.abs(traj.y_end - np.array([1.0, 0.0])).max() <= 1e-8

    def test_steady_scale_equation_is_exact(self):
        # a'' = -1/a + 1/a^3 from (1, 0): the right side vanishes identically
        rhs = lambda t, y: np.array([y[1], -1.0 / y[0] + 1.0 / y[0] ** 3])
        traj = integrate(rhs, OdeState(0.0, [1.0, 0.0]), 50.0, IntegratorConfig())
        assert np.abs(traj.ys[:, 0] - 1.0).max() == 0.0

    def test_touchdown_halts_with_finite_time(self):
        # a'' = -1/a collapses; fine fixed-step reference run of the same
        # system provides the independent touchdown estimate
        def rhs(t, y):
            a = y[0]
            if a <= 0:
                return np.array([math.nan, math.nan])
            return np.array([y[1], -1.0 / a])

        with pytest.raises((StateBlowup, StepUnderflow)) as excinfo:
            integrate(rhs, OdeState(0.0, [1.0, 0.0]), 10.0, IntegratorConfig())
        t_halt = excinfo.value.t
        t_ref = _touchdown_reference_rk4(h=2e-5)
        assert math.isfinite(t_halt)
        assert abs(t_halt - t_ref) <= 1e-6
        # partial trajectory is usable
        traj = excinfo.value.trajectory
        assert traj.t_end == pytest.approx(t_halt, abs=1e-9)

    def test_error_never_increases_under_tolerance_halving(self):
        cases = [
            (rhs_harmonic, [1.0, 0.0], 8 * math.pi, np.array([1.0, 0.0])),
            (lambda t, y: (-y[0],), [1.0], 5.0, np.array([math.exp(-5.0)])),
        ]
        for rhs, y0, t_end, exact in cases:
            prev = math.inf
            for k in range(9):
                rtol = 1e-6 / 2**k
                traj = integrate(
                    rhs, OdeState(0.0, y0), t_end,
                    IntegratorConfig(rtol=rtol, atol=rtol * 1e-2),
                )
                err = float(np.abs(traj.y_end - exact).max())
                assert err <= prev
                prev = err

    def test_dense_output_reproduces_nodes_bitwise(self):
        traj = integrate(rhs_harmonic, OdeState(0.0, [1.0, 0.0]), 10.0, IntegratorConfig())
        for i in range(traj.n_nodes):
            assert np.array_equal(traj.state_at(float(traj.ts[i])), traj.ys[i])

    def test_dense_output_matches_solution_between_nodes(self):
        traj = integrate(
            rhs_harmonic, OdeState(0.0, [1.0, 0.0]), 10.0,
            IntegratorConfig(rtol=1e-10, atol=1e-12),
        )
        for t in np.linspace(0.3, 9.7, 57):
            y = traj.state_at(float(t))
            assert abs(y[0] - math.cos(t)) < 1e-8

    def test_step_budget(self):
        with pytest.raises(Exception) as excinfo:
            integrate(
                rhs_harmonic, OdeState(0.0, [1.0, 0.0]), 1000.0,
                IntegratorConfig(max_steps=10),
            )
        assert "steps" in str(excinfo.value)

    def test_requires_forward_time(self):
        with pytest.raises(DomainError):
            integrate(rhs_harmonic, OdeState(1.0, [1.0, 0.0]), 0.5)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            IntegratorConfig(rtol=0.0)
        with pytest.raises(DomainError):
            IntegratorConfig(h_init=1e-3, h_max=1e-4)
        with pytest.raises(DomainError):
            IntegratorConfig(max_steps=0)
        with pytest.raises(DomainError):
            OdeState(0.0, [math.inf])


# Linear systems y' = A y with closed-form solutions, one per state size.
_LINEAR_SYSTEMS = [
    pytest.param(
        lambda t, y: (-2.0 * y[0],),
        [1.5],
        lambda t: [1.5 * math.exp(-2.0 * t)],
        id="1-component decay",
    ),
    pytest.param(
        lambda t, y: (y[1], -4.0 * y[0]),
        [1.0, 0.0],
        lambda t: [math.cos(2.0 * t), -2.0 * math.sin(2.0 * t)],
        id="2-component oscillator",
    ),
    pytest.param(
        lambda t, y: (-y[0], y[0] - 2.0 * y[1], y[1] - 3.0 * y[2]),
        [1.0, 0.0, 0.0],
        lambda t: [
            math.exp(-t),
            math.exp(-t) - math.exp(-2.0 * t),
            0.5 * math.exp(-t) - math.exp(-2.0 * t) + 0.5 * math.exp(-3.0 * t),
        ],
        id="3-component cascade",
    ),
]


class TestStepper:
    @pytest.mark.parametrize("rhs,y0,exact", _LINEAR_SYSTEMS)
    def test_any_state_size(self, rhs, y0, exact):
        traj = integrate(rhs, OdeState(0.0, y0), 6.0, IntegratorConfig())
        assert traj.ys.shape == (traj.n_nodes, len(y0))
        assert traj.fs.shape == traj.ys.shape
        for t, y in zip(traj.ts, traj.ys):
            assert np.abs(y - exact(t)).max() <= 1e-8
        assert traj.state_at(3.3).shape == (len(y0),)

    @pytest.mark.parametrize(
        "rhs,y0",
        [
            pytest.param(scale_rhs(EmdenParams(1.0, 1.0, 1.0, 1.0)), [1.0, 1.0],
                         id="unit Emden orbit"),
            pytest.param(lambda t, y: (y[1], -y[0]), [1.0, 0.0], id="oscillator"),
        ],
    )
    def test_agrees_with_scipy_dop853(self, rhs, y0):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        traj = integrate(rhs, OdeState(0.0, y0), 30.0, IntegratorConfig(rtol=1e-12, atol=1e-14))
        ref = scipy_integrate.solve_ivp(
            lambda t, y: list(rhs(t, tuple(y))), (0.0, 30.0), y0,
            method="DOP853", rtol=1e-12, atol=1e-14, t_eval=traj.ts,
        )
        assert ref.success
        assert np.abs(ref.y.T - traj.ys).max() <= 1e-9

    def test_profile_node_count_is_stable(self):
        # guards the step controller: the seed took 4,031 nodes here
        prof = solve_profile(LiouvilleParams(K=1.0, lam=1.0, alpha=0.0), 20.0)
        assert abs(prof.traj.n_nodes - 4031) <= 0.01 * 4031

    def test_stats_on_normal_run(self):
        traj = integrate(rhs_harmonic, OdeState(0.0, [1.0, 0.0]), 10.0)
        st = traj.stats
        assert st.accepted == traj.n_nodes - 1
        assert st.rhs_calls == 1 + 6 * (st.accepted + st.rejected)
        assert traj.truncated(5.0).stats == st

    def test_stats_sum_over_concatenated_parts(self):
        first = integrate(rhs_harmonic, OdeState(0.0, [1.0, 0.0]), 3.0)
        second = integrate(rhs_harmonic, OdeState(first.t_end, first.y_end), 7.0)
        joined = concat_trajectories([first, second])
        assert joined.stats == first.stats + second.stats
        assert joined.stats.accepted == joined.n_nodes - 1

    @pytest.mark.parametrize(
        "rhs,t_sing",
        [
            pytest.param(lambda t, y: (1.0 / float(t < 1.0),), 1.0,
                         id="ZeroDivisionError"),
            pytest.param(lambda t, y: (1e-300 * math.exp(800.0 * t),),
                         1024 * math.log(2.0) / 800.0, id="OverflowError"),
        ],
    )
    def test_arithmetic_error_rejects_the_step(self, rhs, t_sing):
        with pytest.raises(StepUnderflow) as excinfo:
            integrate(rhs, OdeState(0.0, [0.0]), 2.0)
        halt = excinfo.value
        assert 0.0 <= t_sing - halt.t <= 1e-9
        st = halt.trajectory.stats
        assert st.rejected > 0
        assert st.accepted == halt.trajectory.n_nodes - 1
        # a stage that raises stops the attempt, so calls fall short of 6 each
        assert 1 < st.rhs_calls < 1 + 6 * (st.accepted + st.rejected)

    def test_hand_built_trajectory_has_zero_stats(self):
        traj = integrate(rhs_harmonic, OdeState(0.0, [1.0, 0.0]), 1.0)
        rebuilt = type(traj)(traj.ts, traj.ys, traj.fs)
        assert rebuilt.stats == IntegratorStats()

    def test_rhs_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda t, y: (y[0],), OdeState(0.0, [1.0, 0.0]), 1.0)


def _touchdown_reference_rk4(h):
    """Fixed-step RK4 on a'' = -1/a down to tiny a, then the energy-based
    remainder a/sqrt(-2 ln a); independent of the adaptive integrator."""
    t, a, v = 0.0, 1.0, 0.0

    def acc(a):
        return -1.0 / a

    while a > 1e-8:
        k1a, k1v = v, acc(a)
        k2a, k2v = v + h / 2 * k1v, acc(a + h / 2 * k1a)
        k3a, k3v = v + h / 2 * k2v, acc(a + h / 2 * k2a)
        k4a, k4v = v + h * k3v, acc(a + h * k3a)
        a_new = a + h / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
        v_new = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if a_new <= 1e-8:
            # linear interpolation to the 1e-8 level, then energy remainder
            frac = (a - 1e-8) / (a - a_new)
            t += h * frac
            a = 1e-8
            break
        t, a, v = t + h, a_new, v_new
    return t + a / math.sqrt(-2.0 * math.log(a))


class TestEvents:
    def test_sine_zero_falling(self):
        traj = integrate(
            rhs_harmonic, OdeState(0.0, [0.0, 1.0]), 7.0,
            IntegratorConfig(rtol=1e-12, atol=1e-14),
        )
        events = detect_events(traj, EventSpec(lambda t, y: y[0], "falling"))
        assert len(events) == 1
        assert events[0] == pytest.approx(math.pi, abs=1e-8)

    def test_direction_filter(self):
        traj = integrate(
            rhs_harmonic, OdeState(0.0, [0.0, 1.0]), 10.0,
            IntegratorConfig(rtol=1e-12, atol=1e-14),
        )
        rising = detect_events(traj, EventSpec(lambda t, y: y[0], "rising"))
        falling = detect_events(traj, EventSpec(lambda t, y: y[0], "falling"))
        both = detect_events(traj, EventSpec(lambda t, y: y[0], "any"))
        # sin zeros: 0 (rising), pi (falling), 2pi (rising), 3pi (falling)
        assert [pytest.approx(v, abs=1e-8) for v in rising] == [0.0, 2 * math.pi]
        assert [pytest.approx(v, abs=1e-8) for v in falling] == [math.pi, 3 * math.pi]
        assert len(both) == 4

    def test_constant_event_fn_yields_nothing(self):
        traj = integrate(rhs_harmonic, OdeState(0.0, [1.0, 0.0]), 5.0)
        assert detect_events(traj, EventSpec(lambda t, y: 1.0, "any")) == []

    def test_idempotent(self):
        traj = integrate(rhs_harmonic, OdeState(0.0, [0.0, 1.0]), 20.0)
        spec = EventSpec(lambda t, y: y[0], "any")
        assert detect_events(traj, spec) == detect_events(traj, spec)


def _detect_events_reference(traj, spec):
    """detect_events as a scalar loop: eight state_at calls per segment.

    This was the implementation before the event function was evaluated on
    all segments at once; the vectorised one must return the same times,
    bit for bit.
    """
    g = lambda t: float(spec.event_fn(t, traj.state_at(t)))
    times = []
    for i in range(traj.n_nodes - 1):
        a, b = traj.ts[i], traj.ts[i + 1]
        samples = np.linspace(a, b, _EVENT_SUBSAMPLES)
        vals = [g(t) for t in samples]
        for (ta, ga), (tb, gb) in zip(
            zip(samples, vals), zip(samples[1:], vals[1:])
        ):
            if ga == 0.0:
                dirn = "falling" if gb < 0 else "rising" if gb > 0 else None
                if dirn is not None and spec.direction in ("any", dirn):
                    times.append(float(ta))
            elif ga * gb < 0:
                dirn = "falling" if ga > 0 else "rising"
                if spec.direction in ("any", dirn):
                    times.append(_refine_crossing(g, ta, ga, tb, gb, spec.refine_tol))
    tl = traj.ts[-1]
    if traj.n_nodes > 1 and g(tl) == 0.0:
        gprev = g(tl - min(spec.refine_tol, (tl - traj.ts[0]) * 1e-6))
        dirn = "falling" if gprev > 0 else "rising" if gprev < 0 else None
        if dirn is not None and spec.direction in ("any", dirn):
            times.append(float(tl))
    times.sort()
    span = traj.t_end - traj.t_start
    merged = []
    for t in times:
        if not merged or t - merged[-1] > max(10 * spec.refine_tol, 1e-14 * span):
            merged.append(t)
    return merged


def _assert_matches_reference(traj, spec):
    events = detect_events(traj, spec)
    assert events == _detect_events_reference(traj, spec)
    return events


class TestEventsMatchScalarReference:
    @pytest.mark.parametrize("direction", ["any", "rising", "falling"])
    def test_harmonic_oscillator(self, direction):
        traj = integrate(
            rhs_harmonic, OdeState(0.0, [0.0, 1.0]), 10.0,
            IntegratorConfig(rtol=1e-12, atol=1e-14),
        )
        for fn in (lambda t, y: y[0], lambda t, y: y[1]):
            events = _assert_matches_reference(traj, EventSpec(fn, direction))
            assert events

    @pytest.mark.parametrize("p", _ACCEPTANCE_03_ORBITS, ids=str)
    def test_acceptance_03_orbits_chunked_like_period_by_simulation(self, p):
        cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
        spec = EventSpec(lambda t, y: y[1], direction="falling", refine_tol=1e-12)
        chunk = 4.0 * linearized_period(p)
        state = OdeState(0.0, np.array([p.a0, p.a1]))
        found = 0
        while found < 4:
            traj = integrate(scale_rhs(p), state, state.t + chunk, cfg)
            found += len(_assert_matches_reference(traj, spec))
            state = OdeState(traj.t_end, traj.y_end)

    def test_goldreich_weber_profile(self):
        prof = solve_gw_profile(GWParams(N=3, K=1.0, lam=-0.25, alpha_center=1.0))
        assert prof.s_mu is not None
        # the solver's own zero spec, and a level crossed inside the support
        _assert_matches_reference(prof.traj, EventSpec(lambda s, y: y[0], "falling", 1e-13))
        for direction in ("any", "falling"):
            spec = EventSpec(lambda s, y: y[0] - 0.5, direction, refine_tol=1e-13)
            assert _assert_matches_reference(prof.traj, spec)

    @pytest.mark.parametrize("direction", ["any", "rising", "falling"])
    def test_event_exactly_on_a_node(self, direction):
        traj = integrate(rhs_harmonic, OdeState(0.0, [0.0, 1.0]), 5.0)
        k = traj.n_nodes // 2
        t_node, level = float(traj.ts[k]), float(traj.ys[k, 0])
        assert traj.ys[k, 1] < 0  # y[0] = sin(t) is falling through the node
        # each function is exactly zero at the node: one through t, one through y
        for fn, dirn in ((lambda t, y: t - t_node, "rising"),
                         (lambda t, y: y[0] - level, "falling")):
            events = _assert_matches_reference(traj, EventSpec(fn, direction))
            assert (t_node in events) == (direction in ("any", dirn))

    @pytest.mark.parametrize("direction", ["any", "rising", "falling"])
    def test_trajectory_ending_on_a_zero(self, direction):
        traj = integrate(rhs_harmonic, OdeState(0.0, [0.0, 1.0]), 5.0)
        t_end = traj.t_end
        events = _assert_matches_reference(traj, EventSpec(lambda t, y: t - t_end, direction))
        assert events == ([] if direction == "falling" else [t_end])

    def test_single_node_trajectory_has_no_events(self):
        traj = Trajectory([0.0], [[1.0, 0.0]], [[0.0, -1.0]])
        spec = EventSpec(lambda t, y: y[0] - 1.0, "any")
        assert _assert_matches_reference(traj, spec) == []


class TestEvaluate:
    @pytest.fixture(scope="class")
    def traj(self):
        return integrate(
            scale_rhs(EmdenParams(1.0, 1.0, 1.0, 1.0)), OdeState(0.0, [1.0, 1.0]), 20.0
        )

    def test_equals_state_at_bitwise(self, traj):
        interiors = 0.5 * (traj.ts[:-1] + traj.ts[1:])
        rng = np.random.default_rng(7)
        queries = np.concatenate([
            traj.ts, interiors, rng.uniform(traj.t_start, traj.t_end, 300), [traj.t_end],
        ])
        dense = traj.evaluate(queries)
        assert dense.shape == (len(queries), 2)
        for t, y in zip(queries.tolist(), dense):
            assert np.array_equal(y, traj.state_at(t))
        # node times return the stored states themselves
        assert np.array_equal(traj.evaluate(traj.ts), traj.ys)

    def test_any_shape_gets_a_trailing_component_axis(self, traj):
        grid = np.linspace(traj.ts[:-1], traj.ts[1:], 5, axis=1)
        dense = traj.evaluate(grid)
        assert dense.shape == grid.shape + (2,)
        assert np.array_equal(dense[3, 2], traj.state_at(float(grid[3, 2])))
        assert np.array_equal(traj.evaluate(traj.t_end), traj.ys[-1])

    @pytest.mark.parametrize("bad", [-1e-9, 20.0 + 1e-9, math.nan])
    def test_outside_the_range_raises(self, traj, bad):
        with pytest.raises(DomainError):
            traj.evaluate(np.array([1.0, bad]))
        # the scalar entry points reject the same times, NaN included
        with pytest.raises(DomainError):
            traj.state_at(bad)
        with pytest.raises(DomainError):
            traj.derivative_at(bad)

    def test_single_node(self):
        traj = Trajectory([2.0], [[1.0, 3.0]], [[0.0, 0.0]])
        assert np.array_equal(traj.evaluate(np.array([2.0, 2.0])), [[1.0, 3.0]] * 2)
        with pytest.raises(DomainError):
            traj.evaluate(np.array([2.5]))


class TestQuadrature:
    def test_inverse_sqrt(self):
        assert quad_singular(lambda x: x**-0.5, 0.0, 1.0, 1e-10) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_beta_type_double_singularity(self):
        val = quad_singular(lambda x: (x * (1 - x)) ** -0.5, 0.0, 1.0, 1e-10)
        assert val == pytest.approx(math.pi, abs=1e-10)

    @pytest.mark.parametrize(
        "f,lo,hi,exact",
        [
            (math.sin, 0.0, math.pi, 2.0),
            (math.exp, 0.0, 1.0, math.e - 1.0),
            (lambda x: x**3 - 2 * x, -1.0, 2.0, 15 / 4 - 3.0),
        ],
    )
    def test_smooth_agrees_with_composite_gauss(self, f, lo, hi, exact):
        tol = 1e-10
        val = quad_singular(f, lo, hi, tol)
        ref = _composite_gauss7(f, lo, hi, panels=64)
        assert abs(val - ref) <= 10 * tol
        assert abs(val - exact) <= 10 * tol

    def test_zero_width(self):
        assert quad_singular(math.sin, 1.0, 1.0) == 0.0

    def test_reversed_limits_rejected(self):
        with pytest.raises(DomainError):
            quad_singular(math.sin, 1.0, 0.0)

    def test_no_convergence_on_pathological_integrand(self):
        with pytest.raises(NoConvergence):
            quad_adaptive(lambda x: math.sin(1.0 / x) / x, 1e-12, 1.0, 1e-14)


class TestQuadratureAgainstScipy:
    """scipy's QUADPACK (QAGS: extrapolation, no substitution) as an
    independent oracle; scipy is a test-only dependency."""

    @pytest.mark.parametrize("p", _ACCEPTANCE_03_ORBITS, ids=str)
    def test_period_by_quadrature(self, p):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        tp, th = turning_points(p), energy_level(p)

        def integrand(a):
            ex = th - potential(a, p)
            return 1.0 / math.sqrt(2.0 * ex) if ex > 0.0 else 0.0

        with warnings.catch_warnings():
            # QAGS may warn that it stalled short of epsrel=1e-12
            warnings.simplefilter("ignore", scipy_integrate.IntegrationWarning)
            half, _ = scipy_integrate.quad(
                integrand, tp.a_min, tp.a_max, epsabs=0.0, epsrel=1e-12, limit=200
            )
        T = period_by_quadrature(p).T
        assert abs(T - 2.0 * half) <= 1e-9 * T

    @pytest.mark.parametrize(
        "g,exact",
        [
            pytest.param(lambda x: x**-0.5, 2.0, id="inverse sqrt"),
            pytest.param(lambda x: (x * (1 - x)) ** -0.5, math.pi, id="beta type"),
        ],
    )
    def test_singular_integrals(self, g, exact):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        ref, err = scipy_integrate.quad(g, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)
        assert abs(ref - exact) <= 1e-11
        assert abs(quad_singular(g, 0.0, 1.0, 1e-10) - ref) <= 1e-10


_G7_X = (
    0.0,
    0.4058451513773972,
    0.7415311855993945,
    0.9491079123427585,
)
_G7_W = (
    0.4179591836734694,
    0.3818300505051189,
    0.2797053914892766,
    0.1294849661688697,
)


def _composite_gauss7(f, lo, hi, panels):
    total = 0.0
    edges = np.linspace(lo, hi, panels + 1)
    for a, b in zip(edges, edges[1:]):
        c, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * _G7_W[0] * f(c)
        for x, w in zip(_G7_X[1:], _G7_W[1:]):
            total += half * w * (f(c - half * x) + f(c + half * x))
    return total
