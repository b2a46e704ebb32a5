"""Integrator, event location, and quadrature against closed-form references."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WIDE_ORBITS
from eulerpoisson import ode
from eulerpoisson.errors import (
    DomainError,
    EulerPoissonError,
    NoConvergence,
    StateBlowup,
    StepBudgetExceeded,
    StepUnderflow,
)
from eulerpoisson.emden import (
    EmdenParams,
    energy_level,
    integrate_scale,
    linearized_period,
    period_by_quadrature,
    period_by_simulation,
    potential,
    scale_rhs,
    turning_points,
)
from eulerpoisson.goldreich_weber import GWParams, alpha_const, solve_gw_profile
from eulerpoisson.liouville import LiouvilleParams, solve_profile
from eulerpoisson.ode import (
    _A,
    _C,
    _D,
    _E3,
    _E5,
    TIGHT_CONFIG,
    IntegratorConfig,
    IntegratorStats,
    OdeState,
    Trajectory,
    _first_step,
    _step_source,
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
            pytest.param(lambda t, y: (y[1] * y[2], -y[0] * y[2], -0.51 * y[0] * y[1]),
                         [0.0, 1.0, 1.0], id="rigid body"),
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
        # guards the step controller: 191 DOP853 nodes from s = 0 here (194
        # from a series start at s = 1e-6; 188 with a fixed 1e-4 first step,
        # before the first step was derived from the start state; 1,907 with
        # the DP5 pair, 4,031 when a 0.005 cap made up for a cubic-Hermite
        # dense output)
        prof = solve_profile(LiouvilleParams(K=1.0, lam=1.0, alpha=0.0), 20.0)
        assert abs(prof.traj.n_nodes - 191) <= 0.01 * 191

    def test_stats_on_normal_run(self):
        traj = integrate(rhs_harmonic, OdeState(0.0, [1.0, 0.0]), 10.0)
        st = traj.stats
        assert st.accepted == traj.n_nodes - 1
        # 11 calls per attempt, then the FSAL and three dense-output stages
        assert st.rhs_calls == 1 + 11 * (st.accepted + st.rejected) + 4 * st.accepted

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
        # a stage that raises stops the attempt, so calls fall short of
        # 11 per attempt and 4 more per accepted step
        assert 1 < st.rhs_calls < 1 + 11 * (st.accepted + st.rejected) + 4 * st.accepted

    def test_hand_built_trajectory_has_zero_stats(self):
        traj = integrate(rhs_harmonic, OdeState(0.0, [1.0, 0.0]), 1.0)
        rebuilt = type(traj)(traj.ts, traj.ys, traj.fs)
        assert rebuilt.stats == IntegratorStats()

    def test_rhs_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda t, y: (y[0],), OdeState(0.0, [1.0, 0.0]), 1.0)


def _oscillator_with(late, at):
    """The oscillator's rhs, `late(y)` on the calls numbered in `at`; the calls' times."""
    calls = []

    def rhs(t, y):
        calls.append(t)
        return late(y) if at(len(calls)) else (y[1], -y[0])
    return rhs, calls


def _digest(traj):
    h = hashlib.sha256()
    for a in (traj.ts, traj.ys, traj.fs, traj.cont):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class TestGeneratedStep:
    """The straight-line attempt that `integrate` generates per state size."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_source_compiles_without_zip_or_comprehension(self, n):
        src = _step_source(n)
        compile(src, "<attempt>", "exec")
        assert "zip" not in src and " for " not in src
        assert all(f"k16_{j}" in src for j in range(n)) and f"k16_{n}" not in src

    @pytest.mark.parametrize("failure", ["ZeroDivisionError", "NaN"])
    @pytest.mark.parametrize("stage", range(2, 17))
    def test_a_failed_stage_counts_its_calls(self, stage, failure):
        def late(y):
            if failure == "ZeroDivisionError":
                raise ZeroDivisionError
            return (math.nan, y[0])

        # call 1 is k1, so call `stage` is that stage of the first attempt
        rhs, calls = _oscillator_with(late, lambda i: i == stage)
        traj = integrate(rhs, OdeState(0.0, [1.0, 0.0]), 1.0)
        st = traj.stats
        assert st.rhs_calls == len(calls)
        # the failed attempt made stage - 1 calls; the others 11, plus 4 if accepted
        attempts = st.accepted + st.rejected
        assert st.rhs_calls == 1 + (stage - 1) + 11 * (attempts - 1) + 4 * st.accepted
        assert st.rejected >= 1 and traj.t_end == 1.0

    @pytest.mark.parametrize("late,got", [(lambda y: (y[1], -y[0], 0.0), 3),
                                          (lambda y: (y[1],), 1)], ids=["longer", "shorter"])
    def test_an_rhs_changing_its_length_raises_domain_error(self, late, got):
        rhs, calls = _oscillator_with(late, lambda i: i >= 5)
        with pytest.raises(DomainError, match=f"rhs returned {got} components for a 2-state") as e:
            integrate(rhs, OdeState(0.0, [1.0, 0.0]), 1.0)
        assert str(e.value).endswith(f"at t={calls[-1]!r}")

    def test_an_rhs_value_error_is_its_own(self):
        # math.log(-1) raises ValueError, which is neither a length change nor a rejection
        rhs, _ = _oscillator_with(lambda y: (math.log(-1.0), 0.0), lambda i: i >= 5)
        with pytest.raises(ValueError, match="math domain error"):
            integrate(rhs, OdeState(0.0, [1.0, 0.0]), 1.0)

    @pytest.mark.parametrize("solve,digest", [
        pytest.param(lambda: integrate_scale(EmdenParams(1, 1, 1, 1), 50).trajectory,
                     "be5b223f3588fee9a99df8b9b45037b5af1c76cb6093a65f29c5d3fdd4e9b836",
                     id="unit-scale-factor"),
        pytest.param(lambda: solve_profile(LiouvilleParams(K=1.0, lam=1.0, alpha=0.0), 20.0).traj,
                     "819ee6e4035b44e4240585e55598639cfd241ff30a723758cf158cb2ab7d0012",
                     id="default-profile"),
        pytest.param(lambda: solve_gw_profile(GWParams(3, 1.0, -0.2, 1.0)).traj,
                     "0918e2f3e2c901e3298c9682636bfdee946d7e7b432a506da77aa90cd1f93497",
                     id="gw-profile-N3"),
        pytest.param(lambda: solve_gw_profile(GWParams(5, 1.0, -0.2, 1.0)).traj,
                     "0a8851d074ea833708d7ca6d8b7b95f8ab4f60a68ac8705c14e24126920d5c46",
                     id="gw-profile-N5"),
    ])
    def test_nodes_and_rows_are_bitwise_pinned(self, solve, digest):
        # recorded with the hand-unrolled stepper this generator replaced; the
        # profile's digest again when the profile began to start at s = 0; the
        # GW digests before both profiles shared one radial equation, and N = 5
        # again when its gravity coefficient gained the factor N - 2 (1 at N = 3)
        assert _digest(solve()) == digest


def _zero_start(monkeypatch):
    # y0 = 0 and k1 = 0: both norms vanish, so the first step is the fixed 1e-6
    traj = integrate(lambda t, y: (0.0, 0.0), OdeState(0.0, [0.0, 0.0]), 1.0)
    return traj, 1e-6


def _step_past_the_end(monkeypatch):
    # 0.01 * |y0| / |k1| = 1e4 against a span of 0.2: one step, ending on t_end
    assert _first_step((1.0,), (1e-6,), 0.2, IntegratorConfig()) == 0.2
    traj = integrate(lambda t, y: (1e-6,), OdeState(0.1, [1.0]), 0.3)
    assert traj.n_nodes == 2
    return traj, 0.3


def _restart(monkeypatch):
    # a second run of the unit orbit from a node in the middle of a first one
    p = EmdenParams(1.0, 1.0, 1.0, 1.0)
    first = integrate(scale_rhs(p), OdeState(0.0, [p.a0, p.a1]), 4.0 * linearized_period(p),
                      TIGHT_CONFIG)
    mid = first.n_nodes // 2
    second = integrate(scale_rhs(p), OdeState(first.ts[mid], first.ys[mid]), first.t_end,
                       TIGHT_CONFIG)
    h = _first_step(second.ys[0].tolist(), second.fs[0].tolist(),
                    second.t_end - second.t_start, TIGHT_CONFIG)
    assert h != first.ts[1] - first.ts[0]
    return second, second.t_start + h


class TestFirstStep:
    """The first step is Hairer's first estimate from y0 and k1, at no rhs call."""

    @pytest.mark.parametrize("case", [_zero_start, _step_past_the_end, _restart],
                             ids=["zero-start", "past-the-end", "restart"])
    def test_first_node_is_one_derived_step_away(self, case, monkeypatch):
        traj, t1 = case(monkeypatch)
        assert traj.ts[1] == t1
        st = traj.stats
        assert st.rhs_calls == 1 + 11 * (st.accepted + st.rejected) + 4 * st.accepted

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(lam=st.floats(0.25, 4.0), xi=st.one_of(st.just(0.0), st.floats(0.25, 4.0)),
           a0=st.floats(0.5, 2.0), a1=st.floats(-2.5, 2.5),
           rtol=st.sampled_from([1e-300, 1e-14, 1e-10, 1e-6]),
           atol=st.sampled_from([0.0, 1e-300, 1e-14, 1e-10, 1e-6]))
    def test_any_tolerance_over_the_orbits_box(self, lam, xi, a0, a1, rtol, atol):
        # the box of the benchmark's orbits workload, collapsing orbits included
        cfg = IntegratorConfig(rtol=rtol, atol=atol, max_steps=40)
        rhs = scale_rhs(EmdenParams(lam, xi, a0, a1))
        h = _first_step((a0, a1), rhs(0.0, (a0, a1)), 50.0, cfg)
        assert math.isfinite(h) and 0.0 < h <= 50.0
        calls, failed = [], []

        def counted(t, y):
            calls.append(t)
            try:
                k = rhs(t, y)
            except ArithmeticError:
                failed.append(t)
                raise
            failed.extend(v for v in k if not math.isfinite(v))
            return k

        try:
            traj = integrate(counted, OdeState(0.0, [a0, a1]), 50.0, cfg)
        except EulerPoissonError as exc:
            traj = exc.trajectory
        st = traj.stats
        assert st.rhs_calls == len(calls)
        if not failed:  # a failed stage ends its attempt early
            assert st.rhs_calls == 1 + 11 * (st.accepted + st.rejected) + 4 * st.accepted
        if st.accepted:
            assert traj.ts[1] <= h  # the first attempt or a shorter retry


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


def _negated(traj):
    """The trajectory of -y: exact, because the dense kernel is linear in its
    data, so its falling zeros are the rising zeros of the original."""
    return Trajectory(traj.ts, -traj.ys, -traj.fs, -traj.cont)


def _shifted(traj, level):
    """The trajectory of y[0] - level: the Hermite weights of the end states
    sum to one, so a constant shift of the states shifts the dense output."""
    return Trajectory(traj.ts, traj.ys - [level, 0.0], traj.fs, traj.cont)


def _rising_or_falling(traj, k):
    """Zeros of component k in both directions, ascending."""
    return np.sort(np.concatenate([detect_events(traj, k), detect_events(_negated(traj), k)]))


def _scipy_zeros(rhs, t0, y0, t1, k, direction, level=0.0):
    """Zeros of y[k] - level on (t0, t1] in the given direction (-1 falling,
    1 rising, 0 both), located by scipy's DOP853 and its own event search on
    its own dense output: an oracle independent of the package's stepper and
    zero finder."""
    import scipy.integrate as scipy_integrate  # a test dependency, never skipped

    def event(t, y):
        return y[k] - level

    event.direction = direction
    sol = scipy_integrate.solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=1e-13,
                                    atol=1e-15, events=event)
    return sol.t_events[0]


def _counting(evaluate, calls):
    """Trajectory.evaluate that appends to `calls` once per call and fails
    past 60 calls, so a refinement that crawls fails instead of hanging."""

    def counted(self, ts):
        calls.append(1)
        assert len(calls) <= 60, "more than 60 evaluate calls"
        return evaluate(self, ts)

    return counted


def _assert_matches(found, oracle):
    assert len(found) == len(oracle), (found, oracle)
    assert np.all(np.abs(found - oracle) <= 1e-10 * np.abs(oracle)), (found, oracle)


def _harmonic_from_half():
    # y[0] = sin(t), with the first zero well after the start
    y0 = [math.sin(0.5), math.cos(0.5)]
    traj = integrate(rhs_harmonic, OdeState(0.5, y0), 10.0,
                     IntegratorConfig(rtol=1e-12, atol=1e-14))
    return traj, y0


class TestEvents:
    def test_sine_zero_falling(self):
        traj = integrate(
            rhs_harmonic, OdeState(0.0, [0.0, 1.0]), 7.0,
            IntegratorConfig(rtol=1e-12, atol=1e-14),
        )
        events = detect_events(traj, 0)
        assert len(events) == 1
        assert events[0] == pytest.approx(math.pi, abs=1e-8)

    def test_direction_filter(self):
        traj, _ = _harmonic_from_half()
        # sin zeros: pi (falling), 2pi (rising), 3pi (falling)
        falling = detect_events(traj, 0)
        rising = detect_events(_negated(traj), 0)
        assert np.array_equal(_negated(traj).evaluate(traj.ts[:5] + 0.1),
                              -traj.evaluate(traj.ts[:5] + 0.1))
        assert [pytest.approx(v, abs=1e-8) for v in falling] == [math.pi, 3 * math.pi]
        assert [pytest.approx(v, abs=1e-8) for v in rising] == [2 * math.pi]
        assert len(_rising_or_falling(traj, 0)) == 3

    def test_positive_component_yields_nothing(self):
        traj = integrate(rhs_harmonic, OdeState(0.0, [1.0, 0.0]), 5.0)
        assert detect_events(_shifted(traj, -2.0), 0).size == 0

    def test_idempotent(self):
        traj = integrate(rhs_harmonic, OdeState(0.0, [0.0, 1.0]), 20.0)
        assert np.array_equal(detect_events(traj, 0), detect_events(traj, 0))

    @pytest.mark.parametrize("r", [0.3123456789, 1e5 + 0.3123456789])
    def test_linear_zero_in_two_rounds(self, r, monkeypatch):
        # regula falsi lands on the zero of a line; the next proposal is kept
        # a quarter of the tolerance inside the bracket, which closes it
        ts = np.array([r - 0.3123, r + 0.7])
        traj = Trajectory(ts, (r - ts)[:, None], -np.ones((2, 1)))
        calls = []
        monkeypatch.setattr(Trajectory, "evaluate", _counting(Trajectory.evaluate, calls))
        (root,) = detect_events(traj, 0)
        assert len(calls) <= 3
        assert abs(root - r) <= 1e-12 * r

    def test_triple_zero_in_few_rounds(self, monkeypatch):
        # the cubic Hermite is exact on -(t - r)^3, which is flat at its zero:
        # plain regula falsi keeps one end and crawls, the Illinois halving does not
        r = 0.3
        ts = np.linspace(r - 0.7, r + 1.3, 3)
        traj = Trajectory(ts, -((ts - r) ** 3)[:, None], -3 * ((ts - r) ** 2)[:, None])
        calls = []
        monkeypatch.setattr(Trajectory, "evaluate", _counting(Trajectory.evaluate, calls))
        (root,) = detect_events(traj, 0)
        assert root == pytest.approx(r, abs=1e-5)

    def test_single_node_trajectory_has_no_events(self):
        traj = Trajectory([0.0], [[-1.0, 0.0]], [[0.0, -1.0]])
        assert detect_events(traj, 0).size == 0


class TestEventsMatchScipyOracle:
    """Falling zeros against scipy's DOP853 event location (direction=-1) at
    rtol 1e-13, to 1e-10 relative; rising ones through the negated trajectory."""

    @pytest.mark.parametrize("direction", [-1, 1, 0], ids=["falling", "rising", "any"])
    def test_harmonic_oscillator(self, direction):
        traj, y0 = _harmonic_from_half()
        for k, first in ((0, math.pi), (1, 0.5 * math.pi)):
            found = {-1: detect_events(traj, k), 1: detect_events(_negated(traj), k),
                     0: _rising_or_falling(traj, k)}[direction]
            oracle = _scipy_zeros(rhs_harmonic, 0.5, y0, traj.t_end, k, direction)
            _assert_matches(found, oracle)
            # the zeros of sin and cos are k pi and pi/2 + k pi
            assert np.allclose((found - first) / math.pi, np.round((found - first) / math.pi),
                               rtol=0, atol=1e-10)

    @pytest.mark.parametrize("p", _ACCEPTANCE_03_ORBITS, ids=str)
    def test_acceptance_03_orbits_in_consecutive_runs(self, p, monkeypatch):
        cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
        chunk = 4.0 * linearized_period(p)
        state = OdeState(0.0, np.array([p.a0, p.a1]))
        found, calls = [], []
        monkeypatch.setattr(Trajectory, "evaluate", _counting(Trajectory.evaluate, calls))
        while len(found) < 4:
            traj = integrate(scale_rhs(p), state, state.t + chunk, cfg)
            calls.clear()
            found.extend(detect_events(traj, 1))
            # the grid and a few rounds (at most 4 measured; bisection alone
            # takes about 30 from the grid's brackets to 1e-12 |t|)
            assert len(calls) <= 8
            state = OdeState(traj.t_end, traj.y_end)
        monkeypatch.undo()
        oracle = _scipy_zeros(scale_rhs(p), 0.0, [p.a0, p.a1], state.t, 1, -1)
        _assert_matches(np.array(found), oracle)

    def test_goldreich_weber_level_crossing(self):
        p = GWParams(N=3, K=1.0, lam=-0.25, alpha_center=1.0)
        prof = solve_gw_profile(p)
        assert prof.s_mu is not None
        power, denom = p.N / (p.N - 2), (2 * p.N - 2) * p.K
        forcing, grav = p.N * (p.N - 2) * p.lam / denom, alpha_const(p.N) / denom

        def rhs(s, y):
            return [y[1], forcing - grav * max(y[0], 0.0) ** power - (p.N - 1) * y[1] / s]

        # the profile starts at s = 0, where this rhs divides by zero: the
        # oracle starts at 1e-6 from the series f = alpha_center + c s^2,
        # 2Nc = forcing - gravity at the center
        c, s0 = (forcing - grav * p.alpha_center**power) / (2 * p.N), 1e-6
        traj = _shifted(prof.traj, 0.5)
        for direction, found in ((-1, detect_events(traj, 0)),
                                 (1, detect_events(_negated(traj), 0))):
            oracle = _scipy_zeros(rhs, s0, [p.alpha_center + c * s0 * s0, 2 * c * s0],
                                  prof.s_mu, 0, direction, level=0.5)
            _assert_matches(found, oracle)
        assert len(detect_events(traj, 0)) == 1


class TestHalfOpenBrackets:
    """A bracket is y > 0 at one sample and y <= 0 at the next, so a zero on
    a sample is reported once, at the end where it is reached."""

    @pytest.fixture(scope="class")
    def on_node(self):
        traj, _ = _harmonic_from_half()
        k = int(np.flatnonzero((traj.ts > 2.0) & (traj.ys[:, 1] < 0))[0])
        assert 0 < k < traj.n_nodes - 1
        # sin(t) - sin(t_k) falls through zero exactly on node k
        return _shifted(traj, float(traj.ys[k, 0])), k

    def test_zero_on_an_interior_node_is_reported_once(self, on_node):
        traj, k = on_node
        events = detect_events(traj, 0)
        assert list(events).count(traj.ts[k]) == 1
        assert np.sum(np.abs(events - traj.ts[k]) < 1e-3) == 1

    def test_trajectory_ending_on_a_falling_zero_reports_it_once(self, on_node):
        traj, k = on_node
        head = Trajectory(traj.ts[:k + 1], traj.ys[:k + 1], traj.fs[:k + 1], traj.cont[:k])
        events = detect_events(head, 0)
        assert events[-1] == head.t_end
        assert np.sum(np.abs(events - head.t_end) < 1e-3) == 1

    def test_chunks_meeting_at_a_zero_report_it_once(self, on_node):
        traj, k = on_node
        head = Trajectory(traj.ts[:k + 1], traj.ys[:k + 1], traj.fs[:k + 1], traj.cont[:k])
        tail = Trajectory(traj.ts[k:], traj.ys[k:], traj.fs[k:], traj.cont[k:])
        assert tail.ys[0, 0] == 0.0 and detect_events(tail, 0)[0] > tail.t_start
        both = np.concatenate([detect_events(head, 0), detect_events(tail, 0)])
        assert np.array_equal(both, detect_events(traj, 0))

    def test_zero_near_1e5_stops_on_a_relative_width(self, monkeypatch):
        t0 = 1e5
        traj = integrate(rhs_harmonic, OdeState(t0, [0.0, 1.0]), t0 + 7.0,
                         IntegratorConfig(rtol=1e-12, atol=1e-14))
        calls = []
        monkeypatch.setattr(Trajectory, "evaluate", _counting(Trajectory.evaluate, calls))
        (root,) = detect_events(traj, 0)
        monkeypatch.undo()
        # an absolute 1e-12 stop cannot be met where ulp(t) > 1e-12; bisection
        # alone would take about 20 rounds from the grid to this width
        assert len(calls) <= 10
        width = 1e-12 * root
        assert traj.evaluate(root - width)[0] > 0 >= traj.evaluate(root + width)[0]
        assert root == pytest.approx(t0 + math.pi, abs=1e-7)


def _node_falls(traj, k):
    """Indices of the nodes where y[k] falls: > 0 at the node before, <= 0 here."""
    y = traj.ys[:, k]
    return np.flatnonzero((y[:-1] > 0) & (y[1:] <= 0)) + 1


def _scripted(values):
    """A stand-in for `ode._attempt(1)` that accepts every attempt with no error and
    ends step i on values[i], with derivative 0 and zero continuation rows."""
    nodes = iter(values)
    dense = (0.0,) * len(ode._DENSE_STAGES)
    return lambda rhs, t, h, y, k1, atol, rtol: (15, 0.0, (next(nodes),), (0.0,), dense)


# period_by_simulation at TIGHT_CONFIG on the acceptance-03 orbits, as
# four-linearized-period chunks timed them; the one run may move them by rounding only
_ACCEPTANCE_03_PERIODS = [
    7.089175331763054, 12.600439961660243, 26.639269261432645, 526.4488770833282,
    4.808101449055983, 7.089175331763054, 30.958015303327475, 2.4845164557058266,
    3.0657563578296667, 6.4692302361296425,
]


class TestFallStop:
    """`integrate(..., falls=(k, n))` ends on the node of the n-th fall of y[k]."""

    @pytest.fixture(scope="class")
    def unit(self):
        p = EmdenParams(1.0, 1.0, 1.0, 1.0)
        return scale_rhs(p), OdeState(0.0, [p.a0, p.a1]), linearized_period(p)

    def test_run_ends_on_the_node_of_the_nth_fall(self, unit):
        rhs, y0, t_lin = unit
        full = integrate(rhs, y0, 8.0 * t_lin, TIGHT_CONFIG)
        end = _node_falls(full, 1)[2]
        traj = integrate(rhs, y0, 8.0 * t_lin, TIGHT_CONFIG, falls=(1, 3))
        assert traj.n_nodes == end + 1
        # the same steps as the run without the rule, up to that node
        assert np.array_equal(traj.ts, full.ts[:end + 1])
        assert np.array_equal(traj.ys, full.ys[:end + 1])
        assert np.array_equal(traj.cont, full.cont[:end])
        st = traj.stats
        assert st.accepted == traj.n_nodes - 1
        assert st.rhs_calls == 1 + 11 * (st.accepted + st.rejected) + 4 * st.accepted

    def test_run_reaching_t_end_first_ends_at_t_end(self, unit):
        rhs, y0, t_lin = unit
        full = integrate(rhs, y0, 1.5 * t_lin, TIGHT_CONFIG)
        assert len(_node_falls(full, 1)) < 4
        traj = integrate(rhs, y0, 1.5 * t_lin, TIGHT_CONFIG, falls=(1, 4))
        assert traj.t_end == 1.5 * t_lin
        assert _digest(traj) == _digest(full) and traj.stats == full.stats

    def test_fall_exactly_on_a_node_is_counted_once(self, monkeypatch):
        # node values 1, 0, -1, 1, 0, 0, -1, 1, -1: falls end on nodes 1, 4 and 8
        monkeypatch.setattr(ode, "_attempt", lambda n: _scripted([0, -1, 1, 0, 0, -1, 1, -1]))
        start = OdeState(0.0, [1.0])
        assert integrate(lambda t, y: (0.0,), start, 1.0, falls=(0, 1)).n_nodes == 2
        assert integrate(lambda t, y: (0.0,), start, 1.0, falls=(0, 2)).n_nodes == 5
        traj = integrate(lambda t, y: (0.0,), start, 1.0, falls=(0, 3))
        assert traj.n_nodes == 9
        # the finder's half-open brackets see the same three falls
        zeros = detect_events(traj, 0)
        assert len(zeros) == 3 and list(zeros[:2]) == [traj.ts[1], traj.ts[4]]
        assert traj.ts[7] < zeros[2] < traj.ts[8]

    @pytest.mark.parametrize("p", _ACCEPTANCE_03_ORBITS, ids=str)
    def test_first_zeros_match_scipy(self, p):
        rhs, y0 = scale_rhs(p), [p.a0, p.a1]
        traj = integrate(rhs, OdeState(0.0, y0), 256 * linearized_period(p), TIGHT_CONFIG,
                         falls=(1, 4))
        assert len(_node_falls(traj, 1)) == 4 and traj.ys[-1, 1] <= 0
        found = detect_events(traj, 1)
        assert len(found) >= 4
        _assert_matches(found, _scipy_zeros(rhs, 0.0, y0, traj.t_end, 1, -1))

    def test_acceptance_03_periods_hold_their_digits(self):
        found = [period_by_simulation(p, TIGHT_CONFIG).T for p in _ACCEPTANCE_03_ORBITS]
        assert found == pytest.approx(_ACCEPTANCE_03_PERIODS, rel=2e-11, abs=0)

    def test_an_endless_run_ends_at_its_falls_or_its_step_budget(self, unit):
        rhs, y0, t_lin = unit
        traj = integrate(rhs, y0, math.inf, TIGHT_CONFIG, falls=(1, 2))
        capped = integrate(rhs, y0, 8.0 * t_lin, TIGHT_CONFIG, falls=(1, 2))
        assert _digest(traj) == _digest(capped) and traj.stats == capped.stats
        with pytest.raises(StepBudgetExceeded, match="exceeded 50 steps"):
            integrate(rhs, y0, math.inf, IntegratorConfig(max_steps=50))

    @pytest.mark.parametrize("falls", [(2, 1), (-1, 1), (0, 0), (1, -3)])
    def test_bad_component_or_count_raises(self, falls):
        with pytest.raises(DomainError, match="falls="):
            integrate(rhs_harmonic, OdeState(0.0, [1.0, 0.0]), 1.0, falls=falls)


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
        # the scalar entry point rejects the same times, NaN included
        with pytest.raises(DomainError):
            traj.state_at(bad)

    def test_single_node(self):
        traj = Trajectory([2.0], [[1.0, 3.0]], [[0.0, 0.0]])
        assert np.array_equal(traj.evaluate(np.array([2.0, 2.0])), [[1.0, 3.0]] * 2)
        with pytest.raises(DomainError):
            traj.evaluate(np.array([2.5]))


def _old_hermite(t, t0, t1, y0, y1, f0, f1):
    """The plain cubic Hermite through a segment's end states and derivatives."""
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


class TestDenseOutput:
    """DOP853's continuous extension: the Hermite plus
    w^2 (r0 + s (r1 + (1-s) (r2 + s r3))), w = s (1-s)."""

    @pytest.fixture(scope="class")
    def traj(self):
        return integrate(
            scale_rhs(EmdenParams(1.0, 1.0, 1.0, 1.0)), OdeState(0.0, [1.0, 1.0]), 20.0
        )

    def test_tableau_is_scipys(self):
        coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        assert _C == tuple(coeffs.C)
        for i, row in enumerate(_A):
            assert row == tuple(coeffs.A[i, :i])
        # the FSAL stage carries no error weight
        assert _E5 == tuple(coeffs.E5[:12]) and coeffs.E5[12] == 0.0
        assert _E3 == tuple(coeffs.E3[:12]) and coeffs.E3[12] == 0.0
        assert np.array_equal(np.array(_D), coeffs.D)

    def test_matches_scipy_dop853_dense_output(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rhs = scale_rhs(EmdenParams(1.0, 1.0, 1.0, 1.0))
        solver = scipy_integrate.DOP853(
            lambda t, y: np.array(rhs(t, tuple(y))), 0.0, np.array([1.0, 1.0]), 20.0,
            rtol=1e-6, atol=1e-9,
        )
        for _ in range(20):
            t0, y0 = solver.t, solver.y.copy()
            assert solver.step() is None
            inside = np.linspace(t0, solver.t, 11)[1:-1]
            # dense_output() evaluates the three extra stages into K_extended
            ref = solver.dense_output()(inside).T
            h, k = solver.t - t0, solver.K_extended
            cont = (h * np.array(_D) @ k).T[None]
            seg = Trajectory([t0, solver.t], [y0, solver.y], [k[0], k[12]], cont)
            assert np.abs(seg.evaluate(inside) - ref).max() <= 1e-14 * np.abs(ref).max()
            # the plain Hermite is far off on these long steps
            hermite = Trajectory(seg.ts, seg.ys, seg.fs).evaluate(inside)
            assert np.abs(hermite - ref).max() > 1e-9

    def test_rows_follow_the_accepted_steps_through_rejections(self):
        # loose tolerances make the controller reject
        rhs = lambda t, y: np.array(scale_rhs(EmdenParams(1.0, 1.0, 1.0, 1.0))(t, tuple(y)))
        traj = integrate(rhs, OdeState(0.0, [1.0, 1.0]), 30.0,
                         IntegratorConfig(rtol=1e-6, atol=1e-9))
        assert traj.stats.rejected > 20
        assert traj.cont.shape == (traj.n_nodes - 1, 2, 4)
        for i in range(traj.n_nodes - 1):
            t, y, h = traj.ts[i], traj.ys[i], traj.ts[i + 1] - traj.ts[i]
            k = [rhs(t, y)]  # one reference step from the module's tableau
            for c, a in zip(_C[1:], _A[1:]):
                k.append(rhs(t + c * h, y + h * sum(aj * kj for aj, kj in zip(a, k))))
            ref = h * np.array(_D) @ np.array(k)
            # roundoff: the rows sum terms with weights up to 527, and the
            # stage inputs weights up to 43, in another order than integrate
            scale = h * np.abs(np.array(_D)) @ np.abs(np.array(k))
            assert np.all(np.abs(traj.cont[i] - ref.T) <= 1e-14 * scale.T)
            assert np.abs(ref).max() > 1e-10

    def test_a_failed_error_norm_leaves_no_row(self):
        # atol = 0 with a component that stays 0: the norm divides by zero,
        # so every attempt fails and no step adds continuation rows
        with pytest.raises(StepUnderflow) as excinfo:
            integrate(lambda t, y: (-y[0], 0.0), OdeState(0.0, [1.0, 0.0]), 1.0,
                      IntegratorConfig(atol=0.0))
        halt = excinfo.value.trajectory
        assert halt.stats.rejected > 0 and halt.cont.shape == (0, 2, 4)
        assert halt.stats.rhs_calls == 1 + 11 * halt.stats.rejected

    def test_without_cont_is_the_cubic_hermite(self, traj):
        plain = Trajectory(traj.ts, traj.ys, traj.fs)
        assert not plain.cont.any() and plain.cont.shape == (traj.n_nodes - 1, 2, 4)
        i = np.arange(traj.n_nodes - 1)
        mid = 0.5 * (traj.ts[:-1] + traj.ts[1:])
        ref = _old_hermite(mid[:, None], traj.ts[i, None], traj.ts[i + 1, None],
                           traj.ys[i], traj.ys[i + 1], traj.fs[i], traj.fs[i + 1])
        assert np.array_equal(plain.evaluate(mid), ref)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 4), (2, 1, 4), (2, 2, 3), (2, 2, 4, 1)])
    def test_bad_cont_shape_raises(self, shape):
        with pytest.raises(DomainError):
            Trajectory([0.0, 1.0, 2.0], np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(shape))

    def test_lam0_profile_matches_closed_form_off_nodes(self):
        # f = alpha - 2 ln(1 + b^2 s^2), b^2 = pi e^alpha / (4K), at lam = 0
        prof = solve_profile(LiouvilleParams(K=1.0, lam=0.0, alpha=0.0), 20.0)
        s = np.random.default_rng(3).uniform(1e-6, 20.0, 200)
        assert not np.isin(s, prof.grid).any()
        b2 = math.pi / 4
        f = prof.traj.evaluate(s)[:, 0]
        assert np.abs(f + 2 * np.log1p(b2 * s * s)).max() <= 1e-10


class TestQuadrature:
    def test_inverse_sqrt(self):
        assert quad_singular(lambda x: x**-0.5, 0.0, 1.0, 1e-10)[0] == pytest.approx(
            2.0, abs=1e-10
        )

    def test_beta_type_double_singularity(self):
        val = quad_singular(lambda x: (x * (1 - x)) ** -0.5, 0.0, 1.0, 1e-10)[0]
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
        val = quad_singular(f, lo, hi, tol)[0]
        ref = _composite_gauss7(f, lo, hi, panels=64)
        assert abs(val - ref) <= 10 * tol
        assert abs(val - exact) <= 10 * tol

    def test_results_are_python_floats(self):
        # the Kronrod weights are numpy arrays; the results were np.float64
        assert all(type(v) is float for v in quad_singular(math.sin, 0.0, math.pi))
        assert all(type(v) is float for v in quad_adaptive(math.exp, 0.0, 1.0))
        est = period_by_quadrature(EmdenParams(1.0, 1.0, 1.0, 1.0))
        assert type(est.T) is float and type(est.err_est) is float

    def test_zero_width(self):
        assert quad_singular(math.sin, 1.0, 1.0) == (0.0, 0.0)

    def test_reversed_limits_rejected(self):
        with pytest.raises(DomainError):
            quad_singular(math.sin, 1.0, 0.0)

    @pytest.mark.parametrize("c", [1e-30, 1.0, 1e30])
    def test_tolerance_is_relative_to_the_integral(self, c):
        # at an absolute tol the 1e-30 integrand was accepted on one panel, 11% off
        exact = c * 0.2 * math.atan(10.0)
        val, err = quad_adaptive(lambda x: c / (1.0 + 100.0 * x * x), -1.0, 1.0, 1e-10)
        assert abs(val - exact) <= 1e-10 * exact
        assert err <= 1e-10 * exact

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

    @pytest.mark.parametrize("p", WIDE_ORBITS, ids=str)
    def test_period_of_wide_orbits_against_a_log_oracle(self, p):
        # QAGS in u = ln a, where a_max/a_min up to 3.5e10 is a span of 24
        scipy_integrate = pytest.importorskip("scipy.integrate")
        tp, th = turning_points(p), energy_level(p)

        def integrand(u):
            a = math.exp(u)
            ex = th - potential(a, p)
            return a / math.sqrt(2.0 * ex) if ex > 0.0 else 0.0

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy_integrate.IntegrationWarning)
            half, _ = scipy_integrate.quad(integrand, math.log(tp.a_min), math.log(tp.a_max),
                                           epsabs=0.0, epsrel=1e-13, limit=500)
        T = period_by_quadrature(p).T
        assert abs(T - 2.0 * half) <= 1e-10 * T

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
        assert abs(quad_singular(g, 0.0, 1.0, 1e-10)[0] - ref) <= 1e-10


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
