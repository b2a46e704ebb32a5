"""Integrator, event location, and quadrature against closed-form references."""

import functools
import hashlib
import math
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WIDE_ORBITS, linearized_period
from eulerpoisson import ode
from eulerpoisson.errors import (
    DomainError,
    EulerPoissonError,
    IntegrationHalted,
    NoConvergence,
    StateBlowup,
    StepBudgetExceeded,
    StepUnderflow,
)
from eulerpoisson.emden import (
    EmdenParams,
    energy_level,
    integrate_scale,
    period_by_quadrature,
    period_by_simulation,
    potential,
    scale_rhs,
    sundman_rhs,
    turning_points,
)
from eulerpoisson.goldreich_weber import GWParams, _henon_rhs, alpha_const, solve_gw_profile
from eulerpoisson.liouville import LiouvilleParams, _core_start, _radial_rhs, solve_profile
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
    _call_body,
    _first_step,
    _run_source,
    _step_lines,
    detect_events,
    integrate,
    quad_adaptive,
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

    @pytest.mark.parametrize("rhs,y0,exact", [
        (lambda t, y: (0.0,), [0.0], lambda t: [0.0 * t]),
        (lambda t, y: (y[1], 0.0), [1.0, 0.0], lambda t: [1.0 + 0.0 * t, 0.0 * t]),
        (lambda t, y: (1.0, 0.0), [0.0, 0.0], lambda t: [t, 0.0 * t]),
    ], ids=["zero", "rest", "drift-beside-zero"])
    def test_a_component_of_zero_error_scale_counts_not_at_all(self, rhs, y0, exact):
        # with atol = 0 a component that is 0 at both ends of a step has the scale
        # atol + rtol*|y| = 0: each attempt divided by it and was rejected at a
        # tenth of its step until StepUnderflow at t = 0
        traj = integrate(rhs, OdeState(0.0, y0), 1.0, IntegratorConfig(rtol=1e-8, atol=0.0))
        assert traj.t_end == 1.0 and traj.stats == IntegratorStats(10, 0, 151)
        assert np.allclose(traj.ys, np.transpose(exact(traj.ts)), rtol=1e-14, atol=0.0)

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

    def test_a_state_below_the_overflow_guard_completes(self):
        # 1e250 e^10 is below the guard 1e300, so the run is no blowup
        traj = integrate(ode.Rhs("f_0 = y_0"), OdeState(0.0, [1e250]), 10.0)
        assert traj.t_end == 10.0
        assert traj.y_end[0] == pytest.approx(1e250 * math.exp(10.0), rel=1e-8)

    def test_an_rhs_not_finite_at_the_start_raises(self):
        with pytest.raises(DomainError, match="rhs is not finite at the initial state"):
            integrate(lambda t, y: (math.nan,), OdeState(0.0, [1.0]), 1.0)

    @pytest.mark.parametrize("y", [[], [[1.0, 2.0]]], ids=["empty", "2-D"])
    def test_a_state_empty_or_not_1d_raises_domain_error(self, y):
        # an empty y reached the run ("rhs returned 0 components for a 0-state"); a 2-D
        # one ended in a TypeError or "a 2-component system cannot take a 1-state"
        with pytest.raises(DomainError, match=r"OdeState requires a 1-D y .*, not \("):
            OdeState(0.0, y)

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
        # an infinite tolerance accepts every step: 23 nodes and energy drift 61
        # on the unit orbit to t = 50; at rtol >= 1 a step passes with an error as
        # large as the state (liouville --rtol 7 wrote inf cells)
        for bad in ({"rtol": math.inf}, {"rtol": 1.0}, {"rtol": 7.0}, {"atol": math.inf},
                    {"max_steps": 1.5}):
            with pytest.raises(DomainError):
                IntegratorConfig(**bad)
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
        # guards the step controller: 134 DOP853 nodes from the core's end here (156 from
        # s = 0, before the profile started from its Taylor core;
        # 197 before the state carried f' scaled by 2^-7; 191 before the predictive factor; 194
        # from a series start at s = 1e-6; 188 with a fixed 1e-4 first step,
        # before the first step was derived from the start state; 1,907 with
        # the DP5 pair, 4,031 when a 0.005 cap made up for a cubic-Hermite
        # dense output)
        prof = solve_profile(LiouvilleParams(K=1.0, lam=1.0, alpha=0.0), 20.0)
        assert abs(prof.traj.n_nodes - 134) <= 0.01 * 134

    def test_the_unit_orbit_rejects_at_most_one_attempt_in_eight(self):
        # guards the predictive factor: without it the controller saw-toothed,
        # 109 rejections of 426 attempts here
        stats = integrate_scale(EmdenParams(1, 1, 1, 1), 50).stats
        assert stats.rejected <= (stats.accepted + stats.rejected) / 8

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
    """The straight-line run that `integrate` generates per state size and system."""

    @pytest.mark.parametrize("fall", [None, 0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_source_compiles_without_zip_or_comprehension(self, n, fall):
        src = _run_source(n, _step_lines(n, _call_body(n)), ("fn",), fall)
        compile(src, "<run>", "exec")
        # one loop, the run's own; every stage and store is straight-line
        assert "zip" not in src and " for " not in src and src.count("while ") == 1
        assert all(f"k16_{j}" in src for j in range(n)) and f"k16_{n}" not in src
        assert ("falls_left -= 1" in src) == (fall is not None)

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

    @pytest.mark.parametrize("late,got,first", [
        (lambda y: (y[1], -y[0], 0.0), "3 components", 5), (lambda y: (y[1],), "1 components", 5),
        # a result that is no sequence, mid-run and at k1, was a TypeError traceback
        (lambda y: 1.0, "1.0", 5), (lambda y: None, "None", 5),
        (lambda y: (y[1],), "1 components", 1), (lambda y: 1.0, "1.0", 1),
        (lambda y: None, "None", 1),
    ], ids=["longer", "shorter", "float", "none", "k1-shorter", "k1-float", "k1-none"])
    def test_an_rhs_changing_its_length_raises_domain_error(self, late, got, first):
        # the calls from number `first` on return late(y); call 1 is k1
        rhs, calls = _oscillator_with(late, lambda i: i >= first)
        with pytest.raises(DomainError, match=f"rhs returned {re.escape(got)} for a 2-state") as e:
            integrate(rhs, OdeState(0.0, [1.0, 0.0]), 1.0)
        assert str(e.value).endswith(f"at t={calls[-1]!r}") and len(calls) >= first

    def test_an_rhs_value_error_is_its_own(self):
        # math.log(-1) raises ValueError, which is neither a length change nor a rejection
        rhs, _ = _oscillator_with(lambda y: (math.log(-1.0), 0.0), lambda i: i >= 5)
        with pytest.raises(ValueError, match="math domain error"):
            integrate(rhs, OdeState(0.0, [1.0, 0.0]), 1.0)

    @pytest.mark.parametrize("solve,digest", [
        pytest.param(lambda: integrate_scale(EmdenParams(1, 1, 1, 1), 50),
                     "dd396261df7a5826d49677ce421c953f516fa676107e53edf62b23f8ce2b38c0",
                     id="unit-scale-factor"),
        pytest.param(lambda: solve_profile(LiouvilleParams(K=1.0, lam=1.0, alpha=0.0), 20.0).traj,
                     "814eea6a352e3132489db19097ca5333700aedb67656307a6f4bae29e68a8636",
                     id="default-profile"),
        pytest.param(lambda: solve_gw_profile(GWParams(3, 1.0, -0.2, 1.0)).traj,
                     "16434b7705c3a651d1e2b0b795586bbd3f1f4b9e9cbf85dc07a435a09af30adf",
                     id="gw-profile-N3"),
        pytest.param(lambda: solve_gw_profile(GWParams(5, 1.0, -0.2, 1.0)).traj,
                     "8d3ee226864ea85dc382a98bbe740a5f05d670df8298f858f33dfcc44c44ea61",
                     id="gw-profile-N5"),
        pytest.param(lambda: integrate_scale(GWParams(5, 1.0, 1.0, 1.0), 10.0),
                     "c0555f9b66dbbe6ec7c1c62cff411785a78e9d535c787b30f4cc4629d7a916d3",
                     id="gw-scale-collapse-N5"),
    ])
    def test_nodes_and_rows_are_bitwise_pinned(self, solve, digest):
        # recorded with the hand-unrolled stepper this generator replaced; the
        # profile's digest again when the profile began to start at s = 0; the
        # GW digests before both profiles shared one radial equation, and N = 5
        # again when its gravity coefficient gained the factor N - 2 (1 at N = 3);
        # all four again when the controller gained Gustafsson's predictive factor; the
        # N = 5 collapse is the trajectory its StepUnderflow carried before that halt
        # counted as the touchdown; the GW profiles again when their support radius
        # became the zero of Henon's swap, with the step over it replaced by a closing run;
        # all three profiles again when their state began to carry f' scaled by the law's
        # fp_scale, and when they began to start from a Taylor core; the GW profiles again
        # when their fp_scale became 1
        assert _digest(solve()) == digest


def _run_or_halt(rhs, y0, t_end, cfg, falls=None):
    """The trajectory of a run from y0 (an OdeState, or the state at t = 0) and its
    halt's (type, time), or None when it ends."""
    start = y0 if isinstance(y0, OdeState) else OdeState(0.0, y0)
    try:
        return integrate(rhs, start, t_end, cfg, falls), None
    except IntegrationHalted as halt:
        return halt.trajectory, (type(halt), halt.t)


_UNIT_PROFILE = LiouvilleParams(K=1.0, lam=1.0, alpha=0.0)
_GW = {n: GWParams(n, 1.0, -0.2, 1.0) for n in (3, 5)}


class TestPastedSystems:
    """Each package system, pasted into the attempt, against the same system
    called through a plain callable, whose body is the call."""

    _UNIT = EmdenParams(1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("rhs,y0,t_end,cfg,falls,halts", [
        pytest.param(scale_rhs(_UNIT), (1.0, 1.0), 50.0, IntegratorConfig(), None, False,
                     id="unit-orbit"),
        pytest.param(scale_rhs(EmdenParams(1.0, 0.0, 1.0, 0.0)), (1.0, 0.0), 10.0,
                     IntegratorConfig(), None, True, id="collapse"),
        pytest.param(sundman_rhs(_UNIT), (0.0, 1.0, 0.0), math.inf, IntegratorConfig(), (1, 3),
                     False, id="sundman-unit-orbit"),
        # the profiles start at the end of their core
        pytest.param(_radial_rhs(_UNIT_PROFILE), _core_start(_UNIT_PROFILE.law, 20.0, TIGHT_CONFIG),
                     20.0, TIGHT_CONFIG, None, False, id="default-profile"),
        pytest.param(_radial_rhs(_GW[3]), _core_start(_GW[3].law, 100.0, TIGHT_CONFIG), 100.0,
                     TIGHT_CONFIG, (0, 1), False, id="gw-profile-N3"),
        pytest.param(_radial_rhs(_GW[5]), _core_start(_GW[5].law, 100.0, TIGHT_CONFIG), 100.0,
                     TIGHT_CONFIG, (0, 1), False, id="gw-profile-N5"),
        pytest.param(_henon_rhs(GWParams(3, 1.0, -0.2, 1.0)), OdeState(-0.02, (2.6, -0.25)), 0.0,
                     TIGHT_CONFIG, None, False, id="gw-henon-swap"),
        pytest.param(scale_rhs(GWParams(3, 1.0, 1.0, 1.0)), (1.0, 0.0), 10.0,
                     IntegratorConfig(), None, True, id="gw-scale-collapse"),
        pytest.param(scale_rhs(GWParams(5, 1.0, 1.0, 1.0)), (1.0, 0.0), 10.0,
                     IntegratorConfig(), None, True, id="gw-scale-collapse-N5"),
    ])
    def test_each_body_equals_its_callable(self, rhs, y0, t_end, cfg, falls, halts):
        assert type(rhs) is ode.Rhs
        pasted, halt = _run_or_halt(rhs, y0, t_end, cfg, falls)
        called, called_halt = _run_or_halt(lambda t, y: rhs(t, y), y0, t_end, cfg, falls)
        assert _digest(pasted) == _digest(called)
        assert pasted.stats == called.stats and halt == called_halt
        # the collapses touch down; the GW profiles end at the fall of f, and the swap at f = 0
        assert (halt is not None) == halts

    def test_one_compiled_run_per_size_body_and_fall_component(self, monkeypatch):
        # a cache of its own, so the runs compiled by other tests do not count
        run = functools.cache(ode._run.__wrapped__)
        monkeypatch.setattr(ode, "_run", run)
        a, b = scale_rhs(self._UNIT), scale_rhs(EmdenParams(2.0, 0.5, 1.0, 1.0))
        assert a.body == b.body and a.consts != b.consts
        start = OdeState(0.0, [1.0, 1.0])
        sizes = []
        for rhs, falls in [(a, None), (b, None), (a, (1, 1)), (b, (1, 2)), (b, (0, 1)),
                           (scale_rhs(GWParams(3, 1.0, -0.2, 1.0)), None),
                           (scale_rhs(GWParams(5, 1.0, -0.2, 1.0)), None),
                           (lambda t, y: a(t, y), None), (lambda t, y: b(t, y), None)]:
            integrate(rhs, start, 5.0, IntegratorConfig(), falls)
            sizes.append(run.cache_info().currsize)
        # parameters share a run; a fall component, another body or a call body do not;
        # the scale law's template yields two bodies, d = 2 and any other d
        assert sizes == [1, 1, 2, 2, 3, 4, 4, 5, 5]
        assert run(2, a.body, a.names, None) is run(2, b.body, b.names, None)

    def test_a_system_of_another_size_raises_domain_error(self):
        with pytest.raises(DomainError, match="a 2-component system cannot take a 3-state"):
            integrate(scale_rhs(self._UNIT), OdeState(0.0, [1.0, 1.0, 0.0]), 1.0)


_UNIT_START = (scale_rhs(EmdenParams(1.0, 1.0, 1.0, 1.0)), OdeState(0.0, [1.0, 1.0]))
# a node time of the unit orbit's run to t = 400: the run that ends there
# makes exactly 1,024 accepted steps, so its last one fills the second chunk
_TIME_OF_NODE_1024 = 156.17461526602028


class TestChunkedPacking:
    """A run packs its lists into arrays every 512 accepted steps; the chunks
    make the trajectory of one packing at the end, bit for bit."""

    @pytest.mark.parametrize("solve,accepted,digest", [
        pytest.param(lambda: integrate_scale(EmdenParams(1, 1, 1, 1), 300.0), 1962,
                     "df007adf4edf2d0d0eb89a498073eddfecce5d6985c7f3096cf3317110a56093",
                     id="unit-orbit-4-chunks"),
        pytest.param(lambda: solve_profile(LiouvilleParams(K=1.0, lam=1.0, alpha=0.0),
                                           500.0).traj, 2674,
                     "cb4cd492cc7e7c353fc2b3822d7517715fe20d0282563955f68bc24e16d1d89f",
                     id="profile-6-chunks"),
        pytest.param(lambda: integrate(*_UNIT_START, _TIME_OF_NODE_1024), 1024,
                     "b9d65af44b6fe107fd53dacde478ea94f13192fcaf26d9b17217fce431f8c251",
                     id="ends-on-a-chunk-boundary"),
        pytest.param(lambda: integrate(*_UNIT_START, math.inf, falls=(1, 15)), 664,
                     "89efcb8cf3200c8b54bd654bdf49f0e8215dae30d006eef21ca24466301d74da",
                     id="falls-after-a-pack"),
    ])
    def test_multi_chunk_runs_are_bitwise_pinned(self, solve, accepted, digest):
        # recorded when a run packed its lists once, at its end; the profile's again, to
        # s = 500 (it was 400), with a patched _CHUNK that packs once, when its state
        # began to carry f' scaled by the law's fp_scale, and when it began to start from
        # a Taylor core
        traj = solve()
        assert traj.stats.accepted == accepted == traj.n_nodes - 1
        assert _digest(traj) == digest

    def test_a_budget_halt_past_the_first_chunk_carries_the_whole_run(self):
        with pytest.raises(StepBudgetExceeded, match="exceeded 700 steps") as halted:
            integrate(*_UNIT_START, 1000.0, IntegratorConfig(max_steps=700))
        traj = halted.value.trajectory
        assert traj.stats == IntegratorStats(accepted=632, rejected=68, rhs_calls=10229)
        assert traj.n_nodes == 633 and traj.t_end == halted.value.t
        # recorded when a run packed its lists once, at its end
        assert _digest(traj) == "30b76cbea34a9190abffe1fbe06541518b0c291a027b3fc11a011137c196743c"
        # the first 632 steps of the run without a budget
        full = integrate(*_UNIT_START, 1000.0)
        assert np.array_equal(traj.ts, full.ts[:633]) and np.array_equal(traj.ys, full.ys[:633])
        assert np.array_equal(traj.cont, full.cont[:632])

    @pytest.mark.parametrize("run", [
        pytest.param(lambda: integrate(lambda t, y: (1e20 if t == 0 else math.nan,),
                                       OdeState(0.0, [1.0]), 1.0), id="halts-at-once"),
        pytest.param(lambda: integrate(*_UNIT_START, 1.0), id="one-chunk"),
        pytest.param(lambda: integrate(*_UNIT_START, 400.0), id="six-chunks"),
        pytest.param(lambda: integrate(*_UNIT_START, _TIME_OF_NODE_1024), id="two-full-chunks"),
        pytest.param(lambda: integrate(*_UNIT_START, 1000.0, IntegratorConfig(max_steps=700)),
                     id="budget-halt"),
    ])
    def test_each_chunk_holds_at_most_512_steps(self, run, monkeypatch):
        steps, pack = [], ode._pack  # the steps (len(hs)) of every packed chunk

        def spy(n, ts, ys, fs, hs, ks):
            steps.append(len(hs))
            return pack(n, ts, ys, fs, hs, ks)
        monkeypatch.setattr(ode, "_pack", spy)
        try:
            traj = run()
        except IntegrationHalted as halt:
            traj = halt.trajectory
        accepted = traj.stats.accepted
        assert len(steps) == max(1, math.ceil(accepted / 512))
        assert sum(steps) == accepted and all(s == 512 for s in steps[:-1]) and steps[-1] <= 512

    def test_the_peak_rss_rise_is_at_most_three_times_the_kept_arrays(self):
        # a fresh process, so that no earlier test sets the peak; the run to
        # t = 4600 keeps 30,069 nodes (3.0 MiB), and its lists once raised the
        # peak by about 12 times that
        tool = Path(__file__).resolve().parents[1] / "tools" / "peak_memory.py"
        out = subprocess.run([sys.executable, str(tool), "--t-end", "4600"], capture_output=True,
                             text=True, check=True, timeout=120).stdout
        got = dict(line.split() for line in out.splitlines())
        assert int(got["nodes"]) == 30069
        assert float(got["peak_rss_rise_mb"]) <= 3 * float(got["kept_arrays_mb"])


def _zero_start(monkeypatch):
    # y0 = 0 and k1 = 0: both norms vanish, so the first step is the fixed 1e-6
    traj = integrate(lambda t, y: (0.0, 0.0), OdeState(0.0, [0.0, 0.0]), 1.0)
    return traj, 1e-6


def _step_past_the_end(monkeypatch):
    # 0.01 * |y0| / |k1| = 1e4 against a span of 0.2: one step, ending on t_end
    assert _first_step(0.1, (1.0,), (1e-6,), 0.2, IntegratorConfig()) == 0.2
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
    h = _first_step(second.t_start, second.ys[0].tolist(), second.fs[0].tolist(),
                    second.t_end - second.t_start, TIGHT_CONFIG)
    assert h != first.ts[1] - first.ts[0]
    return second, second.t_start + h


class TestFirstStep:
    """The first step is Hairer's first estimate from y0 and k1, at no rhs call, or
    100 times the underflow floor when the estimate is at or below it."""

    @pytest.mark.parametrize("case", [_zero_start, _step_past_the_end, _restart],
                             ids=["zero-start", "past-the-end", "restart"])
    def test_first_node_is_one_derived_step_away(self, case, monkeypatch):
        traj, t1 = case(monkeypatch)
        assert traj.ts[1] == t1
        st = traj.stats
        assert st.rhs_calls == 1 + 11 * (st.accepted + st.rejected) + 4 * st.accepted

    def test_a_span_at_the_floor_is_one_step(self):
        # a span of exactly 1e-14 from t = 0 caps the first step at the floor 1e-14,
        # which the run takes in one step, at no call before it but k1
        traj = integrate(lambda t, y: (1.0,), OdeState(0.0, [0.0]), 1e-14)
        assert traj.ts.tolist() == [0.0, 1e-14]
        assert traj.stats == IntegratorStats(accepted=1, rejected=0, rhs_calls=1 + 15)

    def test_a_span_below_the_floor_is_one_step(self):
        # the span 1.05e-9 from t = 1e6 lies below the floor 1e-8, which halted the
        # first step, capped at the span, with "step size 1.048e-09 underflowed";
        # the floor spares a step that ends the run
        t_end = 1e6 + 1e-9
        traj = integrate(ode.Rhs("f_0 = 1.0"), OdeState(1e6, [0.0]), t_end)
        assert traj.ts.tolist() == [1e6, t_end]
        assert traj.stats == IntegratorStats(accepted=1, rejected=0, rhs_calls=1 + 15)

    def test_a_rejected_step_below_the_floor_still_underflows(self):
        # a NaN at stage 2, off the start state, rejects that last step; its tenth is
        # below the floor and ends no run, so the run halts at its start
        rhs = lambda t, y: (1.0 if y[0] == 0.0 else math.nan,)
        with pytest.raises(StepUnderflow, match="underflowed at t=1000000.0") as halted:
            integrate(rhs, OdeState(1e6, [0.0]), 1e6 + 1e-9)
        assert halted.value.trajectory.stats == IntegratorStats(0, 1, rhs_calls=1 + 1)

    @pytest.mark.parametrize("bad", [lambda: 1 / 0, lambda: math.nan], ids=["raises", "nan"])
    def test_a_start_with_no_finite_next_derivative_halts_at_t0(self, bad):
        # k1 = 1e20 puts the first estimate 1e-22 below the floor 1e-14, so the first
        # step is 1e-12; every stage 2 raises or is NaN, each attempt is rejected
        # after its one call, and the third tenth of the step, 1e-15, underflows
        assert _first_step(0.0, (1.0,), (1e20,), 1.0, IntegratorConfig()) == 100 * 1e-14
        with pytest.raises(StepUnderflow) as halted:
            integrate(lambda t, y: (1e20 if t == 0 else bad(),), OdeState(0.0, [1.0]), 1.0)
        assert halted.value.t == 0.0
        assert halted.value.trajectory.stats == IntegratorStats(0, 3, rhs_calls=1 + 3)

    @pytest.mark.parametrize("t0,y0,cfg,nodes", [
        pytest.param(0.0, (0.0, 1.0), IntegratorConfig(1e-6, 1e-30), 20, id="atol-1e-30"),
        pytest.param(1e10, (1.0, 0.0), IntegratorConfig(1e-6, 1e-10), 5, id="start-at-1e10"),
    ])
    def test_a_first_estimate_below_the_floor_steps_100_floors(self, t0, y0, cfg, nodes):
        # the first estimate, and 100 times it, lie below the floor 1e-14 * max(1, |t0|),
        # where the run would halt before its first step; it starts from 100 floors
        import scipy.integrate as scipy_integrate  # a test dependency, never skipped

        rhs = lambda t, y: (y[1], -y[0])
        d0, d1 = ode._norm(y0, y0, cfg), ode._norm(rhs(t0, y0), y0, cfg)
        floor = 1e-14 * max(1.0, t0)
        assert 100 * 0.01 * d0 / d1 < floor
        assert _first_step(t0, y0, rhs(t0, y0), 1.0, cfg) == 100 * floor
        traj = integrate(rhs, OdeState(t0, list(y0)), t0 + 1.0, cfg)
        assert traj.n_nodes == nodes and traj.t_end == t0 + 1.0
        c, s = math.cos(1.0), math.sin(1.0)
        exact = np.array([c * y0[0] + s * y0[1], c * y0[1] - s * y0[0]])
        ref = scipy_integrate.solve_ivp(rhs, (t0, t0 + 1.0), y0, method="DOP853", rtol=cfg.rtol,
                                        atol=cfg.atol).y[:, -1]
        assert np.abs(ref - exact).max() <= cfg.rtol
        # a node time rounds t + h to the floats (spacing 1.9e-6 at 1e10) while the
        # state moves by h, so each node before the last may add half a spacing
        slack = cfg.rtol + (traj.stats.accepted - 1) * math.ulp(t0 + 1.0) / 2
        assert np.abs(traj.y_end - exact).max() <= slack
        assert np.abs(traj.y_end - ref).max() <= slack + cfg.rtol

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(lam=st.floats(0.25, 4.0), xi=st.one_of(st.just(0.0), st.floats(0.25, 4.0)),
           a0=st.floats(0.5, 2.0), a1=st.floats(-2.5, 2.5),
           rtol=st.sampled_from([1e-300, 1e-14, 1e-10, 1e-6]),
           atol=st.sampled_from([0.0, 1e-300, 1e-14, 1e-10, 1e-6]))
    def test_any_tolerance_over_the_orbits_box(self, lam, xi, a0, a1, rtol, atol):
        # the box of the benchmark's orbits workload, collapsing orbits included
        cfg = IntegratorConfig(rtol=rtol, atol=atol, max_steps=40)
        rhs = scale_rhs(EmdenParams(lam, xi, a0, a1))
        h = _first_step(0.0, (a0, a1), rhs(0.0, (a0, a1)), 50.0, cfg)
        assert 1e-14 < h <= 50.0  # above the floor, so the run never halts before a step
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


def _timed(call):
    """The result of call(), or the halt it raises, and its wall time; call() is
    made twice and the second call timed, so that its run is compiled."""
    for _ in range(2):
        t0 = time.perf_counter()
        try:
            out = call()
        except IntegrationHalted as exc:
            out = exc
        dt = time.perf_counter() - t0
    return out, dt


def _within_10_ms(dt):
    """The wall bound of `TestEdgesEndAtOnce`, held only when no tracer is set:
    `tools/untested_lines.py` runs the suite under `sys.settrace`, which slows
    these runs to the edge of the bound, so there only their behaviour is checked."""
    return dt < 0.01 or sys.gettrace() is not None


class TestEdgesEndAtOnce:
    """Runs at the edges of the float range end within 10 ms, with a typed halt
    that names the cause or a completed trajectory."""

    def test_a_start_at_the_underflow_floor_steps_100_floors(self):
        # the zero component's scale is atol alone, so the first estimate lies at or
        # below the floor 1e-14 * 100, and 100 floors is the first step
        rhs, y0, cfg = (lambda t, y: (y[1], -y[0])), (0.0, 1.0), IntegratorConfig(1e-4, 1e-14)
        d0, d1 = ode._norm(y0, y0, cfg), ode._norm(rhs(100.0, y0), y0, cfg)
        assert 0.01 * d0 / d1 <= 1e-14 * 100.0
        traj, dt = _timed(lambda: integrate(rhs, OdeState(100.0, list(y0)), 120.0, cfg))
        assert _within_10_ms(dt) and traj.t_end == 120.0 and traj.n_nodes == 27
        assert traj.ts[1] == 100.0 + 100 * (1e-14 * 100.0)
        st = traj.stats
        assert st.rhs_calls == 1 + 11 * (st.accepted + st.rejected) + 4 * st.accepted
        assert traj.y_end[0] == pytest.approx(math.sin(20.0), abs=1e-3)

    def test_a_flat_start_far_out_steps_above_the_floor(self):
        # k1 = 0 at t = 1e150, so the first estimate is the fixed 1e-6, far below the
        # floor 1e136, where the run would halt before its first step (a profile whose
        # core ends at s = 2.5e143 did); it starts from 100 times the floor
        rhs, floor = (lambda t, y: (0.0,)), 1e-14 * 1e150
        assert _first_step(1e150, (1.0,), (0.0,), 1e150, IntegratorConfig()) == 100 * floor
        traj, dt = _timed(lambda: integrate(rhs, OdeState(1e150, [1.0]), 2e150))
        assert _within_10_ms(dt) and traj.t_end == 2e150 and traj.y_end[0] == 1.0
        assert traj.ts[1] == 1e150 + 100 * floor

    def test_an_endless_run_whose_step_overflows_ends_at_once(self):
        # with f = 0 the step grows fivefold per step until 5 h is inf (it took the
        # whole step budget in rejections before)
        exc, dt = _timed(lambda: integrate(ode.Rhs("f_0 = 0.0"), OdeState(0.0, [1.0]), math.inf,
                                           falls=(0, 1)))
        assert isinstance(exc, StateBlowup) and _within_10_ms(dt)
        assert str(exc) == "step size inf overflowed at t=8.59888141768587e+307"
        assert exc.t == exc.trajectory.t_end and exc.trajectory.stats.rejected == 0

    def test_an_endless_run_whose_time_overflows_ends_there(self):
        # here the next finite step would carry t past the largest float: the run halts
        # before it, on its last finite node
        exc, dt = _timed(lambda: integrate(ode.Rhs("f_0 = c", c=5e-11), OdeState(0.0, [1.0]),
                                           math.inf, falls=(0, 1)))
        assert isinstance(exc, StateBlowup) and _within_10_ms(dt)
        traj = exc.trajectory
        assert str(exc).endswith(f"overflowed at t={traj.t_end!r}")
        assert exc.trajectory.stats.rejected == 0 and math.isfinite(exc.trajectory.ts[-2])
        assert np.all(np.isfinite(traj.ts))
        again = Trajectory(traj.ts, traj.ys, traj.fs, traj.cont, traj.stats)
        assert again.t_end == traj.t_end and again.n_nodes == traj.n_nodes


_ENTRY = st.sampled_from([0.0, 1e-3, 1.0, -1.0, 2.5, -2.5])
# The most attempts that a run of the draws below rejects in a row, measured over
# 11,000 draws of the same strategies: 13 before the first accepted step, where
# Hairer's first estimate overshoots a component whose rate its norm d1 does not
# see and each rejection takes a fifth of the step; 6 after it, near the float range.
_MAX_REJECTED_FIRST, _MAX_REJECTED_IN_A_ROW = 13, 6


class TestLinearSystems:
    """integrate on y' = A y over 2x2 matrices A, start times, tolerances and
    ends: each call completes or raises a typed halt, counts its rhs calls
    exactly, and rejects no more attempts in a row than measured."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(a=st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY),
           y0=st.tuples(st.sampled_from([0.0, 1.0, -1e-8]), st.sampled_from([0.0, 1.0, -3.0])),
           t0=st.sampled_from([0.0, 1e-300, -1e-300, 1.0, 100.0, 1e10, -1e10]),
           span=st.sampled_from([1e-3, 1.0, 20.0, math.inf]),
           rtol=st.integers(-13, -3).map(lambda e: 10.0 ** e),
           atol=st.integers(-300, 0).map(lambda e: 10.0 ** e),
           fall=st.integers(0, 1), max_steps=st.integers(1, 80))
    def test_each_call_completes_or_raises_a_typed_halt(self, a, y0, t0, span, rtol, atol, fall,
                                                        max_steps):
        runs, values = [], []  # the run's (accepted, rejected) at each call, and the values

        def rhs(t, y):
            run = sys._getframe(1).f_locals  # integrate's own calls come before the run
            runs.append((run.get("accepted", 0), run.get("rejected", 0)))
            f = (a[0] * y[0] + a[1] * y[1], a[2] * y[0] + a[3] * y[1])
            values.extend(f)
            return f

        cfg = IntegratorConfig(rtol, atol, max_steps)
        falls = (fall, 1) if span == math.inf else None
        try:
            traj = integrate(rhs, OdeState(t0, list(y0)), t0 + span, cfg, falls)
        except IntegrationHalted as exc:
            traj = exc.trajectory
        else:
            if falls is None:
                assert traj.t_end == t0 + span
            else:
                assert traj.ys[-2, fall] > 0.0 >= traj.ys[-1, fall]
        st_ = traj.stats
        assert st_.rhs_calls == len(runs)
        if all(map(math.isfinite, values)):  # a stage that is not finite ends its attempt early
            starts = st_.rhs_calls - 11 * (st_.accepted + st_.rejected) - 4 * st_.accepted
            assert starts in (1, 2)
        # the rejections before each acceptance, and after the last one
        first = {}
        for accepted, rejected in runs:
            first.setdefault(accepted, rejected)
        marks = [first[k] for k in sorted(first)] + [st_.rejected]
        in_a_row = [hi - lo for lo, hi in zip(marks, marks[1:])]
        assert in_a_row[0] <= _MAX_REJECTED_FIRST
        assert max(in_a_row[1:], default=0) <= _MAX_REJECTED_IN_A_ROW


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


def _count_rounds(monkeypatch, calls):
    """Patch the dense kernel `ode._dense` to append to `calls` once per call
    and fail past 60 calls, so a refinement that crawls fails instead of
    hanging.  `detect_events` calls it, through `evaluate`, once for its grid
    and once per refinement round."""
    dense = ode._dense

    def counted(*args):
        calls.append(1)
        assert len(calls) <= 60, "more than 60 dense-output calls"
        return dense(*args)

    monkeypatch.setattr(ode, "_dense", counted)


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
        _count_rounds(monkeypatch, calls)
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
        _count_rounds(monkeypatch, calls)
        (root,) = detect_events(traj, 0)
        assert root == pytest.approx(r, abs=1e-5)

    def test_a_dip_between_nodes_that_do_not_fall_is_not_reported(self):
        # the cubic Hermite through y = 1 at both ends with slopes -10 and 10 reaches
        # -1.5 at the middle: two zeros inside one step, over which y does not fall
        traj = Trajectory([0.0, 1.0], [[1.0], [1.0]], [[-10.0], [10.0]])
        assert traj.evaluate(0.5)[0] == -1.5
        events = detect_events(traj, 0)
        assert events.shape == (0,) and events.dtype == np.float64

    def test_single_node_trajectory_has_no_events(self):
        traj = Trajectory([0.0], [[-1.0, 0.0]], [[0.0, -1.0]])
        events = detect_events(traj, 0)
        assert events.shape == (0,) and events.dtype == np.float64

    @pytest.mark.parametrize("k", [True, np.int64(1)], ids=["bool", "numpy-int"])
    def test_a_bool_or_numpy_integer_is_its_int(self, k):
        # True escaped as an IndexError: numpy read it as a mask of the nodes
        traj = integrate(scale_rhs(EmdenParams(1.0, 1.0, 1.0, 1.0)), OdeState(0.0, [1.0, 1.0]),
                         20.0)
        assert np.array_equal(detect_events(traj, k), detect_events(traj, 1))
        assert len(detect_events(traj, 1)) == 3

    @pytest.mark.parametrize("k", [2, -1, 1.5])
    def test_a_component_outside_the_state_raises(self, k):
        # k = -1 once searched the last component, 2 and 1.5 raised IndexError
        traj = integrate(rhs_harmonic, OdeState(0.0, [0.0, 1.0]), 7.0)
        with pytest.raises(DomainError, match=f"k={k}"):
            detect_events(traj, k)


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
        _count_rounds(monkeypatch, calls)
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

        # this rhs divides by zero at s = 0: the oracle starts at 1e-6 from the
        # series f = alpha_center + c s^2, 2Nc = forcing - gravity at the center
        c, s0 = (forcing - grav * p.alpha_center**power) / (2 * p.N), 1e-6
        traj = _shifted(prof.traj, 0.5)
        for direction, found in ((-1, detect_events(traj, 0)),
                                 (1, detect_events(_negated(traj), 0))):
            oracle = _scipy_zeros(rhs, s0, [p.alpha_center + c * s0 * s0, 2 * c * s0],
                                  prof.s_mu, 0, direction, level=0.5)
            _assert_matches(found, oracle)
        assert len(detect_events(traj, 0)) == 1


def _zero_on_a_node():
    """A harmonic trajectory whose y[0] falls through zero exactly on interior node k."""
    traj, _ = _harmonic_from_half()
    k = int(np.flatnonzero((traj.ts > 2.0) & (traj.ys[:, 1] < 0))[0])
    assert 0 < k < traj.n_nodes - 1
    # sin(t) - sin(t_k) falls through zero exactly on node k
    return _shifted(traj, float(traj.ys[k, 0])), k


class TestHalfOpenBrackets:
    """A bracket is y > 0 at one sample and y <= 0 at the next, so a zero on
    a sample is reported once, at the end where it is reached."""

    @pytest.fixture(scope="class")
    def on_node(self):
        return _zero_on_a_node()

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
        _count_rounds(monkeypatch, calls)
        (root,) = detect_events(traj, 0)
        monkeypatch.undo()
        # an absolute 1e-12 stop cannot be met where ulp(t) > 1e-12; bisection
        # alone would take about 20 rounds from the grid to this width
        assert len(calls) <= 10
        width = 1e-12 * root
        assert traj.evaluate(root - width)[0] > 0 >= traj.evaluate(root + width)[0]
        assert root == pytest.approx(t0 + math.pi, abs=1e-7)


def _events_through_evaluate(traj, k):
    """`detect_events` restated with its own algorithm, every refinement round
    one `evaluate` call, but each bracket kept in place by its index instead of
    the implementation's compaction of the open brackets: the reference that
    the implementation's bookkeeping must match bit for bit."""
    fall = np.flatnonzero((traj.ys[:-1, k] > 0) & (traj.ys[1:, k] <= 0))
    if not fall.size:
        return np.empty(0)
    grid = np.linspace(traj.ts[fall], traj.ts[fall + 1], 8, axis=1)
    g = traj.evaluate(grid)[..., k]
    hit = (g[:, :-1] > 0) & (g[:, 1:] <= 0)
    ta, tb, ga, gb = grid[:, :-1][hit], grid[:, 1:][hit], g[:, :-1][hit], g[:, 1:][hit]
    exact = gb == 0
    moved = np.full(len(ta), -1)
    tol = lambda t: 1e-12 * np.maximum(1.0, np.abs(t))
    wide = lambda i: i[tb[i] - ta[i] > tol(tb[i])]
    live = wide(np.flatnonzero(~exact))
    while live.size:
        a, b, fa, fb = ta[live], tb[live], ga[live], gb[live]
        d = 0.25 * tol(b)
        tm = np.fmin(np.fmax(b - fb * (b - a) / (fb - fa), a + d), b - d)
        gm = traj.evaluate(tm)[:, k]
        left = gm > 0
        half = np.where(moved[live] == left, 0.5, 1.0)
        moved[live] = left
        ta[live], ga[live] = np.where(left, tm, a), np.where(left, gm, half * fa)
        tb[live], gb[live] = np.where(left, b, tm), np.where(left, half * fb, gm)
        exact[live] = gm == 0
        live = wide(live[gm != 0])
    return np.where(exact, tb, 0.5 * (ta + tb))


def _assert_events_bitwise(traj, k):
    found, oracle = detect_events(traj, k), _events_through_evaluate(traj, k)
    assert found.shape == oracle.shape and found.tobytes() == oracle.tobytes(), (found, oracle)
    return found


class TestEventsMatchTheEvaluateRefinement:
    """`detect_events` returns the roots of its reference `_events_through_evaluate`
    bit for bit, falling and rising.  Both refine through `evaluate` by one algorithm,
    so this guards the implementation's bookkeeping of the open brackets: a bracket
    dropped, closed twice or stored in another's place changes a root."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(lam=st.floats(0.25, 4.0), xi=st.one_of(st.just(0.0), st.floats(0.25, 4.0)),
           a0=st.floats(0.5, 2.0), a1=st.floats(-2.5, 2.5))
    def test_orbits_box(self, lam, xi, a0, a1):
        # the box of the benchmark's orbits workload, collapsing orbits included
        try:
            traj = integrate(scale_rhs(EmdenParams(lam, xi, a0, a1)), OdeState(0.0, [a0, a1]),
                             50.0)
        except IntegrationHalted as halt:  # a touchdown
            traj = halt.trajectory
        for k in (0, 1):
            _assert_events_bitwise(traj, k)
            _assert_events_bitwise(_negated(traj), k)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(t0=st.one_of(st.floats(-1e3, 1e3), st.floats(1e4, 1e6)), phase=st.floats(0.0, 7.0),
           amplitude=st.floats(1e-6, 1e6), rtol=st.sampled_from([1e-12, 1e-8, 1e-4]))
    def test_harmonic_oscillator(self, t0, phase, amplitude, rtol):
        y0 = [amplitude * math.sin(phase), amplitude * math.cos(phase)]
        traj = integrate(rhs_harmonic, OdeState(t0, y0), t0 + 20.0,
                         IntegratorConfig(rtol=rtol, atol=1e-3 * rtol * amplitude))
        assert len(_assert_events_bitwise(traj, 0)) >= 2
        _assert_events_bitwise(traj, 1)
        _assert_events_bitwise(_negated(traj), 0)

    def test_zero_on_an_interior_node(self):
        traj, k = _zero_on_a_node()
        assert traj.ts[k] in _assert_events_bitwise(traj, 0)

    def test_zero_at_the_last_node(self):
        traj, k = _zero_on_a_node()
        head = Trajectory(traj.ts[:k + 1], traj.ys[:k + 1], traj.fs[:k + 1], traj.cont[:k])
        assert _assert_events_bitwise(head, 0)[-1] == head.t_end

    def test_zero_near_1e5(self):
        traj = integrate(rhs_harmonic, OdeState(1e5, [0.0, 1.0]), 1e5 + 7.0,
                         IntegratorConfig(rtol=1e-12, atol=1e-14))
        (root,) = _assert_events_bitwise(traj, 0)
        assert root == pytest.approx(1e5 + math.pi, abs=1e-7)


def _node_falls(traj, k):
    """Indices of the nodes where y[k] falls: > 0 at the node before, <= 0 here."""
    y = traj.ys[:, k]
    return np.flatnonzero((y[:-1] > 0) & (y[1:] <= 0)) + 1


def _scripted(values, fall):
    """A stand-in for `ode._run` on a 1-state: the generated loop with the fall rule
    of component `fall`, whose pasted step accepts every attempt with no error and
    ends step i on values[i], with derivative 0 and zero continuation rows."""
    step = ["yn_0 = next(nodes)", "err = 0.0",
            *(f"k{i + 1}_0 = 0.0" for i in ode._DENSE_STAGES if i)]
    namespace = dict(ode._NAMESPACE, nodes=iter(values))
    exec(compile(_run_source(1, step, ("fn",), fall), "<scripted run>", "exec"), namespace)
    return namespace["run"]


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
        monkeypatch.setattr(ode, "_run", lambda n, body, names, fall: _scripted(
            [0, -1, 1, 0, 0, -1, 1, -1], fall))
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

    @pytest.mark.parametrize("k", [True, np.int64(1)], ids=["bool", "numpy-int"])
    def test_a_bool_or_numpy_integer_component_is_its_int(self, unit, k):
        rhs, y0, t_lin = unit
        traj = integrate(rhs, y0, 8.0 * t_lin, TIGHT_CONFIG, falls=(k, 2))
        same = integrate(rhs, y0, 8.0 * t_lin, TIGHT_CONFIG, falls=(1, 2))
        assert _digest(traj) == _digest(same) and traj.stats == same.stats

    @pytest.mark.parametrize("falls", [(2, 1), (-1, 1), (0, 0), (1, -3), (0, 1.5)])
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

    @pytest.mark.parametrize("shape", [(), (3,), (2, 4)])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf, -1e-9, 20.0 + 1e-9],
                             ids=["nan", "-inf", "below", "above"])
    def test_a_bad_time_raises_naming_the_first(self, traj, shape, bad):
        t = np.full(shape, 1.5)
        t.flat[min(1, t.size - 1)] = bad
        if t.size > 2:  # a later bad time of another kind is not the one named
            t.flat[-1] = 30.0 if math.isnan(bad) else math.nan
        with pytest.raises(DomainError, match=re.escape(f"at (t={bad})")) as err:
            traj.evaluate(t)
        assert err.value.where.shape == shape

    @pytest.mark.parametrize("empty", [[], np.empty(0), np.empty((0, 3))])
    def test_an_empty_query_has_no_rows(self, traj, empty):
        assert traj.evaluate(empty).shape == np.shape(empty) + (2,)

    def test_integrate_returns_writable_contiguous_float64(self, traj):
        # a run halted before its first step keeps its start node and no segment
        with pytest.raises(StepUnderflow) as halted:
            integrate(lambda t, y: (1.0 if t == 0.0 else math.nan,), OdeState(0.0, [1.0]), 1.0)
        for run in (traj, halted.value.trajectory):
            for a in (run.ts, run.ys, run.fs, run.cont):
                assert a.dtype == np.float64 and a.flags.writeable and a.flags.c_contiguous
            assert run.ys.shape == run.fs.shape == (run.n_nodes, run.ys.shape[1])
            assert run.cont.shape == (run.n_nodes - 1, run.ys.shape[1], 4)
            assert np.all(np.diff(run.ts) > 0)
            # the public constructor accepts the arrays and keeps them
            again = Trajectory(run.ts, run.ys, run.fs, run.cont, run.stats)
            assert all(a is b for a, b in zip((again.ts, again.ys, again.fs, again.cont),
                                              (run.ts, run.ys, run.fs, run.cont)))
        assert halted.value.trajectory.n_nodes == 1

    @pytest.mark.parametrize("ts", [[0.0, math.nan, 2.0], [0.0, math.inf], [-math.inf, 0.0],
                                    [math.nan]])
    def test_non_finite_node_times_raise(self, ts):
        n = len(ts)
        with pytest.raises(DomainError, match="finite"):
            Trajectory(ts, np.zeros((n, 1)), np.zeros((n, 1)))

    @pytest.mark.parametrize("ts,message", [([], "at least one node"),
                                            ([0.0, 0.0], "strictly increase"),
                                            ([1.0, 2.0, 1.5], "strictly increase")])
    def test_no_node_or_a_non_increasing_time_raises(self, ts, message):
        n = len(ts)
        with pytest.raises(DomainError, match=message):
            Trajectory(ts, np.zeros((n, 1)), np.zeros((n, 1)))


def _exact_hermite(t, t0, t1, y0, y1, f0, f1):
    """The plain cubic Hermite through a segment's end states and derivatives,
    in exact rational arithmetic on the same floats."""
    t, t0, t1, y0, y1, f0, f1 = map(Fraction, (t, t0, t1, y0, y1, f0, f1))
    h = t1 - t0
    s = (t - t0) / h
    return ((2 * s**3 - 3 * s**2 + 1) * y0 + (s**3 - 2 * s**2 + s) * h * f0
            + (3 * s**2 - 2 * s**3) * y1 + (s**3 - s**2) * h * f1)


class TestDenseOutput:
    """DOP853's continuous extension, Hairer's CONTD8: with s' = 1 - s and
    D = y1 - y0, y0 + s (D + s' (h f0 - D + s (2 D - h (f1 + f0) +
    s' (r0 + s (r1 + s' (r2 + s r3))))))."""

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
        # loose tolerances make the controller reject (41 times to t = 100; 12 to
        # t = 30 since the predictive factor)
        rhs = lambda t, y: np.array(scale_rhs(EmdenParams(1.0, 1.0, 1.0, 1.0))(t, tuple(y)))
        traj = integrate(rhs, OdeState(0.0, [1.0, 1.0]), 100.0,
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
        # a scale of 1e-300 |y|: the norm's squares overflow, so every attempt
        # fails its error norm and no step adds continuation rows
        with pytest.raises(StepUnderflow) as excinfo:
            integrate(lambda t, y: (-y[0], 0.0), OdeState(0.0, [1.0, 0.0]), 1.0,
                      IntegratorConfig(rtol=1e-300, atol=0.0))
        halt = excinfo.value.trajectory
        assert halt.stats.rejected > 0 and halt.cont.shape == (0, 2, 4)
        assert halt.stats.rhs_calls == 1 + 11 * halt.stats.rejected

    def test_without_cont_is_the_cubic_hermite(self, traj):
        plain = Trajectory(traj.ts, traj.ys, traj.fs)
        assert not plain.cont.any() and plain.cont.shape == (traj.n_nodes - 1, 2, 4)
        mid = 0.5 * (traj.ts[:-1] + traj.ts[1:])
        dense = plain.evaluate(mid)
        # within 1 ulp of the larger end value (0.57 ulp here; 1.71 with the
        # Hermite basis written out term by term)
        for i, t in enumerate(mid.tolist()):
            for j in range(2):
                y0, y1 = traj.ys[i, j], traj.ys[i + 1, j]
                exact = _exact_hermite(t, traj.ts[i], traj.ts[i + 1], y0, y1,
                                       traj.fs[i, j], traj.fs[i + 1, j])
                assert abs(Fraction(dense[i, j]) - exact) <= math.ulp(max(abs(y0), abs(y1)))

    @pytest.mark.parametrize("solve", [
        pytest.param(lambda: integrate(scale_rhs(EmdenParams(1.0, 1.0, 1.0, 1.0)),
                                       OdeState(0.0, [1.0, 1.0]), 20.0), id="unit-orbit"),
        pytest.param(lambda: solve_profile(LiouvilleParams(K=1.0, lam=1.0, alpha=0.0), 20.0).traj,
                     id="default-profile"),
    ])
    def test_evaluate_is_scipys_dense_output_bitwise(self, solve):
        rk = pytest.importorskip("scipy.integrate._ivp.rk")
        traj = solve()
        ts, ys, fs = traj.ts, traj.ys, traj.fs
        frac = np.random.default_rng(11).uniform(0.0, 1.0, (traj.n_nodes - 1, 3))
        queries = ts[:-1, None] + frac * np.diff(ts)[:, None]
        dense = traj.evaluate(queries)
        for i, t in enumerate(queries):
            h, dy = ts[i + 1] - ts[i], ys[i + 1] - ys[i]
            F = np.vstack([dy, h * fs[i] - dy, 2 * dy - h * (fs[i + 1] + fs[i]), traj.cont[i].T])
            ref = rk.Dop853DenseOutput(ts[i], ts[i + 1], ys[i], F)(t).T
            assert np.array_equal(dense[i], ref)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 4), (2, 1, 4), (2, 2, 3), (2, 2, 4, 1)])
    def test_bad_cont_shape_raises(self, shape):
        with pytest.raises(DomainError):
            Trajectory([0.0, 1.0, 2.0], np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(shape))

    def test_lam0_profile_matches_closed_form_off_nodes(self):
        # f = alpha - 2 ln(1 + b^2 s^2), b^2 = pi e^alpha / (4K), at lam = 0
        prof = solve_profile(LiouvilleParams(K=1.0, lam=0.0, alpha=0.0), 20.0)
        s = np.random.default_rng(3).uniform(prof.s_core, 20.0, 200)  # the run's dense output
        assert not np.isin(s, prof.grid).any()
        b2 = math.pi / 4
        f = prof.traj.evaluate(s)[:, 0]
        assert np.abs(f + 2 * np.log1p(b2 * s * s)).max() <= 1e-10


class TestQuadrature:
    """`quad_adaptive`, the midpoint sum doubled from 8 nodes until it settles."""

    @staticmethod
    def counted(f):
        def g(x):
            g.calls += 1
            return f(x)

        g.calls = 0
        return g

    def test_geometric_convergence_on_a_periodic_integrand(self):
        # integral_0^pi dpsi / (2 + cos psi) = pi/sqrt(3); the midpoint sum's error
        # falls as (2 - sqrt(3))^(2n), so 32 nodes settle it
        f = self.counted(lambda psi: 1.0 / (2.0 + math.cos(psi)))
        val, diff = quad_adaptive(f, 0.0, math.pi)
        exact = math.pi / math.sqrt(3.0)
        assert abs(val - exact) <= 4 * math.ulp(exact)
        assert diff <= 1e-14 * exact
        assert f.calls == 8 + 16 + 32

    @pytest.mark.parametrize("c", [1e-30, 1.0, 1e30])
    def test_tolerance_is_relative_to_the_integral(self, c):
        f = self.counted(lambda psi: c / (2.0 + math.cos(psi)))
        val, diff = quad_adaptive(f, 0.0, math.pi)
        assert abs(val - c * math.pi / math.sqrt(3.0)) <= 1e-15 * val
        assert diff <= 1e-14 * val
        assert f.calls == 8 + 16 + 32

    def test_results_are_python_floats(self):
        val, diff = quad_adaptive(lambda x: np.float64(1.0) / (2.0 + np.cos(x)),
                                  np.float64(0.0), np.float64(math.pi))
        assert type(val) is float and type(diff) is float
        est = period_by_quadrature(EmdenParams(1.0, 1.0, 1.0, 1.0))
        assert type(est.T) is float and type(est.err_est) is float

    def test_a_slowly_settling_integrand_takes_8192_nodes(self):
        # integral_0^2pi dpsi / (eps + 2 sin^2(psi/2)) = 2pi/sqrt(eps (2 + eps)), the
        # form of 1/(1 + eps - cos psi) free of cancellation; its poles at distance
        # about sqrt(2 eps) from the real axis slow the sum, which settles at n = 8192
        eps = 1e-4
        f = self.counted(lambda psi: 1.0 / (eps + 2.0 * math.sin(psi / 2) ** 2))
        val, _ = quad_adaptive(f, 0.0, 2 * math.pi)
        assert f.calls == 2 * 8192 - 8
        exact = 2 * math.pi / math.sqrt(eps * (2.0 + eps))
        assert abs(val - exact) <= 1e-14 * exact

    def test_an_integrand_rounded_above_the_target_settles_at_rounding_level(self):
        # 1/(1 + eps - cos psi) loses about 13 bits to cancellation near psi = 0, so
        # once the truncation error is gone successive sums differ by 7.1e-14 and then
        # 1.2e-14 of the sum, never 1e-14: the sum settles at n = 16384 on those two
        # differences, whose sum bounds its error (it raised NoConvergence there)
        mp = pytest.importorskip("mpmath")
        c, hi = 1.0 + 8e-5, 2 * math.pi
        f = self.counted(lambda psi: 1.0 / (c - math.cos(psi)))
        val, err = quad_adaptive(f, 0.0, hi)
        assert f.calls == 2 * ode._MAX_NODES - 8
        with mp.workdps(30):
            # over the period, less the sliver past the float hi, where f = 1/eps
            eps = mp.mpf(c) - 1
            exact = float(2 * mp.pi / mp.sqrt(eps * (2 + eps)) - (2 * mp.pi - hi) / eps)
        assert abs(val - exact) <= err <= 1e-13 * val

    def test_one_difference_at_rounding_level_does_not_settle_the_sum(self):
        # the 8- and 16-point sums alias eps*cos(16 psi) to +eps and -eps, and the 32-point
        # sum is exact: the first difference, 2 eps = 6e-14 of the sum, has none before it,
        # so the sum goes on and settles at 32 on it and the next one, eps
        f = self.counted(lambda psi: 1.0 + 3e-14 * math.cos(16.0 * psi))
        val, err = quad_adaptive(f, 0.0, 2 * math.pi)
        assert f.calls == 8 + 16 + 32
        assert abs(val - 2 * math.pi) <= err <= 1e-13 * val

    def test_zero_width(self):
        assert quad_adaptive(math.sin, 1.0, 1.0) == (0.0, 0.0)

    def test_reversed_limits_rejected(self):
        with pytest.raises(DomainError):
            quad_adaptive(math.sin, 1.0, 0.0)

    def test_no_convergence_on_a_kinked_integrand(self):
        # the kink at pi/2 is a cell edge at every n, so on each smooth half the
        # error is h^2/24 times the jump of f', 3e-9 at the cap and far from 1e-14
        f = self.counted(lambda x: abs(math.cos(x)))
        with pytest.raises(NoConvergence):
            quad_adaptive(f, 0.0, math.pi)
        assert f.calls == 2 * ode._MAX_NODES - 8


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
