"""Compact-support profiles in N >= 3 and their collapsing scale factor."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerpoisson import ode
from eulerpoisson.emden import integrate_scale
from eulerpoisson.errors import DomainError, NoCompactSupport, StepBudgetExceeded, StepUnderflow
from eulerpoisson.goldreich_weber import (
    S_CAP_DEFAULT,
    GWParams,
    alpha_const,
    gw_density,
    solve_gw_profile,
    unit_ball_volume,
)
from eulerpoisson.liouville import enclosed_mass
from eulerpoisson.ode import TIGHT_CONFIG

# offline fixed-step reference for the first zero at N=3, lam=0, K=1, alpha=1
S_MU_REFERENCE = 3.8911301


@pytest.fixture(scope="module")
def le3_profile():
    return solve_gw_profile(GWParams(N=3, K=1.0, lam=0.0, alpha_center=1.0))


class TestAlphaConst:
    def test_low_dimensions(self):
        assert alpha_const(1) == 2.0
        assert alpha_const(2) == pytest.approx(2 * math.pi, rel=1e-15)
        assert alpha_const(3) == pytest.approx(4 * math.pi, rel=1e-15)
        assert alpha_const(4) == pytest.approx(4 * math.pi**2, rel=1e-15)

    def test_volume_recursion_to_ten(self):
        # independent oracle: V(N) = V(N-2) * 2*pi / N from V(1)=2, V(2)=pi
        vol = {1: 2.0, 2: math.pi}
        for n in range(3, 11):
            vol[n] = vol[n - 2] * 2 * math.pi / n
            assert unit_ball_volume(n) == pytest.approx(vol[n], rel=1e-12)
            if n >= 3:
                assert alpha_const(n) == pytest.approx(
                    n * (n - 2) * vol[n], rel=1e-12
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_const(0)


class TestProfile:
    def test_first_zero_matches_reference(self, le3_profile):
        assert le3_profile.s_mu is not None
        assert le3_profile.s_mu == pytest.approx(S_MU_REFERENCE, abs=1e-5)

    def test_positive_inside_support(self, le3_profile):
        assert np.all(le3_profile.f[:-1] > 0)
        assert le3_profile.f_at(le3_profile.s_mu) == pytest.approx(0.0, abs=1e-10)

    def test_series_coefficient(self, le3_profile):
        # N f''(0) = 2Nc = forcing - gravity at the center; f''(0) is the first derivative row
        assert le3_profile.traj.fs[0, 1] == pytest.approx(-math.pi / 3, rel=1e-15)

    def test_series_coefficient_that_overflows_names_alpha_center(self):
        # alpha_center^3 is finite, pi times it is not
        with pytest.raises(DomainError, match="alpha_center=5e"):
            solve_gw_profile(GWParams(N=3, K=1.0, lam=0.0, alpha_center=5e102))

    def test_support_below_the_step_floor_names_alpha_center(self):
        # the support radius is about 1e-100, below the step floor 1e-14 at s = 0
        with pytest.raises(StepUnderflow, match="alpha_center=1e"):
            solve_gw_profile(GWParams(N=3, K=1.0, lam=1.0, alpha_center=1e100))

    def test_balanced_forcing_gives_constant_profile(self):
        alpha_c = 1.3
        lam = alpha_const(3) * alpha_c**3 / 3.0
        prof = solve_gw_profile(
            GWParams(N=3, K=1.0, lam=lam, alpha_center=alpha_c), s_cap=20.0
        )
        assert prof.s_mu is None
        assert np.abs(prof.f - alpha_c).max() == 0.0

    def test_support_grows_with_pressure(self):
        mu = []
        for K in (1.0, 2.0):
            prof = solve_gw_profile(GWParams(N=3, K=K, lam=0.0, alpha_center=1.0))
            mu.append(prof.s_mu)
        assert mu[1] > mu[0]

    def test_residual_second_order(self, le3_profile):
        p = le3_profile.params
        grav = alpha_const(3) / (4 * p.K)
        norms = []
        for h in (4e-3, 2e-3, 1e-3):
            res = []
            for s in np.linspace(0.5, 3.5, 30):
                fpp = (le3_profile.fdot_at(s + h) - le3_profile.fdot_at(s - h)) / (2 * h)
                res.append(
                    fpp
                    + 2 * le3_profile.fdot_at(s) / s
                    + grav * le3_profile.f_at(s) ** 3
                )
            norms.append(max(abs(r) for r in res))
        order = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(norms), 1)[0]
        assert 1.8 <= order <= 2.2


def _clamped_reference_s_mu(p: GWParams, s_cap: float = 100.0) -> float | None:
    """First falling zero of f by scipy's DOP853, with a right-hand side that
    clamps f < 0 to 0; independent of the package's stepper.

    A first pass locates the zero; a second pass from 2% before it, with
    steps of at most 1e-4 of it, locates it again on short steps.
    """
    import scipy.integrate as scipy_integrate  # a test dependency, never skipped

    power, denom = p.N / (p.N - 2), (2 * p.N - 2) * p.K
    forcing, grav = p.N * (p.N - 2) * p.lam / denom, (p.N - 2) * alpha_const(p.N) / denom
    # c = f''(0)/2, where N f''(0) = forcing - gravity at the center
    c, s0 = (forcing - grav * p.alpha_center**power) / (2 * p.N), 1e-6

    def rhs(s, y):
        f = max(y[0], 0.0)
        return [y[1], forcing - grav * f**power - (p.N - 1) * y[1] / s]

    def zero(s, y):
        return y[0]

    zero.terminal, zero.direction = True, -1
    tight = dict(method="DOP853", rtol=1e-13, atol=1e-15, events=zero)
    first = scipy_integrate.solve_ivp(
        rhs, (s0, s_cap), [p.alpha_center + c * s0 * s0, 2 * c * s0],
        dense_output=True, **tight)
    if not first.t_events[0].size:
        return None
    z = float(first.t_events[0][0])
    again = scipy_integrate.solve_ivp(
        rhs, (0.98 * z, s_cap), first.sol(0.98 * z), max_step=1e-4 * z, **tight)
    return float(again.t_events[0][0])


def _count_calls(monkeypatch, fn) -> list:
    """Replace fn wherever an eulerpoisson module binds it; one list entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("eulerpoisson"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestSupportRadius:
    """s_mu is the zero that Henon's swap lands on, past the last node with f > 0."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(N=st.integers(3, 6), K=st.floats(0.5, 2.0), lam=st.floats(-0.5, 0.0),
           alpha_center=st.floats(0.5, 2.0))
    def test_matches_the_clamped_reference(self, N, K, lam, alpha_center):
        p = GWParams(N=N, K=K, lam=lam, alpha_center=alpha_center)
        prof = solve_gw_profile(p)
        ref = _clamped_reference_s_mu(p)
        assert prof.s_mu is not None and ref is not None
        assert prof.s_mu == prof.s_max and prof.f[-1] == 0.0
        assert abs(prof.s_mu - ref) <= 1e-12 * ref
        assert np.all(prof.f >= 0.0)
        assert abs(prof.f_at(prof.s_mu)) <= 1e-10

    @pytest.mark.parametrize("N", [3, 5])
    def test_three_integrations_no_event_search_and_no_rejection_cascade(self, monkeypatch, N):
        # the run in s to the fall, Henon's swap to f = 0 and the closing run; grinding
        # into the zero took 34 (N = 3) and 33 (N = 5) rejected attempts
        integrations = _count_calls(monkeypatch, ode.integrate)
        searches = _count_calls(monkeypatch, ode.detect_events)
        prof = solve_gw_profile(GWParams(N=N, K=1.0, lam=-0.2, alpha_center=1.0))
        assert len(integrations) == 3 and searches == []
        assert prof.traj.stats.rejected <= 10

    def test_a_zero_inside_the_first_step_names_alpha_center(self):
        # f stays below atol, so the first step falls through 0 from s = 0, where
        # f' = 0 and the swap cannot start; the error names that cause, not the
        # swap's non-finite rhs at its initial state
        match = "falls through 0 inside the first step.* in the profile of .*alpha_center=1e-30"
        with pytest.raises(DomainError, match=match):
            solve_gw_profile(GWParams(N=3, K=1.0, lam=-1.0, alpha_center=1e-30))

    def test_a_halt_that_is_not_a_zero_raises(self):
        cfg = dataclasses.replace(TIGHT_CONFIG, max_steps=50)
        with pytest.raises(StepBudgetExceeded):
            solve_gw_profile(GWParams(N=3, K=1.0, lam=0.0, alpha_center=1.0), cfg)


class TestScaling:
    """With p = N/(N-2) and k = c^((p-1)/2), c * f(k s) solves the profile
    equation from c * alpha_center at c^p * lam, so s_mu scales by 1/k."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(N=st.integers(3, 6), K=st.floats(0.5, 2.0), lam=st.floats(-0.5, 0.0),
           alpha_center=st.floats(0.5, 2.0), log2_c=st.floats(-3.0, 3.0))
    def test_a_rescaled_profile_is_the_profile_at_k_s(self, N, K, lam, alpha_center, log2_c):
        # measured worsts over 40 draws: s_mu 2.4e-13, f 2.5e-12 of c * alpha_center
        c, power = 2.0**log2_c, N / (N - 2)
        k = c ** ((power - 1) / 2)
        base = solve_gw_profile(GWParams(N=N, K=K, lam=lam, alpha_center=alpha_center))
        # the scaled cap is the same cap, so both profiles find their zero or neither does
        scaled = solve_gw_profile(GWParams(N=N, K=K, lam=c**power * lam,
                                           alpha_center=c * alpha_center),
                                  s_cap=S_CAP_DEFAULT / k)
        assert base.s_mu is not None
        assert abs(k * scaled.s_mu - base.s_mu) <= 1e-12 * base.s_mu
        s = np.linspace(0.0, scaled.s_mu, 100)[:-1]
        ref = c * base.f_at(np.minimum(k * s, base.s_mu))
        assert np.all(np.abs(scaled.f_at(s) - ref) <= 2.5e-11 * c * alpha_center)


class TestEnclosedMass:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(N=st.integers(3, 6), K=st.floats(0.5, 2.0), lam=st.floats(-0.5, 0.0),
           alpha_center=st.floats(0.5, 2.0))
    def test_first_integral(self, N, K, lam, alpha_center):
        # s^(N-1) times the profile equation, integrated from 0:
        # alpha(N) int_0^s f^(N/(N-2)) tau^(N-1) dtau = lam s^N - (2N-2)/(N-2) K s^(N-1) f'(s)
        prof = solve_gw_profile(GWParams(N=N, K=K, lam=lam, alpha_center=alpha_center))
        s = prof.s_mu * np.array([1e-3, 0.05, 0.2, 0.37, 0.5, 0.73, 0.9, 0.999])
        rhs = lam * s**N - (2 * N - 2) / (N - 2) * K * s ** (N - 1) * prof.fdot_at(s)
        assert np.all(np.abs(enclosed_mass(prof, s) - rhs) <= 1e-9 * np.maximum(1.0, np.abs(rhs)))


class TestRadialBalance:
    """The profile against the Euler-Poisson system it stands for, not its own ODE."""

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_momentum_balance_holds(self, N):
        # rho = f(r/a)^(N/(N-2))/a^N, P = K rho^((2N-2)/N), Laplacian Phi = alpha(N) rho
        # and u = (a'/a) x balance radial momentum where, times a^(N-1),
        # -lam s + K (2N-2)/(N-2) f'(s) + alpha(N) M(s)/s^(N-1) = 0 with
        # M(s) = int_0^s f^(N/(N-2)) sigma^(N-1) dsigma, here from scipy's QUADPACK
        scipy_integrate = pytest.importorskip("scipy.integrate")
        K, lam = 1.0, -0.2
        prof = solve_gw_profile(GWParams(N=N, K=K, lam=lam, alpha_center=1.0))
        for s in prof.s_mu * np.array([0.05, 0.2, 0.4, 0.6, 0.8, 0.95]):
            mass, _ = scipy_integrate.quad(
                lambda x: float(prof.f_at(x)) ** (N / (N - 2)) * x ** (N - 1), 0.0, s,
                epsabs=0.0, epsrel=1e-13, limit=200)
            balance = (-lam * s + K * (2 * N - 2) / (N - 2) * float(prof.fdot_at(s))
                       + alpha_const(N) * mass / s ** (N - 1))
            assert abs(balance) <= 1e-9, (s, balance)


class TestScale:
    def test_free_motion_without_gravity(self):
        run = integrate_scale(
            GWParams(N=3, K=1.0, lam=0.0, alpha_center=1.0, a0=1.0, a1=0.5), 10.0
        )
        traj = run.trajectory
        assert run.touchdown_time is None
        assert np.abs(traj.ys[:, 0] - (1.0 + 0.5 * traj.ts)).max() <= 1e-12

    def test_collapse_matches_energy_quadrature(self):
        run = integrate_scale(
            GWParams(N=3, K=1.0, lam=1.0, alpha_center=1.0, a0=1.0, a1=0.0), 10.0
        )
        assert run.touchdown_time is not None
        # oracle: a'^2/2 = lam*(1/a - 1/a0) integrates to the free-fall time
        # integral_0^1 da / sqrt(2 (1/a - 1)) = pi/(2 sqrt(2))
        t_ref = math.pi / (2 * math.sqrt(2.0))
        assert run.touchdown_time == pytest.approx(t_ref, rel=1e-6)

    @pytest.mark.parametrize("N,lam,a0", [(5, 1.0, 1.0), (5, 0.5, 1.5), (6, 1.0, 1.0),
                                          (6, 2.0, 0.7)])
    def test_collapse_matches_the_beta_function(self, N, lam, a0):
        # from rest, a'^2/2 = lam (a^(2-N) - a0^(2-N))/(N-2), and a = a0 u^(1/(N-2)) gives
        # t* = a0^(N/2) sqrt((N-2)/(2 lam)) B(1/2 + 1/(N-2), 1/2)/(N-2); the step
        # underflows where a is still 7e-6 (N = 5) or 5e-5 (N = 6) of a0
        run = integrate_scale(GWParams(N, 1.0, lam, 1.0, a0, 0.0), 10.0)
        x = 0.5 + 1 / (N - 2)
        beta = math.gamma(x) * math.gamma(0.5) / math.gamma(x + 0.5)
        t_ref = a0 ** (N / 2) * math.sqrt((N - 2) / (2 * lam)) * beta / (N - 2)
        assert abs(run.touchdown_time - t_ref) <= 1e-9 * t_ref
        assert run.trajectory.t_end == run.touchdown_time

    def test_a_halt_that_is_no_touchdown_names_the_params(self):
        p = GWParams(N=5, K=1.0, lam=1.0, alpha_center=1.0, a0=1.0, a1=0.0)
        with pytest.raises(StepBudgetExceeded, match=r"in the scale factor of GWParams\(N=5,"):
            integrate_scale(p, 10.0, ode.IntegratorConfig(max_steps=5))

    def test_negative_lam_expands(self):
        run = integrate_scale(
            GWParams(N=3, K=1.0, lam=-1.0, alpha_center=1.0, a0=1.0, a1=0.0), 20.0
        )
        a = run.trajectory.ys[:, 0]
        assert run.touchdown_time is None
        assert np.all(np.diff(a) > 0)
        assert a[-1] > 10


class TestDensity:
    def test_center_value(self, le3_profile):
        for a in (0.5, 1.0, 2.0):
            assert gw_density(le3_profile, a, 0.0) == pytest.approx(
                1.0 / a**3, rel=1e-12
            )

    def test_zero_on_and_outside_boundary(self, le3_profile):
        for a in (0.5, 1.0, 2.0):
            edge = a * le3_profile.s_mu
            assert gw_density(le3_profile, a, edge) == 0.0
            assert gw_density(le3_profile, a, edge * 1.5) == 0.0

    def test_positive_just_inside(self, le3_profile):
        edge = le3_profile.s_mu
        assert gw_density(le3_profile, 1.0, edge * (1 - 1e-4)) > 0.0

    def test_vanishing_exponent(self, le3_profile):
        # density ~ (s_mu - s)^(N/(N-2)) = cube near the boundary
        smu = le3_profile.s_mu
        deltas = np.geomspace(1e-3 * smu, 1e-2 * smu, 10)
        rho = np.array([gw_density(le3_profile, 1.0, smu - d) for d in deltas])
        slope = np.polyfit(np.log(deltas), np.log(rho), 1)[0]
        assert slope == pytest.approx(3.0, rel=0.05)

    def test_no_support_error(self):
        alpha_c = 1.0
        lam = alpha_const(3) * alpha_c**3 / 3.0
        prof = solve_gw_profile(
            GWParams(N=3, K=1.0, lam=lam, alpha_center=alpha_c), s_cap=5.0
        )
        with pytest.raises(NoCompactSupport):
            gw_density(prof, 1.0, 50.0)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            GWParams(N=2, K=1.0, lam=0.0, alpha_center=1.0)
        # N = 3.5 once solved a profile in "dimension 3.5"
        with pytest.raises(DomainError, match="integer"):
            GWParams(N=3.5, K=1.0, lam=0.0, alpha_center=1.0)
        with pytest.raises(DomainError):
            GWParams(N=3, K=1.0, lam=0.0, alpha_center=-1.0)
        with pytest.raises(DomainError):
            gw_density(solve_gw_profile(GWParams(N=3, K=1.0, lam=0.0, alpha_center=1.0)), -1.0, 0.5)
