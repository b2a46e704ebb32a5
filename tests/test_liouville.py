"""Radial profile solver, the enclosed-mass identity, and its negative control.

Two independent oracles pin the solver: the constant solution f = 0 at
lam = pi*e^alpha, and the closed-form zero-gravity-support solution
f(s) = alpha - 2*ln(1 + beta^2 s^2) with beta^2 = pi*e^alpha/(4K), valid
whenever lam = 0.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerpoisson.errors import DomainError, OutOfRange
from eulerpoisson.liouville import (
    LiouvilleParams,
    RadialProfile,
    enclosed_mass,
    momentum_bracket,
    solve_profile,
)
from eulerpoisson.ode import _WGK, _XGK, Trajectory


def closed_form_lam0(s, K, alpha):
    b2 = math.pi * math.exp(alpha) / (4 * K)
    return alpha - 2 * math.log(1 + b2 * s * s)


@pytest.fixture(scope="module")
def constant_profile():
    return solve_profile(LiouvilleParams(K=1.0, lam=math.pi, alpha=0.0), 20.0)


@pytest.fixture(scope="module")
def unit_profile():
    return solve_profile(LiouvilleParams(K=1.0, lam=1.0, alpha=0.0), 20.0)


class TestSolveProfile:
    def test_constant_solution(self, constant_profile):
        assert np.abs(constant_profile.f).max() == 0.0
        assert np.abs(constant_profile.fdot).max() == 0.0

    def test_series_coefficient_balances(self, constant_profile):
        # f''(0) = 2c, the rhs at s = 0, is the profile's first derivative row
        assert constant_profile.traj.fs[0, 1] == 0.0
        prof = solve_profile(LiouvilleParams(K=2.0, lam=1.0, alpha=0.0), 0.5)
        assert prof.traj.fs[0, 1] == pytest.approx((1.0 - math.pi) / 2.0, rel=1e-15)

    @pytest.mark.parametrize("K,alpha,names", [(1.0, 709.0, "alpha=709.0"),
                                               (1.0, 710.0, "alpha=710.0"),
                                               (1e-310, 0.0, "K=1e-310")])
    def test_series_coefficient_that_overflows_names_its_parameters(self, K, alpha, names):
        # e^709 is finite, 2*pi * e^709 is not; e^710 overflows itself
        with pytest.raises(DomainError, match=names):
            solve_profile(LiouvilleParams(K=K, lam=1.0, alpha=alpha), 20.0)

    @pytest.mark.parametrize("K,alpha", [(1.0, 0.0), (2.0, 0.5)])
    def test_zero_gravity_support_closed_form(self, K, alpha):
        prof = solve_profile(LiouvilleParams(K=K, lam=0.0, alpha=alpha), 20.0)
        for s in (0.5, 1.0, 5.0, 19.0):
            assert prof.f_at(s) == pytest.approx(
                closed_form_lam0(s, K, alpha), abs=1e-9
            )

    def test_pure_self_gravity_decreases(self):
        prof = solve_profile(LiouvilleParams(K=1.0, lam=0.0, alpha=0.0), 10.0)
        assert np.all(prof.fdot[1:] < 0)
        assert np.all(np.diff(prof.f) < 0)

    def test_ode_residual_from_dense_derivative(self, unit_profile):
        # reconstruct f'' by centered differences of the dense f' and check
        # the equation; second-order convergence in the sampling step
        p = unit_profile.params
        norms = []
        for h in (4e-3, 2e-3, 1e-3):
            res = []
            for s in np.linspace(0.5, 15.0, 40):
                fpp = (unit_profile.fdot_at(s + h) - unit_profile.fdot_at(s - h)) / (2 * h)
                res.append(
                    fpp
                    + unit_profile.fdot_at(s) / s
                    + (2 * math.pi / p.K) * math.exp(unit_profile.f_at(s))
                    - 2 * p.lam / p.K
                )
            norms.append(max(abs(r) for r in res))
        order = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(norms), 1)[0]
        assert 1.8 <= order <= 2.2
        # at h = 1e-4 the node-level residual reaches the contract bound
        res = []
        for s in np.linspace(0.5, 15.0, 40):
            h = 1e-4
            fpp = (unit_profile.fdot_at(s + h) - unit_profile.fdot_at(s - h)) / (2 * h)
            res.append(
                fpp
                + unit_profile.fdot_at(s) / s
                + 2 * math.pi * math.exp(unit_profile.f_at(s))
                - 2.0
            )
        assert max(abs(r) for r in res) <= 1e-8

    def test_alpha_monotonicity_near_center(self):
        # continuity of the flow in alpha: larger alpha, larger e^f at s=0.1
        vals = []
        for alpha in (0.0, 0.1):
            prof = solve_profile(LiouvilleParams(K=1.0, lam=1.0, alpha=alpha), 0.5)
            vals.append(math.exp(prof.f_at(0.1)))
        assert vals[1] > vals[0]

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(K=st.floats(0.5, 2.0), lam=st.floats(0.5, 2.0), alpha=st.floats(-1.0, 1.0))
    def test_start_at_the_center_matches_scipy(self, K, lam, alpha):
        # oracle: scipy's DOP853 at tighter tolerances, started off the
        # singular point at 1e-4 from f = alpha + c s^2 + d s^4
        import scipy.integrate as scipy_integrate  # a test dependency, never skipped

        p = LiouvilleParams(K=K, lam=lam, alpha=alpha)
        prof = solve_profile(p, 20.0)
        assert prof.f_at(0.0) == alpha and prof.fdot_at(0.0) == 0.0
        c = (lam - math.pi * math.exp(alpha)) / (2 * K)  # f''(0) / 2
        d = -math.pi * math.exp(alpha) * c / (8 * K)
        s0, s = 1e-4, np.geomspace(1e-3, 20.0, 60)

        def rhs(s, y):
            return [y[1], 2 * lam / K - 2 * math.pi / K * math.exp(y[0]) - y[1] / s]

        ref = scipy_integrate.solve_ivp(
            rhs, (s0, 20.0), [alpha + c * s0**2 + d * s0**4, 2 * c * s0 + 4 * d * s0**3],
            method="DOP853", rtol=2.3e-14, atol=1e-16, t_eval=s)
        assert ref.success
        f = prof.f_at(s)
        assert np.all(np.abs(f - ref.y[0]) <= 1e-10 * np.maximum(1.0, np.abs(f)))

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            solve_profile(LiouvilleParams(K=1.0, lam=1.0, alpha=0.0), 0.0)
        with pytest.raises(DomainError):
            LiouvilleParams(K=0.0, lam=1.0, alpha=0.0)


class TestEnclosedMass:
    def test_constant_profile_analytic(self, constant_profile):
        for s in (0.5, 1.0, 2.0, 10.0):
            assert enclosed_mass(constant_profile, s) == pytest.approx(
                math.pi * s * s, rel=1e-12
            )

    def test_small_s_leading_order(self, unit_profile):
        alpha = unit_profile.params.alpha
        for s in (1e-8, 1e-7):
            assert enclosed_mass(unit_profile, s) == pytest.approx(
                math.pi * math.exp(alpha) * s * s, rel=1e-10
            )

    def test_matches_identity(self, unit_profile):
        p = unit_profile.params
        s = 1.0
        rhs = p.lam * s * s - p.K * s * unit_profile.fdot_at(s)
        assert abs(enclosed_mass(unit_profile, s) - rhs) <= 1e-8

    def test_out_of_range(self, unit_profile):
        with pytest.raises(OutOfRange):
            enclosed_mass(unit_profile, 25.0)
        with pytest.raises(OutOfRange):
            enclosed_mass(unit_profile, 0.0)

    def test_panels_match_scalar_reference_loop(self, unit_profile):
        # the vectorised Kronrod panels against the same rule evaluated point
        # by point through f_at; only the summation order differs
        ts = unit_profile.traj.ts
        node_mass = unit_profile._mass_at_nodes()
        for i in (0, 7, len(ts) // 2, len(ts) - 2):
            a, b = float(ts[i]), float(ts[i + 1])
            full = _kronrod_mass_loop(unit_profile, a, b)
            assert node_mass[i + 1] - node_mass[i] == pytest.approx(full, rel=1e-12)
            s = a + 0.3 * (b - a)
            want = node_mass[i] + _kronrod_mass_loop(unit_profile, a, s)
            assert enclosed_mass(unit_profile, s) == pytest.approx(want, rel=1e-13)


def _kronrod_mass_loop(prof, a, b):
    """2*pi * integral_a^b e^f tau dtau by one 15-point Kronrod panel, scalar."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    total = _WGK[7] * math.exp(prof.f_at(mid)) * mid
    for j in range(7):
        x = half * float(_XGK[j])
        for tau in (mid - x, mid + x):
            total += float(_WGK[j]) * math.exp(prof.f_at(tau)) * tau
    return 2 * math.pi * total * half


class TestMomentumBracket:
    def test_constant_profile_is_exactly_balanced(self, constant_profile):
        assert momentum_bracket(constant_profile, 1.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("s", [0.1, 1.0, 5.0])
    def test_solved_profile_balances(self, unit_profile, s):
        assert abs(momentum_bracket(unit_profile, s)) <= 1e-8

    def test_perturbed_profile_fails(self, unit_profile):
        # shift f by 0.01: no longer a solution, the bracket must detect it
        traj = unit_profile.traj
        fake = RadialProfile(
            unit_profile.params,
            Trajectory(traj.ts, traj.ys + np.array([0.01, 0.0]), traj.fs),
        )
        worst = max(abs(momentum_bracket(fake, s)) for s in (1.0, 3.0, 10.0))
        assert worst > 1e-4


class TestMassIdentity:
    # s * momentum_bracket(s) = enclosed_mass(s) - (lam*s^2 - K*s*f'(s))

    def test_constant_profile(self, constant_profile):
        for s in (0.3, 1.0, 7.0):
            assert abs(s * momentum_bracket(constant_profile, s)) <= 1e-12

    def test_solved_profile(self):
        prof = solve_profile(LiouvilleParams(K=2.0, lam=1.0, alpha=0.5), 5.0)
        assert abs(3.0 * momentum_bracket(prof, 3.0)) <= 1e-8

    def test_identity_holds_at_the_first_node(self, unit_profile):
        s = unit_profile.grid[1]
        assert abs(s * momentum_bracket(unit_profile, s)) <= 1e-12

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("K", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_identity_over_full_grid(self, lam, K, alpha):
        prof = solve_profile(LiouvilleParams(K=K, lam=lam, alpha=alpha), 20.0)
        mass = prof._mass_at_nodes()
        residual = np.abs(mass - (lam * prof.grid**2 - K * prof.grid * prof.fdot))
        assert residual.max() <= 1e-8
