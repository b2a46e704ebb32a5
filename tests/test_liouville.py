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

from eulerpoisson import liouville
from eulerpoisson.errors import DomainError, OutOfRange
from eulerpoisson.goldreich_weber import S_CAP_DEFAULT, GWParams, solve_gw_profile
from eulerpoisson.liouville import (
    LiouvilleParams,
    RadialProfile,
    _WGK,
    _XGK,
    _radial_rhs,
    enclosed_mass,
    node_brackets,
    solve_profile,
)
from eulerpoisson.ode import TIGHT_CONFIG, Trajectory

from conftest import momentum_bracket, radial_reference


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
        assert constant_profile.s_mu is None  # e^f never vanishes: no support radius
        assert np.abs(constant_profile.fdot).max() == 0.0

    def test_series_coefficient_balances(self, constant_profile):
        # f''(0) = 2c = 2*a_1, the core's first coefficient; the constant profile's
        # core is f0 alone, and ends at s_max/2
        assert constant_profile._series == ((0.0, 0.0), (0.0,))
        assert constant_profile.s_core == 10.0
        p = LiouvilleParams(K=2.0, lam=1.0, alpha=0.0)
        prof = solve_profile(p, 0.5)
        assert 2 * prof._series[0][1] == pytest.approx((1.0 - math.pi) / 2.0, rel=1e-15)

    @pytest.mark.parametrize("K,alpha,names", [(1.0, 709.0, "alpha=709.0"),
                                               (1.0, 710.0, "alpha=710.0"),
                                               (1e-310, 0.0, "K=1e-310")])
    def test_series_coefficient_that_overflows_names_its_parameters(self, K, alpha, names):
        # e^709 is finite, 2*pi * e^709 is not; e^710 overflows itself
        with pytest.raises(DomainError, match=names):
            solve_profile(LiouvilleParams(K=K, lam=1.0, alpha=alpha), 20.0)

    def test_a_profile_that_cannot_start_names_its_parameters(self):
        # e^710 overflows in f''(0), the core's first coefficient
        p = LiouvilleParams(1, 1, 710)
        with pytest.raises(DomainError) as e:
            solve_profile(p, 20.0)
        assert str(e.value) == ("f''(0) = (F - g*rho(f0))/d is not finite at the center "
                                f"in the profile of {p}")

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
        with pytest.raises(DomainError, match="must be finite"):
            LiouvilleParams(K=1.0, lam=math.inf, alpha=0.0)

    @pytest.mark.parametrize("read", ["f_at", "fdot_at"])
    @pytest.mark.parametrize("s", [math.nan, -0.5, 25.0])
    def test_a_radius_outside_the_profile_is_out_of_range(self, unit_profile, read, s):
        # a NaN radius passed the check and raised DomainError from `evaluate`, naming
        # the trajectory range [s_core, s_max] and not s
        with pytest.raises(OutOfRange, match=rf"^s outside \[0, 20\.0\] at \(s={s}\)$"):
            getattr(unit_profile, read)(s)


def _unscaled_fpp(p, s, f, fp):
    """f'' of the profile equation of p at s > 0, stated here per family:
    F - g*rho(f) - (d-1)*f'/s."""
    law = p.law
    if isinstance(p, LiouvilleParams):
        forcing, d = law.F - law.g * math.exp(f), 2
    else:
        forcing, d = law.F - law.g * (f ** (p.N / (p.N - 2)) if f > 0.0 else 0.0), p.N
    return forcing - (d - 1.0) * fp / s


_FAMILIES = [LiouvilleParams(K=1.3, lam=0.7, alpha=-0.4), GWParams(3, 1.0, -0.2, 1.0),
             GWParams(6, 0.8, -0.4, 1.7)]


class TestScaledState:
    """A profile's state is (f, w*f'), w = law.fp_scale a power of two; the rhs, the
    readers of f' and the swap's start undo w exactly."""

    @pytest.mark.parametrize("p", _FAMILIES, ids=lambda p: type(p).__name__)
    def test_fp_scale_is_a_power_of_two_at_most_one(self, p):
        # 2^-7 for the Liouville profile, 1 for the Goldreich-Weber one (2^-4 while the
        # runs started at s = 0)
        mantissa, _ = math.frexp(p.law.fp_scale)
        assert mantissa == 0.5 and p.law.fp_scale == (2.0 ** -7 if p is _FAMILIES[0] else 1.0)

    # w*f' must stay a normal float, or the scaling would round
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(family=st.sampled_from(_FAMILIES), s=st.floats(1e-6, 50.0),
           f=st.floats(-2.0, 2.0), fp=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-100))
    def test_the_rhs_is_the_unscaled_rhs_scaled(self, family, s, f, fp):
        w = family.law.fp_scale
        got = _radial_rhs(family)(s, (f, w * fp))
        assert got == (fp, w * _unscaled_fpp(family, s, f, fp))

    @pytest.mark.parametrize("solve", [lambda: solve_profile(_FAMILIES[0], 20.0),
                                       lambda: solve_gw_profile(_FAMILIES[1]),
                                       lambda: solve_gw_profile(_FAMILIES[2])],
                             ids=["liouville", "gw-N3", "gw-N6"])
    def test_fdot_and_fdot_at_divide_the_state_by_w(self, solve):
        prof = solve()
        w, ys = prof.params.law.fp_scale, prof.traj.ys
        assert np.array_equal(prof.fdot, ys[:, 1] / w)
        s = np.random.default_rng(5).uniform(prof.s_core, prof.s_max, 50)
        assert np.array_equal(prof.fdot_at(s), prof.traj.evaluate(s)[:, 1] / w)
        assert np.array_equal(prof.fdot_at(prof.grid), prof.fdot)
        assert prof.fdot_at(float(s[0])) == prof.traj.evaluate(s[0])[1] / w

    @pytest.mark.parametrize("p", _FAMILIES[1:], ids=["N3", "N6"])
    def test_the_swap_starts_from_the_unscaled_fdot(self, monkeypatch, p):
        from eulerpoisson import goldreich_weber, ode

        starts = []

        def integrate(rhs, y0, *args, **kwargs):
            starts.append(y0)
            return ode.integrate(rhs, y0, *args, **kwargs)

        monkeypatch.setattr(goldreich_weber, "integrate", integrate)
        prof = solve_gw_profile(p)
        swap = starts[1]  # the run in s, the swap, the closing run
        k = int(np.flatnonzero(prof.grid == swap.y[0])[0])
        assert (swap.t, tuple(swap.y)) == (-prof.f[k], (prof.grid[k], prof.fdot[k]))
        assert swap.y[1] == prof.traj.ys[k, 1] / p.law.fp_scale


def _profiles_box(n: int) -> list:
    """A fixed draw of n points of each family from the `profiles` benchmark box: the
    `liouville` K, lam on [0.5, 2] and alpha on [-1, 1], to s = 20; the GW N in 3..6,
    lam on [-0.5, 0] and alpha_center on [0.5, 2], at K = 1 (the `fields` default)."""
    u = np.random.default_rng(20261017).random((n, 5)).tolist()
    return ([LiouvilleParams(0.5 + 1.5 * a, 0.5 + 1.5 * b, 2.0 * c - 1.0) for a, b, c, _, _ in u]
            + [GWParams(3 + i % 4, 1.0, -0.5 * d, 0.5 + 1.5 * e)
               for i, (_, _, _, d, e) in enumerate(u)])


class TestAgainstATightReference:
    """Both families over the `profiles` box against scipy's DOP853 at atol 1e-22 on
    the unscaled (f, f') (`conftest.radial_reference`).  Over the benchmark pools of
    seeds 20261017 and 555 (`tools/profile_accuracy.py`) the worst errors were 1.7e-12
    for f, 3.7e-12 for f' and 1.3e-13 for s_mu, relative."""

    @pytest.mark.parametrize("p", _profiles_box(4), ids=[f"liouville-{i}" for i in range(4)]
                             + [f"gw-N{n}" for n in range(3, 7)])
    def test_nodes_and_support_radius(self, p):
        gw = isinstance(p, GWParams)
        prof = solve_gw_profile(p) if gw else solve_profile(p, 20.0)
        ref, s_mu = radial_reference(p.law, S_CAP_DEFAULT if gw else 20.0, zero=gw)
        f, fdot = ref(prof.grid)
        assert np.abs(prof.f - f).max() <= 1e-11
        assert np.abs(prof.fdot - fdot).max() <= 1e-11
        if gw:
            assert abs(prof.s_mu - s_mu) <= 1e-11 * s_mu


class TestCore:
    """The Taylor core: the series of the law on [0, s_core], the run from its end."""

    @pytest.mark.parametrize("p", _FAMILIES, ids=["liouville", "gw-N3", "gw-N6"])
    def test_the_run_starts_on_the_series_state(self, p):
        gw = isinstance(p, GWParams)
        prof = solve_gw_profile(p) if gw else solve_profile(p, 20.0)
        start = liouville._core_start(p.law, S_CAP_DEFAULT if gw else 20.0, TIGHT_CONFIG)
        assert prof.s_core == prof.grid[0] == start.t > 0.0
        assert prof.traj.ys[0].tobytes() == start.y.tobytes()
        # the series just below s_core, the dense output from it on
        below, above = np.nextafter(prof.s_core, 0.0), np.nextafter(prof.s_core, np.inf)
        for read, at in ((prof.f_at, prof.f[0]), (prof.fdot_at, prof.fdot[0])):
            assert read(prof.s_core) == at
            for s in (below, above):
                assert abs(read(s) - at) <= 1e-14 * max(1.0, abs(at))

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(K=st.floats(0.5, 2.0), alpha=st.floats(-1.0, 1.0))
    def test_the_core_is_the_closed_form_at_lam_0(self, K, alpha):
        # relative to max(1, |f|), since f crosses 0; measured worsts over 49 members of
        # this box: f 2.2e-16, f' 5.5e-16, mass 5.6e-16
        prof = solve_profile(LiouvilleParams(K=K, lam=0.0, alpha=alpha), 20.0)
        s = np.linspace(0.0, prof.s_core, 101)[:-1]
        f = np.array([closed_form_lam0(x, K, alpha) for x in s.tolist()])
        assert np.all(np.abs(prof.f_at(s) - f) <= 1e-14 * np.maximum(1.0, np.abs(f)))
        # the mass lam*s^2 - K*s*f'(s) of the closed form at lam = 0, against the
        # core's quadrature of e^f
        b2 = math.pi * math.exp(alpha) / (4 * K)
        mass = 4 * K * b2 * s[1:] ** 2 / (1 + b2 * s[1:] ** 2)
        assert np.all(np.abs(enclosed_mass(prof, s[1:]) - mass) <= 1e-14 * mass)

    @pytest.mark.parametrize("K,alpha,s_max", [(1.0, -700.0, 1e153), (1e300, 0.0, 1e152)],
                             ids=["alpha--700", "K-1e300"])
    def test_a_series_whose_terms_underflow_stops_before_them(self, K, alpha, s_max):
        # a_1 is about -1.5e-304 and -1.6e-300, and from a_2 on the terms underflow to 0:
        # a series cut there passed for exact, the core ran to s_max/2, and at alpha =
        # -700 f there was -739, not -706.  Measured worsts, relative: f 1.1e-12 and mass
        # 3.2e-11 at alpha = -700 (2.0e-11 in a run from s = 0), f 4.9e-13 and mass 6.1e-13
        # at K = 1e300; the mass is a quadrature of e^f ~ 1e-304 out to s ~ 1e153
        prof = solve_profile(LiouvilleParams(K=K, lam=0.0, alpha=alpha), s_max)
        assert len(prof._series[0]) == 2 and prof.s_core < 1e-9 * s_max
        s = np.array([prof.s_core / 2, prof.s_core, s_max / 4, s_max / 2, s_max])
        f = np.array([closed_form_lam0(x, K, alpha) for x in s.tolist()])
        assert np.all(np.abs(prof.f_at(s) - f) <= 1e-11 * np.maximum(1.0, np.abs(f)))
        b2 = math.pi * math.exp(alpha) / (4 * K)
        mass = 4 * K * b2 * s ** 2 / (1 + b2 * s ** 2)
        assert np.all(np.abs(enclosed_mass(prof, s) - mass) <= 1e-10 * mass)

    def test_the_profiles_box_node_counts_are_stable(self):
        # guards the core: 2,250 Liouville and 392 GW nodes over this box, within 1% as
        # `test_profile_node_count_is_stable` (2,546 and 1,522 from s = 0, before the
        # profiles started from a Taylor core; 389 GW nodes at their fp_scale 2^-4)
        box = _profiles_box(16)
        liouville_nodes = sum(solve_profile(p, 20.0).traj.n_nodes for p in box[:16])
        gw_nodes = sum(solve_gw_profile(p).traj.n_nodes for p in box[16:])
        assert abs(liouville_nodes - 2250) <= 0.01 * 2250
        assert abs(gw_nodes - 392) <= 0.01 * 392


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

    @pytest.mark.parametrize("solve", [
        lambda: solve_profile(LiouvilleParams(K=1.0, lam=1.0, alpha=0.0), 20.0),
        lambda: solve_gw_profile(GWParams(N=3, K=1.0, lam=1.0, alpha_center=1.0)),
    ], ids=["liouville", "gw"])
    def test_panels_read_the_dense_output_as_evaluate_does(self, monkeypatch, solve):
        # the panels call the kernel on their segments' rows, not evaluate, for speed
        prof, panels, dense = solve(), [], liouville._dense
        monkeypatch.setattr(liouville, "_dense",
                            lambda tau, *rows: panels.append((tau, dense(tau, *rows))) or
                            panels[-1][1])
        ts = prof.traj.ts
        prof._mass_at_nodes()
        enclosed_mass(prof, 0.5 * (ts[:-1] + ts[1:]))  # one panel off the nodes per segment
        node, off = panels[0], panels[-1]
        assert node[0].shape == off[0].shape == (len(ts) - 1, 15)
        assert np.all(node[0][:, 0] > ts[:-1]) and np.all(off[0][:, -1] < 0.5 * (ts[:-1] + ts[1:]))
        for tau, f in panels:
            assert f.tobytes() == prof.traj.evaluate(tau)[..., 0].tobytes()


def _kronrod_mass_loop(prof, a, b):
    """2*pi * integral_a^b e^f tau dtau by one 15-point Kronrod panel, scalar."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    total = _WGK[7] * math.exp(prof.f_at(mid)) * mid
    for j in range(7):
        x = half * float(_XGK[j])
        for tau in (mid - x, mid + x):
            total += float(_WGK[j]) * math.exp(prof.f_at(tau)) * tau
    return 2 * math.pi * total * half


class TestScaling:
    """f_(alpha + 2 ln k, k^2 lam)(s) = f_(alpha, lam)(k s) + 2 ln k solves the
    same equation, and its enclosed mass at s is the mass at k s."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(K=st.floats(0.5, 2.0), lam=st.floats(0.5, 2.0), alpha=st.floats(-1.0, 1.0),
           log2_k=st.floats(-1.0, 1.0))
    def test_a_rescaled_profile_is_the_profile_at_k_s(self, K, lam, alpha, log2_k):
        # measured worsts over 40 draws: f 1.4e-11 * max(1, |f|), mass 2.5e-13
        k = 2.0**log2_k
        base = solve_profile(LiouvilleParams(K=K, lam=lam, alpha=alpha), 40.0)
        scaled = solve_profile(LiouvilleParams(K=K, lam=k * k * lam, alpha=alpha + 2 * math.log(k)),
                               20.0)
        s = np.linspace(0.05, 19.0, 200)
        f = scaled.f_at(s)
        ref = base.f_at(k * s) + 2 * math.log(k)
        assert np.all(np.abs(f - ref) <= 1e-10 * np.maximum(1.0, np.abs(f)))
        mass = enclosed_mass(base, k * s)
        assert np.all(np.abs(enclosed_mass(scaled, s) - mass) <= 2.5e-12 * mass)


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

    @pytest.mark.parametrize("K,lam,alpha", [(1.0, 1.0, 0.0), (2.0, 1.0, 0.5), (0.5, 1.0, 1.0)])
    def test_node_brackets_is_the_bracket_at_the_nodes(self, K, lam, alpha):
        prof = solve_profile(LiouvilleParams(K=K, lam=lam, alpha=alpha), 20.0)
        s, mass, bracket = node_brackets(prof)  # f' read off the nodes, as `liouville` writes it
        assert np.array_equal(s, prof.grid) and np.array_equal(mass, enclosed_mass(prof, s))
        assert np.array_equal(bracket, momentum_bracket(prof, s))


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
