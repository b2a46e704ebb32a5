"""Field assembly: rotating family, swirl ansatz, and the two-region spiral."""

import dataclasses
import math

import numpy as np
import pytest

from eulerpoisson.emden import EmdenParams, integrate_scale
from eulerpoisson.errors import DomainError, OutOfRange, OutsideRegion
from eulerpoisson.fields import (
    ZZSolution,
    build_rotational,
    eval_gravity_radial,
    eval_gw,
    eval_rotational,
    eval_zz_inner,
    eval_zz_outer,
    zz_interface_radius,
)
from eulerpoisson.goldreich_weber import GWParams, solve_gw_profile
from eulerpoisson.ode import TIGHT_CONFIG

from conftest import SwirlAnsatz, eval_swirl_ansatz, gravity_radial_two_ways


@pytest.fixture(scope="module")
def rigid_rotation():
    """Constant-density steady state: abar = 1, f = 0, pure rigid rotation."""
    return build_rotational(
        lam=math.pi, xi=math.sqrt(math.pi), K=1.0, alpha=0.0,
        a0=1.0, a1=0.0, t_max=3.0, samples=(0.0, 19.0),
    )


def _collapse_touchdown():
    """The touchdown of the scale factor of build_rotational(lam=1, xi=0, a0=1, a1=0, t_max=2)."""
    return integrate_scale(EmdenParams(1.0, 0.0, 1.0, 0.0), 2.0, TIGHT_CONFIG).t_end


class TestRotational:
    def test_rigid_rotation_composition(self, rigid_rotation):
        omega = math.sqrt(math.pi)
        for (t, x, y) in [(0.0, 0.5, 0.0), (1.0, -0.3, 0.8), (2.5, 1.5, -2.0)]:
            s = eval_rotational(rigid_rotation, t, x, y)
            assert s.rho == pytest.approx(1.0, rel=1e-12)
            assert s.u1 == pytest.approx(-omega * y, abs=1e-12)
            assert s.u2 == pytest.approx(omega * x, abs=1e-12)
            r = math.hypot(x, y)
            assert s.phi_r == pytest.approx(math.pi * r, rel=1e-11)

    def test_scale_and_profile_must_share_lam(self, rot_solution):
        with pytest.raises(DomainError, match="same lam"):
            dataclasses.replace(rot_solution, emden=EmdenParams(2.0, 1.0, 1.0, 1.0))

    def test_origin(self, rot_solution):
        s = eval_rotational(rot_solution, 0.7, 0.0, 0.0)
        a = rot_solution.scale.state_at(0.7)[0]
        assert s.u1 == 0.0 and s.u2 == 0.0
        assert s.rho == pytest.approx(math.exp(0.0) / a**2, rel=1e-12)
        assert s.phi_r == 0.0

    def test_velocity_decomposition(self, rot_solution, rng):
        # radial part (a'/a) r, tangential part (xi/a^2) r, algebraically
        for _ in range(10):
            t = rng.uniform(0.0, 2.4)
            x, y = rng.uniform(-2, 2, 2)
            r = math.hypot(x, y)
            if r < 1e-3:
                continue
            a, adot = rot_solution.scale.state_at(t)
            s = eval_rotational(rot_solution, float(t), float(x), float(y))
            u_rad = (s.u1 * x + s.u2 * y) / r
            u_tan = (s.u2 * x - s.u1 * y) / r
            assert u_rad == pytest.approx(adot / a * r, abs=1e-13)
            assert u_tan == pytest.approx(rot_solution.emden.xi / a**2 * r, abs=1e-13)

    def test_uniform_swirl_identity(self, rot_solution):
        # tangential speed is exactly (xi/a^2) * r at machine precision
        t = 1.3
        a = rot_solution.scale.state_at(t)[0]
        for r in (0.25, 1.0, 2.5):
            s = eval_rotational(rot_solution, t, r, 0.0)
            assert s.u2 == rot_solution.emden.xi / (a * a) * r

    def test_xi_zero_reduction_is_radial(self):
        sol = build_rotational(
            lam=1.0, xi=0.0, K=1.0, alpha=0.0, a0=1.0, a1=0.0, t_max=2.0, samples=(0.0, 19.0)
        )
        touchdown = _collapse_touchdown()
        assert touchdown is not None  # non-rotating collapse
        t = 0.5 * touchdown
        a, adot = sol.scale.state_at(t)
        for (x, y) in [(0.3, 0.4), (-0.2, 0.1)]:
            s = eval_rotational(sol, t, x, y)
            assert s.u1 == pytest.approx(adot / a * x, rel=1e-12)
            assert s.u2 == pytest.approx(adot / a * y, rel=1e-12)

    def test_out_of_range(self, rot_solution):
        with pytest.raises(OutOfRange):
            eval_rotational(rot_solution, 99.0, 0.1, 0.1)
        with pytest.raises(OutOfRange):
            eval_rotational(rot_solution, 1.0, 50.0, 0.0)

    def test_samples_cut_the_profile_without_moving_a_sample(self, rot_solution):
        t, r = np.linspace(0.1, 2.0, 40), np.linspace(0.2, 3.0, 40)
        x, y = r * math.cos(1.0), r * math.sin(1.0)
        cut = build_rotational(lam=1.0, xi=1.0, K=1.0, alpha=0.0, a0=1.0, a1=1.0,
                               t_max=2.5, samples=(t, r))
        a = rot_solution.scale.evaluate(t)[:, 0]
        assert rot_solution.profile.s_max == 20.0
        assert cut.profile.s_max == 1.0 + np.max(r / a)
        full, part = eval_rotational(rot_solution, t, x, y), eval_rotational(cut, t, x, y)
        for name in ("rho", "u1", "u2", "phi_r"):
            assert np.array_equal(getattr(full, name), getattr(part, name))

    def test_samples_beyond_20_are_reached_and_a_time_outside_does_not_count(self):
        # r/a = 40/a(1) is past 20 (the profile was cut there once, and the sample had
        # no field); t = 99 is outside [0, 2.5], has no field and sets no reach
        t, r = np.array([1.0, 99.0]), np.array([40.0, 1e9])
        sol = build_rotational(lam=1.0, xi=1.0, K=1.0, alpha=0.0, a0=1.0, a1=1.0,
                               t_max=2.5, samples=(t, r))
        assert sol.profile.s_max == 1.0 + 40.0 / sol.scale.evaluate(1.0)[0] > 21.0
        assert np.isfinite(eval_rotational(sol, 1.0, 40.0, 0.0).rho)

    def test_a_time_past_a_touchdown_does_not_count(self):
        # r/a = 1/a(0.5) is below 2, and t = 2 lies past the touchdown, where a is tiny
        sol = build_rotational(lam=1.0, xi=0.0, K=1.0, alpha=0.0, a0=1.0, a1=0.0,
                               t_max=2.0, samples=(np.array([0.5, 2.0]), 1.0))
        assert sol.scale.t_end == _collapse_touchdown() < 2.0
        assert sol.profile.s_max == 1.0 + 1.0 / sol.scale.evaluate(0.5)[0] < 3.0

    def test_the_touchdown_sets_no_reach_and_has_no_field_but_at_the_center(self):
        # a = 7e-13 at the touchdown: r/a = 1.4e12 there took the whole step budget
        t_end = _collapse_touchdown()
        sol = build_rotational(lam=1.0, xi=0.0, K=1.0, alpha=0.0, a0=1.0, a1=0.0,
                               t_max=2.0, samples=(np.array([0.5, t_end]), 1.0))
        assert sol.profile.s_max == 1.0 + 1.0 / sol.scale.evaluate(0.5)[0] < 3.0
        with pytest.raises(OutOfRange):
            eval_rotational(sol, t_end, 1.0, 0.0)
        assert np.isfinite(eval_rotational(sol, t_end, 0.0, 0.0).rho)

    def test_a_run_to_t_max_counts_its_end(self):
        sol = build_rotational(lam=1.0, xi=1.0, K=1.0, alpha=0.0, a0=1.0, a1=1.0,
                               t_max=2.5, samples=(2.5, 1.0))
        assert sol.profile.s_max == 1.0 + 1.0 / sol.scale.evaluate(2.5)[0]

    def test_total_mass_constant_in_time(self, rot_solution):
        # with the cutoff fixed in profile coordinates the mass integral is
        # independent of the scale factor
        scipy_integrate = pytest.importorskip("scipy.integrate")
        s_cut = 10.0

        def mass_at(t):
            a = rot_solution.scale.state_at(t)[0]
            rho_r = lambda r: float(eval_rotational(rot_solution, t, r, 0.0).rho) * r
            val, _ = scipy_integrate.quad(rho_r, 1e-9, a * s_cut, epsabs=0.0, epsrel=1e-10)
            return 2 * math.pi * val

        m0 = mass_at(0.0)
        m1 = mass_at(2.0)
        assert abs(m1 - m0) <= 1e-8 * m0


class TestGoldreichWeber:
    @pytest.fixture(scope="class")
    def member(self):
        p = GWParams(N=3, K=1.0, lam=-0.2, alpha_center=1.0)
        return solve_gw_profile(p), integrate_scale(p, 2.0, TIGHT_CONFIG)

    def test_a_time_outside_the_solved_range_is_out_of_range(self, member):
        # it raised DomainError from the scale factor's `evaluate`, naming t alone
        with pytest.raises(OutOfRange, match=r"^t outside solved range \[0\.0, 2\.0\] "
                                             r"at \(t=5\.0, x=0\.5, y=0\.25\)$"):
            eval_gw(*member, 5.0, 0.5, 0.25)

    def test_the_error_masks_every_time_outside(self, member):
        t = np.array([1.0, 5.0, -1.0, 2.0])
        with pytest.raises(OutOfRange, match=r"at \(t=5\.0, x=0\.5, y=0\.0\)$") as e:
            eval_gw(*member, t, 0.5, 0.0)
        assert e.value.where.tolist() == [False, True, True, False]
        inside = ~e.value.where
        rho = eval_gw(*member, t[inside], 0.5, 0.0).rho
        assert rho.shape == (2,) and np.all(rho > 0)


class TestNanTime:
    """A NaN time has no field in either solved family: it passed the range checks,
    which NaN compares false against, and raised DomainError from the scale factor's
    `evaluate`, naming t alone."""

    @pytest.fixture(scope="class", params=["rotational", "gw"])
    def ev(self, request, rot_solution):
        if request.param == "rotational":
            return lambda t, x, y: eval_rotational(rot_solution, t, x, y)
        p = GWParams(N=3, K=1.0, lam=-0.2, alpha_center=1.0)
        member = solve_gw_profile(p), integrate_scale(p, 2.0, TIGHT_CONFIG)
        return lambda t, x, y: eval_gw(*member, t, x, y)

    def test_a_nan_time_is_out_of_range(self, ev):
        with pytest.raises(OutOfRange, match=r"^t outside solved range \[0\.0, \d\.\d+\] "
                                             r"at \(t=nan, x=0\.5, y=0\.25\)$") as e:
            ev(math.nan, 0.5, 0.25)
        assert e.value.where.tolist() is True

    def test_the_error_masks_only_the_nan(self, ev):
        t = np.array([1.0, math.nan])
        with pytest.raises(OutOfRange, match=r"at \(t=nan, x=0\.5, y=0\.25\)$") as e:
            ev(t, 0.5, 0.25)
        assert e.value.where.tolist() == [False, True]
        assert np.isfinite(ev(t[~e.value.where], 0.5, 0.25).rho).all()


class TestGravity:
    def test_constant_profile_linear_in_r(self, rigid_rotation):
        for r in (0.5, 1.0, 5.0):
            assert eval_gravity_radial(rigid_rotation, 0.0, r) == pytest.approx(
                math.pi * r, rel=1e-11
            )

    @pytest.mark.parametrize("r", [0.5, 1.0, 5.0])
    def test_two_routes_agree(self, rot_solution, r):
        quad_route, identity_route = gravity_radial_two_ways(rot_solution, 0.0, r)
        assert abs(quad_route - identity_route) <= 1e-8

    def test_small_r_limit(self, rot_solution):
        # Phi_r -> pi e^alpha r / a^2 as r -> 0
        t = 0.0
        a = rot_solution.scale.state_at(t)[0]
        for r in (1e-6, 1e-5):
            expect = math.pi * math.exp(0.0) * r / a**2
            assert eval_gravity_radial(rot_solution, t, r) == pytest.approx(
                expect, rel=1e-8
            )

    def test_domain(self, rot_solution):
        with pytest.raises(DomainError):
            eval_gravity_radial(rot_solution, 0.0, 0.0)

    def test_is_the_phi_r_of_the_rotating_field(self, rot_solution):
        rng = np.random.default_rng(42)
        t, r = rng.uniform(0.0, 2.5, 200), rng.uniform(1e-6, 4.0, 200)
        phi_r = eval_gravity_radial(rot_solution, t, r)
        assert np.array_equal(phi_r, eval_rotational(rot_solution, t, r, 0.0).phi_r)
        # a radius past the solved profile is named as the point (r, 0) of the plane
        with pytest.raises(OutOfRange, match=r"at \(t=0\.5, x=100\.0, y=0\.0\)$"):
            eval_gravity_radial(rot_solution, 0.5, 100.0)


class TestSwirlAnsatz:
    def test_static_gaussian_without_swirl(self):
        ansatz = SwirlAnsatz(
            f_profile=lambda s: math.exp(-s * s),
            a_fn=lambda t: 1.0,
            adot_fn=lambda t: 0.0,
            G_fn=lambda t, r: 0.0,
        )
        s1 = eval_swirl_ansatz(ansatz, 0.0, 0.5, -0.7)
        s2 = eval_swirl_ansatz(ansatz, 9.0, 0.5, -0.7)
        assert s1 == s2
        assert s1.u1 == 0.0 and s1.u2 == 0.0
        assert s1.phi_r is None

    def test_origin_swirl_defined_zero(self):
        ansatz = SwirlAnsatz(
            f_profile=lambda s: 1.0,
            a_fn=lambda t: 2.0,
            adot_fn=lambda t: 0.3,
            G_fn=lambda t, r: r * r,
        )
        s = eval_swirl_ansatz(ansatz, 1.0, 0.0, 0.0)
        assert s.u1 == 0.0 and s.u2 == 0.0

    def test_recovers_rotational_velocity(self, rot_solution):
        xi = rot_solution.emden.xi
        traj = rot_solution.scale
        ansatz = SwirlAnsatz(
            f_profile=lambda s: math.exp(rot_solution.profile.f_at(s)),
            a_fn=lambda t: float(traj.state_at(t)[0]),
            adot_fn=lambda t: float(traj.state_at(t)[1]),
            G_fn=lambda t, r: xi * r / float(traj.state_at(t)[0]) ** 2,
        )
        for (t, x, y) in [(0.4, 1.0, -0.5), (1.7, -0.2, 0.9)]:
            sa = eval_swirl_ansatz(ansatz, t, x, y)
            sr = eval_rotational(rot_solution, t, x, y)
            assert sa.u1 == pytest.approx(sr.u1, rel=1e-12)
            assert sa.u2 == pytest.approx(sr.u2, rel=1e-12)
            assert sa.rho == pytest.approx(sr.rho, rel=1e-12)

    def test_continuity_holds_symbolically(self):
        """rho_t + div(rho u) of the ansatz is 0 for undefined f, a and G, and the
        mutant rho = f(r/a)/a leaves a nonzero residual."""
        import sympy as sp  # a test dependency, never skipped

        t, x, y = sp.symbols("t x y", real=True)
        a, f, G = sp.Function("a")(t), sp.Function("f"), sp.Function("G")
        r = sp.sqrt(x**2 + y**2)
        u1 = a.diff(t) / a * x - G(t, r) / r * y
        u2 = a.diff(t) / a * y + G(t, r) / r * x

        def mass_residual(rho):
            return sp.simplify(rho.diff(t) + (rho * u1).diff(x) + (rho * u2).diff(y))

        assert mass_residual(f(r / a) / a**2) == 0
        assert mass_residual(f(r / a) / a) != 0


class TestZhangZheng:
    def test_pdot0_closure(self, zz):
        assert zz.pdot0 == 2.0 * zz.K * zz.rho0

    @pytest.mark.parametrize(
        "K,rho0,t,expected",
        [(1.0, 0.5, 3.0, 6.0), (1.0, 0.5, 0.0, 0.0), (2.0, 1.0, 1.0, 4.0)],
    )
    def test_interface_radius(self, K, rho0, t, expected):
        assert zz_interface_radius(ZZSolution(K, rho0), t) == pytest.approx(expected)

    def test_interface_grows_linearly(self, zz):
        assert zz_interface_radius(zz, 2.0) == 2 * zz_interface_radius(zz, 1.0)

    def test_interface_radius_rejects_negative_t(self, zz):
        with pytest.raises(DomainError, match=r"requires t >= 0 at \(t=-1\.0\)"):
            zz_interface_radius(zz, -1.0)

    def test_density_continuity_at_interface(self, zz):
        for t in (0.25, 1.0, 4.0):
            ri = zz_interface_radius(zz, t)
            s = eval_zz_inner(zz, t, ri / math.sqrt(2), ri / math.sqrt(2))
            assert abs(s.rho - zz.rho0) <= 1e-12

    def test_inner_origin(self, zz):
        s = eval_zz_inner(zz, 1.0, 0.0, 0.0)
        assert s.rho == 0.0 and s.u1 == 0.0 and s.u2 == 0.0

    def test_inner_variants_differ_only_in_u2(self, zz):
        s_fix = eval_zz_inner(zz, 1.0, 0.3, 0.4)
        s_print = eval_zz_inner(zz, 1.0, 0.3, 0.4, as_printed=True)
        assert s_fix.u1 == s_print.u1
        assert s_fix.u2 == -s_print.u2

    def test_outer_at_t_zero_is_tangential(self, zz):
        speed = math.sqrt(2 * zz.pdot0)
        for ang in (0.1, 1.0, 2.5):
            x, y = 3 * math.cos(ang), 3 * math.sin(ang)
            s = eval_zz_outer(zz, 0.0, x, y)
            assert s.u1 == pytest.approx(speed * y / 3, rel=1e-12)
            assert s.u2 == pytest.approx(-speed * x / 3, rel=1e-12)
            assert s.rho == zz.rho0

    def test_outer_far_field(self, zz):
        t = 1.0
        r = 1e6
        s = eval_zz_outer(zz, t, r, 0.0)
        speed = math.sqrt(2 * zz.pdot0)
        assert s.u1 == pytest.approx(0.0, abs=1e-5)
        assert s.u2 == pytest.approx(-speed, rel=1e-5)

    def test_outer_speed_identity(self, zz, rng):
        # |u|^2 = (4 t^2 Pd^2 + 2 Pd (r^2 - 2 t^2 Pd)) / r^2
        pd = zz.pdot0
        for _ in range(10):
            t = rng.uniform(0.1, 2.0)
            r = rng.uniform(2 * t * math.sqrt(pd) + 0.5, 10.0)
            ang = rng.uniform(0, 2 * math.pi)
            s = eval_zz_outer(zz, float(t), float(r * math.cos(ang)), float(r * math.sin(ang)))
            expect = (4 * t * t * pd * pd + 2 * pd * (r * r - 2 * t * t * pd)) / (r * r)
            assert s.u1**2 + s.u2**2 == pytest.approx(expect, rel=1e-11)

    def test_region_errors(self, zz):
        with pytest.raises(OutsideRegion):
            eval_zz_inner(zz, 1.0, 5.0, 0.0)
        with pytest.raises(OutsideRegion):
            eval_zz_outer(zz, 1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            eval_zz_inner(zz, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            eval_zz_outer(zz, -1.0, 5.0, 0.0)
        with pytest.raises(DomainError):
            ZZSolution(K=-1.0, rho0=0.5)

    @pytest.mark.parametrize("K,rho0,message", [(math.inf, 0.5, "K must be > 0 and finite"),
                                                (1.0, math.inf, "rho0 must be > 0 and finite"),
                                                (math.nan, 0.5, "K must be > 0 and finite")])
    def test_a_non_finite_parameter_raises(self, K, rho0, message):
        # K = inf was accepted and put the interface at r = inf; so was rho0 = inf
        with pytest.raises(DomainError, match=message):
            ZZSolution(K=K, rho0=rho0)
