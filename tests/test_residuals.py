"""The finite-difference oracle itself: exact fields converge at second
order, corrupted fields must not, and boundary handling is strict."""

import functools
import math
import re

import numpy as np
import pytest

from eulerpoisson.errors import DomainError, MissingGravity, StencilOutOfDomain
from eulerpoisson.fields import (
    FieldSample,
    SwirlAnsatz,
    eval_rotational,
    eval_swirl_ansatz,
    eval_zz_inner,
    eval_zz_outer,
)
from eulerpoisson.residuals import (
    PressureLaw,
    convergence_study,
    corrupt_density_offset,
    corrupt_density_scale,
    corrupt_gravity_scale,
    flow_residuals,
    poisson_residual,
    study_passes,
)

from conftest import disk_points

H_LIST = [1e-2, 5e-3, 2.5e-3]
ISO = PressureLaw("isothermal", K=1.0)
G2 = PressureLaw("gamma2", K=1.0)


def flow(pl):
    """The flow operator as convergence_study calls it."""
    return functools.partial(flow_residuals, pressure=pl)


# mass alone: no pressure law, so no gravity data is required
MASS = flow(PressureLaw("none"))


def at_step(op, field, pts, h):
    """The residual norm of each equation of one operator at step h alone:
    the first norm of a study that starts at h."""
    return {name: study.norms[0]
            for name, study in convergence_study([op], field, pts, [h, h / 2, h / 4]).items()}


@pytest.fixture(scope="module")
def rot_field(rot_solution):
    return lambda t, x, y: eval_rotational(rot_solution, t, x, y)


@pytest.fixture(scope="module")
def rot_points():
    rng = np.random.default_rng(7)
    return disk_points(rng, 20, (0.1, 2.0), (0.2, 3.0))


class TestMassResidual:
    def test_static_uniform_is_machine_zero(self):
        field = lambda t, x, y: FieldSample(rho=1.0, u1=0.0, u2=0.0)
        assert at_step(MASS, field, [(0.0, 0.3, 0.4), (1.0, -1.0, 2.0)], 1e-3)["mass"] == 0.0

    def test_rotational_is_discretization_error(self, rot_field, rot_points):
        norms = convergence_study([MASS], rot_field, rot_points, [1e-3, 5e-4, 2.5e-4])["mass"].norms
        assert norms[0] <= 1e-5
        assert norms[1] <= norms[0] / 3.5  # about 4x smaller

    def test_density_offset_breaks_it(self, rot_field, rot_points):
        bad = corrupt_density_offset(rot_field, 0.01)
        study = convergence_study([MASS], bad, rot_points, H_LIST)["mass"]
        assert not study_passes(study)
        assert study.norms[-1] > 1e-3

    def test_density_scaling_does_not_break_it(self, rot_field, rot_points):
        # continuity is linear in rho at fixed velocity: a scaled density is
        # still an exact solution of the mass equation
        scaled = corrupt_density_scale(rot_field, 1.01)
        study = convergence_study([MASS], scaled, rot_points, H_LIST)["mass"]
        assert study_passes(study)


class TestMomentumResidual:
    def test_rotational_both_components(self, rot_field, rot_points):
        norms = at_step(flow(ISO), rot_field, rot_points, 1e-3)
        assert list(norms) == ["mass", "momentum_x", "momentum_y"]
        assert norms["momentum_x"] <= 1e-5
        assert norms["momentum_y"] <= 1e-5

    def test_steady_centripetal_balance(self, rigid_rotation_field):
        pts = [(0.5, 0.6, 0.1), (1.0, -0.4, 0.9), (2.0, 1.2, -1.1)]
        study = convergence_study([flow(ISO)], rigid_rotation_field, pts, H_LIST)
        assert study_passes(study["momentum_x"])

    def test_missing_gravity_raises(self):
        field = lambda t, x, y: FieldSample(rho=1.0, u1=0.0, u2=0.0, phi_r=None)
        with pytest.raises(MissingGravity):
            at_step(flow(ISO), field, [(0.0, 1.0, 0.0)], 1e-3)

    def test_zz_gamma2_without_gravity_is_fine(self, zz):
        inner = lambda t, x, y: eval_zz_inner(zz, t, x, y)
        norms = at_step(flow(G2), inner, [(1.0, 0.3, 0.2)], 1e-3)
        assert norms["momentum_x"] < 1e-6 and norms["momentum_y"] < 1e-6


@pytest.fixture(scope="module")
def rigid_rotation_field():
    from eulerpoisson.fields import build_rotational

    sol = build_rotational(
        lam=math.pi, xi=math.sqrt(math.pi), K=1.0, alpha=0.0, a0=1.0, a1=0.0,
        t_max=2.2,
    )
    return lambda t, x, y: eval_rotational(sol, t, x, y)


class TestPoissonResidual:
    def test_constant_profile_is_analytically_zero(self, rigid_rotation_field):
        # Phi_r = pi r, so (1/r)(r Phi_r)' = 2 pi = 2 pi rho exactly
        pts = [(0.5, 0.7, 0.0), (1.0, 0.0, 1.5)]
        assert at_step(poisson_residual, rigid_rotation_field, pts, 1e-3)["poisson"] <= 1e-9

    def test_solved_profile_tight_at_small_h(self, rot_field):
        pts = [(0.0, 0.5, 0.0), (0.0, 1.0, 0.0), (0.0, 2.0, 0.0)]
        assert at_step(poisson_residual, rot_field, pts, 1e-4)["poisson"] <= 1e-6

    def test_gravity_scaling_breaks_it(self, rot_field, rot_points):
        bad = corrupt_gravity_scale(rot_field, 1.01)
        study = convergence_study([poisson_residual], bad, rot_points, H_LIST)
        assert not study_passes(study["poisson"])

    def test_density_scaling_breaks_it(self, rot_field, rot_points):
        bad = corrupt_density_scale(rot_field, 1.01)
        study = convergence_study([poisson_residual], bad, rot_points, H_LIST)
        assert not study_passes(study["poisson"])

    def test_near_origin_rejected(self):
        with pytest.raises(StencilOutOfDomain, match=r"at \(t=0\.5, x=0\.001, y=0\.0\)"):
            poisson_residual([(0.5, 1e-3, 0.0)], 1e-3)

    def test_near_origin_rejected_before_the_field_call(self):
        def field(t, x, y):
            pytest.fail("the points are checked before the field is called")

        # r = 3e-3 is within 2h of the origin only at the first step
        with pytest.raises(StencilOutOfDomain,
                           match=r"for h=0\.002 at \(t=0\.5, x=0\.003, y=0\.0\)"):
            convergence_study([MASS, poisson_residual], field, [(0.5, 3e-3, 0.0)],
                              [2e-3, 1e-3, 5e-4])


class TestStencilStep:
    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan])
    @pytest.mark.parametrize("op", [MASS, flow(ISO), poisson_residual],
                             ids=["mass", "momentum", "poisson"])
    def test_non_positive_or_nan_step_raises(self, op, h):
        # the operator states its points without sampling any field
        with pytest.raises(DomainError, match="stencil step must be > 0"):
            op([(0.5, 1.0, 0.0)], h)


class TestConvergenceStudy:
    def test_rotational_all_equations_second_order(self, rot_field, rot_points):
        studies = convergence_study([flow(ISO), poisson_residual], rot_field, rot_points, H_LIST)
        assert list(studies) == ["mass", "momentum_x", "momentum_y", "poisson"]
        for study in studies.values():
            assert study.estimated_order == pytest.approx(2.0, abs=0.2)
            assert study_passes(study)

    def test_one_field_call_per_study(self, rot_field, rot_points):
        calls = []

        def counting(t, x, y):
            calls.append(t.shape)
            return rot_field(t, x, y)

        studies = convergence_study([flow(ISO)], counting, rot_points, H_LIST)
        assert calls == [(len(H_LIST) * 7 * len(rot_points),)]
        assert list(studies) == ["mass", "momentum_x", "momentum_y"]
        per_step = [at_step(flow(ISO), rot_field, rot_points, h) for h in H_LIST]
        for name, study in studies.items():
            assert study.h_sequence == tuple(H_LIST)
            assert study.norms == tuple(norms[name] for norms in per_step)

    def test_a_joint_study_equals_its_one_operator_studies(self, rot_field, rot_points):
        for field in (rot_field, corrupt_density_offset(rot_field, 0.01)):
            joint = convergence_study([flow(ISO), poisson_residual], field, rot_points, H_LIST)
            alone = [convergence_study([op], field, rot_points, H_LIST)
                     for op in (flow(ISO), poisson_residual)]
            # ConvergenceResult compares its norms and order as floats, so bit for bit
            assert list(joint.items()) == [*alone[0].items(), *alone[1].items()]

    def test_equation_reported_twice_raises(self):
        def field(t, x, y):
            pytest.fail("the names are checked before the field is called")

        with pytest.raises(DomainError, match="more than one operator reports mass, momentum_x, momentum_y$"):
            convergence_study([MASS, flow(ISO)], field, [(0.5, 1.0, 0.0)], H_LIST)

    def test_no_operator_raises(self, rot_field):
        with pytest.raises(DomainError, match="at least one residual operator"):
            convergence_study([], rot_field, [(0.5, 1.0, 0.0)], H_LIST)

    def test_exact_zero_field_flagged_at_floor(self):
        field = lambda t, x, y: FieldSample(rho=2.0, u1=0.0, u2=0.0)
        study = convergence_study([MASS], field, [(0.0, 1.0, 1.0)], H_LIST)["mass"]
        assert study.at_floor
        assert study.estimated_order is None
        assert study_passes(study)

    def test_steps_whose_logs_coincide_give_no_order(self):
        # three adjacent floats near 1e10 share one log, so no slope can be fitted
        h_mid = math.nextafter(1e10, math.inf)
        h_list = [math.nextafter(h_mid, math.inf), h_mid, 1e10]
        field = lambda t, x, y: FieldSample(rho=1.0 + t * t, u1=0.0, u2=0.0)
        study = convergence_study([MASS], field, [(1.0, 1.0, 1.0)], h_list)["mass"]
        assert min(study.norms) > 0 and study.estimated_order is None

    def test_corrupted_field_not_excused(self, rot_field, rot_points):
        bad = corrupt_density_offset(rot_field, 0.01)
        study = convergence_study([MASS], bad, rot_points, H_LIST)["mass"]
        assert not study.at_floor
        assert abs(study.estimated_order) < 0.5
        assert not study_passes(study)

    def test_h_list_validation(self, rot_field):
        with pytest.raises(DomainError):
            convergence_study([MASS], rot_field, [(0.5, 1, 0)], [1e-2, 5e-3])
        with pytest.raises(DomainError):
            convergence_study([MASS], rot_field, [(0.5, 1, 0)], [1e-2, 1e-2, 5e-3])

    # h^2 underflows to 0 (was a ZeroDivisionError) or to a subnormal whose
    # floor overflows to inf (every study was excused as at the floor), or
    # h^2 overflows (was a bare OverflowError from h**2)
    @pytest.mark.parametrize("h_list", [[1e-2, 1e-100, 1e-300], [1e-300, 5e-301, 2.5e-301],
                                        [1e-2, 1e-100, 1e-160], [1e200, 1e190, 1e180]])
    def test_floor_must_be_finite(self, h_list):
        def field(t, x, y):
            pytest.fail("the steps are checked before the field is called")

        with pytest.raises(DomainError, match=re.escape(f"smallest step h={h_list[-1]}") + "$"):
            convergence_study([flow(ISO)], field, [(0.5, 1.0, 0.0)], h_list)


class TestSwirlGenerality:
    def test_mass_residual_vanishes_for_random_swirls(self, rng):
        # continuity holds for arbitrary differentiable swirl G; five
        # random smooth choices must all converge at second order
        gauss = lambda s: math.exp(-s * s)
        a_fn = lambda t: 2.0 + math.cos(t)
        adot_fn = lambda t: -math.sin(t)
        pts = disk_points(np.random.default_rng(3), 12, (0.5, 2.0), (0.3, 2.0))
        for _ in range(5):
            c = rng.uniform(-1.0, 1.0, size=4)
            G = lambda t, r, c=c: (
                c[0] * math.sin(c[1] * t + c[2]) * r * r
                + c[3] * r**3 / (1.0 + r * r)
            )
            ansatz = SwirlAnsatz(gauss, a_fn, adot_fn, G)
            field = lambda t, x, y: eval_swirl_ansatz(ansatz, t, x, y)
            study = convergence_study([MASS], field, pts, H_LIST)["mass"]
            assert study.estimated_order == pytest.approx(2.0, abs=0.2)

    def test_specific_swirl_example(self):
        ansatz = SwirlAnsatz(
            f_profile=lambda s: math.exp(-s * s),
            a_fn=lambda t: 2.0 + math.cos(t),
            adot_fn=lambda t: -math.sin(t),
            G_fn=lambda t, r: math.sin(t) * r * r,
        )
        field = lambda t, x, y: eval_swirl_ansatz(ansatz, t, x, y)
        pts = disk_points(np.random.default_rng(5), 10, (0.5, 2.0), (0.3, 2.0))
        study = convergence_study([MASS], field, pts, H_LIST)["mass"]
        assert study.estimated_order == pytest.approx(2.0, abs=0.2)


@pytest.fixture(scope="module")
def pts_inner():
    return disk_points(np.random.default_rng(11), 15, (1.0, 2.0), (0.2, 1.2))


@pytest.fixture(scope="module")
def pts_outer():
    return disk_points(np.random.default_rng(12), 15, (1.0, 2.0), (5.0, 8.0))


class TestZhangZhengResiduals:
    def test_inner_corrected_passes_all(self, zz, pts_inner):
        inner = lambda t, x, y: eval_zz_inner(zz, t, x, y)
        studies = convergence_study([flow(PressureLaw("gamma2", K=zz.K))], inner, pts_inner, H_LIST)
        assert list(studies) == ["mass", "momentum_x", "momentum_y"]
        assert all(study_passes(study) for study in studies.values())

    def test_outer_passes_all(self, zz, pts_outer):
        outer = lambda t, x, y: eval_zz_outer(zz, t, x, y)
        studies = convergence_study([flow(PressureLaw("gamma2", K=zz.K))], outer, pts_outer, H_LIST)
        assert list(studies) == ["mass", "momentum_x", "momentum_y"]
        assert all(study_passes(study) for study in studies.values())

    def test_as_printed_inner_fails_mass(self, zz, pts_inner):
        bad = lambda t, x, y: eval_zz_inner(zz, t, x, y, as_printed=True)
        study = convergence_study([MASS], bad, pts_inner, H_LIST)["mass"]
        assert not study_passes(study)
        assert study.norms[-1] > 0.01  # stalls at O(1), not discretization error

    def test_stencil_across_interface_rejected(self, zz):
        inner = lambda t, x, y: eval_zz_inner(zz, t, x, y)
        ri = 2.0  # interface radius at t=1
        # the t - h neighbour is the first stencil point past the interface,
        # which has shrunk to r = 1.998 by then
        with pytest.raises(StencilOutOfDomain, match=r"at \(t=0\.999, x=1\.9999, y=0\.0\)"):
            convergence_study([MASS], inner, [(1.0, ri - 1e-4, 0.0)], [1e-3, 5e-4, 2.5e-4])

    def test_the_first_step_that_leaves_is_named(self, zz):
        inner = lambda t, x, y: eval_zz_inner(zz, t, x, y)
        # at t = 1 - h the interface is at 2 - 2h: the t - h neighbours of the
        # two larger steps are past it, those of h = 2.5e-3 are not
        with pytest.raises(StencilOutOfDomain, match=r"at \(t=0\.99, x=1\.994, y=0\.0\)"):
            convergence_study([MASS], inner, [(1.0, 1.994, 0.0)], H_LIST)
        convergence_study([MASS], inner, [(1.0, 1.994, 0.0)], [2.5e-3, 1.25e-3, 6.25e-4])


# ----------------------------------------------------------------------
# The per-point operators that the batched ones replaced, kept as the
# reference: the field is called with floats, one stencil point at a time.
# ----------------------------------------------------------------------


def _report_reference(eq_name, values):
    return eq_name, float(np.max(np.abs(np.asarray(values))))


def _neighbours_reference(field, t, x, y, h):
    return (field(t + h, x, y), field(t - h, x, y), field(t, x + h, y),
            field(t, x - h, y), field(t, x, y + h), field(t, x, y - h))


def _mass_reference(field, pts, h):
    vals = []
    for t, x, y in pts:
        s_tp, s_tm, s_xp, s_xm, s_yp, s_ym = _neighbours_reference(field, t, x, y, h)
        rho_t = (s_tp.rho - s_tm.rho) / (2 * h)
        flux_x = (s_xp.rho * s_xp.u1 - s_xm.rho * s_xm.u1) / (2 * h)
        flux_y = (s_yp.rho * s_yp.u2 - s_ym.rho * s_ym.u2) / (2 * h)
        vals.append(rho_t + flux_x + flux_y)
    return _report_reference("mass", vals)


def _momentum_reference(field, pts, h, pressure):
    vals_x, vals_y = [], []
    for t, x, y in pts:
        s0 = field(t, x, y)
        s_tp, s_tm, s_xp, s_xm, s_yp, s_ym = _neighbours_reference(field, t, x, y, h)
        u1_t = (s_tp.u1 - s_tm.u1) / (2 * h)
        u2_t = (s_tp.u2 - s_tm.u2) / (2 * h)
        u1_x = (s_xp.u1 - s_xm.u1) / (2 * h)
        u2_x = (s_xp.u2 - s_xm.u2) / (2 * h)
        u1_y = (s_yp.u1 - s_ym.u1) / (2 * h)
        u2_y = (s_yp.u2 - s_ym.u2) / (2 * h)
        p_x = (pressure(s_xp.rho) - pressure(s_xm.rho)) / (2 * h)
        p_y = (pressure(s_yp.rho) - pressure(s_ym.rho)) / (2 * h)
        grav_x = grav_y = 0.0
        if s0.phi_r is not None:
            r = math.hypot(x, y)
            if r > 0:
                grav_x = s0.rho * (x / r) * s0.phi_r
                grav_y = s0.rho * (y / r) * s0.phi_r
        adv_x = s0.u1 * u1_x + s0.u2 * u1_y
        adv_y = s0.u1 * u2_x + s0.u2 * u2_y
        vals_x.append(s0.rho * (u1_t + adv_x) + p_x + grav_x)
        vals_y.append(s0.rho * (u2_t + adv_y) + p_y + grav_y)
    return _report_reference("momentum_x", vals_x), _report_reference("momentum_y", vals_y)


def _poisson_reference(field, pts, h):
    vals = []
    for t, x, y in pts:
        r = math.hypot(x, y)
        ex, ey = x / r, y / r
        s0 = field(t, x, y)
        s_p = field(t, x + h * ex, y + h * ey)
        s_m = field(t, x - h * ex, y - h * ey)
        d_rphi = ((r + h) * s_p.phi_r - (r - h) * s_m.phi_r) / (2 * h)
        vals.append(d_rphi / r - 2 * math.pi * s0.rho)
    return _report_reference("poisson", vals)


class TestBatchedEqualsPerPointReference:
    """A study makes one field call on the stencil points of all its
    operators and steps; it must give the per-point loops' equation names
    and norms, bit for bit."""

    def check(self, field, pts, pressure, gravity):
        ops = [flow(pressure), poisson_residual] if gravity else [flow(pressure)]
        got = {name: study.norms
               for name, study in convergence_study(ops, field, pts, H_LIST).items()}
        per_step = [(_mass_reference(field, pts, h), *_momentum_reference(field, pts, h, pressure),
                     *([_poisson_reference(field, pts, h)] if gravity else []))
                    for h in H_LIST]
        want = {reports[0][0]: tuple(norm for _, norm in reports) for reports in zip(*per_step)}
        assert list(got.items()) == list(want.items())

    def test_rotational(self, rot_field, rot_points):
        self.check(rot_field, rot_points, ISO, gravity=True)

    def test_corrupted_rotational(self, rot_field, rot_points):
        self.check(corrupt_density_offset(rot_field, 0.01), rot_points, ISO, gravity=True)

    def test_zz_inner_and_outer(self, zz, pts_inner, pts_outer):
        g2 = PressureLaw("gamma2", K=zz.K)
        self.check(lambda t, x, y: eval_zz_inner(zz, t, x, y), pts_inner, g2, gravity=False)
        self.check(lambda t, x, y: eval_zz_outer(zz, t, x, y), pts_outer, g2, gravity=False)

    def test_swirl_ansatz(self):
        ansatz = SwirlAnsatz(
            f_profile=lambda s: math.exp(-s * s),
            a_fn=lambda t: 2.0 + math.cos(t),
            adot_fn=lambda t: -math.sin(t),
            G_fn=lambda t, r: math.sin(t) * r * r,
        )
        field = lambda t, x, y: eval_swirl_ansatz(ansatz, t, x, y)
        pts = disk_points(np.random.default_rng(5), 10, (0.5, 2.0), (0.3, 2.0))
        self.check(field, pts, PressureLaw("none"), gravity=False)
