"""Acceptance suite: every exit criterion at its stated tolerance and budget.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion.  Each test measures its own wall time against the stated budget.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from eulerpoisson.cli import main as cli_main
from eulerpoisson.emden import (
    EmdenParams,
    energy_level,
    integrate_scale,
    period_by_quadrature,
    period_by_simulation,
)
from eulerpoisson.fields import (
    SwirlAnsatz,
    build_rotational,
    eval_rotational,
    eval_swirl_ansatz,
    eval_zz_inner,
    eval_zz_outer,
    zz_interface_radius,
)
from eulerpoisson.goldreich_weber import (
    GWParams,
    alpha_const,
    gw_density,
    solve_gw_profile,
    unit_ball_volume,
)
from eulerpoisson.liouville import LiouvilleParams, solve_profile
from eulerpoisson.ode import IntegratorConfig, quad_singular
from eulerpoisson.residuals import (
    PressureLaw,
    convergence_study,
    corrupt_density_offset,
    mass_residual,
    momentum_residual,
    poisson_residual,
    study_passes,
)

from conftest import disk_points

H_LIST = [1e-2, 5e-3, 2.5e-3]


class _Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s
        self.t0 = None

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        # bypass pytest capture so the line shows in every run mode
        print(
            f"ACCEPTANCE {self.number:2d} [{status}] {self.description} "
            f"({elapsed:.2f}s / budget {self.budget_s:g}s)",
            file=sys.__stdout__,
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False


def test_01_steady_solution():
    with _Criterion(1, "steady orbit stays within 1e-10 of the equilibrium", 1.0):
        run = integrate_scale(
            EmdenParams(1.0, 1.0, 1.0, 0.0), 100.0,
            IntegratorConfig(rtol=1e-10, atol=1e-12),
        )
        traj = run.trajectory
        assert traj.t_end == 100.0
        assert np.abs(traj.ys[:, 0] - 1.0).max() <= 1e-10
        dense = np.array([traj.state_at(t)[0] for t in np.linspace(0, 100, 2001)])
        assert np.abs(dense - 1.0).max() <= 1e-10


def test_02_energy_conservation(unit_orbit):
    with _Criterion(2, "energy drift <= 1e-8 relative over t in [0, 100]", 1.0):
        run = integrate_scale(
            unit_orbit, 100.0, IntegratorConfig(rtol=1e-10, atol=1e-12)
        )
        th = energy_level(unit_orbit)
        traj = run.trajectory
        # drift at every computed state (interpolation between nodes is a
        # local reconstruction, not integrator drift)
        assert traj.t_start == 0.0 and traj.t_end == 100.0
        a = traj.ys[:, 0]
        adot = traj.ys[:, 1]
        energy = adot**2 / 2 + np.log(a) + 1.0 / (2 * a**2)
        assert np.abs(energy - th).max() <= 1e-8 * max(1.0, abs(th))


def test_03_period_two_way_agreement():
    with _Criterion(3, "quadrature and simulation periods agree to 1e-6", 10.0):
        configs = [EmdenParams(1.0, 1.0, 1.0, 1.0)]
        for lam in (0.5, 1.0, 2.0):
            for xi in (0.5, 1.0, 2.0):
                configs.append(EmdenParams(lam, xi, 1.0, 1.0))
        for p in configs:
            tq = period_by_quadrature(p)
            ts = period_by_simulation(p)
            assert abs(tq.T - ts.T) / tq.T <= 1e-6, (p, tq.T, ts.T)


def test_04_near_steady_frequency():
    with _Criterion(4, "near-steady period matches 2*pi/sqrt(2) to 1e-3", 1.0):
        p = EmdenParams(1.0, 1.0, 1.0, 1e-4)
        t_lin = 2 * math.pi / math.sqrt(2.0)
        assert period_by_quadrature(p).T == pytest.approx(t_lin, rel=1e-3)
        assert period_by_simulation(p).T == pytest.approx(t_lin, rel=1e-3)


def test_05_blowup_limit():
    with _Criterion(5, "touchdown time matches the energy quadrature to 1e-6", 1.0):
        run = integrate_scale(EmdenParams(1.0, 0.0, 1.0, 0.0), 10.0)
        t_ref = quad_singular(
            lambda a: 1.0 / math.sqrt(-2.0 * math.log(a)), 0.0, 1.0, 1e-12
        )
        assert run.touchdown_time is not None
        assert abs(run.touchdown_time - t_ref) / t_ref <= 1e-6


def test_06_liouville_identity_grid():
    with _Criterion(6, "enclosed-mass identity <= 1e-8 across the parameter grid", 5.0):
        for lam in (1.0, 2.0):
            for K in (1.0, 2.0):
                for alpha in (-0.5, 0.0, 0.5):
                    # at the solver's default, PROFILE_CONFIG
                    prof = solve_profile(LiouvilleParams(K=K, lam=lam, alpha=alpha), 20.0)
                    mass = prof._mass_at_nodes()
                    residual = np.abs(
                        mass - (lam * prof.grid**2 - K * prof.grid * prof.fdot)
                    )
                    assert residual.max() <= 1e-8, (lam, K, alpha, residual.max())


def test_07_full_pde_verification():
    with _Criterion(7, "all four residuals converge at order 2.0 +/- 0.2; "
                       "corrupted field does not", 30.0):
        sol = build_rotational(
            lam=1.0, xi=1.0, K=1.0, alpha=0.0, a0=1.0, a1=1.0, t_max=2.5
        )
        field = lambda t, x, y: eval_rotational(sol, t, x, y)
        pts = disk_points(np.random.default_rng(7), 20, (0.1, 2.0), (0.2, 3.0))
        iso = PressureLaw("isothermal", K=1.0)
        ops = [
            mass_residual,
            lambda f, p, c: momentum_residual(f, p, c, iso)[0],
            lambda f, p, c: momentum_residual(f, p, c, iso)[1],
            poisson_residual,
        ]
        for op in ops:
            study = convergence_study(op, field, pts, H_LIST)
            assert study.estimated_order == pytest.approx(2.0, abs=0.2), study
        bad = corrupt_density_offset(field, 0.01)
        for op in ops:
            study = convergence_study(op, bad, pts, H_LIST)
            assert not study_passes(study), study


def test_08_arbitrary_swirl_generality():
    with _Criterion(8, "mass residual converges for 5 randomized swirl profiles", 10.0):
        rng = np.random.default_rng(2024)
        pts = disk_points(np.random.default_rng(3), 12, (0.5, 2.0), (0.3, 2.0))
        for _ in range(5):
            c = rng.uniform(-1.0, 1.0, size=4)
            ansatz = SwirlAnsatz(
                f_profile=lambda s: math.exp(-s * s),
                a_fn=lambda t: 2.0 + math.cos(t),
                adot_fn=lambda t: -math.sin(t),
                G_fn=lambda t, r, c=c: (
                    c[0] * math.sin(c[1] * t + c[2]) * r * r
                    + c[3] * r**3 / (1.0 + r * r)
                ),
            )
            field = lambda t, x, y: eval_swirl_ansatz(ansatz, t, x, y)
            study = convergence_study(mass_residual, field, pts, H_LIST)
            assert study.estimated_order == pytest.approx(2.0, abs=0.2), study


def test_09_zhang_zheng_verification(zz):
    with _Criterion(9, "spiral solution verified; as-printed variant is a "
                       "required failing control", 10.0):
        g2 = PressureLaw("gamma2", K=zz.K)
        ops = [
            mass_residual,
            lambda f, p, c: momentum_residual(f, p, c, g2)[0],
            lambda f, p, c: momentum_residual(f, p, c, g2)[1],
        ]
        inner = lambda t, x, y: eval_zz_inner(zz, t, x, y)
        outer = lambda t, x, y: eval_zz_outer(zz, t, x, y)
        pts_in = disk_points(np.random.default_rng(11), 15, (1.0, 2.0), (0.2, 1.2))
        pts_out = disk_points(np.random.default_rng(12), 15, (1.0, 2.0), (5.0, 8.0))
        for op in ops:
            assert study_passes(convergence_study(op, inner, pts_in, H_LIST))
            assert study_passes(convergence_study(op, outer, pts_out, H_LIST))
        # interface continuity, exact algebra
        for t in (0.5, 1.0, 2.0):
            ri = zz_interface_radius(zz, t)
            s = eval_zz_inner(zz, t, ri / math.sqrt(2), ri / math.sqrt(2))
            assert abs(s.rho - zz.rho0) <= 1e-12
        # REQUIRED failing negative control
        bad = lambda t, x, y: eval_zz_inner(zz, t, x, y, as_printed=True)
        study = convergence_study(mass_residual, bad, pts_in, H_LIST)
        assert not study_passes(study), study


def test_10_goldreich_weber_profile():
    with _Criterion(10, "compact support found and density exponent "
                        "N/(N-2) = 3 recovered within 5%", 2.0):
        prof = solve_gw_profile(GWParams(N=3, K=1.0, lam=0.0, alpha_center=1.0))
        assert prof.s_mu is not None and math.isfinite(prof.s_mu)
        assert np.all(prof.f[:-1] > 0)
        smu = prof.s_mu
        deltas = np.geomspace(1e-3 * smu, 1e-2 * smu, 10)
        rho = np.array([gw_density(prof, 1.0, smu - d) for d in deltas])
        slope = np.polyfit(np.log(deltas), np.log(rho), 1)[0]
        assert slope == pytest.approx(3.0, rel=0.05)


def test_11_alpha_table():
    with _Criterion(11, "dimension constants and ball-volume recursion to N=10", 1.0):
        assert alpha_const(1) == 2.0
        assert alpha_const(2) == pytest.approx(2 * math.pi, rel=1e-15)
        assert alpha_const(3) == pytest.approx(4 * math.pi, rel=1e-15)
        assert alpha_const(4) == pytest.approx(4 * math.pi**2, rel=1e-15)
        vol = {1: 2.0, 2: math.pi}
        for n in range(3, 11):
            vol[n] = vol[n - 2] * 2 * math.pi / n
            assert unit_ball_volume(n) == pytest.approx(vol[n], rel=1e-12)


def test_12_verify_determinism(tmp_path):
    with _Criterion(12, "verify command emits byte-identical JSON on reruns", 60.0):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli_main(["verify", "--outdir", str(out_a)]) == 0
        assert cli_main(["verify", "--outdir", str(out_b)]) == 0
        bytes_a = (out_a / "verify.json").read_bytes()
        bytes_b = (out_b / "verify.json").read_bytes()
        assert bytes_a == bytes_b
        assert json.loads(bytes_a)["all_passed"] is True
