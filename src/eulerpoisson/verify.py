"""The residual verification bundle behind `eulerpoisson verify`.

`run_bundle` runs one `residuals.convergence_study` per family and control:
the flow operator (mass and both momentum components) on every family, with
the Poisson operator beside it on the rotating family and its corrupted
control.  The exact families must converge at second order, the negative
controls must fail.  Each study samples its field once, on all its stencil
points; the corrupted control reuses the exact rotational study's samples.
"""

from __future__ import annotations

import functools
import math
from numbers import Integral

import numpy as np

from . import fields, residuals
from .errors import DomainError


def _study_check(name, expected_converges, study) -> dict:
    return {
        "name": name,
        "kind": "convergence",
        "expected": "converges" if expected_converges else "fails",
        "estimated_order": study.estimated_order,
        "norms": list(study.norms),
        "h_list": list(study.h_sequence),
        "at_floor": study.at_floor,
        "passed": residuals.study_passes(study) == expected_converges,
    }


def _reusing_last_call(field):
    """field, which returns its last sample again for bitwise the same t, x and y."""
    last = [None, None]

    def field_once(t, x, y):
        key = [(v.dtype.str, v.shape, v.tobytes()) for v in map(np.asarray, (t, x, y))]
        if key != last[0]:
            last[:] = key, field(t, x, y)
        return last[1]

    return field_once


def run_bundle(seed, points, h_list, inject_corruption, corruption_delta) -> list[dict]:
    """The checks of one run in report order, over `points` stencil centres
    per family drawn from `seed`; `inject_corruption` adds rho + delta on the
    rotating field as a control that must fail."""
    if not (isinstance(seed, Integral) and seed >= 0):
        raise DomainError(f"seed must be >= 0 and an integer, got {seed}")
    if not (isinstance(points, Integral) and points >= 1):
        raise DomainError(f"points must be an integer >= 1, got {points}")
    rng = np.random.default_rng(seed)

    def disc_pts(t_lo, t_hi, r_lo, r_hi):
        draws = rng.uniform((t_lo, r_lo, 0.0), (t_hi, r_hi, 2 * math.pi), size=(points, 3))
        return np.array([(t, r * math.cos(a), r * math.sin(a)) for t, r, a in draws.tolist()])

    pts = disc_pts(0.1, 2.0, 0.2, 3.0)
    pts_in = disc_pts(1.0, 2.0, 0.2, 1.2)   # interface radius is 2t >= 2 here
    pts_out = disc_pts(1.0, 2.0, 5.0, 8.0)
    iso = functools.partial(residuals.flow_residuals,
                            pressure=residuals.PressureLaw("isothermal", K=1.0))
    rot_ops = (iso, residuals.poisson_residual)
    # the profile needs to reach only as far as the rotating family's stencils
    t, x, y = np.concatenate([op(pts, h)[1].reshape(3, -1) for op in rot_ops for h in h_list],
                             axis=1)
    sol = fields.build_rotational(lam=1.0, xi=1.0, K=1.0, alpha=0.0, a0=1.0, a1=1.0,
                                  t_max=2.5, samples=(t, np.hypot(x, y)))
    zz = fields.ZZSolution(K=1.0, rho0=0.5)
    rot = _reusing_last_call(functools.partial(fields.eval_rotational, sol))
    inner = functools.partial(fields.eval_zz_inner, zz)
    g2 = (functools.partial(residuals.flow_residuals,
                            pressure=residuals.PressureLaw("gamma2", K=zz.K)),)
    flow = ("mass", "momentum_x", "momentum_y")
    table = [  # (name prefix, expected to converge, operators, field, points, equations)
        ("rotational", True, rot_ops, rot, pts, flow + ("poisson",)),
        ("zz_inner", True, g2, inner, pts_in, flow),
        ("zz_outer", True, g2, functools.partial(fields.eval_zz_outer, zz), pts_out, flow),
        ("zz_inner_as_printed", False, g2,
         functools.partial(fields.eval_zz_inner, zz, as_printed=True), pts_in, ("mass",)),
    ]
    if inject_corruption:
        bad = residuals.corrupt_density_offset(rot, corruption_delta)
        table.append(("corrupted_rotational", False, rot_ops, bad, pts,
                      ("mass", "momentum_x", "poisson")))

    def studies(rows):
        checks = []
        for prefix, expected, ops, field, p, eqs in rows:
            study = residuals.convergence_study(ops, field, p, h_list)
            checks += [_study_check(f"{prefix}/{eq}", expected, study[eq]) for eq in eqs]
        return checks

    # interface density continuity (exact algebra, checked numerically)
    t = np.array([0.5, 1.0, 1.5, 2.0])
    corner = fields.zz_interface_radius(zz, t) / math.sqrt(2)
    diff = float(np.max(np.abs(inner(t, corner, corner).rho - zz.rho0)))
    continuity = {"name": "zz_interface_continuity", "kind": "equality",
                  "max_abs_diff": diff, "tol": 1e-12, "passed": diff <= 1e-12}
    # the report lists it after the exact families, before the injected control
    return studies(table[:4]) + [continuity] + studies(table[4:])
