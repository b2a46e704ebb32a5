"""Array-first field functions: over random shapes, 0-d, empty and broadcast
inputs included, an array call equals its elementwise float calls bit for
bit, and it raises if and only if some element is out of the function's
domain.  Where the inputs broadcast to no element at all, a bad value in one
of them may still raise, but only a package error."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eulerpoisson.emden import integrate_scale
from eulerpoisson.errors import EulerPoissonError
from eulerpoisson.fields import (
    FieldSample,
    SwirlAnsatz,
    eval_gravity_radial,
    eval_gw,
    eval_rotational,
    eval_swirl_ansatz,
    eval_zz_inner,
    eval_zz_outer,
    gravity_radial_two_ways,
)
from eulerpoisson.goldreich_weber import GWParams, alpha_const, gw_density, solve_gw_profile
from eulerpoisson.liouville import enclosed_mass

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


def inputs(domain, bad):
    """Arrays of mutually broadcastable shapes (0-d included) drawn from the
    per-argument `domain` ranges; some examples then set one element of one
    argument to a value from `bad`, a list of (argument index, value)."""

    def draw_arrays(shapes):
        return st.tuples(*(
            hnp.arrays(float, shape, elements=st.floats(lo, hi))
            for shape, (lo, hi) in zip(shapes.input_shapes, domain)
        ))

    def poison(args_and_choice):
        args, choice = args_and_choice
        args = [a.copy() for a in args]
        if choice is not None:
            (k, value), i = choice
            if args[k].size:
                args[k].flat[i % args[k].size] = value
        return args

    shapes = hnp.mutually_broadcastable_shapes(num_shapes=len(domain), max_dims=3, min_side=0,
                                               max_side=3)
    choice = st.none() | st.tuples(st.sampled_from(bad), st.integers(0, 26))
    return st.tuples(shapes.flatmap(draw_arrays), choice).map(poison)


def _outcome(fn, args):
    try:
        return fn(*args)
    except EulerPoissonError as exc:
        return exc


def _members(result):
    if isinstance(result, FieldSample):
        return (result.rho, result.u1, result.u2, result.phi_r)
    return result if isinstance(result, tuple) else (result,)


def assert_array_first(fn, args):
    shape = np.broadcast_shapes(*(a.shape for a in args))
    each = {
        idx: _outcome(fn, [float(np.broadcast_to(a, shape)[idx]) for a in args])
        for idx in np.ndindex(shape)
    }
    got = _outcome(fn, args)
    failed = {type(r) for r in each.values() if isinstance(r, Exception)}
    if failed:
        assert type(got) in failed, (got, failed)
        return
    if not each and isinstance(got, EulerPoissonError):
        return
    assert not isinstance(got, Exception), got
    for idx, want in each.items():
        for g, w in zip(_members(got), _members(want), strict=True):
            if w is None:
                assert g is None
                continue
            assert isinstance(w, float), type(w)  # a float in gives a float out
            assert np.broadcast_to(g, shape)[idx].tobytes() == np.float64(w).tobytes(), idx


@pytest.fixture(scope="module")
def gw_profiles():
    lam = alpha_const(3) / 3.0  # balanced forcing: no first zero before s_cap
    return (
        solve_gw_profile(GWParams(N=3, K=1.0, lam=0.0, alpha_center=1.0)),
        solve_gw_profile(GWParams(N=3, K=1.0, lam=lam, alpha_center=1.0), s_cap=5.0),
    )


NAN = math.nan
T_BAD = [(0, -0.1), (0, 2.6), (0, NAN)]


class TestRotational:
    @PROPERTY
    @given(args=inputs([(0.0, 2.5), (-3.0, 3.0), (-3.0, 3.0)],
                       T_BAD + [(1, 60.0), (2, NAN), (1, 0.0)]))
    def test_eval_rotational(self, rot_solution, args):
        assert_array_first(functools.partial(eval_rotational, rot_solution), args)

    @PROPERTY
    @given(args=inputs([(0.0, 2.5), (0.01, 3.0)], T_BAD + [(1, 0.0), (1, -1.0), (1, 60.0)]))
    def test_gravity(self, rot_solution, args):
        assert_array_first(functools.partial(eval_gravity_radial, rot_solution), args)
        assert_array_first(functools.partial(gravity_radial_two_ways, rot_solution), args)


class TestProfile:
    @PROPERTY
    @given(args=inputs([(0.0, 20.0)], [(0, -1.0), (0, 20.5), (0, NAN), (0, 1e-7), (0, 0.0)]))
    def test_f_and_fdot(self, rot_solution, args):
        assert_array_first(rot_solution.profile.f_at, args)
        assert_array_first(rot_solution.profile.fdot_at, args)

    @PROPERTY
    @given(args=inputs([(1e-3, 20.0)], [(0, 0.0), (0, 20.5), (0, NAN), (0, 5e-7), (0, 20.0)]))
    def test_enclosed_mass(self, rot_solution, args):
        assert_array_first(functools.partial(enclosed_mass, rot_solution.profile), args)

    def test_enclosed_mass_at_nodes_and_in_the_first_segment(self, rot_solution):
        prof = rot_solution.profile
        s = np.concatenate([prof.grid[1::40], [prof.s_max, 2e-7, prof.grid[1]]])
        assert_array_first(functools.partial(enclosed_mass, prof), [s])
        # the liouville command's mass column reads the node masses exactly
        assert np.array_equal(enclosed_mass(prof, prof.grid[1:]), prof._mass_at_nodes()[1:])

    @PROPERTY
    @given(args=inputs([(0.5, 2.0), (0.0, 8.0)], [(0, 0.0), (0, -1.0), (1, -1.0), (1, NAN)]))
    def test_gw_density(self, gw_profiles, args):
        for prof in gw_profiles:  # with a first zero, and without (s beyond s_cap raises)
            assert_array_first(functools.partial(gw_density, prof), args)

    @PROPERTY
    @given(args=inputs([(0.0, 2.5), (-3.0, 3.0), (-3.0, 3.0)],
                       T_BAD + [(1, 200.0), (2, NAN), (1, 0.0)]))
    def test_eval_gw(self, gw_profiles, args):
        for prof in gw_profiles:  # an expanding scale factor, solved to t = 2.5
            scale = integrate_scale(dataclasses.replace(prof.params, a1=2.0), 2.5).trajectory
            assert_array_first(functools.partial(eval_gw, prof, scale), args)


class TestRegions:
    @PROPERTY
    @given(args=inputs([(0.75, 2.0), (-1.0, 1.0), (-1.0, 1.0)],
                       [(0, 0.0), (0, -1.0), (1, 5.0), (2, NAN)]))
    def test_zz_inner(self, zz, args):
        assert_array_first(functools.partial(eval_zz_inner, zz), args)
        assert_array_first(functools.partial(eval_zz_inner, zz, as_printed=True), args)

    @PROPERTY
    @given(args=inputs([(0.0, 1.0), (3.0, 6.0), (-6.0, 6.0)], [(0, -1.0), (0, 10.0), (1, NAN)]))
    def test_zz_outer(self, zz, args):
        assert_array_first(functools.partial(eval_zz_outer, zz), args)

    @PROPERTY
    @given(args=inputs([(0.5, 2.0), (-2.0, 2.0), (-2.0, 2.0)],
                       [(0, 0.0), (0, -1.0), (1, 0.0), (2, NAN)]))
    def test_swirl_ansatz(self, args):
        ansatz = SwirlAnsatz(
            f_profile=lambda s: math.exp(-s * s),
            a_fn=lambda t: t,  # a(t) > 0 only for t > 0
            adot_fn=lambda t: 1.0,
            G_fn=lambda t, r: math.sin(t) * r * r,
        )
        assert_array_first(functools.partial(eval_swirl_ansatz, ansatz), args)
