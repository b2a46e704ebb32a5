"""The verification bundle as a library: check order, one batched field call
per study (a study runs its residual operators on the points of all its
steps at once, flow and Poisson together on the rotating family), one
rotating-field evaluation per run (the corrupted control reuses the exact
study's samples), one scale-factor read per batch, and reports pinned
bit for bit."""

import hashlib
import json

import numpy as np
import pytest

from eulerpoisson import fields, ode, verify
from eulerpoisson.cli import main
from eulerpoisson.errors import DomainError

H_LIST = [1e-2, 5e-3, 2.5e-3]

EXACT_NAMES = [
    "rotational/mass",
    "rotational/momentum_x",
    "rotational/momentum_y",
    "rotational/poisson",
    "zz_inner/mass",
    "zz_inner/momentum_x",
    "zz_inner/momentum_y",
    "zz_outer/mass",
    "zz_outer/momentum_x",
    "zz_outer/momentum_y",
    "zz_inner_as_printed/mass",
    "zz_interface_continuity",
]
CORRUPTED_NAMES = [
    "corrupted_rotational/mass",
    "corrupted_rotational/momentum_x",
    "corrupted_rotational/poisson",
]


@pytest.mark.parametrize(
    "inject,names", [(False, EXACT_NAMES), (True, EXACT_NAMES + CORRUPTED_NAMES)]
)
def test_check_names_in_report_order(inject, names):
    checks = verify.run_bundle(0, 2, H_LIST, inject, 0.01)
    assert [c["name"] for c in checks] == names


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_each_study_is_one_batched_field_call(tmp_path, monkeypatch):
    calls = {name: _count_calls(monkeypatch, fields, name)
             for name in ("eval_rotational", "eval_zz_inner", "eval_zz_outer")}
    assert main(["verify", "--inject-corruption", "--outdir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "verify.json").read_text())["all_passed"]
    # 2 rotational studies (flow and Poisson, exact and corrupted) on the same
    # points, so the corrupted one reuses the exact one's samples; zz_inner has
    # 2 flow studies (exact and as printed) and the interface corners, zz_outer
    # 1 flow study
    assert {name: len(c) for name, c in calls.items()} == {
        "eval_rotational": 1, "eval_zz_inner": 3, "eval_zz_outer": 1}
    for c in calls.values():
        for _, t, x, y in c:
            assert all(isinstance(v, np.ndarray) for v in (t, x, y))


def test_each_rotational_sample_reads_the_scale_factor_once(tmp_path, monkeypatch):
    state_at = _count_calls(monkeypatch, ode.Trajectory, "state_at")
    evaluate = _count_calls(monkeypatch, ode.Trajectory, "evaluate")
    rotational = _count_calls(monkeypatch, fields, "eval_rotational")
    assert main(["verify", "--inject-corruption", "--outdir", str(tmp_path)]) == 0
    # one scale-factor lookup for the one batch of stencil points, none per point
    assert len(rotational) == 1
    assert len(state_at) == 0
    scale = rotational[0][0].scale
    # and one more in build_rotational, where all the samples set the profile's radius
    assert sum(args[0] is scale for args in evaluate) == len(rotational) + 1


def test_the_profile_stops_one_past_the_largest_sampled_radius(monkeypatch):
    rotational = _count_calls(monkeypatch, fields, "eval_rotational")
    verify.run_bundle(5, 20, H_LIST, True, 0.01)
    sol = rotational[0][0]
    reach = max(np.max(np.hypot(x, y) / sol.scale.evaluate(t)[..., 0])
                for _, t, x, y in rotational)
    assert sol.profile.s_max == 1.0 + reach < 5.0


def test_a_rotational_evaluation_without_the_control_is_one_call(monkeypatch):
    rotational = _count_calls(monkeypatch, fields, "eval_rotational")
    verify.run_bundle(0, 2, H_LIST, False, 0.01)
    assert len(rotational) == 1


def test_the_field_is_evaluated_again_on_other_points():
    calls = []

    def field(t, x, y):
        calls.append(t)
        return fields.FieldSample(rho=t + x + y, u1=0.0, u2=0.0, phi_r=None)

    once = verify._reusing_last_call(field)
    t, x, y = np.array([1.0, 2.0]), np.array([0.5, 0.25]), np.array([0.0, 3.0])
    first = once(t, x, y)
    assert once(t.copy(), x.copy(), y.copy()) is first and len(calls) == 1
    # other values, a zero of the other sign, another shape or another dtype
    # in any one of t, x and y is sampled afresh
    for args in [(t, x, y + 1.0), (t, x, np.array([-0.0, 3.0])), (t, x.reshape(2, 1), y),
                 (t.astype(np.float32), x, y)]:
        n = len(calls)
        once(*args)
        assert len(calls) == n + 1
    # only the last call is kept: the first points are sampled again
    assert once(t, x, y) is not first and len(calls) == 6


# sha256 of json.dumps(run_bundle(seed, 20, H_LIST, True, 0.01), sort_keys=True),
# recorded when the corrupted control still sampled the rotating field anew
REPORT_DIGESTS = {
    0: "7baaa2eef36525d80f9905823cbe8a303095bb1476229397251f82b7a77e81e4",
    7: "71dbbf931013215f7c1ce4e3dee2768d416bfe74c00d3551c7373c3ac94aff34",
    20261017: "b7cc892702017401e63d87a43c43d667b89df3f266a5b96d4afdc75fe9ddee49",
}


@pytest.mark.parametrize("seed", sorted(REPORT_DIGESTS))
def test_the_report_is_bitwise_pinned(seed):
    checks = verify.run_bundle(seed, 20, H_LIST, True, 0.01)
    digest = hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[seed]


@pytest.mark.parametrize("points", [0, -3, 1.5])
def test_points_must_be_an_integer_from_one(points):
    # with 0 points every exact-family study once passed on empty norms, and
    # 1.5 points raised a bare TypeError
    with pytest.raises(DomainError, match="points must be an integer >= 1"):
        verify.run_bundle(0, points, H_LIST, False, 0.01)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0])
def test_seed_must_be_an_integer_from_zero(seed):
    # a fractional seed raised numpy's bare TypeError from default_rng
    with pytest.raises(DomainError, match="seed must be >= 0 and an integer"):
        verify.run_bundle(seed, 1, H_LIST, False, 0.01)
