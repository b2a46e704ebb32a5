"""The verification bundle as a library: check order, one batched field call
per study and step, and one scale-factor read per batch."""

import json

import numpy as np
import pytest

from eulerpoisson import fields, ode, verify
from eulerpoisson.cli import main

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


def test_each_study_step_is_one_batched_field_call(tmp_path, monkeypatch):
    calls = {name: _count_calls(monkeypatch, fields, name)
             for name in ("eval_rotational", "eval_zz_inner", "eval_zz_outer")}
    assert main(["verify", "--inject-corruption", "--outdir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "verify.json").read_text())["all_passed"]
    # 7 rotational studies (4 exact, 3 corrupted) x 3 steps; zz_inner has 4
    # studies and the interface corners, zz_outer 3 studies
    assert {name: len(c) for name, c in calls.items()} == {
        "eval_rotational": 21, "eval_zz_inner": 13, "eval_zz_outer": 9}
    for c in calls.values():
        for _, t, x, y in c:
            assert all(isinstance(v, np.ndarray) for v in (t, x, y))


def test_each_rotational_sample_reads_the_scale_factor_once(tmp_path, monkeypatch):
    state_at = _count_calls(monkeypatch, ode.Trajectory, "state_at")
    evaluate = _count_calls(monkeypatch, ode.Trajectory, "evaluate")
    rotational = _count_calls(monkeypatch, fields, "eval_rotational")
    assert main(["verify", "--inject-corruption", "--outdir", str(tmp_path)]) == 0
    # one scale-factor lookup for each batch of stencil points, none per point
    assert len(rotational) == 21
    assert len(state_at) == 0
    scale = rotational[0][0].scale
    assert sum(args[0] is scale for args in evaluate) == len(rotational)
