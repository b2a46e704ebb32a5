"""The verification bundle as a library: check order, one sample per stencil
point, one scale-factor read per sample and one momentum call per step."""

import collections
import functools
import json

import pytest

from eulerpoisson import fields, ode, residuals, verify
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


def test_each_family_point_is_evaluated_once(tmp_path, monkeypatch):
    seen = collections.Counter()

    def counting(name, eval_fn):
        def wrapper(sol, t, x, y, **kwargs):
            seen[(name, t, x, y, tuple(sorted(kwargs.items())))] += 1
            return eval_fn(sol, t, x, y, **kwargs)
        return wrapper

    for name in ("eval_rotational", "eval_zz_inner", "eval_zz_outer"):
        monkeypatch.setattr(fields, name, counting(name, getattr(fields, name)))
    assert main(["verify", "--inject-corruption", "--outdir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "verify.json").read_text())["all_passed"]
    totals = collections.Counter(key[0] for key in seen)
    assert set(totals) == {"eval_rotational", "eval_zz_inner", "eval_zz_outer"}
    repeated = [key for key, n in seen.items() if n > 1]
    assert not repeated, f"{len(repeated)} points evaluated more than once: {repeated[:3]}"


def test_memo_changes_no_result(monkeypatch):
    memoised = verify.run_bundle(7, 3, H_LIST, True, 0.01)
    # the same bundle with every family field evaluated afresh at each sample
    monkeypatch.setattr(functools, "cache", lambda fn: fn)
    assert verify.run_bundle(7, 3, H_LIST, True, 0.01) == memoised


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_each_rotational_sample_reads_the_scale_factor_once(tmp_path, monkeypatch):
    state_at = _count_calls(monkeypatch, ode.Trajectory, "state_at")
    rotational = _count_calls(monkeypatch, fields, "eval_rotational")
    assert main(["verify", "--inject-corruption", "--outdir", str(tmp_path)]) == 0
    # one scale-factor and one profile lookup for each of the 500 points
    assert len(rotational) == 500
    assert len(state_at) == 2 * len(rotational)


def test_momentum_components_share_one_call_per_step(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, residuals, "momentum_residual")
    assert main(["verify", "--inject-corruption", "--outdir", str(tmp_path)]) == 0
    # rotational, zz_inner, zz_outer and corrupted_rotational, 3 steps each
    assert len(calls) == 12
    assert len({(id(f), id(p), c, law) for f, p, c, law in calls}) == 12
