"""What the benchmark's span tracer (`perfbench/tracing.py`) and its output
checks (`perfbench/workloads.py`) need of the package.

The tracer patches the functions named in its LAYERS table and
`ode.Trajectory.state_at`, and counts the fields sampled by `residuals.convergence_study` by wrapping its second
argument.  These tests load the tracer and the workloads by path, without
changing them, so a refactor that breaks `perfbench/run.py --trace 1` or
fails a benchmark check fails here first.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from eulerpoisson import liouville, ode, residuals
from eulerpoisson.cli import main
from eulerpoisson.emden import EmdenParams, scale_rhs
from eulerpoisson.goldreich_weber import GWParams, solve_gw_profile

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_layer_resolves_to_a_callable(tracing):
    for span, module, attr in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr, None)), span


def test_tracer_counts_state_at(tracing):
    original = ode.Trajectory.state_at
    traj = ode.Trajectory([0.0, 1.0], [[1.0], [2.0]], [[1.0], [1.0]])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert traj.state_at(0.5)[0] == pytest.approx(1.5)
    finally:
        tracer.uninstall()
    assert tracer.summary()[tracing.STATE_AT]["calls"] == 1
    assert ode.Trajectory.state_at is original


def test_tracer_sees_every_rhs_call(tracing):
    # the tracer hands `integrate` a wrapper that copies the Rhs's attributes; a
    # system recognised by them would be pasted past the wrapper, and count 0 spans
    p = EmdenParams(1.0, 1.0, 1.0, 1.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        orbit = ode.integrate(scale_rhs(p), ode.OdeState(0.0, [p.a0, p.a1]), 20.0)
        profile = liouville.solve_profile(liouville.LiouvilleParams(1.0, 1.0, 0.0), 20.0)
    finally:
        tracer.uninstall()
    calls = orbit.stats.rhs_calls + profile.traj.stats.rhs_calls
    assert calls > 0 and tracer.summary()[tracing.RHS]["calls"] == calls


def test_tracer_sees_the_event_finder(tracing, tmp_path):
    # the segment count reads the trajectory from detect_events' first argument
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["period", "--outdir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.summary()["ode.detect_events"]["calls"] >= 1
    assert tracer.counts["segments"] > 0


def test_tracer_spans_the_period_quadrature(tracing, tmp_path):
    # LAYERS patches `ode.quad_adaptive` and counts calls of its first argument;
    # `period` makes one quadrature, whose integrand is called at each node
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["period", "--outdir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.summary()["ode.quad"]["calls"] == 1
    assert tracer.counts["quad_evals"] > 0


def test_convergence_study_takes_the_field_second():
    params = list(inspect.signature(residuals.convergence_study).parameters)
    assert params[1] == "field"


def test_tracer_sees_the_verify_bundle(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["verify", "--points", "2", "--outdir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    # one study per family: flow and Poisson together on the rotating field,
    # flow on zz_inner, zz_outer and the as-printed spiral
    assert spans["residuals.convergence_study"]["calls"] == 4
    for layer in ("fields.build_rotational", "fields.eval_rotational", "fields.eval_zz"):
        assert spans[layer]["calls"] > 0, layer
    assert tracer.counts["field_samples"] > 0


def test_tracer_sees_one_rotating_field_evaluation(tracing, tmp_path):
    # the benchmark's verify tasks run --inject-corruption: 5 studies, and the
    # corrupted control reuses the exact rotational study's samples
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["verify", "--inject-corruption", "--outdir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    assert spans["residuals.convergence_study"]["calls"] == 5
    assert spans["fields.eval_rotational"]["calls"] == 1
    # the tracer still counts one field call per study
    assert tracer.counts["field_samples"] == 5


def test_tracer_spans_the_gw_scale_factor(tracing, tmp_path):
    # the profiles workload's `fields --family gw` solves its scale factor through
    # `emden.integrate_scale`, which the tracer patches in `emden` and `cli`, and
    # samples its density through `gw_density`, patched in `goldreich_weber` and `fields`
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["fields", "--family", "gw", "--alpha", "1", "--outdir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    assert spans["emden.integrate_scale"]["calls"] == 1
    assert spans["goldreich_weber.solve_gw_profile"]["calls"] == 1
    assert spans["goldreich_weber.gw_density"]["calls"] == 1


def test_tracer_counts_the_joined_gw_profile(tracing, tmp_path):
    # `solve_gw_profile` joins the run to the fall and the closing run after Henon's
    # swap into one trajectory; its one span counts that trajectory's nodes
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argv = ["fields", "--family", "gw", "--alpha", "1", "--lam", "0"]
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    assert spans["goldreich_weber.solve_gw_profile"]["calls"] == 1
    # three runs for the profile, one for the scale factor
    assert spans["ode.integrate"]["calls"] == 4
    prof = solve_gw_profile(GWParams(N=3, K=1.0, lam=0.0, alpha_center=1.0))
    assert tracer.counts["gw_nodes"] == prof.traj.n_nodes


def test_profiles_tasks_pass_their_check(workloads, tmp_path):
    # the liouville.csv momentum bracket stays within BRACKET_ATOL (1e-8) on
    # the profile's own step grid
    for k, task in enumerate(workloads.make_pool("profiles", 1, 2)):
        assert task.check is workloads.check_profile
        outdir = tmp_path / str(k)
        for argv in task.argvs:
            assert main([*argv, "--outdir", str(outdir)]) == 0, argv
        assert task.check(task, outdir) is None


def test_orbits_tasks_pass_their_check(workloads, tmp_path):
    # the benchmark's confirmation pool: every rotating orbit gets both
    # periods, wide ones included, and every collapse its touchdown
    tasks = workloads.make_pool("orbits", 20261017, 51)
    for k, task in enumerate(tasks):
        assert task.check is workloads.check_orbit
        outdir = tmp_path / str(k)
        (argv,) = task.argvs
        assert main([*argv, "--outdir", str(outdir)]) == 0, argv
        assert task.check(task, outdir) is None, argv
