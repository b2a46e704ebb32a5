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

from eulerpoisson import ode, residuals
from eulerpoisson.cli import main

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
    assert spans["residuals.convergence_study"]["calls"] == 11
    for layer in ("fields.build_rotational", "fields.eval_rotational", "fields.eval_zz"):
        assert spans[layer]["calls"] > 0, layer
    assert tracer.counts["field_samples"] > 0


def test_profiles_tasks_pass_their_check(workloads, tmp_path):
    # the liouville.csv momentum bracket stays within BRACKET_ATOL (1e-8) on
    # the profile's own step grid
    for k, task in enumerate(workloads.make_pool("profiles", 1, 2)):
        assert task.check is workloads.check_profile
        outdir = tmp_path / str(k)
        for argv in task.argvs:
            assert main([*argv, "--outdir", str(outdir)]) == 0, argv
        assert task.check(task, outdir) is None
