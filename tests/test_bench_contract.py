"""What the benchmark's span tracer (`perfbench/tracing.py`) needs of the package.

The tracer patches the functions named in its LAYERS table and counts the
fields sampled by `residuals.convergence_study` by wrapping its second
argument.  These tests load the tracer by path, without changing it, so a
refactor that breaks `perfbench/run.py --trace 1` fails here first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from eulerpoisson import residuals
from eulerpoisson.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves_to_a_callable(tracing):
    for span, module, attr in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr, None)), span


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
