"""The benchmark's tracer still finds every entry point it wraps.

`perfbench/tracer.py` replaces public functions, methods and the closures
of `gradient_evaluator` and `field_evaluator` with timing wrappers and
raises `MissingEntryPoint` when one is gone, so a rename here fails this
test rather than only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from contactmech import expressions, geometry, symplectization
from contactmech.geometry import ContactChart

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tracer_module):
    original = expressions.gradient_evaluator
    field = ContactChart.hamiltonian_field_at
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert geometry.gradient_evaluator is not original
        assert symplectization.gradient_evaluator is not original
        assert ContactChart.hamiltonian_field_at is not field
    finally:
        tracer.uninstall()
    assert expressions.gradient_evaluator is original
    assert geometry.gradient_evaluator is original
    assert symplectization.gradient_evaluator is original
    assert ContactChart.hamiltonian_field_at is field
