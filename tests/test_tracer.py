"""The benchmark's tracer still finds every entry point it wraps.

`perfbench/tracer.py` replaces public functions, methods and the closures
of `gradient_evaluator` and `field_evaluator` with timing wrappers and
raises `MissingEntryPoint` when one is gone, so a rename here fails this
test rather than only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from contactmech import expressions, geometry, symplectization
from contactmech.geometry import ContactChart, ContactSystem
from contactmech.symplectization import SympChart, SympSystem

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


def test_tracer_counts_inherited_entry_points(tracer_module, pz_system, pz_symp):
    # the chart and system classes inherit these methods from shared bases;
    # the tracer wraps each class on its own and must restore each one
    classes = (ContactChart, SympChart, ContactSystem, SympSystem)
    before = [dict(vars(cls)) for cls in classes]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        pz_system.chart.hamiltonian_field_at("p * z", [0.5, 1.0, 1.5])
        pz_symp.chart.hamiltonian_field_at(pz_symp.integrals[0], [0.5, 1.0, 1.5, 2.0])
        pz_system.field_evaluator(0)(np.array([0.5, 1.0, 1.5]))
        pz_symp.field_evaluator(1)(np.array([0.5, 1.0, 1.5, 2.0]))
        calls = dict(tracer.calls)
    finally:
        tracer.uninstall()
    assert calls["geometry.field"] == 1
    assert calls["symplectization.field"] == 1
    assert calls["flows.field_eval"] == 2
    assert [dict(vars(cls)) for cls in classes] == before
