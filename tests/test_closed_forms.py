"""Fields and Jacobians of the Darboux closed forms against the hand derivations.

On standard-form charts `field_from_gradient` and the point stacks
(`_Chart._fields`) run the closed-form template over arrays, unchecked, and
`hamiltonian_field_jacobian_at` and `variational_evaluator` take X_f and
DX_f from the template's closed variational program over f's jet kernel
(`geometry._closed_program`).  They must match the hand derivations of
`darboux_tangents` to 1e-14 relative, at the points the golden reports
sample: contact charts at n = 1 and n = 2 and their symplectizations.  A
Jacobian or field is relative to its largest entry.  A tangent DX_f dx can
cancel to rounding noise, so it is relative to the size of the terms the
derivations sum: the largest row of |DX_f| |dx|, plus |X_f| |dx| from the
quotient rule of the lifted one.  Written with a coframe that is not
structurally the standard form, darboux-pz takes the general solves, which
must agree with the closed forms to 1e-12.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from darboux_tangents import (
    contact_field,
    contact_field_with_tangents,
    lifted_field,
    lifted_field_with_tangents,
)

from contactmech.config import bundled_config_path, load_config
from contactmech.expressions import eval_jet2
from contactmech.integrability import darboux_verify
from contactmech.geometry import ContactChart
from contactmech.symplectization import SympChart

GOLDEN = Path(__file__).parent / "data" / "golden"
CONFIGS = {
    "darboux-pz": bundled_config_path("darboux-pz"),
    "darboux-5d-involutive": bundled_config_path("darboux-5d-involutive"),
    "darboux-5d-noninvolutive": bundled_config_path("darboux-5d-noninvolutive"),
    "cubic-5d": GOLDEN / "cubic-5d.json",
}
TOLERANCE = 1e-14


def _systems(name: str, lifted: bool):
    cfg = load_config(CONFIGS[name])
    system = cfg.symp_system() if lifted else cfg.system()
    # the sampled commands of the golden reports draw their points at --seed 42
    points = list(system.sample(np.random.default_rng(42), 25))
    if name == "darboux-pz":
        data = json.loads((GOLDEN / "points-pz.json").read_text())
        rows = [np.array(row, dtype=float) for row in data["points"]]
        points += [row for row in rows if len(row) == system.dim] if lifted else [
            row[: system.dim] for row in rows
        ]
    return system, points


def _reference(system, lifted: bool, f, x, dx):
    chart = system.chart
    jet = eval_jet2(f, chart.coordinates, x)
    n = (chart.dim - 1) // 2
    if lifted:
        return lifted_field_with_tangents(n, x, jet.gradient, jet.hessian, dx)
    return contact_field_with_tangents(n, x, jet.value, jet.gradient, jet.hessian, dx)


def _assert_close(actual, expected, scale=None):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    scale = np.max(np.abs(expected)) if scale is None else scale
    assert np.max(np.abs(actual - expected)) <= TOLERANCE * scale, (actual, expected)


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "lifted"])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_fields_match_the_hand_derivation(name, lifted):
    system, points = _systems(name, lifted)
    chart, n = system.chart, (system.dim - 1) // 2
    values, grads = system.gradient_stack(points)
    stack = chart._fields(np.array(points), values, grads)
    for x, row_values, row_grads, row_fields in zip(points, values, grads, stack):
        for value, grad, X in zip(row_values, row_grads, row_fields):
            want = lifted_field(n, x, grad) if lifted else contact_field(n, x, value, grad)
            _assert_close(chart.field_from_gradient(x, value, grad), want)
            _assert_close(X, want)


def test_lifted_field_at_a_large_fiber_is_the_hand_derivation():
    # F = r dF/dr holds exactly here; a re-check of theta(X_F) = F on the
    # template's output used to raise on its own rounding (1.1e-7 at r = 2e9)
    chart = SympChart(ContactChart.standard(1))
    x, grad = np.array([0.5, 1629.51, 1.0, 2032079900.0]), np.array([0.0, 563793.0, 0.0, 0.0])
    want = lifted_field(1, x, grad)
    assert np.array_equal(chart.field_from_gradient(x, 0.0, grad), want)
    assert np.array_equal(chart._fields(x[None], np.zeros((1, 1)), grad[None, None])[0, 0], want)


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "lifted"])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_kernel_jacobians_match_the_hand_derivation(name, lifted):
    system, points = _systems(name, lifted)
    chart = system.chart
    assert chart._closed_field is not None
    for f in system.integrals:
        for x in points:
            _, dX = _reference(system, lifted, f, x, np.eye(chart.dim))
            _assert_close(chart.hamiltonian_field_jacobian_at(f, x), dX)


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "lifted"])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_variational_tangents_match_the_hand_derivation(name, lifted):
    system, points = _systems(name, lifted)
    dim = system.dim
    rng = np.random.default_rng(7)
    for a, f in enumerate(system.integrals):
        run = system.variational_evaluator(a)
        for x in points:
            tangents = rng.normal(size=(dim, 2))
            out = run([*x.tolist(), *tangents.T.ravel().tolist()])
            X, dX = _reference(system, lifted, f, x, tangents)
            J = _reference(system, lifted, f, x, np.eye(dim))[1]
            _assert_close(out[:dim], X)
            for j in range(2):
                dx = np.abs(tangents[:, j])
                scale = np.max(np.abs(J) @ dx) + np.max(np.abs(X)) * np.max(dx)
                _assert_close(out[dim * (j + 1) : dim * (j + 2)], dX[:, j], scale)



@pytest.fixture(scope="module")
def general_pz(tmp_path_factory):
    # darboux-pz with eta = dz - p dq spelled so that the chart takes the
    # general-coframe solves
    data = json.loads(CONFIGS["darboux-pz"].read_text())
    data["eta"] = ["-p", "0*q", "1+0*q"]
    path = tmp_path_factory.mktemp("general") / "general-pz.json"
    path.write_text(json.dumps(data))
    return load_config(path)


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "lifted"])
def test_variational_tangents_match_the_general_solve(general_pz, lifted):
    closed, points = _systems("darboux-pz", lifted)
    general = general_pz.symp_system() if lifted else general_pz.system()
    assert closed.chart._closed_field is not None and general.chart._closed_field is None
    rng = np.random.default_rng(8)
    for a in range(len(closed.integrals)):
        runs = closed.variational_evaluator(a), general.variational_evaluator(a)
        for x in points:
            state = [*x.tolist(), *rng.normal(size=2 * closed.dim).tolist()]
            got, want = (np.array(run(state)) for run in runs)
            assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("section", ["graph-z", "graph-p"])
def test_darboux_verify_matches_the_general_solve(general_pz, section):
    cfg = load_config(CONFIGS["darboux-pz"])
    points = cfg.system().sample(np.random.default_rng(5), 6)
    for x in points:
        closed, general = (darboux_verify(c.system(), c.section(section), points=x[None])
                           for c in (cfg, general_pz))
        assert 0.0 < closed.max_residual < 1e-5
        assert abs(closed.max_residual - general.max_residual) <= 1e-12
