"""Kernel Jacobians of the Darboux closed forms against the hand derivations.

On standard-form charts `hamiltonian_field_jacobian_at` and
`variational_evaluator` take X_f and DX_f from the gradient kernels of the
closed-form components (`geometry._closed_kernels`).  They must match the
hand-derived tangent maps of `darboux_tangents` to 1e-14 relative, at the
points the golden reports sample: contact charts at n = 1 and n = 2 and
their symplectizations.  A Jacobian or field is relative to its largest
entry.  A tangent DX_f dx can cancel to rounding noise, so it is relative
to the size of the terms the derivations sum: the largest row of
|DX_f| |dx|, plus |X_f| |dx| from the quotient rule of the lifted one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from darboux_tangents import contact_field_with_tangents, lifted_field_with_tangents

from contactmech.config import bundled_config_path, load_config
from contactmech.expressions import eval_jet2

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

