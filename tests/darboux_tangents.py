"""Hand-derived tangent maps of the standard-form (Darboux) fields.

On standard-form charts the library writes each closed-form field once, as
a template (`_darboux_field` in `geometry` and `symplectization`), and
takes its tangents from the template run once over forward-mode pairs
(`geometry._closed_program`'s variational closure).  The derivations
below differentiate the same closed forms by hand, from f's value,
gradient and Hessian; they are kept here, away from the library, as the
independent oracle the Jacobians and variational tangents are compared
against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from contactmech.expressions import eval_jet2
from contactmech.symplectization import SympChart


def contact_field(n: int, x, value: float, grad):
    """X_f for eta = dz - p_i dq^i at one point."""
    p = x[n : 2 * n]
    X = np.empty(2 * n + 1)
    X[:n] = grad[n : 2 * n]
    X[n : 2 * n] = -(grad[:n] + p * grad[-1])
    X[-1] = p @ grad[n : 2 * n] - value
    return X


def contact_field_with_tangents(n: int, x, value: float, grad, hessian, dx):
    """contact_field and its tangent map DX_f(x) dx on the columns of dx."""
    X = contact_field(n, x, value, grad)
    dvalue, dgrad = grad @ dx, hessian @ dx
    p, dp = x[n : 2 * n], dx[n : 2 * n]
    dX = np.empty_like(dgrad)
    dX[:n] = dgrad[n : 2 * n]
    dX[n : 2 * n] = -(dgrad[:n] + p[:, None] * dgrad[-1] + grad[-1] * dp)
    dX[-1] = p @ dgrad[n : 2 * n] + grad[n : 2 * n] @ dp - dvalue
    return X, dX


def lifted_field(n: int, x, grad):
    """X_F for theta = r(dz - p_i dq^i) at one point (q, p, z, r)."""
    r, p, Fp = x[-1], x[n : 2 * n], grad[n : 2 * n]
    X = np.empty(2 * n + 2)
    X[:n] = -Fp / r
    X[n : 2 * n] = (grad[:n] + p * grad[2 * n]) / r
    X[2 * n] = grad[2 * n + 1] - (p @ Fp) / r
    X[2 * n + 1] = -grad[2 * n]
    return X


def lifted_field_with_tangents(n: int, x, grad, hessian, dx):
    """lifted_field and its tangent map DX_F(x) dx on the columns of dx."""
    X = lifted_field(n, x, grad)
    dgrad = hessian @ dx
    r, dr = x[-1], dx[-1]
    p, dp = x[n : 2 * n], dx[n : 2 * n]
    dX = np.empty_like(dgrad)  # first the numerators over r
    dX[:n] = -dgrad[n : 2 * n]
    dX[n : 2 * n] = dgrad[:n] + p[:, None] * dgrad[2 * n] + grad[2 * n] * dp
    dX[2 * n] = -(p @ dgrad[n : 2 * n] + grad[n : 2 * n] @ dp)
    over_r = X[:-1].copy()  # the terms of X divided by r
    over_r[-1] -= grad[-1]
    dX[:-1] = (dX[:-1] - over_r[:, None] * dr) / r
    dX[2 * n] += dgrad[-1]
    dX[-1] = -dgrad[2 * n]
    return X, dX


def hand_variational(chart, f) -> Callable[[Sequence[float]], list[float]]:
    """`_Chart._variational`'s closure on a standard-form chart by the hand derivations.

    The state is x followed by k tangents; f's value, gradient and Hessian
    come from `eval_jet2`.
    """
    dim, n = chart.dim, (chart.dim - 1) // 2

    def field(state) -> list[float]:
        x = chart.point(state[:dim])
        jet = eval_jet2(f, chart.coordinates, x)
        tangents = np.array(state[dim:]).reshape(-1, dim).T
        if isinstance(chart, SympChart):
            X, dX = lifted_field_with_tangents(n, x, jet.gradient, jet.hessian, tangents)
        else:
            X, dX = contact_field_with_tangents(n, x, jet.value, jet.gradient, jet.hessian, tangents)
        return np.concatenate((X, dX.T.ravel())).tolist()

    return field
