"""Hand-derived tangent maps of the standard-form (Darboux) fields.

On standard-form charts the library writes each closed-form field once, as
a template (`_darboux_field` in `geometry` and `symplectization`), and
takes its Jacobian from the gradient kernels of the template's components
built as expression trees.  The derivations below differentiate the same
closed forms by hand, from f's value, gradient and Hessian; they are kept
here, away from the library, as the independent oracle the kernel
Jacobians and variational tangents are compared against.
"""

from __future__ import annotations

import numpy as np


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
