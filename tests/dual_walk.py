"""Reference derivatives by walking the tree over dual numbers.

The compiled kernels of `contactmech.expressions` unroll this walk: their
gradients must equal `dual_gradient`'s bitwise and raise the same
EvaluationDomainError, and their Hessians must agree with `dual_jet2`'s
nested-dual passes.  The walk is kept here, away from the library, as the
independent oracle the differential tests compare against.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from contactmech.expressions import (
    Binary,
    Const,
    EvaluationDomainError,
    Expr,
    Jet2,
    Power,
    Unary,
    UnknownSymbolError,
    Var,
)


class Dual:
    """Truncated dual number a + eps*b.

    Components may be floats, numpy arrays (vector tangents for one-pass
    gradients), or Dual again (nesting gives second derivatives).  Only
    same-shape operands are ever combined; scalars promote implicitly.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a + other.a, self.b + other.b)
        return Dual(self.a + other, self.b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a - other.a, self.b - other.b)
        return Dual(self.a - other, self.b)

    def __rsub__(self, other):
        return Dual(other - self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return Dual(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.a / other.a
            return Dual(q, (self.b - q * other.b) / other.a)
        return Dual(self.a / other, self.b / other)

    def __rtruediv__(self, other):
        q = other / self.a
        return Dual(q, -q * self.b / self.a)

    def __neg__(self):
        return Dual(-self.a, -self.b)

    # -- transcendental functions, chain rule on the tangent ----------------

    def exp(self):
        e = _exp(self.a)
        return Dual(e, self.b * e)

    def log(self):
        return Dual(_log(self.a), self.b / self.a)

    def sqrt(self):
        s = _sqrt(self.a)
        if _primal(s) == 0.0:
            raise ZeroDivisionError("sqrt derivative at zero")
        return Dual(s, self.b / (2.0 * s))

    def sin(self):
        return Dual(_sin(self.a), self.b * _cos(self.a))

    def cos(self):
        return Dual(_cos(self.a), -self.b * _sin(self.a))

    def tanh(self):
        t = _tanh(self.a)
        return Dual(t, self.b * (1.0 - t * t))

    def powc(self, c: float):
        # d/dx x^c = c x^(c-1); domain checks happen on the primal float
        return Dual(_powc(self.a, c), self.b * (c * _powc(self.a, c - 1.0)))


def _primal(x) -> float:
    while isinstance(x, Dual):
        x = x.a
    return float(x)


def _exp(x):
    return x.exp() if isinstance(x, Dual) else math.exp(x)


def _log(x):
    if isinstance(x, Dual):
        return x.log()
    if x <= 0.0:
        raise ValueError("log of a nonpositive value")
    return math.log(x)


def _sqrt(x):
    if isinstance(x, Dual):
        return x.sqrt()
    if x < 0.0:
        raise ValueError("sqrt of a negative value")
    return math.sqrt(x)


def _sin(x):
    return x.sin() if isinstance(x, Dual) else math.sin(x)


def _cos(x):
    return x.cos() if isinstance(x, Dual) else math.cos(x)


def _tanh(x):
    return x.tanh() if isinstance(x, Dual) else math.tanh(x)


def _powc(x, c: float):
    if isinstance(x, Dual):
        return x.powc(c)
    if x == 0.0 and c < 0.0:
        raise ZeroDivisionError("zero base with negative exponent")
    if x < 0.0 and c != round(c):
        raise ValueError("negative base with non-integer exponent")
    return math.pow(x, c)


_FUNC_TABLE = {
    "exp": _exp,
    "log": _log,
    "sqrt": _sqrt,
    "sin": _sin,
    "cos": _cos,
    "tanh": _tanh,
}


def _eval(node: Expr, env: Mapping[str, object]):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnknownSymbolError(node.name) from None
    if isinstance(node, Binary):
        lhs = _eval(node.lhs, env)
        rhs = _eval(node.rhs, env)
        op = node.op
        try:
            if op == "+":
                out = lhs + rhs
            elif op == "-":
                out = lhs - rhs
            elif op == "*":
                out = lhs * rhs
            else:
                if _primal(rhs) == 0.0:
                    raise ZeroDivisionError
                out = lhs / rhs
        except (ZeroDivisionError, OverflowError) as exc:
            raise EvaluationDomainError(str(exc) or "division by zero", node) from None
        # float arithmetic overflows to inf silently; non-finite operands
        # still propagate without raising
        if (
            math.isinf(_primal(out))
            and math.isfinite(_primal(lhs))
            and math.isfinite(_primal(rhs))
        ):
            raise EvaluationDomainError("overflow", node)
        return out
    if isinstance(node, Unary):
        arg = _eval(node.arg, env)
        if node.op == "neg":
            return -arg
        try:
            return _FUNC_TABLE[node.op](arg)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvaluationDomainError(str(exc), node) from None
    if isinstance(node, Power):
        base = _eval(node.base, env)
        try:
            return _powc(base, node.exponent)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvaluationDomainError(str(exc), node) from None
    raise TypeError(f"not an expression node: {node!r}")


def dual_gradient(node: Expr, names: tuple[str, ...]):
    """(value, gradient) by the Dual walk with vector tangents."""
    n = len(names)
    eye = np.eye(n)
    zero = np.zeros(n)

    def run(values) -> tuple[float, np.ndarray]:
        env = {name: Dual(float(values[k]), eye[k]) for k, name in enumerate(names)}
        # the tangent arrays carry infinities and NaNs without warnings,
        # as the kernels' float arithmetic does
        with np.errstate(all="ignore"):
            out = _eval(node, env)
        if isinstance(out, Dual):
            return float(out.a), np.asarray(out.b, dtype=float)
        return float(out), zero.copy()

    return run


def dual_jet2(node: Expr, names: Sequence[str], values: Sequence[float]) -> Jet2:
    """Value, gradient, and Hessian via nested dual numbers.

    One nested-dual pass per index pair (i <= j); the (i, j) pass seeds
    coordinate k with Dual(Dual(v_k, d_ki), Dual(d_kj, 0)) so that the
    output carries f, df_i, df_j, and d2f_ij in its four slots.
    """
    n = len(names)
    vals = [float(v) for v in values]
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    value = float(_eval(node, dict(zip(names, vals)))) if n == 0 else 0.0
    for i in range(n):
        for j in range(i, n):
            env = {
                name: Dual(
                    Dual(vals[k], 1.0 if k == i else 0.0),
                    Dual(1.0 if k == j else 0.0, 0.0),
                )
                for k, name in enumerate(names)
            }
            with np.errstate(all="ignore"):
                out = _eval(node, env)
            if not isinstance(out, Dual):
                out = Dual(Dual(float(out), 0.0), Dual(0.0, 0.0))
            if i == 0 and j == 0:
                value = out.a.a
            grad[i] = out.a.b
            grad[j] = out.b.a
            hess[i, j] = hess[j, i] = out.b.b
    return Jet2(value=float(value), gradient=grad, hessian=hess)
