"""Symplectization of a contact chart over the trivial line bundle.

The symplectization of (M, eta) used here is M x R_+ with global fiber
coordinate r, potential one-form theta = r * eta (pulled back), and
symplectic form omega = -d theta.  A function f on M lifts to the
degree-1 homogeneous function f^S = -r * f; Hamiltonian fields solve
X^a omega_ab = (dF)_b, the Liouville field (dF = -theta) is r d/dr, and
the Poisson bracket {F, G} = X_F(G) satisfies {f^S, g^S} = -r {f, g}
over the Jacobi bracket downstairs.  `lift_check` measures these
identities on sampled points, with no BLAS or LAPACK call but omega's det.

As in `geometry`, omega, theta and the lifted fields are computed for
points with any leading axes: `lift_check` takes its points as one
stack and measures each identity in one array pass, and the
single-point methods run the same code on one point.
On standard-form bases the lifted field is this module's closed-form
template, run by the same callers as geometry's (`_stacked`,
`_field_source` and `_closed_program`) and not re-checked (theta(X_F) = F
holds for it identically on homogeneous F); on general bases every
lifted field solves omega^T X = dF, and its tangents omega^T dX =
d(dF) - d omega^T X, in the "lifted" kind of geometry's `_field_program`
and `_variational_program`, compiled by `_programs`.
`SympChart` takes its field methods from geometry's `_Chart`.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Sequence

import numpy as np

from .expressions import Expr, Var, gradient_evaluator
from .geometry import (
    ContactChart,
    ContactSystem,
    _Chart,
    _check_points,
    _dot,
    _first,
    _in_sample_order,
    _norm,
    _pairs,
    _System,
)

__all__ = [
    "SymplectizationError",
    "SingularStructureError",
    "SympChart",
    "SympSystem",
    "LiftCheck",
    "LiftReport",
    "symplectize",
    "lift_check",
]

_SINGULAR_OMEGA = 1e-12  # |det omega| at or below it raises SingularStructureError

# (name, bound, test of value against bound) of each lift_check identity
_LIFT_BOUNDS = (
    ("omega-nondegenerate", 1e-8, operator.gt),  # min |det omega|
    ("liouville-field", 1e-10, operator.le),  # the rest: largest residuals
    ("lift-homogeneity", 1e-10, operator.le),
    ("theta-pairing", 1e-8, operator.le),
    ("bracket-correspondence", 1e-8, operator.le),
)


class SymplectizationError(RuntimeError):
    """Base class for symplectization-level numerical failures."""


class SingularStructureError(SymplectizationError):
    """omega is numerically degenerate at a point."""

    def __init__(self, point: np.ndarray, det: float):
        super().__init__(
            f"omega is singular at {np.asarray(point).tolist()} (det {det:.3e})"
        )
        self.point = np.asarray(point, dtype=float)
        self.det = det


class SympChart(_Chart):
    """Chart on the symplectization of a contact chart.

    Coordinates are the base coordinates followed by the fiber r > 0.
    """

    _kind = "lifted"

    def __init__(self, base: ContactChart, fiber: str = "r"):
        if fiber in base.coordinates:
            raise ValueError(f"fiber name {fiber!r} collides with a base coordinate")
        if not fiber.isidentifier():
            raise ValueError(f"fiber name {fiber!r} is not an identifier")
        self.base = self._eta_chart = base
        self.fiber = fiber
        self.coordinates = base.coordinates + (fiber,)
        self.dim = base.dim + 1
        self._closed_field = _darboux_field if base.darboux else None

    def point(self, x) -> np.ndarray:
        x = super().point(x)
        if x[-1] <= 0.0:
            raise ValueError(f"fiber coordinate must be positive, got {x[-1]}")
        return x

    def points(self, xs) -> np.ndarray:
        xs = super().points(xs)
        bad = _first(xs[:, -1] <= 0.0)
        if bad is not None:
            raise ValueError(f"fiber coordinate must be positive, got {xs[bad][-1]}")
        return xs

    def lift_function(self, f: Expr | str) -> Expr:
        """Degree-1 lift f^S = -(r * f) of a base function."""
        f = self.base.function(f)
        return -(Var(self.fiber) * f)

    # -- structure tensors ----------------------------------------------------

    def theta_at(self, x) -> np.ndarray:
        x = self.point(x)
        return self._thetas(x, self.base._etas(x[:-1]))

    def omega_at(self, x) -> np.ndarray:
        """omega = -d theta assembled from the base coframe.

        With theta = (r eta_a, 0) the only blocks are the base block
        -r d(eta) and the mixed block omega_rb = -eta_b.
        """
        x = self.point(x)
        return self._omegas(x, *self.base.coframe_at(x[:-1]))[0]

    # The private methods below take points of shape (..., dim): a single
    # point, or a stack with any leading axes, and the base eta and d eta
    # there.

    def _thetas(self, xs: np.ndarray, eta: np.ndarray) -> np.ndarray:
        out = np.zeros(xs.shape)
        out.T[:-1] = xs.T[-1] * eta.T
        return out

    def _omegas(self, xs: np.ndarray, eta: np.ndarray, deta: np.ndarray):
        """(omega, det omega) at points xs; a singular one raises SingularStructureError."""
        out = np.zeros(xs.shape + (self.dim,))
        out[..., :-1, :-1] = -xs[..., -1, None, None] * deta
        out[..., -1, :-1] = -eta
        out[..., :-1, -1] = eta
        det = np.linalg.det(out)
        bad = _first(abs(det) <= _SINGULAR_OMEGA)
        if bad is not None:
            raise SingularStructureError(xs[bad], float(det[bad]))
        return out, det

    def __repr__(self) -> str:
        return f"SympChart({self.base!r}, fiber={self.fiber!r})"


def _darboux_field(n: int, x, value, grad, dot) -> list:
    """Components of X_F for theta = r(dz - p_i dq^i), in coordinate order.

    The solve of X^a omega_ab = dF_b, called like geometry._darboux_field.
    """
    r, p, Fp, Fz = x[-1], x[n : 2 * n], grad[n : 2 * n], grad[2 * n]
    return [*[-u / r for u in Fp], *[(Fq + pi * Fz) / r for Fq, pi in zip(grad[:n], p)],
            grad[2 * n + 1] - dot(p, Fp) / r, -Fz]


class SympSystem(_System):
    """Symplectization of a ContactSystem with the lifted integrals."""

    def __init__(
        self,
        base: ContactSystem,
        r_range: Sequence[float] = (0.5, 2.0),
        fiber: str = "r",
    ):
        self.base = base
        self.chart = SympChart(base.chart, fiber)
        self.integrals = tuple(self.chart.lift_function(f) for f in base.integrals)
        lo, hi = float(r_range[0]), float(r_range[1])
        if not 0.0 < lo <= hi < np.inf:
            raise ValueError(f"r_range must be finite with 0 < lo <= hi, got {r_range}")
        if base.region is not None:
            self.region = np.vstack([base.region, [lo, hi]])
        else:
            self.region = None
        # the fiber stays positive along any flow in this chart
        self.positive_indices = tuple(base.positive_indices) + (self.chart.dim - 1,)
        self._gradients = tuple(
            gradient_evaluator(F, self.chart.coordinates) for F in self.integrals
        )


def symplectize(system: ContactSystem, r_range: Sequence[float] = (0.5, 2.0),
                fiber: str = "r") -> SympSystem:
    """Build the symplectization of a system with its lifted integrals."""
    return SympSystem(system, r_range=r_range, fiber=fiber)


# NamedTuples, not frozen dataclasses: each dataclass adds about 1 ms to the
# import, which every CLI run pays; a NamedTuple about a quarter of that
class LiftCheck(NamedTuple):
    """One identity of lift_check: min |det omega| or a largest residual, and its bound."""

    name: str
    value: float
    bound: float
    passed: bool


class LiftReport(NamedTuple):
    checks: tuple[LiftCheck, ...]
    n_points: int
    passed: bool


def lift_check(symp: SympSystem, points) -> LiftReport:
    """The lifted structure of a system on points of its symplectization.

    At each point, as one stack: |det omega| (SingularStructureError first);
    the Liouville field Delta (i_Delta omega = -theta) against r d/dr, one
    more column (value 0, differential -theta) of the lifted field call,
    so on a standard-form base `liouville-field` checks the closed
    template, which gives r d/dr exactly, not omega; |r dF/dr - F| and
    |theta(X_F) - F| for every lifted integral F; and |{f^S, g^S} + r {f, g}|
    for every pair, with the base Jacobi bracket.
    """
    points = _check_points("lift_check", points)
    values = _in_sample_order(lambda xs: _lift_values(symp, xs), points)
    checks = tuple(
        LiftCheck(name, value, bound, bool(test(value, bound)))
        for (name, bound, test), value in zip(_LIFT_BOUNDS, values)
    )
    return LiftReport(checks, len(points), all(c.passed for c in checks))


def _lift_values(symp: SympSystem, xs) -> tuple[float, ...]:
    """The five lift_check values over a stack of points, in _LIFT_BOUNDS order."""
    chart, base = symp.chart, symp.chart.base
    xs = chart.points(xs)
    rows = None if base.darboux else base._float_coframes(xs[:, :-1])
    eta, deta = base._coframes(xs[:, :-1], rows)
    det = chart._omegas(xs, eta, deta)[1]
    theta = chart._thetas(xs, eta)
    values, grads = symp.gradient_stack(xs)
    # the Liouville field Delta solves i_Delta omega = -theta and must be r d/dr
    fields = chart._fields(xs, np.column_stack([values, np.zeros(len(xs))]),
                           np.concatenate([grads, -theta[:, None]], axis=1), rows)
    delta, fields = fields[:, -1], fields[:, :-1]
    delta[:, -1] -= xs[:, -1]
    liouville = _norm(delta)
    r = xs[:, -1, None]
    homogeneity = np.abs(r * grads[..., -1] - values)
    pairing = np.abs(_dot(theta[:, None], fields) - values)
    brackets = base.bracket_matrix(symp.base._jet_stack(xs[:, :-1], rows))
    a, b = _pairs(values.shape[1])
    upstairs = _dot(fields[:, a], grads[:, b])
    correspondence = np.abs(upstairs + r * brackets[:, a, b])
    # the reductions skip NaN, as the running min and max of a loop would
    min_det = np.fmin.reduce(np.abs(det), initial=np.inf)
    largest = (np.fmax.reduce(v, axis=None, initial=0.0)
               for v in (liouville, homogeneity, pairing, correspondence))
    return (float(min_det), *map(float, largest))
