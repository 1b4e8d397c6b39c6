"""Symplectization of a contact chart over the trivial line bundle.

The symplectization of (M, eta) used here is M x R_+ with global fiber
coordinate r, potential one-form theta = r * eta (pulled back), and
symplectic form omega = -d theta.  A function f on M lifts to the
degree-1 homogeneous function f^S = -r * f; Hamiltonian fields solve
X^a omega_ab = (dF)_b, the Liouville field is r d/dr, and the Poisson
bracket {F, G} = X_F(G) satisfies {f^S, g^S} = -r {f, g} over the Jacobi
bracket downstairs.  `lift_check` measures these identities on sampled
points.

As in `geometry`, omega, theta and the lifted fields are computed for
points with any leading axes: `lift_check` takes its points as one
stack and measures each identity in one array pass, and the
single-point methods run the same code on one point.
On standard-form bases the lifted field is this module's closed-form
template, run by the same three callers as geometry's; on general bases
the flow closure solves omega^T X = dF by geometry's float elimination.
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .expressions import Expr, Var, gradient_evaluator
from .geometry import (
    ContactChart,
    ContactSystem,
    _Chart,
    _check_points,
    _dot,
    _eliminator,
    _exceeds,
    _exceeds_float,
    _fdot,
    _first,
    _in_sample_order,
    _matvec,
    _norm,
    _pairs,
    _solve,
    _stacked,
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

_RESIDUAL_TOL = 1e-10
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

    def __init__(self, base: ContactChart, fiber: str = "r"):
        if fiber in base.coordinates:
            raise ValueError(f"fiber name {fiber!r} collides with a base coordinate")
        if not fiber.isidentifier():
            raise ValueError(f"fiber name {fiber!r} is not an identifier")
        self.base = base
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

    # -- Hamiltonian structure --------------------------------------------------

    def field_from_gradient(self, x, value: float, grad: np.ndarray) -> np.ndarray:
        """Symplectic Hamiltonian field, X^a omega_ab = (dF)_b, from F's value and grad.

        For degree-1 homogeneous F the identity theta(X_F) = F is checked.
        Standard-form bases use a closed-form solve; otherwise omega and
        theta come from one run of the base coframe.
        """
        return self._fields(self.point(x), value, grad)

    def _fields(self, xs: np.ndarray, values, grads: np.ndarray, coframes=None, omega=None):
        """Fields of functions with values and gradients at points xs (..., dim).

        Shapes: values (...) and grads (..., dim), or (..., k) and
        (..., k, dim) for k functions at each point; the fields have the
        shape of grads.  `coframes` (the base's _coframes) and `omega` at
        xs may be given.  General bases solve omega^T X = dF, checked to
        1e-10 (relative to dF); a homogeneous F is checked against
        theta(X_F) = F to 1e-8 (relative to F and X_F).  The first
        failing function raises, with the solve checked first.
        """
        base = self.base
        x = xs if grads.ndim == xs.ndim else xs[..., None, :]
        if base.darboux:
            n = base.n
            X = _stacked(self._closed_field, n, x, values, grads)
            pairing = x[..., -1] * (X[..., 2 * n] - _dot(x[..., n : 2 * n], X[..., :n]))
        else:
            eta, deta = base._coframes(xs[..., :-1]) if coframes is None else coframes
            if omega is None:
                omega = self._omegas(xs, eta, deta)[0]
            omegaT = omega.swapaxes(-1, -2)
            if x is not xs:
                omegaT = omegaT[..., None, :, :]
            X = _solve(omegaT, grads)
            solve_resid = _norm(_matvec(omegaT, X) - grads)
            solve_bad = _exceeds(solve_resid, _RESIDUAL_TOL, vectors=(grads,))
            theta = self._thetas(xs, eta)
            pairing = _dot(theta if x is xs else theta[..., None, :], X)
        gap = abs(pairing - values)
        theta_bad = _exceeds(gap, 1e-8, (values,), (X,))
        bad = _first(theta_bad)
        if bad is not None:  # the identity binds homogeneous F only
            homogeneity = abs(x[..., -1] * grads[..., -1] - values)
            theta_bad &= ~_exceeds(homogeneity, _RESIDUAL_TOL, (values,))
            bad = _first(theta_bad)
        if not base.darboux:
            bad = _first(solve_bad | theta_bad)
        if bad is not None:
            where = xs[bad[: xs.ndim - 1]].tolist()
            if not base.darboux and solve_bad[bad]:
                raise SymplectizationError(
                    f"field solve residual {solve_resid[bad]:.3e} at {where}"
                )
            raise SymplectizationError(
                f"theta(X_F) = F violated by {gap[bad]:.3e} for homogeneous F at {where}"
            )
        return X

    def _field_with_tangents(self, x, value, grad, hessian, dx) -> tuple[np.ndarray, np.ndarray]:
        """X_F at x and its tangent map DX_F(x) dx on the k columns of dx, on a general base.

        From F's value, gradient and Hessian at x.  The solve
        omega^T X = dF gives dX = omega^-T (d dF - d omega^T X), with
        d omega from r and the Hessians of the base coframe's coefficients.
        """
        dgrad = hessian @ dx
        r, dr = x[-1], dx[-1]
        eta, deta = coframe = self.base.coframe_at(x[:-1])
        omega = self._omegas(x, eta, deta)[0]
        X = self._fields(x, value, grad, coframe, omega)
        d_eta, d_deta = self.base._coframe_tangent(x[:-1], dx[:-1])
        Xb, Xr = X[:-1], X[-1]
        domega_T_X = np.empty_like(dgrad)
        domega_T_X[:-1] = (-np.outer(deta.T @ Xb, dr) - r * np.einsum("jab,a->bj", d_deta, Xb)
                           - Xr * d_eta)
        domega_T_X[-1] = Xb @ d_eta
        return X, np.linalg.solve(omega.T, dgrad - domega_T_X)

    def _float_field(self, kernel) -> Callable[[Sequence[float]], list[float]]:
        """Closure computing X_F over float lists on a general base, from F's gradient kernel.

        One elimination on omega^T augmented with [dF] gives X_F.  The
        closure makes the checks of field_from_gradient, with the same
        errors: the point's shape and fiber, det omega, the solve residual
        and theta(X_F) = F for homogeneous F.
        """
        base, dim = self.base, self.dim
        eliminate = _eliminator(dim, dim + 1)

        def field(x) -> list[float]:
            if len(x) != dim or x[-1] <= 0.0:
                self.point(x)
            value, grad = kernel(x)
            r = x[-1]
            eta, jac = base._float_coframe(x[:-1])
            # row i < dim - 1: omega^T_ij = -r (d_j eta_i - d_i eta_j) over j, -eta_i, then dF_i;
            # the last row: eta, 0, then dF_r
            rows = [[*[-r * (u - v) for u, v in zip(gi, ci)], -ei, fi]
                    for gi, ci, ei, fi in zip(jac, zip(*jac), eta, grad)]
            rows.append([*eta, 0.0, grad[-1]])
            det, columns = eliminate(rows)
            if abs(det) <= _SINGULAR_OMEGA:
                raise SingularStructureError(self.point(x), det)
            (X,) = columns
            resid = [_fdot(row, X) - g for row, g in zip(rows, grad)]  # _fdot stops at omega^T
            if _exceeds_float(resid, _RESIDUAL_TOL, vectors=(grad,)):
                raise SymplectizationError(
                    f"field solve residual {max(map(abs, resid)):.3e} at {self.point(x).tolist()}"
                )
            gap = _fdot([r * e for e in eta], X) - value
            # the identity binds homogeneous F only
            if (_exceeds_float((gap,), 1e-8, (value,), (X,))
                    and not _exceeds_float((r * grad[-1] - value,), _RESIDUAL_TOL, (value,))):
                raise SymplectizationError(
                    f"theta(X_F) = F violated by {abs(gap):.3e} for homogeneous F "
                    f"at {self.point(x).tolist()}"
                )
            return X

        return field

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

    At each point: |det omega|; the Liouville field solved from
    i_Delta omega = -theta against r d/dr; |r dF/dr - F| and
    |theta(X_F) - F| for every lifted integral F; and
    |{f^S, g^S} + r {f, g}| for every pair, with the Jacobi bracket of
    the base system.  The points run as one stack: the base coframe runs
    once per point, for omega, theta, the lifted fields and the base jets,
    and omega is built once per stack.
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
    chart = symp.chart
    xs = chart.points(xs)
    coframes = chart.base._coframes(xs[:, :-1])
    omega, det = chart._omegas(xs, *coframes)
    theta = chart._thetas(xs, coframes[0])
    # the Liouville field Delta solves i_Delta omega = -theta and must be r d/dr
    delta = _solve(omega.swapaxes(-1, -2), -theta)
    delta[:, -1] -= xs[:, -1]
    liouville = _norm(delta)
    values, grads = symp.gradient_stack(xs)
    fields = chart._fields(xs, values, grads, coframes, omega)
    r = xs[:, -1, None]
    homogeneity = np.abs(r * grads[..., -1] - values)
    pairing = np.abs(_dot(theta[:, None], fields) - values)
    brackets = symp.base.chart.bracket_matrix(symp.base._jet_stack(xs[:, :-1], coframes))
    a, b = _pairs(values.shape[1])
    upstairs = _dot(fields[:, a], grads[:, b])
    correspondence = np.abs(upstairs + r * brackets[:, a, b])
    # the reductions skip NaN, as the running min and max of a loop would
    min_det = np.fmin.reduce(np.abs(det), initial=np.inf)
    largest = (np.fmax.reduce(v, axis=None, initial=0.0)
               for v in (liouville, homogeneity, pairing, correspondence))
    return (float(min_det), *map(float, largest))
