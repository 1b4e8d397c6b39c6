"""Contact charts: coframe, Reeb field, Hamiltonian fields, Jacobi bracket.

A chart holds 2n+1 coordinate names and the coefficient functions of a
contact one-form eta.  Coordinates are ordered (q_1..q_n, p_1..p_n, z);
when the coefficients are structurally those of the standard form
dz - p_i dq^i the chart takes closed-form fast paths, otherwise every
operator goes through the flat-map solve.  The closed-form field is one
template, `_darboux_field`, run over float lists (flows), arrays (point
stacks) and expression trees, whose kernels give its Jacobian.  On
general coframes the flow closure (`_float_field`) runs one float
elimination, `_eliminator`, which yields det B, the Reeb field and
B^-T df together, with the checks and errors of field_from_gradient.

The flat map sends a vector v to i_v(d eta) + eta(v) eta.  Its matrix is
B_ab = (d eta)_ab + eta_a eta_b with the row convention
(d eta)_ab = d_a eta_b - d_b eta_a, so (flat v)_b = v^a B_ab.  The
Hamiltonian field of f solves flat(X_f) = df - (R(f) + f) eta and the
Jacobi bracket is {f, g} = X_f(g) + g R(f).

Point data is computed on stacks with a leading axis N of points: the
coframe (N, dim) and (N, dim, dim), the flat matrix and Reeb field, the
values (N, m) and gradients (N, m, dim) of m functions, their fields
(N, m, dim), Reeb derivatives (N, m) and bracket matrices (N, m, m).
Every check runs once over the whole stack and raises at its first
failing row; `_in_sample_order` makes a multi-row stage raise the error
of the first failing point in sample order, as a per-point loop would.
The private stack methods take any leading shape, none included, so the
single-point methods (`hamiltonian_field_at`, `field_from_gradient`,
`jacobi_bracket_at`, ...) run the same code on one point.

Stacked det, solve and svd reproduce their per-matrix results bitwise.
A dot product is the stacked-vector product `_dot`, which reproduces the
1-D `@` bitwise; `np.einsum` and a matrix-vector `@` sum in other orders
and move the last bits of the reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .expressions import (
    Const,
    Expr,
    Var,
    _derivative,
    _KernelKey,
    eval_jet2,
    evaluate,
    free_variables,
    gradient_evaluator,
    gradient_kernel,
    jet2_kernel,
    parse,
)

__all__ = [
    "GeometryError",
    "ContactConditionError",
    "ConformalFactorError",
    "ContactChart",
    "ContactSystem",
    "ContactConditionReport",
    "Jets",
    "conformal_rescale",
    "contact_condition_check",
]

FunctionLike = Union[Expr, str, int]


class GeometryError(RuntimeError):
    """Base class for chart-level numerical failures."""


class ContactConditionError(GeometryError):
    """The coframe fails the contact condition (singular flat matrix)."""

    def __init__(self, point: np.ndarray, det: float):
        super().__init__(
            f"flat matrix is singular at {np.asarray(point).tolist()} (det {det:.3e})"
        )
        self.point = np.asarray(point, dtype=float)
        self.det = det


class ConformalFactorError(GeometryError):
    """A conformal factor vanishes at a sampled point."""

    def __init__(self, point: np.ndarray):
        super().__init__(f"conformal factor vanishes at {np.asarray(point).tolist()}")
        self.point = np.asarray(point, dtype=float)


_SINGULAR_DET = 1e-12
_RESIDUAL_TOL = 1e-10


def _as_expr(f: Expr | str, names: Sequence[str]) -> Expr:
    if isinstance(f, str):
        return parse(f, names)
    return f


def _exceeds(resid, tol: float, values=(), vectors=()):
    """Mask of resid > tol * max(1, |v|, max_i |w_i|) over values v and vectors w.

    Everything broadcasts together; the scale is computed only when
    resid > tol somewhere, since it is at least 1.
    """
    over = resid > tol
    if _first(over) is None:
        return over
    scale = 1.0
    for v in values:
        scale = np.maximum(scale, abs(v))
    for w in vectors:
        scale = np.maximum(scale, _norm(w))
    return resid > tol * scale


@functools.lru_cache(maxsize=None)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (a, b) of the pairs a < b of m functions, in loop order."""
    return np.triu_indices(m, 1)


def _norm(v: np.ndarray) -> np.ndarray:
    """max |v_i| over the last axis."""
    return abs(v).max(axis=-1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, broadcast over the leading axes.

    The stacked-vector product reproduces the 1-D `a @ b` bitwise.
    """
    if a.ndim == b.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v over stacks; a stacked product reproduces the 2-D `M @ v` bitwise."""
    if v.ndim == 1:
        return M @ v
    return (M @ v[..., None])[..., 0]


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b over stacks of matrices and vectors (NumPy 1 and 2 alike)."""
    if b.ndim == 1:
        return np.linalg.solve(A, b)
    return np.linalg.solve(A, b[..., None])[..., 0]


def _exceeds_float(resid: Sequence[float], tol: float, values=(), vectors=()) -> bool:
    """`_exceeds` at one point, over floats, on the largest |r_i| of the residual resid.

    As in NumPy's max, a NaN in resid or in a scale makes it False.
    """
    worst = max(map(abs, resid))
    if not worst > tol or any(map(math.isnan, resid)):
        return False
    return all(worst > tol * abs(s) for s in (*values, *(u for w in vectors for u in w)))


@functools.lru_cache(maxsize=None)
def _eliminator(d: int, width: int) -> Callable[[Sequence[Sequence[float]]], tuple]:
    """Gaussian elimination with partial pivoting on the float rows [A | b_1 .. b_k] of d equations.

    The returned function takes the d rows of `width` = d + k entries and
    returns det A, the product of the pivots signed by the row swaps, and
    the solutions x_j of A x_j = b_j as lists; (0.0, None) when a pivot is
    zero, as NumPy's det reads 0.0 there.  It is straight-line float code,
    compiled once per shape: entry (i, j) is the local a<i>_<j>, and a row
    swap is one tuple assignment.  At step k each row below k is swapped
    into row k when its entry in column k is larger, so row k ends with
    the largest; ties keep the earlier row.
    """
    def row(i: int, start: int) -> str:
        return ", ".join(f"a{i}_{j}" for j in range(start, width))

    lines = [f"    {''.join(f'({row(i, 0)},), ' for i in range(d))}= rows", "    det = 1.0"]
    for k in range(d):
        for i in range(k + 1, d):
            lines += [f"    if abs(a{i}_{k}) > abs(a{k}_{k}):",
                      f"        {row(k, k)}, {row(i, k)} = {row(i, k)}, {row(k, k)}",
                      "        det = -det"]
        lines += [f"    if a{k}_{k} == 0.0:", "        return 0.0, None", f"    det *= a{k}_{k}"]
        for i in range(k + 1, d):
            update = ", ".join(f"a{i}_{j} - m * a{k}_{j}" for j in range(k + 1, width))
            lines += [f"    m = a{i}_{k} / a{k}_{k}", f"    {row(i, k + 1)}, = {update},"]
    for c in range(d, width):
        for i in reversed(range(d)):
            terms = "".join(f" - a{i}_{j} * x{j}_{c}" for j in range(i + 1, d))
            lines.append(f"    x{i}_{c} = (a{i}_{c}{terms}) / a{i}_{i}")
    columns = ", ".join(f"[{', '.join(f'x{i}_{c}' for i in range(d))}]" for c in range(d, width))
    namespace: dict = {}
    exec("\n".join(["def eliminate(rows):", *lines, f"    return det, [{columns}]"]), namespace)
    return namespace["eliminate"]


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of a mask in C order, or None."""
    if bad.ndim == 0:
        return () if bad else None
    k = bad.argmax()
    if not bad.flat[k]:
        return None
    return np.unravel_index(k, bad.shape)


def _first_max(values: np.ndarray) -> tuple[float, tuple[int, ...] | None]:
    """Largest entry and the index of its first occurrence in C order.

    NaN entries are skipped, as a loop keeping the first strict maximum
    above 0 skips them; (0.0, None) when no entry exceeds 0.
    """
    if values.size == 0:
        return 0.0, None
    positive = np.where(values > 0.0, values, 0.0)
    k = positive.argmax()
    worst = float(positive.flat[k])
    if not worst > 0.0:
        return 0.0, None
    return worst, np.unravel_index(k, values.shape)


def _in_sample_order(stage: Callable, *stacks):
    """stage(*stacks), whose stacks share a leading row axis.

    A stage checks each row, but its checks run one after the other over
    the whole stack; when it raises, it runs again row by row, so that the
    error raised is that of the first failing row in sample order, as a
    loop over the points would raise it.
    """
    try:
        return stage(*stacks)
    except Exception as exc:  # whatever it is, an error is raised below
        error = exc
    for i in range(len(stacks[0])):
        stage(*(_rows(stack, i) for stack in stacks))
    raise error


def _check_points(check: str, points, sample: Callable[[], np.ndarray] | None = None) -> np.ndarray:
    """The points of a check as an array of rows, drawn by sample() when points is None.

    No point at all raises ValueError naming the check, so that no verdict
    passes without evidence.
    """
    if points is None:
        points = sample()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        raise ValueError(f"{check} needs at least one point, got none")
    return points


def _rows(stack, i: int):
    if isinstance(stack, Jets):
        return Jets._make(entry[i : i + 1] for entry in stack)
    return stack[i : i + 1]


class _Chart:
    """Points, functions and Hamiltonian fields of contact and symplectized charts.

    A subclass sets `coordinates`, `dim` and `_closed_field` (its module's
    standard-form template `_darboux_field`, or None on general coframes)
    and defines `field_from_gradient`, `_field_with_tangents` and
    `_float_field`.
    """

    coordinates: tuple[str, ...]
    dim: int

    def point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of shape ({self.dim},), got {x.shape}")
        return x

    def points(self, xs) -> np.ndarray:
        """A stack of points, shape (N, dim); `point` for each row."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (N, {self.dim}), got {xs.shape}")
        return xs

    def function(self, f: Expr | str) -> Expr:
        f = _as_expr(f, self.coordinates)
        extra = free_variables(f) - set(self.coordinates)
        if extra:
            raise ValueError(f"function uses unknown names {sorted(extra)}")
        return f

    def value_and_gradient(self, f: Expr, x: np.ndarray) -> tuple[float, np.ndarray]:
        return gradient_evaluator(f, self.coordinates)(x)

    def hamiltonian_field_at(self, f: Expr | str, x) -> np.ndarray:
        """Hamiltonian field of f at x; see field_from_gradient."""
        f = self.function(f)
        x = self.point(x)
        value, grad = self.value_and_gradient(f, x)
        return self.field_from_gradient(x, value, grad)

    def hamiltonian_field_jacobian_at(self, f: Expr | str, x) -> np.ndarray:
        """Jacobian d_a X_f^i, rows i, columns a: `_variational` on the unit vectors e_a."""
        dim = self.dim
        state = self._variational(self.function(f))([*self.point(x), *np.eye(dim).ravel()])
        return np.reshape(state[dim:], (dim, dim)).T

    def _variational(self, f: Expr) -> Callable[[Sequence[float]], list[float]]:
        """Closure for the variational equation of X_f, over float lists.

        The state is x followed by k tangent vectors dx_1..dx_k; the
        closure returns X_f(x) followed by DX_f(x) dx_1..DX_f(x) dx_k.  On
        standard-form charts the kernels of the closed-form components
        give X_f(x) and the rows of DX_f(x); otherwise f's compiled
        second-order jet feeds _field_with_tangents.
        """
        dim = self.dim
        if self._closed_field is not None:
            kernels = _closed_kernels(self._closed_field, _KernelKey(f, self.coordinates))

            def closed(state) -> list[float]:
                x = state[:dim]
                X, rows = zip(*[kernel(x) for kernel in kernels])
                tangents = [state[j : j + dim] for j in range(dim, len(state), dim)]
                return [*X, *[_fdot(row, dx) for dx in tangents for row in rows]]

            return closed
        jet = jet2_kernel(f, self.coordinates)

        def field(state) -> list[float]:
            x = state[:dim]
            value, grad, rows = jet(x)
            tangents = np.array(state[dim:]).reshape(-1, dim).T
            X, dX = self._field_with_tangents(
                np.array(x), value, np.array(grad), np.array(rows), tangents
            )
            return np.concatenate((X, dX.T.ravel())).tolist()

        return field


class ContactChart(_Chart):
    """Coordinate chart with a contact coframe.

    Args:
        coordinates: 2n+1 coordinate names, ordered (q_1..q_n, p_1..p_n, z).
        eta: coefficient functions of the contact form, one per coordinate;
            strings are parsed against the coordinate names.  None means the
            standard form dz - p_i dq^i.  The chart takes the closed forms
            (`darboux`) exactly when these are structurally the standard's.
    """

    def __init__(self, coordinates: Sequence[str], eta: Sequence[Expr | str] | None = None):
        names = tuple(coordinates)
        if len(names) % 2 != 1:
            raise ValueError(f"need an odd number of coordinates, got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be unique")
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"coordinate name {name!r} is not an identifier")
        self.coordinates = names
        self.dim = len(names)
        self.n = (self.dim - 1) // 2

        standard = _standard_coefficients(names)
        if eta is None:
            coeffs = standard
        else:
            if len(eta) != self.dim:
                raise ValueError(f"eta needs {self.dim} coefficients, got {len(eta)}")
            coeffs = tuple(_as_expr(c, names) for c in eta)
            for c in coeffs:
                extra = free_variables(c) - set(names)
                if extra:
                    raise ValueError(f"eta coefficient uses unknown names {sorted(extra)}")
        self.eta_coefficients = coeffs
        self.darboux = coeffs == standard
        self._closed_field = _darboux_field if self.darboux else None

    @functools.cached_property
    def _coeff_kernels(self) -> tuple:
        """The compiled gradient kernels of eta's coefficients, fetched at first use."""
        return tuple(gradient_kernel(c, self.coordinates) for c in self.eta_coefficients)

    def env(self, x) -> dict[str, float]:
        return dict(zip(self.coordinates, map(float, x)))

    # -- coframe -------------------------------------------------------------
    #
    # The private methods below take points of shape (..., dim): a single
    # point, or a stack with any leading axes.

    def eta_at(self, x) -> np.ndarray:
        return self._etas(self.point(x))

    def coframe_at(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(eta, d eta) at x, from one run of each coefficient kernel."""
        x = self.point(x)
        if self.darboux:
            return self._coframes(x)
        eta, grads = self._float_coframe(x)
        jac = np.array(grads)  # [b, a] = d_a eta_b
        return np.array(eta), jac.T - jac

    def _float_coframe(self, x) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
        """eta at x and the gradients of its coefficients, over floats, on a general coframe."""
        return tuple(zip(*[kernel(x) for kernel in self._coeff_kernels]))

    def _etas(self, xs: np.ndarray) -> np.ndarray:
        """eta at points xs, shape (..., dim)."""
        if not self.darboux:
            return self._coframes(xs)[0]
        n = self.n
        eta = np.zeros(xs.shape)
        eta.T[:n] = -xs.T[n : 2 * n]
        eta.T[-1] = 1.0
        return eta

    def _coframes(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(eta, d eta) at points xs, shapes (..., dim) and (..., dim, dim).

        General coframes run coframe_at on each point.
        """
        if self.darboux:
            n = self.n
            deta = np.zeros(xs.shape + (self.dim,))
            i = np.arange(n)
            deta[..., i, n + i] = 1.0
            deta[..., n + i, i] = -1.0
            return self._etas(xs), deta
        if xs.ndim == 1:
            return self.coframe_at(xs)
        rows = [self.coframe_at(x) for x in xs.reshape(-1, self.dim)]
        eta = np.array([eta for eta, _ in rows]).reshape(xs.shape)
        return eta, np.array([deta for _, deta in rows]).reshape(xs.shape + (self.dim,))

    def _coframe_tangent(self, x: np.ndarray, dx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives of eta and d eta at x along the k columns of dx.

        Shapes (dim, k) and (k, dim, dim), from the Hessians of eta's
        coefficients.
        """
        jets = [eval_jet2(c, self.coordinates, x) for c in self.eta_coefficients]
        jac = np.array([jet.gradient for jet in jets])  # [b, a] = d_a eta_b
        hessians = np.array([jet.hessian for jet in jets])
        djac = np.einsum("bac,cj->jab", hessians, dx)
        return jac @ dx, djac - djac.transpose(0, 2, 1)

    def flat_matrix_at(self, x, coframe=None) -> np.ndarray:
        """B = d eta + eta eta^T at a point, or at each row of a stack (N, dim).

        `coframe` is (eta, d eta) there when already known.  A singular B
        raises ContactConditionError at the first such point.
        """
        x = np.asarray(x, dtype=float)
        x = self.point(x) if x.ndim == 1 else self.points(x)
        B, det = _flat_det(*(self._coframes(x) if coframe is None else coframe))
        bad = _first(abs(det) <= _SINGULAR_DET)
        if bad is not None:
            raise ContactConditionError(x[bad], float(det[bad]))
        return B

    # -- Reeb field ----------------------------------------------------------

    def reeb_at(self, x) -> np.ndarray:
        x = self.point(x)
        if self.darboux:
            out = np.zeros(self.dim)
            out[-1] = 1.0
            return out
        return self._frames(x)[2]

    def _frames(self, xs: np.ndarray, coframes=None):
        """(eta, B, Reeb field) at points xs; None on standard charts.

        `coframes` is _coframes(xs) when already known.  A singular flat
        matrix, or a Reeb solve residual above 1e-10 (relative to eta),
        raises at the first such point.
        """
        if self.darboux:
            return None
        eta, deta = self._coframes(xs) if coframes is None else coframes
        B = self.flat_matrix_at(xs, (eta, deta))
        BT = B.swapaxes(-1, -2)
        reeb = _solve(BT, eta)
        resid = _norm(_matvec(BT, reeb) - eta)
        bad = _first(_exceeds(resid, _RESIDUAL_TOL, vectors=(eta,)))
        if bad is not None:
            raise GeometryError(f"Reeb solve residual {resid[bad]:.3e} at {xs[bad].tolist()}")
        return eta, B, reeb

    @staticmethod
    def _per_function(xs: np.ndarray, grads: np.ndarray, frames):
        """Points and frames with an axis for the functions, when grads has one."""
        if grads.ndim == xs.ndim:
            return xs, frames
        if frames is not None:
            eta, B, reeb = frames
            frames = eta[..., None, :], B[..., None, :, :], reeb[..., None, :]
        return xs[..., None, :], frames

    def _reeb_derivatives(self, xs: np.ndarray, grads: np.ndarray, frames) -> np.ndarray:
        """R(f) of functions with gradients grads (..., dim) at points xs."""
        if frames is None:
            return grads[..., -1]
        return _dot(grads, self._per_function(xs, grads, frames)[1][2])

    def reeb_derivative(self, f: Expr | str, x) -> float:
        """R(f), the Reeb derivative of a function."""
        f = self.function(f)
        x = self.point(x)
        _, grad = self.value_and_gradient(f, x)
        return float(self._reeb_derivatives(x, grad, self._frames(x)))

    # -- Hamiltonian fields ----------------------------------------------------

    def field_from_gradient(self, x, value: float, grad: np.ndarray) -> np.ndarray:
        """Contact Hamiltonian field X_f, with eta(X_f) = -f, from f's value and grad.

        Standard-form charts use the closed form (`_darboux_field`);
        otherwise flat(X_f) = df - (R(f) + f) eta is solved directly.
        """
        x = self.point(x)
        return self._fields(x, value, grad, self._frames(x))

    def _fields(self, xs: np.ndarray, values, grads: np.ndarray, frames) -> np.ndarray:
        """Fields of functions with values and gradients at points xs (..., dim).

        Shapes: values (...) and grads (..., dim), or (..., k) and
        (..., k, dim) for k functions at each point; the fields have the
        shape of grads.  Each field is checked against eta(X_f) = -f to
        1e-8 (relative to f and X_f); the first failing one raises.
        """
        x, frames = self._per_function(xs, grads, frames)
        if frames is None:
            n = self.n
            X = _stacked(self._closed_field, n, x, values, grads)
            pairing = X[..., -1] - _dot(x[..., n : 2 * n], X[..., :n])
        else:
            eta, B, reeb = frames
            rhs = grads - (_dot(grads, reeb) + values)[..., None] * eta
            X = _solve(B.swapaxes(-1, -2), rhs)
            pairing = _dot(eta, X)
        resid = abs(pairing + values)
        bad = _first(_exceeds(resid, 1e-8, (values,), (X,)))
        if bad is not None:
            raise GeometryError(
                f"field invariant eta(X_f) = -f violated by {resid[bad]:.3e} "
                f"at {xs[bad[: xs.ndim - 1]].tolist()}"
            )
        return X

    def _float_field(self, kernel) -> Callable[[Sequence[float]], list[float]]:
        """Closure computing X_f over float lists on a general coframe, from f's gradient kernel.

        One elimination on B^T augmented with [eta | df] gives the Reeb
        field R and y = B^-T df, and X_f = y - (R(f) + f) R.  The closure
        makes the checks of field_from_gradient, with the same errors: the
        point's shape, det B, the Reeb residual and eta(X_f) = -f.
        """
        dim = self.dim
        eliminate = _eliminator(dim, dim + 2)

        def field(x) -> list[float]:
            if len(x) != dim:
                self.point(x)
            value, grad = kernel(x)
            eta, jac = self._float_coframe(x)
            # row i: B^T_ij = (d_j eta_i - d_i eta_j) + eta_i eta_j over j, then eta_i, df_i
            rows = [[*[u - v + ei * ej for u, v, ej in zip(gi, ci, eta)], ei, fi]
                    for gi, ci, ei, fi in zip(jac, zip(*jac), eta, grad)]
            det, columns = eliminate(rows)
            if abs(det) <= _SINGULAR_DET:
                raise ContactConditionError(self.point(x), det)
            reeb, y = columns
            resid = [_fdot(row, reeb) - e for row, e in zip(rows, eta)]  # _fdot stops at B^T
            if _exceeds_float(resid, _RESIDUAL_TOL, vectors=(eta,)):
                raise GeometryError(
                    f"Reeb solve residual {max(map(abs, resid)):.3e} at {self.point(x).tolist()}"
                )
            c = _fdot(grad, reeb) + value
            X = [u - c * r for u, r in zip(y, reeb)]
            pairing = _fdot(eta, X) + value
            if _exceeds_float((pairing,), 1e-8, (value,), (X,)):
                raise GeometryError(
                    f"field invariant eta(X_f) = -f violated by {abs(pairing):.3e} "
                    f"at {self.point(x).tolist()}"
                )
            return X

        return field

    def _jets(self, xs: np.ndarray, values: np.ndarray, grads: np.ndarray, coframes=None) -> Jets:
        """Jets of k functions with values (..., k) and gradients (..., k, dim) at xs.

        `coframes` is _coframes(xs) when already known.
        """
        frames = self._frames(xs, coframes)
        fields = self._fields(xs, values, grads, frames)
        return Jets(xs, values, grads, fields, self._reeb_derivatives(xs, grads, frames))

    def _field_with_tangents(self, x, value, grad, hessian, dx) -> tuple[np.ndarray, np.ndarray]:
        """X_f at x and its tangent map DX_f(x) dx on the k columns of dx, on a general coframe.

        From f's value, gradient and Hessian at x.  The tangent map is the
        derivative of the solve B^T X = rhs of field_from_gradient, giving
        dX = B^-T (d rhs - dB^T X) with dB from the Hessians of eta's
        coefficients (the Reeb field is differentiated the same way).
        """
        eta, B, reeb = frame = self._frames(x)
        X = self._fields(x, value, grad, frame)
        dvalue, dgrad = grad @ dx, hessian @ dx
        deta, ddeta = self._coframe_tangent(x, dx)

        def dBT(v):  # (dB)^T v per column, dB = d(d eta) + d eta eta^T + eta d eta^T
            return np.einsum("jab,a->bj", ddeta, v) + np.outer(eta, v @ deta) + (eta @ v) * deta

        dreeb = np.linalg.solve(B.T, deta - dBT(reeb))
        drhs = (dgrad - np.outer(eta, reeb @ dgrad + grad @ dreeb + dvalue)
                - (grad @ reeb + value) * deta)
        return X, np.linalg.solve(B.T, drhs - dBT(X))

    # -- brackets --------------------------------------------------------------

    def jacobi_bracket_at(self, f: Expr | str, g: Expr | str, x) -> float:
        """Jacobi bracket {f, g} = X_f(g) + g R(f).

        Both defining expressions are evaluated and must agree to 1e-10
        (relative to the value scale); the first is returned.
        """
        f, g = self.function(f), self.function(g)
        x = self.point(x)
        (fv, fg), (gv, gg) = self.value_and_gradient(f, x), self.value_and_gradient(g, x)
        jets = self._jets(x, np.array([fv, gv]), np.array([fg, gg]))
        return float(self.bracket_matrix(jets)[0, 1])

    def bracket_matrix(self, jets: Jets) -> np.ndarray:
        """Antisymmetric matrices of the Jacobi brackets {f_a, f_b} of the jets.

        Shape (..., m, m) over the leading axes of the jets.  Entry (a, b),
        a < b, is X_a(f_b) + f_b R(f_a); it must agree with
        -X_b(f_a) - f_a R(f_b) to 1e-10 (relative to the value scale).
        """
        values, grads, fields, reeb = jets.values, jets.gradients, jets.fields, jets.reeb
        a, b = _pairs(values.shape[-1])
        # X_a(f_b) + f_b R(f_a) and -X_b(f_a) - f_a R(f_b) of every pair a < b
        first = _dot(fields[..., a, :], grads[..., b, :]) + values[..., b] * reeb[..., a]
        second = -_dot(fields[..., b, :], grads[..., a, :]) - values[..., a] * reeb[..., b]
        gap = abs(first - second)
        bad = _first(_exceeds(gap, _RESIDUAL_TOL, (first, second)))
        if bad is not None:
            raise GeometryError(
                f"bracket expressions disagree by {gap[bad]:.3e} "
                f"at {jets.point[bad[:-1]].tolist()}"
            )
        out = np.zeros(values.shape + values.shape[-1:])
        out[..., a, b] = first
        out[..., b, a] = -first
        return out

    def __repr__(self) -> str:
        kind = "standard" if self.darboux else "general"
        return f"ContactChart({list(self.coordinates)}, {kind})"

    @classmethod
    def standard(cls, n: int, names: Sequence[str] | None = None) -> "ContactChart":
        """Standard chart dz - p_i dq^i on R^(2n+1)."""
        if names is None:
            if n == 0:
                names = ("z",)
            elif n == 1:
                names = ("q", "p", "z")
            else:
                names = tuple(
                    [f"q{i}" for i in range(1, n + 1)]
                    + [f"p{i}" for i in range(1, n + 1)]
                    + ["z"]
                )
        return cls(names)


def _darboux_field(n: int, x, value, grad, dot) -> list:
    """Components of X_f for eta = dz - p_i dq^i, in coordinate order.

    X_f = (df/dp_i) d_q^i - (df/dq^i + p_i df/dz) d_p^i + (p_i df/dp_i - f) d_z,
    from sequences x and grad over the coordinates; dot(a, b) sums a_i b_i.
    """
    p, gp, gz = x[n : 2 * n], grad[n : 2 * n], grad[-1]
    return [*gp, *[-(gq + pi * gz) for gq, pi in zip(grad[:n], p)], dot(p, gp) - value]


def _stacked(template, n: int, x: np.ndarray, value, grad: np.ndarray) -> np.ndarray:
    """A closed-form template over x (..., dim), value (...) and grad (..., dim), broadcast.

    The transposes put the coordinates first, so that one indexing serves
    every leading shape without Ellipsis, which is slow on single points.
    """
    X = np.empty(grad.shape)
    XT = X.T
    value = value.T if isinstance(value, np.ndarray) else value
    components = template(n, x.T, value, grad.T, lambda a, b: _dot(a.T, b.T).T)
    for i, component in enumerate(components):
        XT[i] = component
    return X


def _fdot(a, b):
    """a . b over floats or trees, summed left to right from 0.0 (`_dot`'s bits at length 1)."""
    total = 0.0
    for u, v in zip(a, b):
        total += u * v
    return total


@functools.lru_cache(maxsize=512)
def _closed_kernels(template, key: _KernelKey) -> tuple:
    """Kernels of a template's components on key's tree: values X_f^i, gradients DX_f rows."""
    names = key.names
    grad = [_derivative(key.node, name) or Const(0.0) for name in names]
    components = template((len(names) - 1) // 2, [*map(Var, names)], key.node, grad, _fdot)
    return tuple(gradient_kernel(c, names) for c in components)


def _flat_det(eta: np.ndarray, deta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat matrices B = d eta + eta eta^T of coframes, and their determinants."""
    B = deta + eta[..., :, None] * eta[..., None, :]
    return B, np.linalg.det(B)


def _standard_coefficients(names: Sequence[str]) -> tuple[Expr, ...]:
    n = (len(names) - 1) // 2
    coeffs: list[Expr] = []
    for i in range(n):
        coeffs.append(-Var(names[n + i]))
    coeffs.extend(Const(0.0) for _ in range(n))
    coeffs.append(Const(1.0))
    return tuple(coeffs)


class Jets(NamedTuple):
    """Point data of m functions on a contact chart, with optional leading axes.

    Entry a along the function axis belongs to function a: its value,
    gradient, Hamiltonian field X_a and Reeb derivative R(f_a) at `point`.
    Shapes: point (..., dim), values and reeb (..., m), gradients and
    fields (..., m, dim).
    """

    point: np.ndarray
    values: np.ndarray
    gradients: np.ndarray
    fields: np.ndarray
    reeb: np.ndarray


# ---------------------------------------------------------------------------
# Systems: chart + integrals + sampling region
# ---------------------------------------------------------------------------

class _System:
    """Integrals, sampling box and field closures of contact and symplectized systems.

    A subclass sets `chart`, `integrals`, `region` (or None) and
    `_gradients`, one gradient closure per integral.
    """

    @property
    def coordinates(self) -> tuple[str, ...]:
        return self.chart.coordinates

    @property
    def dim(self) -> int:
        return self.chart.dim

    def resolve(self, f: FunctionLike) -> Expr:
        """Accept an integral index, a source string, or an expression."""
        if isinstance(f, int):
            return self.integrals[f]
        return self.chart.function(f)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.region is None:
            raise ValueError("system has no sampling region")
        lo, hi = self.region[:, 0], self.region[:, 1]
        return rng.uniform(lo, hi, size=(count, self.dim))

    def values_and_gradients(self, x) -> list[tuple[float, np.ndarray]]:
        """(value, gradient) of every integral, one evaluation each."""
        x = self.chart.point(x)
        return [run(x) for run in self._gradients]

    def gradient_stack(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Values (N, m) and gradients (N, m, dim) of the integrals at the rows of xs.

        Each integral's gradient closure runs once per row, in row order.
        """
        xs = self.chart.points(xs)
        values = np.empty((len(xs), len(self._gradients)))
        grads = np.empty(values.shape + (self.dim,))
        for x, value, grad in zip(xs, values, grads):
            for a, run in enumerate(self._gradients):
                value[a], grad[a] = run(x)
        return values, grads

    def integral_values(self, x) -> np.ndarray:
        return np.array([value for value, _ in self.values_and_gradients(x)])

    def hamiltonian_field_at(self, f: FunctionLike, x) -> np.ndarray:
        return self.chart.hamiltonian_field_at(self.resolve(f), x)

    def field_evaluator(self, f: FunctionLike) -> Callable[[Sequence[float]], list[float]]:
        """Closure computing X_f as a list of floats, for the flow integrators.

        The closure runs f's compiled gradient kernel.  Standard-form charts
        then run the closed form over floats (`_fdot`), without per-call
        checks; general coframes run the chart's `_float_field`, one float
        elimination with the checks and errors of field_from_gradient.
        """
        f = self.resolve(f)
        chart = self.chart
        kernel = gradient_kernel(f, chart.coordinates)
        closed_field = chart._closed_field
        if closed_field is None:
            return chart._float_field(kernel)
        n = (chart.dim - 1) // 2

        def field(x) -> list[float]:
            value, grad = kernel(x)
            return closed_field(n, x, value, grad, _fdot)

        return field

    def variational_evaluator(self, f: FunctionLike) -> Callable[[Sequence[float]], list[float]]:
        """The chart's closure for the variational equation of X_f (`_Chart._variational`)."""
        return self.chart._variational(self.resolve(f))


class ContactSystem(_System):
    """A chart with n+1 candidate integrals and a sampling box.

    Args:
        chart: the contact chart.
        integrals: n+1 functions, strings parsed against the chart.
        region: per-coordinate (low, high) sampling bounds; mapping keyed by
            coordinate name or an array of shape (dim, 2).
        positive: coordinate names constrained positive along flows (used as
            trajectory domain guards).
    """

    def __init__(
        self,
        chart: ContactChart,
        integrals: Sequence[Expr | str],
        region: Mapping[str, Sequence[float]] | np.ndarray | None = None,
        positive: Sequence[str] = (),
    ):
        self.chart = chart
        self.integrals = tuple(chart.function(f) for f in integrals)
        if len(self.integrals) != chart.n + 1:
            raise ValueError(
                f"need {chart.n + 1} integrals for n = {chart.n}, got {len(self.integrals)}"
            )
        self.region = (
            None if region is None
            else _bounds(region, chart.coordinates, "region", "coordinates")
        )
        for name in positive:
            if name not in chart.coordinates:
                raise ValueError(f"positive constraint on unknown coordinate {name!r}")
        self.positive = tuple(positive)
        self.positive_indices = tuple(chart.coordinates.index(p) for p in positive)
        self._gradients = tuple(
            gradient_evaluator(f, chart.coordinates) for f in self.integrals
        )

    def jet_stack(self, xs) -> Jets:
        """Values, gradients, fields and Reeb derivatives of the integrals at the rows of xs.

        One stack with a leading point axis; errors in sample order.
        """
        return _in_sample_order(self._jet_stack, self.chart.points(xs))

    def _jet_stack(self, xs: np.ndarray, coframes=None) -> Jets:
        return self.chart._jets(xs, *self.gradient_stack(xs), coframes)


def _bounds(bounds, names: Sequence[str], label: str, noun: str) -> np.ndarray:
    """One finite, ordered (low, high) row per name.

    `bounds` is a mapping keyed by exactly `names` or an array of shape
    (len(names), 2); `label` and `noun` name it and its keys in errors.
    """
    if isinstance(bounds, Mapping):
        missing = set(names) - set(bounds)
        extra = set(bounds) - set(names)
        if missing or extra:
            raise ValueError(
                f"{label} keys must match {noun} (missing {sorted(missing)}, "
                f"extra {sorted(extra)})"
            )
        bounds = [bounds[name] for name in names]
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape != (len(names), 2):
        raise ValueError(f"{label} must have shape ({len(names)}, 2)")
    finite = np.isfinite(bounds).all(axis=1)
    if not finite.all():
        bad = [name for name, ok in zip(names, finite) if not ok]
        raise ValueError(f"{label} bounds of {bad} are not finite")
    if np.any(bounds[:, 0] > bounds[:, 1]):
        raise ValueError(f"{label} lower bounds exceed upper bounds")
    return bounds


# ---------------------------------------------------------------------------
# Chart-level checks
# ---------------------------------------------------------------------------

def conformal_rescale(
    chart: ContactChart, factor: Expr | str, samples: np.ndarray | None = None
) -> ContactChart:
    """New chart with coframe a*eta.

    The factor must be nowhere zero; when sample points are supplied it is
    checked there and a vanishing value raises ConformalFactorError.  A
    structurally constant factor of one returns the chart unchanged.
    """
    factor = chart.function(factor)
    if factor == Const(1.0):
        return chart
    if samples is not None:
        for x in np.atleast_2d(np.asarray(samples, dtype=float)):
            if abs(evaluate(factor, chart.env(x))) <= 1e-12:
                raise ConformalFactorError(x)
    coeffs = tuple(factor * c for c in chart.eta_coefficients)
    return ContactChart(chart.coordinates, coeffs)


@dataclass(frozen=True)
class ContactConditionReport:
    min_abs_det: float
    worst_point: np.ndarray
    threshold: float
    n_points: int
    passed: bool


def contact_condition_check(
    chart: ContactChart, points: np.ndarray, threshold: float = 1e-8
) -> ContactConditionReport:
    """Minimum |det B| over sample points; passes above the threshold."""
    points = _check_points("contact_condition_check", points)
    dets = np.abs(_flat_det(*chart._coframes(chart.points(points)))[1])
    # NaN reads as no minimum, as in a loop keeping the first strict minimum
    dets = np.where(np.isnan(dets), np.inf, dets)
    i = dets.argmin()
    best, worst = float(dets[i]), points[i]
    return ContactConditionReport(
        min_abs_det=best,
        worst_point=np.asarray(worst),
        threshold=threshold,
        n_points=len(points),
        passed=bool(best > threshold),
    )
