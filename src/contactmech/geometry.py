"""Contact charts: coframe, Reeb field, Hamiltonian fields, Jacobi bracket.

A chart holds 2n+1 coordinate names and the coefficient functions of a
contact one-form eta.  Coordinates are ordered (q_1..q_n, p_1..p_n, z);
when the coefficients are structurally those of the standard form
dz - p_i dq^i the chart takes closed-form fast paths, otherwise every
operator goes through the flat-map solve.

The flat map sends a vector v to i_v(d eta) + eta(v) eta.  Its matrix is
B_ab = (d eta)_ab + eta_a eta_b with the row convention
(d eta)_ab = d_a eta_b - d_b eta_a, so (flat v)_b = v^a B_ab.  The
Hamiltonian field of f solves flat(X_f) = df - (R(f) + f) eta and the
Jacobi bracket is {f, g} = X_f(g) + g R(f).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .expressions import (
    Binary,
    Const,
    Expr,
    Unary,
    Var,
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


def _scale_tol(tol: float, *values: float) -> float:
    scale = max(1.0, *(abs(v) for v in values)) if values else 1.0
    return tol * scale


class _Chart:
    """Points, functions and Hamiltonian fields of contact and symplectized charts.

    A subclass sets `coordinates`, `dim` and `_closed_field` (its
    standard-form field over float lists, or None) and defines
    `field_from_gradient` and `field_with_tangents`.
    """

    coordinates: tuple[str, ...]
    dim: int

    def point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of shape ({self.dim},), got {x.shape}")
        return x

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
        """Jacobian d_a X_f^i, rows i, columns a.

        Column a is the exact tangent map of the field (field_with_tangents)
        applied to the unit vector e_a, from f's second-order jet.
        """
        f = self.function(f)
        x = self.point(x)
        jet = eval_jet2(f, self.coordinates, x)
        unit = np.eye(self.dim)
        return self.field_with_tangents(x, jet.value, jet.gradient, jet.hessian, unit)[1]


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
        self._closed_field = _standard_field_floats if self.darboux else None
        self._coeff_grads = tuple(gradient_evaluator(c, names) for c in coeffs)

    def env(self, x) -> dict[str, float]:
        return dict(zip(self.coordinates, map(float, x)))

    # -- coframe -------------------------------------------------------------

    def eta_at(self, x) -> np.ndarray:
        x = self.point(x)
        if self.darboux:
            n = self.n
            out = np.zeros(self.dim)
            out[:n] = -x[n : 2 * n]
            out[-1] = 1.0
            return out
        return self.coframe_at(x)[0]

    def deta_at(self, x) -> np.ndarray:
        return self.coframe_at(x)[1]

    def coframe_at(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(eta, d eta) at x, from one run of each coefficient kernel."""
        x = self.point(x)
        n = self.n
        if self.darboux:
            deta = np.zeros((self.dim, self.dim))
            for i in range(n):
                deta[i, n + i] = 1.0
                deta[n + i, i] = -1.0
            return self.eta_at(x), deta
        eta = np.empty(self.dim)
        jac = np.empty((self.dim, self.dim))
        for b, run in enumerate(self._coeff_grads):
            eta[b], jac[:, b] = run(x)
        return eta, jac - jac.T

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
        """B = d eta + eta eta^T; `coframe` is coframe_at(x) when already known."""
        x = self.point(x)
        eta, deta = self.coframe_at(x) if coframe is None else coframe
        B = deta + np.outer(eta, eta)
        det = float(np.linalg.det(B))
        if abs(det) <= _SINGULAR_DET:
            raise ContactConditionError(x, det)
        return B

    def flat_at(self, x, v) -> np.ndarray:
        """Musical flat of a vector: (flat v)_b = v^a B_ab."""
        v = np.asarray(v, dtype=float)
        return self.flat_matrix_at(x).T @ v

    def sharp_at(self, x, w) -> np.ndarray:
        """Inverse of the flat map applied to a covector."""
        w = np.asarray(w, dtype=float)
        return np.linalg.solve(self.flat_matrix_at(x).T, w)

    # -- Reeb field ----------------------------------------------------------

    def reeb_at(self, x) -> np.ndarray:
        x = self.point(x)
        if self.darboux:
            out = np.zeros(self.dim)
            out[-1] = 1.0
            return out
        return self._frame(x)[2]

    def _reeb(self, x: np.ndarray, eta: np.ndarray, B: np.ndarray) -> np.ndarray:
        reeb = np.linalg.solve(B.T, eta)
        resid = float(np.max(np.abs(B.T @ reeb - eta)))
        if resid > _scale_tol(_RESIDUAL_TOL, *eta):
            raise GeometryError(f"Reeb solve residual {resid:.3e} at {x.tolist()}")
        return reeb

    def reeb_derivative(self, f: Expr | str, x) -> float:
        """R(f), the Reeb derivative of a function."""
        f = self.function(f)
        x = self.point(x)
        _, grad = self.value_and_gradient(f, x)
        if self.darboux:
            return float(grad[-1])
        return float(grad @ self.reeb_at(x))

    # -- Hamiltonian fields ----------------------------------------------------

    def field_from_gradient(self, x, value: float, grad: np.ndarray) -> np.ndarray:
        """Contact Hamiltonian field X_f, with eta(X_f) = -f, from f's value and grad.

        Standard-form charts use the closed-form expression
        X_f = (df/dp_i) d_q^i - (df/dq^i + p_i df/dz) d_p^i
              + (p_i df/dp_i - f) d_z;
        otherwise flat(X_f) = df - (R(f) + f) eta is solved directly.
        """
        return self._field(x, value, grad, self._frame(x))

    def _frame(self, x: np.ndarray):
        """(eta, B, Reeb field) at x for the general solve; None on standard charts."""
        if self.darboux:
            return None
        coframe = self.coframe_at(x)
        B = self.flat_matrix_at(x, coframe)
        return coframe[0], B, self._reeb(x, coframe[0], B)

    def _field(self, x: np.ndarray, value: float, grad: np.ndarray, frame) -> np.ndarray:
        n = self.n
        if frame is None:
            X = _standard_field(n, x, value, grad)
            pairing = X[-1] - x[n : 2 * n] @ X[:n]
        else:
            eta, B, reeb = frame
            rhs = grad - (grad @ reeb + value) * eta
            X = np.linalg.solve(B.T, rhs)
            pairing = eta @ X
        resid = abs(pairing + value)
        if resid > _scale_tol(1e-8, value, *X):
            raise GeometryError(
                f"field invariant eta(X_f) = -f violated by {resid:.3e} at {x.tolist()}"
            )
        return X

    def jets_at(self, x, values_and_gradients) -> Jets:
        """Fields and Reeb derivatives of functions with known (value, gradient) at x.

        The coframe solve is shared by all the functions, and each field is
        checked against eta(X_f) = -f as in hamiltonian_field_at.
        """
        x = self.point(x)
        frame = self._frame(x)
        values = np.array([value for value, _ in values_and_gradients])
        grads = tuple(grad for _, grad in values_and_gradients)
        fields = tuple(
            self._field(x, value, grad, frame) for value, grad in values_and_gradients
        )
        reeb = tuple(grad[-1] if frame is None else grad @ frame[2] for grad in grads)
        return Jets(x, values, grads, fields, reeb)

    def field_with_tangents(self, x, value, grad, hessian, dx) -> tuple[np.ndarray, np.ndarray]:
        """X_f at x and its tangent map DX_f(x) dx on the k columns of dx.

        From f's value, gradient and Hessian at x.  The tangent map is the
        derivative of field_from_gradient: of the closed form on
        standard-form charts, otherwise of the solve B^T X = rhs, giving
        dX = B^-T (d rhs - dB^T X) with dB from the Hessians of eta's
        coefficients (the Reeb field is differentiated the same way).
        """
        frame = self._frame(x)
        X = self._field(x, value, grad, frame)
        dvalue, dgrad = grad @ dx, hessian @ dx
        n = self.n
        if frame is None:
            p, dp = x[n : 2 * n], dx[n : 2 * n]
            dX = np.empty_like(dgrad)
            dX[:n] = dgrad[n : 2 * n]
            dX[n : 2 * n] = -(dgrad[:n] + p[:, None] * dgrad[-1] + grad[-1] * dp)
            dX[-1] = p @ dgrad[n : 2 * n] + grad[n : 2 * n] @ dp - dvalue
            return X, dX
        eta, B, reeb = frame
        deta, ddeta = self._coframe_tangent(x, dx)

        def dBT(v):  # (dB)^T v per column, dB = d(d eta) + d eta eta^T + eta d eta^T
            return np.einsum("jab,a->bj", ddeta, v) + np.outer(eta, v @ deta) + (eta @ v) * deta

        dreeb = np.linalg.solve(B.T, deta - dBT(reeb))
        drhs = (dgrad - np.outer(eta, reeb @ dgrad + grad @ dreeb + dvalue)
                - (grad @ reeb + value) * deta)
        return X, np.linalg.solve(B.T, drhs - dBT(X))

    def field_commutator_at(self, f: Expr | str, g: Expr | str, x) -> np.ndarray:
        """Lie bracket [X_f, X_g] of two Hamiltonian fields."""
        jets = self._pair_jets(f, g, x)
        Xf, Xg = jets.fields
        Jf = self.hamiltonian_field_jacobian_at(f, jets.point)
        Jg = self.hamiltonian_field_jacobian_at(g, jets.point)
        return Jg @ Xf - Jf @ Xg

    # -- brackets --------------------------------------------------------------

    def jacobi_bracket_at(self, f: Expr | str, g: Expr | str, x) -> float:
        """Jacobi bracket {f, g} = X_f(g) + g R(f).

        Both defining expressions are evaluated and must agree to 1e-10
        (relative to the value scale); the first is returned.
        """
        return float(self.bracket_matrix(self._pair_jets(f, g, x))[0, 1])

    def _pair_jets(self, f: Expr | str, g: Expr | str, x) -> Jets:
        """Jets of f and g at x, the coframe evaluated once."""
        f, g = self.function(f), self.function(g)
        x = self.point(x)
        return self.jets_at(x, (self.value_and_gradient(f, x), self.value_and_gradient(g, x)))

    def bracket_matrix(self, jets: Jets) -> np.ndarray:
        """Antisymmetric matrix of the Jacobi brackets {f_a, f_b} of the jets.

        Entry (a, b), a < b, is X_a(f_b) + f_b R(f_a); it must agree with
        -X_b(f_a) - f_a R(f_b) to 1e-10 (relative to the value scale).
        """
        values, grads, fields, reeb = jets.values, jets.gradients, jets.fields, jets.reeb
        m = len(values)
        out = np.zeros((m, m))
        for a in range(m):
            for b in range(a + 1, m):
                first = float(grads[b] @ fields[a] + values[b] * reeb[a])
                second = float(-(grads[a] @ fields[b]) - values[a] * reeb[b])
                if abs(first - second) > _scale_tol(_RESIDUAL_TOL, first, second):
                    raise GeometryError(
                        f"bracket expressions disagree by {abs(first - second):.3e} "
                        f"at {jets.point.tolist()}"
                    )
                out[a, b] = first
                out[b, a] = -first
        return out

    def lambda_pairing_at(self, f: Expr | str, g: Expr | str, x) -> float:
        """Bivector pairing Lambda(df, dg) = {f, g} + f R(g) - g R(f)."""
        jets = self._pair_jets(f, g, x)
        x = jets.point
        coframe = self.coframe_at(x)
        B = self.flat_matrix_at(x, coframe)
        u, v = (np.linalg.solve(B.T, grad) for grad in jets.gradients)
        value = float(-(u @ coframe[1] @ v))
        (fv, gv), (rf, rg) = jets.values, jets.reeb
        expected = float(self.bracket_matrix(jets)[0, 1]) + fv * rg - gv * rf
        if abs(value - expected) > _scale_tol(_RESIDUAL_TOL, value, expected):
            raise GeometryError(
                f"Lambda pairing disagrees with bracket identity by "
                f"{abs(value - expected):.3e} at {x.tolist()}"
            )
        return value

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


def _standard_field(n: int, x: np.ndarray, value: float, grad: np.ndarray) -> np.ndarray:
    # closed form for eta = dz - p dq: the solve of flat(X_f) = df - (R(f) + f) eta
    p = x[n : 2 * n]
    X = np.empty(2 * n + 1)
    X[:n] = grad[n : 2 * n]
    X[n : 2 * n] = -(grad[:n] + p * grad[-1])
    X[-1] = p @ grad[n : 2 * n] - value
    return X


def _standard_field_floats(n: int, x, value: float, grad) -> list[float]:
    # _standard_field over float sequences, in its float operations and
    # order; NumPy's p @ g is 0.0 + p_1 g_1 at n = 1 and fuses a
    # multiply-add from n = 2 on, which this sum does not
    gz = grad[-1]
    X = list(grad[n : 2 * n])
    X += [-(gq + p * gz) for gq, p in zip(grad[:n], x[n : 2 * n])]
    pairing = 0.0
    for p, gp in zip(x[n : 2 * n], grad[n : 2 * n]):
        pairing += p * gp
    X.append(pairing - value)
    return X


def _standard_coefficients(names: Sequence[str]) -> tuple[Expr, ...]:
    n = (len(names) - 1) // 2
    coeffs: list[Expr] = []
    for i in range(n):
        coeffs.append(Unary("neg", Var(names[n + i])))
    coeffs.extend(Const(0.0) for _ in range(n))
    coeffs.append(Const(1.0))
    return tuple(coeffs)


@dataclass(frozen=True)
class Jets:
    """Per-point data of several functions on a contact chart.

    Entry a of each field belongs to function a: its value, gradient,
    Hamiltonian field X_a and Reeb derivative R(f_a) at `point`.
    """

    point: np.ndarray
    values: np.ndarray
    gradients: tuple[np.ndarray, ...]
    fields: tuple[np.ndarray, ...]
    reeb: tuple[float, ...]


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

    def integral_values(self, x) -> np.ndarray:
        return np.array([value for value, _ in self.values_and_gradients(x)])

    def hamiltonian_field_at(self, f: FunctionLike, x) -> np.ndarray:
        return self.chart.hamiltonian_field_at(self.resolve(f), x)

    def field_evaluator(self, f: FunctionLike) -> Callable[[Sequence[float]], list[float]]:
        """Closure computing X_f as a list of floats, for the flow integrators.

        Standard-form charts run f's compiled gradient kernel and the
        closed form over floats, without per-call checks; otherwise the
        closure runs field_from_gradient with every check.
        """
        f = self.resolve(f)
        chart = self.chart
        kernel = gradient_kernel(f, chart.coordinates)
        closed_field = chart._closed_field
        if closed_field is None:

            def general_field(x) -> list[float]:
                x = chart.point(x)
                value, grad = kernel(x)
                return chart.field_from_gradient(x, value, np.array(grad)).tolist()

            return general_field
        n = (chart.dim - 1) // 2

        def field(x) -> list[float]:
            value, grad = kernel(x)
            return closed_field(n, x, value, grad)

        return field

    def variational_evaluator(self, f: FunctionLike) -> Callable[[Sequence[float]], list[float]]:
        """Closure for the variational equation of X_f, over float lists.

        The state is x followed by k tangent vectors dx_1..dx_k; the
        closure returns X_f(x) followed by DX_f(x) dx_1..DX_f(x) dx_k, from
        f's compiled second-order jet and field_with_tangents.
        """
        f = self.resolve(f)
        chart = self.chart
        jet = jet2_kernel(f, chart.coordinates)
        dim = chart.dim

        def field(state) -> list[float]:
            x = state[:dim]
            value, grad, rows = jet(x)
            tangents = np.array(state[dim:]).reshape(-1, dim).T
            X, dX = chart.field_with_tangents(
                np.array(x), value, np.array(grad), np.array(rows), tangents
            )
            return np.concatenate((X, dX.T.ravel())).tolist()

        return field


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

    def integral_jacobian(self, x) -> np.ndarray:
        """Rows are the gradients of the integrals (the matrix TF)."""
        return np.array([grad for _, grad in self.values_and_gradients(x)])

    def jets_at(self, x) -> Jets:
        """Values, gradients, fields and Reeb derivatives of the integrals."""
        return self.chart.jets_at(x, self.values_and_gradients(x))

    def bracket_matrix_at(self, x) -> np.ndarray:
        """Brackets {f_a, f_b} of the integrals, each integral evaluated once."""
        return self.chart.bracket_matrix(self.jets_at(x))

    def conformal_rescale(self, factor: Expr | str, n_samples: int = 64, seed: int = 0):
        """Chart with coframe scaled by `factor`, vetted on sampled points."""
        factor = self.chart.function(factor)
        samples = self.sample(np.random.default_rng(seed), n_samples)
        return conformal_rescale(self.chart, factor, samples)


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
    coeffs = tuple(Binary("*", factor, c) for c in chart.eta_coefficients)
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
    points = np.atleast_2d(np.asarray(points, dtype=float))
    best = np.inf
    worst = points[0]
    for x in points:
        eta, deta = chart.coframe_at(x)
        B = deta + np.outer(eta, eta)
        det = abs(float(np.linalg.det(B)))
        if det < best:
            best, worst = det, x
    return ContactConditionReport(
        min_abs_det=best,
        worst_point=np.asarray(worst),
        threshold=threshold,
        n_points=len(points),
        passed=bool(best > threshold),
    )
