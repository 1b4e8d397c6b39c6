"""References for the general-coframe fields, and the systems they run on.

`geometry._field_program` compiles each chart kind's fields into one
straight-line program, the library's one general-coframe solver.  The
references kept here, away from the library:

* the float-list closures that program unrolls for flows: rows built
  with `zip`, one call to `_eliminator`, and residual and pairing sums
  through `geometry._fdot`.  The program must return their floats
  bitwise and raise their errors.
* `solve_field`, the program's solve fed by f's kernel and eta's
  coefficient kernel called apart: the field closures and flow steps
  (`geometry._field_source`) write those kernels' lines and solve's into
  one program, and must return its floats and raise its errors.
* the stacked NumPy solves that point stacks ran before the program
  (`lapack_frames`, `lapack_contact_fields`, `lapack_lifted_fields`):
  det, solve and residual by LAPACK, with the same checks and errors.
  LAPACK's elimination is not ours, so the program agrees with them to
  round-off only; they keep the comparisons of the program with an
  independent solve from turning into comparisons with itself.
* the variational closure's NumPy tangent solves that ran before the
  library's generated `geometry._variational_program`
  (`lapack_variational`): the fields by the solves above, and the
  tangents dX = B^-T (d rhs - dB^T X), or omega^-T (d dF - d omega^T X),
  by two `np.linalg.solve`s and `np.einsum` over the coefficients'
  Hessians.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from contactmech.expressions import gradient_kernel, jet2_kernel
from contactmech.geometry import (
    _RESIDUAL_TOL,
    _SINGULAR_DET,
    ContactChart,
    ContactConditionError,
    ContactSystem,
    GeometryError,
    Jets,
    _dot,
    _exceeds,
    _exceeds_float,
    _fdot,
    _field_program,
    _first,
    _norm,
    _pairs,
    conformal_rescale,
)
from contactmech.symplectization import (
    _SINGULAR_OMEGA,
    SingularStructureError,
    SympChart,
    SymplectizationError,
    symplectize,
)

REGION = {"q": (-2.0, 2.0), "p": (0.5, 2.0), "z": (0.5, 2.0)}


def _float_coframe(chart: ContactChart, x):
    """eta at x and the gradients of its coefficients, from each coefficient's own kernel."""
    return tuple(zip(*[gradient_kernel(c, chart.coordinates)(x) for c in chart.eta_coefficients]))


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


def contact_field(chart, kernel) -> Callable[[Sequence[float]], list[float]]:
    """X_f over float lists on a general contact coframe, from f's gradient kernel.

    One elimination on B^T augmented with [eta | df] gives the Reeb field R
    and y = B^-T df, and X_f = y - (R(f) + f) R.  The checks are those of
    field_from_gradient: the point's shape, det B, the Reeb residual and
    eta(X_f) = -f.
    """
    dim = chart.dim
    eliminate = _eliminator(dim, dim + 2)

    def field(x) -> list[float]:
        if len(x) != dim:
            chart.point(x)
        value, grad = kernel(x)
        eta, jac = _float_coframe(chart, x)
        # row i: B^T_ij = (d_j eta_i - d_i eta_j) + eta_i eta_j over j, then eta_i, df_i
        rows = [[*[u - v + ei * ej for u, v, ej in zip(gi, ci, eta)], ei, fi]
                for gi, ci, ei, fi in zip(jac, zip(*jac), eta, grad)]
        det, columns = eliminate(rows)
        if abs(det) <= _SINGULAR_DET:
            raise ContactConditionError(chart.point(x), det)
        reeb, y = columns
        resid = [_fdot(row, reeb) - e for row, e in zip(rows, eta)]  # _fdot stops at B^T
        if _exceeds_float(resid, _RESIDUAL_TOL, vectors=(eta,)):
            raise GeometryError(
                f"Reeb solve residual {max(map(abs, resid)):.3e} at {chart.point(x).tolist()}"
            )
        c = _fdot(grad, reeb) + value
        X = [u - c * r for u, r in zip(y, reeb)]
        pairing = _fdot(eta, X) + value
        if _exceeds_float((pairing,), 1e-8, (value,), (X,)):
            raise GeometryError(
                f"field invariant eta(X_f) = -f violated by {abs(pairing):.3e} "
                f"at {chart.point(x).tolist()}"
            )
        return X

    return field


def lifted_field(chart, kernel) -> Callable[[Sequence[float]], list[float]]:
    """X_F over float lists on the symplectization of a general base, from F's gradient kernel.

    One elimination on omega^T augmented with [dF] gives X_F.  The checks
    are those of field_from_gradient: the point's shape and fiber,
    det omega, the solve residual and theta(X_F) = F for homogeneous F.
    """
    base, dim = chart.base, chart.dim
    eliminate = _eliminator(dim, dim + 1)

    def field(x) -> list[float]:
        if len(x) != dim or x[-1] <= 0.0:
            chart.point(x)
        value, grad = kernel(x)
        r = x[-1]
        eta, jac = _float_coframe(base, x[:-1])
        # row i < dim - 1: omega^T_ij = -r (d_j eta_i - d_i eta_j) over j, -eta_i, then dF_i;
        # the last row: eta, 0, then dF_r
        rows = [[*[-r * (u - v) for u, v in zip(gi, ci)], -ei, fi]
                for gi, ci, ei, fi in zip(jac, zip(*jac), eta, grad)]
        rows.append([*eta, 0.0, grad[-1]])
        det, columns = eliminate(rows)
        if abs(det) <= _SINGULAR_OMEGA:
            raise SingularStructureError(chart.point(x), det)
        (X,) = columns
        resid = [_fdot(row, X) - g for row, g in zip(rows, grad)]  # _fdot stops at omega^T
        if _exceeds_float(resid, _RESIDUAL_TOL, vectors=(grad,)):
            raise SymplectizationError(
                f"field solve residual {max(map(abs, resid)):.3e} at {chart.point(x).tolist()}"
            )
        gap = _fdot([r * e for e in eta], X) - value
        # the identity binds homogeneous F only
        if (_exceeds_float((gap,), 1e-8, (value,), (X,))
                and not _exceeds_float((r * grad[-1] - value,), _RESIDUAL_TOL, (value,))):
            raise SymplectizationError(
                f"theta(X_F) = F violated by {abs(gap):.3e} for homogeneous F "
                f"at {chart.point(x).tolist()}"
            )
        return X

    return field


def reference_field(chart, kernel) -> Callable[[Sequence[float]], list[float]]:
    """The reference closure of a general contact or symplectized chart."""
    return (lifted_field if isinstance(chart, SympChart) else contact_field)(chart, kernel)


def solve_field(chart, kernel) -> Callable[[Sequence[float]], list[float]]:
    """X_f over float lists from the solve of `geometry._field_program(kind, dim, 1)`.

    The closure checks the point's shape and, on the lifted kind, its
    fiber, then calls f's kernel and the fused kernel of eta's coefficients
    (`_float_coframe`) each on its own and passes their floats to solve:
    the float operations and errors that the library's field closure
    (`geometry._field_evaluator`) makes in one call.
    """
    solve, dim = _field_program(chart._kind, chart.dim, 1)["solve"], chart.dim
    lifted = isinstance(chart, SympChart)

    def field(x) -> list[float]:
        if len(x) != dim or (lifted and x[-1] <= 0.0):
            chart.point(x)
        value, grad = kernel(x)
        return solve(chart.point, x, [value], [grad], chart._eta_chart._float_coframe(x))[:dim]

    return field


# ---------------------------------------------------------------------------
# The LAPACK reference: stacked NumPy solves
# ---------------------------------------------------------------------------

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


def lapack_frames(chart: ContactChart, xs: np.ndarray, coframes=None):
    """(eta, B, Reeb field) at points xs (..., dim) of a general contact chart.

    `coframes` is chart._coframes(xs) when already known.  A singular flat
    matrix (`flat_matrix_at`, LAPACK's det), or a Reeb solve residual
    above 1e-10 (relative to eta), raises at the first such point.
    """
    eta, deta = chart._coframes(xs) if coframes is None else coframes
    B = chart.flat_matrix_at(xs, (eta, deta))
    BT = B.swapaxes(-1, -2)
    reeb = _solve(BT, eta)
    resid = _norm(_matvec(BT, reeb) - eta)
    bad = _first(_exceeds(resid, _RESIDUAL_TOL, vectors=(eta,)))
    if bad is not None:
        raise GeometryError(f"Reeb solve residual {resid[bad]:.3e} at {xs[bad].tolist()}")
    return eta, B, reeb


def lapack_contact_fields(chart: ContactChart, xs: np.ndarray, values, grads: np.ndarray,
                          frames=None) -> tuple[np.ndarray, np.ndarray]:
    """Fields and Reeb derivatives at points xs of a general contact chart.

    Shapes as in `ContactChart._solved`; `frames` is lapack_frames(xs)
    when already known.  flat(X_f) = df - (R(f) + f) eta is solved, and
    each field is checked against eta(X_f) = -f to 1e-8 (relative to f
    and X_f); the first failing one raises.
    """
    eta, B, reeb = lapack_frames(chart, xs) if frames is None else frames
    if grads.ndim != xs.ndim:  # a function axis
        eta, B, reeb = eta[..., None, :], B[..., None, :, :], reeb[..., None, :]
    rf = _dot(grads, reeb)
    X = _solve(B.swapaxes(-1, -2), grads - (rf + values)[..., None] * eta)
    resid = abs(_dot(eta, X) + values)
    bad = _first(_exceeds(resid, 1e-8, (values,), (X,)))
    if bad is not None:
        raise GeometryError(
            f"field invariant eta(X_f) = -f violated by {resid[bad]:.3e} "
            f"at {xs[bad[: xs.ndim - 1]].tolist()}"
        )
    return X, rf


def lapack_lifted_fields(chart: SympChart, xs: np.ndarray, values, grads: np.ndarray,
                         coframes=None, omega=None) -> np.ndarray:
    """Fields at points xs of the symplectization of a general base.

    Shapes as in `ContactChart._solved`; `coframes` (the base's
    _coframes) and `omega` at xs may be given.  omega^T X = dF is solved
    and checked to 1e-10 (relative to dF); a homogeneous F is checked
    against theta(X_F) = F to 1e-8 (relative to F and X_F).  The first
    failing function raises, with the solve checked first.
    """
    eta, deta = chart.base._coframes(xs[..., :-1]) if coframes is None else coframes
    if omega is None:
        omega = chart._omegas(xs, eta, deta)[0]
    omegaT, theta, x = omega.swapaxes(-1, -2), chart._thetas(xs, eta), xs
    if grads.ndim != xs.ndim:  # a function axis
        omegaT, theta, x = omegaT[..., None, :, :], theta[..., None, :], xs[..., None, :]
    X = _solve(omegaT, grads)
    solve_resid = _norm(_matvec(omegaT, X) - grads)
    solve_bad = _exceeds(solve_resid, _RESIDUAL_TOL, vectors=(grads,))
    gap = abs(_dot(theta, X) - values)
    theta_bad = _exceeds(gap, 1e-8, (values,), (X,))
    if _first(theta_bad) is not None:  # the identity binds homogeneous F only
        homogeneity = abs(x[..., -1] * grads[..., -1] - values)
        theta_bad &= ~_exceeds(homogeneity, _RESIDUAL_TOL, (values,))
    bad = _first(solve_bad | theta_bad)
    if bad is not None:
        where = xs[bad[: xs.ndim - 1]].tolist()
        if solve_bad[bad]:
            raise SymplectizationError(f"field solve residual {solve_resid[bad]:.3e} at {where}")
        raise SymplectizationError(
            f"theta(X_F) = F violated by {gap[bad]:.3e} for homogeneous F at {where}"
        )
    return X


def lapack_field(chart, x, value, grad) -> np.ndarray:
    """field_from_gradient of a general contact or symplectized chart by the NumPy solves."""
    x = chart.point(x)
    if isinstance(chart, SympChart):
        return lapack_lifted_fields(chart, x, value, grad)
    return lapack_contact_fields(chart, x, value, grad)[0]


def lapack_jets(system: ContactSystem, xs: np.ndarray, coframes=None) -> Jets:
    """`jet_stack` of a general contact system by the NumPy solves."""
    values, grads = system.gradient_stack(xs)
    frames = lapack_frames(system.chart, xs, coframes)
    return Jets(xs, values, grads, *lapack_contact_fields(system.chart, xs, values, grads, frames))


def lapack_lift_values(symp, xs: np.ndarray) -> tuple[float, ...]:
    """The five `lift_check` values of a general base by the NumPy solves."""
    chart, base = symp.chart, symp.chart.base
    coframes = base._coframes(xs[:, :-1])
    omega, det = chart._omegas(xs, *coframes)
    theta = chart._thetas(xs, coframes[0])
    delta = _solve(omega.swapaxes(-1, -2), -theta)
    delta[:, -1] -= xs[:, -1]
    values, grads = symp.gradient_stack(xs)
    fields = lapack_lifted_fields(chart, xs, values, grads, coframes, omega)
    brackets = base.bracket_matrix(lapack_jets(symp.base, xs[:, :-1], coframes))
    a, b = _pairs(values.shape[1])
    r = xs[:, -1, None]
    residuals = (_norm(delta), r * grads[..., -1] - values, _dot(theta[:, None], fields) - values,
                 _dot(fields[:, a], grads[:, b]) + r * brackets[:, a, b])
    return (float(np.abs(det).min()), *(float(np.abs(v).max()) for v in residuals))


# ---------------------------------------------------------------------------
# The LAPACK reference of the variational closure
# ---------------------------------------------------------------------------

def _coframe_tangent(chart: ContactChart, x: np.ndarray, dx: np.ndarray):
    """Derivatives of eta and d eta at x along the k columns of dx, shapes (dim, k) and (k, dim, dim).

    From the Hessians of eta's coefficients, their rows' lower triangles
    mirrored as eval_jet2 does.
    """
    jets = [jet2_kernel(c, chart.coordinates)(x) for c in chart.eta_coefficients]
    _, jac, rows = map(np.array, zip(*jets))
    hessians = np.tril(rows) + np.tril(rows, -1).swapaxes(-1, -2)
    djac = np.einsum("bac,cj->jab", hessians, dx)  # [j, a, b] = d_a eta_b along dx_j
    return jac @ dx, djac - djac.transpose(0, 2, 1)


def contact_tangents(chart: ContactChart, x, value, grad, hessian, dx):
    """X_f at x and DX_f(x) dx on the k columns of dx, on a general contact coframe.

    The derivative of the solve B^T X = rhs of field_from_gradient:
    dX = B^-T (d rhs - dB^T X), with dB from the Hessians of eta's
    coefficients and the Reeb field differentiated the same way.
    """
    eta, B, reeb = lapack_frames(chart, x)
    X, rf = lapack_contact_fields(chart, x, value, grad, (eta, B, reeb))
    dvalue, dgrad = grad @ dx, hessian @ dx
    deta, ddeta = _coframe_tangent(chart, x, dx)

    def dBT(v):  # (dB)^T v per column, dB = d(d eta) + d eta eta^T + eta d eta^T
        return np.einsum("jab,a->bj", ddeta, v) + np.outer(eta, v @ deta) + (eta @ v) * deta

    dreeb = np.linalg.solve(B.T, deta - dBT(reeb))
    drhs = dgrad - np.outer(eta, reeb @ dgrad + grad @ dreeb + dvalue) - (rf + value) * deta
    return X, np.linalg.solve(B.T, drhs - dBT(X))


def lifted_tangents(chart: SympChart, x, value, grad, hessian, dx):
    """X_F at x and DX_F(x) dx on the k columns of dx, on the symplectization of a general base.

    The solve omega^T X = dF gives dX = omega^-T (d dF - d omega^T X),
    with d omega from r and the Hessians of the base coframe's
    coefficients.
    """
    dgrad, r, dr = hessian @ dx, x[-1], dx[-1]
    eta, deta = chart.base._coframes(x[:-1])
    omega = chart._omegas(x, eta, deta)[0]
    X = lapack_lifted_fields(chart, x, value, grad, (eta, deta), omega)
    d_eta, d_deta = _coframe_tangent(chart.base, x[:-1], dx[:-1])
    Xb, Xr = X[:-1], X[-1]
    domega_T_X = np.empty_like(dgrad)
    domega_T_X[:-1] = (-np.outer(deta.T @ Xb, dr) - r * np.einsum("jab,a->bj", d_deta, Xb)
                       - Xr * d_eta)
    domega_T_X[-1] = Xb @ d_eta
    return X, np.linalg.solve(omega.T, dgrad - domega_T_X)


def lapack_variational(chart, f) -> Callable[[Sequence[float]], list[float]]:
    """`_Chart._variational`'s closure on a general coframe by the NumPy solves.

    The state is x followed by k tangents; f's Hessian rows are those of
    its `jet2_kernel`, as computed.
    """
    dim, jet = chart.dim, jet2_kernel(f, chart.coordinates)
    tangents_of = lifted_tangents if isinstance(chart, SympChart) else contact_tangents

    def field(state) -> list[float]:
        x = chart.point(state[:dim])
        value, grad, rows = jet(x)
        tangents = np.array(state[dim:]).reshape(-1, dim).T
        X, dX = tangents_of(chart, x, value, np.array(grad), np.array(rows), tangents)
        return np.concatenate((X, dX.T.ravel())).tolist()

    return field


# ---------------------------------------------------------------------------
# General-coframe systems
# ---------------------------------------------------------------------------

def _rescaled_system():
    # eta' = exp(q/3) eta with the integrals scaled alike: a general coframe
    # with the fields of darboux-pz
    chart = ContactChart(("q", "p", "z"), ["-exp(q/3)*p", "0", "exp(q/3)"])
    return ContactSystem(chart, ["exp(q/3)*p", "exp(q/3)*z"], REGION, positive=["p", "z"])


def _cubic_system():
    # functions of P = p + grad S(q), S quadratic, are in involution; the
    # integrals of a generated cubic-5d config have this shape
    P1 = "(p1 + 0.31*q1 + 0.17*q2)"
    P2 = "(p2 + 0.17*q1 + 0.42*q2)"
    integrals = [
        f"1.1*{P1}^1 + 0.7*{P1}^3",
        f"0.9*{P2}^1 + 1.3*{P2}^2",
        f"1.2*{P1}^1*{P2}^2 + 0.8*{P1}^2 + 0.6*{P2}^3",
    ]
    coords = ("q1", "q2", "p1", "p2", "z")
    return ContactSystem(ContactChart.standard(2), integrals,
                         {name: (0.5, 2.0) for name in coords})


def _general_n2_system():
    # the standard form at n = 2 written as -1 * p_i, which takes the general solves
    chart = ContactChart(ContactChart.standard(2).coordinates, ["-1*p1", "-1*p2", "0", "0", "1"])
    return ContactSystem(chart, _cubic_system().integrals,
                         {name: (0.5, 2.0) for name in chart.coordinates})


def _general_system(name, lifted):
    if name == "rescaled":
        system = _rescaled_system()
    else:
        system = _general_n2_system()
        if name == "dense-n2":
            # a factor on every coordinate gives the Reeb field no zero
            # entry, so that each sum of the program moves the result
            chart = conformal_rescale(system.chart, "exp(0.3*q1 - 0.2*p2 + 0.1*z)")
            system = ContactSystem(chart, system.integrals, system.region)
    return symplectize(system) if lifted else system


def _degenerate_system(n, scale):
    # scale 0: eta = dz, whose flat matrix eta eta^T has a zero pivot;
    # a small scale gives a nonzero det under the singular threshold
    names = ContactChart.standard(n).coordinates
    eta = [f"-{scale}*{p}" for p in names[n : 2 * n]] + ["0"] * n + ["1"]
    region = {name: (0.5, 2.0) for name in names}
    return ContactSystem(ContactChart(names, eta), list(names[n:]), region)
