"""Reference general-coframe field closures over float lists.

`geometry._field_program` compiles each chart kind's field into one
straight-line program.  The closures below are the list code that
program unrolls: rows built with `zip`, one call to `_eliminator`, and
residual and pairing sums through `geometry._fdot`.  The compiled
programs must return their floats bitwise and raise their errors, so the
list code is kept here, away from the library, as the reference the
differential tests compare against.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

from contactmech.geometry import (
    _RESIDUAL_TOL,
    _SINGULAR_DET,
    ContactConditionError,
    GeometryError,
    _exceeds_float,
    _fdot,
)
from contactmech.symplectization import (
    _SINGULAR_OMEGA,
    SingularStructureError,
    SympChart,
    SymplectizationError,
)


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
        eta, jac = chart._float_coframe(x)
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
        eta, jac = base._float_coframe(x[:-1])
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
