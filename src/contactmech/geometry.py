"""Contact charts: coframe, Reeb field, Hamiltonian fields, Jacobi bracket.

A chart holds 2n+1 coordinate names and the coefficient functions of a
contact one-form eta.  Coordinates are ordered (q_1..q_n, p_1..p_n, z);
when the coefficients are structurally those of the standard form
dz - p_i dq^i the chart takes closed-form fast paths, otherwise every
operator goes through the flat-map solve.  The closed-form field is one
template, `_darboux_field`, run over arrays (point stacks) and over
source symbols: over forward-mode pairs of them `_closed_program`
compiles it, on f's jet kernel, into the variational closure; no caller
re-checks eta(X_f) = -f, which holds for it identically.  On general
coframes every field and tangent comes from a generated float program
per chart kind ("lifted" upstairs) and dimension: `_field_program`, one
elimination per point for det B, the Reeb field and B^-T df of m
functions, with its checks and errors, run by single points; its
row-block twin `_field_rows` over NumPy columns, run by point stacks;
and `_variational_program`, its lines, then one more elimination per
tangent for DX_f dx.  One builder, `_field_entries`, compiles X_f on
every chart into one program per chart kind and kernel, with two
entries: `at` on a state's floats, f's kernel lines and then the
template over source symbols or the field program's lines for one
function, which the stages of every flow's shared Fehlberg step call
(`flows._step_program`); and `field`, the `field_evaluator` closure,
which checks a point and returns `at` there.  None takes a LAPACK
solve; `_programs` holds the emitters' helpers and compiles every
program (`program`).

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
`jacobi_bracket_at`, ...) run the same code on one point.  A stack makes
its generated programs' work (the integrals' and eta's fused kernels,
the general field program) one NumPy pass per block of rows, through
each program's row-block twin (`_programs.in_blocks`): a block the twin
cannot vouch for, and a single point, run the float program row by row,
so every value is the float program's and every error its first
failing row's.

Every dot product of a report sums left to right from 0.0, as `_fdot`
and the generated programs sum: `_dot` over stacks, and `_fdot` itself
in the closed template over arrays, so no report's last bits depend on
the BLAS build.  Stacked det reproduces the per-matrix det bitwise; the
min |det| values of the reports are LAPACK's (`np.linalg.det` of
`_flat`, and the symplectization's `_omegas`).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from ._programs import (
    _checked,
    _columns,
    _Dual,
    _eliminate,
    _fdot,
    _names,
    _Source,
    _sum,
    _tup,
    in_blocks,
    program,
)
from .expressions import (
    Const,
    Expr,
    Var,
    _domain_error,
    evaluate,
    free_variables,
    fused_kernel,
    fused_rows,
    gradient_evaluator,
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


def _as_expr(f: Expr | str, names: Sequence[str], what: str) -> Expr:
    """f as a tree over names: the parser rejects a string's unknown names, a walk a tree's."""
    if isinstance(f, str):
        return parse(f, names)
    extra = free_variables(f) - set(names)
    if extra:
        raise ValueError(f"{what} uses unknown names {sorted(extra)}")
    return f


def _point(x, dim: int) -> np.ndarray:
    """x as a float array of shape (dim,), else ValueError: `_Chart.point`'s shape check."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"expected point of shape ({dim},), got {x.shape}")
    return x


def _exceeds(resid: Sequence, tol: float, values=(), vectors=()):
    """max_i |r_i| > tol * max(1, |v|, |w_j|) over the entries r_i of the residual resid.

    The scales are the values v and the entries w_j of each vector w.
    Every entry is a float, or a column of one float per row, and all
    broadcast together; the test is a bool, or a mask of the rows.  As in
    NumPy's max, a NaN in a residual entry or in a scale makes it False.
    """
    worst = abs(resid[0])
    for r in resid[1:]:
        worst = np.maximum(worst, abs(r))  # NaN where any |r_i| is
    out = worst > tol
    for s in (*values, *(u for w in vectors for u in w)):
        out &= worst > tol * abs(s)
    return out


@functools.lru_cache(maxsize=None)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (a, b) of the pairs a < b of m functions, in loop order."""
    return np.triu_indices(m, 1)


def _norm(v: np.ndarray) -> np.ndarray:
    """max |v_i| over the last axis."""
    return abs(v).max(axis=-1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, broadcast: left to right, + 0.0 for +0.0 zero sums, as `_fdot`."""
    return np.add.accumulate(a * b, axis=-1)[..., -1] + 0.0


def _max_abs(values: Sequence[float]) -> float:
    """np.max(np.abs(values)) over floats: NaN when an entry is NaN, unlike Python's max."""
    return math.nan if any(map(math.isnan, values)) else max(map(abs, values))


@functools.lru_cache(maxsize=None)
def _field_program(kind: str, dim: int, m: int) -> dict[str, Callable]:
    """The general-coframe fields of m functions as one straight-line float program.

    kind is "contact" (X_f on a contact chart of dimension dim) or "lifted"
    (X_F on the symplectization of dimension dim, over a base of dim - 1).
    Compiled at its first request and cached, the program writes B^T
    (contact) or omega^T (lifted) as locals, eliminates once on copies of
    them augmented with [eta | df_1 .. df_m] or [dF_1 .. dF_m], and checks
    the solves against the originals.  It makes the checks of
    field_from_gradient, with the same errors: det, the Reeb residual
    (contact), then function by function eta(X_f) = -f, or the solve
    residual and theta(X_F) = F.

    It returns the program's namespace.  Its `solve(point, x, values,
    grads, coframe)` takes the floats of a point, of the m values and
    gradients there and of the (base) `_float_coframe` (`point` is the
    chart's, for the errors).  It returns one list: the components of the
    m fields, then on the contact kind the m Reeb derivatives and the Reeb
    field (at m = 0 the Reeb field alone).  `lines` holds its source
    lines at one point, on which `_field_entries` (at m = 1) and
    `_variational_program` build, and `body` and `result` those of
    `solve`, on which `_field_rows` builds.

    Elimination is `_eliminate`'s on [A | b_1 .. b_k]; a zero pivot
    raises, so det A reads 0.0 there, as NumPy's det does.  No column
    depends on the others, so each function gets the floats of m = 1.
    Sums run left to right from 0.0, as `_fdot`.  The file name
    "<contactmech KIND-field dim=DIM>", with " m=M" unless m = 1, shows in
    profiles and tracebacks.
    """
    lifted = kind == "lifted"
    d = dim - 1 if lifted else dim  # the base dimension
    if lifted:
        from .symplectization import (  # that module imports this one
            _SINGULAR_OMEGA as singular_tol,
            SingularStructureError as singular,
            SymplectizationError as failure,
        )
    else:
        singular_tol, singular, failure = _SINGULAR_DET, ContactConditionError, GeometryError

    # e<i> = eta_i and j<i>_<j> = d_j eta_i; value<a> = f_a and g<a>_<i> = d_i f_a
    grads = [f"g{a}_" for a in range(m)]
    lines = []
    # the matrix entries b<i>_<j> stay for the residual; a<i>_<j> are eliminated
    for i in range(d):
        if lifted:  # omega^T_ij = -r (d_j eta_i - d_i eta_j), then -eta_i
            lines += [f"b{i}_{j} = -r * (j{i}_{j} - j{j}_{i})" for j in range(d)]
            lines.append(f"b{i}_{d} = -e{i}")
        else:  # B^T_ij = (d_j eta_i - d_i eta_j) + eta_i eta_j
            lines += [f"b{i}_{j} = j{i}_{j} - j{j}_{i} + e{i} * e{j}" for j in range(d)]
    if lifted:  # the last row of omega^T: eta, 0
        lines += [f"b{d}_{j} = e{j}" for j in range(d)] + [f"b{d}_{d} = 0.0"]
    # the right-hand sides: dF_a (lifted), or eta and df_a (contact)
    sides = grads if lifted else ["e", *grads]
    for i in range(dim):
        lines += [f"a{i}_{j} = b{i}_{j}" for j in range(dim)]
        lines += [f"a{i}_{dim + c} = {side}{i}" for c, side in enumerate(sides)]

    lines += _eliminate(dim, dim + len(sides),
                        lambda k: [f"if a{k}_{k} == 0.0:", "    raise singular(point(x), 0.0)"])
    lines += [f"if abs(det) <= {singular_tol!r}:", "    raise singular(point(x), det)"]

    resid = [f"u{i}" for i in range(dim)]
    worst = f"{{max(map(abs, ({', '.join(resid)},))):.3e}}"
    where = "at {point(x).tolist()}"
    reeb, etas = [f"s{i}_{dim}" for i in range(dim)], _tup("e", dim)
    if not lifted:
        # the Reeb field R solves B^T R = eta
        lines += [f"u{i} = {_sum([f'b{i}_{j} * {reeb[j]}' for j in range(dim)])} - e{i}"
                  for i in range(dim)]
        lines += [f"if {_checked(resid, _RESIDUAL_TOL, '()', f'({etas},)')}:",
                  f"    raise failure(f'Reeb solve residual {worst} {where}')"]
    for a, g in enumerate(grads):
        X, value = [f"X{a}_{i}" for i in range(dim)], f"value{a}"
        field = f"({_tup(f'X{a}_', dim)},)"
        if lifted:
            # X_a solves omega^T X_a = dF_a
            lines += [f"{X[i]} = s{i}_{dim + a}" for i in range(dim)]
            lines += [f"u{i} = {_sum([f'b{i}_{j} * {X[j]}' for j in range(dim)])} - {g}{i}"
                      for i in range(dim)]
            lines += [f"if {_checked(resid, _RESIDUAL_TOL, '()', f'({_tup(g, dim)},)')}:",
                      f"    raise failure(f'field solve residual {worst} {where}')",
                      f"gap = {_sum([f'r * e{j} * {X[j]}' for j in range(d)])} - {value}",
                      # the identity binds homogeneous F only
                      f"if ({_checked(['gap'], 1e-8, f'({value},)', field)}"
                      f" and not _exceeds((r * {g}{d} - {value},), {_RESIDUAL_TOL!r}, "
                      f"({value},))):",
                      "    raise failure(f'theta(X_F) = F violated by {abs(gap):.3e} "
                      f"for homogeneous F {where}')"]
        else:
            # y_a = B^-T df_a and X_a = y_a - (R(f_a) + f_a) R
            lines += [f"rf{a} = {_sum([f'{g}{j} * {reeb[j]}' for j in range(dim)])}",
                      f"c = rf{a} + {value}"]
            lines += [f"{X[i]} = s{i}_{dim + 1 + a} - c * {reeb[i]}" for i in range(dim)]
            lines += [f"pairing = {_sum([f'e{j} * {X[j]}' for j in range(dim)])} + {value}",
                      f"if {_checked(['pairing'], 1e-8, f'({value},)', field)}:",
                      "    raise failure(f'field invariant eta(X_f) = -f violated by "
                      f"{{abs(pairing):.3e}} {where}')"]
    outputs = [f"X{a}_{i}" for a in range(m) for i in range(dim)]
    if not lifted:
        outputs += [f"rf{a}" for a in range(m)] + reeb
    body = [f"[{_names('value', m)}] = values",
            f"[{', '.join(_tup(g, dim) for g in grads)}] = grads",
            *(["r = x[-1]"] if lifted else []), f"{_coframe_names(d)} = coframe", *lines]
    result = f"[{', '.join(outputs)}]"
    source = ["def solve(point, x, values, grads, coframe):",
              *[f"    {line}" for line in [*body, f"return {result}"]]]
    namespace = {"_exceeds": _exceeds, "singular": singular, "failure": failure,
                 "lines": lines, "body": body, "result": result}
    count = "" if m == 1 else f" m={m}"
    program(f"<contactmech {kind}-field dim={dim}{count}>", source, namespace, "solve")
    return namespace


@functools.lru_cache(maxsize=None)
def _field_rows(kind: str, dim: int, m: int) -> Callable:
    """The row-block twin of `_field_program(kind, dim, m)`'s solve, over NumPy columns.

    `rows(x, values, grads, coframe)` takes solve's arguments with the
    point axis last, a column per float (x (dim, N) and so on), and
    returns solve's outputs at each of the N points, (outputs, N),
    bitwise solve's there: it runs solve's lines as `_columns` renders
    them, with + - * / and abs as ufuncs, whose floats are correctly
    rounded, each pivot swap taken per row, and each check by `_exceeds`
    over the columns.  Where a check fails at any point it returns None,
    and `in_blocks` reruns the block through solve point by point, which
    raises that point's error.  Compiled at the first stack, as
    "<contactmech KIND-field dim=DIM[ m=M] rows>".
    """
    field = _field_program(kind, dim, m)
    lines = ["def rows(x, values, grads, coframe):",
             *[f"    {line}" for line in _columns(field["body"])],
             f"    return _array({field['result']})"]
    namespace = {"_exceeds": _exceeds, "_where": np.where, "_array": np.array,
                 "_count": np.count_nonzero}
    count = "" if m == 1 else f" m={m}"
    return program(f"<contactmech {kind}-field dim={dim}{count} rows>", lines, namespace, "rows")


def _coframe_names(d: int, jet: bool = False) -> str:
    """The unpacking target of the fused kernel of eta's d coefficients (`_coeff_kernel`).

    Per coefficient i: e<i> = eta_i, j<i>_<a> = d_a eta_i and, in a jet
    (`_coeff_jet`), he<i>_<a>_<b> = d_a d_b eta_i.
    """
    def entries(i: int) -> list[str]:
        hessian = [f"he{i}_{a}_{b}" for a in range(d) for b in range(d)] if jet else []
        return [f"e{i}", *(f"j{i}_{a}" for a in range(d)), *hessian]

    return "".join(f"{name}, " for i in range(d) for name in entries(i))


@functools.lru_cache(maxsize=None)
def _variational_program(kind: str, dim: int) -> Callable:
    """`bind(jet, coefficients, point)`: the variational closure of X_f on a general coframe.

    The closure maps the float list x, dx_1 .. dx_k to X_f(x), DX_f(x) dx_1
    .. DX_f(x) dx_k; a state whose length is not a multiple of dim goes to
    the chart's `point`.  It runs the lines of `_field_program(kind, dim, 1)`,
    checks and errors included, once on f's jet, a `fused_kernel` with jet
    whose flat tuple it unpacks as value0, g0_<i> and h<i>_<j>, and on the
    fused jet kernel of eta's coefficients (`_coeff_jet`), in which a
    constant coefficient is literals.  Per tangent it eliminates again on a
    copy of B^T (omega^T), without the pivot tests the field's elimination
    made; with df' = Hess f dx and c = R(f) + f it solves
        B^T [dR | Y] = [d eta - dB^T R | df' - c d eta - dB^T X],
        DX_f dx = Y - (R . df' + df . dR + df(dx)) R,   or
        omega^T DX_F dx = df' - d omega^T X.
    Compiled at its first request as "<contactmech KIND-variational dim=DIM>".
    """
    namespace = dict(_field_program(kind, dim, 1))  # with the names its lines use
    lifted = kind == "lifted"
    d = dim - 1 if lifted else dim

    def col(prefix: str, count: int = dim) -> list[str]:
        return [f"{prefix}{i}" for i in range(count)]

    def dot(u: Sequence[str], v: Sequence[str]) -> str:
        return _sum([f"{a} * {b}" for a, b in zip(u, v)])

    dx, dg, X, R = map(col, ("dx", "dg", "X0_", "R"))
    hessian = ", ".join(_names(f"h{i}_", dim) for i in range(dim))  # f's, row by row
    solved = [f"s{i}_{dim}" for i in range(dim)]  # dR, or DX_F dx
    tangent = [f"dg{i} = {dot(col(f'h{i}_'), dx)}" for i in range(dim)]
    tangent += [f"de{i} = {dot(col(f'j{i}_', d), dx)}" for i in range(d)]
    tangent += [f"dj{i}_{a} = {dot(col(f'he{i}_{a}_', d), dx)}" for i in range(d) for a in range(d)]
    if lifted:  # the entries of d omega^T
        tangent += [f"db{i}_{j} = -dx{d} * (j{i}_{j} - j{j}_{i}) - r * (dj{i}_{j} - dj{j}_{i})"
                    for i in range(d) for j in range(d)]
        tangent += [*(f"db{i}_{d} = -de{i}" for i in range(d)),
                    *(f"db{d}_{j} = de{j}" for j in range(d)), f"db{d}_{d} = 0.0"]
    else:  # the entries of dB^T
        tangent += [f"db{i}_{j} = dj{i}_{j} - dj{j}_{i} + de{i} * e{j} + e{i} * de{j}"
                    for i in range(d) for j in range(d)]
    # the right-hand sides, with the entries of dB^T v (d omega^T v) from rows db<i>_
    sides = [[f"dg{i} - ({dot(col(f'db{i}_'), X)})" for i in range(dim)]] if lifted else [
        [f"de{i} - ({dot(col(f'db{i}_'), R)})" for i in range(dim)],
        [f"dg{i} - c * de{i} - ({dot(col(f'db{i}_'), X)})" for i in range(dim)]]
    for i in range(dim):
        tangent += [f"a{i}_{j} = b{i}_{j}" for j in range(dim)]
        tangent += [f"a{i}_{dim + c} = {side[i]}" for c, side in enumerate(sides)]
    tangent += _eliminate(dim, dim + len(sides), lambda k: [])
    if not lifted:
        tangent.append(f"w = {dot(R + col('g0_') + col('g0_'), dg + solved + dx)}")
    outputs = solved if lifted else [f"s{i}_{dim + 1} - w * R{i}" for i in range(dim)]
    fiber_test = " or x[-1] <= 0.0" if lifted else ""
    body = [f"x = state[:{dim}]", f"if len(state) % {dim}:", "    point(state)",
            f"if len(x) != {dim}{fiber_test}:", "    point(x)",
            f"value0, {_names('g0_', dim)}, {hessian} = jet(x)",
            *(["r = x[-1]"] if lifted else []),
            f"{_coframe_names(d, True)}= coefficients(x)",
            *namespace["lines"],
            # R: the tangents' eliminations overwrite s<i>_<dim>
            *([] if lifted else [f"{', '.join(R)}, = {', '.join(solved)},"]),
            f"out = [{', '.join(X)}]",
            f"for start in range({dim}, len(state), {dim}):",
            f"    {', '.join(dx)}, = state[start : start + {dim}]",
            *[f"    {line}" for line in tangent],
            f"    out += [{', '.join(outputs)}]",
            "return out"]
    source = ["def bind(jet, coefficients, point):", "    def variational(state):",
              *[f"        {line}" for line in body], "    return variational"]
    return program(f"<contactmech {kind}-variational dim={dim}>", source, namespace, "bind")


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

    No point at all, or a non-finite one, raises ValueError naming the
    check, so that no verdict passes without evidence.
    """
    if points is None:
        points = sample()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        raise ValueError(f"{check} needs at least one point, got none")
    bad = _first(~np.isfinite(points).all(axis=-1))
    if bad is not None:
        raise ValueError(f"{check} needs finite points, got {points[bad].tolist()}")
    return points


def _rows(stack, i: int):
    if isinstance(stack, Jets):
        return Jets._make(entry[i : i + 1] for entry in stack)
    return stack[i : i + 1]


class _Chart:
    """Points, functions and Hamiltonian fields of contact and symplectized charts.

    A subclass sets `coordinates`, `dim`, `_closed_field` (its module's
    standard-form template `_darboux_field`, or None on general coframes),
    `_kind`, its kind of `_field_program` and `_variational_program`, and
    `_eta_chart`, the ContactChart whose eta these read (itself or the
    symplectization's base).  The fields (`field_from_gradient`,
    `_fields`) are this class's: the template on standard-form charts,
    the kind's field program otherwise.
    """

    coordinates: tuple[str, ...]
    dim: int
    _kind: str
    _eta_chart: "ContactChart"

    def point(self, x) -> np.ndarray:
        return _point(x, self.dim)

    def points(self, xs) -> np.ndarray:
        """A stack of points, shape (N, dim); `point` for each row."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (N, {self.dim}), got {xs.shape}")
        return xs

    def function(self, f: Expr | str) -> Expr:
        return _as_expr(f, self.coordinates, "function")

    def value_and_gradient(self, f: Expr, x: np.ndarray) -> tuple[float, np.ndarray]:
        return gradient_evaluator(f, self.coordinates)(x)

    def _solved(self, xs: np.ndarray, values, grads, coframes=None) -> list[np.ndarray]:
        """The outputs of `_field_program` at points xs (..., dim) of a general coframe, as arrays.

        values (..., m) and grads (..., m, dim) are those of m functions at
        each point, or values (...) and grads (..., dim) those of one;
        `coframes` is _float_coframes(xs) when already known, computed
        first otherwise.  A stack runs the program's row-block twin
        (`_field_rows`) once per block of rows; a block with a failing
        point or of few rows, and a single point, run the program itself
        (`in_blocks`), so every value is the program's at its point and
        every error is raised at the first failing point.  It returns the fields, shaped like
        grads, and on a contact chart the Reeb derivatives, shaped like
        values, and the Reeb field (..., dim).
        """
        lead, dim = xs.shape[:-1], self.dim
        values, grads = np.asarray(values, dtype=float), np.asarray(grads, dtype=float)
        count, m = math.prod(lead), 1 if grads.ndim == xs.ndim else values.shape[-1]
        if coframes is None:
            coframes = self._float_coframes(xs)
        solve = functools.partial(_field_program(self._kind, dim, m)["solve"], self.point)
        shapes = (grads.shape, values.shape, lead + (dim,))[: 1 if self._kind == "lifted" else 3]
        ends = np.cumsum([math.prod(shape[len(lead):]) for shape in shapes])
        out = in_blocks(_field_rows(self._kind, dim, m) if lead else None, solve, int(ends[-1]),
                        xs.reshape(count, dim), values.reshape(count, m),
                        grads.reshape(count, m, dim), coframes)
        parts = np.split(out, ends[:-1], axis=1)
        return [part.reshape(shape) for part, shape in zip(parts, shapes)]

    def _float_coframes(self, xs: np.ndarray) -> np.ndarray:
        """`_eta_chart`'s `_float_coframe` floats at each (base) point of xs (..., dim), as rows.

        A stack runs the twin of eta's fused kernel (`_coeff_rows`) once per
        block of rows, and a block it cannot vouch for, as a single point,
        runs `_float_coframe` row by row (`in_blocks`).
        """
        chart = self._eta_chart
        d = chart.dim
        twin = chart._coeff_rows if xs.ndim > 1 else None
        return in_blocks(twin, chart._float_coframe, d * (d + 1), xs[..., :d].reshape(-1, d))

    def field_from_gradient(self, x, value: float, grad) -> np.ndarray:
        """Hamiltonian field at x of a function with the given value and gradient; see `_fields`."""
        return self._fields(self.point(x), value, np.asarray(grad, dtype=float))

    def _fields(self, xs: np.ndarray, values, grads: np.ndarray, coframes=None) -> np.ndarray:
        """Fields of functions with values and gradients at points xs (..., dim).

        Shapes and `coframes` as in `_solved`.  General coframes return
        `_solved`'s fields, with every check and error of `_field_program`.
        Standard-form charts run the closed form `_closed_field` over
        arrays, unchecked like `_field_entries`' lines for it: eta(X_f) =
        -f and theta(X_F) = F hold there identically.
        """
        if self._closed_field is None:
            return self._solved(xs, values, grads, coframes)[0]
        x = xs if grads.ndim == xs.ndim else xs[..., None, :]
        return _stacked(self._closed_field, (self.dim - 1) // 2, x, values, grads)

    def hamiltonian_field_at(self, f: Expr | str, x) -> np.ndarray:
        """Hamiltonian field of f at x; see field_from_gradient."""
        f = self.function(f)
        x = self.point(x)
        value, grad = self.value_and_gradient(f, x)
        return self.field_from_gradient(x, value, grad)

    def hamiltonian_field_jacobian_at(self, f: Expr | str, x) -> np.ndarray:
        """Jacobian d_a X_f^i, rows i, columns a: `_variational` on the unit vectors e_a."""
        dim = self.dim
        run = self._variational(self.function(f))
        state = run([*self.point(x).tolist(), *np.eye(dim).ravel().tolist()])
        return np.reshape(state[dim:], (dim, dim)).T

    def _variational(self, f: Expr) -> Callable[[Sequence[float]], list[float]]:
        """Closure for the variational equation of X_f, over float lists.

        The state is x followed by k tangent vectors dx_1..dx_k; the
        closure returns X_f(x) followed by DX_f(x) dx_1..DX_f(x) dx_k.  It
        is a generated program bound to f's jet, `fused_kernel((f,), names,
        True)`, whose flat tuple it unpacks by name: on standard-form charts
        `_closed_program`'s variational closure, otherwise the chart kind's
        `_variational_program`.
        """
        jet = fused_kernel((f,), self.coordinates, True)
        if self._closed_field is not None:
            return _closed_program(self._closed_field, self.dim)(jet, self.point)
        bind = _variational_program(self._kind, self.dim)
        return bind(jet, self._eta_chart._coeff_jet, self.point)

    def _field_key(self, f: Expr) -> tuple:
        """(kind, `_closed_field`, kernel): the memo key of X_f's `_field_entries` program.

        The kernel is `fused_kernel((f, *eta), names)`: f's value and
        gradient, then on a general coframe those of eta's coefficients; eta
        is empty on standard-form charts, whose template reads no coframe.
        """
        eta = () if self._closed_field is not None else self._eta_chart.eta_coefficients
        return self._kind, self._closed_field, fused_kernel((f, *eta), self.coordinates)


class ContactChart(_Chart):
    """Coordinate chart with a contact coframe.

    Args:
        coordinates: 2n+1 coordinate names, ordered (q_1..q_n, p_1..p_n, z).
        eta: coefficient functions of the contact form, one per coordinate;
            strings are parsed against the coordinate names.  None means the
            standard form dz - p_i dq^i.  The chart takes the closed forms
            (`darboux`) exactly when these are structurally the standard's.
    """

    _kind = "contact"
    _eta_chart = property(lambda self: self)

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
            coeffs = tuple(_as_expr(c, names, "eta coefficient") for c in eta)
        self.eta_coefficients = coeffs
        self.darboux = coeffs == standard
        self._closed_field = _darboux_field if self.darboux else None

    @functools.cached_property
    def _coeff_kernel(self) -> Callable:
        """The `fused_kernel` of eta's coefficients, fetched at first use."""
        return fused_kernel(self.eta_coefficients, self.coordinates)

    @functools.cached_property
    def _coeff_rows(self) -> Callable:
        """The row-block twin (`fused_rows`) of `_coeff_kernel`."""
        return fused_rows(self._coeff_kernel)

    @functools.cached_property
    def _coeff_jet(self) -> Callable:
        """The fused jet kernel (`fused_kernel` with jet) of eta's coefficients."""
        return fused_kernel(self.eta_coefficients, self.coordinates, True)

    def env(self, x) -> dict[str, float]:
        return dict(zip(self.coordinates, map(float, x)))

    # -- coframe -------------------------------------------------------------
    #
    # The private methods below take points of shape (..., dim): a single
    # point, or a stack with any leading axes.

    def eta_at(self, x) -> np.ndarray:
        return self._etas(self.point(x))

    def coframe_at(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(eta, d eta) at x, from one run of the coefficients' fused kernel."""
        return self._coframes(self.point(x))

    def _float_coframe(self, x) -> tuple[float, ...]:
        """eta_i at x and the gradient of eta_i, for each i in turn, as floats: one kernel call."""
        return self._coeff_kernel(x)

    def _etas(self, xs: np.ndarray) -> np.ndarray:
        """eta at points xs, shape (..., dim)."""
        if not self.darboux:
            return self._coframes(xs)[0]
        n = self.n
        eta = np.zeros(xs.shape)
        eta.T[:n] = -xs.T[n : 2 * n]
        eta.T[-1] = 1.0
        return eta

    def _coframes(self, xs: np.ndarray, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """(eta, d eta) at points xs, shapes (..., dim) and (..., dim, dim).

        General coframes reshape their `_float_coframes(xs)`, `rows` when
        already known.
        """
        if self.darboux:
            n = self.n
            deta = np.zeros(xs.shape + (self.dim,))
            i = np.arange(n)
            deta[..., i, n + i] = 1.0
            deta[..., n + i, i] = -1.0
            return self._etas(xs), deta
        if rows is None:
            rows = self._float_coframes(xs)
        # eta_b at [..., b, 0] and d_a eta_b at [..., b, 1 + a]
        flat = rows.reshape(xs.shape + (self.dim + 1,))
        jac = flat[..., 1:]
        return flat[..., 0], jac.swapaxes(-1, -2) - jac

    def flat_matrix_at(self, x, coframe=None) -> np.ndarray:
        """B = d eta + eta eta^T at a point, or at each row of a stack (N, dim).

        `coframe` is (eta, d eta) there when already known.  A singular B
        raises ContactConditionError at the first such point.
        """
        x = np.asarray(x, dtype=float)
        x = self.point(x) if x.ndim == 1 else self.points(x)
        B = _flat(*(self._coframes(x) if coframe is None else coframe))
        det = np.linalg.det(B)
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
        return self._solved(x, np.empty(0), np.empty((0, self.dim)))[2]

    def reeb_derivative(self, f: Expr | str, x) -> float:
        """R(f), the Reeb derivative of a function."""
        f = self.function(f)
        x = self.point(x)
        value, grad = self.value_and_gradient(f, x)
        if self.darboux:
            return float(grad[-1])
        return float(self._solved(x, value, grad)[1])

    # -- Hamiltonian fields ----------------------------------------------------

    def _jets(self, xs: np.ndarray, values: np.ndarray, grads: np.ndarray, coframes=None) -> Jets:
        """Jets of k functions with values (..., k) and gradients (..., k, dim) at xs.

        `coframes` is _float_coframes(xs) on a general coframe when
        already known.
        """
        if self.darboux:
            return Jets(xs, values, grads, self._fields(xs, values, grads), grads[..., -1])
        fields, reeb, _ = self._solved(xs, values, grads, coframes)
        return Jets(xs, values, grads, fields, reeb)

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
        bad = _first(_exceeds((gap,), _RESIDUAL_TOL, (first, second)))
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
    components = template(n, x.T, value, grad.T, _fdot)
    for i, component in enumerate(components):
        XT[i] = component
    return X


@functools.lru_cache(maxsize=None)
def _closed_program(template, dim: int) -> Callable:
    """`bind(jet, point)`: the variational closure of a standard-form template on dim coordinates.

    The template runs once over forward-mode pairs (`_Dual`) of `_Source`
    symbols: x with dx, f with df(dx) and df with Hess f dx.  `bind` takes
    f's jet, a `fused_kernel` with jet whose flat tuple it unpacks as value,
    g<i> and the Hessian rows h<i>_<j>, and the closure maps the float list
    x, dx_1 .. dx_k to X_f(x) and the tangents DX_f(x) dx_j, making the
    float operations of their values over floats, in their order.  Like
    `_variational_program`, it sends a state of fewer or of a length that is
    not a multiple of dim floats to `point`, the chart's shape ValueError;
    it does not test the fiber sign.  Compiled at the first
    `variational_evaluator`, as "<contactmech closed-variational dim=DIM>".
    """
    x, g = ([_Dual(_Source(f"{v}{i}"), _Source(f"d{v}{i}")) for i in range(dim)] for v in "xg")
    hessian = ", ".join(_names(f"h{i}_", dim) for i in range(dim))
    X = template((dim - 1) // 2, x, _Dual(_Source("value"), _Source("dvalue")), g, _fdot)
    tangent = [f"{_names('dx', dim)}, = x[start : start + {dim}]",
               f"dvalue = {_sum([f'g{j} * dx{j}' for j in range(dim)])}",
               *[f"dg{i} = {_sum([f'h{i}_{j} * dx{j}' for j in range(dim)])}"
                 for i in range(dim)], f"out += [{', '.join(c.b for c in X)}]"]
    # x is the state; the kernel reads its first dim entries, the point, which
    # is short exactly when the state is
    body = [f"if len(x) < {dim} or len(x) % {dim}:", "    point(x)",
            f"value, {_names('g', dim)}, {hessian} = jet(x)",
            f"{_names('x', dim)}, = x[:{dim}]", f"out = [{', '.join(c.a for c in X)}]",
            f"for start in range({dim}, len(x), {dim}):", *[f"    {line}" for line in tangent],
            "return out"]
    source = ["def bind(jet, point):", "    def variational(x):",
              *[f"        {line}" for line in body], "    return variational"]
    return program(f"<contactmech closed-variational dim={dim}>", source, {}, "bind")


@functools.lru_cache(maxsize=512)
def _field_entries(kind: str, template, kernel) -> tuple[Callable, Callable]:
    """X_f's field program: its entries `at(x0, .., x<dim-1>)` and `field(values)`.

    kernel is the `fused_kernel` that `_Chart._field_key` gives: of f alone
    on standard-form charts (template, the chart's `_closed_field`, not
    None), otherwise of f and eta's coefficients.  `at` takes the dim
    floats of a state, as the Fehlberg step `flows._step_program` passes
    them, and returns X_f there as a float list: the kernel's lines after
    its input conversions, in a try block that raises their
    EvaluationDomainError, then the field.  On
    standard-form charts that is the template over `_Source` symbols of
    the floats and the kernel's outputs, unchecked; otherwise the lines of
    `_field_program(kind, dim, 1)` on the kernel's outputs (lifted: less
    eta's r-derivatives), with `point(x)` spelled as the floats, checks and
    errors included.  `field` is `_System.field_evaluator`'s closure: a
    point of other than dim entries goes to `_point`, the chart's shape
    ValueError; the kernel's input conversions make its entries floats; a
    general coframe's lifted kind tests the fiber as `SympChart.point`
    does; then it returns `at` there.  Memoised per chart kind and kernel,
    hence per tree signature, and compiled as
    "<contactmech KIND-field dim=DIM kernel N>".
    """
    dim, lines, _, outputs, errors = kernel.emitted
    lifted = kind == "lifted"
    d = dim - 1 if lifted else dim
    source = [f"def at({_names('x', dim)}):"]
    failures = {}  # a line of the program -> the kernel's error entry of the line it copies
    if len(lines) > dim:
        source.append("    try:")
        failures = {len(source) + 1 + k - dim: errors[k] for k in errors}
        source += [*(f"        {line}" for line in lines[dim:]),
                   "    except (ArithmeticError, ValueError) as exc:",
                   "        raise _domain_error(exc) from None"]
    solve = {} if template is not None else _field_program(kind, dim, 1)
    namespace = {**kernel.__globals__, **solve, "point": np.array, "_point": _point,
                 "_domain_error": functools.partial(_domain_error, failures)}
    if template is not None:
        value, *grad = map(_Source, outputs)
        X = template((dim - 1) // 2, [_Source(f"x{i}") for i in range(dim)], value, grad, _fdot)
    else:
        # f's value and gradient, then eta_i and its gradient over the d base coordinates
        taken = [*outputs[: dim + 1], *(e for i in range(1, d + 1)
                                        for e in outputs[i * (dim + 1) : i * (dim + 1) + d + 1])]
        names = ["value0", *(f"g0_{i}" for i in range(dim)), *_coframe_names(d).split(", ")[:-1]]
        state = f"point({_tup('x', dim)})"
        source += [*(f"    {name} = {value}" for name, value in zip(names, taken)),
                   *([f"    r = x{d}"] if lifted else []),
                   *(f"    {line.replace('point(x)', state)}" for line in solve["lines"])]
        X = [f"X0_{i}" for i in range(dim)]
    source += [f"    return [{', '.join(X)}]", "def field(values):",
               f"    if len(values) != {dim}:", f"        _point(values, {dim})",
               *(f"    {line}" for line in lines[:dim])]
    if lifted and template is None:
        source += [f"    if x{d} <= 0.0:",
                   f"        raise ValueError(f'fiber coordinate must be positive, got {{x{d}}}')"]
    source.append(f"    return at({_names('x', dim)})")
    name = kernel.__code__.co_filename.replace("<contactmech",
                                               f"<contactmech {kind}-field dim={dim}")
    field = program(name, source, namespace, "field")
    return namespace["at"], field


def _flat(eta: np.ndarray, deta: np.ndarray) -> np.ndarray:
    """Flat matrices B = d eta + eta eta^T of coframes."""
    return deta + eta[..., :, None] * eta[..., None, :]


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

    @functools.cached_property
    def _fused(self) -> Callable:
        """The integrals' `fused_kernel`, fetched at first use: f_a and df_a in turn, flat."""
        return fused_kernel(self.integrals, self.coordinates)

    @functools.cached_property
    def _fused_rows(self) -> Callable:
        """The row-block twin (`fused_rows`) of `_fused`, at first use."""
        return fused_rows(self._fused)

    def gradient_stack(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Values (N, m) and gradients (N, m, dim) of the integrals at the rows of xs.

        The fused kernel's row-block twin runs once per block of rows, and
        a block it cannot vouch for runs the kernel row by row
        (`in_blocks`): each row's floats are the kernel's at that row, and
        the first failing row raises the kernel's error.
        """
        xs = self.chart.points(xs)
        m, width = len(self.integrals), self.dim + 1
        # each program is fetched when a block first runs on it
        flat = in_blocks(lambda columns: self._fused_rows(columns), lambda x: self._fused(x),
                         m * width, xs)
        jets = flat.reshape(len(xs), m, width)
        return jets[..., 0], jets[..., 1:]

    def integral_values(self, x) -> np.ndarray:
        """The integrals' values at x, from one call of the fused kernel."""
        return np.array(self._fused(self.chart.point(x).tolist())[:: self.dim + 1])

    def hamiltonian_field_at(self, f: FunctionLike, x) -> np.ndarray:
        return self.chart.hamiltonian_field_at(self.resolve(f), x)

    @functools.cached_property
    def _bound(self) -> dict:
        """`_entries`' memo: integral index -> the entries of its field program."""
        return {}

    def _entries(self, f: FunctionLike) -> tuple[Callable, Callable]:
        """The chart's `_field_entries` of f, kept per system for an integral (index or tree)."""
        if not isinstance(f, int):
            f = next((a for a, tree in enumerate(self.integrals) if tree is f), f)
            if not isinstance(f, int):
                return _field_entries(*self.chart._field_key(self.resolve(f)))
        if f not in self._bound:
            self._bound[f] = _field_entries(*self.chart._field_key(self.resolve(f)))
        return self._bound[f]

    def field_evaluator(self, f: FunctionLike) -> Callable[[Sequence[float]], list[float]]:
        """Closure computing X_f as a list of floats: the Jacobian columns of the angle solves.

        The list entry of the chart's `_field_entries` program of f: f's
        kernel and the field lines, with the checks and errors of
        field_from_gradient on general coframes; on standard-form charts the
        floats of the template over floats (`_fdot`), unchecked.  A point of
        other than dim entries raises the chart's shape ValueError, and on a
        general coframe's symplectization a fiber <= 0 `SympChart.point`'s.
        The system's own integrals get the program bound at their first call.
        """
        return self._entries(f)[1]

    def _field(self, f: FunctionLike) -> Callable:
        """X_f as `at(x0, .., x<dim-1>)`, the other entry of `field_evaluator`'s program.

        Every flow of f calls it in the stages of the shared Fehlberg step
        (`flows._step_program`); it tests neither the point's shape nor the fiber.
        """
        return self._entries(f)[0]

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


class ContactConditionReport(NamedTuple):
    min_abs_det: float
    worst_point: np.ndarray
    threshold: float
    n_points: int
    passed: bool


def contact_condition_check(
    chart: ContactChart, points: np.ndarray, threshold: float = 1e-8, rows=None
) -> ContactConditionReport:
    """Minimum |det B| over sample points; passes above the threshold.

    rows is chart._float_coframes(points) on a general coframe when
    already known, as for the jets of the same points.
    """
    points = _check_points("contact_condition_check", points)
    dets = np.abs(np.linalg.det(_flat(*chart._coframes(chart.points(points), rows))))
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
