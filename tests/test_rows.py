"""Row-block programs against the float programs they twin, row by row.

A point stack runs each generated float program's row-block twin once per
block of rows (`_programs.in_blocks`): the fused integral and coefficient
kernels (`expressions.fused_rows`) and the general-coframe field programs
(`geometry._field_rows`).  Every value must be the float program's at its
row, bitwise (a NaN reads as any NaN), and a stack with a failing row must
raise the float program's error at the first such row.  A clean stack must
not reach the float programs at all.
"""

from __future__ import annotations

import functools
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactmech import _programs
from contactmech.config import bundled_config_path, load_config
from contactmech.expressions import (
    Binary,
    Const,
    EvaluationDomainError,
    Power,
    Unary,
    Var,
    fused_kernel,
    fused_rows,
)
from contactmech.geometry import GeometryError, _field_program, _field_rows, contact_condition_check
from contactmech.integrability import _involution, _rank
from contactmech.symplectization import SymplectizationError, lift_check

NAMES = ("q", "p", "z")
GOLDEN = Path(__file__).parent / "data" / "golden"

_LEAVES = st.one_of(
    st.sampled_from([Var("q"), Var("p"), Var("z")]),
    st.sampled_from([Const(0.0), Const(-0.0), Const(math.inf), Const(math.nan)]),
    st.floats(min_value=-4.0, max_value=4.0).map(lambda v: Const(float(v))),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: Binary(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(("neg", "exp", "log", "sqrt", "sin", "cos", "tanh")),
                  children).map(lambda t: Unary(t[0], t[1])),
        # integer and non-integer exponents, negative ones included
        st.tuples(children, st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, 1.5, -0.5])).map(
            lambda t: Power(t[0], t[1])
        ),
    )


@st.composite
def _families(draw):
    """1 to 4 trees built over a few shared subtrees, so that subtrees repeat within and across."""
    shared = draw(st.lists(st.recursive(_LEAVES, _extend, max_leaves=5), min_size=1, max_size=3))
    pieces = st.recursive(st.one_of(_LEAVES, st.sampled_from(shared)), _extend, max_leaves=5)
    return draw(st.lists(pieces, min_size=1, max_size=4))


# ordinary coordinates, and the edges of exp (overflow, underflow), log and
# sqrt (zero of either sign, tiny of either sign) and of every operation
_COORDS = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 709.0, 710.0, -746.0,
                     1e300, -1e300, math.inf, -math.inf, math.nan]),
)


def _same(got, want) -> bool:
    """Bitwise equal floats, a NaN matching any NaN."""
    def bits(values):
        return [b"nan" if math.isnan(v) else struct.pack("<d", v) for v in values]

    return bits(np.ravel(got).tolist()) == bits(np.ravel(want).tolist())


def _per_row(row, *stacks):
    """The float program at each row in turn: (rows, None), or (rows so far, (error, row))."""
    out = []
    for i, entries in enumerate(zip(*(stack.tolist() for stack in stacks))):
        try:
            out.append(list(row(*entries)))
        except (ArithmeticError, ValueError, GeometryError, SymplectizationError) as exc:
            return out, (type(exc), str(exc), i)
    return out, None


def _in_blocks(twin, row, width, *stacks, block):
    """in_blocks at a block size: its array, or the error and the failing row's entries."""
    seen = []

    def recorded(*entries):
        seen.append(entries)
        return row(*entries)

    old = _programs._BLOCK, _programs._MIN_ROWS
    _programs._BLOCK, _programs._MIN_ROWS = block, 1
    try:
        return _programs.in_blocks(twin, recorded, width, *stacks), None, seen
    except (ArithmeticError, ValueError, GeometryError, SymplectizationError) as exc:
        return None, (type(exc), str(exc), seen[-1]), seen
    finally:
        _programs._BLOCK, _programs._MIN_ROWS = old


def _check_twin(twin, row, width, *stacks):
    """The twin at every prefix block and in_blocks at block sizes 1, 2 and 3, against the rows."""
    want, failure = _per_row(row, *stacks)
    count = len(stacks[0])
    for end in range(1, count + 1):
        block = [stack[:end] for stack in stacks]
        with np.errstate(all="ignore"):
            try:
                got = twin(*(np.moveaxis(entries, 0, -1) for entries in block))
            except (ArithmeticError, ValueError):
                got = None
        if got is not None and np.isfinite(got).all():
            # a value the twin vouches for: no row up to here fails, and each is the row's
            assert failure is None or failure[2] >= end
            assert got.shape == (width, end) and _same(got.T, want[:end])
    for size in (1, 2, 3):
        got, error, seen = _in_blocks(twin, row, width, *stacks, block=size)
        if failure is None:
            assert error is None and got.shape == (count, width) and _same(got, want)
        else:  # the first failing row raises, with the float program's error
            kind, message, row_index = failure
            assert error[:2] == (kind, message)
            assert all(np.array(entry).tobytes() == stack[row_index].tobytes()
                       for entry, stack in zip(error[2], stacks))
    return failure


@settings(max_examples=300, deadline=None)
@given(_families(), st.lists(st.tuples(_COORDS, _COORDS, _COORDS), min_size=1, max_size=6))
def test_kernel_twin_is_the_kernel_row_by_row(trees, points):
    kernel = fused_kernel(trees, NAMES)
    xs = np.array(points, dtype=float)
    failure = _check_twin(fused_rows(kernel), kernel, 4 * len(trees), xs)
    if failure is not None:
        assert failure[0] is EvaluationDomainError


def test_kernel_twin_runs_math_per_entry_and_vouches_for_clean_rows():
    # exp, log, sin, tanh and pow through math, entry by entry, where NumPy's
    # own ufuncs may round otherwise; the twin vouches for every row
    trees = [Unary("exp", Binary("*", Var("q"), Var("p"))),
             Unary("log", Binary("+", Var("p"), Const(2.0))),
             Power(Var("q"), 3.0), Power(Binary("+", Var("z"), Const(5.0)), 2.5),
             Unary("tanh", Var("z")), Unary("sin", Var("q")), Unary("sqrt", Power(Var("p"), 2.0))]
    kernel = fused_kernel(trees, NAMES)
    xs = np.random.default_rng(7).uniform(-1.5, 1.5, size=(400, 3))
    got = fused_rows(kernel)(xs.T)
    assert got is not None and _same(got.T, [kernel(x) for x in xs.tolist()])


def _solve_rows(kind, dim, m, rng, count, family):
    """count rows of solve's arguments: x, values, grads and the (base) coframe."""
    d = dim - 1 if kind == "lifted" else dim

    def draw(*shape):
        if family == "integer":  # ties between pivots, and exactly singular matrices
            return rng.integers(-1, 3, size=shape).astype(float)
        if family == "scaled":  # ill-conditioned, so that the residual checks fail
            return rng.normal(size=shape) * 10.0 ** rng.uniform(-4.0, 4.0, size=shape)
        return rng.normal(size=shape)

    x, values, grads = draw(count, dim), draw(count, m), draw(count, m, dim)
    coframe = draw(count, d * (d + 1))
    if kind == "lifted":
        x[:, -1] = np.abs(x[:, -1]) + 0.5
        if family == "huge":  # r eta so large that theta(X_F) - F overflows
            x[:, -1] = 1e150
            coframe[:, :: d + 1] *= 1e150
            values[:] = 0.0
            grads[..., -1] = 0.0
        else:  # homogeneous F on every other row: r dF/dr = F
            values[::2] = x[::2, -1:] * grads[::2, :, -1]
    return x, values, grads, coframe


def _first_column(kind, d, x, coframe):
    """Column 0 of B^T (contact) or omega^T (lifted), from the coframe rows."""
    e, j = coframe[:, :: d + 1], coframe.reshape(-1, d, d + 1)[..., 1:]
    if kind == "contact":
        return j[:, :, 0] - j[:, 0, :] + e * e[:, :1]
    return np.hstack([-x[:, -1:] * (j[:, :, 0] - j[:, 0, :]), e[:, :1]])


_ERRORS = {
    "contact": {"flat matrix is singular", "Reeb solve residual", "field invariant eta(X_f) = -f"},
    "lifted": {"omega is singular", "field solve residual", "theta(X_F) = F violated"},
}


@pytest.mark.parametrize("kind", ["contact", "lifted"])
def test_field_twin_is_solve_row_by_row(kind):
    # every dimension from 3 to 6 and 0 to 3 functions; the rows reach each
    # check of the kind, and the integer rows tie pivots
    seen, ties = set(), 0
    for dim in range(3, 7):
        d = dim - 1 if kind == "lifted" else dim
        for m in range(0 if kind == "contact" else 1, 4):
            rng = np.random.default_rng(100 * dim + m)
            solve = functools.partial(_field_program(kind, dim, m)["solve"], np.asarray)
            width = m * dim + (0 if kind == "lifted" else m + dim)
            twin = _field_rows(kind, dim, m)
            for family in ("normal", "integer", "scaled", "huge"):
                for _ in range(12):
                    stacks = _solve_rows(kind, dim, m, rng, 6, family)
                    failure = _check_twin(twin, solve, width, *stacks)
                    if failure is not None:
                        seen.update(e for e in _ERRORS[kind] if e in failure[1])
                    # equal nonzero magnitudes in the first pivot column
                    column = np.sort(np.abs(_first_column(kind, d, stacks[0], stacks[3])))
                    ties += np.sum((column[:, 1:] == column[:, :-1]) & (column[:, 1:] > 0.0))
            clean = _solve_rows(kind, dim, m, rng, 40, "normal")
            if _per_row(solve, *clean)[1] is None:
                assert twin(*(np.moveaxis(stack, 0, -1) for stack in clean)) is not None
    assert seen == _ERRORS[kind] and ties > 0


def test_a_failing_row_in_the_second_block_raises_there(monkeypatch):
    monkeypatch.setattr(_programs, "_BLOCK", 8)
    monkeypatch.setattr(_programs, "_MIN_ROWS", 8)
    system = load_config(GOLDEN / "rescaled-pz.json").system()
    xs = system.sample(np.random.default_rng(3), 24)
    xs[11, 0] = 1e6  # exp(q/3) overflows
    rows = []
    system._fused_rows  # the twin of the kernel itself, not of the recording
    monkeypatch.setattr(system, "_fused", _recording(system._fused, rows))
    with pytest.raises(EvaluationDomainError) as raised:
        system.gradient_stack(xs)
    # the first block ran as one, the second row by row up to its failing row
    assert rows == xs[8:12].tolist()
    with pytest.raises(EvaluationDomainError) as expected:
        system._fused(xs[11].tolist())
    assert str(raised.value) == str(expected.value)


def test_a_field_solve_failing_in_the_second_block_raises_its_error():
    rng = np.random.default_rng(11)
    x, values, grads, coframe = _solve_rows("contact", 3, 2, rng, 10, "normal")
    coframe[6] = 0.0  # B = 0: the first pivot is zero
    solve = functools.partial(_field_program("contact", 3, 2)["solve"], np.asarray)
    _, failure = _per_row(solve, x, values, grads, coframe)
    assert failure[2] == 6 and "flat matrix is singular" in failure[1]
    got, error, seen = _in_blocks(_field_rows("contact", 3, 2), solve, 11, x, values, grads,
                                  coframe, block=4)
    assert error[:2] == failure[:2]
    assert [entry[0] for entry in seen] == x[4:7].tolist()


def _recording(run, rows):
    def recorded(x):
        rows.append(list(x))
        return run(x)

    return recorded


def _configs():
    return [bundled_config_path(name) for name in
            ("darboux-pz", "darboux-5d-involutive", "darboux-5d-noninvolutive")] + [
        GOLDEN / "cubic-5d.json", GOLDEN / "rescaled-pz.json"]


@pytest.mark.parametrize("path", _configs(), ids=lambda p: Path(p).stem)
def test_a_clean_stack_never_runs_the_float_programs(path, monkeypatch):
    cfg = load_config(path)
    system, symp = cfg.system(), cfg.symp_system()
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("a clean stack ran a float program")

    for s in (system, symp):
        s._fused_rows  # the twin of the kernel itself, not of refuse
        monkeypatch.setattr(s, "_fused", refuse)
    chart = system.chart
    if not chart.darboux:
        monkeypatch.setattr(type(chart), "_float_coframe", refuse)
        for kind, dim in (("contact", system.dim), ("lifted", symp.dim)):
            for m in (len(system.integrals), 1):
                monkeypatch.setitem(_field_program(kind, dim, m), "solve", refuse)
    rng = np.random.default_rng(5)
    points = system.sample(rng, 100)
    cond = contact_condition_check(chart, points)
    jets = system.jet_stack(points)
    _involution(system, points, jets, 1e-8, 0)
    _rank(system, points, jets.gradients, seed=0)
    lift_check(symp, symp.sample(rng, 50))
    assert calls == [] and np.isfinite(cond.min_abs_det)


def test_a_short_stack_runs_the_kernel_row_by_row(monkeypatch):
    # below `_MIN_ROWS` rows the twin's NumPy calls would cost more than the rows
    system = load_config(bundled_config_path("darboux-pz")).system()
    xs = system.sample(np.random.default_rng(2), _programs._MIN_ROWS - 1)
    rows = []
    monkeypatch.setattr(system, "_fused", _recording(system._fused, rows))
    values, grads = system.gradient_stack(xs)
    assert rows == xs.tolist()
    assert _same(grads, [[system._fused(x)[1 + 4 * a : 4 * (a + 1)] for a in range(2)]
                         for x in xs.tolist()])
