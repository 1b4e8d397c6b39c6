import inspect
import itertools
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactmech import expressions
from contactmech.expressions import (
    Binary,
    Const,
    EvaluationDomainError,
    ExpressionSyntaxError,
    Power,
    Unary,
    UnknownSymbolError,
    Var,
    eval_jet2,
    evaluate,
    free_variables,
    fused_kernel,
    gradient_evaluator,
    parse,
    to_string,
)
from contactmech.geometry import ContactChart, ContactSystem
from contactmech.symplectization import SympSystem
from dual_walk import Dual, dual_gradient, dual_jet2

ENV = {"q": 1.3, "p": 0.7, "z": 2.1}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def test_parse_number_forms():
    assert parse("2") == Const(2.0)
    assert parse("2.5") == Const(2.5)
    assert parse(".5") == Const(0.5)
    assert parse("1e-3") == Const(0.001)
    assert parse("2.5E2") == Const(250.0)


def test_parse_precedence_and_associativity():
    assert evaluate(parse("2 + 3 * 4"), {}) == 14.0
    assert evaluate(parse("2 - 3 - 4"), {}) == -5.0
    assert evaluate(parse("12 / 2 / 3"), {}) == 2.0
    # ^ is right associative and binds tighter than unary minus
    assert evaluate(parse("2 ^ 3 ^ 2"), {}) == 512.0
    assert evaluate(parse("-2 ^ 2"), {}) == -4.0
    assert evaluate(parse("(-2) ^ 2"), {}) == 4.0


def test_parse_constant_exponent_folding():
    node = parse("q ^ (1 + 1)")
    assert node == Power(Var("q"), 2.0)
    node = parse("q ^ -2")
    assert node == Power(Var("q"), -2.0)


def test_parse_rejects_variable_exponent():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("q ^ p")
    assert err.value.offset == 4


def test_parse_structure():
    assert parse("q + p * z") == Binary("+", Var("q"), Binary("*", Var("p"), Var("z")))
    assert parse("-q^2") == Unary("neg", Power(Var("q"), 2.0))
    assert parse("exp(q - p)") == Unary("exp", Binary("-", Var("q"), Var("p")))


def test_syntax_error_offsets():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("q + * p")
    assert err.value.offset == 4
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("(q + p")
    assert err.value.offset == 6
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("q $ p")
    assert err.value.offset == 2
    with pytest.raises(ExpressionSyntaxError):
        parse("")


def test_unknown_symbols():
    with pytest.raises(UnknownSymbolError):
        parse("frob(2)")
    with pytest.raises(UnknownSymbolError):
        parse("q + w", ["q", "p", "z"])
    # no variable list disables the check
    assert parse("q + w") == Binary("+", Var("q"), Var("w"))


def test_free_variables():
    assert free_variables(parse("q * p + exp(z)")) == {"q", "p", "z"}
    assert free_variables(parse("2 + 2")) == frozenset()
    assert free_variables(parse("q ^ 2")) == {"q"}


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "source",
    [
        "q + p + z",
        "q - (p - z)",
        "q - (p + z)",
        "q / (p * z)",
        "(q + p) * z",
        "-q^2.0",
        "(-q)^2.0",
        "q^(-2.0)",
        "exp(q) * sin(p) - sqrt(z)",
        "-(q + p)",
        "2.0 * -p",
    ],
)
def test_printer_round_trip(source):
    tree = parse(source)
    printed = to_string(tree)
    assert parse(printed) == tree
    assert to_string(parse(printed)) == printed


def test_printer_minimal_parens():
    assert to_string(parse("q + (p * z)")) == "q + p * z"
    assert to_string(parse("(q + p) + z")) == "q + p + z"
    assert to_string(parse("q - (p - z)")) == "q - (p - z)"
    assert to_string(parse("q / (p / z)")) == "q / (p / z)"


_LEAVES = st.one_of(
    st.sampled_from([Var("q"), Var("p"), Var("z")]),
    st.floats(min_value=-4.0, max_value=4.0).map(lambda v: Const(float(v))),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: Binary(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(("neg", "exp", "sin", "cos", "tanh")), children).map(
            lambda t: Unary(t[0], t[1])
        ),
        st.tuples(children, st.integers(min_value=0, max_value=3)).map(
            lambda t: Power(t[0], float(t[1]))
        ),
    )


_TREES = st.recursive(_LEAVES, _extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_printer_is_canonical(tree):
    printed = to_string(tree)
    reparsed = parse(printed, ["q", "p", "z"])
    # printing a parsed tree is a fixed point
    assert to_string(reparsed) == printed
    assert parse(to_string(reparsed)) == reparsed


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_gradient_implementations_agree(tree):
    # the kernels against nested duals, one walk per index pair
    names = ("q", "p", "z")
    point = (1.3, 0.7, 2.1)
    try:
        ref = dual_jet2(tree, names, point)
    except EvaluationDomainError:
        ref = None
    try:
        value, grad = gradient_evaluator(tree, names)(point)
        jet = eval_jet2(tree, names, point)
    except EvaluationDomainError as exc:
        # the jet kernel raises where a first derivative overflows, where
        # the walk lets a second derivative become non-finite
        assert ref is None or (
            str(exc).startswith("overflow") and not np.isfinite(ref.hessian).all()
        ), exc
        return
    assert ref is not None
    assert value == jet.value and np.array_equal(grad, jet.gradient, equal_nan=True)
    assert jet.value == pytest.approx(ref.value, rel=1e-12, nan_ok=True)
    for got, want in ((jet.gradient, ref.gradient), (jet.hessian, ref.hessian)):
        assert np.allclose(got, want, rtol=1e-12, atol=0.0, equal_nan=True)
    assert np.array_equal(jet.hessian, jet.hessian.T, equal_nan=True)


# ---------------------------------------------------------------------------
# Evaluation and derivatives
# ---------------------------------------------------------------------------

def test_evaluate_known_values():
    assert evaluate(parse("q^2 + p"), ENV) == pytest.approx(1.3**2 + 0.7)
    assert evaluate(parse("exp(log(z))"), ENV) == pytest.approx(2.1)
    assert evaluate(parse("sqrt(q^2)"), ENV) == pytest.approx(1.3)
    assert evaluate(parse("tanh(0)"), {}) == 0.0


def test_evaluate_missing_variable():
    with pytest.raises(UnknownSymbolError):
        evaluate(parse("q + missing"), {"q": 1.0})


@pytest.mark.parametrize(
    "source",
    ["1 / (q - q)", "log(q - 2)", "sqrt(-q)", "0 ^ -1", "(-q) ^ 0.5"],
)
def test_evaluate_domain_errors(source):
    with pytest.raises(EvaluationDomainError):
        evaluate(parse(source), {"q": 1.0})


def test_domain_error_names_subtree():
    with pytest.raises(EvaluationDomainError) as err:
        evaluate(parse("q + log(p - 1)"), {"q": 1.0, "p": 0.5})
    assert "log(p - 1.0)" in str(err.value)


def test_gradient_against_finite_differences():
    source = "exp(q/4) * sin(p) + z^2 * cos(q) - sqrt(z) * tanh(p*q/3)"
    tree = parse(source)
    names = ("q", "p", "z")
    x = np.array([1.3, 0.7, 2.1])
    value, grad = gradient_evaluator(tree, names)(x)
    assert value == pytest.approx(evaluate(tree, dict(zip(names, x))))
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (
            evaluate(tree, dict(zip(names, x + e)))
            - evaluate(tree, dict(zip(names, x - e)))
        ) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-8)


def test_gradient_of_constant_is_zero():
    value, grad = gradient_evaluator(parse("3.5"), ("q", "p"))((1.0, 2.0))
    assert value == 3.5
    assert np.array_equal(grad, np.zeros(2))


def test_gradient_evaluator_is_reusable():
    run = gradient_evaluator(parse("q * p"), ("q", "p"))
    v1, g1 = run((2.0, 3.0))
    v2, g2 = run((5.0, 7.0))
    assert (v1, list(g1)) == (6.0, [3.0, 2.0])
    assert (v2, list(g2)) == (35.0, [7.0, 5.0])


def test_jet2_polynomial_exact():
    # f = q^2 p + 3 z has constant, known second derivatives
    tree = parse("q^2 * p + 3 * z")
    jet = eval_jet2(tree, ("q", "p", "z"), (2.0, 5.0, 1.0))
    assert jet.value == 23.0
    assert np.allclose(jet.gradient, [20.0, 4.0, 3.0])
    want = np.zeros((3, 3))
    want[0, 0] = 10.0
    want[0, 1] = want[1, 0] = 4.0
    assert np.allclose(jet.hessian, want)


def test_jet2_transcendental_against_analytic():
    tree = parse("exp(q) * sin(p)")
    q, p = 0.4, 1.1
    jet = eval_jet2(tree, ("q", "p"), (q, p))
    eq, sp, cp = math.exp(q), math.sin(p), math.cos(p)
    assert jet.value == pytest.approx(eq * sp)
    assert np.allclose(jet.gradient, [eq * sp, eq * cp])
    assert np.allclose(jet.hessian, [[eq * sp, eq * cp], [eq * cp, -eq * sp]])


def test_dual_sqrt_rejects_zero_derivative():
    with pytest.raises(ZeroDivisionError):
        Dual(0.0, 1.0).sqrt()
    with pytest.raises(EvaluationDomainError):
        gradient_evaluator(parse("sqrt(q)"), ("q",))((0.0,))


# ---------------------------------------------------------------------------
# Compiled gradient kernels
# ---------------------------------------------------------------------------

def _split(flat):
    """(value, gradient) of one tree from the flat tuple of its kernel."""
    return flat[0], flat[1:]


def _outcome(run, point):
    """Value and gradient bytes, or the exception's type and message."""
    try:
        value, grad = run(point)
    except Exception as exc:  # the outcome under comparison
        return type(exc), str(exc)
    grad = np.array(grad, dtype=float)
    # which NaN an operation on two NaNs returns is left open by IEEE 754
    # and differs between NumPy loops and scalar float code
    grad[np.isnan(grad)] = math.nan
    value = math.nan if math.isnan(value) else value
    return struct.pack("<d", value), grad.dtype, grad.shape, grad.tobytes()


_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(min_value=-4.0, max_value=4.0),
)


@settings(max_examples=300, deadline=None)
@given(_TREES, st.lists(st.tuples(_COORDS, _COORDS, _COORDS), min_size=1, max_size=3))
def test_compiled_kernel_matches_dual_walk(tree, points):
    names = ("q", "p", "z")
    compiled = gradient_evaluator(tree, names)
    walk = dual_gradient(tree, names)
    for point in points:
        assert _outcome(compiled, np.array(point)) == _outcome(walk, point)


@pytest.mark.parametrize(
    "source, x, message",
    [
        ("log(x)", 0.0, "log of a nonpositive value in 'log(x)'"),
        ("sqrt(x)", 0.0, "sqrt derivative at zero in 'sqrt(x)'"),
        ("x / -0.0", 1.0, "division by zero in 'x / -0.0'"),
        ("x + 0 ^ -1", 1.0, "zero base with negative exponent in '0.0^(-1.0)'"),
        ("x ^ 0.5", 0.0, "zero base with negative exponent in 'x^0.5'"),
        ("x + (-1) ^ 1.5", 1.0,
         "negative base with non-integer exponent in '(-1.0)^1.5'"),
        ("exp(800 * x)", 1.0, "math range error in 'exp(800.0 * x)'"),
        ("x ^ 2", 1e200, "math range error in 'x^2.0'"),
    ],
)
def test_compiled_kernel_domain_errors(source, x, message):
    tree = parse(source)
    for run in (gradient_evaluator(tree, ("x",)), dual_gradient(tree, ("x",))):
        with pytest.raises(EvaluationDomainError) as err:
            run(np.array([x]))
        assert str(err.value) == message


@pytest.mark.parametrize("source, pows", [("q^1", 0), ("(q + p)^1 * z", 0), ("q^2 * z", 1)])
def test_first_powers_call_no_pow(source, pows):
    # math.pow(a, 1.0) is a and math.pow(a, 0.0) is 1.0 at every float a,
    # ±0, ±inf and NaN included, so the kernels write a^1 as a and the
    # derivative's 1.0 * a^0 as the known 1.0 (a^2's derivative as 2.0 * a,
    # its second derivative's 1.0 * a^0 as 1.0); every value stays the dual
    # walk's, in the kernel, the jet kernel and the kernel's row-block twin,
    # and the jet keeps a^1's a^-1 and its error at a = 0.  The nested-dual
    # Hessian is compared at finite points: elsewhere the walk adds the terms
    # of known zeros that the jet kernel drops
    names = ("q", "p", "z")
    tree = parse(source)
    kernel, jet = fused_kernel((tree,), names), fused_kernel((tree,), names, True)
    twin = expressions.fused_rows(kernel)
    assert inspect.getsource(kernel).count("_pow(") == pows
    assert inspect.getsource(twin).count("_pow(") == pows
    assert inspect.getsource(jet).count("_pow(") == 1
    walk = dual_gradient(tree, names)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.0]
    points = [list(point) for point in itertools.product(specials, repeat=3)]
    finite = [point for point in points if all(map(math.isfinite, point))]
    for point in points:
        assert _outcome(lambda x: _split(kernel(x)), point) == _outcome(walk, point)
        try:
            want = dual_jet2(tree, names, point)
        except EvaluationDomainError as exc:
            with pytest.raises(EvaluationDomainError, match=re.escape(str(exc))):
                jet(point)
            continue
        out = jet(point)
        assert _outcome(lambda x: _split(out[:4]), point) == _outcome(walk, point)
        if point in finite:  # the walk's signed zeros may differ, as its terms do
            assert np.array_equal(np.reshape(out[4:], (3, 3)), want.hessian)
    got = twin(np.array(finite).T)
    assert got is not None
    for row, point in zip(got.T.tolist(), finite):
        assert _outcome(lambda x: _split(row), point) == _outcome(walk, point)
    with np.errstate(all="ignore"):  # as `_programs.in_blocks` runs a twin
        assert twin(np.array(points).T) is None  # infinities and NaNs go to the kernel


def test_overflow_is_a_domain_error():
    with pytest.raises(EvaluationDomainError, match="overflow in 'exp"):
        evaluate(parse("exp(700) * exp(700)"), {})
    with pytest.raises(EvaluationDomainError, match="overflow in 'q / p'"):
        gradient_evaluator(parse("q / p"), ("q", "p"))((1.0, 1e-310))
    with pytest.raises(EvaluationDomainError, match="overflow in 'q \\* q'"):
        eval_jet2(parse("q * q + p"), ("q", "p"), (1e200, 1.0))
    # an overflow inside the tree raises even where the value is finite again
    with pytest.raises(EvaluationDomainError, match="overflow in 'q \\* p'"):
        gradient_evaluator(parse("1 / (q * p)"), ("q", "p"))((1e200, 1e200))
    # non-finite inputs propagate without raising
    assert math.isnan(evaluate(parse("q * 2 + 1"), {"q": math.nan}))
    value, grad = gradient_evaluator(parse("q * p"), ("q", "p"))((math.inf, 2.0))
    assert value == math.inf and grad[1] == math.inf


def test_jet2_raises_where_a_second_derivative_overflows():
    # at 1e-155, f = 1/x is finite and the tangent -1/x^2 overflows to -inf
    # without raising; the jet kernel checks each node's tangent against its
    # value, where the nested-dual walk returns an infinite Hessian
    tree = parse("1 / x")
    assert dual_jet2(tree, ("x",), (1e-155,)).hessian[0, 0] == math.inf
    with pytest.raises(EvaluationDomainError, match=r"^overflow in '1.0 / x'$"):
        eval_jet2(tree, ("x",), (1e-155,))


def test_kernels_compile_lazily_once_per_expression_and_names():
    compiled = expressions._kernel.cache_info
    expressions._kernel.cache_clear()
    names = ("q", "p", "z")
    eta = ["-exp(q/3)*p", "0", "exp(q/3)"]
    integrals = ["exp(q/3)*p", "exp(q/3)*z"]
    region = {"q": (-1.0, 1.0), "p": (0.5, 2.0), "z": (0.5, 2.0)}
    system = ContactSystem(ContactChart(names, eta), integrals, region)
    symp = SympSystem(system)
    assert compiled().misses == 0 and compiled().currsize == 0
    x = np.array([0.3, 1.1, 0.9])
    system.values_and_gradients(x)
    system.values_and_gradients(x)
    assert compiled().misses == 2
    # eta's three coefficients compile into one fused kernel
    system.chart.coframe_at(x)
    assert compiled().misses == 3
    # the lifted integrals are new expressions in the names (q, p, z, r)
    symp.values_and_gradients(np.append(x, 1.5))
    assert compiled().misses == 5
    # equal trees in equal names share the memoised kernels
    again = ContactSystem(ContactChart(names, eta), integrals, region)
    again.values_and_gradients(x)
    again.chart.coframe_at(x)
    assert compiled().misses == 5 and compiled().hits == 3
    # the integrals' fused kernel compiles once, at the first stack
    system.gradient_stack(x[None])
    again.gradient_stack(x[None])
    assert compiled().misses == 6 and compiled().hits == 4


# ---------------------------------------------------------------------------
# Tree arithmetic
# ---------------------------------------------------------------------------

def _same_tree(built, explicit):
    # == treats Const(0.0) and Const(-0.0) alike; the kernel signature does not
    assert built == explicit
    assert expressions._signature(built) == expressions._signature(explicit)


def test_tree_arithmetic_builds_the_constructor_trees():
    q, p, z = Var("q"), Var("p"), Var("z")
    names = ("q", "p", "z")
    cases = [
        (q + p, Binary("+", q, p)),
        (q - p, Binary("-", q, p)),
        (q * p, Binary("*", q, p)),
        (q / p, Binary("/", q, p)),
        (-q, Unary("neg", q)),
        (q + 2, Binary("+", q, Const(2.0))),
        (q - 0.5, Binary("-", q, Const(0.5))),
        (q * -0.0, Binary("*", q, Const(-0.0))),
        (q / 4, Binary("/", q, Const(4.0))),
        (2.5 + q, Binary("+", Const(2.5), q)),
        (1 - q, Binary("-", Const(1.0), q)),
        (-0.0 * q, Binary("*", Const(-0.0), q)),
        (1.0 / q, Binary("/", Const(1.0), q)),
        (np.float64(3.0) * q, Binary("*", Const(3.0), q)),
        (0.0 + q * p, Binary("+", Const(0.0), Binary("*", q, p))),
        (-(q + p * z) / z, Binary("/", Unary("neg", Binary("+", q, Binary("*", p, z))), z)),
        (Unary("exp", q) * Power(p, 2.0), Binary("*", Unary("exp", q), Power(p, 2.0))),
    ]
    for built, explicit in cases:
        _same_tree(built, explicit)
        assert fused_kernel((built,), names) is fused_kernel((explicit,), names)
    _same_tree(2 * q + p / 3 - -z, parse("2*q + p/3 - -z", names))


def test_tree_arithmetic_rejects_other_operands():
    q = Var("q")
    for other in ("p", None, [1.0], np.array([1.0])):
        with pytest.raises(TypeError):
            q + other
        with pytest.raises(TypeError):
            other * q
