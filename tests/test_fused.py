"""Fused kernels against the trees' own kernels and the dual walk.

`expressions.fused_kernel` compiles all of a system's integrals (or all of
eta's coefficients) into one straight-line program that emits a shared
subtree once.  Its entries must be those of each tree's own kernel,
bitwise, and it must raise the error that running the trees' kernels in
order raises first; point stacks must fail at the same row.
"""

from __future__ import annotations

import inspect
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactmech import expressions, integrability
from contactmech.config import bundled_config_path, load_config
from contactmech.expressions import (
    Binary,
    Const,
    EvaluationDomainError,
    Power,
    Unary,
    Var,
    _compile,
    eval_jet2,
    fused_kernel,
    gradient_evaluator,
    parse,
)
from contactmech.geometry import ContactChart, ContactSystem, _dot
from dual_walk import dual_gradient

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
        st.tuples(children, st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0, 0.5])).map(
            lambda t: Power(t[0], t[1])
        ),
    )


@st.composite
def _families(draw):
    """1 to 4 trees built over a few shared subtrees, so that subtrees repeat within and across."""
    shared = draw(st.lists(st.recursive(_LEAVES, _extend, max_leaves=5), min_size=1, max_size=3))
    pieces = st.recursive(st.one_of(_LEAVES, st.sampled_from(shared)), _extend, max_leaves=5)
    return draw(st.lists(pieces, min_size=1, max_size=4))


_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(min_value=-4.0, max_value=4.0),
)


def _bits(values) -> bytes:
    return b"".join(struct.pack("<d", v) for v in values)


def _normalised(values) -> bytes:
    # which NaN an operation on two NaNs returns is left open by IEEE 754
    # and differs between NumPy loops and scalar float code
    return _bits(math.nan if math.isnan(v) else v for v in values)


def _first_outcome(runs, point):
    """The runs' flat entries in order, or the first error's type and message."""
    flat = []
    try:
        for run in runs:
            flat += np.asarray(run(point), dtype=float).tolist()
    except EvaluationDomainError as exc:
        return type(exc), str(exc)
    return flat


def _flat(walk):
    """A (value, gradient) walk as a run giving the flat entries of a one-tree kernel."""
    def run(point):
        value, grad = walk(point)
        return [value, *grad]

    return run


def _lockstep_outcome(runs, point):
    """`_first_outcome` of runs, calling each run once whatever an earlier one raised."""
    outcomes = [_first_outcome([run], point) for run in runs]
    return next((out for out in outcomes if isinstance(out, tuple)),
                [v for out in outcomes for v in out])


@settings(max_examples=300, deadline=None)
@given(_families(), st.lists(st.tuples(_COORDS, _COORDS, _COORDS), min_size=1, max_size=3))
def test_fused_kernel_matches_the_dual_walk_tree_by_tree(trees, points):
    # CPython 3.11 specializes a function's float operations after a few calls,
    # and a specialized operation may return the NaN of the other operand: NaN
    # bits are compared between kernels of one call history, compiled afresh
    # (not the memoised ones other tests warmed) and each called once per point
    kernel = _compile(tuple(trees), NAMES)
    own = [_compile((tree,), NAMES) for tree in trees]
    walks = [_flat(dual_gradient(tree, NAMES)) for tree in trees]
    for point in map(list, points):
        want, kernels = _first_outcome(walks, point), _lockstep_outcome(own, point)
        try:
            got = list(kernel(point))
        except EvaluationDomainError as exc:
            assert (type(exc), str(exc)) == want == kernels
            continue
        assert isinstance(want, list) and isinstance(kernels, list)
        assert _bits(got) == _bits(kernels)  # the trees' own kernels, NaN bits included
        assert _normalised(got) == _normalised(want)


@settings(max_examples=100, deadline=None)
@given(_families(), st.tuples(_COORDS, _COORDS, _COORDS))
def test_fused_jet_kernel_is_each_jet_kernel_bitwise(trees, point):
    # kernels compiled afresh, each called once: the NaN bits of one call history
    point = list(point)
    fused = _compile(tuple(trees), NAMES, True)
    try:
        want = []
        for tree in trees:
            want += _compile((tree,), NAMES, True)(point)
    except EvaluationDomainError as exc:
        with pytest.raises(EvaluationDomainError) as got:
            fused(point)
        assert str(got.value) == str(exc) and got.value.node == exc.node
        return
    assert _bits(fused(point)) == _bits(want)


def test_a_shared_subtree_is_emitted_once():
    # each power emits _pow( twice: for its value and for its derivative
    trees = [parse("(q + p)^3 * z", NAMES), parse("(q + p)^3 + (q + p)^3 / z", NAMES)]
    kernels = [fused_kernel((tree,), NAMES) for tree in trees]
    assert [inspect.getsource(k).count("_pow(") for k in kernels] == [2, 2]
    assert inspect.getsource(fused_kernel(trees, NAMES)).count("_pow(") == 2
    # a zero of the other sign is another subtree: its kernel differs
    signed = [parse("(q * 0.0)^3", NAMES), Power(Binary("*", Var("q"), Const(-0.0)), 3.0)]
    assert inspect.getsource(fused_kernel(signed, NAMES)).count("_pow(") == 4
    values = fused_kernel(signed, NAMES)([1.0, 0.0, 0.0])[::4]
    assert _bits(values) == _bits([0.0, -0.0])


@pytest.mark.parametrize("sources, point, message, node", [
    # the first tree succeeds, the second fails
    (["q * p", "q + log(p)"], [1.0, -1.0, 0.0], "log of a nonpositive value in 'log(p)'", "log(p)"),
    # the subtree both trees share fails in the first
    (["q + log(p - z)", "z * log(p - z)"], [1.0, 1.0, 2.0],
     "log of a nonpositive value in 'log(p - z)'", "log(p - z)"),
    # a subtree of the first tree, reused in the second, fails only there in another node
    (["sqrt(q)", "1 / (sqrt(q) - 1)"], [1.0, 0.0, 0.0],
     "division by zero in '1.0 / (sqrt(q) - 1.0)'", "1 / (sqrt(q) - 1)"),
])
def test_a_domain_error_is_the_per_tree_loops(sources, point, message, node):
    trees = [parse(source, NAMES) for source in sources]
    with pytest.raises(EvaluationDomainError) as want:
        for tree in trees:
            fused_kernel((tree,), NAMES)(point)
    with pytest.raises(EvaluationDomainError) as got:
        fused_kernel(trees, NAMES)(point)
    assert str(got.value) == str(want.value) == message
    assert got.value.node == want.value.node == parse(node, NAMES)


def test_a_stack_fails_at_the_per_tree_loops_row(monkeypatch):
    # row 1 fails in the second integral, row 2 in the first: the stack
    # raises row 1's error, as a loop over rows, then integrals, does
    system = ContactSystem(ContactChart.standard(1), ["sqrt(p) * z", "log(q) + z"])
    xs = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])
    with pytest.raises(EvaluationDomainError) as want:
        for i, x in enumerate(xs.tolist()):
            for f in system.integrals:
                fused_kernel((f,), system.coordinates)(x)
    rows, kernel = [], system._fused
    monkeypatch.setattr(system, "_fused", lambda x: rows.append(x) or kernel(x))
    with pytest.raises(EvaluationDomainError) as got:
        system.gradient_stack(xs)
    assert str(got.value) == str(want.value) == "log of a nonpositive value in 'log(q)'"
    assert rows[-1] == xs[i].tolist() and i == 1
    with pytest.raises(EvaluationDomainError) as jets:
        system.jet_stack(xs)
    assert str(jets.value) == str(want.value)


def test_stacked_values_dot_as_the_per_tree_arrays():
    # at m >= 4 BLAS sums a strided column in another order than a
    # contiguous one; `_dot` sums in one order, so strided operands dot
    # as contiguous copies do
    chart = ContactChart.standard(3)
    integrals = ["p1 * q2 + z", "p2 - q3 * p1", "exp(q1 / 4) * p3", "z * z + q1"]
    system = ContactSystem(chart, integrals, dict.fromkeys(chart.coordinates, (0.5, 2.0)))
    xs = system.sample(np.random.default_rng(2), 200)
    lam = np.array([0.7, -1.3, 0.4, 2.9])
    values, grads = system.gradient_stack(xs)
    kernels = [fused_kernel((f,), system.coordinates) for f in system.integrals]
    want = np.array([[kernel(x)[0] for kernel in kernels] for x in xs.tolist()])
    assert _bits(_dot(values, lam)) == _bits(_dot(want, lam))
    strided = np.stack([values, values], axis=-1)[..., 0]
    assert _bits(_dot(strided, lam)) == _bits(_dot(np.ascontiguousarray(values), lam))
    rates = _dot(grads, np.ascontiguousarray(grads[:, ::-1]))
    assert rates.tobytes() == _dot(np.ascontiguousarray(grads), grads[:, ::-1]).tobytes()


@pytest.mark.parametrize("path", [bundled_config_path("darboux-pz"), GOLDEN / "cubic-5d.json",
                                  GOLDEN / "rescaled-pz.json"], ids=lambda p: Path(p).stem)
def test_stacks_and_coframes_are_the_per_tree_kernels_bitwise(path):
    config = load_config(path)
    for system in (config.system(), config.symp_system()):
        xs = system.sample(np.random.default_rng(5), 20)
        values, grads = system.gradient_stack(xs)
        kernels = [fused_kernel((f,), system.coordinates) for f in system.integrals]
        rows = [[kernel(x) for kernel in kernels] for x in xs.tolist()]
        assert _bits(values.ravel()) == _bits(out[0] for row in rows for out in row)
        assert _bits(grads.ravel()) == _bits(u for row in rows for out in row for u in out[1:])
    chart = config.system().chart
    for x in xs[:, :-1].tolist():
        want = [kernel(x) for kernel in (fused_kernel((c,), chart.coordinates)
                                         for c in chart.eta_coefficients)]
        assert _bits(chart._float_coframe(x)) == _bits(u for out in want for u in out)


def test_one_compiled_kernel_per_tree_list_serves_every_caller():
    # f's value and gradient, its field program and its flat tuple come from
    # one compiled kernel; its Hessian and its variational closure from one
    # more, the jet
    system = load_config(bundled_config_path("darboux-pz")).system()
    f, names, x = system.integrals[1], system.coordinates, [0.5, 1.2, 0.8]
    compiled = expressions._kernel.cache_info
    expressions._kernel.cache_clear()
    value, grad = gradient_evaluator(f, names)(x)
    field = system.field_evaluator(f)(x)
    flat = fused_kernel((f,), names)(x)
    assert (compiled().misses, compiled().hits) == (1, 2)
    assert _bits(flat) == _bits([value, *grad])
    assert _bits(field) == _bits(system.chart.field_from_gradient(x, value, grad))
    jet = eval_jet2(f, names, x)
    system.variational_evaluator(f)([*x, 1.0, 0.0, 0.0])
    assert (compiled().misses, compiled().hits) == (2, 3)
    assert _bits([jet.value, *jet.gradient]) == _bits(flat)


def test_angle_solve_takes_the_generator_gradients_from_one_kernel_call(monkeypatch):
    # under a basis, one call of the generators' fused kernel at x gives
    # every generator's gradient, bitwise each one's `gradient_evaluator`
    config = load_config(bundled_config_path("darboux-pz"))
    symp, section = config.symp_system(), config.section("graph-z")
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    generators = integrability._generators(symp, M)
    calls = []

    def spied(nodes, names, jet=False):
        kernel = fused_kernel(nodes, names, jet)

        def run(values):
            calls.append((list(nodes), list(values), kernel(values)))
            return calls[-1][2]

        return run

    monkeypatch.setattr(integrability, "fused_kernel", spied)
    x = symp.sample(np.random.default_rng(32), 1)[0]
    integrability.angle_solve(symp, section, x, basis=M)
    [(point, flat)] = [(values, out) for nodes, values, out in calls if nodes == generators]
    assert point == x.tolist()
    width = symp.dim + 1
    for a, G in enumerate(generators):
        _, grad = gradient_evaluator(G, symp.coordinates)(point)
        assert _bits(flat[a * width + 1 : (a + 1) * width]) == _bits(grad)
