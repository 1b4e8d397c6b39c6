"""The float-list flow steppers against the NumPy steppers they replaced.

The reference below is the array code of `flows` before the steppers
moved to lists of floats: in-place array updates per stage, and field
closures that return arrays (the gradient closure plus each module's
closed form over arrays, `geometry._stacked`, on standard-form charts).
The float steppers perform the same float operations in the same order,
so at n = 1 the trajectories must be byte-equal.  At n = 2 NumPy's
p @ g fuses a multiply-add that plain float code does not, so there the
two agree to round-off only.

The adaptive step that calls a closure is a generated straight-line
function per state size (`flows._step_program`), and on standard-form
charts the field closure writes f's kernel and the template's lines
over source symbols (`geometry._field_source`).  The step must match
the float-list Fehlberg step and error norm it unrolls, kept below, and
the template's lines the template run over floats (`_fdot`), each
bitwise.

On general coframes the field closure runs the lines of a generated
straight-line float program (`geometry._field_program`), one
elimination that does not reproduce LAPACK's last bits.  The reference
steppers step that same closure, wrapped to arrays, so that stepper
parity stays bitwise there too.  The tests at the end pin the program
bitwise, errors included, to the list closures it unrolls
(`tests/float_fields.py`).  The program is also the library's
`field_from_gradient` and point-stack solver, so they pin it to the
LAPACK reference kept in `tests/float_fields.py` (the stacked NumPy
solves it replaced) rather than to the library: a flow's values,
trajectories and errors, and a point stack's jets, brackets, lifted
fields and `lift_check` values to 1e-12.  They also pin when it is
compiled: once per chart kind and dimension, at the first
`field_evaluator` call, never while a config loads; and each field
closure and step once per chart kind and kernel, at its first use.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from contactmech import geometry, integrability, symplectization
from contactmech.config import bundled_config_path, load_config
from contactmech.expressions import (
    EvaluationDomainError,
    fused_kernel,
    gradient_evaluator,
    gradient_kernel,
    parse,
)
from contactmech.flows import (
    _A,
    _B4,
    _B5,
    COMPLETED,
    EXITED_DOMAIN,
    MAX_STEPS,
    STEP_FAILURE,
    IntegratorConfig,
    Trajectory,
    _flow,
    _step_program,
    integrate,
)
from contactmech.geometry import ContactChart, ContactConditionError, ContactSystem
from contactmech.symplectization import SingularStructureError, _lift_values, symplectize
from float_fields import (
    REGION,
    _cubic_system,
    _degenerate_system,
    _eliminator,
    _general_system,
    _rescaled_system,
    lapack_field,
    lapack_jets,
    lapack_lift_values,
    lapack_lifted_fields,
    reference_field,
    solve_field,
)

RKF45 = IntegratorConfig()
# a cap below the natural step: many short steps, each clamped by max_step
CAPPED = IntegratorConfig(max_step=0.05)


# ---------------------------------------------------------------------------
# NumPy reference steppers
# ---------------------------------------------------------------------------

def numpy_field_evaluator(system, f):
    """The array field closure that the float closures replaced.

    On general coframes, the float closure itself wrapped to arrays.
    """
    if system.chart._closed_field is None:
        float_field = system.field_evaluator(f)
        return lambda x: np.array(float_field(x.tolist()))
    f = system.resolve(f)
    chart = system.chart
    run = gradient_evaluator(f, chart.coordinates)
    n = (chart.dim - 1) // 2

    def field(x):
        value, grad = run(x)
        return geometry._stacked(chart._closed_field, n, x, value, grad)

    return field


def _guard_violation(x, guards, names):
    if not np.isfinite(x).all():
        return "non-finite state"
    for i in guards:
        if x[i] <= 0.0:
            return f"coordinate {names[i]} reached {x[i]:.3e}"
    return None


def _truncate(times, points, status, detail):
    return Trajectory(np.array(times), np.array(points), status, detail)


def _rkf_step(field_fn, x, h):
    k = [field_fn(x)]
    for stage in range(1, 6):
        xs = x.copy()
        for j, a in enumerate(_A[stage]):
            xs += (h * a) * k[j]
        k.append(field_fn(xs))
    x4 = x.copy()
    x5 = x.copy()
    for j in range(6):
        x4 += (h * _B4[j]) * k[j]
        x5 += (h * _B5[j]) * k[j]
    return x4, x5


def _run_rkf45(field_fn, x0, T, cfg, guards, names, whole_span=False):
    """The RKF45 flow; its first step proposal is the whole span if whole_span, else 1% of it."""
    sign = 1.0 if T > 0 else -1.0
    span = abs(T)
    eps_end = 4.0 * np.finfo(float).eps * span
    h = min(span, cfg.max_step) if whole_span else min(span, cfg.max_step, max(1e-4, 0.01 * span))
    times, points = [0.0], [x0.copy()]
    x, t = x0, 0.0
    accepted = 0
    while span - t > eps_end:
        h_step = min(h, span - t)
        try:
            x4, x5 = _rkf_step(field_fn, x, sign * h_step)
        except EvaluationDomainError as exc:
            h = 0.5 * h_step
            if h < cfg.min_step:
                return _truncate(times, points, EXITED_DOMAIN, str(exc))
            continue
        if not np.isfinite(x5).all():
            h = 0.5 * h_step
            if h < cfg.min_step:
                return _truncate(times, points, STEP_FAILURE, "non-finite step")
            continue
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(x), np.abs(x5))
        err_norm = float(np.max(np.abs(x5 - x4) / scale))
        if err_norm <= 1.0:
            t += h_step
            x = x5
            bad = _guard_violation(x, guards, names)
            if bad is not None:
                return _truncate(times, points, EXITED_DOMAIN, bad)
            times.append(sign * t)
            points.append(x.copy())
            accepted += 1
            if accepted >= cfg.max_steps:
                return _truncate(times, points, MAX_STEPS, f"{accepted} steps")
            factor = 5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm ** -0.2)
            h = min(max(h, h_step) * factor, cfg.max_step)
        else:
            h = h_step * max(0.1, 0.9 * err_norm ** -0.2)
            if h < cfg.min_step:
                return _truncate(times, points, STEP_FAILURE, f"step collapsed to {h:.3e}")
    if times[-1] != sign * span:
        times[-1] = sign * span
    return Trajectory(np.array(times), np.array(points), COMPLETED)


# The float-list Fehlberg step and error norm that `flows._step_program`
# unrolls: the generated step must return their x5 and norm bitwise.

def float_rkf_step(field_fn, x, h):
    """(fourth-order, fifth-order) Fehlberg solutions after a step h from x."""
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), (a50, a51, a52, a53, a54) = (
        [h * a for a in row] for row in _A[1:]
    )
    k0 = field_fn(x)
    k1 = field_fn([u + a10 * v0 for u, v0 in zip(x, k0)])
    k2 = field_fn([u + a20 * v0 + a21 * v1 for u, v0, v1 in zip(x, k0, k1)])
    k3 = field_fn([u + a30 * v0 + a31 * v1 + a32 * v2
                   for u, v0, v1, v2 in zip(x, k0, k1, k2)])
    k4 = field_fn([u + a40 * v0 + a41 * v1 + a42 * v2 + a43 * v3
                   for u, v0, v1, v2, v3 in zip(x, k0, k1, k2, k3)])
    k5 = field_fn([u + a50 * v0 + a51 * v1 + a52 * v2 + a53 * v3 + a54 * v4
                   for u, v0, v1, v2, v3, v4 in zip(x, k0, k1, k2, k3, k4)])
    # the zero weights stay in: they decide signs of zero and spread NaNs
    b0, b1, b2, b3, b4, b5 = (h * b for b in _B4)
    c0, c1, c2, c3, c4, c5 = (h * c for c in _B5)
    ks = list(zip(x, k0, k1, k2, k3, k4, k5))
    x4 = [u + b0 * v0 + b1 * v1 + b2 * v2 + b3 * v3 + b4 * v4 + b5 * v5
          for u, v0, v1, v2, v3, v4, v5 in ks]
    x5 = [u + c0 * v0 + c1 * v1 + c2 * v2 + c3 * v3 + c4 * v4 + c5 * v5
          for u, v0, v1, v2, v3, v4, v5 in ks]
    return x4, x5


def float_error_norm(x, x4, x5, abs_tol: float, rel_tol: float) -> float:
    """max_i |x5_i - x4_i| / (abs_tol + rel_tol max(|x_i|, |x5_i|)); NaN if a term is."""
    terms = [abs(w - v) / (abs_tol + rel_tol * max(abs(u), abs(w)))
             for u, v, w in zip(x, x4, x5)]
    # max() keeps a NaN only in first place, and a NaN norm must reject the step
    return math.nan if any(map(math.isnan, terms)) else max(terms)


def reference_integrate(system, f, x0, t_final, cfg):
    return _run_rkf45(numpy_field_evaluator(system, f), np.array(x0, dtype=float),
                      float(t_final), cfg, tuple(system.positive_indices), system.coordinates)


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def systems(pz_system, pz_symp):
    rescaled = _rescaled_system()
    return {
        "darboux-pz": pz_system,
        "darboux-pz-symp": pz_symp,
        "rescaled": rescaled,
        "rescaled-symp": symplectize(rescaled),
    }


def assert_byte_equal(got: Trajectory, want: Trajectory) -> None:
    assert (got.status, got.detail) == (want.status, want.detail)
    assert got.times.shape == want.times.shape
    assert got.points.shape == want.points.shape
    assert got.times.tobytes() == want.times.tobytes()
    assert got.points.tobytes() == want.points.tobytes()


@pytest.mark.parametrize("cfg", [RKF45, CAPPED], ids=["rkf45", "capped"])
@pytest.mark.parametrize("name", ["darboux-pz", "darboux-pz-symp", "rescaled", "rescaled-symp"])
def test_float_steppers_are_byte_equal_to_numpy_steppers(systems, name, cfg):
    system = systems[name]
    rng = np.random.default_rng(20)
    for x0 in system.sample(rng, 3):
        for f in range(len(system.integrals)):
            for t in (1.5, -0.7):
                got = integrate(system, f, x0, t, cfg)
                want = reference_integrate(system, f, x0, t, cfg)
                assert got.completed
                assert len(got.times) > 2
                assert_byte_equal(got, want)


def _step_fields(systems, name):
    """A sampler of start states and the field closures of one state size."""
    if name == "variational":  # darboux-pz's point and three tangents: 12 floats
        system = systems["darboux-pz"]
        fields = [system.variational_evaluator(f) for f in range(2)]
        return (lambda rng: [*system.sample(rng, 1)[0], *rng.normal(size=9)]), fields
    system = _cubic_system() if name == "cubic-n2" else systems[name]
    fields = [system.field_evaluator(f) for f in range(len(system.integrals))]
    return (lambda rng: system.sample(rng, 1)[0].tolist()), fields


@pytest.mark.parametrize("name", ["darboux-pz", "darboux-pz-symp", "rescaled", "rescaled-symp",
                                  "cubic-n2", "variational"])
def test_step_program_matches_the_float_reference_bitwise(systems, name):
    # steps up to 0.3 give norms on both sides of 1 (below it on cubic-n2)
    sample, fields = _step_fields(systems, name)
    rng = np.random.default_rng(24)
    tols = (RKF45.abs_tol, RKF45.rel_tol)
    for k in range(600):
        x, h, field = sample(rng), float(rng.uniform(-0.3, 0.3)), fields[k % len(fields)]
        x4, x5 = float_rkf_step(field, x, h)
        got, norm = _step_program(len(x))(field, x, h, *tols)
        assert (_hex(got), norm.hex()) == (_hex(x5), float_error_norm(x, x4, x5, *tols).hex())


def _stages(ks):
    """A stub field that returns the stages ks in turn."""
    stages = iter(ks)
    return lambda x: next(stages)


def test_step_program_keeps_the_zero_weights():
    # stages of signed zeros, one entry a NaN, an infinity or a zero: the zero
    # weights decide the sign of a zero sum and spread NaNs, as in the reference
    rng = np.random.default_rng(27)
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0]
    tols = (RKF45.abs_tol, RKF45.rel_tol)
    for _ in range(2000):
        x, *ks = [[math.copysign(0.0, s) for s in rng.normal(size=3)] for _ in range(7)]
        ks[rng.integers(6)][rng.integers(3)] = specials[rng.integers(5)]
        h = float(rng.choice([-0.5, 0.5]))
        x4, x5 = float_rkf_step(_stages(ks), x, h)
        got, norm = _step_program(3)(_stages(ks), x, h, *tols)
        assert (_hex(got), norm.hex()) == (_hex(x5), float_error_norm(x, x4, x5, *tols).hex())


def test_nan_error_norm_rejects_the_step():
    # a bare max() would return 0.0 here, and the step would be accepted
    x = [1.0, 2.0, 3.0]
    assert math.isnan(float_error_norm(x, [1.0, math.nan, 3.0], x, 1e-12, 1e-10))
    assert float_error_norm(x, [1.0, 2.0, 3.0 + 3e-10], x, 1e-12, 1e-10) <= 1.0
    # the generated step: at h = 10 these middle entries of k2, k3 and k4
    # overflow the middle x4 sum to inf and then add -inf, while x5 stays
    # finite; every later stage is the zero field

    def field():
        middle = iter([0.0, 0.0, 1.7e307, 1.7e307, 0.95e308])
        return lambda x: [0.0, next(middle, 0.0), 0.0]

    x5, norm = _step_program(3)(field(), [0.0, 0.0, 0.0], 10.0, 1e-12, 1e-10)
    assert all(map(math.isfinite, x5)) and x5[1] != 0.0
    assert math.isnan(norm)
    # a flow rejects that first step, of h = 10, and accepts 1.0 next
    traj = _flow(field(), [0.0, 0.0, 0.0], 1000.0, RKF45, (), ("a", "b", "c"))
    assert traj.completed
    assert traj.times[1] == 1.0
    assert not traj.points.any()


@pytest.mark.parametrize("cfg", [RKF45, CAPPED], ids=["rkf45", "capped"])
def test_guard_truncation_is_byte_equal(cfg):
    # the flow of q drives p down at unit speed through the guard p > 0
    system = ContactSystem(ContactChart.standard(1), ["q", "z"], REGION, positive=["p", "z"])
    got = integrate(system, 0, [1.0, 1.0, 1.0], 5.0, cfg)
    want = reference_integrate(system, 0, [1.0, 1.0, 1.0], 5.0, cfg)
    assert got.status == EXITED_DOMAIN
    assert got.detail.startswith("coordinate p reached")
    assert_byte_equal(got, want)


@pytest.mark.parametrize("cfg", [RKF45, CAPPED], ids=["rkf45", "capped"])
def test_domain_error_truncation_is_byte_equal(cfg):
    # the flow of 0*log(q) - p moves q down at unit speed, with a field
    # that stays finite up to q = 0, where evaluating log(q) fails
    system = ContactSystem(ContactChart.standard(1), ["0*log(q) - p", "z"], REGION)
    got = integrate(system, 0, [0.5, 1.0, 1.0], 2.0, cfg)
    want = reference_integrate(system, 0, [0.5, 1.0, 1.0], 2.0, cfg)
    assert got.status == EXITED_DOMAIN
    assert "log" in got.detail
    assert_byte_equal(got, want)


@pytest.mark.parametrize("cfg", [RKF45, CAPPED], ids=["rkf45", "capped"])
@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
def test_float_steppers_match_numpy_steppers_at_n2(cfg, lifted):
    system = _cubic_system()
    if lifted:
        system = symplectize(system)
    rng = np.random.default_rng(21)
    for x0 in system.sample(rng, 2):
        for f in range(3):
            got = integrate(system, f, x0, 0.4, cfg)
            want = reference_integrate(system, f, x0, 0.4, cfg)
            assert (got.status, got.detail) == (want.status, want.detail) == (COMPLETED, "")
            np.testing.assert_allclose(got.times, want.times, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(got.points, want.points, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# General-coframe fields against the LAPACK reference of field_from_gradient
# ---------------------------------------------------------------------------

def lapack_field_evaluator(system, f):
    """A float-list closure running the LAPACK reference of field_from_gradient."""
    chart = system.chart
    run = gradient_evaluator(system.resolve(f), chart.coordinates)

    def field(x):
        x = chart.point(x)
        value, grad = run(x)
        return lapack_field(chart, x, value, grad).tolist()

    return field


def _non_contact_system():
    chart = ContactChart(("q", "p", "z"), ["0", "0", "1"])
    return ContactSystem(chart, ["p", "z"], REGION)


def _raised(run, *args):
    try:
        run(*args)
    except Exception as exc:  # the error itself is compared
        return exc
    raise AssertionError("no error raised")


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
@pytest.mark.parametrize("name", ["rescaled", "general-n2"])
def test_float_field_matches_field_from_gradient(name, lifted):
    system = _general_system(name, lifted)
    chart = system.chart
    assert chart._closed_field is None
    rng = np.random.default_rng(22)
    worst = 0.0
    for x in system.sample(rng, 500):
        for f in range(len(system.integrals)):
            value, grad = gradient_evaluator(system.integrals[f], chart.coordinates)(x)
            want = lapack_field(chart, x, value, grad)
            got = np.array(system.field_evaluator(f)(x.tolist()))
            worst = max(worst, np.abs(got - want).max() / max(1.0, np.abs(want).max()))
    assert worst <= 1e-13


@pytest.mark.parametrize("cfg", [RKF45, CAPPED], ids=["rkf45", "capped"])
@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
def test_float_field_trajectories_match_field_from_gradient(lifted, cfg):
    # the adaptive step sizes follow an error estimate that round-off moves
    # by about 1e-7, so only the endpoints are compared
    system = _rescaled_system()
    if lifted:
        system = symplectize(system)
    guards = tuple(system.positive_indices)
    rng = np.random.default_rng(23)
    for x0 in system.sample(rng, 3):
        for f in range(len(system.integrals)):
            got = integrate(system, f, x0, 1.5, cfg)
            want = _flow(lapack_field_evaluator(system, f), x0.tolist(), 1.5, cfg, guards,
                         system.coordinates)
            assert got.status == want.status == COMPLETED
            np.testing.assert_allclose(got.points[-1], want.points[-1], rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
def test_float_field_raises_the_errors_of_field_from_gradient(lifted):
    system = _non_contact_system()
    x = [0.3, 1.2, 0.8]
    if lifted:
        system, x = symplectize(system), x + [1.5]
    chart = system.chart
    got = _raised(system.field_evaluator(0), x)
    want = _raised(lapack_field_evaluator(system, 0), x)
    assert isinstance(got, SingularStructureError if lifted else ContactConditionError)
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert got.point.tolist() == want.point.tolist() == x
    assert got.det == pytest.approx(want.det, abs=1e-15)
    # a point of the wrong length, and a fiber at zero
    for bad in ([*x, 1.0], x[:-1]) + (([*x[:-1], 0.0],) if lifted else ()):
        error = _raised(system.field_evaluator(0), bad)
        assert type(error) is ValueError
        assert str(error) == str(_raised(chart.point, bad))


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
@pytest.mark.parametrize("slot", [0, -1], ids=["first", "last"])
def test_float_field_and_field_from_gradient_agree_on_nan_gradients(lifted, slot):
    system = _rescaled_system()
    x = [0.3, 1.2, 0.8]
    if lifted:
        system, x = symplectize(system), x + [1.5]
    chart = system.chart
    grad = [1.0] * chart.dim
    grad[slot] = math.nan
    # no tree's kernel gives this gradient: the lines of the field closures
    # run on it through field_from_gradient, the program's solve
    got = chart.field_from_gradient(x, 0.7, grad)
    with np.errstate(invalid="ignore"):
        want = lapack_field(chart, x, 0.7, np.array(grad))
    assert np.isnan(got).tolist() == np.isnan(want).tolist()
    np.testing.assert_array_equal(np.nan_to_num(got), np.nan_to_num(want))


def _assert_close(got, want):
    # 1e-12 relative to the largest entry, or absolute below 1
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))


@pytest.mark.parametrize("name", ["rescaled", "general-n2", "dense-n2"])
def test_point_stacks_match_the_lapack_reference(name):
    # at n = 2 the contact elimination carries four right-hand sides: eta
    # and the gradients of the three integrals
    system = _general_system(name, False)
    symp, chart = symplectize(system), system.chart
    rng = np.random.default_rng(32)
    xs = system.sample(rng, 40)
    got, want = system.jet_stack(xs), lapack_jets(system, xs)
    for entry in ("fields", "reeb"):
        _assert_close(getattr(got, entry), getattr(want, entry))
    _assert_close(chart.bracket_matrix(got), chart.bracket_matrix(want))
    lifted = symp.sample(rng, 40)
    values, grads = symp.gradient_stack(lifted)
    _assert_close(symp.chart._fields(lifted, values, grads),
                  lapack_lifted_fields(symp.chart, lifted, values, grads))
    for got_value, want_value in zip(_lift_values(symp, lifted), lapack_lift_values(symp, lifted)):
        _assert_close(got_value, want_value)


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
@pytest.mark.parametrize("name", ["rescaled", "general-n2", "dense-n2"])
def test_field_program_matches_the_reference_bitwise(name, lifted):
    system = _general_system(name, lifted)
    chart = system.chart
    points = system.sample(np.random.default_rng(31), 2000).tolist()
    # a grid of a few values makes ties between pivot candidates
    points += [list(x) for x in itertools.product((0.5, 1.0, 2.0), repeat=chart.dim)]
    for f in system.integrals:
        kernel = gradient_kernel(f, chart.coordinates)
        got, want = system.field_evaluator(f), reference_field(chart, kernel)
        for x in points:
            assert _hex(got(x)) == _hex(want(x)), x
    # a NaN gradient entry in the first and in the last slot, which no
    # tree's kernel gives: the solve whose lines the field closures run
    for slot in (0, -1):
        grad = [1.0] * chart.dim
        grad[slot] = math.nan
        kernel = lambda _, grad=tuple(grad): (0.7, grad)  # noqa: E731
        got, want = solve_field(chart, kernel), reference_field(chart, kernel)
        for x in points[:50]:
            assert _hex(got(x)) == _hex(want(x)), (slot, x)


@pytest.mark.parametrize("scale", ["0", "1e-7"], ids=["zero-pivot", "small-det"])
@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
@pytest.mark.parametrize("n", [1, 2])
def test_field_program_raises_the_errors_of_the_reference(n, lifted, scale):
    system = _degenerate_system(n, scale)
    x = [0.3, 1.2, 0.8, 1.1, 0.9][: system.dim]
    if lifted:
        system, x = symplectize(system), x + [1.5]
    chart = system.chart
    kernel = gradient_kernel(system.integrals[0], chart.coordinates)
    got = _raised(system.field_evaluator(0), x)
    want = _raised(reference_field(chart, kernel), x)
    assert isinstance(got, SingularStructureError if lifted else ContactConditionError)
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert got.point.tolist() == want.point.tolist() == x
    assert got.det.hex() == want.det.hex()
    assert (got.det == 0.0) == (scale == "0")
    lapack = _raised(lapack_field_evaluator(system, 0), x)
    assert type(lapack) is type(got)
    assert lapack.point.tolist() == x
    assert got.det == pytest.approx(lapack.det, rel=1e-6, abs=1e-300)


def test_field_programs_compile_once_per_kind_and_dim_at_the_first_field_evaluator():
    # loading a config and building its systems compiles no field program,
    # no field closure, no step and no ray program
    programs = (geometry._field_program, geometry._closed_program, _step_program,
                geometry._field_evaluator, geometry._field_step, integrability._ray_program)
    for program in programs:
        program.cache_clear()
    cfg = load_config(Path(__file__).parent / "data" / "golden" / "rescaled-pz.json")
    system, symp = cfg.system(), cfg.symp_system()
    pz = load_config(bundled_config_path("darboux-pz"))
    pz_system, pz_symp = pz.system(), pz.symp_system()
    assert [program.cache_info().misses for program in programs] == [0] * len(programs)
    # on every chart the field closure of an integral's tree compiles at its
    # first field_evaluator, bound once per system; a general coframe also
    # compiles its kind's solve lines, once per dimension
    x = [0.5, 1.2, 0.8]
    for run, point in ((pz_system, x), (pz_symp, x + [1.5]), (system, x), (symp, x + [1.5])):
        first, second = run.field_evaluator(0), run.field_evaluator(1)
        assert run.field_evaluator(0) is first
        first(point), second(point)
        names = [first.__code__.co_filename, second.__code__.co_filename]
        kind = "lifted" if len(point) == 4 else "contact"
        assert names[0] != names[1]
        assert all(name.startswith(f"<contactmech {kind}-field dim={len(point)} kernel ")
                   for name in names)
        solves = 0 if run in (pz_system, pz_symp) else 1 if run is system else 2
        assert geometry._field_program.cache_info().misses == solves
    assert geometry._field_evaluator.cache_info()[:2] == (0, 8)  # (hits, misses)
    # a flow takes the inlined step of its integral's tree, compiled at the
    # first flow of that tree, bound once per system; no step calls a closure
    assert geometry._field_step.cache_info().misses == 0
    for f in (0, 1, 0):
        integrate(pz_system, f, x, 0.5)
        integrate(system, f, x, 0.5)
    assert geometry._field_step.cache_info()[:2] == (0, 4)
    for run in (pz_system, system):
        assert run._step(1) is run._step(1)
        assert run._step(1).__code__.co_filename.startswith("<contactmech rkf45-step dim=3 kernel ")
    assert _step_program.cache_info().misses == geometry._closed_program.cache_info().misses == 0


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
def test_field_evaluator_takes_any_point_as_floats(pz_system, lifted):
    # integers and NumPy floats reach the field lines as Python floats, on a
    # general coframe and on the standard form: integer arithmetic on
    # p = 2^53 + 1 would keep the bit that float(p) drops
    standard = symplectize(pz_system) if lifted else pz_system
    for system in (_general_system("rescaled", lifted), standard):
        field = system.field_evaluator("p - z")
        x = [1, 2**53 + 1, 3] + ([2] if lifted else [])
        want = field([float(v) for v in x])
        for point in (x, np.array(x, dtype=float), tuple(np.array(x, dtype=float))):
            got = field(point)
            assert all(type(v) is float for v in got) and _hex(got) == _hex(want)


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
@pytest.mark.parametrize("name", ["rescaled", "general-n2"])
def test_field_program_names_its_kind_and_dim(name, lifted):
    system = _general_system(name, lifted)
    chart, kind = system.chart, "lifted" if lifted else "contact"
    tree = system.integrals[0]
    kernel = fused_kernel((tree, *chart._eta_chart.eta_coefficients), chart.coordinates)
    field = system.field_evaluator(tree)
    assert field.__code__.co_filename == kernel.__code__.co_filename.replace(
        "<contactmech", f"<contactmech {kind}-field dim={system.dim}")
    assert field.__code__.co_name == "field"


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("module", [geometry, symplectization], ids=["contact", "lifted"])
def test_closed_program_matches_the_template_bitwise(module, n):
    # the closed-form field lines that the field emitter writes against the
    # template over floats (`_fdot`), with -0.0 in a quarter of the entries;
    # the fiber r stays positive.  A stub kernel with no lines of its own
    # gives as f's value and gradient the inputs value and g<i>
    template, dim = module._darboux_field, 2 * n + 1 + (module is symplectization)
    kind = "lifted" if module is symplectization else "contact"
    grads = [f"g{i}" for i in range(dim)]
    stub = SimpleNamespace(emitted=(dim, [f"x{i} = float(values[{i}])" for i in range(dim)], {},
                                    ["value", *grads], {}))
    lines, failures, X = geometry._field_source(kind, template, stub, 2)
    assert failures == {}
    coordinates = ", ".join(f"x{i}" for i in range(dim))
    namespace: dict = {}
    exec("\n".join([f"def field({coordinates}, value, {', '.join(grads)}):",
                    *(f"    {line}" for line in lines), f"    return [{', '.join(X)}]"]), namespace)
    field = namespace["field"]
    rng = np.random.default_rng(26)
    signed_zeros = 0
    for _ in range(500):
        x, grad = rng.normal(size=(2, dim)) * (rng.random((2, dim)) > 0.25)
        x, grad, value = x.tolist(), tuple(-grad), -float(rng.normal()) * (rng.random() > 0.25)
        if module is symplectization:
            x[-1] = abs(x[-1]) + 0.5
        want = template(n, x, value, grad, geometry._fdot)
        assert _hex(field(*x, value, *grad)) == _hex(want)
        signed_zeros += _hex([*x, *grad, value]).count("-0x0.0p+0")
    assert signed_zeros > 200


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
def test_closed_program_propagates_a_domain_error(pz_system, lifted):
    # a standard-form field closure, which inlines f's kernel, raises the
    # kernel's own error, for the flow to truncate on
    system = symplectize(pz_system) if lifted else pz_system
    tree = system.resolve("log(q) * p")
    x = [-0.5] + [0.5] * (system.dim - 1)
    with pytest.raises(EvaluationDomainError) as want:
        gradient_kernel(tree, system.coordinates)(x)
    with pytest.raises(EvaluationDomainError) as got:
        system.field_evaluator(tree)(x)
    assert str(got.value) == str(want.value) == "log of a nonpositive value in 'log(q)'"
    assert got.value.node == want.value.node == parse("log(q)")


@pytest.mark.parametrize("d, k", [(1, 1), (2, 2), (3, 2), (4, 1), (5, 2), (6, 1)])
def test_eliminator_matches_numpy(d, k):
    rng = np.random.default_rng(d)
    eliminate = _eliminator(d, d + k)
    for A in [rng.normal(size=(d, d)) for _ in range(20)] + [np.eye(d)[::-1]]:
        b = rng.normal(size=(d, k))
        det, columns = eliminate(np.hstack([A, b]).tolist())
        assert det == pytest.approx(np.linalg.det(A), rel=1e-12)
        np.testing.assert_allclose(np.array(columns).T, np.linalg.solve(A, b),
                                   rtol=1e-10, atol=1e-12)
    # the zero pivot comes after a row swap, and det still reads +0.0 as NumPy's does
    singular = np.ones((d, d + k))
    singular[:, :d] = 0.0 if d == 1 else 1.0
    singular[1:2, :d] *= 2.0
    det, columns = eliminate(singular.tolist())
    assert (det, columns) == (0.0, None)
    assert math.copysign(1.0, det) == math.copysign(1.0, np.linalg.det(singular[:, :d])) == 1.0


def test_exceeds_float_reads_like_exceeds():
    nan = math.nan
    cases = [
        ([1e-11, -2e-11], (), ()),
        ([3e-10, 0.0], (), ()),
        ([3e-10, 0.0], (5.0,), ()),
        ([3e-10, 0.0], (), ([1.0, -4.0],)),
        ([3e-9, 0.0], (2.0,), ([1.0, -4.0],)),
        ([nan, 3e-10], (), ()),
        ([3e-10, nan], (), ()),
        ([3e-10], (nan,), ()),
        ([3e-10], (), ([1.0, nan],)),
        ([nan, 1e-12], (1.0,), ()),
    ]
    for resid, values, vectors in cases:
        want = geometry._exceeds(geometry._norm(np.array(resid)), 1e-10, values,
                                 [np.array(w) for w in vectors])
        assert geometry._exceeds_float(resid, 1e-10, values, vectors) == bool(want)
