"""The float-list flow steppers against the NumPy steppers they replaced.

The reference below is the array code of `flows` before the steppers
moved to lists of floats: in-place array updates per stage, and field
closures that return arrays (the gradient closure plus each module's
closed form over arrays, `geometry._stacked`, on standard-form charts).
The float steppers perform the same float operations in the same order,
so at n = 1 the trajectories must be byte-equal.  At n = 2 NumPy's
p @ g fuses a multiply-add that plain float code does not, so there the
two agree to round-off only.

On general coframes the field closure is one float elimination
(`_float_field`), which does not reproduce LAPACK's last bits.  The
reference steppers step that same closure, wrapped to arrays, so that
stepper parity stays bitwise there too; the tests at the end pin the
closure to `field_from_gradient` (the LAPACK solves), its trajectories
to those of a `field_from_gradient` closure, and its errors to theirs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from contactmech import geometry
from contactmech.expressions import EvaluationDomainError, gradient_evaluator
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
    _error_norm,
    _flow,
    integrate,
)
from contactmech.geometry import ContactChart, ContactConditionError, ContactSystem
from contactmech.symplectization import SingularStructureError, symplectize

REGION = {"q": (-2.0, 2.0), "p": (0.5, 2.0), "z": (0.5, 2.0)}
RKF45 = IntegratorConfig()
RK4 = IntegratorConfig(method="rk4", step=0.05)


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


def _run_rk4(field_fn, x0, T, cfg, guards, names):
    n_steps = max(1, int(np.ceil(abs(T) / cfg.step)))
    h = T / n_steps
    times, points = [0.0], [x0.copy()]
    x, t = x0, 0.0
    for _ in range(n_steps):
        try:
            k1 = field_fn(x)
            k2 = field_fn(x + 0.5 * h * k1)
            k3 = field_fn(x + 0.5 * h * k2)
            k4 = field_fn(x + h * k3)
        except EvaluationDomainError as exc:
            return _truncate(times, points, EXITED_DOMAIN, str(exc))
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        bad = _guard_violation(x, guards, names)
        if bad is not None:
            return _truncate(times, points, EXITED_DOMAIN, bad)
        times.append(t)
        points.append(x.copy())
    return Trajectory(np.array(times), np.array(points), COMPLETED)


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


def _run_rkf45(field_fn, x0, T, cfg, guards, names):
    sign = 1.0 if T > 0 else -1.0
    span = abs(T)
    eps_end = 4.0 * np.finfo(float).eps * span
    h = min(span, cfg.max_step, max(1e-4, 0.01 * span))
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


def reference_integrate(system, f, x0, t_final, cfg):
    run = _run_rk4 if cfg.method == "rk4" else _run_rkf45
    return run(numpy_field_evaluator(system, f), np.array(x0, dtype=float), float(t_final),
               cfg, tuple(system.positive_indices), system.coordinates)


# ---------------------------------------------------------------------------
# Systems
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


@pytest.mark.parametrize("cfg", [RKF45, RK4], ids=["rkf45", "rk4"])
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


def test_nan_error_norm_rejects_the_step():
    # a bare max() would return 0.0 here, and the step would be accepted
    x = [1.0, 2.0, 3.0]
    assert math.isnan(_error_norm(x, [1.0, math.nan, 3.0], x, 1e-12, 1e-10))
    assert _error_norm(x, [1.0, 2.0, 3.0 + 3e-10], x, 1e-12, 1e-10) <= 1.0


@pytest.mark.parametrize("cfg", [RKF45, RK4], ids=["rkf45", "rk4"])
def test_guard_truncation_is_byte_equal(cfg):
    # the flow of q drives p down at unit speed through the guard p > 0
    system = ContactSystem(ContactChart.standard(1), ["q", "z"], REGION, positive=["p", "z"])
    got = integrate(system, 0, [1.0, 1.0, 1.0], 5.0, cfg)
    want = reference_integrate(system, 0, [1.0, 1.0, 1.0], 5.0, cfg)
    assert got.status == EXITED_DOMAIN
    assert got.detail.startswith("coordinate p reached")
    assert_byte_equal(got, want)


@pytest.mark.parametrize("cfg", [RKF45, RK4], ids=["rkf45", "rk4"])
def test_domain_error_truncation_is_byte_equal(cfg):
    # the flow of 0*log(q) - p moves q down at unit speed, with a field
    # that stays finite up to q = 0, where evaluating log(q) fails
    system = ContactSystem(ContactChart.standard(1), ["0*log(q) - p", "z"], REGION)
    got = integrate(system, 0, [0.5, 1.0, 1.0], 2.0, cfg)
    want = reference_integrate(system, 0, [0.5, 1.0, 1.0], 2.0, cfg)
    assert got.status == EXITED_DOMAIN
    assert "log" in got.detail
    assert_byte_equal(got, want)


@pytest.mark.parametrize("cfg", [RKF45, RK4], ids=["rkf45", "rk4"])
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
# General-coframe field closures against field_from_gradient
# ---------------------------------------------------------------------------

def lapack_field_evaluator(system, f):
    """A float-list closure running field_from_gradient, the NumPy det and solves."""
    chart = system.chart
    run = gradient_evaluator(system.resolve(f), chart.coordinates)

    def field(x):
        x = chart.point(x)
        value, grad = run(x)
        return chart.field_from_gradient(x, value, grad).tolist()

    return field


def _general_n2_system():
    # the standard form at n = 2 written as -1 * p_i, which takes the general solves
    chart = ContactChart(ContactChart.standard(2).coordinates, ["-1*p1", "-1*p2", "0", "0", "1"])
    return ContactSystem(chart, _cubic_system().integrals,
                         {name: (0.5, 2.0) for name in chart.coordinates})


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
    system = _rescaled_system() if name == "rescaled" else _general_n2_system()
    if lifted:
        system = symplectize(system)
    chart = system.chart
    assert chart._closed_field is None
    rng = np.random.default_rng(22)
    worst = 0.0
    for x in system.sample(rng, 500):
        for f in range(len(system.integrals)):
            value, grad = gradient_evaluator(system.integrals[f], chart.coordinates)(x)
            want = chart.field_from_gradient(x, value, grad)
            got = np.array(system.field_evaluator(f)(x.tolist()))
            worst = max(worst, np.abs(got - want).max() / max(1.0, np.abs(want).max()))
    assert worst <= 1e-13


@pytest.mark.parametrize("cfg", [RKF45, RK4], ids=["rkf45", "rk4"])
@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
def test_float_field_trajectories_match_field_from_gradient(lifted, cfg):
    # the adaptive step sizes follow an error estimate that round-off moves
    # by about 1e-7, so rkf45 compares endpoints; rk4 compares every point
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
            if cfg is RKF45:
                got, want = got.points[-1], want.points[-1]
            else:
                assert got.times.tobytes() == want.times.tobytes()
                got, want = got.points, want.points
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


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
    got = chart._float_field(lambda _: (0.7, tuple(grad)))(x)
    with np.errstate(invalid="ignore"):
        want = chart.field_from_gradient(x, 0.7, np.array(grad))
    assert np.isnan(got).tolist() == np.isnan(want).tolist()
    np.testing.assert_array_equal(np.nan_to_num(got), np.nan_to_num(want))


@pytest.mark.parametrize("d, k", [(1, 1), (2, 2), (3, 2), (4, 1), (5, 2), (6, 1)])
def test_eliminator_matches_numpy(d, k):
    rng = np.random.default_rng(d)
    eliminate = geometry._eliminator(d, d + k)
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
