"""The float-list flow steppers against the NumPy steppers they replaced.

The reference below is the array code of `flows` before the steppers
moved to lists of floats: in-place array updates per stage, and field
closures that return arrays (the gradient closure plus each module's
closed form over arrays, `geometry._stacked`, or `field_from_gradient`
on general coframes).
The float steppers perform the same float operations in the same order,
so at n = 1 the trajectories must be byte-equal.  At n = 2 NumPy's
p @ g fuses a multiply-add that plain float code does not, so there the
two agree to round-off only.
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
    integrate,
)
from contactmech.geometry import ContactChart, ContactSystem
from contactmech.symplectization import symplectize

REGION = {"q": (-2.0, 2.0), "p": (0.5, 2.0), "z": (0.5, 2.0)}
RKF45 = IntegratorConfig()
RK4 = IntegratorConfig(method="rk4", step=0.05)


# ---------------------------------------------------------------------------
# NumPy reference steppers
# ---------------------------------------------------------------------------

def numpy_field_evaluator(system, f):
    """The array field closure that the float closures replaced."""
    f = system.resolve(f)
    chart = system.chart
    run = gradient_evaluator(f, chart.coordinates)
    if chart._closed_field is None:

        def general_field(x):
            x = chart.point(x)
            value, grad = run(x)
            return chart.field_from_gradient(x, value, grad)

        return general_field
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
