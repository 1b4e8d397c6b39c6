"""Flow integration for contact and symplectic Hamiltonian fields.

Two integrators: classic fixed-step RK4 and the adaptive Fehlberg 4(5)
pair.  The adaptive stepper controls the 4th/5th-order difference
against abs_tol + rel_tol * |x| componentwise and propagates the
fifth-order solution.  Trajectories record every accepted step; leaving
the chart domain (a positivity guard crossing zero, or an expression
domain error in the field) truncates the trajectory with an explicit
status instead of raising.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .expressions import EvaluationDomainError

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "FlowError",
    "StartPointError",
    "COMPLETED",
    "EXITED_DOMAIN",
    "STEP_FAILURE",
    "MAX_STEPS",
    "integrate",
    "flow_map",
    "group_action",
    "dissipation_residual",
]

COMPLETED = "completed"
EXITED_DOMAIN = "exited_domain"
STEP_FAILURE = "step_failure"
MAX_STEPS = "max_steps"


class FlowError(RuntimeError):
    """A flow did not reach its target time."""

    def __init__(self, message: str, trajectory: "Trajectory | None" = None):
        super().__init__(message)
        self.trajectory = trajectory


class StartPointError(ValueError):
    """A flow's start point is non-finite or violates a positivity guard."""


@dataclass
class IntegratorConfig:
    """Integrator settings.

    method: "rkf45" (adaptive, default) or "rk4" (fixed step).
    step: fixed step size for rk4.
    rel_tol/abs_tol: per-step error control for rkf45.
    max_step: upper bound on the adaptive step (also the output density).
    min_step: collapse threshold; going below it is a step failure.
    max_steps: hard cap on accepted steps.
    """

    method: str = "rkf45"
    step: float = 1e-2
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = np.inf
    min_step: float = 1e-13
    max_steps: int = 200_000

    def __post_init__(self):
        if self.method not in ("rkf45", "rk4"):
            raise ValueError(f"unknown integrator method {self.method!r}")


@dataclass
class Trajectory:
    """Accepted integration steps: times, states, and a final status.

    Times are strictly monotone: increasing for forward flows,
    decreasing when the flow time is negative.
    """

    times: np.ndarray
    points: np.ndarray
    status: str
    detail: str = ""

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED

    def endpoint(self) -> np.ndarray:
        return self.points[-1]

    def write_csv(self, path, coordinate_names: Sequence[str]) -> None:
        """One row per accepted step; columns are time then coordinates."""
        if len(coordinate_names) != self.points.shape[1]:
            raise ValueError("coordinate name count does not match state dimension")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time", *coordinate_names])
            for t, x in zip(self.times, self.points):
                writer.writerow([repr(float(t))] + [repr(float(v)) for v in x])


# Fehlberg tableau
_C = (0.0, 1.0 / 4.0, 3.0 / 8.0, 12.0 / 13.0, 1.0, 1.0 / 2.0)
_A = (
    (),
    (1.0 / 4.0,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)
_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)


def _guard_violation(x: np.ndarray, guards: Sequence[int], names: Sequence[str]) -> str | None:
    if not np.isfinite(x).all():
        return "non-finite state"
    for i in guards:
        if x[i] <= 0.0:
            return f"coordinate {names[i]} reached {x[i]:.3e}"
    return None


def integrate(system, f, x0, t_final: float, config: IntegratorConfig | None = None) -> Trajectory:
    """Integrate the Hamiltonian flow of f from x0 over [0, t_final].

    `system` is a ContactSystem or SympSystem; f may be an integral
    index, a source string, or an expression.  Negative t_final flows
    backward.  Returns the trajectory of accepted steps; domain exits
    truncate with status "exited_domain".
    """
    cfg = config or IntegratorConfig()
    field_fn = system.field_evaluator(f)
    guards = tuple(getattr(system, "positive_indices", ()))
    names = system.coordinates
    x0 = np.asarray(x0, dtype=float).copy()
    if x0.shape != (system.dim,):
        raise ValueError(f"expected start point of shape ({system.dim},), got {x0.shape}")
    bad = _guard_violation(x0, guards, names)
    if bad is not None:
        raise StartPointError(f"start point outside domain: {bad}")

    if t_final == 0.0:
        return Trajectory(np.zeros(1), x0[None, :].copy(), COMPLETED)
    if cfg.method == "rk4":
        return _run_rk4(field_fn, x0, float(t_final), cfg, guards, names)
    return _run_rkf45(field_fn, x0, float(t_final), cfg, guards, names)


def _truncate(times: list, points: list, status: str, detail: str) -> Trajectory:
    return Trajectory(np.array(times), np.array(points), status, detail)


def _run_rk4(field_fn, x0, T, cfg, guards, names) -> Trajectory:
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


def _run_rkf45(field_fn, x0, T, cfg, guards, names) -> Trajectory:
    sign = 1.0 if T > 0 else -1.0
    span = abs(T)
    # endpoint clamping must not trip the min-step failure, so the
    # proposal h and the executed (possibly clamped) step are separate
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


def flow_map(system, f, x0, t: float, config: IntegratorConfig | None = None) -> np.ndarray:
    """Endpoint of the time-t flow; raises FlowError on truncation."""
    traj = integrate(system, f, x0, t, config)
    if not traj.completed:
        raise FlowError(
            f"flow of {f!r} stopped at t = {traj.times[-1]:.6g} ({traj.status}: {traj.detail})",
            traj,
        )
    return traj.endpoint()


def group_action(
    system,
    t: Sequence[float],
    x0,
    config: IntegratorConfig | None = None,
    integrals: Sequence | None = None,
) -> np.ndarray:
    """Commuting composition of integral flows; index 0 is applied last.

    Phi(t_0..t_n; x) = phi^0_{t_0} after phi^1_{t_1} after ... phi^n_{t_n}(x).
    """
    fs = list(integrals) if integrals is not None else list(system.integrals)
    t = np.asarray(t, dtype=float)
    if len(t) != len(fs):
        raise ValueError(f"need {len(fs)} times, got {len(t)}")
    x = np.asarray(x0, dtype=float)
    for idx in range(len(fs) - 1, -1, -1):
        if t[idx] != 0.0:
            x = flow_map(system, fs[idx], x, float(t[idx]), config)
    return x


def dissipation_residual(system, h, f, trajectory: Trajectory) -> float:
    """Max interior residual |d/dt (f along c) + R(h) * (f along c)|.

    The time derivative is estimated by three-point differencing on the
    (possibly nonuniform) trajectory grid, so the trajectory must be
    dense enough for the quadratic truncation error to sit below the
    tolerance being tested.
    """
    chart = system.chart
    h = system.resolve(h)
    f = system.resolve(f)
    ts, xs = trajectory.times, trajectory.points
    if len(ts) < 3:
        raise ValueError("need at least three trajectory samples")
    fv = np.array([chart.value_and_gradient(f, x)[0] for x in xs])
    worst = 0.0
    for k in range(1, len(ts) - 1):
        h1 = ts[k] - ts[k - 1]
        h2 = ts[k + 1] - ts[k]
        dfdt = (
            -h2 / (h1 * (h1 + h2)) * fv[k - 1]
            + (h2 - h1) / (h1 * h2) * fv[k]
            + h1 / (h2 * (h1 + h2)) * fv[k + 1]
        )
        resid = abs(dfdt + chart.reeb_derivative(h, xs[k]) * fv[k])
        worst = max(worst, resid)
    return worst
