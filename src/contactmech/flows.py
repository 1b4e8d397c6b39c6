"""Flow integration for contact and symplectic Hamiltonian fields.

Two integrators: classic fixed-step RK4 and the adaptive Fehlberg 4(5)
pair.  The adaptive stepper controls the 4th/5th-order difference
against abs_tol + rel_tol * |x| componentwise and propagates the
fifth-order solution.  Both step a list of Python floats through the
system's `field_evaluator` closure, which takes and returns float
lists; at the state sizes here this is several times faster than NumPy
arrays, whose per-call overhead dominates.  On standard-form charts the
closure runs a closed form; on general coframes, one float elimination
with the checks of `field_from_gradient`.  Trajectories record every
accepted step, as arrays built once at the end; leaving the chart
domain (a positivity guard crossing zero, or an expression domain error
in the field) truncates the trajectory with an explicit status instead
of raising.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from typing import Sequence

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
    "variational_group_action",
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

    step, rel_tol, abs_tol and min_step must be finite and positive,
    max_step positive (infinity allowed) and max_steps at least 1;
    anything else raises ValueError.
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
        for name in ("step", "rel_tol", "abs_tol", "min_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"integrator {name} must be finite and positive, got {value}")
        if not self.max_step > 0.0:
            raise ValueError(f"integrator max_step must be positive, got {self.max_step}")
        if not self.max_steps >= 1:
            raise ValueError(f"integrator max_steps must be at least 1, got {self.max_steps}")


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


def _guard_violation(x: Sequence[float], guards: Sequence[int], names: Sequence[str]) -> str | None:
    if not all(map(math.isfinite, x)):
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
    truncate with status "exited_domain".  A non-finite t_final raises
    ValueError.
    """
    _check_time(t_final)
    cfg = config or IntegratorConfig()
    field_fn = system.field_evaluator(f)
    guards = tuple(getattr(system, "positive_indices", ()))
    names = system.coordinates
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dim,):
        raise ValueError(f"expected start point of shape ({system.dim},), got {x0.shape}")
    x = x0.tolist()
    bad = _guard_violation(x, guards, names)
    if bad is not None:
        raise StartPointError(f"start point outside domain: {bad}")

    return _flow(field_fn, x, float(t_final), cfg, guards, names)


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t}")


def _flow(field_fn, x, T, cfg, guards, names) -> Trajectory:
    if T == 0.0:
        return Trajectory(np.zeros(1), np.array([x]), COMPLETED)
    run = _run_rk4 if cfg.method == "rk4" else _run_rkf45
    return run(field_fn, x, T, cfg, guards, names)


def _trajectory(times: list, points: list, status: str, detail: str = "") -> Trajectory:
    return Trajectory(np.array(times), np.array(points), status, detail)


# The steppers carry the state as a list of floats.  Each stage forms
# x_i + (h a_0) k0_i + (h a_1) k1_i + ... left to right, the float
# operations of the in-place array updates they replace.


def _run_rk4(field_fn, x, T, cfg, guards, names) -> Trajectory:
    n_steps = max(1, math.ceil(abs(T) / cfg.step))
    h = T / n_steps
    half, sixth = 0.5 * h, h / 6.0
    times, points = [0.0], [x]
    t = 0.0
    for accepted in range(n_steps):
        if accepted == cfg.max_steps:
            return _trajectory(times, points, MAX_STEPS, f"{accepted} steps")
        try:
            k1 = field_fn(x)
            k2 = field_fn([u + half * v for u, v in zip(x, k1)])
            k3 = field_fn([u + half * v for u, v in zip(x, k2)])
            k4 = field_fn([u + h * v for u, v in zip(x, k3)])
        except EvaluationDomainError as exc:
            return _trajectory(times, points, EXITED_DOMAIN, str(exc))
        x = [u + sixth * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
             for u, v1, v2, v3, v4 in zip(x, k1, k2, k3, k4)]
        t += h
        bad = _guard_violation(x, guards, names)
        if bad is not None:
            return _trajectory(times, points, EXITED_DOMAIN, bad)
        times.append(t)
        points.append(x)
    return _trajectory(times, points, COMPLETED)


def _rkf_step(field_fn, x, h):
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


def _error_norm(x, x4, x5, abs_tol: float, rel_tol: float) -> float:
    """max_i |x5_i - x4_i| / (abs_tol + rel_tol max(|x_i|, |x5_i|)); NaN if a term is."""
    terms = [abs(w - v) / (abs_tol + rel_tol * max(abs(u), abs(w)))
             for u, v, w in zip(x, x4, x5)]
    # max() keeps a NaN only in first place, and a NaN norm must reject the step
    return math.nan if any(map(math.isnan, terms)) else max(terms)


def _run_rkf45(field_fn, x, T, cfg, guards, names) -> Trajectory:
    sign = 1.0 if T > 0 else -1.0
    span = abs(T)
    # endpoint clamping must not trip the min-step failure, so the
    # proposal h and the executed (possibly clamped) step are separate
    eps_end = 4.0 * sys.float_info.epsilon * span
    h = min(span, cfg.max_step, max(1e-4, 0.01 * span))
    times, points = [0.0], [x]
    t = 0.0
    accepted = 0
    while span - t > eps_end:
        h_step = min(h, span - t)
        try:
            x4, x5 = _rkf_step(field_fn, x, sign * h_step)
        except EvaluationDomainError as exc:
            h = 0.5 * h_step
            if h < cfg.min_step:
                return _trajectory(times, points, EXITED_DOMAIN, str(exc))
            continue
        if not all(map(math.isfinite, x5)):
            h = 0.5 * h_step
            if h < cfg.min_step:
                return _trajectory(times, points, STEP_FAILURE, "non-finite step")
            continue
        err_norm = _error_norm(x, x4, x5, cfg.abs_tol, cfg.rel_tol)
        if err_norm <= 1.0:
            t += h_step
            x = x5
            bad = _guard_violation(x, guards, names)
            if bad is not None:
                return _trajectory(times, points, EXITED_DOMAIN, bad)
            times.append(sign * t)
            points.append(x)
            accepted += 1
            if accepted >= cfg.max_steps:
                return _trajectory(times, points, MAX_STEPS, f"{accepted} steps")
            factor = 5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm ** -0.2)
            h = min(max(h, h_step) * factor, cfg.max_step)
        else:
            h = h_step * max(0.1, 0.9 * err_norm ** -0.2)
            if h < cfg.min_step:
                return _trajectory(times, points, STEP_FAILURE, f"step collapsed to {h:.3e}")
    if times[-1] != sign * span:
        times[-1] = sign * span
    return _trajectory(times, points, COMPLETED)


def flow_map(system, f, x0, t: float, config: IntegratorConfig | None = None) -> np.ndarray:
    """Endpoint of the time-t flow; raises FlowError on truncation."""
    return _endpoint(integrate(system, f, x0, t, config), f)


def _endpoint(traj: Trajectory, f) -> np.ndarray:
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


def variational_group_action(
    system,
    t: Sequence[float],
    x0,
    tangents,
    config: IntegratorConfig | None = None,
    integrals: Sequence | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """group_action and its derivative in x0 applied to the columns of `tangents`.

    Each flow steps the augmented state (x, dx_1, ..., dx_k) with the
    variational equation dx_j' = DX_f(x) dx_j (system.variational_evaluator),
    so the tangents share the stages and accepted steps of the flow
    (internal differentiation).  The error control covers the tangents
    too.  Returns the endpoint and the carried tangents as columns; a
    truncated flow raises FlowError and a non-finite time ValueError.
    """
    fs = list(integrals) if integrals is not None else list(system.integrals)
    t = np.asarray(t, dtype=float)
    if len(t) != len(fs):
        raise ValueError(f"need {len(fs)} times, got {len(t)}")
    for time in t:
        _check_time(time)
    cfg = config or IntegratorConfig()
    guards = tuple(getattr(system, "positive_indices", ()))
    dim = system.dim
    tangents = np.asarray(tangents, dtype=float)
    state = np.concatenate([np.asarray(x0, dtype=float), tangents.T.ravel()])
    for idx in range(len(fs) - 1, -1, -1):
        if t[idx] != 0.0:
            field_fn = system.variational_evaluator(fs[idx])
            traj = _flow(field_fn, state.tolist(), float(t[idx]), cfg, guards, system.coordinates)
            state = _endpoint(traj, fs[idx])
    return state[:dim], state[dim:].reshape(-1, dim).T
