"""Flow integration for contact and symplectic Hamiltonian fields.

Two integrators: classic fixed-step RK4 and the adaptive Fehlberg 4(5)
pair.  The adaptive stepper controls the 4th/5th-order difference
against abs_tol + rel_tol * |x| componentwise and propagates the
fifth-order solution.  Both step a list of Python floats through the
system's `field_evaluator` closure, which takes and returns float
lists; at the state sizes here this is several times faster than NumPy
arrays, whose per-call overhead dominates.  An adaptive step is one
generated straight-line function per state size, `_step_program`
("<contactmech rkf45-step dim=D>"), which calls the closure six times.
The closure is a compiled closed form on standard-form charts, else one
checked float elimination; `_programs.program` compiles each, so a
traceback through them shows the generated line.
Trajectories record every accepted step, as arrays built once at the
end; leaving the chart domain (a positivity guard crossing zero, or an
expression domain error in the field) truncates the trajectory with an
explicit status instead of raising.

Compositions of flows run one loop, `_compose`, over closures that its
caller binds: `group_action` binds `field_evaluator`,
`variational_group_action` `variational_evaluator`, and
`integrability.angle_solve` binds its generators' closures once per
solve.  It checks every time before the first flow, then each flow as
`integrate` does, and keeps the states as float lists; it builds a
Trajectory only for the FlowError of a flow that stops early.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._programs import _names, program
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
    _check_start(x, guards, names)
    return _flow(field_fn, x, float(t_final), cfg, guards, names)


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t}")


def _check_start(x: Sequence[float], guards: Sequence[int], names: Sequence[str]) -> None:
    bad = _guard_violation(x, guards, names)
    if bad is not None:
        raise StartPointError(f"start point outside domain: {bad}")


def _flow(field_fn, x, T, cfg, guards, names) -> Trajectory:
    return _trajectory(*_run(field_fn, x, T, cfg, guards, names))


def _run(field_fn, x, T, cfg, guards, names) -> tuple[list, list, str, str]:
    """The flow's accepted times and points as lists, its status and detail."""
    if T == 0.0:
        return [0.0], [x], COMPLETED, ""
    run = _run_rk4 if cfg.method == "rk4" else _run_rkf45
    return run(field_fn, x, T, cfg, guards, names)


def _trajectory(times: list, points: list, status: str, detail: str) -> Trajectory:
    return Trajectory(np.array(times), np.array(points), status, detail)


# The steppers carry the state as a list of floats.  Each stage forms
# x_i + (h a_0) k0_i + (h a_1) k1_i + ... left to right, the float
# operations of the in-place array updates they replace.


def _run_rk4(field_fn, x, T, cfg, guards, names) -> tuple[list, list, str, str]:
    n_steps = max(1, math.ceil(abs(T) / cfg.step))
    h = T / n_steps
    half, sixth = 0.5 * h, h / 6.0
    times, points = [0.0], [x]
    t = 0.0
    for accepted in range(n_steps):
        if accepted == cfg.max_steps:
            return times, points, MAX_STEPS, f"{accepted} steps"
        try:
            k1 = field_fn(x)
            k2 = field_fn([u + half * v for u, v in zip(x, k1)])
            k3 = field_fn([u + half * v for u, v in zip(x, k2)])
            k4 = field_fn([u + h * v for u, v in zip(x, k3)])
        except EvaluationDomainError as exc:
            return times, points, EXITED_DOMAIN, str(exc)
        x = [u + sixth * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
             for u, v1, v2, v3, v4 in zip(x, k1, k2, k3, k4)]
        t += h
        bad = _guard_violation(x, guards, names)
        if bad is not None:
            return times, points, EXITED_DOMAIN, bad
        times.append(t)
        points.append(x)
    return times, points, COMPLETED, ""


@functools.lru_cache(maxsize=None)
def _step_program(dim: int) -> Callable:
    """`step(field, x, h, abs_tol, rel_tol)`: one Fehlberg step over dim floats, straight-line.

    It calls field six times and returns the fifth-order solution x5 and the
    error norm max_i |x5_i - x4_i| / (abs_tol + rel_tol max(|x_i|, |x5_i|)),
    NaN if a term is, so that a NaN rejects the step (max() keeps a NaN only
    in first place).  Stage s forms x_i + (h a_s0) k0_i + ... left to right;
    x4 and x5 keep the zero weights, which decide signs of zero and spread
    NaNs.  Compiled at the first flow of each state size, under the file
    name "<contactmech rkf45-step dim=DIM>".
    """
    def sums(i: int, weights: str, stages: int) -> str:
        return f"x{i}" + "".join(f" + {weights}{j} * k{j}_{i}" for j in range(stages))

    weights = [*((f"a{s}_", a) for s, a in enumerate(_A)), ("b", _B4), ("c", _B5)]
    lines = [f"{name}{j} = h * {w!r}" for name, ws in weights for j, w in enumerate(ws)]
    lines.append(f"{_names('x', dim)}, = x")
    for s in range(6):
        stage = f"[{', '.join(sums(i, f'a{s}_', s) for i in range(dim))}]" if s else "x"
        lines.append(f"{_names(f'k{s}_', dim)}, = field({stage})")
    for i in range(dim):
        lines += [f"y{i} = {sums(i, 'c', 6)}", f"e{i} = abs(y{i} - ({sums(i, 'b', 6)})) / "
                  f"(abs_tol + rel_tol * max(abs(x{i}), abs(y{i})))"]
    nan = " or ".join(f"e{i} != e{i}" for i in range(dim))
    source = ["def step(field, x, h, abs_tol, rel_tol):", *[f"    {line}" for line in lines],
              f"    return [{_names('y', dim)}], nan if {nan} else max(({_names('e', dim)},))"]
    return program(f"<contactmech rkf45-step dim={dim}>", source, {"nan": math.nan}, "step")


def _run_rkf45(field_fn, x, T, cfg, guards, names) -> tuple[list, list, str, str]:
    sign = 1.0 if T > 0 else -1.0
    span = abs(T)
    # endpoint clamping must not trip the min-step failure, so the
    # proposal h and the executed (possibly clamped) step are separate
    eps_end = 4.0 * sys.float_info.epsilon * span
    h = min(span, cfg.max_step, max(1e-4, 0.01 * span))
    times, points = [0.0], [x]
    t = 0.0
    accepted = 0
    step = _step_program(len(x))
    while span - t > eps_end:
        h_step = min(h, span - t)
        try:
            x5, err_norm = step(field_fn, x, sign * h_step, cfg.abs_tol, cfg.rel_tol)
        except EvaluationDomainError as exc:
            h = 0.5 * h_step
            if h < cfg.min_step:
                return times, points, EXITED_DOMAIN, str(exc)
            continue
        if not all(map(math.isfinite, x5)):
            h = 0.5 * h_step
            if h < cfg.min_step:
                return times, points, STEP_FAILURE, "non-finite step"
            continue
        if err_norm <= 1.0:
            t += h_step
            x = x5
            bad = _guard_violation(x, guards, names)
            if bad is not None:
                return times, points, EXITED_DOMAIN, bad
            times.append(sign * t)
            points.append(x)
            accepted += 1
            if accepted >= cfg.max_steps:
                return times, points, MAX_STEPS, f"{accepted} steps"
            factor = 5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm ** -0.2)
            h = min(max(h, h_step) * factor, cfg.max_step)
        else:
            h = h_step * max(0.1, 0.9 * err_norm ** -0.2)
            if h < cfg.min_step:
                return times, points, STEP_FAILURE, f"step collapsed to {h:.3e}"
    if times[-1] != sign * span:
        times[-1] = sign * span
    return times, points, COMPLETED, ""


def flow_map(system, f, x0, t: float, config: IntegratorConfig | None = None) -> np.ndarray:
    """Endpoint of the time-t flow; raises FlowError on truncation."""
    return _endpoint(integrate(system, f, x0, t, config), f)


def _endpoint(traj: Trajectory, f) -> np.ndarray:
    if not traj.completed:
        raise _stopped(traj, f)
    return traj.endpoint()


def _stopped(traj: Trajectory, f) -> FlowError:
    return FlowError(
        f"flow of {f!r} stopped at t = {traj.times[-1]:.6g} ({traj.status}: {traj.detail})", traj
    )


def _compose(bind: Callable, fs: Sequence, t: Sequence[float], x: list, cfg: IntegratorConfig,
             guards: Sequence[int], names: Sequence[str]) -> list:
    """Phi(t; x) over a float list: the flow of closure bind(idx) for time t[idx], last index first.

    Every time is checked before the first flow (ValueError), and zero
    times are skipped.  Each flow checks its start point like `integrate`,
    after binding its closure (StartPointError).  A flow that stops early
    raises FlowError naming fs[idx]; only then is its Trajectory built.
    """
    for time in t:
        _check_time(time)
    for idx in range(len(fs) - 1, -1, -1):
        if t[idx] != 0.0:
            field_fn = bind(idx)
            _check_start(x, guards, names)
            times, points, status, detail = _run(field_fn, x, t[idx], cfg, guards, names)
            if status != COMPLETED:
                raise _stopped(_trajectory(times, points, status, detail), fs[idx])
            x = points[-1]
    return x


def group_action(
    system,
    t: Sequence[float],
    x0,
    config: IntegratorConfig | None = None,
    integrals: Sequence | None = None,
) -> np.ndarray:
    """Commuting composition of integral flows; index 0 is applied last.

    Phi(t_0..t_n; x) = phi^0_{t_0} after phi^1_{t_1} after ... phi^n_{t_n}(x).
    A non-finite time raises ValueError before any flow.  Each flow of
    nonzero time is checked as `integrate` checks its start; one that
    stops early raises FlowError.
    """
    fs = list(integrals) if integrals is not None else list(system.integrals)
    t = np.asarray(t, dtype=float)
    if len(t) != len(fs):
        raise ValueError(f"need {len(fs)} times, got {len(t)}")
    x = np.asarray(x0, dtype=float)
    if x.shape != (system.dim,):
        raise ValueError(f"expected start point of shape ({system.dim},), got {x.shape}")
    guards = tuple(getattr(system, "positive_indices", ()))
    x = _compose(lambda idx: system.field_evaluator(fs[idx]), fs, t.tolist(), x.tolist(),
                 config or IntegratorConfig(), guards, system.coordinates)
    return np.array(x)


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
    truncated flow raises FlowError, a non-finite time ValueError and a
    start state that is non-finite or outside a guard StartPointError.
    """
    fs = list(integrals) if integrals is not None else list(system.integrals)
    t = np.asarray(t, dtype=float)
    if len(t) != len(fs):
        raise ValueError(f"need {len(fs)} times, got {len(t)}")
    guards = tuple(getattr(system, "positive_indices", ()))
    dim = system.dim
    tangents = np.asarray(tangents, dtype=float)
    state = np.concatenate([np.asarray(x0, dtype=float), tangents.T.ravel()])
    state = np.array(_compose(lambda idx: system.variational_evaluator(fs[idx]), fs, t.tolist(),
                              state.tolist(), config or IntegratorConfig(), guards,
                              system.coordinates))
    return state[:dim], state[dim:].reshape(-1, dim).T
