"""Flow integration for contact and symplectic Hamiltonian fields.

One integrator, the adaptive Fehlberg 4(5) pair.  It controls the
4th/5th-order difference against abs_tol + rel_tol * |x| componentwise
and propagates the fifth-order solution.  It steps a list of Python
floats; at the state sizes here this is several times faster than NumPy
arrays, whose per-call overhead dominates.  A step is one generated
straight-line function per state size, `_step_program`
("<contactmech rkf45-step dim=D>"), shared by every field on every
chart: each of its six stages calls the field on the stage's floats,
field(z0 + ..., z1 + ..., ...).  `_calling` binds it to one field, and
the flow loop `_run` calls the bound step as step(x, h, abs_tol,
rel_tol).  The flow of f takes the system's `_field(f)`, the positional
entry of the field program whose list entry is `field_evaluator(f)`
(`geometry._field_entries`); a variational flow passes the state's
floats to `variational_evaluator`'s closure as one sequence.
`_programs.program` compiles each, so a traceback through them shows
the generated line.  Trajectories record every accepted step, as arrays
built once at the end; leaving the chart domain truncates the
trajectory with status "exited_domain" instead of raising: a positivity
guard crossing zero at an accepted state, or a stage raising, where the
step cannot shrink further, an expression domain error or a general
chart's GeometryError (ContactConditionError: singular flat matrix) or
SymplectizationError (SingularStructureError: singular omega).  A stage
tests no guard: at a fiber r < 0 it computes the field, and the guard
of an accepted state ends the flow.  The one error that propagates from
a stage is ZeroDivisionError at r = 0 on a standard-form symplectization.

Compositions of flows run one loop, `_compose`, over bound steps that
its caller binds: `group_action` on the system's `_field`,
`variational_group_action` on `variational_evaluator`, and
`integrability.angle_solve` binds its generators' steps once per solve.
It checks every time before the first flow, then each flow as
`integrate` does, and keeps the states as float lists; it builds a
Trajectory only for the FlowError of a flow that stops early.

Both run the same flow loop, `_run`, and differ only in the first step
it proposes.  A trajectory records every accepted step, so `integrate`
ramps up from 1% of the span (`_ramp`) and its output keeps that
density.  A composition returns only its endpoint, so each of its flows
proposes the whole span (capped by max_step): the error control then
accepts it in one step, as it does a translation, which RKF45
integrates exactly, or rejects and shrinks it as for any other step.
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
from .geometry import GeometryError
from .symplectization import SymplectizationError

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

    rel_tol/abs_tol: per-step error control.
    max_step: upper bound on the adaptive step; for `integrate` also the
    output density (a composition records no trajectory).
    min_step: collapse threshold; going below it is a step failure.
    max_steps: hard cap on accepted steps.

    rel_tol, abs_tol and min_step must be finite and positive,
    max_step positive (infinity allowed) and at least min_step, and
    max_steps at least 1; anything else raises ValueError.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = np.inf
    min_step: float = 1e-13
    max_steps: int = 200_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "min_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"integrator {name} must be finite and positive, got {value}")
        if not self.max_step > 0.0:
            raise ValueError(f"integrator max_step must be positive, got {self.max_step}")
        if self.min_step > self.max_step:  # every rejected step would end the flow
            raise ValueError(
                f"integrator min_step {self.min_step} exceeds max_step {self.max_step}")
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
    """The first guarded coordinate of x at or below 0, as a status detail, or None."""
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
    step = _calling(system._field(f), system.dim)
    guards = tuple(getattr(system, "positive_indices", ()))
    names = system.coordinates
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dim,):
        raise ValueError(f"expected start point of shape ({system.dim},), got {x0.shape}")
    x = x0.tolist()
    _check_start(x, guards, names)
    t_final = float(t_final)
    return _trajectory(*_run(step, x, t_final, _ramp(t_final, cfg), cfg, guards, names))


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t}")


def _check_start(x: Sequence[float], guards: Sequence[int], names: Sequence[str]) -> None:
    finite = all(map(math.isfinite, x))
    bad = _guard_violation(x, guards, names) if finite else "non-finite state"
    if bad is not None:
        raise StartPointError(f"start point outside domain: {bad}")


def _ramp(T: float, cfg: IntegratorConfig) -> float:
    """`integrate`'s first step proposal: 1% of the span, at least 1e-4, at most max_step."""
    span = abs(T)
    return min(span, cfg.max_step, max(1e-4, 0.01 * span))


def _trajectory(times: list, points: list, status: str, detail: str) -> Trajectory:
    return Trajectory(np.array(times), np.array(points), status, detail)


@functools.lru_cache(maxsize=None)
def _step_program(dim: int) -> Callable:
    """`step(field, x, h, abs_tol, rel_tol)`: one straight-line Fehlberg step over dim floats x.

    field(x0, .., x<dim-1>) is the field at dim floats, as dim floats: a
    system's `_field`.  The step unpacks x into z<i>, and stage s calls
    field once on its state z_i + (h a_s0) k0_i + ..., summed left to right
    (z<i> at s = 0), assigning k<s>_<i>; the weights h a_sj, h b4_j and
    h c5_j are the locals ha<s>_<j>, hb<j> and hc<j>.  The step returns the
    fifth-order solution x5 and the error norm
    max_i |x5_i - x4_i| / (abs_tol + rel_tol max(|x_i|, |x5_i|)), NaN if a
    term is, so that a NaN rejects the step (max() keeps a NaN only in first
    place); x4 and x5 keep the zero weights, which decide signs of zero and
    spread NaNs.  One program per state size, shared by every field on
    every chart, compiled at the first flow of that size as
    "<contactmech rkf45-step dim=DIM>".
    """
    def sums(i: int, weights: str, stages: int) -> str:
        return f"z{i}" + "".join(f" + {weights}{j} * k{j}_{i}" for j in range(stages))

    weights = [*((f"ha{s}_", a) for s, a in enumerate(_A)), ("hb", _B4), ("hc", _B5)]
    lines = ["def step(field, x, h, abs_tol, rel_tol):",
             *(f"    {name}{j} = h * {w!r}" for name, ws in weights for j, w in enumerate(ws)),
             f"    {_names('z', dim)}, = x"]
    for s in range(6):
        state = ", ".join(sums(i, f"ha{s}_", s) for i in range(dim))
        lines.append(f"    {_names(f'k{s}_', dim)}, = field({state})")
    for i in range(dim):
        lines += [f"    y{i} = {sums(i, 'hc', 6)}",
                  f"    e{i} = abs(y{i} - ({sums(i, 'hb', 6)})) / "
                  f"(abs_tol + rel_tol * max(abs(z{i}), abs(y{i})))"]
    nan = " or ".join(f"e{i} != e{i}" for i in range(dim))
    lines.append(f"    return [{_names('y', dim)}], nan if {nan} else max(({_names('e', dim)},))")
    return program(f"<contactmech rkf45-step dim={dim}>", lines, {"nan": math.nan}, "step")


def _calling(field: Callable, dim: int) -> Callable:
    """The bound step `step(x, h, abs_tol, rel_tol)` of `_step_program` that calls field."""
    return functools.partial(_step_program(dim), field)


def _run(step, x, T, h, cfg, guards, names) -> tuple[list, list, str, str]:
    """The flow's accepted times and points as lists, its status and detail.

    step(x, h, abs_tol, rel_tol) is a bound Fehlberg step (`_calling`),
    and h > 0 the first step proposal: `integrate` ramps up from
    `_ramp`, `_compose` proposes the whole span.  From there the error
    control grows an accepted step by at most 5x, up to max_step, shrinks
    a rejected one by at most 10x, and halves one whose stage raises an
    EvaluationDomainError, GeometryError or SymplectizationError, or
    which gives a non-finite state.  A step halved below min_step ends the
    flow: "exited_domain" with the error's message, or "step_failure".
    """
    if T == 0.0:
        return [0.0], [x], COMPLETED, ""
    sign = 1.0 if T > 0 else -1.0
    span = abs(T)
    # endpoint clamping must not trip the min-step failure, so the
    # proposal h and the executed (possibly clamped) step are separate
    eps_end = 4.0 * sys.float_info.epsilon * span
    times, points = [0.0], [x]
    t = 0.0
    accepted = 0
    while span - t > eps_end:
        h_step = min(h, span - t)
        try:
            x5, err_norm = step(x, sign * h_step, cfg.abs_tol, cfg.rel_tol)
        except (EvaluationDomainError, GeometryError, SymplectizationError) as exc:
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
            x = x5  # finite, as tested above
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
    """Phi(t; x) over a float list: the flow of step bind(idx) for time t[idx], last index first.

    Each flow first proposes one step over its whole time, at most
    max_step; only its endpoint is kept.  Every time is checked before
    the first flow (ValueError), and zero times are skipped.  Each flow
    checks its start point like `integrate`, after binding its step
    (StartPointError).  A flow that stops early
    raises FlowError naming fs[idx]; only then is its Trajectory built.
    """
    for time in t:
        _check_time(time)
    for idx in range(len(fs) - 1, -1, -1):
        if t[idx] != 0.0:
            step = bind(idx)
            _check_start(x, guards, names)
            times, points, status, detail = _run(step, x, t[idx], min(abs(t[idx]), cfg.max_step),
                                                 cfg, guards, names)
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
    Each flow starts from a whole-span step proposal (`_compose`), where
    `flow_map` ramps up as `integrate` does, so the two agree to the
    integrator's tolerance, not bitwise.  A non-finite time raises
    ValueError before any flow.  Each flow of
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
    x = _compose(lambda idx: _calling(system._field(fs[idx]), system.dim), fs, t.tolist(),
                 x.tolist(), config or IntegratorConfig(), guards, system.coordinates)
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
    truncated flow raises FlowError; a non-finite time, or x0 or tangents
    of another shape than (dim,) and (dim, k), ValueError; and a start
    state that is non-finite or outside a guard StartPointError.
    """
    fs = list(integrals) if integrals is not None else list(system.integrals)
    t = np.asarray(t, dtype=float)
    if len(t) != len(fs):
        raise ValueError(f"need {len(fs)} times, got {len(t)}")
    guards = tuple(getattr(system, "positive_indices", ()))
    dim = system.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        raise ValueError(f"expected start point of shape ({dim},), got {x0.shape}")
    tangents = np.asarray(tangents, dtype=float)
    if tangents.ndim != 2 or len(tangents) != dim:
        raise ValueError(f"expected tangents of shape ({dim}, k), got {tangents.shape}")
    state = np.concatenate([x0, tangents.T.ravel()]).tolist()
    width = len(state)

    def bind(idx: int) -> Callable:
        run = system.variational_evaluator(fs[idx])
        return _calling(lambda *floats: run(floats), width)  # the closure takes one sequence

    state = np.array(_compose(bind, fs, t.tolist(), state, config or IntegratorConfig(), guards,
                              system.coordinates))
    return state[:dim], state[dim:].reshape(-1, dim).T
