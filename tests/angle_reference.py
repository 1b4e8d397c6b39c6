"""The NumPy reference of the angle solve, away from the library.

`integrability.angle_solve` binds the generator flow closures once per
solve and runs its damped Newton loop on lists of floats, composing the
flows through `flows._compose`.  The loop it replaced is kept here: the
residuals and the Newton Jacobian as arrays (`chart.point`, the
generators' gradient closures and `chart._fields`), and every flow of the
group action through the NumPy reference stepper of `test_steppers` on
the generator's float field closure, each flow first proposing its whole
span as one step, as the library's compositions do.  Both take the step
from the same generated normal-equation program
(`integrability._angle_step_program`) on the same J, falling back to
`np.linalg.lstsq` where it finds J (nearly) rank-deficient, so the
solved angles, residual, iterations and fallback count must agree bitwise.
"""

from __future__ import annotations

import numpy as np

from contactmech.expressions import EvaluationDomainError, gradient_evaluator
from contactmech.flows import FlowError, IntegratorConfig
from contactmech.integrability import (
    ActionAngleResult,
    IntegrabilityError,
    NewtonDivergenceError,
    SectionError,
    _angle_step_program,
    _detect_sign,
    _generators,
)
from test_steppers import _guard_violation, _run_rkf45


def numpy_group_action(system, t, x0, config=None, integrals=None):
    """The composition of flows, index 0 last, each a whole-span reference flow.

    A non-finite time (before any flow) or a start point off the domain
    raises ValueError, a flow that stops early FlowError, each with the
    library's message.
    """
    fs = list(integrals) if integrals is not None else list(system.integrals)
    t = np.asarray(t, dtype=float)
    if len(t) != len(fs):
        raise ValueError(f"need {len(fs)} times, got {len(t)}")
    cfg = config or IntegratorConfig()
    guards = tuple(system.positive_indices)
    x = np.asarray(x0, dtype=float)
    for T in t.tolist():
        if not np.isfinite(T):
            raise ValueError(f"flow time must be finite, got {T}")
    for idx in range(len(fs) - 1, -1, -1):
        T = float(t[idx])
        if T == 0.0:
            continue
        bad = _guard_violation(x, guards, system.coordinates)
        if bad is not None:
            raise ValueError(f"start point outside domain: {bad}")
        field = system.field_evaluator(fs[idx])
        traj = _run_rkf45(lambda y: np.array(field(y.tolist())), x, T, cfg, guards,
                          system.coordinates, whole_span=True)
        if not traj.completed:
            raise FlowError(f"flow of {fs[idx]!r} stopped at t = {traj.times[-1]:.6g} "
                            f"({traj.status}: {traj.detail})", traj)
        x = traj.endpoint()
    return x


def numpy_angle_solve(symp_system, section, x, config=None, basis=None, sign=None, y0=None,
                      newton_tolerance=1e-10, max_iter=60):
    """Solve x = Phi(y; chi(sign * F(x))) by damped Newton over arrays."""
    chart = symp_system.chart
    x = chart.point(x)
    cfg = config or IntegratorConfig()
    m = len(symp_system.integrals)
    M = np.eye(m) if basis is None else np.asarray(basis, dtype=float)
    if M.shape != (m, m):
        raise ValueError(f"basis must be {m} x {m}")
    if np.linalg.matrix_rank(M) < m:
        raise ValueError(f"basis matrix {M.tolist()} is singular")
    generators = _generators(symp_system, M)
    runs = [gradient_evaluator(G, chart.coordinates) for G in generators]

    F_x = np.array([value for value, _ in symp_system.values_and_gradients(x)])
    bracket_tol = 1e-8 * max(1.0, float(np.max(np.abs(F_x))))
    for a in range(m - 1):
        field_a = chart.field_from_gradient(x, *runs[a](x))
        for b in range(a + 1, m):
            bracket = float(runs[b](x)[1] @ field_a)
            if abs(bracket) > bracket_tol:
                raise IntegrabilityError(
                    f"generators {a} and {b} are not in involution at "
                    f"{x.tolist()} (|{{g_{a}, g_{b}}}| = {abs(bracket):.3e})"
                )

    if sign is None:
        s, base = _detect_sign(symp_system, section, F_x)
    else:
        s = int(sign)
        base = section.chi_at(s * F_x)
        if base[-1] <= 0.0:
            raise SectionError(f"section {section.name!r} leaves the chart at the base point")

    def phi(y, start):
        return numpy_group_action(symp_system, y, start, cfg, integrals=generators)

    scale = max(1.0, float(np.max(np.abs(x))))
    target = max(newton_tolerance, 10.0 * cfg.rel_tol * scale)

    y = np.zeros(m) if y0 is None else np.asarray(y0, dtype=float).copy()
    end = phi(y, base)
    gn = float(np.max(np.abs(end - x)))
    iterations = lstsq_steps = 0
    while not gn <= target:
        if iterations >= max_iter:
            raise NewtonDivergenceError(
                f"no convergence after {max_iter} iterations (residual {gn:.3e})", gn, iterations
            )
        iterations += 1
        end = chart.point(end)
        vgs = [run(end) for run in runs]
        J = chart._fields(end, np.array([v for v, _ in vgs]), np.array([g for _, g in vgs])).T
        delta = _angle_step_program(m, len(x))(J.T.tolist(), (x - end).tolist())
        if delta is None:
            delta, *_ = np.linalg.lstsq(J, x - end, rcond=None)
            lstsq_steps += 1
        delta = np.array(delta)
        lam = 1.0
        for _ in range(21):
            y_try = y + lam * delta
            try:
                end_try = phi(lam * delta, end)
            except (FlowError, ValueError, EvaluationDomainError):
                lam *= 0.5
                continue
            gn_try = float(np.max(np.abs(end_try - x)))
            if gn_try <= (1.0 - 1e-4 * lam) * gn:
                break
            lam *= 0.5
        else:
            raise NewtonDivergenceError(
                f"stalled at residual {gn:.3e} after {iterations} iterations", gn, iterations
            )
        y, end, gn = y_try, end_try, gn_try

    f_base = np.array([value for value, _ in symp_system.base.values_and_gradients(x[:-1])])
    A = M @ f_base
    d = section.denominator_index if section.denominator_index is not None else int(
        np.argmax(np.abs(A)))
    if abs(A[d]) < 1e-12:
        raise IntegrabilityError(
            f"action A_{d} vanishes at the query point (|A_d| = {abs(A[d]):.3e})"
        )
    A_tilde = np.array([-A[j] / A[d] for j in range(m) if j != d])
    return ActionAngleResult(y=y, A=A, A_tilde=A_tilde, denominator_index=d, M_matrix=M,
                             sign=s, residual=gn, iterations=iterations, lstsq_steps=lstsq_steps)
