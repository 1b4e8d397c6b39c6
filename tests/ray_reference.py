"""References of ray projection, away from the library.

`integrability.ray_project` runs its Gauss-Newton loop as one generated
program over float locals (`integrability._ray_program`), with the
least-norm step's Gram solve (`integrability._gram`) written in.  Two
references are kept here:

* the float-list loop that program unrolls (`float_ray_project`): the
  same floats, line search, tolerances and errors, with the least-norm
  step compiled from the same Gram solve as a program of its own
  (`ray_step`), called once per iteration.  The generated loop must land
  bitwise where it lands and raise its errors.
* the NumPy loop before it (`lstsq_ray_project`): the integrals' values
  and gradients as arrays and the step from `np.linalg.lstsq` on
  J = [TF | -Lambda], with the same line search, tolerances and errors.
  LAPACK's least squares is not our elimination, so the two agree to
  round-off only, except where the library's step falls back to `lstsq`
  itself.
"""

from __future__ import annotations

import functools

import numpy as np

from contactmech._programs import _sum, _tup, program
from contactmech.expressions import EvaluationDomainError
from contactmech.geometry import _fdot, _max_abs
from contactmech.integrability import RayProjectionError, _gram, _vectors


@functools.lru_cache(maxsize=None)
def ray_step(m, dim):
    """`step(TF, g, lam)`: the least-norm step of J = [TF | -Lambda], as the loop took it.

    It takes the rows TF of the integrals' gradients, g = F - r Lambda and
    Lambda as float sequences, solves J J^T y = -g by the Gram solve on the
    rows (TF_a, Lambda_a) and returns J^T y = (dx, dr) as one list, or None
    where J is (nearly) rank-deficient.
    """
    head = [_vectors("TF", m, dim), f"{_tup('g', m)} = g",
            f"{''.join(f'v{a}_{dim}, ' for a in range(m))}= lam"]  # Lambda ends each row
    dx = [_sum([f"v{a}_{k} * s{a}_{m}" for a in range(m)]) for k in range(dim + 1)]
    lines = [*head, *_gram(m, dim + 1, [f"-g{a}" for a in range(m)], "return None")]
    source = ["def step(TF, g, lam):", *(f"    {line}" for line in lines),
              f"    return [{', '.join(dx[:-1])}, -({dx[-1]})]"]
    return program(f"<reference ray-step m={m} dim={dim}>", source, {}, "step")


def float_ray_project(system, target, seed_point, tolerance=1e-10, max_iter=50):
    """Gauss-Newton solve of F(x) = r * Lambda with r > 0, over float lists."""
    lam = target.direction.tolist()
    x = system.chart.point(seed_point).tolist()
    m, width = len(lam), len(x) + 1  # the fused kernel gives f_a, df_a per integral
    kernel, step = system._fused, ray_step(m, len(x))
    jet = kernel(x)
    r = max(_fdot(jet[::width], lam) / _fdot(lam, lam), 1e-3)
    g = [v - r * c for v, c in zip(jet[::width], lam)]
    gn, converged = _max_abs(g), tolerance * max(1.0, _max_abs(lam))
    for _ in range(max_iter):
        if gn <= converged:
            if r <= 0.0:
                raise RayProjectionError(f"landed at nonpositive scale r = {r:.3e}")
            if r * _max_abs(lam) <= converged:
                raise RayProjectionError(f"landed at the apex F = 0 (scale r = {r:.3e})")
            return np.array(x), r
        TF = [jet[a * width + 1 : (a + 1) * width] for a in range(m)]
        delta = step(TF, g, lam)
        if delta is None:
            J = np.hstack([TF, -np.array(lam)[:, None]])
            delta = np.linalg.lstsq(J, -np.array(g), rcond=None)[0].tolist()
        *dx, dr = delta
        lam_step = 1.0
        for _ in range(25):
            x_try = [u + lam_step * du for u, du in zip(x, dx)]
            r_try = r + lam_step * dr
            try:
                jet_try = kernel(x_try)
            except EvaluationDomainError:
                lam_step *= 0.5
                continue
            g_try = [v - r_try * c for v, c in zip(jet_try[::width], lam)]
            gn_try = _max_abs(g_try)
            if gn_try < gn:
                x, r, g, gn, jet = x_try, r_try, g_try, gn_try, jet_try
                break
            lam_step *= 0.5
        else:
            break
    raise RayProjectionError(
        f"no convergence onto the ray (residual {gn:.3e} after {max_iter} iterations)"
    )


def lstsq_ray_project(system, target, seed_point, tolerance=1e-10, max_iter=50):
    """Gauss-Newton solve of F(x) = r * Lambda with r > 0, each step by lstsq."""
    lam = target.direction
    x = system.chart.point(seed_point)

    def values_and_jacobian(xv):
        jet = system.values_and_gradients(xv)
        return np.array([v for v, _ in jet]), np.array([grad for _, grad in jet])

    F, TF = values_and_jacobian(x)
    r = max(float(F @ lam / (lam @ lam)), 1e-3)
    g = F - r * lam
    gn = float(np.max(np.abs(g)))
    for _ in range(max_iter):
        converged = tolerance * max(1.0, float(np.max(np.abs(lam))))
        if gn <= converged:
            if r <= 0.0:
                raise RayProjectionError(f"landed at nonpositive scale r = {r:.3e}")
            if r * float(np.max(np.abs(lam))) <= converged:
                raise RayProjectionError(f"landed at the apex F = 0 (scale r = {r:.3e})")
            return x, r
        J = np.hstack([TF, -lam[:, None]])
        step, *_ = np.linalg.lstsq(J, -g, rcond=None)
        lam_step = 1.0
        for _ in range(25):
            x_try = x + lam_step * step[:-1]
            r_try = r + lam_step * step[-1]
            try:
                F_try, TF_try = values_and_jacobian(x_try)
            except EvaluationDomainError:
                lam_step *= 0.5
                continue
            g_try = F_try - r_try * lam
            gn_try = float(np.max(np.abs(g_try)))
            if gn_try < gn:
                x, r, g, gn, TF = x_try, r_try, g_try, gn_try, TF_try
                break
            lam_step *= 0.5
        else:
            break
    raise RayProjectionError(
        f"no convergence onto the ray (residual {gn:.3e} after {max_iter} iterations)"
    )
