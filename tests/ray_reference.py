"""The NumPy reference of ray projection, away from the library.

`integrability.ray_project` runs its Gauss-Newton loop over floats and
takes the least-norm step from one generated elimination on J J^T
(`integrability._ray_step_program`).  The loop it replaced is kept here:
the integrals' values and gradients as arrays and the step from
`np.linalg.lstsq` on J = [TF | -Lambda], with the same line search,
tolerances and errors.  LAPACK's least squares is not our elimination,
so the two agree to round-off only, except where the library's step
falls back to `lstsq` itself.
"""

from __future__ import annotations

import numpy as np

from contactmech.expressions import EvaluationDomainError
from contactmech.integrability import RayProjectionError


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
