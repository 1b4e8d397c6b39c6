"""Identities of the contact and lifted structures, as test references.

Each helper computes one side of an identity from the library's single
point entry points, so that a test can hold it against the other side:

* `field_commutator`: [X_f, X_g] from the fields and their Jacobians,
  against X_{f,g} (eta([X_f, X_g]) = -{f, g});
* `lambda_pairing`: Lambda(df, dg) = -u^T (d eta) v with u = B^-T df and
  v = B^-T dg, against {f, g} + f R(g) - g R(f);
* `poisson_bracket`: {F, G} = X_F(G) on the symplectization, against
  {f^S, g^S} = -r {f, g};
* `dissipation_residual`: |d/dt f + R(h) f| along a flow of h, which
  vanishes for f in involution with h, by three-point differences.
"""

from __future__ import annotations

import numpy as np


def field_commutator(chart, f, g, x) -> np.ndarray:
    """Lie bracket [X_f, X_g] = DX_g X_f - DX_f X_g at x."""
    Xf, Xg = chart.hamiltonian_field_at(f, x), chart.hamiltonian_field_at(g, x)
    Jf = chart.hamiltonian_field_jacobian_at(f, x)
    Jg = chart.hamiltonian_field_jacobian_at(g, x)
    return Jg @ Xf - Jf @ Xg


def lambda_pairing(chart, f, g, x) -> float:
    """Bivector pairing Lambda(df, dg) = -u^T (d eta) v, with u = B^-T df and v = B^-T dg."""
    x = chart.point(x)
    coframe = chart.coframe_at(x)
    BT = chart.flat_matrix_at(x, coframe).T
    u, v = (np.linalg.solve(BT, chart.value_and_gradient(chart.function(h), x)[1])
            for h in (f, g))
    return float(-(u @ coframe[1] @ v))


def poisson_bracket(chart, F, G, x) -> float:
    """Poisson bracket {F, G} = X_F(G) of the potential theta."""
    _, dG = chart.value_and_gradient(chart.function(G), chart.point(x))
    return float(dG @ chart.hamiltonian_field_at(F, x))


def dissipation_residual(system, h, f, trajectory) -> float:
    """Largest interior |d/dt (f along c) + R(h) (f along c)| along a flow c of h.

    Along c, df/dt = X_h(f) = {h, f} - f R(h), so the residual vanishes
    when {h, f} = 0.  The time derivative is a three-point difference on
    the (possibly nonuniform) trajectory grid, so the trajectory must be
    dense enough for its quadratic truncation error to sit below the
    tolerance tested.
    """
    chart = system.chart
    h, f = system.resolve(h), system.resolve(f)
    ts, xs = trajectory.times, trajectory.points
    fv = np.array([chart.value_and_gradient(f, x)[0] for x in xs])
    worst = 0.0
    for k in range(1, len(ts) - 1):
        h1, h2 = ts[k] - ts[k - 1], ts[k + 1] - ts[k]
        dfdt = (
            -h2 / (h1 * (h1 + h2)) * fv[k - 1]
            + (h2 - h1) / (h1 * h2) * fv[k]
            + h1 / (h2 * (h1 + h2)) * fv[k + 1]
        )
        worst = max(worst, abs(dfdt + chart.reeb_derivative(h, xs[k]) * fv[k]))
    return worst
