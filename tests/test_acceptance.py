"""End-to-end checks on the shipped translation-scaling example.

One test per user-visible guarantee: closed-form fields and flows,
action-angle recovery on both bundled sections, the standard shape of
the rescaled contact form, bracket correspondence under lifting, the
Jacobi-structure axioms, agreement of the two coisotropy diagnostics,
the dissipation law, and byte-identical reports.  Angle coordinates and
the standard shape are also checked at n = 2, on the standard chart and
on its image under a contactomorphism.
"""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from contactmech import (
    ContactChart,
    ContactSystem,
    RayTarget,
    SectionSpec,
    angle_solve,
    bundled_config_path,
    coisotropy_check,
    darboux_verify,
    group_action,
    integrate,
    parse,
    symplectize,
    tangency_check,
)
from contactmech.flows import COMPLETED
from identities import field_commutator, poisson_bracket


def test_hamiltonian_fields_match_their_closed_forms(pz_system, pz_symp, rng):
    start = time.perf_counter()
    chart, lifted_chart = pz_system.chart, pz_symp.chart
    f_translate, f_scale = pz_system.integrals
    for x in pz_system.sample(rng, 100):
        q, p, z = x
        X_t = chart.hamiltonian_field_at(f_translate, x)
        X_s = chart.hamiltonian_field_at(f_scale, x)
        assert np.max(np.abs(X_t - [1.0, 0.0, 0.0])) < 1e-12
        assert np.max(np.abs(X_s - [0.0, -p, -z])) < 1e-12
        assert abs(chart.jacobi_bracket_at(f_translate, f_scale, x)) < 1e-12
    F_translate, F_scale = pz_symp.integrals
    for xi in pz_symp.sample(rng, 100):
        q, p, z, r = xi
        X_t = lifted_chart.hamiltonian_field_at(F_translate, xi)
        X_s = lifted_chart.hamiltonian_field_at(F_scale, xi)
        assert np.max(np.abs(X_t - [1.0, 0.0, 0.0, 0.0])) < 1e-12
        assert np.max(np.abs(X_s - [0.0, -p, -z, r])) < 1e-12
    assert time.perf_counter() - start < 1.0


def test_group_action_reproduces_the_exponential_flow(pz_symp, rng):
    start = time.perf_counter()
    worst = 0.0
    for xi in pz_symp.sample(rng, 50):
        q, p, z, r = xi
        t, s = rng.uniform(-3.0, 3.0, size=2)
        exact = np.array(
            [q + t, p * np.exp(-s), z * np.exp(-s), r * np.exp(s)]
        )
        reached = group_action(pz_symp, [t, s], xi)
        worst = max(worst, float(np.max(np.abs(reached - exact))))
    assert worst < 1e-8
    assert time.perf_counter() - start < 5.0


def test_angle_solve_recovers_closed_form_angle_coordinates(pz_config, pz_symp, rng):
    graph_z = pz_config.section("graph-z")
    graph_p = pz_config.section("graph-p")
    for xi in pz_symp.sample(rng, 25):
        q, p, z, r = xi
        sol = angle_solve(pz_symp, graph_z, xi)
        assert np.max(np.abs(sol.y - [q, -np.log(z)])) < 1e-6
        assert abs(sol.A_tilde[0] + p / z) < 1e-8
        alt = angle_solve(pz_symp, graph_p, xi)
        assert np.max(np.abs(alt.y - [q - z / p, -np.log(p)])) < 1e-6
        assert abs(alt.A_tilde[0] + z / p) < 1e-6


def test_rescaled_contact_form_is_standard_in_angle_coordinates(pz_system, pz_config):
    report = darboux_verify(pz_system, pz_config.section("graph-z"), n_points=25)
    assert report.passed
    assert report.max_residual < 1e-5


# n = 2: the integrals (p1, p2, z) have the angles (q1, q2, -log z).  The
# contactomorphism (q, p, z) -> (q, p + grad S, z + S) with S = 0.3 q1^2 q2
# carries them to a nonlinear twin with the angles (q1, q2, -log(z - S));
# S and grad S vanish at q = 0, so both share the section.
N2_SYSTEMS = {
    "standard": (["p1", "p2", "z"], lambda q1, q2, z: -np.log(z)),
    "twin": (["p1 - 0.6*q1*q2", "p2 - 0.3*q1^2", "z - 0.3*q1^2*q2"],
             lambda q1, q2, z: -np.log(z - 0.3 * q1**2 * q2)),
}
N2_SECTION = SectionSpec(
    "graph-z", ("L1", "L2", "L3"), ("0", "0", "L1/L3", "L2/L3", "1", "L3"),
    {name: (0.5, 2.0) for name in ("L1", "L2", "L3")}, denominator_index=2,
)
N2_POINTS = np.array([
    [0.8, 0.7, 1.3, 1.6, 1.5],
    [-0.5, 1.1, 0.9, 1.2, 0.8],
    [1.2, -0.6, 1.7, 0.6, 1.9],
])


@pytest.mark.parametrize("name", sorted(N2_SYSTEMS))
def test_angle_coordinates_and_standard_shape_at_n2(name):
    integrals, last_angle = N2_SYSTEMS[name]
    system = ContactSystem(ContactChart.standard(2), integrals)
    symp = symplectize(system)
    for x in N2_POINTS:
        q1, q2, _, _, z = x
        sol = angle_solve(symp, N2_SECTION, np.append(x, 1.0))
        assert np.max(np.abs(sol.y - [q1, q2, last_angle(q1, q2, z)])) < 1e-8
    report = darboux_verify(system, N2_SECTION, points=N2_POINTS)
    assert report.max_residual <= 1e-7


def _random_cubic(rng) -> str:
    # sparse polynomial of total degree <= 3 with uniform coefficients
    terms = []
    while not terms:
        for a in range(4):
            for b in range(4 - a):
                for c in range(4 - a - b):
                    if rng.random() > 0.35:
                        continue
                    factors = [repr(float(rng.uniform(-2.0, 2.0)))]
                    for name, power in (("q", a), ("p", b), ("z", c)):
                        if power == 1:
                            factors.append(name)
                        elif power > 1:
                            factors.append(f"{name}^{power}")
                    terms.append(" * ".join(factors))
    return " + ".join(terms)


def test_lifted_brackets_track_base_brackets_on_random_cubics(pz_system, pz_symp, rng):
    chart, lifted_chart = pz_system.chart, pz_symp.chart
    worst = 0.0
    for _ in range(20):
        f = parse(_random_cubic(rng), chart.coordinates)
        g = parse(_random_cubic(rng), chart.coordinates)
        F = lifted_chart.lift_function(f)
        G = lifted_chart.lift_function(g)
        for xi in pz_symp.sample(rng, 100):
            upstairs = poisson_bracket(lifted_chart, F, G, xi)
            downstairs = chart.jacobi_bracket_at(f, g, xi[:-1])
            worst = max(worst, abs(upstairs + xi[-1] * downstairs))
    assert worst < 1e-8


def test_bracket_satisfies_the_jacobi_structure_axioms(pz_system, rng):
    chart = pz_system.chart
    names = ("q", "p", "z", "q * p", "sin(q) + z", "p * z - q")
    funcs = [parse(s, chart.coordinates) for s in names]
    points = pz_system.sample(rng, 100)

    for f, g in itertools.combinations(funcs, 2):
        for x in points:
            anti = chart.jacobi_bracket_at(f, g, x) + chart.jacobi_bracket_at(g, f, x)
            assert abs(anti) < 1e-12

    def nested(f, g, h, x):
        # {f, {g, h}} with the inner bracket differentiated numerically
        def inner(pt):
            return chart.jacobi_bracket_at(g, h, pt)

        grad = np.empty(chart.dim)
        for a in range(chart.dim):
            step = np.zeros(chart.dim)
            step[a] = 1e-5
            grad[a] = (inner(x + step) - inner(x - step)) / 2e-5
        X_f = chart.hamiltonian_field_at(f, x)
        return float(grad @ X_f) + inner(x) * chart.reeb_derivative(f, x)

    for f, g, h in itertools.combinations(funcs[1:], 3):
        for x in points:
            cyclic = nested(f, g, h, x) + nested(g, h, f, x) + nested(h, f, g, x)
            assert abs(cyclic) < 1e-8

    for i, j, k in itertools.combinations(range(len(names)), 3):
        f, g, h = funcs[i], funcs[j], funcs[k]
        product = parse(f"({names[j]}) * ({names[k]})", chart.coordinates)
        for x in points[::5]:
            lhs = chart.jacobi_bracket_at(f, product, x)
            bg = chart.jacobi_bracket_at(f, g, x)
            bh = chart.jacobi_bracket_at(f, h, x)
            gval, _ = chart.value_and_gradient(g, x)
            hval, _ = chart.value_and_gradient(h, x)
            rhs = bg * hval + bh * gval - gval * hval * chart.reeb_derivative(f, x)
            assert abs(lhs - rhs) < 1e-8

    # closed-form jets, then the same coframe as a general chart (its
    # field Jacobians are the tangent maps of the flat-map solve)
    general = ContactChart(chart.coordinates, ["-1 * p", "0", "1"])
    for ch in (chart, general):
        for f, g in itertools.combinations(funcs, 2):
            for x in points[::4]:
                commutator = field_commutator(ch, f, g, x)
                bracket = ch.jacobi_bracket_at(f, g, x)
                assert abs(bracket + ch.eta_at(x) @ commutator) < 1e-6


def test_coisotropy_and_tangency_verdicts_agree(pz_system, involutive5, noninvolutive5):
    cases = [
        (pz_system, RayTarget((1.0, 1.0)), True),
        (involutive5, RayTarget((1.0, 1.0, 1.0)), True),
        (noninvolutive5, RayTarget((1.0, 1.0, 1.0)), False),
    ]
    for system, target, expected in cases:
        co = coisotropy_check(system, target, tolerance=1e-8)
        tan = tangency_check(system, target, tolerance=1e-8)
        assert co.passed == tan.passed
        assert co.passed is expected


def test_flows_dissipate_and_conserve_as_the_bracket_predicts(pz_system):
    x0 = np.array([0.8, 1.7, 1.3])
    scaling = integrate(pz_system, "z", x0, 5.0)
    assert scaling.status == COMPLETED
    p_exact = x0[1] * np.exp(-scaling.times)
    assert np.max(np.abs(scaling.points[:, 1] - p_exact)) < 1e-7
    translation = integrate(pz_system, "p", x0, 5.0)
    assert translation.status == COMPLETED
    assert np.max(np.abs(translation.points[:, 2] - x0[2])) < 1e-9


def test_check_reports_are_byte_identical_for_a_fixed_seed():
    cmd = [
        sys.executable,
        "-m",
        "contactmech.cli",
        "check",
        str(bundled_config_path("darboux-pz")),
        "--seed",
        "42",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout
    assert first.stdout == second.stdout
