import numpy as np
import pytest

from contactmech.expressions import Const, EvaluationDomainError, parse
from contactmech.geometry import (
    ConformalFactorError,
    ContactChart,
    ContactConditionError,
    ContactSystem,
    conformal_rescale,
    contact_condition_check,
)
from identities import field_commutator, lambda_pairing

X0 = np.array([2.0, 3.0, 5.0])


@pytest.fixture(scope="module")
def chart():
    return ContactChart.standard(1)


@pytest.fixture(scope="module")
def general_chart():
    # same coframe written as -1 * p, which is not structurally the
    # standard form, so every operator takes the general solve
    return ContactChart(("q", "p", "z"), ["-1 * p", "0", "1"])


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_chart_constructor_validation():
    with pytest.raises(ValueError):
        ContactChart(("q", "p"))
    with pytest.raises(ValueError):
        ContactChart(("q", "q", "z"))
    with pytest.raises(ValueError):
        ContactChart(("q", "p", "2z"))
    with pytest.raises(ValueError):
        ContactChart(("q", "p", "z"), ["-p", "0"])
    with pytest.raises(ValueError):
        ContactChart(("q", "p", "z"), ["-p", "0", "w"])


def test_standard_form_detection():
    assert ContactChart.standard(1).darboux
    assert ContactChart(("q", "p", "z"), ["-p", "0", "1"]).darboux
    assert not ContactChart(("q", "p", "z"), ["-1 * p", "0", "1"]).darboux
    assert not ContactChart(("q", "p", "z"), ["-2 * p", "0", "1"]).darboux


def test_standard_names():
    assert ContactChart.standard(0).coordinates == ("z",)
    assert ContactChart.standard(1).coordinates == ("q", "p", "z")
    assert ContactChart.standard(2).coordinates == ("q1", "q2", "p1", "p2", "z")


def test_point_validation(chart):
    with pytest.raises(ValueError):
        chart.point([1.0, 2.0])
    # a stack reports its whole shape
    for xs in (np.zeros(3), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError) as exc:
            chart.points(xs)
        assert str(exc.value) == f"expected points of shape (N, 3), got {xs.shape}"


# ---------------------------------------------------------------------------
# Coframe fields at the reference point
# ---------------------------------------------------------------------------

def test_eta_at_reference(chart):
    assert np.array_equal(chart.eta_at(X0), [-3.0, 0.0, 1.0])


def test_flat_matrix_at_reference(chart):
    B = chart.flat_matrix_at(X0)
    assert np.array_equal(B, [[9.0, 1.0, -3.0], [-1.0, 0.0, 0.0], [-3.0, 0.0, 1.0]])
    assert np.linalg.det(B) == pytest.approx(1.0)


def test_reeb_at_reference(chart):
    assert np.array_equal(chart.reeb_at(X0), [0.0, 0.0, 1.0])


def test_reeb_derivative(chart):
    # for the standard coframe this is the z partial
    assert chart.reeb_derivative("q * z^2", X0) == pytest.approx(2 * 2.0 * 5.0)


def test_hamiltonian_fields_at_reference(chart):
    assert np.allclose(chart.hamiltonian_field_at("p", X0), [1.0, 0.0, 0.0])
    assert np.allclose(chart.hamiltonian_field_at("z", X0), [0.0, -3.0, -5.0])


def test_jacobi_brackets_at_reference(chart):
    assert chart.jacobi_bracket_at("q", "p", X0) == pytest.approx(-1.0)
    assert chart.jacobi_bracket_at("q", "z", X0) == pytest.approx(-2.0)
    assert chart.jacobi_bracket_at("p", "z", X0) == pytest.approx(0.0)


def test_lambda_pairing_at_reference(chart, general_chart):
    # the pairing drops the Reeb terms: Lambda(dq, dp) = {q,p} + q R(p) - p R(q)
    for ch in (chart, general_chart):
        assert lambda_pairing(ch, "q", "p", X0) == pytest.approx(-1.0)
        assert lambda_pairing(ch, "q", "z", X0) == pytest.approx(-2.0 + 2.0)
        for f, g in [("q", "p"), ("q", "z"), ("q^2 * p - z", "cos(q) + p * z")]:
            fv, gv = (ch.value_and_gradient(ch.function(h), X0)[0] for h in (f, g))
            want = (ch.jacobi_bracket_at(f, g, X0)
                    + fv * ch.reeb_derivative(g, X0) - gv * ch.reeb_derivative(f, X0))
            assert lambda_pairing(ch, f, g, X0) == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# Fast path versus general path
# ---------------------------------------------------------------------------

def test_fast_and_general_paths_agree(chart, general_chart, rng):
    f = parse("exp(q/4) * sin(p) + z^2 * cos(q)")
    g = parse("q * p + z")
    for _ in range(10):
        x = rng.uniform(0.4, 1.9, 3)
        assert np.allclose(chart.eta_at(x), general_chart.eta_at(x), atol=1e-12)
        assert np.allclose(chart.coframe_at(x)[1], general_chart.coframe_at(x)[1], atol=1e-12)
        assert np.allclose(chart.reeb_at(x), general_chart.reeb_at(x), atol=1e-9)
        assert np.allclose(
            chart.hamiltonian_field_at(f, x),
            general_chart.hamiltonian_field_at(f, x),
            atol=1e-9,
        )
        assert chart.jacobi_bracket_at(f, g, x) == pytest.approx(
            general_chart.jacobi_bracket_at(f, g, x), abs=1e-9
        )


# ---------------------------------------------------------------------------
# Bracket algebra
# ---------------------------------------------------------------------------

def test_bracket_definition_identity(chart, rng):
    # {f,g} = X_f(g) + g R(f)
    f = parse("q^2 * p - z")
    g = parse("cos(q) + p * z")
    for _ in range(5):
        x = rng.uniform(0.5, 2.0, 3)
        Xf = chart.hamiltonian_field_at(f, x)
        gval, ggrad = chart.value_and_gradient(g, x)
        want = float(ggrad @ Xf) + gval * chart.reeb_derivative(f, x)
        assert chart.jacobi_bracket_at(f, g, x) == pytest.approx(want, abs=1e-10)


def test_bracket_antisymmetry(chart, rng):
    f = parse("exp(q/3) * p")
    g = parse("z * sin(p)")
    for _ in range(5):
        x = rng.uniform(0.5, 2.0, 3)
        assert chart.jacobi_bracket_at(f, g, x) == pytest.approx(
            -chart.jacobi_bracket_at(g, f, x), abs=1e-12
        )


def _rescaled_involutive5(system):
    # eta' = exp(q1/3) eta with integrals exp(q1/3) (p1, p2, z): a general coframe
    chart = conformal_rescale(system.chart, "exp(q1/3)")
    return ContactSystem(
        chart, [f"exp(q1/3)*{f}" for f in ("p1", "p2", "z")], system.region
    )


@pytest.mark.parametrize("which", ["involutive", "noninvolutive", "rescaled"])
def test_bracket_matrix_equals_pairwise_brackets(which, involutive5, noninvolutive5, rng):
    if which == "rescaled":
        system = _rescaled_involutive5(involutive5)
    else:
        system = involutive5 if which == "involutive" else noninvolutive5
    assert system.chart.darboux == (which != "rescaled")
    m = len(system.integrals)
    points = system.sample(rng, 8)
    jets = system.jet_stack(points)
    matrices = system.chart.bracket_matrix(jets)
    for x, matrix, fields in zip(points, matrices, jets.fields):
        # reference: one jacobi_bracket_at call per pair, as the checks used to do
        pairwise = np.zeros((m, m))
        for a in range(m):
            for b in range(a + 1, m):
                val = system.chart.jacobi_bracket_at(
                    system.integrals[a], system.integrals[b], x
                )
                pairwise[a, b], pairwise[b, a] = val, -val
        assert np.array_equal(matrix, pairwise)
        for a in range(m):
            assert np.array_equal(fields[a], system.hamiltonian_field_at(a, x))
    if which == "noninvolutive":
        assert np.any(np.abs(matrix) > 0.1)


def test_bracket_with_constant(chart):
    # {z, c} = c R(z) = c
    assert chart.jacobi_bracket_at("z", "-1", X0) == pytest.approx(-1.0)
    assert chart.jacobi_bracket_at("q", "2", X0) == pytest.approx(0.0)


def test_jacobi_identity_on_coordinate_triple(chart):
    # {q,{p,z}} + {p,{z,q}} + {z,{q,p}} with the inner brackets 0, q, -1
    lhs = (
        chart.jacobi_bracket_at("q", "0", X0)
        + chart.jacobi_bracket_at("p", "q", X0)
        + chart.jacobi_bracket_at("z", "-1", X0)
    )
    assert lhs == pytest.approx(0.0, abs=1e-12)


def test_weak_leibniz_on_coordinates(chart):
    # {q, p z} = {q,p} z + {q,z} p - p z R(q) = -z - q p at the reference point
    assert chart.jacobi_bracket_at("q", "p * z", X0) == pytest.approx(-5.0 - 6.0)


# ---------------------------------------------------------------------------
# Field Jacobians and commutators
# ---------------------------------------------------------------------------

def test_field_jacobian_jet_matches_fd(chart):
    f = parse("exp(q/4) * sin(p) + z^2 * cos(q) - sqrt(z) * tanh(p*q/3)")
    x = np.array([1.3, 0.7, 2.1])
    J_jet = chart.hamiltonian_field_jacobian_at(f, x)
    J_fd = np.empty((3, 3))
    for a in range(3):
        step = np.zeros(3)
        step[a] = 1e-5
        J_fd[:, a] = (
            chart.hamiltonian_field_at(f, x + step) - chart.hamiltonian_field_at(f, x - step)
        ) / 2e-5
    assert np.allclose(J_jet, J_fd, atol=1e-8)


def test_general_field_jacobian_matches_jets(chart, general_chart):
    # the general chart differentiates its flat-map solve, the Darboux chart its closed form
    f = parse("exp(q/4) * sin(p) + z^2 * cos(q) - sqrt(z) * tanh(p*q/3)")
    x = np.array([1.3, 0.7, 2.1])
    J_jet = chart.hamiltonian_field_jacobian_at(f, x)
    J_fd = general_chart.hamiltonian_field_jacobian_at(f, x)
    assert np.allclose(J_jet, J_fd, atol=1e-8)


def test_general_field_jacobian_is_exact(chart, general_chart):
    # the general chart's columns are exact tangent maps, not central differences
    f = parse("exp(q/4) * sin(p) + z^2 * cos(q) - sqrt(z) * tanh(p*q/3)")
    for x in ([1.3, 0.7, 2.1], [-0.4, 1.9, 0.6]):
        J_jet = chart.hamiltonian_field_jacobian_at(f, x)
        assert np.max(np.abs(general_chart.hamiltonian_field_jacobian_at(f, x) - J_jet)) < 1e-11


def test_commutator_closes_on_brackets(chart):
    # [X_q, X_p] = X_{{q,p}} = X_{-1} = (0, 0, 1)
    assert np.allclose(field_commutator(chart, "q", "p", X0), [0.0, 0.0, 1.0], atol=1e-9)
    # [X_z, X_q] = X_{{z,q}} = X_q = (0, -1, -q)
    assert np.allclose(field_commutator(chart, "z", "q", X0), [0.0, -1.0, -2.0], atol=1e-9)


# ---------------------------------------------------------------------------
# Conformal rescaling
# ---------------------------------------------------------------------------

def test_conformal_rescale_identity_factor(chart):
    assert conformal_rescale(chart, Const(1.0)) is chart


def test_conformal_rescale_rejects_vanishing_factor(chart):
    samples = np.array([[1.0, 1.0, 1.0], [0.0, 0.5, 1.0]])
    with pytest.raises(ConformalFactorError):
        conformal_rescale(chart, "q", samples)


def test_conformal_rescale_field_invariance(chart, rng):
    # X respects f -> a f under eta -> a eta
    a_src = "1 + q^2/10 + z/4"
    f_src = "q * p + cos(z)"
    chart2 = conformal_rescale(chart, a_src)
    af = parse(f"({a_src}) * ({f_src})")
    for _ in range(5):
        x = rng.uniform(0.4, 1.8, 3)
        assert np.allclose(
            chart2.hamiltonian_field_at(af, x),
            chart.hamiltonian_field_at(f_src, x),
            atol=1e-9,
        )


def test_conformal_rescale_bracket_covariance(chart, rng):
    a_src = "1 + q^2/10 + z/4"
    f_src = "exp(q/4) + p * z"
    g_src = "q * p - z^2"
    chart2 = conformal_rescale(chart, a_src)
    a = parse(a_src)
    fa = parse(f"({f_src}) / ({a_src})")
    ga = parse(f"({g_src}) / ({a_src})")
    for _ in range(5):
        x = rng.uniform(0.4, 1.8, 3)
        lhs = chart2.jacobi_bracket_at(f_src, g_src, x)
        rhs = chart.value_and_gradient(a, x)[0] * chart.jacobi_bracket_at(fa, ga, x)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_system_conformal_rescale_checks_samples(pz_system):
    samples = pz_system.sample(np.random.default_rng(0), 64)
    with pytest.raises(ConformalFactorError):
        conformal_rescale(pz_system.chart, "q - q", samples)
    chart2 = conformal_rescale(pz_system.chart, "z", samples)
    assert not chart2.darboux


# ---------------------------------------------------------------------------
# Degenerate coframes
# ---------------------------------------------------------------------------

def test_degenerate_coframe_detected():
    flat = ContactChart(("q", "p", "z"), ["0", "0", "1"])  # dz alone: B singular
    with pytest.raises(ContactConditionError):
        flat.flat_matrix_at(X0)
    report = contact_condition_check(flat, np.array([X0]))
    assert not report.passed
    assert report.min_abs_det == pytest.approx(0.0, abs=1e-15)


def test_contact_condition_check_passes_standard(chart, rng):
    points = rng.uniform(0.5, 2.0, size=(20, 3))
    report = contact_condition_check(chart, points)
    assert report.passed
    assert report.n_points == 20
    assert report.min_abs_det == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Zero-dimensional base
# ---------------------------------------------------------------------------

def test_single_coordinate_chart():
    c0 = ContactChart.standard(0)
    z = np.array([2.0])
    assert np.array_equal(c0.eta_at(z), [1.0])
    assert np.array_equal(c0.reeb_at(z), [1.0])
    assert np.allclose(c0.hamiltonian_field_at("z", z), [-2.0])
    assert c0.jacobi_bracket_at("z", "z", z) == pytest.approx(0.0)
    # {z, z^2} = X_z(z^2) + z^2 R(z) = (-z)(2z) + z^2 = -z^2
    assert c0.jacobi_bracket_at("z", "z^2", z) == pytest.approx(-4.0)


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

def test_system_requires_matching_integral_count(chart):
    with pytest.raises(ValueError):
        ContactSystem(chart, ["p"])
    with pytest.raises(ValueError):
        ContactSystem(chart, ["p", "z", "q"])


def test_system_region_validation(chart):
    with pytest.raises(ValueError):
        ContactSystem(chart, ["p", "z"], {"q": (0, 1)})
    with pytest.raises(ValueError):
        ContactSystem(chart, ["p", "z"], {"q": (0, 1), "p": (0, 1), "z": (1, 0)})
    with pytest.raises(ValueError):
        ContactSystem(chart, ["p", "z"], positive=["w"])
    bare = ContactSystem(chart, ["p", "z"])
    with pytest.raises(ValueError):
        bare.sample(np.random.default_rng(0), 3)


def test_system_sampling_within_region(pz_system, rng):
    pts = pz_system.sample(rng, 50)
    assert pts.shape == (50, 3)
    lo, hi = pz_system.region[:, 0], pz_system.region[:, 1]
    assert np.all(pts >= lo) and np.all(pts <= hi)


def test_system_resolve_forms(pz_system):
    by_index = pz_system.resolve(0)
    by_source = pz_system.resolve("p")
    assert by_index == by_source == pz_system.resolve(parse("p"))


def test_system_integral_values_and_jacobian(pz_system):
    assert np.array_equal(pz_system.integral_values(X0), [3.0, 5.0])
    assert np.array_equal(pz_system.gradient_stack([X0])[1][0], [[0, 1, 0], [0, 0, 1]])


def test_field_evaluator_matches_field(pz_system, rng):
    f = "q * p - sin(z)"
    run = pz_system.field_evaluator(f)
    for _ in range(5):
        x = rng.uniform(0.5, 2.0, 3)
        assert np.allclose(run(x), pz_system.hamiltonian_field_at(f, x), atol=1e-12)


def test_field_evaluator_propagates_domain_errors(pz_system):
    run = pz_system.field_evaluator("log(q)")
    with pytest.raises(EvaluationDomainError):
        run(np.array([-1.0, 1.0, 1.0]))
