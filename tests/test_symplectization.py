from pathlib import Path

import numpy as np
import pytest

from contactmech.config import load_config
from contactmech.expressions import Binary, Const, Var, gradient_evaluator, parse, to_string
from contactmech.geometry import ContactChart, ContactSystem
from contactmech.symplectization import (
    SingularStructureError,
    SympChart,
    lift_check,
    symplectize,
)
from identities import poisson_bracket

X4 = np.array([2.0, 3.0, 5.0, 7.0])

OMEGA_REF = np.array(
    [
        [0.0, -7.0, 0.0, -3.0],
        [7.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [3.0, 0.0, -1.0, 0.0],
    ]
)


@pytest.fixture(scope="module")
def schart():
    return SympChart(ContactChart.standard(1))


# ---------------------------------------------------------------------------
# Chart construction
# ---------------------------------------------------------------------------

def test_fiber_name_collision():
    with pytest.raises(ValueError):
        SympChart(ContactChart.standard(1), fiber="p")


def test_coordinates_and_point(schart):
    assert schart.coordinates == ("q", "p", "z", "r")
    with pytest.raises(ValueError):
        schart.point([1.0, 1.0, 1.0, -0.5])  # fiber must stay positive
    with pytest.raises(ValueError):
        schart.point([1.0, 1.0, 1.0])


def test_lift_and_project(schart):
    lifted = schart.lift_function("p")
    assert to_string(lifted) == "-(r * p)"


# ---------------------------------------------------------------------------
# Structure tensors at the reference point
# ---------------------------------------------------------------------------

def test_theta_at_reference(schart):
    assert np.array_equal(schart.theta_at(X4), [-21.0, 0.0, 7.0, 0.0])


def test_omega_at_reference(schart):
    omega = schart.omega_at(X4)
    assert np.allclose(omega, OMEGA_REF, atol=1e-12)
    assert np.linalg.det(omega) == pytest.approx(49.0)  # det = r^2


def test_omega_is_closed_by_construction(schart, rng):
    # antisymmetry plus dd(theta) = 0 checked through FD of the assembled matrix
    h = 1e-6
    x = np.array([1.1, 0.8, 1.4, 1.2])
    omega = schart.omega_at(x)
    assert np.allclose(omega, -omega.T, atol=1e-12)
    for a, b, c in [(0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 2)]:
        total = 0.0
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            e = np.zeros(4)
            e[i] = h
            total += (schart.omega_at(x + e)[j, k] - schart.omega_at(x - e)[j, k]) / (2 * h)
        assert total == pytest.approx(0.0, abs=1e-8)


def test_liouville_field_at_reference(pz_symp):
    # lift_check solves i_Delta omega = -theta and measures Delta - r d/dr
    check = lift_check(pz_symp, [X4]).checks[1]
    assert check.name == "liouville-field"
    assert check.value <= 1e-12 and check.passed


@pytest.mark.parametrize("n", [1, 2])
def test_liouville_field_is_exact_on_a_standard_form_base(n):
    # Delta is the closed template's field of value 0 and differential
    # -theta: (0, .., 0, r), with no round-off
    chart = ContactChart.standard(n)
    integrals = [*chart.coordinates[n : 2 * n], "z"]
    system = ContactSystem(chart, integrals, dict.fromkeys(chart.coordinates, (-2.0, 2.0)))
    symp = symplectize(system)
    check = lift_check(symp, symp.sample(np.random.default_rng(4), 50)).checks[1]
    assert check.name == "liouville-field" and check.value == 0.0 and check.passed


def test_a_singular_omega_raises_before_any_field_solve(monkeypatch):
    # eta = dz: omega is singular everywhere, and the field program would
    # raise too; the det of _omegas must raise first, at the first point
    base = ContactChart(("q", "p", "z"), ["0", "0", "1"])
    symp = symplectize(ContactSystem(base, ["p", "z"], dict.fromkeys(base.coordinates, (0.5, 2.0))))
    calls = []
    fields = SympChart._fields
    monkeypatch.setattr(SympChart, "_fields",
                        lambda self, *args: calls.append(1) or fields(self, *args))
    points = symp.sample(np.random.default_rng(0), 5)
    with pytest.raises(SingularStructureError) as caught:
        lift_check(symp, points)
    assert calls == []
    assert np.array_equal(caught.value.point, points[0]) and caught.value.det == 0.0


def test_liouville_contraction_recovers_theta(schart, rng):
    # Delta = r d/dr fills the first slot: omega(Delta, .) = -theta
    for _ in range(5):
        x = np.append(rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0))
        omega = schart.omega_at(x)
        delta = np.append(np.zeros(3), x[-1])
        assert np.allclose(omega.T @ delta, -schart.theta_at(x), atol=1e-10)


# ---------------------------------------------------------------------------
# Lifted Hamiltonian fields
# ---------------------------------------------------------------------------

def test_lifted_fields_at_reference(schart):
    Fp = schart.lift_function("p")
    Fz = schart.lift_function("z")
    assert np.allclose(schart.hamiltonian_field_at(Fp, X4), [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(schart.hamiltonian_field_at(Fz, X4), [0.0, -3.0, -5.0, 7.0])


def test_theta_pairing_for_homogeneous_functions(schart, rng):
    # theta(X_F) = F for degree-one F
    F = schart.lift_function("q * p + cos(z)")
    for _ in range(5):
        x = np.append(rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0))
        X = schart.hamiltonian_field_at(F, x)
        val = schart.value_and_gradient(schart.function(F), x)[0]
        assert float(schart.theta_at(x) @ X) == pytest.approx(val, abs=1e-9)


def test_poisson_bracket_at_reference(schart):
    Fq = schart.lift_function("q")
    Fp = schart.lift_function("p")
    assert poisson_bracket(schart, Fq, Fp, X4) == pytest.approx(7.0)


def test_fast_field_matches_general_solve(schart, rng):
    # non-homogeneous F exercises the omega solve; compare against the
    # closed form on a homogeneous one where both paths are available
    F = schart.lift_function("exp(q/4) * p + z^2")
    # -1 * p is not structurally the standard form: the general omega solve
    general = SympChart(ContactChart(("q", "p", "z"), ["-1 * p", "0", "1"]))
    for _ in range(5):
        x = np.append(rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0))
        assert np.allclose(
            schart.hamiltonian_field_at(F, x),
            general.hamiltonian_field_at(F, x),
            atol=1e-8,
        )


@pytest.mark.parametrize("eta", [None, ["-exp(q/3)*p", "0", "exp(q/3)"]])
def test_lifted_field_jacobian_matches_differences(eta):
    # standard and general bases: exact tangent maps against central differences
    chart = SympChart(ContactChart(("q", "p", "z"), eta))
    F = parse("-r * (exp(q/4) * sin(p) + z^2 * cos(q))", chart.coordinates)
    x, h = np.array([1.3, 0.7, 2.1, 1.4]), 1e-6
    differences = np.column_stack([
        (chart.hamiltonian_field_at(F, x + h * e) - chart.hamiltonian_field_at(F, x - h * e))
        / (2.0 * h)
        for e in np.eye(4)
    ])
    assert np.max(np.abs(chart.hamiltonian_field_jacobian_at(F, x) - differences)) < 1e-8


def test_hamiltonian_field_solves_omega_equation(schart, rng):
    F = parse("r * q - p * z")  # not a lift, not homogeneous
    for _ in range(5):
        x = np.append(rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0))
        X = schart.hamiltonian_field_at(F, x)
        _, dF = schart.value_and_gradient(F, x)
        assert np.allclose(schart.omega_at(x).T @ X, dF, atol=1e-10)


# ---------------------------------------------------------------------------
# Bracket correspondence with the base
# ---------------------------------------------------------------------------

def test_bracket_correspondence(schart, rng):
    base = ContactChart.standard(1)
    pairs = [("q", "p"), ("q * p", "z"), ("exp(q/4)", "p * z"), ("sin(p)", "q + z")]
    for f_src, g_src in pairs:
        F = schart.lift_function(f_src)
        G = schart.lift_function(g_src)
        for _ in range(5):
            xb = rng.uniform(0.5, 2.0, 3)
            r = rng.uniform(0.5, 2.0)
            x = np.append(xb, r)
            upstairs = poisson_bracket(schart, F, G, x)
            downstairs = base.jacobi_bracket_at(f_src, g_src, xb)
            assert upstairs == pytest.approx(-r * downstairs, abs=1e-9)


# ---------------------------------------------------------------------------
# Degeneracy detection
# ---------------------------------------------------------------------------

def test_singular_structure_detected():
    degenerate = SympChart(ContactChart(("q", "p", "z"), ["0", "0", "1"]))
    with pytest.raises(SingularStructureError):
        degenerate.omega_at(np.array([1.0, 1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# Lifted systems
# ---------------------------------------------------------------------------

def test_charts_keep_the_sign_of_a_zero_constant():
    # Const(0.0) == Const(-0.0) with equal hashes, so a memo keyed by the
    # tree alone would give q * -0.0 the value and gradient of q * 0.0
    base = ContactChart.standard(1)
    for chart in (base, SympChart(base)):
        x = np.concatenate([[-1.0], np.ones(chart.dim - 1)])
        for zero in (0.0, -0.0):
            f = Binary("*", Var("q"), Const(zero))
            value, grad = chart.value_and_gradient(f, x)
            field = chart.hamiltonian_field_at(f, x)
        fresh = Binary("*", Var("q"), Const(-0.0))
        want_value, want_grad = gradient_evaluator(fresh, chart.coordinates)(x)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        want_field = chart.field_from_gradient(x, want_value, want_grad)
        assert field.tobytes() == want_field.tobytes()


def test_symplectize_lifts_integrals(pz_system):
    symp = symplectize(pz_system, r_range=(0.5, 2.0))
    assert symp.coordinates == ("q", "p", "z", "r")
    assert [to_string(F) for F in symp.integrals] == ["-(r * p)", "-(r * z)"]
    assert symp.positive_indices == (1, 2, 3)
    assert np.array_equal(symp.integral_values(X4), [-21.0, -35.0])


def test_symplectize_region_stacks_fiber_range(pz_system):
    symp = symplectize(pz_system, r_range=(0.25, 4.0))
    assert np.array_equal(symp.region[-1], [0.25, 4.0])
    pts = symp.sample(np.random.default_rng(1), 40)
    assert pts.shape == (40, 4)
    assert np.all(pts[:, -1] >= 0.25) and np.all(pts[:, -1] <= 4.0)


def test_symplectize_rejects_bad_fiber_range(pz_system):
    with pytest.raises(ValueError):
        symplectize(pz_system, r_range=(0.0, 2.0))
    with pytest.raises(ValueError):
        symplectize(pz_system, r_range=(2.0, 1.0))


def test_symp_field_evaluator_matches_field(pz_symp, rng):
    for F in pz_symp.integrals:
        run = pz_symp.field_evaluator(F)
        for _ in range(3):
            x = np.append(rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0))
            assert np.allclose(run(x), pz_symp.hamiltonian_field_at(F, x), atol=1e-12)


@pytest.mark.parametrize("factor", ["1", "exp(q/3)"])
def test_lift_check_reports_every_identity(pz_system, factor):
    # the standard coframe, and the same system rescaled by exp(q/3) on a
    # general coframe (eta' = a eta, f' = a f keep every lifted identity)
    chart = ContactChart(("q", "p", "z"), [f"-({factor}) * p", "0", factor])
    system = ContactSystem(chart, [f"({factor}) * p", f"({factor}) * z"], pz_system.region)
    symp = symplectize(system)
    report = lift_check(symp, symp.sample(np.random.default_rng(3), 20))
    names = [c.name for c in report.checks]
    assert names == ["omega-nondegenerate", "liouville-field", "lift-homogeneity",
                     "theta-pairing", "bracket-correspondence"]
    assert [c.bound for c in report.checks] == [1e-8, 1e-10, 1e-10, 1e-8, 1e-8]
    assert report.checks[0].value > 1e-8
    assert all(c.value <= 1e-12 for c in report.checks[1:])
    assert report.passed and all(c.passed for c in report.checks)
    assert report.n_points == 20


def test_lift_check_runs_the_base_coframe_once_per_point(monkeypatch):
    # for omega, theta, the lifted fields and the base jets together: the
    # row-block twin of eta's fused kernel sees each base point once, and
    # no point runs the kernel on its own
    cfg = load_config(Path(__file__).parent / "data" / "golden" / "rescaled-pz.json")
    symp = cfg.symp_system()
    base = symp.chart.base
    points = symp.sample(np.random.default_rng(0), 50)
    blocks, calls = [], []
    twin = base._coeff_rows
    monkeypatch.setattr(base, "_coeff_rows", lambda columns: blocks.append(columns.T) or twin(columns))
    float_coframe = ContactChart._float_coframe
    monkeypatch.setattr(
        ContactChart, "_float_coframe",
        lambda self, x: calls.append(1) or float_coframe(self, x),
    )
    assert lift_check(symp, points).passed
    assert len(blocks) == 1 and np.array_equal(blocks[0], points[:, :-1]) and calls == []


def test_lift_check_builds_omega_once_per_stack(monkeypatch):
    # one omega serves the min |det|; the lifted fields and the Liouville
    # field write omega^T in the field program, from the same base coframe
    cfg = load_config(Path(__file__).parent / "data" / "golden" / "rescaled-pz.json")
    symp = cfg.symp_system()
    points = symp.sample(np.random.default_rng(0), 50)
    shapes = []
    omegas = SympChart._omegas
    monkeypatch.setattr(
        SympChart, "_omegas",
        lambda self, xs, eta, deta: shapes.append(xs.shape) or omegas(self, xs, eta, deta),
    )
    assert lift_check(symp, points).passed
    assert shapes == [(50, 4)]
