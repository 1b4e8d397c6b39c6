import re
from pathlib import Path

import numpy as np
import pytest

from contactmech.config import bundled_config_path, load_config
from contactmech.flows import FlowError, IntegratorConfig, group_action
from contactmech.geometry import ContactChart, ContactSystem, _Chart, contact_condition_check
from contactmech.integrability import (
    IntegrabilityError,
    NewtonDivergenceError,
    RayProjectionError,
    RayTarget,
    SectionError,
    SectionSpec,
    angle_solve,
    coisotropy_check,
    darboux_verify,
    involution_check,
    period_detect,
    rank_check,
    ray_project,
    tangency_check,
    verify_section,
    _darboux_covector,
)
from contactmech.symplectization import lift_check, symplectize
from darboux_tangents import hand_variational
from float_fields import lapack_variational

X4 = np.array([2.0, 3.0, 5.0, 1.0])
RESCALED_PZ = Path(__file__).parent / "data" / "golden" / "rescaled-pz.json"
# tight enough that the Newton target, 10 rel_tol times the point scale,
# sits two orders below a 1e-9 comparison
TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def _closed_form_angles(section: str, x) -> np.ndarray:
    q, p, z = x[0], x[1], x[2]
    if section == "graph-z":
        return np.array([q, -np.log(z)])
    return np.array([q - z / p, -np.log(p)])


def _ray(*v):
    return RayTarget(np.array(v, dtype=float))


@pytest.fixture(scope="module")
def rescaled_symp(pz_system):
    # eta' = exp(q/3) eta with integrals exp(q/3) (p, z): a general coframe
    # whose lifted flows are conjugate to darboux-pz's
    chart = ContactChart(("q", "p", "z"), ["-exp(q/3)*p", "0", "exp(q/3)"])
    system = ContactSystem(
        chart, ["exp(q/3)*p", "exp(q/3)*z"], pz_system.region, positive=["p", "z"]
    )
    return symplectize(system)


# ---------------------------------------------------------------------------
# Targets and sections
# ---------------------------------------------------------------------------

def test_ray_target_rejects_zero():
    with pytest.raises(ValueError):
        RayTarget(np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ray_target_rejects_a_nonfinite_direction(bad):
    # such a direction fails every membership comparison, so coisotropy_check
    # passed a point that lies off every ray
    with pytest.raises(ValueError, match="ray direction must be finite"):
        RayTarget([bad, 1.0])


@pytest.mark.parametrize("tiny", [1e-200, 5e-324])
def test_ray_target_rejects_a_direction_whose_square_underflows(tiny):
    # Lambda . Lambda is 0.0 in floats, and ray_project divides by it
    with pytest.raises(ValueError, match="squared norm 0.0 in floats; rescale it"):
        RayTarget([tiny, tiny])
    RayTarget([tiny, 1.0])  # a direction with one entry of ordinary size stands


def test_section_spec_validation():
    dom = {"L1": (0.5, 2.0), "L2": (0.5, 2.0)}
    with pytest.raises(ValueError):
        SectionSpec("s", ("L1", "L1"), ("0", "1", "1", "L1"), dom)
    with pytest.raises(ValueError):
        SectionSpec("s", ("L1", "L2"), ("0", "w", "1", "L2"), dom)
    with pytest.raises(ValueError):
        SectionSpec("s", ("L1", "L2"), ("0", "1", "1", "L2"), {"L1": (0, 1)})
    with pytest.raises(ValueError):
        SectionSpec("s", ("L1", "L2"), ("0", "1", "1", "L2"), dom, denominator_index=2)


def test_section_spec_rejects_extra_domain_key():
    # the shared bounds check of regions: an extra key used to pass silently
    dom = {"L1": (0.5, 2.0), "L2": (0.5, 2.0), "W": (0.5, 2.0)}
    with pytest.raises(ValueError, match=r"domain keys must match parameters .*extra \['W'\]"):
        SectionSpec("s", ("L1", "L2"), ("0", "1", "1", "L2"), dom)


def test_section_chi_and_jacobian(pz_config):
    section = pz_config.section("graph-z")
    lam = np.array([3.0, 5.0])
    assert np.allclose(section.chi_at(lam), [0.0, 0.6, 1.0, 5.0])
    J = section.chi_jacobian_at(lam)
    want = np.array([[0.0, 0.0], [0.2, -3.0 / 25.0], [0.0, 0.0], [0.0, 1.0]])
    assert np.allclose(J, want, atol=1e-12)


@pytest.mark.parametrize("lam", [[1.0], [1.0, 2.0, 99.0], [[1.0, 2.0]]])
def test_section_rejects_parameters_of_the_wrong_size(pz_config, lam):
    # an extra parameter was ignored, a missing one raised from the evaluator
    section = pz_config.section("graph-z")
    for method in (section.chi_at, section.chi_jacobian_at):
        with pytest.raises(ValueError, match="section 'graph-z' takes 2 parameters"):
            method(lam)


def test_verify_bundled_sections(pz_config, pz_symp):
    for name in ("graph-z", "graph-p"):
        report = verify_section(pz_symp, pz_config.section(name), seed=0)
        assert report.passed
        assert report.sign == -1
        assert report.max_target_residual < 1e-12
        assert report.max_horizontality < 1e-12


def test_verify_section_detects_plus_sign(pz_symp):
    # r = -L2 with L2 < 0 flips the pairing to F(chi(Lambda)) = +Lambda
    section = SectionSpec(
        "plus",
        ("L1", "L2"),
        ("0", "L1 / L2", "1", "-L2"),
        {"L1": (0.5, 2.0), "L2": (-2.0, -0.5)},
        denominator_index=1,
    )
    report = verify_section(pz_symp, section, seed=0)
    assert report.passed
    assert report.sign == 1


def test_verify_section_flags_nonhorizontal(pz_symp):
    # moving q with Lambda breaks theta-horizontality but not the target
    section = SectionSpec(
        "skew",
        ("L1", "L2"),
        ("L1", "L1 / L2", "1", "L2"),
        {"L1": (0.5, 2.0), "L2": (0.5, 2.0)},
    )
    report = verify_section(pz_symp, section, seed=0)
    assert report.sign == -1
    assert report.max_horizontality > 1e-3
    assert not report.passed


def test_verify_section_needs_a_sample(pz_config, pz_symp):
    # zero samples used to report sign 1 and pass without evaluating a point
    with pytest.raises(ValueError, match="n_samples must be at least 1, got 0"):
        verify_section(pz_symp, pz_config.section("graph-z"), n_samples=0)


CHECKS = ["contact_condition_check", "involution_check", "rank_check", "coisotropy_check",
          "tangency_check", "darboux_verify", "lift_check"]


def _on_no_points(system, symp, section):
    """Each check on zero points: sampled zero times, and given no rows."""
    target, none = _ray(1.0, 1.0), np.empty((0, system.dim))
    return {
        "contact_condition_check": [lambda: contact_condition_check(system.chart, none)],
        "involution_check": [lambda: involution_check(system, n_samples=0),
                             lambda: involution_check(system, points=none)],
        "rank_check": [lambda: rank_check(system, n_samples=0),
                       lambda: rank_check(system, points=[])],
        "coisotropy_check": [lambda: coisotropy_check(system, target, n_points=0),
                             lambda: coisotropy_check(system, target, points=none)],
        "tangency_check": [lambda: tangency_check(system, target, n_points=0),
                           lambda: tangency_check(system, target, points=none)],
        "darboux_verify": [lambda: darboux_verify(system, section, n_points=0),
                           lambda: darboux_verify(system, section, points=none)],
        "lift_check": [lambda: lift_check(symp, np.empty((0, symp.dim)))],
    }


@pytest.mark.parametrize("check", CHECKS)
def test_checks_need_a_point(pz_config, pz_system, pz_symp, check):
    # no point used to raise IndexError or NumPy's error on an empty argmax
    calls = _on_no_points(pz_system, pz_symp, pz_config.section("graph-z"))[check]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{check} needs at least one point, got none$"):
            call()


@pytest.mark.parametrize("check", CHECKS)
def test_checks_need_finite_points(pz_config, pz_system, pz_symp, check):
    # a NaN point used to make every check but darboux_verify pass
    rows = [[0.5, 1.0, 1.0], [np.nan, 1.0, 1.0], [1.0, np.inf, 1.0]]
    if check == "lift_check":
        rows = [[*row, 1.0] for row in rows]
    target, section = _ray(1.0, 1.0), pz_config.section("graph-z")
    calls = {
        "contact_condition_check": lambda xs: contact_condition_check(pz_system.chart, xs),
        "involution_check": lambda xs: involution_check(pz_system, points=xs),
        "rank_check": lambda xs: rank_check(pz_system, points=xs),
        "coisotropy_check": lambda xs: coisotropy_check(pz_system, target, points=xs),
        "tangency_check": lambda xs: tangency_check(pz_system, target, points=xs),
        "darboux_verify": lambda xs: darboux_verify(pz_system, section, points=xs),
        "lift_check": lambda xs: lift_check(pz_symp, xs),
    }
    message = re.escape(f"{check} needs finite points, got {rows[1]}")
    for xs in (rows[1], np.array(rows)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            calls[check](xs)


def test_verify_section_rejects_escaping_fiber(pz_symp):
    section = SectionSpec(
        "bad-fiber",
        ("L1", "L2"),
        ("0", "L1 / L2", "1", "-L2"),
        {"L1": (0.5, 2.0), "L2": (0.5, 2.0)},
    )
    # the message names the fiber and Lambda of the first sample
    lam = np.random.default_rng(0).uniform([0.5, 0.5], [2.0, 2.0], size=(25, 2))[0]
    with pytest.raises(SectionError, match=re.escape(
            f"section 'bad-fiber' leaves the chart (fiber {-lam[1]:.3e} at Lambda = "
            f"{lam.tolist()})")):
        verify_section(pz_symp, section, seed=0)


def test_verify_section_rejects_wrong_arity(pz_symp):
    section = SectionSpec("short", ("L1", "L2"), ("0", "1", "L2"),
                          {"L1": (0.5, 2.0), "L2": (0.5, 2.0)})
    with pytest.raises(SectionError):
        verify_section(pz_symp, section, seed=0)


# ---------------------------------------------------------------------------
# Involution and rank
# ---------------------------------------------------------------------------

def test_involution_passes_on_commuting_integrals(pz_system, involutive5):
    assert involution_check(pz_system, n_samples=30).passed
    report = involution_check(involutive5, n_samples=30)
    assert report.passed
    assert report.max_abs_bracket == 0.0


def test_involution_fails_on_conjugate_pair(noninvolutive5):
    report = involution_check(noninvolutive5, n_samples=30)
    assert not report.passed
    assert report.max_abs_bracket >= 1.0  # {q1, p1} = -1 everywhere
    assert report.worst_pair in ((0, 1), (0, 2))


def test_rank_check_full_rank(pz_system, involutive5):
    assert rank_check(pz_system, n_samples=20).min_rank == 2
    assert rank_check(involutive5, n_samples=20).passed


def test_rank_check_detects_degeneracy():
    chart = ContactChart.standard(1)
    flat = ContactSystem(chart, ["1", "2"], {"q": (0, 1), "p": (0.5, 1), "z": (0.5, 1)})
    report = rank_check(flat, n_samples=5)
    assert report.min_rank == 0
    assert not report.passed


# ---------------------------------------------------------------------------
# Ray projection
# ---------------------------------------------------------------------------

def test_ray_project_lands_on_ray(involutive5):
    x, r = ray_project(involutive5, _ray(1.0, 1.0, 1.0), np.ones(5))
    assert r > 0
    F = involutive5.integral_values(x)
    assert np.max(np.abs(F - r * np.ones(3))) < 1e-9


def test_ray_project_nontrivial_direction(pz_system):
    x, r = ray_project(pz_system, _ray(3.0, 5.0), np.array([0.0, 1.0, 1.0]))
    F = pz_system.integral_values(x)
    assert np.max(np.abs(F - r * np.array([3.0, 5.0]))) < 1e-9


def test_ray_project_unreachable_ray(rotation_system):
    # f_0 = (q^2 + p^2)/2 is nonnegative, so no point maps onto -r
    with pytest.raises(RayProjectionError):
        ray_project(rotation_system, _ray(-1.0, 1.0), np.array([1.0, 0.5, 1.0]))


# ---------------------------------------------------------------------------
# Coisotropy and tangency on ray preimages
# ---------------------------------------------------------------------------

def test_coisotropy_and_tangency_pass_together(involutive5):
    target = _ray(1.0, 1.0, 1.0)
    co = coisotropy_check(involutive5, target, n_points=8, seed=0)
    ta = tangency_check(involutive5, target, n_points=8, seed=0)
    assert co.passed and ta.passed
    assert co.max_abs_sum < 1e-10
    assert ta.max_abs_contraction < 1e-10


def test_coisotropy_and_tangency_fail_together(noninvolutive5):
    target = _ray(1.0, 1.0, 1.0)
    co = coisotropy_check(noninvolutive5, target, n_points=8, seed=0)
    ta = tangency_check(noninvolutive5, target, n_points=8, seed=0)
    assert not co.passed and not ta.passed


def test_two_integral_coisotropy_is_vacuous():
    # with only two integrals every cyclic sum has a repeated index and
    # cancels identically, so only the tangency check can see the broken
    # pair; three or more integrals are needed for the two to agree
    chart = ContactChart.standard(1)
    broken = ContactSystem(
        chart, ["q", "z"], {"q": (0.5, 2.0), "p": (0.5, 2.0), "z": (0.5, 2.0)},
        positive=["p", "z"],
    )
    target = _ray(1.0, 1.0)
    co = coisotropy_check(broken, target, n_points=6, seed=0)
    ta = tangency_check(broken, target, n_points=6, seed=0)
    assert co.passed and co.max_abs_sum == 0.0
    assert not ta.passed


def test_coisotropy_rejects_off_ray_points(pz_system, rng):
    points = pz_system.sample(rng, 5)  # generic samples are off the ray
    with pytest.raises(IntegrabilityError):
        coisotropy_check(pz_system, _ray(3.0, 1.0), points=points)


# ---------------------------------------------------------------------------
# Angle solve
# ---------------------------------------------------------------------------

def test_angle_solve_reference_values(pz_config, pz_symp):
    sol = angle_solve(pz_symp, pz_config.section("graph-z"), X4)
    assert sol.sign == -1
    assert sol.denominator_index == 1
    assert np.allclose(sol.y, [2.0, -np.log(5.0)], atol=1e-8)
    assert np.allclose(sol.A, [3.0, 5.0], atol=1e-12)
    assert np.allclose(sol.A_tilde, [-0.6], atol=1e-12)


def test_angle_solve_alternate_section(pz_config, pz_symp):
    sol = angle_solve(pz_symp, pz_config.section("graph-p"), X4)
    assert sol.denominator_index == 0
    assert np.allclose(sol.y, [1.0 / 3.0, -np.log(3.0)], atol=1e-8)
    assert np.allclose(sol.A_tilde, [-5.0 / 3.0], atol=1e-12)


def test_angles_do_not_depend_on_fiber(pz_config, pz_symp):
    section = pz_config.section("graph-z")
    sol_a = angle_solve(pz_symp, section, np.array([2.0, 3.0, 5.0, 0.6]))
    sol_b = angle_solve(pz_symp, section, np.array([2.0, 3.0, 5.0, 1.7]))
    assert np.allclose(sol_a.y, sol_b.y, atol=1e-7)


def test_angle_solve_denominator_fallback(pz_symp):
    section = SectionSpec(
        "no-index",
        ("L1", "L2"),
        ("0", "L1 / L2", "1", "L2"),
        {"L1": (0.5, 2.0), "L2": (0.5, 2.0)},
    )
    sol = angle_solve(pz_symp, section, X4)
    assert sol.denominator_index == 1  # argmax |A| with A = (3, 5)


def test_angle_solve_with_basis_change(pz_config, pz_symp):
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    sol = angle_solve(pz_symp, pz_config.section("graph-z"), X4, basis=M)
    assert np.allclose(sol.A, [8.0, 5.0], atol=1e-12)
    # generator flows compose: y_f = M^T y_g
    assert np.allclose(M.T @ sol.y, [2.0, -np.log(5.0)], atol=1e-7)


def test_angle_solve_rejects_bad_basis(pz_config, pz_symp):
    with pytest.raises(ValueError):
        angle_solve(pz_symp, pz_config.section("graph-z"), X4, basis=np.eye(3))
    with pytest.raises(ValueError):
        angle_solve(
            pz_symp, pz_config.section("graph-z"), X4,
            basis=np.array([[1.0, 0.0], [0.0, 0.0]]),
        )
    with pytest.raises(ValueError):
        angle_solve(
            pz_symp, pz_config.section("graph-z"), X4,
            basis=np.array([[1.0, 1.0], [1.0, 1.0]]),
        )


def test_angle_solve_warm_start_converges_immediately(pz_config, pz_symp):
    section = pz_config.section("graph-z")
    cold = angle_solve(pz_symp, section, X4)
    warm = angle_solve(
        pz_symp, section, X4, sign=cold.sign, y0=cold.y
    )
    assert warm.iterations == 0
    assert np.allclose(warm.y, cold.y, atol=1e-12)


def test_newton_jacobian_matches_group_action_differences(pz_config, pz_symp,
                                                          rescaled_symp):
    section = pz_config.section("graph-z")
    h = 1e-6
    for symp, x in ((pz_symp, X4), (rescaled_symp, np.array([0.7, 1.3, 0.9, 1.2]))):
        sol = angle_solve(symp, section, x)
        base = section.chi_at(sol.sign * symp.integral_values(x))
        end = group_action(symp, sol.y, base)
        fields = np.column_stack([symp.hamiltonian_field_at(a, end) for a in range(2)])
        differences = np.column_stack([
            (group_action(symp, sol.y + h * e, base) - group_action(symp, sol.y - h * e, base))
            / (2.0 * h)
            for e in np.eye(2)
        ])
        assert np.max(np.abs(fields - differences)) < 1e-7


def test_angle_solve_on_rescaled_coframe(pz_config, rescaled_symp):
    q, p, z, r = 0.7, 1.3, 0.9, 1.2
    sol = angle_solve(rescaled_symp, pz_config.section("graph-z"), [q, p, z, r])
    assert sol.sign == -1
    assert np.max(np.abs(sol.y - [q, -np.log(z)])) < 1e-6


def test_angle_solve_rejects_noninvolutive_generators(noninvolutive5):
    # the lifted bracket {q1, p1} is 1 at (1, ..., 1)
    section = SectionSpec(
        "unused", ("L1", "L2", "L3"), ("0", "0", "0", "0", "0", "1"),
        {"L1": (0.5, 2.0), "L2": (0.5, 2.0), "L3": (0.5, 2.0)},
    )
    with pytest.raises(IntegrabilityError, match="generators 0 and 1 are not in involution"):
        angle_solve(symplectize(noninvolutive5), section, np.ones(6))


@pytest.mark.parametrize("name", ["graph-z", "graph-p"])
def test_newton_increments_reach_the_closed_form(pz_config, pz_symp, name):
    # each line-search trial flows only its increment from the last endpoint;
    # cold and perturbed warm starts must land on the same closed-form angles
    section = pz_config.section(name)
    rng = np.random.default_rng(11)
    for x in pz_symp.sample(rng, 50):
        want = _closed_form_angles(name, x)
        cold = angle_solve(pz_symp, section, x, config=TIGHT)
        warm = angle_solve(pz_symp, section, x, config=TIGHT,
                           y0=want + rng.normal(0.0, 0.1, 2))
        assert np.max(np.abs(cold.y - warm.y)) < 1e-9
        assert np.max(np.abs(cold.y - want)) < 1e-8
        assert np.max(np.abs(warm.y - want)) < 1e-8
        again = angle_solve(pz_symp, section, x, config=TIGHT, sign=cold.sign, y0=cold.y)
        assert again.iterations == 0


def test_angle_solve_rejects_nonfinite_warm_start(pz_config, pz_symp):
    # a NaN angle used to flow for a NaN time, which reported success
    with pytest.raises(ValueError, match="flow time must be finite"):
        angle_solve(pz_symp, pz_config.section("graph-z"), X4, y0=np.array([np.nan, 0.0]))


def test_angle_solve_iteration_budget(pz_config, pz_symp):
    with pytest.raises(NewtonDivergenceError):
        angle_solve(pz_symp, pz_config.section("graph-z"), X4, max_iter=1)


def test_angle_solve_rejects_nonfinite_query(pz_config, pz_symp):
    with pytest.raises(NewtonDivergenceError):
        angle_solve(pz_symp, pz_config.section("graph-z"), [np.nan, 3.0, 5.0, 1.0])


def test_angle_solve_off_section_ray(pz_symp):
    # a section pinned to one ray cannot cover a query off that ray
    section = SectionSpec(
        "pinned",
        ("L1", "L2"),
        ("0", "0.6", "1", "5"),
        {"L1": (0.5, 2.0), "L2": (0.5, 2.0)},
    )
    with pytest.raises(SectionError):
        angle_solve(pz_symp, section, np.array([1.0, 1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# Coframe recovery from the angles
# ---------------------------------------------------------------------------

def test_darboux_verify_both_sections(pz_config, pz_system):
    for name in ("graph-z", "graph-p"):
        report = darboux_verify(pz_system, pz_config.section(name), n_points=4, seed=2)
        assert report.passed, report
        assert report.max_residual < 1e-5


def test_darboux_verify_fiber_reference_invariance(pz_config, pz_system):
    pts = np.array([[1.0, 1.2, 0.9]])
    a = darboux_verify(pz_system, pz_config.section("graph-z"), points=pts, r_ref=1.0)
    b = darboux_verify(pz_system, pz_config.section("graph-z"), points=pts, r_ref=1.5)
    assert a.passed and b.passed
    assert abs(a.max_residual - b.max_residual) < 1e-5


def _finite_difference_covector(symp, section, xb, step=1e-5):
    """The covector by central differences: 7 tight angle solves at n = 1."""
    def solve(x, **warm):
        return angle_solve(symp, section, np.append(x, 1.0), config=TIGHT,
                           newton_tolerance=1e-11, **warm)

    center = solve(xb)
    grad_y = np.column_stack([
        (solve(xb + offset, sign=center.sign, y0=center.y).y
         - solve(xb - offset, sign=center.sign, y0=center.y).y) / (2.0 * step)
        for offset in np.eye(len(xb)) * step
    ])
    return np.insert(-center.A_tilde, center.denominator_index, 1.0) @ grad_y


@pytest.mark.parametrize("config_path, name", [
    (None, "graph-z"), (None, "graph-p"), (RESCALED_PZ, "graph-z"),
], ids=["pz-graph-z", "pz-graph-p", "rescaled-pz-graph-z"])
def test_exact_covector_matches_finite_differences(pz_config, config_path, name):
    # rescaled-pz runs the general-coframe tangent map, with d eta from its Hessians
    cfg = pz_config if config_path is None else load_config(config_path)
    system = cfg.system()
    symp = symplectize(system)
    section = cfg.section(name)
    for xb in system.sample(np.random.default_rng(5), 3):
        exact, target = _darboux_covector(symp, section, xb, 1.0, IntegratorConfig(), None)
        assert np.max(np.abs(exact - _finite_difference_covector(symp, section, xb))) < 1e-6
        assert np.max(np.abs(exact - target)) < 1e-8


def test_darboux_verify_residual_keeps_to_the_lapack_tangents(monkeypatch):
    # rescaled-pz is a general coframe, so its angle covectors come from the
    # generated variational program; the NumPy tangent solves it replaced
    # (`lapack_variational`) must give the same residual to 1e-12
    cfg = load_config(RESCALED_PZ)
    system, section = cfg.system(), cfg.section("graph-z")
    points = system.sample(np.random.default_rng(6), 4)
    got = darboux_verify(system, section, points=points).max_residual
    monkeypatch.setattr(_Chart, "_variational", lapack_variational)
    want = darboux_verify(system, section, points=points).max_residual
    assert 0.0 < want < 1e-5
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("section", ["graph-z", "graph-p"])
def test_darboux_verify_residual_keeps_to_the_hand_tangents(monkeypatch, section):
    # darboux-pz is a standard-form chart, so its angle covectors come from
    # the generated closed variational program; the hand derivations of
    # `darboux_tangents` must give the same residual to 1e-12
    cfg = load_config(bundled_config_path("darboux-pz"))
    system, spec = cfg.system(), cfg.section(section)
    points = system.sample(np.random.default_rng(6), 4)
    got = darboux_verify(system, spec, points=points).max_residual
    monkeypatch.setattr(_Chart, "_variational", hand_variational)
    want = darboux_verify(system, spec, points=points).max_residual
    assert 0.0 < want < 1e-5
    assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# Periods
# ---------------------------------------------------------------------------

def test_period_detect_rotation(rotation_system):
    T = period_detect(rotation_system, 0, np.array([1.0, 0.0, 1.0]), 10.0)
    assert T is not None
    assert abs(T - 2.0 * np.pi) < 1e-6


def test_period_detect_none_for_translation(pz_system):
    assert period_detect(pz_system, "p", np.array([0.0, 1.0, 1.0]), 10.0) is None


def test_period_detect_respects_horizon(rotation_system):
    assert period_detect(rotation_system, 0, np.array([1.0, 0.0, 1.0]), 5.0) is None


@pytest.mark.parametrize("t_max", [0.0, -1.0, np.nan, np.inf])
def test_period_detect_rejects_a_bad_horizon(rotation_system, t_max):
    with pytest.raises(ValueError, match="t_max must be finite and positive"):
        period_detect(rotation_system, 0, np.array([1.0, 0.0, 1.0]), t_max)


def test_period_detect_rejects_an_empty_scan(rotation_system):
    with pytest.raises(ValueError, match="scan_points must be at least 1"):
        period_detect(rotation_system, 0, np.array([1.0, 0.0, 1.0]), 10.0, scan_points=0)


def test_period_detect_raises_on_truncated_scan(rotation_system):
    # z dips negative along this orbit and trips the positivity guard
    with pytest.raises(FlowError):
        period_detect(rotation_system, 0, np.array([1.0, 0.0, 0.2]), 10.0)
