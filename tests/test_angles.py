"""The angle solve on floats against the NumPy Newton loop it replaced.

`integrability.angle_solve` binds the generator field closures once per
solve and runs its damped Newton loop on lists of floats, flowing each
trial through `flows._compose`.  The loop it replaced is the reference in
`tests/angle_reference.py`.  Both take the step from the same generated
normal-equation program (`integrability._angle_step_program`) on the same
Jacobian, and from `np.linalg.lstsq` only where that program finds the
Jacobian (nearly) rank-deficient, so every result must be byte-equal, and
every failure the same exception with the same message.  The program
itself is checked against `lstsq` on seeded well-conditioned Jacobians.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import angle_reference
from angle_reference import numpy_angle_solve
from contactmech import integrability
from contactmech.config import load_config
from contactmech.flows import FlowError, IntegratorConfig, group_action
from contactmech.geometry import ContactChart, ContactSystem
from contactmech.integrability import SectionSpec, _angle_step_program, angle_solve
from contactmech.symplectization import symplectize
from test_acceptance import N2_POINTS, N2_SECTION, N2_SYSTEMS

X4 = np.array([2.0, 3.0, 5.0, 1.0])
RESCALED_PZ = Path(__file__).parent / "data" / "golden" / "rescaled-pz.json"
# a loose rel_tol raises the Newton target, 10 rel_tol times the point scale
LOOSE = IntegratorConfig(rel_tol=1e-6)


def _outcome(solve, *args, **kwargs):
    """The result's fields as bytes, or the type and message of the error raised."""
    try:
        sol = solve(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the error itself is the outcome
        return type(exc), str(exc)
    return (sol.y.tobytes(), float(sol.residual).hex(), sol.iterations, sol.sign,
            sol.A.tobytes(), sol.A_tilde.tobytes(), sol.denominator_index,
            sol.M_matrix.tobytes(), sol.lstsq_steps)


def assert_same(symp, section, x, **kwargs):
    got = _outcome(angle_solve, symp, section, x, **kwargs)
    assert got == _outcome(numpy_angle_solve, symp, section, x, **kwargs)
    return got


@pytest.mark.parametrize("name", ["graph-z", "graph-p"])
def test_darboux_solves_are_byte_equal(pz_config, pz_symp, name):
    section = pz_config.section(name)
    for x in pz_symp.sample(np.random.default_rng(30), 60):
        got = assert_same(pz_symp, section, x)
        assert isinstance(got[0], bytes) and got[-1] == 0  # no lstsq fallback


def test_rescaled_solves_are_byte_equal():
    config = load_config(RESCALED_PZ)
    symp, section = config.symp_system(), config.section("graph-z")
    for x in symp.sample(np.random.default_rng(31), 20):
        assert isinstance(assert_same(symp, section, x)[0], bytes)


@pytest.mark.parametrize("name", sorted(N2_SYSTEMS))
def test_n2_solves_are_byte_equal(name):
    symp = symplectize(ContactSystem(ContactChart.standard(2), N2_SYSTEMS[name][0]))
    for x in N2_POINTS:
        assert isinstance(assert_same(symp, N2_SECTION, np.append(x, 1.0))[0], bytes)


def test_basis_sign_warm_start_and_config_are_byte_equal(pz_config, pz_symp):
    section = pz_config.section("graph-z")
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    rng = np.random.default_rng(32)
    for x in pz_symp.sample(rng, 10):
        sign = angle_solve(pz_symp, section, x).sign
        for kwargs in ({"basis": M}, {"sign": sign}, {"y0": rng.normal(0.0, 0.5, 2)},
                       {"basis": M, "sign": sign, "y0": [0.3, -0.2]}, {"config": LOOSE}):
            assert isinstance(assert_same(pz_symp, section, x, **kwargs)[0], bytes)


@pytest.mark.parametrize("kwargs, error", [
    ({"y0": [0.1, 0.2, 0.3]}, ValueError),
    ({"y0": [np.nan, 0.0]}, ValueError),
    ({"max_iter": 1}, integrability.NewtonDivergenceError),
    ({"x": [np.nan, 3.0, 5.0, 1.0]}, integrability.NewtonDivergenceError),
    ({"x": [2.0, np.nan, 5.0, 1.0]}, integrability.SectionError),
], ids=["y0-length", "y0-nan", "max-iter-1", "nan-q", "nan-p"])
def test_failures_raise_the_same_error(pz_config, pz_symp, kwargs, error):
    x = kwargs.pop("x", X4)
    got = assert_same(pz_symp, pz_config.section("graph-z"), x, **kwargs)
    assert got[0] is error, got


@pytest.mark.parametrize("call", ["sign-none", "sign-plus", "sign-minus", "verify-section",
                                  "darboux-verify"])
def test_a_given_sign_rejects_a_section_of_the_wrong_size(pz_config, pz_symp, call):
    # the float loop pairs the endpoint with x by position, so a short base
    # must not reach it; with or without a sign, every caller names the count
    section = SectionSpec("short", ("L1", "L2"), ("0", "L1 / L2", "L2"),
                          {"L1": (0.5, 2.0), "L2": (0.5, 2.0)})
    run = {"sign-none": lambda: angle_solve(pz_symp, section, X4),
           "sign-plus": lambda: angle_solve(pz_symp, section, X4, sign=1),
           "sign-minus": lambda: angle_solve(pz_symp, section, X4, sign=-1),
           "verify-section": lambda: integrability.verify_section(pz_symp, section),
           "darboux-verify": lambda: integrability.darboux_verify(
               pz_config.system(), section, points=X4[None, :3])}[call]
    with pytest.raises(integrability.SectionError,
                       match="^section 'short' has 3 components, chart needs 4$"):
        run()


@pytest.mark.parametrize("sign", [1, -1])
def test_a_given_sign_rejects_a_base_point_that_is_not_finite(pz_config, pz_symp, sign):
    # one sign gives a fiber <= 0, the other a NaN entry at a positive fiber,
    # which only the finiteness test keeps from a Newton loop at a NaN residual
    with pytest.raises(integrability.SectionError,
                       match="^section 'graph-z' leaves the chart at the base point$"):
        angle_solve(pz_symp, pz_config.section("graph-z"), [2.0, np.nan, 5.0, 1.0], sign=sign)


@pytest.mark.parametrize("sign", [-3, 0.5, 0, 2.0, np.nan])
def test_angle_solve_takes_no_sign_but_plus_or_minus_one(pz_config, pz_symp, sign):
    # -3 would stall the Newton solve and 0.5 divide by zero in 'L1 / L2'
    with pytest.raises(ValueError, match=rf"^sign must be 1, -1 or None, got {sign!r}$"):
        angle_solve(pz_symp, pz_config.section("graph-z"), X4, sign=sign)


def _failing_second_call(function):
    """function, except that its second call raises FlowError."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise FlowError("forced trial failure")
        return function(*args, **kwargs)

    return wrapper


def test_a_failing_trial_is_counted_and_halved(monkeypatch, pz_config, pz_symp):
    # the first group action is Phi(0; base), the second the first trial
    section = pz_config.section("graph-z")
    assert angle_solve(pz_symp, section, X4).failed_trials == 0
    monkeypatch.setattr(integrability, "_compose",
                        _failing_second_call(integrability._compose))
    monkeypatch.setattr(angle_reference, "numpy_group_action",
                        _failing_second_call(angle_reference.numpy_group_action))
    got = angle_solve(pz_symp, section, X4)
    want = numpy_angle_solve(pz_symp, section, X4)
    assert got.failed_trials == 1
    assert got.y.tobytes() == want.y.tobytes()
    assert (got.residual, got.iterations) == (want.residual, want.iterations)


def test_solves_bind_their_closures_through_field_evaluator(monkeypatch, pz_config, pz_symp):
    # one closure per generator, bound once per solve; the involution check
    # calls the first m - 1 once and each Newton iteration all m, for the
    # Jacobian columns; the flows call none: their steps inline the field
    bound, calls = [], []
    original = type(pz_symp).field_evaluator

    def counting(self, f):
        field = original(self, f)
        bound.append(f)
        return lambda x: calls.append(None) or field(x)

    monkeypatch.setattr(type(pz_symp), "field_evaluator", counting)
    rescaled = load_config(RESCALED_PZ)
    symp = rescaled.symp_system()
    for config, system, x in ((pz_config, pz_symp, X4),
                              (rescaled, symp, symp.sample(np.random.default_rng(31), 1)[0])):
        bound.clear(), calls.clear()
        sol = angle_solve(system, config.section("graph-z"), x)
        m = len(system.integrals)
        assert len(bound) == m == 2
        assert sol.iterations > 0 and len(calls) == m * sol.iterations + (m - 1)


@pytest.mark.parametrize("m, dim", [(2, 4), (2, 6), (3, 4), (3, 6)])
def test_step_program_is_the_least_squares_step(m, dim):
    rng = np.random.default_rng(40 + 10 * m + dim)
    step = _angle_step_program(m, dim)
    assert step.__code__.co_filename == f"<contactmech angle-step m={m} dim={dim}>"
    for _ in range(50):
        # J = U diag(sigma) V^T, singular values in [1, 3] times one scale
        U = np.linalg.qr(rng.normal(size=(dim, m)))[0]
        V = np.linalg.qr(rng.normal(size=(m, m)))[0]
        J = U * rng.uniform(1.0, 3.0, m) @ V.T * 10.0 ** rng.uniform(-3.0, 3.0)
        r = rng.normal(size=dim)
        got = np.array(step(J.T.tolist(), r.tolist()))
        want = np.linalg.lstsq(J, r, rcond=None)[0]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_step_program_refuses_nearly_dependent_columns():
    # the second pivot is 1e-10 of the largest diagonal entry, then 1e-6
    step, r = _angle_step_program(2, 4), [0.5, -1.0, 2.0, 0.25]
    assert step([(1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)], r) is None
    assert step([(1.0, 0.0, 0.0, 0.0), (1.0, 1e-5, 0.0, 0.0)], r) is None
    assert step([(1.0, 0.0, 0.0, 0.0), (1.0, 1e-3, 0.0, 0.0)], r) is not None


def test_a_rank_deficient_step_lands_through_lstsq_and_is_counted():
    # f0 = f1 = p: the two generator fields are equal everywhere; the
    # section lies on the diagonal ray F = (L1, L1), which the lifted
    # integrals -r p reach at r = L1
    symp = symplectize(ContactSystem(ContactChart.standard(1), ["p", "p"]))
    section = SectionSpec("diagonal", ("L1", "L2"), ("0", "-1", "1", "L1"),
                          {"L1": (0.5, 2.0), "L2": (0.5, 2.0)})
    x = group_action(symp, [0.3, 0.4], [0.0, -1.0, 1.0, 1.5])
    columns = [symp.field_evaluator(0)(x.tolist())] * 2
    assert _angle_step_program(2, 4)(columns, [0.7, 0.0, 0.0, 0.0]) is None
    got = assert_same(symp, section, x)
    sol = angle_solve(symp, section, x)
    assert sol.lstsq_steps == sol.iterations == 1 and got[-1] == 1
    # lstsq's least-norm step splits the total time 0.7 evenly
    assert np.allclose(sol.y, [0.35, 0.35], rtol=0.0, atol=1e-12)
    assert sol.residual <= 1e-10
