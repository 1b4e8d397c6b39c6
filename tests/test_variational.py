"""The variational closure on general coframes against its NumPy reference.

On general coframes `variational_evaluator` runs the generated
`geometry._variational_program`: the field lines of the chart kind's
`_field_program`, then per tangent one more elimination of B^T (or
omega^T) on the derivative of the solve.  The NumPy tangent solves it
replaced are kept in `tests/float_fields.py` (`lapack_variational`).
The closure must agree with them to round-off, return the floats and
raise the errors of `field_evaluator`, and compile at the first
variational closure of its kind and dimension, never with a field
program.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from contactmech import geometry
from contactmech.config import load_config
from contactmech.flows import FlowError, integrate, variational_group_action
from contactmech.geometry import ContactChart, ContactConditionError, ContactSystem
from contactmech.symplectization import SingularStructureError, symplectize
from float_fields import REGION, _degenerate_system, _general_system, lapack_variational

GOLDEN = Path(__file__).parent / "data" / "golden"

NAMES = ["rescaled", "general-n2", "dense-n2"]


def _raised(run, *args):
    try:
        run(*args)
    except Exception as exc:  # the error itself is compared
        return exc
    raise AssertionError("no error raised")


def _states(system, rng, count, k):
    """count states: a sampled point followed by k random tangents."""
    return [[*x, *rng.normal(size=k * system.dim)] for x in system.sample(rng, count).tolist()]


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("k", ["1", "dim"])
def test_variational_program_matches_the_lapack_reference(name, lifted, k):
    system = _general_system(name, lifted)
    dim = system.dim
    rng = np.random.default_rng(41)
    worst = 0.0
    for f in system.integrals:
        got, want = system.variational_evaluator(f), lapack_variational(system.chart, f)
        for state in _states(system, rng, 20, 1 if k == "1" else dim):
            # relative to the largest entry of X_f and the DX_f dx_j, which
            # are O(1) on these O(1) tangents; some DX_f dx_j are 0 up to round-off
            a, b = np.array(got(state)), np.array(want(state))
            worst = max(worst, np.abs(a - b).max() / np.abs(b).max())
    assert 0.0 < worst <= 1e-12


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
@pytest.mark.parametrize("name", NAMES)
def test_variational_program_has_the_floats_of_field_evaluator(name, lifted):
    # the same field lines on the same kernels: X_f is field_evaluator's bitwise
    system = _general_system(name, lifted)
    dim = system.dim
    rng = np.random.default_rng(42)
    for f in range(len(system.integrals)):
        run, field = system.variational_evaluator(f), system.field_evaluator(f)
        for k in (0, 1, dim):
            for state in _states(system, rng, 20, k):
                got, want = run(state), field(state[:dim])
                assert len(got) == dim * (k + 1)
                assert [u.hex() for u in got[:dim]] == [u.hex() for u in want]


@pytest.mark.parametrize("scale", ["0", "1e-7"], ids=["zero-pivot", "small-det"])
@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
@pytest.mark.parametrize("n", [1, 2])
def test_variational_program_raises_the_errors_of_field_evaluator(n, lifted, scale):
    system = _degenerate_system(n, scale)
    x = [0.3, 1.2, 0.8, 1.1, 0.9][: system.dim]
    if lifted:
        system, x = symplectize(system), x + [1.5]
    state = x + [1.0] * system.dim
    got = _raised(system.variational_evaluator(0), state)
    want = _raised(system.field_evaluator(0), x)
    assert isinstance(got, SingularStructureError if lifted else ContactConditionError)
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert got.point.tolist() == want.point.tolist() == x
    assert got.det.hex() == want.det.hex()


def test_variational_program_checks_the_point_as_field_evaluator(pz_system, pz_symp):
    # a fiber at or below 0, with a tangent, and a state shorter than a point
    symp = _general_system("rescaled", True)
    run = symp.variational_evaluator(0)
    for x in ([0.3, 1.2, 0.8, 0.0], [0.3, 1.2, 0.8, -1.5], [0.3, 1.2, 0.8]):
        tangent = [1.0] * 4 if len(x) == 4 else []
        got = _raised(run, x + tangent)
        assert type(got) is ValueError
        assert str(got) == str(_raised(symp.chart.point, x))
        assert str(got) == str(_raised(symp.field_evaluator(0), x))
    # the standard-form closures check the length only: short points and
    # states, and a point one float too long for the field closure
    for system in (pz_system, pz_symp):
        dim = system.dim
        for x in ([0.3, 1.2], [0.3, 1.2, 0.8][: dim - 1], [0.3, 1.2, 0.8, 1.5, 0.7][: dim + 1]):
            want = _raised(system.chart.point, x)
            assert type(want) is ValueError
            assert str(want).startswith("expected point of shape")
            assert str(_raised(system.field_evaluator(0), x)) == str(want)
            if len(x) < dim:
                got = _raised(system.variational_evaluator(0), x)
                assert type(got) is ValueError
                assert str(got) == str(want)


def test_variational_closures_send_a_partial_tangent_to_point(pz_system, pz_symp):
    # a state of x and part of a tangent raised a bare unpacking error
    for system in (pz_system, pz_symp, _general_system("rescaled", False),
                   _general_system("rescaled", True)):
        dim = system.dim
        run = system.variational_evaluator(0)
        point = [0.3, 1.2, 0.8, 1.5][:dim]
        assert len(run(point + [1.0] * dim)) == 2 * dim
        for extra in (1, dim - 1, dim + 1):
            state = point + [1.0] * extra
            got = _raised(run, state)
            assert type(got) is ValueError
            assert str(got) == str(_raised(system.chart.point, state))
            assert str(got) == f"expected point of shape ({dim},), got ({len(state)},)"


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
def test_a_jet_domain_error_truncates_the_variational_flow(lifted):
    # the field of exp(q/3) * p drives q up at unit speed from 1 into q >= 2,
    # where the kernels of log(2 - q) raise
    chart = ContactChart(("q", "p", "z"), ["-exp(q/3)*p", "0", "exp(q/3)"])
    system = ContactSystem(chart, ["exp(q/3)*p + 0*log(2 - q)", "exp(q/3)*z"], REGION)
    x0 = [1.0, 1.2, 0.8]
    if lifted:
        system, x0 = symplectize(system), x0 + [1.5]
    detail = "log of a nonpositive value in 'log(2.0 - q)'"
    assert integrate(system, 0, x0, 3.0).detail == detail
    with pytest.raises(FlowError, match=re.escape(f"(exited_domain: {detail})")):
        variational_group_action(system, [3.0, 0.0], x0, np.eye(system.dim))


def test_variational_program_compiles_once_per_kind_and_dim_at_the_first_variational_evaluator():
    geometry._variational_program.cache_clear()
    cfg = load_config(GOLDEN / "rescaled-pz.json")
    system, symp = cfg.system(), cfg.symp_system()
    # field closures, flows and point stacks compile no variational program
    integrate(system, 0, [0.5, 1.2, 0.8], 0.5)
    integrate(symp, 0, [0.5, 1.2, 0.8, 1.5], 0.5)
    system.jet_stack(system.sample(np.random.default_rng(1), 3))
    assert geometry._variational_program.cache_info().misses == 0
    for run, point in ((system, [0.5, 1.2, 0.8]), (symp, [0.5, 1.2, 0.8, 1.5])):
        first = run.variational_evaluator(0)
        second = run.variational_evaluator(1)
        first(point + [1.0] * len(point)), second(point)
        assert first.__code__ is second.__code__
        kind = "lifted" if run is symp else "contact"
        assert first.__code__.co_filename == f"<contactmech {kind}-variational dim={len(point)}>"
    info = geometry._variational_program.cache_info()
    assert (info.misses, info.hits) == (2, 2)
