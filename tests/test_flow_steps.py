"""Inlined flow steps against the step that calls a field closure.

On every chart a flow takes `geometry._field_step`: one Fehlberg step
with f's kernel and the field lines written into each of its six stages.

On a standard-form (Darboux) chart the kernel is f's gradient kernel and
the field the closed form.  The step must make the float operations of
`flows._step_program` calling the `field_evaluator` closure: the same
fifth-order solution and error norm, bitwise where they are not NaN
(`flows._run` rejects every non-finite x5, so NaN bits never reach a
result), the same errors, and the same trajectories.  Both steps are
bound as `flows._run` takes them: `step(x, h, abs_tol, rel_tol)`.

On a general coframe the kernel is the fused kernel of f and eta's
coefficients and the field the solve lines of `geometry._field_program`.
The step must make the float operations, errors and trajectories of
`flows._step_program` calling the solve with the kernels called apart
(`float_fields.solve_field`).  The n = 2 coframes (dims 5 and 6) meet
the most overlap between the local names of the step, the kernel and
the elimination.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from contactmech import _programs, expressions, flows, geometry, integrability
from contactmech.config import bundled_config_path, load_config
from contactmech.expressions import EvaluationDomainError, gradient_kernel, parse
from contactmech.flows import IntegratorConfig, _calling, _compose, _flow, group_action, integrate
from contactmech.geometry import ContactChart, ContactSystem
from contactmech.integrability import darboux_verify
from contactmech.symplectization import symplectize
from float_fields import _general_system, solve_field

GOLDEN = Path(__file__).parent / "data" / "golden"
CONFIGS = [bundled_config_path("darboux-pz"), bundled_config_path("darboux-5d-involutive"),
           bundled_config_path("darboux-5d-noninvolutive"), GOLDEN / "cubic-5d.json"]
TOLS = (IntegratorConfig().abs_tol, IntegratorConfig().rel_tol)
SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan]


def _systems(path):
    config = load_config(path)
    return [config.system(), config.symp_system()]


def _steps(system, f):
    """(the inlined step, the step calling the field closure) of X_f."""
    return system._step(f), _calling(system.field_evaluator(f), system.dim)


def _outcome(step, x, h):
    """x5 and the error norm as one float list, or the error's type and message."""
    try:
        x5, norm = step(x, h, *TOLS)
    except Exception as exc:  # noqa: BLE001 - the error itself is the outcome
        return type(exc), str(exc)
    return [*x5, norm]


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, list) and len(got) == len(want)
    for u, v in zip(got, want):
        assert math.isnan(u) == math.isnan(v)
        if not math.isnan(v):
            assert u.hex() == v.hex()  # signs of zero included


def _states(system, rng, count):
    """Points of the sampling box, scattered beyond it, a quarter with a special entry."""
    xs = system.sample(rng, count) + rng.normal(0.0, 0.5, (count, system.dim))
    xs = xs.tolist()
    for x in xs[::4]:
        x[rng.integers(len(x))] = SPECIALS[rng.integers(len(SPECIALS))]
    return xs


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: Path(p).stem)
def test_inlined_step_is_the_calling_step(path):
    rng = np.random.default_rng(60)
    for system in _systems(path):
        integrals = system.integrals
        # a generator of a basis other than the identity: not one of the
        # system's own integrals, so bound anew
        generator = 2.0 * integrals[0] - 0.5 * integrals[-1]
        for f in [*range(len(integrals)), generator]:
            fused, calling = _steps(system, f)
            assert fused.__code__.co_filename.startswith("<contactmech rkf45-step ")
            finite = 0
            for x in _states(system, rng, 120):
                h = float(rng.uniform(-0.6, 0.6))
                got, want = _outcome(fused, x, h), _outcome(calling, x, h)
                assert_same(got, want)
                finite += isinstance(want, list) and all(map(math.isfinite, want))
            assert finite > 60


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
def test_inlined_step_fails_where_the_calling_step_fails(lifted):
    # log, sqrt, a quotient and negative powers fail in one stage or another
    # around the edge of the box; a scaled integral reaches the overflow checks
    region = {"q": (-1.0, 1.0), "p": (0.0, 1.0), "z": (0.0, 0.5)}
    system = ContactSystem(ContactChart.standard(1), [
        "log(z) * sqrt(p) + q^2 / z + 1e300 * p * p", "exp(q) * z^(-1) - (p - q)^(-2)"], region)
    system = symplectize(system) if lifted else system
    rng = np.random.default_rng(63)
    outcomes = {"error": 0, "finite": 0}
    for f in [0, 1, system.integrals[0] - system.integrals[1]]:
        fused, calling = _steps(system, f)
        for x in _states(system, rng, 150):
            h = float(rng.uniform(-0.6, 0.6))
            got, want = _outcome(fused, x, h), _outcome(calling, x, h)
            assert_same(got, want)
            outcomes["error" if isinstance(want, tuple) else "finite"] += 1
    assert min(outcomes.values()) > 50, outcomes


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "symp"])
def test_inlined_step_raises_the_calling_steps_errors(lifted):
    # the flow of log(z) + q drives z down at rate log(z) + q: from z = 0.1 a
    # long step takes a later stage to z <= 0, where log(z) fails
    system = ContactSystem(ContactChart.standard(1), ["log(z) + q", "sqrt(p) * exp(z)"])
    system = symplectize(system) if lifted else system
    x = [5.0, 1.0, 0.1] + ([1.0] if lifted else [])
    for f, h in ((0, 0.5), (0, -0.3), (1, 0.5), (1, -4.0)):
        fused, calling = _steps(system, f)
        got, want = _outcome(fused, x, h), _outcome(calling, x, h)
        assert_same(got, want)
    fused, calling = _steps(system, 0)
    with pytest.raises(EvaluationDomainError) as want:
        calling(x, 0.5, *TOLS)
    with pytest.raises(EvaluationDomainError) as got:
        fused(x, 0.5, *TOLS)
    assert str(got.value) == str(want.value) == "log of a nonpositive value in 'log(z)'"
    assert got.value.node == want.value.node == parse("log(z)")


def test_inlined_step_divides_by_a_zero_fiber_as_the_closure_does(pz_symp):
    # the lifted closed form divides by r and checks no sign: at r = 0 both
    # steps raise Python's own ZeroDivisionError, which no flow catches
    for f in range(2):
        fused, calling = _steps(pz_symp, f)
        want = _outcome(calling, [0.5, 1.2, 0.8, 0.0], 0.1)
        assert want[0] is ZeroDivisionError
        assert _outcome(fused, [0.5, 1.2, 0.8, 0.0], 0.1) == want


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: Path(p).stem)
def test_trajectories_are_the_calling_steps(path):
    rng = np.random.default_rng(61)
    cfg = IntegratorConfig(max_step=0.2)
    for system in _systems(path):
        guards, names = tuple(system.positive_indices), system.coordinates
        x0 = system.sample(rng, 1)[0]
        for f in range(len(system.integrals)):
            for t in (1.3, -0.9):
                got = integrate(system, f, x0, t, cfg)
                want = _flow(system.field_evaluator(f), x0.tolist(), t, cfg, guards, names)
                assert (got.status, got.detail) == (want.status, want.detail)
                assert got.times.tobytes() == want.times.tobytes()
                assert got.points.tobytes() == want.points.tobytes()
        times = rng.uniform(-0.8, 0.8, len(system.integrals))
        fs = system.integrals
        want = _compose(lambda idx: _calling(system.field_evaluator(fs[idx]), system.dim), fs,
                        times.tolist(), x0.tolist(), cfg, guards, names)
        assert group_action(system, times, x0, cfg).tobytes() == np.array(want).tobytes()


def test_a_domain_exit_truncates_as_the_calling_step():
    # the flow of 0*log(q) - p moves q down at unit speed, with a field that
    # stays finite up to q = 0, where evaluating log(q) fails
    system = ContactSystem(ContactChart.standard(1), ["0*log(q) - p", "z"])
    got = integrate(system, 0, [0.5, 1.0, 1.0], 2.0)
    want = _flow(system.field_evaluator(0), [0.5, 1.0, 1.0], 2.0, IntegratorConfig(), (),
                 system.coordinates)
    assert got.status == want.status == flows.EXITED_DOMAIN
    assert got.detail == want.detail and "log" in got.detail
    assert got.points.tobytes() == want.points.tobytes()


def test_a_second_darboux_verify_compiles_no_program(monkeypatch, pz_config, pz_system):
    # darboux_verify symplectizes anew on every call; its steps, closures and
    # kernels are memoised by tree, not per system, so nothing compiles again
    section, points = pz_config.section("graph-z"), pz_system.sample(np.random.default_rng(62), 2)
    first = darboux_verify(pz_system, section, points=points)
    compiled = []

    def counting(name, *args):
        compiled.append(name)
        return _programs.program(name, *args)

    for module in (expressions, geometry, flows, integrability):
        monkeypatch.setattr(module, "program", counting)
    second = darboux_verify(pz_system, section, points=points)
    assert compiled == []
    assert second.max_residual == first.max_residual and second.passed


def _general_systems(name):
    """The contact system of a general coframe and its symplectization."""
    if name in ("general-n2", "dense-n2"):
        return [_general_system(name, False), _general_system(name, True)]
    if name == "rescaled-pz":
        system = load_config(GOLDEN / "rescaled-pz.json").system()
    else:  # sqrt fails at q < 0 and log at z <= -1; the flat matrix is singular at z = 0
        chart = ContactChart(("q", "p", "z"), ["-sqrt(q)*p", "0", "log(z+1)"])
        system = ContactSystem(chart, ["p * z", "q + z"],
                               {"q": (0.1, 2.0), "p": (0.5, 2.0), "z": (0.5, 2.0)})
    return [system, symplectize(system)]


def _solve_steps(system, f):
    """(the flat step, the step calling the solve with the kernels called apart) of X_f."""
    kernel = gradient_kernel(system.resolve(f), system.coordinates)
    return system._step(f), _calling(solve_field(system.chart, kernel), system.dim)


GENERAL = ["rescaled-pz", "domain-coframe", "general-n2", "dense-n2"]


@pytest.mark.parametrize("name", GENERAL)
def test_flat_step_is_the_calling_step(name):
    rng = np.random.default_rng(64)
    for system in _general_systems(name):
        integrals = system.integrals
        generator = 2.0 * integrals[0] - 0.5 * integrals[-1]
        outcomes = {"error": 0, "finite": 0}
        for f in [*range(len(integrals)), generator]:
            flat, calling = _solve_steps(system, f)
            assert flat.__code__.co_filename.startswith(
                f"<contactmech rkf45-step dim={system.dim} kernel ")
            for x in _states(system, rng, 150):
                h = float(rng.uniform(-0.6, 0.6))
                got, want = _outcome(flat, x, h), _outcome(calling, x, h)
                assert_same(got, want)
                finite = isinstance(want, list) and all(map(math.isfinite, want))
                outcomes["finite" if finite else "error"] += isinstance(want, tuple) or finite
        assert outcomes["finite"] > 200, outcomes
        # the n = 2 coframes fail only upstairs, at a fiber r <= 0
        if name in ("rescaled-pz", "domain-coframe") or system.dim % 2 == 0:
            assert outcomes["error"] > (100 if name == "domain-coframe" else 0), outcomes


def _result(call):
    """call(), or the type and message of its error: a singular flat matrix stops a flow."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error itself is the outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("name", GENERAL)
def test_flat_step_trajectories_are_the_calling_steps(name):
    rng = np.random.default_rng(65)
    cfg = IntegratorConfig(max_step=0.2)
    outcomes = set()
    for system in _general_systems(name):
        guards, names, dim = tuple(system.positive_indices), system.coordinates, system.dim
        fs = system.integrals
        fields = [lambda idx=idx: solve_field(system.chart, gradient_kernel(fs[idx], names))
                  for idx in range(len(fs))]
        for x0 in system.sample(rng, 2):
            for f in range(len(fs)):
                for t in (1.3, -2.5):
                    got = _result(lambda: integrate(system, f, x0, t, cfg))
                    want = _result(lambda: _flow(fields[f](), x0.tolist(), t, cfg, guards, names))
                    if isinstance(want, tuple):
                        assert got == want
                        outcomes.add(want[0])
                        continue
                    assert (got.status, got.detail) == (want.status, want.detail)
                    assert got.times.tobytes() == want.times.tobytes()
                    assert got.points.tobytes() == want.points.tobytes()
                    outcomes.add(got.status)
            times = rng.uniform(-0.8, 0.8, len(fs)).tolist()
            got = _result(lambda: group_action(system, times, x0, cfg).tolist())
            want = _result(lambda: _compose(lambda idx: _calling(fields[idx](), dim), fs, times,
                                            x0.tolist(), cfg, guards, names))
            assert got == want if isinstance(want, tuple) else _hexes(got) == _hexes(want)
    assert flows.COMPLETED in outcomes
    if name == "domain-coframe":
        assert flows.EXITED_DOMAIN in outcomes and len(outcomes) > 2, outcomes


def _hexes(values):
    return [v.hex() for v in values]
