"""The sampled checks run on point stacks: single points, failures and ties.

Each report computes its point data as stacks with a leading axis of
points and runs each check as one array pass.  These tests pin what a
per-point loop gave:

* every stacked row equals the single-point methods bitwise (`==`, no
  tolerance), on the five configs of the golden reports;
* a failing stack raises the error of the first failing point in sample
  order, with the exit code and message the CLI gave before the stacks
  (recorded from the per-point code);
* the worst pair, triple and point are the first strict maximum in the
  loop order of the per-point code, and a check whose worst value is 0
  keeps the defaults (0, 0), (0, 0, 0) and the first point.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from contactmech import cli
from contactmech.config import bundled_config_path, load_config
from contactmech.expressions import EvaluationDomainError
from contactmech.geometry import ContactChart, ContactConditionError, ContactSystem, Jets
from contactmech.integrability import (
    RayTarget,
    coisotropy_check,
    involution_check,
    tangency_check,
)

GOLDEN = Path(__file__).parent / "data" / "golden"
CONFIGS = {
    "darboux-pz": bundled_config_path("darboux-pz"),
    "darboux-5d-involutive": bundled_config_path("darboux-5d-involutive"),
    "darboux-5d-noninvolutive": bundled_config_path("darboux-5d-noninvolutive"),
    "rescaled-pz": GOLDEN / "rescaled-pz.json",
    "cubic-5d": GOLDEN / "cubic-5d.json",
}


# ---------------------------------------------------------------------------
# Stacks against single points
# ---------------------------------------------------------------------------

def _assert_rows_match_single_points(system, symp, points):
    chart, m = system.chart, len(system.integrals)
    jets = system.jet_stack(points)
    brackets = chart.bracket_matrix(jets)
    for i, x in enumerate(points):
        for a in range(m):
            f = system.integrals[a]
            assert np.array_equal(jets.fields[i, a], chart.hamiltonian_field_at(f, x))
            assert jets.reeb[i, a] == chart.reeb_derivative(f, x)
            assert brackets[i, a, a] == 0.0
            for b in range(a + 1, m):
                bracket = chart.jacobi_bracket_at(f, system.integrals[b], x)
                assert brackets[i, a, b] == bracket
                assert brackets[i, b, a] == -bracket
    lifted = np.hstack([points, np.linspace(0.6, 1.8, len(points))[:, None]])
    fields = symp.chart._fields(lifted, *symp.gradient_stack(lifted))
    for i, x in enumerate(lifted):
        for a, F in enumerate(symp.integrals):
            assert np.array_equal(fields[i, a], symp.chart.hamiltonian_field_at(F, x))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stacked_rows_equal_single_points(name):
    cfg = load_config(CONFIGS[name])
    system, symp = cfg.system(), cfg.symp_system()
    points = system.sample(np.random.default_rng(2024), 64)
    _assert_rows_match_single_points(system, symp, points)
    _assert_rows_match_single_points(system, symp, points[:1])


# ---------------------------------------------------------------------------
# Failures in sample order
# ---------------------------------------------------------------------------

# log(q) on q in [-1, 1]: the second sample (q = -0.967) is outside the domain
LOG_DOMAIN = {
    "name": "log-domain",
    "n": 1,
    "coordinates": ["q", "p", "z"],
    "integrals": ["p", "log(q)"],
    "region": {"q": [-1.0, 1.0], "p": [0.5, 2.0], "z": [0.5, 2.0]},
    "seed": 0,
}

# the rotation chart dz + (x dy - y dx)/2 with integrals 1 and (x^2+y^2)/2,
# conformally rescaled by exp(-20x): the flat matrix's det is exp(-60x),
# below the 1e-12 singular threshold for x > 0.46, first at the fourth sample
SINGULAR_ROTATION = {
    "name": "singular-rotation",
    "n": 1,
    "coordinates": ["x", "y", "z"],
    "eta": ["-exp(-20*x)*y/2", "exp(-20*x)*x/2", "exp(-20*x)"],
    "integrals": ["exp(-20*x)", "exp(-20*x)*(x^2+y^2)/2"],
    "region": {"x": [-1.0, 1.0], "y": [-1.0, 1.0], "z": [-1.0, 1.0]},
    "seed": 0,
}

# exit code and stderr of the per-point code, for each case
FAILURES = [
    (LOG_DOMAIN, ["check"], 2, "error: log of a nonpositive value in 'log(q)'"),
    (LOG_DOMAIN, ["symplectize-verify"], 2, "error: log of a nonpositive value in 'log(q)'"),
    (SINGULAR_ROTATION, ["check"], 3,
     "numerical failure: flat matrix is singular at [0.8701448475755365, "
     "0.6317071082430643, -0.9945229996597038] (det 5.862e-31)"),
    (SINGULAR_ROTATION, ["coisotropy", "--lambda", "1,1"], 3,
     "numerical failure: flat matrix is singular at [1.1583793071659358, "
     "-0.4959589529533923, -0.9180529521276106] (det 5.673e-41)"),
    (SINGULAR_ROTATION, ["symplectize-verify"], 3,
     "numerical failure: omega is singular at [0.6265404784005448, "
     "0.8255111545554434, 0.21327155153435973, 1.5942448414759975] (det 4.334e-22)"),
]


@pytest.mark.parametrize("config, argv, code, message", FAILURES,
                         ids=[f"{c['name']}-{a[0]}" for c, a, _, _ in FAILURES])
def test_cli_failure_is_the_first_failing_sample(config, argv, code, message, tmp_path,
                                                 capsys):
    path = tmp_path / f"{config['name']}.json"
    path.write_text(json.dumps(config))
    assert cli.main([argv[0], str(path), *argv[1:]]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message + "\n"


def test_library_failure_follows_sample_order():
    # the stack meets the domain error of the third point before the flat
    # matrix of the second, but a loop over the points stops at the second
    chart = ContactChart(("x", "y", "z"), SINGULAR_ROTATION["eta"])
    system = ContactSystem(chart, ["exp(-20*x)", "exp(-20*x)*(x^2+y^2)/2 + 0*log(z)"])
    good, singular, outside = [0.0, 0.3, 0.5], [0.9, 0.3, 0.5], [0.0, 0.3, -0.5]
    with pytest.raises(ContactConditionError) as exc:
        involution_check(system, points=np.array([good, singular, outside]))
    assert exc.value.point.tolist() == singular
    with pytest.raises(EvaluationDomainError):
        involution_check(system, points=np.array([good, outside, singular]))


# ---------------------------------------------------------------------------
# Worst cases: first strict maximum in loop order
# ---------------------------------------------------------------------------

def _reference_worst(system, points, values_at):
    """The per-point loop: first strict maximum of |values| over points, then keys."""
    worst, key, where = 0.0, None, None
    for i, x in enumerate(points):
        for k, value in values_at(system, x):
            if abs(value) > worst:
                worst, key, where = abs(value), k, i
    return worst, key, where


def _jets_and_brackets(system, x):
    """The jets and bracket matrix of the integrals at the single point x."""
    jets = system.jet_stack([x])
    return Jets._make(entry[0] for entry in jets), system.chart.bracket_matrix(jets)[0]


def _brackets(system, x):
    bk = _jets_and_brackets(system, x)[1]
    m = len(bk)
    return [((a, b), bk[a, b]) for a in range(m) for b in range(a + 1, m)]


def _cyclic_sums(system, x):
    jets, bk = _jets_and_brackets(system, x)
    f, m = jets.values, len(jets.values)
    return [((a, b, c), f[a] * bk[b, c] + f[c] * bk[a, b] + f[b] * bk[c, a])
            for a in range(m) for b in range(m) for c in range(m)]


def _contractions(system, x):
    jets = _jets_and_brackets(system, x)[0]
    f, m = jets.values, len(jets.values)
    out = []
    for c in range(m):
        rates = jets.gradients @ jets.fields[c]
        out += [((a, b, c), f[a] * rates[b] - f[b] * rates[a])
                for a in range(m) for b in range(a + 1, m)]
    return out


def test_ties_report_the_first_occurrence(noninvolutive5):
    # integrals (q1, p1, z): {q1, p1} = -1, {q1, z} = -q1, {p1, z} = 0.
    # Rows 1 and 3 repeat the worst ray point; within a row the cyclic
    # sums tie over the permutations of (0, 1, 2)
    ray = [[0.8, 1.0, 0.8, 1.0, 0.8], [1.7, 0.9, 1.7, 1.2, 1.7], [1.2, 1.1, 1.2, 0.7, 1.2]]
    points = np.array([ray[0], ray[1], ray[2], ray[1]])
    target = RayTarget([1.0, 1.0, 1.0])
    inv = involution_check(noninvolutive5, points=points)
    co = coisotropy_check(noninvolutive5, target, points=points)
    tan = tangency_check(noninvolutive5, target, points=points)
    for report, values_at, value, key in [
        (inv, _brackets, inv.max_abs_bracket, inv.worst_pair),
        (co, _cyclic_sums, co.max_abs_sum, co.worst_triple),
        (tan, _contractions, tan.max_abs_contraction, tan.worst_triple),
    ]:
        assert _reference_worst(noninvolutive5, points, values_at) == (value, key, 1)
        assert np.shares_memory(report.worst_point, points[1])
        assert not np.shares_memory(report.worst_point, points[3])
    assert inv.max_abs_bracket == 1.7 and inv.worst_pair == (0, 2)
    assert co.worst_triple == (0, 1, 2)
    # every row of the bracket (0, 1) ties at |{q1, p1}| = 1: the first
    # row and the first pair
    flat = np.array([[0.9, 1.5, 0.6, 0.7, 1.1], [0.5, 0.6, 1.9, 1.4, 0.8]])
    inv = involution_check(noninvolutive5, points=flat)
    assert inv.max_abs_bracket == 1.0 and inv.worst_pair == (0, 1)
    assert np.shares_memory(inv.worst_point, flat[0])


def test_vanishing_checks_keep_the_defaults(involutive5):
    # integrals (p1, p2, z) commute exactly, and p1 = p2 = z is the ray (1, 1, 1)
    points = np.array([[0.7, 1.3, 1.1, 1.1, 1.1], [1.9, 0.6, 0.8, 0.8, 0.8]])
    target = RayTarget([1.0, 1.0, 1.0])
    inv = involution_check(involutive5, points=points)
    co = coisotropy_check(involutive5, target, points=points)
    tan = tangency_check(involutive5, target, points=points)
    assert (inv.max_abs_bracket, inv.worst_pair) == (0.0, (0, 0))
    assert (co.max_abs_sum, co.worst_triple) == (0.0, (0, 0, 0))
    assert (tan.max_abs_contraction, tan.worst_triple) == (0.0, (0, 0, 0))
    for report in (inv, co, tan):
        assert report.passed
        assert np.shares_memory(report.worst_point, points[0])
