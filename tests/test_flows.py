import csv
from pathlib import Path

import numpy as np
import pytest

from contactmech import flows
from contactmech.flows import (
    COMPLETED,
    EXITED_DOMAIN,
    MAX_STEPS,
    STEP_FAILURE,
    FlowError,
    IntegratorConfig,
    StartPointError,
    Trajectory,
    flow_map,
    group_action,
    integrate,
    variational_group_action,
)
from contactmech.config import load_config
from contactmech.geometry import ContactChart, ContactSystem
from contactmech.integrability import angle_solve
from contactmech.symplectization import symplectize
from identities import dissipation_residual
from test_acceptance import N2_SECTION, N2_SYSTEMS

X0 = np.array([2.0, 3.0, 5.0])
# dense-n2's f1 flow from this point runs into a singular flat matrix (|det B|
# at 1e-12) near t = 3.27; lifted at r = 1.8691333659165825, its backward flow
# runs into a singular omega near t = -3.06
DENSE = Path(__file__).parent / "data" / "golden" / "dense-n2.json"
SINGULAR_X0 = [1.4554425309821815, 0.9046800706458055, 0.5614602859042921,
               0.5247914532927936, 1.7199053588004087]
SINGULAR_LIFT = [*SINGULAR_X0, 1.8691333659165825]


@pytest.mark.parametrize(
    "field, value",
    [(field, value) for field in ("rel_tol", "abs_tol", "min_step")
     for value in (np.nan, np.inf, 0.0, -1e-3)]
    + [("max_step", value) for value in (np.nan, 0.0, -1.0)]
    + [("max_steps", value) for value in (0, -1, np.nan)],
)
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=f"integrator {field} must be"):
        IntegratorConfig(**{field: value})


def test_config_rejects_min_step_above_max_step():
    with pytest.raises(ValueError, match="min_step 1.0 exceeds max_step 0.1"):
        IntegratorConfig(min_step=1.0, max_step=0.1)
    assert IntegratorConfig(min_step=0.1, max_step=0.1).max_step == 0.1


def test_config_allows_unbounded_max_step():
    assert IntegratorConfig(max_step=np.inf).max_step == np.inf


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_nonfinite_time_is_rejected(pz_system, t):
    # a NaN time used to return status "completed" at the start point
    with pytest.raises(ValueError, match=f"flow time must be finite, got {t}"):
        integrate(pz_system, 0, [0.5, 1.2, 0.8], t)
    with pytest.raises(ValueError, match="flow time must be finite"):
        flow_map(pz_system, 1, X0, t)
    with pytest.raises(ValueError, match="flow time must be finite"):
        group_action(pz_system, [0.3, t], X0)
    with pytest.raises(ValueError, match="flow time must be finite"):
        variational_group_action(pz_system, [t, 0.0], X0, np.eye(3))
    # every time is checked before the first flow, here one that truncates
    with pytest.raises(ValueError, match="flow time must be finite"):
        variational_group_action(pz_system, [t, 1.0], X0, np.eye(3), IntegratorConfig(max_steps=2))
    with pytest.raises(ValueError, match="flow time must be finite"):
        group_action(pz_system, [t, 1.0], X0, IntegratorConfig(max_steps=2))


def test_zero_time_is_a_single_row(pz_system):
    traj = integrate(pz_system, "p", X0, 0.0)
    assert traj.completed
    assert traj.times.shape == (1,)
    assert np.array_equal(traj.points, [X0])


def test_start_point_validation(pz_system):
    with pytest.raises(ValueError):
        integrate(pz_system, "p", np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        integrate(pz_system, "p", np.array([1.0, -2.0, 1.0]), 1.0)  # p must be positive


# ---------------------------------------------------------------------------
# Exact flows
# ---------------------------------------------------------------------------

def test_translation_flow_is_exact(pz_system):
    # the flow of p only moves q at unit speed
    traj = integrate(pz_system, "p", X0, 2.0)
    assert traj.completed
    assert np.allclose(traj.endpoint(), [4.0, 3.0, 5.0], atol=1e-12)
    assert np.max(np.abs(traj.points[:, 1] - 3.0)) == 0.0
    assert np.max(np.abs(traj.points[:, 2] - 5.0)) == 0.0


def test_scaling_flow_matches_exponential(pz_system):
    traj = integrate(pz_system, "z", X0, 2.0)
    assert traj.completed
    want_p = 3.0 * np.exp(-traj.times)
    want_z = 5.0 * np.exp(-traj.times)
    assert np.max(np.abs(traj.points[:, 1] - want_p)) < 1e-9
    assert np.max(np.abs(traj.points[:, 2] - want_z)) < 1e-9
    assert np.max(np.abs(traj.points[:, 0] - 2.0)) == 0.0


def test_backward_flow(pz_system):
    traj = integrate(pz_system, "z", X0, -1.5)
    assert traj.completed
    assert np.all(np.diff(traj.times) < 0.0)
    assert traj.times[-1] == -1.5
    assert np.allclose(
        traj.endpoint(), [2.0, 3.0 * np.e**1.5, 5.0 * np.e**1.5], atol=1e-8
    )


def test_integral_index_and_expression_forms_agree(pz_system):
    a = integrate(pz_system, 1, X0, 0.5).endpoint()
    b = integrate(pz_system, "z", X0, 0.5).endpoint()
    assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# Truncation statuses
# ---------------------------------------------------------------------------

def test_positivity_guard_truncates(pz_system):
    # X_q pushes p linearly through zero
    traj = integrate(pz_system, "q", np.array([1.0, 1.0, 1.0]), 5.0)
    assert traj.status == EXITED_DOMAIN
    assert "p" in traj.detail
    assert traj.points[-1][1] > 0.0  # last recorded point is still inside
    assert traj.times[-1] < 5.0


def test_domain_error_truncates(pz_system):
    # field of log(q) leaves the expression domain when q crosses zero;
    # X_{log q} = (0, -1/q, -log q) drives q nowhere but start q < 0 is
    # invalid already, so instead flow toward the log singularity in z
    traj = integrate(pz_system, "log(z - 0.4)", np.array([0.0, 1.0, 1.0]), 20.0)
    assert traj.status in (EXITED_DOMAIN, COMPLETED)


@pytest.mark.parametrize("lifted", [False, True], ids=["contact", "lifted"])
def test_a_singular_structure_ends_the_flow_as_a_domain_exit(lifted):
    # a stage that raises the chart's GeometryError (contact) or
    # SymplectizationError (lifted) halves the step like a domain error, and
    # the flow ends where the step collapses, with the error's message
    config = load_config(DENSE)
    system = config.symp_system() if lifted else config.system()
    x0, t = (SINGULAR_LIFT, -20.0) if lifted else (SINGULAR_X0, 5.0)
    traj = integrate(system, 1, x0, t)
    assert traj.status == EXITED_DOMAIN
    prefix = "omega is singular at " if lifted else "flat matrix is singular at "
    assert traj.detail.startswith(prefix) and traj.detail.endswith("(det 1.000e-12)")
    assert 3.0 < abs(traj.times[-1]) < 3.5 and np.sign(traj.times[-1]) == np.sign(t)
    assert np.isfinite(traj.points).all()
    # the endpoint flows compose the same loop: the flow stops, as a FlowError
    with pytest.raises(FlowError, match=f"exited_domain: {prefix}") as err:
        group_action(system, [0.0, t, 0.0], x0)
    assert err.value.trajectory.status == EXITED_DOMAIN
    assert err.value.trajectory.detail.startswith(prefix)


def test_max_steps_status(pz_system):
    cfg = IntegratorConfig(max_steps=3)
    traj = integrate(pz_system, "z", X0, 10.0, cfg)
    assert traj.status == MAX_STEPS
    assert traj.detail == "3 steps"
    assert len(traj.times) == 4  # start plus three accepted steps


def test_step_collapse_status(pz_system):
    # a large min_step with a tight tolerance cannot take any step
    cfg = IntegratorConfig(rel_tol=1e-14, abs_tol=1e-16, min_step=0.5)
    traj = integrate(pz_system, "z", X0, 2.0, cfg)
    assert traj.status == STEP_FAILURE
    assert len(traj.times) == 1


def test_flow_map_raises_on_truncation(pz_system):
    with pytest.raises(FlowError) as err:
        flow_map(pz_system, "q", np.array([1.0, 1.0, 1.0]), 5.0)
    assert err.value.trajectory is not None
    assert err.value.trajectory.status == EXITED_DOMAIN


def test_flow_map_endpoint(pz_system):
    end = flow_map(pz_system, "z", X0, 1.0)
    assert np.allclose(end, [2.0, 3.0 / np.e, 5.0 / np.e], atol=1e-9)


# ---------------------------------------------------------------------------
# Output format
# ---------------------------------------------------------------------------

def test_write_csv_round_trip(pz_system, tmp_path):
    traj = integrate(pz_system, "z", X0, -1.0)
    out = tmp_path / "traj.csv"
    traj.write_csv(out, pz_system.coordinates)
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["time", "q", "p", "z"]
    assert len(rows) == len(traj.times) + 1
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:], traj.points)


def test_write_csv_validates_names():
    traj = Trajectory(np.zeros(1), np.zeros((1, 3)), COMPLETED)
    with pytest.raises(ValueError):
        traj.write_csv("/tmp/unused.csv", ["a", "b"])


# ---------------------------------------------------------------------------
# Group action
# ---------------------------------------------------------------------------

def test_group_action_applies_index_zero_last(pz_system):
    got = group_action(pz_system, np.array([0.5, 0.7]), np.array([1.0, 1.0, 1.0]))
    want = np.array([1.5, np.exp(-0.7), np.exp(-0.7)])
    assert np.allclose(got, want, atol=1e-9)


def test_group_action_skips_zero_times(pz_system):
    got = group_action(pz_system, np.array([0.3, 0.0]), X0)
    assert np.allclose(got, flow_map(pz_system, "p", X0, 0.3), atol=1e-12)
    assert np.array_equal(group_action(pz_system, np.zeros(2), X0), X0)


def _spied_steps(monkeypatch) -> list:
    """The h of every step call the flows' bound steps make from now on."""
    calls, bind = [], flows._calling

    def spying(field, dim):
        step = bind(field, dim)
        return lambda x, h, *tols: calls.append(h) or step(x, h, *tols)

    monkeypatch.setattr(flows, "_calling", spying)
    return calls


def test_a_composed_translation_flow_is_one_step(monkeypatch, pz_system):
    # RKF45 integrates the flow of p, a unit-speed translation in q, exactly:
    # a composition proposes its whole span and takes it in one step call,
    # while integrate records its ramp from 1% of the span
    calls = _spied_steps(monkeypatch)
    assert group_action(pz_system, [1.3, 0.0], X0).tolist() == [3.3, 3.0, 5.0]
    assert calls == [1.3]
    calls.clear()
    traj = integrate(pz_system, "p", X0, 1.3)
    assert traj.times.tolist() == [0.0, 0.013000000000000001, 0.078, 0.403, 1.3]
    assert len(calls) == 4
    # max_step still caps a composition's steps
    calls.clear()
    group_action(pz_system, [1.3, 0.0], X0, IntegratorConfig(max_step=0.5))
    assert calls == [0.5, 0.5, 1.3 - 1.0]


@pytest.mark.parametrize("t", [8.0, -3.0])
def test_a_rejected_whole_span_step_shrinks_to_the_closed_form(monkeypatch, pz_system, t):
    # the flow of z scales (p, z) by exp(-t); no step of the whole span holds
    calls = _spied_steps(monkeypatch)
    got = group_action(pz_system, [0.0, t], X0)
    assert calls[0] == t and abs(calls[1]) < abs(t)
    want = np.array([2.0, 3.0 * np.exp(-t), 5.0 * np.exp(-t)])
    assert np.max(np.abs(got - want) / want) < 1e-8


# Closed-form angle coordinates: (q, -log z) on graph-z and (q - z/p,
# -log p) on graph-p for darboux-pz, and the N2_SYSTEMS angles at n = 2.
# With the 1%-of-span ramp before every composed flow, the worst errors
# over these points were 1.08e-9 (graph-z), 1.15e-9 (graph-p), 9.34e-10
# (standard) and 9.52e-10 (twin); the whole-span start must stay below
# 1.5e-9 on each.
ANGLE_ERROR_BOUND = 1.5e-9


@pytest.mark.parametrize("name", ["graph-z", "graph-p"])
def test_darboux_angles_match_their_closed_forms(pz_config, pz_symp, name):
    section = pz_config.section(name)
    worst = 0.0
    for x in pz_symp.sample(np.random.default_rng(70), 300):
        q, p, z, _ = x
        want = [q, -np.log(z)] if name == "graph-z" else [q - z / p, -np.log(p)]
        worst = max(worst, float(np.max(np.abs(angle_solve(pz_symp, section, x).y - want))))
    assert worst < ANGLE_ERROR_BOUND


@pytest.mark.parametrize("name", sorted(N2_SYSTEMS))
def test_n2_angles_match_their_closed_forms(name):
    integrals, last_angle = N2_SYSTEMS[name]
    symp = symplectize(ContactSystem(ContactChart.standard(2), integrals))
    rng = np.random.default_rng(72)
    points = np.column_stack([rng.uniform(-1.0, 1.0, (100, 2)), rng.uniform(0.6, 1.9, (100, 3))])
    worst = 0.0
    for x in points:
        q1, q2, _, _, z = x
        sol = angle_solve(symp, N2_SECTION, np.append(x, 1.0))
        worst = max(worst, float(np.max(np.abs(sol.y - [q1, q2, last_angle(q1, q2, z)]))))
    assert worst < ANGLE_ERROR_BOUND


def test_group_action_length_check(pz_system):
    with pytest.raises(ValueError):
        group_action(pz_system, np.array([1.0]), X0)


@pytest.mark.parametrize("x0, tangents", [
    ([0.3, 1.2], np.eye(3)),
    ([0.3, 1.2, 0.8, 1.0], np.eye(3)),
    (X0, np.eye(2)),
    (X0, np.ones(3)),
    (X0, np.ones((3, 1, 1))),
], ids=["short-x0", "long-x0", "tangents-of-2", "one-tangent-flat", "tangents-3d"])
def test_variational_group_action_checks_its_shapes(pz_system, x0, tangents):
    # these raised a bare unpacking error from the variational closure
    with pytest.raises(ValueError) as got:
        variational_group_action(pz_system, [0.3, 1.2], x0, tangents)
    if len(x0) != 3:
        with pytest.raises(ValueError) as want:
            group_action(pz_system, [0.3, 1.2], x0)
        assert str(got.value) == str(want.value) == (
            f"expected start point of shape (3,), got ({len(x0)},)")
    else:
        assert str(got.value) == f"expected tangents of shape (3, k), got {tangents.shape}"


def test_variational_group_action_takes_no_tangents(pz_system):
    x, carried = variational_group_action(pz_system, [0.3, 1.2], X0, np.empty((3, 0)))
    assert x.tolist() == group_action(pz_system, [0.3, 1.2], X0).tolist()
    assert carried.shape == (3, 0)


def test_group_actions_check_each_start_point(pz_system):
    # p is guarded positive; the first flow of nonzero time checks its start
    start = np.array([2.0, -1.0, 5.0])
    with pytest.raises(StartPointError, match="coordinate p reached"):
        group_action(pz_system, [0.3, 0.0], start)
    with pytest.raises(StartPointError, match="coordinate p reached"):
        variational_group_action(pz_system, [0.3, 0.0], start, np.eye(3))
    assert np.array_equal(group_action(pz_system, [0.0, 0.0], start), start)


def test_group_action_with_explicit_generators(pz_system):
    got = group_action(pz_system, np.array([0.4]), X0, integrals=["p"])
    assert np.allclose(got, [2.4, 3.0, 5.0], atol=1e-12)


def test_group_action_on_lift(pz_symp):
    x0 = np.array([2.0, 3.0, 5.0, 7.0])
    got = group_action(pz_symp, np.array([0.7, -0.4]), x0)
    want = np.array(
        [2.7, 3.0 * np.exp(0.4), 5.0 * np.exp(0.4), 7.0 * np.exp(-0.4)]
    )
    assert np.allclose(got, want, atol=1e-8)


def test_variational_group_action_on_lift(pz_symp):
    # Phi(t, s; q, p, z, r) = (q + t, p e^-s, z e^-s, r e^s): the derivative
    # in the start point is diagonal
    x0 = np.array([2.0, 3.0, 5.0, 7.0])
    tangents = np.arange(8.0).reshape(4, 2) - 3.0
    end, carried = variational_group_action(pz_symp, [0.7, -0.4], x0, tangents)
    assert np.allclose(end, group_action(pz_symp, [0.7, -0.4], x0), atol=1e-12)
    scale = np.exp([0.0, 0.4, 0.4, -0.4])
    assert np.max(np.abs(carried - scale[:, None] * tangents)) < 1e-9


def test_variational_group_action_matches_differences(pz_system):
    # a general coframe, eta' = exp(q/3) eta, with the integrals exp(q/3) (p, z)
    chart = ContactChart(("q", "p", "z"), ["-exp(q/3)*p", "0", "exp(q/3)"])
    system = ContactSystem(chart, ["exp(q/3)*p", "exp(q/3)*z"], positive=["p", "z"])
    x0, t, h = np.array([0.4, 1.3, 0.9]), [0.6, -0.3], 1e-6
    for sys_, x in ((system, x0), (symplectize(system), np.append(x0, 1.2))):
        _, carried = variational_group_action(sys_, t, x, np.eye(len(x)))
        differences = np.column_stack([
            (group_action(sys_, t, x + h * e) - group_action(sys_, t, x - h * e)) / (2.0 * h)
            for e in np.eye(len(x))
        ])
        assert np.max(np.abs(carried - differences)) < 1e-7


def test_variational_group_action_raises_on_truncation(pz_system):
    # a two-step cap stops the flow short of its time
    with pytest.raises(FlowError):
        variational_group_action(pz_system, [0.0, 1.0], X0, np.eye(3),
                                 IntegratorConfig(max_steps=2))


# ---------------------------------------------------------------------------
# Dissipation law along trajectories
# ---------------------------------------------------------------------------

def test_dissipation_residual_decay_law(pz_system):
    cfg = IntegratorConfig(max_step=0.02)
    traj = integrate(pz_system, "z", np.array([0.3, 1.0, 1.0]), 2.0, cfg)
    assert dissipation_residual(pz_system, "z", "p", traj) < 1e-4


def test_dissipation_residual_conserved_case(pz_system):
    # z is constant along the flow of p and R(p) = 0
    cfg = IntegratorConfig(max_step=0.05)
    traj = integrate(pz_system, "p", X0, 1.0, cfg)
    assert dissipation_residual(pz_system, "p", "z", traj) < 1e-12


def test_dissipation_residual_shrinks_quadratically(pz_system):
    # caps below the error-controlled natural step so the grid scales with h
    x0 = np.array([0.3, 1.0, 1.0])
    res = []
    for h in (0.02, 0.01, 0.005):
        traj = integrate(pz_system, "z", x0, 1.0, IntegratorConfig(max_step=h))
        res.append(dissipation_residual(pz_system, "z", "p", traj))
    assert res[2] < res[1] < res[0]
    assert res[0] / res[2] > 8.0  # second order would give 16
