"""Ray projection: the float loop against the NumPy/lstsq reference.

`integrability.ray_project` takes each Gauss-Newton step from the
generated least-norm program (`_ray_step_program`), and from
`np.linalg.lstsq` only where J J^T is (nearly) singular.  The loop it
replaced is the reference in `tests/ray_reference.py`.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from contactmech import cli, integrability
from contactmech.config import bundled_config_path, load_config
from contactmech.expressions import EvaluationDomainError
from contactmech.geometry import ContactChart, ContactSystem
from contactmech.integrability import (
    RayProjectionError,
    RayTarget,
    _ray_points,
    _ray_step_program,
    ray_project,
)
from ray_reference import lstsq_ray_project

GOLDEN = Path(__file__).parent / "data" / "golden"
CONFIGS = {
    "pz": bundled_config_path("darboux-pz"),
    "5d-involutive": bundled_config_path("darboux-5d-involutive"),
    "5d-noninvolutive": bundled_config_path("darboux-5d-noninvolutive"),
    "rescaled-pz": GOLDEN / "rescaled-pz.json",
    "cubic-5d": GOLDEN / "cubic-5d.json",
}
# the golden ray of each system, and rays that some seeds cannot reach
# (not cubic-5d's: its integrals vanish together on a submanifold, the
# apex, where a ray off their positive cone converges with |r| < 1e-11;
# `test_a_landing_at_the_apex_raises` covers it)
RAYS = [
    ("pz", (1.0, 1.0)), ("pz", (1.0, -1.0)), ("pz", (-1.0, 2.0)),
    ("5d-involutive", (1.0, 1.0, 1.0)), ("5d-involutive", (1.0, -1.0, 0.5)),
    ("5d-noninvolutive", (1.0, 1.0, 1.0)), ("5d-noninvolutive", (1.0, -1.0, 0.5)),
    ("rescaled-pz", (1.0, 1.0)), ("rescaled-pz", (1.0, -1.0)), ("rescaled-pz", (-1.0, 2.0)),
    ("cubic-5d", (1.0, 1.0, 1.0)), ("cubic-5d", (3.0, 0.2, 1.0)),
]


def _landing(project, system, target, seed):
    """(x, r), or the type of the error that project raised."""
    try:
        return project(system, target, seed)
    except (RayProjectionError, EvaluationDomainError) as exc:
        return type(exc)


@pytest.mark.parametrize("name, ray", RAYS, ids=[f"{n}-{r}" for n, r in RAYS])
def test_ray_project_matches_the_lstsq_reference(name, ray):
    system = load_config(CONFIGS[name]).system()
    target = RayTarget(ray)
    landed = 0
    for seed in system.sample(np.random.default_rng(7), 20):
        got = _landing(ray_project, system, target, seed)
        want = _landing(lstsq_ray_project, system, target, seed)
        if isinstance(want, type):
            assert got is want
            continue
        # the unknowns (x, r) of the solve, relative to their largest entry:
        # r is a coordinate of the landing too, and near 0 on some rays
        got, want = np.append(*got), np.append(*want)
        landed += 1
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert landed >= 5


def test_a_landing_at_the_apex_raises():
    # cubic-5d's integrals vanish together where p1 + 0.157 q1 + 0.45 q2 =
    # p2 + 0.45 q1 + 0.104 q2 = 0; on the ray (-1, 2, 2), off their positive
    # cone, Gauss-Newton converges there, with r of either sign at round-off
    # size (up to 7e-12 from these seeds), and F = r Lambda holds at r = 0
    system = load_config(CONFIGS["cubic-5d"]).system()
    target = RayTarget((-1.0, 2.0, 2.0))
    apex = {ray_project: 0, lstsq_ray_project: 0}
    for seed in range(30):
        x0 = system.sample(np.random.default_rng(seed), 1)[0]
        for project in (ray_project, lstsq_ray_project):
            with pytest.raises(RayProjectionError) as error:
                project(system, target, x0)
            apex[project] += "apex" in str(error.value)
    # which seeds reach r > 0 is round-off: 5 of the 30 in each loop here
    assert min(apex.values()) >= 3
    with pytest.raises(RayProjectionError, match="only 0 of 5 ray points"):
        _ray_points(system, target, 5, 0)


def test_rank_deficient_step_is_lstsq_and_lands_bitwise():
    # f0 = f1 = p: the rows of J = [TF | -Lambda] are equal on the ray (1, 1),
    # and below p = 1e-3 the start r = 1e-3 is off the ray, so one step runs
    system = ContactSystem(ContactChart.standard(1), ["p", "p"])
    target = RayTarget([1.0, 1.0])
    step = _ray_step_program(2, 3)
    assert step([(0.0, 1.0, 0.0), (0.0, 1.0, 0.0)], [0.5, 0.5], [1.0, 1.0]) is None
    for seed in ([0.3, -5e-4, 1.0], [-1.2, 2e-4, 0.7], [0.0, 9e-4, -2.0]):
        (x, r), (x_ref, r_ref) = (project(system, target, seed)
                                  for project in (ray_project, lstsq_ray_project))
        assert x.tolist() == x_ref.tolist() and r.hex() == float(r_ref).hex()
        assert x[1] != seed[1]  # a step was taken
    with pytest.raises(RayProjectionError) as got:
        ray_project(system, target, [0.3, -0.5, 1.0])
    with pytest.raises(RayProjectionError) as want:
        lstsq_ray_project(system, target, [0.3, -0.5, 1.0])
    assert str(got.value) == str(want.value)


def test_kernels_bind_and_the_step_compiles_at_the_first_projection():
    _ray_step_program.cache_clear()
    system = load_config(CONFIGS["rescaled-pz"]).system()
    assert "_kernels" not in vars(system) and _ray_step_program.cache_info().misses == 0
    ray_project(system, RayTarget([1.0, 1.0]), [0.5, 1.2, 0.8])
    ray_project(system, RayTarget([1.0, 1.0]), [0.3, 1.0, 1.5])
    assert "_kernels" in vars(system)
    assert _ray_step_program.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_step_program_is_the_least_norm_step():
    rng = np.random.default_rng(3)
    for m, dim in ((2, 3), (3, 5)):
        step = _ray_step_program(m, dim)
        assert step.__code__.co_filename == f"<contactmech ray-step m={m} dim={dim}>"
        for _ in range(50):
            TF, g, lam = rng.normal(size=(m, dim)), rng.normal(size=m), rng.normal(size=m)
            want = np.linalg.lstsq(np.hstack([TF, -lam[:, None]]), -g, rcond=None)[0]
            got = step([tuple(row) for row in TF.tolist()], g.tolist(), lam.tolist())
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("stub", [
    # NaN off the seed only: a max that drops NaN would take the first
    # trial step, whose other residual is 0, as a decrease and land there
    lambda kernel, x: kernel(x) if x == [0.0, 1.0, 2.0] else (math.nan, kernel(x)[1]),
    lambda kernel, x: (math.nan, (math.nan,) * 3),
    lambda kernel, x: (kernel(x)[0], (math.nan,) * 3),
], ids=["value-off-seed", "everywhere", "gradient"])
def test_nan_kernel_raises_and_never_lands(stub, monkeypatch):
    # the second integral's kernel is replaced by stub(kernel, x)
    system = ContactSystem(ContactChart.standard(1), ["p", "z"])
    first, second = system._kernels
    monkeypatch.setattr(system, "_kernels", (first, lambda x: stub(second, x)))
    with pytest.raises(RayProjectionError, match="no convergence onto the ray"):
        ray_project(system, RayTarget([1.0, 1.0]), [0.0, 1.0, 2.0])


def test_ray_attempts_count_the_ray_project_calls(monkeypatch):
    # on the ray (1, -1) most pz samples fail to project
    calls, failures = [], []

    def counted(*args, **kwargs):
        calls.append(args[2])
        try:
            return ray_project(*args, **kwargs)
        except Exception:
            failures.append(args[2])
            raise

    monkeypatch.setattr(integrability, "ray_project", counted)
    system = load_config(CONFIGS["pz"]).system()
    points, attempts, failed = _ray_points(system, RayTarget([1.0, -1.0]), 5, 3)
    assert len(points) == 5 and failed > 0
    assert (attempts, failed) == (len(calls), len(failures))
    calls.clear(), failures.clear()
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["coisotropy", str(CONFIGS["pz"]), "--lambda", "1,-1", "--points", "5",
                  "--seed", "3"])
    report = json.loads(out.getvalue())
    assert (report["ray_attempts"], report["ray_failures"]) == (len(calls), len(failures))
    assert report["ray_failures"] > 0
