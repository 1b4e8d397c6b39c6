"""Ray projection: the generated loop against its float and NumPy/lstsq references.

`integrability.ray_project` runs one generated Gauss-Newton program per
integral count and dimension (`_ray_program`), which takes each step
from the least-norm Gram solve it writes in (`_gram`), and from
`np.linalg.lstsq` only where J J^T is (nearly) singular.  The float-list
loop it unrolls and the NumPy loop before that are the references in
`tests/ray_reference.py`: the first bitwise, errors included, the
second to round-off.
"""

from __future__ import annotations

import importlib.util
import io
import json
import math
import random
import re
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from contactmech import cli, integrability
from contactmech.config import SystemConfig, bundled_config_path, load_config
from contactmech.expressions import EvaluationDomainError, gradient_kernel
from contactmech.geometry import ContactChart, ContactSystem
from contactmech.integrability import (
    RayProjectionError,
    RayTarget,
    _ray_points,
    _ray_program,
    ray_project,
)
from ray_reference import float_ray_project, lstsq_ray_project, ray_step

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


INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def _cubic_configs(directory: Path, count: int) -> list[Path]:
    """count cubic-5d configs as the benchmark generates them, written to directory."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rng, paths = random.Random("ray-program"), []
    for k in range(count):
        paths.append(directory / f"cubic-5d-{k}.json")
        paths[-1].write_text(json.dumps(inputs.cubic_config(rng)))
    return paths


def _outcome(project, system, target, seed, max_iter=50):
    """(the landing's coordinates and r, as hex), or the error's type and message."""
    try:
        x, r = project(system, target, seed, max_iter=max_iter)
    except (RayProjectionError, EvaluationDomainError) as exc:
        return type(exc), str(exc)
    return [v.hex() for v in x.tolist()], r.hex()


def test_ray_program_is_the_float_loop_bitwise(tmp_path):
    # seeds in the box and scattered beyond it, on rays with negative entries
    # too; a short max_iter stops some solves after a decrease that converged
    systems = [load_config(CONFIGS[name]).system() for name in
               ("pz", "5d-involutive", "5d-noninvolutive", "rescaled-pz")]
    systems += [load_config(path).system() for path in _cubic_configs(tmp_path, 3)]
    rays = {2: [(1.0, 1.0), (1.0, -1.0), (-1.0, 2.0)],
            3: [(1.0, 1.0, 1.0), (1.0, -1.0, 0.5), (3.0, 0.2, 1.0), (-1.0, 2.0, 2.0)]}
    rng = np.random.default_rng(8)
    seen = {"landed": 0}
    for system in systems:
        for ray in rays[len(system.integrals)]:
            target = RayTarget(ray)
            seeds = system.sample(rng, 60)
            seeds[30:] += rng.normal(0.0, 1.0, seeds[30:].shape)
            for k, seed in enumerate(seeds):
                max_iter = 2 if k % 10 == 9 else 50
                got = _outcome(ray_project, system, target, seed, max_iter)
                want = _outcome(float_ray_project, system, target, seed, max_iter)
                assert got == want, (system.integrals, ray, seed.tolist())
                kind = "landed" if isinstance(want[0], list) else re.split(" [(=]", want[1])[0]
                seen[kind] = seen.get(kind, 0) + 1
    assert seen["landed"] > 500, seen
    failures = {"no convergence onto the ray", "landed at the apex F", "landed at nonpositive scale r"}
    assert failures <= seen.keys(), seen


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
    step = ray_step(2, 3)  # the least-norm step that the loop writes in
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
    _ray_program.cache_clear()
    system = load_config(CONFIGS["rescaled-pz"]).system()
    assert "_fused" not in vars(system) and _ray_program.cache_info().misses == 0
    ray_project(system, RayTarget([1.0, 1.0]), [0.5, 1.2, 0.8])
    ray_project(system, RayTarget([1.0, 1.0]), [0.3, 1.0, 1.5])
    assert "_fused" in vars(system)
    assert _ray_program.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_step_program_is_the_least_norm_step():
    # the loop's least-norm step, compiled on its own, against lstsq
    rng = np.random.default_rng(3)
    for m, dim in ((2, 3), (3, 5)):
        assert (_ray_program(m, dim).__code__.co_filename
                == f"<contactmech ray-project m={m} dim={dim}>")
        step = ray_step(m, dim)
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
    # the second integral's entries of the fused kernel are replaced by
    # stub(kernel, x), kernel being that integral's own
    system = ContactSystem(ContactChart.standard(1), ["p", "z"])
    fused, second = system._fused, gradient_kernel(system.integrals[1], system.coordinates)

    def stubbed(x):
        value, grad = stub(second, x)
        return fused(x)[: system.dim + 1] + (value, *grad)

    monkeypatch.setattr(system, "_fused", stubbed)
    with pytest.raises(RayProjectionError, match="no convergence onto the ray"):
        ray_project(system, RayTarget([1.0, 1.0]), [0.0, 1.0, 2.0])


def test_a_step_without_decrease_is_halved_to_the_end(monkeypatch):
    # constant integrals: J = [0 | -Lambda] is rank-deficient, lstsq steps by
    # (0, 0), and every trial's residual equals the current one, which is
    # not a decrease: the line search halves 25 times and the solve stops
    system = ContactSystem(ContactChart.standard(1), ["p", "z"])
    calls = []

    def constant(x):
        calls.append(x)
        return (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)

    monkeypatch.setattr(system, "_fused", constant)
    for project in (ray_project, float_ray_project):
        calls.clear()
        with pytest.raises(RayProjectionError, match=r"residual 4\.000e-01 after 50 iter"):
            project(system, RayTarget([1.0, 2.0]), [0.3, 1.0, 1.5])
        assert len(calls) == 26  # the seed, then 25 trials of one line search


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
