"""Self-tests of the benchmark: its inputs, its oracles and its counts.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import reference
import run
import worker
from tracer import UNITS, MissingEntryPoint, Tracer

RUN = Path(__file__).resolve().parent / "run.py"


def _workload(tmp_path: Path, name: str, seed: int = 3):
    inputs.write_plan(name, seed, tmp_path)
    plan = json.loads((tmp_path / "inputs.json").read_text())
    ops = json.loads((tmp_path / "ops.json").read_text())
    return worker.Workload(plan), ops


def _failures_by_kind(workload, ops: list[dict]) -> dict[str, list[bool]]:
    loop = worker.Loop(workload, ops)
    seen: dict[str, list[bool]] = {}
    for _ in ops:
        before = loop.failed
        kind, _ = loop.step()
        seen.setdefault(kind.split(":")[0], []).append(loop.failed > before)
    return seen


def test_rescaled_pz_fields_equal_darboux_pz_fields(tmp_path):
    workload, _ = _workload(tmp_path, "general-coframe")
    points = workload.systems["darboux-pz"].sample(np.random.default_rng(11), 64)
    mismatch = worker.field_mismatch(workload.systems["darboux-pz"],
                                     workload.systems["rescaled-pz"], points)
    assert mismatch <= worker.FIELD_MATCH_TOL
    assert not workload.configs["rescaled-pz"].system().chart.darboux
    assert workload.precheck() is None


def test_cubic_configs_vary_with_the_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    inputs.write_plan("sampled-checks", 1, first)
    inputs.write_plan("sampled-checks", 2, second)
    a = json.loads((first / "cubic-5d-0.json").read_text())
    b = json.loads((second / "cubic-5d-0.json").read_text())
    assert a["integrals"] != b["integrals"]
    inputs.write_plan("sampled-checks", 1, second)
    assert (first / "ops.json").read_text() == (second / "ops.json").read_text()


def test_every_prefix_of_points_covers_the_box():
    import random

    stream = inputs.Points(random.Random(7), inputs.LIFTED)
    points = [stream.draw() for _ in range(49)]
    # the first base**m points put one value in each of base**m slices
    for k, ((lo, hi), base) in enumerate(zip(inputs.LIFTED, inputs.BASES)):
        n = base ** (2 if base < 7 else 1)
        slices = sorted(int((x[k] - lo) / (hi - lo) * n) for x in points[:n])
        assert slices == list(range(n))
    other = inputs.Points(random.Random(8), inputs.LIFTED)
    assert [other.draw() for _ in range(49)] != points


def test_normalised_times_do_not_depend_on_host_speed():
    rng = np.random.default_rng(2)
    ops = rng.uniform(0.01, 0.2, 200)
    # the host runs at speed 1 for a while, then half as fast, then twice
    slow = np.repeat([1.0, 2.0, 0.5], [60, 80, 60])
    refs = reference.NOMINAL_S * slow * rng.uniform(0.98, 1.02, 200)
    refs[17] *= 30  # an interrupt
    speeds = reference.local_speeds(list(refs))
    normalised = np.array([t * s * v for t, s, v in zip(ops, slow, speeds)])
    # away from the speed changes, the window sees one speed only
    steady = np.r_[10:50, 70:130, 150:190]
    assert np.allclose(normalised[steady], ops[steady], rtol=0.03)


def test_reference_interpreter_reports_its_cpu_time():
    import time

    assert 0.0 < run._reference_setup(time.monotonic() + 60) < 60.0


# One cycle of each workload holds every op kind, and every op passes its
# honest oracle.  Each tampering below breaks one oracle: every op that
# oracle judges must then count as failed, and every other op still pass.
def _wrong_verdicts():
    return {key: (1 - code, checks) for key, (code, checks) in worker.EXPECTED.items()}


TAMPERINGS = {
    "cli": lambda mp: mp.setattr(worker, "EXPECTED", _wrong_verdicts()),
    "angle": lambda mp: mp.setattr(
        worker, "closed_form_angles",
        lambda section, x, real=worker.closed_form_angles: (real(section, x)[0] + 1e-3,
                                                            real(section, x)[1])),
    "flow": lambda mp: mp.setattr(
        worker, "closed_form_flow",
        lambda integral, x0, t, real=worker.closed_form_flow: tuple(
            v * (1 + 1e-5) for v in real(integral, x0, t))),
    "darboux": lambda mp: mp.setattr(worker, "DARBOUX_TOL", 0.0),
}
KIND_OF = {"check": "cli", "coisotropy": "cli", "symplectize-verify": "cli",
           "angle": "angle", "flow0": "flow", "flow1": "flow", "darboux": "darboux"}


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_every_oracle_can_fail(tmp_path, monkeypatch, name):
    workload, ops = _workload(tmp_path, name)
    cycle = ops[: inputs.CYCLE[name]]
    honest = _failures_by_kind(workload, cycle)
    assert not any(any(v) for v in honest.values()), honest
    for oracle, tamper in TAMPERINGS.items():
        if oracle not in {KIND_OF[kind] for kind in honest}:
            continue
        with monkeypatch.context() as mp:
            tamper(mp)
            wrong = _failures_by_kind(workload, cycle)
        for kind, failed in wrong.items():
            assert all(failed) if KIND_OF[kind] == oracle else not any(failed), (
                oracle, kind, failed)


def test_tracer_refuses_a_missing_entry_point(monkeypatch):
    from contactmech import geometry

    monkeypatch.delattr(geometry.ContactChart, "reeb_at")
    tracer = Tracer()
    try:
        with pytest.raises(MissingEntryPoint, match="ContactChart.reeb_at"):
            tracer.install()
    finally:
        tracer.uninstall()


def _run(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_work_counts_repeat_at_one_seed(name):
    root = RUN.parent.parent
    args = (str(RUN), "--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
    first, second = (_last_json(_run(*args, cwd=root)) for _ in range(2))
    assert first["correct"] and second["correct"]
    counts = [k for k, unit in UNITS.items() if unit == "count"]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts}
    metrics = first["metrics"]
    if name == "sampled-checks":
        assert metrics["flows.integrate_calls"]["value"] == 0
    if name != "general-coframe":
        assert metrics["geometry.flat_calls"]["value"] == 0
    else:
        assert metrics["geometry.flat_calls"]["value"] > 0
    if name == "angle-solves":
        assert metrics["integrability.newton_iters"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path / RUN.parent.name / "run.py"), "--workload", "angle-solves",
                "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
