"""The workload process: set up, run ops in a closed loop, check each one.

Usage: python3 worker.py MODE WORKDIR [--seconds S] [--trace]

MODE is one of
  setup  import contactmech, load the configs, build the systems and
         symplectizations, print "ready", report the CPU time that took
         and exit;
  run    set up, print "ready", run one warm-up cycle, then run ops for
         S seconds (--seconds is required here), and for at least
         MIN_TIMED_OPS ops, and report every op latency, with the
         reference kernel timed after every op;
  count  set up, print "ready", run one warm-up cycle, then run the
         fixed block of count_ops ops once; with --trace the layer spans
         of that block are recorded.

WORKDIR holds inputs.json and ops.json written by inputs.write_plan.  The
last stdout line is one JSON object with the results.  One client, one
thread: the next op starts only when the previous one has returned.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import contactmech as cm  # noqa: E402
import reference  # noqa: E402
from contactmech import cli  # noqa: E402

# The p90 latency needs at least ten samples beyond it.
MIN_TIMED_OPS = 100

# Oracle tolerances.
ANGLE_TOL = 1e-6
FLOW_REL_TOL = 1e-8
DARBOUX_TOL = 1e-5
FIELD_MATCH_TOL = 1e-12

# Documented verdicts: (exit code, {check name: passed}) per (config, command).
_SYMP_CHECKS = ("omega-nondegenerate", "liouville-field", "lift-homogeneity",
                "theta-pairing", "bracket-correspondence")
_PASS_CHECK = (0, {"contact-condition": True, "involution": True, "rank": True})
_PASS_COISO = (0, {"coisotropy": True, "tangency": True})
_PASS_SYMP = (0, dict.fromkeys(_SYMP_CHECKS, True))
EXPECTED = {
    ("darboux-pz", "check"): _PASS_CHECK,
    ("darboux-pz", "coisotropy"): _PASS_COISO,
    ("darboux-5d-involutive", "check"): _PASS_CHECK,
    ("darboux-5d-involutive", "coisotropy"): _PASS_COISO,
    ("darboux-5d-noninvolutive", "check"):
        (1, {"contact-condition": True, "involution": False, "rank": True}),
    ("darboux-5d-noninvolutive", "coisotropy"):
        (1, {"coisotropy": False, "tangency": False}),
    ("cubic-5d", "check"): _PASS_CHECK,
    ("rescaled-pz", "check"): _PASS_CHECK,
    ("rescaled-pz", "coisotropy"): _PASS_COISO,
}
for _label in ("darboux-pz", "darboux-5d-involutive", "darboux-5d-noninvolutive",
               "cubic-5d", "rescaled-pz"):
    EXPECTED[(_label, "symplectize-verify")] = _PASS_SYMP


def closed_form_angles(section: str, x) -> tuple[float, float]:
    """Angle coordinates of the pz systems at x = (q, p, z, r)."""
    q, p, z = x[0], x[1], x[2]
    if section == "graph-z":
        return q, -math.log(z)
    return q - z / p, -math.log(p)


def check_cli(name: str, command: str, code: int, stdout: str) -> str | None:
    """Why a CLI report on config `name` misses its documented verdict, or None."""
    want_code, want_checks = EXPECTED[(name, command)]
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    report = json.loads(stdout)
    got = {c["name"]: c["passed"] for c in report["checks"]}
    if got != want_checks:
        return f"verdicts {got}, expected {want_checks}"
    if report["passed"] != (want_code == 0):
        return "overall verdict disagrees with the exit code"
    if command == "coisotropy" and report["checks_agree"] is not True:
        return "coisotropy and tangency verdicts disagree"
    return None


def check_angles(section: str, x, result) -> str | None:
    want = closed_form_angles(section, x)
    err = max(abs(float(result.y[0]) - want[0]), abs(float(result.y[1]) - want[1]))
    if not err <= ANGLE_TOL:
        return f"angles off their closed form by {err:.3e}"
    return None


def closed_form_flow(integral: int, x0, t: float) -> tuple[float, float, float]:
    """Flow of the pz integrals: p translates q; z scales p and z by exp(-t)."""
    q0, p0, z0 = x0
    if integral == 0:
        return q0 + t, p0, z0
    return q0, p0 * math.exp(-t), z0 * math.exp(-t)


def check_flow(integral: int, x0, t_final: float, traj) -> str | None:
    if not traj.completed or float(traj.times[-1]) != t_final:
        return f"flow stopped at t = {float(traj.times[-1])} ({traj.status})"
    worst = 0.0
    for t, x in zip(traj.times, traj.points):
        want = closed_form_flow(integral, x0, float(t))
        for got, w in zip(x, want):
            worst = max(worst, abs(float(got) - w) / max(1.0, abs(w)))
    if not worst <= FLOW_REL_TOL:
        return f"trajectory off its closed form by {worst:.3e}"
    return None


def check_darboux(report) -> str | None:
    if not (report.passed and report.max_residual <= DARBOUX_TOL):
        return f"Darboux residual {report.max_residual:.3e}"
    return None


def field_mismatch(pz_system, rescaled_system, points) -> float:
    """Max |X - X'| of matching integral fields of darboux-pz and rescaled-pz.

    For eta' = a eta the field of a f under eta' is the field of f under
    eta, so the two systems must have the same fields; rescaled-pz oracles
    rely on this.
    """
    worst = 0.0
    for x in points:
        for k in range(len(pz_system.integrals)):
            X = pz_system.hamiltonian_field_at(k, x)
            for Y in (rescaled_system.hamiltonian_field_at(k, x),
                      rescaled_system.field_evaluator(k)(x)):
                worst = max(worst, float(abs(X - Y).max()))
    return worst


class Workload:
    """Loaded configs and systems, and the runner for every op kind."""

    def __init__(self, inputs: dict):
        self.paths: dict[str, str] = {}
        self.configs = {}
        self.systems = {}
        self.symps = {}
        for label, ref in inputs["configs"].items():
            if "bundled" in ref:
                path = str(cm.bundled_config_path(ref["bundled"]))
            else:
                path = ref["path"]
            cfg = cm.load_config(path)
            self.paths[label] = path
            self.configs[label] = cfg
            self.systems[label] = cfg.system()
            self.symps[label] = cfg.symp_system()
        self.counts = {"newton_iters": 0, "accepted_steps": 0, "reports": 0}

    def precheck(self) -> str | None:
        """Confirm the rescaled-pz field oracle before any op relies on it."""
        if "rescaled-pz" not in self.systems:
            return None
        points = self.systems["darboux-pz"].sample(np.random.default_rng(0), 16)
        worst = field_mismatch(self.systems["darboux-pz"],
                               self.systems["rescaled-pz"], points)
        if not worst <= FIELD_MATCH_TOL:
            return f"rescaled-pz fields differ from darboux-pz by {worst:.3e}"
        return None

    def run(self, op: dict) -> tuple[float, str | None]:
        """Execute one op; return its latency and why it failed, or None."""
        kind, label = op["kind"], op["config"]
        cfg = self.configs[label]
        if kind == "cli":
            argv = [op["command"], self.paths[label], *op["args"]]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code, elapsed, error = _timed(cli.main, argv)
            if error is not None:
                return elapsed, error
            self.counts["reports"] += 1
            return elapsed, _oracle(check_cli, cfg.name, op["command"], code, out.getvalue())
        x = np.array(op["x"])
        if kind == "angle":
            result, elapsed, error = _timed(
                cm.angle_solve, self.symps[label], cfg.section(op["section"]), x,
                config=cfg.integrator)
            if error is not None:
                return elapsed, error
            self.counts["newton_iters"] += int(result.iterations)
            return elapsed, _oracle(check_angles, op["section"], op["x"], result)
        if kind == "flow":
            traj, elapsed, error = _timed(
                cm.integrate, self.systems[label], op["integral"], x, op["t"],
                cfg.integrator)
            if error is not None:
                return elapsed, error
            self.counts["accepted_steps"] += len(traj.times) - 1
            return elapsed, _oracle(check_flow, op["integral"], op["x"], op["t"], traj)
        if kind == "darboux":
            report, elapsed, error = _timed(
                cm.darboux_verify, self.systems[label], cfg.section(op["section"]),
                points=x[None, :])
            if error is not None:
                return elapsed, error
            return elapsed, _oracle(check_darboux, report)
        raise ValueError(f"unknown op kind {kind!r}")


def _timed(fn, *args, **kwargs):
    """(result, seconds, None) or, if fn raised, (None, seconds, reason).

    The seconds are this process's CPU time, over all its threads: on a
    shared host the wall time of an op also holds the time the host ran
    other tenants instead (steal), in bursts that no regression bound can
    absorb.  The ops are compute-bound, so nothing else is left out.
    """
    start = process_time()
    try:
        result = fn(*args, **kwargs)
    except (Exception, SystemExit) as exc:  # an op that raises counts as failed
        return None, process_time() - start, f"{type(exc).__name__}: {exc}"
    return result, process_time() - start, None


def _oracle(check, *args) -> str | None:
    """Run an oracle; a result it cannot read is a miss, not a crash."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return f"unreadable result: {type(exc).__name__}: {exc}"


def op_kind(op: dict) -> str:
    if op["kind"] == "cli":
        return f"{op['command']}:{op['config']}"
    if op["kind"] == "flow":
        return f"flow{op['integral']}:{op['config']}"
    return f"{op['kind']}:{op['config']}"


class Loop:
    """Closed-loop runner over the op list; records latencies and failures."""

    def __init__(self, workload: Workload, ops: list[dict]):
        self.workload = workload
        self.ops = ops
        self.next = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def step(self) -> tuple[str, float]:
        op = self.ops[self.next % len(self.ops)]
        self.next += 1
        self.attempted += 1
        elapsed, why = self.workload.run(op)
        if why is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {self.next - 1} {op_kind(op)}: {why}")
        return op_kind(op), elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "count"))
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "run" and args.seconds is None:
        parser.error("run needs --seconds")
    inputs = json.loads((args.workdir / "inputs.json").read_text())

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = Workload(inputs)
    # CPU time since the process started: interpreter start-up, imports,
    # config loads and system builds
    setup_cpu = process_time()
    print("ready", flush=True)
    if args.mode == "setup":
        print(json.dumps({"setup_cpu_s": setup_cpu}))
        return 0

    ops = json.loads((args.workdir / "ops.json").read_text())
    loop = Loop(workload, ops)
    precheck = workload.precheck()
    if precheck is not None:
        loop.failed += 1
        loop.errors.append(precheck)
    for _ in range(inputs["warmup_ops"]):
        loop.step()
        reference.timed_kernel()
    if tracer is not None:
        tracer.reset()
    base = dict(workload.counts)

    kinds: list[str] = []
    latencies: list[float] = []
    steps: list[float] = []
    refs: list[float] = []
    counts = None
    start = perf_counter()
    if args.mode == "count":
        for _ in range(inputs["count_ops"]):
            loop.step()
        counts = {k: v - base[k] for k, v in workload.counts.items()}
    else:
        while perf_counter() - start < args.seconds or len(latencies) < MIN_TIMED_OPS:
            step_start = process_time()
            kind, elapsed = loop.step()
            steps.append(process_time() - step_start)
            kinds.append(kind)
            latencies.append(elapsed)
            refs.append(reference.timed_kernel())
            if len(latencies) == inputs["count_ops"]:
                counts = {k: v - base[k] for k, v in workload.counts.items()}
    wall = perf_counter() - start

    result = {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "wall_s": wall,
        "timed_ops": len(latencies) if args.mode == "run" else inputs["count_ops"],
        "kinds": kinds,
        "latencies_s": latencies,
        "steps_s": steps,
        "ref_s": refs,
        "counts": counts,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
