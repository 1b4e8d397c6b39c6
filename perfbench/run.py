"""Benchmark launcher for contactmech.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The launcher writes the seeded inputs to a
temporary directory under `.perfbench_tmp/`, starts the workload process
(worker.py) with BLAS pinned to one thread, and prints a summary whose
last line is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones, measured
untraced and normalised to the reference kernel's nominal speed (see
reference.py); with --trace 1 they are the per-layer ones from a traced
run over a fixed block of ops, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
from tracer import UNITS  # noqa: E402

WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.py"
TMP_ROOT = ROOT / ".perfbench_tmp"

# Fresh interpreters timed for setup_s, each beside a reference interpreter.
SETUP_PROBES = 15
# Everything must end within this many seconds of the launcher starting.
BUDGET_S = 170.0

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

BENCH_UNITS = {
    "bench.untraced_ops_s": "ops/s",
    "bench.traced_ops_s": "ops/s",
    "bench.trace_overhead_ops_s": "ops/s",
    "bench.error_rate": "fraction",
}

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class WorkerError(RuntimeError):
    """The workload process failed or ran out of time."""


def _spawn(deadline: float, mode: str, workdir: Path, *extra: str) -> tuple[float, dict]:
    """Run worker.py; return its setup time (spawn to "ready") and result."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(WORKER), mode, str(workdir), *extra]
    start = perf_counter()
    # unbuffered, so that reading the "ready" line takes nothing more from
    # the pipe before communicate() reads the rest
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=env, cwd=ROOT)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - monotonic()))
        line = proc.stdout.readline() if readable else b""
        setup = perf_counter() - start
        if line.strip() != b"ready":
            raise WorkerError(f"{mode} worker did not get ready (read {line!r})")
        out, _ = proc.communicate(timeout=max(0.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran past the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode} and "
                          f"{len(lines)} result lines")
    return setup, json.loads(lines[-1])


def _reference_setup(deadline: float) -> float:
    """CPU seconds of a fresh interpreter that imports NumPy (reference.py)."""
    env = dict(os.environ, **CHILD_ENV)
    try:
        done = subprocess.run([sys.executable, str(REFERENCE)], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT, timeout=max(0.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("reference interpreter ran past the time budget") from None
    if done.returncode != 0:
        raise WorkerError(f"reference interpreter exited with code {done.returncode}")
    return float(done.stdout)


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _print_kinds(result: dict) -> None:
    by_kind: dict[str, list[float]] = {}
    for kind, lat in zip(result["kinds"], result["latencies_s"]):
        by_kind.setdefault(kind, []).append(lat)
    lat_all = sorted(result["latencies_s"])
    for kind, lats in sorted(by_kind.items()):
        share = len(lats) / len(lat_all)
        # percentile ranks the kind spans in the pooled latency order
        lo = sum(v < min(lats) for v in lat_all) / len(lat_all)
        hi = sum(v <= max(lats) for v in lat_all) / len(lat_all)
        print(f"# kind {kind}: n={len(lats)} share={share:.3f} "
              f"median_ms={1e3 * statistics.median(lats):.2f} "
              f"pooled_rank={lo:.2f}..{hi:.2f}")


def end_to_end(deadline: float, workdir: Path, seconds: float) -> tuple[dict, dict]:
    # Each set-up probe is followed by a reference interpreter, which runs
    # at the same host speed; set-up CPU times are scaled by it.
    probes, refs = [], []
    for _ in range(SETUP_PROBES):
        probes.append(_spawn(deadline, "setup", workdir))
        refs.append(_reference_setup(deadline))
    setups = [reference.NOMINAL_SETUP_S * r["setup_cpu_s"] / ref
              for (_, r), ref in zip(probes, refs)]
    _, result = _spawn(deadline, "run", workdir, "--seconds", str(seconds))
    # Op CPU times are scaled by the host speed that the reference kernel
    # measured around each op.
    speeds = reference.local_speeds(result["ref_s"])
    lat = [t * v for t, v in zip(result["latencies_s"], speeds)]
    steps = [t * v for t, v in zip(result["steps_s"], speeds)]
    metrics = {
        "throughput_ops_s": len(steps) / sum(steps),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * _quantile(lat, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }
    raw = result["latencies_s"]
    print(f"# reference kernel: nominal {1e3 * reference.NOMINAL_S:.3f} ms, "
          f"median {1e3 * statistics.median(result['ref_s']):.3f} ms, host speed "
          f"{min(speeds):.3f}..{max(speeds):.3f} of nominal")
    print(f"# not normalised: throughput_ops_s "
          f"{result['timed_ops'] / result['wall_s']:.3f} (wall clock, reference kernel "
          f"included), latency_p50_ms {1e3 * statistics.median(raw):.3f} and "
          f"latency_p90_ms {1e3 * _quantile(raw, 90):.3f} (CPU time), setup_s "
          f"{statistics.median(r['setup_cpu_s'] for _, r in probes):.4f} (CPU time), "
          f"{statistics.median(t for t, _ in probes):.4f} (wall clock); reference "
          f"interpreter {statistics.median(refs):.4f} s (CPU time)")
    _print_kinds(result)
    print(f"# timed ops {len(lat)} in {result['wall_s']:.3f} s; "
          f"setup_s samples {[round(t, 4) for t in setups]}")
    print(f"# counts over the first count block: {json.dumps(result['counts'])}")
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            result)


def per_layer(deadline: float, workdir: Path) -> tuple[dict, dict]:
    units = {**UNITS, **BENCH_UNITS}
    _, plain = _spawn(deadline, "count", workdir)
    _, traced = _spawn(deadline, "count", workdir, "--trace")
    ops = traced["timed_ops"]
    values = dict(traced["layers"])
    values["bench.untraced_ops_s"] = ops / plain["wall_s"]
    values["bench.traced_ops_s"] = ops / traced["wall_s"]
    values["bench.trace_overhead_ops_s"] = (
        values["bench.traced_ops_s"] - values["bench.untraced_ops_s"])
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    values["bench.error_rate"] = failed / attempted
    print(f"# count block of {ops} ops; untraced counts: {json.dumps(plain['counts'])}")
    merged = {"attempted": attempted, "failed": failed,
              "errors": plain["errors"] + traced["errors"]}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="contactmech benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + BUDGET_S
    # on SIGTERM, unwind so that the worker is killed and the inputs removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "contactmech" / "__init__.py").is_file():
        print(f"error: no contactmech sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        inputs.write_plan(args.workload, args.seed, workdir)
        print(f"# workload {args.workload} seed {args.seed} nproc {os.cpu_count()} "
              f"affinity {len(os.sched_getaffinity(0))} python {sys.version.split()[0]} "
              f"blas_threads 1")
        if args.trace:
            metrics, result = per_layer(deadline, workdir)
        else:
            metrics, result = end_to_end(deadline, workdir, args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    for line in result["errors"]:
        print(f"# failed: {line}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
