"""Command line interface.

Subcommands (each takes a config JSON as first argument):

* check: contact condition, involution, and rank checks on sampled points.
* coisotropy: cyclic-sum and tangency checks on a ray preimage.
* integrate: flow one integral from a start point, write the trajectory CSV.
* symplectize-verify: omega nondegeneracy, Liouville field, homogeneity,
  theta pairing, and the bracket correspondence on sampled points.
* action-angle: verify a section, then solve angle coordinates at the
  points listed in a JSON file.

Reports are canonical JSON on stdout (sorted keys, no timestamps), so a
rerun with the same config and seed is byte-identical; wall time goes to
stderr.  `render_report` is the only encoder: it writes the bytes of
json.dumps(sort_keys=True, indent=2) without json's generator chain.
Exit codes: 0 pass, 1 a check failed, 2 bad input, 3 numerical failure.
The seed is resolved as --seed, else the CONTACTMECH_SEED environment
variable, else the config seed.

`main` reads the config file on every call but builds its SystemConfig
once per file content and path (as pathlib spells it, so ./x.json and
x.json share one build), so later calls in one process on the
same bytes reuse its systems, with their bound kernels; an edited file
is built anew, and a file that fails to build fails on every call.
`main` parses a command's arguments with that command's own parser and
falls back to the full parser, for its messages, on anything else.  A
config or points file nested too deeply for json exits 2, as invalid JSON.

Check, section and solved-point entries are the library's records, each
field under its _KEYS name (see _entry), so a new record field shows in
the report unless left out; `integrate`, a failed solve and every point's
`converged` flag are by hand.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from . import config
from .config import ConfigError, SystemConfig
from .expressions import ExpressionError
from .flows import COMPLETED, EXITED_DOMAIN, FlowError, StartPointError, integrate
from .geometry import GeometryError, _in_sample_order, contact_condition_check
from .integrability import (
    IntegrabilityError,
    NewtonDivergenceError,
    RayTarget,
    _coisotropy,
    _involution,
    _rank,
    _ray_points,
    _tangency,
    angle_solve,
    verify_section,
)
from .symplectization import SymplectizationError, lift_check

__all__ = [
    "main",
    "cmd_check",
    "cmd_coisotropy",
    "cmd_integrate",
    "cmd_symplectize_verify",
    "cmd_action_angle",
]

SEED_ENV = "CONTACTMECH_SEED"
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spelling


def render_report(report: dict) -> str:
    """The text of json.dumps(report, sort_keys=True, indent=2) + "\\n", for str keys."""
    out: list[str] = []
    _write(report, "\n", out)
    return "".join(out) + "\n"


def _write(value, pad: str, out: list[str]) -> None:
    """Append value's JSON text to out, testing types in json's order; pad begins its line."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):  # np.float64 too
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(value, (list, tuple)):
        inner, sep = pad + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write(item, inner, out)
            sep = ","
        out.append("[]" if sep == "[" else pad + "]")
    elif isinstance(value, dict):
        inner, sep = pad + "  ", "{"
        for key in sorted(value):
            out.append(sep + inner + _quote(key) + ": ")
            _write(value[key], inner, out)
            sep = ","
        out.append("{}" if sep == "{" else pad + "}")
    else:  # arrays and the other NumPy scalars, as json's default=lambda v: v.tolist()
        _write(value.tolist(), pad, out)


# report key of each renamed field of a library record; None leaves the field out
_KEYS = {"n_samples": "samples", "n_points": "points", "max_abs_sum": "max_abs_cyclic_sum",
         "seed": None, "residual_plus": None, "residual_minus": None}


def _entry(record, **keys: str | None) -> dict[str, Any]:
    """A record's fields under their names in keys, else in _KEYS; None leaves one out."""
    keys = {**_KEYS, **keys}
    return {keys.get(f, f): v for f, v in record._asdict().items() if keys.get(f, f) is not None}


def _report_head(cfg: SystemConfig, command: str, seed: int) -> dict:
    return {
        "tool": {"name": "contactmech", "version": __version__},
        "command": command,
        "config": {
            "name": cfg.name,
            "file": _file_name(cfg.path),
            "sha256": cfg.digest,
        },
        "seed": seed,
    }


def _resolve_seed(arg_seed: int | None, cfg: SystemConfig) -> int:
    seed, source = arg_seed, "--seed"
    if seed is None:
        env = os.environ.get(SEED_ENV)
        if env is None:
            return cfg.seed
        try:
            seed, source = int(env), SEED_ENV
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    if seed < 0:  # as the config schema's minimum; NumPy's generators reject it
        raise ConfigError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _parse_floats(text: str, what: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated numbers, got {text!r}") from None
    if not np.isfinite(values).all():
        raise ConfigError(f"{what} must be finite numbers, got {text!r}")
    return values


def _cannot_write(path: str, exc: OSError | ValueError) -> str:
    """The error line of an unwritable path; a path with a NUL byte raises ValueError."""
    return f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}"


def _require_count(value: int, flag: str) -> None:
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1, got {value}")


def _require_tolerance(value: float) -> None:
    # an infinite tolerance passes every check, a NaN or negative one none
    if not 0.0 < value < np.inf:
        raise ConfigError(f"--tolerance must be finite and positive, got {value}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check(cfg: SystemConfig, args, seed: int) -> tuple[dict, int]:
    _require_count(args.samples, "--samples")
    _require_tolerance(args.tolerance)
    system = cfg.system()
    points = system.sample(np.random.default_rng(seed), args.samples)
    # the contact condition and the jets share a general coframe's rows
    chart = system.chart
    rows = None if chart.darboux else chart._float_coframes(points)
    cond = contact_condition_check(chart, points, rows=rows)
    # involution and rank share the points' jets
    stacks = (points,) if rows is None else (points, rows)
    jets = _in_sample_order(system._jet_stack, *stacks)
    inv = _in_sample_order(
        lambda xs, jet: _involution(system, xs, jet, args.tolerance, seed), points, jets
    )
    rk = _rank(system, points, jets.gradients, seed=seed)
    checks = [
        {"name": "contact-condition", **_entry(cond, n_points="samples")},
        {"name": "involution", **_entry(inv)},
        {"name": "rank", **_entry(rk)},
    ]
    passed = all(c["passed"] for c in checks)
    report = _report_head(cfg, "check", seed)
    report.update({"checks": checks, "passed": passed})
    return report, 0 if passed else 1


def cmd_coisotropy(cfg: SystemConfig, args, seed: int) -> tuple[dict, int]:
    _require_count(args.points, "--points")
    _require_tolerance(args.tolerance)
    system = cfg.system()
    lam = _parse_floats(args.ray, "--lambda")
    if len(lam) != len(system.integrals):
        raise ConfigError(
            f"--lambda needs {len(system.integrals)} components, got {len(lam)}"
        )
    try:
        target = RayTarget(lam)
    except ValueError as exc:  # a zero direction, or one whose square underflows
        raise ConfigError(f"--lambda: {exc}") from None
    points, attempts, failures = _ray_points(system, target, args.points, seed)
    # coisotropy and tangency share the points' jets
    jets = system.jet_stack(points)
    co = _in_sample_order(
        lambda xs, jet: _coisotropy(system, target, xs, jet, args.tolerance), points, jets
    )
    tan = _tangency(system, points, jets, args.tolerance)
    checks = [{"name": "coisotropy", **_entry(co)}, {"name": "tangency", **_entry(tan)}]
    passed = co.passed and tan.passed
    report = _report_head(cfg, "coisotropy", seed)
    report.update(
        {
            "ray": lam,
            "ray_attempts": attempts,
            "ray_failures": failures,
            "checks": checks,
            "checks_agree": co.passed == tan.passed,
            "passed": passed,
        }
    )
    return report, 0 if passed else 1


def cmd_integrate(cfg: SystemConfig, args, seed: int) -> tuple[dict, int]:
    system = cfg.system()
    x0 = _parse_floats(args.x0, "--x0")
    if len(x0) != system.dim:
        raise ConfigError(f"--x0 needs {system.dim} components, got {len(x0)}")
    if not 0 <= args.f < len(system.integrals):
        raise ConfigError(f"--f must index one of {len(system.integrals)} integrals")
    if not np.isfinite(args.t):
        raise ConfigError(f"--t must be finite, got {args.t}")
    try:
        traj = integrate(system, system.integrals[args.f], x0, args.t, cfg.integrator)
    except StartPointError as exc:
        raise ConfigError(f"--x0: {exc}") from None
    try:
        traj.write_csv(args.out, system.coordinates)
    except (OSError, ValueError) as exc:
        raise ConfigError(_cannot_write(args.out, exc)) from None
    report = _report_head(cfg, "integrate", seed)
    report.update(
        {
            "integral": args.f,
            "t_final": args.t,
            "status": traj.status,
            "detail": traj.detail,
            "accepted_steps": len(traj.times) - 1,
            "reached_time": float(traj.times[-1]),
            "endpoint": traj.endpoint(),
            "csv": args.out,
            "passed": traj.status in (COMPLETED, EXITED_DOMAIN),
        }
    )
    return report, 0 if report["passed"] else 3


# report keys of a lifted check's value and bound, where not the residual's
_LIFT_KEYS = {"omega-nondegenerate": {"value": "min_abs_det", "bound": "threshold"}}
_RESIDUAL_KEYS = {"value": "max_residual", "bound": "tolerance"}


def cmd_symplectize_verify(cfg: SystemConfig, args, seed: int) -> tuple[dict, int]:
    _require_count(args.samples, "--samples")
    symp = cfg.symp_system()
    lift = lift_check(symp, symp.sample(np.random.default_rng(seed), args.samples))
    checks = [_entry(c, **_LIFT_KEYS.get(c.name, _RESIDUAL_KEYS)) for c in lift.checks]
    report = _report_head(cfg, "symplectize-verify", seed)
    report.update({"checks": checks, "samples": args.samples, "passed": lift.passed})
    return report, 0 if lift.passed else 1


def _load_points(path: str, dim: int) -> tuple[list[np.ndarray], float]:
    """Read query points; rows may be base (dim) or lifted (dim + 1)."""
    try:
        data = json.loads(Path(path).read_bytes())
    except (OSError, ValueError, RecursionError) as exc:  # not JSON, no codec, too deep
        raise ConfigError(f"cannot read points file {path}: {exc}") from exc
    r_default = 1.0
    if isinstance(data, dict):
        r_default = data.get("r", 1.0)
        # bool is an int, and an integer beyond the float range is no fiber
        if type(r_default) not in (int, float) or not 0.0 < r_default <= sys.float_info.max:
            raise ConfigError(f"r in {path} must be a finite positive number, got {r_default!r}")
        data = data.get("points")
    if not isinstance(data, list) or not data:
        raise ConfigError(f"points file {path} must list at least one point")
    points = []
    for i, row in enumerate(data):
        try:
            vec = np.asarray(row, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"point {i} is not a number list") from None
        if vec.shape not in ((dim,), (dim + 1,)):
            raise ConfigError(
                f"point {i} must have {dim} (base) or {dim + 1} (lifted) "
                f"components, got {vec.shape}"
            )
        if not np.isfinite(vec).all():
            raise ConfigError(f"point {i} has non-finite components {vec.tolist()}")
        if len(vec) == dim + 1 and not vec[-1] > 0.0:
            raise ConfigError(f"point {i} has a non-positive fiber coordinate r = {vec[-1]}")
        points.append(vec)
    return points, r_default


def cmd_action_angle(cfg: SystemConfig, args, seed: int) -> tuple[dict, int]:
    _require_count(args.samples, "--samples")
    _require_tolerance(args.tolerance)
    system = cfg.system()
    symp = cfg.symp_system()
    section = cfg.section(args.section)
    points, r_default = _load_points(args.points, system.dim)
    sec_report = verify_section(
        symp, section, n_samples=args.samples, tolerance=args.tolerance, seed=seed
    )
    results: list[dict[str, Any]] = []
    failures = 0
    rows = points if sec_report.passed else points[:0]
    for idx, row in enumerate(rows):
        x = row if len(row) == symp.dim else np.append(row, r_default)
        entry: dict[str, Any] = {"index": idx, "point": x}
        try:
            sol = angle_solve(
                symp,
                section,
                x,
                config=cfg.integrator,
                sign=sec_report.sign if sec_report.sign != 0 else None,
            )
        except (IntegrabilityError, FlowError, ValueError) as exc:
            failures += 1
            entry.update({"converged": False, "error": str(exc)})
            if isinstance(exc, NewtonDivergenceError):  # where the Newton loop gave up
                entry.update({"residual": exc.residual, "iterations": exc.iterations})
        else:
            entry.update(_entry(sol, M_matrix=None, sign=None, failed_trials=None,
                                lstsq_steps=None), converged=True)
        results.append(entry)
    report = _report_head(cfg, "action-angle", seed)
    report.update(
        {
            "section": _entry(sec_report),
            "points": results,
            "passed": bool(sec_report.passed and failures == 0),
        }
    )
    if failures:
        return report, 3
    return report, 0 if sec_report.passed else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process (about 1.5 ms)."""
    parser = argparse.ArgumentParser(
        prog="contactmech",
        description="Contact integrability diagnostics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's parser by name, for _parse

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="system configuration JSON")
        p.add_argument("--seed", type=int, default=None, help="sampling seed override")
        p.add_argument("--out", default=None, help="also write the report JSON here")

    p = sub.add_parser("check", help="contact condition, involution, rank")
    common(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("coisotropy", help="cyclic sums and tangency on a ray")
    common(p)
    p.add_argument(
        "--lambda", dest="ray", required=True,
        help="ray direction v0,v1,...; write --lambda=-1,1 when v0 is negative",
    )
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=cmd_coisotropy)

    p = sub.add_parser("integrate", help="integrate one integral's flow")
    p.add_argument("config", help="system configuration JSON")
    p.add_argument("--seed", type=int, default=None, help="sampling seed override")
    p.add_argument("--f", type=int, required=True, help="integral index")
    p.add_argument(
        "--x0", required=True,
        help="start point v0,v1,...; write --x0=-1,2,3 when v0 is negative",
    )
    p.add_argument("--t", type=float, required=True, help="flow time")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=cmd_integrate, out_is_csv=True)

    p = sub.add_parser("symplectize-verify", help="lifted structure checks")
    common(p)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=cmd_symplectize_verify)

    p = sub.add_parser("action-angle", help="verify a section and solve angles")
    common(p)
    p.add_argument("--section", required=True, help="section name from the config")
    p.add_argument("--points", required=True, help="JSON file with query points")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=cmd_action_angle)

    return parser


# main's configs by (file bytes, path), so calls on the same bytes share one build;
# no command mutates a config, its systems or its sections
_CACHED_CONFIGS = 8
_config = functools.lru_cache(maxsize=_CACHED_CONFIGS)(config._from_bytes)
# pathlib's spelling of a config argument, and a config's file name, built once per path
_spelling = functools.lru_cache(maxsize=_CACHED_CONFIGS)(lambda arg: str(Path(arg)))
_file_name = functools.lru_cache(maxsize=_CACHED_CONFIGS)(lambda path: Path(path).name)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The full parser's Namespace, from argv[0]'s own parser when that reads argv[1:]."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    started = time.perf_counter()
    try:
        path = _spelling(args.config)  # read on every call, so an edited file is built anew
        cfg = _config(config._read(path), path)
        seed = _resolve_seed(args.seed, cfg)
        report, code = args.func(cfg, args, seed)
    except (ConfigError, ExpressionError, MemoryError) as exc:  # a count too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (GeometryError, SymplectizationError, IntegrabilityError, FlowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    text = render_report(report)
    if args.out and not getattr(args, "out_is_csv", False):
        try:
            Path(args.out).write_text(text)
        except (OSError, ValueError) as exc:
            print(f"error: {_cannot_write(args.out, exc)}", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
