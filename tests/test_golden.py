"""CLI reports and trajectory CSVs stay byte-identical to committed goldens.

The files under tests/data/golden were written by the CLI at --seed 42.
Each case runs one command in-process and compares its exit code, the
bytes of its report and, for `integrate`, of its CSV.  The only part
left out is the report's `csv` entry, the output path, which differs
from run to run.

The sampled reports (`check`, `coisotropy` on the ray (1, ..., 1) and
`symplectize-verify`) run on the three bundled configs, on
`rescaled-pz.json` (a general coframe: eta = exp(q/3)(dz - p dq), whose
fields come from the generated field program, `geometry._field_program`,
and whose round-off residuals follow its elimination, not LAPACK's) and
on `cubic-5d.json` (n = 2, written once by
`perfbench/inputs.cubic_config`, whose bracket and lift residuals move
with the order of float operations).  `dense-n2.json`, an n = 2 general
coframe with no zero entry in its Reeb field, has an `integrate` golden,
whose every step runs the general-coframe field lines.

Regenerate the goldens only for an intended report change:

    PYTHONPATH=src python tests/test_golden.py

It rewrites only the files whose bytes change, and prints each JSON leaf
that changed, old -> new, so that the change can be checked leaf by leaf.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from contactmech import cli
from contactmech.config import bundled_config_path

GOLDEN = Path(__file__).parent / "data" / "golden"
PZ = str(bundled_config_path("darboux-pz"))
INV5 = str(bundled_config_path("darboux-5d-involutive"))
NONINV5 = str(bundled_config_path("darboux-5d-noninvolutive"))
POINTS = str(GOLDEN / "points-pz.json")
# the middle row has z < 0, so graph-z's base point chi(-F(x)) has r = z < 0
UNCOVERED = str(GOLDEN / "points-pz-uncovered.json")
RESCALED = str(GOLDEN / "rescaled-pz.json")
# the n = 2 standard form under the conformal factor exp(0.3*q1 - 0.2*p2 + 0.1*z), with
# cubic-5d-style integrals: every entry of its Reeb field is nonzero
DENSE = str(GOLDEN / "dense-n2.json")

CASES = {
    "integrate-pz-f0": ["integrate", PZ, "--f", "0", "--x0", "0.5,1.2,0.8", "--t", "1.5"],
    "integrate-pz-f1": ["integrate", PZ, "--f", "1", "--x0", "0.5,1.2,0.8", "--t", "2.0"],
    "integrate-5d-f2": ["integrate", INV5, "--f", "2", "--x0", "0.6,1.1,0.9,1.4,1.3",
                        "--t=-1.0"],
    "action-angle-pz-graph-z": ["action-angle", PZ, "--section", "graph-z",
                                "--points", POINTS],
    "action-angle-pz-graph-p": ["action-angle", PZ, "--section", "graph-p",
                                "--points", POINTS],
    "action-angle-pz-graph-z-uncovered": ["action-angle", PZ, "--section", "graph-z",
                                          "--points", UNCOVERED],
    "integrate-rescaled-pz-f0": ["integrate", RESCALED, "--f", "0", "--x0", "0.5,1.2,0.8",
                                 "--t", "1.5"],
    "integrate-rescaled-pz-f1": ["integrate", RESCALED, "--f", "1", "--x0", "0.5,1.2,0.8",
                                 "--t", "2.0"],
    "action-angle-rescaled-pz-graph-z": ["action-angle", RESCALED, "--section", "graph-z",
                                         "--points", POINTS],
    "integrate-dense-n2-f2": ["integrate", DENSE, "--f", "2", "--x0", "0.6,1.1,0.9,1.4,1.3",
                              "--t", "0.3"],
}

SAMPLED = {
    "pz": (PZ, "1,1"),
    "5d-involutive": (INV5, "1,1,1"),
    "5d-noninvolutive": (NONINV5, "1,1,1"),
    "rescaled-pz": (RESCALED, "1,1"),
    "cubic-5d": (str(GOLDEN / "cubic-5d.json"), "1,1,1"),
}
for _label, (_path, _ray) in SAMPLED.items():
    CASES[f"check-{_label}"] = ["check", _path]
    CASES[f"coisotropy-{_label}"] = ["coisotropy", _path, "--lambda", _ray]
    CASES[f"symplectize-verify-{_label}"] = ["symplectize-verify", _path]

# exit code of each case, 0 unless listed: the non-involutive system fails,
# and a point whose solve fails is a numerical failure
EXIT_CODES = {"check-5d-noninvolutive": 1, "coisotropy-5d-noninvolutive": 1,
              "action-angle-pz-graph-z-uncovered": 3}

_CSV_ENTRY = re.compile(r'^(  "csv": ).*?(,?)$', re.MULTILINE)


def run_case(name: str, workdir: Path) -> tuple[int, str, bytes | None]:
    """(exit code, report text with the csv path masked, CSV bytes or None)."""
    argv = CASES[name] + ["--seed", "42"]
    csv = None
    if argv[0] == "integrate":
        csv = workdir / f"{name}.csv"
        argv += ["--out", str(csv)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    report = _CSV_ENTRY.sub(r'\1"<csv>"\2', stdout.getvalue())
    return code, report, None if csv is None else csv.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path):
    code, report, csv = run_case(name, tmp_path)
    assert code == EXIT_CODES.get(name, 0)
    assert report.encode() == (GOLDEN / f"{name}.json").read_bytes()
    if csv is not None:
        assert csv == (GOLDEN / f"{name}.csv").read_bytes()


def _leaves(value, path: str = ""):
    """(path, JSON text) of each leaf of a parsed JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, json.dumps(value)


def _changed_leaves(old: str, new: str) -> list[str]:
    """"path: old -> new" for each leaf that differs between two JSON reports."""
    before, after = dict(_leaves(json.loads(old))), dict(_leaves(json.loads(new)))
    return [f"{path}: {before.get(path, 'absent')} -> {after.get(path, 'absent')}"
            for path in {**before, **after} if before.get(path) != after.get(path)]


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, report, csv = run_case(name, Path(tmp))
            if code != EXIT_CODES.get(name, 0):
                raise SystemExit(f"{name} exited {code}")
            path = GOLDEN / f"{name}.json"
            old = path.read_text() if path.exists() else None
            if report != old:
                path.write_text(report)
                print(f"wrote {path.name}")
                for line in [] if old is None else _changed_leaves(old, report):
                    print(f"  {line}")
            csv_path = GOLDEN / f"{name}.csv"
            if csv is not None and (not csv_path.exists() or csv_path.read_bytes() != csv):
                csv_path.write_bytes(csv)
                print(f"wrote {csv_path.name}")


if __name__ == "__main__":
    _regenerate()
