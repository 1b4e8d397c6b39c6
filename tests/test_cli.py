import hashlib
import json
import random
import re
import subprocess
import sys
from http import HTTPStatus
from pathlib import Path

import numpy as np
import pytest

from contactmech import cli, geometry
from contactmech.config import bundled_config_path, load_config

PZ = str(bundled_config_path("darboux-pz"))
INV5 = str(bundled_config_path("darboux-5d-involutive"))
NON5 = str(bundled_config_path("darboux-5d-noninvolutive"))


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


@pytest.fixture
def points_file(tmp_path):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[2.0, 3.0, 5.0], [0.5, 1.0, 1.0, 1.5]], "r": 1.0}))
    return str(path)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_passes_on_involutive_systems(capsys):
    code, report, err = run_cli(capsys, "check", PZ, "--samples", "25")
    assert code == 0
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == [
        "contact-condition",
        "involution",
        "rank",
    ]
    assert report["tool"]["name"] == "contactmech"
    assert len(report["config"]["sha256"]) == 64
    assert "elapsed" in err  # timing must stay off stdout


def test_check_fails_on_noninvolutive_system(capsys):
    code, report, _ = run_cli(capsys, "check", NON5, "--samples", "25")
    assert code == 1
    assert report["passed"] is False
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["involution"]["passed"] is False
    assert by_name["contact-condition"]["passed"] is True


def test_check_seed_resolution(capsys, monkeypatch):
    _, base, _ = run_cli(capsys, "check", PZ, "--samples", "5")
    assert base["seed"] == 0  # config seed
    monkeypatch.setenv(cli.SEED_ENV, "7")
    _, env_run, _ = run_cli(capsys, "check", PZ, "--samples", "5")
    assert env_run["seed"] == 7
    _, flag_run, _ = run_cli(capsys, "check", PZ, "--samples", "5", "--seed", "11")
    assert flag_run["seed"] == 11  # flag beats environment
    monkeypatch.setenv(cli.SEED_ENV, "not-a-number")
    assert cli.main(["check", PZ, "--samples", "5"]) == 2
    capsys.readouterr()


def test_check_writes_report_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "check", PZ, "--samples", "5", "--out", str(out))
    assert code == 0
    again = cli.main(["check", PZ, "--samples", "5"])
    text = capsys.readouterr().out
    assert again == 0
    assert out.read_text() == text


@pytest.mark.parametrize("tail", ["/./absent.json", "/absent.json/", "/.", "/bad.json/."])
def test_config_error_messages_spell_the_path_as_pathlib(capsys, tmp_path, tail):
    # pathlib drops '.' parts and trailing slashes in the message and in the error it quotes
    (tmp_path / "bad.json").write_text("{")
    given, path = str(tmp_path) + tail, Path(str(tmp_path) + tail)
    try:
        json.loads(path.read_bytes())
    except OSError as exc:
        expected = f"error: cannot read config {path}: {exc}\n"
    except ValueError as exc:
        expected = f"error: config {path} is not valid JSON: {exc}\n"
    assert cli.main(["check", given]) == 2
    assert capsys.readouterr() == ("", expected)


def test_a_config_path_reads_as_pathlib_reads_it(capsys, tmp_path):
    # a trailing slash or '.' part names the file, as it does to pathlib
    (tmp_path / "system.json").write_bytes(Path(PZ).read_bytes())
    for given in [f"{tmp_path}/system.json/", f"{tmp_path}/./system.json/."]:
        code, report, _ = run_cli(capsys, "check", given, "--samples", "3")
        assert code == 0 and report["config"]["file"] == "system.json"


def test_invalid_config_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert cli.main(["check", str(bad)]) == 2
    _, err = capsys.readouterr().out, capsys.readouterr().err
    missing = cli.main(["check", str(tmp_path / "absent.json")])
    assert missing == 2
    capsys.readouterr()


NOT_UTF8 = [b'{"name": "x\xff"}', b'\xff\xfe{"points": [[1.0, 1.0, 1.0]]}']


@pytest.mark.parametrize("blob", NOT_UTF8, ids=["stray-byte", "utf16-bom"])
def test_config_that_is_not_utf8_is_input_error(capsys, tmp_path, blob):
    path = tmp_path / "bad.json"
    path.write_bytes(blob)
    _assert_input_error(capsys, ["check", str(path)], f"config {path} is not valid JSON")


# ---------------------------------------------------------------------------
# coisotropy
# ---------------------------------------------------------------------------

def test_coisotropy_agreeing_checks(capsys):
    code, report, _ = run_cli(
        capsys, "coisotropy", INV5, "--lambda", "1,1,1", "--points", "6"
    )
    assert code == 0
    assert report["checks_agree"] is True
    assert report["ray"] == [1.0, 1.0, 1.0]


def test_coisotropy_failing_checks_still_agree(capsys):
    code, report, _ = run_cli(
        capsys, "coisotropy", NON5, "--lambda", "1,1,1", "--points", "6"
    )
    assert code == 1
    assert report["passed"] is False
    assert report["checks_agree"] is True


def test_coisotropy_lambda_validation(capsys):
    assert cli.main(["coisotropy", PZ, "--lambda", "1,1,1"]) == 2
    assert cli.main(["coisotropy", PZ, "--lambda", "a,b"]) == 2
    capsys.readouterr()


def test_negative_leading_component_in_equals_form(capsys, tmp_path):
    # after a space argparse reads "-1,1,1" as an option; the "=" form is
    # the documented way to pass it
    code, report, _ = run_cli(
        capsys, "coisotropy", INV5, "--lambda=-1,1,1", "--points", "6"
    )
    assert code == 0
    assert report["ray"] == [-1.0, 1.0, 1.0]
    assert report["checks_agree"] is True
    out = tmp_path / "traj.csv"
    code, report, _ = run_cli(
        capsys, "integrate", PZ, "--f", "1", "--x0=-2,3,5", "--t", "1.0",
        "--out", str(out),
    )
    assert code == 0
    assert report["status"] == "completed"
    assert np.allclose(report["endpoint"], [-2.0, 3.0 / np.e, 5.0 / np.e], atol=1e-8)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["coisotropy", INV5, "--lambda", "-1,1,1"])
    assert exit_info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_writes_trajectory(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    code, report, _ = run_cli(
        capsys, "integrate", PZ, "--f", "1", "--x0", "2,3,5", "--t", "1.0",
        "--out", str(out),
    )
    assert code == 0
    assert report["status"] == "completed"
    assert np.allclose(report["endpoint"], [2.0, 3.0 / np.e, 5.0 / np.e], atol=1e-8)
    header, first = out.read_text().splitlines()[:2]
    assert header == "time,q,p,z"
    assert first.startswith("0.0,")


def test_integrate_domain_exit_is_reported_not_fatal(capsys, tmp_path):
    cfg = tmp_path / "exiting.json"
    cfg.write_text(
        json.dumps(
            {
                "name": "exiting",
                "n": 1,
                "coordinates": ["q", "p", "z"],
                "integrals": ["q", "z"],
                "region": {"q": [0.5, 2], "p": [0.5, 2], "z": [0.5, 2]},
                "positive": ["p", "z"],
            }
        )
    )
    out = tmp_path / "traj.csv"
    code, report, _ = run_cli(
        capsys, "integrate", str(cfg), "--f", "0", "--x0", "1,1,1", "--t", "5.0",
        "--out", str(out),
    )
    assert code == 0
    assert report["status"] == "exited_domain"
    assert report["passed"] is True
    assert report["reached_time"] < 5.0


def test_integrate_argument_validation(capsys, tmp_path):
    out = str(tmp_path / "t.csv")
    assert cli.main(["integrate", PZ, "--f", "5", "--x0", "2,3,5", "--t", "1", "--out", out]) == 2
    assert cli.main(["integrate", PZ, "--f", "0", "--x0", "2,3", "--t", "1", "--out", out]) == 2
    assert cli.main(["integrate", PZ, "--f", "0", "--x0", "a,b,c", "--t", "1", "--out", out]) == 2
    assert cli.main(["integrate", PZ, "--f", "-1", "--x0", "2,3,5", "--t", "1", "--out", out]) == 2
    assert cli.main(["integrate", PZ, "--f", "0", "--x0", "2,3,5", "--t", "nan", "--out", out]) == 2
    assert cli.main(["integrate", PZ, "--f", "0", "--x0", "2,3,5", "--t", "inf", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: ") == 6


def _assert_input_error(capsys, argv, *fragments):
    assert cli.main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    for fragment in fragments:
        assert fragment in lines[0]


@pytest.mark.parametrize("value", ["nan,1", "1,inf", "1,-inf"])
def test_nonfinite_lambda_is_input_error(capsys, value):
    _assert_input_error(capsys, ["coisotropy", PZ, "--lambda", value], "--lambda", "finite")


def test_zero_lambda_is_input_error(capsys):
    _assert_input_error(capsys, ["coisotropy", PZ, "--lambda=0,0"], "--lambda", "nonzero")


@pytest.mark.parametrize("value", ["1e-200,1e-200", "5e-324,5e-324"])
def test_underflowing_lambda_is_input_error(capsys, value):
    _assert_input_error(capsys, ["coisotropy", PZ, "--lambda", value], "--lambda",
                        "squared norm 0.0", "rescale it")


@pytest.mark.parametrize("argv", [
    ["check", PZ],
    ["coisotropy", PZ, "--lambda", "1,1"],
    ["symplectize-verify", PZ],
    ["action-angle", PZ, "--section", "graph-z", "--points"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
def test_negative_seed_is_input_error(capsys, monkeypatch, points_file, argv, from_env):
    # NumPy's generators reject a negative seed, as the config schema does
    if argv[-1] == "--points":
        argv = argv + [points_file]
    if from_env:
        monkeypatch.setenv(cli.SEED_ENV, "-1")
        _assert_input_error(capsys, argv, cli.SEED_ENV, "non-negative", "-1")
    else:
        _assert_input_error(capsys, argv + ["--seed", "-1"], "--seed", "non-negative", "-1")


@pytest.mark.parametrize("x0", ["nan,1,1", "1,inf,1"])
def test_nonfinite_x0_is_input_error(capsys, tmp_path, x0):
    argv = ["integrate", PZ, "--f", "0", "--x0", x0, "--t", "1", "--out",
            str(tmp_path / "t.csv")]
    _assert_input_error(capsys, argv, "--x0", "finite")


def test_integrate_start_outside_domain_is_input_error(capsys, tmp_path):
    out = tmp_path / "t.csv"
    argv = ["integrate", PZ, "--f", "0", "--x0", "0,-1,1", "--t", "1", "--out", str(out)]
    _assert_input_error(capsys, argv, "--x0", "outside domain", "coordinate p")
    assert not out.exists()


_NONFINITE_CONFIGS = {
    "region-nan": lambda d: d["region"].update(q=[float("nan"), 2.0]),
    "region-inf": lambda d: d["region"].update(p=[0.5, float("inf")]),
    "region-neg-inf": lambda d: d["region"].update(z=[float("-inf"), 2.0]),
    "r-range-inf": lambda d: d.update(r_range=[0.5, float("inf")]),
    "domain-nan": lambda d: d["sections"]["graph-z"]["domain"].update(L1=[float("nan"), 2.0]),
    "domain-inf": lambda d: d["sections"]["graph-z"]["domain"].update(L2=[0.5, float("inf")]),
}


@pytest.mark.parametrize(
    "case, command",
    [(case, command) for case in ("region-nan", "region-inf", "region-neg-inf")
     for command in ("check", "coisotropy", "symplectize-verify")]
    + [("r-range-inf", "symplectize-verify"), ("domain-nan", "action-angle"),
       ("domain-inf", "action-angle")],
)
def test_nonfinite_config_bounds_are_input_errors(capsys, tmp_path, points_file,
                                                  case, command):
    data = json.loads(bundled_config_path("darboux-pz").read_text())
    _NONFINITE_CONFIGS[case](data)
    path = tmp_path / "bounds.json"
    # json.dumps writes NaN and Infinity, which json.loads accepts
    path.write_text(json.dumps(data))
    extra = {
        "check": [],
        "coisotropy": ["--lambda", "1,1"],
        "symplectize-verify": [],
        "action-angle": ["--section", "graph-z", "--points", points_file],
    }[command]
    _assert_input_error(capsys, [command, str(path), *extra], "finite")


@pytest.mark.parametrize(
    "field, value",
    [("rel_tol", "nan"), ("abs_tol", "nan"), ("min_step", "nan"), ("max_step", "nan"),
     ("rel_tol", "inf"), ("abs_tol", "inf"), ("min_step", "inf")],
)
def test_nonfinite_integrator_fields_are_input_errors(capsys, tmp_path, field, value):
    # JSON Schema's exclusiveMinimum lets NaN and Infinity through
    data = json.loads(bundled_config_path("darboux-pz").read_text())
    data["integrator"] = {field: float(value)}
    path = tmp_path / "integrator.json"
    path.write_text(json.dumps(data))
    argv = ["integrate", str(path), "--f", "1", "--x0", "2,3,5", "--t", "1",
            "--out", str(tmp_path / "t.csv")]
    _assert_input_error(capsys, argv, f"integrator {field} must be")


@pytest.mark.parametrize("field, value", [("method", "rk4"), ("step", 0.01)])
def test_removed_integrator_fields_are_input_errors(capsys, tmp_path, field, value):
    # RKF45 is the only integrator: its config has no method or fixed step
    data = json.loads(bundled_config_path("darboux-pz").read_text())
    data["integrator"] = {field: value}
    path = tmp_path / "integrator.json"
    path.write_text(json.dumps(data))
    _assert_input_error(capsys, ["check", str(path)], "invalid at integrator",
                        f"'{field}' was unexpected")


@pytest.mark.parametrize("command", ["integrate", "action-angle"])
def test_min_step_above_max_step_is_input_error(capsys, tmp_path, points_file, command):
    # every rejected RKF45 step would end the flow as a collapsed step
    data = json.loads(bundled_config_path("darboux-pz").read_text())
    data["integrator"] = {"min_step": 1.0, "max_step": 0.1}
    path = tmp_path / "integrator.json"
    path.write_text(json.dumps(data))
    argv = {"integrate": ["integrate", str(path), "--f", "1", "--x0", "2,3,5", "--t", "1",
                          "--out", str(tmp_path / "t.csv")],
            "action-angle": ["action-angle", str(path), "--section", "graph-z",
                             "--points", points_file]}[command]
    _assert_input_error(capsys, argv, "min_step 1.0 exceeds max_step 0.1")


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize(
    "command", ["check", "coisotropy", "integrate", "symplectize-verify", "action-angle"]
)
def test_unwritable_out_is_input_error(capsys, tmp_path, points_file, command, target):
    # --out in a missing directory, or at a directory, raised a traceback and exited 1
    out = str(tmp_path / "absent" / "out") if target == "missing-dir" else str(tmp_path)
    argv = {
        "check": ["check", PZ, "--samples", "5"],
        "coisotropy": ["coisotropy", PZ, "--lambda", "1,1", "--points", "3"],
        "integrate": ["integrate", PZ, "--f", "1", "--x0", "2,3,5", "--t", "0.1"],
        "symplectize-verify": ["symplectize-verify", PZ, "--samples", "5"],
        "action-angle": ["action-angle", PZ, "--section", "graph-z", "--points", points_file],
    }[command]
    _assert_input_error(capsys, [*argv, "--out", out], f"error: cannot write {out}: ")


# a path with a NUL byte makes open() raise ValueError, not OSError; it
# raised a traceback and exited 1, where --points already exits 2

def test_a_config_path_with_a_nul_byte_is_input_error(capsys):
    _assert_input_error(capsys, ["check", "a\0b"], "cannot read config a\0b: embedded null byte")


def test_a_report_out_path_with_a_nul_byte_is_input_error(capsys):
    argv = ["check", PZ, "--samples", "5", "--out", "a\0b"]
    _assert_input_error(capsys, argv, "cannot write a\0b: embedded null byte")


def test_an_integrate_csv_path_with_a_nul_byte_is_input_error(capsys):
    argv = ["integrate", PZ, "--f", "1", "--x0", "2,3,5", "--t", "0.1", "--out", "a\0b"]
    _assert_input_error(capsys, argv, "cannot write a\0b: embedded null byte")


@pytest.mark.parametrize("argv", [
    ["check", PZ, "--samples", "5"],
    ["coisotropy", PZ, "--lambda", "1,1", "--points", "3"],
    ["symplectize-verify", PZ, "--samples", "5"],
])
@pytest.mark.parametrize("message", ["Unable to allocate 2.18 TiB", ""])
def test_out_of_memory_is_input_error(capsys, monkeypatch, argv, message):
    # a --samples or --points too large to allocate raised NumPy's
    # _ArrayMemoryError and exited 1, the code of a failed check
    def sample(self, rng, count):
        raise MemoryError(message)

    monkeypatch.setattr(geometry._System, "sample", sample)
    _assert_input_error(capsys, argv, f"error: {message or 'out of memory'}")


def test_count_flags_reject_values_below_one(capsys, points_file):
    for argv in (
        ["check", PZ, "--samples", "0"],
        ["check", PZ, "--samples", "-3"],
        ["coisotropy", PZ, "--lambda", "1,1", "--points", "0"],
        ["symplectize-verify", PZ, "--samples", "0"],
        ["action-angle", PZ, "--section", "graph-z", "--points", points_file,
         "--samples", "0"],
    ):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "at least 1" in captured.err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1", "0"])
@pytest.mark.parametrize("command", ["check", "coisotropy", "action-angle"])
def test_tolerance_must_be_finite_and_positive(capsys, points_file, command, value):
    # an infinite tolerance passed every check of the non-involutive system
    extra = {
        "check": [NON5],
        "coisotropy": [NON5, "--lambda", "1,1,1"],
        "action-angle": [PZ, "--section", "graph-z", "--points", points_file],
    }[command]
    argv = [command, *extra, f"--tolerance={value}"]
    _assert_input_error(capsys, argv, "--tolerance must be finite and positive")


def test_small_positive_tolerance_is_accepted(capsys):
    code, report, _ = run_cli(capsys, "check", INV5, "--samples", "5", "--tolerance=1e-300")
    assert code == 0 and report["checks"][1]["tolerance"] == 1e-300


# ---------------------------------------------------------------------------
# symplectize-verify
# ---------------------------------------------------------------------------

def test_symplectize_verify_passes(capsys):
    code, report, _ = run_cli(capsys, "symplectize-verify", PZ, "--samples", "20")
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "omega-nondegenerate",
        "liouville-field",
        "lift-homogeneity",
        "theta-pairing",
        "bracket-correspondence",
    ]
    assert all(c["passed"] for c in report["checks"])


def test_symplectize_verify_5d(capsys):
    code, report, _ = run_cli(capsys, "symplectize-verify", INV5, "--samples", "10")
    assert code == 0
    assert report["passed"] is True


# ---------------------------------------------------------------------------
# action-angle
# ---------------------------------------------------------------------------

def test_action_angle_solves_points(capsys, points_file):
    code, report, _ = run_cli(
        capsys, "action-angle", PZ, "--section", "graph-z", "--points", points_file
    )
    assert code == 0
    assert report["section"]["passed"] is True
    assert report["section"]["sign"] == -1
    first, second = report["points"]
    assert np.allclose(first["y"], [2.0, -np.log(5.0)], atol=1e-7)
    assert np.allclose(first["A"], [3.0, 5.0], atol=1e-10)
    assert first["denominator_index"] == 1
    # the second point carried its own fiber value
    assert second["point"] == [0.5, 1.0, 1.0, 1.5]
    assert np.allclose(second["y"], [0.5, 0.0], atol=1e-7)


def test_action_angle_accepts_an_integral_float_index(capsys, tmp_path):
    # Draft 2020-12 counts 1.0 as an integer, so the schema lets it through
    data = json.loads(Path(PZ).read_text())
    data["sections"]["graph-z"]["denominator_index"] = 1.0
    cfg = tmp_path / "darboux-pz-float.json"
    cfg.write_text(json.dumps(data))
    points = str(Path(__file__).parent / "data" / "golden" / "points-pz.json")
    args = ["--section", "graph-z", "--points", points]
    code, report, _ = run_cli(capsys, "action-angle", str(cfg), *args)
    assert code == 0
    _, expected, _ = run_cli(capsys, "action-angle", PZ, *args)
    assert report.pop("config") != expected.pop("config")
    assert report == expected


def test_action_angle_unknown_section(capsys, points_file):
    assert cli.main(["action-angle", PZ, "--section", "nope", "--points", points_file]) == 2
    capsys.readouterr()


def test_action_angle_bad_points_file(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert cli.main(["action-angle", PZ, "--section", "graph-z", "--points", str(empty)]) == 2
    ragged = tmp_path / "ragged.json"
    ragged.write_text("[[1, 2]]")
    assert cli.main(["action-angle", PZ, "--section", "graph-z", "--points", str(ragged)]) == 2
    assert cli.main(["action-angle", PZ, "--section", "graph-z", "--points", "/no/file"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("blob", NOT_UTF8, ids=["stray-byte", "utf16-bom"])
def test_action_angle_points_file_that_is_not_utf8_is_input_error(capsys, tmp_path, blob):
    path = tmp_path / "points.json"
    path.write_bytes(blob)
    argv = ["action-angle", PZ, "--section", "graph-z", "--points", str(path)]
    _assert_input_error(capsys, argv, f"cannot read points file {path}")


@pytest.mark.parametrize("kind", ["config", "points"])
def test_deeply_nested_json_is_input_error(capsys, tmp_path, kind):
    # json.loads raises RecursionError here, not ValueError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    if kind == "config":
        argv, message = ["check", str(path)], f"config {path} is not valid JSON"
    else:
        argv = ["action-angle", PZ, "--section", "graph-z", "--points", str(path)]
        message = f"cannot read points file {path}"
    _assert_input_error(capsys, argv, message)


def test_action_angle_nonfinite_point_is_input_error(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"points": [[1.0, 1.0, 1.0], [NaN, 1, 1]]}')
    argv = ["action-angle", PZ, "--section", "graph-z", "--points", str(path)]
    _assert_input_error(capsys, argv, "point 1", "non-finite")


@pytest.mark.parametrize(
    "r", ['"abc"', "null", "[1]", "true", "-1", "0", "NaN", "Infinity", "-Infinity",
          "1" + "0" * 400],
)
def test_action_angle_bad_fiber_default_is_input_error(capsys, tmp_path, r):
    path = tmp_path / "points.json"
    path.write_text('{"points": [[0.3, 1.2, 0.8]], "r": %s}' % r)
    argv = ["action-angle", PZ, "--section", "graph-z", "--points", str(path)]
    _assert_input_error(capsys, argv, "r in ", "must be a finite positive number")


@pytest.mark.parametrize("fiber", ["0", "-1.5", "-0.0"])
def test_action_angle_lifted_row_off_the_fiber_is_input_error(capsys, tmp_path, fiber):
    path = tmp_path / "points.json"
    path.write_text('{"points": [[0.3, 1.2, 0.8], [-1.0, 0.7, 1.5, %s]]}' % fiber)
    argv = ["action-angle", PZ, "--section", "graph-z", "--points", str(path)]
    _assert_input_error(capsys, argv, "point 1", "non-positive fiber")


def test_action_angle_integer_fiber_default_lifts_base_rows(capsys, tmp_path):
    path = tmp_path / "points.json"
    path.write_text('{"points": [[0.3, 1.2, 0.8]], "r": 2}')
    code, report, _ = run_cli(
        capsys, "action-angle", PZ, "--section", "graph-z", "--points", str(path)
    )
    assert code == 0
    assert report["points"][0]["point"] == [0.3, 1.2, 0.8, 2.0]


def test_action_angle_failing_section_skips_points(capsys, tmp_path, points_file):
    data = json.loads(bundled_config_path("darboux-pz").read_text())
    data["sections"]["skew"] = {
        "params": ["L1", "L2"],
        "components": ["L1", "L1 / L2", "1", "L2"],
        "domain": {"L1": [0.5, 2], "L2": [0.5, 2]},
    }
    cfg = tmp_path / "skew.json"
    cfg.write_text(json.dumps(data))
    code, report, _ = run_cli(
        capsys, "action-angle", str(cfg), "--section", "skew", "--points", points_file
    )
    assert code == 1
    assert report["section"]["passed"] is False
    assert report["points"] == []


def test_action_angle_stalled_solve_reports_its_residual_and_iterations(capsys, tmp_path):
    # with one accepted step per flow, no trial of the first Newton step's
    # line search lowers the residual
    data = json.loads(bundled_config_path("darboux-pz").read_text())
    data["integrator"] = {"max_steps": 1}
    cfg = tmp_path / "darboux-pz-one-step.json"
    cfg.write_text(json.dumps(data))
    point = [0.7464555526652927, 1.95834805002281, 1.9502453691526827, 1.5069476334740801]
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [point]}))
    code, report, _ = run_cli(
        capsys, "action-angle", str(cfg), "--section", "graph-z", "--points", str(path)
    )
    assert code == 3
    [row] = report["points"]
    assert row["converged"] is False
    assert row["error"] == "stalled at residual 1.432e+00 after 1 iterations"
    assert row["iterations"] == 1
    # the residual's last digits follow the round-off of the generated Newton step
    assert row["residual"] == pytest.approx(1.431970010264339, rel=1e-6)
    assert sorted(row) == ["converged", "error", "index", "iterations", "point", "residual"]


# ---------------------------------------------------------------------------
# Determinism and packaging
# ---------------------------------------------------------------------------

def test_reports_are_deterministic_in_process(capsys, points_file):
    args = ["action-angle", PZ, "--section", "graph-p", "--points", points_file]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point_byte_identical():
    cmd = [sys.executable, "-m", "contactmech.cli", "check", PZ, "--samples", "10"]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout
    assert a.stdout.endswith(b"}\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    from contactmech import __version__

    assert capsys.readouterr().out.strip() == __version__


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    # one process runs a report, an argparse error (a missing --lambda exits
    # 2), another report and --version on the memoised parser; each must
    # match the same call on a freshly built parser
    calls = [
        ["check", PZ, "--samples", "5"],
        ["coisotropy", PZ],
        ["coisotropy", INV5, "--lambda", "1,1,1", "--points", "3"],
        ["--version"],
    ]

    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, re.sub(r"elapsed \d+\.\d+s", "elapsed <t>s", err)

    assert cli.build_parser() is cli.build_parser()
    cached = [outcome(argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [outcome(argv) for argv in calls]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 2, 0, 0]
    assert "--lambda" in cached[1][2]


def _json_report(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=lambda v: v.tolist()) + "\n"


def test_rendered_golden_reports_match_json(monkeypatch, tmp_path):
    from test_golden import CASES, run_case

    reports, render = [], cli.render_report
    monkeypatch.setattr(cli, "render_report", lambda r: reports.append(r) or render(r))
    for name in sorted(CASES):
        run_case(name, tmp_path)
    assert len(reports) == len(CASES)
    for report in reports:
        assert render(report) == _json_report(report)


# json's special cases: non-finite and extreme floats, big ints, an int subclass whose repr
# is no number, float subclasses, the NumPy values its default turns into lists or numbers,
# and strings it escapes
LEAVES = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, 1e16, 2**64 + 1,
          -(2**70), True, False, None, HTTPStatus.OK, np.float64(-0.0), np.float64(np.nan),
          np.float32(0.1), np.int64(-7), np.bool_(True), np.array(2.5), np.array([1.0, np.inf]),
          np.arange(6.0).reshape(2, 3), np.zeros(0), 'q"uo\\te', "\x00\x1f\n\t\x7f",
          "é ∂ 😀", ""]


def _tree(rng: random.Random, depth: int = 0):
    kind = rng.randrange(5 if depth < 4 else 2)
    if kind == 0:
        return rng.choice(LEAVES)
    if kind == 1:
        return rng.choice([rng.gauss(0, 1) * 10.0 ** rng.randint(-320, 308),
                           rng.randint(-(2**80), 2**80), rng.randint(-9, 9)])
    items = [_tree(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 2:
        return items
    if kind == 3:
        return tuple(items)
    return {rng.choice(["a", "b", 'k"', "\\", "\n", "é", "", "Z"]) + str(i): item
            for i, item in enumerate(items)}


def test_renderer_matches_json_on_random_trees():
    rng = random.Random(20231)
    for _ in range(2000):
        tree = _tree(rng)
        assert cli.render_report(tree) == _json_report(tree), tree


# argv run through main with the command dispatch and with the full parser alone;
# OUT is a path in the test's directory
PARSE_TABLE = {
    "empty": [],
    "version": ["--version"],
    "help": ["-h"],
    "check-help": ["check", "-h"],
    "unknown-command": ["verify", PZ],
    "no-config": ["check"],
    "unknown-flag": ["check", PZ, "--bogus"],
    "extra-argument": ["check", PZ, "extra"],
    "flag-after-version": ["check", PZ, "--samples", "3", "--version"],
    "bad-int": ["check", PZ, "--samples", "x"],
    "abbreviation": ["check", PZ, "--samp", "5"],
    "no-lambda": ["coisotropy", PZ],
    "lambda-equals": ["coisotropy", PZ, "--lambda=-1,1", "--points", "3"],
    "lambda-space": ["coisotropy", PZ, "--lambda", "-1,1"],
    "double-dash": ["check", "--samples", "3", "--", PZ],
    "integrate": ["integrate", PZ, "--seed", "3", "--f", "1", "--x0=0.5,1.2,0.8", "--t",
                  "0.5", "--out", "OUT"],
    "report-out": ["symplectize-verify", PZ, "--samples", "3", "--out", "OUT"],
}


@pytest.mark.parametrize("name", PARSE_TABLE)
def test_command_dispatch_parses_as_the_full_parser(capsys, monkeypatch, tmp_path, name):
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in PARSE_TABLE[name]]

    def outcome(parse):
        seen = []
        monkeypatch.setattr(cli, "_parse", lambda a: seen.append(parse(a)) or seen[-1])
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, re.sub(r"elapsed \d+\.\d+s\n", "", err), [vars(a) for a in seen]

    assert outcome(cli._parse) == outcome(lambda a: cli.build_parser().parse_args(a))


# ---------------------------------------------------------------------------
# Configs built once per file content
# ---------------------------------------------------------------------------

def test_interleaved_reports_on_cached_configs_match_fresh_runs(capsys):
    # one process alternates the four sampled commands and two seeds on one
    # config; seed 42 must give the goldens, seed 7 a fresh interpreter's bytes
    from test_golden import CASES, GOLDEN

    names = ["check-pz", "coisotropy-pz", "symplectize-verify-pz", "action-angle-pz-graph-z"]
    fresh = {}
    for name in names:
        cmd = [sys.executable, "-m", "contactmech.cli", *CASES[name], "--seed", "7"]
        fresh[name] = subprocess.run(cmd, capture_output=True, check=True).stdout.decode()
    cli._config.cache_clear()
    for seed in ("42", "7", "42"):
        for name in names if seed == "7" else names[::-1]:
            assert cli.main([*CASES[name], "--seed", seed]) == 0
            out = capsys.readouterr().out
            want = (GOLDEN / f"{name}.json").read_text() if seed == "42" else fresh[name]
            assert out == want, (name, seed)
    assert cli._config.cache_info()[:2] == (11, 1)  # (hits, misses)


def test_an_edited_config_is_rebuilt(capsys, tmp_path):
    path = tmp_path / "system.json"
    data = json.loads(Path(INV5).read_text())
    path.write_text(json.dumps(data))
    code, before, _ = run_cli(capsys, "check", str(path), "--samples", "5")
    assert code == 0 and before["passed"] is True
    data["integrals"] = ["q1", "p1", "z"]  # darboux-5d-noninvolutive's
    path.write_text(json.dumps(data))
    code, after, _ = run_cli(capsys, "check", str(path), "--samples", "5")
    assert code == 1 and after["passed"] is False
    assert after["config"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert after["config"]["sha256"] != before["config"]["sha256"]


@pytest.mark.parametrize("bad, message", [
    ({"n": "one"}, "invalid at n"),
    ({"integrals": ["w", "z"]}, "unknown symbol 'w'"),
], ids=["schema", "expression"])
def test_a_bad_config_fails_on_every_call(capsys, tmp_path, bad, message):
    # a valid file at the same path was built first; a failed build is not cached
    path = tmp_path / "system.json"
    valid = Path(PZ).read_bytes()
    path.write_bytes(valid)
    code, first, _ = run_cli(capsys, "check", str(path), "--samples", "5")
    assert code == 0
    path.write_text(json.dumps({**json.loads(valid), **bad}))
    for _ in range(2):
        _assert_input_error(capsys, ["check", str(path), "--samples", "5"], message)
    path.write_bytes(valid)
    assert run_cli(capsys, "check", str(path), "--samples", "5")[:2] == (0, first)


def test_identical_bytes_at_two_paths_report_their_own_file(capsys, tmp_path):
    reports = {}
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_bytes(Path(PZ).read_bytes())
        _, reports[name], _ = run_cli(capsys, "check", str(tmp_path / name), "--samples", "5")
    assert [r["config"]["file"] for r in reports.values()] == ["a.json", "b.json"]
    reports["b.json"]["config"]["file"] = "a.json"
    assert reports["a.json"] == reports["b.json"]


def test_spellings_of_one_path_build_it_once(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "system.json").write_bytes(Path(PZ).read_bytes())
    cli._config.cache_clear()
    for given in ["system.json", "./system.json", "system.json/", f"{tmp_path}/./system.json"]:
        code, report, _ = run_cli(capsys, "check", given, "--samples", "3")
        assert code == 0 and report["config"]["file"] == "system.json"
    assert cli._config.cache_info()[:2] == (2, 2)  # (hits, misses): relative, then absolute


def test_load_config_builds_anew_on_every_call():
    first, second = load_config(PZ), load_config(PZ)
    assert first is not second
    assert first.symp_system() is not second.symp_system()
    assert first.system() is not second.system()
