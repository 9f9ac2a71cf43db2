"""End-to-end tests of the command-line front end.

Most cases drive main() in-process and parse its stdout; determinism is
checked through real subprocesses so import order and environment take
part in the comparison.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from gma.cli import main
from gma.gridio import read_grid, write_grid

IDENTITY2 = [[1.0, 0.0], [0.0, 1.0]]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# kernel commands
# ---------------------------------------------------------------------------

def test_kernel_cone_reports_margin(tmp_path):
    cfg = write_config(
        tmp_path, {"schemaVersion": 1, "n": 2, "c": [1.0], "lambda": [1.0, 1.0]}
    )
    code, report = run_json(["kernel", "cone", "--config", cfg])
    assert code == 0
    assert report["margin"] == 0.5
    assert report["satisfied"] is True
    assert report["perIndexLoad"] == [0.5, 0.5]


def test_kernel_fm_frozen_floor(tmp_path):
    cfg = write_config(
        tmp_path, {"schemaVersion": 1, "n": 2, "c": [1.0], "ratio": 1.0}
    )
    code, report = run_json(["kernel", "fm", "--config", cfg])
    assert code == 0
    assert report["floor"] == -1.0 / 512.0
    assert abs(report["terms"]["garding"] - 1.0 / 512.0) < 1e-15
    assert abs(report["terms"]["classRatio"] - 0.25) < 1e-15


def test_kernel_identities_sweep_passes(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schemaVersion": 1, "nList": [1, 2, 3, 4, 5, 6, 7, 8], "samples": 100},
    )
    code, report = run_json(["kernel", "identities", "--config", cfg, "--seed", "3"])
    assert code == 0
    assert report["passed"] is True
    assert report["checks"]["recurrence"]["maxRelError"] <= 1e-12
    assert report["checks"]["dualRoute"]["maxRelError"] <= 1e-12
    assert report["checks"]["maclaurinMonotone"]["worstViolation"] <= 1e-12
    assert report["seed"] == 3


# ---------------------------------------------------------------------------
# validation failures (exit 2, nothing on stdout)
# ---------------------------------------------------------------------------

def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schemaVersion": 1,')
    code, out, err = run_cli(["kernel", "cone", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert "not valid JSON" in err


def test_unknown_key_exits_2(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schemaVersion": 1, "n": 2, "c": [1.0], "lambda": [1.0, 2.0], "bogus": 1},
    )
    code, out, err = run_cli(["kernel", "cone", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "bogus" in err


def test_wrong_schema_version_exits_2(tmp_path):
    cfg = write_config(
        tmp_path, {"schemaVersion": 2, "n": 2, "c": [1.0], "lambda": [1.0, 2.0]}
    )
    code, out, err = run_cli(["kernel", "cone", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "schemaVersion" in err


def test_missing_config_flag_raises_systemexit_2():
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "cone"])
    assert exc.value.code == 2


def test_missing_config_file_exits_2(tmp_path):
    code, out, err = run_cli(
        ["kernel", "cone", "--config", str(tmp_path / "nope.json")]
    )
    assert code == 2
    assert out == ""
    assert "cannot read config" in err


def test_csv_unsupported_command_exits_2(tmp_path):
    cfg = write_config(
        tmp_path, {"schemaVersion": 1, "n": 2, "c": [1.0], "lambda": [1.0, 2.0]}
    )
    code, out, err = run_cli(["kernel", "cone", "--config", cfg, "--format", "csv"])
    assert code == 2
    assert out == ""
    assert "csv" in err


def test_nonpositive_threads_exits_2(tmp_path):
    cfg = write_config(
        tmp_path, {"schemaVersion": 1, "n": 2, "c": [1.0], "lambda": [1.0, 2.0]}
    )
    code, out, err = run_cli(
        ["kernel", "cone", "--config", cfg, "--threads", "0"]
    )
    assert code == 2 and out == ""


# ---------------------------------------------------------------------------
# solve commands
# ---------------------------------------------------------------------------

def solve_config(**extra):
    base = {
        "schemaVersion": 1,
        "n": 2,
        "gridShape": [16, 16],
        "chi": IDENTITY2,
        "omega0": IDENTITY2,
        "c": [1.0],
        "f": {"constant": 0.0},
    }
    base.update(extra)
    return base


def test_solve_run_trivial_source(tmp_path):
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, solve_config())
    code, report = run_json(
        ["solve", "run", "--config", cfg, "--out", str(out_dir)]
    )
    assert code == 0
    assert report["phiSupNorm"] <= 1e-10
    assert report["c0"] == 1.0
    assert report["finalResidualSup"] <= 1e-10
    assert abs(report["slack"]) <= 1e-10
    assert report["stages"][-1]["t"] == 1.0
    assert all(s["minConeMargin"] > 0.0 for s in report["stages"])
    phi = read_grid(out_dir / "phi.grid")
    assert phi.shape == (16, 16)
    assert np.abs(phi).max() <= 1e-10
    timings = json.loads((out_dir / "timings.json").read_text())
    assert timings["wallSeconds"] > 0.0
    assert "wallSeconds" not in report


def test_solve_manufacture_then_roundtrip(tmp_path):
    out_dir = tmp_path / "manu"
    phi_spec = {
        "terms": [
            {"amplitude": 0.02, "wave": [1, 0]},
            {"amplitude": 0.015, "wave": [0, 1], "phase": 0.4},
        ]
    }
    manu = {
        "schemaVersion": 1,
        "n": 2,
        "gridShape": [24, 24],
        "chi": IDENTITY2,
        "omega0": [[1.5, 0.2], [0.2, 1.0]],
        "c": [0.8],
        "phi": phi_spec,
    }
    cfg = write_config(tmp_path, manu, "manu.json")
    code, report = run_json(
        ["solve", "manufacture", "--config", cfg, "--out", str(out_dir)]
    )
    assert code == 0
    assert abs(report["classDefect"]) <= 1e-12
    assert report["fMin"] > 0.0
    assert read_grid(out_dir / "phiStar.grid").shape == (24, 24)

    run_cfg = {
        "schemaVersion": 1,
        "n": 2,
        "gridShape": [24, 24],
        "chi": IDENTITY2,
        "omega0": [[1.5, 0.2], [0.2, 1.0]],
        "c": [0.8],
        "f": {"gridFile": str(out_dir / "f.grid")},
        "referencePhi": phi_spec,
    }
    cfg2 = write_config(tmp_path, run_cfg, "roundtrip.json")
    code, report = run_json(["solve", "run", "--config", cfg2])
    assert code == 0
    assert report["referenceSupError"] <= 1e-8
    assert report["minConeMargin"] > 0.0


def test_solve_run_relative_gridfile_resolves_against_config(tmp_path):
    values = np.zeros((16, 16))
    write_grid(tmp_path / "flat.grid", values)
    cfg = write_config(tmp_path, solve_config(f={"gridFile": "flat.grid"}))
    code, report = run_json(["solve", "run", "--config", cfg])
    assert code == 0
    assert report["phiSupNorm"] <= 1e-10


def test_solve_run_incompatible_source_exits_1(tmp_path):
    cfg = write_config(tmp_path, solve_config(f={"constant": 0.5}))
    code, report = run_json(["solve", "run", "--config", cfg])
    assert code == 1
    assert report["error"]["type"] == "CompatibilityError"
    assert abs(report["error"]["defect"] - (-0.5)) < 1e-12
    assert "compatibility defect" in report["error"]["message"]
    assert "-5.000e-01" in report["error"]["message"]


def test_solve_run_gridfile_shape_mismatch_exits_2(tmp_path):
    write_grid(tmp_path / "small.grid", np.zeros((8, 8)))
    cfg = write_config(tmp_path, solve_config(f={"gridFile": "small.grid"}))
    code, out, err = run_cli(["solve", "run", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "does not match" in err


def test_solve_run_missing_gridfile_exits_2(tmp_path):
    cfg = write_config(tmp_path, solve_config(f={"gridFile": "missing.grid"}))
    code, out, err = run_cli(["solve", "run", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "cannot read gridFile" in err
    assert len(err.splitlines()) == 1


def test_solve_classpath_json_and_csv(tmp_path):
    payload = {
        "schemaVersion": 1,
        "n": 2,
        "gridShape": [16, 16],
        "chi": IDENTITY2,
        "omega0": [[0.45, 0.0], [0.0, 0.45]],
        "c": [1.0],
        "f": {"constant": 0.0},
        "sList": [0.0, 0.5],
    }
    cfg = write_config(tmp_path, payload)
    code, out, err = run_cli(["solve", "classpath", "--config", cfg])
    assert code == 0
    report = json.loads(out)
    assert [row["solvable"] for row in report["rows"]] == [False, True]
    assert report["rows"][0]["error"] == "StepUnderflowError"
    assert report["rows"][1]["minConeMargin"] > 0.0
    assert report["upwardClosed"] is True
    # the sources below the guaranteed floor are reported one line each
    warned = err.splitlines()
    assert warned
    assert all(line.startswith("gma: warning: ") for line in warned)
    assert any("guaranteed floor" in line for line in warned)
    assert not any(".py" in line for line in warned)

    code, out, _ = run_cli(["solve", "classpath", "--config", cfg, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,shift,solvable,minConeMargin,residualSup,error"
    assert len(lines) == 3
    assert lines[1].startswith("0.0,") and lines[1].endswith("StepUnderflowError")
    assert ",True," in lines[2]


# ---------------------------------------------------------------------------
# toric command
# ---------------------------------------------------------------------------

def test_toric_check_passing_instance(tmp_path):
    payload = {
        "schemaVersion": 1,
        "pOmega": [[0, 0], [2, 0], [0, 2]],
        "pChi": [[0, 0], [1, 0], [0, 1]],
        "c": [2],
    }
    cfg = write_config(tmp_path, payload)
    code, report = run_json(["toric", "check", "--config", cfg])
    assert code == 0
    assert report["passed"] is True
    assert report["epsilonUniform"] == "1/2"
    assert report["epsilonUniformFloat"] == 0.5
    assert report["compatibilityValue"] == "0"
    assert all(row["lhs"] == "2" for row in report["perFace"])


def test_toric_check_failing_instance_exits_3(tmp_path):
    payload = {
        "schemaVersion": 1,
        "pOmega": [[0, 1], [0, 2], [2, 0], [1, 0]],
        "pChi": [[0, "9/10"], [0, 1], [1, 0], ["9/10", 0]],
        "c": ["30/11"],
        "faceLabels": {"-1,-1": "E"},
    }
    cfg = write_config(tmp_path, payload)
    code, report = run_json(["toric", "check", "--config", cfg])
    assert code == 3
    assert report["passed"] is False
    assert report["worstFace"] == "E"
    assert report["epsilonUniform"] == "-5/22"
    by_face = {row["faceId"]: row for row in report["perFace"]}
    assert by_face["E"]["lhs"] == "-5/11"
    assert by_face["E"]["lhsFloat"] == pytest.approx(-5.0 / 11.0)


def test_toric_fan_mismatch_exits_2(tmp_path):
    payload = {
        "schemaVersion": 1,
        "pOmega": [[0, 0], [1, 0], [0, 1]],
        "pChi": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "c": [1],
    }
    cfg = write_config(tmp_path, payload)
    code, out, err = run_cli(["toric", "check", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "facet normal sets differ" in err


def test_toric_float_coefficient_exits_2(tmp_path):
    payload = {
        "schemaVersion": 1,
        "pOmega": [[0, 0], [2, 0], [0, 2]],
        "pChi": [[0, 0], [1, 0], [0, 1]],
        "c": [2.5],
    }
    cfg = write_config(tmp_path, payload)
    code, out, err = run_cli(["toric", "check", "--config", cfg])
    assert code == 2
    assert out == ""


# ---------------------------------------------------------------------------
# psh commands
# ---------------------------------------------------------------------------

def test_psh_cn_constant_kernel(tmp_path):
    cfg = write_config(
        tmp_path, {"schemaVersion": 1, "kernel": {"type": "constant"}, "n": 1}
    )
    code, report = run_json(["psh", "cn", "--config", cfg])
    assert code == 0
    assert abs(report["cn"] - 4.0 / 13.0) <= 1e-10


def test_psh_cn_dimension_beyond_float_range_exits_2(tmp_path):
    cfg = write_config(
        tmp_path, {"schemaVersion": 1, "kernel": {"type": "polynomial"}, "n": 200}
    )
    code, out, err = run_cli(["psh", "cn", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "n = 200" in err


def test_psh_mollify_constant_potential(tmp_path):
    payload = {
        "schemaVersion": 1,
        "potential": {
            "gamma": 0.0,
            "center": [0.0, 0.0],
            "smooth": {"type": "constant", "value": 7.0},
        },
        "kernel": {"type": "polynomial"},
        "delta": 0.05,
        "x": [0.1, -0.2],
    }
    cfg = write_config(tmp_path, payload)
    code, report = run_json(["psh", "mollify", "--config", cfg])
    assert code == 0
    assert abs(report["value"] - 7.0) <= 1e-10


def test_psh_lelong_json_and_csv(tmp_path):
    payload = {
        "schemaVersion": 1,
        "potential": {"gamma": 1.0, "center": [0.0, 0.0]},
        "x": [0.0, 0.0],
        "deltaList": [0.025, 0.0125],
        "r": 0.2,
    }
    cfg = write_config(tmp_path, payload)
    code, report = run_json(["psh", "lelong", "--config", cfg])
    assert code == 0
    assert report["nuAtDelta"] == pytest.approx([2.0, 2.0], abs=1e-12)
    assert report["extrapolated"] == pytest.approx(2.0, abs=1e-12)

    code, out, _ = run_cli(["psh", "lelong", "--config", cfg, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,nu"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.0125, 0.025]
    assert all(abs(float(r[1]) - 2.0) <= 1e-12 for r in rows)


def test_psh_glue_exact_switch(tmp_path):
    out_dir = tmp_path / "glue"
    payload = {
        "schemaVersion": 1,
        "n": 2,
        "gridShape": [32, 32],
        "chi": IDENTITY2,
        "omega0": IDENTITY2,
        "c": [1.0],
        "t": 1.0,
        "local": {"constant": 1.0},
        "global": {"constant": 0.0},
        "eta": 0.5,
        "offset": 0.0,
        "scheme": "fd",
    }
    cfg = write_config(tmp_path, payload)
    code, report = run_json(
        ["psh", "glue", "--config", cfg, "--out", str(out_dir)]
    )
    assert code == 0
    assert report["localPoints"] == 32 * 32
    assert report["blendPoints"] == 0
    assert report["blendMinMargin"] is None  # +inf sentinel for an empty band
    assert report["gluedMinMargin"] == pytest.approx(0.5)
    assert report["marginConflict"] is False
    glued = read_grid(out_dir / "glued.grid")
    assert np.all(glued == 1.0)


# ---------------------------------------------------------------------------
# determinism and environment handling
# ---------------------------------------------------------------------------

def test_cli_stdout_and_artifacts_are_deterministic(tmp_path, run_gma_cli):
    cfg = write_config(tmp_path, solve_config())
    runs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / f"out_{tag}"
        proc = run_gma_cli(
            ["solve", "run", "--config", cfg, "--out", str(out_dir), "--threads", "1"],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, out_dir))
    assert runs[0][0] == runs[1][0]
    assert (
        (runs[0][1] / "report.json").read_bytes()
        == (runs[1][1] / "report.json").read_bytes()
    )
    assert (
        (runs[0][1] / "phi.grid").read_bytes()
        == (runs[1][1] / "phi.grid").read_bytes()
    )
    # stdout carries the report verbatim, no timing data
    assert json.loads(runs[0][0]) == json.loads(
        (runs[0][1] / "report.json").read_text()
    )


def test_identities_seed_changes_report_but_stays_deterministic(
    tmp_path, run_gma_cli
):
    cfg = write_config(
        tmp_path, {"schemaVersion": 1, "nList": [3], "samples": 50}
    )
    first = run_gma_cli(
        ["kernel", "identities", "--config", cfg, "--seed", "1"], cwd=tmp_path
    )
    again = run_gma_cli(
        ["kernel", "identities", "--config", cfg, "--seed", "1"], cwd=tmp_path
    )
    other = run_gma_cli(
        ["kernel", "identities", "--config", cfg, "--seed", "2"], cwd=tmp_path
    )
    assert first.returncode == again.returncode == other.returncode == 0, (
        first.stderr + again.stderr + other.stderr
    )
    assert first.stdout == again.stdout
    assert first.stdout != other.stdout


def test_threads_flag_pins_environment(tmp_path, monkeypatch):
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        monkeypatch.delenv(var, raising=False)
    cfg = write_config(
        tmp_path, {"schemaVersion": 1, "n": 2, "c": [1.0], "lambda": [1.0, 2.0]}
    )
    code, _, _ = run_cli(["kernel", "cone", "--config", cfg, "--threads", "2"])
    assert code == 0
    import os

    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
