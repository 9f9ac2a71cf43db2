"""End-to-end tests of the command-line front end.

Most cases drive main() in-process and parse its stdout; determinism is
checked through real subprocesses so import order and environment take
part in the comparison.
"""

import contextlib
import copy
import io
import json
import math
import time
import warnings

import jsonschema
import numpy as np
import pytest
from schema_oracle import disagreements

from gma.cli import main
from gma.gridio import read_grid, write_grid
from gma.schemas import SCHEMAS, validate

IDENTITY2 = [[1.0, 0.0], [0.0, 1.0]]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    # every config a test writes is a case of the differential test of the validator
    assert disagreements(json.loads(path.read_text())) == []
    return str(path)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    assert out, f"no stdout (stderr: {err!r})"
    report = json.loads(out)
    # written byte for byte as json.dumps would write it
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    return code, report


def test_render_json_writes_what_json_dumps_writes():
    from gma.cli import _render_json

    trees = [
        None, True, False, 0, -7, 10**300, 1.5, -0.0, 5e-324, 1e300, "", "x",
        [], {}, [[]], [{}], {"a": {}}, {"a": []},
        {"b": {"d": [1, 2.5, None, True, False, "x"], "c": {}}, "a": [[], [{}], {"k": [[1]]}]},
        {"\u00fc": "\u00e9\n\"\\\u2028\x00\t", "Z": 1, "_": 2, "a": 3, "10": 4, "9": 5},
    ]
    for tree in trees:
        assert _render_json(tree) == json.dumps(tree, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# kernel commands
# ---------------------------------------------------------------------------

CONE_CONFIG = {"schemaVersion": 1, "n": 2, "c": [1.0], "lambda": [1.0, 1.0]}
FM_CONFIG = {"schemaVersion": 1, "n": 2, "c": [1.0], "ratio": 1.0}
IDENTITIES_CONFIG = {"schemaVersion": 1, "nList": [1, 2, 3, 4, 5, 6, 7, 8], "samples": 100}


def test_kernel_cone_reports_margin(tmp_path):
    cfg = write_config(tmp_path, CONE_CONFIG)
    code, report = run_json(["kernel", "cone", "--config", cfg])
    assert code == 0
    assert report["margin"] == 0.5
    assert report["satisfied"] is True
    assert report["perIndexLoad"] == [0.5, 0.5]


def test_kernel_fm_frozen_floor(tmp_path):
    cfg = write_config(tmp_path, FM_CONFIG)
    code, report = run_json(["kernel", "fm", "--config", cfg])
    assert code == 0
    assert report["floor"] == -1.0 / 512.0
    assert abs(report["terms"]["garding"] - 1.0 / 512.0) < 1e-15
    assert abs(report["terms"]["classRatio"] - 0.25) < 1e-15


def test_kernel_fm_large_n_uses_closed_form_eigenvalue(tmp_path, monkeypatch):
    import gma.kernel

    def refuse(n, zeta):
        raise AssertionError("subset enumeration reached")

    monkeypatch.setattr(gma.kernel, "subset_avoidance_matrix", refuse)
    c = [0.0] * 39
    c[19] = 1.0
    cfg = write_config(tmp_path, {"schemaVersion": 1, "n": 40, "c": c, "ratio": 1.0})
    code, report = run_json(["kernel", "fm", "--config", cfg])
    assert code == 0
    assert report["kConstant"] == 0.99 * math.comb(38, 19)


def test_kernel_fm_overflowing_coefficient_exits_2(tmp_path):
    cfg = write_config(tmp_path, {**FM_CONFIG, "c": [1e200]})
    code, out, err = run_cli(["kernel", "fm", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "c_1 = 1e+200" in err and "too large" in err
    assert len(err.splitlines()) == 1
    # solve run checks its source against the same floor; this f makes the
    # data exactly compatible, so the floor is reached
    c = 2.0**665
    cfg = write_config(tmp_path, {
        "schemaVersion": 1, "n": 2, "gridShape": [8, 8], "chi": IDENTITY2,
        "omega0": IDENTITY2, "c": [c], "f": {"constant": -c},
    }, name="solve.json")
    code, out, err = run_cli(["solve", "run", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "too large" in err and len(err.splitlines()) == 1


def test_kernel_cone_dimension_bound(tmp_path):
    validate("kernel", "cone", {**CONE_CONFIG, "n": 8})
    cfg = write_config(tmp_path, {**CONE_CONFIG, "n": 9})
    code, out, err = run_cli(["kernel", "cone", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "maximum of 8" in err
    assert len(err.splitlines()) == 1


def test_kernel_identities_sweep_passes(tmp_path):
    cfg = write_config(tmp_path, IDENTITIES_CONFIG)
    code, report = run_json(["kernel", "identities", "--config", cfg, "--seed", "3"])
    assert code == 0
    assert report["passed"] is True
    assert report["checks"]["recurrence"]["maxRelError"] <= 1e-12
    assert report["checks"]["dualRoute"]["maxRelError"] <= 1e-12
    assert report["checks"]["maclaurinMonotone"]["worstViolation"] <= 1e-12
    assert report["seed"] == 3


def test_kernel_identities_dual_route_catches_one_skewed_entry(tmp_path, monkeypatch):
    import gma.kernel

    batched = gma.kernel.elem_sym_deleted_all

    def skewed(vals):
        out = batched(vals)
        if vals.shape[-1] == 4:
            out[5, 2, 1] *= 1.0 + 1e-9  # row 5 lies in the 20-row subsample
        return out

    monkeypatch.setattr(gma.kernel, "elem_sym_deleted_all", skewed)
    cfg = write_config(tmp_path, IDENTITIES_CONFIG)
    code, report = run_json(["kernel", "identities", "--config", cfg, "--seed", "3"])
    assert code == 1
    assert report["passed"] is False
    assert report["checks"]["dualRoute"]["maxRelError"] >= 1e-10


def test_kernel_identities_dual_route_equals_the_per_element_loop(tmp_path):
    from gma.kernel import elem_sym, elem_sym_all, elem_sym_deleted, elem_sym_deleted_all

    n_list, samples, seed = list(range(1, 7)), 25, 7
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in n_list:
        lam = 10.0 ** rng.uniform(-2.0, 2.0, size=(samples, n))
        e_all, deleted = elem_sym_all(lam), elem_sym_deleted_all(lam)
        for s, row in enumerate(lam[:20]):
            for k in range(n + 1):
                truth = elem_sym(row, k)
                worst = max(worst, abs(e_all[s, k] - truth) / max(abs(truth), 1e-300))
            for i in range(n):
                for m in range(n):
                    truth = elem_sym_deleted(row, m, i)
                    worst = max(worst, abs(deleted[s, i, m] - truth) / max(abs(truth), 1e-300))
    cfg = write_config(tmp_path, {"schemaVersion": 1, "nList": n_list, "samples": samples})
    code, report = run_json(["kernel", "identities", "--config", cfg, "--seed", str(seed)])
    assert code == 0
    assert worst > 0.0
    assert report["checks"]["dualRoute"]["maxRelError"] == worst


@pytest.mark.parametrize("seed", [3, 11])
def test_kernel_identities_report_equals_the_per_k_loop_bit_for_bit(tmp_path, seed):
    # the sweep as it ran on strided (samples, n) rows, one k at a time, on the same draws
    from gma.kernel import elem_sym_all, elem_sym_deleted_all, elem_sym_table

    n_list, samples = list(range(1, 9)), 300
    rng = np.random.default_rng(seed)
    recurrence = chain = dual = 0.0
    for n in n_list:
        lam = 10.0 ** rng.uniform(-2.0, 2.0, size=(samples, n))
        e_all, deleted = elem_sym_all(lam), elem_sym_deleted_all(lam)
        for k in range(1, n + 1):
            kept = deleted[:, :, k] if k <= n - 1 else 0.0
            recombined = kept + lam * deleted[:, :, k - 1]
            rel = np.abs(recombined - e_all[:, k : k + 1]) / np.abs(e_all[:, k : k + 1])
            recurrence = max(recurrence, float(rel.max()))
        means = np.stack(
            [(e_all[:, k] / math.comb(n, k)) ** (1.0 / k) for k in range(1, n + 1)], axis=1
        )
        drops = means[:, :-1] - means[:, 1:]
        if drops.size:
            chain = max(chain, float((-drops / np.abs(means[:, :-1])).max()))
        for got, truth in zip((e_all[:20], deleted[:20]), elem_sym_table(lam[:20])):
            rel = np.abs(got - truth) / np.maximum(np.abs(truth), 1e-300)
            dual = max(dual, float(rel.max()))
    cfg = write_config(tmp_path, {"schemaVersion": 1, "nList": n_list, "samples": samples})
    code, report = run_json(["kernel", "identities", "--config", cfg, "--seed", str(seed)])
    assert code == 0
    checks = report["checks"]
    got = (checks["recurrence"]["maxRelError"], checks["maclaurinMonotone"]["worstViolation"],
           checks["dualRoute"]["maxRelError"])
    assert recurrence > 0.0 and dual > 0.0
    assert [v.hex() for v in got] == [v.hex() for v in (recurrence, max(chain, 0.0), dual)]


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


def test_every_schema_is_valid_against_its_metaschema():
    for schema in SCHEMAS.values():
        jsonschema.validators.validator_for(schema).check_schema(schema)


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


MANUFACTURE_PHI = {
    "terms": [
        {"amplitude": 0.02, "wave": [1, 0]},
        {"amplitude": 0.015, "wave": [0, 1], "phase": 0.4},
    ]
}
MANUFACTURE_CONFIG = {
    "schemaVersion": 1,
    "n": 2,
    "gridShape": [24, 24],
    "chi": IDENTITY2,
    "omega0": [[1.5, 0.2], [0.2, 1.0]],
    "c": [0.8],
    "phi": MANUFACTURE_PHI,
}
CLASSPATH_CONFIG = {
    "schemaVersion": 1,
    "n": 2,
    "gridShape": [16, 16],
    "chi": IDENTITY2,
    "omega0": [[0.45, 0.0], [0.0, 0.45]],
    "c": [1.0],
    "f": {"constant": 0.0},
    "sList": [0.0, 0.5],
}


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
    cfg = write_config(tmp_path, MANUFACTURE_CONFIG, "manu.json")
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
        "referencePhi": MANUFACTURE_PHI,
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


def test_oversized_grid_exits_2_before_allocating(tmp_path):
    # 2**23 points: TorusGeometry refuses them before any grid is built
    cfg = write_config(tmp_path, solve_config(gridShape=[4096, 2048]))
    code, out, err = run_cli(["solve", "run", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "8388608 grid points exceed the limit 4194304" in err
    assert len(err.splitlines()) == 1


def test_identities_samples_bound(tmp_path):
    validate("kernel", "identities", {**IDENTITIES_CONFIG, "samples": 100000})
    cfg = write_config(tmp_path, {**IDENTITIES_CONFIG, "samples": 100001})
    code, out, err = run_cli(["kernel", "identities", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "samples" in err and "maximum" in err
    assert len(err.splitlines()) == 1


def test_cli_passes_only_the_options_the_config_sets(tmp_path, monkeypatch):
    # the handlers import these at call time, so the spies see every call
    import gma.kernel
    import gma.solver

    calls = []

    def spy(original):
        def wrapper(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gma.solver, "continuity_solve", spy(gma.solver.continuity_solve))
    monkeypatch.setattr(gma.kernel, "source_floor", spy(gma.kernel.source_floor))
    cases = [
        ("solve run", solve_config(), {}),
        ("kernel fm", FM_CONFIG, {}),
        ("solve run", solve_config(tolerance=1e-9, dtInit=1), {"tol": 1e-9, "dt_init": 1.0}),
        ("kernel fm", {**FM_CONFIG, "kSafety": 0.5}, {"k_safety": 0.5}),
    ]
    for command, config, expected in cases:
        calls.clear()
        code, _ = run_json([*command.split(), "--config", write_config(tmp_path, config)])
        assert code == 0
        assert calls == [expected]
        assert all(type(value) is float for value in calls[0].values())


def test_dt_init_below_the_step_floor_exits_2_at_once(tmp_path):
    from gma.solver import _DT_MIN

    assert SCHEMAS[("solve", "run")]["properties"]["dtInit"]["minimum"] == _DT_MIN
    cfg = write_config(tmp_path, solve_config(dtInit=1e-9))
    start = time.perf_counter()
    code, out, err = run_cli(["solve", "run", "--config", cfg])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "gma: config invalid at dtInit: 1e-09 is less than the minimum of 0.0001\n"


def test_solve_classpath_with_a_non_finite_class_exits_2(tmp_path):
    # the scaled class overflows: no verdict, one named failure
    cfg = write_config(tmp_path, {**CLASSPATH_CONFIG, "sList": [0.0, 1e300]})
    code, out, err = run_cli(["solve", "classpath", "--config", cfg])
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert all(line.startswith("gma: ") for line in lines)
    assert lines[-1] == "gma: class_path_probe: the class at s = 1e+300 is not finite"


def test_solve_classpath_json_and_csv(tmp_path):
    cfg = write_config(tmp_path, CLASSPATH_CONFIG)
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

    code, out, csv_err = run_cli(["solve", "classpath", "--config", cfg, "--format", "csv"])
    assert code == 0
    # a second in-process call prints the same warnings again
    assert csv_err == err
    lines = out.strip().splitlines()
    assert lines[0] == "s,shift,solvable,minConeMargin,residualSup,error"
    assert len(lines) == 3
    assert lines[1].startswith("0.0,") and lines[1].endswith("StepUnderflowError")
    assert ",True," in lines[2]


# ---------------------------------------------------------------------------
# toric command
# ---------------------------------------------------------------------------

TORIC_PASSING = {
    "schemaVersion": 1,
    "pOmega": [[0, 0], [2, 0], [0, 2]],
    "pChi": [[0, 0], [1, 0], [0, 1]],
    "c": [2],
}
TORIC_FAILING = {
    "schemaVersion": 1,
    "pOmega": [[0, 1], [0, 2], [2, 0], [1, 0]],
    "pChi": [[0, "9/10"], [0, 1], [1, 0], ["9/10", 0]],
    "c": ["30/11"],
    "faceLabels": {"-1,-1": "E"},
}


def test_toric_check_passing_instance(tmp_path):
    cfg = write_config(tmp_path, TORIC_PASSING)
    code, report = run_json(["toric", "check", "--config", cfg])
    assert code == 0
    assert report["passed"] is True
    assert report["epsilonUniform"] == "1/2"
    assert report["epsilonUniformFloat"] == 0.5
    assert report["compatibilityValue"] == "0"
    assert all(row["lhs"] == "2" for row in report["perFace"])


def test_toric_check_failing_instance_exits_3(tmp_path):
    cfg = write_config(tmp_path, TORIC_FAILING)
    code, report = run_json(["toric", "check", "--config", cfg])
    assert code == 3
    assert report["passed"] is False
    assert report["worstFace"] == "E"
    assert report["epsilonUniform"] == "-5/22"
    by_face = {row["faceId"]: row for row in report["perFace"]}
    assert by_face["E"]["lhs"] == "-5/11"
    assert by_face["E"]["lhsFloat"] == pytest.approx(-5.0 / 11.0)


def test_toric_float_fields_past_the_float_range_read_null(tmp_path):
    from fractions import Fraction
    from itertools import product

    from gma.toric import ClassPolytopePair, RationalPolytope, check_criterion

    box = [[x, y, z] for x, y, z in product((0, 10**200), repeat=3)]
    cube = [[x, y, z] for x, y, z in product((0, 1), repeat=3)]
    payload = {"schemaVersion": 1, "pOmega": box, "pChi": cube, "c": [1, 1]}
    code, out, err = run_cli(["toric", "check", "--config", write_config(tmp_path, payload)])
    assert code in (0, 3)
    assert err == ""
    report = json.loads(out)
    pair = ClassPolytopePair(RationalPolytope(box), RationalPolytope(cube))
    result = check_criterion(pair, [Fraction(1), Fraction(1)])
    assert report["epsilonUniform"] == str(result.epsilon_uniform)
    assert [(row["lhs"], row["ratio"]) for row in report["perFace"]] == [
        (str(row.lhs), str(row.ratio)) for row in result.per_face
    ]
    assert report["epsilonUniformFloat"] == float(result.epsilon_uniform)
    lhs_floats = [row["lhsFloat"] for row in report["perFace"]]
    assert None in lhs_floats
    for row, value in zip(result.per_face, lhs_floats):
        assert value is None if abs(row.lhs) > 2**1024 else value == float(row.lhs)


def test_toric_tetrahedra_at_10_to_the_200_report_without_a_traceback(tmp_path):
    # a shared-fan pair with facet normals of 10^400 size; exact ranks need no float
    big = 10**200
    tetra = [[0, 0, 0], [big, 1, 0], [0, big, 1], [1, 0, big]]
    payload = {"schemaVersion": 1, "pOmega": tetra, "pChi": [[2 * x for x in v] for v in tetra],
               "c": [1, 1]}
    code, out, err = run_cli(["toric", "check", "--config", write_config(tmp_path, payload)])
    assert code in (0, 3)
    assert all(line.startswith("gma: ") for line in err.splitlines())
    report = json.loads(out)
    assert len(report["perFace"]) == 10
    assert report["compatibilityValue"] == str(-5 * big**3 - 5)


@pytest.mark.parametrize(
    "labels, bad",
    [({"9,9": "bogus", "0,-2": "typo"}, "(9, 9)"), ({"0,-2": "typo"}, "(0, -2)")],
    ids=["not-a-normal", "not-primitive"],
)
def test_toric_unknown_face_label_exits_2(tmp_path, labels, bad):
    unit = [[0, 0], [1, 0], [0, 1]]
    payload = {"schemaVersion": 1, "pOmega": unit, "pChi": unit, "c": [1], "faceLabels": labels}
    cfg = write_config(tmp_path, payload)
    code, out, err = run_cli(["toric", "check", "--config", cfg])
    assert code == 2
    assert out == ""
    assert err == f"gma: faceLabels: {bad} is not a facet normal\n"


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


@pytest.mark.parametrize("bad", [1.5, True, None, "1/0"])
@pytest.mark.parametrize("where", ["c", "vertex"])
def test_toric_non_rational_entry_exits_2_with_one_line(tmp_path, where, bad):
    payload = json.loads(json.dumps(TORIC_PASSING))
    if where == "c":
        payload["c"] = [bad]
    else:
        payload["pOmega"][1][0] = bad
    code, out, err = run_cli(["toric", "check", "--config", write_config(tmp_path, payload)])
    assert code == 2
    assert out == ""
    assert err.startswith("gma: config invalid at ")
    assert len(err.splitlines()) == 1


def test_toric_vertex_list_is_capped_at_64(tmp_path):
    payload = {**TORIC_PASSING, "pOmega": [[k, k * k, k ** 3] for k in range(65)]}
    code, out, err = run_cli(["toric", "check", "--config", write_config(tmp_path, payload)])
    assert code == 2
    assert out == ""
    assert err.startswith("gma: config invalid at pOmega: ")
    assert len(err.splitlines()) == 1
    assert len(err.encode()) < 200


def test_toric_integral_floats_read_as_integers(tmp_path):
    as_floats = {**TORIC_PASSING, "pOmega": [[0, 0], [2.0, 0], [0, 2]], "c": [2.0]}
    expected = run_cli(["toric", "check", "--config", write_config(tmp_path, TORIC_PASSING)])
    got = run_cli(["toric", "check", "--config", write_config(tmp_path, as_floats, "f.json")])
    assert got == expected
    assert expected[0] == 0
    half = {**TORIC_PASSING, "pOmega": [[0, 0], [2, 0], [0.5, 2]]}
    code, out, _ = run_cli(["toric", "check", "--config", write_config(tmp_path, half, "h.json")])
    assert code == 2
    assert out == ""


# ---------------------------------------------------------------------------
# psh commands
# ---------------------------------------------------------------------------

CN_CONFIG = {"schemaVersion": 1, "kernel": {"type": "constant"}, "n": 1}
MOLLIFY_CONFIG = {
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
LELONG_CONFIG = {
    "schemaVersion": 1,
    "potential": {"gamma": 1.0, "center": [0.0, 0.0]},
    "x": [0.0, 0.0],
    "deltaList": [0.025, 0.0125],
    "r": 0.2,
}
GLUE_CONFIG = {
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


def test_psh_cn_constant_kernel(tmp_path):
    cfg = write_config(tmp_path, CN_CONFIG)
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
    cfg = write_config(tmp_path, MOLLIFY_CONFIG)
    code, report = run_json(["psh", "mollify", "--config", cfg])
    assert code == 0
    assert abs(report["value"] - 7.0) <= 1e-10


def test_psh_lelong_json_and_csv(tmp_path):
    cfg = write_config(tmp_path, LELONG_CONFIG)
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
    cfg = write_config(tmp_path, GLUE_CONFIG)
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
# report key sets: a renamed result field would rename a report key
# ---------------------------------------------------------------------------

TORIC_KEYS = {
    "": ["compatibilityValue", "epsilonUniform", "epsilonUniformFloat", "n",
         "passed", "perFace", "schemaVersion", "worstFace"],
    "perFace[*]": ["codim", "conditioned", "faceId", "lhs", "lhsFloat", "ratio",
                   "ratioFloat", "rhsScale"],
}
SOLVE_RUN_KEYS = ["c0", "classDefect", "finalResidualSup", "minConeMargin",
                  "phiSupNorm", "schemaVersion", "slack", "stages"]
STAGE_KEYS = ["minConeMargin", "newtonIterations", "residualSup", "slack", "t"]


@pytest.mark.parametrize(
    "command, config, exit_code, keys",
    [
        pytest.param("kernel cone", CONE_CONFIG, 0,
                     {"": ["margin", "perIndexLoad", "satisfied", "schemaVersion"]},
                     id="kernel-cone"),
        pytest.param("kernel fm", FM_CONFIG, 0,
                     {"": ["floor", "kConstant", "schemaVersion", "terms"],
                      "terms": ["classRatio", "garding", "k", "power", "quadratic"]},
                     id="kernel-fm"),
        pytest.param("kernel identities", IDENTITIES_CONFIG, 0,
                     {"": ["checks", "nList", "passed", "samples", "schemaVersion",
                           "seed", "tolerance"],
                      "checks": ["dualRoute", "maclaurinMonotone", "recurrence"]},
                     id="kernel-identities"),
        pytest.param("solve run", solve_config(), 0,
                     {"": SOLVE_RUN_KEYS, "stages[*]": STAGE_KEYS}, id="solve-run"),
        pytest.param("solve run", solve_config(referencePhi={"constant": 0.0}), 0,
                     {"": sorted(SOLVE_RUN_KEYS + ["referenceSupError"]),
                      "stages[*]": STAGE_KEYS},
                     id="solve-run-reference"),
        pytest.param("solve run", solve_config(f={"constant": 0.5}), 1,
                     {"": ["error", "schemaVersion"],
                      "error": ["defect", "message", "type"]},
                     id="solve-run-error"),
        pytest.param("solve manufacture", MANUFACTURE_CONFIG, 0,
                     {"": ["c0", "classDefect", "fMean", "fMin", "schemaVersion"]},
                     id="solve-manufacture"),
        pytest.param("solve classpath", CLASSPATH_CONFIG, 0,
                     {"": ["rows", "schemaVersion", "upwardClosed"],
                      "rows[*]": ["error", "minConeMargin", "residualSup", "s",
                                  "shift", "solvable"]},
                     id="solve-classpath"),
        pytest.param("toric check", TORIC_PASSING, 0, TORIC_KEYS, id="toric-check"),
        pytest.param("toric check", TORIC_FAILING, 3, TORIC_KEYS, id="toric-check-fails"),
        pytest.param("psh mollify", MOLLIFY_CONFIG, 0,
                     {"": ["delta", "kernel", "schemaVersion", "value", "x"]},
                     id="psh-mollify"),
        pytest.param("psh lelong", LELONG_CONFIG, 0,
                     {"": ["deltas", "extrapolated", "nuAtDelta", "r", "schemaVersion"]},
                     id="psh-lelong"),
        pytest.param("psh cn", CN_CONFIG, 0,
                     {"": ["cn", "kernel", "n", "schemaVersion"]}, id="psh-cn"),
        pytest.param("psh glue", GLUE_CONFIG, 0,
                     {"": ["blendMinMargin", "blendPoints", "globalPoints",
                           "gluedMinMargin", "localPoints", "marginConflict",
                           "schemaVersion"]},
                     id="psh-glue"),
    ],
)
def test_report_key_sets(tmp_path, command, config, exit_code, keys):
    cfg = write_config(tmp_path, config)
    code, report = run_json([*command.split(), "--config", cfg])
    assert code == exit_code
    # "" is the report itself, "name" a nested object, "name[*]" each item of a list
    for path, expected in keys.items():
        if not path:
            objects = [report]
        elif path.endswith("[*]"):
            objects = report[path[:-3]]
            assert objects, path
        else:
            objects = [report[path]]
        for obj in objects:
            assert sorted(obj) == expected, path


# ---------------------------------------------------------------------------
# schema edges: every subcommand ends fast with one named outcome
# ---------------------------------------------------------------------------

TINY, HUGE = 5e-324, 1e300  # the smallest positive double; far past any class
# a 4 300-digit numerator, the longest integer the interpreter converts from text
BIG_RATIONAL = "1" + "0" * 4299 + "/3"
EDGE_BUDGET_S = 5.0


def _edge(base, **changes):
    """A deep copy of base with the changes made; key a__b sets base["a"]["b"]."""
    config = copy.deepcopy(base)
    for key, value in changes.items():
        *path, last = key.split("__")
        target = config
        for part in path:
            target = target[part]
        target[last] = value
    return config


def _edge_cases():
    """(command, config) at the edges of each schema: every numeric bound, the
    smallest positive double, +-1e300, a 4 300-digit rational, and each capped
    array at its cap."""
    eye3 = np.eye(3).tolist()
    solve = solve_config(gridShape=[8, 8])
    manufacture = _edge(MANUFACTURE_CONFIG, gridShape=[8, 8])
    classpath = _edge(CLASSPATH_CONFIG, gridShape=[8, 8])
    glue = _edge(GLUE_CONFIG, gridShape=[8, 8])
    parabola = [[k, k * k] for k in range(64)]  # 64 vertices in convex position
    cases = {
        "cone-n-1": ("kernel cone", {"schemaVersion": 1, "n": 1, "c": [], "lambda": [1.0]}),
        "cone-n-8": ("kernel cone",
                     {"schemaVersion": 1, "n": 8, "c": [0.1] * 7, "lambda": [1.0] * 8}),
        "fm-n-1": ("kernel fm", _edge(FM_CONFIG, n=1, c=[])),
        "fm-n-1e300": ("kernel fm", _edge(FM_CONFIG, n=10**300)),
        "fm-kSafety-1": ("kernel fm", _edge(FM_CONFIG, kSafety=1)),
        "identities-samples-cap": ("kernel identities",
                                   {"schemaVersion": 1, "nList": [8], "samples": 100000}),
        "identities-n-1": ("kernel identities",
                           {"schemaVersion": 1, "nList": [1], "samples": 1}),
        "run-3d-grid-8": ("solve run", solve_config(n=3, gridShape=[8, 8, 8], chi=eye3,
                                                    omega0=eye3, c=[0.5, 0.5])),
        "run-dtInit-1e-4": ("solve run", _edge(solve, dtInit=1e-4)),
        "run-dtInit-1": ("solve run", _edge(solve, dtInit=1)),
        "run-wave-4300-digits": ("solve run", _edge(
            solve, f={"terms": [{"amplitude": 0.01, "wave": [10**4299, 0]}]})),
        "run-reference-1e300": ("solve run", _edge(solve, referencePhi={"constant": HUGE})),
        "classpath-s-minus-1": ("solve classpath", _edge(classpath, sList=[-1])),
        "toric-vertices-cap": ("toric check",
                               {"schemaVersion": 1, "pOmega": parabola, "pChi": parabola,
                                "c": [1]}),
        "toric-c-0": ("toric check", _edge(TORIC_PASSING, c=[0])),
        "toric-c-4300-digits": ("toric check", _edge(TORIC_PASSING, c=[BIG_RATIONAL])),
        "toric-vertex-4300-digits": ("toric check", _edge(
            TORIC_PASSING, pOmega=[[0, 0], [BIG_RATIONAL, 0], [0, BIG_RATIONAL]])),
        "mollify-gamma-0": ("psh mollify", _edge(MOLLIFY_CONFIG, potential__gamma=0)),
        "lelong-domain-1e300": ("psh lelong", _edge(
            LELONG_CONFIG, domain={"lo": [-HUGE, -HUGE], "hi": [HUGE, HUGE]})),
        "cn-n-1": ("psh cn", {"schemaVersion": 1, "kernel": {"type": "polynomial"}, "n": 1}),
        "cn-n-1e300": ("psh cn", {"schemaVersion": 1, "kernel": {"type": "constant"},
                                  "n": 10**300}),
        # an in-phase source: the class stays compatible and the Newton residual is huge
        "run-f-amplitude-1e200": ("solve run", _edge(
            solve, f={"terms": [{"amplitude": 1e200, "wave": [1, 0]}]})),
    }
    for t in (0, 1, TINY):
        cases[f"cone-t-{t}"] = ("kernel cone", _edge(CONE_CONFIG, t=t))
        cases[f"glue-t-{t}"] = ("psh glue", _edge(glue, t=t))
    for v in (TINY, HUGE, -HUGE):
        cases[f"cone-lambda-{v}"] = ("kernel cone", _edge(CONE_CONFIG, **{"lambda": [v, 1.0]}))
        cases[f"run-omega0-{v}"] = ("solve run", _edge(solve, omega0=[[v, 0.0], [0.0, 1.0]]))
        cases[f"run-f-constant-{v}"] = ("solve run", _edge(solve, f={"constant": v}))
        cases[f"run-f-amplitude-{v}"] = ("solve run", _edge(
            solve, f={"terms": [{"amplitude": v, "wave": [1, 0], "phase": v}]}))
        cases[f"manufacture-amplitude-{v}"] = ("solve manufacture", _edge(
            manufacture, phi={"terms": [{"amplitude": v, "wave": [1, 1]}]}))
        cases[f"classpath-s-{v}"] = ("solve classpath", _edge(classpath, sList=[v]))
        cases[f"mollify-x-{v}"] = ("psh mollify", _edge(MOLLIFY_CONFIG, x=[v, v]))
        cases[f"mollify-smooth-{v}"] = ("psh mollify", _edge(
            MOLLIFY_CONFIG, potential__smooth={"type": "quadratic", "coefficient": v}))
        cases[f"lelong-delta-{v}"] = ("psh lelong", _edge(LELONG_CONFIG, deltaList=[v]))
        cases[f"glue-offset-{v}"] = ("psh glue", _edge(glue, offset=v))
    for v in (HUGE, -HUGE):  # integral floats; a toric entry is an integer or "p/q"
        cases[f"toric-vertex-{v}"] = ("toric check",
                                      _edge(TORIC_PASSING, pOmega=[[0, 0], [v, 0], [0, v]]))
    for v in (TINY, HUGE):
        cases[f"cone-c-{v}"] = ("kernel cone", _edge(CONE_CONFIG, c=[v]))
        cases[f"fm-c-{v}"] = ("kernel fm", _edge(FM_CONFIG, c=[v]))
        cases[f"fm-ratio-{v}"] = ("kernel fm", _edge(FM_CONFIG, ratio=v))
        cases[f"fm-kSafety-{v}"] = ("kernel fm", _edge(FM_CONFIG, kSafety=min(v, 1)))
        cases[f"run-tolerance-{v}"] = ("solve run", _edge(solve, tolerance=v))
        cases[f"run-chi-{v}"] = ("solve run", _edge(solve, chi=[[v, 0.0], [0.0, v]]))
        cases[f"run-c-{v}"] = ("solve run", _edge(solve, c=[v]))
        cases[f"mollify-delta-{v}"] = ("psh mollify", _edge(MOLLIFY_CONFIG, delta=v))
        cases[f"mollify-gamma-{v}"] = ("psh mollify", _edge(MOLLIFY_CONFIG, potential__gamma=v))
        cases[f"lelong-r-{v}"] = ("psh lelong", _edge(LELONG_CONFIG, r=v))
        cases[f"glue-eta-{v}"] = ("psh glue", _edge(glue, eta=v))
    return [pytest.param(command, config, id=name) for name, (command, config) in cases.items()]


# edges with a known outcome: an exit code, or nothing on stderr
EDGE_EXIT_CODES = {"run-f-amplitude-1e200": 1}
QUIET_EDGES = {"glue-eta-5e-324"}


@pytest.mark.parametrize("command, config", _edge_cases())
def test_every_subcommand_ends_fast_with_one_named_outcome_at_its_schema_edges(
    tmp_path, request, command, config
):
    validate(*command.split(), config)  # an edge, not past it
    cfg = write_config(tmp_path, config)
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # a `gma` process's filters, not the suite's
        code, out, err = run_cli([*command.split(), "--config", cfg])
    assert time.perf_counter() - started <= EDGE_BUDGET_S
    assert code in (0, 1, 2, 3)
    name = request.node.callspec.id
    assert code == EDGE_EXIT_CODES.get(name, code)
    if name in QUIET_EDGES:
        assert err == ""
    # no traceback: every stderr line is one of the CLI's own
    assert all(line.startswith("gma: ") for line in err.splitlines()), err
    # invalid input prints nothing else; every other outcome prints its report
    if code == 2:
        assert out == "" and err
    else:
        assert json.loads(out)["schemaVersion"] == 1


@pytest.mark.parametrize("amplitude", [1e200, 1e300, -1e300])
def test_huge_sources_end_with_a_named_gma_error(tmp_path, amplitude):
    # GMRES gets the Newton residual scaled into range, so no "Singular matrix" escapes
    config = solve_config(gridShape=[8, 8], f={"terms": [{"amplitude": amplitude, "wave": [1, 0]}]})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the source is far below the guaranteed floor
        code, out, err = run_cli(["solve", "run", "--config", write_config(tmp_path, config)])
    assert code == 1 and err == ""
    assert json.loads(out)["error"]["type"] == "StepUnderflowError"


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
