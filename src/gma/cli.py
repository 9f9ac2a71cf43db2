"""Command-line front end.

Every subcommand reads a JSON config (validated against the schemas in
:mod:`gma.schemas`), writes a deterministic JSON report to stdout, and
uses exit codes to separate outcome classes:

* 0 - success (criterion passed where one is checked)
* 1 - computational failure (cone breach, stalled solve, incompatible
      class data, failed identity sweep); a structured error report is
      still printed
* 2 - invalid input (malformed JSON, schema violation, bad shapes or
      parameters, mismatched polytope fans); message on stderr only
* 3 - the toric criterion evaluated cleanly and failed; the full report
      is printed

A warning raised while a subcommand runs (for example a source below the
guaranteed floor) goes to stderr as one line ``gma: warning: <message>``;
it changes neither stdout nor the exit code.

Timings never enter the stdout report; with ``--out`` they go to a
separate ``timings.json`` next to ``report.json`` and any grid
artifacts, so repeated runs with the same config and seed are
byte-identical on stdout and in ``report.json``.

numpy-backed modules are imported inside the handlers so that
``--threads`` can pin the BLAS/OpenMP thread pools first.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

from .exceptions import CompatibilityError, ConeBreachError, FanMismatchError, GmaError
from .schemas import SCHEMA_VERSION, SchemaError, validate

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
_CSV_COMMANDS = {("psh", "lelong"), ("solve", "classpath")}


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _rat_str(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _sanitize(obj):
    """Reduce a report tree to plain JSON types; non-finite floats -> None."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return _rat_str(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if value == value and abs(value) != float("inf") else None
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_json(report):
    return json.dumps(report, sort_keys=True, indent=2)


def _render_csv(key, report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if key == ("psh", "lelong"):
        writer.writerow(["delta", "nu"])
        for d, nu in zip(report["deltas"], report["nuAtDelta"]):
            writer.writerow([repr(float(d)), repr(float(nu))])
    else:  # ("solve", "classpath"), the other entry of _CSV_COMMANDS
        cols = ["s", "shift", "solvable", "minConeMargin", "residualSup", "error"]
        writer.writerow(cols)
        for row in report["rows"]:
            writer.writerow(
                ["" if row[c] is None else
                 (repr(float(row[c])) if isinstance(row[c], float) else str(row[c]))
                 for c in cols]
            )
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

def _trig_grid(shape, spec):
    from .solver import trig_polynomial

    return trig_polynomial(shape, spec.get("constant", 0.0), spec.get("terms", ()))


def _geometry(config):
    import numpy as np

    from .kernel import CoefficientSet
    from .solver import TorusGeometry

    geom = TorusGeometry(
        int(config["n"]),
        tuple(int(m) for m in config["gridShape"]),
        np.array(config["chi"], dtype=float),
        np.array(config["omega0"], dtype=float),
        config.get("scheme", "spectral"),
    )
    coeffs = CoefficientSet(geom.n, tuple(float(v) for v in config["c"]))
    return geom, coeffs


def _source_grid(config, geom, config_dir):
    spec = config["f"]
    if "gridFile" in spec:
        from .gridio import read_grid

        path = Path(spec["gridFile"])
        if not path.is_absolute():
            path = config_dir / path
        try:
            values = read_grid(path)
        except OSError as exc:
            raise ValueError(f"cannot read gridFile: {exc}") from None
        if tuple(values.shape) != geom.grid_shape:
            raise ValueError(
                f"gridFile shape {tuple(values.shape)} does not match "
                f"gridShape {geom.grid_shape}"
            )
        return values
    return _trig_grid(geom.grid_shape, spec)


def _potential(config):
    from .psh import Box, SingularPotential

    spec = config["potential"]
    domain_spec = config.get("domain", {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]})
    domain = Box(tuple(domain_spec["lo"]), tuple(domain_spec["hi"]))
    smooth = None
    if "smooth" in spec:
        import numpy as np

        model = spec["smooth"]
        if model["type"] == "constant":
            value = float(model["value"])

            def smooth(points):
                return np.full(np.asarray(points).shape[:-1], value)

        else:  # quadratic: a * |x|^2
            a = float(model["coefficient"])

            def smooth(points):
                pts = np.asarray(points, dtype=float)
                return a * np.sum(pts**2, axis=-1)

    return SingularPotential(
        float(spec["gamma"]), tuple(spec["center"]), smooth, domain
    )


def _mollifier(config, n):
    from .psh import RadialMollifier

    if config["kernel"]["type"] == "polynomial":
        return RadialMollifier.polynomial(n)
    return RadialMollifier.constant(n)


# ---------------------------------------------------------------------------
# handlers: (config, args, config_dir) -> (report, artifacts, exit_code)
# ---------------------------------------------------------------------------

def _handle_kernel_cone(config, args, config_dir):
    import numpy as np

    from .kernel import CoefficientSet, cone_margin

    coeffs = CoefficientSet(int(config["n"]), tuple(float(v) for v in config["c"]))
    rep = cone_margin(coeffs, float(config.get("t", 1.0)), np.array(config["lambda"]))
    report = {
        "margin": rep.margin,
        "satisfied": rep.satisfied,
        "perIndexLoad": list(rep.per_index_load),
    }
    return report, {}, 0


def _handle_kernel_fm(config, args, config_dir):
    from .kernel import CoefficientSet, source_floor

    coeffs = CoefficientSet(int(config["n"]), tuple(float(v) for v in config["c"]))
    budget = source_floor(
        coeffs, float(config["ratio"]), k_safety=float(config.get("kSafety", 0.99))
    )
    report = {
        "floor": budget.floor,
        "kConstant": budget.k_constant,
        "terms": {
            "garding": budget.term_garding,
            "quadratic": budget.term_quadratic,
            "power": budget.term_power,
            "classRatio": budget.term_class_ratio,
            "k": budget.term_k,
        },
    }
    return report, {}, 0


def _handle_kernel_identities(config, args, config_dir):
    import numpy as np

    from . import kernel

    n_list = [int(n) for n in config.get("nList", range(1, 9))]
    samples = int(config.get("samples", 1000))
    rng = np.random.default_rng(args.seed)
    tol = 1e-12
    worst_recurrence = 0.0
    worst_chain = 0.0
    worst_dual = 0.0
    for n in n_list:
        lam = 10.0 ** rng.uniform(-2.0, 2.0, size=(samples, n))
        e_all = kernel.elem_sym_all(lam)
        deleted = kernel.elem_sym_deleted_all(lam)
        # e_k = e_{k;i} + lam_i e_{k-1;i} for every deleted index i
        for k in range(1, n + 1):
            kept = deleted[:, :, k] if k <= n - 1 else 0.0
            recombined = kept + lam * deleted[:, :, k - 1]
            rel = np.abs(recombined - e_all[:, k : k + 1]) / np.abs(e_all[:, k : k + 1])
            worst_recurrence = max(worst_recurrence, float(rel.max()))
        # normalized power-mean chain is non-increasing for positive entries
        means = np.stack(
            [
                (e_all[:, k] / math.comb(n, k)) ** (1.0 / k)
                for k in range(1, n + 1)
            ],
            axis=1,
        )
        drops = means[:, :-1] - means[:, 1:]
        if drops.size:
            worst_chain = max(
                worst_chain, float((-drops / np.abs(means[:, :-1])).max())
            )
        # enumeration route vs vectorized routes on a subsample
        for s, row in enumerate(lam[: min(samples, 20)]):
            e_row = kernel.elem_sym_all(row)
            for k in range(n + 1):
                truth = kernel.elem_sym(row, k)
                rel = abs(e_row[k] - truth) / max(abs(truth), 1e-300)
                worst_dual = max(worst_dual, rel)
            for i in range(n):
                for m in range(n):
                    truth = kernel.elem_sym_deleted(row, m, i)
                    rel = abs(deleted[s, i, m] - truth) / max(abs(truth), 1e-300)
                    worst_dual = max(worst_dual, rel)
    passed = worst_recurrence <= tol and worst_chain <= tol and worst_dual <= tol
    report = {
        "nList": n_list,
        "samples": samples,
        "seed": args.seed,
        "tolerance": tol,
        "checks": {
            "recurrence": {"maxRelError": worst_recurrence},
            "maclaurinMonotone": {"worstViolation": max(worst_chain, 0.0)},
            "dualRoute": {"maxRelError": worst_dual},
        },
        "passed": passed,
    }
    return report, {}, 0 if passed else 1


def _handle_solve_run(config, args, config_dir):
    import numpy as np

    from .solver import cohomology_integrals, continuity_solve

    geom, coeffs = _geometry(config)
    f_grid = _source_grid(config, geom, config_dir)
    state = continuity_solve(
        geom,
        coeffs,
        f_grid,
        tol=float(config.get("tolerance", 1e-10)),
        dt_init=float(config.get("dtInit", 0.25)),
    )
    ints = cohomology_integrals(geom, coeffs, f_grid)
    report = {
        "c0": ints.c0,
        "classDefect": ints.defect,
        "finalResidualSup": state.residual_sup,
        "slack": state.slack,
        "minConeMargin": state.min_cone_margin,
        "phiSupNorm": float(np.abs(state.phi).max()),
        "stages": [
            {
                "t": s["t"],
                "residualSup": s["residual_sup"],
                "minConeMargin": s["min_cone_margin"],
                "slack": s["slack"],
                "newtonIterations": s["newton_iterations"],
            }
            for s in state.stages
        ],
    }
    if "referencePhi" in config:
        ref = _trig_grid(geom.grid_shape, config["referencePhi"])
        delta = (state.phi - state.phi.mean()) - (ref - ref.mean())
        report["referenceSupError"] = float(np.abs(delta).max())
    return report, {"phi.grid": state.phi}, 0


def _handle_solve_manufacture(config, args, config_dir):
    from .solver import cohomology_integrals, manufacture

    geom, coeffs = _geometry(config)
    phi_star = _trig_grid(geom.grid_shape, config["phi"])
    case = manufacture(geom, coeffs, phi_star)
    ints = cohomology_integrals(geom, coeffs, case.f_grid)
    report = {
        "fMin": float(case.f_grid.min()),
        "fMean": float(case.f_grid.mean()),
        "c0": ints.c0,
        "classDefect": ints.defect,
    }
    artifacts = {"f.grid": case.f_grid, "phiStar.grid": case.phi_star}
    return report, artifacts, 0


def _handle_solve_classpath(config, args, config_dir):
    from .solver import class_path_probe

    geom, coeffs = _geometry(config)
    f_grid = _trig_grid(geom.grid_shape, config["f"])
    probe = class_path_probe(geom, coeffs, f_grid, [float(s) for s in config["sList"]])
    report = {
        "rows": [
            {
                "s": r["s"],
                "shift": r["shift"],
                "solvable": r["solvable"],
                "minConeMargin": r["min_cone_margin"],
                "residualSup": r["residual_sup"],
                "error": r["error"],
            }
            for r in probe.rows
        ],
        "upwardClosed": probe.upward_closed,
    }
    return report, {}, 0


def _handle_toric_check(config, args, config_dir):
    from .toric import ClassPolytopePair, RationalPolytope, check_criterion

    def rat(v):
        return Fraction(v) if isinstance(v, str) else Fraction(int(v))

    p_omega = RationalPolytope([tuple(rat(c) for c in v) for v in config["pOmega"]])
    p_chi = RationalPolytope([tuple(rat(c) for c in v) for v in config["pChi"]])
    labels = None
    if "faceLabels" in config:
        labels = {
            tuple(int(part) for part in key.split(",")): name
            for key, name in config["faceLabels"].items()
        }
    pair = ClassPolytopePair(p_omega, p_chi, face_labels=labels)
    result = check_criterion(pair, [rat(v) for v in config["c"]])
    report = {
        "n": pair.n,
        "passed": result.passed,
        "epsilonUniform": _rat_str(result.epsilon_uniform),
        "epsilonUniformFloat": float(result.epsilon_uniform),
        "worstFace": result.worst_face,
        "compatibilityValue": _rat_str(result.compatibility_value),
        "perFace": [
            {
                "faceId": row.face_id,
                "codim": row.codim,
                "lhs": _rat_str(row.lhs),
                "lhsFloat": float(row.lhs),
                "rhsScale": _rat_str(row.rhs_scale),
                "ratio": _rat_str(row.ratio),
                "ratioFloat": float(row.ratio),
                "conditioned": row.conditioned,
            }
            for row in result.per_face
        ],
    }
    return report, {}, 0 if result.passed else 3


def _handle_psh_mollify(config, args, config_dir):
    from .psh import mollify

    potential = _potential(config)
    value = mollify(
        potential, _mollifier(config, 1), float(config["delta"]), tuple(config["x"])
    )
    report = {
        "value": value,
        "delta": float(config["delta"]),
        "x": list(config["x"]),
        "kernel": config["kernel"]["type"],
    }
    return report, {}, 0


def _handle_psh_lelong(config, args, config_dir):
    from .psh import lelong_level

    potential = _potential(config)
    result = lelong_level(
        potential,
        tuple(config["x"]),
        [float(d) for d in config["deltaList"]],
        float(config["r"]),
    )
    report = {
        "deltas": list(result.deltas),
        "nuAtDelta": list(result.nu_at_delta),
        "extrapolated": result.extrapolated,
        "r": result.r,
    }
    return report, {}, 0


def _handle_psh_cn(config, args, config_dir):
    from .psh import compute_cn

    n = int(config["n"])
    value = compute_cn(_mollifier(config, n), n)
    report = {"cn": value, "n": n, "kernel": config["kernel"]["type"]}
    return report, {}, 0


def _handle_psh_glue(config, args, config_dir):
    from .psh import glue_potentials

    geom, coeffs = _geometry(config)
    local = _trig_grid(geom.grid_shape, config["local"])
    global_ = _trig_grid(geom.grid_shape, config["global"])
    rep = glue_potentials(
        geom,
        coeffs,
        float(config.get("t", 1.0)),
        local,
        global_,
        float(config["eta"]),
        float(config["offset"]),
    )
    report = {
        "gluedMinMargin": rep.glued_min_margin,
        "blendMinMargin": rep.blend_min_margin,
        "localPoints": rep.local_points,
        "globalPoints": rep.global_points,
        "blendPoints": rep.blend_points,
        "marginConflict": rep.margin_conflict,
    }
    return report, {"glued.grid": rep.glued}, 0


_HANDLERS = {
    ("kernel", "cone"): _handle_kernel_cone,
    ("kernel", "fm"): _handle_kernel_fm,
    ("kernel", "identities"): _handle_kernel_identities,
    ("solve", "run"): _handle_solve_run,
    ("solve", "manufacture"): _handle_solve_manufacture,
    ("solve", "classpath"): _handle_solve_classpath,
    ("toric", "check"): _handle_toric_check,
    ("psh", "mollify"): _handle_psh_mollify,
    ("psh", "lelong"): _handle_psh_lelong,
    ("psh", "cn"): _handle_psh_cn,
    ("psh", "glue"): _handle_psh_glue,
}


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON config")
    common.add_argument("--out", help="directory for report.json, timings.json, grids")
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--threads", type=int, help="pin BLAS/OpenMP thread count")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(
        prog="gma",
        description="generalized Monge-Ampere laboratory: cone checks, torus "
        "solves, toric criteria, potential-theory utilities",
    )
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for command, subcommand in _HANDLERS:
        if command not in groups:
            groups[command] = top.add_parser(command).add_subparsers(
                dest="subcommand", required=True
            )
        groups[command].add_parser(subcommand, parents=[common])
    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"gma: warning: {message}", file=sys.stderr)


def _write_outputs(out_dir, rendered_json, artifacts, wall_seconds):
    from .gridio import write_grid

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(rendered_json + "\n")
    (out / "timings.json").write_text(
        json.dumps({"wallSeconds": wall_seconds}, sort_keys=True, indent=2) + "\n"
    )
    for name, values in artifacts.items():
        write_grid(out / name, values)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("gma: --threads must be positive", file=sys.stderr)
            return 2
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)

    key = (args.command, args.subcommand)
    if args.format == "csv" and key not in _CSV_COMMANDS:
        print(f"gma: csv output not supported for {' '.join(key)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        config_path = Path(args.config)
        try:
            config = json.loads(config_path.read_text())
        except OSError as exc:
            raise SchemaError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from None
        validate(args.command, args.subcommand, config)
        shown, warnings.showwarning = warnings.showwarning, _warning_line
        try:
            report, artifacts, code = _HANDLERS[key](config, args, config_path.parent)
        finally:
            warnings.showwarning = shown
    except (SchemaError, FanMismatchError, ValueError, TypeError) as exc:
        print(f"gma: {exc}", file=sys.stderr)
        return 2
    except GmaError as exc:
        payload = {
            "schemaVersion": SCHEMA_VERSION,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        if isinstance(exc, CompatibilityError) and exc.defect is not None:
            payload["error"]["defect"] = float(exc.defect)
        if isinstance(exc, ConeBreachError) and exc.value is not None:
            payload["error"]["value"] = float(exc.value)
        rendered = _render_json(_sanitize(payload))
        print(rendered)
        if args.out:
            _write_outputs(args.out, rendered, {}, time.perf_counter() - started)
        return 1

    report = {"schemaVersion": SCHEMA_VERSION, **report}
    rendered_json = _render_json(_sanitize(report))
    if args.format == "csv":
        print(_render_csv(key, _sanitize(report)))
    else:
        print(rendered_json)
    if args.out:
        _write_outputs(args.out, rendered_json, artifacts, time.perf_counter() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
