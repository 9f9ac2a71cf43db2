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
* 141 - stdout was closed before the report was written (128 + SIGPIPE,
      the status a shell gives a pipeline stage that a closed pipe ends);
      no traceback, and ``--out`` files are still written

A warning raised while a subcommand runs (for example a source below the
guaranteed floor) goes to stderr as one line ``gma: warning: <message>``,
on every call; it changes neither stdout nor the exit code.

Timings never enter the stdout report; with ``--out`` they go to a
separate ``timings.json`` next to ``report.json`` and any grid
artifacts, so repeated runs with the same config and seed are
byte-identical on stdout and in ``report.json``.

numpy-backed modules are imported inside the handlers, so numpy never
loads for ``toric check`` or for a config that is rejected.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

from .exceptions import CompatibilityError, ConeBreachError, FanMismatchError, GmaError
from .schemas import SCHEMA_VERSION, SchemaError, validate

_CSV_COMMANDS = {("psh", "lelong"), ("solve", "classpath")}


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

class _CamelKeys(dict):
    """key -> its camelCase form (``per_index_load`` -> ``perIndexLoad``),
    worked out on a key's first lookup and cached."""

    def __missing__(self, key):
        head, *rest = str(key).split("_")
        self[key] = camel = head + "".join(part[:1].upper() + part[1:] for part in rest)
        return camel


_CAMEL = _CamelKeys()


@functools.cache
def _record_keys(record_type):
    """(field name, camelCase key) of each declared field of a result record type."""
    return tuple((f.name, _CAMEL[f.name]) for f in dataclasses.fields(record_type))


_json_string = json.encoder.encode_basestring_ascii  # json.dumps' own, ensure_ascii
_JSON_SCALARS = {
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    int: int.__repr__,
    float: lambda obj: float.__repr__(obj) if math.isfinite(obj) else "null",
    str: _json_string,
}


def _members(obj):
    """{camelCase key: value} of a dict or of a result record's declared fields."""
    if isinstance(obj, dict):
        return {_CAMEL[k]: v for k, v in obj.items()}
    return {key: getattr(obj, name) for name, key in _record_keys(type(obj))}


def _plain(obj):
    """The JSON value of a leaf that is no builtin scalar: a Fraction is "p/q",
    a numpy value or a number subclass its Python number."""
    if isinstance(obj, Fraction):
        try:
            return str(obj)  # "p/q", or "p" when q = 1
        except ValueError:  # past the interpreter's int-to-decimal digit limit
            raise ValueError(
                f"an exact rational of the report has more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_json(obj, indent=""):
    """The bytes ``json.dumps(tree, sort_keys=True, indent=2)`` writes for the
    plain JSON tree of a report, in one walk: a result record stands for the
    dict of its declared fields, every key for its camelCase, a non-finite
    float for null, and any other leaf for its `_plain` value."""
    scalar = _JSON_SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        opening, closing = "[", "]"
        items = [_render_json(item, inner) for item in obj]
    elif isinstance(obj, dict) or dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        opening, closing = "{", "}"
        members = _members(obj)
        items = [_json_string(key) + ": " + _render_json(members[key], inner)
                 for key in sorted(members)]
    else:
        return _render_json(_plain(obj), indent)
    if not items:
        return opening + closing
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


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

def _number(value, key):
    """A config number as a float, or nested lists of them as lists of floats.

    JSON integers have no size limit, so one past the float range is a
    ValueError that names its key, as is a non-finite result.
    """
    if isinstance(value, list):
        return [_number(v, key) for v in value]
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"config key {key!r} holds a number outside the float range")
    return number


def _given(config, convert=_number, **keys):
    """{keyword: convert(config[key], key)} for each keyword=key the config sets;
    an unset key passes nothing, so the callee's own default applies."""
    return {kw: convert(config[key], key) for kw, key in keys.items() if key in config}


def _trig_grid(shape, spec):
    from .solver import trig_polynomial

    terms = [{**term, **_given(term, amplitude="amplitude", phase="phase")}
             for term in spec.get("terms", ())]
    return trig_polynomial(shape, _number(spec.get("constant", 0.0), "constant"), terms)


def _geometry(config):
    import numpy as np

    from .kernel import CoefficientSet
    from .solver import TorusGeometry

    geom = TorusGeometry(
        int(config["n"]),
        tuple(int(m) for m in config["gridShape"]),
        np.array(_number(config["chi"], "chi")),
        np.array(_number(config["omega0"], "omega0")),
        **_given(config, lambda scheme, key: scheme, scheme="scheme"),
    )
    coeffs = CoefficientSet(geom.n, tuple(_number(config["c"], "c")))
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
    smooth = None
    if "smooth" in spec:
        import numpy as np

        model = spec["smooth"]
        if model["type"] == "constant":
            value = _number(model["value"], "value")

            def smooth(points):
                return np.full(np.asarray(points).shape[:-1], value)

        else:  # quadratic: a * |x|^2
            a = _number(model["coefficient"], "coefficient")

            def smooth(points):
                pts = np.asarray(points, dtype=float)
                return a * np.sum(pts**2, axis=-1)

    return SingularPotential(
        _number(spec["gamma"], "gamma"), tuple(_number(spec["center"], "center")), smooth,
        **_given(config, lambda d, key: Box(tuple(_number(d["lo"], key)),
                                            tuple(_number(d["hi"], key))), domain="domain"),
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

    coeffs = CoefficientSet(int(config["n"]), tuple(_number(config["c"], "c")))
    rep = cone_margin(coeffs, _number(config.get("t", 1.0), "t"),
                      np.array(_number(config["lambda"], "lambda")))
    return rep, {}, 0


def _handle_kernel_fm(config, args, config_dir):
    from .kernel import CoefficientSet, source_floor

    coeffs = CoefficientSet(int(config["n"]), tuple(_number(config["c"], "c")))
    budget = source_floor(
        coeffs, _number(config["ratio"], "ratio"), **_given(config, k_safety="kSafety")
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
        # the (samples, n) draw held as n contiguous planes; lam is its (samples, n) view
        planes = np.power(10.0, rng.uniform(-2.0, 2.0, size=(samples, n)).T,
                          out=np.empty((n, samples)))
        lam = planes.T
        e_all = kernel.elem_sym_all(lam)
        deleted = kernel.elem_sym_deleted_all(lam)
        e = np.moveaxis(e_all, -1, 0)  # e[k] = e_k
        e_del = np.moveaxis(deleted, (-2, -1), (0, 1))  # e_del[i, m] = e_{m;i}
        # e_k = e_{k;i} + lam_i e_{k-1;i} for every deleted index i and k = 1..n;
        # e_{n;i} = 0 and 0.0 + x is x, so the k = n terms are the products alone
        rel = planes[:, None] * e_del
        rel[:, :-1] += e_del[:, 1:]
        rel -= e[1:]
        np.abs(rel, out=rel)
        rel /= np.abs(e[1:])
        worst_recurrence = max(worst_recurrence, float(rel.max()))
        # normalized power-mean chain is non-increasing for positive entries;
        # each exponent 1/k stays a Python float, so 1/2 takes numpy's sqrt path
        means = np.stack([(e[k] / math.comb(n, k)) ** (1.0 / k) for k in range(1, n + 1)])
        drops = means[:-1] - means[1:]
        if drops.size:
            worst_chain = max(
                worst_chain, float((-drops / np.abs(means[:-1])).max())
            )
        # enumeration route vs vectorized routes on a subsample
        sub = min(samples, 20)
        for got, truth in zip((e_all[:sub], deleted[:sub]), kernel.elem_sym_table(lam[:sub])):
            rel = np.abs(got - truth) / np.maximum(np.abs(truth), 1e-300)
            worst_dual = max(worst_dual, float(rel.max()))
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

    from .solver import continuity_solve

    geom, coeffs = _geometry(config)
    f_grid = _source_grid(config, geom, config_dir)
    state = continuity_solve(
        geom, coeffs, f_grid, **_given(config, tol="tolerance", dt_init="dtInit")
    )
    report = {
        "c0": state.integrals.c0,
        "classDefect": state.integrals.defect,
        "finalResidualSup": state.residual_sup,
        "slack": state.slack,
        "minConeMargin": state.min_cone_margin,
        "phiSupNorm": float(np.abs(state.phi).max()),
        "stages": state.stages,
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
    probe = class_path_probe(geom, coeffs, f_grid, _number(config["sList"], "sList"))
    return {"rows": probe.rows, "upwardClosed": probe.upward_closed}, {}, 0


def _float(q):
    """float(q), or an infinity of q's sign past the float range, which reports as null."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _face_normal(key):
    """The integer facet normal that a faceLabels key "a,b,..." names."""
    try:
        return tuple(int(part) for part in key.split(","))
    except ValueError:
        raise ValueError(f"faceLabels: {key!r} is not a comma-separated integer normal") from None


def _handle_toric_check(config, args, config_dir):
    from .toric import ClassPolytopePair, RationalPolytope, check_criterion
    # Fraction reads every schema-admitted entry exactly: ints, integral floats, "p/q"
    p_omega = RationalPolytope([tuple(map(Fraction, v)) for v in config["pOmega"]])
    p_chi = RationalPolytope([tuple(map(Fraction, v)) for v in config["pChi"]])
    labels = None
    if "faceLabels" in config:
        labels = {_face_normal(key): name for key, name in config["faceLabels"].items()}
    pair = ClassPolytopePair(p_omega, p_chi, face_labels=labels)
    result = check_criterion(pair, [Fraction(v) for v in config["c"]])
    report = {
        **_members(result),
        "n": pair.n,
        "epsilonUniformFloat": _float(result.epsilon_uniform),
        "perFace": [
            {**_members(row), "lhsFloat": _float(row.lhs), "ratioFloat": _float(row.ratio)}
            for row in result.per_face
        ],
    }
    return report, {}, 0 if result.passed else 3


def _handle_psh_mollify(config, args, config_dir):
    from .psh import mollify

    potential = _potential(config)
    delta = _number(config["delta"], "delta")
    value = mollify(potential, _mollifier(config, 1), delta, tuple(_number(config["x"], "x")))
    report = {
        "value": value,
        "delta": delta,
        "x": list(config["x"]),
        "kernel": config["kernel"]["type"],
    }
    return report, {}, 0


def _handle_psh_lelong(config, args, config_dir):
    from .psh import lelong_level

    potential = _potential(config)
    result = lelong_level(
        potential,
        tuple(_number(config["x"], "x")),
        _number(config["deltaList"], "deltaList"),
        _number(config["r"], "r"),
    )
    return result, {}, 0


def _handle_psh_cn(config, args, config_dir):
    from .psh import compute_cn

    n = int(config["n"])
    value = compute_cn(_mollifier(config, n))
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
        _number(config.get("t", 1.0), "t"),
        local,
        global_,
        _number(config["eta"], "eta"),
        _number(config["offset"], "offset"),
    )
    report = _members(rep)
    artifacts = {"glued.grid": report.pop("glued")}
    return report, artifacts, 0


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

@functools.cache
def _build_parser():
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON config")
    common.add_argument("--out", help="directory for report.json, timings.json, grids")
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
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


def _reject_constant(name):
    """json's hook for NaN, Infinity and -Infinity, which JSON has no literal for."""
    raise SchemaError(f"config is not valid JSON: {name} is not a JSON number")


def _finite_float(literal):
    """json's hook for a float literal: its float, unless it lies past the float range."""
    number = float(literal)
    if math.isinf(number):
        raise SchemaError(f"config is not valid JSON: {literal} lies outside the float range")
    return number


_CLOSED_STDOUT = 141


def _print(text):
    """print(text) and flush; False when stdout is closed, which then points at
    os.devnull so that the flush at exit cannot raise again (the recipe of
    Python's `signal` documentation)."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def _write_outputs(out_dir, rendered_json, artifacts, wall_seconds):
    from .gridio import write_grid

    out = Path(out_dir)
    (out / "report.json").write_text(rendered_json + "\n")
    (out / "timings.json").write_text(
        _render_json({"wallSeconds": wall_seconds}) + "\n"
    )
    for name, values in artifacts.items():
        write_grid(out / name, values)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    key = (args.command, args.subcommand)
    if args.format == "csv" and key not in _CSV_COMMANDS:
        print(f"gma: csv output not supported for {' '.join(key)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        config_path = Path(args.config)
        try:
            config = json.loads(config_path.read_text(), parse_constant=_reject_constant,
                                parse_float=_finite_float)
        except OSError as exc:
            raise SchemaError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from None
        validate(args.command, args.subcommand, config)
        if args.out:
            try:
                Path(args.out).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ValueError(f"cannot create --out directory: {exc}") from None
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            report, artifacts, code = _HANDLERS[key](config, args, config_path.parent)
        rendered_json = _render_json({"schemaVersion": SCHEMA_VERSION, **_members(report)})
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
        rendered = _render_json(payload)
        printed = _print(rendered)
        if args.out:
            _write_outputs(args.out, rendered, {}, time.perf_counter() - started)
        return 1 if printed else _CLOSED_STDOUT

    printed = _print(
        _render_csv(key, json.loads(rendered_json)) if args.format == "csv" else rendered_json
    )
    if args.out:
        _write_outputs(args.out, rendered_json, artifacts, time.perf_counter() - started)
    return code if printed else _CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
