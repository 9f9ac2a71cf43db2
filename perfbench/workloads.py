"""The benchmark workloads: seeded inputs, one-time preparation, checks.

Each workload turns a seed into JSON configs (and, for the solves,
manufactured source grids) and returns the CLI calls that make up one
operation.  Every call carries a checker that compares the printed report
with an answer the benchmark derives on its own: a manufactured reference
potential, a continuum solvability criterion, closed-form box
intersection numbers, or a closed form from potential theory.

The seed only moves phases, box side lengths and the identity-sweep seed;
grid sizes, shapes and the amount of work per operation never depend on it.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

WORKLOADS = ("solver", "algebra")


@dataclass(frozen=True)
class Call:
    """One `gma` invocation; check(code, report) returns None or a reason."""

    argv: tuple
    check: Callable[[int, dict], str | None]


def _number_le(value, bound):
    return isinstance(value, (int, float)) and value <= bound


def _write_config(workdir, name, payload):
    path = workdir / f"{name}.json"
    path.write_text(json.dumps({"schemaVersion": 1, **payload}, sort_keys=True))
    return str(path)


def prepare(name, seed, workdir, run_cli):
    """Write the workload's inputs under workdir; return the calls of one operation.

    run_cli(argv) -> (exit code, stdout) runs `gma` in-process; set-up uses
    it for `solve manufacture`.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "solver":
        return [
            _prepare_solve("2d", rng, workdir, run_cli),
            _prepare_solve("3d", rng, workdir, run_cli),
            _prepare_classpath(rng, workdir),
        ]
    if name == "algebra":
        return _prepare_algebra(rng, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# solver: a 2-D and a 3-D manufactured solve, then a class-path probe
# ---------------------------------------------------------------------------

_SOLVE_TOLERANCE = 1e-10
_REFERENCE_ERROR = 1e-8

_SOLVE_CASES = {
    "2d": {
        "n": 2,
        "gridShape": [128, 128],
        "chi": [[1.0, 0.2], [0.2, 0.8]],
        "omega0": [[1.3, 0.1], [0.1, 1.1]],
        "c": [0.5],
        "waves": ([1, 0], [1, 2]),
    },
    "3d": {
        "n": 3,
        "gridShape": [24, 24, 24],
        "chi": [[1.0, 0.1, 0.0], [0.1, 0.9, 0.1], [0.0, 0.1, 1.1]],
        "omega0": [[1.3, 0.1, 0.05], [0.1, 1.2, 0.0], [0.05, 0.0, 1.25]],
        "c": [0.5, 0.3],
        "waves": ([1, 0, 1], [0, 2, 1]),
    },
}


def _check_solve(code, report):
    if code != 0:
        return f"exit code {code}"
    if not _number_le(report.get("referenceSupError"), _REFERENCE_ERROR):
        return f"referenceSupError {report.get('referenceSupError')} > {_REFERENCE_ERROR}"
    if not _number_le(report.get("finalResidualSup"), _SOLVE_TOLERANCE):
        return f"finalResidualSup {report.get('finalResidualSup')} > {_SOLVE_TOLERANCE}"
    margins = [stage.get("minConeMargin") for stage in report.get("stages", ())]
    if not margins or not all(isinstance(m, (int, float)) and m > 0 for m in margins):
        return f"stage minConeMargin not all positive: {margins}"
    return None


def _prepare_solve(name, rng, workdir, run_cli):
    """`gma solve run --out` on a source manufactured from a two-cosine phi*."""
    case = _SOLVE_CASES[name]
    amplitudes = (0.3 / (4.0 * math.pi**2), 0.3 / (8.0 * math.pi**2))
    phi_star = {
        "terms": [
            {"amplitude": amp, "wave": wave, "phase": rng.uniform(0.0, 2.0 * math.pi)}
            for amp, wave in zip(amplitudes, case["waves"])
        ]
    }
    geometry = {k: case[k] for k in ("n", "gridShape", "chi", "omega0", "c")}
    manufacture = _write_config(
        workdir, f"manufacture-{name}", {**geometry, "phi": phi_star, "scheme": "spectral"}
    )
    code, _ = run_cli(["solve", "manufacture", "--config", manufacture,
                       "--out", str(workdir / f"manufactured-{name}")])
    if code != 0:
        raise RuntimeError(f"{name}: solve manufacture exited with {code}")
    config = _write_config(workdir, f"solve-{name}", {
        **geometry,
        "f": {"gridFile": f"manufactured-{name}/f.grid"},
        "referencePhi": phi_star,
        "scheme": "spectral",
        "tolerance": _SOLVE_TOLERANCE,
    })
    argv = ("solve", "run", "--config", config, "--out", str(workdir / f"solved-{name}"))
    return Call(argv, _check_solve)


# Class-path probe at 32^2, FD scheme.  With omega0 = w chi, c = (1) and
# n = 2 the scaled endpoint equation reads
#     det(mu) = (a - 1/2)^2 + f - mean(f)
# in chi-orthonormal coordinates, where a = w (1 + s) and mu = lam - 1/2
# must stay positive (the cone condition).
# On the torus it is solvable exactly when a > 1/2 and (a - 1/2)^2 exceeds
# the largest dip of f below its mean, here the cosine amplitude.  The
# scales below sit far from that threshold (s = 1/3), so the discrete
# 32^2 problem follows the continuum verdict: s = 0.2 fails after many
# rejected continuity attempts, s = 0.6 and s = 1.0 solve.
#
# How many attempts the failing row rejects depends on where the cosine's
# minimum falls between grid points, so the seeded phase is a whole number
# of grid steps: every seed gives a translated copy of the same discrete
# problem and the same amount of work.

_CLASS_GRID = 32
_CLASS_WEIGHT = 0.45
_CLASS_AMPLITUDE = 0.01
_CLASS_SCALES = (0.2, 0.6, 1.0)


def _solvable(s):
    gap = _CLASS_WEIGHT * (1.0 + s) - 0.5
    return gap > 0.0 and gap * gap > _CLASS_AMPLITUDE


def _upward_closed(flags):
    return all(not earlier or later for earlier, later in zip(flags, flags[1:]))


def _prepare_classpath(rng, workdir):
    chi = [[1.0, 0.2], [0.2, 0.8]]
    config = _write_config(workdir, "classpath", {
        "n": 2,
        "gridShape": [_CLASS_GRID, _CLASS_GRID],
        "chi": chi,
        "omega0": [[_CLASS_WEIGHT * v for v in row] for row in chi],
        "c": [1.0],
        "f": {"constant": 0.0, "terms": [{
            "amplitude": _CLASS_AMPLITUDE,
            "wave": [1, 1],
            "phase": 2.0 * math.pi * rng.randrange(_CLASS_GRID) / _CLASS_GRID,
        }]},
        "sList": list(_CLASS_SCALES),
        "scheme": "fd",
    })
    expected = [_solvable(s) for s in sorted(_CLASS_SCALES)]

    def check(code, report):
        if code != 0:
            return f"exit code {code}"
        got = [row.get("solvable") for row in report.get("rows", ())]
        if got != expected:
            return f"solvable flags {got}, expected {expected}"
        if report.get("upwardClosed") is not _upward_closed(expected):
            return f"upwardClosed {report.get('upwardClosed')}"
        return None

    return Call(("solve", "classpath", "--config", config), check)


# ---------------------------------------------------------------------------
# algebra: kernel, toric and psh views behind short CLI calls
# ---------------------------------------------------------------------------

_CONE_C = (0.5, 0.3)
_CONE_LAMBDA = (1.1, 2.3, 0.9)
_TORIC_C = (Fraction(1, 2), Fraction(1, 3))
_LELONG_GAMMA = 0.7
_GLUE = {
    "n": 2,
    "gridShape": [64, 64],
    "chi": [[1.0, 0.2], [0.2, 0.8]],
    "omega0": [[1.3, 0.1], [0.1, 1.1]],
    "c": [0.5],
    "t": 1.0,
    "local": {"terms": [{"amplitude": 0.03, "wave": [1, 0], "phase": 0.3}]},
    "global": {"terms": [{"amplitude": 0.03, "wave": [0, 1], "phase": 0.1}]},
    "eta": 0.02,
    "offset": 0.0,
}


def _close(value, truth, rel):
    return isinstance(value, (int, float)) and abs(value - truth) <= rel * abs(truth)


def _check_identities(code, report):
    if code != 0 or report.get("passed") is not True:
        return f"identity sweep did not pass (exit code {code})"
    return None


def _check_cone(code, report):
    # loads L_i = c1/3 * prod_{j != i} x_j + c2/3 * sum_{j != i} x_j, x = 1/lambda,
    # indexed by the ascending eigenvalues the report is ordered by
    x = [1.0 / v for v in sorted(_CONE_LAMBDA)]
    loads = []
    for i in range(3):
        rest = [x[j] for j in range(3) if j != i]
        loads.append(_CONE_C[0] / 3.0 * rest[0] * rest[1] + _CONE_C[1] / 3.0 * sum(rest))
    margin = 1.0 - max(loads)
    got = report.get("perIndexLoad") or []
    if code != 0 or len(got) != 3 or not all(_close(g, w, 1e-12) for g, w in zip(got, loads)):
        return f"cone loads {got}, expected {loads}"
    if not _close(report.get("margin"), margin, 1e-12) or report.get("satisfied") is not True:
        return f"cone margin {report.get('margin')}, expected {margin}"
    return None


def _check_fm(code, report):
    if code != 0 or report.get("floor") != -1.0 / 512.0:
        return f"source floor {report.get('floor')}, expected -1/512"
    return None


def _box_intersection(omega, chi, axes, p):
    """int_V Omega^p chi^q over the face spanned by the given box axes.

    For boxes every face is a box, and the mixed volume is multilinear in
    the side lengths: p! q! sum_{|T| = p} prod_T omega prod_rest chi.
    """
    q = len(axes) - p
    total = Fraction(0)
    for picked in combinations(axes, p):
        term = Fraction(1)
        for axis in axes:
            term *= omega[axis] if axis in picked else chi[axis]
        total += term
    return math.factorial(p) * math.factorial(q) * total


def _toric_expectation(omega, chi, c):
    """(passed, epsilon, face count) of the criterion for two 3-D boxes."""
    n = 3
    ratios = []
    passed = True
    faces = 0
    for codim in (1, 2):
        for axes in combinations(range(n), n - codim):
            lhs = rhs = math.comb(n, codim) * _box_intersection(omega, chi, axes, n - codim)
            for k in range(codim, n):
                lhs -= c[k - 1] * math.comb(k, codim) * _box_intersection(
                    omega, chi, axes, k - codim
                )
            # a box has 2 facets per axis direction and 4 edges per edge direction
            copies = 2 if codim == 1 else 4
            faces += copies
            passed = passed and lhs > 0
            ratios.append(lhs / rhs)
    return passed, min(ratios), faces


def _box_vertices(sides):
    return [[str(v) for v in corner] for corner in product(*[(0, s) for s in sides])]


def _prepare_toric(rng, workdir):
    omega = tuple(Fraction(rng.randint(3, 8), 2) for _ in range(3))
    chi = tuple(Fraction(rng.randint(2, 4), 3) for _ in range(3))
    passed, epsilon, faces = _toric_expectation(omega, chi, _TORIC_C)
    config = _write_config(workdir, "toric", {
        "pOmega": _box_vertices(omega),
        "pChi": _box_vertices(chi),
        "c": [str(v) for v in _TORIC_C],
    })
    eps_text = str(epsilon)

    def check(code, report):
        if code != (0 if passed else 3) or report.get("passed") is not passed:
            return f"toric verdict {report.get('passed')} (exit code {code}), expected {passed}"
        if report.get("epsilonUniform") != eps_text:
            return f"toric epsilon {report.get('epsilonUniform')}, expected {eps_text}"
        if len(report.get("perFace", ())) != faces:
            return f"toric face count {len(report.get('perFace', ()))}, expected {faces}"
        return None

    return Call(("toric", "check", "--config", config), check)


def _glue_partition():
    """Counts of local / global / blend points, from the glue inputs directly."""
    import numpy as np

    shape = tuple(_GLUE["gridShape"])
    mesh = np.meshgrid(*[np.arange(s) / s for s in shape], indexing="ij")

    def sample(spec):
        out = np.full(shape, float(spec.get("constant", 0.0)))
        for term in spec["terms"]:
            arg = sum(w * x for w, x in zip(term["wave"], mesh))
            out += term["amplitude"] * np.cos(2.0 * np.pi * arg + term["phase"])
        return out

    gap = sample(_GLUE["local"]) + _GLUE["offset"] - sample(_GLUE["global"])
    eta = _GLUE["eta"]
    if np.min(np.abs(np.abs(gap) - eta)) < 1e-9:
        raise RuntimeError("glue inputs put a grid point on the collar edge")
    return (
        int(np.count_nonzero(gap >= eta)),
        int(np.count_nonzero(-gap >= eta)),
        int(np.count_nonzero(np.abs(gap) < eta)),
    )


def _cn_polynomial(n):
    # rho = C (1 - t^2)^3 and int_0^1 t^m log(1/t) dt = 1/(m + 1)^2
    binom = (1.0, -3.0, 3.0, -1.0)
    area = 2.0 * math.pi**n / math.factorial(n - 1)
    mass = sum(b / (2 * j + 2 * n) for j, b in enumerate(binom))
    log_moment = sum(b / (2 * j + 2 * n) ** 2 for j, b in enumerate(binom)) / (area * mass)
    return 2.0 / (area * log_moment + 3.0 ** (2 * n - 1) / 2.0 ** (2 * n - 3))


def _prepare_algebra(rng, workdir):
    identities = _write_config(workdir, "identities",
                               {"nList": list(range(1, 9)), "samples": 1000})
    # three sweeps give the kernel about the toric check's share of the operation
    calls = [
        Call(("kernel", "identities", "--config", identities,
              "--seed", str(rng.randrange(2**31))), _check_identities)
        for _ in range(3)
    ]
    cone = _write_config(workdir, "cone", {"n": 3, "c": list(_CONE_C), "t": 1.0,
                                           "lambda": list(_CONE_LAMBDA)})
    calls.append(Call(("kernel", "cone", "--config", cone), _check_cone))
    fm = _write_config(workdir, "fm", {"n": 2, "c": [1.0], "ratio": 1.0})
    calls.append(Call(("kernel", "fm", "--config", fm), _check_fm))
    calls.append(_prepare_toric(rng, workdir))

    partition = _glue_partition()
    glue = _write_config(workdir, "glue", {**_GLUE, "scheme": "spectral"})

    def check_glue(code, report):
        got = (report.get("localPoints"), report.get("globalPoints"), report.get("blendPoints"))
        if code != 0 or got != partition:
            return f"glue partition {got}, expected {partition}"
        margin = report.get("gluedMinMargin")
        if not (_number_le(margin, 1.0) and margin > 0) or report.get("marginConflict"):
            return f"glue margin {margin}, conflict {report.get('marginConflict')}"
        return None

    calls.append(Call(("psh", "glue", "--config", glue), check_glue))

    lelong = _write_config(workdir, "lelong", {
        "potential": {"gamma": _LELONG_GAMMA, "center": [0.1, -0.2]},
        "x": [0.1, -0.2],
        "deltaList": [0.02, 0.01, 0.005],
        "r": 0.4,
    })

    def check_lelong(code, report):
        values = list(report.get("nuAtDelta") or []) + [report.get("extrapolated")]
        target = 2.0 * _LELONG_GAMMA
        if code != 0 or len(values) != 4 or not all(_close(v, target, 1e-12) for v in values):
            return f"Lelong slopes {values}, expected {target}"
        return None

    calls.append(Call(("psh", "lelong", "--config", lelong), check_lelong))

    for kernel, n, truth in (("constant", 1, 4.0 / 13.0), ("polynomial", 3, _cn_polynomial(3))):
        cn = _write_config(workdir, f"cn-{kernel}", {"kernel": {"type": kernel}, "n": n})

        def check_cn(code, report, truth=truth):
            if code != 0 or not _close(report.get("cn"), truth, 1e-10):
                return f"c_n {report.get('cn')}, expected {truth}"
            return None

        calls.append(Call(("psh", "cn", "--config", cn), check_cn))
    return calls
