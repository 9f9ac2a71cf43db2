"""Acceptance gate: one test per release criterion.

Each test checks its criterion at the stated tolerance and prints a
single live pass/fail line (outside pytest's capture) so a full run
shows one line per criterion.  Tolerances and time budgets are asserted,
never relaxed; every expected value is either exact or backed by an
independent route computed in-line.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gma.kernel import (
    CoefficientSet,
    elem_sym,
    elem_sym_deleted,
    maclaurin_chain,
    min_avoidance_eigenvalue,
    source_floor,
)
from gma.psh import (
    RadialMollifier,
    SingularPotential,
    Box,
    check_uniform_cone,
    compute_cn,
    glue_potentials,
    lelong_level,
    regularized_max,
)
from gma.solver import (
    TorusGeometry,
    cohomology_integrals,
    cone_margin_field,
    continuity_solve,
    linearize,
    manufacture,
    residual,
    trig_polynomial,
)
from gma.toric import (
    ClassPolytopePair,
    RationalPolytope,
    check_criterion,
    minkowski_sum,
    mixed_volume,
)

PI2 = math.pi**2


def _announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


def _geom2(nx, chi=None, omega0=None):
    chi = np.eye(2) if chi is None else np.asarray(chi, dtype=float)
    omega0 = np.eye(2) if omega0 is None else np.asarray(omega0, dtype=float)
    return TorusGeometry(2, (nx, nx), chi, omega0)


def _two_mode(shape, amp):
    return trig_polynomial(
        shape,
        0.0,
        [
            {"amplitude": amp, "wave": (1, 0)},
            {"amplitude": 0.6 * amp, "wave": (0, 1), "phase": 0.7},
        ],
    )


# ---------------------------------------------------------------------------
# 1. symmetric-function identity suite
# ---------------------------------------------------------------------------

def test_criterion_1_kernel_identities(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    tol = 1e-12
    worst = 0.0

    # enumeration vs exact polynomial expansion: prod(1 + t lam_i)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        lam = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
        expanded = np.poly(-lam)  # [1, e_1, ..., e_n]
        for k in range(n + 1):
            rel = abs(elem_sym(lam, k) - expanded[k]) / abs(expanded[k])
            worst = max(worst, rel)

    # deletion recurrence e_k = e_{k;i} + lam_i e_{k-1;i}
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        lam = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
        i = int(rng.integers(0, n))
        for k in range(1, n + 1):
            whole = elem_sym(lam, k)
            rebuilt = elem_sym_deleted(lam, k, i) + lam[i] * elem_sym_deleted(
                lam, k - 1, i
            )
            worst = max(worst, abs(whole - rebuilt) / abs(whole))

    # normalized-mean chain is non-increasing
    worst_drop = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        lam = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
        chain = maclaurin_chain(lam)
        for hi, lo in zip(chain, chain[1:]):
            worst_drop = max(worst_drop, (lo - hi) / abs(hi))

    elapsed = time.perf_counter() - started
    ok = worst <= tol and worst_drop <= tol and elapsed < 10.0
    _announce(
        capsys,
        1,
        ok,
        f"identities max rel err {worst:.2e} (tol 1e-12), chain drop "
        f"{worst_drop:.2e}, {elapsed:.1f}s (< 10s)",
    )
    assert worst <= tol
    assert worst_drop <= tol
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. cone-region property suite
# ---------------------------------------------------------------------------

def test_criterion_2_cone_property_suite(capsys):
    import test_kernel_properties as props

    started = time.perf_counter()
    checks = (
        props.test_gradient_all_negative_on_cone_region,
        props.test_sorted_dominance_of_weighted_gradient,
        props.test_operator_positive_above_source_floor,
        props.test_segment_convexity_of_operator_value,
        props.test_euler_identity_matches_gradient_contraction,
        props.test_cone_region_closed_under_convex_combination,
    )
    for check in checks:
        check()
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    _announce(
        capsys,
        2,
        ok,
        f"{len(checks)} properties x {props.N_SAMPLES} cone samples, "
        f"{elapsed:.1f}s (< 30s)",
    )
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. frozen constants
# ---------------------------------------------------------------------------

def test_criterion_3_constants(capsys):
    floor = source_floor(CoefficientSet(2, (1.0,)), 1.0).floor
    floor_ok = floor == -1.0 / 512.0

    # independent enumeration + eigensolve, plus the closed form comb(n-2, z-1)
    eig_worst = 0.0
    for n in range(2, 7):
        for zeta in range(1, n):
            M = np.zeros((n, n))
            for subset in itertools.combinations(range(n), zeta):
                outside = [i for i in range(n) if i not in subset]
                for i in outside:
                    for j in outside:
                        M[i, j] += 1.0
            brute = float(np.linalg.eigvalsh(M)[0])
            closed = float(math.comb(n - 2, zeta - 1))
            eig_worst = max(
                eig_worst,
                abs(min_avoidance_eigenvalue(n, zeta) - brute),
                abs(brute - closed),
            )
    eig_ok = eig_worst <= 1e-9

    cn = compute_cn(RadialMollifier.constant(1))
    cn_ok = abs(cn - 4.0 / 13.0) <= 1e-10

    ok = floor_ok and eig_ok and cn_ok
    _announce(
        capsys,
        3,
        ok,
        f"floor {floor} (= -1/512: {floor_ok}), avoidance eig dev "
        f"{eig_worst:.1e}, |c_1 - 4/13| = {abs(cn - 4.0 / 13.0):.1e}",
    )
    assert floor_ok
    assert eig_ok
    assert cn_ok


# ---------------------------------------------------------------------------
# 4. solver correctness
# ---------------------------------------------------------------------------

def test_criterion_4_solver(capsys):
    started = time.perf_counter()

    # (a) linear 1-d problem against the closed form
    geom1 = TorusGeometry(1, (64,), np.array([[1.0]]), np.array([[1.0]]))
    f1 = trig_polynomial((64,), 1.0, [{"amplitude": 0.3, "wave": (1,)}])
    state1 = continuity_solve(geom1, CoefficientSet(1, ()), f1)
    x = geom1.axes()[0]
    closed = -(0.3 / PI2) * np.cos(2.0 * np.pi * x)
    closed -= closed.mean()
    err_1d = float(np.max(np.abs(state1.phi - closed)))

    # (b) manufactured 64^2 spectral recovery
    coeffs = CoefficientSet(2, (1.0,))
    geom = _geom2(64)
    phi_star = _two_mode(geom.grid_shape, 0.05)
    case = manufacture(geom, coeffs, phi_star)
    state = continuity_solve(geom, coeffs, case.f_grid)
    err_2d = float(np.max(np.abs(state.phi - case.phi_star)))
    slack = abs(state.slack)
    solve_seconds = time.perf_counter() - started

    # (c) finite-difference build converges at second order
    errs = []
    for nx in (16, 32, 64):
        g = _geom2(nx)
        star = _two_mode(g.grid_shape, 0.02)
        c = manufacture(g, coeffs, star)
        st = continuity_solve(replace(g, scheme="fd"), coeffs, c.f_grid)
        errs.append(float(np.max(np.abs(st.phi - c.phi_star))))
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    ratios_ok = all(3.5 <= r <= 4.5 for r in ratios)

    # (d) linearization vs centered directional differences
    geom_l = _geom2(16)
    coeffs_l = CoefficientSet(2, (0.8,)).with_c0(
        cohomology_integrals(geom_l).c0
    )
    f_l = trig_polynomial(
        geom_l.grid_shape, 0.5, [{"amplitude": 0.1, "wave": (1, 0)}]
    )
    phi_l = trig_polynomial(
        geom_l.grid_shape,
        0.0,
        [
            {"amplitude": 0.02, "wave": (1, 0)},
            {"amplitude": 0.015, "wave": (1, 1), "phase": 0.3},
        ],
    )
    psi = trig_polynomial(
        geom_l.grid_shape,
        0.0,
        [
            {"amplitude": 0.01, "wave": (0, 1)},
            {"amplitude": 0.007, "wave": (2, 1), "phase": 0.9},
        ],
    )
    psi -= psi.mean()
    lin = linearize(geom_l, coeffs_l, f_l, 0.7, phi_l)
    eps = 1e-5
    diff = (
        residual(geom_l, coeffs_l, f_l, 0.7, phi_l + eps * psi)
        - residual(geom_l, coeffs_l, f_l, 0.7, phi_l - eps * psi)
    ) / (2.0 * eps)
    applied = lin.apply(psi)
    lin_rel = float(np.max(np.abs(diff - applied)) / np.max(np.abs(applied)))

    # (e) positive cone margin at every accepted stage
    margins_ok = all(s["min_cone_margin"] > 0.0 for s in state.stages) and all(
        s["min_cone_margin"] > 0.0 for s in state1.stages
    )

    ok = (
        err_1d <= 1e-9
        and err_2d <= 1e-8
        and slack <= 1e-8
        and solve_seconds < 60.0
        and ratios_ok
        and lin_rel <= 1e-6
        and margins_ok
    )
    _announce(
        capsys,
        4,
        ok,
        f"1d err {err_1d:.1e} (<=1e-9), 64^2 err {err_2d:.1e} (<=1e-8) "
        f"slack {slack:.1e} in {solve_seconds:.1f}s, fd ratios "
        f"({ratios[0]:.2f}, {ratios[1]:.2f}) in [3.5,4.5], linearize rel "
        f"{lin_rel:.1e} (<=1e-6), stage margins > 0: {margins_ok}",
    )
    assert err_1d <= 1e-9
    assert err_2d <= 1e-8
    assert slack <= 1e-8
    assert solve_seconds < 60.0
    assert ratios_ok
    assert lin_rel <= 1e-6
    assert margins_ok


# ---------------------------------------------------------------------------
# 5. constant-solution continuity path
# ---------------------------------------------------------------------------

def test_criterion_5_constant_path(capsys):
    geom = _geom2(16)
    coeffs = CoefficientSet(2, (1.0,))
    f = np.zeros(geom.grid_shape)
    ints = cohomology_integrals(geom, coeffs, f)
    state = continuity_solve(geom, coeffs, f)
    sup = float(np.max(np.abs(state.phi)))
    resid_sup = max(s["residual_sup"] for s in state.stages)
    ok = ints.c0 == 1.0 and sup <= 1e-10 and resid_sup <= 1e-10
    _announce(
        capsys,
        5,
        ok,
        f"c0 = {ints.c0} (exact 1.0), sup|phi| = {sup} (<=1e-10), "
        f"stage residual sup {resid_sup}",
    )
    assert ints.c0 == 1.0
    assert sup <= 1e-10
    assert resid_sup <= 1e-10


# ---------------------------------------------------------------------------
# 6. toric criterion checker
# ---------------------------------------------------------------------------

def _random_polygon(rng):
    while True:
        pts = [
            (Fraction(int(rng.integers(-6, 7))), Fraction(int(rng.integers(-6, 7))))
            for _ in range(int(rng.integers(3, 8)))
        ]
        try:
            return RationalPolytope(pts)
        except ValueError:
            continue


def test_criterion_6_toric(capsys):
    started = time.perf_counter()
    half = Fraction(1, 2)

    p2 = ClassPolytopePair(
        RationalPolytope([(0, 0), (2, 0), (0, 2)]),
        RationalPolytope([(0, 0), (1, 0), (0, 1)]),
    )
    rep_pass = check_criterion(p2, [Fraction(2)])
    p2_ok = rep_pass.passed and rep_pass.epsilon_uniform == half

    blowup = ClassPolytopePair(
        RationalPolytope([(0, 1), (0, 2), (2, 0), (1, 0)]),
        RationalPolytope(
            [(0, Fraction(9, 10)), (0, 1), (1, 0), (Fraction(9, 10), 0)]
        ),
        face_labels={(-1, -1): "E"},
    )
    rep_fail = check_criterion(blowup, [Fraction(30, 11)])
    worst = {row.face_id: row for row in rep_fail.per_face}["E"]
    blowup_ok = (
        not rep_fail.passed
        and rep_fail.worst_face == "E"
        and worst.lhs == Fraction(-5, 11)
    )

    square = RationalPolytope([(0, 0), (1, 0), (1, 1), (0, 1)])
    triangle = RationalPolytope([(0, 0), (1, 0), (0, 1)])
    mv_ok = mixed_volume([square, triangle]) == Fraction(1)

    rng = np.random.default_rng(6)
    multilinear_ok = True
    for _ in range(20):
        p, q, r = (_random_polygon(rng) for _ in range(3))
        lhs = mixed_volume([minkowski_sum(p, r), q])
        rhs = mixed_volume([p, q]) + mixed_volume([r, q])
        multilinear_ok = multilinear_ok and lhs == rhs

    elapsed = time.perf_counter() - started
    ok = p2_ok and blowup_ok and mv_ok and multilinear_ok and elapsed < 5.0
    _announce(
        capsys,
        6,
        ok,
        f"plane pass eps = {rep_pass.epsilon_uniform} (exact 1/2), blowup "
        f"fails on E with lhs = {worst.lhs} (exact -5/11), MV(square,"
        f"triangle) = 1: {mv_ok}, multilinear on 20 random triples: "
        f"{multilinear_ok}, {elapsed:.1f}s (< 5s)",
    )
    assert p2_ok
    assert blowup_ok
    assert mv_ok
    assert multilinear_ok
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 7. potential-theory toolbox
# ---------------------------------------------------------------------------

def test_criterion_7_psh(capsys):
    defects = [
        RadialMollifier.polynomial(n).normalization_defect for n in (1, 2, 3)
    ] + [RadialMollifier.constant(n).normalization_defect for n in (1, 2, 3)]
    norm_ok = max(abs(d) for d in defects) <= 1e-8

    gamma, r = 0.7, 0.2
    pole = SingularPotential(
        gamma, (0.0, 0.0), None, Box((-1.0, -1.0), (1.0, 1.0))
    )
    table = lelong_level(
        pole, (0.0, 0.0), [r / 8.0, r / 16.0, r / 32.0], r
    )
    lelong_dev = max(abs(nu - 2.0 * gamma) for nu in table.nu_at_delta)
    lelong_ok = lelong_dev <= 1e-6

    geom = _geom2(32)
    coeffs = CoefficientSet(2, (1.0,))
    phi03 = trig_polynomial(
        geom.grid_shape, 0.0, [{"amplitude": 2.0 / (7.0 * PI2), "wave": (1, 0)}]
    )
    assert cone_margin_field(geom, coeffs, 1.0, phi03).min_margin == pytest.approx(
        0.3, rel=1e-12
    )
    jensen = check_uniform_cone(
        geom,
        coeffs,
        1.0,
        phi03,
        epsilon=0.29,
        delta_list=[0.05, 0.1, 0.2],
        chi0_scalings=[1.0, 0.9, 0.5],
    )
    jensen_ok = jensen.passed and all(
        row["min_margin"] >= 0.3 - 1e-10 for row in jensen.rows
    )

    rng = np.random.default_rng(7)
    switch_ok = True
    for _ in range(200):
        b = float(rng.uniform(-5.0, 5.0))
        eta = float(rng.uniform(0.05, 1.0))
        a = b + (eta + float(rng.uniform(0.0, 2.0))) * (
            1.0 if rng.uniform() < 0.5 else -1.0
        )
        switch_ok = switch_ok and regularized_max([a, b], eta) == max(a, b)
    sweep = [
        regularized_max([a, 0.3], 0.4)
        for a in np.linspace(0.3 - 0.8, 0.3 + 0.8, 161)
    ]
    mono_ok = all(y2 - y1 >= -1e-12 for y1, y2 in zip(sweep, sweep[1:]))

    geom64 = replace(_geom2(64), scheme="fd")
    u = trig_polynomial(
        geom64.grid_shape, 0.0, [{"amplitude": 2.0 / (7.0 * PI2), "wave": (1, 0)}]
    )
    v = trig_polynomial(
        geom64.grid_shape, 0.0, [{"amplitude": 1.0 / (6.0 * PI2), "wave": (0, 1)}]
    )
    glue = glue_potentials(geom64, coeffs, 1.0, u, v, eta=0.01, offset=0.0)
    glue_ok = (
        glue.blend_points > 0
        and not glue.margin_conflict
        and glue.glued_min_margin >= 0.3 - 1e-8
    )

    ok = norm_ok and lelong_ok and jensen_ok and switch_ok and mono_ok and glue_ok
    _announce(
        capsys,
        7,
        ok,
        f"normalization defect {max(abs(d) for d in defects):.1e} (<=1e-8), "
        f"Lelong dev {lelong_dev:.1e} (<=1e-6), Jensen rows >= 0.3: "
        f"{jensen_ok}, reg-max switch/monotone: {switch_ok}/{mono_ok}, "
        f"glued margin {glue.glued_min_margin:.6f} >= 0.3 - 1e-8: {glue_ok}",
    )
    assert norm_ok
    assert lelong_ok
    assert jensen_ok
    assert switch_ok
    assert mono_ok
    assert glue_ok


# ---------------------------------------------------------------------------
# 8. end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_8_cli_determinism(capsys, tmp_path, run_gma_cli):
    config = {
        "schemaVersion": 1,
        "n": 2,
        "gridShape": [16, 16],
        "chi": [[1.0, 0.0], [0.0, 1.0]],
        "omega0": [[1.0, 0.0], [0.0, 1.0]],
        "c": [1.0],
        "f": {"constant": 0.0},
    }
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        proc = run_gma_cli(
            [
                "solve",
                "run",
                "--config",
                str(cfg),
                "--out",
                str(out_dir),
                "--seed",
                "0",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            (
                proc.stdout,
                (out_dir / "report.json").read_bytes(),
                (out_dir / "phi.grid").read_bytes(),
                json.loads((out_dir / "timings.json").read_text()),
            )
        )
    stdout_same = outputs[0][0] == outputs[1][0]
    report_same = outputs[0][1] == outputs[1][1]
    grid_same = outputs[0][2] == outputs[1][2]
    timings_quarantined = (
        "wallSeconds" not in json.loads(outputs[0][0])
        and "wallSeconds" in outputs[0][3]
    )
    ok = stdout_same and report_same and grid_same and timings_quarantined
    _announce(
        capsys,
        8,
        ok,
        f"repeated runs byte-identical (stdout {stdout_same}, report "
        f"{report_same}, grid {grid_same}); timings kept out of the report: "
        f"{timings_quarantined}",
    )
    assert stdout_same
    assert report_same
    assert grid_same
    assert timings_quarantined
