"""Torus solver: differentiation schemes, residual/linearization consistency,
continuity marching, manufactured recovery, and failure modes."""

import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from kernel_oracle import operator_value
from solver_oracle import mesh, potential_hessian

from gma import exceptions, solver
from gma.exceptions import (
    CompatibilityError,
    ConeBreachError,
    GmaError,
    LinearSolveStallError,
    MaxIterationsError,
    StepUnderflowError,
)
from gma.kernel import CoefficientSet, elem_sym
from gma.solver import (
    ClassPathReport,
    ClassPathRow,
    NewtonStep,
    TorusGeometry,
    class_path_probe,
    cohomology_integrals,
    cone_margin_field,
    continuity_solve,
    eigenvalue_field,
    form_eigenvalues,
    linearize,
    manufacture,
    newton_solve,
    residual,
    trig_polynomial,
)

PI2 = math.pi**2


def geom1(nx=64, scheme="spectral"):
    return TorusGeometry(1, (nx,), np.array([[1.0]]), np.array([[1.0]]), scheme)


def geom2(nx=32, chi=None, omega0=None, scheme="spectral"):
    chi = np.eye(2) if chi is None else np.asarray(chi, dtype=float)
    omega0 = np.eye(2) if omega0 is None else np.asarray(omega0, dtype=float)
    return TorusGeometry(2, (nx, nx), chi, omega0, scheme)


def two_mode(shape, amp):
    n = len(shape)
    terms = []
    for axis in range(n):
        wave = [0] * n
        wave[axis] = 1
        terms.append({"amplitude": amp, "wave": wave})
    return trig_polynomial(shape, 0.0, terms)


# ---------------------------------------------------------------------------
# geometry and field plumbing
# ---------------------------------------------------------------------------

def test_geometry_validation():
    with pytest.raises(ValueError):
        TorusGeometry(4, (8, 8, 8, 8), np.eye(4), np.eye(4))
    with pytest.raises(ValueError):
        TorusGeometry(2, (8,), np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        TorusGeometry(1, (15,), np.eye(1), np.eye(1))
    with pytest.raises(ValueError):
        TorusGeometry(1, (6,), np.eye(1), np.eye(1))
    with pytest.raises(ValueError):
        TorusGeometry(2, (8, 8), np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError):
        TorusGeometry(2, (8, 8), np.eye(2), np.array([[1.0, 0.5], [0.4, 1.0]]))


def test_geometry_refuses_more_than_2_22_points():
    # by shape only: a geometry allocates no grid until one of its fields is used
    for shape in [(2048, 2048), (256, 128, 128), (2**22,)]:
        TorusGeometry(len(shape), shape, np.eye(len(shape)), np.eye(len(shape)))
    for shape in [(2048, 2050), (256, 256, 128), (2**22 + 2,)]:
        with pytest.raises(ValueError, match="exceed the limit 4194304"):
            TorusGeometry(len(shape), shape, np.eye(len(shape)), np.eye(len(shape)))


def test_spectral_hessian_exact_on_cosine():
    geom = geom1(64)
    phi = trig_polynomial(geom.grid_shape, 0.0, [{"amplitude": 1.0, "wave": (1,)}])
    H = potential_hessian(geom, phi)
    x = geom.axes()[0]
    expected = -4.0 * PI2 * np.cos(2.0 * np.pi * x)
    assert np.max(np.abs(H[:, 0, 0] - expected)) <= 1e-10 * 4.0 * PI2


def test_fd_hessian_second_order_on_cosine():
    errs = []
    for nx in (16, 32, 64):
        geom = geom1(nx, scheme="fd")
        phi = trig_polynomial(geom.grid_shape, 0.0, [{"amplitude": 1.0, "wave": (1,)}])
        H = potential_hessian(geom, phi)
        x = geom.axes()[0]
        expected = -4.0 * PI2 * np.cos(2.0 * np.pi * x)
        errs.append(np.max(np.abs(H[:, 0, 0] - expected)))
    assert 3.8 <= errs[0] / errs[1] <= 4.2
    assert 3.8 <= errs[1] / errs[2] <= 4.2


def test_mixed_fd_stencil_second_order():
    errs = []
    for nx in (16, 32, 64):
        shape = (nx, nx)
        phi = trig_polynomial(shape, 0.0, [{"amplitude": 1.0, "wave": (1, 1)}])
        geom = geom2(nx, scheme="fd")
        H = potential_hessian(geom, phi)
        xs, ys = mesh(geom)
        expected = -4.0 * PI2 * np.cos(2.0 * np.pi * (xs + ys))
        errs.append(np.max(np.abs(H[..., 0, 1] - expected)))
    assert 3.8 <= errs[0] / errs[1] <= 4.2
    assert 3.8 <= errs[1] / errs[2] <= 4.2


def test_eigenvalue_field_matches_generalized_pointwise_solver():
    rng = np.random.default_rng(7)
    chi = np.array([[2.0, 0.3], [0.3, 1.0]])
    omega0 = np.array([[1.0, 0.2], [0.2, 1.5]])
    geom = geom2(16, chi, omega0)
    phi = trig_polynomial(
        geom.grid_shape,
        0.0,
        [
            {"amplitude": 0.01, "wave": (1, 0)},
            {"amplitude": 0.008, "wave": (0, 1), "phase": 0.4},
            {"amplitude": 0.005, "wave": (1, 1), "phase": 1.1},
        ],
    )
    lam = eigenvalue_field(geom, phi)
    H = potential_hessian(geom, phi)
    for _ in range(25):
        i, j = rng.integers(0, 16, size=2)
        pointwise = scipy.linalg.eigh(
            omega0 + 0.25 * H[i, j], chi, eigvals_only=True
        )
        assert np.allclose(lam[i, j], pointwise, rtol=1e-10, atol=1e-12)


def test_eigenvalue_field_three_dimensional_oracle():
    rng = np.random.default_rng(11)
    chi = np.diag([1.0, 2.0, 1.5])
    omega0 = np.array([[1.0, 0.1, 0.0], [0.1, 1.2, 0.05], [0.0, 0.05, 0.9]])
    geom = TorusGeometry(3, (8, 8, 8), chi, omega0)
    phi = trig_polynomial(
        geom.grid_shape,
        0.0,
        [
            {"amplitude": 0.004, "wave": (1, 0, 0)},
            {"amplitude": 0.003, "wave": (0, 1, 1), "phase": 0.7},
        ],
    )
    lam = eigenvalue_field(geom, phi)
    H = potential_hessian(geom, phi)
    for _ in range(10):
        i, j, k = rng.integers(0, 8, size=3)
        pointwise = scipy.linalg.eigh(
            omega0 + 0.25 * H[i, j, k], chi, eigvals_only=True
        )
        assert np.allclose(lam[i, j, k], pointwise, rtol=1e-10, atol=1e-12)


def test_gauge_invariance_is_bitwise_for_dyadic_data():
    rng = np.random.default_rng(3)
    geom = geom2(16)
    phi = rng.integers(0, 8, size=geom.grid_shape).astype(float) / 2.0**20
    shifted = phi + 0.5
    coeffs = CoefficientSet(2, (1.0,)).with_c0(1.0)
    f = np.zeros(geom.grid_shape)
    r1 = residual(geom, coeffs, f, 0.5, phi)
    r2 = residual(geom, coeffs, f, 0.5, shifted)
    assert np.array_equal(r1, r2)


def test_potential_field_validation():
    geom = geom1(16)
    with pytest.raises(ValueError, match="non-finite"):
        eigenvalue_field(geom, np.array([1.0, np.nan] * 8))
    with pytest.raises(ValueError):
        residual(
            geom, CoefficientSet(1, ()).with_c0(1.0),
            np.ones(16), 1.0, np.zeros(8),
        )
    with pytest.raises(ValueError, match="unknown scheme"):
        TorusGeometry(1, (16,), np.eye(1), np.eye(1), scheme="compact")


def test_trig_polynomial_values_and_guards():
    vals = trig_polynomial((16,), 2.0)
    assert np.array_equal(vals, np.full(16, 2.0))
    with pytest.raises(ValueError):
        trig_polynomial((16,), 0.0, [{"amplitude": 1.0, "wave": (1, 1)}])


# ---------------------------------------------------------------------------
# residual, margins, linearization
# ---------------------------------------------------------------------------

def test_residual_requires_c0_before_endpoint():
    geom = geom2(16)
    f = np.zeros(geom.grid_shape)
    with pytest.raises(ValueError):
        residual(geom, CoefficientSet(2, (1.0,)), f, 0.5, np.zeros(geom.grid_shape))
    # the endpoint equation does not involve c0
    r = residual(geom, CoefficientSet(2, (1.0,)), f, 1.0, np.zeros(geom.grid_shape))
    assert np.allclose(r, 0.0, atol=1e-14)


def test_residual_detects_lost_positivity():
    geom = geom2(16)
    coeffs = CoefficientSet(2, (1.0,)).with_c0(1.0)
    phi = two_mode(geom.grid_shape, 1.0)
    f = np.zeros(geom.grid_shape)
    with pytest.raises(ConeBreachError):
        residual(geom, coeffs, f, 0.5, phi)
    with pytest.raises(ConeBreachError, match="linearize: deformed form lost positivity"):
        linearize(geom, coeffs, f, 0.5, phi)
    with pytest.raises(ConeBreachError, match="cone_margin_field: deformed form lost positivity"):
        cone_margin_field(geom, coeffs, 0.5, phi)


def test_residual_matches_kernel_operator_value():
    # r = e_n(lam) (1 - V(t, f, lam)) - slack pointwise, V the scalar kernel oracle
    slack = 0.01
    cases = [((16,), ()), ((12, 12), (0.0,)), ((12, 12), (0.7,)),
             ((8, 8, 8), (0.0, 0.6)), ((8, 8, 8), (0.4, 0.9))]
    for shape, c in cases:
        geom, phi, _ = _rough_case(shape, seed=3)
        f = np.random.default_rng(5).uniform(-0.5, 1.0, size=shape)
        bare = CoefficientSet(len(shape), c)
        coeffs = bare.with_c0(0.37)
        lam = eigenvalue_field(geom, phi)
        e_n = lam.prod(axis=-1)
        for t in (0.0, 0.3, 1.0):
            r = residual(geom, coeffs, f, t, phi, slack)
            expected = np.empty(shape)
            for idx in np.ndindex(shape):
                value = operator_value(coeffs, t, f[idx], lam[idx])
                expected[idx] = e_n[idx] * (1.0 - value) - slack
            assert np.abs(r - expected).max() <= 1e-13 * e_n.max(), (shape, c, t)
        first = (0,) * len(shape)
        with pytest.raises(ValueError, match="c0 is required"):
            residual(geom, bare, f, 0.3, phi, slack)
        with pytest.raises(ValueError, match="c0 is required"):
            operator_value(bare, 0.3, f[first], lam[first])


def test_cone_margin_frozen_values():
    geom = geom2(64)
    coeffs = CoefficientSet(2, (1.0,))
    flat = cone_margin_field(geom, coeffs, 1.0, np.zeros(geom.grid_shape))
    assert flat.min_margin == pytest.approx(0.5, rel=1e-14)
    amp = 2.0 / (7.0 * PI2)
    phi = two_mode(geom.grid_shape, amp)
    report = cone_margin_field(geom, coeffs, 1.0, phi)
    assert report.min_margin == pytest.approx(0.3, rel=1e-12)
    assert report.field.shape == geom.grid_shape
    # with no positive coefficients the load vanishes and the margin is 1
    trivial = cone_margin_field(geom1(16), CoefficientSet(1, ()), 1.0, np.zeros(16))
    assert trivial.min_margin == 1.0


def test_cone_margin_grid_refinement_agreement():
    coeffs = CoefficientSet(2, (1.0,))
    mins = []
    for nx in (32, 64):
        geom = geom2(nx)
        phi = two_mode(geom.grid_shape, 0.01)
        mins.append(cone_margin_field(geom, coeffs, 1.0, phi).min_margin)
    assert abs(mins[0] - mins[1]) <= 1e-3


# chi != I, so the reduced coordinates differ from the original ones;
# phi and psi waves per dimension
DIRECTIONAL_CASES = {
    1: ((16,), [[1.2]], [[0.9]], (),
        [(1,), (2,)], [(1,), (3,)]),
    2: ((16, 16), [[1.0, 0.2], [0.2, 0.8]], [[1.3, 0.1], [0.1, 1.1]], (0.8,),
        [(1, 0), (1, 1)], [(0, 1), (2, 1)]),
    3: ((8, 8, 8), [[1.0, 0.1, 0.0], [0.1, 0.9, 0.1], [0.0, 0.1, 1.1]],
        [[1.3, 0.1, 0.05], [0.1, 1.2, 0.0], [0.05, 0.0, 1.25]], (0.8, 0.3),
        [(1, 0, 1), (1, 1, 0)], [(0, 1, 1), (2, 1, 0)]),
}


@pytest.mark.parametrize("scheme", ["spectral", "fd"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_linearize_matches_directional_difference(n, scheme):
    shape, chi, omega0, c, phi_waves, psi_waves = DIRECTIONAL_CASES[n]
    geom = TorusGeometry(n, shape, np.array(chi), np.array(omega0), scheme)
    coeffs = CoefficientSet(n, c)
    ints = cohomology_integrals(geom)
    coeffs = coeffs.with_c0(ints.c0)
    f = trig_polynomial(
        geom.grid_shape, 0.5, [{"amplitude": 0.1, "wave": (1,) + (0,) * (n - 1)}]
    )
    phi = trig_polynomial(
        geom.grid_shape,
        0.0,
        [
            {"amplitude": 0.02, "wave": phi_waves[0]},
            {"amplitude": 0.015, "wave": phi_waves[1], "phase": 0.3},
        ],
    )
    psi = trig_polynomial(
        geom.grid_shape,
        0.0,
        [
            {"amplitude": 0.01, "wave": psi_waves[0]},
            {"amplitude": 0.007, "wave": psi_waves[1], "phase": 0.9},
        ],
    )
    psi -= psi.mean()
    t = 0.7
    lin = linearize(geom, coeffs, f, t, phi)
    eps = 1e-5
    diff = (
        residual(geom, coeffs, f, t, phi + eps * psi)
        - residual(geom, coeffs, f, t, phi - eps * psi)
    ) / (2.0 * eps)
    applied = lin.apply(psi)
    rel = np.max(np.abs(diff - applied)) / np.max(np.abs(applied))
    assert rel <= 1e-6
    assert lin.slack_direction == -1.0
    sdiff = (
        residual(geom, coeffs, f, t, phi, slack=eps)
        - residual(geom, coeffs, f, t, phi, slack=-eps)
    ) / (2.0 * eps)
    assert np.allclose(sdiff, -1.0, rtol=0, atol=1e-11)


# ---------------------------------------------------------------------------
# Cholesky-folded half-spectrum pipeline against direct formulas
# ---------------------------------------------------------------------------

FOLD_SHAPES = [(32,), (16, 16), (8, 10, 12)]


def _fftn_hessian(values):
    """Hessian from the full complex spectrum, keeping the real part."""
    shape = values.shape
    n = len(shape)
    phat = np.fft.fftn(values)
    kk = np.meshgrid(*[np.fft.fftfreq(s, d=1.0 / s) for s in shape], indexing="ij")
    H = np.zeros(shape + (n, n))
    for a in range(n):
        for b in range(n):
            mult = -((2.0 * np.pi) ** 2) * kk[a] * kk[b]
            H[..., a, b] = np.fft.ifftn(mult * phat).real
    return H


def _random_spd(rng, n, spread=1.0):
    R, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return R @ np.diag(rng.uniform(1.0, 1.0 + spread, size=n)) @ R.T


def _rough_case(shape, seed):
    """Random backgrounds and white-noise phi scaled to keep Omega_phi > 0."""
    rng = np.random.default_rng(seed)
    n = len(shape)
    chi = _random_spd(rng, n)
    omega0 = _random_spd(rng, n)
    geom = TorusGeometry(n, shape, chi, omega0)
    phi = rng.uniform(-1.0, 1.0, size=shape)
    phi -= phi.mean()
    H = _fftn_hessian(phi)
    floor = np.linalg.eigvalsh(np.linalg.solve(chi, omega0)).min()
    scale = 0.3 * floor / np.abs(0.25 * H).max()
    return geom, scale * phi, scale * H


def _reduced_oracle(geom, H):
    Linv = np.linalg.inv(np.linalg.cholesky(geom.chi))
    return (
        np.einsum("ij,...jk,lk->...il", Linv, geom.omega0 + 0.25 * H, Linv),
        np.einsum("ij,...jk,lk->...il", Linv, 0.25 * H, Linv),
    )


@pytest.mark.parametrize("shape", FOLD_SHAPES)
def test_half_spectrum_hessian_matches_full_spectrum(shape):
    geom, phi, H = _rough_case(shape, 20)
    err = np.abs(potential_hessian(geom, phi) - H).max()
    assert err <= 1e-12 * np.abs(H).max()


def _stencil_quarter_hessian(values):
    """(1/4) d_a d_b by the centred second-order stencils, stacked over pairs a <= b."""
    shape = values.shape
    n = len(shape)
    ahead = [np.roll(values, -1, axis=a) for a in range(n)]
    behind = [np.roll(values, 1, axis=a) for a in range(n)]
    comps = []
    for a in range(n):
        for b in range(a, n):
            if a == b:
                dd = (ahead[a] - 2.0 * values + behind[a]) * shape[a] ** 2
            else:
                pp = np.roll(ahead[a], -1, axis=b)
                pm = np.roll(ahead[a], 1, axis=b)
                mp = np.roll(behind[a], -1, axis=b)
                mm = np.roll(behind[a], 1, axis=b)
                dd = (pp - pm - mp + mm) * shape[a] * shape[b] / 4.0
            comps.append(0.25 * dd)
    return np.stack(comps)


@pytest.mark.parametrize("shape", [(32,), (32, 32), (12, 20), (8, 10, 12), (16, 16, 16)])
def test_fd_multiplier_matches_stencil(shape):
    geom, phi, _ = _rough_case(shape, 22)
    geom = replace(geom, scheme="fd")
    quarter = _stencil_quarter_hessian(phi)
    scale = np.abs(quarter).max()
    got = solver._filter(geom, phi, geom._quarter_symbols())
    assert np.abs(got - quarter).max() <= 1e-13 * scale
    got = solver._components(potential_hessian(geom, phi))
    assert np.abs(got - 4.0 * quarter).max() <= 1e-13 * 4.0 * scale
    H = 4.0 * np.moveaxis(quarter[geom._pair_index], (0, 1), (-2, -1))
    M, _ = _reduced_oracle(geom, H)
    got = solver._reduced_field(geom, phi)
    assert np.abs(got - solver._components(M)).max() <= 1e-13 * np.abs(M).max()


@pytest.mark.parametrize("shape", FOLD_SHAPES)
def test_reduced_field_matches_sandwiched_full_spectrum_hessian(shape):
    geom, phi, H = _rough_case(shape, 21)
    reduced = solver._reduced_field(geom, phi)
    oracle, hess_part = _reduced_oracle(geom, H)
    err = np.abs(reduced - solver._components(oracle)).max()
    assert err <= 1e-12 * np.abs(hess_part).max()


@pytest.mark.parametrize("shape", FOLD_SHAPES)
def test_linearize_q_matches_eigenvector_formula(shape):
    # the derivative P in the reduced coordinates M = L^{-1} Omega_phi L^{-T}
    geom, phi, H = _rough_case(shape, 22)
    n = geom.n
    c = (0.7, 0.4)[: n - 1]
    coeffs = CoefficientSet(n, c).with_c0(1.0)
    t = 0.6
    lin = linearize(geom, coeffs, np.zeros(shape), t, phi)
    oracle, _ = _reduced_oracle(geom, H)
    rng = np.random.default_rng(5)
    for _ in range(20):
        idx = tuple(int(rng.integers(0, s)) for s in shape)
        lam, vec = np.linalg.eigh(oracle[idx])
        # dG/dlam_i = e_{n-1}(lam without i) - t sum_k c_k/C(n,k) e_{k-1}(lam without i)
        g = np.empty(n)
        for i in range(n):
            rest = np.delete(lam, i)
            g[i] = elem_sym(rest, n - 1) - sum(
                t * c[k - 1] / math.comb(n, k) * elem_sym(rest, k - 1)
                for k in range(1, n)
            )
        P = (vec * g) @ vec.T
        got = lin.p_field[(slice(None), *idx)]
        assert np.abs(got - solver._components(P)).max() <= 1e-12 * np.abs(P).max()


@pytest.mark.parametrize("n", [2, 3])
def test_form_eigenvalues_read_the_symmetric_part(n):
    # a form field with an antisymmetric part has the generalized
    # eigenvalues of its symmetric part against chi
    rng = np.random.default_rng(30 + n)
    chi = np.eye(n) + 0.3 * np.ones((n, n))
    geom = TorusGeometry(n, (8,) * n, chi, np.eye(n))
    A = rng.normal(size=geom.grid_shape + (n, n))
    sym = A @ np.swapaxes(A, -1, -2) + 0.5 * np.eye(n)
    skew = rng.normal(size=A.shape)
    got = form_eigenvalues(geom, sym + skew - np.swapaxes(skew, -1, -2))
    for idx in np.ndindex(geom.grid_shape):
        reference = scipy.linalg.eigh(sym[idx], chi, eigvals_only=True)
        assert np.all(np.abs(got[idx] - reference) <= 1e-13 * np.abs(reference))


@pytest.mark.parametrize("k", range(5))
def test_two_by_two_closed_form_matches_eigvalsh(k):
    rng = np.random.default_rng(30 + k)
    geom = geom2(16)  # chi = I, so the forms are their own reductions
    lam = np.stack(
        [10.0**-k * rng.uniform(0.5, 2.0, 256), 10.0**k * rng.uniform(0.5, 2.0, 256)],
        axis=-1,
    )
    theta = rng.uniform(0.0, np.pi, 256)
    R = np.stack(
        [np.stack([np.cos(theta), -np.sin(theta)], -1),
         np.stack([np.sin(theta), np.cos(theta)], -1)],
        axis=-2,
    )
    omega = (R * lam[:, None, :]) @ np.swapaxes(R, -1, -2)
    omega = 0.5 * (omega + np.swapaxes(omega, -1, -2))
    closed = form_eigenvalues(geom, omega.reshape(16, 16, 2, 2)).reshape(256, 2)
    reference = np.linalg.eigvalsh(omega)
    lam_max = reference[:, 1:]
    assert np.all(np.abs(closed - reference) <= 1e-14 * lam_max)
    # diagonal forms keep the small eigenvalue to full relative accuracy
    diag = np.zeros((16, 16, 2, 2))
    diag[..., 0, 0] = lam[:, 0].reshape(16, 16)
    diag[..., 1, 1] = lam[:, 1].reshape(16, 16)
    closed = form_eigenvalues(geom, diag)
    smaller = lam.min(axis=-1).reshape(16, 16)
    assert np.all(np.abs(closed[..., 0] / smaller - 1.0) <= 4e-16)


def _rotated(rng, lam):
    """Symmetric 3 x 3 matrices Q diag(lam) Q^T with random rotations Q."""
    Q, R = np.linalg.qr(rng.standard_normal(lam.shape + (3,)))
    Q = Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[:, None, :]
    M = (Q * lam[:, None, :]) @ np.swapaxes(Q, -1, -2)
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _form_eigenvalues_3d(M):
    """form_eigenvalues of 512 matrices on an 8^3 grid with chi = I, so the
    forms are their own reductions."""
    geom = TorusGeometry(3, (8, 8, 8), np.eye(3), np.eye(3))
    return form_eigenvalues(geom, M.reshape(8, 8, 8, 3, 3)).reshape(-1, 3)


_DYADIC = 2**1074  # every finite double times this is an integer


def _count_below(A, x):
    """How many eigenvalues of the symmetric 3 x 3 integer matrix A / _DYADIC
    lie below the double x, in exact arithmetic.

    By Sylvester's law of inertia this is the number of sign changes along
    1, D1, D2, D3, the leading principal minors of A / _DYADIC - x I.
    """
    xs = int(Fraction(x) * _DYADIC)
    b = [[A[i][j] - (xs if i == j else 0) for j in range(3)] for i in range(3)]
    d2 = b[0][0] * b[1][1] - b[0][1] * b[1][0]
    d3 = (
        b[0][0] * (b[1][1] * b[2][2] - b[1][2] * b[2][1])
        - b[0][1] * (b[1][0] * b[2][2] - b[1][2] * b[2][0])
        + b[0][2] * (b[1][0] * b[2][1] - b[1][1] * b[2][0])
    )
    minors = (1, b[0][0], d2, d3)
    assert all(minors), "bisection point hit a principal-minor eigenvalue"
    return sum((p > 0) != (q > 0) for p, q in zip(minors, minors[1:]))


def _exact_spd_eigenvalues(M):
    """Ascending eigenvalues of a 3 x 3 SPD double matrix, each within one ulp:
    bisection on the bit patterns of positive doubles (ordered like the
    doubles) with the exact inertia count."""
    A = [[int(Fraction(float(v)) * _DYADIC) for v in row] for row in M]
    top = int(np.float64(2.0 * np.abs(M).sum(axis=1).max()).view(np.int64))
    out = []
    for i in range(3):
        lo, hi = 0, top  # count_below(lo) <= i < count_below(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _count_below(A, float(np.int64(mid).view(np.float64))) > i:
                hi = mid
            else:
                lo = mid
        out.append(float(np.int64(lo).view(np.float64)))
    return np.array(out)


@pytest.mark.parametrize("k", range(5))
def test_three_by_three_jacobi_matches_eigvalsh(k):
    rng = np.random.default_rng(60 + k)
    m = 512
    u = rng.uniform(0.5, 2.0, (m, 3))
    scale = 10.0 ** rng.uniform(-k, k, (m, 1))
    spectra = [
        u * [10.0**-k, 1.0, 10.0**k],  # one small, one large eigenvalue
        u * [10.0**-k, 10.0**-k, 1.0],  # two eigenvalues near 10^-k
        rng.choice([-1.0, 1.0], (m, 3)) * u * 10.0 ** rng.uniform(-k, k, (m, 3)),  # indefinite
    ]
    for gap in (1e-9, 1e-15):
        spectra.append(np.concatenate([scale, scale * (1.0 + gap), u[:, 2:]], axis=1))
        spectra.append(scale * [1.0, 1.0 + gap, 1.0 + 2.0 * gap])
    forms = [_rotated(rng, lam) for lam in spectra]
    A = _rotated(rng, u)
    D = 10.0 ** rng.uniform(-k, k, (m, 3))
    graded = D[:, :, None] * A * D[:, None, :]
    graded = 0.5 * (graded + np.swapaxes(graded, -1, -2))
    diagonal = np.zeros((m, 3, 3))
    diag_values = u * 10.0 ** rng.uniform(-2 * k, 2 * k, (m, 3))
    diagonal[:, range(3), range(3)] = diag_values
    for M in forms + [graded, diagonal]:
        got = _form_eigenvalues_3d(M)
        reference = np.linalg.eigvalsh(M)
        bound = 1e-13 * np.abs(reference).max(axis=-1, keepdims=True)
        assert np.all(np.abs(got - reference) <= bound)
    # full relative accuracy on diagonal and graded forms
    got = _form_eigenvalues_3d(diagonal)
    assert np.all(np.abs(got / np.sort(diag_values, axis=-1) - 1.0) <= 1e-13)
    got = _form_eigenvalues_3d(graded)
    for i in range(24):
        exact = _exact_spd_eigenvalues(graded[i])
        assert np.all(np.abs(got[i] / exact - 1.0) <= 1e-13)


def test_jacobi_sorting_network_equals_np_sort_with_ties():
    # diagonal fields: Jacobi leaves the diagonal as it is, so only the network sorts
    rng = np.random.default_rng(9)
    diag = rng.choice([-1.5, 0.5, 1.0, 2.0], size=(3, 40, 7))
    diag[:, 0] = 1.0
    M = np.zeros((6, 40, 7))
    M[0], M[3], M[5] = diag
    assert solver._jacobi_eigvals(M).tobytes() == np.sort(diag, axis=0).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigenvalue_fields_are_views_of_contiguous_planes(n):
    geom = TorusGeometry(n, (8,) * n, np.eye(n), 1.2 * np.eye(n))
    lam = eigenvalue_field(geom, two_mode(geom.grid_shape, 0.01))
    assert lam.shape == geom.grid_shape + (n,)
    assert np.moveaxis(lam, -1, 0).flags.c_contiguous
    assert np.all(np.diff(lam, axis=-1) >= 0.0)


@pytest.mark.parametrize("k", [500, -500, 540, -540, 600, -600])
@pytest.mark.parametrize("n", [2, 3])
def test_eigvals_commute_with_power_of_two_scaling(n, k):
    rng = np.random.default_rng(70 + n)
    A = rng.normal(size=(6, 5, n, n))
    M = solver._components(A @ np.swapaxes(A, -1, -2) + n * np.eye(n))
    assert solver._eigvals(np.ldexp(M, k)).tobytes() == np.ldexp(solver._eigvals(M), k).tobytes()


def test_two_by_two_eigvals_rescale_each_point_by_its_own_power_of_two():
    # diag(1e200, 2e200) and diag(1e-200, 2e-200): no one power of two keeps
    # both points' a c - b^2 in range
    M = solver._components(np.array([np.diag([1e200, 2e200]), np.diag([1e-200, 2e-200])]))
    lam = solver._eigvals(M)
    assert np.all(np.abs(lam / [[1e200, 2e200], [1e-200, 2e-200]] - 1.0) <= 1e-15)
    for point, values in zip(M.T, lam):
        exponent = np.frexp(np.abs(point).max())[1]
        scaled = solver._eigvals(np.ldexp(point, -exponent)[:, None])[0]
        assert values.tobytes() == np.ldexp(scaled, exponent).tobytes()


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_two_dimensional_eigenvalues_of_extreme_classes(scale):
    # a c - b^2 alone would overflow to inf, or underflow to subnormals
    geom = geom2(8, np.eye(2), np.diag([scale, 2.0 * scale]))
    lam = eigenvalue_field(geom, np.zeros(geom.grid_shape))
    assert np.all(np.abs(lam / [scale, 2.0 * scale] - 1.0) <= 1e-15)


def _solve_3d_case(chi, amp):
    geom = TorusGeometry(3, (8, 8, 8), np.asarray(chi, dtype=float), 1.2 * np.eye(3))
    coeffs = CoefficientSet(3, (0.5, 0.3))
    case = manufacture(geom, coeffs, two_mode(geom.grid_shape, amp))
    coeffs = coeffs.with_c0(cohomology_integrals(geom, coeffs, case.f_grid).c0)
    return geom, coeffs, case.f_grid


def test_newton_evaluates_reduced_field_once_and_eigenvalues_per_trial(monkeypatch):
    chi = [[1.0, 0.1, 0.0], [0.1, 0.9, 0.1], [0.0, 0.1, 1.1]]
    geom, coeffs, f = _solve_3d_case(chi, 0.04)
    t = 1.0
    counts = {"_reduced_field": 0, "_eigvals": 0}
    recorded = {"_linearization": [], "_newton_step": []}

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    def recording(name, original):
        def wrapper(*args):
            recorded[name].append(original(*args))
            return recorded[name][-1]
        return wrapper

    for name in counts:
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    for name in recorded:
        monkeypatch.setattr(solver, name, recording(name, getattr(solver, name)))
    state = newton_solve(geom, coeffs, f, t)
    monkeypatch.undo()
    trace = state.newton_trace
    assert trace
    assert counts["_reduced_field"] == 1
    assert counts["_eigvals"] == 1 + sum(entry.trials for entry in trace)
    # the carried linearizations equal the public one at each iterate
    phi = np.zeros(geom.grid_shape)
    for lin, (dphi, *_), entry in zip(recorded["_linearization"], recorded["_newton_step"], trace):
        P = linearize(geom, coeffs, f, t, phi).p_field
        assert np.abs(lin.p_field - P).max() <= 1e-12 * np.abs(P).max()
        phi = solver._canonical(phi + entry.step_factor * dphi)
    assert np.array_equal(phi, state.phi)


@pytest.mark.parametrize("shape", [(64,), (128, 128), (16, 32), (24, 24, 24), (8, 16, 10)])
def test_inverse_transform_passes_equal_irfftn_bit_for_bit(shape):
    n = len(shape)
    rng = np.random.default_rng(sum(shape))
    pairs = n * (n + 1) // 2
    kernel = rng.normal(size=(pairs,) + shape[:-1] + (shape[-1] // 2 + 1,))
    rho_hat = np.fft.rfftn(rng.normal(size=shape))
    want = np.fft.irfftn(kernel * rho_hat, s=shape, axes=range(1, n + 1))
    spectrum, scratch = np.empty(kernel.shape, complex), np.empty(kernel.shape, complex)
    out = np.empty((pairs,) + shape)
    got = solver._inverse_transform(np.multiply(kernel, rho_hat, out=spectrum), scratch, out)
    assert got is out
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("scheme", ["spectral", "fd"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_background_start_equals_the_evaluated_field_of_phi_zero(n, scheme):
    rng = np.random.default_rng(80 + n)
    A, B = rng.normal(size=(2, n, n))
    geom = TorusGeometry(n, (8,) * n, A @ A.T + n * np.eye(n), B @ B.T + n * np.eye(n), scheme)
    background = solver._Start.background(geom)
    evaluated = solver._Start.at(geom, np.zeros(geom.grid_shape))
    for got, want in zip(background, evaluated):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert background.lam.tobytes() == evaluated.lam.tobytes()


def test_newton_step_reuses_the_transforms_of_the_last_gmres_call(monkeypatch):
    # the 128^2 solve of the benchmark's solver workload, at fixed phases
    chi, omega0 = np.array([[1.0, 0.2], [0.2, 0.8]]), np.array([[1.3, 0.1], [0.1, 1.1]])
    geom = TorusGeometry(2, (128, 128), chi, omega0)
    coeffs = CoefficientSet(2, (0.5,))
    phi_star = trig_polynomial(geom.grid_shape, 0.0, [
        {"amplitude": 0.3 / (4.0 * PI2), "wave": [1, 0], "phase": 0.4},
        {"amplitude": 0.3 / (8.0 * PI2), "wave": [1, 2], "phase": 2.5},
    ])
    f = manufacture(geom, coeffs, phi_star).f_grid
    counts = {"rfftn": 0, "irfftn": 0, "ifft": 0, "irfft": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    state = continuity_solve(geom, coeffs, f)
    monkeypatch.undo()
    assert [stage.t for stage in state.stages] == [0.0, 1.0]
    steps = len(state.newton_trace)
    iterations = sum(entry.gmres_iterations for entry in state.newton_trace)
    assert (steps, iterations) == (4, 15)
    # the t = 0 stage is the constant background and the t = 1 stage starts
    # no attempt, so no stage transforms its field; each operator call (one
    # per GMRES iteration, one per step's true residual) runs one rfftn, one
    # ifft pass over the full axis and one irfft; one irfftn per step for dphi
    calls = iterations + steps
    assert counts == {"rfftn": calls, "irfftn": steps, "ifft": calls, "irfft": calls}


_BENCH_SOLVES = {
    "128^2": ((128, 128), [[1.0, 0.2], [0.2, 0.8]], [[1.3, 0.1], [0.1, 1.1]], (0.5,),
              ([1, 0], [1, 2])),
    "24^3": ((24, 24, 24), [[1.0, 0.1, 0.0], [0.1, 0.9, 0.1], [0.0, 0.1, 1.1]],
             [[1.3, 0.1, 0.05], [0.1, 1.2, 0.0], [0.05, 0.0, 1.25]], (0.5, 0.3),
             ([1, 0, 1], [0, 2, 1])),
}


@pytest.mark.parametrize("case", sorted(_BENCH_SOLVES))
def test_newton_step_scales_a_huge_or_tiny_residual_exactly(case, monkeypatch):
    # every Newton system of the benchmark's manufactured solves, at fixed phases
    shape, chi, omega0, c, waves = _BENCH_SOLVES[case]
    geom = TorusGeometry(len(shape), shape, np.array(chi), np.array(omega0))
    coeffs = CoefficientSet(geom.n, c)
    phi_star = trig_polynomial(shape, 0.0, [
        {"amplitude": 0.3 / (4.0 * PI2), "wave": waves[0], "phase": 0.4},
        {"amplitude": 0.3 / (8.0 * PI2), "wave": waves[1], "phase": 2.5},
    ])
    f = manufacture(geom, coeffs, phi_star).f_grid
    systems = []
    newton_step = solver._newton_step

    def recording(geom, lin, res, rtol):
        systems.append((lin, res.copy(), rtol, newton_step(geom, lin, res, rtol)))
        return systems[-1][-1]

    monkeypatch.setattr(solver, "_newton_step", recording)
    continuity_solve(geom, coeffs, f)
    monkeypatch.undo()
    assert sum(plain[3] for *_, plain in systems) > 2 * len(systems)  # GMRES iterations
    for lin, res, rtol, plain in systems:
        for shift in (600, -600):
            # outside 2^+-500 GMRES runs on res / 2^e, e the exponent of |res|_inf
            scaled = newton_step(geom, lin, np.ldexp(res, shift), rtol)
            for got, want in zip(scaled[:2], plain[:2]):  # dphi and dM
                assert np.ldexp(got, -shift).tobytes() == want.tobytes()
            assert math.ldexp(scaled[2], -shift) == plain[2]  # ds
            assert scaled[3:] == plain[3:]  # iterations and relative residual


def test_newton_trace_records_trials_and_cone_rejections():
    # a full step from phi = 0 leaves the cone once before an accepted half step
    geom, coeffs, f = _solve_3d_case(np.eye(3), 0.06)
    state = newton_solve(geom, coeffs, f, 1.0)
    res_sup = np.abs(residual(geom, coeffs, f, 1.0, np.zeros(geom.grid_shape))).max()
    for entry in state.newton_trace:
        assert type(entry.trials) is int and entry.trials > 0
        assert type(entry.cone_rejections) is int and entry.cone_rejections >= 0
        assert entry.cone_rejections < entry.trials
        assert entry.step_factor == 0.5 ** (entry.trials - 1)
        assert type(entry.gmres_iterations) is int
        assert 0 < entry.gmres_iterations <= solver._GMRES_RESTART * solver._GMRES_MAXITER
        # the forcing term follows the residual the step starts from
        assert entry.forcing == max(min(1e-2, res_sup), solver._GMRES_RTOL)
        assert 0.0 <= entry.linear_residual <= entry.forcing
        res_sup = entry.residual_sup
    assert any(entry.cone_rejections > 0 for entry in state.newton_trace)


def _counted(operator):
    calls = [0]

    def wrapper(v):
        calls[0] += 1
        return operator(v)

    return wrapper, calls


def test_gmres_stall_raises_after_one_cycle_and_names_residual():
    # the cyclic shift maps every Krylov space of e_0 orthogonally to e_0:
    # no restart cycle can lower the residual
    b = np.zeros(4 * solver._GMRES_RESTART)
    b[0] = 1.0
    operator, calls = _counted(lambda v: np.roll(v, 1))
    with pytest.raises(LinearSolveStallError, match=r"relative residual 1\.000e\+00"):
        solver._gmres(operator, b)
    assert calls[0] == solver._GMRES_RESTART + 1


def test_gmres_gives_up_after_maxiter_cycles_and_names_residual():
    # I + 0.999 S has its spectrum on a circle of radius 0.999 around 1, so
    # each cycle lowers the residual by about 0.999^restart
    b = np.zeros(4 * solver._GMRES_RESTART)
    b[0] = 1.0
    operator, calls = _counted(lambda v: v + 0.999 * np.roll(v, 1))
    with pytest.raises(LinearSolveStallError, match=r"relative residual \d\.\d{3}e-\d\d"):
        solver._gmres(operator, b)
    assert calls[0] == solver._GMRES_MAXITER * (solver._GMRES_RESTART + 1)


def test_gmres_solves_to_true_relative_residual():
    rng = np.random.default_rng(3)
    A = np.eye(200) + 0.3 * rng.standard_normal((200, 200)) / np.sqrt(200)
    b = rng.standard_normal(200)
    x, iterations, rel = solver._gmres(lambda v: A @ v, b)
    true_rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert rel == pytest.approx(true_rel, rel=1e-12)
    assert rel <= solver._GMRES_RTOL
    assert 0 < iterations <= solver._GMRES_RESTART


def _refuse_blas(*args, **kwargs):
    raise AssertionError("BLAS dot product")


class _NoBlasVector(np.ndarray):
    """A vector whose BLAS reductions v @ w and v.dot(w) raise."""

    __matmul__ = dot = _refuse_blas


def test_gmres_inner_products_stay_off_blas(monkeypatch):
    # a 128^2 grid vector, past the length where OpenBLAS threads a dot product
    rng = np.random.default_rng(5)
    d = 1.0 + rng.random(128 * 128)
    b = rng.standard_normal(d.size).view(_NoBlasVector)
    monkeypatch.setattr(np, "dot", _refuse_blas)
    monkeypatch.setattr(np.linalg, "norm", _refuse_blas)
    x, iterations, rel = solver._gmres(lambda v: d * v, b)
    monkeypatch.undo()
    assert rel <= solver._GMRES_RTOL
    assert np.abs(d * x - b).max() <= 1e-11 * np.abs(b).max()
    u, v = rng.standard_normal((2, d.size))
    assert solver._dot(u, v) == pytest.approx(math.fsum(u * v), rel=1e-12)
    assert solver._norm(u) == pytest.approx(math.sqrt(math.fsum(u * u)), rel=1e-14)


@pytest.mark.parametrize(
    "make_geom, scheme",
    [(lambda: geom2(32, [[1.0, 0.2], [0.2, 0.8]], [[1.3, 0.1], [0.1, 1.1]]), "spectral"),
     (lambda: geom2(16), "fd"),
     (lambda: TorusGeometry(3, (8, 8, 8), np.eye(3), 1.2 * np.eye(3)), "spectral")],
)
def test_newton_reports_residual_of_returned_potential(make_geom, scheme):
    geom = replace(make_geom(), scheme=scheme)
    n = geom.n
    coeffs = CoefficientSet(n, (0.5,) + (0.3,) * (n - 2))
    case = manufacture(geom, coeffs, two_mode(geom.grid_shape, 0.04))
    ints = cohomology_integrals(geom, coeffs, case.f_grid)
    coeffs = coeffs.with_c0(ints.c0)
    state = newton_solve(geom, coeffs, case.f_grid, 0.5)
    assert state.newton_trace  # the line search ran
    for t, st in ((0.5, state), (1.0, newton_solve(
            geom, coeffs, case.f_grid, 1.0, phi0=state.phi, slack0=state.slack))):
        recomputed = residual(geom, coeffs, case.f_grid, t, st.phi, st.slack)
        assert abs(st.residual_sup - np.abs(recomputed).max()) <= 1e-13


# ---------------------------------------------------------------------------
# class integrals and compatibility
# ---------------------------------------------------------------------------

def test_cohomology_integrals_frozen_diagonal_example():
    geom = geom2(16, np.eye(2), np.diag([1.0, 2.0]))
    ints = cohomology_integrals(geom)
    assert ints.values == (1.0, 1.5, 2.0)
    assert ints.c0 == 2.0
    coeffs = CoefficientSet(2, (1.0,))
    full = cohomology_integrals(geom, coeffs, np.zeros(geom.grid_shape))
    assert full.defect == pytest.approx(0.5, abs=1e-15)


def test_compatibility_defect_rejected():
    geom = geom2(16, np.eye(2), np.diag([1.0, 2.0]))
    coeffs = CoefficientSet(2, (1.0,))
    with pytest.raises(CompatibilityError) as err:
        continuity_solve(geom, coeffs, np.zeros(geom.grid_shape))
    assert err.value.defect == pytest.approx(0.5, abs=1e-12)


def test_source_below_floor_warns_but_still_solves():
    geom = geom2(16, np.eye(2), 0.6 * np.eye(2))
    coeffs = CoefficientSet(2, (1.0,))
    ints = cohomology_integrals(geom)
    f = np.full(geom.grid_shape, ints.c0 - ints.values[1])  # compatible but deep
    assert f.min() < -1.0 / 512.0
    with pytest.warns(UserWarning, match="floor"):
        state = continuity_solve(geom, coeffs, f)
    assert state.t == 1.0
    assert np.all(state.phi == 0.0)  # the flat potential already solves this one


def test_all_zero_regime_requires_positive_source():
    geom = geom1(16)
    coeffs = CoefficientSet(1, ())
    # mean 1.0 keeps the instance compatible, the dip below zero must reject it
    f = trig_polynomial((16,), 1.0, [{"amplitude": 1.5, "wave": (1,)}])
    with pytest.raises(ValueError, match="positive"):
        continuity_solve(geom, coeffs, f)


def test_all_zero_regime_positive_source_accepted():
    geom = geom1(16)
    coeffs = CoefficientSet(1, ())
    f = trig_polynomial((16,), 1.0, [{"amplitude": 0.3, "wave": (1,)}])
    state = continuity_solve(geom, coeffs, f)
    assert state.t == 1.0


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def test_linear_problem_matches_closed_form():
    geom = geom1(64)
    coeffs = CoefficientSet(1, ())
    f = trig_polynomial((64,), 1.0, [{"amplitude": 0.3, "wave": (1,)}])
    state = continuity_solve(geom, coeffs, f)
    x = geom.axes()[0]
    expected = -(0.3 / PI2) * np.cos(2.0 * np.pi * x)
    expected -= expected.mean()
    assert np.max(np.abs(state.phi - expected)) <= 1e-9
    assert abs(state.slack) <= 1e-12
    assert state.stages[-1].t == 1.0


def test_constant_background_path_is_exactly_trivial():
    geom = geom2(16)
    coeffs = CoefficientSet(2, (1.0,))
    ints = cohomology_integrals(geom, coeffs, np.zeros(geom.grid_shape))
    assert ints.c0 == 1.0
    assert ints.defect == 0.0
    state = continuity_solve(geom, coeffs, np.zeros(geom.grid_shape), dt_init=0.25)
    assert np.all(state.phi == 0.0)
    assert state.slack == 0.0
    assert [s.t for s in state.stages] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(s.newton_iterations == 0 for s in state.stages)
    assert all(s.residual_sup == 0.0 for s in state.stages)


def test_default_schedule_jumps_straight_to_the_endpoint():
    geom = geom2(16)
    coeffs = CoefficientSet(2, (1.0,))
    state = continuity_solve(geom, coeffs, np.zeros(geom.grid_shape))
    assert np.all(state.phi == 0.0)
    assert [s.t for s in state.stages] == [0.0, 1.0]
    assert all(s.newton_iterations == 0 for s in state.stages)
    assert state.integrals == cohomology_integrals(geom, coeffs, np.zeros(geom.grid_shape))


def test_manufactured_recovery_spectral():
    geom = geom2(32)
    coeffs = CoefficientSet(2, (1.0,))
    phi_star = two_mode(geom.grid_shape, 0.05)
    case = manufacture(geom, coeffs, phi_star)
    state = continuity_solve(geom, coeffs, case.f_grid)
    assert np.max(np.abs(state.phi - case.phi_star)) <= 1e-9
    assert abs(state.slack) <= 1e-8
    assert state.residual_sup <= 1e-10
    assert state.min_cone_margin > 0.0
    assert all(s.min_cone_margin > 0.0 for s in state.stages)


def test_manufactured_recovery_at_256_squared():
    geom = TorusGeometry(2, (256, 256), np.eye(2), 1.2 * np.eye(2))
    coeffs = CoefficientSet(2, (0.5,))
    phi_star = trig_polynomial(geom.grid_shape, 0.0, [
        {"amplitude": 0.3 / (4.0 * PI2), "wave": (1, 0)},
        {"amplitude": 0.3 / (8.0 * PI2), "wave": (1, 2), "phase": 0.7},
    ])
    case = manufacture(geom, coeffs, phi_star)
    state = continuity_solve(geom, coeffs, case.f_grid)
    assert np.max(np.abs(state.phi - case.phi_star)) <= 1e-8
    assert state.residual_sup <= 1e-10


def test_manufactured_recovery_where_rounding_exceeds_the_tolerance():
    # omega0 = Q diag(0.5, 30, 1000) Q^T gives c0 = 15 000: rounding alone
    # keeps the stage residual near 1e-10, so Newton must stop at its
    # rounding floor, not only at the default tol
    Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
    omega0 = Q @ np.diag([0.5, 30.0, 1000.0]) @ Q.T
    geom = TorusGeometry(3, (16, 16, 16), np.eye(3), 0.5 * (omega0 + omega0.T))
    coeffs = CoefficientSet(3, (0.5, 0.3))
    phi_star = trig_polynomial(geom.grid_shape, 0.0, [
        {"amplitude": 0.15 / (4.0 * PI2), "wave": (1, 0, 1), "phase": 0.7},
        {"amplitude": 0.15 / (8.0 * PI2), "wave": (0, 2, 1), "phase": 0.1},
    ])
    case = manufacture(geom, coeffs, phi_star)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        state = continuity_solve(geom, coeffs, case.f_grid)
    assert state.integrals.c0 == pytest.approx(15000.0, rel=1e-12)
    assert [s.t for s in state.stages] == [0.0, 1.0]
    assert np.max(np.abs(state.phi - case.phi_star)) <= 1e-12
    assert state.residual_sup <= 1e-13 * state.integrals.c0


def test_compatibility_bound_scales_with_the_class():
    # 30x the class above gives c0 = 4.05e8: exactly compatible data carry a
    # defect near 1e-6 from rounding alone, far above the absolute 1e-8
    Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
    omega0 = 30.0 * Q @ np.diag([0.5, 30.0, 1000.0]) @ Q.T
    geom = TorusGeometry(3, (16, 16, 16), np.eye(3), 0.5 * (omega0 + omega0.T))
    coeffs = CoefficientSet(3, (0.5, 0.3))
    phi_star = trig_polynomial(geom.grid_shape, 0.0, [
        {"amplitude": 0.15 / (4.0 * PI2), "wave": (1, 0, 1), "phase": 0.7},
        {"amplitude": 0.15 / (8.0 * PI2), "wave": (0, 2, 1), "phase": 0.1},
    ])
    case = manufacture(geom, coeffs, phi_star)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        state = continuity_solve(geom, coeffs, case.f_grid)
        assert state.integrals.c0 == pytest.approx(4.05e8, rel=1e-12)
        assert abs(state.integrals.defect) > 1e-8
        assert np.max(np.abs(state.phi - case.phi_star)) <= 1e-12
        with pytest.raises(CompatibilityError, match="exceeds"):
            continuity_solve(geom, coeffs, case.f_grid + 1e-9 * state.integrals.c0)


def test_manufactured_recovery_fd_second_order():
    coeffs = CoefficientSet(2, (1.0,))
    errs = []
    for nx in (16, 32, 64):
        geom = geom2(nx)
        phi_star = two_mode(geom.grid_shape, 0.02)
        case = manufacture(geom, coeffs, phi_star)  # exact discrete source
        state = continuity_solve(replace(geom, scheme="fd"), coeffs, case.f_grid)
        errs.append(np.max(np.abs(state.phi - case.phi_star)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_newton_solve_rejects_bad_initial_states():
    geom = geom2(16)
    coeffs = CoefficientSet(2, (1.0,)).with_c0(1.0)
    f = np.zeros(geom.grid_shape)
    with pytest.raises(ConeBreachError):
        newton_solve(geom, coeffs, f, 0.5, phi0=two_mode(geom.grid_shape, 1.0))
    # positive eigenvalues but cone condition violated at the endpoint
    amp = 0.6 / PI2
    with pytest.raises(ConeBreachError):
        newton_solve(geom, coeffs, f, 1.0, phi0=two_mode(geom.grid_shape, amp))


def test_step_underflow_when_stages_keep_failing(monkeypatch):
    geom = geom2(16)
    coeffs = CoefficientSet(2, (1.0,))
    real = solver.newton_solve

    def flaky(geom_, coeffs_, f_, t, **kwargs):
        if t > 0.0:
            raise ConeBreachError("stage rejected")
        return real(geom_, coeffs_, f_, t, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", flaky)
    with pytest.raises(StepUnderflowError):
        continuity_solve(geom, coeffs, np.zeros(geom.grid_shape))


def _bench_case(nx, scale):
    """The benchmark's 2-D manufactured solve at nx^2, phi* amplitudes times scale.

    At scale 6 phi* keeps lam > 0, but its cone margin at t = 1 is about
    -80, so every continuity path must fail.
    """
    geom = geom2(nx, [[1.0, 0.2], [0.2, 0.8]], [[1.3, 0.1], [0.1, 1.1]])
    coeffs = CoefficientSet(2, (0.5,))
    phi_star = trig_polynomial(geom.grid_shape, 0.0, [
        {"amplitude": scale * 0.3 / (4.0 * PI2), "wave": (1, 0), "phase": 0.7},
        {"amplitude": scale * 0.3 / (8.0 * PI2), "wave": (1, 2), "phase": 0.7},
    ])
    return geom, coeffs, manufacture(geom, coeffs, phi_star)


def test_cone_violating_path_fails_fast(monkeypatch):
    geom, coeffs, case = _bench_case(64, 6.0)
    calls = [0]
    original = solver._linearization

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(solver, "_linearization", counting)
    # the secant of the stage margins crosses zero at t*: the path stops
    # there instead of halving dt down to the floor
    with pytest.warns(UserWarning), pytest.raises(StepUnderflowError, match=r"t\* = 0\.896006"):
        continuity_solve(geom, coeffs, case.f_grid)
    assert calls[0] <= 45


def test_newton_aborts_on_poor_contraction():
    geom, coeffs, case = _bench_case(64, 6.0)
    c0 = cohomology_integrals(geom, coeffs, case.f_grid).c0
    with pytest.raises(MaxIterationsError, match=r"contraction") as info:
        newton_solve(geom, coeffs.with_c0(c0), case.f_grid, 1.0)
    theta = float(re.search(r"contraction (\d+\.\d+)", str(info.value)).group(1))
    assert theta > 0.5
    # the unscaled benchmark case converges in one stage, never aborting
    geom, coeffs, case = _bench_case(64, 1.0)
    state = continuity_solve(geom, coeffs, case.f_grid)
    assert [s.t for s in state.stages] == [0.0, 1.0]
    assert np.max(np.abs(state.phi - case.phi_star)) <= 1e-8


def test_contraction_test_does_not_fire_at_the_rounding_floor(monkeypatch):
    # the x6 case aborts on its contraction test at t = 1; with the rounding
    # floor moved up to the residual of that last step, Newton stops there
    geom, coeffs, case = _bench_case(64, 6.0)
    coeffs = coeffs.with_c0(cohomology_integrals(geom, coeffs, case.f_grid).c0)
    original = solver._residual_from_lam
    sups = []

    def recording(*args):
        res, floor = original(*args)
        sups.append(float(np.abs(res).max()))
        return res, floor

    monkeypatch.setattr(solver, "_residual_from_lam", recording)
    with pytest.raises(MaxIterationsError, match=r"contraction"):
        newton_solve(geom, coeffs, case.f_grid, 1.0)
    last = sups[-1]  # the accepted trial whose contraction exceeded 1/2
    monkeypatch.setattr(solver, "_residual_from_lam", lambda *args: (original(*args)[0], last))
    state = newton_solve(geom, coeffs, case.f_grid, 1.0)
    assert state.residual_sup == last > 1e-10


def test_class_path_probe_reports_upward_closed_solvability():
    # class 0.45*[chi] sits below the cone threshold (load 0.5/0.45 > 1 at
    # t=1); scaling the class up past 0.5/0.45 - 1 makes the path reachable
    geom = geom2(16, np.eye(2), 0.45 * np.eye(2))
    coeffs = CoefficientSet(2, (1.0,))
    ints = cohomology_integrals(geom)
    f = np.full(geom.grid_shape, ints.c0 - ints.values[1])
    with pytest.warns(UserWarning):
        report = class_path_probe(geom, coeffs, f, [0.0, 0.05, 0.5])
    flags = [row.solvable for row in report.rows]
    assert flags == [False, False, True]
    assert report.rows[0].error == "StepUnderflowError"
    assert report.rows[2].min_cone_margin > 0.0
    assert report.upward_closed


def test_class_path_probe_raises_on_a_non_finite_class_and_keeps_source_verdicts():
    geom = geom2(16, np.eye(2), 0.45 * np.eye(2))
    f = np.zeros(geom.grid_shape)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for s in (1e155, 1e300):
            with pytest.raises(ValueError, match="is not finite"):
                class_path_probe(geom, CoefficientSet(2, (1.0,)), f, [0.0, s])
    # with all c_k = 0 a source that is not positive is a verdict, not a failure
    f = trig_polynomial(geom.grid_shape, 0.0, [{"amplitude": 3.0, "wave": (1, 0)}])
    report = class_path_probe(geom, CoefficientSet(2, (0.0,)), f, [0.0])
    assert report.rows[0].solvable is False
    assert report.rows[0].error == "ValueError"


def test_class_path_probe_checks_every_class_before_the_first_solve(monkeypatch):
    geom = geom2(16, np.eye(2), 0.45 * np.eye(2))
    calls = [0]
    original = solver.continuity_solve

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "continuity_solve", counting)
    for s_list in ([0.0, 1e300], [1e300, 0.0, 0.5], [0.0, -1.0]):
        with pytest.raises(ValueError, match="is not finite|must stay positive"):
            class_path_probe(geom, CoefficientSet(2, (1.0,)), np.zeros(geom.grid_shape), s_list)
    assert calls[0] == 0


def test_continuity_solve_refuses_class_integrals_past_the_float_range():
    # chi = 5e-324 I: L^{-1} overflows, and the integrals would read nan
    geom = geom2(8, np.diag([5e-324, 5e-324]))
    with pytest.raises(ValueError, match="class integrals are not finite"):
        continuity_solve(geom, CoefficientSet(2, (1.0,)), np.zeros(geom.grid_shape))


def test_continuity_solve_rejects_dt_init_below_the_step_floor():
    geom = geom2(16)
    with pytest.raises(ValueError, match="dt_init must be at least 0.0001"):
        continuity_solve(geom, CoefficientSet(2, (1.0,)), np.zeros(geom.grid_shape), dt_init=1e-9)


def test_class_path_probe_keeps_the_geometry_scheme():
    # every row is the continuity solve on the scaled fd geometry; the
    # spectral twin of a scaled geometry reaches another cone margin
    geom = geom2(16, np.eye(2), 1.2 * np.eye(2), scheme="fd")
    coeffs = CoefficientSet(2, (0.5,))
    f = trig_polynomial(geom.grid_shape, 0.0, [{"amplitude": 0.3, "wave": (1, 0)},
                                               {"amplitude": 0.2, "wave": (1, 1)}])
    s_list = (0.0, 0.3)
    report = class_path_probe(geom, coeffs, f, s_list)
    for s, row in zip(s_list, report.rows):
        geom_s = replace(geom, omega0=(1.0 + s) * geom.omega0)
        shift = cohomology_integrals(geom_s, coeffs, f).defect
        state = continuity_solve(geom_s, coeffs, f + shift)
        assert row.shift == shift
        assert row.solvable
        assert row.min_cone_margin == state.min_cone_margin
        assert row.residual_sup == state.residual_sup
        spectral = continuity_solve(replace(geom_s, scheme="spectral"), coeffs, f + shift)
        assert spectral.min_cone_margin != state.min_cone_margin


def _class_path_problem(nx, scheme, phase=0.0):
    """omega0 = 0.45 chi, c = (1) and f = 0.01 cos(2 pi (x + y) + phase), whose
    minimum falls on a grid point at phase 0 and half a grid step off it at
    phase pi / nx; the continuum path solves exactly for s > 1/3."""
    chi = np.array([[1.0, 0.2], [0.2, 0.8]])
    geom = geom2(nx, chi, 0.45 * chi, scheme)
    f = trig_polynomial(geom.grid_shape, 0.0,
                        [{"amplitude": 0.01, "wave": (1, 1), "phase": phase}])
    return geom, CoefficientSet(2, (1.0,)), f


def test_failing_class_path_row_stops_at_the_predicted_crossing():
    # the s = 0.2 row of the benchmark's class path crosses the cone boundary
    # near t = 0.8915; the path stops there, not after halving dt to the floor
    geom, coeffs, f = _class_path_problem(32, "fd")
    geom = replace(geom, omega0=1.2 * geom.omega0)
    shift = cohomology_integrals(geom, coeffs, f).defect
    with pytest.warns(UserWarning), pytest.raises(StepUnderflowError) as info:
        continuity_solve(geom, coeffs, f + shift)
    t_star = float(re.search(r"t\* = (\d\.\d+)", str(info.value)).group(1))
    assert abs(t_star - 0.8915) <= 1e-3


def _split_attempts(attempts):
    """The accepted attempts and the rejected ones, after checking that each
    attempt is one or the other: accepted with the stage its Newton steps
    reached, or rejected with the name and message of a GmaError subclass."""
    accepted = [a for a in attempts if a.outcome == "accepted"]
    rejected = [a for a in attempts
                if issubclass(getattr(exceptions, a.outcome, type(None)), GmaError)]
    assert len(accepted) + len(rejected) == len(attempts)
    assert attempts[0].t_try == attempts[0].dt == 0.0
    for a in attempts:
        assert all(type(step) is NewtonStep for step in a.steps)
        assert [step.iteration for step in a.steps] == list(range(len(a.steps)))
    for a in accepted:
        assert a.message == ""
        assert a.stage.t == a.t_try and a.stage.newton_iterations == len(a.steps)
    for a in rejected:
        assert a.stage is None and a.message
    return accepted, rejected


def _path_with_attempts(geom, coeffs, f):
    """continuity_solve with an attempt list: (state or the error raised, attempts)."""
    attempts = []
    try:
        return continuity_solve(geom, coeffs, f, attempts=attempts), attempts
    except StepUnderflowError as exc:
        return exc, attempts


def test_continuity_attempts_hold_every_newton_call():
    # the benchmark's 32^2 fd class path: s = 0.2 stops at its predicted
    # crossing, s = 0.6 and 1.0 solve; then the x6 cone-violating case
    geom, coeffs, f = _class_path_problem(32, "fd")
    cases = []
    for s in (0.2, 0.6, 1.0):
        geom_s = replace(geom, omega0=(1.0 + s) * geom.omega0)
        cases.append((geom_s, coeffs, f + cohomology_integrals(geom_s, coeffs, f).defect))
    geom6, coeffs6, case6 = _bench_case(64, 6.0)
    cases.append((geom6, coeffs6, case6.f_grid))
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for geom_c, coeffs_c, f_c in cases:
            result, attempts = _path_with_attempts(geom_c, coeffs_c, f_c)
            accepted, rejected = _split_attempts(attempts)
            stages = [a.stage for a in accepted]
            if isinstance(result, StepUnderflowError):
                # the attempts outlive the raise, the failed ones with their Newton steps
                assert rejected and any(a.steps for a in rejected)
                t_star = float(re.search(r"t\* = (\d\.\d+)", str(result)).group(1))
                assert rejected[-1] is attempts[-1] and attempts[-1].t_try >= t_star
                outcomes.append(t_star)
            else:
                assert result.stages == stages
                assert result.newton_trace == list(accepted[-1].steps)
                # the list only collects: the path without it computes the same
                plain = continuity_solve(geom_c, coeffs_c, f_c)
                assert plain.stages == result.stages
                assert plain.phi.tobytes() == result.phi.tobytes()
                outcomes.append(True)
    assert outcomes[1:3] == [True, True]
    assert abs(outcomes[0] - 0.8915) <= 1e-3 and outcomes[3] == 0.896006


def test_newton_solve_keeps_its_steps_in_the_list_it_is_given():
    geom, coeffs, case = _bench_case(64, 6.0)
    coeffs = coeffs.with_c0(cohomology_integrals(geom, coeffs, case.f_grid).c0)
    steps = []
    with pytest.raises(MaxIterationsError, match=r"contraction (\d+\.\d+)") as info:
        newton_solve(geom, coeffs, case.f_grid, 1.0, steps=steps)
    theta = float(re.search(r"contraction (\d+\.\d+)", str(info.value)).group(1))
    assert len(steps) >= 2
    assert f"{steps[-1].residual_sup / steps[-2].residual_sup:.3f}" == f"{theta:.3f}"
    with pytest.raises(ValueError, match="steps must be an empty list"):
        newton_solve(geom, coeffs, case.f_grid, 1.0, steps=steps)


def test_class_path_probe_solves_large_classes():
    # at s = 3000 c0 is about 1.8e6, and rounding alone keeps the stage
    # residual above 1e-10; every s > 1/3 solves in the continuum
    geom, coeffs, f = _class_path_problem(32, "fd")
    s_list = (0.2, 0.6, 10.0, 100.0, 300.0, 1000.0, 3000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        report = class_path_probe(geom, coeffs, f, s_list)
    assert [row.solvable for row in report.rows] == [False] + [True] * 6
    assert report.rows[0].error == "StepUnderflowError"
    assert report.upward_closed


def _class_path_threshold(nx, scheme, phase=0.0):
    """Class-path threshold s*_h of `_class_path_problem` bisected 14 times on
    [0.2, 0.6], and the final bracket width."""
    geom, coeffs, f = _class_path_problem(nx, scheme, phase)
    lo, hi = 0.2, 0.6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(14):
            mid = 0.5 * (lo + hi)
            if class_path_probe(geom, coeffs, f, [mid]).rows[0].solvable:
                hi = mid
            else:
                lo = mid
    return 0.5 * (lo + hi), hi - lo


def test_class_path_threshold_converges_to_the_continuum_value():
    fd = [abs(_class_path_threshold(nx, "fd")[0] - 1.0 / 3.0) for nx in (16, 32, 64)]
    assert fd[1] * 3.0 <= fd[0] and fd[2] * 3.0 <= fd[1]
    assert fd[2] <= 2e-4
    for nx in (16, 32, 64):
        s_star, width = _class_path_threshold(nx, "spectral")
        assert abs(s_star - 1.0 / 3.0) <= width


@pytest.mark.parametrize("scheme", ["fd", "spectral"])
def test_class_path_threshold_off_grid_converges_to_the_continuum_value(scheme):
    # with the source minimum half a cell off the grid, both schemes
    # undershoot 1/3 and converge at the same rate
    errors = [
        abs(_class_path_threshold(nx, scheme, np.pi / nx)[0] - 1.0 / 3.0)
        for nx in (16, 32, 64)
    ]
    assert errors[1] * 3.0 <= errors[0] and errors[2] * 3.0 <= errors[1]


def test_upward_closure_property_detects_violations():
    rows = (
        ClassPathRow(0.0, 0.0, True, 1.0, 0.0, None),
        ClassPathRow(1.0, 0.0, False, None, None, "StepUnderflowError"),
    )
    assert not ClassPathReport(rows).upward_closed
