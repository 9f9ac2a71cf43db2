"""Torus solver: differentiation schemes, residual/linearization consistency,
continuity marching, manufactured recovery, and failure modes."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from gma import solver
from gma.exceptions import (
    CompatibilityError,
    ConeBreachError,
    LinearSolveStallError,
    StepUnderflowError,
)
from gma.kernel import CoefficientSet, elem_sym
from gma.solver import (
    ClassPathReport,
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
    potential_hessian,
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
        xs, ys = geom.mesh()
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
    with pytest.raises(ConeBreachError):
        residual(geom, coeffs, np.zeros(geom.grid_shape), 0.5, phi)


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


@pytest.mark.parametrize("scheme", ["spectral", "fd"])
def test_linearize_matches_directional_difference(scheme):
    geom = geom2(16, scheme=scheme)
    coeffs = CoefficientSet(2, (0.8,))
    ints = cohomology_integrals(geom)
    coeffs = coeffs.with_c0(ints.c0)
    f = trig_polynomial(
        geom.grid_shape, 0.5, [{"amplitude": 0.1, "wave": (1, 0)}]
    )
    phi = trig_polynomial(
        geom.grid_shape,
        0.0,
        [
            {"amplitude": 0.02, "wave": (1, 0)},
            {"amplitude": 0.015, "wave": (1, 1), "phase": 0.3},
        ],
    )
    psi = trig_polynomial(
        geom.grid_shape,
        0.0,
        [
            {"amplitude": 0.01, "wave": (0, 1)},
            {"amplitude": 0.007, "wave": (2, 1), "phase": 0.9},
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
    got = solver._filter(geom, phi, geom._quarter_symbols)
    assert np.abs(got - quarter).max() <= 1e-13 * scale
    H = 4.0 * solver._assemble(quarter)
    assert np.abs(potential_hessian(geom, phi) - H).max() <= 1e-13 * 4.0 * scale
    M, _ = _reduced_oracle(geom, H)
    got = solver._reduced_field(geom, phi)
    assert np.abs(got - M).max() <= 1e-13 * np.abs(M).max()


@pytest.mark.parametrize("shape", FOLD_SHAPES)
def test_reduced_field_matches_sandwiched_full_spectrum_hessian(shape):
    geom, phi, H = _rough_case(shape, 21)
    n = geom.n
    coeffs = CoefficientSet(n, (0.3,) * (n - 1)).with_c0(1.0)
    lin = linearize(geom, coeffs, np.zeros(shape), 0.5, phi)
    oracle, hess_part = _reduced_oracle(geom, H)
    err = np.abs(lin.reduced - oracle).max()
    assert err <= 1e-12 * np.abs(hess_part).max()
    assert np.array_equal(lin.reduced, np.swapaxes(lin.reduced, -1, -2))


@pytest.mark.parametrize("shape", FOLD_SHAPES)
def test_linearize_q_matches_eigenvector_formula(shape):
    geom, phi, H = _rough_case(shape, 22)
    n = geom.n
    c = (0.7, 0.4)[: n - 1]
    coeffs = CoefficientSet(n, c).with_c0(1.0)
    t = 0.6
    lin = linearize(geom, coeffs, np.zeros(shape), t, phi)
    Linv = np.linalg.inv(np.linalg.cholesky(geom.chi))
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
        Q = Linv.T @ (vec * g) @ vec.T @ Linv
        assert np.abs(lin.q_field[idx] - Q).max() <= 1e-12 * np.abs(Q).max()


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
    assert counts["_eigvals"] == 1 + sum(entry["trials"] for entry in trace)
    # the carried linearizations equal the public one at each iterate
    phi = np.zeros(geom.grid_shape)
    for lin, (dphi, *_), entry in zip(recorded["_linearization"], recorded["_newton_step"], trace):
        Q = linearize(geom, coeffs, f, t, phi).q_field
        assert np.abs(lin.q_field - Q).max() <= 1e-12 * np.abs(Q).max()
        phi = solver._canonical(phi + entry["step_factor"] * dphi)
    assert np.array_equal(phi, state.phi)


def test_newton_trace_records_trials_and_cone_rejections():
    # a full step from phi = 0 leaves the cone once before an accepted half step
    state = newton_solve(*_solve_3d_case(np.eye(3), 0.06), 1.0)
    for entry in state.newton_trace:
        assert type(entry["trials"]) is int and entry["trials"] > 0
        assert type(entry["cone_rejections"]) is int and entry["cone_rejections"] >= 0
        assert entry["cone_rejections"] < entry["trials"]
        assert entry["step_factor"] == 0.5 ** (entry["trials"] - 1)
        assert type(entry["gmres_iterations"]) is int
        assert 0 < entry["gmres_iterations"] <= solver._GMRES_RESTART * solver._GMRES_MAXITER
        assert 0.0 <= entry["linear_residual"] <= solver._GMRES_RTOL
    assert any(entry["cone_rejections"] > 0 for entry in state.newton_trace)


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
    assert state.stages[-1]["t"] == 1.0


def test_constant_background_path_is_exactly_trivial():
    geom = geom2(16)
    coeffs = CoefficientSet(2, (1.0,))
    ints = cohomology_integrals(geom, coeffs, np.zeros(geom.grid_shape))
    assert ints.c0 == 1.0
    assert ints.defect == 0.0
    state = continuity_solve(geom, coeffs, np.zeros(geom.grid_shape))
    assert np.all(state.phi == 0.0)
    assert state.slack == 0.0
    assert [s["t"] for s in state.stages] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(s["newton_iterations"] == 0 for s in state.stages)
    assert all(s["residual_sup"] == 0.0 for s in state.stages)


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
    assert all(s["min_cone_margin"] > 0.0 for s in state.stages)


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


def test_class_path_probe_reports_upward_closed_solvability():
    # class 0.45*[chi] sits below the cone threshold (load 0.5/0.45 > 1 at
    # t=1); scaling the class up past 0.5/0.45 - 1 makes the path reachable
    geom = geom2(16, np.eye(2), 0.45 * np.eye(2))
    coeffs = CoefficientSet(2, (1.0,))
    ints = cohomology_integrals(geom)
    f = np.full(geom.grid_shape, ints.c0 - ints.values[1])
    with pytest.warns(UserWarning):
        report = class_path_probe(geom, coeffs, f, [0.0, 0.05, 0.5])
    flags = [row["solvable"] for row in report.rows]
    assert flags == [False, False, True]
    assert report.rows[0]["error"] == "StepUnderflowError"
    assert report.rows[2]["min_cone_margin"] > 0.0
    assert report.upward_closed


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
        assert row["shift"] == shift
        assert row["solvable"]
        assert row["min_cone_margin"] == state.min_cone_margin
        assert row["residual_sup"] == state.residual_sup
        spectral = continuity_solve(replace(geom_s, scheme="spectral"), coeffs, f + shift)
        assert spectral.min_cone_margin != state.min_cone_margin


def test_upward_closure_property_detects_violations():
    rows = (
        {"s": 0.0, "solvable": True},
        {"s": 1.0, "solvable": False},
    )
    assert not ClassPathReport(rows).upward_closed
