"""Continuity-method solver on flat tori.

Geometry: the torus [0,1)^n with two constant-coefficient positive
background forms given by SPD matrices chi (the reference) and omega0
(the unknown's class representative).  A periodic potential phi deforms
the class representative to

    Omega_phi(x) = omega0 + (1/4) Hess(phi)(x),

the 1/4 matching the complex-Hessian normalization of torus-invariant
data.  With lam(x) the generalized eigenvalues of Omega_phi against chi
and e_k elementary symmetric polynomials, the stage-t residual is

    r(x) = e_n(lam) - t [ sum_k c_k/C(n,k) e_k(lam) + f(x) ] - (1-t) c0 - slack.

The path starts at t = 0 (where phi = 0 solves the discrete problem
exactly, the backgrounds being constant) and marches to t = 1 with an
adaptive step, damped Newton corrections, and a scalar slack unknown that
absorbs the residual discrete incompatibility; the Newton system is
bordered with the mean-zero constraint on phi.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import (
    CompatibilityError,
    ConeBreachError,
    LinearSolveStallError,
    MaxIterationsError,
    StepUnderflowError,
)
from .kernel import CoefficientSet, elem_sym_all, margin_field, source_floor

__all__ = [
    "TorusGeometry",
    "trig_polynomial",
    "potential_hessian",
    "eigenvalue_field",
    "form_eigenvalues",
    "residual",
    "ConeMarginReport",
    "cone_margin_field",
    "linearize",
    "SolveState",
    "newton_solve",
    "continuity_solve",
    "CohomologyIntegrals",
    "cohomology_integrals",
    "ManufacturedCase",
    "manufacture",
    "ClassPathReport",
    "class_path_probe",
]


def _check_spd(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name}: must be a square matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name}: non-finite entries")
    if not np.allclose(M, M.T, rtol=0, atol=1e-12):
        raise ValueError(f"{name}: must be symmetric")
    if np.linalg.eigvalsh(M)[0] <= 0:
        raise ValueError(f"{name}: must be positive definite")
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class TorusGeometry:
    """Flat torus [0,1)^n with constant background matrices.

    grid_shape entries must be even and >= 8 (even sizes keep the real
    spectral derivatives well defined; 8 is the coarsest grid any scheme
    here is trusted on).  scheme discretises the Hessian of every potential
    on the geometry: "spectral" (exact on resolved modes) or "fd" (the
    centred second-order stencils).
    """

    n: int
    grid_shape: tuple
    chi: np.ndarray
    omega0: np.ndarray
    scheme: str = "spectral"

    def __post_init__(self):
        if not (1 <= self.n <= 3):
            raise ValueError("TorusGeometry: n must be 1, 2 or 3")
        shape = tuple(int(s) for s in self.grid_shape)
        if len(shape) != self.n:
            raise ValueError("TorusGeometry: grid_shape length must equal n")
        if any(s < 8 or s % 2 for s in shape):
            raise ValueError("TorusGeometry: grid sizes must be even and >= 8")
        if self.scheme not in ("spectral", "fd"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        object.__setattr__(self, "grid_shape", shape)
        chi = _check_spd(self.chi, "chi")
        omega0 = _check_spd(self.omega0, "omega0")
        if chi.shape[0] != self.n or omega0.shape[0] != self.n:
            raise ValueError("TorusGeometry: matrix size must equal n")
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "omega0", omega0)

    @property
    def npoints(self):
        return int(np.prod(self.grid_shape))

    def axes(self):
        return tuple(
            np.arange(s, dtype=float) / s for s in self.grid_shape
        )

    def mesh(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    # Per-geometry constants, computed on first use.  cached_property
    # stores into the instance __dict__, which the frozen dataclass allows.

    @functools.cached_property
    def _chol_inv(self):
        """L^{-1} for chi = L L^T, read-only."""
        Linv = np.linalg.inv(np.linalg.cholesky(self.chi))
        Linv.setflags(write=False)
        return Linv

    def _reduce(self, omega):
        """Symmetrised L^{-1} omega L^{-T} of a form or a field of forms, chi = L L^T."""
        M = self._chol_inv @ omega @ self._chol_inv.T
        return 0.5 * (M + np.swapaxes(M, -1, -2))

    @functools.cached_property
    def _reduced_omega0(self):
        """M0 = L^{-1} omega0 L^{-T}, the reduced background."""
        return self._reduce(self.omega0)

    @functools.cached_property
    def _fold(self):
        """(p, p) map from stacked Hessian components to L^{-1} H L^{-T} ones.

        Row (i, j) and column (a, b) run over the upper-triangle pairs; an
        off-diagonal column carries both H_ab and H_ba.
        """
        Linv = self._chol_inv
        pairs = _pairs(self.n)
        fold = np.empty((len(pairs), len(pairs)))
        for r, (i, j) in enumerate(pairs):
            for c, (a, b) in enumerate(pairs):
                fold[r, c] = Linv[i, a] * Linv[j, b]
                if a != b:
                    fold[r, c] += Linv[i, b] * Linv[j, a]
        return fold

    @functools.cached_property
    def _wavenumbers(self):
        """Integer wavenumbers of the rfftn half spectrum, one array per axis,
        shaped to broadcast against it.

        The halved last axis keeps fftfreq's signs, so its Nyquist entry is
        -N/2 like the full axes'; a product of two Nyquist wavenumbers then
        has the sign the full complex spectrum gives it.
        """
        out = []
        for a, s in enumerate(self.grid_shape):
            k = np.fft.fftfreq(s, d=1.0 / s)
            if a == self.n - 1:
                k = k[: s // 2 + 1]
            out.append(k.reshape([-1 if b == a else 1 for b in range(self.n)]))
        return tuple(out)

    @functools.cached_property
    def _quarter_symbols(self):
        """Half-spectrum symbols of (1/4) d_a d_b in the geometry's scheme,
        stacked over pairs a <= b.

        "spectral": -pi^2 k_a k_b.  "fd", the centred second-order stencils:
        -N_a^2 sin^2(pi k_a / N_a) on the diagonal and
        -(1/4) N_a sin(2 pi k_a / N_a) N_b sin(2 pi k_b / N_b) off it.

        A mixed spectral symbol is zeroed where exactly one of its two axes
        sits at Nyquist: there k_a k_b is odd under k -> -k, so it contributes
        nothing to the real part of the full complex inverse transform.  A
        mixed fd symbol is zeroed where either axis sits at Nyquist, where
        the stencil's sin(pi) vanishes but its floating-point value does not.
        """
        k = self._wavenumbers
        shape = self.grid_shape
        nyquist = [np.abs(ka) == s // 2 for ka, s in zip(k, shape)]
        if self.scheme == "spectral":
            diagonal = [-(np.pi**2) * ka**2 for ka in k]
            mixed = lambda a, b: np.where(nyquist[a] ^ nyquist[b], 0.0, -(np.pi**2) * k[a] * k[b])
        else:
            diagonal = [-((s * np.sin(np.pi * ka / s)) ** 2) for ka, s in zip(k, shape)]
            sines = [s * np.sin(2.0 * np.pi * ka / s) for ka, s in zip(k, shape)]
            mixed = lambda a, b: np.where(nyquist[a] | nyquist[b], 0.0, -0.25 * sines[a] * sines[b])
        symbols = [diagonal[a] if a == b else mixed(a, b) for a, b in _pairs(self.n)]
        return np.stack(np.broadcast_arrays(*symbols))

    @functools.cached_property
    def _reduced_symbols(self):
        """Half-spectrum symbols of L^{-1} (1/4) Hess L^{-T}, stacked over pairs."""
        q = self._quarter_symbols
        return (self._fold @ q.reshape(len(q), -1)).reshape(q.shape)


def _canonical(values, shape=None):
    v = np.asarray(values, dtype=float)
    if shape is not None and v.shape != tuple(shape):
        raise ValueError("potential grid has wrong shape")
    if not np.all(np.isfinite(v)):
        raise ValueError("potential grid has non-finite values")
    return v - v.mean()


def trig_polynomial(grid_shape, constant=0.0, terms=()):
    """Sample  constant + sum_j amp_j cos(2 pi wave_j . x + phase_j)  on the grid."""
    shape = tuple(int(s) for s in grid_shape)
    mesh = np.meshgrid(*[np.arange(s) / s for s in shape], indexing="ij")
    out = np.full(shape, float(constant))
    for term in terms:
        amp = float(term["amplitude"])
        wave = tuple(int(w) for w in term["wave"])
        phase = float(term.get("phase", 0.0))
        if len(wave) != len(shape):
            raise ValueError("trig_polynomial: wave length must match dimension")
        arg = sum(w * x for w, x in zip(wave, mesh))
        out += amp * np.cos(2.0 * np.pi * arg + phase)
    return out


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def _pairs(n):
    """Upper-triangle index pairs (a, b), a <= b, in stacking order."""
    return [(a, b) for a in range(n) for b in range(a, n)]


def _assemble(comps, base=None):
    """Symmetric field grid + (n, n) from stacked upper-triangle components."""
    n = math.isqrt(2 * len(comps))  # len(comps) = n (n + 1) / 2
    out = np.empty(comps.shape[1:] + (n, n))
    for p, (a, b) in enumerate(_pairs(n)):
        if base is None:
            out[..., a, b] = comps[p]
        else:
            np.add(comps[p], base[a, b], out=out[..., a, b])
        out[..., b, a] = out[..., a, b]
    return out


def _filter(geom, values, symbols):
    """irfftn(symbol * rfftn(values)) for each stacked half-spectrum symbol."""
    return np.fft.irfftn(
        symbols * np.fft.rfftn(values), s=geom.grid_shape, axes=range(1, geom.n + 1)
    )


def _reduced_hessian(geom, values):
    """Stacked components of L^{-1} (1/4) Hess(values) L^{-T}, chi = L L^T."""
    return _filter(geom, values, geom._reduced_symbols)


def _reduced_field(geom, values):
    """M = L^{-1} Omega_phi L^{-T}, whose eigenvalues are those of chi^{-1} Omega_phi."""
    return _assemble(_reduced_hessian(geom, values), geom._reduced_omega0)


def potential_hessian(geom, phi):
    """Second derivative field of the potential, shape grid + (n, n)."""
    return 4.0 * _assemble(
        _filter(geom, _canonical(phi, geom.grid_shape), geom._quarter_symbols)
    )


_JACOBI_SWEEPS = 4


def _jacobi_eigvals(M):
    """Ascending eigenvalues of a symmetric 3 x 3 field by cyclic Jacobi.

    Each rotation (p, q) zeroes a_pq with t = tan(theta) =
    sign(d) 2 a_pq / (|d| + hypot(d, 2 a_pq)), d = a_qq - a_pp (t = 0
    where a_pq = d = 0), and updates a_pp -= t a_pq, a_qq += t a_pq and
    the third row.  off[r] holds a_pq for {p, q, r} = {0, 1, 2}.
    """
    diag = [M[..., i, i].copy() for i in range(3)]
    off = [M[..., 1, 2].copy(), M[..., 0, 2].copy(), M[..., 0, 1].copy()]
    for _ in range(_JACOBI_SWEEPS):
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = off[r]
            d = diag[q] - diag[p]
            den = np.abs(d) + np.hypot(d, 2.0 * apq)
            t = np.divide(np.copysign(2.0, d) * apq, den, out=np.zeros_like(d), where=den > 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            t *= apq
            diag[p] -= t
            diag[q] += t
            arp, arq = off[q], off[p]
            off[q] = c * arp - s * arq
            off[p] = s * arp + c * arq
            off[r] = np.zeros_like(apq)
    return np.sort(np.stack(diag, axis=-1), axis=-1)


def _eigvals(M):
    """Ascending eigenvalues of a symmetric field grid + (n, n).

    For n = 2 the closed form takes lam_max = mean + radius, which has no
    cancellation, and lam_min = det / lam_max, which keeps relative
    accuracy for nearly diagonal matrices; lam_max <= 0 (never on the
    cone) falls back to mean - radius.

    For n = 3 a fixed count of cyclic Jacobi sweeps runs on the six unique
    entries (`_jacobi_eigvals`).  Four sweeps bring the off-diagonals below
    1e-22 lam_max on rotated spectra at spreads up to 10^+-4; three do not.
    On positive definite matrices Jacobi is as accurate as QR or more, and
    keeps relative accuracy on graded forms D A D (Demmel and Veselic,
    SIAM J. Matrix Anal. Appl. 13(4), 1992).
    """
    n = M.shape[-1]
    if n == 1:
        return M[..., 0].copy()
    if n == 2:
        a, b, c = M[..., 0, 0], M[..., 0, 1], M[..., 1, 1]
        mean = 0.5 * (a + c)
        radius = np.hypot(0.5 * (a - c), b)
        lam_max = mean + radius
        lam_min = np.divide(a * c - b * b, lam_max, out=mean - radius, where=lam_max > 0.0)
        return np.stack([lam_min, lam_max], axis=-1)
    return _jacobi_eigvals(M)


def form_eigenvalues(geom, omega):
    """Ascending generalized eigenvalues of a symmetric form field against chi.

    omega has shape grid + (n, n); the result has shape grid + (n,).
    """
    return _eigvals(geom._reduce(np.asarray(omega, dtype=float)))


def eigenvalue_field(geom, phi):
    """Ascending generalized eigenvalues lam(x), shape grid + (n,)."""
    return _eigvals(_reduced_field(geom, _canonical(phi, geom.grid_shape)))


# ---------------------------------------------------------------------------
# residual / margin / linearization
# ---------------------------------------------------------------------------

def _require_positive(lam, message, report_value=True):
    """Raise ConeBreachError at the worst point unless every eigenvalue is positive."""
    lam_min = lam[..., 0]
    worst = np.unravel_index(np.argmin(lam_min), lam_min.shape)
    if lam_min[worst] <= 0.0:
        raise ConeBreachError(
            message,
            worst_point=worst,
            value=float(lam_min[worst]) if report_value else None,
        )


def _operator_coeffs(coeffs, t):
    """a_0..a_n of the symmetric part sum_k a_k e_k(lam) of the stage-t residual:
    a_0 = 0, a_k = -t c_k / C(n,k) for 0 < k < n, a_n = 1."""
    n = coeffs.n
    inner = [-(t * coeffs.c[k - 1] * coeffs.weight(k)) for k in range(1, n)]
    return [0.0] + inner + [1.0]


def _sym_part(coeffs, t, lam):
    """sum_k a_k e_k(lam), ascending in k, skipping vanishing a_k."""
    n = coeffs.n
    a = _operator_coeffs(coeffs, t)
    e_all = elem_sym_all(lam)
    G = e_all[..., n].copy()
    for k in range(1, n):
        if a[k]:
            G += a[k] * e_all[..., k]
    return G


def _residual_from_lam(coeffs, t, f_grid, lam, slack):
    G = _sym_part(coeffs, t, lam)
    c0 = coeffs.c0 if coeffs.c0 is not None else 0.0
    if t < 1.0 and coeffs.c0 is None:
        raise ValueError("residual: c0 required for t < 1 (attach via with_c0)")
    return G - t * f_grid - (1.0 - t) * c0 - slack


def _check_f_grid(geom, f_grid):
    f = np.asarray(f_grid, dtype=float)
    if f.shape != geom.grid_shape:
        raise ValueError("f grid has wrong shape")
    if not np.all(np.isfinite(f)):
        raise ValueError("f grid has non-finite values")
    return f


def residual(geom, coeffs, f_grid, t, phi, slack=0.0):
    """Stage-t pointwise residual; raises ConeBreachError off the positive cone."""
    f = _check_f_grid(geom, f_grid)
    lam = eigenvalue_field(geom, phi)
    _require_positive(lam, "residual: deformed form lost positivity")
    return _residual_from_lam(coeffs, t, f, lam, slack)


@dataclass(frozen=True)
class ConeMarginReport:
    min_margin: float
    argmin: tuple
    field: np.ndarray


def cone_margin_field(geom, coeffs, t, phi):
    """Per-point cone margins 1 - max_i load_i for the stage-t loads.

    Returns the global minimum, the grid point attaining it, and the full
    margin field.
    """
    lam = eigenvalue_field(geom, phi)
    _require_positive(lam, "cone_margin_field: deformed form lost positivity")
    margins = margin_field(coeffs, t, lam)
    argmin = np.unravel_index(np.argmin(margins), margins.shape)
    return ConeMarginReport(float(margins[argmin]), tuple(int(i) for i in argmin), margins)


class LinearizedResidual:
    """Frozen-coefficient derivative of the residual at an iterate.

    apply(psi) evaluates  (1/4) sum_ab Q_ab(x) (Hess psi)_ab(x)  where Q is
    the matrix derivative of the symmetric-function term; the derivative
    with respect to the slack unknown is the constant -1.  `reduced` is the
    matrix field M = L^{-1} Omega_phi L^{-T} at the iterate.
    """

    slack_direction = -1.0

    def __init__(self, geom, q_field, reduced):
        self.geom = geom
        self.q_field = q_field
        self.reduced = reduced
        # Q_ab per stacked pair, counted twice off the diagonal (Q_ab = Q_ba)
        self._pair_weights = np.stack(
            [(1.0 if a == b else 2.0) * q_field[..., a, b] for a, b in _pairs(geom.n)]
        )

    def apply(self, psi):
        comps = _filter(self.geom, np.asarray(psi, dtype=float), self.geom._quarter_symbols)
        return np.einsum("p...,p...->...", self._pair_weights, comps)

    def mean_symbol(self):
        """Symbol magnitude m(k) of the averaged-coefficient operator on the
        rfftn half spectrum."""
        qbar = self._pair_weights.reshape(len(self._pair_weights), -1).mean(axis=1)
        return -np.tensordot(qbar, self.geom._quarter_symbols, axes=1)


def linearize(geom, coeffs, f_grid, t, phi):
    """Exact derivative of `residual` in (phi, slack) at the given iterate.

    The residual is sum_k a_k e_k(M) + const with M = L^{-1} Omega_phi L^{-T}.
    Its matrix derivative needs no eigenvectors:

        P = sum_k a_k sum_j (-1)^j e_{k-1-j}(M) M^j,   Q = L^{-T} P L^{-1}.
    """
    _check_f_grid(geom, f_grid)
    reduced = _reduced_field(geom, _canonical(phi, geom.grid_shape))
    return _linearization(geom, coeffs, t, reduced, _eigvals(reduced))


def _linearization(geom, coeffs, t, reduced, lam):
    """`linearize` at the iterate whose reduced field and eigenvalues are given."""
    _require_positive(lam, "linearize: deformed form lost positivity")
    n = geom.n
    a = _operator_coeffs(coeffs, t)
    e_all = elem_sym_all(lam)
    P = np.zeros_like(reduced)
    power = np.eye(n)
    for j in range(n):
        if j:
            power = reduced if j == 1 else power @ reduced
        beta = (-1) ** j * sum(a[k] * e_all[..., k - 1 - j] for k in range(j + 1, n + 1))
        P += beta[..., None, None] * power
    Linv = geom._chol_inv
    return LinearizedResidual(geom, Linv.T @ P @ Linv, reduced)


# ---------------------------------------------------------------------------
# Newton with bordered mean-zero/slack system
# ---------------------------------------------------------------------------

_GMRES_RTOL = 1e-12
_GMRES_RESTART = 64
_GMRES_MAXITER = 40


def _gmres(operator, b):
    """Restarted GMRES from x0 = 0 (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7(3), 1986).

    Arnoldi with modified Gram-Schmidt; Givens rotations keep the residual
    of the small least-squares problem.  A cycle ends when that residual
    reaches _GMRES_RTOL |b| or after _GMRES_RESTART iterations; then the
    true residual b - A x is recomputed and tested against _GMRES_RTOL |b|.
    A cycle that does not lower the true residual, or _GMRES_MAXITER
    cycles, raise LinearSolveStallError.  Returns x, the iteration count and
    the true relative residual.
    """
    restart = _GMRES_RESTART
    b_norm = np.linalg.norm(b)
    tol = _GMRES_RTOL * b_norm
    x = np.zeros_like(b)
    r, r_norm = b, b_norm
    iterations = 0
    for _ in range(_GMRES_MAXITER):
        basis = [r / r_norm]
        hess = np.zeros((restart, restart))
        cs, sn = np.zeros(restart), np.zeros(restart)
        g = np.zeros(restart + 1)
        g[0] = r_norm
        for j in range(restart):
            w = operator(basis[j])
            iterations += 1
            for i, v in enumerate(basis):
                hess[i, j] = w @ v
                w -= hess[i, j] * v
            h_next = np.linalg.norm(w)
            for i in range(j):
                hess[i, j], hess[i + 1, j] = (cs[i] * hess[i, j] + sn[i] * hess[i + 1, j],
                                              cs[i] * hess[i + 1, j] - sn[i] * hess[i, j])
            rho = np.hypot(hess[j, j], h_next)
            cs[j], sn[j] = hess[j, j] / rho, h_next / rho
            hess[j, j] = rho
            g[j + 1] = -sn[j] * g[j]
            g[j] *= cs[j]
            if abs(g[j + 1]) <= tol:
                break
            basis.append(w / h_next)
        k = j + 1
        for coef, v in zip(np.linalg.solve(hess[:k, :k], g[:k]), basis):
            x += coef * v
        r = b - operator(x)
        new_norm = np.linalg.norm(r)
        if new_norm <= tol:
            return x, iterations, float(new_norm / b_norm)
        if not new_norm < r_norm:
            raise LinearSolveStallError(
                f"inner GMRES stalled at relative residual {new_norm / b_norm:.3e} "
                f"after {iterations} iterations"
            )
        r_norm = new_norm
    raise LinearSolveStallError(
        f"inner GMRES stopped at relative residual {r_norm / b_norm:.3e} "
        f"after {iterations} iterations ({_GMRES_MAXITER} restarts)"
    )


def _newton_step(geom, lin, res):
    """Solve the bordered system J (dphi, ds) = (-res, 0), mean(dphi) = 0.

    The preconditioner P^{-1} inverts the averaged-coefficient operator with
    its border: (rho, v) -> (psi, ds), psi_hat = inverse_symbol * rho_hat + v
    on the constant mode, ds = -mean(rho).  GMRES runs on J P^{-1}, so it
    minimises the true residual, and

        J P^{-1} (rho, v) = (sum_p w_p F^{-1}(sym_p inverse_symbol rho_hat) + mean(rho), v)

    costs one rfftn and one batched irfftn per iteration.  Returns dphi, ds,
    the GMRES iteration count and the achieved true relative residual.
    """
    N = geom.npoints
    shape = geom.grid_shape
    symbol = lin.mean_symbol()
    if np.any(symbol.flat[1:] <= 0):
        raise LinearSolveStallError(
            "preconditioner symbol lost positivity (averaged coefficients not elliptic)"
        )
    inverse_symbol = np.zeros_like(symbol)
    np.divide(-1.0, symbol, out=inverse_symbol, where=symbol > 0)
    kernel = geom._quarter_symbols * inverse_symbol
    axes = range(1, geom.n + 1)

    def operator(y):
        rho_hat = np.fft.rfftn(y[:N].reshape(shape))
        comps = np.fft.irfftn(kernel * rho_hat, s=shape, axes=axes)
        out = np.empty_like(y)
        out[:N] = np.einsum("p...,p...->...", lin._pair_weights, comps).ravel()
        out[:N] -= lin.slack_direction * rho_hat.flat[0].real / N
        out[N] = y[N]
        return out

    rhs = np.append(-res.ravel(), 0.0)
    y, iterations, linear_residual = _gmres(operator, rhs)
    rho_hat = np.fft.rfftn(y[:N].reshape(shape))
    dphi = np.fft.irfftn(inverse_symbol * rho_hat, s=shape, axes=range(geom.n))
    return dphi, float(-rho_hat.flat[0].real / N), iterations, linear_residual


@dataclass
class SolveState:
    phi: np.ndarray
    t: float
    slack: float
    residual_sup: float
    min_cone_margin: float
    newton_trace: list
    stages: list = field(default_factory=list)


def _diagnostics(coeffs, f, t, lam, slack):
    """(residual, margin field), or (None, None) off the positive cone."""
    if lam[..., 0].min() <= 0.0:
        return None, None
    res = _residual_from_lam(coeffs, t, f, lam, slack)
    margin = margin_field(coeffs, t, lam)
    return res, margin


def newton_solve(
    geom,
    coeffs,
    f_grid,
    t,
    phi0=None,
    slack0=0.0,
    tol=1e-10,
    max_iter=50,
):
    """Damped Newton for the stage-t equation with slack and mean-zero phi.

    Step acceptance needs a residual decrease *and* a strictly positive
    cone margin at every grid point; the damping factor halves down to
    2**-20 before the step is declared inadmissible.  The reduced matrix
    field is linear in phi, so a trial at damping alpha evaluates
    M(phi) + alpha M'(dphi) without differentiating again, and an accepted
    trial hands its M and eigenvalues on to the next linearization: M(phi)
    is built once per call and eigenvalues are taken once per trial.

    Each newton_trace entry records the iteration, the residual after the
    step, the accepted damping factor, the line-search trials, how many of
    them left the cone, the GMRES iterations of the step and the true
    relative residual GMRES reached.
    """
    f = _check_f_grid(geom, f_grid)
    phi = (
        np.zeros(geom.grid_shape) if phi0 is None else _canonical(phi0, geom.grid_shape)
    )
    slack = float(slack0)
    reduced = _reduced_field(geom, phi)
    lam = _eigvals(reduced)
    res, margin = _diagnostics(coeffs, f, t, lam, slack)
    if res is None:
        raise ConeBreachError("newton_solve: initial state off the positive cone")
    if margin.min() <= 0.0:
        raise ConeBreachError(
            "newton_solve: initial state violates the cone condition",
            value=float(margin.min()),
        )
    trace = []
    res_sup = float(np.abs(res).max())
    for it in range(max_iter):
        if res_sup <= tol:
            return SolveState(phi, t, slack, res_sup, float(margin.min()), trace)
        lin = _linearization(geom, coeffs, t, reduced, lam)
        dphi, ds, gmres_iterations, linear_residual = _newton_step(geom, lin, res)
        d_reduced = _assemble(_reduced_hessian(geom, dphi))
        alpha = 1.0
        accepted = False
        cone_rejections = 0
        trials = 0
        while alpha >= 2.0**-20:
            trials += 1
            slack_try = slack + alpha * ds
            reduced_try = lin.reduced + alpha * d_reduced
            lam_try = _eigvals(reduced_try)
            res_try, margin_try = _diagnostics(coeffs, f, t, lam_try, slack_try)
            if res_try is None or margin_try.min() <= 0.0:
                cone_rejections += 1
                alpha *= 0.5
                continue
            res_try_sup = float(np.abs(res_try).max())
            if res_try_sup <= (1.0 - 1e-4 * alpha) * res_sup:
                phi, slack = _canonical(phi + alpha * dphi), slack_try
                reduced, lam = reduced_try, lam_try
                res, margin, res_sup = res_try, margin_try, res_try_sup
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            if cone_rejections == trials:
                raise ConeBreachError(
                    "newton_solve: no admissible damping preserves the cone condition"
                )
            raise MaxIterationsError(
                "newton_solve: line search failed to reduce the residual"
            )
        trace.append(
            {"iteration": it, "residual_sup": res_sup, "step_factor": alpha,
             "trials": trials, "cone_rejections": cone_rejections,
             "gmres_iterations": gmres_iterations, "linear_residual": linear_residual}
        )
    if res_sup <= tol:
        return SolveState(phi, t, slack, res_sup, float(margin.min()), trace)
    raise MaxIterationsError(
        f"newton_solve: residual {res_sup:.3e} above tol {tol:.1e} after {max_iter} iterations"
    )


# ---------------------------------------------------------------------------
# class integrals, compatibility, manufacturing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyIntegrals:
    values: tuple  # values[k] = integral of the k-th mixed power, chi-normalized
    c0: float
    defect: float | None


def cohomology_integrals(geom, coeffs=None, f_grid=None):
    """Mixed class integrals value_k = S_k(lam0) / C(n,k) of the flat data.

    lam0 are the generalized eigenvalues of omega0 against chi; value_n is
    the constant c0 fixed at the start of the continuity path.  When the
    coefficient set and source grid are supplied, the compatibility defect
      value_n - sum_k c_k value_k - mean(f)
    is reported as well (zero in the continuum; the grid mean of f stands
    in for its chi-normalized integral since chi is constant).  lam0 come
    from the same eigenvalue routine as the fields, so phi = 0 solves the
    t = 0 equation to the last bit.
    """
    lam0 = _eigvals(geom._reduced_omega0[None])[0]
    n = geom.n
    e_all = elem_sym_all(lam0)
    values = tuple(float(e_all[k] * (1.0 / math.comb(n, k))) for k in range(n + 1))
    c0 = values[n]
    defect = None
    if coeffs is not None and f_grid is not None:
        f = _check_f_grid(geom, f_grid)
        acc = c0
        for k in range(1, n):
            acc -= coeffs.c[k - 1] * values[k]
        defect = float(acc - f.mean())
    return CohomologyIntegrals(values, c0, defect)


@dataclass(frozen=True)
class ManufacturedCase:
    phi_star: np.ndarray
    f_grid: np.ndarray


def manufacture(geom, coeffs, phi_star):
    """Source grid for which phi_star solves the endpoint equation exactly:

        f := e_n(lam*) - sum_k c_k/C(n,k) e_k(lam*)

    evaluated with the same discrete operators used by the solver, so the
    endpoint residual of phi_star vanishes identically.
    """
    phi = _canonical(phi_star, geom.grid_shape)
    lam = eigenvalue_field(geom, phi)
    _require_positive(
        lam, "manufacture: phi_star leaves the positive cone", report_value=False
    )
    return ManufacturedCase(phi, _sym_part(coeffs, 1.0, lam))


# ---------------------------------------------------------------------------
# continuity path
# ---------------------------------------------------------------------------

def _validate_source_regime(coeffs, f, class_ratio):
    """Regime checks with a 1e-10 warning band.

    With all c_k = 0 a positive source is necessary for pointwise
    solvability, so a violation is fatal.  With some c_k > 0 the floor
    from `source_floor` is only the bound under which existence is
    guaranteed; sources below it (manufactured instances routinely are)
    get a warning and the path is attempted anyway, failing honestly if
    it actually breaks.
    """
    fmin = float(f.min())
    fmean = float(f.mean())
    if coeffs.regime == "AllZeroPositiveF":
        if fmin <= 0.0:
            raise ValueError(
                "continuity_solve: with all c_k = 0 the source must be positive"
            )
        if fmin <= 1e-10:
            warnings.warn("source minimum within 1e-10 of the positivity bound")
    else:
        floor = source_floor(coeffs, class_ratio).floor
        if fmin <= floor:
            warnings.warn(
                f"source minimum {fmin:.3e} is below the guaranteed floor "
                f"{floor:.3e}; existence is not covered, attempting the path anyway"
            )
        elif fmin <= floor + 1e-10:
            warnings.warn("source minimum within 1e-10 of its guaranteed floor")
        if fmean < -1e-10:
            warnings.warn(
                f"source integral {fmean:.3e} is negative; outside the guaranteed regime"
            )
        elif fmean < 0.0:
            warnings.warn("source integral within 1e-10 below zero")


_COMPAT_TOL = 1e-8
_DT_MIN = 1e-4


def continuity_solve(geom, coeffs, f_grid, tol=1e-10, dt_init=0.25):
    """March the interpolation parameter from 0 to 1.

    The constant c0 comes from the class integrals; the discrete
    compatibility defect must not exceed _COMPAT_TOL.  Step control: start
    at dt_init, halve on a failed stage, double after two consecutive
    successes, abort below _DT_MIN.  Each stage is one `newton_solve` at
    its default iteration cap.
    """
    f = _check_f_grid(geom, f_grid)
    integrals = cohomology_integrals(geom, coeffs, f)
    if abs(integrals.defect) > _COMPAT_TOL:
        raise CompatibilityError(
            f"compatibility defect {integrals.defect:.3e} exceeds {_COMPAT_TOL:.1e}",
            defect=integrals.defect,
        )
    coeffs = coeffs.with_c0(integrals.c0)
    _validate_source_regime(coeffs, f, integrals.c0)

    def stage_record(t_val, st):
        return {
            "t": t_val,
            "residual_sup": st.residual_sup,
            "min_cone_margin": st.min_cone_margin,
            "slack": st.slack,
            "newton_iterations": len(st.newton_trace),
        }

    state = newton_solve(geom, coeffs, f, 0.0, tol=tol)
    stages = [stage_record(0.0, state)]
    t = 0.0
    dt = dt_init
    streak = 0
    while t < 1.0:
        t_try = min(t + dt, 1.0)
        try:
            trial = newton_solve(
                geom, coeffs, f, t_try, phi0=state.phi, slack0=state.slack, tol=tol
            )
        except (ConeBreachError, MaxIterationsError, LinearSolveStallError):
            dt *= 0.5
            streak = 0
            if dt < _DT_MIN:
                raise StepUnderflowError(
                    f"continuity_solve: step underflow at t = {t:.6f}"
                )
            continue
        state = trial
        t = t_try
        stages.append(stage_record(t, state))
        streak += 1
        if streak >= 2:
            dt = min(2.0 * dt, dt_init)
            streak = 0
    state.stages = stages
    return state


# ---------------------------------------------------------------------------
# class-path probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassPathReport:
    rows: tuple  # dicts with keys s, shift, solvable, min_cone_margin, residual_sup, error

    @property
    def upward_closed(self):
        """Solvable set is upward closed in s."""
        solvable_seen = False
        for row in sorted(self.rows, key=lambda r: r["s"]):
            if row["solvable"]:
                solvable_seen = True
            elif solvable_seen:
                return False
        return True


def class_path_probe(geom, coeffs, f_grid, s_list):
    """Scale the unknown's class by (1+s) and retry the solve for each s.

    For each scale the additive constant a_s is recomputed from the class
    integrals so the scaled instance is exactly compatible; the source
    becomes f + a_s and the full continuity path is attempted.
    """
    f = _check_f_grid(geom, f_grid)
    rows = []
    for s in sorted(float(s) for s in s_list):
        if s <= -1.0:
            raise ValueError("class_path_probe: scale 1+s must stay positive")
        geom_s = replace(geom, omega0=(1.0 + s) * geom.omega0)
        ints = cohomology_integrals(geom_s, coeffs, f)
        a_s = ints.defect  # shift that restores exact compatibility
        f_s = f + a_s
        row = {"s": s, "shift": float(a_s)}
        try:
            state = continuity_solve(geom_s, coeffs, f_s)
            row.update(
                solvable=True,
                min_cone_margin=state.min_cone_margin,
                residual_sup=state.residual_sup,
                error=None,
            )
        except (ConeBreachError, MaxIterationsError, LinearSolveStallError,
                StepUnderflowError, ValueError) as exc:
            row.update(
                solvable=False,
                min_cone_margin=None,
                residual_sup=None,
                error=type(exc).__name__,
            )
        rows.append(row)
    return ClassPathReport(tuple(rows))
