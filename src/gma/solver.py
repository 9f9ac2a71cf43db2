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
absorbs the residual discrete incompatibility.  Residual, margins and the
Newton system all live in the chi-reduced coordinates M = L^{-1} Omega_phi
L^{-T} (chi = L L^T), whose eigenvalues are those of chi^{-1} Omega_phi.
Every symmetric field there (M, the Newton step dM, the derivative P) is
held as its n(n+1)/2 upper-triangle components stacked on a leading axis,
and one fold matrix maps a form's components to its chi-reduction's; the
grid + (n, n) form appears only in `form_eigenvalues` and
`potential_hessian`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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


# About 350 B per grid point plus 8 B per GMRES basis vector, ~860 B at the
# full basis of 64, so 2**22 points take ~3.6 GB; more are refused up front.
_MAX_POINTS = 2**22


@dataclass(frozen=True)
class TorusGeometry:
    """Flat torus [0,1)^n with constant background matrices.

    grid_shape entries must be even and >= 8 (even sizes keep the real
    spectral derivatives well defined; 8 is the coarsest grid any scheme
    here is trusted on), at most 2**22 points in all.  scheme discretises
    the Hessian of every potential: "spectral" (exact on resolved modes)
    or "fd" (the centred second-order stencils).
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
        if math.prod(shape) > _MAX_POINTS:
            raise ValueError(
                f"TorusGeometry: {math.prod(shape)} grid points exceed the limit {_MAX_POINTS}"
            )
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

    @functools.cached_property
    def _fold(self):
        """The chi-reduction omega -> L^{-1} omega L^{-T} on stacked components,
        chi = L L^T; an off-diagonal column (a, b) carries omega_ab and omega_ba."""
        L, pairs = self._chol_inv, _pairs(self.n)
        return np.array([[L[i, a] * L[j, b] + (L[i, b] * L[j, a] if a != b else 0.0)
                          for a, b in pairs] for i, j in pairs])

    def _reduce(self, comps):
        """Stacked components of L^{-1} omega L^{-T} from those of omega."""
        return np.tensordot(self._fold, comps, axes=1)

    @functools.cached_property
    def _pair_index(self):
        """(n, n) table of the stacked position of pair (a, b), symmetric."""
        pairs, axes = _pairs(self.n), range(self.n)
        return np.array([[pairs.index((min(a, b), max(a, b))) for b in axes] for a in axes])

    @functools.cached_property
    def _reduced_omega0(self):
        """Components of M0 = L^{-1} omega0 L^{-T}, shaped to broadcast over the grid."""
        return self._reduce(_components(self.omega0)).reshape((-1,) + (1,) * self.n)

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
        return self._reduce(self._quarter_symbols)


def _checked_grid(values, shape, name):
    """values as a float array; raises ValueError on a wrong shape (unless
    shape is None) or a non-finite value."""
    v = np.asarray(values, dtype=float)
    if shape is not None and v.shape != tuple(shape):
        raise ValueError(f"{name} grid has wrong shape")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} grid has non-finite values")
    return v


def _canonical(values, shape=None):
    v = _checked_grid(values, shape, "potential")
    return v - v.mean()


def trig_polynomial(grid_shape, constant=0.0, terms=()):
    """Sample  constant + sum_j amp_j cos(2 pi wave_j . x + phase_j)  on the grid."""
    shape = tuple(int(s) for s in grid_shape)
    mesh = np.meshgrid(*[np.arange(s) / s for s in shape], indexing="ij")
    out = np.full(shape, float(constant))
    for term in terms:
        amp = float(term["amplitude"])
        try:
            wave = tuple(float(int(w)) for w in term["wave"])
        except OverflowError:
            raise ValueError("trig_polynomial: wave entries must lie in the float range") from None
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


def _components(omega):
    """Stacked components of the symmetric part of omega, shape grid + (n, n)."""
    pairs = _pairs(omega.shape[-1])
    return np.stack([0.5 * (omega[..., a, b] + omega[..., b, a]) for a, b in pairs])


def _filter(geom, values, symbols):
    """irfftn(symbol * rfftn(values)) for each stacked half-spectrum symbol."""
    return np.fft.irfftn(
        symbols * np.fft.rfftn(values), s=geom.grid_shape, axes=range(1, geom.n + 1)
    )


def _reduced_hessian(geom, values):
    """Stacked components of L^{-1} (1/4) Hess(values) L^{-T}, chi = L L^T."""
    return _filter(geom, values, geom._reduced_symbols)


def _reduced_field(geom, values):
    """Components of M = L^{-1} Omega_phi L^{-T}; its eigenvalues are chi^{-1} Omega_phi's."""
    return _reduced_hessian(geom, values) + geom._reduced_omega0


def potential_hessian(geom, phi):
    """Second derivative field of the potential, shape grid + (n, n)."""
    comps = _filter(geom, _canonical(phi, geom.grid_shape), geom._quarter_symbols)
    return np.moveaxis(4.0 * comps[geom._pair_index], (0, 1), (-2, -1))


_JACOBI_SWEEPS = 4


def _jacobi_eigvals(M):
    """Ascending eigenvalue planes of a symmetric 3 x 3 stacked-component field by cyclic Jacobi.

    Each rotation (p, q) zeroes a_pq with t = tan(theta) =
    sign(d) 2 a_pq / (|d| + hypot(d, 2 a_pq)), d = a_qq - a_pp (t = 0
    where a_pq = d = 0), and updates a_pp -= t a_pq, a_qq += t a_pq and
    the third row.  off[r] holds a_pq for {p, q, r} = {0, 1, 2}.
    """
    diag = [M[0].copy(), M[3].copy(), M[5].copy()]
    off = [M[4].copy(), M[2].copy(), M[1].copy()]
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
    for p, q in ((0, 1), (1, 2), (0, 1)):  # sorting network
        diag[p], diag[q] = np.minimum(diag[p], diag[q]), np.maximum(diag[p], diag[q])
    return np.stack(diag)


def _eigvals(M):
    """Ascending eigenvalues, shape grid + (n,), of a field of stacked components.

    The eigenvalues are n contiguous planes on a leading axis and the
    result is a view of them, so `gma.kernel`'s batched layer reads planes.

    For n = 2 the closed form takes lam_max = mean + radius, which has no
    cancellation, and lam_min = det / lam_max, which keeps relative accuracy
    for nearly diagonal matrices; lam_max <= 0 (never on the cone) falls
    back to mean - radius.  A field whose largest entry is outside 2^+-500
    is scaled first, each point by the exact power of two of its own largest
    entry, so a c - b^2 stays in range at every point; a field inside that
    range is not scaled.

    For n = 3 a fixed count of cyclic Jacobi sweeps runs on the six unique
    entries (`_jacobi_eigvals`).  Four sweeps bring the off-diagonals below
    1e-22 lam_max on rotated spectra at spreads up to 10^+-4; three do not.
    On positive definite matrices Jacobi is as accurate as QR or more, and
    keeps relative accuracy on graded forms D A D (Demmel and Veselic,
    SIAM J. Matrix Anal. Appl. 13(4), 1992).
    """
    if len(M) == 1:
        return np.moveaxis(M.copy(), 0, -1)
    if len(M) == 3:
        scaled = abs(np.frexp(np.abs(M).max())[1]) > 500  # exponent 0 for zeros, inf or nan
        if scaled:
            exponent = np.frexp(np.abs(M).max(axis=0))[1]
            M = np.ldexp(M, -exponent)
        a, b, c = M
        mean = 0.5 * (a + c)
        radius = np.hypot(0.5 * (a - c), b)
        lam_max = mean + radius
        lam_min = np.divide(a * c - b * b, lam_max, out=mean - radius, where=lam_max > 0.0)
        planes = np.stack([lam_min, lam_max])
        return np.moveaxis(np.ldexp(planes, exponent) if scaled else planes, 0, -1)
    return np.moveaxis(_jacobi_eigvals(M), 0, -1)


def form_eigenvalues(geom, omega):
    """Ascending generalized eigenvalues of a symmetric form field against chi.

    omega has shape grid + (n, n), and only its symmetric part is read;
    the result has shape grid + (n,).
    """
    return _eigvals(geom._reduce(_components(np.asarray(omega, dtype=float))))


def eigenvalue_field(geom, phi):
    """Ascending generalized eigenvalues lam(x), shape grid + (n,)."""
    return _eigvals(_reduced_field(geom, _canonical(phi, geom.grid_shape)))


# ---------------------------------------------------------------------------
# residual / margin / linearization
# ---------------------------------------------------------------------------

def _positive_field(geom, phi, message, report_value=True):
    """(M, lam): the reduced field at phi and its ascending eigenvalues.

    Raises ConeBreachError(message) with the least eigenvalue unless every
    eigenvalue is positive.
    """
    reduced = _reduced_field(geom, _canonical(phi, geom.grid_shape))
    lam = _eigvals(reduced)
    value = lam[..., 0].min()
    if value <= 0.0:
        raise ConeBreachError(message, value=float(value) if report_value else None)
    return reduced, lam


def _sym_part(coeffs, t, lam):
    """e_n(lam) - sum_k w_k e_k(lam) over the stage-t weights, ascending in k,
    skipping vanishing w_k, and the size of its terms e_n(lam) + sum_k w_k
    e_k(lam) (every e_k is positive on the cone)."""
    e_all = elem_sym_all(lam)
    G = e_all[..., coeffs.n].copy()
    size = G.copy()
    for k, w in coeffs.weights(t):
        if w:
            term = w * e_all[..., k]
            G -= term
            size += term
    return G, size


# Newton stops at _ROUNDING_FACTOR eps S when that exceeds tol, S the size of
# the residual's terms.  On 3-D manufactured solves with c0 = 15 000 rounding
# alone leaves the residual at 15-35 eps S, and the path needs a factor of at
# least 20 at 16^3 and 24 at 24^3.
_ROUNDING_FACTOR = 64.0


def _residual_from_lam(coeffs, t, f_grid, lam, slack):
    """The stage-t residual and its rounding floor _ROUNDING_FACTOR eps S,
    S = |e_n + sum_k w_k e_k + t |f| + (1 - t) |c0||_inf."""
    G, size = _sym_part(coeffs, t, lam)
    c0_term = coeffs.c0_term(t)
    S = float((size + t * np.abs(f_grid)).max()) + abs(c0_term)
    return G - t * f_grid - c0_term - slack, _ROUNDING_FACTOR * np.finfo(float).eps * S


def residual(geom, coeffs, f_grid, t, phi, slack=0.0):
    """Stage-t pointwise residual; raises ConeBreachError off the positive cone."""
    f = _checked_grid(f_grid, geom.grid_shape, "f")
    _, lam = _positive_field(geom, phi, "residual: deformed form lost positivity")
    return _residual_from_lam(coeffs, t, f, lam, slack)[0]


@dataclass(frozen=True)
class ConeMarginReport:
    min_margin: float
    field: np.ndarray


def cone_margin_field(geom, coeffs, t, phi):
    """Per-point cone margins 1 - max_i load_i for the stage-t loads: the
    global minimum and the full margin field."""
    _, lam = _positive_field(geom, phi, "cone_margin_field: deformed form lost positivity")
    margins = margin_field(coeffs, t, lam)
    return ConeMarginReport(float(margins.min()), margins)


class LinearizedResidual:
    """Frozen-coefficient derivative of the residual at an iterate, in the
    reduced coordinates M = L^{-1} Omega_phi L^{-T}.

    apply(psi) evaluates  sum_ab P_ab(x) (L^{-1} (1/4) Hess psi L^{-T})_ab(x),
    where P, held as stacked components in p_field, is the derivative of
    the symmetric-function term in M, by `combine` on the stacked reduced
    Hessian components; the derivative with respect to the slack unknown
    is the constant -1.
    """

    slack_direction = -1.0

    def __init__(self, geom, p_field):
        self.geom = geom
        self.p_field = p_field
        # P_ab per stacked pair, counted twice off the diagonal (P_ab = P_ba)
        self._pair_weights = np.stack(
            [p if a == b else 2.0 * p for p, (a, b) in zip(p_field, _pairs(geom.n))]
        )

    def apply(self, psi):
        return self.combine(_reduced_hessian(self.geom, np.asarray(psi, dtype=float)))

    def combine(self, comps):
        """sum_ab P_ab(x) comps_ab(x) for components stacked over pairs a <= b."""
        return np.einsum("p...,p...->...", self._pair_weights, comps)

    def mean_symbol(self):
        """Symbol magnitude m(k) of the averaged-coefficient operator on the
        rfftn half spectrum."""
        pbar = self._pair_weights.reshape(len(self._pair_weights), -1).mean(axis=1)
        return -np.tensordot(pbar, self.geom._reduced_symbols, axes=1)


def linearize(geom, coeffs, f_grid, t, phi):
    """Exact derivative of `residual` in (phi, slack) at the given iterate.

    The residual is sum_k a_k e_k(M) + const with M = L^{-1} Omega_phi L^{-T},
    a_n = 1 and a_k = -w_k for the stage-t weights.  Its derivative in M
    needs no eigenvectors:

        P = sum_k a_k sum_j (-1)^j e_{k-1-j}(M) M^j.
    """
    _checked_grid(f_grid, geom.grid_shape, "f")
    reduced, lam = _positive_field(geom, phi, "linearize: deformed form lost positivity")
    return _linearization(geom, coeffs, t, reduced, lam)


def _linearization(geom, coeffs, t, reduced, lam):
    """`linearize` at an iterate on the positive cone from its reduced field's
    components and eigenvalues: P = sum_j beta_j M^j, M^2 over the pair table."""
    n = geom.n
    a = [(k, -w) for k, w in coeffs.weights(t)] + [(n, 1.0)]  # (k, a_k), ascending
    e_all = elem_sym_all(lam)
    beta = [(-1) ** j * sum(ak * e_all[..., k - 1 - j] for k, ak in a if k > j) for j in range(n)]
    index = geom._pair_index
    P = beta[1] * reduced if n > 1 else np.zeros_like(reduced)
    P[index.diagonal()] += beta[0]
    if n == 3:
        square = [sum(reduced[index[i, c]] * reduced[index[c, k]] for c in range(n))
                  for i, k in _pairs(n)]
        P += beta[2] * np.stack(square)
    return LinearizedResidual(geom, P)


# ---------------------------------------------------------------------------
# Newton with mean-zero phi and a slack unknown
# ---------------------------------------------------------------------------

_GMRES_RTOL = 1e-12
_GMRES_RESTART = 64
_GMRES_MAXITER = 40


def _dot(u, v):
    """u . v of two grid-sized vectors, in einsum's single-threaded loop.

    Not BLAS: OpenBLAS splits a dot product past 10^4 entries across its
    threads, so each call waited on all of them (on two cores, a process
    busy on one made solves 2.5 times slower) and the low bits of the sum,
    hence of every solve, depended on the thread count.
    """
    return np.einsum("i,i->", u, v)


def _norm(u):
    return np.sqrt(_dot(u, u))


def _gmres(operator, b, rtol=_GMRES_RTOL):
    """Restarted GMRES from x0 = 0 (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7(3), 1986).

    Arnoldi with modified Gram-Schmidt; Givens rotations keep the residual
    of the small least-squares problem.  The caller supplies the relative
    tolerance rtol.  A cycle ends when that residual reaches rtol |b| or
    after _GMRES_RESTART iterations; then the true residual b - A x is
    recomputed and tested against rtol |b|.  A cycle that does not lower
    the true residual, or _GMRES_MAXITER cycles, raise
    LinearSolveStallError.  Returns x, the argument of the last operator
    call, the iteration count and the true relative residual.
    """
    restart = _GMRES_RESTART
    b_norm = _norm(b)
    tol = rtol * b_norm
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
                hess[i, j] = _dot(w, v)
                w -= hess[i, j] * v
            h_next = _norm(w)
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
        new_norm = _norm(r)
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


def _inverse_transform(spectrum, scratch, out):
    """out = irfftn(spectrum) over every axis but the leading stacking axis.

    irfftn's own passes in its order: a complex ifft over each full axis,
    ascending, then the real irfft over the halved last axis.  The passes
    alternate between spectrum and scratch, both overwritten, and the last
    writes into out, so the result equals `np.fft.irfftn` bit for bit and
    no pass allocates.
    """
    for axis in range(1, spectrum.ndim - 1):
        np.fft.ifft(spectrum, axis=axis, out=scratch)
        spectrum, scratch = scratch, spectrum
    return np.fft.irfft(spectrum, n=out.shape[-1], axis=-1, out=out)


def _newton_step(geom, lin, res, rtol):
    """Solve J (dphi, ds) = -res, mean(dphi) = 0, to the relative tolerance
    rtol the caller supplies.

    The preconditioner B^{-1} inverts the averaged-coefficient operator and
    gives the constant mode to the slack: rho -> (psi, ds), psi_hat =
    inverse_symbol * rho_hat, ds = -mean(rho).  GMRES runs on J B^{-1}, so
    it minimises the true residual, and with w_p the pair weights of P

        J B^{-1} rho = sum_p w_p F^{-1}(sym_p inverse_symbol rho_hat) + mean(rho)

    costs one rfftn and one batched inverse transform per iteration, run by
    `_inverse_transform` in buffers made once per step.  Returns dphi, the
    reduced step dM = L^{-1} (1/4) Hess(dphi) L^{-T} read off the same
    spectrum (the component buffer itself), ds, the GMRES iterations and
    the true relative residual.
    """
    N = geom.npoints
    shape = geom.grid_shape
    symbol = lin.mean_symbol()
    if np.any(symbol.flat[1:] <= 0):
        raise LinearSolveStallError(
            "preconditioner symbol lost positivity (averaged coefficients not elliptic)"
        )
    inverse_symbol = np.divide(-1.0, symbol, out=np.zeros_like(symbol), where=symbol > 0)
    kernel = geom._reduced_symbols * inverse_symbol
    rho_hat = np.empty(kernel.shape[1:], complex)
    spectra = (np.empty(kernel.shape, complex), np.empty(kernel.shape, complex))
    comps = np.empty(kernel.shape[:1] + shape)

    def operator(y):
        np.fft.rfftn(y.reshape(shape), out=rho_hat)
        _inverse_transform(np.multiply(kernel, rho_hat, out=spectra[0]), spectra[1], comps)
        return (lin.combine(comps) - lin.slack_direction * rho_hat.flat[0].real / N).ravel()

    # a residual outside 2^+-500 goes to GMRES scaled by the exact power of two of
    # its largest entry, so the inner products neither overflow nor underflow; the
    # operator is linear, so the step scales back exactly.  In range nothing is scaled.
    exponent = math.frexp(np.abs(res).max())[1]  # exponent 0 for zeros, inf or nan
    scaled = abs(exponent) > 500
    y, iterations, linear_residual = _gmres(
        operator, np.ldexp(-res.ravel(), -exponent) if scaled else -res.ravel(), rtol
    )
    # the transforms of _gmres's last operator call, which ran on y
    dphi = np.fft.irfftn(inverse_symbol * rho_hat, s=shape, axes=range(geom.n))
    ds = float(-rho_hat.flat[0].real / N)
    if scaled:
        np.ldexp(dphi, exponent, out=dphi)
        np.ldexp(comps, exponent, out=comps)
        ds = math.ldexp(ds, exponent)
    return dphi, comps, ds, iterations, linear_residual


@dataclass
class SolveState:
    phi: np.ndarray
    t: float
    slack: float
    residual_sup: float
    min_cone_margin: float
    newton_trace: list
    stages: list = field(default_factory=list)
    integrals: CohomologyIntegrals | None = None


_DAMPING = tuple(2.0**-j for j in range(21))


class _Start(NamedTuple):
    """Where a Newton solve starts: a canonical phi, its reduced field M and M's eigenvalues."""

    phi: np.ndarray
    reduced: np.ndarray
    lam: np.ndarray

    @classmethod
    def at(cls, geom, phi):
        reduced = _reduced_field(geom, phi)
        return cls(phi, reduced, _eigvals(reduced))

    @classmethod
    def background(cls, geom):
        """The start at phi = 0: the reduced background M0 and its eigenvalues
        at one point, broadcast to the grid as read-only views.

        The Hessian of phi = 0 is a field of signed zeros, so these carry the
        values `at` gives at every grid point.
        """
        grid, M0 = geom.grid_shape, geom._reduced_omega0
        lam0 = _eigvals(M0)
        return cls(np.zeros(grid), np.broadcast_to(M0, M0.shape[:1] + grid),
                   np.broadcast_to(lam0, grid + lam0.shape[-1:]))


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

    Newton stops when |F|_inf <= max(tol, _ROUNDING_FACTOR eps S), S the
    size of the residual's terms, so that the absolute tol does not ask for
    more than rounding allows when c0 or the source is large.

    Step acceptance needs a residual decrease *and* a strictly positive
    cone margin at every grid point; the damping factor halves down to
    2**-20 before the step is declared inadmissible.  The reduced matrix
    field is linear in phi, so a trial at damping alpha evaluates M(phi) +
    alpha dM with the reduced step dM from `_newton_step`, and an accepted
    trial hands its M and eigenvalues on to the next linearization: M(phi)
    is built once per call and eigenvalues are taken once per trial.

    Inexact Newton (Eisenstat and Walker, SIAM J. Sci. Comput. 17(1),
    1996): GMRES solves step k to the relative tolerance, the forcing term,
    eta_k = max(min(1e-2, |F_k|_inf), _GMRES_RTOL).  Contraction test
    (Deuflhard, Newton Methods for Nonlinear Problems, 2004, sec. 3.3):
    after each accepted step k >= 1 whose residual is still above that bound,
    Theta_k = |F_{k+1}|_inf / |F_k|_inf > 1/2 raises MaxIterationsError
    naming Theta_k.

    Each newton_trace entry records the iteration, the residual after the
    step, the accepted damping factor, the line-search trials, how many of
    them left the cone, the GMRES iterations of the step, the true
    relative residual GMRES reached and the forcing term it was given.

    `continuity_solve` passes phi0 as a `_Start`, the canonical potential of
    a stage with its reduced field and eigenvalues, evaluated once per stage
    and read by every attempt from it.
    """
    f = _checked_grid(f_grid, geom.grid_shape, "f")
    if not isinstance(phi0, _Start):
        phi0 = _Start.at(
            geom, np.zeros(geom.grid_shape) if phi0 is None else _canonical(phi0, geom.grid_shape)
        )
    phi, reduced, lam = phi0  # read, never written: other attempts share them
    slack = float(slack0)
    margin = margin_field(coeffs, t, lam)
    if margin.min() <= 0.0:
        raise ConeBreachError(
            "newton_solve: initial state violates the cone condition",
            value=float(margin.min()),
        )
    res, floor = _residual_from_lam(coeffs, t, f, lam, slack)
    trace = []
    res_sup = float(np.abs(res).max())
    stop = max(tol, floor)
    while res_sup > stop:
        if len(trace) >= max_iter:
            raise MaxIterationsError(
                f"newton_solve: residual {res_sup:.3e} above {stop:.1e} "
                f"after {max_iter} iterations"
            )
        lin = _linearization(geom, coeffs, t, reduced, lam)
        forcing = max(min(1e-2, res_sup), _GMRES_RTOL)
        dphi, d_reduced, ds, gmres_iterations, linear_residual = _newton_step(
            geom, lin, res, forcing
        )
        cone_rejections = 0
        for trials, alpha in enumerate(_DAMPING, start=1):
            reduced_try = reduced + alpha * d_reduced
            lam_try = _eigvals(reduced_try)
            margin_try = margin_field(coeffs, t, lam_try)
            if margin_try.min() <= 0.0:
                cone_rejections += 1
                continue
            slack_try = slack + alpha * ds
            res_try, floor = _residual_from_lam(coeffs, t, f, lam_try, slack_try)
            res_try_sup = float(np.abs(res_try).max())
            if res_try_sup <= (1.0 - 1e-4 * alpha) * res_sup:
                phi, slack = _canonical(phi + alpha * dphi), slack_try
                reduced, lam = reduced_try, lam_try
                res, margin, res_sup, stop = res_try, margin_try, res_try_sup, max(tol, floor)
                break
        else:
            if cone_rejections == trials:
                raise ConeBreachError(
                    "newton_solve: no admissible damping preserves the cone condition"
                )
            raise MaxIterationsError(
                "newton_solve: line search failed to reduce the residual"
            )
        trace.append(
            {"iteration": len(trace), "residual_sup": res_sup, "step_factor": alpha,
             "trials": trials, "cone_rejections": cone_rejections,
             "gmres_iterations": gmres_iterations, "linear_residual": linear_residual,
             "forcing": forcing}
        )
        if len(trace) > 1 and res_sup > stop:
            theta = res_sup / trace[-2]["residual_sup"]
            if theta > 0.5:
                raise MaxIterationsError(f"newton_solve: contraction {theta:.3f} > 0.5")
    return SolveState(phi, t, slack, res_sup, float(margin.min()), trace)


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
    lam0 = _eigvals(geom._reduced_omega0).reshape(geom.n)
    n = geom.n
    e_all = elem_sym_all(lam0)
    values = tuple(float(e_all[k] * (1.0 / math.comb(n, k))) for k in range(n + 1))
    c0 = values[n]
    defect = None
    if coeffs is not None and f_grid is not None:
        f = _checked_grid(f_grid, geom.grid_shape, "f")
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
    _, lam = _positive_field(
        geom, phi, "manufacture: phi_star leaves the positive cone", report_value=False
    )
    return ManufacturedCase(phi, _sym_part(coeffs, 1.0, lam)[0])


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
# the path stops once a failed attempt has stepped past the predicted crossing
# and that crossing lies within _CROSSING_TOL of the last accepted stage
_CROSSING_TOL = 1e-3


def _predicted_crossing(stages):
    """Where the secant of the minimum cone margin through the last two
    accepted stages reaches zero, or None unless that margin is falling."""
    if len(stages) < 2:
        return None
    (t0, m0), (t1, m1) = ((s["t"], s["min_cone_margin"]) for s in stages[-2:])
    if not m1 < m0:
        return None
    return t1 + m1 * (t1 - t0) / (m0 - m1)


def continuity_solve(geom, coeffs, f_grid, tol=1e-10, dt_init=1.0):
    """March the interpolation parameter from 0 to 1.

    The constant c0 comes from the class integrals, which the returned
    state carries as `integrals`; the discrete compatibility defect must
    not exceed max(_COMPAT_TOL, _ROUNDING_FACTOR eps S), the Newton stop's
    rule, with S = c0 + sum_k c_k value_k + |f|_inf.  Step control lets
    Newton's own convergence drive the path: the first attempt jumps by
    dt_init (default 1, straight to t = 1); a stage whose `newton_solve`
    fails (a cone breach, a GMRES stall, the iteration cap, or a contraction
    Theta > 1/2) is retried from the last accepted stage with dt halved; dt
    doubles after two consecutive successes, never above dt_init, so a path
    that keeps succeeding takes about 1/dt_init stages; dt below _DT_MIN
    raises StepUnderflowError, and dt_init below it is a ValueError.

    A path that fails because its solution branch leaves the cone stops at
    the predicted crossing instead of halving dt toward it, the
    boundary-crossing analogue of turning-point detection (Allgower and
    Georg, Introduction to Numerical Continuation Methods, 2003, ch. 9).
    After a failed attempt at t_try, the secant of the minimum cone margin
    through the last two accepted stages (t_{k-1}, m_{k-1}), (t_k, m_k),
    where m_k < m_{k-1}, reaches zero at
        t* = t_k + m_k (t_k - t_{k-1}) / (m_{k-1} - m_k);
    when t* <= t_try and t* - t_k <= _CROSSING_TOL the path raises
    StepUnderflowError naming t* and m_k.  The rule needs the margins of
    accepted stages to predict a zero within _CROSSING_TOL of the last one,
    so a Newton failure away from the cone boundary still halves dt.

    Each stage's potential, reduced field and eigenvalues are evaluated
    once, by the first attempt from it, and every retry reuses them; the
    t = 0 stage is the constant background, whose field is evaluated at one
    point.
    """
    if not dt_init >= _DT_MIN:
        raise ValueError(f"continuity_solve: dt_init must be at least {_DT_MIN:g}")
    f = _checked_grid(f_grid, geom.grid_shape, "f")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        integrals = cohomology_integrals(geom, coeffs, f)
    if not np.isfinite(integrals.values + (integrals.defect,)).all():
        raise ValueError("continuity_solve: the class integrals are not finite")
    size = integrals.c0 + sum(c * v for c, v in zip(coeffs.c, integrals.values[1:]))
    bound = max(_COMPAT_TOL, _ROUNDING_FACTOR * np.finfo(float).eps * (size + np.abs(f).max()))
    if abs(integrals.defect) > bound:
        raise CompatibilityError(
            f"compatibility defect {integrals.defect:.3e} exceeds {bound:.1e}",
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

    start = _Start.background(geom)
    state = newton_solve(geom, coeffs, f, 0.0, phi0=start, tol=tol)
    stages = [stage_record(0.0, state)]
    t = 0.0
    dt = dt_init
    streak = 0
    while t < 1.0:
        t_try = min(t + dt, 1.0)
        if start is None:  # the first attempt from a stage evaluates its start
            start = _Start.at(geom, _canonical(state.phi))
        try:
            trial = newton_solve(
                geom, coeffs, f, t_try, phi0=start, slack0=state.slack, tol=tol
            )
        except (ConeBreachError, MaxIterationsError, LinearSolveStallError):
            crossing = _predicted_crossing(stages)
            if crossing is not None and crossing <= t_try and crossing - t <= _CROSSING_TOL:
                raise StepUnderflowError(
                    f"continuity_solve: the path leaves the cone at t* = {crossing:.6f}, "
                    f"predicted from the margin {stages[-1]['min_cone_margin']:.3e} "
                    f"at t = {t:.6f}"
                )
            dt *= 0.5
            streak = 0
            if dt < _DT_MIN:
                raise StepUnderflowError(
                    f"continuity_solve: step underflow at t = {t:.6f}"
                )
            continue
        state = trial
        t = t_try
        start = None
        stages.append(stage_record(t, state))
        streak += 1
        if streak >= 2:
            dt = min(2.0 * dt, dt_init)
            streak = 0
    state.stages = stages
    state.integrals = integrals
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
    becomes f + a_s and the full continuity path is attempted.  A scaled
    class or source past the float range is a ValueError, not a row; every
    scale is checked before the first path runs.
    """
    f = _checked_grid(f_grid, geom.grid_shape, "f")
    instances = []
    for s in sorted(float(s) for s in s_list):
        if s <= -1.0:
            raise ValueError("class_path_probe: scale 1+s must stay positive")
        geom_s = replace(geom, omega0=(1.0 + s) * geom.omega0)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            ints = cohomology_integrals(geom_s, coeffs, f)
            a_s = ints.defect  # shift that restores exact compatibility
            f_s = f + a_s
        if not (np.isfinite(ints.values).all() and np.isfinite(f_s).all()):
            raise ValueError(f"class_path_probe: the class at s = {s:g} is not finite")
        instances.append((s, a_s, geom_s))
    rows = []
    for s, a_s, geom_s in instances:
        row = {"s": s, "shift": float(a_s)}
        try:
            state = continuity_solve(geom_s, coeffs, f + a_s)
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
