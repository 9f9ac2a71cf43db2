"""Potential-theory utilities: radial mollification, ball suprema and
logarithmic-slope (Lelong-type) numbers, a normalization constant for
log-weighted kernel moments, regularized maxima and potential gluing, and
finitary uniform/degenerate cone checks on torus Hessian fields.

Planar potentials are handled in one complex variable (real dimension 2)
in the split form  gamma * log|x - center|^2 + smooth(x): the log part is
treated semi-analytically (circle means and exact ball suprema), the
smooth part by polar quadrature or dense sampling.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .kernel import margin_field
from .solver import cone_margin_field, eigenvalue_field, form_eigenvalues

__all__ = [
    "sphere_area",
    "RadialMollifier",
    "Box",
    "SingularPotential",
    "mollify",
    "ball_sup",
    "LelongLevelResult",
    "lelong_level",
    "compute_cn",
    "expected_abs_difference",
    "regularized_max",
    "GlueReport",
    "glue_potentials",
    "UniformConeReport",
    "check_uniform_cone",
    "check_degenerate_cone",
    "ShiftedConeConstant",
    "shifted_cone_epsilon",
]


def sphere_area(n):
    """Surface area of the unit sphere in C^n = R^{2n}: 2 pi^n / (n-1)!."""
    if n < 1:
        raise ValueError("sphere_area: n must be >= 1")
    try:
        return 2.0 * math.pi**n / math.factorial(n - 1)
    except OverflowError:
        raise ValueError(f"sphere_area: n = {n} is too large for float arithmetic") from None


_BUMP = (1.0, 0.0, -3.0, 0.0, 3.0, 0.0, -1.0)  # (1 - t^2)^3, ascending powers


@dataclass(frozen=True)
class RadialMollifier:
    """Polynomial radial kernel rho(t) = sum_k coeffs[k] t^k on [0,1] for
    scale-delta averaging in C^n.

    Normalized so that |S^{2n-1}| * integral rho(t) t^{2n-1} dt = 1; the
    rounding defect of that identity is recomputed and stored.
    """

    coeffs: tuple  # ascending powers of t
    n: int
    normalization_defect: float = dataclasses.field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("RadialMollifier: n must be >= 1")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        mass, _ = self.moments(2 * self.n - 1)
        defect = abs(sphere_area(self.n) * mass - 1.0)
        object.__setattr__(self, "normalization_defect", float(defect))

    def rho(self, t):
        return np.polynomial.polynomial.polyval(t, self.coeffs)

    def moments(self, p, a=0.0):
        """(integral_a^1 rho t^p dt, integral_a^1 rho t^p log(t) dt), 0 <= a <= 1.

        Exact finite sums from integral t^(q-1) log(t) dt = t^q (log t - 1/q) / q,
        with the a^q log(a) term taken as 0 at a = 0.
        """
        log_a = math.log(a) if a > 0.0 else 0.0
        plain = logged = 0.0
        for k, c in enumerate(self.coeffs):
            q = k + p + 1
            a_q = a**q
            plain += c * (1.0 - a_q) / q
            logged -= c * (1.0 / q + a_q * (log_a - 1.0 / q)) / q
        return plain, logged

    @classmethod
    def polynomial(cls, n):
        """Bump kernel c*(1-t^2)^3, normalized by its exact moment."""
        mass, _ = cls(_BUMP, n).moments(2 * n - 1)
        scale = 1.0 / (sphere_area(n) * mass)
        return cls(tuple(scale * c for c in _BUMP), n)

    @classmethod
    def constant(cls, n):
        """Constant kernel 2n/|S^{2n-1}| (closed-form test kernel)."""
        return cls((2.0 * n / sphere_area(n),), n)


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi) or any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("Box: need lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains_ball(self, x, radius):
        return all(
            lo + radius <= xi <= hi - radius
            for lo, hi, xi in zip(self.lo, self.hi, x)
        )


@dataclass(frozen=True)
class SingularPotential:
    """gamma * log|x - center|^2 + smooth(x) on a planar box.

    smooth is a vectorized callable on points of shape (..., 2), or None
    for the pure log model; gamma >= 0.
    """

    gamma: float
    center: tuple
    smooth: object = None
    domain: Box = Box((-1.0, -1.0), (1.0, 1.0))

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("SingularPotential: gamma must be >= 0")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if len(self.center) != 2:
            raise ValueError("SingularPotential: planar potentials only")

    def values(self, points):
        """Total potential at points (..., 2); -inf exactly at the center."""
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1])
        if self.gamma:
            sq = np.sum((points - np.asarray(self.center)) ** 2, axis=-1)
            with np.errstate(divide="ignore"):
                out = out + self.gamma * np.log(sq)
        if self.smooth is not None:
            out = out + self.smooth(points)
        return out


_MOLLIFY_RADIAL_NODES = 48
_MOLLIFY_ANGULAR_NODES = 128


def mollify(potential, mollifier, delta, x):
    """Scale-delta average of the potential at x.

    Polar quadrature for the smooth part (_MOLLIFY_RADIAL_NODES
    Gauss-Legendre nodes radially, the trapezoid rule on full circles of
    _MOLLIFY_ANGULAR_NODES points).  The log part uses the circle mean
    of log|.|^2, which equals 2*log(max(|x-center|, radius)); when the
    ball avoids the singularity this reproduces the log part exactly, and
    otherwise the radial integral of rho(t) t log(max(w, delta t)),
    split at w/delta, is a finite sum of the mollifier's exact moments.
    """
    if delta <= 0:
        raise ValueError("mollify: delta must be positive")
    if mollifier.n != 1:
        raise ValueError("mollify: planar potentials need an n=1 mollifier")
    x = tuple(float(v) for v in x)
    if not potential.domain.contains_ball(x, delta):
        raise ValueError("mollify: ball of radius delta escapes the domain")

    total = 0.0
    if potential.gamma:
        w = math.hypot(x[0] - potential.center[0], x[1] - potential.center[1])
        if w >= delta:
            total += potential.gamma * 2.0 * math.log(w)
        else:
            # 2 pi * int rho(t) t * 2 log(max(w, delta t)) dt, split at w/delta
            mass, _ = mollifier.moments(1)
            tail, log_tail = mollifier.moments(1, w / delta)
            head = (mass - tail) * math.log(w) if w > 0.0 else 0.0
            total += potential.gamma * 4.0 * math.pi * (
                head + tail * math.log(delta) + log_tail
            )
    if potential.smooth is not None:
        nodes, weights = np.polynomial.legendre.leggauss(_MOLLIFY_RADIAL_NODES)
        t = 0.5 * (nodes + 1.0)
        wt = 0.5 * weights
        ang = 2.0 * np.pi * np.arange(_MOLLIFY_ANGULAR_NODES) / _MOLLIFY_ANGULAR_NODES
        ring = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        pts = np.asarray(x) + delta * t[:, None, None] * ring[None, :, :]
        vals = potential.smooth(pts).mean(axis=1)  # circle means
        total += 2.0 * np.pi * float(np.sum(wt * mollifier.rho(t) * t * vals))
    return total


# ---------------------------------------------------------------------------
# ball suprema and logarithmic slopes
# ---------------------------------------------------------------------------

_SUP_RADII = 64
_SUP_ANGLES = 64


def ball_sup(potential, x, radius):
    """Supremum of the potential over the closed ball B(x, radius).

    Exact for the pure log model (gamma * 2 * log(|x-center| + radius));
    otherwise a dense polar-sampling lower-bound estimator on _SUP_RADII
    circles of _SUP_ANGLES points each, the boundary circle included.
    """
    if radius <= 0:
        raise ValueError("ball_sup: radius must be positive")
    x = tuple(float(v) for v in x)
    if not potential.domain.contains_ball(x, radius):
        raise ValueError("ball_sup: ball escapes the domain")
    if potential.smooth is None:
        w = math.hypot(x[0] - potential.center[0], x[1] - potential.center[1])
        return potential.gamma * 2.0 * math.log(w + radius)
    radii = radius * np.arange(1, _SUP_RADII + 1) / _SUP_RADII
    ang = 2.0 * np.pi * np.arange(_SUP_ANGLES) / _SUP_ANGLES
    ring = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    pts = np.asarray(x) + radii[:, None, None] * ring[None, :, :]
    pts = np.concatenate([pts.reshape(-1, 2), [np.asarray(x)]], axis=0)
    return float(np.max(potential.values(pts)))


@dataclass(frozen=True)
class LelongLevelResult:
    deltas: tuple
    nu_at_delta: tuple
    extrapolated: float
    r: float


def lelong_level(potential, x, delta_list, r):
    """Logarithmic slope nu(x, delta) = (sup_{r/4} - sup_delta)/(log(r/4) - log delta).

    Ball suprema via `ball_sup`; extrapolated value is the slope at the
    smallest requested delta.
    """
    deltas = sorted(float(d) for d in delta_list)
    if not deltas:
        raise ValueError("lelong_level: empty delta list")
    if deltas[0] <= 0 or deltas[-1] >= r / 4.0:
        raise ValueError("lelong_level: need 0 < delta < r/4")
    top = ball_sup(potential, x, r / 4.0)
    nus = []
    for d in deltas:
        low = ball_sup(potential, x, d)
        nus.append((top - low) / (math.log(r / 4.0) - math.log(d)))
    return LelongLevelResult(tuple(deltas), tuple(nus), nus[0], float(r))


def compute_cn(mollifier):
    """Normalization constant 2 / (|S^{2n-1}| * log-moment + 3^{2n-1}/2^{2n-3}).

    The log-weighted radial moment is an exact finite sum; the mollifier
    must satisfy its normalization identity to 1e-6.
    """
    if mollifier.normalization_defect > 1e-6:
        raise ValueError("compute_cn: mollifier is not normalized")
    n = mollifier.n
    log_moment = -mollifier.moments(2 * n - 1)[1]  # integral rho t^{2n-1} log(1/t)
    tail = 3.0 ** (2 * n - 1) * 2.0 ** (3 - 2 * n)
    return 2.0 / (sphere_area(n) * log_moment + tail)


# ---------------------------------------------------------------------------
# regularized maximum
# ---------------------------------------------------------------------------
#
# Blending kernel theta(s) = (15/8)(1-4 s^2)^2 on [-1/2, 1/2], of unit mass.
# For independent s, t with density theta, E|d + s - t| is the polynomial
# below (ascending powers) on 0 <= d <= 1 and |d| beyond; they meet C^2.

_ABS_DIFFERENCE = (
    50 / 231, 0.0, 10 / 7, 0.0, -10 / 7, 0.0, 2.0, -10 / 7, 0.0, 5 / 21, 0.0, -2 / 77,
)


def expected_abs_difference(d):
    """I(d) = E|d + s - t| for independent s, t with density theta, elementwise:
    exactly |d| for |d| >= 1 and the exact polynomial otherwise."""
    d = np.abs(d)
    inner = np.polynomial.polynomial.polyval(np.minimum(d, 1.0), _ABS_DIFFERENCE)
    return np.where(d >= 1.0, d, inner)[()]


def _regularized_pair(a, b, eta):
    gap = np.abs(a - b)
    # clamped before the division, so gap / eta cannot overflow at a tiny eta
    blended = 0.5 * (a + b) + 0.5 * eta * expected_abs_difference(np.minimum(gap, eta) / eta)
    return np.where(gap >= eta, np.maximum(a, b), blended)


def regularized_max(values, eta):
    """Smoothed maximum: convex, symmetric, monotone, and exactly max
    whenever the gap between the two largest entries is at least eta.

    Lists are folded pairwise in descending order; scalars pass through.
    """
    if eta <= 0:
        raise ValueError("regularized_max: eta must be positive")
    vals = sorted((float(v) for v in np.atleast_1d(np.asarray(values, dtype=float))), reverse=True)
    if not vals:
        raise ValueError("regularized_max: need at least one value")
    acc = vals[0]
    for v in vals[1:]:
        acc = _regularized_pair(acc, v, eta)
    return float(acc)


# ---------------------------------------------------------------------------
# gluing on torus grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlueReport:
    glued: np.ndarray
    local_points: int
    global_points: int
    blend_points: int
    glued_min_margin: float
    blend_min_margin: float  # min over the blend collar; +inf when empty
    margin_conflict: bool


def glue_potentials(geom, coeffs, t, local_values, global_values, eta, offset):
    """Pointwise regularized max of (local + offset) against the global
    potential on a shared torus grid.

    Outside the width-eta collar the output is bitwise one of the inputs.
    The report carries the cone margins of the glued Hessian field (and
    their minimum over the collar); a non-positive collar margin is
    reported as a conflict rather than raised.
    """
    a = np.asarray(local_values, dtype=float) + float(offset)
    b = np.asarray(global_values, dtype=float)
    if a.shape != geom.grid_shape or b.shape != geom.grid_shape:
        raise ValueError("glue_potentials: inputs must live on the torus grid")
    if eta <= 0:
        raise ValueError("glue_potentials: eta must be positive")
    glued = _regularized_pair(a, b, eta)
    blend = np.abs(a - b) < eta
    report = cone_margin_field(geom, coeffs, t, glued)
    blend_margin = float(report.field[blend].min()) if np.any(blend) else math.inf
    return GlueReport(
        glued=glued,
        local_points=int(np.count_nonzero(a - b >= eta)),
        global_points=int(np.count_nonzero(b - a >= eta)),
        blend_points=int(np.count_nonzero(blend)),
        glued_min_margin=report.min_margin,
        blend_min_margin=blend_margin,
        margin_conflict=bool(np.any(blend) and blend_margin <= 0.0),
    )


# ---------------------------------------------------------------------------
# finitary uniform / degenerate cone checks
# ---------------------------------------------------------------------------

NO_VIOLATION = "no violation found in checked range"
VIOLATION = "violation found"


@dataclass(frozen=True)
class UniformConeReport:
    epsilon: float
    worst_margin: float
    rows: tuple
    passed: bool
    verdict: str


def _torus_kernel(geom, delta, rho):
    axes = []
    for s in geom.grid_shape:
        idx = np.arange(s) / s
        axes.append(np.minimum(idx, 1.0 - idx))
    grids = np.meshgrid(*axes, indexing="ij")
    r = np.sqrt(sum(g * g for g in grids))
    w = np.where(r <= delta, rho(np.minimum(r / delta, 1.0)), 0.0)
    total = w.sum()
    if total <= 0:
        raise ValueError("check_uniform_cone: empty discrete kernel")
    return w / total


def check_uniform_cone(geom, coeffs, t, field, epsilon, delta_list,
                       chi0_scalings=(1.0,), mu=0.0):
    """Finite falsifier for the scale-uniform cone condition.

    For every averaging scale delta and every constant comparison form
    s*chi (s <= 1), mollifies the Hessian field with the normalized
    polynomial bump (1 - t^2)^3 and requires cone margin >= epsilon at
    every grid point.  A pass means only "no violation found in checked
    range"; the report never claims more.  A row whose smoothed form is
    not positive reads min_margin = -inf and argmin = None.
    """
    deltas = [float(d) for d in delta_list]
    if not deltas or any(d <= 0 for d in deltas):
        raise ValueError("check_uniform_cone: need a non-empty list of positive deltas")
    scalings = [float(s) for s in chi0_scalings]
    if any(not 0.0 < s <= 1.0 for s in scalings):
        raise ValueError("check_uniform_cone: comparison scalings must be in (0, 1]")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("check_uniform_cone: epsilon must be in [0, 1)")
    rho = RadialMollifier.polynomial(1).rho
    field = np.asarray(field, dtype=float)
    if field.shape == geom.grid_shape:
        eigenvalues = lambda smooth: eigenvalue_field(geom, smooth)
    elif field.shape == geom.grid_shape + (geom.n, geom.n):
        eigenvalues = lambda smooth: form_eigenvalues(geom, smooth)
    else:
        raise ValueError("check_uniform_cone: field must be a potential or Hessian field")
    # The torus kernel is even, so its transform is real; trailing (n, n)
    # axes of a form field ride along.  The eigenvalues of
    # L^{-1} (omega + mu chi) L^{-T} are those of M + mu I.
    axes = tuple(range(geom.n))
    field_hat = np.fft.rfftn(field, axes=axes)
    rows = []
    worst = math.inf
    for delta in deltas:
        w_hat = np.fft.rfftn(_torus_kernel(geom, delta, rho)).real
        w_hat = w_hat.reshape(w_hat.shape + (1,) * (field.ndim - geom.n))
        smooth = np.fft.irfftn(field_hat * w_hat, s=geom.grid_shape, axes=axes)
        lam = eigenvalues(smooth) + mu
        for s in scalings:
            margins = margin_field(coeffs, t, lam / s)
            argmin = np.unravel_index(np.argmin(margins), margins.shape)
            min_margin = float(margins[argmin])
            argmin = tuple(int(i) for i in argmin) if min_margin > -math.inf else None
            rows.append(
                {"delta": delta, "scaling": s, "mu": mu,
                 "min_margin": min_margin, "argmin": argmin}
            )
            worst = min(worst, min_margin)
    passed = worst >= epsilon
    return UniformConeReport(
        epsilon=float(epsilon),
        worst_margin=worst,
        rows=tuple(rows),
        passed=passed,
        verdict=NO_VIOLATION if passed else VIOLATION,
    )


def check_degenerate_cone(geom, coeffs, t, field, pairs, delta_list):
    """Degenerate-cone probe: for each (epsilon_i, mu_i) the field shifted
    by mu_i * chi must pass the epsilon_i-uniform check."""
    reports = []
    for eps_i, mu_i in pairs:
        if mu_i < 0:
            raise ValueError("check_degenerate_cone: shifts must be >= 0")
        reports.append(
            check_uniform_cone(geom, coeffs, t, field, eps_i, delta_list, mu=mu_i)
        )
    return tuple(reports)


@dataclass(frozen=True)
class ShiftedConeConstant:
    epsilon: float
    c_prime: float
    gamma: float


def shifted_cone_epsilon(coeffs, beta, chi_bound):
    """Margin guaranteed for a field shifted by 2*beta/chi_bound * chi.

    Given a field satisfying the (non-strict) cone condition, adding
    2*gamma*chi with gamma = beta/chi_bound yields margin at least
    epsilon = 1/C' where

        C' = max(4.01, max_k (n-1) c_k C(n-1, n-k) 2^{n-k} /
                           (C(n,k) gamma^{n-k})),

    the per-k constant coming from bounding the squared load by the
    shifted load drop (Cauchy-Schwarz over the n-1 summands and
    S_m(x)^2 <= C(n-1, m) S_m(x^2) termwise).
    """
    if beta <= 0 or chi_bound <= 0:
        raise ValueError("shifted_cone_epsilon: beta and chi_bound must be positive")
    gamma = beta / chi_bound
    n = coeffs.n
    worst = 0.0
    for k in range(1, n):
        ck = coeffs.c[k - 1]
        if ck:
            worst = max(
                worst,
                (n - 1) * ck * math.comb(n - 1, n - k) * 2.0 ** (n - k)
                / (math.comb(n, k) * gamma ** (n - k)),
            )
    c_prime = max(4.01, worst)
    return ShiftedConeConstant(1.0 / c_prime, c_prime, gamma)
