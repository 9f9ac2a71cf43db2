"""Pointwise eigenvalue algebra for the generalised equation.

Throughout, ``lam`` is a vector of positive eigenvalues of a background
metric contraction and ``sigma_m`` denotes the elementary symmetric
polynomial S_m evaluated at the *reciprocal* eigenvalues 1/lam.  The
solvability bookkeeping at a point reduces to scalar functions of lam:

    value     V(t, f) = sum_k t c_k / C(n,k) * sigma_{n-k} + (t f + (1-t) c0) * sigma_n
    load_i    L_i(t)  = sum_k t c_k / C(n,k) * S_{n-k; i}(1/lam)

The cone condition at the point is  max_i L_i < 1,  and V == 1 encodes a
solved state of the interpolated equation at parameter t.

The scalar routines here (`elem_sym`, `elem_sym_deleted`, `maclaurin_chain`,
`cone_margin`) are written for clarity and exactness, not throughput, and
serve as oracles.  The last two read one `elem_sym_table`, which enumerates
the subsets of its vector once and returns every S_k and S_{m; i} at the
bits of the definitions `elem_sym` and `elem_sym_deleted`.
The batched layer (`elem_sym_all`, `elem_sym_deleted_all`, `margin_field`)
is what the solver, psh and cli evaluate.  It takes fields of shape
(..., n) but computes on planes, the last axis moved to the front; the
solver's eigenvalue fields are contiguous planes with (..., n) as a view.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "elem_sym",
    "elem_sym_deleted",
    "elem_sym_table",
    "elem_sym_all",
    "elem_sym_deleted_all",
    "maclaurin_chain",
    "CoefficientSet",
    "EigenProfile",
    "ConeReport",
    "cone_margin",
    "margin_field",
    "min_avoidance_eigenvalue",
    "SourceFloorBudget",
    "source_floor",
]


# ---------------------------------------------------------------------------
# elementary symmetric polynomials
# ---------------------------------------------------------------------------

def _checked(values):
    """values as a float array; raises on any non-finite entry."""
    vals = np.asarray(values, dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError("elem_sym: non-finite entries")
    return vals


def _enumerated(vals, k):
    if k < 0 or k > len(vals):
        return 0.0
    # left to right: builtin sum is compensated from Python 3.12
    return functools.reduce(operator.add, map(math.prod, itertools.combinations(vals, k)), 0.0)


def elem_sym(values, k):
    """S_k(values): sum over k-element subsets of the entry products.

    Computed straight from the definition (subset enumeration) so it can
    serve as ground truth for the recurrence- and convolution-based paths
    used elsewhere.  S_0 = 1, S_k = 0 for k > len(values) or k < 0.
    """
    return _enumerated(_checked(values).ravel().tolist(), k)


def elem_sym_deleted(values, k, i):
    """S_{k; i}(values): S_k with index i deleted first."""
    vals = _checked(values).ravel().tolist()
    if not (0 <= i < len(vals)):
        raise ValueError("elem_sym_deleted: index out of range")
    return _enumerated(vals[:i] + vals[i + 1:], k)


@functools.cache
def _sum_order(n):
    """Per sum S_0..S_n, then S_{m; i} for i, m < n, the bitmasks of its subsets in
    `combinations` order, padded with 2**n (a zero product) to the widest, C(n, n//2);
    row c holds every sum's c-th subset."""
    masks = [[sum(1 << j for j in s) for s in itertools.combinations(range(n), k)]
             for k in range(n + 1)]
    sums = masks + [[b for b in masks[m] if not b >> i & 1] for i in range(n) for m in range(n)]
    return np.array([s + [2**n] * (math.comb(n, n // 2) - len(s)) for s in sums]).T.copy()


def elem_sym_table(values):
    """(e, deleted) with e[..., k] = S_k, k = 0..n, and deleted[..., i, m] = S_{m; i},
    m = 0..n-1, for each row of values, of shape (n,) or (..., n).

    The enumeration oracle for whole batches.  A subset's product is its
    prefix's times its largest entry, `math.prod`'s order; S_k sums the
    k-subsets and S_{m; i} the m-subsets without i, each from 0.0 left to
    right in `combinations` order, one (sum, row) plane per position, so
    every entry equals `elem_sym` / `elem_sym_deleted` bit for bit.
    """
    vals = _checked(values)
    n = vals.shape[-1]
    products = np.zeros((2**n + 1,) + vals.shape[:-1])  # by subset bitmask, then a zero
    products[0] = 1.0
    for j in range(n):
        products[2**j:2**(j + 1)] = products[:2**j] * vals[..., j]
    sums = 0.0  # as `_enumerated` sums; the first add makes the array that the others fill
    for column in _sum_order(n):
        sums += products[column]
    sums = np.moveaxis(sums, 0, -1)
    return sums[..., :n + 1], sums[..., n + 1:].reshape(vals.shape[:-1] + (n, n))


def _recurrence(planes, out, count=0):
    """out[0..m] = e_0..e_m of count earlier planes, whose e_1..e_count out
    already holds (zeroed beyond), and the planes v_1..v_{m-count}.

    Each plane is one slice update e_k += v e_{k-1}, k = 1..: every product
    reads the old e_{k-1}, as the descending-k loop does, bit for bit."""
    out[0] = 1.0
    for idx, v in enumerate(planes, start=count):
        out[1:idx + 2] += v * out[:idx + 1]
    return out


def _deleted_planes(planes):
    """[i, m] = e_m of the planes with plane i left out, m = 0..n-1.

    Row i continues the shared prefix state e(v_0 .. v_{i-1}) with the planes
    after i, so each row does the arithmetic of its own recurrence."""
    n = len(planes)
    out = np.zeros((n,) + planes.shape)
    prefix = np.zeros(planes.shape)
    for i in range(n):
        out[i, :i + 1] = prefix[:i + 1]
        _recurrence(planes[i + 1:], out[i], i)
        if i + 1 < n:
            _recurrence(planes[i:i + 1], prefix, i)
    return out


def elem_sym_all(vals):
    """e_0..e_n of the last axis; output shape (..., n+1)."""
    planes = np.moveaxis(np.asarray(vals, dtype=float), -1, 0)
    return np.moveaxis(_recurrence(planes, np.zeros((len(planes) + 1,) + planes.shape[1:])), 0, -1)


def elem_sym_deleted_all(vals):
    """[..., i, m] = e_m of the last axis with entry i deleted, m = 0..n-1.

    Row i is `elem_sym_all` of the kept entries.  For positive entries
    every step adds nonnegative terms, so the result is forward stable at
    any spread (the downdating e_{m; i} = e_m - v_i e_{m-1; i} cancels).
    """
    planes = np.moveaxis(np.asarray(vals, dtype=float), -1, 0)
    return np.moveaxis(_deleted_planes(planes), (0, 1), (-2, -1))


def maclaurin_chain(values):
    """Normalized means m_k = (S_k / C(n,k))**(1/k), k = 1..n.

    For positive entries the chain is non-increasing; equality holds only
    on the diagonal.  Raises on non-positive input.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("maclaurin_chain: need a non-empty vector")
    if np.any(vals <= 0):
        raise ValueError("maclaurin_chain: entries must be positive")
    e = elem_sym_table(vals)[0].tolist()
    return tuple((e[k] / math.comb(vals.size, k)) ** (1.0 / k) for k in range(1, vals.size + 1))


# ---------------------------------------------------------------------------
# coefficient / eigenvalue containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSet:
    """Dimension n plus the lower-order coefficients c_1..c_{n-1} (>= 0).

    regime:
      "AllZeroPositiveF"  all c_k vanish; the source term must be positive.
      "PositiveSum"       some c_k > 0.
    zeta is the largest index with c_zeta > 0 (None in the first regime).
    c0 is the constant fixed by the class integrals at the start of the
    continuity path; it may be attached later via `with_c0`.
    """

    n: int
    c: tuple = ()
    c0: float | None = None
    zeta: int | None = field(init=False, default=None)
    regime: str = field(init=False, default="AllZeroPositiveF")

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("CoefficientSet: n >= 1 required")
        c = tuple(float(x) for x in self.c)
        if len(c) != self.n - 1:
            raise ValueError(
                "CoefficientSet: need exactly n-1 coefficients c_1..c_{n-1}"
            )
        if any(not math.isfinite(x) or x < 0 for x in c):
            raise ValueError("CoefficientSet: coefficients must be finite and >= 0")
        object.__setattr__(self, "c", c)
        nz = [k for k in range(1, self.n) if c[k - 1] > 0]
        object.__setattr__(self, "zeta", nz[-1] if nz else None)
        object.__setattr__(
            self, "regime", "PositiveSum" if nz else "AllZeroPositiveF"
        )

    def with_c0(self, c0):
        return CoefficientSet(self.n, self.c, float(c0))

    def weights(self, t):
        """[(k, t c_k / C(n, k))] for each k with c_k > 0: the stage-t weights."""
        return [
            (k, t * ck * (1.0 / math.comb(self.n, k)))
            for k, ck in enumerate(self.c, start=1)
            if ck
        ]

    def c0_term(self, t):
        """(1 - t) c0, the stage-t constant; c0 may be absent only at t = 1."""
        if t < 1.0 and self.c0 is None:
            raise ValueError("c0 is required for t < 1 (attach via with_c0)")
        return (1.0 - t) * (0.0 if self.c0 is None else self.c0)


@dataclass(frozen=True)
class EigenProfile:
    """Ascending positive eigenvalue vector."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise ValueError("EigenProfile: empty")
        if any(not math.isfinite(v) or v <= 0 for v in vals):
            raise ValueError("EigenProfile: entries must be finite and positive")
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("EigenProfile: entries must be ascending")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_values(cls, values):
        return cls(tuple(sorted(float(v) for v in np.atleast_1d(values))))


def _as_profile(coeffs, lam):
    prof = lam if isinstance(lam, EigenProfile) else EigenProfile.from_values(lam)
    if len(prof.values) != coeffs.n:
        raise ValueError("eigenvalue vector length does not match n")
    return prof


# ---------------------------------------------------------------------------
# cone condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeReport:
    per_index_load: tuple
    margin: float
    satisfied: bool


def cone_margin(coeffs, t, lam):
    """Per-index loads L_i and the margin 1 - max_i L_i at scale t.

    L_i = sum_k t c_k / C(n,k) * S_{n-k; i}(1/lam).  margin > 0 is the
    pointwise cone condition for the t-interpolated equation.
    """
    prof = _as_profile(coeffs, lam)
    if not (0.0 <= t <= 1.0):
        raise ValueError("cone_margin: t must lie in [0, 1]")
    n = coeffs.n
    deleted = elem_sym_table([1.0 / v for v in prof.values])[1].tolist()
    loads = []
    for row in deleted:
        li = 0.0
        for k, w in coeffs.weights(t):
            li += w * row[n - k]
        loads.append(li)
    margin = 1.0 - max(loads)
    return ConeReport(tuple(loads), margin, margin > 0.0)


def margin_field(coeffs, t, lam):
    """Batched `cone_margin`: 1 - max_i L_i over the last axis of lam.

    lam holds eigenvalues in any order; no range checks.  The margin is
    -inf at every point with a non-positive eigenvalue (off the positive
    cone), where the loads are not evaluated.
    """
    planes = np.moveaxis(np.asarray(lam, dtype=float), -1, 0)
    off = None
    if planes.min() <= 0.0:
        off = planes.min(axis=0) <= 0.0
        planes = np.where(off, 1.0, planes)
    n = coeffs.n
    deleted = _deleted_planes(np.divide(1.0, planes, out=np.empty(planes.shape)))
    load = np.zeros(planes.shape)
    for k, w in coeffs.weights(t):
        load += w * deleted[:, n - k]
    margin = 1.0 - load.max(axis=0)
    return margin if off is None else np.where(off, -np.inf, margin)


# ---------------------------------------------------------------------------
# source-term floor
# ---------------------------------------------------------------------------

def min_avoidance_eigenvalue(n, zeta):
    """Smallest eigenvalue of the sum over all zeta-subsets I of {0..n-1} of the
    0/1 matrix E_I, (E_I)_{ij} = 1 iff neither i nor j lies in I, exactly:
    that sum is C(n-2, zeta-1) I + C(n-2, zeta) J with J all ones."""
    if not (1 <= zeta <= n - 1):
        raise ValueError("min_avoidance_eigenvalue: need 1 <= zeta <= n-1")
    return float(math.comb(n - 2, zeta - 1))


@dataclass(frozen=True)
class SourceFloorBudget:
    term_garding: float
    term_quadratic: float
    term_power: float
    term_class_ratio: float
    term_k: float
    k_constant: float
    floor: float


def source_floor(coeffs, class_ratio, k_safety=0.99):
    """Negative lower bound for the source term: floor = -min(five terms).

    The five budget terms, with zeta the top nonzero coefficient index and
    K = k_safety * (smallest avoidance-matrix eigenvalue):

      garding      (1/16n) (zeta c_zeta / 2n)^{zeta/(n-zeta)} * c_zeta (n-zeta) / 2n
      quadratic    zeta c_zeta^2 / 4n
      power        c_zeta^{n/(n-zeta)} / 4n
      class ratio  class_ratio / 4
      K            (K/2n) (c_zeta / (2 C(n,zeta)))^{n/(n-zeta)}

    class_ratio is the top-power class integral of the unknown form divided
    by that of the reference form.  Only meaningful in the PositiveSum
    regime; with all c_k = 0 any positive source is admissible and the
    floor is 0.
    """
    if class_ratio <= 0:
        raise ValueError("source_floor: class_ratio must be positive")
    if coeffs.regime == "AllZeroPositiveF":
        return SourceFloorBudget(
            math.inf, math.inf, math.inf, class_ratio / 4.0, math.inf, 0.0, 0.0
        )
    n = coeffs.n
    zeta = coeffs.zeta
    cz = coeffs.c[zeta - 1]
    expo = n / (n - zeta)
    K = k_safety * min_avoidance_eigenvalue(n, zeta)
    try:
        term_garding = (
            (1.0 / (16.0 * n))
            * (zeta * cz / (2.0 * n)) ** (zeta / (n - zeta))
            * (cz * (n - zeta) / (2.0 * n))
        )
        term_quadratic = zeta * cz**2 / (4.0 * n)
        term_power = cz**expo / (4.0 * n)
        term_k = (K / (2.0 * n)) * (cz / (2.0 * math.comb(n, zeta))) ** expo
    except OverflowError:
        raise ValueError(
            f"source_floor: c_{zeta} = {cz} is too large for float arithmetic"
        ) from None
    term_class_ratio = class_ratio / 4.0
    floor = -min(term_garding, term_quadratic, term_power, term_class_ratio, term_k)
    return SourceFloorBudget(
        term_garding, term_quadratic, term_power, term_class_ratio, term_k, K, floor
    )
