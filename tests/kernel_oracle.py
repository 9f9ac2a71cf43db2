"""The scalar oracles of `gma.kernel`: the operator value V, its gradient and
Euler sum, the subset-avoidance matrix, the restriction coefficients, the
mixed-determinant density and the cone sampler.

Nothing in `gma` runs these.  They are written for clarity and exactness,
not throughput, and the tests check the solver's and the kernel's batched
routes against them.  Each scalar routine reads one `gma.kernel.elem_sym_table`,
so it sees S_k and S_{m; i} at the bits of their definitions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from gma.kernel import EigenProfile, _as_profile, cone_margin, elem_sym_table

# ---------------------------------------------------------------------------
# operator value, gradient
# ---------------------------------------------------------------------------

def operator_value(coeffs, t, f_at_point, lam):
    """V(t, f) = sum_k t c_k/C(n,k) sigma_{n-k} + (t f + (1-t) c0) sigma_n.

    V == 1 encodes the solved state of the t-interpolated equation at the
    point; the admissible region is where the cone condition holds.
    """
    prof = _as_profile(coeffs, lam)
    c0_term = coeffs.c0_term(t)
    n = coeffs.n
    e = elem_sym_table([1.0 / v for v in prof.values])[0].tolist()
    val = 0.0
    for k, w in coeffs.weights(t):
        val += w * e[n - k]
    val += (t * f_at_point + c0_term) * e[n]
    return val


def operator_gradient(coeffs, t, f_at_point, lam):
    """dV/dlam as a tuple.

    Closed form of the eigenvalue derivative:
      -dV/dlam_i = (1/lam_i) [ sum_k t c_k/C(n,k) (1/lam_i) S_{n-k-1; i}(1/lam)
                               + (t f + (1-t) c0) sigma_n ].
    On the cone region (with the source bounded below by the floor) every
    component is negative.
    """
    prof = _as_profile(coeffs, lam)
    c0_term = coeffs.c0_term(t)
    n = coeffs.n
    e, deleted = map(np.ndarray.tolist, elem_sym_table([1.0 / v for v in prof.values]))
    grad = []
    for li, row in zip(prof.values, deleted):
        inner = 0.0
        for k, w in coeffs.weights(t):
            inner += w / li * row[n - k - 1]
        inner += (t * f_at_point + c0_term) * e[n]
        grad.append(-inner / li)
    return tuple(grad)


def euler_weighted_sum(coeffs, t, f_at_point, lam):
    """sum_i (-lam_i dV/dlam_i), via the closed form

      sum_k t (n-k) c_k/C(n,k) sigma_{n-k} + n (t f + (1-t) c0) sigma_n.

    Matches the direct gradient contraction to machine precision; used as
    a cross-check of `operator_gradient`.
    """
    prof = _as_profile(coeffs, lam)
    c0_term = coeffs.c0_term(t)
    n = coeffs.n
    e = elem_sym_table([1.0 / v for v in prof.values])[0].tolist()
    total = 0.0
    for k, w in coeffs.weights(t):
        total += (n - k) * w * e[n - k]
    total += n * (t * f_at_point + c0_term) * e[n]
    return total


# ---------------------------------------------------------------------------
# subset avoidance
# ---------------------------------------------------------------------------

def subset_avoidance_matrix(n, zeta):
    """Sum over all zeta-subsets I of {0..n-1} of the 0/1 matrix E_I with
    (E_I)_{ij} = 1 iff neither i nor j lies in I.  Built by enumeration."""
    if not (1 <= zeta <= n - 1):
        raise ValueError("subset_avoidance_matrix: need 1 <= zeta <= n-1")
    M = np.zeros((n, n))
    for subset in itertools.combinations(range(n), zeta):
        mask = np.ones(n, dtype=bool)
        mask[list(subset)] = False
        M += np.outer(mask, mask)
    return M


# ---------------------------------------------------------------------------
# restriction to submanifolds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictedCoefficients:
    m: int
    b: tuple


def restricted_coefficients(coeffs, m):
    """Coefficients b_0..b_{m-1} of the induced m-dimensional equation:

        b_j = c_{j+n-m} * C(j+n-m, n-m) / C(n, m),  j = 0..m-1.

    Indices j + n - m outside 1..n-1 contribute 0 (there is no c_0 or c_n
    in the coefficient vector; the top coefficient is handled separately
    on the restricted equation).
    """
    n = coeffs.n
    if not (1 <= m <= n - 1):
        raise ValueError("restricted_coefficients: need 1 <= m <= n-1")
    b = []
    for j in range(m):
        src = j + n - m
        if 1 <= src <= n - 1:
            b.append(coeffs.c[src - 1] * math.comb(src, n - m) / math.comb(n, m))
        else:
            b.append(0.0)
    return RestrictedCoefficients(m, tuple(b))


# ---------------------------------------------------------------------------
# mixed-determinant density oracle
# ---------------------------------------------------------------------------

def _perm_det(M):
    # permutation expansion; n <= 4 keeps this cheap
    n = M.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        inv = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        sign = -1.0 if inv % 2 else 1.0
        total += sign * math.prod(M[r, perm[r]] for r in range(n))
    return total


def wedge_density_oracle(A, X, k):
    """Density of the degree-k mixed power of two positive forms against
    the full power of the second: k!(n-k)!/n! * (mixed determinant) / det X.

    The mixed determinant is expanded column-by-column over all ways of
    taking k columns from A and n-k from X, each determinant evaluated by
    full permutation expansion.  Every route through eigenvalues must agree
    with this; the combinatorial path is the oracle.  Guarded to n <= 4.
    """
    A = np.asarray(A, dtype=float)
    X = np.asarray(X, dtype=float)
    if A.shape != X.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("wedge_density_oracle: A and X must be square, same shape")
    n = A.shape[0]
    if n > 4:
        raise ValueError("wedge_density_oracle: permutation expansion limited to n <= 4")
    if not (0 <= k <= n):
        raise ValueError("wedge_density_oracle: need 0 <= k <= n")
    if np.linalg.eigvalsh(0.5 * (X + X.T))[0] <= 0:
        raise ValueError("wedge_density_oracle: X must be positive definite")
    det_x = _perm_det(X)
    mixed = 0.0
    for cols in itertools.combinations(range(n), k):
        M = X.copy()
        M[:, list(cols)] = A[:, list(cols)]
        mixed += _perm_det(M)
    return math.factorial(k) * math.factorial(n - k) / math.factorial(n) * mixed / det_x


# ---------------------------------------------------------------------------
# exact binomial identity used by the restriction bookkeeping
# ---------------------------------------------------------------------------

def restriction_identity(n, m, j, p):
    """Return integer pair (lhs_num * rhs_den, rhs_num * lhs_den) for

        b_j C(j,p) / C(m,p)  ==  c_k C(k, p+n-m) / C(n, p+n-m),  k = j+n-m,

    with the coefficient c_k divided out (both sides are c_k times a
    rational; the returned pair cross-multiplies the rationals so equality
    is an exact integer check).
    """
    k = j + n - m
    if not (0 <= p <= j < m < n and 1 <= k <= n - 1):
        raise ValueError("restriction_identity: index ranges violated")
    # lhs rational: C(k, n-m)/C(n,m) * C(j,p)/C(m,p)
    lhs_num = math.comb(k, n - m) * math.comb(j, p)
    lhs_den = math.comb(n, m) * math.comb(m, p)
    rhs_num = math.comb(k, p + n - m)
    rhs_den = math.comb(n, p + n - m)
    return lhs_num * rhs_den, rhs_num * lhs_den


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

_SAMPLE_LOG10_RANGE = (-2.0, 2.0)
_SAMPLE_MAX_TRIES = 200000


def sample_cone_profiles(rng, coeffs, t, count):
    """Rejection-sample `count` eigenvalue profiles inside the cone region.

    Entries are log-uniform in [1e-2, 1e2]; a draw is kept when the margin
    at scale t is strictly positive.  More than _SAMPLE_MAX_TRIES draws
    raise RuntimeError.
    """
    out = []
    tries = 0
    lo, hi = _SAMPLE_LOG10_RANGE
    while len(out) < count:
        tries += 1
        if tries > _SAMPLE_MAX_TRIES:
            raise RuntimeError("sample_cone_profiles: rejection sampling stalled")
        lam = np.sort(10.0 ** rng.uniform(lo, hi, size=coeffs.n))
        prof = EigenProfile(tuple(lam))
        if cone_margin(coeffs, t, prof).satisfied:
            out.append(prof)
    return out
