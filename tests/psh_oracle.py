"""The degenerate-cone probe and the shifted-cone constant of `gma.psh`.

Nothing in `gma` runs these.  The probe drives `gma.psh.check_uniform_cone`
once per (epsilon, mu) pair; the constant is the margin that a field
shifted by 2 gamma chi is guaranteed, which the tests hold that check to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from gma.psh import check_uniform_cone


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
