"""Test-only routines of `gma.toric`: a polytope's volume and facet
normals, and the J-equation normalizing constant of a class pair.

Nothing in `gma` runs these.  The tests check mixed volumes and the
criterion's intersection numbers against them.
"""

from __future__ import annotations

from gma.toric import _minkowski_volume, intersection_number


def facet_normals(P):
    return frozenset(P._heights)


def volume(P):
    """Exact rational volume."""
    return _minkowski_volume([P])


def jequation_constant(pair, k):
    """Normalizing constant int Omega^n / int Omega^{n-k} chi^k."""
    n = pair.n
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    return intersection_number(pair, None, n, 0) / intersection_number(pair, None, n - k, k)
