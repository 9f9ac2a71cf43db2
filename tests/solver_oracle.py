"""The solver's test-only routines: the torus mesh and the full
grid + (n, n) Hessian of a potential.

Nothing in `gma` runs these.  The solver carries every symmetric field as
stacked, chi-reduced components; the tests check that route against the
plain Hessian below, which reads the geometry's unreduced symbol table.
"""

from __future__ import annotations

import numpy as np

from gma.solver import _canonical, _filter


def mesh(geom):
    return np.meshgrid(*geom.axes(), indexing="ij")


def potential_hessian(geom, phi):
    """Second derivative field of the potential, shape grid + (n, n)."""
    comps = _filter(geom, _canonical(phi, geom.grid_shape), geom._quarter_symbols())
    return np.moveaxis(4.0 * comps[geom._pair_index], (0, 1), (-2, -1))
