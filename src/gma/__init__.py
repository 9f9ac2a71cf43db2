"""Numerical laboratory for generalised Monge-Ampere equations.

Modules
-------
kernel      pointwise eigenvalue algebra: elementary symmetric polynomials,
            cone-condition loads, source-term floors.
solver      continuity-method solver for the equation on flat tori with
            constant-coefficient background forms.
psh         mollification, uniform cone checks, Lelong numbers at level
            delta, regularized maxima and potential gluing.
toric       exact rational polytope geometry: mixed volumes, intersection
            numbers on faces, the subvariety positivity criterion.
cli         `gma` command line front end.
schemas     JSON schemas of the CLI configs and their validation.
gridio      grid files: a JSON header line, then raw little-endian float64.
exceptions  the computational failure classes, all under GmaError.
"""

__version__ = "0.1.0"
