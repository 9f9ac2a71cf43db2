"""Numerical positivity criterion on polarized toric surfaces and 3-folds.

Classes are encoded by their moment polytopes (exact rational vertices);
torus-invariant subvarieties correspond to proper faces of the shared
normal fan.  Only the hull search depends on the dimension: each polytope
derives its sorted vertices and its faces once from its vertex cones (the
facet normals tight at a vertex), and a class pair matches its vertices by
cone.  Each face's intersection numbers come from the volume
polynomial of the shared fan: its lattice volume in P + jQ, j = 0..d, and
one exact Vandermonde solve give its row of lattice-normalized mixed
volumes, tabulated once per class pair.  The criterion value

    C(n,p) * int_V Omega^{n-p} - sum_{k=p}^{n-1} c_k C(k,p) int_V chi^{n-k} Omega^{k-p}

is evaluated per face in exact rational arithmetic (floats are rejected;
coefficients enter as ints, Fractions, or "p/q" strings).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exceptions import FanMismatchError

__all__ = [
    "RationalPolytope",
    "ClassPolytopePair",
    "FaceRow",
    "CriterionReport",
    "volume",
    "mixed_volume",
    "minkowski_sum",
    "intersection_number",
    "check_criterion",
    "jequation_constant",
]


def _rat(x):
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    raise TypeError(
        f"exact rational expected (int, Fraction or 'p/q' string), got {type(x).__name__}"
    )


def _point(p):
    return tuple(_rat(c) for c in p)


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    denom = math.lcm(*(c.denominator for c in vec))
    ints = [int(c * denom) for c in vec]
    g = math.gcd(*(abs(i) for i in ints))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(i // g for i in ints)


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _rank(vectors, dim):
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(dim):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# exact convex hulls
# ---------------------------------------------------------------------------

def _chain_2d(points):
    """Monotone-chain hull of a full-dimensional set; counter-clockwise vertices."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                turn = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if turn <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    return half(pts)[:-1] + half(reversed(pts))[:-1]


def _facets_3d(points):
    """Supporting planes of the hull by exhaustive search (small inputs).

    Runs on integer-rescaled coordinates for speed; one dot-product pass
    per candidate plane covers both orientations.  Returns
    {primitive outer normal: (offset, tight vertex tuple)}.
    """
    pts = sorted(set(points))
    denom = math.lcm(*(c.denominator for p in pts for c in p))
    ipts = [tuple(int(c * denom) for c in p) for p in pts]
    found = {}
    for i, j, k in itertools.combinations(range(len(ipts)), 3):
        a = ipts[i]
        normal = _cross(_sub(ipts[j], a), _sub(ipts[k], a))
        if normal == (0, 0, 0):
            continue
        g = math.gcd(*(abs(x) for x in normal))
        normal = tuple(x // g for x in normal)
        neg = tuple(-x for x in normal)
        if normal in found and neg in found:
            continue
        values = [_dot(normal, p) for p in ipts]
        off = values[i]
        if normal not in found and max(values) == off:
            found[normal] = frozenset(t for t, v in enumerate(values) if v == off)
        if neg not in found and min(values) == off:
            found[neg] = frozenset(t for t, v in enumerate(values) if v == off)
    facets = {}
    for n, tight_idx in found.items():
        tight = tuple(pts[t] for t in sorted(tight_idx))
        facets[n] = (_dot(n, tight[0]), tight)
    return facets


def _facets(points, dim):
    """{primitive outer normal: (offset, tight points)} of the hull of a
    full-dimensional point set: the two endpoints of a segment, the edges of
    a polygon (each tight at its two ends), the exhaustive search in 3-D."""
    if dim == 1:
        lo, hi = min(points), max(points)
        return {(-1,): (-lo[0], (lo,)), (1,): (hi[0], (hi,))}
    if dim == 2:
        hull, facets = _chain_2d(points), {}
        for v, w in zip(hull, hull[1:] + hull[:1]):
            normal = _primitive((w[1] - v[1], v[0] - w[0]))
            facets[normal] = (_dot(normal, v), (v, w))
        return facets
    return _facets_3d(points)


class RationalPolytope:
    """Full-dimensional convex lattice-rational polytope in dimension 1-3.

    Vertices may be given redundantly.  The hull search gives the facets
    (primitive outer normals, rational offsets) and the points tight on each;
    a point's cone is the set of normals tight at it.  The vertices are the
    points whose cone has full rank, in sorted order (in 2-D too: a consumer
    that needs the cyclic order sorts them itself).  A set A of codim normals
    is a proper face when more than dim - codim vertices have A in their cone.
    """

    def __init__(self, vertices):
        pts = [_point(p) for p in vertices]
        if not pts:
            raise ValueError("empty vertex list")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ValueError("vertices of mixed dimension")
        self.dim = dim = dims.pop()
        if dim not in (1, 2, 3):
            raise ValueError("only dimensions 1, 2 and 3 are supported")
        if _rank([_sub(p, pts[0]) for p in pts[1:]], dim) != dim:
            raise ValueError("degenerate polytope: not full-dimensional")
        facets = _facets(pts, dim)
        self.facets = tuple((n, off) for n, (off, _) in sorted(facets.items()))
        cones = {}
        for n, (_, tight) in facets.items():
            for p in tight:
                cones.setdefault(p, []).append(n)
        self._cones = {
            p: frozenset(cone) for p, cone in sorted(cones.items()) if _rank(cone, dim) == dim
        }
        self.vertices = tuple(self._cones)
        holders = {}
        for v, cone in self._cones.items():
            for codim in range(1, dim):
                for active in itertools.combinations(sorted(cone), codim):
                    holders.setdefault(frozenset(active), []).append(v)
        self._faces = {
            active: tuple(holders[active])
            for active in sorted(holders, key=lambda a: (len(a), sorted(a)))
            if len(holders[active]) > dim - len(active)
        }

    @property
    def facet_normals(self):
        return frozenset(n for n, _ in self.facets)

    def tight_vertices(self, direction):
        values = [_dot(direction, v) for v in self.vertices]
        h = max(values)
        return tuple(v for v, x in zip(self.vertices, values) if x == h)

    def edge_directions(self):
        edges = [self.vertices] if self.dim == 1 else [
            verts for active, verts in self._faces.items() if len(active) == self.dim - 1
        ]
        out = set()
        for v, w in edges:
            d = _primitive(_sub(w, v))
            out.add(max(d, tuple(-x for x in d)))
        return sorted(out)

    def faces(self):
        """Proper faces of codimension 1..dim-1 as {tight facet-normal set:
        vertices}; the size of the set is the face's codimension."""
        return dict(self._faces)


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------

def _shoelace(hull):
    twice = Fraction(0)
    for i, v in enumerate(hull):
        w = hull[(i + 1) % len(hull)]
        twice += v[0] * w[1] - w[0] * v[1]
    return twice / 2


def _projection(vec, edge):
    """Coordinates kept by a projection that is injective on a face's span,
    and the index [Z^m : pi(L)] of the projected direction lattice L.

    vec is primitive: an edge's direction (keep its largest coordinate) or
    a hyperplane's normal (drop its largest coordinate).  Either way the
    index is that coordinate's absolute value, so Vol_L(F) = Vol(pi F) / index.
    """
    j = max(range(len(vec)), key=lambda i: abs(vec[i]))
    keep = (j,) if edge else tuple(i for i in range(len(vec)) if i != j)
    return keep, abs(vec[j])


def _minkowski_volume(polys):
    """Volume of the Minkowski sum of the given polytopes (same dimension),
    without materializing the sum: candidate facet normals of the sum are
    facet normals of the summands plus cross products of edge directions,
    and each candidate facet is the sum of the tight faces."""
    dim = polys[0].dim
    if dim == 1:
        return sum(p.vertices[1][0] - p.vertices[0][0] for p in polys)
    if dim == 2:
        pts = [(Fraction(0), Fraction(0))]
        for p in polys:
            pts = [_add(a, v) for a in pts for v in p.vertices]
        return _shoelace(_chain_2d(pts))
    candidates = set()
    for p in polys:
        for n, _ in p.facets:
            candidates.add(n)
            candidates.add(tuple(-x for x in n))
    for p, q in itertools.combinations(polys, 2):
        q_directions = q.edge_directions()
        for e1 in p.edge_directions():
            for e2 in q_directions:
                c = _cross(e1, e2)
                if c != (0, 0, 0):
                    c = _primitive(tuple(Fraction(x) for x in c))
                    candidates.add(c)
                    candidates.add(tuple(-x for x in c))
    total = Fraction(0)
    for n in candidates:
        pts = [(Fraction(0),) * 3]
        for tight in [p.tight_vertices(n) for p in polys]:
            pts = [_add(a, v) for a in pts for v in tight]
        keep, index = _projection(n, edge=False)
        flat = sorted({tuple(q[i] for i in keep) for q in pts})
        if len(flat) < 3 or _rank([_sub(f, flat[0]) for f in flat[1:]], 2) < 2:
            continue
        # signed pyramid, apex at the origin: lattice height n.p times lattice area / 3
        total += _dot(n, pts[0]) * _shoelace(_chain_2d(flat)) / (3 * index)
    return total


def volume(P):
    """Exact rational volume."""
    return _minkowski_volume([P])


def minkowski_sum(P, Q):
    """Exact Minkowski sum (hull of pairwise vertex sums)."""
    if P.dim != Q.dim:
        raise ValueError("minkowski_sum: dimension mismatch")
    return RationalPolytope([_add(v, w) for v in P.vertices for w in Q.vertices])


def mixed_volume(polys):
    """Mixed volume of dim polytopes in dimension dim, normalized so that
    mixed_volume([P] * dim) = volume(P).

    Evaluated by polarization of the volume polynomial of Minkowski sums:
    MV = (1/d!) sum over subsets S of (-1)^{d-|S|} Vol(sum of S).
    """
    d = polys[0].dim
    if any(p.dim != d for p in polys):
        raise ValueError("mixed_volume: dimension mismatch")
    if len(polys) != d:
        raise ValueError(f"mixed_volume: need exactly {d} polytopes in dimension {d}")
    total = Fraction(0)
    for r in range(1, d + 1):
        for subset in itertools.combinations(range(d), r):
            vol = _minkowski_volume([polys[i] for i in subset])
            total += (-1) ** (d - r) * vol
    return total / math.factorial(d)


# ---------------------------------------------------------------------------
# shared-fan class pairs, every face's row tabulated once
# ---------------------------------------------------------------------------

def _polynomial_coefficients(values):
    """Exact coefficients c_0..c_d of the polynomial sum_b c_b j^b that takes
    values[j] at j = 0..d.  Gauss-Jordan on the Vandermonde matrix needs no
    pivoting: its leading minors are Vandermonde determinants of 0..k."""
    d = len(values) - 1
    rows = [[Fraction(j) ** b for b in range(d + 1)] + [v] for j, v in enumerate(values)]
    for col, pivot in enumerate(rows):
        lead = pivot[col]
        pivot[:] = [x / lead for x in pivot]
        for row in rows:
            if row is not pivot and row[col]:
                factor = row[col]
                row[:] = [x - factor * y for x, y in zip(row, pivot)]
    return [row[-1] for row in rows]


def _face_volume(vertices, active):
    """Lattice volume of the edge or 2-face with the given vertices and tight
    facet-normal set: a lattice length, or the area projected along the
    facet normal, each divided by the projection's lattice index."""
    if len(vertices[0]) - len(active) == 1:
        v, w = vertices
        (i,), index = _projection(_primitive(_sub(w, v)), edge=True)
        return abs(w[i] - v[i]) / index
    keep, index = _projection(next(iter(active)), edge=False)
    return _shoelace(_chain_2d([tuple(v[i] for i in keep) for v in vertices])) / index


def _intersection_row(volumes):
    """(I(d, 0), I(d-1, 1), ..., I(0, d)) of a d-dimensional face pair with a
    shared normal fan, from the lattice volumes of the face of P + jQ at
    j = 0..d: Vol(P + jQ) = sum_b C(d, b) MV(P^(d-b), Q^b) j^b and
    I(d-b, b) = d! MV(P^(d-b), Q^b)."""
    d, coeffs = len(volumes) - 1, _polynomial_coefficients(volumes)
    return tuple(math.factorial(d) * c / math.comb(d, b) for b, c in enumerate(coeffs))


@dataclass(frozen=True)
class ClassPolytopePair:
    """Moment polytopes of the two classes; they must share a normal fan
    (identical primitive facet-normal sets and face incidences) so faces
    correspond one-to-one.  face_labels optionally names codim-1 faces by
    their outer normal; a key that is not a facet normal is a ValueError.

    Vertices are matched once, by their tight facet-normal sets, and every
    face's lattice volume in P + jQ is read from them.  _table maps the
    active normal set (None for the whole space) to the face's row of
    intersection numbers I(d, 0), I(d-1, 1), ..., I(0, d), where d is the
    face's dimension and I(a, b) is int_V Omega^a chi^b."""

    p_omega: RationalPolytope
    p_chi: RationalPolytope
    face_labels: dict = None

    def __post_init__(self):
        if self.p_omega.dim != self.p_chi.dim:
            raise FanMismatchError("polytopes have different dimensions")
        if self.p_omega.facet_normals != self.p_chi.facet_normals:
            raise FanMismatchError("facet normal sets differ")
        omega_faces, chi_faces = self.p_omega.faces(), self.p_chi.faces()
        differing = omega_faces.keys() ^ chi_faces.keys()
        if differing:
            raise FanMismatchError(
                f"face incidences differ at codimension {min(map(len, differing))}"
            )
        labels = {}
        for normal, label in (self.face_labels or {}).items():
            if tuple(normal) not in self.p_omega.facet_normals:
                raise ValueError(f"faceLabels: {tuple(normal)} is not a facet normal")
            labels[frozenset({tuple(normal)})] = label
        n, chi_heights = self.n, dict(self.p_chi.facets)
        chi_vertex = {cone: w for w, cone in self.p_chi._cones.items()}
        partner = {v: chi_vertex[cone] for v, cone in self.p_omega._cones.items()}
        volumes = {  # the face of P + jQ has the vertices v + j w; facets also serve j = n
            active: [
                _face_volume([_add(v, tuple(j * y for y in partner[v])) for v in verts], active)
                for j in range(n + 1 if len(active) == 1 else n - len(active) + 1)
            ]
            for active, verts in omega_faces.items()
        }
        # Vol(P + jQ) by pyramids over its facets, apex at the origin (1-D facets are points)
        whole = [
            sum((h + j * chi_heights[u]) * (volumes[frozenset({u})][j] if n > 1 else 1)
                for u, h in self.p_omega.facets) / n
            for j in range(n + 1)
        ]
        table = {None: _intersection_row(whole)}  # faces() come by codimension, then normals
        table.update((a, _intersection_row(vol[: n - len(a) + 1])) for a, vol in volumes.items())
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_table", table)

    @property
    def n(self):
        return self.p_omega.dim

    def face_name(self, active):
        default = "face " + " & ".join(str(n) for n in sorted(active))
        return self._labels.get(active, default)

    def faces(self):
        """Active normal sets of the proper faces, by codimension, then normals."""
        return [active for active in self._table if active is not None]


def intersection_number(pair, face_key, a, b):
    """int_V Omega^a chi^b over the subvariety of the face: (n-p)! times the
    lattice-normalized mixed volume of a copies of the Omega face and b
    copies of the chi face, read from the pair's table.  face_key is a
    face's active normal set, or None for the whole space (p=0)."""
    n = pair.n
    if face_key not in pair._table:
        raise KeyError(f"no face with active normals {sorted(face_key)}")
    p = 0 if face_key is None else len(face_key)
    if a < 0 or b < 0 or a + b != n - p:
        raise ValueError(f"exponent mismatch: need a + b = {n - p}")
    return pair._table[face_key][b]


def _check_coefficients(n, c):
    coeffs = [_rat(x) for x in c]
    if len(coeffs) != n - 1:
        raise ValueError(f"need exactly n-1 = {n - 1} coefficients c_1..c_{n - 1}")
    if any(x < 0 for x in coeffs):
        raise ValueError("coefficients must be >= 0")
    return coeffs


@dataclass(frozen=True)
class FaceRow:
    face_id: str
    codim: int
    lhs: Fraction
    rhs_scale: Fraction
    ratio: Fraction
    conditioned: bool


@dataclass(frozen=True)
class CriterionReport:
    per_face: tuple
    passed: bool
    epsilon_uniform: Fraction
    worst_face: str
    compatibility_value: Fraction


def check_criterion(pair, c):
    """Evaluate the per-face positivity criterion in exact arithmetic.

    Faces of codimension 1..n-1 enter the pass/fail set; the codimension-0
    value (which a compatible source term is free to absorb) is reported
    separately as compatibility_value.  A face is `conditioned` when the
    subtracted sum is non-empty, i.e. some c_k with k >= codim is positive.
    """
    n = pair.n
    if n == 1:
        raise ValueError("check_criterion: a 1-D pair has no proper positive-dimensional faces")
    coeffs = _check_coefficients(n, c)
    zeta = max((k for k in range(1, n) if coeffs[k - 1] > 0), default=0)

    def criterion(key, p):
        """(C(n,p) I(n-p,0), the criterion value) on a face of codimension p."""
        scale = math.comb(n, p) * intersection_number(pair, key, n - p, 0)
        return scale, scale - sum(
            coeffs[k - 1] * math.comb(k, p) * intersection_number(pair, key, k - p, n - k)
            for k in range(max(p, 1), n) if coeffs[k - 1]
        )

    rows = []
    for active in pair.faces():
        name, p = pair.face_name(active), len(active)
        rhs_scale, lhs = criterion(active, p)
        rows.append(FaceRow(name, p, lhs, rhs_scale, lhs / rhs_scale, p <= zeta))
    _, compat = criterion(None, 0)
    worst = min(rows, key=lambda r: r.ratio)
    return CriterionReport(
        per_face=tuple(rows),
        passed=all(r.lhs > 0 for r in rows),
        epsilon_uniform=worst.ratio,
        worst_face=worst.face_id,
        compatibility_value=compat,
    )


def jequation_constant(pair, k):
    """Normalizing constant int Omega^n / int Omega^{n-k} chi^k."""
    n = pair.n
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    return intersection_number(pair, None, n, 0) / intersection_number(pair, None, n - k, k)
