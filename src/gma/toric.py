"""Numerical positivity criterion on polarized toric surfaces and 3-folds.

Classes are encoded by their moment polytopes (exact rational vertices);
torus-invariant subvarieties correspond to proper faces of the shared
normal fan.  Each polytope keeps its points as integer tuples over one
scale, the lcm of its denominators, and derives its sorted vertices and
its faces once from its vertex cones (the facet normals tight at a vertex);
only the hull search depends on the dimension.  A class pair matches its
vertices by cone over one common scale D, measures each face of P + jQ,
j = 0..d, as the integer d! Vol D^d, and one cached integer matrix d! V^-1
of the nodes 0..d gives the face's row of lattice-normalized mixed
volumes, each entry one exact Fraction, tabulated once.  The criterion value

    C(n,p) * int_V Omega^{n-p} - sum_{k=p}^{n-1} c_k C(k,p) int_V chi^{n-k} Omega^{k-p}

is evaluated per face in exact rational arithmetic (floats are rejected;
coefficients enter as ints, Fractions, or "p/q" strings).
"""

from __future__ import annotations

import functools
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


def _integral(vec):
    """An int or rational vector times the lcm of its denominators."""
    denom = math.lcm(*(c.denominator for c in vec))
    return [c.numerator * (denom // c.denominator) for c in vec]


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    ints = _integral(vec)
    g = math.gcd(*ints)
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
    """Exact rank of int or rational vectors: each cleared of denominators,
    then fraction-free elimination, whose divisions are all exact (Bareiss,
    Math. Comp. 22, 1968)."""
    rows = [_integral(v) for v in vectors]
    rank, lead = 0, 1
    for col in range(dim):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            rows[r] = [(top[col] * x - rows[r][col] * y) // lead for x, y in zip(rows[r], top)]
        lead = top[col]
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
    """Supporting planes of the hull of distinct sorted integer points by
    exhaustive search (small inputs); one dot-product pass per candidate
    plane covers both orientations."""
    found = {}
    for i, j, k in itertools.combinations(range(len(points)), 3):
        a = points[i]
        normal = _cross(_sub(points[j], a), _sub(points[k], a))
        if normal == (0, 0, 0):
            continue
        g = math.gcd(*normal)
        normal = nx, ny, nz = tuple(x // g for x in normal)
        neg = (-nx, -ny, -nz)
        if normal in found and neg in found:
            continue
        values = [nx * x + ny * y + nz * z for x, y, z in points]
        off = values[i]
        if normal not in found and max(values) == off:
            found[normal] = (off, tuple(p for p, v in zip(points, values) if v == off))
        if neg not in found and min(values) == off:
            found[neg] = (-off, tuple(p for p, v in zip(points, values) if v == off))
    return found


def _facets(points, dim):
    """{primitive outer normal: (offset, tight points)} of the hull of a
    full-dimensional set of distinct sorted integer points: the two
    endpoints of a segment, the edges of a polygon (each tight at its two
    ends), the exhaustive search in 3-D."""
    if dim == 1:
        lo, hi = points[0], points[-1]
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

    Vertices may be given redundantly; they are kept as integer tuples over
    one scale, the lcm of their denominators.  The hull search gives the
    facets (primitive outer normals, offsets) and the points tight on each;
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
        self._scale = scale = math.lcm(*(c.denominator for p in pts for c in p))
        exact = {tuple(c.numerator * (scale // c.denominator) for c in p): p for p in pts}
        points = sorted(exact)
        if _rank([_sub(p, points[0]) for p in points[1:]], dim) != dim:
            raise ValueError("degenerate polytope: not full-dimensional")
        facets = _facets(points, dim)
        self._heights = {n: off for n, (off, _) in sorted(facets.items())}
        self.facets = tuple((n, Fraction(off, scale)) for n, off in self._heights.items())
        cones = {}
        for n, (_, tight) in facets.items():
            for p in tight:
                cones.setdefault(p, []).append(n)
        self._cones = {
            p: frozenset(cone) for p, cone in sorted(cones.items()) if _rank(cone, dim) == dim
        }
        self._exact = {v: exact[v] for v in self._cones}
        self.vertices = tuple(self._exact.values())
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
        return frozenset(self._heights)

    def tight_vertices(self, direction):
        values = [_dot(direction, v) for v in self._exact]
        h = max(values)
        return tuple(v for v, x in zip(self.vertices, values) if x == h)

    def edge_directions(self):
        edges = [tuple(self._exact)] if self.dim == 1 else [
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
        return {a: tuple(map(self._exact.get, verts)) for a, verts in self._faces.items()}


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------

def _twice_area(hull):
    """Twice the signed area of a polygon given by its vertices in cyclic order."""
    return sum(v[0] * w[1] - w[0] * v[1] for v, w in zip(hull, hull[1:] + hull[:1]))


def _projection(normal):
    """Coordinates kept by dropping the largest coordinate of a primitive
    hyperplane normal, a projection injective on the hyperplane, and the
    index [Z^m : pi(L)] of the hyperplane's projected lattice L: that
    coordinate's absolute value, so Vol_L(F) = Vol(pi F) / index."""
    j = max(range(len(normal)), key=lambda i: abs(normal[i]))
    return tuple(i for i in range(len(normal)) if i != j), abs(normal[j])


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
        return _twice_area(_chain_2d(pts)) / 2
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
        keep, index = _projection(n)
        flat = sorted({tuple(q[i] for i in keep) for q in pts})
        if len(flat) < 3 or _rank([_sub(f, flat[0]) for f in flat[1:]], 2) < 2:
            continue
        # signed pyramid, apex at the origin: lattice height n.p times lattice area / 3
        total += _dot(n, pts[0]) * _twice_area(_chain_2d(flat)) / (6 * index)
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

@functools.cache
def _interpolation(d):
    """Rows b = 0..d of d! V^-1, where V[j][b] = j^b on the nodes j = 0..d.
    Column i is d! times node i's Lagrange polynomial, which is
    (-1)^(d-i) C(d, i) prod_{k != i} (x - k), so every entry is an integer."""
    columns = []
    for i in range(d + 1):
        poly = [(-1) ** (d - i) * math.comb(d, i)]
        for k in range(d + 1):
            if k != i:
                poly = [a - k * b for a, b in zip([0] + poly, poly + [0])]
        columns.append(poly)
    return tuple(zip(*columns))


def _face_measure(points, active):
    """d! Vol(F) D^d for the edge or 2-face F with the given vertices, integers
    over the scale D, and tight facet-normal set: an edge's lattice length is
    the gcd of its difference vector, and a 2-face's twice-area projected
    along the facet normal divides exactly by the projection's lattice index."""
    if len(points[0]) - len(active) == 1:
        v, w = points
        return math.gcd(*_sub(w, v))
    keep, index = _projection(next(iter(active)))
    return _twice_area(_chain_2d([tuple(p[i] for i in keep) for p in points])) // index


def _intersection_row(measures, scale):
    """(I(d, 0), I(d-1, 1), ..., I(0, d)) of a d-dimensional face pair with a
    shared normal fan, from its measures M(j) = d! Vol(P + jQ) D^d at
    j = 0..d over the scale D: Vol(P + jQ) = sum_b C(d, b) MV(P^(d-b), Q^b) j^b
    and I(d-b, b) = d! MV(P^(d-b), Q^b), so d! V^-1 M = d! C(d, b) D^d I(d-b, b)."""
    d = len(measures) - 1
    return tuple(
        Fraction(_dot(row, measures), math.factorial(d) * math.comb(d, b) * scale**d)
        for b, row in enumerate(_interpolation(d))
    )


@dataclass(frozen=True)
class ClassPolytopePair:
    """Moment polytopes of the two classes; they must share a normal fan
    (identical primitive facet-normal sets and face incidences) so faces
    correspond one-to-one.  face_labels optionally names codim-1 faces by
    their outer normal; a key that is not a facet normal is a ValueError.

    Vertices are matched once, by their tight facet-normal sets, over one
    common scale, and every face's integer measure in P + jQ is read from
    them.  _table maps the active normal set (None for the whole space) to
    the face's row of intersection numbers I(d, 0), I(d-1, 1), ..., I(0, d),
    where d is the face's dimension and I(a, b) is int_V Omega^a chi^b."""

    p_omega: RationalPolytope
    p_chi: RationalPolytope
    face_labels: dict = None

    def __post_init__(self):
        omega, chi = self.p_omega, self.p_chi
        if omega.dim != chi.dim:
            raise FanMismatchError("polytopes have different dimensions")
        if omega._heights.keys() != chi._heights.keys():
            raise FanMismatchError("facet normal sets differ")
        differing = omega._faces.keys() ^ chi._faces.keys()
        if differing:
            raise FanMismatchError(
                f"face incidences differ at codimension {min(map(len, differing))}"
            )
        labels = {}
        for normal, label in (self.face_labels or {}).items():
            if tuple(normal) not in omega._heights:
                raise ValueError(f"faceLabels: {tuple(normal)} is not a facet normal")
            labels[frozenset({tuple(normal)})] = label
        n, scale = self.n, math.lcm(omega._scale, chi._scale)
        to_omega, to_chi = scale // omega._scale, scale // chi._scale
        chi_vertex = {cone: w for w, cone in chi._cones.items()}
        partner = {  # v and its chi partner w over the common scale
            v: tuple(zip((to_omega * x for x in v), (to_chi * y for y in chi_vertex[cone])))
            for v, cone in omega._cones.items()
        }
        measures = {  # the face of P + jQ has the vertices v + j w; facets also serve j = n
            active: [
                _face_measure([tuple(x + j * y for x, y in partner[v]) for v in verts], active)
                for j in range(n + 1 if len(active) == 1 else n - len(active) + 1)
            ]
            for active, verts in omega._faces.items()
        }
        # n! Vol(P + jQ) D^n by pyramids over its facets, apex at the origin (1-D: points)
        heights = [(u, to_omega * h, to_chi * chi._heights[u]) for u, h in omega._heights.items()]
        whole = [
            sum((h + j * k) * (measures[frozenset({u})][j] if n > 1 else 1) for u, h, k in heights)
            for j in range(n + 1)
        ]
        table = {None: _intersection_row(whole, scale)}  # faces come by codimension, then normals
        table.update((a, _intersection_row(m[:n + 1 - len(a)], scale)) for a, m in measures.items())
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
