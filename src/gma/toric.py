"""Numerical positivity criterion on polarized toric surfaces and 3-folds.

Classes are encoded by their moment polytopes (exact rational vertices);
torus-invariant subvarieties correspond to proper faces of the shared
normal fan.  Intersection numbers are computed as lattice-normalized
mixed volumes of corresponding faces, and the criterion value

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
    "Face",
    "ClassPolytopePair",
    "FaceRow",
    "CriterionReport",
    "volume",
    "mixed_volume",
    "minkowski_sum",
    "scale_polytope",
    "translate_polytope",
    "intersection_number",
    "check_criterion",
    "jequation_constant",
]


def _rat(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact rational expected (int, Fraction or 'p/q' string), got {type(x).__name__}")


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
    """Monotone-chain hull; counter-clockwise extreme vertices."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise ValueError("degenerate polytope: fewer than 3 distinct vertices")

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

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("degenerate polytope: vertices are collinear")
    return hull


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
            found[normal] = frozenset(
                t for t, v in enumerate(values) if v == off
            )
        if neg not in found and min(values) == off:
            found[neg] = frozenset(
                t for t, v in enumerate(values) if v == off
            )
    facets = {}
    for n, tight_idx in found.items():
        tight = tuple(pts[t] for t in sorted(tight_idx))
        facets[n] = (_dot(n, tight[0]), tight)
    return facets


class Face:
    """A proper face: dimension, codimension, tight facet normals, vertices."""

    def __init__(self, dim, codim, active, vertices, face_id):
        self.dim = dim
        self.codim = codim
        self.active = frozenset(active)
        self.vertices = tuple(vertices)
        self.face_id = face_id

    def __repr__(self):
        return f"Face({self.face_id}, codim={self.codim})"


def _default_face_id(active):
    return "face " + " & ".join(str(n) for n in sorted(active))


class RationalPolytope:
    """Full-dimensional convex lattice-rational polytope in dimension 1-3.

    Vertices may be given redundantly; the exact hull keeps the extreme
    points and derives the facet description (primitive outer normals with
    rational offsets) and the proper faces of codimension 1..dim-1.
    """

    def __init__(self, vertices):
        pts = [_point(p) for p in vertices]
        if not pts:
            raise ValueError("empty vertex list")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ValueError("vertices of mixed dimension")
        self.dim = dims.pop()
        if self.dim not in (1, 2, 3):
            raise ValueError("only dimensions 1, 2 and 3 are supported")
        base = pts[0]
        if _rank([_sub(p, base) for p in pts[1:]], self.dim) != self.dim:
            raise ValueError("degenerate polytope: not full-dimensional")
        if self.dim == 1:
            lo = min(p[0] for p in pts)
            hi = max(p[0] for p in pts)
            self.vertices = ((lo,), (hi,))
            self.facets = (((1,), hi), ((-1,), -lo))
        elif self.dim == 2:
            hull = _chain_2d(pts)
            self.vertices = tuple(hull)
            facets = []
            for i, v in enumerate(hull):
                w = hull[(i + 1) % len(hull)]
                d = _sub(w, v)
                normal = _primitive((d[1], -d[0]))
                facets.append((normal, _dot(normal, v)))
            self.facets = tuple(facets)
        else:
            facets = _facets_3d(pts)
            if len(facets) < 4:
                raise ValueError("degenerate polytope: not full-dimensional")
            active_count = {p: [] for p in set(pts)}
            for n, (_, tight) in facets.items():
                for p in tight:
                    active_count[p].append(n)
            self.vertices = tuple(sorted(
                p for p, normals in active_count.items()
                if len(normals) >= 3 and _rank(normals, 3) == 3
            ))
            vset = set(self.vertices)
            self.facets = tuple(
                (n, off) for n, (off, _) in sorted(facets.items())
            )
            self._facet_vertices = {
                n: tuple(p for p in tight if p in vset)
                for n, (_, tight) in facets.items()
            }

    @property
    def facet_normals(self):
        return frozenset(n for n, _ in self.facets)

    def support(self, direction):
        return max(_dot(direction, v) for v in self.vertices)

    def tight_vertices(self, direction):
        h = self.support(direction)
        return tuple(v for v in self.vertices if _dot(direction, v) == h)

    def edge_directions(self):
        out = set()
        for v, w in self._edge_pairs():
            d = _primitive(_sub(w, v))
            out.add(max(d, tuple(-x for x in d)))
        return sorted(out)

    def _edge_pairs(self):
        if self.dim == 1:
            return [self.vertices]
        if self.dim == 2:
            hull = self.vertices
            return [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
        pairs = set()
        normals = [n for n, _ in self.facets]
        for n1, n2 in itertools.combinations(normals, 2):
            common = [p for p in self._facet_vertices[n1]
                      if p in self._facet_vertices[n2]]
            if len(common) == 2:
                pairs.add(tuple(sorted(common)))
        return sorted(pairs)

    def faces(self, codim):
        """Proper faces of the given codimension (1..dim-1), keyed by their
        tight facet-normal sets."""
        if not 1 <= codim <= self.dim - 1:
            raise ValueError("codim must be between 1 and dim-1")
        out = []
        if codim == 1:
            if self.dim == 2:
                for i, (n, _) in enumerate(self.facets):
                    v = self.vertices[i]
                    w = self.vertices[(i + 1) % len(self.vertices)]
                    out.append(Face(1, 1, {n}, (v, w), _default_face_id({n})))
            else:
                for n, _ in self.facets:
                    verts = self._facet_vertices[n]
                    out.append(Face(2, 1, {n}, verts, _default_face_id({n})))
        else:  # codim 2 in dimension 3: edges
            for v, w in self._edge_pairs():
                active = {
                    n for n, _ in self.facets
                    if v in self._facet_vertices[n] and w in self._facet_vertices[n]
                }
                out.append(Face(1, 2, active, (v, w), _default_face_id(active)))
        return out


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
        for e1 in p.edge_directions():
            for e2 in q.edge_directions():
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


def scale_polytope(P, s):
    s = _rat(s)
    if s <= 0:
        raise ValueError("scale must be positive")
    return RationalPolytope([tuple(s * c for c in v) for v in P.vertices])


def translate_polytope(P, t):
    t = _point(t)
    return RationalPolytope([_add(v, t) for v in P.vertices])


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
# shared-fan class pairs and faces measured by coordinate projection
# ---------------------------------------------------------------------------

def _face_key_sets(P):
    keys = {}
    for codim in range(1, P.dim):
        keys[codim] = {f.active: f for f in P.faces(codim)}
    return keys


@dataclass(frozen=True)
class ClassPolytopePair:
    """Moment polytopes of the two classes; they must share a normal fan
    (identical primitive facet-normal sets and face incidences) so faces
    correspond one-to-one.  face_labels optionally names codim-1 faces by
    their outer normal."""

    p_omega: RationalPolytope
    p_chi: RationalPolytope
    face_labels: dict = None

    def __post_init__(self):
        if self.p_omega.dim != self.p_chi.dim:
            raise FanMismatchError("polytopes have different dimensions")
        if self.p_omega.facet_normals != self.p_chi.facet_normals:
            raise FanMismatchError("facet normal sets differ")
        omega_keys = _face_key_sets(self.p_omega)
        chi_keys = _face_key_sets(self.p_chi)
        for codim in omega_keys:
            if set(omega_keys[codim]) != set(chi_keys[codim]):
                raise FanMismatchError(
                    f"face incidences differ at codimension {codim}"
                )
        object.__setattr__(self, "_omega_faces", omega_keys)
        object.__setattr__(self, "_chi_faces", chi_keys)

    @property
    def n(self):
        return self.p_omega.dim

    def face_name(self, face):
        if self.face_labels:
            for normal, label in self.face_labels.items():
                if frozenset({tuple(normal)}) == face.active:
                    return label
        return face.face_id

    def faces(self):
        """All proper faces of codimension 1..n-1 as (name, omega face, chi face)."""
        out = []
        for codim in sorted(self._omega_faces):
            for active in sorted(self._omega_faces[codim], key=sorted):
                fo = self._omega_faces[codim][active]
                fc = self._chi_faces[codim][active]
                out.append((self.face_name(fo), fo, fc))
        return out

    def find_face(self, key):
        for name, fo, fc in self.faces():
            if name == key or fo.active == key:
                return name, fo, fc
        raise KeyError(f"no face named {key!r}")


def _face_polytopes_in_lattice(fo, fc):
    """The two corresponding faces projected to coordinates of their (common)
    direction space, and the lattice index the projection multiplies
    volumes by."""
    if fo.dim == 1:
        keep, index = _projection(_primitive(_sub(fo.vertices[1], fo.vertices[0])), edge=True)
    else:
        keep, index = _projection(next(iter(fo.active)), edge=False)
    po, pc = (
        RationalPolytope([tuple(v[i] for i in keep) for v in face.vertices])
        for face in (fo, fc)
    )
    return po, pc, index


def intersection_number(pair, face_key, a, b):
    """int_V Omega^a chi^b over the subvariety of the face: (n-p)! times the
    lattice-normalized mixed volume of a copies of the Omega face and b
    copies of the chi face.  face_key None selects the whole space (p=0)."""
    n = pair.n
    if face_key is None:
        p = 0
        po, pc, index = pair.p_omega, pair.p_chi, 1
    else:
        _, fo, fc = pair.find_face(face_key)
        p = fo.codim
        po, pc, index = _face_polytopes_in_lattice(fo, fc)
    if a < 0 or b < 0 or a + b != n - p:
        raise ValueError(f"exponent mismatch: need a + b = {n - p}")
    return math.factorial(n - p) * mixed_volume([po] * a + [pc] * b) / index


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
    coeffs = _check_coefficients(n, c)
    zeta = max((k for k in range(1, n) if coeffs[k - 1] > 0), default=0)
    rows = []
    for name, fo, fc in pair.faces():
        p = fo.codim
        top = intersection_number(pair, fo.active, n - p, 0)
        if top <= 0:
            raise ValueError(f"non-positive top intersection number on {name}")
        rhs_scale = math.comb(n, p) * top
        lhs = rhs_scale
        for k in range(max(p, 1), n):
            if coeffs[k - 1]:
                lhs -= (
                    coeffs[k - 1]
                    * math.comb(k, p)
                    * intersection_number(pair, fo.active, k - p, n - k)
                )
        rows.append(
            FaceRow(name, p, lhs, rhs_scale, lhs / rhs_scale, p <= zeta)
        )
    compat = intersection_number(pair, None, n, 0)
    for k in range(1, n):
        if coeffs[k - 1]:
            compat -= coeffs[k - 1] * intersection_number(pair, None, k, n - k)
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
    denom = intersection_number(pair, None, n - k, k)
    assert denom > 0, "Kahler pair must have positive intersection numbers"
    return intersection_number(pair, None, n, 0) / denom
