import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from toric_oracle import facet_normals, jequation_constant, volume

from gma import toric
from gma.exceptions import FanMismatchError
from gma.toric import (
    ClassPolytopePair,
    RationalPolytope,
    check_criterion,
    intersection_number,
    minkowski_sum,
    mixed_volume,
)

F = Fraction


def square():
    return RationalPolytope([(0, 0), (1, 0), (1, 1), (0, 1)])


def triangle():
    return RationalPolytope([(0, 0), (1, 0), (0, 1)])


def cube():
    return RationalPolytope(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )


def simplex3():
    return RationalPolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def scale_polytope(P, s):
    return RationalPolytope([tuple(F(s) * c for c in v) for v in P.vertices])


def translate_polytope(P, t):
    return RationalPolytope([tuple(c + d for c, d in zip(v, t)) for v in P.vertices])


def random_polygon(rng, span=6):
    while True:
        pts = [tuple(int(c) for c in p) for p in rng.integers(0, span, (8, 2))]
        try:
            return RationalPolytope(pts)
        except ValueError:
            continue


# ---------------------------------------------------------------------------
# volumes and hulls
# ---------------------------------------------------------------------------

def test_volume_basic_shapes():
    assert volume(square()) == F(1)
    assert volume(triangle()) == F(1, 2)
    assert volume(scale_polytope(triangle(), 2)) == F(2)
    assert volume(cube()) == F(1)
    assert volume(simplex3()) == F(1, 6)
    assert volume(scale_polytope(simplex3(), 2)) == F(4, 3)


def test_volume_scaling_law():
    P = RationalPolytope([(0, 0), (3, 1), (2, 4), (-1, 2)])
    s = F(3, 2)
    assert volume(scale_polytope(P, s)) == s**2 * volume(P)


def test_hull_drops_redundant_points():
    P = RationalPolytope(
        [(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2)), (F(1, 2), 0)]
    )
    assert set(P.vertices) == {(0, 0), (1, 0), (1, 1), (0, 1)}
    assert volume(P) == F(1)
    C = RationalPolytope(list(cube().vertices) + [(F(1, 2), F(1, 2), F(1, 2))])
    assert len(C.vertices) == 8
    assert volume(C) == F(1)


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        RationalPolytope([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(ValueError):
        RationalPolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(ValueError):
        RationalPolytope([(0, 0), (1, 0, 0)])
    with pytest.raises(TypeError):
        RationalPolytope([(0.5, 0), (1, 0), (0, 1)])


def test_minkowski_sum_square_triangle():
    S = minkowski_sum(square(), triangle())
    assert volume(S) == F(7, 2)
    assert volume(minkowski_sum(triangle(), square())) == F(7, 2)


# ---------------------------------------------------------------------------
# mixed volumes
# ---------------------------------------------------------------------------

def test_mixed_volume_diagonal_is_volume():
    for P in (square(), triangle()):
        assert mixed_volume([P, P]) == volume(P)
    for P in (cube(), simplex3()):
        assert mixed_volume([P, P, P]) == volume(P)


def test_mixed_volume_square_triangle_is_one():
    assert mixed_volume([square(), triangle()]) == F(1)
    assert mixed_volume([triangle(), square()]) == F(1)


def test_mixed_volume_3d_symmetry():
    C, S = cube(), simplex3()
    value = mixed_volume([C, C, S])
    assert mixed_volume([C, S, C]) == value
    assert mixed_volume([S, C, C]) == value
    assert value > 0


def test_mixed_volume_3d_interpolation_oracle():
    # Vol(C + t S) = Vol(C) + 3 t MV(C,C,S) + 3 t^2 MV(C,S,S) + t^3 Vol(S);
    # recover both mixed coefficients from materialized hull volumes at
    # t = 1, 2 and cross-check the t = 3 value
    C, S = cube(), simplex3()
    vols = {}
    for t in (1, 2, 3):
        vols[t] = volume(minkowski_sum(C, scale_polytope(S, t)))
    g = {t: vols[t] - volume(C) - t**3 * volume(S) for t in vols}
    mv_ccs = (4 * g[1] - g[2]) / 6
    mv_css = (g[2] - 2 * g[1]) / 6
    assert mv_ccs == mixed_volume([C, C, S])
    assert mv_css == mixed_volume([C, S, S])
    assert g[3] == 3 * 3 * mv_ccs + 3 * 9 * mv_css


def test_mixed_volume_multilinearity_random_polygons():
    rng = np.random.default_rng(11)
    for _ in range(50):
        P, Q, R = (random_polygon(rng) for _ in range(3))
        assert volume(minkowski_sum(P, Q)) == volume(P) + 2 * mixed_volume([P, Q]) + volume(Q)
        assert mixed_volume([minkowski_sum(P, R), Q]) == (
            mixed_volume([P, Q]) + mixed_volume([R, Q])
        )


def test_mixed_volume_monotone_in_inclusion():
    rng = np.random.default_rng(13)
    for _ in range(50):
        P = random_polygon(rng)
        bigger = RationalPolytope(
            list(P.vertices)
            + [tuple(int(c) for c in p) for p in rng.integers(-2, 9, (3, 2))]
        )
        Q = random_polygon(rng)
        assert mixed_volume([bigger, Q]) >= mixed_volume([P, Q])


def test_mixed_volume_dilation_and_translation():
    P, Q = square(), triangle()
    assert mixed_volume([scale_polytope(P, 3), Q]) == 3 * mixed_volume([P, Q])
    assert mixed_volume([translate_polytope(P, (5, -2)), Q]) == mixed_volume([P, Q])


def test_mixed_volume_guards():
    with pytest.raises(ValueError):
        mixed_volume([square()])
    with pytest.raises(ValueError):
        mixed_volume([square(), triangle(), triangle()])
    with pytest.raises(ValueError):
        mixed_volume([cube(), square(), square()])


# ---------------------------------------------------------------------------
# class pairs and intersection numbers
# ---------------------------------------------------------------------------

def p2_pair(omega_scale=2):
    return ClassPolytopePair(scale_polytope(triangle(), omega_scale), triangle())


def blowup_pair():
    p_omega = RationalPolytope([(0, 1), (0, 2), (2, 0), (1, 0)])
    p_chi = RationalPolytope(
        [(0, F(9, 10)), (0, 1), (1, 0), (F(9, 10), 0)]
    )
    return ClassPolytopePair(p_omega, p_chi, face_labels={(-1, -1): "E"})


def test_fan_mismatch_and_translation():
    with pytest.raises(FanMismatchError):
        ClassPolytopePair(square(), triangle())
    ClassPolytopePair(square(), translate_polytope(square(), (3, 3)))


def octahedron():
    return RationalPolytope(
        [tuple(s * int(i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
    )


def cut_octahedron():
    # the octahedron cut by x + y + z <= 1/2: the same eight facet normals,
    # but the (1,1,1) facet becomes a hexagon that also meets (1,-1,-1),
    # (-1,1,-1) and (-1,-1,1) in edges, which the octahedron does not have
    q, r = F(3, 4), F(-1, 4)
    return RationalPolytope([
        (-1, 0, 0), (0, -1, 0), (0, 0, -1), (q, r, 0), (q, 0, r),
        (r, q, 0), (0, q, r), (r, 0, q), (0, r, q),
    ])


def test_fan_mismatch_at_codimension_2():
    octa, cut = octahedron(), cut_octahedron()
    assert facet_normals(octa) == facet_normals(cut)
    with pytest.raises(FanMismatchError, match="face incidences differ at codimension 2"):
        ClassPolytopePair(octa, cut)


@pytest.mark.parametrize(
    "make",
    [
        cube,
        simplex3,
        octahedron,
        cut_octahedron,
        lambda: _mapped(
            RationalPolytope([(x, y, z) for x in (0, 3) for y in (0, 2) for z in (0, 5)]),
            [[1, 1, 1], [0, 1, 2], [1, 2, 4]],
        ),
        lambda: RationalPolytope([(1, 0), (2, 0), (3, 1), (2, 2), (1, 2), (0, 1)]),
        lambda: RationalPolytope([(F(1, 3),), (-2,), (5,)]),
        lambda: RationalPolytope([(0, 0), (2, 0), (1, 0), (2, 3), (0, 3), (2, 0)]),
    ],
    ids=[
        "cube", "simplex", "octahedron", "cut-octahedron", "mapped-box", "hexagon",
        "segment-with-interior-point", "square-with-repeat-and-edge-point",
    ],
)
def test_faces_match_tight_vertex_oracle(make):
    P = make()
    faces = P.faces()
    assert all(0 < len(active) < P.dim for active in faces)
    counts = [len(P.vertices)] + [
        sum(1 for active in faces if len(active) == P.dim - d) for d in range(1, P.dim)
    ]
    # Euler-Poincare: V - E + F = 2 in dimension 3, V - E = 0 for a polygon, V = 2 for a segment
    assert sum((-1) ** d * f for d, f in enumerate(counts)) == 1 - (-1) ** P.dim
    for active, verts in faces.items():
        direction = tuple(sum(c) for c in zip(*active))
        assert set(verts) == set(P.tight_vertices(direction))
    if P.dim == 3:
        facets = {next(iter(a)): set(v) for a, v in faces.items() if len(a) == 1}
        for active, verts in faces.items():
            if len(active) == 2:
                holders = {n for n, fv in facets.items() if set(verts) <= fv}
                assert holders == active


def test_degenerate_chi_facet_rejected():
    # chi = H - E collapses the exceptional edge to a point
    with pytest.raises(ValueError):
        RationalPolytope([(0, 1), (1, 0)])


def test_intersection_numbers_projective_plane():
    unit = ClassPolytopePair(triangle(), triangle())
    assert intersection_number(unit, None, 2, 0) == F(1)
    edge = unit.faces()[0]
    assert intersection_number(unit, edge, 1, 0) == F(1)

    pair = p2_pair()
    assert intersection_number(pair, None, 2, 0) == F(4)
    assert intersection_number(pair, None, 1, 1) == F(2)
    edge = pair.faces()[0]
    assert intersection_number(pair, edge, 1, 0) == F(2)
    assert intersection_number(pair, edge, 0, 1) == F(1)
    with pytest.raises(ValueError):
        intersection_number(pair, edge, 2, 0)


def test_intersection_numbers_projective_space():
    pair = ClassPolytopePair(scale_polytope(simplex3(), 2), simplex3())
    assert intersection_number(pair, None, 3, 0) == F(8)
    assert intersection_number(pair, None, 1, 2) == F(2)
    facet = next(f for f in pair.faces() if len(f) == 1)
    edge = next(f for f in pair.faces() if len(f) == 2)
    assert intersection_number(pair, facet, 2, 0) == F(4)
    assert intersection_number(pair, facet, 1, 1) == F(2)
    assert intersection_number(pair, facet, 0, 2) == F(1)
    assert intersection_number(pair, edge, 1, 0) == F(2)
    assert intersection_number(pair, edge, 0, 1) == F(1)


def test_intersection_number_unknown_face_raises():
    pair = ClassPolytopePair(scale_polytope(simplex3(), 2), simplex3())
    for key in (frozenset({(9, 9, 9)}), facet_normals(pair.p_omega)):
        with pytest.raises(KeyError):
            intersection_number(pair, key, 0, 1)


def test_jequation_constants():
    assert jequation_constant(p2_pair(), 1) == F(2)
    assert jequation_constant(blowup_pair(), 1) == F(30, 11)
    assert jequation_constant(ClassPolytopePair(triangle(), triangle()), 1) == F(1)
    with pytest.raises(ValueError):
        jequation_constant(p2_pair(), 2)


# ---------------------------------------------------------------------------
# the criterion
# ---------------------------------------------------------------------------

def test_criterion_projective_plane_passes():
    pair = p2_pair()
    report = check_criterion(pair, [jequation_constant(pair, 1)])
    assert report.passed
    assert report.epsilon_uniform == F(1, 2)
    assert len(report.per_face) == 3
    assert all(row.lhs == F(2) for row in report.per_face)
    assert all(row.conditioned for row in report.per_face)
    assert report.compatibility_value == F(0)


def test_criterion_blowup_fails_on_exceptional_curve():
    pair = blowup_pair()
    report = check_criterion(pair, [F(30, 11)])
    assert not report.passed
    assert report.worst_face == "E"
    by_face = {row.face_id: row.lhs for row in report.per_face}
    assert by_face["E"] == F(-5, 11)
    assert sorted(v for k, v in by_face.items() if k != "E") == [
        F(14, 11), F(19, 11), F(19, 11),
    ]
    assert report.epsilon_uniform == F(-5, 22)
    assert report.compatibility_value == F(0)


def test_criterion_all_zero_coefficients():
    report = check_criterion(blowup_pair(), [0])
    assert report.passed
    assert report.epsilon_uniform == F(1)
    assert not any(row.conditioned for row in report.per_face)


def test_criterion_projective_space():
    pair = ClassPolytopePair(scale_polytope(simplex3(), 2), simplex3())
    passing = check_criterion(pair, [0, 2])
    assert passing.passed
    assert passing.epsilon_uniform == F(1, 3)
    by_codim = {}
    for row in passing.per_face:
        by_codim.setdefault(row.codim, set()).add((row.lhs, row.ratio))
    assert by_codim[1] == {(F(4), F(1, 3))}
    assert by_codim[2] == {(F(4), F(2, 3))}
    assert all(row.conditioned for row in passing.per_face)

    failing = check_criterion(pair, [0, 4])
    assert not failing.passed
    assert failing.epsilon_uniform == F(-1, 3)
    assert all(row.lhs == F(-4) for row in failing.per_face if row.codim == 1)

    mixed = check_criterion(pair, [1, 0])
    assert mixed.passed
    assert mixed.epsilon_uniform == F(11, 12)
    for row in mixed.per_face:
        assert row.conditioned == (row.codim == 1)
        if row.codim == 2:
            assert row.ratio == F(1)


def test_criterion_scaling_covariance():
    pair = p2_pair()
    scaled = ClassPolytopePair(scale_polytope(pair.p_omega, F(3, 2)), pair.p_chi)
    base = check_criterion(pair, [1])
    lifted = check_criterion(scaled, [1])
    s = F(3, 2)
    for row_b, row_l in zip(base.per_face, lifted.per_face):
        assert row_l.rhs_scale == s ** (2 - row_b.codim) * row_b.rhs_scale


def test_uniform_epsilon_consistency():
    report = check_criterion(blowup_pair(), [F(30, 11)])
    assert report.epsilon_uniform == min(row.ratio for row in report.per_face)
    others = [r.ratio for r in report.per_face if r.face_id != report.worst_face]
    assert min(others) >= report.epsilon_uniform


def _mapped(P, matrix):
    return RationalPolytope(
        [tuple(sum(a * x for a, x in zip(row, v)) for row in matrix) for v in P.vertices]
    )


def _summary(pair, c):
    n = pair.n
    report = check_criterion(pair, c)
    return (
        volume(pair.p_omega),
        volume(pair.p_chi),
        [intersection_number(pair, None, a, n - a) for a in range(n + 1)],
        report.epsilon_uniform,
        report.compatibility_value,
        report.passed,
        sorted((r.codim, r.lhs, r.rhs_scale) for r in report.per_face),
    )


def test_criterion_invariant_under_unimodular_maps():
    # GL(n, Z) images have faces and facets of lattice index above 1 in
    # coordinates, so every face measure must divide that index out
    maps_3d = (
        [[1, 2, 0], [0, 1, 3], [0, 0, 1]],
        [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
        [[1, 1, 1], [0, 1, 2], [1, 2, 4]],
    )
    maps_2d = ([[2, 3], [1, 2]], [[1, 4], [0, 1]])
    box_omega = RationalPolytope([(x, y, z) for x in (0, 3) for y in (0, 2) for z in (0, 5)])
    box_chi = RationalPolytope([(x, y, z) for x in (0, 1) for y in (0, 2) for z in (0, 1)])
    cases = [
        (box_omega, box_chi, ["1/2", "1/3"], maps_3d),
        (scale_polytope(simplex3(), 2), simplex3(), ["1/2", "1/3"], maps_3d),
        (scale_polytope(triangle(), 3), triangle(), ["3/2"], maps_2d),
    ]
    for omega, chi, c, maps in cases:
        expected = _summary(ClassPolytopePair(omega, chi), c)
        for matrix in maps:
            pair = ClassPolytopePair(_mapped(omega, matrix), _mapped(chi, matrix))
            assert _summary(pair, c) == expected, matrix


def _primitive(vec):
    """Primitive integer vector along a nonzero rational vector."""
    scale = math.lcm(*(F(c).denominator for c in vec))
    ints = [int(c * scale) for c in vec]
    g = math.gcd(*ints)
    return [i // g for i in ints]


def _face_polytopes(pair, key):
    """The Omega and chi faces of a face key, projected to coordinates that
    are injective on the face's span, and the lattice index of the projection.

    An edge keeps the first nonzero coordinate of its primitive direction and
    a 2-face drops the first nonzero coordinate of its facet normal; the index
    is that coordinate's absolute value.  gma.toric picks the largest
    coordinate instead, so the two projections differ on mapped pairs."""
    if key is None:
        return pair.p_omega, pair.p_chi, 1
    omega_face, chi_face = pair.p_omega.faces()[key], pair.p_chi.faces()[key]
    edge = pair.n - len(key) == 1
    if edge:
        v, w = omega_face
        vec = _primitive([y - x for x, y in zip(v, w)])
    else:
        vec = next(iter(key))
    j = next(i for i, c in enumerate(vec) if c)
    keep = [j] if edge else [i for i in range(pair.n) if i != j]
    po, pc = (RationalPolytope([[v[i] for i in keep] for v in verts])
              for verts in (omega_face, chi_face))
    return po, pc, abs(vec[j])


def _box(sides):
    return RationalPolytope(list(itertools.product(*[(0, s) for s in sides])))


def _sum_pair(a, b):
    """A + B and A + 2B: Minkowski sums with positive weights share a normal fan."""
    A, B = RationalPolytope(a), RationalPolytope(b)
    return minkowski_sum(A, B), minkowski_sum(A, scale_polytope(B, 2))


_SHARED_FAN_PAIRS = {
    # the mapped boxes' vertices sort in different orders, so only the
    # tight facet-normal sets can match them
    "boxes": lambda: ClassPolytopePair(_box([3, 2, 5]), _box([1, 2, 1])),
    "2simplex-simplex": lambda: ClassPolytopePair(scale_polytope(simplex3(), 2), simplex3()),
    # every vertex of an octahedron lies on four facets
    "octahedra": lambda: ClassPolytopePair(
        translate_polytope(scale_polytope(octahedron(), 2), (1, 0, -1)),
        translate_polytope(octahedron(), (F(1, 3), 0, F(-1, 2))),
    ),
    "blowup": blowup_pair,
    "3triangle-triangle": lambda: p2_pair(3),
    # generic fans: triangle and parallelogram facets with normals off the axes
    "tetrahedra-sums": lambda: ClassPolytopePair(*_sum_pair(
        [(0, 0, 0), (2, 1, 0), (1, 3, 1), (0, 1, 3)],
        [(0, 0, 0), (1, 2, -1), (-2, 1, 1), (1, -1, 2)],
    )),
    "triangle-square-sums": lambda: ClassPolytopePair(*_sum_pair(
        [(0, 0), (2, 1), (1, 3)], [(0, 0), (1, 0), (1, 1), (0, 1)],
    )),
}


@pytest.mark.parametrize("mapped", [False, True], ids=["plain", "unimodular-image"])
@pytest.mark.parametrize("name", sorted(_SHARED_FAN_PAIRS))
def test_intersection_rows_match_mixed_volume_oracle(name, mapped):
    pair = _SHARED_FAN_PAIRS[name]()
    if mapped:
        matrix = [[1, 1, 1], [0, 1, 2], [1, 2, 4]] if pair.n == 3 else [[2, 3], [1, 2]]
        pair = ClassPolytopePair(_mapped(pair.p_omega, matrix), _mapped(pair.p_chi, matrix))
    for key in [None] + pair.faces():
        po, pc, index = _face_polytopes(pair, key)
        d = po.dim
        for b in range(d + 1):
            value = intersection_number(pair, key, d - b, b)
            assert value == math.factorial(d) * mixed_volume([po] * (d - b) + [pc] * b) / index
            assert value > 0


def test_face_table_builds_no_polytope(monkeypatch):
    # every face's row comes from the two input polytopes' vertices and facets
    omega, chi = _box([3, 2, 5]), _box([1, 2, 1])
    built = []
    original = RationalPolytope.__init__

    def counting(self, vertices):
        built.append(self)
        original(self, vertices)

    monkeypatch.setattr(toric.RationalPolytope, "__init__", counting)
    pair = ClassPolytopePair(omega, chi)
    monkeypatch.undo()
    assert len(built) == 0
    assert len(pair.faces()) == 18
    assert intersection_number(pair, None, 3, 0) == 6 * 30


def test_coefficient_validation():
    pair = p2_pair()
    with pytest.raises(ValueError):
        check_criterion(pair, [-1])
    with pytest.raises(ValueError):
        check_criterion(pair, [1, 1])
    with pytest.raises(TypeError):
        check_criterion(pair, [0.5])
    report = check_criterion(pair, ["3/2"])
    assert report.per_face[0].lhs == F(4) - F(3, 2)


def test_one_dimensional_pair_is_rejected():
    pair = ClassPolytopePair(RationalPolytope([(0,), (2,)]), RationalPolytope([(0,), (1,)]))
    with pytest.raises(ValueError, match="1-D pair has no proper positive-dimensional faces"):
        check_criterion(pair, [])


def test_face_table_makes_one_fraction_per_entry():
    # the table runs on integers; each entry is one Fraction(int, int), made last
    import cProfile
    import fractions
    import pstats

    omega, chi = _box([3, 2, 5]), _box([1, 2, 1])
    profile = cProfile.Profile()
    profile.enable()
    pair = ClassPolytopePair(omega, chi)
    profile.disable()
    made = sum(
        calls for (path, _, _), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if path == fractions.__file__
    )
    rows = [None] + pair.faces()
    entries = sum(pair.n - (0 if key is None else len(key)) + 1 for key in rows)
    assert (len(rows), entries) == (19, 46)
    assert made == entries


def test_rank_is_exact_on_dependent_big_integer_triples():
    # float elimination called 159 of these 200 dependent triples independent
    rng = np.random.default_rng(17)
    for _ in range(200):
        a, b = ([int(d) for d in rng.integers(10**12, 10**13, 3)] for _ in range(2))
        a, b = [x * 10**27 + 1 for x in a], [x * 10**27 - 7 for x in b]
        c = [3 * x - 7 * y for x, y in zip(a, b)]
        assert toric._rank([a, b, c], 3) == 2
        assert toric._rank([[F(x, 3) for x in a], b, [F(z, 5) for z in c]], 3) == 2
        assert toric._rank([a, b, [x + 1 for x in c]], 3) == 3
    assert toric._rank([], 3) == 0
    assert toric._rank([(0, 0, 0), (0, 2, 0), (0, 5, 0)], 3) == 1


def _rational_points(rng, count, dim, big):
    """Seeded points p/q with |p| < 12 and q <= 6; with big, each coordinate
    also carries a multiple of 10^29 or a 10^30 offset."""
    pts = []
    for _ in range(count):
        p = []
        for _ in range(dim):
            c = F(int(rng.integers(-11, 12)), int(rng.integers(1, 7)))
            if big:
                c = c * 10**29 + 10**30 if rng.random() < 0.5 else c + 10**30
            p.append(c)
        pts.append(tuple(p))
    return pts


def _random_rational_pair(rng, dim, big):
    while True:
        try:
            a, b = (_rational_points(rng, 4, dim, big) for _ in range(2))
            return ClassPolytopePair(*_sum_pair(a, b))
        except ValueError:
            continue


@pytest.mark.parametrize(
    "dim, count, seed", [(2, 20, 23), (3, 4, 29)], ids=["2d", "3d"],
)
def test_intersection_numbers_match_mixed_volume_oracle_on_rational_sums(dim, count, seed):
    rng = np.random.default_rng(seed)
    for case in range(count):
        pair = _random_rational_pair(rng, dim, big=case % 2 == 1)
        for key in [None] + pair.faces():
            po, pc, index = _face_polytopes(pair, key)
            d = po.dim
            for b in range(d + 1):
                value = intersection_number(pair, key, d - b, b)
                assert value == math.factorial(d) * mixed_volume([po] * (d - b) + [pc] * b) / index
