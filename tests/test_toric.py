from fractions import Fraction

import numpy as np
import pytest

from gma.exceptions import FanMismatchError
from gma.toric import (
    ClassPolytopePair,
    RationalPolytope,
    check_criterion,
    intersection_number,
    jequation_constant,
    minkowski_sum,
    mixed_volume,
    scale_polytope,
    translate_polytope,
    volume,
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


def test_degenerate_chi_facet_rejected():
    # chi = H - E collapses the exceptional edge to a point
    with pytest.raises(ValueError):
        RationalPolytope([(0, 1), (1, 0)])


def test_intersection_numbers_projective_plane():
    unit = ClassPolytopePair(triangle(), triangle())
    assert intersection_number(unit, None, 2, 0) == F(1)
    edge = unit.faces()[0][1].active
    assert intersection_number(unit, edge, 1, 0) == F(1)

    pair = p2_pair()
    assert intersection_number(pair, None, 2, 0) == F(4)
    assert intersection_number(pair, None, 1, 1) == F(2)
    edge = pair.faces()[0][1].active
    assert intersection_number(pair, edge, 1, 0) == F(2)
    assert intersection_number(pair, edge, 0, 1) == F(1)
    with pytest.raises(ValueError):
        intersection_number(pair, edge, 2, 0)


def test_intersection_numbers_projective_space():
    pair = ClassPolytopePair(scale_polytope(simplex3(), 2), simplex3())
    assert intersection_number(pair, None, 3, 0) == F(8)
    assert intersection_number(pair, None, 1, 2) == F(2)
    facet = next(f for _, f, _ in pair.faces() if f.codim == 1)
    edge = next(f for _, f, _ in pair.faces() if f.codim == 2)
    assert intersection_number(pair, facet.active, 2, 0) == F(4)
    assert intersection_number(pair, facet.active, 1, 1) == F(2)
    assert intersection_number(pair, facet.active, 0, 2) == F(1)
    assert intersection_number(pair, edge.active, 1, 0) == F(2)
    assert intersection_number(pair, edge.active, 0, 1) == F(1)


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
