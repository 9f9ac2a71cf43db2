import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from gma import psh
from gma.kernel import CoefficientSet, margin_field
from gma.psh import (
    Box,
    RadialMollifier,
    SingularPotential,
    ball_sup,
    check_degenerate_cone,
    check_uniform_cone,
    compute_cn,
    expected_abs_difference,
    glue_potentials,
    lelong_level,
    mollify,
    regularized_max,
    shifted_cone_epsilon,
    sphere_area,
)
from gma.solver import (
    TorusGeometry,
    cone_margin_field,
    form_eigenvalues,
    potential_hessian,
    trig_polynomial,
)

BOX = Box((-1.0, -1.0), (1.0, 1.0))
PI2 = math.pi**2
KAPPA = expected_abs_difference(0.0) / 2.0  # the equal-argument shift of regularized_max


def _smooth(fn):
    return SingularPotential(0.0, (0.0, 0.0), fn, BOX)


# ---------------------------------------------------------------------------
# mollifier kernels
# ---------------------------------------------------------------------------

def test_sphere_area_closed_forms():
    assert sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert sphere_area(3) == pytest.approx(math.pi**3, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("maker", ["polynomial", "constant"])
def test_mollifier_normalization(n, maker):
    kernel = getattr(RadialMollifier, maker)(n)
    assert kernel.normalization_defect <= 1e-8


def test_mollifier_rejects_bad_dimension():
    with pytest.raises(ValueError):
        RadialMollifier(lambda t: t, 0)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def test_mollify_constant_potential():
    kernel = RadialMollifier.polynomial(1)
    phi = _smooth(lambda p: 7.0 + 0.0 * p[..., 0])
    for delta, x in [(0.1, (0.0, 0.0)), (0.4, (0.3, -0.2))]:
        assert mollify(phi, kernel, delta, x) == pytest.approx(7.0, abs=1e-12)


def test_mollify_linear_potential_exact():
    kernel = RadialMollifier.polynomial(1)
    phi = _smooth(lambda p: 3.0 * p[..., 0] + 2.0 * p[..., 1] - 1.0)
    x = (0.25, -0.1)
    assert mollify(phi, kernel, 0.3, x) == pytest.approx(
        3.0 * x[0] + 2.0 * x[1] - 1.0, abs=1e-12
    )


def test_mollify_quadratic_radial_oracle():
    kernel = RadialMollifier.polynomial(1)
    phi = _smooth(lambda p: np.sum(p * p, axis=-1))
    delta = 0.3
    moment, _ = scipy.integrate.quad(lambda t: kernel.rho(t) * t**3, 0.0, 1.0)
    expected = delta**2 * 2.0 * math.pi * moment
    assert mollify(phi, kernel, delta, (0.0, 0.0)) == pytest.approx(expected, rel=1e-12)


def test_mollify_log_mean_value_matches_quadrature():
    # the semi-analytic branch (harmonic mean-value identity) against the
    # same potential fed through the smooth-part quadrature path
    kernel = RadialMollifier.polynomial(1)
    gamma, center, x, delta = 0.7, (0.2, 0.1), (0.7, 0.1), 0.2
    singular = SingularPotential(gamma, center, None, BOX)
    exact = mollify(singular, kernel, delta, x)
    w = math.hypot(x[0] - center[0], x[1] - center[1])
    assert exact == pytest.approx(gamma * 2.0 * math.log(w), rel=1e-14)

    as_smooth = _smooth(
        lambda p: gamma * np.log(np.sum((p - np.asarray(center)) ** 2, axis=-1))
    )
    assert mollify(as_smooth, kernel, delta, x) == pytest.approx(exact, abs=1e-10)


def test_mollify_log_at_singularity_constant_kernel_closed_form():
    # constant kernel: 2 pi int_0^1 (1/pi) t * 2 log(delta t) dt = 2 log(delta) - 1
    kernel = RadialMollifier.constant(1)
    gamma, delta = 0.7, 0.25
    phi = SingularPotential(gamma, (0.0, 0.0), None, BOX)
    value = mollify(phi, kernel, delta, (0.0, 0.0))
    assert value == pytest.approx(gamma * (2.0 * math.log(delta) - 1.0), rel=1e-10)


def test_mollify_log_near_singularity_constant_kernel_closed_form():
    # 0 < w < delta: head + tail integrals collapse to
    # gamma * (2 log(delta) - 1 + (w/delta)^2)
    kernel = RadialMollifier.constant(1)
    gamma, delta = 0.7, 0.25
    w = 0.1
    phi = SingularPotential(gamma, (0.0, 0.0), None, BOX)
    value = mollify(phi, kernel, delta, (w, 0.0))
    expected = gamma * (2.0 * math.log(delta) - 1.0 + (w / delta) ** 2)
    assert value == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.999])
def test_mollify_log_near_singularity_polynomial_kernel_quadrature(ratio):
    # 0 <= w < delta with the polynomial kernel: the exact moment sums
    # against adaptive quadrature of the same split radial integral
    kernel = RadialMollifier.polynomial(1)
    gamma, delta = 0.7, 0.25
    w = ratio * delta
    phi = SingularPotential(gamma, (0.0, 0.0), None, BOX)
    head = 0.0
    if w > 0.0:
        mass, _ = scipy.integrate.quad(
            lambda t: kernel.rho(t) * t, 0.0, ratio, epsabs=1e-14, epsrel=1e-13
        )
        head = mass * 2.0 * math.log(w)
    tail, _ = scipy.integrate.quad(
        lambda t: kernel.rho(t) * t * 2.0 * math.log(delta * t), ratio, 1.0,
        epsabs=1e-14, epsrel=1e-13,
    )
    expected = gamma * 2.0 * math.pi * (head + tail)
    assert mollify(phi, kernel, delta, (w, 0.0)) == pytest.approx(expected, rel=1e-12)


def test_mollify_domain_and_delta_guards():
    kernel = RadialMollifier.polynomial(1)
    phi = _smooth(lambda p: 0.0 * p[..., 0])
    with pytest.raises(ValueError):
        mollify(phi, kernel, 0.5, (0.9, 0.0))
    with pytest.raises(ValueError):
        mollify(phi, kernel, -0.1, (0.0, 0.0))
    with pytest.raises(ValueError):
        mollify(phi, RadialMollifier.polynomial(2), 0.1, (0.0, 0.0))


# ---------------------------------------------------------------------------
# ball suprema and logarithmic slopes
# ---------------------------------------------------------------------------

def test_ball_sup_pure_log_exact():
    phi = SingularPotential(0.7, (0.1, -0.2), None, BOX)
    x, radius = (0.3, 0.1), 0.15
    w = math.hypot(x[0] - 0.1, x[1] + 0.2)
    assert ball_sup(phi, x, radius) == 0.7 * 2.0 * math.log(w + radius)


def test_ball_sup_guards():
    phi = SingularPotential(0.7, (0.0, 0.0), None, BOX)
    with pytest.raises(ValueError):
        ball_sup(phi, (0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        ball_sup(phi, (0.95, 0.0), 0.2)


def test_lelong_pure_log_is_twice_gamma():
    gamma, r = 0.7, 0.4
    phi = SingularPotential(gamma, (0.0, 0.0), None, BOX)
    result = lelong_level(phi, (0.0, 0.0), [r / 8, r / 16, r / 32], r)
    for nu in result.nu_at_delta:
        assert nu == pytest.approx(2.0 * gamma, abs=1e-12)
    assert result.extrapolated == pytest.approx(2.0 * gamma, abs=1e-12)


def test_lelong_scales_linearly_in_gamma():
    r = 0.4
    one = lelong_level(SingularPotential(1.0, (0.0, 0.0), None, BOX),
                       (0.0, 0.0), [r / 16], r)
    beta = lelong_level(SingularPotential(0.3, (0.0, 0.0), None, BOX),
                        (0.0, 0.0), [r / 16], r)
    assert beta.nu_at_delta[0] == pytest.approx(0.3 * one.nu_at_delta[0], rel=1e-12)


def test_lelong_additive_for_log_plus_radial_smooth():
    gamma, r = 0.5, 0.4
    deltas = [r / 8, r / 16, r / 32]
    bump = lambda p: 0.3 * np.sum(p * p, axis=-1)
    combined = lelong_level(
        SingularPotential(gamma, (0.0, 0.0), bump, BOX), (0.0, 0.0), deltas, r
    )
    log_only = lelong_level(
        SingularPotential(gamma, (0.0, 0.0), None, BOX), (0.0, 0.0), deltas, r
    )
    smooth_only = lelong_level(_smooth(bump), (0.0, 0.0), deltas, r)
    for a, b, c in zip(combined.nu_at_delta, log_only.nu_at_delta,
                       smooth_only.nu_at_delta):
        assert a == pytest.approx(b + c, abs=1e-9)


def test_lelong_monotone_in_delta():
    r = 0.4
    phi = SingularPotential(0.5, (0.0, 0.0),
                            lambda p: 0.3 * np.sum(p * p, axis=-1), BOX)
    result = lelong_level(phi, (0.0, 0.0), [r / 32, r / 16, r / 8], r)
    nus = result.nu_at_delta
    assert all(nus[i] <= nus[i + 1] + 1e-12 for i in range(len(nus) - 1))


def test_lelong_smooth_potential_vanishes():
    r = 0.2
    phi = _smooth(lambda p: np.sum(p * p, axis=-1))
    result = lelong_level(phi, (0.0, 0.0), [1e-3 * r], r)
    assert 0.0 <= result.extrapolated <= 1e-3


def test_lelong_guards():
    phi = SingularPotential(0.5, (0.0, 0.0), None, BOX)
    with pytest.raises(ValueError):
        lelong_level(phi, (0.0, 0.0), [], 0.4)
    with pytest.raises(ValueError):
        lelong_level(phi, (0.0, 0.0), [0.1], 0.4)  # 0.1 = r/4 exactly
    with pytest.raises(ValueError):
        lelong_level(phi, (0.0, 0.0), [-0.01], 0.4)


# ---------------------------------------------------------------------------
# the constant c_n
# ---------------------------------------------------------------------------

def test_cn_constant_kernel_closed_form():
    assert compute_cn(RadialMollifier.constant(1)) == pytest.approx(4.0 / 13.0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cn_positive(n):
    assert compute_cn(RadialMollifier.polynomial(n)) > 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cn_polynomial_kernel_symbolic_oracle(n):
    # rho = c (1-t^2)^3 = c sum_j b_j t^{2j}; with int_0^1 t^m log(1/t) dt
    # = 1/(m+1)^2 both moments have closed forms.
    binom = [1.0, -3.0, 3.0, -1.0]
    area = sphere_area(n)
    mass = sum(b / (2 * j + 2 * n) for j, b in enumerate(binom))
    scale = 1.0 / (area * mass)
    log_moment = scale * sum(b / (2 * j + 2 * n) ** 2 for j, b in enumerate(binom))
    expected = 2.0 / (area * log_moment + 3.0 ** (2 * n - 1) / 2.0 ** (2 * n - 3))
    assert compute_cn(RadialMollifier.polynomial(n)) == pytest.approx(expected, rel=1e-10)


def test_cn_rejects_unnormalized_kernel():
    bad = RadialMollifier((1.0,), 2)
    assert bad.normalization_defect > 1e-6
    with pytest.raises(ValueError):
        compute_cn(bad)


# ---------------------------------------------------------------------------
# regularized maximum
# ---------------------------------------------------------------------------

def test_expected_abs_difference_frozen_rationals():
    # exact rational values of E|d+s-t| for the shipped kernel, computed
    # once with exact symbolic integration and frozen here
    assert expected_abs_difference(0.0) == pytest.approx(50.0 / 231.0, abs=1e-14)
    assert expected_abs_difference(0.25) == pytest.approx(
        48534247.0 / 161480704.0, abs=1e-14
    )
    assert expected_abs_difference(0.5) == pytest.approx(
        119419.0 / 236544.0, abs=1e-14
    )
    assert expected_abs_difference(0.75) == pytest.approx(
        363360055.0 / 484442112.0, abs=1e-14
    )
    assert expected_abs_difference(-0.25) == expected_abs_difference(0.25)
    assert expected_abs_difference(1.0) == 1.0
    assert expected_abs_difference(-3.5) == 3.5


def test_kappa_is_25_over_231():
    assert KAPPA == pytest.approx(25.0 / 231.0, abs=1e-15)


def _theta(s):
    return (15.0 / 8.0) * (1.0 - 4.0 * s * s) ** 2


def _abs_difference_quadrature(d):
    # E|d + s - t| by nested adaptive quadrature, the inner one split at
    # the kink t = d + s and the outer one where that kink leaves [-1/2, 1/2]
    def inner(s):
        kink = [d + s] if d + s < 0.5 else None
        value, _ = scipy.integrate.quad(
            lambda t: abs(d + s - t) * _theta(t), -0.5, 0.5,
            points=kink, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        return value * _theta(s)

    value, _ = scipy.integrate.quad(
        inner, -0.5, 0.5, points=[0.5 - d] if d > 0.0 else None,
        epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return value


@pytest.mark.parametrize("d", np.linspace(0.0, 0.999, 12).tolist())
def test_expected_abs_difference_matches_quadrature_oracle(d):
    assert expected_abs_difference(d) == pytest.approx(
        _abs_difference_quadrature(d), rel=1e-13, abs=0.0
    )


def test_expected_abs_difference_meets_abs_twice_differentiably():
    # summed exactly from the shipped float coefficients: I(1) = 1,
    # I'(1) = 1 and I''(1) = 0, so the switch to max is C^2.  Each sum is
    # held to 1e-15 of the size of its terms: the rounding of the
    # coefficients alone leaves I''(1) at -2.8e-15 against terms of size 160.
    coeffs = [Fraction(c) for c in psh._ABS_DIFFERENCE]
    assert len(coeffs) == 12
    for weight, target in [(lambda k: 1, 1), (lambda k: k, 1), (lambda k: k * (k - 1), 0)]:
        terms = [weight(k) * c for k, c in enumerate(coeffs)]
        assert abs(sum(terms) - target) <= 1e-15 * sum(abs(x) for x in terms)


def test_regularized_max_exact_outside_band():
    assert regularized_max((5.0, 1.0), 1.0) == 5.0
    assert regularized_max((1.0, 5.0), 1.0) == 5.0
    assert regularized_max((-2.0, -2.0 + 1e-9), 1e-9) == -2.0 + 1e-9


def test_regularized_max_equal_arguments_shift():
    for a, eta in [(0.0, 1.0), (3.0, 0.5), (-1.7, 2.0)]:
        assert regularized_max((a, a), eta) == pytest.approx(
            a + KAPPA * eta, rel=1e-14, abs=1e-14
        )


def test_regularized_max_dominates_max_and_is_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        eta = rng.uniform(0.05, 1.5)
        out = regularized_max((a, b), eta)
        assert out >= max(a, b)
        assert out == regularized_max((b, a), eta)


def test_regularized_max_monotone_across_band():
    eta = 1.0
    grid = np.arange(-1.5, 1.5 + 1e-12, 0.01)
    values = [regularized_max((a, 0.0), eta) for a in grid]
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-12)


def test_regularized_max_lists_and_guards():
    assert regularized_max([3.25], 1.0) == 3.25
    assert regularized_max([1.0, 2.0, 5.0], 1.0) == 5.0
    with pytest.raises(ValueError):
        regularized_max((1.0, 2.0), 0.0)
    with pytest.raises(ValueError):
        regularized_max([], 1.0)


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

def _geom2(m=32):
    return TorusGeometry(2, (m, m), np.eye(2), np.eye(2))


def test_glue_offset_dominance_is_bitwise_local():
    geom = TorusGeometry(1, (64,), np.eye(1), np.eye(1))
    coeffs = CoefficientSet(1, ())
    u = trig_polynomial((64,), 0.0, [{"amplitude": 0.1, "wave": (1,)}])
    v = np.full(64, 0.05)
    report = glue_potentials(geom, coeffs, 1.0, u, v, eta=1e-6, offset=10.0)
    assert np.array_equal(report.glued, u + 10.0)
    assert report.local_points == 64
    assert report.blend_points == 0


def test_glue_disjoint_dominance_exact_switch():
    geom = TorusGeometry(1, (64,), np.eye(1), np.eye(1), scheme="fd")
    coeffs = CoefficientSet(1, ())
    u = trig_polynomial((64,), 0.0, [{"amplitude": 0.1, "wave": (1,)}])
    v = np.full(64, 0.05)
    report = glue_potentials(geom, coeffs, 1.0, u, v, eta=1e-6, offset=0.0)
    assert report.blend_points == 0
    assert np.array_equal(report.glued, np.maximum(u, v))
    assert report.local_points + report.global_points == 64
    assert report.glued_min_margin == 1.0  # no lower-order coefficients


def test_glue_preserves_cone_margin():
    # margins 0.3 and 0.4 exactly (extrema on grid points); eta chosen so
    # the collar is resolved by the grid yet stays clear of the
    # margin-minimum line x = 0, whose stencil sees only the local input
    geom = _geom2(64)
    coeffs = CoefficientSet(2, (1.0,))
    u = trig_polynomial(geom.grid_shape, 0.0,
                        [{"amplitude": 2.0 / (7.0 * PI2), "wave": (1, 0)}])
    v = trig_polynomial(geom.grid_shape, 0.0,
                        [{"amplitude": 1.0 / (6.0 * PI2), "wave": (0, 1)}])
    assert cone_margin_field(geom, coeffs, 1.0, u).min_margin == pytest.approx(0.3, rel=1e-12)
    assert cone_margin_field(geom, coeffs, 1.0, v).min_margin == pytest.approx(0.4, rel=1e-12)

    eta = 0.01
    report = glue_potentials(replace(geom, scheme="fd"), coeffs, 1.0, u, v, eta=eta, offset=0.0)
    assert report.blend_points > 0
    assert not report.margin_conflict
    assert report.glued_min_margin >= 0.3 - 1e-8

    a, b = u + 0.0, v
    local_mask = a - b >= eta
    global_mask = b - a >= eta
    assert np.array_equal(report.glued[local_mask], a[local_mask])
    assert np.array_equal(report.glued[global_mask], b[global_mask])


def test_glue_collar_matches_scalar_regularized_max_bitwise():
    geom = _geom2(32)
    coeffs = CoefficientSet(2, (1.0,))
    u = trig_polynomial(geom.grid_shape, 0.0,
                        [{"amplitude": 0.02, "wave": (1, 0)}])
    v = trig_polynomial(geom.grid_shape, 0.0,
                        [{"amplitude": 0.02, "wave": (0, 1), "phase": 0.3}])
    eta, offset = 0.015, 0.001
    report = glue_potentials(geom, coeffs, 1.0, u, v, eta=eta, offset=offset)
    assert report.blend_points > 0
    assert report.local_points > 0 and report.global_points > 0
    a = u + offset
    expect = np.array([regularized_max([x, y], eta) for x, y in zip(a.ravel(), v.ravel())])
    assert np.array_equal(report.glued.ravel(), expect)


def test_glue_reports_margin_conflict():
    geom = _geom2(16)
    coeffs = CoefficientSet(2, (1.0,))
    u = trig_polynomial(geom.grid_shape, 0.0,
                        [{"amplitude": 0.6 / PI2, "wave": (1, 0)}])
    assert cone_margin_field(geom, coeffs, 1.0, u).min_margin < 0.0
    report = glue_potentials(geom, coeffs, 1.0, u, u.copy(), eta=5.0, offset=0.0)
    assert report.blend_points == geom.npoints
    assert report.margin_conflict


def test_glue_guards():
    geom = _geom2(16)
    coeffs = CoefficientSet(2, (1.0,))
    flat = np.zeros(geom.grid_shape)
    with pytest.raises(ValueError):
        glue_potentials(geom, coeffs, 1.0, flat, flat, eta=0.0, offset=0.0)
    with pytest.raises(ValueError):
        glue_potentials(geom, coeffs, 1.0, np.zeros((8, 8)), flat, eta=0.1, offset=0.0)


# ---------------------------------------------------------------------------
# uniform / degenerate cone checks
# ---------------------------------------------------------------------------

def test_uniform_cone_jensen_stability():
    geom = _geom2(32)
    coeffs = CoefficientSet(2, (1.0,))
    phi = trig_polynomial(geom.grid_shape, 0.0,
                          [{"amplitude": 2.0 / (7.0 * PI2), "wave": (1, 0)}])
    report = check_uniform_cone(
        geom, coeffs, 1.0, phi, epsilon=0.29,
        delta_list=[0.05, 0.1, 0.2], chi0_scalings=[1.0, 0.9, 0.5],
    )
    assert report.passed
    assert report.verdict == "no violation found in checked range"
    assert len(report.rows) == 9
    for row in report.rows:
        assert row["min_margin"] >= 0.3 - 1e-10


def test_uniform_cone_trivial_when_no_lower_terms():
    geom = _geom2(16)
    coeffs = CoefficientSet(2, (0.0,))
    phi = trig_polynomial(geom.grid_shape, 0.0,
                          [{"amplitude": 0.05, "wave": (1, 1)}])
    report = check_uniform_cone(geom, coeffs, 1.0, phi, 0.99, [0.1])
    assert report.passed
    assert report.worst_margin == pytest.approx(1.0, abs=1e-12)


def test_uniform_cone_detects_violation():
    geom = _geom2(32)
    coeffs = CoefficientSet(2, (1.0,))
    phi = trig_polynomial(geom.grid_shape, 0.0,
                          [{"amplitude": 2.0 / (7.0 * PI2), "wave": (1, 0)}])
    report = check_uniform_cone(geom, coeffs, 1.0, phi, 0.5, [0.05])
    assert not report.passed
    assert report.verdict == "violation found"


def test_shifted_cone_constant_instance():
    coeffs = CoefficientSet(2, (1.0,))
    shifted = shifted_cone_epsilon(coeffs, beta=0.1, chi_bound=1.0)
    assert shifted.gamma == pytest.approx(0.1)
    assert shifted.c_prime == pytest.approx(10.0, rel=1e-14)
    assert shifted.epsilon == pytest.approx(0.1, rel=1e-14)
    with pytest.raises(ValueError):
        shifted_cone_epsilon(coeffs, beta=0.0, chi_bound=1.0)


def test_shifted_field_passes_uniform_check():
    # borderline field (margin exactly 0) shifted by 2*gamma*chi clears the
    # guaranteed epsilon with room to spare
    geom = TorusGeometry(2, (16, 16), np.eye(2), 0.5 * np.eye(2))
    coeffs = CoefficientSet(2, (1.0,))
    shifted = shifted_cone_epsilon(coeffs, beta=0.1, chi_bound=1.0)
    base = check_uniform_cone(geom, coeffs, 1.0, np.zeros(geom.grid_shape),
                              shifted.epsilon, [0.1])
    assert not base.passed
    assert base.worst_margin == pytest.approx(0.0, abs=1e-12)
    lifted = check_uniform_cone(geom, coeffs, 1.0, np.zeros(geom.grid_shape),
                                shifted.epsilon, [0.1], mu=2.0 * shifted.gamma)
    assert lifted.passed
    assert lifted.worst_margin == pytest.approx(1.0 - 0.5 / 0.7, rel=1e-12)


def test_degenerate_cone_pairs():
    geom = TorusGeometry(2, (16, 16), np.eye(2), 0.5 * np.eye(2))
    coeffs = CoefficientSet(2, (1.0,))
    reports = check_degenerate_cone(
        geom, coeffs, 1.0, np.zeros(geom.grid_shape),
        pairs=[(0.1, 0.2), (0.25, 0.5)], delta_list=[0.1, 0.05],
    )
    assert len(reports) == 2
    assert all(r.passed for r in reports)
    assert reports[1].worst_margin == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        check_degenerate_cone(geom, coeffs, 1.0, np.zeros(geom.grid_shape),
                              pairs=[(0.1, -0.2)], delta_list=[0.1])


def test_uniform_cone_guards():
    geom = _geom2(16)
    coeffs = CoefficientSet(2, (1.0,))
    flat = np.zeros(geom.grid_shape)
    with pytest.raises(ValueError):
        check_uniform_cone(geom, coeffs, 1.0, flat, 0.1, [])
    with pytest.raises(ValueError):
        check_uniform_cone(geom, coeffs, 1.0, flat, 0.1, [0.1], chi0_scalings=[1.5])
    with pytest.raises(ValueError):
        check_uniform_cone(geom, coeffs, 1.0, flat, 1.0, [0.1])
    with pytest.raises(ValueError):
        check_uniform_cone(geom, coeffs, 1.0, np.zeros((4, 4)), 0.1, [0.1])


def test_uniform_cone_accepts_hessian_field_input():
    geom = _geom2(16)
    coeffs = CoefficientSet(2, (1.0,))
    omega = np.broadcast_to(geom.omega0, geom.grid_shape + (2, 2)).copy()
    report = check_uniform_cone(geom, coeffs, 1.0, omega, 0.4, [0.1])
    assert report.passed
    assert report.worst_margin == pytest.approx(0.5, rel=1e-12)


def test_uniform_cone_off_the_positive_cone():
    # lam_x = 1 - 8 cos 2 pi x before smoothing: the smoothed form is not
    # positive, so no load is evaluated and no grid point is named
    geom = _geom2(32)
    coeffs = CoefficientSet(2, (1.0,))
    phi = trig_polynomial(geom.grid_shape, 0.0, [{"amplitude": 8.0 / PI2, "wave": (1, 0)}])
    report = check_uniform_cone(geom, coeffs, 1.0, phi, 0.0, [0.05])
    (row,) = report.rows
    assert row["min_margin"] == -math.inf
    assert row["argmin"] is None
    assert report.passed is False
    assert report.verdict == "violation found"


def _uniform_cone_rows_oracle(geom, coeffs, t, field, deltas, scalings, mu):
    """(min_margin, argmin) per row by entrywise complex FFT convolution of
    omega0 + mu chi + (1/4) Hess(phi), or of a given form field + mu chi."""
    field = np.asarray(field, dtype=float)
    if field.shape == geom.grid_shape:
        field = geom.omega0 + 0.25 * potential_hessian(geom, field)
    omega = field + mu * geom.chi
    rho = RadialMollifier.polynomial(1).rho
    dist = [np.minimum(np.arange(m) / m, 1.0 - np.arange(m) / m) for m in geom.grid_shape]
    r = np.sqrt(sum(g * g for g in np.meshgrid(*dist, indexing="ij")))
    rows = []
    for delta in deltas:
        w = np.where(r <= delta, rho(np.minimum(r / delta, 1.0)), 0.0)
        w_hat = np.fft.fftn(w / w.sum())
        smooth = np.empty_like(omega)
        for i in range(geom.n):
            for j in range(geom.n):
                smooth[..., i, j] = np.fft.ifftn(np.fft.fftn(omega[..., i, j]) * w_hat).real
        lam = form_eigenvalues(geom, 0.5 * (smooth + np.swapaxes(smooth, -1, -2)))
        assert lam[..., 0].min() > 0.0
        for s in scalings:
            margins = margin_field(coeffs, t, lam / s)
            argmin = np.unravel_index(np.argmin(margins), margins.shape)
            rows.append((float(margins[argmin]), tuple(int(i) for i in argmin)))
    return rows


@pytest.mark.parametrize("shape", [(16, 16), (8, 10, 12)])
@pytest.mark.parametrize(
    "kind, scheme", [("potential", "spectral"), ("potential", "fd"), ("form", "spectral")]
)
@pytest.mark.parametrize("mu", [0.0, 0.3])
def test_uniform_cone_matches_entrywise_convolution(shape, scheme, kind, mu):
    n = len(shape)
    rng = np.random.default_rng(7 * n + (kind == "form"))
    a = rng.standard_normal((n, n))
    chi = a @ a.T + n * np.eye(n)
    b = rng.standard_normal((n, n))
    omega0 = b @ b.T + 2.0 * n * np.eye(n)
    geom = TorusGeometry(n, shape, chi, omega0, scheme)
    coeffs = CoefficientSet(n, (0.5,) * (n - 1))
    if kind == "potential":
        field = 2e-3 * rng.standard_normal(shape)
    else:
        noise = 0.2 * rng.standard_normal(shape + (n, n))
        field = omega0 + noise + np.swapaxes(noise, -1, -2)
    deltas, scalings = (0.1, 0.25), (1.0, 0.7)
    report = check_uniform_cone(geom, coeffs, 1.0, field, 0.0, deltas, scalings, mu=mu)
    expected = _uniform_cone_rows_oracle(geom, coeffs, 1.0, field, deltas, scalings, mu)
    assert len(report.rows) == len(expected)
    for row, (margin, argmin) in zip(report.rows, expected):
        assert row["min_margin"] == pytest.approx(margin, abs=1e-12)
        assert row["argmin"] == argmin
