"""Structural properties of the scalar operator on the cone region.

Each property is exercised on hundreds of rejection-sampled eigenvalue
profiles (log-uniform entries in [1e-2, 1e2], kept when the cone margin
is positive).  Expected behaviours follow from the convexity and
monotonicity structure of the reciprocal-eigenvalue loads; tolerances are
relative 1e-12 with an absolute floor of 1e-14 unless noted.
"""

from __future__ import annotations

import math

import numpy as np
from kernel_oracle import (
    euler_weighted_sum,
    operator_gradient,
    operator_value,
    sample_cone_profiles,
)

from gma.kernel import CoefficientSet, EigenProfile, cone_margin, source_floor

N_SAMPLES = 500


def _cases(rng):
    """A few representative coefficient sets across dimensions."""
    yield CoefficientSet(2, (1.0,)), 1.0
    yield CoefficientSet(3, (0.5, 1.0)), 1.0
    yield CoefficientSet(3, (0.0, 2.0)), 0.7
    yield CoefficientSet(4, (0.3, 0.0, 0.8)), 1.0


def _admissible_source(rng, cs, class_ratio):
    # any value strictly above the floor, here floor + margin .. +1
    fm = source_floor(cs, class_ratio).floor
    return rng.uniform(fm + 1e-9, 1.0)


def test_gradient_all_negative_on_cone_region():
    rng = np.random.default_rng(21)
    for cs, ratio in _cases(rng):
        cs = cs.with_c0(ratio)
        profiles = sample_cone_profiles(rng, cs, 1.0, N_SAMPLES // 4)
        for prof in profiles:
            t = rng.uniform(0.0, 1.0)
            f = _admissible_source(rng, cs, ratio)
            g = operator_gradient(cs, t, f, prof)
            assert all(gi < 0.0 for gi in g)


def test_sorted_dominance_of_weighted_gradient():
    # with lam ascending, -lam_1 dV/dlam_1 >= -lam_i dV/dlam_i for all i
    rng = np.random.default_rng(22)
    for cs, ratio in _cases(rng):
        cs = cs.with_c0(ratio)
        profiles = sample_cone_profiles(rng, cs, 1.0, N_SAMPLES // 4)
        for prof in profiles:
            t = rng.uniform(0.0, 1.0)
            f = _admissible_source(rng, cs, ratio)
            g = operator_gradient(cs, t, f, prof)
            weighted = [-lam_i * gi for lam_i, gi in zip(prof.values, g)]
            lead = weighted[0]
            for w in weighted[1:]:
                assert lead >= w - 1e-12 * abs(lead)


def test_operator_positive_above_source_floor():
    rng = np.random.default_rng(23)
    for cs, ratio in _cases(rng):
        if cs.regime != "PositiveSum":
            continue
        cs = cs.with_c0(ratio)
        profiles = sample_cone_profiles(rng, cs, 1.0, N_SAMPLES // 4)
        for prof in profiles:
            t = rng.uniform(0.0, 1.0)
            f = _admissible_source(rng, cs, ratio)
            assert operator_value(cs, t, f, prof) > 0.0


def test_segment_convexity_of_operator_value():
    # second differences along eigenvalue segments between cone points
    rng = np.random.default_rng(24)
    for cs, ratio in _cases(rng):
        cs = cs.with_c0(ratio)
        profiles = sample_cone_profiles(rng, cs, 1.0, N_SAMPLES // 2)
        for a, b in zip(profiles[0::2], profiles[1::2]):
            t = rng.uniform(0.0, 1.0)
            f = _admissible_source(rng, cs, ratio)
            la = np.array(a.values)
            lb = np.array(b.values)
            s = np.linspace(0.0, 1.0, 9)
            vals = [
                operator_value(cs, t, f, EigenProfile.from_values((1 - si) * la + si * lb))
                for si in s
            ]
            second = np.diff(vals, 2)
            assert np.all(second >= -1e-10 * max(1.0, np.abs(vals).max()))


def test_euler_identity_matches_gradient_contraction():
    rng = np.random.default_rng(25)
    for cs, ratio in _cases(rng):
        cs = cs.with_c0(ratio)
        for _ in range(N_SAMPLES // 4):
            lam = np.sort(10.0 ** rng.uniform(-2, 2, size=cs.n))
            t = rng.uniform(0.0, 1.0)
            f = rng.uniform(-0.5, 1.0)
            g = operator_gradient(cs, t, f, lam)
            contraction = -sum(l * gi for l, gi in zip(lam, g))
            closed = euler_weighted_sum(cs, t, f, lam)
            assert math.isclose(contraction, closed, rel_tol=1e-12, abs_tol=1e-14)


def test_cone_region_closed_under_convex_combination():
    # 500 pairs of cone profiles (same coefficients, background identity):
    # every convex combination of the diagonal matrices stays in the cone
    rng = np.random.default_rng(26)
    for cs, _ in _cases(rng):
        profiles = sample_cone_profiles(rng, cs, 1.0, 2 * (N_SAMPLES // 4))
        for a, b in zip(profiles[0::2], profiles[1::2]):
            la = np.array(a.values)
            lb = np.array(b.values)
            for s in (0.25, 0.5, 0.75):
                mid = EigenProfile.from_values((1 - s) * la + s * lb)
                assert cone_margin(cs, 1.0, mid).satisfied


def test_loads_scale_linearly_in_t():
    rng = np.random.default_rng(27)
    cs = CoefficientSet(3, (0.5, 1.0))
    profiles = sample_cone_profiles(rng, cs, 1.0, 50)
    for prof in profiles:
        full = np.array(cone_margin(cs, 1.0, prof).per_index_load)
        half = np.array(cone_margin(cs, 0.5, prof).per_index_load)
        assert np.allclose(half, 0.5 * full, rtol=1e-12, atol=1e-14)
