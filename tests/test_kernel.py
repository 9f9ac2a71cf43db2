"""Frozen values and oracle equivalences for the eigenvalue algebra."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from kernel_oracle import (
    euler_weighted_sum,
    operator_gradient,
    operator_value,
    restricted_coefficients,
    restriction_identity,
    subset_avoidance_matrix,
    wedge_density_oracle,
)

from gma.kernel import (
    CoefficientSet,
    EigenProfile,
    cone_margin,
    elem_sym,
    elem_sym_all,
    elem_sym_deleted,
    elem_sym_deleted_all,
    elem_sym_table,
    margin_field,
    maclaurin_chain,
    min_avoidance_eigenvalue,
    source_floor,
)

REL = 1e-12
ABS = 1e-14


def _close(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=ABS)


def _conv_elem_syms(lam):
    # oracle: expand prod(1 + t*lam_i) by convolution; coeff of t^k is S_k
    coeffs = np.array([1.0])
    for v in lam:
        coeffs = np.convolve(coeffs, np.array([1.0, v]))
    return coeffs


def binomial_product_identity(n, l, p, q):
    # (lhs, rhs) of C(n,q) C(l,p) C(l-p, l-q) = C(n,p) C(n-p, n-q) C(l,q), exact integers
    return (math.comb(n, q) * math.comb(l, p) * math.comb(l - p, l - q),
            math.comb(n, p) * math.comb(n - p, n - q) * math.comb(l, q))


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

def test_elem_sym_frozen():
    assert elem_sym((1, 2, 3), 2) == 11.0
    assert elem_sym((1, 2, 3), 0) == 1.0
    assert elem_sym((1, 2, 3), 5) == 0.0


def test_elem_sym_deleted_frozen():
    assert elem_sym_deleted((1, 2, 3), 1, 2) == 3.0  # drop the 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_oracles_reject_non_finite_entries_even_at_the_deleted_index(bad):
    row = [bad, 1.0, 2.0]
    for k in range(3):
        with pytest.raises(ValueError, match="non-finite"):
            elem_sym_deleted(row, k, 0)
    with pytest.raises(ValueError, match="non-finite"):
        elem_sym_table(row)


def test_cone_margin_frozen():
    cs = CoefficientSet(2, (1.0,))
    rep = cone_margin(cs, 1.0, (1.0, 1.0))
    assert rep.per_index_load == (0.5, 0.5)
    assert rep.margin == 0.5 and rep.satisfied
    rep = cone_margin(cs, 1.0, (0.4, 1.0))
    assert _close(rep.margin, -0.25) and not rep.satisfied


def test_operator_value_frozen():
    cs = CoefficientSet(2, (1.0,))
    assert _close(operator_value(cs, 1.0, 0.0, (1.0, 1.0)), 1.0)
    assert _close(operator_value(cs, 1.0, 0.0, (2.0, 2.0)), 0.5)
    cs0 = cs.with_c0(1.0)
    assert _close(operator_value(cs0, 0.0, 0.0, (1.0, 1.0)), 1.0)


def test_operator_gradient_frozen():
    cs = CoefficientSet(2, (1.0,))
    g = operator_gradient(cs, 1.0, 0.0, (1.0, 1.0))
    assert _close(g[0], -0.5) and _close(g[1], -0.5)
    # pure top-term case at identity: d(sigma_n)/dlam_i = -1
    cs0 = CoefficientSet(2, (0.0,)).with_c0(1.0)
    g = operator_gradient(cs0, 0.0, 0.0, (1.0, 1.0))
    assert _close(g[0], -1.0) and _close(g[1], -1.0)


def test_euler_weighted_sum_frozen():
    assert _close(euler_weighted_sum(CoefficientSet(2, (1.0,)), 1.0, 0.0, (1, 1)), 1.0)
    assert _close(
        euler_weighted_sum(CoefficientSet(3, (0.0, 1.0)), 1.0, 0.0, (1, 1, 1)), 1.0
    )


def test_avoidance_matrix_frozen():
    assert _close(min_avoidance_eigenvalue(2, 1), 1.0, rel=1e-9)
    M = subset_avoidance_matrix(3, 1)
    assert np.array_equal(M, np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=float))
    assert _close(min_avoidance_eigenvalue(3, 1), 1.0, rel=1e-9)
    assert _close(min_avoidance_eigenvalue(4, 2), 2.0, rel=1e-9)


def test_source_floor_frozen():
    cs = CoefficientSet(2, (1.0,))
    budget = source_floor(cs, 1.0)
    assert budget.floor == -1.0 / 512.0
    assert _close(budget.term_garding, 1.0 / 512.0)
    assert _close(budget.term_quadratic, 1.0 / 8.0)
    assert _close(budget.term_power, 1.0 / 8.0)
    assert _close(budget.term_class_ratio, 1.0 / 4.0)
    assert _close(budget.term_k, 0.99 / 64.0, rel=1e-9)
    # tiny class ratio: the class-ratio term takes over
    assert _close(source_floor(cs, 1e-4).floor, -2.5e-5)


def test_restricted_coefficients_frozen():
    rc = restricted_coefficients(CoefficientSet(3, (1.0, 1.0)), 2)
    assert _close(rc.b[0], 1.0 / 3.0) and _close(rc.b[1], 2.0 / 3.0)
    rc = restricted_coefficients(CoefficientSet(2, (1.0,)), 1)
    assert rc.b == (0.5,)


def test_wedge_density_frozen():
    A = np.diag([1.0, 2.0])
    X = np.eye(2)
    assert _close(wedge_density_oracle(A, X, 1), 1.5)
    assert _close(wedge_density_oracle(A, X, 2), 2.0)
    assert _close(wedge_density_oracle(np.eye(2), np.eye(2), 1), 1.0)


def test_maclaurin_frozen():
    m = maclaurin_chain((1.0, 4.0))
    assert _close(m[0], 2.5) and _close(m[1], 2.0)


def test_binomial_identity_frozen():
    lhs, rhs = binomial_product_identity(5, 3, 1, 2)
    assert lhs == rhs == 60


# ---------------------------------------------------------------------------
# oracle equivalences
# ---------------------------------------------------------------------------

def test_elem_sym_matches_convolution_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        lam = 10.0 ** rng.uniform(-2, 2, size=n)
        coeffs = _conv_elem_syms(lam)
        for k in range(n + 1):
            assert _close(elem_sym(lam, k), coeffs[k])


def test_deleted_recurrence():
    # S_k(lam) = S_{k; i} + lam_i * S_{k-1; i}, every i and k
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        lam = 10.0 ** rng.uniform(-2, 2, size=n)
        for k in range(1, n + 1):
            sk = elem_sym(lam, k)
            for i in range(n):
                rec = elem_sym_deleted(lam, k, i) + lam[i] * elem_sym_deleted(
                    lam, k - 1, i
                )
                assert _close(sk, rec)


def _descending_recurrence(planes, out):
    """The per-k loop the slice updates replace: e_k += v e_{k-1}, k descending."""
    out[0] = 1.0
    for idx, v in enumerate(planes):
        for k in range(idx + 1, 0, -1):
            out[k] += v * out[k - 1]
    return out


def _rowwise_deleted_planes(planes):
    """Each deleted row by its own descending recurrence over the kept planes."""
    out = np.zeros((len(planes),) + planes.shape)
    for i in range(len(planes)):
        _descending_recurrence([v for j, v in enumerate(planes) if j != i], out[i])
    return out


@pytest.mark.parametrize("grid", [(24, 24, 24), (128, 128)])
@pytest.mark.parametrize("n", range(1, 9))
def test_slice_recurrences_equal_the_descending_loops_bit_for_bit(n, grid):
    rng = np.random.default_rng(300 + n)
    lam = rng.uniform(0.5, 2.0, size=grid + (n,)) * 10.0 ** rng.uniform(-4, 4, size=grid + (n,))
    planes = np.moveaxis(lam, -1, 0)
    e_all = _descending_recurrence(planes, np.zeros((n + 1,) + grid))
    assert elem_sym_all(lam).tobytes() == np.moveaxis(e_all, 0, -1).tobytes()
    deleted = _rowwise_deleted_planes(planes)
    assert elem_sym_deleted_all(lam).tobytes() == np.moveaxis(deleted, (0, 1), (-2, -1)).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_elem_sym_table_equals_the_scalar_oracles_bit_for_bit(n):
    rng = np.random.default_rng(200 + n)
    rows = [
        rng.uniform(0.5, 2.0, size=n) * 10.0 ** rng.uniform(-spread, spread, size=n)
        for spread in (2, 8)
    ]
    rows.append(np.arange(1, n + 1) * (-1) ** np.arange(n))
    for row in rows:
        e, deleted = elem_sym_table(row)
        assert len(e) == n + 1 and [len(d) for d in deleted] == [n] * n
        assert e.tolist() == [elem_sym(row, k) for k in range(n + 1)]
        assert deleted.tolist() == [
            [elem_sym_deleted(row, m, i) for m in range(n)] for i in range(n)
        ]


@pytest.mark.parametrize("n", range(1, 9))
def test_batched_elem_sym_table_equals_its_rows_bit_for_bit(n):
    rng = np.random.default_rng(400 + n)
    signs = rng.choice([-1.0, 1.0], size=(12, n))
    rows = signs * rng.uniform(0.5, 2.0, size=(12, n)) * 10.0 ** rng.uniform(-12, 12, size=(12, n))
    rows[-2], rows[-1, 0] = -0.0, 0.0  # zero products and sums, of either sign
    e, deleted = elem_sym_table(rows)
    assert e.shape == (12, n + 1) and deleted.shape == (12, n, n)
    for s, row in enumerate(rows):
        e_row, deleted_row = elem_sym_table(row)
        assert e[s].tobytes() == e_row.tobytes()
        assert deleted[s].tobytes() == deleted_row.tobytes()
        scalar = np.array([elem_sym(row, k) for k in range(n + 1)])
        assert e_row.tobytes() == scalar.tobytes()
        scalar = np.array([[elem_sym_deleted(row, m, i) for m in range(n)] for i in range(n)])
        assert deleted_row.tobytes() == scalar.tobytes()


def test_one_entry_deletes_to_the_empty_product():
    lam = np.array([[0.5], [2.0], [-1.0]])
    assert elem_sym_all(lam).tolist() == [[1.0, 0.5], [1.0, 2.0], [1.0, -1.0]]
    assert elem_sym_deleted_all(lam).tolist() == [[[1.0]]] * 3
    e, deleted = elem_sym_table(lam)
    assert e.tolist() == elem_sym_all(lam).tolist() and deleted.tolist() == [[[1.0]]] * 3
    coeffs = CoefficientSet(1, ())
    assert margin_field(coeffs, 1.0, lam).tolist() == [1.0, 1.0, -np.inf]
    assert [cone_margin(coeffs, 1.0, row).margin for row in lam[:2]] == [1.0, 1.0]


def test_batched_layer_reads_plane_views_and_last_axis_arrays_alike():
    coeffs = CoefficientSet(3, (0.5, 0.3))
    rng = np.random.default_rng(11)
    planes = 10.0 ** rng.uniform(-2.0, 2.0, size=(3, 6, 5))
    planes[1, 0, 0], planes[2, 4, 3] = -0.5, 0.0  # two points off the cone
    view = np.moveaxis(planes, 0, -1)
    last_axis = np.ascontiguousarray(view)
    assert not view.flags.c_contiguous and last_axis.flags.c_contiguous
    for batched in (elem_sym_all, elem_sym_deleted_all, lambda v: margin_field(coeffs, 0.8, v)):
        got, expected = batched(view), batched(last_axis)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    margins = margin_field(coeffs, 0.8, view)
    assert margins[0, 0] == margins[4, 3] == -np.inf
    for idx in np.ndindex(margins.shape):
        if idx not in ((0, 0), (4, 3)):
            report = cone_margin(coeffs, 0.8, view[idx])
            assert abs(margins[idx] - report.margin) <= 1e-13 * max(1.0, *report.per_index_load)


@pytest.mark.parametrize("n", range(1, 7))
def test_batched_layer_matches_enumeration_at_wide_spreads(n):
    # entries u * 10^s, u in [1/2, 2], s uniform in [-k, k]; every sum of
    # positive terms must keep full relative accuracy at any spread
    rng = np.random.default_rng(100 + n)
    c = rng.uniform(0.1, 1.0, size=n - 1)
    c[1::2] = 0.0  # exercise skipped coefficients
    coeffs = CoefficientSet(n, tuple(c))
    t = 0.8
    for k in range(5):
        lam = np.sort(
            rng.uniform(0.5, 2.0, size=(40, n)) * 10.0 ** rng.uniform(-k, k, size=(40, n)),
            axis=-1,
        )
        e_all = elem_sym_all(lam)
        deleted = elem_sym_deleted_all(lam)
        margins = margin_field(coeffs, t, lam)
        assert e_all.shape == (40, n + 1) and deleted.shape == (40, n, n)
        for s, row in enumerate(lam):
            for m in range(n + 1):
                truth = elem_sym(row, m)
                assert abs(e_all[s, m] - truth) <= 1e-13 * truth
            for i in range(n):
                for m in range(n):
                    truth = elem_sym_deleted(row, m, i)
                    assert abs(deleted[s, i, m] - truth) <= 1e-13 * truth
            report = cone_margin(coeffs, t, row)
            scale = max(1.0, max(report.per_index_load))
            assert abs(margins[s] - report.margin) <= 1e-13 * scale


def test_margin_field_reads_minus_inf_off_the_positive_cone():
    coeffs = CoefficientSet(3, (0.5, 0.3))
    t = 0.8
    lam = np.array([[1.1, 2.3, 0.9], [0.0, 1.0, 2.0], [0.7, -0.4, 1.5], [3.0, 0.5, 1.2]])
    off, on = [1, 2], [0, 3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        margins = margin_field(coeffs, t, lam)
        singles = [margin_field(coeffs, t, row) for row in lam]
    assert np.all(margins[off] == -np.inf)
    assert np.array_equal(margins[on], margin_field(coeffs, t, lam[on]))
    for s in on:
        assert abs(margins[s] - cone_margin(coeffs, t, lam[s]).margin) <= 1e-13
        assert singles[s] == margins[s]
    for s in off:
        assert singles[s] == -np.inf


def test_maclaurin_chain_monotone():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        lam = 10.0 ** rng.uniform(-2, 2, size=n)
        chain = maclaurin_chain(lam)
        for a, b in zip(chain, chain[1:]):
            assert b <= a * (1 + 1e-12)


def test_avoidance_matrix_closed_form():
    # independent oracle: entries count zeta-subsets avoiding {i, j}, so the
    # matrix is C(n-1,z) on the diagonal and C(n-2,z) off it; its smallest
    # eigenvalue is C(n-2, z-1)
    for n in range(2, 7):
        for zeta in range(1, n):
            M = subset_avoidance_matrix(n, zeta)
            a = math.comb(n - 1, zeta)
            b = math.comb(n - 2, zeta) if n >= 2 else 0
            expect = b * np.ones((n, n)) + (a - b) * np.eye(n)
            assert np.array_equal(M, expect)
            assert _close(
                min_avoidance_eigenvalue(n, zeta),
                float(math.comb(n - 2, zeta - 1)),
                rel=1e-9,
            )


def test_avoidance_eigenvalue_closed_form_up_to_n_40():
    for n in range(2, 41):
        for zeta in range(1, n):
            assert min_avoidance_eigenvalue(n, zeta) == float(math.comb(n - 2, zeta - 1))
    for n, zeta in [(1, 1), (3, 0), (3, 3)]:
        with pytest.raises(ValueError, match=r"^min_avoidance_eigenvalue: need 1 <= zeta <= n-1$"):
            min_avoidance_eigenvalue(n, zeta)


def test_avoidance_eigenvalue_matches_enumerated_eigvalsh():
    for n in range(2, 11):
        for zeta in range(1, n):
            value = min_avoidance_eigenvalue(n, zeta)
            brute = np.linalg.eigvalsh(subset_avoidance_matrix(n, zeta))[0]
            assert abs(value - brute) <= 1e-12 * value


def _random_spd(rng, n):
    R = rng.normal(size=(n, n))
    return R @ R.T + n * np.eye(n) * 0.1


def test_wedge_density_matches_eigenvalue_route():
    # 200 random positive pairs, n <= 4: the permutation-expansion density
    # equals k!(n-k)!/n! S_k of the generalized eigenvalues
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        A = _random_spd(rng, n)
        X = _random_spd(rng, n)
        lam = scipy.linalg.eigh(A, X, eigvals_only=True)
        for k in range(n + 1):
            via_eigs = (
                math.factorial(k)
                * math.factorial(n - k)
                / math.factorial(n)
                * elem_sym(lam, k)
            )
            assert math.isclose(
                wedge_density_oracle(A, X, k), via_eigs, rel_tol=1e-10, abs_tol=1e-12
            )


def test_operator_value_one_iff_form_identity():
    # solve the form-level identity for the source term via the wedge
    # oracle, then the eigenvalue-route operator value must be exactly 1
    rng = np.random.default_rng(15)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        cs = CoefficientSet(n, tuple(rng.uniform(0, 2, size=n - 1)))
        lam = 10.0 ** rng.uniform(-1, 1, size=n)
        A = np.diag(lam)
        X = np.eye(n)
        f = wedge_density_oracle(A, X, n) - sum(
            cs.c[k - 1] * wedge_density_oracle(A, X, k) for k in range(1, n)
        )
        assert abs(operator_value(cs, 1.0, f, lam) - 1.0) < 1e-12


def test_binomial_identity_sweep():
    # exact-integer sweep over all index combinations up to n = 8
    for n in range(1, 9):
        for l in range(0, n + 1):
            for p in range(0, l + 1):
                for q in range(p, l + 1):
                    lhs, rhs = binomial_product_identity(n, l, p, q)
                    assert lhs == rhs


def test_restriction_identity_sweep():
    for n in range(2, 9):
        for m in range(1, n):
            for j in range(0, m):
                k = j + n - m
                if not (1 <= k <= n - 1):
                    continue
                for p in range(0, j + 1):
                    lhs, rhs = restriction_identity(n, m, j, p)
                    assert lhs == rhs


def test_restriction_coefficients_match_identity_chain():
    # b_j recomputed from the cross-multiplied identity agrees with the
    # direct formula for a generic coefficient set
    rng = np.random.default_rng(16)
    for n in range(3, 7):
        cs = CoefficientSet(n, tuple(rng.uniform(0.1, 3.0, size=n - 1)))
        for m in range(1, n):
            rc = restricted_coefficients(cs, m)
            for j in range(m):
                k = j + n - m
                if not (1 <= k <= n - 1):
                    continue
                direct = cs.c[k - 1] * math.comb(k, n - m) / math.comb(n, m)
                assert _close(rc.b[j], direct)


# ---------------------------------------------------------------------------
# validation guards
# ---------------------------------------------------------------------------

def test_eigen_profile_guards():
    with pytest.raises(ValueError):
        EigenProfile((2.0, 1.0))
    with pytest.raises(ValueError):
        EigenProfile((0.0, 1.0))
    with pytest.raises(ValueError):
        EigenProfile((float("nan"), 1.0))
    prof = EigenProfile.from_values([3.0, 1.0, 2.0])
    assert prof.values == (1.0, 2.0, 3.0)


def test_coefficient_set_guards():
    with pytest.raises(ValueError):
        CoefficientSet(3, (1.0,))  # wrong length
    with pytest.raises(ValueError):
        CoefficientSet(2, (-1.0,))
    cs = CoefficientSet(4, (0.0, 2.0, 0.0))
    assert cs.zeta == 2 and cs.regime == "PositiveSum"
    assert CoefficientSet(3, (0.0, 0.0)).regime == "AllZeroPositiveF"


def test_operator_requires_c0_before_endpoint():
    cs = CoefficientSet(2, (1.0,))
    with pytest.raises(ValueError):
        operator_value(cs, 0.5, 0.0, (1.0, 1.0))


def test_wedge_density_guards():
    with pytest.raises(ValueError):
        wedge_density_oracle(np.eye(5), np.eye(5), 1)
    with pytest.raises(ValueError):
        wedge_density_oracle(np.eye(2), -np.eye(2), 1)
