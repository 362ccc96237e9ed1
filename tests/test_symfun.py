"""Elementary symmetric functions: worked values, algebraic laws, oracles."""

import itertools
import math
import numbers
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcone import InvalidInputError, sigma
from symcone import symfun
from symcone.symfun import batch_coeffs, batch_excl1_table, batch_excl2_table, order

from oracles import in_gamma, sigma_enum, sigma_fsum

RTOL = 1e-10


def close(a, b, tol=RTOL):
    return abs(a - b) <= tol * (1.0 + abs(a) + abs(b))


def reduced_sigma(k, kappa, excl):
    """sigma_k(kappa|S) for the 1-based positions S: `sigma` on the reduced vector."""
    return sigma(k, np.delete(np.asarray(kappa, dtype=float), [j - 1 for j in excl]))


def table(kappa):
    """sigma_0..sigma_n of one vector, as a tuple: one row of `batch_coeffs`."""
    return tuple(batch_coeffs(np.asarray(kappa, dtype=float)[None, :])[0].tolist())


def d1(k, kappa, p):
    """d sigma_k / d kappa_p = sigma_{k-1}(kappa|p), read from the single-exclusion table."""
    return float(order(batch_excl1_table(np.asarray(kappa, dtype=float)[None, :]), k - 1)[0, p - 1])


def d2(k, kappa, p, q):
    """d^2 sigma_k / d kappa_p d kappa_q, read from the pair table (zero diagonal)."""
    return float(batch_excl2_table(np.asarray(kappa, dtype=float)[None, :], (k - 2,))[k - 2][0, p - 1, q - 1])


# ---------------------------------------------------------------------------
# Worked values.
# ---------------------------------------------------------------------------


class TestSigma:
    def test_all_ones(self):
        assert sigma(2, (1, 1, 1)) == 3.0

    def test_degree_above_n_is_zero(self):
        assert sigma(4, (1, 1, 1)) == 0.0

    def test_mixed_entries(self):
        assert sigma(2, (1, 2, 3)) == 11.0

    def test_degree_zero_is_one(self):
        assert sigma(0, (5, -2)) == 1.0

    def test_negative_degree_is_zero(self):
        assert sigma(-1, (1, 2)) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            sigma(1, (1.0, math.nan))
        with pytest.raises(InvalidInputError):
            sigma(1, (math.inf, 1.0))


class TestSigmaAll:
    def test_two_entries(self):
        assert table((1, 2)) == (1.0, 3.0, 2.0)

    def test_zero_vector(self):
        assert table((0, 0, 0)) == (1.0, 0.0, 0.0, 0.0)

    def test_cancelling_pair(self):
        assert table((1, -1)) == (1.0, 0.0, -1.0)

    def test_table_conventions(self):
        kappa = (2.0, 3.0, 4.0)
        t = table(kappa)
        assert t[0] == 1.0
        assert sigma(17, kappa) == 0.0
        assert sigma(-1, kappa) == 0.0
        assert len(t) == 3 + 1

    def test_agrees_with_sigma(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            kappa = rng.normal(size=6)
            t = table(kappa)
            for m in range(7):
                assert close(t[m], sigma(m, kappa))


class TestSigmaExcl:
    def test_single_exclusion(self):
        assert reduced_sigma(1, (1, 2, 3), (2,)) == 4.0

    def test_degree_zero(self):
        assert reduced_sigma(0, (1, 2, 3), (1, 2)) == 1.0

    def test_one_entry_left(self):
        assert reduced_sigma(2, (1, 2, 3), (1, 3)) == 0.0

    def test_matches_reduced_vector(self):
        # the exclusion tables against sigma of the reduced vector
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            kappa = rng.normal(scale=3.0, size=n)
            size = int(rng.integers(1, 3))
            excl = tuple(sorted(rng.choice(n, size=size, replace=False) + 1))
            reduced = np.delete(kappa, [e - 1 for e in excl])
            for m in range(n):
                if size == 1:
                    got = order(batch_excl1_table(kappa[None, :]), m)[0, excl[0] - 1]
                else:
                    got = batch_excl2_table(kappa[None, :], (m,))[m][0, excl[0] - 1, excl[1] - 1]
                assert close(got, sigma(m, reduced), 1e-9)


class TestDerivatives:
    def test_d1_values(self):
        assert d1(2, (1, 2, 3), 1) == 5.0
        assert d1(1, (4, 5, 6), 2) == 1.0
        assert d1(2, (1, 1, 1), 3) == 2.0

    def test_d2_values(self):
        assert d2(2, (1, 2, 3), 1, 2) == 1.0
        assert d2(3, (1, 2, 3), 2, 2) == 0.0
        assert d2(3, (1, 2, 3, 4), 1, 4) == 5.0

    def test_d1_is_difference_quotient_limit(self):
        rng = np.random.default_rng(2)
        kappa = rng.normal(scale=2.0, size=5)
        h = 1e-6
        for p in range(1, 6):
            bumped = kappa.copy()
            bumped[p - 1] += h
            fd = (sigma(3, bumped) - sigma(3, kappa)) / h
            assert close(d1(3, kappa, p), fd, 1e-4)


# ---------------------------------------------------------------------------
# Algebraic laws on random inputs.
# ---------------------------------------------------------------------------


class TestLaws:
    def test_single_exclusion_recursion(self):
        # sigma_k = kappa_i * sigma_{k-1}(kappa|i) + sigma_k(kappa|i)
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(3, 10))
            kappa = rng.normal(scale=5.0, size=n)
            k = int(rng.integers(1, n + 1))
            i = int(rng.integers(1, n + 1))
            lhs = sigma(k, kappa)
            rhs = kappa[i - 1] * reduced_sigma(k - 1, kappa, (i,)) + reduced_sigma(k, kappa, (i,))
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_sum_rules(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = int(rng.integers(3, 10))
            kappa = rng.normal(scale=5.0, size=n)
            k = int(rng.integers(1, n + 1))
            sk = sigma(k, kappa)
            total = sum(reduced_sigma(k, kappa, (i,)) for i in range(1, n + 1))
            assert close(total, (n - k) * sk)
            weighted = sum(kappa[i - 1] * reduced_sigma(k - 1, kappa, (i,)) for i in range(1, n + 1))
            assert close(weighted, k * sk)

    @pytest.mark.parametrize("t", [-2.0, 0.5, 10.0])
    def test_homogeneity(self, t):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(3, 8))
            kappa = rng.normal(size=n)
            k = int(rng.integers(1, n + 1))
            assert close(sigma(k, t * kappa), t**k * sigma(k, kappa))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            kappa = rng.normal(scale=4.0, size=n)
            k = int(rng.integers(1, n + 1))
            assert close(sigma(k, rng.permutation(kappa)), sigma(k, kappa))

    def test_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 11))
            kappa = rng.normal(scale=3.0, size=n)
            k = int(rng.integers(0, n + 1))
            ref = sigma_enum(k, kappa)
            assert close(sigma(k, kappa), ref, 1e-12)
            assert close(sigma_fsum(k, kappa), ref, 1e-12)
            if n > 1:
                assert close(reduced_sigma(k, kappa, (1,)), sigma_enum(k, kappa[1:]), 1e-12)

    def test_monotone_derivative_ordering(self):
        # kappa sorted descending in Gamma_k: sigma_{k-1}(kappa|n) >= ... >= sigma_{k-1}(kappa|1) > 0
        rng = np.random.default_rng(8)
        found = 0
        while found < 100:
            n = int(rng.integers(4, 8))
            k = int(rng.integers(2, n))
            kappa = -np.sort(-rng.uniform(-0.5, 3.0, size=n))
            if not in_gamma(kappa, k):
                continue
            found += 1
            parts = [d1(k, kappa, p) for p in range(1, n + 1)]
            assert parts[0] > 0.0
            assert all(parts[p] <= parts[p + 1] * (1 + 1e-12) + 1e-12 for p in range(n - 1))


# ---------------------------------------------------------------------------
# Property-based tests.
# ---------------------------------------------------------------------------

finite_entries = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


class TestHypothesis:
    @given(kappa=finite_entries, k=st.integers(min_value=0, max_value=9))
    @settings(max_examples=300, deadline=None)
    def test_sigma_matches_enumeration(self, kappa, k):
        assert close(sigma(k, kappa), sigma_enum(k, kappa), 1e-11)

    @given(kappa=finite_entries)
    @example(kappa=[12.0, 12.0, 29.184527861005023, 48.0, 24.0625, -1.0, -1.0])
    @settings(max_examples=200, deadline=None)
    def test_generating_polynomial_at_one(self, kappa):
        # prod(1 + kappa_i) = sum_k sigma_k, with the error measured against
        # the term magnitude prod(1 + |kappa_i|): the product may cancel to 0.
        total = math.fsum(sigma(k, kappa) for k in range(len(kappa) + 1))
        prod = float(np.prod([1.0 + x for x in kappa]))
        mag = float(np.prod([1.0 + abs(x) for x in kappa]))
        assert abs(total - prod) <= 1e-12 * (1.0 + mag)

    @given(kappa=finite_entries, k=st.integers(min_value=0, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_append_zero_is_noop(self, kappa, k):
        assert close(sigma(k, kappa), sigma(k, list(kappa) + [0.0]), 1e-11)


# ---------------------------------------------------------------------------
# Batched tables: one coefficient-major DP against the per-set reference.
# ---------------------------------------------------------------------------


def _rowwise_coeffs(X):
    """The row-major coefficient recurrence, one column step at a time."""
    B, n = X.shape
    c = np.zeros((B, n + 1))
    c[:, 0] = 1.0
    for t in range(n):
        c[:, 1 : t + 2] = c[:, 1 : t + 2] + X[:, t, None] * c[:, 0 : t + 1]
    return c


def _rows(n, B):
    rng = np.random.default_rng(1000 * n + B)
    return rng.normal(0.0, 1.0, (B, n)) * 10.0 ** rng.uniform(-1.0, 2.0, (B, 1))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestBatchTables:
    @pytest.mark.parametrize("n", range(3, 10))
    @pytest.mark.parametrize("B", [1, 5, 2048])
    def test_coeffs_match_rowwise_recurrence(self, n, B):
        X = _rows(n, B)
        c = batch_coeffs(X)
        assert c.shape == (B, n + 1)
        assert c.flags.c_contiguous
        assert np.array_equal(_bits(c), _bits(_rowwise_coeffs(X)))

    @pytest.mark.parametrize("n", range(3, 10))
    @pytest.mark.parametrize("B", [1, 5, 2048])
    def test_excl1_table_matches_per_set(self, n, B):
        X = _rows(n, B)
        T = batch_excl1_table(X)
        assert T.shape == (B, n, n)
        assert T.flags.c_contiguous
        for i in range(n):
            assert np.array_equal(_bits(T[:, i, :]), _bits(_rowwise_coeffs(np.delete(X, i, axis=1))))

    @pytest.mark.parametrize("n", range(3, 10))
    @pytest.mark.parametrize("B", [1, 5, 2048])
    def test_excl2_table_matches_per_set(self, n, B):
        X = _rows(n, B)
        orders = (-2, -1, 0, 1, n - 2, n - 1, n)
        P = batch_excl2_table(X, orders)
        assert set(P) == set(orders)
        idx = np.arange(n)
        for t in orders:
            assert P[t].shape == (B, n, n)
            assert P[t].flags.c_contiguous
            assert not P[t][:, idx, idx].any()
            if not 0 <= t <= n - 2:
                assert not P[t].any()
        for p in range(n):
            for q in range(p + 1, n):
                ref = _rowwise_coeffs(np.delete(X, (p, q), axis=1))
                for t in orders:
                    if 0 <= t <= n - 2:
                        assert np.array_equal(_bits(P[t][:, p, q]), _bits(ref[:, t]))
                        assert np.array_equal(_bits(P[t][:, q, p]), _bits(ref[:, t]))

    def test_scalar_api_is_the_rowwise_recurrence(self):
        # sigma, on a vector or on a reduced vector, runs the batched kernel;
        # the bits must be the recurrence's, signed zeros included.
        rows = list(_rows(6, 20)) + [
            np.array([0.0, -0.0, 1.0, -0.0, 2.0, -3.0]),
            np.array([-0.0] * 6),
            np.array([-1.0, 0.0, 1.0, -0.0, 1.0, -1.0]),
        ]
        for kappa in rows:
            ref = _rowwise_coeffs(kappa[None, :])[0]
            assert np.array_equal(_bits(np.array([sigma(k, kappa) for k in range(7)])), _bits(ref))
            rest = _rowwise_coeffs(np.delete(kappa, (1, 4))[None, :])[0]
            got = [reduced_sigma(k, kappa, (2, 5)) for k in range(5)]
            assert np.array_equal(_bits(np.array(got)), _bits(rest))

    def test_coeffs_single_set_path_is_the_kernel(self):
        # batch_coeffs skips the kernel's gather; the bits must not move,
        # signed zeros, infinities and NaNs included.
        X = _rows(6, 40)
        X[0] = [0.0, -0.0, 1.0, -0.0, 2.0, -3.0]
        X[1] = -0.0
        X[2] = [np.inf, 0.0, 1.0, -1.0, 2.0, 3.0]
        X[3] = [-np.inf, np.inf, 1.0, 0.0, -0.0, 1.0]
        X[4] = [np.nan, 1.0, 2.0, 3.0, 4.0, 5.0]
        X[5] = [1.0, 2.0, -0.0, np.nan, np.inf, -np.inf]
        with np.errstate(all="ignore"):
            ref = symfun._dp(X, np.arange(6)[None, :], 6)[:, 0, :].T
            assert np.array_equal(_bits(batch_coeffs(X)), _bits(ref))

    def test_coeffs_single_set_path_on_objects(self):
        ints = np.array([[3, -1, 0, 7, 2], [0, 0, 5, -4, 1]], dtype=object)
        for X in (ints, _fraction_rows(5, 3)):
            c = batch_coeffs(X)
            ref = symfun._dp(X, np.arange(5)[None, :], 5)[:, 0, :].T
            assert c.dtype == object and c.shape == ref.shape
            assert [type(e) for e in c.flat] == [type(e) for e in ref.flat]
            assert (c == ref).all()
        assert all(type(e) is int for e in batch_coeffs(ints).flat)

    def test_order_slices_last_axis_and_zero_fills(self):
        T = batch_excl1_table(_rows(5, 4))
        assert np.array_equal(order(T, 2), T[:, :, 2])
        for t in (-1, 5):
            z = order(T, t)
            assert z.shape == (4, 5)
            assert not z.any()

    def test_index_tables_are_built_once_and_read_only(self):
        assert symfun._excl1_keep(6) is symfun._excl1_keep(6)
        assert symfun._excl2_index(6) is symfun._excl2_index(6)
        keep1 = symfun._excl1_keep(6)
        p, q, keep2 = symfun._excl2_index(6)
        assert keep1.shape == (6, 5) and keep2.shape == (15, 4)
        for a in (keep1, p, q, keep2):
            assert not a.flags.writeable


# ---------------------------------------------------------------------------
# The same kernel on Fraction object arrays: exact values.
# ---------------------------------------------------------------------------


def _fraction_rows(n, B):
    rng = np.random.default_rng(50 + n)
    num = rng.integers(-60, 61, (B, n))
    den = rng.integers(1, 12, (B, n))
    return np.array([[Fraction(int(a), int(b)) for a, b in zip(rn, rd)] for rn, rd in zip(num, den)], dtype=object)


def _enum(vals, t):
    """sigma_t by subset enumeration, exact on Fractions."""
    if not 0 <= t <= len(vals):
        return 0
    return sum((math.prod(c) for c in itertools.combinations(vals, t)), Fraction(0))


def _assert_exact(T):
    assert T.dtype == object
    assert all(isinstance(e, numbers.Rational) for e in T.flat)  # Fraction, or int 0 / 1


class TestExactTables:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_coeffs_exact(self, n):
        X = _fraction_rows(n, 3)
        c = batch_coeffs(X)
        _assert_exact(c)
        for b in range(3):
            assert list(c[b]) == [_enum(list(X[b]), t) for t in range(n + 1)]

    @pytest.mark.parametrize("n", range(3, 8))
    def test_excl1_table_exact(self, n):
        X = _fraction_rows(n, 3)
        T = batch_excl1_table(X)
        _assert_exact(T)
        for b in range(3):
            for i in range(n):
                rest = [x for j, x in enumerate(X[b]) if j != i]
                assert list(T[b, i]) == [_enum(rest, t) for t in range(n)]
        _assert_exact(order(T, n))
        assert not order(T, n).any()

    @pytest.mark.parametrize("n", range(3, 8))
    def test_excl2_table_exact(self, n):
        X = _fraction_rows(n, 3)
        orders = (-1, 0, 1, n - 2, n - 1)
        P = batch_excl2_table(X, orders)
        for t in orders:
            _assert_exact(P[t])
            for b in range(3):
                for p in range(n):
                    for q in range(n):
                        rest = [x for j, x in enumerate(X[b]) if j not in (p, q)]
                        want = 0 if p == q else _enum(rest, t)
                        assert P[t][b, p, q] == want
