"""Quadratic-form builders, the Section 3 test-function rows, the
normalized least eigenvalue and its screen."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from symcone import (
    InvalidInputError,
    SearchConfig,
    make_rng,
    run_check,
    sigma,
)
import symcone.quadforms as quadforms
from symcone.matrix_rows import _rows_l35a, _rows_l35b, _rows_s602
from symcone.registry import REGISTRY, _block_tally, _draw, _params
from symcone.quadforms import (
    _relmin,
    _screened_relmin,
    a_form,
    b_form,
    c_form,
    d_form,
    h_form,
    h_ratio,
    inv_c,
    key_matrix_batch,
    reduced_tables,
    rhs_combination_batch,
)
from symcone.scalar_rows import _ineq
from symcone.symfun import batch_coeffs, batch_excl1_table, batch_excl2_table

from oracles import sample_rows


def s_excl(t, kappa, *excl):
    """sigma_t of kappa without the 0-based positions in excl."""
    return sigma(t, np.delete(np.asarray(kappa, dtype=float), list(excl)))


def key_c(kappa, k, i0, K):
    """c = 1/(K kappa_i sigma_{k-1}(kappa|i) - 1)."""
    return 1.0 / (K * kappa[i0] * s_excl(k - 1, kappa, i0) - 1.0)


def key_oracle(kappa, k, i0, K, xi):
    """Scalar double-sum definition of the key form, via exclusion sigmas."""
    n = len(kappa)
    d1 = [s_excl(k - 1, kappa, p) for p in range(n)]

    def d2(p, q):
        return 0.0 if p == q else s_excl(k - 2, kappa, p, q)

    grad = sum(d1[j] * xi[j] for j in range(n))
    cross = sum(d2(p, q) * xi[p] * xi[q] for p in range(n) for q in range(n) if p != q)
    ki = kappa[i0]
    out = ki * (K * grad * grad - cross) - d1[i0] * xi[i0] ** 2
    for j in range(n):
        if j == i0:
            continue
        a_j = d1[j] + (ki + kappa[j]) * d2(i0, j)
        out += a_j * xi[j] ** 2
    return out


def exact_key_matrix(kappa, k, i0, K):
    """The key form as a matrix of Fractions, from subset-enumerated sigmas:
    off the diagonal kappa_i (K s_p s_q - s_pq), on it K kappa_i s_j^2 plus
    a_j (j != i) or minus s_i (j = i), where s_j = sigma_{k-1}(kappa|j),
    s_pq = sigma_{k-2}(kappa|pq) and a_j = s_j + (kappa_i + kappa_j) s_ij."""
    n = len(kappa)

    def s(t, *excl):
        rest = [x for j, x in enumerate(kappa) if j not in excl]
        return sum((math.prod(c) for c in itertools.combinations(rest, t)), Fraction(0))

    ki = kappa[i0]
    M = [[K * ki * s(k - 1, p) * s(k - 1, q) for q in range(n)] for p in range(n)]
    for p, q in itertools.permutations(range(n), 2):
        M[p][q] -= ki * s(k - 2, p, q)
    for j in range(n):
        M[j][j] += -s(k - 1, j) if j == i0 else s(k - 1, j) + (ki + kappa[j]) * s(k - 2, i0, j)
    return M


class TestKeyMatrix:
    @pytest.mark.parametrize("n,k", [(5, 3), (5, 4), (6, 4), (7, 5)])
    def test_exact_on_fractions(self, n, k):
        X = sample_rows(make_rng(20 + n), 2, n, k, 1e3)[0]
        F = np.array([[Fraction(float(v)) for v in row] for row in X], dtype=object)
        M, _ = key_matrix_batch(F, k, 1, Fraction(1000))
        assert M.dtype == object
        for b in range(2):
            assert M[b].tolist() == exact_key_matrix(list(F[b]), k, 1, Fraction(1000))
        assert all(isinstance(e, Fraction) for e in M.flat)

    def test_hand_example_all_ones(self):
        assert key_c(np.ones(5), 3, 0, 1.0) == pytest.approx(0.2)
        M = key_matrix_batch(np.ones((1, 5)), 3, 0, 1.0)[0][0]
        assert M[0, 0] == pytest.approx(30.0)
        for j in range(1, 5):
            assert M[j, j] == pytest.approx(48.0)
        off = M[~np.eye(5, dtype=bool)]
        assert np.allclose(off, 33.0)

    def test_zero_xi(self):
        M = key_matrix_batch(np.ones((1, 5)), 3, 1, 2.0)[0][0]
        assert np.zeros(5) @ M @ np.zeros(5) == 0.0

    def test_scalar_oracle_agreement(self):
        rng = make_rng(10)
        n, k, i0, K = 6, 4, 1, 10.0
        X = sample_rows(rng, 20, n, k, 50.0)[0]
        M, T1 = key_matrix_batch(X, k, i0, K)
        assert T1.tobytes() == batch_excl1_table(X).tobytes()
        g = np.random.default_rng(0)
        for row, Mb in zip(X, M):
            for _ in range(10):
                xi = g.normal(size=n)
                a = xi @ Mb @ xi
                b = key_oracle(row, k, i0, K, xi)
                assert abs(a - b) <= 1e-9 * (1.0 + abs(a) + abs(b))

    def test_symmetric(self):
        M = key_matrix_batch(np.array([[4.0, 3.0, 2.0, 1.0, 0.5]]), 3, 1, 5.0)[0][0]
        assert np.array_equal(M, M.T)

    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_k_out_of_range_rejected(self, k):
        # the builder takes k as given; both of its callers reject the level
        with pytest.raises(InvalidInputError, match=f"k={k} out of range"):
            run_check("S7_case_key", n=5, k=k)
        with pytest.raises(InvalidInputError, match=f"got k={k}"):
            SearchConfig(n=5, k=k)

    def test_c_requires_positive_denominator(self):
        # c = 1/(K kappa_i s_ii - 1) needs K kappa_i s_ii > 1: the gap rows
        # exclude (+inf) each row and K where it fails, and only there
        X = np.vstack([np.ones((1, 5)) * 1e-4, np.ones((1, 5))])
        s_ii = batch_coeffs(X[:, 1:])[:, 2]
        Ks = (0.1, 1.0, 1e8)
        outside = np.array(Ks)[:, None] * X[:, 0] * s_ii <= 1.0
        assert outside.tolist() == [[True, True], [True, False], [True, False]]
        for check_id in ("L4_1_gap", "L4_1_gap_alt"):
            P = {"n": 5, "k": 3, "i0": 0, "K": Ks, "kappa1": None}
            out = REGISTRY[check_id].rows(X, {}, P)
            assert np.array_equal(out == np.inf, outside)
            assert np.all(np.isfinite(out[~outside]))


def reduced_forms(X, k, i0):
    """A, B, C and D at level k on kappa without entry i0."""
    Y, E, S = reduced_tables(X, i0, (k - 3, k - 2, k - 1, k))
    return a_form(E, S, k), b_form(E, S, k), c_form(Y, E, S, k), d_form(E, k)


def h_matrix(X, i0):
    """H on kappa without entry i0, with the ratio r of `h_ratio`."""
    n = X.shape[1]
    Y = np.delete(X, i0, axis=1)
    r, _ = h_ratio(batch_coeffs(Y), n)
    return h_form(Y, batch_excl2_table(Y, (n - 5, n - 3)), r)


class TestAbcd:
    def test_shapes_and_symmetry(self):
        X = np.array([[5.0, 4.0, 3.0, 2.0, 1.0]])
        for M in reduced_forms(X, 3, 1):
            assert M.shape == (1, 4, 4)
            assert np.array_equal(M[0], M[0].T)

    def test_b_hand_example(self):
        _, B, _, _ = reduced_forms(np.ones((1, 5)), 3, 0)
        assert np.allclose(np.diag(B[0]), 6.0)
        off = B[0][~np.eye(4, dtype=bool)]
        assert np.allclose(off, -2.0)

    def test_d_is_rank_one_gram(self):
        rng = make_rng(11)
        X = sample_rows(rng, 20, 6, 4, 30.0)[0]
        D = d_form(batch_excl1_table(X[:, 1:]), 4)
        for row, e in zip(X, D):
            scale = np.abs(e).max()
            for p in range(4):
                for q in range(p + 1, 4):
                    minor = e[p, p] * e[q, q] - e[p, q] * e[q, p]
                    assert abs(minor) <= 1e-9 * (1.0 + scale * scale)
            w = np.array([s_excl(3, row, 0, j) for j in range(1, 6)])
            assert np.allclose(e, np.outer(w, w), rtol=1e-12, atol=1e-9 * scale)

    def test_abd_psd_in_headline_regime(self):
        rng = make_rng(12)
        n, k = 6, 4
        X = sample_rows(rng, 100, n, k, 100.0)[0]
        A, B, _, D = reduced_forms(X, k, 0)
        for M in (A, B, D):
            fro = np.linalg.norm(M, axis=(1, 2))
            assert np.all(_relmin(M) * fro >= -1e-9 * np.maximum(fro, 1.0))


class TestHMatrix:
    def test_vanishing_denominator_gives_minus_one(self):
        # kappa|i = (5, 1, -1, -2, -3) has sigma_{n-5} = sigma_1 = 0 at n = 6:
        # the checks that read r give the row the slack -1
        X = np.array([[5.0, 4.0, 1.0, -1.0, -2.0, -3.0]])
        r, ok = h_ratio(batch_coeffs(np.delete(X, 1, axis=1)), 6)
        assert ok.tolist() == [False] and np.isfinite(r).all()
        P = {"n": 6, "k": 4, "i0": 1, "K": (None,), "kappa1": None}
        for check_id in ("L6_4_H", "T6_1_s615", "L6_2_bound"):
            assert REGISTRY[check_id].rows(X, {}, P).tolist() == [-1.0]

    def test_shape_and_symmetry(self):
        X = np.array([[5.0, 4.0, 3.0, 2.0, 1.0]])
        M = h_matrix(X, 1)[0]
        assert M.shape == (4, 4)
        assert np.array_equal(M, M.T)

    def test_diagonal_values(self):
        # diag entry j: sigma_{n-3} of the entrywise-squared reduced vector
        # with entry j removed as well
        kappa = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        i0 = 1
        red = np.delete(kappa, i0)
        M = h_matrix(kappa[None], i0)[0]
        for j in range(4):
            expect = s_excl(2, red**2, j)
            assert M[j, j] == pytest.approx(expect, rel=1e-12)


def l35_oracle(kappa, h, k, i0, K):
    """The Section 3 terms A_i, B_i, D_i as loops over sigmas of reduced
    vectors, and the slacks of L3_5_a and L3_5_b built from them."""
    n = len(kappa)
    top = max(kappa)
    w = [math.exp(x - top) for x in kappa]
    logP = top + math.log(sum(w))
    d1 = [s_excl(k - 1, kappa, l) for l in range(n)]

    def d2(p, q):
        return s_excl(k - 2, kappa, p, q)

    gsum = sum(d1[l] * h[l] for l in range(n))
    spq = sum(2.0 * d2(p, q) * h[p] * h[q] for p in range(n) for q in range(p + 1, n))
    Ai = w[i0] * (K * gsum**2 - spq)
    Bi = sum(2.0 * d2(i0, l) * w[l] * h[l] ** 2 for l in range(n) if l != i0)
    Di = sum(
        2.0 * (math.exp(kappa[l]) - math.exp(kappa[i0])) / (kappa[l] - kappa[i0])
        * math.exp(-top) * d1[l] * h[l] ** 2
        for l in range(n) if l != i0
    )
    rhs_a = w[i0] * d1[i0] * h[i0] ** 2 / logP
    rhs_b = d1[i0] * sum(w[l] * h[l] ** 2 for l in range(n) if l != i0) / logP
    bound = [2.0 * kappa[0] * d2(i0, l) - d1[i0] for l in range(n) if l != i0]
    slack_a = float(_ineq(Ai + Di, rhs_a))
    slack_b = min([float(_ineq(Bi, rhs_b))] + [v / (1.0 + abs(v)) for v in bound])
    return {"Ai": Ai, "Bi": Bi, "Di": Di, "a": slack_a, "b": slack_b}


def l35_rows(X, H, k, i0, K):
    """The L3_5_a and L3_5_b slacks of the rows X with derivative data H."""
    P = {"n": X.shape[1], "k": k, "i0": i0, "K": (K,), "kappa1": float(X[0, 0])}
    aux = {"h": H}
    return _rows_l35a(X, aux, P)[0], _rows_l35b(X, aux, P)


class TestTestFnTerms:
    # the Section 3 terms enter the catalog through the L3_5 rows only

    def test_zero_h_gives_zero_terms(self):
        kappa = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        ref = l35_oracle(kappa, np.zeros(5), 3, 1, 10.0)
        assert (ref["Ai"], ref["Bi"], ref["Di"]) == (0.0, 0.0, 0.0)
        a, b = l35_rows(kappa[None], np.zeros((1, 5)), 3, 1, 10.0)
        assert a[0] == 0.0
        assert b[0] == ref["b"]

    def test_nonnegative_quadratic_terms(self):
        rng = make_rng(13)
        X = sample_rows(rng, 50, 5, 3, 80.0)[0]
        H = np.random.default_rng(1).normal(size=X.shape)
        a, b = l35_rows(X, H, 3, 1, 10.0)
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
        for row, h, sa, sb in zip(X, H, a, b):
            ref = l35_oracle(row, h, 3, 1, 10.0)
            assert ref["Di"] >= 0.0
            assert sa == pytest.approx(ref["a"], rel=1e-10, abs=1e-12)
            assert sb == pytest.approx(ref["b"], rel=1e-10, abs=1e-12)

    def test_large_scale_no_overflow(self):
        # exponential weights are factored, so scales beyond exp-overflow work
        kappa = np.array([[800.0, 799.0, 10.0, 5.0, 1.0]])
        a, b = l35_rows(kappa, np.ones((1, 5)), 3, 1, 10.0)
        assert math.isfinite(a[0]) and math.isfinite(b[0])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_loop_oracle(self, k):
        kappa = np.array([5.0, 3.0, 2.0, 1.0, 0.5])
        h = np.array([1.0, -2.0, 0.5, 1.5, -1.0])
        ref = l35_oracle(kappa, h, k, 1, 10.0)
        a, b = l35_rows(kappa[None], h[None], k, 1, 10.0)
        assert a[0] == pytest.approx(ref["a"], rel=1e-12, abs=1e-12)
        assert b[0] == pytest.approx(ref["b"], rel=1e-12, abs=1e-12)

    def test_k1_has_no_second_derivative_terms(self):
        # sum(h) = 0 and sigma_1 has no second derivatives, so A_i = B_i = 0
        # and the L3_5_a slack is that of D_i alone; reading sigma_{k-2} at
        # index -1 once gave A_i = 12.76, B_i = 2.70
        kappa = np.array([5.0, 3.0, 2.0, 1.0, 0.5])
        h = np.array([1.0, -2.0, 0.5, 1.5, -1.0])
        ref = l35_oracle(kappa, h, 1, 1, 10.0)
        assert ref["Ai"] == 0.0
        assert ref["Bi"] == 0.0
        a, _ = l35_rows(kappa[None], h[None], 1, 1, 10.0)
        assert a[0] == pytest.approx(ref["a"], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_k_out_of_range_rejected(self, k):
        # the rows take k as given; the request rejects the level
        with pytest.raises(InvalidInputError, match=f"k={k} out of range"):
            run_check("L3_5_a", n=5, k=k)


class TestRhsAndGap:
    def test_variants_coincide_at_unit_kappa_i(self):
        X = np.ones((1, 5))
        s_ii = batch_coeffs(X[:, 1:])[:, 2]
        a = rhs_combination_batch(X, 3, 0, 1.0, True, s_ii)
        b = rhs_combination_batch(X, 3, 0, 1.0, False, s_ii)
        assert np.allclose(a, b, rtol=1e-12)

    def test_gap_is_lhs_minus_rhs(self):
        # the gap rows scale the key build by kappa_i K s_ii^2 - s_ii and
        # subtract the scaled combination on j != i
        rng = make_rng(14)
        X = sample_rows(rng, 10, 6, 4, 50.0)[0]
        k, i0, K = 4, 1, 10.0
        G, T1 = key_matrix_batch(X, k, i0, K)
        s_ii = T1[:, i0, k - 1]
        keep = np.delete(np.arange(6), i0)
        G *= (X[:, i0] * K * s_ii**2 - s_ii)[:, None, None]
        G[:, keep[:, None], keep] -= rhs_combination_batch(X, k, i0, K, True, s_ii)
        for gap in G:
            assert np.array_equal(gap, gap.T)
            assert np.all(np.isfinite(gap))
        out = REGISTRY["L4_1_gap"].rows(X, {}, {"n": 6, "k": k, "i0": i0, "K": (K,), "kappa1": None})
        assert np.all(inv_c(K, X[:, i0], s_ii) > 0.0)
        assert out[0].tobytes() == _relmin(G).tobytes()

    def test_inv_c_is_positive_where_the_product_exceeds_one(self):
        # the hypothesis c > 0 is K kappa_i s_ii > 1 bit for bit: at one, the
        # floats next to it, an overflowing product (inside) and NaN
        edges = [1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), np.inf, np.nan]
        K = np.array(edges + [1e300]) * 4.0
        ki = np.array([0.5] * 5 + [1e300])
        s_ii = np.array([0.5] * 5 + [1e10])
        with np.errstate(over="ignore"):
            want = K * ki * s_ii > 1.0
        assert want.tolist() == [False, True, False, True, False, True]
        assert np.array_equal(inv_c(K, ki, s_ii) > 0.0, want)

    def test_doubling_K_shrinks_c(self):
        kappa = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        c1 = key_c(kappa, 3, 1, 10.0)
        c2 = key_c(kappa, 3, 1, 20.0)
        assert c2 < c1
        assert c2 == pytest.approx(c1 / 2, rel=0.05)
        # the combination is (1/c) [alpha A + sigma_k B + C] - D
        X = kappa[None]
        s_ii = batch_coeffs(np.delete(X, 1, axis=1))[:, 2]
        D = d_form(batch_excl1_table(np.delete(X, 1, axis=1)), 3)
        R1 = rhs_combination_batch(X, 3, 1, 10.0, True, s_ii)
        R2 = rhs_combination_batch(X, 3, 1, 20.0, True, s_ii)
        assert np.allclose((R1 + D) * c1, (R2 + D) * c2, rtol=1e-12)

    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_level_out_of_range(self, k):
        # the builders take k as given; the request rejects the level
        for check_id in ("L4_1_gap", "L4_1_gap_alt"):
            with pytest.raises(InvalidInputError, match=f"k={k} out of range"):
                run_check(check_id, n=5, k=k)


class TestMinEig:
    # `_relmin`: the least eigenvalue over the Frobenius norm, per matrix

    @staticmethod
    def least(M):
        M = np.asarray(M, dtype=float)
        return float(_relmin(M[None])[0]) * float(np.linalg.norm(M))

    def test_identity(self):
        assert self.least(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert self.least(np.diag([3.0, -2.0, 5.0])) == pytest.approx(-2.0, abs=1e-12)

    def test_rank_one_gram(self):
        w = np.array([1.0, 2.0, 3.0])
        assert abs(self.least(np.outer(w, w))) <= 1e-10 * 14.0

    def test_against_lapack_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(2, 9))
            A = rng.normal(size=(m, m))
            A = A + A.T
            ref = float(np.linalg.eigvalsh(A)[0])
            fro = float(np.linalg.norm(A))
            assert abs(self.least(A) - ref) <= 1e-10 * max(fro, 1.0)

    def test_input_validation(self):
        with pytest.raises(np.linalg.LinAlgError):
            _relmin(np.ones((1, 2, 3)))
        assert np.isnan(_relmin(np.array([[[1.0, np.nan], [np.nan, 1.0]]]))[0])

    def test_scaled_past_norm_overflow(self):
        # entries near 1e200 overflow the plain sum of squares; the slack is
        # the unscaled one, and an indefinite matrix stays negative
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6))
        psd = A @ A.T
        indef = A + A.T
        for M in (psd, indef):
            plain = _relmin(M[None])
            out = _relmin(np.stack([M, M * 1e200]))
            assert out[0].tobytes() == plain.tobytes()  # unscaled rows keep their bits
            assert out[1] == pytest.approx(plain[0], rel=1e-12)
        assert plain[0] < 0.0 and out[1] < 0.0

    def test_inf_entry_is_nonfinite(self):
        M = np.eye(4)
        M[0, 1] = M[1, 0] = np.inf
        assert not np.isfinite(_relmin(M[None])[0])
        M[2, 2] = 1e200  # its square overflows next to the inf, without a warning
        assert np.isnan(_relmin(M[None])[0])

    def test_all_inf_matrix_is_nan_and_keeps_the_others(self):
        # eigvalsh does not converge on an all-inf matrix, so it never sees one
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 5, 5))
        M = A + A.transpose(0, 2, 1)
        out = _relmin(np.concatenate([M[:1], np.full((1, 5, 5), np.inf), M[1:]]))
        assert np.isnan(out[1])
        assert np.delete(out, 1).tobytes() == _relmin(M).tobytes()

    def test_entries_past_2_to_1023_keep_their_sign(self):
        # the scale 2^e of a largest entry >= 2^1023 is 2^1024, which is not a float
        out = _relmin(np.array([[[1e308, 0.0], [0.0, -1e308]], [[1e308, 0.0], [0.0, 1e308]]]))
        assert out[0] == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-12)
        assert out[1] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


class TestDilationCovariance:
    def test_key_form_scales_by_degree(self):
        # each summand of the key form is homogeneous: the K-term has degree
        # 2k-1 (kappa_i times two gradient factors of degree k-1), every
        # other term degree k-1
        kappa = np.array([4.0, 3.9, 2.0, 1.0, 0.5])
        k, i0, K = 3, 1, 10.0
        t = 2.0
        (Ma, Mb), _ = key_matrix_batch(np.stack([kappa, t * kappa]), k, i0, K)
        v = np.array([s_excl(k - 1, kappa, j) for j in range(5)])
        grad_term_a = K * kappa[i0] * np.outer(v, v)
        rest_a = Ma - grad_term_a
        vb = np.array([s_excl(k - 1, t * kappa, j) for j in range(5)])
        grad_term_b = K * t * kappa[i0] * np.outer(vb, vb)
        rest_b = Mb - grad_term_b
        assert np.allclose(grad_term_b, t ** (2 * k - 1) * grad_term_a, rtol=1e-12)
        assert np.allclose(rest_b, t ** (k - 1) * rest_a, rtol=1e-12)


def block_tally(slacks):
    """`registry._block_tally` of a (B,) or (nK, B) slack grid; a witness's kappa is its row index."""
    grid = np.atleast_2d(slacks)
    P = _params(1, None, 0, (None,) * grid.shape[0], None)
    return _block_tally(REGISTRY["L5_2_psd"], P, np.arange(grid.shape[1], dtype=float)[:, None], {}, grid)


def spectral_stack(rng, least):
    """One symmetric 5 x 5 matrix per entry of `least`, with that least
    eigenvalue and the others 1, 1.25, 1.5 and 2, in a random orthonormal basis."""
    Q = np.linalg.qr(rng.normal(size=(len(least), 5, 5)))[0]
    lam = np.concatenate([np.asarray(least, dtype=float)[:, None], np.tile([1.0, 1.25, 1.5, 2.0], (len(least), 1))], 1)
    return np.einsum("bij,bj,bkj->bik", Q, lam, Q)


class TestScreen:
    # `_screened_relmin` against `_relmin`: the same block tally, exact bits
    # wherever a matrix could hold the minimum, a lower bound elsewhere

    TOL = 1e-8

    def test_lower_bounds_and_exact_bits(self):
        # slacks 3e-14 apart, so that dozens fall within the screen's margin of the pilots' minimum
        rng = np.random.default_rng(5)
        screened = 0
        for least in (0.01 + 1e-13 * np.arange(300), rng.uniform(-0.5, 0.5, 300), np.full(300, 0.2)):
            M = spectral_stack(rng, rng.permutation(least))
            exact, out = _relmin(M), _screened_relmin(M, self.TOL)
            same = out.view(np.uint64) == exact.view(np.uint64)
            assert np.all(out[~same] < exact[~same]) and np.all(out[~same] > max(exact.min(), self.TOL))
            assert block_tally(out) == block_tally(exact)
            screened += np.count_nonzero(~same)
        assert screened > 300

    def test_planted_minimum_outside_the_pilots(self):
        # diagonal rows, whose min-diagonal over norm is their slack, and at
        # row 150 I - 0.19 J: slack 0.025, but min-diagonal over norm 0.405
        rng = np.random.default_rng(6)
        M = np.stack([np.diag(d) for d in rng.uniform(1.0, 2.0, (200, 5))])
        M[150] = np.eye(5) - 0.19 * np.ones((5, 5))
        upper = np.diagonal(M, axis1=1, axis2=2).min(axis=1) / np.linalg.norm(M, axis=(1, 2))
        assert np.sum(upper < upper[150]) >= quadforms._PILOTS
        exact, out = _relmin(M), _screened_relmin(M, self.TOL)
        assert block_tally(out) == block_tally(exact)
        assert block_tally(out).witness["kappa"] == [150.0] and out[150] == exact[150]

    def test_row_tied_at_the_pilot_minimum_is_solved(self):
        # P = diag(2, 4, 5, 6, 7) and R = [[3, 1], [1, 3]] + diag(5, 6, 7) have
        # the same slack 2/sqrt(130), bit for bit, but R's min-diagonal is 3:
        # P and the seven diag(1, 2, 2, 2, 2) rows are the pilots, and R comes
        # first, so it holds the witness only if it is eigensolved
        P = np.diag([2.0, 4.0, 5.0, 6.0, 7.0])
        R = np.diag([3.0, 3.0, 5.0, 6.0, 7.0])
        R[0, 1] = R[1, 0] = 1.0
        M = np.stack([np.eye(5)] * 40)
        M[3], M[20], M[21:28] = R, P, np.diag([1.0, 2.0, 2.0, 2.0, 2.0])
        exact, out = _relmin(M), _screened_relmin(M, self.TOL)
        assert exact[3].tobytes() == exact[20].tobytes()
        assert block_tally(out) == block_tally(exact)
        assert block_tally(out).witness["kappa"] == [3.0]

    @pytest.mark.parametrize("fill", [np.inf, -1.0])
    def test_masked_rows_are_never_pilots(self, fill):
        # every third matrix is -I, slack -0.5, outside the mask; had they been
        # pilots, no valid matrix would be eigensolved
        rng = np.random.default_rng(7)
        M = spectral_stack(rng, rng.uniform(0.05, 0.5, 120))
        valid = np.arange(120) % 3 != 0
        M[~valid] = -np.eye(5)
        exact, out = _relmin(M), _screened_relmin(M, self.TOL, valid)
        assert np.isnan(out[~valid]).all()
        for f in (fill, np.inf):
            assert block_tally(np.where(valid, out, f)) == block_tally(np.where(valid, exact, f))

    def test_nan_row_stays_nan_and_counted(self):
        rng = np.random.default_rng(8)
        M = spectral_stack(rng, rng.uniform(0.05, 0.5, 100))
        M[40, 1, 2] = M[40, 2, 1] = np.nan
        exact, out = _relmin(M), _screened_relmin(M, self.TOL)
        assert np.isnan(out[40])
        assert block_tally(out) == block_tally(exact)
        assert block_tally(out).nonfinite == 1

    def test_k_stacked_rows_outside_c(self):
        # at n = 5 and kappa_1 = 10, c > 0 fails on some rows at K = 1e-2 and on every row at 1e-4
        check = REGISTRY["T6_1_s602"]
        P = _params(5, 3, 1, (1e-4, 1e-2, 1.0), 10.0)
        X, aux = _draw(check, P, make_rng(5), 200)
        exact = _rows_s602(X, aux, P)
        out = _rows_s602(X, aux, dict(P, screen=self.TOL))
        excluded = np.isinf(exact).sum(axis=1)
        assert excluded[0] == 200 and 0 < excluded[1] < 200 and excluded[2] == 0
        assert np.array_equal(np.isinf(out), np.isinf(exact))
        assert block_tally(out) == block_tally(exact)
        assert np.sum(out != exact) >= 100  # the screen took part

    @pytest.mark.parametrize("N", [1, 5, 4 * quadforms._PILOTS])
    def test_small_calls_are_relmin(self, N):
        M = spectral_stack(np.random.default_rng(N), np.linspace(-0.5, 0.5, N))
        assert _screened_relmin(M, self.TOL).tobytes() == _relmin(M).tobytes()

    def test_overflowing_norm_is_relmin(self):
        rng = np.random.default_rng(9)
        M = spectral_stack(rng, rng.uniform(0.05, 0.5, 100))
        M[60] *= 1e200
        assert _screened_relmin(M, self.TOL).tobytes() == _relmin(M).tobytes()
