"""Quadratic-form builders and the eigenvalue certifier."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import symcone.quadforms as quadforms
from symcone import (
    ConeQuery,
    DomainError,
    InvalidInputError,
    KeyParams,
    abcd_matrices,
    h_matrix,
    in_gamma,
    key_matrix,
    lemma41_gap,
    make_rng,
    min_eig,
    rhs_combination,
    sample_batch,
    sigma_excl,
)
from symcone import testfn_terms as eval_testfn_terms


def key_oracle(kappa, params, xi):
    """Scalar double-sum definition of the key form, via exclusion sigmas."""
    n = len(kappa)
    k, i, K = params.k, params.i, params.K
    d1 = [sigma_excl(k - 1, kappa, (p,)) for p in range(1, n + 1)]

    def d2(p, q):
        return 0.0 if p == q else sigma_excl(k - 2, kappa, tuple(sorted((p, q))))

    grad = sum(d1[j - 1] * xi[j - 1] for j in range(1, n + 1))
    cross = sum(
        d2(p, q) * xi[p - 1] * xi[q - 1] for p in range(1, n + 1) for q in range(1, n + 1) if p != q
    )
    ki = kappa[i - 1]
    out = ki * (K * grad * grad - cross) - d1[i - 1] * xi[i - 1] ** 2
    for j in range(1, n + 1):
        if j == i:
            continue
        a_j = d1[j - 1] + (ki + kappa[j - 1]) * d2(i, j)
        out += a_j * xi[j - 1] ** 2
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
        X = sample_batch(make_rng(20 + n), 2, n, k, 1e3)
        F = np.array([[Fraction(float(v)) for v in row] for row in X], dtype=object)
        M = quadforms.key_matrix_batch(F, k, 1, Fraction(1000))
        assert M.dtype == object
        for b in range(2):
            assert M[b].tolist() == exact_key_matrix(list(F[b]), k, 1, Fraction(1000))
        assert all(isinstance(e, Fraction) for e in M.flat)

    def test_hand_example_all_ones(self):
        params = KeyParams.for_kappa(np.ones(5), 3, 1, 1.0)
        assert params.c == pytest.approx(0.2)
        M = key_matrix(np.ones(5), params).entries
        assert M[0, 0] == pytest.approx(30.0)
        for j in range(1, 5):
            assert M[j, j] == pytest.approx(48.0)
        off = M[~np.eye(5, dtype=bool)]
        assert np.allclose(off, 33.0)

    def test_zero_xi(self):
        params = KeyParams.for_kappa(np.ones(5), 3, 2, 2.0)
        assert key_matrix(np.ones(5), params)(np.zeros(5)) == 0.0

    def test_scalar_oracle_agreement(self):
        rng = make_rng(10)
        n, k, i = 6, 4, 2
        X = sample_batch(rng, 20, n, k, 50.0)
        g = np.random.default_rng(0)
        for row in X:
            params = KeyParams.for_kappa(row, k, i, 10.0)
            M = key_matrix(row, params)
            for _ in range(10):
                xi = g.normal(size=n)
                a = M(xi)
                b = key_oracle(row, params, xi)
                assert abs(a - b) <= 1e-9 * (1.0 + abs(a) + abs(b))

    def test_symmetric(self):
        params = KeyParams.for_kappa((4.0, 3.0, 2.0, 1.0, 0.5), 3, 2, 5.0)
        M = key_matrix((4.0, 3.0, 2.0, 1.0, 0.5), params).entries
        assert np.array_equal(M, M.T)

    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_k_out_of_range_rejected(self, k):
        with pytest.raises(InvalidInputError):
            KeyParams.for_kappa(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), k, 2, 10.0)

    def test_c_requires_positive_denominator(self):
        from symcone import DomainError

        with pytest.raises(DomainError):
            KeyParams.for_kappa(np.ones(5) * 1e-4, 3, 1, 1.0)


class TestAbcd:
    def test_shapes_and_symmetry(self):
        kappa = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        for M in abcd_matrices(kappa, 3, 2):
            assert M.entries.shape == (4, 4)
            assert np.array_equal(M.entries, M.entries.T)

    def test_b_hand_example(self):
        _, B, _, _ = abcd_matrices(np.ones(5), 3, 1)
        assert np.allclose(np.diag(B.entries), 6.0)
        off = B.entries[~np.eye(4, dtype=bool)]
        assert np.allclose(off, -2.0)

    def test_d_is_rank_one_gram(self):
        rng = make_rng(11)
        X = sample_batch(rng, 20, 6, 4, 30.0)
        for row in X:
            _, _, _, D = abcd_matrices(row, 4, 1)
            e = D.entries
            scale = np.abs(e).max()
            for p in range(4):
                for q in range(p + 1, 4):
                    minor = e[p, p] * e[q, q] - e[p, q] * e[q, p]
                    assert abs(minor) <= 1e-9 * (1.0 + scale * scale)
            w = np.array([sigma_excl(3, row, tuple(sorted((1, j)))) for j in range(2, 7)])
            assert np.allclose(e, np.outer(w, w), rtol=1e-12, atol=1e-9 * scale)

    def test_abd_psd_in_headline_regime(self):
        rng = make_rng(12)
        n, k = 6, 4
        X = sample_batch(rng, 100, n, k, 100.0)
        for row in X:
            A, B, _, D = abcd_matrices(row, k, 1)
            for M in (A, B, D):
                fro = np.linalg.norm(M.entries)
                assert min_eig(M) >= -1e-9 * max(fro, 1.0)


class TestHMatrix:
    def test_shape_and_symmetry(self):
        kappa = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        M = h_matrix(kappa, 2)
        assert M.entries.shape == (4, 4)
        assert np.array_equal(M.entries, M.entries.T)

    def test_diagonal_values(self):
        # diag entry j: sigma_{n-3} of the entrywise-squared reduced vector
        # with entry j removed as well
        kappa = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        i = 2
        red = np.delete(kappa, i - 1)
        M = h_matrix(kappa, i).entries
        for j in range(4):
            expect = sigma_excl(2, red**2, (j + 1,))
            assert M[j, j] == pytest.approx(expect, rel=1e-12)


class TestTestFnTerms:
    def test_zero_h_gives_zero_terms(self):
        t = eval_testfn_terms(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), 3, 2, np.zeros(5), 10.0)
        assert (t.Ai, t.Bi, t.Ci, t.Di, t.Ei) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_nonnegative_quadratic_terms(self):
        rng = make_rng(13)
        X = sample_batch(rng, 50, 5, 3, 80.0)
        g = np.random.default_rng(1)
        for row in X:
            h = g.normal(size=5)
            t = eval_testfn_terms(row, 3, 2, h, 10.0)
            assert t.Ci >= 0.0
            assert t.Di >= 0.0
            for v in (t.Ai, t.Bi, t.Ci, t.Di, t.Ei):
                assert math.isfinite(v)

    def test_small_scale_flag(self):
        small = eval_testfn_terms(np.array([0.9, 0.5, 0.3, 0.2, 0.1]), 3, 2, np.ones(5), 10.0)
        assert small.small_kappa1
        big = eval_testfn_terms(np.array([50.0, 49.0, 3.0, 2.0, 1.0]), 3, 2, np.ones(5), 10.0)
        assert not big.small_kappa1

    def test_positivity_violation_raises(self, monkeypatch):
        # a negative divided difference makes D_i negative on a cone member;
        # the check must still raise under `python -O`, so it is not an assert
        monkeypatch.setattr(quadforms, "divdiff_exp_scaled", lambda a, b, top: -1.0)
        with pytest.raises(DomainError):
            eval_testfn_terms(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), 3, 2, np.ones(5), 10.0)

    def test_large_scale_no_overflow(self):
        # exponential weights are factored, so scales beyond exp-overflow work
        kappa = np.array([800.0, 799.0, 10.0, 5.0, 1.0])
        t = eval_testfn_terms(kappa, 3, 2, np.ones(5), 10.0)
        for v in (t.Ai, t.Bi, t.Ci, t.Di, t.Ei):
            assert math.isfinite(v)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_loop_oracle(self, k):
        kappa = np.array([5.0, 3.0, 2.0, 1.0, 0.5])
        h = np.array([1.0, -2.0, 0.5, 1.5, -1.0])
        i, K = 2, 10.0
        n, i0 = 5, 1
        w = np.exp(kappa - kappa.max())
        d1 = [sigma_excl(k - 1, kappa, (l + 1,)) for l in range(n)]

        def d2(p, q):
            return sigma_excl(k - 2, kappa, (p + 1, q + 1))

        gsum = sum(d1[l] * h[l] for l in range(n))
        spq = sum(2.0 * d2(p, q) * h[p] * h[q] for p in range(n) for q in range(p + 1, n))
        Ai = w[i0] * (K * gsum**2 - spq)
        Bi = sum(2.0 * d2(i0, l) * w[l] * h[l] ** 2 for l in range(n) if l != i0)
        Di = sum(
            2.0 * (math.exp(kappa[l]) - math.exp(kappa[i0])) / (kappa[l] - kappa[i0])
            * math.exp(-kappa.max()) * d1[l] * h[l] ** 2
            for l in range(n) if l != i0
        )
        t = eval_testfn_terms(kappa, k, i, h, K)
        assert t.Ai == pytest.approx(Ai, rel=1e-12, abs=1e-12)
        assert t.Bi == pytest.approx(Bi, rel=1e-12, abs=1e-12)
        assert t.Di == pytest.approx(Di, rel=1e-12, abs=1e-12)

    def test_k1_has_no_second_derivative_terms(self):
        # sum(h) = 0 and sigma_1 has no second derivatives, so A_i = B_i = 0;
        # reading sigma_{k-2} at index -1 once gave A_i = 12.76, B_i = 2.70
        kappa = np.array([5.0, 3.0, 2.0, 1.0, 0.5])
        t = eval_testfn_terms(kappa, 1, 2, np.array([1.0, -2.0, 0.5, 1.5, -1.0]), 10.0)
        assert t.Ai == 0.0
        assert t.Bi == 0.0

    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_k_out_of_range_rejected(self, k):
        with pytest.raises(InvalidInputError):
            eval_testfn_terms(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), k, 2, np.ones(5), 10.0)


class TestRhsAndGap:
    def test_variants_coincide_at_unit_kappa_i(self):
        kappa = np.ones(5)
        params = KeyParams.for_kappa(kappa, 3, 1, 1.0)
        a = rhs_combination(kappa, params, True).entries
        b = rhs_combination(kappa, params, False).entries
        assert np.allclose(a, b, rtol=1e-12)

    def test_gap_is_lhs_minus_rhs(self):
        rng = make_rng(14)
        X = sample_batch(rng, 10, 6, 4, 50.0)
        for row in X:
            params = KeyParams.for_kappa(row, 4, 2, 10.0)
            gap = lemma41_gap(row, params, True).entries
            assert np.array_equal(gap, gap.T)
            assert np.all(np.isfinite(gap))

    def test_doubling_K_shrinks_c(self):
        kappa = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        c1 = KeyParams.for_kappa(kappa, 3, 2, 10.0).c
        c2 = KeyParams.for_kappa(kappa, 3, 2, 20.0).c
        assert c2 < c1
        assert c2 == pytest.approx(c1 / 2, rel=0.05)

    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_level_out_of_range(self, k):
        kappa = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        params = KeyParams(k=k, i=1, K=1e3, c=0.5)  # built directly, not checked
        with pytest.raises(InvalidInputError, match=f"k={k} out of range"):
            key_matrix(kappa, params)
        for with_kappa_i_sq in (True, False):
            with pytest.raises(InvalidInputError, match=f"k={k} out of range"):
                rhs_combination(kappa, params, with_kappa_i_sq)
            with pytest.raises(InvalidInputError, match=f"k={k} out of range"):
                lemma41_gap(kappa, params, with_kappa_i_sq)
        with pytest.raises(InvalidInputError, match=f"k={k} out of range"):
            abcd_matrices(kappa, k, 1)


class TestMinEig:
    def test_identity(self):
        assert min_eig(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert min_eig(np.diag([3.0, -2.0, 5.0])) == pytest.approx(-2.0, abs=1e-12)

    def test_rank_one_gram(self):
        w = np.array([1.0, 2.0, 3.0])
        assert abs(min_eig(np.outer(w, w))) <= 1e-10 * 14.0

    def test_against_lapack_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(2, 9))
            A = rng.normal(size=(m, m))
            A = A + A.T
            ref = float(np.linalg.eigvalsh(A)[0])
            fro = float(np.linalg.norm(A))
            assert abs(min_eig(A) - ref) <= 1e-10 * max(fro, 1.0)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            min_eig(np.ones((2, 3)))
        with pytest.raises(InvalidInputError):
            min_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestDilationCovariance:
    def test_key_form_scales_by_degree(self):
        # each summand of the key form is homogeneous: the K-term has degree
        # 2k-1 (kappa_i times two gradient factors of degree k-1), every
        # other term degree k-1
        kappa = np.array([4.0, 3.9, 2.0, 1.0, 0.5])
        k, i, K = 3, 2, 10.0
        t = 2.0
        pa = KeyParams.for_kappa(kappa, k, i, K)
        pb = KeyParams.for_kappa(t * kappa, k, i, K)
        v = np.array([sigma_excl(k - 1, kappa, (j,)) for j in range(1, 6)])
        Ma = key_matrix(kappa, pa).entries
        Mb = key_matrix(t * kappa, pb).entries
        grad_term_a = K * kappa[i - 1] * np.outer(v, v)
        rest_a = Ma - grad_term_a
        vb = np.array([sigma_excl(k - 1, t * kappa, (j,)) for j in range(1, 6)])
        grad_term_b = K * t * kappa[i - 1] * np.outer(vb, vb)
        rest_b = Mb - grad_term_b
        assert np.allclose(grad_term_b, t ** (2 * k - 1) * grad_term_a, rtol=1e-12)
        assert np.allclose(rest_b, t ** (k - 1) * rest_a, rtol=1e-12)
