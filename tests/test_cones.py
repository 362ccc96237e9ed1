"""Cone membership, constrained sampling, and normalization by homogeneity."""

import numpy as np
import pytest

from symcone import (
    InvalidInputError,
    RunContext,
    SamplingExhaustedError,
    SearchConfig,
    make_rng,
    sample_batch,
    sigma,
)
import symcone.cones as cones
from symcone.cones import classify_masks
from symcone.hypotheses import _sampler_bar

from oracles import in_gamma, sample_rows


def regime(n, k, kappa1, i):
    """The parameters P of `sample_batch` for the 1-based near-top index i."""
    return {"n": n, "k": k, "kappa1": kappa1, "i0": i - 1}


def draw_one(seed, n, k, kappa1, near_top_index):
    """One feasible vector from a fresh stream: `sample_batch` with count 1."""
    return sample_batch(regime(n, k, kappa1, near_top_index), make_rng(seed), 1)[0]


def normalize(kappa, k, target):
    """t * kappa with sigma_k(t * kappa) = target, t = (target / sigma_k)^(1/k)."""
    return np.asarray(kappa, dtype=float) * (target / sigma(k, kappa)) ** (1.0 / k)


class TestInGamma:
    def test_positive_cone_is_inside(self):
        assert in_gamma((1, 1, 1), 3)

    def test_boundary_point_open_vs_barred(self):
        kappa = (2, 2, -1)  # sigma_1 = 3, sigma_2 = 0
        assert not in_gamma(kappa, 2)
        assert in_gamma(kappa, 2, barred=True)

    def test_zero_sum_not_in_gamma1(self):
        assert not in_gamma((1, -1), 1)

    def test_bad_level(self):
        # a level above n is rejected by the request, before any sampling
        with pytest.raises(InvalidInputError):
            RunContext(n=3, k=4)

    def test_nesting(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(3, 8))
            kappa = rng.normal(scale=2.0, size=n) + 1.0
            for k in range(n, 0, -1):
                if in_gamma(kappa, k):
                    for m in range(1, k):
                        assert in_gamma(kappa, m)
                    break


class TestTailSum:
    # kappa_k + ... + kappa_n > 0 on Gamma_k (kappa sorted descending)

    def test_direct_sum(self):
        kappa = np.array([3.0, 1.0, 1.0])
        assert in_gamma(kappa, 2)
        assert float(np.sum(kappa[1:])) == 2.0

    def test_positive_entries(self):
        kappa = np.array([5.0, 4.0, 3.0])
        assert in_gamma(kappa, 3)
        assert float(np.sum(kappa[2:])) == 3.0

    def test_mixed_signs(self):
        kappa = np.array([5.0, 2.0, -1.0])
        assert in_gamma(kappa, 2)
        assert float(np.sum(kappa[1:])) == 1.0

    def test_positive_on_membership(self):
        rng = make_rng(1)
        X = sample_rows(rng, 100, 6, 4, 100.0)[0]
        assert np.all(X[:, 3:].sum(axis=1) > 0.0)


class TestNormalize:
    def test_scaling_up(self):
        out = normalize((1, 1, 1), 2, 12.0)
        assert np.allclose(out, (2, 2, 2), rtol=1e-12)

    def test_identity_target(self):
        kappa = np.array([3.0, 2.0, 1.0])
        s = sigma(2, kappa)
        assert np.allclose(normalize(kappa, 2, s), kappa, rtol=1e-12)

    def test_scaling_down(self):
        out = normalize((2, 2, 2), 3, 1.0)  # t = (1/8)^(1/3) = 0.5
        assert np.allclose(out, (1.0, 1.0, 1.0), rtol=1e-12)

    def test_membership_preserved(self):
        rng = make_rng(2)
        X = sample_rows(rng, 50, 5, 3, 50.0)[0]
        for row in X:
            out = normalize(row, 3, 7.0)
            assert abs(sigma(3, out) - 7.0) <= 1e-9 * 7.0
            assert in_gamma(out, 3)


class TestSampleGamma:
    def test_basic_draw(self):
        kappa = draw_one(7, 5, 3, 100.0, 2)
        assert in_gamma(kappa, 3)
        assert 99.0 <= kappa[0] <= 101.0
        assert np.all(np.diff(kappa) <= 0)

    def test_near_top_constraint(self):
        kappa = draw_one(3, 5, 3, 1e4, 2)
        assert kappa[1] > kappa[0] - np.sqrt(kappa[0]) / 5

    def test_sigma_range_constraint(self):
        kappa = draw_one(4, 6, 4, 1e3, 1)  # index 1 pins no entry
        assert 0.9 <= sigma(4, kappa) <= 10.1

    def test_determinism(self):
        a = draw_one(11, 5, 3, 100.0, 2)
        b = draw_one(11, 5, 3, 100.0, 2)
        assert np.array_equal(a, b)

    def test_invalid_spec(self):
        # a non-positive target scale is rejected by the request
        with pytest.raises(InvalidInputError):
            RunContext(n=5, k=3, kappa1=-1.0)
        with pytest.raises(InvalidInputError):
            SearchConfig(n=5, k=3, K=1e3, kappa1=-1.0)


class TestSampleBatch:
    def test_invariants_on_every_row(self):
        rng = make_rng(5)
        n, k = 6, 4
        X = sample_batch(regime(n, k, 1e3, 2), rng, 300)
        assert X.shape == (300, n)
        for row in X:
            assert in_gamma(row, k)
            assert np.all(np.diff(row) <= 0)
            # at most n - k non-positive entries
            assert int(np.sum(row <= 0)) <= n - k
            # negative entries are bounded by the top entry
            neg = row[row < 0]
            assert np.all(-neg < (n - k) * row[0] / k)

    def test_first_partials_positive(self):
        # d sigma_3 / d kappa_p = sigma_2(kappa|p)
        rng = make_rng(6)
        X = sample_batch(regime(5, 3, 100.0, 2), rng, 50)
        for row in X:
            for p in range(5):
                assert sigma(2, np.delete(row, p)) > 0.0

    def test_exhaustion_reports_counts(self, monkeypatch):
        rng = make_rng(7)
        monkeypatch.setattr(cones, "_REGIME_BUDGET", 2000)
        with pytest.raises(SamplingExhaustedError) as exc:
            # index n: the solved last entry, far below kappa_1, would have
            # to sit within sqrt(kappa_1)/n of the top
            sample_batch(regime(5, 3, 1e4, 5), rng, 10)
        assert exc.value.rejection_counts
        assert sum(exc.value.rejection_counts.values()) > 0

    @pytest.mark.parametrize("k", [1, 5])
    def test_level_outside_the_regime(self, k):
        # the last entry is solved through sigma_{k-1}: 2 <= k <= n-1, as in SearchConfig
        with pytest.raises(InvalidInputError, match=f"need 2 <= k <= n-1, got k={k}, n=5"):
            sample_batch(regime(5, k, 1e3, 2), make_rng(7), 10)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_cases_outside_level_n_minus_2(self, k):
        # the case regions are defined at k = n - 2 only; an empty tuple is any level
        with pytest.raises(InvalidInputError, match=f"k = n-2 only, got k={k}, n=6"):
            sample_batch(regime(6, k, 1e3, 2), make_rng(1), 5, cases=("A",))
        assert sample_batch(regime(6, k, 1e3, 2), make_rng(1), 5).shape == (5, 6)

    @pytest.mark.parametrize("cases", [("A",), ("B1", "B2"), ("A", "C")])
    def test_case_conditioning(self, cases):
        X = sample_batch(regime(6, 4, 1e3, 2), make_rng(8), 50, cases=cases)
        masks = classify_masks(X, 1)
        assert X.shape == (50, 6) and np.logical_or.reduce([masks[c] for c in cases]).all()


class TestSampleBarBatch:
    def test_barred_membership_with_boundary(self):
        rng = make_rng(9)
        m = 4
        X = _sampler_bar({"n": m}, rng, 200)
        hit_boundary = 0
        for row in X:
            assert in_gamma(row, m, barred=True)
            if sigma(m, row) == 0.0:
                hit_boundary += 1
        assert hit_boundary > 0  # explicit construction reaches the measure-zero boundary
