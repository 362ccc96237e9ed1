"""Cone membership, constrained sampling, and normalization."""

import numpy as np
import pytest

from symcone import (
    ConeQuery,
    ConeVariant,
    DomainError,
    InvalidInputError,
    SampleSpec,
    SamplingExhaustedError,
    in_gamma,
    make_rng,
    normalize_sigma_k,
    sample_batch,
    sample_gamma,
    sigma,
    tail_sum_check,
)
from symcone.cones import sample_bar_batch


class TestInGamma:
    def test_positive_cone_is_inside(self):
        assert in_gamma(ConeQuery(n=3, k=3), (1, 1, 1))

    def test_boundary_point_open_vs_barred(self):
        kappa = (2, 2, -1)  # sigma_1 = 3, sigma_2 = 0
        assert not in_gamma(ConeQuery(n=3, k=2), kappa)
        assert in_gamma(ConeQuery(n=3, k=2, variant=ConeVariant.BARRED), kappa)

    def test_zero_sum_not_in_gamma1(self):
        assert not in_gamma(ConeQuery(n=2, k=1), (1, -1))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            in_gamma(ConeQuery(n=4, k=2), (1, 2, 3))

    def test_bad_level(self):
        with pytest.raises(InvalidInputError):
            ConeQuery(n=3, k=4)

    def test_nesting(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(3, 8))
            kappa = rng.normal(scale=2.0, size=n) + 1.0
            for k in range(n, 0, -1):
                if in_gamma(ConeQuery(n=n, k=k), kappa):
                    for m in range(1, k):
                        assert in_gamma(ConeQuery(n=n, k=m), kappa)
                    break


class TestTailSum:
    def test_direct_sum(self):
        assert tail_sum_check(2, (3, 1, 1)) == 2.0

    def test_positive_entries(self):
        assert tail_sum_check(3, (5, 4, 3)) == 3.0

    def test_mixed_signs(self):
        assert tail_sum_check(2, (5, 2, -1)) == 1.0

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidInputError):
            tail_sum_check(2, (1, 3, 2))

    def test_positive_on_membership(self):
        rng = make_rng(1)
        X = sample_batch(rng, 100, 6, 4, 100.0)
        for row in X:
            assert tail_sum_check(4, row) > 0.0


class TestNormalize:
    def test_scaling_up(self):
        out = normalize_sigma_k((1, 1, 1), 2, 12.0)
        assert np.allclose(out, (2, 2, 2), rtol=1e-12)

    def test_identity_target(self):
        kappa = np.array([3.0, 2.0, 1.0])
        s = sigma(2, kappa)
        assert np.allclose(normalize_sigma_k(kappa, 2, s), kappa, rtol=1e-12)

    def test_scaling_down(self):
        out = normalize_sigma_k((2, 2, 2), 3, 1.0)  # t = (1/8)^(1/3) = 0.5
        assert np.allclose(out, (1.0, 1.0, 1.0), rtol=1e-12)

    def test_membership_preserved(self):
        rng = make_rng(2)
        X = sample_batch(rng, 50, 5, 3, 50.0)
        for row in X:
            out = normalize_sigma_k(row, 3, 7.0)
            assert abs(sigma(3, out) - 7.0) <= 1e-9 * 7.0
            assert in_gamma(ConeQuery(n=5, k=3), out)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DomainError):
            normalize_sigma_k((1, -1, 0), 2, 5.0)
        with pytest.raises(DomainError):
            normalize_sigma_k((1, 1, 1), 2, -3.0)


class TestSampleGamma:
    def test_basic_draw(self):
        kappa = sample_gamma(SampleSpec(n=5, k=3, kappa1_target=100.0, rng_seed=7))
        assert in_gamma(ConeQuery(n=5, k=3), kappa)
        assert 99.0 <= kappa[0] <= 101.0
        assert np.all(np.diff(kappa) <= 0)

    def test_near_top_constraint(self):
        spec = SampleSpec(n=5, k=3, kappa1_target=1e4, near_top_index=2, rng_seed=3)
        kappa = sample_gamma(spec)
        assert kappa[1] > kappa[0] - np.sqrt(kappa[0]) / 5

    def test_sigma_range_constraint(self):
        spec = SampleSpec(n=6, k=4, kappa1_target=1e3, sigma_k_range=(1.0, 10.0), rng_seed=4)
        kappa = sample_gamma(spec)
        assert 0.9 <= sigma(4, kappa) <= 10.1

    def test_determinism(self):
        spec = SampleSpec(n=5, k=3, kappa1_target=100.0, rng_seed=11)
        a = sample_gamma(spec)
        b = sample_gamma(spec)
        assert np.array_equal(a, b)

    def test_invalid_spec(self):
        with pytest.raises(InvalidInputError):
            SampleSpec(n=5, k=3, kappa1_target=-1.0)
        with pytest.raises(InvalidInputError):
            SampleSpec(n=5, k=3, kappa1_target=1.0, sigma_k_range=(0.0, 1.0))


class TestSampleBatch:
    def test_invariants_on_every_row(self):
        rng = make_rng(5)
        n, k = 6, 4
        X = sample_batch(rng, 300, n, k, 1e3)
        assert X.shape == (300, n)
        for row in X:
            assert in_gamma(ConeQuery(n=n, k=k), row)
            assert np.all(np.diff(row) <= 0)
            # at most n - k non-positive entries
            assert int(np.sum(row <= 0)) <= n - k
            # negative entries are bounded by the top entry
            neg = row[row < 0]
            assert np.all(-neg < (n - k) * row[0] / k)

    def test_first_partials_positive(self):
        from symcone import sigma_d1

        rng = make_rng(6)
        X = sample_batch(rng, 50, 5, 3, 100.0)
        for row in X:
            for p in range(1, 6):
                assert sigma_d1(3, row, p) > 0.0

    def test_exhaustion_reports_counts(self):
        rng = make_rng(7)
        with pytest.raises(SamplingExhaustedError) as exc:
            # sigma_k window far above what a kappa_1 = 1 box can reach
            # without breaking the descending order of the solved entry
            sample_batch(rng, 10, 5, 3, 1.0, sigma_k_range=(1e19, 1e19), max_attempts=2000)
        assert exc.value.rejection_counts
        assert sum(exc.value.rejection_counts.values()) > 0

    def test_predicate_filtering(self):
        rng = make_rng(8)
        pred = lambda XT, c: XT[-1] < 0.0  # the columns of XT are the rows
        X = sample_batch(rng, 50, 6, 4, 1e3, predicate=pred)
        assert np.all(X[:, -1] < 0.0)


class TestSampleBarBatch:
    def test_barred_membership_with_boundary(self):
        rng = make_rng(9)
        m = 4
        X = sample_bar_batch(rng, 200, m)
        hit_boundary = 0
        for row in X:
            assert in_gamma(ConeQuery(n=m, k=m, variant=ConeVariant.BARRED), row)
            if sigma(m, row) == 0.0:
                hit_boundary += 1
        assert hit_boundary > 0  # explicit construction reaches the measure-zero boundary
