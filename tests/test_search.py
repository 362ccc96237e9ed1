"""Eigenvalue minimization and threshold location."""

from fractions import Fraction

import numpy as np
import pytest

from symcone import (
    ConeQuery,
    InvalidInputError,
    SearchConfig,
    in_gamma,
    key_matrix,
    KeyParams,
    minimize_lambda,
    threshold_bisect,
)
from symcone.quadforms import _relmin, key_matrix_batch


def small_cfg(**kw):
    base = dict(n=5, k=3, K=1e3, kappa1=1e3, restarts=8, maxiter=80, seed=3)
    base.update(kw)
    return SearchConfig(**base)


class TestMinimizeLambda:
    def test_proven_regime_finds_no_negative(self):
        res = minimize_lambda(small_cfg())
        assert res.best is not None
        assert res.restarts_used > 0
        assert res.evaluations > 0
        # normalized least eigenvalue stays above the PSD tolerance
        assert res.best.value >= -1e-8
        if res.best.value < 0.0:
            assert res.best.refined_value >= -1e-8

    def test_witness_feasible_and_consistent(self):
        res = minimize_lambda(small_cfg(seed=9))
        w = res.best
        kappa = np.array(w.kappa)
        assert in_gamma(ConeQuery(n=5, k=3), kappa)
        assert abs(kappa[0] - 1e3) <= 0.01 * 1e3
        assert kappa[1] > kappa[0] - np.sqrt(kappa[0]) / 5
        # the recorded value matches a fresh eigen-evaluation of the key form
        params = KeyParams.for_kappa(kappa, 3, 2, 1e3)
        M = key_matrix(kappa, params).entries
        fro = float(np.linalg.norm(M))
        lam = float(np.linalg.eigvalsh(M)[0]) / max(fro, 1e-300)
        assert abs(lam - w.value) <= 1e-10
        xi = np.array(w.xi)
        assert abs(xi @ M @ xi / max(fro, 1e-300) - w.value * float(xi @ xi)) <= 1e-9

    def test_refined_value_is_the_exact_key_matrix(self):
        cfg = small_cfg(kappa1=1e4, restarts=4, maxiter=150, seed=42)
        res = minimize_lambda(cfg)
        refined = [w for w in res.ranked if w.refined_value is not None]
        assert refined  # roundoff-negative end points exist on this cell
        for w in refined:
            F = np.array([[Fraction(v) for v in w.kappa]], dtype=object)
            M = key_matrix_batch(F, 3, cfg.i - 1, Fraction(cfg.K)).astype(float)
            assert w.refined_value == _relmin(M)[0]

    def test_deterministic(self):
        a = minimize_lambda(small_cfg(seed=4))
        b = minimize_lambda(small_cfg(seed=4))
        assert a.best.value == b.best.value
        assert a.best.kappa == b.best.kappa
        assert a.evaluations == b.evaluations

    def test_ranked_is_sorted_and_capped(self):
        res = minimize_lambda(small_cfg(restarts=15))
        values = [w.value for w in res.ranked]
        assert values == sorted(values)
        assert len(res.ranked) <= 10

    def test_invalid_level(self):
        with pytest.raises(InvalidInputError):
            minimize_lambda(SearchConfig(n=5, k=1)).config


class TestThresholdBisect:
    def test_already_passing_at_lo(self):
        res = threshold_bisect("L3_2", 5, lo=10.0, hi=1e5, samples=100, seed=0)
        assert res.all_pass
        assert not res.none_pass
        assert res.kappa1_star == 10.0
        assert res.history

    def test_unknown_check_propagates(self):
        with pytest.raises(InvalidInputError):
            threshold_bisect("no_such_check", 5)

    def test_bad_bracket(self):
        with pytest.raises(InvalidInputError):
            threshold_bisect("L3_2", 5, lo=100.0, hi=10.0)

    def test_history_records_probes(self):
        res = threshold_bisect("L6_1_ratio", 5, lo=10.0, hi=1e4, samples=100, seed=1)
        for rec in res.history:
            assert set(rec) == {"kappa1", "passed", "min_slack"}
        assert res.evaluations == len(res.history)
