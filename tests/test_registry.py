"""Named check catalog: verdicts, witnesses, determinism, case classifier."""

import numpy as np
import pytest

import symcone.registry as registry

from symcone import (
    ConeQuery,
    InvalidInputError,
    LemmaCheck,
    RunContext,
    classify_case,
    in_gamma,
    make_rng,
    registry_list,
    run_check,
    sample_batch,
    sigma,
    sigma_excl,
    witness_slack,
)

KINDS = {"IDENTITY", "INEQUALITY", "PSD", "ASYMPTOTIC"}


class TestCatalog:
    def test_size_and_uniqueness(self):
        checks = registry_list()
        ids = [c.id for c in checks]
        assert len(checks) >= 25
        assert len(set(ids)) == len(ids)

    def test_kinds_and_descriptions(self):
        for c in registry_list():
            assert c.kind in KINDS
            assert c.description.strip()
            assert c.min_n >= 3

    def test_expected_ids_present(self):
        ids = {c.id for c in registry_list()}
        expected = {
            "newton", "maclaurin", "gen_newton",
            "L2_1_guan", "L2_2_theta", "L2_3_ratio", "L2_4a", "L2_4b",
            "L2_5_product", "L2_6_theta",
            "L3_2", "L3_4", "L3_5_a", "L3_5_b",
            "L4_2_id1", "L4_2_id2", "L4_2_id3", "L4_2_id4", "L4_2_id5",
            "L5_1_identity", "L5_2_psd", "L5_3_psd", "L5_4_identity",
            "L5_5_identity", "L5_6_psd", "L5_7_psd", "L5_8_sum", "L5_9_lower",
            "L6_1_ratio", "L6_2_bound", "L6_3_bound", "L6_4_H",
            "T6_1_s601", "T6_1_s602", "T6_1_s615",
            "C3_1_key", "S7_case_key", "L4_1_gap", "L4_1_gap_alt",
            "D_gram", "A_psd", "B_psd",
        }
        assert expected <= ids


class TestRunCheck:
    def test_unknown_id(self):
        with pytest.raises(InvalidInputError):
            run_check("no_such_check", n=6)

    def test_n_below_minimum(self):
        with pytest.raises(InvalidInputError):
            run_check("S7_case_key", n=3)

    def test_newton_passes(self):
        res = run_check("newton", n=6, samples=2000, seed=0)
        assert res.verdict == "PASS"
        assert res.min_slack >= -1e-10
        assert res.samples >= 2000

    def test_identity_slack_is_machine_level(self):
        res = run_check("L5_1_identity", n=6, samples=2000, seed=0)
        assert res.verdict == "PASS"
        assert abs(res.min_slack) <= 1e-12

    def test_psd_check(self):
        res = run_check("D_gram", n=6, samples=500, seed=0)
        assert res.verdict == "PASS"
        assert res.min_slack >= -1e-8

    def test_asymptotic_structure(self):
        res = run_check("L3_2", n=5, samples=200, seed=0)
        assert res.verdict == "THRESHOLD"
        points = res.details["points"]
        grid = [p["kappa1"] for p in points]
        assert grid == sorted(grid)
        assert res.kappa1_star in grid
        # everything from the threshold upward passes
        idx = grid.index(res.kappa1_star)
        assert all(p["passed"] for p in points[idx:])

    def test_pinned_scale_runs_single_point(self):
        res = run_check("C3_1_key", n=5, samples=500, seed=0, kappa1=1e4, K=1e3)
        assert len(res.details["points"]) == 1
        assert res.verdict == "THRESHOLD"
        assert res.kappa1_star == 1e4

    def test_tolerance_override_can_fail_a_check(self):
        res = run_check("L4_2_id1", n=6, samples=500, seed=0, tol=0.0)
        assert res.verdict == "FAIL"


def _fill_rows(value):
    def rows(X, aux, P):
        return np.full(X.shape[0], value)

    return rows


class TestNonFiniteRows:
    """A check never passes on rows it could not evaluate."""

    def _register(self, monkeypatch, kind, rows):
        check = LemmaCheck(
            "test_local", kind, "test-local check with constant rows", "real", rows,
            lambda n, k: (None,),
        )
        monkeypatch.setitem(registry.REGISTRY, check.id, check)
        return check.id

    def test_all_nan_rows_are_error(self, monkeypatch):
        cid = self._register(monkeypatch, "INEQUALITY", _fill_rows(np.nan))
        res = run_check(cid, n=5, samples=300, seed=0)
        assert res.verdict == "ERROR"
        assert res.samples == 0
        assert res.details["nonfinite_rows"] == 300
        assert np.isnan(res.min_slack)

    def test_all_excluded_rows_are_error(self, monkeypatch):
        cid = self._register(monkeypatch, "INEQUALITY", _fill_rows(np.inf))
        res = run_check(cid, n=5, samples=300, seed=0)
        assert res.verdict == "ERROR"
        assert res.samples == 0
        assert res.details["nonfinite_rows"] == 0
        assert res.details["excluded_rows"] == 300
        assert res.witness is None

    def test_nan_among_passing_rows_is_error(self, monkeypatch):
        def rows(X, aux, P):
            return np.where(np.arange(X.shape[0]) % 2 == 0, 0.0, np.nan)

        cid = self._register(monkeypatch, "INEQUALITY", rows)
        res = run_check(cid, n=5, samples=300, seed=0)
        assert res.verdict == "ERROR"
        assert res.samples == 150
        assert res.details["nonfinite_rows"] == 150
        assert res.details["excluded_rows"] == 0
        assert res.min_slack == 0.0

    def test_asymptotic_nan_fails_every_point(self, monkeypatch):
        cid = self._register(monkeypatch, "ASYMPTOTIC", _fill_rows(np.nan))
        res = run_check(cid, n=5, samples=50, seed=0)
        assert res.verdict == "FAIL"
        assert res.kappa1_star is None
        assert not any(p["passed"] for p in res.details["points"])
        assert res.details["nonfinite_rows"] == 50 * len(res.details["points"])

    def test_asymptotic_excluded_rows_counted_per_point(self, monkeypatch):
        def rows(X, aux, P):
            return np.where(np.arange(X.shape[0]) % 2 == 0, 0.0, np.inf)

        cid = self._register(monkeypatch, "ASYMPTOTIC", rows)
        res = run_check(cid, n=5, samples=50, seed=0)
        assert res.verdict == "THRESHOLD"
        assert [p["excluded_rows"] for p in res.details["points"]] == [25] * len(res.details["points"])
        assert res.details["excluded_rows"] == 25 * len(res.details["points"])


class TestDeterminismAndWitness:
    @pytest.mark.parametrize(
        "check_id", ["newton", "L4_2_id2", "L5_6_psd", "S7_case_key", "L2_1_guan"]
    )
    def test_bitwise_reproducible(self, check_id):
        a = run_check(check_id, n=6, samples=300, seed=123)
        b = run_check(check_id, n=6, samples=300, seed=123)
        assert a.min_slack == b.min_slack  # bit-for-bit
        assert a.witness == b.witness

    def test_seed_changes_result(self):
        a = run_check("newton", n=6, samples=300, seed=1)
        b = run_check("newton", n=6, samples=300, seed=2)
        assert a.min_slack != b.min_slack

    @pytest.mark.parametrize(
        "check_id", ["newton", "maclaurin", "L4_2_id3", "L5_2_psd", "L6_4_H", "C3_1_key"]
    )
    def test_witness_reproduces_min_slack(self, check_id):
        res = run_check(check_id, n=6, samples=300, seed=5)
        assert res.witness is not None
        assert witness_slack(res.witness) == res.min_slack


class TestClassifyCase:
    def test_all_positive_is_c(self):
        label = classify_case(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), 2)
        assert label.primary == "C"

    def test_negative_tail_is_a(self):
        kappa = np.array([3.0, 2.9, 1.0, -0.1, -0.2])
        assert in_gamma(ConeQuery(n=5, k=3), kappa)
        label = classify_case(kappa, 2)
        assert label.primary == "A"

    def test_constructed_b2(self):
        # solve the last entry so sigma_3 equals product(top three)/(3 (n-2)),
        # which puts the sample inside the product-dominated region
        head = np.array([1.0, 0.99, 0.98, 1e-3])
        target = (1.0 * 0.99 * 0.98) / (3.0 * 3.0)
        a = sigma(3, head)
        b = sigma(2, head)
        y = (target - a) / b
        kappa = np.append(head, y)
        assert np.all(np.diff(kappa) <= 0)
        assert in_gamma(ConeQuery(n=5, k=3), kappa)
        assert kappa[3] > 0 > kappa[4]
        assert sigma_excl(3, kappa, (2,)) <= 0.0
        label = classify_case(kappa, 2)
        assert "B2" in label.labels

    def test_total_on_sampled_cone_points(self):
        rng = make_rng(20)
        X = sample_batch(rng, 200, 6, 4, 100.0)
        for row in X:
            label = classify_case(row, 2)
            assert label.primary in {"A", "B1", "B2", "B3", "C"}
            assert label.primary in label.labels

    def test_sign_cases_are_dilation_invariant(self):
        rng = make_rng(21)
        X = sample_batch(rng, 100, 5, 3, 50.0)
        for row in X:
            label = classify_case(row, 2)
            if label.primary in ("A", "C"):
                assert classify_case(3.0 * row, 2).primary == label.primary


class TestResultShape:
    def test_fields(self):
        res = run_check("maclaurin", n=5, samples=200, seed=0)
        assert res.id == "maclaurin"
        assert res.kind == "INEQUALITY"
        assert res.n == 5
        # checks swept over several levels report k per-level in details
        assert res.k is None and res.details["k_values"] == [2, 3, 4, 5]
        assert res.seed == 0
        assert res.verdict in {"PASS", "FAIL", "THRESHOLD", "ERROR"}

    def test_context_and_kwargs_are_exclusive(self):
        with pytest.raises(InvalidInputError):
            run_check("newton", RunContext(n=5), n=5)
