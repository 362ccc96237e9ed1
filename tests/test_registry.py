"""Named check catalog: verdicts, witnesses, determinism, case classifier."""

import dataclasses
import hashlib
import json
import math
import os
import signal
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

import symcone.matrix_rows as matrix_rows
import symcone.quadforms as quadforms
import symcone.registry as registry
import symcone.symfun as symfun

from symcone import (
    DomainError,
    InvalidInputError,
    LemmaCheck,
    RunContext,
    classify_case,
    make_rng,
    registry_list,
    run_check,
    run_checks,
    sigma,
    witness_slack,
)
from symcone.cli import main as cli_main
from symcone.errors import SamplingExhaustedError
from symcone.quadforms import _relmin, key_matrix_batch
from symcone.symfun import batch_coeffs

from oracles import in_gamma, sample_rows

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

    @pytest.mark.parametrize("check_id", [c.id for c in registry_list()])
    def test_sampler_draws_rows_and_aux_is_declared(self, check_id):
        # A sampler returns its B rows and nothing else; `_draw` appends the
        # statement's declared auxiliary draws after them on the same stream.
        check = registry.REGISTRY[check_id]
        assert check.sampler in registry._SAMPLERS
        assert set(check.aux) <= set(registry._AUX)
        n = max(5, check.min_n)
        ctx = RunContext(n=n, samples=8, seed=1)
        levels, groups, Ks = registry._grid(check, ctx)
        P = registry._params(n, levels[0], ctx.i - 1, Ks, groups[-1])
        X = registry._SAMPLERS[check.sampler](P, make_rng(n), 8)
        assert type(X) is np.ndarray and X.shape == (8, n)
        drawn, aux = registry._draw(check, P, make_rng(n), 8)
        assert np.array_equal(drawn.view(np.uint64), X.view(np.uint64))
        assert list(aux) == list(check.aux) and all(len(v) == 8 for v in aux.values())

    def test_every_sampler_is_used(self):
        assert {c.sampler for c in registry_list()} == set(registry._SAMPLERS)


def _fraction_rows(rng, shape):
    num = rng.integers(-60, 61, shape)
    den = rng.integers(1, 12, shape)
    return np.vectorize(lambda a, b: Fraction(int(a), int(b)), otypes=[object])(num, den)


class TestExactIdentities:
    """Every identity row is a polynomial identity in kappa: on rational rows
    its residual, and so its slack, is exactly zero."""

    @pytest.mark.parametrize("cid", [c.id for c in registry_list() if c.kind == "IDENTITY"])
    def test_zero_slack_on_fractions(self, cid):
        check = registry.REGISTRY[cid]
        rng = np.random.default_rng(11)
        for n in range(max(3, check.min_n), 8):
            X = _fraction_rows(rng, (4, n))
            aux = {"K": _fraction_rows(rng, (4,))} if "K" in check.aux else {}
            for k in check.k_values(n):
                slack = check.rows(X, aux, {"n": n, "k": k})
                assert [s == 0 for s in slack] == [True] * 4, (n, k, slack)


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

    def test_key_rows_guard_is_sigma_k_minus_1_without_i(self):
        X = -np.sort(-np.random.default_rng(0).uniform(0.5, 3.0, size=(50, 5)), axis=1)
        k, i0 = 3, 1
        s_ii = batch_coeffs(np.delete(X, i0, axis=1))[:, k - 1]
        K = 1.0 / np.median(X[:, i0] * s_ii)  # about half the rows pass
        ok = K * X[:, i0] * s_ii > 1.0
        out = matrix_rows._rows_key(X, {}, {"k": k, "i0": i0, "K": (K,)})[0]
        assert 0 < ok.sum() < ok.size
        assert np.array_equal(np.isinf(out), ~ok)
        assert out[ok].tobytes() == _relmin(key_matrix_batch(X[ok], k, i0, K)[0]).tobytes()

    @pytest.mark.parametrize("i", [0, 6, 9])
    def test_near_top_index_out_of_range(self, i):
        with pytest.raises(InvalidInputError, match="need 1 <= i <= n"):
            RunContext(n=5, i=i)

    @pytest.mark.parametrize(
        "check_id", ["L5_1_identity", "L5_4_identity", "L5_5_identity", "newton", "L5_2_psd", "L5_3_psd"]
    )
    def test_level_free_check_ignores_k(self, check_id):
        pinned = run_check(check_id, n=5, k=3, samples=200, seed=0)
        assert _fields(pinned) == _fields(run_check(check_id, n=5, samples=200, seed=0))
        assert pinned.k is None and pinned.details["k_values"] == [None]

    @pytest.mark.parametrize(
        "check_id, n, own_k",
        [
            ("L5_8_sum", 6, 4),  # statements at level n - 2
            ("B_psd", 6, 4),
            ("L6_4_H", 6, 4),
            ("L6_1_ratio", 6, 4),
            ("L2_4a", 3, 2),  # statements whose range stops below n
            ("L2_4b", 4, 2),
            ("L5_9_lower", 6, 4),  # samplers that draw at level n - 2 only
            ("S7_case_key", 7, 5),
        ],
    )
    def test_level_outside_the_statement_keeps_its_own(self, check_id, n, own_k):
        pinned = run_check(check_id, n=n, k=3, samples=100, seed=0)
        assert _fields(pinned) == _fields(run_check(check_id, n=n, samples=100, seed=0))
        assert pinned.k == own_k and pinned.verdict in ("PASS", "THRESHOLD")

    @pytest.mark.parametrize(
        "check_id, n, k", [("L5_8_sum", 5, 3), ("maclaurin", 5, 3), ("L2_4a", 5, 4), ("C3_1_key", 5, 4), ("A_psd", 6, 3)]
    )
    def test_level_inside_the_statement_is_taken(self, check_id, n, k):
        res = run_check(check_id, n=n, k=k, samples=100, seed=0, kappa1=1e4, K=1e3)
        assert res.k == k and res.verdict in ("PASS", "THRESHOLD")

    @pytest.mark.parametrize("check_id", ["newton", "C3_1_key"])  # a fixed and an asymptotic check
    @pytest.mark.parametrize("k", [0, 9])
    def test_level_out_of_range(self, check_id, k):
        with pytest.raises(InvalidInputError, match=f"k={k} out of range"):
            run_check(check_id, n=5, k=k, samples=10)

    @pytest.mark.parametrize(
        "fields",
        [{"K": 0.0}, {"K": -1.0}, {"K": math.nan}, {"kappa1": 0.0}, {"kappa1": -5.0}, {"kappa1": math.nan},
         {"tol": math.nan}, {"tol": -1e-12}, {"psd_eps": math.nan}, {"psd_eps": math.inf}, {"K": math.inf},
         {"kappa1": math.inf}],
    )
    def test_invalid_scale_or_tolerance(self, fields):
        with pytest.raises(InvalidInputError, match=f"need (a finite )?{next(iter(fields))}"):
            RunContext(n=5, **fields)

    def test_tolerance_override_can_fail_a_check(self):
        res = run_check("L4_2_id1", n=6, samples=500, seed=0, tol=0.0)
        assert res.verdict == "FAIL"


def _fill_rows(value):
    def rows(X, aux, P):
        return np.full(X.shape[0], value)

    return rows


def _local_check(monkeypatch, kind, rows, sampler="real", k_values=lambda n: (None,), **fields):
    check = LemmaCheck("test_local", kind, "test-local check", sampler, rows, k_values, **fields)
    monkeypatch.setitem(registry.REGISTRY, check.id, check)
    return check.id


class TestNonFiniteRows:
    """A check never passes on rows it could not evaluate."""

    def test_all_nan_rows_are_error(self, monkeypatch):
        cid = _local_check(monkeypatch, "INEQUALITY", _fill_rows(np.nan))
        res = run_check(cid, n=5, samples=300, seed=0)
        assert res.verdict == "ERROR"
        assert res.samples == 0
        assert res.details["nonfinite_rows"] == 300
        assert np.isnan(res.min_slack)

    def test_all_excluded_rows_are_error(self, monkeypatch):
        cid = _local_check(monkeypatch, "INEQUALITY", _fill_rows(np.inf))
        res = run_check(cid, n=5, samples=300, seed=0)
        assert res.verdict == "ERROR"
        assert res.samples == 0
        assert res.details["nonfinite_rows"] == 0
        assert res.details["excluded_rows"] == 300
        assert res.witness is None

    def test_nan_among_passing_rows_is_error(self, monkeypatch):
        def rows(X, aux, P):
            return np.where(np.arange(X.shape[0]) % 2 == 0, 0.0, np.nan)

        cid = _local_check(monkeypatch, "INEQUALITY", rows)
        res = run_check(cid, n=5, samples=300, seed=0)
        assert res.verdict == "ERROR"
        assert res.samples == 150
        assert res.details["nonfinite_rows"] == 150
        assert res.details["excluded_rows"] == 0
        assert res.min_slack == 0.0

    def test_asymptotic_nan_fails_every_point(self, monkeypatch):
        # NaN rows at the top point make the sweep ERROR, as in a fixed check
        cid = _local_check(monkeypatch, "ASYMPTOTIC", _fill_rows(np.nan))
        res = run_check(cid, n=5, samples=50, seed=0)
        assert res.verdict == "ERROR"
        assert res.details["error"] == "50 rows gave a NaN slack"
        assert res.kappa1_star is None
        assert not any(p["passed"] for p in res.details["points"])
        assert res.details["nonfinite_rows"] == 50 * len(res.details["points"])

    def test_asymptotic_nan_below_the_top_fails_only_its_point(self, monkeypatch):
        def rows(X, aux, P):
            return np.full(X.shape[0], np.nan if P["kappa1"] == 10.0 else 0.0)

        cid = _local_check(monkeypatch, "ASYMPTOTIC", rows)
        res = run_check(cid, n=5, samples=50, seed=0)
        assert res.verdict == "THRESHOLD" and res.kappa1_star == 100.0
        assert [p["passed"] for p in res.details["points"]] == [False] + [True] * 5
        assert res.details["nonfinite_rows"] == 50

    def test_asymptotic_all_excluded_top_point_is_error(self, monkeypatch):
        cid = _local_check(monkeypatch, "ASYMPTOTIC", _fill_rows(np.inf))
        res = run_check(cid, n=5, samples=50, seed=0)
        assert res.verdict == "ERROR" and res.kappa1_star is None
        assert res.samples == 0 and np.isnan(res.min_slack)
        assert "no row was evaluated" in res.details["error"]
        assert res.details["excluded_rows"] == 50 * len(res.details["points"])

    def test_asymptotic_excluded_rows_counted_per_point(self, monkeypatch):
        def rows(X, aux, P):
            return np.where(np.arange(X.shape[0]) % 2 == 0, 0.0, np.inf)

        cid = _local_check(monkeypatch, "ASYMPTOTIC", rows)
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
        "check_id, samples",
        [pytest.param(c, 300, id=c) for c in ("newton", "maclaurin", "L4_2_id3", "L5_2_psd", "L6_4_H", "C3_1_key")]
        + [pytest.param("newton", 2 * registry._BLOCK + 1, id="newton-3-blocks")],  # tallies merged across blocks
    )
    def test_witness_reproduces_min_slack(self, check_id, samples):
        res = run_check(check_id, n=6, samples=samples, seed=5)
        assert res.witness is not None
        assert witness_slack(res.witness) == res.min_slack
        if res.kind != "ASYMPTOTIC":  # a fixed check here evaluates every row it draws
            assert res.samples == samples

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda w: w.pop("i"), id="no-i"),
            pytest.param(lambda w: w.pop("aux"), id="no-aux"),
            pytest.param(lambda w: w.pop("check"), id="no-check"),
            pytest.param(lambda w: w.update(check="nope"), id="unknown-check"),
            pytest.param(lambda w: w.update(kappa=[w["kappa"]] * 2), id="2d-kappa"),
            pytest.param(lambda w: w.update(kappa=[]), id="empty-kappa"),
            pytest.param(lambda w: w.update(i=len(w["kappa"]) + 1), id="i-above-n"),
        ],
    )
    def test_malformed_witness_is_invalid(self, edit):
        # Each edit leaves a witness no run records: without "i" a replay
        # would have to guess the near-top index, and the slack depends on it.
        witness = run_check("C3_1_key", n=5, samples=100, seed=1).witness
        assert witness_slack(witness) == witness["slack"]
        edit(witness)
        with pytest.raises(InvalidInputError):
            witness_slack(witness)

    def test_run_and_replay_see_the_same_params(self, monkeypatch):
        seen = {"run": set(), "replay": set()}
        phase = ["run"]
        for check in registry_list():

            def spy(X, aux, P, rows=check.rows):
                seen[phase[0]].add(frozenset(P))
                return rows(X, aux, P)

            monkeypatch.setitem(registry.REGISTRY, check.id, dataclasses.replace(check, rows=spy))
        ctx = RunContext(n=5, samples=8, seed=0)
        results = run_checks([(c.id, ctx) for c in registry_list()], jobs=1)
        phase[0] = "replay"
        replayed = [r for r in results if isinstance(r, registry.CheckResult) and r.witness is not None]
        assert len(replayed) > len(results) // 2
        for res in replayed:
            assert witness_slack(res.witness) == res.min_slack, res.id
        keys = frozenset({"n", "k", "i0", "K", "kappa1"})
        # a run also carries the tolerance of its eigensolve screen, which moves no minimum or witness
        assert seen == {"run": {keys | {"screen"}}, "replay": {keys}}


K_CHECKS = [c.id for c in registry_list() if c.uses_K]


class TestSweepGroups:
    """A sweep draws each kappa_1 group once and evaluates every K on its rows."""

    @staticmethod
    def digests(monkeypatch, check_id, ctx):
        """A digest of X for each (kappa_1, K) the check's rows see in a run."""
        check = next(c for c in registry_list() if c.id == check_id)
        seen = {}

        def spy(X, aux, P):
            for K in P["K"]:
                seen.setdefault((P["kappa1"], K), []).append(hashlib.sha256(X.tobytes()).hexdigest())
            return check.rows(X, aux, P)

        monkeypatch.setitem(registry.REGISTRY, check_id, dataclasses.replace(check, rows=spy))
        run_checks([(check_id, ctx)], jobs=1)
        return seen

    @pytest.mark.parametrize("check_id", K_CHECKS)
    def test_every_K_sees_the_rows_of_its_group(self, monkeypatch, check_id):
        ctx = RunContext(n=5, samples=40, seed=3)
        seen = self.digests(monkeypatch, check_id, ctx)
        assert sorted(seen) == sorted((g, K) for g in registry.ASYM_KAPPA1_GRID for K in registry.ASYM_K_GRID)
        for g in registry.ASYM_KAPPA1_GRID:
            assert all(seen[g, K] == seen[g, registry.ASYM_K_GRID[0]] for K in registry.ASYM_K_GRID)
        assert len({d for g in registry.ASYM_KAPPA1_GRID for d in seen[g, 1e1]}) == len(registry.ASYM_KAPPA1_GRID)
        # A run with K pinned to the first K of the grid draws the same rows.
        pinned = self.digests(monkeypatch, check_id, dataclasses.replace(ctx, K=1e1))
        assert pinned == {(g, 1e1): seen[g, 1e1] for g in registry.ASYM_KAPPA1_GRID}

    @pytest.mark.parametrize("check_id", K_CHECKS)
    def test_witness_reproduces_min_slack(self, check_id):
        res = run_check(check_id, n=5, samples=200, seed=5)
        assert res.witness is not None and res.witness["K"] in registry.ASYM_K_GRID
        assert witness_slack(res.witness) == res.min_slack

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("check_id", K_CHECKS)
    def test_grid_call_matches_per_K_calls(self, check_id, n):
        # The K axis keeps each K's bits: one call on the grid gives, row for
        # row, what a call at each K alone gives.
        check = registry.REGISTRY[check_id]
        P = registry._params(n, check.k_values(n)[0], 1, registry.ASYM_K_GRID, 1e3)
        X, aux = registry._draw(check, P, make_rng(n), 200)
        grid = check.rows(X, aux, P)
        assert grid.shape == (len(registry.ASYM_K_GRID), 200)
        for a, K in enumerate(registry.ASYM_K_GRID):
            one = check.rows(X, aux, dict(P, K=(K,)))
            assert np.array_equal(grid[a].view(np.uint64), one[0].view(np.uint64)), K
        assert np.isfinite(grid).any()

    def test_ties_go_to_the_earlier_block_then_K_then_row(self, monkeypatch):
        # Two blocks of four rows at three Ks, with the least slack 1 at
        # (block 0, K 1, row 2), (block 0, K 2, row 0) and (block 1, K 0, row 1):
        # the earlier block wins, and within it the earlier K before the earlier row.
        planted = iter([[[4, 4, 4, 4], [4, 4, 1, 4], [1, 4, 4, 4]], [[4, 1, 4, 4], [4, 4, 4, 4], [4, 4, 4, 4]]])
        drawn = []

        def rows(X, aux, P):
            drawn.append(X)
            return np.array(next(planted), dtype=float)

        check = LemmaCheck("test_local", "ASYMPTOTIC", "planted ties", "real", rows, lambda n: (3,), uses_K=True)
        monkeypatch.setattr(registry, "_BLOCK", 4)
        P = registry._params(5, 3, 1, (1e1, 1e2, 1e3), 1e3)
        tally = registry._eval_point(check, P, make_rng(0), 8)
        assert len(drawn) == 2
        assert (tally.best, tally.used, tally.nonfinite, tally.excluded) == (1.0, 24, 0, 0)
        assert (tally.witness["K"], tally.witness["slack"]) == (1e2, 1.0)
        assert tally.witness["kappa"] == drawn[0][2].tolist()

    @pytest.mark.parametrize("check_id", K_CHECKS)
    def test_one_rows_call_per_block(self, monkeypatch, check_id):
        # Each block goes through one rows call, which builds its K-free
        # tables once: as many calls as with K pinned.
        check = registry.REGISTRY[check_id]
        calls = {}

        def counted(key, fn):
            def spy(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return fn(*args, **kwargs)

            return spy

        monkeypatch.setitem(registry._SAMPLERS, check.sampler, counted("draw", registry._SAMPLERS[check.sampler]))
        monkeypatch.setitem(registry.REGISTRY, check_id, dataclasses.replace(check, rows=counted("rows", check.rows)))
        for module in (matrix_rows, quadforms):
            monkeypatch.setattr(module, "batch_excl1_table", counted("excl1", module.batch_excl1_table))
        ctx = RunContext(n=5, samples=registry._BLOCK + 10, seed=0, kappa1=1e3)  # one point, two blocks
        run_checks([(check_id, ctx)], jobs=1)
        per_block = 2 if check_id.startswith("L4_1_gap") else 1  # the gap's reduced forms take their own
        assert calls == {"draw": 2, "rows": 2, "excl1": 2 * per_block}
        grid = dict(calls)
        calls.clear()
        run_checks([(check_id, dataclasses.replace(ctx, K=1e1))], jobs=1)
        assert calls == grid


class TestTablesOncePerBlock:
    """A rows call computes each sigma table it reads once and solves all its
    forms in one eigensolve."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_no_repeated_table_and_one_eigensolve(self, monkeypatch, n):
        blocks, solves = [], []
        dp, relmin = symfun.batch_coeffs_t, matrix_rows._relmin

        def dp_spy(XT, top=None):
            blocks.append((XT.shape, XT.dtype.str, XT.tobytes()))
            return dp(XT, top)

        def relmin_spy(M):
            solves.append(M.shape)
            return relmin(M)

        monkeypatch.setattr(symfun, "batch_coeffs_t", dp_spy)
        monkeypatch.setattr(matrix_rows, "_relmin", relmin_spy)
        for check in registry_list():
            if n < check.min_n:
                continue
            ctx = RunContext(n=n, samples=64, seed=11)
            levels, groups, Ks = registry._grid(check, ctx)
            P = registry._params(n, levels[0], ctx.i - 1, Ks, groups[-1])
            X, aux = registry._draw(check, P, make_rng(n), 64)
            blocks.clear()
            solves.clear()
            check.rows(X, aux, P)
            assert len(set(blocks)) == len(blocks), f"{check.id}: a sigma table computed twice"
            assert len(solves) <= 1, f"{check.id}: {len(solves)} eigensolves"


class TestRowIndependence:
    """A row's slack does not depend on the other rows of its block: the
    slacks of a block are the slacks of its splits, bit for bit.

    n = 9 puts 8 terms in a sum over the entries but one, where numpy's
    pairwise summation starts; the lowest kappa_1 group spreads the weights
    that the top group's draws make nearly one-hot."""

    @pytest.mark.parametrize("n", [5, 6, 7, 9])
    @pytest.mark.parametrize("check_id", [c.id for c in registry_list()])
    def test_block_equals_its_splits(self, check_id, n):
        self._check(check_id, n, -1)

    @pytest.mark.parametrize("n", [5, 6, 7, 9])
    @pytest.mark.parametrize("check_id", [c.id for c in registry_list()])
    def test_block_equals_its_splits_at_the_lowest_kappa1(self, check_id, n):
        self._check(check_id, n, 0)

    @staticmethod
    def _check(check_id, n, group):
        check = registry.REGISTRY[check_id]
        ctx = RunContext(n=n, samples=64, seed=11)
        levels, groups, Ks = registry._grid(check, ctx)
        P = registry._params(n, levels[0], ctx.i - 1, Ks, groups[group])
        X, aux = registry._draw(check, P, make_rng(n), 64)
        whole = check.rows(X, aux, P)
        parts = [check.rows(X[a:b], {key: v[a:b] for key, v in aux.items()}, P) for a, b in ((0, 1), (1, 40), (40, 64))]
        assert np.array_equal(whole.view(np.uint64), np.concatenate(parts, axis=-1).view(np.uint64))


class TestScreenedRun:
    """A run's eigensolve screen moves no tally: `_eval_point` gives the same
    minimum, witness and row counts on the screened path as on the exact one."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("check_id", [c.id for c in registry_list() if c.psd_scaled])
    def test_screened_tally_is_exact(self, check_id, n):
        for seed in (1, 2, 3):
            for pt in registry._plan(check_id, RunContext(n=n, samples=300, seed=seed)):
                exact = {key: v for key, v in pt.P.items() if key != "screen"}
                assert pt.P["screen"] == registry.PSD_EPS
                screened = registry._eval_point(pt.check, pt.P, make_rng(pt.seed), pt.rows)
                assert screened == registry._eval_point(pt.check, exact, make_rng(pt.seed), pt.rows), (seed, pt.P)


class TestClassifyCase:
    @pytest.mark.parametrize(
        "kappa", [[np.inf, 1, 1, 1, 1], [5, 4, 3, 2, -np.inf], [5, 4, np.nan, 2, 1]], ids=["inf", "-inf", "nan"]
    )
    def test_non_finite_is_invalid(self, kappa):
        with pytest.raises(InvalidInputError, match="non-finite"):
            classify_case(np.array(kappa, dtype=float), 2)

    @pytest.mark.parametrize("i", [2.0, np.float64(2.0), True, None])
    def test_non_integer_index_is_invalid(self, i):
        with pytest.raises(InvalidInputError, match="i must be an integer"):
            classify_case(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), i)

    def test_numpy_integer_index(self):
        kappa = np.array([3.0, 2.9, 1.0, -0.1, -0.2])
        assert classify_case(kappa, np.int32(2)) == classify_case(kappa, 2)

    def test_all_positive_is_c(self):
        label = classify_case(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), 2)
        assert label.primary == "C"

    def test_negative_tail_is_a(self):
        kappa = np.array([3.0, 2.9, 1.0, -0.1, -0.2])
        assert in_gamma(kappa, 3)
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
        assert in_gamma(kappa, 3)
        assert kappa[3] > 0 > kappa[4]
        assert sigma(3, np.delete(kappa, 1)) <= 0.0
        label = classify_case(kappa, 2)
        assert "B2" in label.labels

    def test_total_on_sampled_cone_points(self):
        rng = make_rng(20)
        X = sample_rows(rng, 200, 6, 4, 100.0)[0]
        for row in X:
            label = classify_case(row, 2)
            assert label.primary in {"A", "B1", "B2", "B3", "C"}
            assert label.primary in label.labels

    def test_sign_cases_are_dilation_invariant(self):
        rng = make_rng(21)
        X = sample_rows(rng, 100, 5, 3, 50.0)[0]
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


def _fields(out):
    """Every field of a result, floats at full precision; an error by type and message."""
    if isinstance(out, Exception):
        return (type(out).__name__, str(out))
    return repr(dataclasses.asdict(out))


def assert_no_child_left():
    """This process has no child, running or zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _exhausting_sampler(monkeypatch, exhaust):
    """A sampler named "test_exhaust" that runs out of draws where `exhaust(P)` holds."""

    def sampler(P, rng, B):
        if exhaust(P):
            raise SamplingExhaustedError("test budget spent", {"test_constraint": 7})
        return rng.standard_normal((B, P["n"]))

    monkeypatch.setitem(registry._SAMPLERS, "test_exhaust", sampler)
    return "test_exhaust"


class TestWorkerCount:
    """Sweep points run on a pool of workers; results do not depend on how many."""

    def assert_same(self, requests):
        serial = run_checks(requests, jobs=1)
        parallel = run_checks(requests, jobs=2)
        assert [_fields(o) for o in parallel] == [_fields(o) for o in serial]
        return serial

    def test_catalog_checks(self):
        ctx = RunContext(n=5, samples=200, seed=3)
        out = self.assert_same(
            [("S7_case_key", ctx), ("C3_1_key", ctx), ("maclaurin", ctx), ("L6_4_H", ctx)]
        )
        assert len(out[0].details["K_grid"]) == 4 and out[0].details["points"]
        assert out[2].details["k_values"] == [2, 3, 4, 5]
        assert all(o.witness is not None for o in out)

    def test_closure_rows(self, monkeypatch):
        offset = -0.25

        def rows(X, aux, P):
            return np.where(np.arange(X.shape[0]) % 3 == 0, np.nan, X[:, 0] * 0.0 + offset)

        for kind, ks in (("INEQUALITY", (2, 3)), ("ASYMPTOTIC", (2,))):
            cid = _local_check(monkeypatch, kind, rows, k_values=lambda n, ks=ks: ks)
            (res,) = self.assert_same([(cid, RunContext(n=5, samples=60, seed=1))])
            assert res.min_slack == offset and res.details["nonfinite_rows"] > 0

    def test_points_run_in_workers(self, monkeypatch):
        parent = os.getpid()

        def rows(X, aux, P):
            if os.getpid() == parent:
                raise DomainError("evaluated in the parent process")
            return np.zeros(X.shape[0])

        request = (_local_check(monkeypatch, "ASYMPTOTIC", rows), RunContext(n=5, samples=20, seed=0))
        threads = threading.active_count()
        for _ in range(2):  # a thread left behind by the first call would keep the second in process
            assert run_checks([request], jobs=2)[0].verdict == "THRESHOLD"
            assert threading.active_count() == threads
            assert_no_child_left()
        assert "parent" in str(run_checks([request], jobs=1)[0])
        # No fork while another thread runs: the points stay in this process.
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(30,))
        other.start()
        try:
            assert "parent" in str(run_checks([request], jobs=2)[0])
        finally:
            stop.set()
            other.join(timeout=30)
        assert not other.is_alive()

    def test_one_job_starts_no_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("a child process was started")

        monkeypatch.setattr(os, "fork", no_fork)
        res = run_checks([("S7_case_key", RunContext(n=5, samples=40, seed=0))], jobs=1)[0]
        assert res.verdict == "THRESHOLD"

    def test_exhaustion_in_the_middle_of_the_plan(self, monkeypatch):
        sampler = _exhausting_sampler(monkeypatch, lambda P: P["k"] == 3 or P["kappa1"] == 1e3)
        zero = _fill_rows(0.0)
        fixed = LemmaCheck("test_fixed", "INEQUALITY", "exhausts at k=3", sampler, zero, lambda n: (2, 3, 4))
        sweep = LemmaCheck("test_sweep", "ASYMPTOTIC", "exhausts at kappa_1=1e3", sampler, zero, lambda n: (2,))
        for check in (fixed, sweep):
            monkeypatch.setitem(registry.REGISTRY, check.id, check)
        ctx = RunContext(n=5, samples=90, seed=2)
        a, b, c = self.assert_same([("newton", ctx), ("test_fixed", ctx), ("test_sweep", ctx)])
        assert a.verdict == "PASS"
        assert b.verdict == "ERROR" and b.samples == 30  # the k=2 rows before the exhausted k=3
        assert b.details["rejections"] == {"test_constraint": 7}
        assert c.verdict == "THRESHOLD" and c.kappa1_star == 1e4
        bad = [p for p in c.details["points"] if p["exhausted"] is not None]
        assert [p["kappa1"] for p in bad] == [1e3]
        assert bad[0]["rejections"] == {"test_constraint": 7}

    def test_sweep_group_exhausts_as_a_whole(self, monkeypatch):
        # At kappa_1 = 1e3 the second, partial block runs dry, after the first
        # block was evaluated at every K: the group still reports no row.
        def sampler(P, rng, B):
            if P["kappa1"] == 1e3 and B < registry._BLOCK:
                raise SamplingExhaustedError("test budget spent", {"test_constraint": 7})
            return rng.standard_normal((B, P["n"]))

        monkeypatch.setitem(registry._SAMPLERS, "test_exhaust", sampler)
        cid = _local_check(monkeypatch, "ASYMPTOTIC", _fill_rows(0.0), sampler="test_exhaust", uses_K=True)
        rows = registry._BLOCK + 20
        (res,) = self.assert_same([(cid, RunContext(n=5, samples=rows, seed=0))])
        assert res.verdict == "THRESHOLD" and res.kappa1_star == 1e4
        points = {p["kappa1"]: p for p in res.details["points"]}
        assert points[1e3]["samples"] == 0 and points[1e3]["exhausted"] is not None
        assert points[1e3]["rejections"] == {"test_constraint": 7}
        assert [p["samples"] for g, p in points.items() if g != 1e3] == [4 * rows] * 5
        assert res.samples == 5 * 4 * rows

    def test_sweep_exhausted_at_the_top_reports_why(self, monkeypatch):
        # An ERROR from a sweep whose top point ran dry carries the same
        # error and rejections keys as an exhausted fixed check.
        sampler = _exhausting_sampler(monkeypatch, lambda P: P["kappa1"] == registry.ASYM_KAPPA1_GRID[-1])
        cid = _local_check(monkeypatch, "ASYMPTOTIC", _fill_rows(0.0), sampler=sampler, uses_K=True)
        ctx = RunContext(n=5, samples=40, seed=0)
        (err,) = self.assert_same([(cid, ctx)])
        ok = run_check(cid, dataclasses.replace(ctx, kappa1=1e3))
        assert err.verdict == "ERROR" and err.kappa1_star is None and ok.verdict == "THRESHOLD"
        top = err.details["points"][-1]
        assert err.details["error"] == top["exhausted"] == "test budget spent"
        assert err.details["rejections"] == top["rejections"] == {"test_constraint": 7}
        assert set(err.details) == set(ok.details) | {"error", "rejections"}

    def test_domain_error_in_a_worker(self, monkeypatch, tmp_path):
        def rows(X, aux, P):
            if P["kappa1"] == 1e4:
                raise DomainError("test domain error at kappa_1=1e4")
            return np.zeros(X.shape[0])

        cid = _local_check(monkeypatch, "ASYMPTOTIC", rows)
        ctx = RunContext(n=5, samples=20, seed=0)
        err, ok = self.assert_same([(cid, ctx), ("newton", ctx)])
        assert isinstance(err, DomainError) and ok.verdict == "PASS"
        with pytest.raises(DomainError, match="kappa_1=1e4"):
            run_check(cid, ctx)
        out = tmp_path / "r.jsonl"
        argv = ["verify", "--only", f"{cid},newton", "--n", "5", "--samples", "20", "--jobs", "2", "--out", str(out)]
        assert cli_main(argv) == 2
        results = [r for r in map(json.loads, out.read_text().splitlines()) if r["record"] == "result"]
        assert results[0]["verdict"] == "ERROR" and "kappa_1=1e4" in results[0]["details"]["error"]
        assert results[1]["verdict"] == "PASS"

    def test_every_point_is_claimed_once(self, monkeypatch, tmp_path):
        log = tmp_path / "points.log"

        def rows(X, aux, P):
            with open(log, "a") as fh:  # one short O_APPEND write per point
                fh.write(f"{P['kappa1']:g} {' '.join(f'{K:g}' for K in P['K'])}\n")
            return np.zeros((len(P["K"]), X.shape[0]))

        cid = _local_check(monkeypatch, "ASYMPTOTIC", rows, uses_K=True)
        requests = [(cid, RunContext(n=5, samples=8, seed=s)) for s in range(10)]
        out = run_checks(requests, jobs=5)  # 60 fork items, each one rows call on the K grid; more workers than CPUs
        assert all(o.verdict == "THRESHOLD" for o in out)
        grid = " ".join(f"{K:g}" for K in registry.ASYM_K_GRID)
        points = [f"{g:g} {grid}" for g in registry.ASYM_KAPPA1_GRID]
        assert sorted(log.read_text().splitlines()) == sorted(points * 10)

    def test_worker_exit_is_an_error(self, monkeypatch):
        parent = os.getpid()

        def rows(X, aux, P):
            if os.getpid() != parent:
                if P["kappa1"] == 1e3:
                    os._exit(3)
                if P["kappa1"] == 1e6:
                    time.sleep(30)  # the other worker is still busy when the first one dies
            return np.zeros(X.shape[0])

        cid = _local_check(monkeypatch, "ASYMPTOTIC", rows)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with status 3"):
            run_checks([(cid, RunContext(n=5, samples=20, seed=0))], jobs=2)
        assert time.monotonic() - start < 10
        assert_no_child_left()

    def test_first_exception_in_plan_order_wins(self, monkeypatch):
        def rows(X, aux, P):
            if P["kappa1"] == 1e3:
                time.sleep(0.2)  # let the later point raise first at jobs=2
            if P["kappa1"] in (1e3, 1e5):
                raise ValueError(f"test error at kappa_1={P['kappa1']:g}")
            return np.zeros(X.shape[0])

        ctx = RunContext(n=5, samples=20, seed=0)
        requests = [("newton", ctx), (_local_check(monkeypatch, "ASYMPTOTIC", rows), ctx)]
        for jobs in (1, 2):
            with pytest.raises(ValueError, match=r"^test error at kappa_1=1000$") as info:
                run_checks(requests, jobs=jobs)
            assert not isinstance(info.value, registry.SymconeError)
        assert "in rows" in str(info.value.__cause__)  # the worker's traceback
        assert_no_child_left()

    def test_interrupt_kills_and_reaps_the_workers(self, monkeypatch):
        parent = os.getpid()

        def rows(X, aux, P):
            if os.getpid() != parent:
                if P["kappa1"] == 1e1:
                    time.sleep(0.5)  # a signal during os.fork's own hooks would be swallowed there
                    os.kill(parent, signal.SIGUSR1)
                time.sleep(30)
            return np.zeros(X.shape[0])

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        cid = _local_check(monkeypatch, "ASYMPTOTIC", rows)
        previous = signal.signal(signal.SIGUSR1, interrupt)
        try:
            start = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                run_checks([(cid, RunContext(n=5, samples=20, seed=0))], jobs=2)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert time.monotonic() - start < 10
        assert_no_child_left()

    def test_interrupt_during_fork_is_not_lost(self, monkeypatch):
        armed = [os.getpid()]

        def interrupt_parent():
            if armed and os.getpid() == armed[0]:
                armed.clear()
                os.kill(os.getpid(), signal.SIGINT)

        def rows(X, aux, P):
            time.sleep(1.0)
            return np.zeros(X.shape[0])

        cid = _local_check(monkeypatch, "ASYMPTOTIC", rows)  # six points, about 1 s each
        os.register_at_fork(before=interrupt_parent)  # cannot be unregistered: it fires once
        try:
            start = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                run_checks([(cid, RunContext(n=5, samples=20, seed=0))], jobs=2)
            assert time.monotonic() - start < 1.0
        finally:
            armed.clear()
        assert_no_child_left()

    def test_invalid_jobs(self):
        for jobs in (0, -3):
            with pytest.raises(InvalidInputError):
                run_checks([("newton", RunContext(n=5, samples=10))], jobs=jobs)


class TestExhaustedFixedResult:
    """An exhausted fixed check reports the same fields as its other results."""

    @pytest.mark.parametrize("ks", [(3,), (2, 3)], ids=["single-k", "multi-k"])
    def test_fields(self, monkeypatch, ks):
        sampler = _exhausting_sampler(monkeypatch, lambda P: P["k"] == 3)
        k_values = lambda n: ks
        cid = _local_check(monkeypatch, "INEQUALITY", _fill_rows(0.0), sampler=sampler, k_values=k_values)
        err = run_check(cid, n=5, samples=40, seed=0)
        ok = run_check(cid, n=5, samples=40, seed=0, k=2)
        assert err.verdict == "ERROR"
        assert err.k == (3 if len(ks) == 1 else None)
        assert set(err.details) == set(ok.details) | {"error", "rejections"}
        assert err.details["k_values"] == list(ks) and err.details["rejections"] == {"test_constraint": 7}
