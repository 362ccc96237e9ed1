"""Acceptance gate: the seven top-level correctness and budget criteria.

Each test enforces both the mathematical outcome and the wall-clock budget
for one criterion.  Sample counts are the contract values; seeds are fixed
so failures are reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

from symcone import (
    SearchConfig,
    minimize_lambda,
    run_check,
    sigma,
)
from symcone.cli import main as cli_main
from symcone.registry import REGISTRY

from oracles import sigma_enum

SEED = 42

IDENTITY_IDS = (
    "L4_2_id1", "L4_2_id2", "L4_2_id3", "L4_2_id4", "L4_2_id5",
    "L5_1_identity", "L5_4_identity", "L5_5_identity",
)
INEQUALITY_IDS = (
    "newton", "maclaurin", "gen_newton",
    "L2_1_guan", "L2_2_theta", "L2_3_ratio", "L2_4a", "L2_4b",
    "L2_5_product", "L2_6_theta", "L5_8_sum",
)
PSD_IDS = ("L5_2_psd", "L5_3_psd", "L5_6_psd", "L5_7_psd", "D_gram", "A_psd", "B_psd")
ASYMPTOTIC_IDS = (
    "L3_2", "L3_4", "L6_1_ratio", "L6_2_bound", "L6_3_bound",
    "T6_1_s601", "T6_1_s602", "S7_case_key",
)

HEADLINE_NS = (5, 6, 7)
HEADLINE_KS = ("n-2", "n-1")
HEADLINE_K_CONSTS = (1e2, 1e3)
HEADLINE_KAPPA1S = (1e3, 1e4, 1e5)


def run_over_n(check_id, total_samples, n_top=9):
    """Split a total sample budget across the admissible n range of a check."""
    lo = max(3, REGISTRY[check_id].min_n)
    ns = list(range(lo, n_top + 1))
    per = math.ceil(total_samples / len(ns))
    return [run_check(check_id, n=n, samples=per, seed=SEED) for n in ns]


class TestCriterion1Identities:
    def test_identity_suite(self):
        start = time.monotonic()
        for cid in IDENTITY_IDS:
            for res in run_over_n(cid, 10_000):
                assert res.verdict == "PASS", (cid, res.n, res.min_slack)
                assert abs(res.min_slack) <= 1e-10
        # symfun facts: single-exclusion recursion and the two sum rules,
        # 10^4 random vectors spread over n in 3..9
        rng = np.random.default_rng(SEED)
        for _ in range(10_000 // 7):
            for n in range(3, 10):
                kappa = rng.normal(scale=4.0, size=n)
                k = int(rng.integers(1, n + 1))
                i = int(rng.integers(1, n + 1))
                sk = sigma(k, kappa)
                rest = np.delete(kappa, i - 1)
                rec = kappa[i - 1] * sigma(k - 1, rest) + sigma(k, rest)
                assert abs(sk - rec) <= 1e-10 * (1.0 + abs(sk))
                total = sum(sigma(k, np.delete(kappa, j - 1)) for j in range(1, n + 1))
                assert abs(total - (n - k) * sk) <= 1e-10 * (1.0 + abs(sk) + abs(total))
                weighted = sum(
                    kappa[j - 1] * sigma(k - 1, np.delete(kappa, j - 1)) for j in range(1, n + 1)
                )
                assert abs(weighted - k * sk) <= 1e-10 * (1.0 + abs(sk) + abs(weighted))
        # cross-validation against the subset-enumeration oracle
        for _ in range(200):
            n = int(rng.integers(3, 10))
            kappa = rng.normal(scale=3.0, size=n)
            k = int(rng.integers(0, n + 1))
            ref = sigma_enum(k, kappa)
            assert abs(sigma(k, kappa) - ref) <= 1e-12 * (1.0 + abs(ref))
        assert time.monotonic() - start < 60.0


class TestCriterion2Inequalities:
    def test_inequality_suite(self):
        start = time.monotonic()
        for cid in INEQUALITY_IDS:
            for res in run_over_n(cid, 10_000, n_top=8):
                assert res.verdict == "PASS", (cid, res.n, res.min_slack)
                assert res.min_slack >= -1e-10
        assert time.monotonic() - start < 120.0


class TestCriterion3Psd:
    def test_psd_suite(self):
        start = time.monotonic()
        for cid in PSD_IDS:
            for n in range(5, 9):
                res = run_check(cid, n=n, samples=1000, seed=SEED)
                assert res.verdict == "PASS", (cid, n, res.min_slack)
                assert res.min_slack >= -1e-8
        assert time.monotonic() - start < 120.0


class TestCriterion4Headline:
    def test_key_form_psd_on_all_cells(self):
        start = time.monotonic()
        for n in HEADLINE_NS:
            for kk in HEADLINE_KS:
                k = n - 2 if kk == "n-2" else n - 1
                for K in HEADLINE_K_CONSTS:
                    for kappa1 in HEADLINE_KAPPA1S:
                        res = run_check(
                            "C3_1_key", n=n, k=k, samples=10_000,
                            seed=SEED, kappa1=kappa1, K=K,
                        )
                        cell = (n, k, K, kappa1)
                        assert res.verdict == "THRESHOLD", (cell, res.verdict)
                        assert res.min_slack >= -1e-8, (cell, res.min_slack)
        # adversarial search: 50 restarts per (n, k), no robust negative
        for n in HEADLINE_NS:
            for k in (n - 2, n - 1):
                out = minimize_lambda(
                    SearchConfig(
                        n=n, k=k, K=1e3, kappa1=1e4,
                        restarts=50, maxiter=150, seed=SEED,
                    )
                )
                assert out.best is not None, (n, k)
                robustly_negative = (
                    out.best.value < -1e-8
                    and out.best.refined_value is not None
                    and out.best.refined_value < -1e-8
                )
                assert not robustly_negative, (n, k, out.best.value, out.best.refined_value)
        assert time.monotonic() - start < 600.0


class TestCriterion5MatrixInequality:
    def test_gap_psd_on_headline_cells(self):
        start = time.monotonic()
        reported = []
        for n in HEADLINE_NS:
            for kk in HEADLINE_KS:
                k = n - 2 if kk == "n-2" else n - 1
                for K in HEADLINE_K_CONSTS:
                    for kappa1 in HEADLINE_KAPPA1S:
                        cell = (n, k, K, kappa1)
                        res = run_check(
                            "L4_1_gap", n=n, k=k, samples=10_000,
                            seed=SEED, kappa1=kappa1, K=K,
                        )
                        assert res.verdict == "THRESHOLD", (cell, res.verdict)
                        assert res.min_slack >= -1e-8, (cell, res.min_slack)
                        # the other normalization of the right-hand side is a
                        # research output: recorded, not gated
                        alt = run_check(
                            "L4_1_gap_alt", n=n, k=k, samples=1000,
                            seed=SEED, kappa1=kappa1, K=K,
                        )
                        reported.append({"cell": cell, "verdict": alt.verdict,
                                         "min_slack": alt.min_slack})
        assert len(reported) == 36
        print("\nL4_1_gap_alt report:", json.dumps(reported, default=str)[:2000])
        assert time.monotonic() - start < 600.0


class TestCriterion6Asymptotics:
    def test_asymptotic_suite(self):
        start = time.monotonic()
        for cid in ASYMPTOTIC_IDS:
            for n in (5, 6):
                res = run_check(cid, n=n, samples=1000, seed=SEED)
                assert res.verdict == "THRESHOLD", (cid, n, res.verdict, res.details)
                assert res.kappa1_star is not None
                top = res.details["points"][-1]
                assert top["passed"], (cid, n, top)
        assert time.monotonic() - start < 600.0


class TestCriterion7Reproducibility:
    def test_run_check_bit_for_bit(self):
        picks = ["L4_2_id4", "newton", "L5_7_psd", "L3_4", "C3_1_key", "S7_case_key"]
        for cid in picks:
            a = run_check(cid, n=6, samples=500, seed=SEED)
            b = run_check(cid, n=6, samples=500, seed=SEED)
            assert a.min_slack == b.min_slack, cid  # bit-for-bit
            assert a.witness == b.witness, cid

    def test_cli_manifest_replay(self, tmp_path):
        first = tmp_path / "first.jsonl"
        args = [
            "verify", "--only", "newton,L5_1_identity,L5_6_psd,L3_2",
            "--n", "5..6", "--samples", "300", "--seed", "17",
        ]
        assert cli_main(args + ["--out", str(first)]) == 0
        with open(first) as fh:
            lines = [json.loads(line) for line in fh]
        manifest = lines[0]
        assert manifest["record"] == "manifest"
        # replay with the recorded options
        second = tmp_path / "second.jsonl"
        replay = [
            "verify", "--only", ",".join(manifest["checks"][: len(set(manifest["checks"]))]),
            "--n", "5..6", "--samples", str(manifest["samples"]),
            "--seed", str(manifest["seed"]), "--out", str(second),
        ]
        assert cli_main(replay) == 0
        with open(second) as fh:
            lines2 = [json.loads(line) for line in fh]
        res1 = [r for r in lines if r["record"] == "result"]
        res2 = [r for r in lines2 if r["record"] == "result"]
        assert [(r["id"], r["n"], r["min_slack"]) for r in res1] == [
            (r["id"], r["n"], r["min_slack"]) for r in res2
        ]
