"""Eigenvalue minimization and threshold location."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import symcone
from symcone import registry, search

from symcone import (
    InvalidInputError,
    SearchConfig,
    minimize_lambda,
    threshold_bisect,
)
from symcone.cones import SIGMA_RANGE_NOISE_FACTOR, make_rng, sample_batch
from symcone.hypotheses import _SAMPLERS
from symcone.quadforms import _relmin, key_matrix_batch, key_matrix_from_parts
from symcone.symfun import batch_coeffs, batch_excl1_table, batch_excl2_table

from oracles import in_gamma


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
        assert in_gamma(kappa, 3)
        assert abs(kappa[0] - 1e3) <= 0.01 * 1e3
        assert kappa[1] > kappa[0] - np.sqrt(kappa[0]) / 5
        # the recorded value matches a fresh eigen-evaluation of the key form
        M = key_matrix_batch(kappa[None], 3, 1, 1e3)[0][0]
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
            M = key_matrix_batch(F, 3, cfg.i - 1, Fraction(cfg.K))[0].astype(float)
            assert w.refined_value == _relmin(M)[0]

    @pytest.mark.parametrize("K", [1e3, 0.1])  # 0.1 has the denominator 2**55
    @pytest.mark.parametrize("n", range(5, 10))
    def test_exact_key_on_integers_is_the_fraction_builder(self, n, K):
        # The integer-scaled builder against the Fraction one, on start
        # points and on a row whose entries span 1e4 down to 1e-300.
        for k in (n - 2, n - 1):
            cfg = SearchConfig(n=n, k=k, K=K, kappa1=1e4, restarts=2, seed=n)
            U0, target = search._starts(cfg, k)
            kap, _, _ = search._assemble(U0, cfg, k, target)
            wide = [1e4, 9999.5, 3.0, -2.5, 1e-300, 0.1, 7.0, -0.0, 1.0 / 3.0][:n]
            for row in [*kap.tolist(), wide]:
                F = np.array([[Fraction(v) for v in row]], dtype=object)
                want = key_matrix_batch(F, k, cfg.i - 1, Fraction(K))[0].astype(float)
                assert np.array_equal(search._exact_key(row, cfg, k).view(np.uint64), want.view(np.uint64))

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

    @pytest.mark.parametrize(
        "kw",
        [
            dict(i=0),
            dict(i=6),
            dict(restarts=0),
            dict(kappa1=-5.0),
            dict(kappa1=math.nan),
            dict(K=-1.0),
            dict(K=0.0),
            dict(K=math.nan),
            dict(maxiter=0),
            dict(maxiter=-4),
        ],
    )
    def test_invalid_config(self, kw):
        with pytest.raises(InvalidInputError):
            SearchConfig(n=5, **kw)

    def test_runs_account_for_every_restart(self):
        # seed 0 draws a start that is infeasible on the slice
        res = minimize_lambda(small_cfg(seed=0, restarts=6))
        assert len(res.runs) == 6
        assert sum(r.nfev for r in res.runs) == res.evaluations
        ended = [r for r in res.runs if r.status in ("converged", "maxiter")]
        assert len(ended) == res.restarts_used
        assert sorted(r.value for r in ended)[: len(res.ranked)] == [w.value for w in res.ranked]
        starts = [r for r in res.runs if not r.start_feasible]
        assert starts and all(r.status == "infeasible_start" and r.nfev == 1 and r.nit == 0 for r in starts)
        assert all(r.value is None for r in starts)
        # A feasible start ends feasible, with the engine's value: the key
        # form at the end point, bit for bit.
        assert len(ended) == len(res.runs) - len(starts)
        for w in res.ranked:
            assert w.value == _relmin(key_matrix_batch(np.array([w.kappa]), 3, 1, 1e3)[0])[0]

    def test_objective_accounting(self):
        cfg = small_cfg(seed=0, restarts=6)
        counted = []
        real = search._objective

        def spy(U, *args):
            counted.append(len(U))
            return real(U, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_objective", spy)
            res = minimize_lambda(cfg)
        assert (res.objective_calls, res.objective_rows) == (len(counted), sum(counted))
        assert res.objective_rows > res.evaluations  # the unused speculative points


def _objective_of(cfg):
    """The search objective on the start points of cfg, for the engine."""
    k = cfg.resolved_k()
    U0, target = search._starts(cfg, k)
    return U0, (lambda U, r: search._objective(U, cfg, k, target[r]))


def _walled_rosenbrock(U, r):
    """A Rosenbrock valley per problem r, +inf outside a ball, with +inf
    starts and ties for the tie order of the sort."""
    shift = 0.1 * r[:, None]
    V = U - shift
    f = np.sum(100.0 * (V[:, 1:] - V[:, :-1] ** 2) ** 2 + (1.0 - V[:, :-1]) ** 2, axis=1)
    return np.where(np.sum(V * V, axis=1) < 6.0, np.round(f, 3), np.inf)


_CELLS = [
    small_cfg(seed=3),
    small_cfg(seed=0, restarts=6),
    SearchConfig(n=6, k=5, K=1e3, kappa1=1e4, restarts=4, maxiter=150, seed=42),
    SearchConfig(n=7, k=5, K=1e3, kappa1=1e4, restarts=3, maxiter=150, seed=7),
]


class TestLockstepNelderMead:
    @pytest.mark.parametrize("cfg", _CELLS, ids=lambda c: f"n{c.n}k{c.k}s{c.seed}")
    def test_matches_scipy_per_restart(self, cfg):
        optimize = pytest.importorskip("scipy.optimize")
        U0, f = _objective_of(cfg)
        opts = {"maxiter": cfg.maxiter, "xatol": 1e-10 * cfg.kappa1, "fatol": 1e-14}
        x, fx, nit, nfev, converged = search._nelder_mead(f, U0, cfg.maxiter, opts["xatol"], opts["fatol"])
        runs = minimize_lambda(cfg).runs
        for r in range(cfg.restarts):  # infeasible starts included: an all-+inf simplex
            with np.errstate(invalid="ignore"):  # scipy's stopping test sees inf - inf too
                ref = optimize.minimize(
                    lambda u: float(f(u[None, :], np.array([r]))[0]), U0[r], method="Nelder-Mead", options=opts
                )
            assert x[r].tobytes() == ref.x.tobytes()
            assert fx[r] == ref.fun
            assert (nit[r], nfev[r], converged[r]) == (ref.nit, ref.nfev, ref.status == 0)
            if runs[r].start_feasible:
                assert (runs[r].nit, runs[r].nfev) == (ref.nit, ref.nfev + 1)
                assert runs[r].status == ("converged" if ref.status == 0 else "maxiter")
                assert runs[r].value == ref.fun

    @pytest.mark.parametrize("N", [1, 2, 4, 9, 20])
    def test_matches_scipy_on_walled_valley(self, N):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(N)
        X0 = rng.uniform(-1.5, 1.5, size=(6, N))
        X0[0] = 0.0  # zero coordinates take the zdelt step
        X0[1] = 3.0  # outside the wall: every vertex is +inf
        opts = {"maxiter": 120, "xatol": 1e-8, "fatol": 1e-10}
        x, fx, nit, nfev, converged = search._nelder_mead(_walled_rosenbrock, X0, 120, opts["xatol"], opts["fatol"])
        for r in range(6):
            with np.errstate(invalid="ignore"):
                ref = optimize.minimize(
                    lambda u: float(_walled_rosenbrock(u[None, :], np.array([r]))[0]),
                    X0[r],
                    method="Nelder-Mead",
                    options=opts,
                )
            assert x[r].tobytes() == ref.x.tobytes()
            assert fx[r] == ref.fun
            assert (nit[r], nfev[r], converged[r]) == (ref.nit, ref.nfev, ref.status == 0)

    def test_lockstep_equals_each_start_alone(self):
        cfg = small_cfg(seed=0, restarts=6)
        U0, f = _objective_of(cfg)
        tol = (1e-10 * cfg.kappa1, 1e-14)
        together = search._nelder_mead(f, U0, cfg.maxiter, *tol)
        for r in range(cfg.restarts):
            alone = search._nelder_mead(lambda U, _r: f(U, np.full(len(U), r)), U0[r : r + 1], cfg.maxiter, *tol)
            assert together[0][r].tobytes() == alone[0][0].tobytes()
            assert [a[r] for a in together[1:]] == [a[0] for a in alone[1:]]

    def test_batch_count_per_step(self):
        # One call for the first simplices; then per step one call on the
        # four candidate points of every active problem, and a second call
        # only on the N shrunk vertices of the problems that shrink.  With
        # N in {2, 3} a shrink call cannot look like the next step's call.
        valley = np.random.default_rng(2).uniform(-1.5, 1.5, size=(6, 2))
        valley[1] = 3.0  # an all-+inf simplex
        cfg = small_cfg(restarts=8)
        U0, f = _objective_of(cfg)
        for X0, func, args in (
            (valley, _walled_rosenbrock, (120, 1e-8, 1e-10)),
            (U0, f, (cfg.maxiter, 1e-10 * cfg.kappa1, 1e-14)),
        ):
            self._check_step_calls(X0, func, args)

    @staticmethod
    def _check_step_calls(X0, func, args):
        R, N = X0.shape
        calls = []

        def counted(U, r):
            calls.append(r.copy())
            return func(U, r)

        _, _, nit, nfev, _ = search._nelder_mead(counted, X0, *args)
        assert np.array_equal(calls[0], np.repeat(np.arange(R), N + 1))
        steps, shrink_calls, shrunk, j = 0, 0, np.zeros(R, dtype=int), 1
        while j < len(calls):
            steps += 1
            active = np.flatnonzero(nit > steps)  # a problem stopped at nit = m made m - 1 steps
            assert np.array_equal(calls[j], np.tile(active, 4))
            j += 1
            if j < len(calls) and not np.array_equal(calls[j], np.tile(np.flatnonzero(nit > steps + 1), 4)):
                sh = calls[j][::N]
                assert sh.size and np.isin(sh, active).all()
                assert np.array_equal(calls[j], np.repeat(sh, N))
                shrunk[sh] += 1
                shrink_calls += 1
                j += 1
        assert steps == nit.max() - 1
        assert shrink_calls > 0
        assert len(calls) == 1 + steps + shrink_calls <= 1 + 2 * (nit.max() - 1)
        assert sum(len(c) for c in calls) == (N + 1) * R + 4 * (nit - 1).sum() + N * shrunk.sum()
        # scipy's count per problem: the reflection, a second point unless
        # the reflection is accepted, and the shrunk vertices
        seconds = nfev - (N + 1) - (nit - 1) - N * shrunk
        assert np.all((0 <= seconds) & (seconds <= nit - 1))


@np.errstate(all="ignore")
def _assemble_row(u, cfg, k, target):
    """One row of the slice map, one test after another: (reason, kappa)."""
    n = cfg.n
    kap = np.empty(n)
    kap[0] = cfg.kappa1
    kap[1 : n - 1] = u
    c = batch_coeffs(kap[None, : n - 1])[0]
    if not c[k - 1] > 0:
        return "denominator", None
    kap[n - 1] = (target - c[k]) / c[k - 1]
    if not np.all(np.isfinite(kap)):
        return "non-finite", None
    if np.any(kap[1:] > kap[0]):
        return "top entry", None
    if kap[cfg.i - 1] <= kap[0] - math.sqrt(kap[0]) / n:
        return "near top", None
    c = batch_coeffs(kap[None, :])[0]
    if not np.all(c[1:k] > 0.0):
        return "cone", None
    noise = SIGMA_RANGE_NOISE_FACTOR * np.finfo(float).eps * batch_coeffs(np.abs(kap)[None, :])[0][k]
    if not c[k] > -noise:
        return "sigma_k", None
    s_ii = batch_coeffs(np.delete(kap, cfg.i - 1)[None, :])[0][k - 1]
    if not cfg.K * kap[cfg.i - 1] * s_ii > 1.0:
        return "K", None
    return "feasible", kap


class TestAssemble:
    def test_batch_equals_rowwise(self):
        cfg = small_cfg()
        U0, target = search._starts(cfg, 3)
        s, p = -8000.0, 1.0 - 999000.0 + 1999.0 * 8000.0  # sigma_2 of the first four is 1, sigma_1 < 0
        d = math.sqrt(s * s - 4.0 * p)
        _, kap0 = _assemble_row(U0[0], cfg, 3, target[0])
        margin = SIGMA_RANGE_NOISE_FACTOR * np.finfo(float).eps * batch_coeffs(np.abs(kap0)[None, :])[0, 3]
        rows = [
            (U0[0], target[0]),
            (U0[1], target[1]),
            (U0[0], -0.25 * margin),  # sigma_k <= 0, feasible only through the noise margin
            (np.zeros(3), 2.0),
            (np.array([999.0, np.nan, 1.0]), 2.0),
            (np.array([999.0, 1e300, 1e300]), 2.0),
            (np.array([999.0, 1500.0, 1.0]), 2.0),
            (np.array([900.0, 1.0, 1.0]), 2.0),
            (np.array([999.0, (s + d) / 2.0, (s - d) / 2.0]), 2.0),
            (U0[0], -5.0),
        ]
        U = np.array([u for u, _ in rows])
        t = np.array([tt for _, tt in rows])
        seen = set()
        reason, ref = _assemble_row(rows[2][0], cfg, 3, rows[2][1])
        assert reason == "feasible" and batch_coeffs(ref[None, :])[0, 3] <= 0.0
        K_edge = 2.0 / (kap0[1] * batch_coeffs(np.delete(kap0, 1)[None, :])[0, 2])  # row 0 passes by a factor 2
        for c in (cfg, small_cfg(K=1e-9), small_cfg(K=K_edge)):
            kap, ok, (v, S) = search._assemble(U, c, 3, t)
            with np.errstate(all="ignore"):  # both tables, the nan, overflow and zero-denominator rows included
                assert v.tobytes() == np.ascontiguousarray(batch_excl1_table(kap)[:, :, 2]).tobytes()
                assert S.tobytes() == batch_excl2_table(kap, (1,))[1].tobytes()
            for j, (u, tt) in enumerate(rows):
                reason, ref = _assemble_row(u, c, 3, tt)
                seen.add(reason)
                assert ok[j] == (reason == "feasible"), reason
                if ok[j]:
                    assert kap[j].tobytes() == ref.tobytes()
        assert seen == {"feasible", "denominator", "non-finite", "top entry", "near top", "cone", "sigma_k", "K"}

    @pytest.mark.parametrize("n", range(3, 10))
    def test_objective_is_the_registry_kernel(self, n):
        # Start points, perturbed and far-off start points, random rows off
        # the slice, and start points retargeted to sigma_k < 0 so that only
        # the noise margin admits them.  At k = 2 the pair order is 0; at
        # n = 3 the one pair of the first n - 1 entries removes both.
        margin_only = 0
        for k in range(2, n):
            for i in sorted({1, 2, n - 1}):
                cfg = SearchConfig(n=n, k=k, K=1e3, kappa1=1e4, i=i, restarts=4, seed=n)
                U0, target = search._starts(cfg, k)
                kap0, _, _ = search._assemble(U0, cfg, k, target)
                margin = SIGMA_RANGE_NOISE_FACTOR * np.finfo(float).eps * batch_coeffs(np.abs(kap0))[:, k]
                rng = np.random.default_rng(k)
                jitter = [U0 * (1 + eps * rng.standard_normal(U0.shape)) for eps in (1e-3, 0.3)]
                U = np.concatenate([U0, *jitter, rng.uniform(-2e4, 2e4, U0.shape), U0])
                t = np.concatenate([target, target, target, target, -0.25 * margin])
                f = search._objective(U, cfg, k, t)
                ref = [_assemble_row(u, cfg, k, tt) for u, tt in zip(U, t)]
                ok = np.array([reason == "feasible" for reason, _ in ref])
                assert np.array_equal(f == np.inf, ~ok)
                X = np.array([kap for _, kap in ref if kap is not None])
                want = _relmin(key_matrix_batch(X, k, i - 1, cfg.K)[0])
                assert f[ok].tobytes() == want.tobytes()
                margin_only += int((batch_coeffs(X)[:, k] <= 0.0).sum())
        assert margin_only > 0

    def test_objective_rows_are_independent(self):
        # A row's value does not depend on the other rows of its call: the
        # engine evaluates every restart's points in one call, and the search
        # reports the engine's values.  At K = 1e133 the key form of start 3
        # has an overflowing Frobenius norm (the rescaled path of `_relmin`),
        # and a NaN row is infeasible (the masked path of `_objective`).
        cfg = SearchConfig(n=5, k=3, K=1e133, kappa1=1e4, restarts=12, seed=3)
        U0, target = search._starts(cfg, 3)
        kap, ok, (v, S) = search._assemble(U0, cfg, 3, target)
        M = key_matrix_from_parts(kap, v, S, cfg.i - 1, cfg.K)
        with np.errstate(over="ignore"):
            big = np.isinf(np.sqrt(np.sum(M * M, axis=(1, 2))))
        assert ok.all() and np.flatnonzero(big).tolist() == [3]
        plain = np.flatnonzero(~big)

        def f(rows, extra=np.empty((0, 3)), t_extra=np.empty(0)):
            return search._objective(np.concatenate([extra, U0[rows]]), cfg, 3, np.r_[t_extra, target[rows]])

        alone = f(plain)
        with_infeasible = f(plain, np.array([[999.0, np.nan, 1.0]]), np.array([2.0]))
        everything = f(np.arange(12))
        assert np.isfinite(everything).all() and with_infeasible[0] == np.inf
        assert with_infeasible[1:].tobytes() == alone.tobytes() == everything[plain].tobytes()
        assert f(np.arange(12)[::-1])[::-1].tobytes() == everything.tobytes()
        assert f([3]).tobytes() == everything[3:4].tobytes()

    def test_objective_is_inf_exactly_where_infeasible(self):
        cfg = small_cfg(seed=0, restarts=6)
        U0, target = search._starts(cfg, 3)
        _, ok, _ = search._assemble(U0, cfg, 3, target)
        f = search._objective(U0, cfg, 3, target)
        assert not ok.all()
        assert np.array_equal(np.isinf(f), ~ok)


@pytest.mark.parametrize("n, k, i", [(5, 3, 2), (7, 5, 3), (6, 4, 1)])
def test_starts_draw_the_registry_rows(n, k, i, monkeypatch):
    # one sampler and one P builder: the search's starts are the rows the
    # registry's "main" sampler draws from the same P and seed
    cfg = small_cfg(n=n, k=k, i=i, kappa1=1e4, restarts=20, seed=11)
    drawn = []

    def spy(*args, **kwargs):
        drawn.append(sample_batch(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(search, "sample_batch", spy)
    U0, _ = search._starts(cfg, k)
    P = registry._params(n, k, i - 1, (cfg.K,), cfg.kappa1)
    want = _SAMPLERS["main"](P, make_rng(cfg.seed), cfg.restarts)
    assert want.shape == (20, n) and drawn[0].view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
    assert U0.tobytes() == (want * (cfg.kappa1 / want[:, :1]))[:, 1 : n - 1].tobytes()


def test_import_leaves_scipy_out():
    # scipy is a test-only oracle; importing it costs most of symcone's start-up time and memory
    src = str(Path(symcone.__file__).resolve().parents[1])
    code = "import sys, symcone, symcone.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, cwd=src)
    assert out.stdout.strip() == "[]"


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
