"""Named-check registry: every verified statement as a reproducible check.

Each check has a stable id and a kind; what it checks is a row-parallel slack
function, a named hypothesis sampler and its default levels k.  The slack
conventions are uniform across the catalog:

  IDENTITY    slack = -|lhs - rhs| / (1 + sum of |term| magnitudes).
              Magnitude (not value) normalization: identities whose sides
              nearly cancel still certify at the rounding level.
  INEQUALITY  slack = (lhs - rhs) / (1 + |lhs| + |rhs|).
  PSD         slack = lambda_min / max(frobenius norm, tiny).
  ASYMPTOTIC  the same slack, evaluated on a grid of top-curvature scales
              kappa_1 in {10, ..., 1e6} (and a grid of K where K enters);
              verdict THRESHOLD(kappa_1*) with the smallest grid scale from
              which every larger scale passes, FAIL if the top scale fails.

PASS iff min slack >= -tol (identities/inequalities, default 1e-10) or
min slack >= -psd_eps (matrix checks, default 1e-8).  A sampler that cannot
realize its hypothesis reports ERROR with the rejection breakdown.  A
fixed-kind check also reports ERROR when no row was evaluated or any slack
is NaN; NaN rows are counted in `details["nonfinite_rows"]`, and in an
asymptotic sweep a NaN fails its grid point.  A sweep whose top point
evaluated no row at all reports ERROR as well.

Rows whose sample falls outside a check's stated hypothesis (for example the
derived constant c requires K kappa_i sigma_{k-1}(kappa|i) > 1) are excluded
from the minimum and counted in `details["excluded_rows"]` (per grid point
as well, for an asymptotic sweep).

All randomness flows from one integer seed through counter-based child
streams, so every result - including witnesses - is bit-reproducible.  Each
point of a check (one k of a fixed check, one (kappa_1, K) of a sweep) has
its own stream, so `run_checks` plans the points of many checks, evaluates
them on forked worker processes and folds each check's outcomes in plan
order; the result does not depend on the number of workers.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .cones import (
    SIGMA_K_WINDOW,
    _descending,
    _feasible_mask,
    make_rng,
    rejection_sample,
    sample_bar_batch,
    sample_batch,
)
from .errors import DomainError, InvalidInputError, SamplingExhaustedError, SymconeError
from .quadforms import (
    _relmin,
    abcd_batch,
    divdiff_exp_scaled,
    divdiff_ratio,
    h_matrix_batch,
    key_matrix_from_table,
    lemma41_gap_batch,
)
from .symfun import batch_coeffs, batch_coeffs_t, batch_excl1_table, batch_excl2_table, order

__all__ = [
    "CaseLabel",
    "CheckResult",
    "LemmaCheck",
    "RunContext",
    "classify_case",
    "classify_masks",
    "registry_list",
    "resolve_jobs",
    "run_check",
    "run_checks",
    "witness_slack",
    "IDENTITY_TOL",
    "INEQUALITY_TOL",
    "PSD_EPS",
    "ASYM_KAPPA1_GRID",
    "ASYM_K_GRID",
]

IDENTITY_TOL = 1e-10
INEQUALITY_TOL = 1e-10
PSD_EPS = 1e-8
ASYM_KAPPA1_GRID = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
ASYM_K_GRID = (1e1, 1e2, 1e3, 1e4)
_BLOCK = 2048
_SAMPLER_BUDGET = 400_000


# ---------------------------------------------------------------------------
# Small numeric helpers.
# ---------------------------------------------------------------------------


def _child_seed(seed: int, label: str) -> int:
    digest = hashlib.blake2s(f"{seed}|{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _mag(*terms) -> np.ndarray:
    s = 1.0
    for t in terms:
        s = s + np.abs(t)
    return s


def _ineq(lhs, rhs):
    return (lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))


def _iden(residual, *terms):
    return -np.abs(residual) / _mag(*terms)


# ---------------------------------------------------------------------------
# Case classification at level k = n - 2.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseLabel:
    primary: str
    labels: Tuple[str, ...]


_CASE_ORDER = ("A", "B1", "B2", "B3", "C")


def classify_masks(X: np.ndarray, i0: int) -> Dict[str, np.ndarray]:
    """Boolean case masks for rows sorted descending, at level k = n - 2.

    The five regions are decided by the sign of sigma_{n-2}(kappa|i), the
    signs of the two smallest entries, and two product criteria with margin
    delta_0 = 1/(32 n (n-2)).  The seam sigma_{n-2}(kappa|i) = 0 belongs to C.
    B1 and B2 may overlap; membership is reported for all of them.
    """
    XT = np.ascontiguousarray(X.T)
    return _case_masks(XT, batch_coeffs_t(XT), i0)


def _case_masks(XT: np.ndarray, c: np.ndarray, i0: int) -> Dict[str, np.ndarray]:
    """`classify_masks` on the columns of XT (n, B), given their sigma table c."""
    n = XT.shape[0]
    cb = batch_coeffs_t(np.delete(XT, i0, axis=0))
    sbar, s3bar = cb[n - 2], cb[n - 3]
    sk = c[n - 2]
    d0 = 1.0 / (32.0 * n * (n - 2))
    top = XT[0].copy()
    for j in range(1, n - 2):
        top *= XT[j]
    A = (sbar <= 0.0) & (XT[n - 2] <= 0.0)
    Breg = (sbar <= 0.0) & (XT[n - 1] < 0.0) & (XT[n - 2] > 0.0)
    b1 = XT[i0] * s3bar >= (1.0 + d0) * sk
    b2 = top >= 2.0 * (n - 2) * sk
    return {
        "A": A,
        "B1": Breg & b1,
        "B2": Breg & b2,
        "B3": Breg & ~b1 & ~b2,
        "C": sbar >= 0.0,
    }


def classify_case(kappa, i: int) -> CaseLabel:
    """Case of one vector (sorted descending) at level k = n - 2; i is 1-based."""
    arr = np.asarray(kappa, dtype=float)
    if arr.ndim != 1 or arr.size < 4:
        raise InvalidInputError("classify_case needs a 1-D vector with n >= 4")
    if np.any(np.diff(arr) > 0):
        raise InvalidInputError("classify_case requires kappa sorted descending")
    if not 1 <= i <= arr.size:
        raise InvalidInputError(f"i={i} out of range [1, {arr.size}]")
    masks = classify_masks(arr[None, :], i - 1)
    labels = tuple(name for name in _CASE_ORDER if bool(masks[name][0]))
    if not labels:
        raise DomainError("vector falls outside the five-case partition")
    return CaseLabel(primary=labels[0], labels=labels)


def _case_predicate(i0: int, cases: Tuple[str, ...]):
    """A `sample_batch` predicate keeping the columns that fall in any of `cases`."""

    def pred(XT: np.ndarray, c: np.ndarray) -> np.ndarray:
        masks = _case_masks(XT, c, i0)
        keep = np.zeros(XT.shape[1], dtype=bool)
        for name in cases:
            keep |= masks[name]
        return keep

    return pred


# ---------------------------------------------------------------------------
# Hypothesis samplers.  Each returns (X, aux) with exactly B rows; its
# options are keyword arguments, bound per variant in `_SAMPLERS`.
# ---------------------------------------------------------------------------


def _draw_gamma(rng, B: int, n: int, k: int, force_neg: int = 0, barred: bool = False) -> np.ndarray:
    """Cone members with generic scales; optionally force trailing negatives."""
    counts = {"membership": 0}

    def draw(blk):
        X = np.abs(rng.normal(0.0, 3.0, (blk, n))) + 0.05
        top = X.max(axis=1)
        if force_neg:
            for j in range(force_neg):
                X[:, n - 1 - j] = -rng.uniform(0.0, 0.8, blk) * top * (n - k) / (k * (j + 1))
        else:
            X[:, n - 1] = rng.uniform(-0.5, 1.0, blk) * top
        X = -np.sort(-X, axis=1)
        c = batch_coeffs_t(np.ascontiguousarray(X.T))
        if barred:
            keep = (c[1:k] > 0.0).all(axis=0) & (c[k] >= 0.0)
        else:
            keep = (c[1 : k + 1] > 0.0).all(axis=0)
        counts["membership"] += int(blk - keep.sum())
        return X[keep]

    return rejection_sample(draw, B, lambda left, room: _BLOCK, _SAMPLER_BUDGET, counts, "gamma sampler")


def _sampler_real(P, rng, B, *, aux_K=False):
    n = P["n"]
    X = rng.normal(0.0, 1.0, (B, n)) * 10.0 ** rng.uniform(-1.0, 2.0, (B, 1))
    aux = {}
    if aux_K:
        aux["K"] = 10.0 ** rng.uniform(0.0, 3.0, B)
    return X, aux


def _sampler_cone(P, rng, B, *, force_neg=0, aux_xi=False):
    X = _draw_gamma(rng, B, P["n"], P["k"], force_neg=force_neg)
    aux = {}
    if aux_xi:
        aux["xi"] = rng.normal(0.0, 1.0, (B, P["n"]))
    return X, aux


def _sampler_bar(P, rng, B):
    return sample_bar_batch(rng, B, P["n"]), {}


def _sampler_bark(P, rng, B):
    return _draw_gamma(rng, B, P["n"], P["k"], barred=True), {}


def _sampler_l59(P, rng, B):
    """Top scale swept log-uniformly; hypothesis: a delta-large second entry
    or a delta-negative last entry (delta = 0.1, the weaker variant)."""
    n = P["n"]
    k = n - 2
    counts = {"membership": 0, "hypothesis": 0}

    def draw(blk):
        X = np.empty((blk, n))
        X[:, 0] = 10.0 ** rng.uniform(0.5, 4.0, blk)
        X[:, 1:] = rng.uniform(-0.95 * 2.0 / (n - 2), 1.0, (blk, n - 1)) * X[:, :1]
        X = -np.sort(-X, axis=1)
        c = batch_coeffs_t(np.ascontiguousarray(X.T))
        member = (c[1 : k + 1] > 0.0).all(axis=0)
        counts["membership"] += int(blk - member.sum())
        hyp = (-X[:, n - 1] >= 0.1 * X[:, 0]) | (X[:, n - 2] >= 0.1 * X[:, 0])
        counts["hypothesis"] += int((member & ~hyp).sum())
        return X[member & hyp]

    return rejection_sample(draw, B, lambda left, room: _BLOCK, _SAMPLER_BUDGET, counts, "scale sampler"), {}


def _uniform(u: np.ndarray, low, high) -> np.ndarray:
    """`Generator.uniform(low, high)` on the standard draws u of `rng.random`:
    numpy computes low + (high - low) * u, so the bits are the same."""
    return low + (high - low) * u


def _sampler_tail_cases(P, rng, B, *, cases=("B3", "C")):
    """Constructive draw for the tail cases B3 / C at any scale.

    Both cases pin sigma_{n-2}(kappa|i) to a near-zero value T1 while
    sigma_{n-2}(kappa) stays in SIGMA_K_WINDOW; at large scales that region
    is far too thin for rejection.  Writing sigma_{n-2} and sigma_{n-3} of the
    reduced vector as affine functions of its last two entries (x, y) gives
    a 2x2 linear system in (x + y, x y), solved in closed form; x and y are
    then roots of a quadratic.  Draws with a negative discriminant or a
    failed feasibility re-check are rejected.
    """
    n = P["n"]
    k = n - 2
    k1 = P["kappa1"]
    i0 = P["i0"]
    d0 = 1.0 / (32.0 * n * (n - 2))
    pred = _case_predicate(i0, cases)
    counts = {
        "finite": 0, "gamma_k": 0, "kappa1_target": 0, "near_top": 0,
        "sigma_k_range": 0, "predicate": 0, "discriminant": 0,
    }
    nm = n - 4
    log_st = tuple(map(math.log, SIGMA_K_WINDOW))
    log_mid = math.log(0.9 * k1)
    lo_e = min(-12.0, -3.0 * math.log10(k1) - 2.0)
    hi_e = math.log10(d0)

    def draw(blk):
        # One `rng.random` fill per block, read in draw order: the kappa_1
        # jitter, the kappa_i offset, the sigma_k target, the (draw, entry)
        # middle magnitudes and then their signs, the sign of T1, its magnitude.
        u = rng.random((5 + 2 * nm, blk))
        kap1 = k1 * (1.0 + _uniform(u[0], -0.005, 0.005))
        ki = kap1 - u[1] * np.sqrt(kap1) / n  # uniform(0, 1) is u itself
        st = np.exp(_uniform(u[2], *log_st))  # sigma_k target
        # The discriminant of the root quadratic is only nonnegative when the
        # middle entries are O(sigma_k / kappa_1^2) and (for positive targets)
        # |T1| = O(sigma_k^2 / kappa_1^3); span those windows in log scale.
        lo_m = np.log(st * 1e-4 / (k1 * k1))
        mids = np.exp(_uniform(u[3 : 3 + nm].reshape(blk, nm), lo_m[:, None], log_mid))
        mids *= np.where(u[3 + nm : 3 + 2 * nm].reshape(blk, nm) < 0.5, -1.0, 1.0)
        pre = np.empty((n - 3, blk))  # reduced prefix, one column per draw
        pre[0] = kap1
        pre[1:] = mids.T
        cp = batch_coeffs_t(pre)
        s5, s4, s3 = cp[n - 5], cp[n - 4], cp[n - 3]
        sgn = np.where(u[3 + 2 * nm] < 0.5, 1.0, -1.0)
        T1 = sgn * st * 10.0 ** _uniform(u[4 + 2 * nm], lo_e, hi_e)
        T2 = (st - T1) / ki
        det = s4 * s4 - s5 * s3
        safe = np.abs(det) > 0.0
        det = np.where(safe, det, 1.0)
        # x + y and x y; sigma_{n-2} of the n-3 prefix entries is zero
        xs = (s4 * (T2 - s3) - s5 * T1) / det
        xp = (s4 * T1 - s3 * (T2 - s3)) / det
        disc = xs * xs - 4.0 * xp
        safe &= disc >= 0.0
        rows = np.flatnonzero(safe)
        counts["discriminant"] += blk - rows.size
        if not rows.size:
            return np.empty((0, n))
        xs, r = xs[rows], np.sqrt(disc[rows])
        XT = np.empty((n, rows.size))
        XT[: n - 3] = pre[:, rows]
        XT[n - 3] = (xs + r) / 2.0
        XT[n - 2] = (xs - r) / 2.0
        XT[n - 1] = ki[rows]
        X = _descending(np.ascontiguousarray(XT.T))
        return X[_feasible_mask(X, k, k1, i0 + 1, SIGMA_K_WINDOW, counts, pred)]

    return rejection_sample(draw, B, lambda left, room: 4096, _SAMPLER_BUDGET, counts, "tail-case sampler"), {}


def _sampler_main(P, rng, B, *, cases=None, aux_h=False):
    """The conjecture-regime sampler: kappa_1 pinned, index i near the top,
    sigma_k in SIGMA_K_WINDOW; optional case conditioning."""
    pred = _case_predicate(P["i0"], cases) if cases else None
    X = sample_batch(
        rng,
        B,
        P["n"],
        P["k"],
        P["kappa1"],
        near_top_index=P["i0"] + 1,
        sigma_k_range=SIGMA_K_WINDOW,
        predicate=pred,
    )
    aux = {}
    if aux_h:
        aux["h"] = rng.normal(0.0, 1.0, (B, P["n"]))
    return X, aux


_SAMPLERS = {
    "real": _sampler_real,
    "real_K": functools.partial(_sampler_real, aux_K=True),
    "cone": _sampler_cone,
    "cone_xi": functools.partial(_sampler_cone, aux_xi=True),
    "cone_neg1": functools.partial(_sampler_cone, force_neg=1),
    "cone_neg2": functools.partial(_sampler_cone, force_neg=2),
    "bar": _sampler_bar,
    "bark": _sampler_bark,
    "l59": _sampler_l59,
    "main": _sampler_main,
    "main_h": functools.partial(_sampler_main, aux_h=True),
    "main_abb2": functools.partial(_sampler_main, cases=("A", "B1", "B2")),
    "tail_cases": _sampler_tail_cases,
}


# ---------------------------------------------------------------------------
# Row slack functions.  Signature: rows(X, aux, P) -> (B,) slacks.
# Rows excluded by a hypothesis guard return +inf.
# ---------------------------------------------------------------------------


def _rows_id1(X, aux, P):
    k = P["k"]
    K = aux["K"]
    v = order(batch_excl1_table(X), k - 1)
    s_ii, s_jj = v[:, 0], v[:, 1]
    cij = batch_coeffs(X[:, 2:])
    s2 = order(cij, k - 2)
    s1 = order(cij, k - 1)
    ki = X[:, 0]
    kj = X[:, 1]
    aj = s_jj + (ki + kj) * s2
    invc = K * ki * s_ii - 1
    t1 = ki * K * s_ii * s_jj * (-s_jj + 2 * ki * s2)
    t2 = -(ki**2) * s2**2
    t3 = aj * invc * s_ii
    r1 = invc * (s_ii + s_jj) * (ki + kj) * s2
    r2 = -(s1**2)
    return _iden((t1 + t2 + t3) - (r1 + r2), t1, t2, t3, r1, r2)


def _rows_id2(X, aux, P):
    k = P["k"]
    v = order(batch_excl1_table(X), k - 1)
    two = batch_excl2_table(X, (k - 2, k - 1))
    s_ii, s_pp, s_qq = v[:, 0], v[:, 1], v[:, 2]
    s_iipp, s_iiqq, s_ppqq = two[k - 2][:, 0, 1], two[k - 2][:, 0, 2], two[k - 2][:, 1, 2]
    ki = X[:, 0]
    u1 = ki * (s_pp * s_iiqq + s_qq * s_iipp - s_ii * s_ppqq)
    u2 = -s_pp * s_qq
    u3 = -(ki**2) * s_iipp * s_iiqq
    u4 = ki * s_ii * s_ppqq
    v1 = -two[k - 1][:, 0, 1] * two[k - 1][:, 0, 2]
    return _iden((u1 + u2 + u3 + u4) - v1, u1, u2, u3, u4, v1)


def _rows_id3(X, aux, P):
    k = P["k"]
    c = batch_coeffs(X)
    v = order(batch_excl1_table(X), k - 1)
    cij = batch_coeffs(X[:, 2:])
    ki, kj = X[:, 0], X[:, 1]
    lhs = (v[:, 0] + v[:, 1]) * (ki + kj)
    r1 = 2 * order(c, k)
    r2 = -2 * order(cij, k)
    r3 = (ki**2 + kj**2) * order(cij, k - 2)
    return _iden(lhs - (r1 + r2 + r3), lhs, r1, r2, r3)


def _rows_id4(X, aux, P):
    k = P["k"]
    v = order(batch_excl1_table(X), k - 1)
    two = batch_excl2_table(X, (k - 2,))[k - 2]
    c3 = batch_coeffs(X[:, 3:])
    ki, kq = X[:, 0], X[:, 2]
    w1 = v[:, 2] * two[:, 0, 1]
    w2 = -v[:, 0] * two[:, 1, 2]
    t2, t1, t3 = order(c3, k - 2), order(c3, k - 1), order(c3, k - 3)
    z1 = ki * t2**2
    z2 = -ki * t1 * t3
    z3 = kq * t3 * t1
    z4 = -kq * t2**2
    return _iden((w1 + w2) - (z1 + z2 + z3 + z4), w1, w2, z1, z2, z3, z4)


def _rows_id5(X, aux, P):
    k = P["k"]
    c = batch_coeffs(X)
    cp = batch_coeffs(np.delete(X, 1, axis=1))
    ciq = batch_coeffs(np.delete(X, (0, 2), axis=1))
    c3 = batch_coeffs(X[:, 3:])
    ki, kq = X[:, 0], X[:, 2]
    lhs = order(cp, k - 1) * order(ciq, k - 1)
    t0, t1, t2, t3 = order(c3, k), order(c3, k - 1), order(c3, k - 2), order(c3, k - 3)
    r1 = order(c, k) * t2
    r2 = t1**2
    r3 = -t0 * t2
    r4 = -kq * ki * t2**2
    r5 = kq * ki * t3 * t1
    return _iden(lhs - (r1 + r2 + r3 + r4 + r5), lhs, r1, r2, r3, r4, r5)


def _rows_l51(X, aux, P):
    n = X.shape[1]
    c = batch_coeffs(X)
    c2 = batch_coeffs(X**2)
    best = np.full(X.shape[0], np.inf)
    for k in range(1, n + 1):
        lhs = c[:, k] ** 2
        terms = [c2[:, k]]
        rhs = c2[:, k].copy()
        for i in range(1, k + 1):
            t = 2 * (-1) ** (i + 1) * order(c, k + i) * c[:, k - i]
            rhs += t
            terms.append(t)
        best = np.minimum(best, _iden(lhs - rhs, lhs, *terms))
    return best


def _rows_l54(X, aux, P):
    n = X.shape[1]
    c = batch_coeffs(X)
    T = batch_excl1_table(X)
    best = np.full(X.shape[0], np.inf)
    for s in range(1, n + 1):
        prods = T[:, :, n - s] * T[:, :, n - 1]
        r1 = c[:, n - s] * c[:, n - 1]
        r2 = -(s + 1) * c[:, n] * order(c, n - s - 1)
        best = np.minimum(best, _iden(prods.sum(axis=1) - (r1 + r2), np.abs(prods).sum(axis=1), r1, r2))
    return best


def _rows_l55(X, aux, P):
    n = X.shape[1]
    T = batch_excl1_table(X)
    P4 = batch_excl2_table(X, (n - 4,))[n - 4]
    best = np.full(X.shape[0], np.inf)
    for j in range(n):
        lhs = (P4[:, j, :] ** 2).sum(axis=1)
        r1 = 3 * order(T, n - 4)[:, j] ** 2
        r2 = -2 * order(T, n - 5)[:, j] * order(T, n - 3)[:, j]
        r3 = -4 * order(T, n - 6)[:, j] * order(T, n - 2)[:, j]
        r4 = -6 * order(T, n - 7)[:, j] * order(T, n - 1)[:, j]
        best = np.minimum(best, _iden(lhs - (r1 + r2 + r3 + r4), lhs, r1, r2, r3, r4))
    return best


def _rows_newton(X, aux, P):
    n = X.shape[1]
    c = batch_coeffs(X)
    best = np.full(X.shape[0], np.inf)
    for k in range(2, n + 1):
        lhs = (c[:, k - 1] / math.comb(n, k - 1)) ** 2
        rhs = c[:, k] * c[:, k - 2] / (math.comb(n, k) * math.comb(n, k - 2))
        best = np.minimum(best, _ineq(lhs, rhs))
    return best


def _rows_maclaurin(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    c = batch_coeffs(X)
    rk = (c[:, k] / math.comb(n, k)) ** (1.0 / k)
    best = np.full(X.shape[0], np.inf)
    for l in range(1, k):
        rl = (c[:, l] / math.comb(n, l)) ** (1.0 / l)
        best = np.minimum(best, (rl - rk) / (1.0 + rl + rk))
    return best


def _rows_gen_newton(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    c = batch_coeffs(X)
    best = np.full(X.shape[0], np.inf)
    for s in range(1, k + 1):
        for r in range(1, s + 1):
            lhs = c[:, s] * c[:, k] / (math.comb(n, s) * math.comb(n, k))
            if k + r > n:
                rhs = np.zeros(X.shape[0])
            else:
                rhs = c[:, s - r] * c[:, k + r] / (math.comb(n, s - r) * math.comb(n, k + r))
            best = np.minimum(best, _ineq(lhs, rhs))
    return best


def _rows_l21(X, aux, P):
    k = P["k"]
    xi = aux["xi"]
    c = batch_coeffs(X)
    E = batch_excl1_table(X)
    Pc = batch_excl2_table(X, range(-1, k - 1))
    sk = c[:, k]
    sum2k = np.einsum("bpq,bp,bq->b", Pc[k - 2], xi, xi)
    skp = np.einsum("bp,bp->b", E[:, :, k - 1], xi)
    best = np.full(X.shape[0], np.inf)
    for l in range(1, k):
        alpha = 1.0 / (k - l)
        sl = c[:, l]
        slp = np.einsum("bp,bp->b", order(E, l - 1), xi)
        sum2l = np.einsum("bpq,bp,bq->b", Pc[l - 2], xi, xi)
        for delta in (0.3, 1.0, 2.0):
            lhs = -sum2k + (1.0 - alpha + alpha / delta) * skp**2 / sk
            rhs = sk * (alpha + 1.0 - delta * alpha) * (slp / sl) ** 2 - (sk / sl) * sum2l
            best = np.minimum(best, _ineq(lhs, rhs))
    return best


def _rows_l22(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    theta = math.sqrt(k * (n - k) / (n - 1.0))
    E = batch_excl1_table(X)
    Pk1 = batch_excl2_table(X, (k - 1,))[k - 1]
    best = np.full(X.shape[0], np.inf)
    for a in range(n):
        for b in range(a + 1, n):
            lhs = theta * E[:, b, k - 1]
            rhs = np.abs(Pk1[:, a, b])
            best = np.minimum(best, _ineq(lhs, rhs))
    return best


def _rows_l23(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    c = batch_coeffs(X)
    best = np.full(X.shape[0], np.inf)
    for s in range(0, k + 1):
        lhs = X[:, 0] ** s * c[:, k - s] / c[:, k]
        rhs = math.comb(n, k - s) / math.comb(n, k)
        best = np.minimum(best, _ineq(lhs, rhs))
    return best


def _rows_l24a(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    guard = X[:, n - 1] <= 0.0
    val = ((n - k) / k * X[:, 0] + X[:, n - 1]) / (1.0 + np.abs(X[:, 0]))
    return np.where(guard, val, np.inf)


def _rows_l24b(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    cpq = batch_coeffs(X[:, : n - 2])
    d = order(cpq, k - 1)
    guard = (d > 0.0) & (X[:, n - 2] <= 0.0)
    val = (2.0 * order(cpq, k) / np.where(guard, d, 1.0) + X[:, n - 1] + X[:, n - 2]) / (
        1.0 + np.abs(X[:, n - 1])
    )
    return np.where(guard, val, np.inf)


def _rows_l25(X, aux, P):
    k = P["k"]
    c = batch_coeffs(X)
    best = np.full(X.shape[0], np.inf)
    for s in range(1, k):
        prod = np.prod(X[:, :s], axis=1)
        best = np.minimum(best, _ineq(c[:, s], prod))
    return best


def _rows_l26(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    theta = 1.0 / (n ** (n - k) * math.comb(n, k))
    c = batch_coeffs(X)
    E = batch_excl1_table(X)
    best = np.full(X.shape[0], np.inf)
    for j in range(k):
        lhs = E[:, j, k - 1]
        rhs = theta * c[:, k] / X[:, j]
        best = np.minimum(best, _ineq(lhs, rhs))
    return best


def _rows_l58(X, aux, P):
    n = X.shape[1]
    c = batch_coeffs(X)
    P4 = batch_excl2_table(X, (n - 4,))[n - 4]
    lhs = 4.0 * order(c, n - 4) ** 2
    best = np.full(X.shape[0], np.inf)
    for j in range(n):
        rhs = (P4[:, j, :] ** 2).sum(axis=1)
        best = np.minimum(best, _ineq(lhs, rhs))
    return best


def _rows_l59(X, aux, P):
    n = X.shape[1]
    cb = batch_coeffs(X[:, 1:])
    ratio = order(cb, n - 3) / X[:, 0] ** (n - 3)
    best = np.full(X.shape[0], np.inf)
    for delta in (0.1, 0.3):
        dp = min(delta ** (n - 2) / 2 ** (n - 1), delta ** (n - 1))
        hyp = (-X[:, n - 1] >= delta * X[:, 0]) | (X[:, n - 2] >= delta * X[:, 0])
        val = (ratio - dp) / (1.0 + np.abs(ratio) + dp)
        best = np.minimum(best, np.where(hyp, val, np.inf))
    return best


def _rows_l52(X, aux, P):
    n = X.shape[1]
    E = batch_excl1_table(X)
    Pc = batch_excl2_table(X, range(n + 1))
    idx = np.arange(n)
    best = np.full(X.shape[0], np.inf)
    for s in range(0, n + 1):
        M = Pc[s]
        M[:, idx, idx] = order(E, s)
        best = np.minimum(best, _relmin(M))
    return best


def _rows_l53(X, aux, P):
    n = X.shape[1]
    t = n - 3
    E = batch_excl1_table(X)
    M = -batch_excl2_table(X, (t,))[t]
    idx = np.arange(n)
    M[:, idx, idx] = 2.0 * order(E, t)
    return _relmin(M)


def _rows_l56(X, aux, P):
    n = X.shape[1]
    s = P["k"]
    E = batch_excl1_table(X)
    Pc = batch_excl2_table(X, (s - 2, s - 1, s))
    M = Pc[s - 1] ** 2 - Pc[s] * Pc[s - 2]
    idx = np.arange(n)
    M[:, idx, idx] = order(E, s - 1) ** 2
    return _relmin(M)


def _rows_d_gram(X, aux, P):
    k = P["k"]
    Y = np.delete(X, 0, axis=1)
    T = batch_excl1_table(Y)
    w = order(T, k - 1)
    D = w[:, :, None] * w[:, None, :]
    return _relmin(D)


def _rows_a_psd(X, aux, P):
    A, _, _, _ = abcd_batch(X, P["k"], 0)
    return _relmin(A)


def _rows_b_psd(X, aux, P):
    _, Bm, _, _ = abcd_batch(X, P["k"], 0)
    return _relmin(Bm)


def _rows_l64(X, aux, P):
    return _relmin(h_matrix_batch(X, P["i0"]))


def _rows_s615(X, aux, P):
    n = X.shape[1]
    i0 = P["i0"]
    Y = np.delete(X, i0, axis=1)
    T1 = batch_excl1_table(Y)
    cbar = batch_coeffs(Y)
    s3 = cbar[:, n - 3]
    s5 = order(cbar, n - 5)
    ok = (s3 > 0.0) & (s5 > 0.0)
    r = 2.0 * s3 / (3.0 * np.where(ok, s5, 1.0))
    H = h_matrix_batch(X, i0)
    Rd = r[:, None] * (
        order(T1, n - 5) * order(T1, n - 3)
        - 4.0 * order(T1, n - 6) * order(T1, n - 2)
        - (4.0 / 3.0) * (s5 * s3)[:, None]
    )
    idx = np.arange(n - 1)
    H[:, idx, idx] -= Rd
    return np.where(ok, _relmin(H), -1.0)


def _rows_l32(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    i0 = P["i0"]
    eps = 1.0 / (3.0 * k)
    top = X[:, 0]
    E = batch_excl1_table(X)
    S = batch_excl2_table(X, (k - 2,))[k - 2]
    s_ii = order(E, k - 1)[:, i0]
    best = np.full(X.shape[0], np.inf)
    for l in range(n):
        if l == i0:
            continue
        s2 = S[:, i0, l]
        wl = np.exp(X[:, l] - top)
        dd = divdiff_exp_scaled(X[:, l], X[:, i0], top)
        lhs = (2.0 - eps) * (wl * s2 + dd * E[:, l, k - 1])
        rhs = wl * s_ii / X[:, 0]
        best = np.minimum(best, _ineq(lhs, rhs))
    return best


def _rows_l34(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    i0 = P["i0"]
    E = batch_excl1_table(X)
    S = batch_excl2_table(X, (k - 2,))[k - 2]
    s_ii = order(E, k - 1)[:, i0]
    ki = X[:, i0]
    best = np.full(X.shape[0], np.inf)
    for j in range(n):
        if j == i0:
            continue
        kj = X[:, j]
        s_jj = E[:, j, k - 1]
        s2 = S[:, i0, j]
        aj = s_jj + (ki + kj) * s2
        lhs = 2.0 * ki * divdiff_ratio(ki - kj) * s_jj
        best = np.minimum(best, _ineq(lhs, aj))
        # the L-quantity, scaled by e^{-|kappa_i - kappa_j|} to stay finite
        upper = ki > kj
        Lsc = np.where(
            upper,
            (ki + kj) * s_ii - 2.0 * ki * np.exp(np.minimum(kj - ki, 0.0)) * s_jj,
            2.0 * ki * s_jj - (ki + kj) * np.exp(np.minimum(ki - kj, 0.0)) * s_ii,
        )
        best = np.minimum(best, Lsc / (1.0 + np.abs(Lsc)))
    return best


def _rows_l35a(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    i0 = P["i0"]
    K = P["K"]
    h = aux["h"]
    top = X[:, 0]
    w = np.exp(X - top[:, None])
    W = w.sum(axis=1)
    logP = top + np.log(W)
    E = batch_excl1_table(X)
    gsum = np.einsum("bp,bp->b", E[:, :, k - 1], h)
    spq = np.einsum("bpq,bp,bq->b", batch_excl2_table(X, (k - 2,))[k - 2], h, h)
    dd = divdiff_exp_scaled(X, X[:, i0][:, None], top[:, None])
    term = dd * E[:, :, k - 1] * h**2
    term[:, i0] = 0.0
    lhs = w[:, i0] * (K * gsum**2 - spq) + 2.0 * term.sum(axis=1)
    rhs = (1.0 / logP) * w[:, i0] * E[:, i0, k - 1] * h[:, i0] ** 2
    return _ineq(lhs, rhs)


def _rows_l35b(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    i0 = P["i0"]
    h = aux["h"]
    top = X[:, 0]
    w = np.exp(X - top[:, None])
    logP = top + np.log(w.sum(axis=1))
    E = batch_excl1_table(X)
    s_ii = order(E, k - 1)[:, i0]
    s2 = batch_excl2_table(X, (k - 2,))[k - 2][:, i0, :]  # zero at l = i0
    mask = np.ones(n, dtype=bool)
    mask[i0] = False
    lhs = 2.0 * (w[:, mask] * s2[:, mask] * h[:, mask] ** 2).sum(axis=1)
    rhs = (1.0 / logP) * s_ii * (w[:, mask] * h[:, mask] ** 2).sum(axis=1)
    best = _ineq(lhs, rhs)
    for l in range(n):
        if l == i0:
            continue
        v = 2.0 * X[:, 0] * s2[:, l] - s_ii
        best = np.minimum(best, v / (1.0 + np.abs(v)))
    return best


def _rows_l61(X, aux, P):
    n = X.shape[1]
    i0 = P["i0"]
    c = batch_coeffs(X)
    cbar = batch_coeffs(np.delete(X, i0, axis=1))
    s3 = cbar[:, n - 3]
    s5 = order(cbar, n - 5)
    ok = (s3 > 0.0) & (s5 > 0.0)
    ratio = s3 / np.where(ok, s5, 1.0)
    v = 1.1 * X[:, 0] ** 2 + c[:, n - 2] / X[:, i0] - ratio
    return np.where(ok, v / (1.0 + np.abs(v) + np.abs(ratio)), -1.0)


def _rows_l62(X, aux, P):
    n = X.shape[1]
    i0 = P["i0"]
    A, _, _, _ = abcd_batch(X, n - 2, i0)
    Y = np.delete(X, i0, axis=1)
    T1 = batch_excl1_table(Y)
    two = batch_excl2_table(Y, (n - 5, n - 3))
    cbar = batch_coeffs(Y)
    s3 = cbar[:, n - 3]
    s5 = order(cbar, n - 5)
    ok = (s3 > 0.0) & (s5 > 0.0)
    r = 2.0 * s3 / (3.0 * np.where(ok, s5, 1.0))
    R = two[n - 3] * two[n - 5]
    idx = np.arange(n - 1)
    R[:, idx, idx] = 2.0 * order(T1, n - 3) * order(T1, n - 5) - 2.0 * order(T1, n - 2) * order(T1, n - 6)
    G = (8.0 / 9.0) * (X[:, i0] ** 2)[:, None, None] * A - r[:, None, None] * R
    return np.where(ok, _relmin(G), -1.0)


def _rows_l63(X, aux, P):
    n = X.shape[1]
    i0 = P["i0"]
    Y = np.delete(X, i0, axis=1)
    T1 = batch_excl1_table(Y)
    cbar = batch_coeffs(Y)
    s2b = cbar[:, n - 2]
    s3 = cbar[:, n - 3]
    s5 = order(cbar, n - 5)
    s6j, s2j = order(T1, n - 6), order(T1, n - 2)
    best = np.full(X.shape[0], np.inf)
    for j in range(n - 1):
        t1 = -s2b * s6j[:, j]
        t2 = -s2j[:, j] * s6j[:, j]
        t3 = (1.0 / 40.0) * s3 * s5
        v = t1 + t2 + t3
        best = np.minimum(best, v / _mag(t1, t2, t3))
    return best


def _rows_s601(X, aux, P):
    n = X.shape[1]
    i0 = P["i0"]
    A, _, C, _ = abcd_batch(X, n - 2, i0)
    pen = (1.0 / 20.0) * order(batch_coeffs(np.delete(X, i0, axis=1)), n - 3) ** 2
    m = n - 1
    idx = np.arange(m)
    G = (8.0 / 9.0) * (X[:, i0] ** 2)[:, None, None] * A + C
    G[:, idx, idx] -= pen[:, None]
    return _relmin(G)


def _rows_s602(X, aux, P):
    n = X.shape[1]
    i0 = P["i0"]
    K = P["K"]
    A, Bm, _, D = abcd_batch(X, n - 2, i0)
    c = batch_coeffs(X)
    s_ii = order(batch_coeffs(np.delete(X, i0, axis=1)), n - 3)
    denom = K * X[:, i0] * s_ii - 1.0
    ok = denom > 0.0
    cc = 1.0 / np.where(ok, denom, 1.0)
    pen = (1.0 / 20.0) * s_ii**2
    m = n - 1
    idx = np.arange(m)
    G = (
        (1.0 / 9.0) * (X[:, i0] ** 2)[:, None, None] * A
        + c[:, n - 2][:, None, None] * Bm
        - cc[:, None, None] * D
    )
    G[:, idx, idx] += pen[:, None]
    return np.where(ok, _relmin(G), np.inf)


def _key_rows(X, k, i0, K):
    T1 = batch_excl1_table(X)
    s_ii = order(T1[:, i0], k - 1)
    ok = K * X[:, i0] * s_ii > 1.0
    lam = _relmin(key_matrix_from_table(X, T1, k, i0, K))
    return np.where(ok, lam, np.inf)


def _rows_key(X, aux, P):
    return _key_rows(X, P["k"], P["i0"], P["K"])


def _rows_gap(X, aux, P, *, with_kappa_i_sq):
    k = P["k"]
    i0 = P["i0"]
    K = P["K"]
    T1 = batch_excl1_table(X)
    ok = K * X[:, i0] * T1[:, i0, k - 1] > 1.0
    out = np.full(X.shape[0], np.inf)
    if np.any(ok):
        G = lemma41_gap_batch(X[ok], k, i0, K, with_kappa_i_sq, T1[ok])
        out[ok] = _relmin(G)
    return out


# ---------------------------------------------------------------------------
# Catalog.
# ---------------------------------------------------------------------------


# Default levels of a check at dimension n; `--k` replaces them, except for a
# k-free check, whose rows cover every level themselves.


def _k_free(n):
    return (None,)


def _k_top(n):
    return (max(2, n - 2),)


def _k_range(lo, hi_off):
    """k in [lo, n + hi_off]."""
    return lambda n: tuple(range(lo, n + hi_off + 1))


@dataclass(frozen=True)
class LemmaCheck:
    id: str
    kind: str  # IDENTITY | INEQUALITY | PSD | ASYMPTOTIC
    description: str
    sampler: str
    rows: Callable  # rows(X, aux, P) -> (B,) slacks
    k_values: Callable  # k_values(n) -> default levels
    min_n: int = 3
    uses_K: bool = False
    psd_scaled: bool = False  # tolerance: psd_eps instead of tol
    default_kappa1: Optional[float] = None  # fixed-scale case checks


_CATALOG = (
    # -- identities ---------------------------------------------------------
    LemmaCheck("L4_2_id1", "IDENTITY", "diagonal entry identity for the reduced key form", "real_K", _rows_id1, _k_top),
    LemmaCheck("L4_2_id2", "IDENTITY", "off-diagonal product identity for the reduced key form", "real", _rows_id2, _k_top, min_n=3),
    LemmaCheck("L4_2_id3", "IDENTITY", "pair-sum expansion of (s^ii + s^jj)(kappa_i + kappa_j)", "real", _rows_id3, _k_top),
    LemmaCheck("L4_2_id4", "IDENTITY", "triple-exclusion expansion of s^qq s^{ii,pp} - s^ii s^{pp,qq}", "real", _rows_id4, _k_top, min_n=3),
    LemmaCheck("L4_2_id5", "IDENTITY", "triple-exclusion expansion of s^pp sigma_{k-1}(kappa|iq)", "real", _rows_id5, _k_top, min_n=3),
    LemmaCheck("L5_1_identity", "IDENTITY", "square of sigma_k versus sigma_k of squares with cross terms", "real", _rows_l51, _k_free),
    LemmaCheck("L5_4_identity", "IDENTITY", "sum over i of sigma_{n-s}(kappa|i) sigma_{n-1}(kappa|i)", "real", _rows_l54, _k_free),
    LemmaCheck("L5_5_identity", "IDENTITY", "sum of squared double exclusions at order n-4", "real", _rows_l55, _k_free),
    # -- inequalities -------------------------------------------------------
    LemmaCheck("newton", "INEQUALITY", "normalized log-concavity of the sigma_k sequence on R^n", "real", _rows_newton, _k_free),
    LemmaCheck("maclaurin", "INEQUALITY", "monotonicity of normalized sigma_k roots on the cone", "cone", _rows_maclaurin, _k_range(2, 0)),
    LemmaCheck("gen_newton", "INEQUALITY", "shifted product comparison of normalized sigma values", "cone", _rows_gen_newton, _k_range(2, 0)),
    LemmaCheck("L2_1_guan", "INEQUALITY", "concavity-type quadratic comparison between levels l < k", "cone_xi", _rows_l21, _k_range(2, 0), min_n=4),
    LemmaCheck("L2_2_theta", "INEQUALITY", "double exclusion dominated by Theta times single exclusion", "cone", _rows_l22, _k_range(2, 0), min_n=4),
    LemmaCheck("L2_3_ratio", "INEQUALITY", "kappa_1^s sigma_{k-s} / sigma_k bounded below by binomials", "cone", _rows_l23, _k_range(2, 0)),
    LemmaCheck("L2_4a", "INEQUALITY", "negative entry bounded by (n-k)/k times the top entry", "cone_neg1", _rows_l24a, _k_range(2, -1)),
    LemmaCheck("L2_4b", "INEQUALITY", "pairwise bound for the two most negative entries", "cone_neg2", _rows_l24b, _k_range(2, -2), min_n=4),
    LemmaCheck("L2_5_product", "INEQUALITY", "sigma_s dominates the product of the s largest entries", "bark", _rows_l25, _k_range(2, 0)),
    LemmaCheck("L2_6_theta", "INEQUALITY", "single exclusion bounded below via theta = 1/(n^{n-k} C(n,k))", "cone", _rows_l26, _k_range(2, 0)),
    LemmaCheck("L5_8_sum", "INEQUALITY", "4 sigma_{n-4}^2 dominates the row sums of squared pair exclusions", "cone", _rows_l58, _k_top, min_n=4),
    LemmaCheck("L5_9_lower", "INEQUALITY", "scale-free lower bound for sigma_{n-3}(kappa|1)", "l59", _rows_l59, _k_top, min_n=5),
    # -- PSD ----------------------------------------------------------------
    LemmaCheck("L5_2_psd", "PSD", "exclusion matrix of order s on the closed cone", "bar", _rows_l52, _k_free, psd_scaled=True),
    LemmaCheck("L5_3_psd", "PSD", "2-diagonal minus off-diagonal form at order n-3, closed cone", "bar", _rows_l53, _k_free, psd_scaled=True),
    LemmaCheck("L5_6_psd", "PSD", "squared-exclusion Gram-type form at level s", "cone", _rows_l56, _k_range(2, 0), psd_scaled=True),
    LemmaCheck("L5_7_psd", "PSD", "order n-3 form under the weaker level n-2 hypothesis", "cone", _rows_l53, _k_top, min_n=4, psd_scaled=True),
    LemmaCheck("D_gram", "PSD", "rank-one Gram matrix of single-exclusion derivatives", "cone", _rows_d_gram, _k_top, min_n=4, psd_scaled=True),
    LemmaCheck("A_psd", "PSD", "reduced quadratic form A on cone members", "cone", _rows_a_psd, _k_top, min_n=4, psd_scaled=True),
    LemmaCheck("B_psd", "PSD", "reduced quadratic form B on cone members", "cone", _rows_b_psd, _k_top, min_n=4, psd_scaled=True),
    LemmaCheck("L6_4_H", "PSD", "the H form on case A/B1/B2 samples at a fixed large scale", "main_abb2", _rows_l64, _k_top, min_n=5, psd_scaled=True, default_kappa1=1e4),
    LemmaCheck("T6_1_s615", "PSD", "H minus its diagonal correction on case A/B1/B2 samples", "main_abb2", _rows_s615, _k_top, min_n=5, psd_scaled=True, default_kappa1=1e4),
    # -- asymptotic ---------------------------------------------------------
    LemmaCheck("L3_2", "ASYMPTOTIC", "weighted second-derivative lower bound at large top scale", "main", _rows_l32, _k_top, min_n=5),
    LemmaCheck("L3_4", "ASYMPTOTIC", "divided-difference upper bound for the diagonal weights a_j", "main", _rows_l34, _k_top, min_n=5),
    LemmaCheck("L3_5_a", "ASYMPTOTIC", "first test-function inequality with the K-weighted square", "main_h", _rows_l35a, _k_top, min_n=5, uses_K=True),
    LemmaCheck("L3_5_b", "ASYMPTOTIC", "second test-function inequality and its scalar sufficient bound", "main_h", _rows_l35b, _k_top, min_n=5),
    LemmaCheck("L6_1_ratio", "ASYMPTOTIC", "ratio sigma_{n-3}/sigma_{n-5} of the reduced vector bounded", "main_abb2", _rows_l61, _k_top, min_n=5),
    LemmaCheck("L6_2_bound", "ASYMPTOTIC", "(8/9) kappa_i^2 A dominates the ratio-weighted R form", "main_abb2", _rows_l62, _k_top, min_n=5, psd_scaled=True),
    LemmaCheck("L6_3_bound", "ASYMPTOTIC", "scalar bound with the 1/40 product margin", "main_abb2", _rows_l63, _k_top, min_n=5),
    LemmaCheck("T6_1_s601", "ASYMPTOTIC", "(8/9) kappa_i^2 A + C with the 1/20 penalty removed", "main_abb2", _rows_s601, _k_top, min_n=5, psd_scaled=True),
    LemmaCheck("T6_1_s602", "ASYMPTOTIC", "(1/9) kappa_i^2 A + sigma_k B - c D with the 1/20 penalty added", "main_abb2", _rows_s602, _k_top, min_n=5, uses_K=True, psd_scaled=True),
    LemmaCheck("C3_1_key", "ASYMPTOTIC", "the key curvature form itself on the conjecture regime", "main", _rows_key, _k_top, min_n=5, uses_K=True, psd_scaled=True),
    LemmaCheck("S7_case_key", "ASYMPTOTIC", "the key form on the remaining cases B3 and C", "tail_cases", _rows_key, _k_top, min_n=5, uses_K=True, psd_scaled=True),
    LemmaCheck("L4_1_gap", "ASYMPTOTIC", "key form minus its reduced-form lower bound (tight variant)", "main", functools.partial(_rows_gap, with_kappa_i_sq=True), _k_top, min_n=5, uses_K=True, psd_scaled=True),
    LemmaCheck("L4_1_gap_alt", "ASYMPTOTIC", "key form minus its reduced-form lower bound (weak variant)", "main", functools.partial(_rows_gap, with_kappa_i_sq=False), _k_top, min_n=5, uses_K=True, psd_scaled=True),
)

REGISTRY: Dict[str, LemmaCheck] = {c.id: c for c in _CATALOG}


def registry_list() -> Tuple[LemmaCheck, ...]:
    return _CATALOG


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunContext:
    n: int
    samples: int = 1000
    seed: int = 0
    k: Optional[int] = None
    K: Optional[float] = None
    kappa1: Optional[float] = None
    i: int = 2  # 1-based near-top index for regime samplers
    tol: float = INEQUALITY_TOL
    psd_eps: float = PSD_EPS

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise InvalidInputError(f"need samples >= 1, got {self.samples}")
        if not 1 <= self.i <= self.n:
            raise InvalidInputError(f"need 1 <= i <= n, got i={self.i}, n={self.n}")


@dataclass
class CheckResult:
    id: str
    kind: str
    n: int
    k: Optional[int]
    samples: int
    min_slack: float
    verdict: str  # PASS | FAIL | THRESHOLD | ERROR
    seed: int
    witness: Optional[dict] = None
    kappa1_star: Optional[float] = None
    details: dict = field(default_factory=dict)


def _tol_for(check: LemmaCheck, ctx: RunContext) -> float:
    return ctx.psd_eps if check.psd_scaled else ctx.tol


def _levels(check: LemmaCheck, ctx: RunContext) -> Tuple[Optional[int], ...]:
    """The levels k a run evaluates: `ctx.k` if set, else the check's defaults.
    A k-free check (levels (None,)) keeps them whatever `ctx.k` is."""
    ks = check.k_values(ctx.n)
    return ks if ctx.k is None or ks == (None,) else (ctx.k,)


def _params(ctx: RunContext, k: Optional[int], kappa1: Optional[float], K: Optional[float]) -> dict:
    """The parameters P a rows function and its sampler see; `witness_slack`
    rebuilds the same keys from a witness."""
    return {"n": ctx.n, "k": k, "i0": ctx.i - 1, "K": K, "kappa1": kappa1}


def _make_witness(check, P, X, aux, j, slack) -> dict:
    wit = {
        "check": check.id,
        "kappa": [float(v) for v in X[j]],
        "k": P["k"],
        "i": P["i0"] + 1,
        "K": None if P.get("K") is None else float(P["K"]),
        "kappa1": None if P.get("kappa1") is None else float(P["kappa1"]),
        "slack": float(slack),
        "aux": {
            key: (float(val[j]) if np.ndim(val[j]) == 0 else [float(v) for v in val[j]])
            for key, val in aux.items()
        },
    }
    return wit


def witness_slack(witness: dict) -> float:
    """Re-evaluate a stored witness; reproduces the recorded slack."""
    check = REGISTRY[witness["check"]]
    X = np.asarray(witness["kappa"], dtype=float)[None, :]
    aux = {
        key: (np.full(1, val) if np.ndim(val) == 0 else np.asarray(val, dtype=float)[None, :])
        for key, val in witness.get("aux", {}).items()
    }
    P = {
        "n": X.shape[1],
        "k": witness.get("k"),
        "i0": int(witness.get("i", 1)) - 1,
        "K": witness.get("K"),
        "kappa1": witness.get("kappa1"),
    }
    return float(check.rows(X, aux, P)[0])


class _Tally(NamedTuple):
    """Minimum slack, its witness and the row counts of some evaluated rows."""

    best: float = math.inf
    witness: Optional[dict] = None
    used: int = 0
    nonfinite: int = 0
    excluded: int = 0

    def merge(self, other: "_Tally") -> "_Tally":
        """Both tallies in one; on a tie the minimum and witness of `self` stay."""
        best, wit = (other.best, other.witness) if other.best < self.best else (self.best, self.witness)
        return _Tally(
            best, wit, self.used + other.used, self.nonfinite + other.nonfinite, self.excluded + other.excluded
        )


def _block_tally(check, P, X, aux, slacks) -> _Tally:
    """The tally of one block of rows.

    A +inf slack marks a row outside the check's hypothesis and a NaN slack
    a row that could not be evaluated; neither enters the minimum.  Both are
    counted: the folds refuse to pass on NaN rows and report the excluded ones.
    """
    nan = np.isnan(slacks)
    excluded = slacks == np.inf
    used = ~nan & ~excluded
    best, wit = math.inf, None
    if np.any(used):
        j = int(np.argmin(np.where(used, slacks, np.inf)))
        best = float(slacks[j])
        wit = _make_witness(check, P, X, aux, j, best)
    return _Tally(best, wit, int(used.sum()), int(nan.sum()), int(excluded.sum()))


def _eval_point(check, P, rng, samples) -> _Tally:
    """The tally of `samples` rows at fixed parameters."""
    tally = _Tally()
    drawn = 0
    while drawn < samples:
        B = min(_BLOCK, samples - drawn)
        X, aux = _SAMPLERS[check.sampler](P, rng, B)
        tally = tally.merge(_block_tally(check, P, X, aux, check.rows(X, aux, P)))
        drawn += B
    return tally


class _Point(NamedTuple):
    """One independent unit of evaluation: `rows` samples of `check` at params `P`."""

    check: LemmaCheck
    P: dict
    seed: int  # child seed of the point's own stream
    rows: int


def _sweep(check: LemmaCheck, ctx: RunContext):
    """(k, kappa_1 grid, K grid) of an asymptotic check."""
    k = _levels(check, ctx)[0]
    grid = (ctx.kappa1,) if ctx.kappa1 is not None else ASYM_KAPPA1_GRID
    Ks = (ctx.K,) if ctx.K is not None else (ASYM_K_GRID if check.uses_K else (None,))
    return k, grid, Ks


def _plan(check_id: str, ctx: RunContext) -> List[_Point]:
    """The points of one check, in the order the fold reads their outcomes."""
    if check_id not in REGISTRY:
        raise InvalidInputError(f"unknown check id: {check_id!r}")
    check = REGISTRY[check_id]
    if ctx.n < check.min_n:
        raise InvalidInputError(f"{check.id} requires n >= {check.min_n}, got n={ctx.n}")
    if ctx.k is not None and not 1 <= ctx.k <= ctx.n:
        raise InvalidInputError(f"k={ctx.k} out of range for n={ctx.n}")
    if check.kind == "ASYMPTOTIC":
        k, grid, Ks = _sweep(check, ctx)
        return [
            _Point(check, _params(ctx, k, g, Kv), _child_seed(ctx.seed, f"{check.id}|{ctx.n}|{k}|{g}|{Kv}"), ctx.samples)
            for g in grid
            for Kv in Ks
        ]
    ks = _levels(check, ctx)
    per_k = max(1, -(-ctx.samples // len(ks)))
    kappa1 = ctx.kappa1 if ctx.kappa1 is not None else check.default_kappa1
    return [
        _Point(check, _params(ctx, k, kappa1, ctx.K), _child_seed(ctx.seed, f"{check.id}|{ctx.n}|{k}"), per_k)
        for k in ks
    ]


def _evaluate(point: _Point):
    """The tally of `_eval_point`, or the SymconeError it raised, as a value."""
    try:
        return _eval_point(point.check, point.P, make_rng(point.seed), point.rows)
    except SymconeError as exc:
        return exc


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: `jobs`, or by default the CPUs this process may run on."""
    if jobs is None:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else (os.cpu_count() or 1)
    if jobs < 1:
        raise InvalidInputError(f"need jobs >= 1, got {jobs}")
    return jobs


# True in a forked worker, so that a nested run_checks stays in process.
_IN_WORKER = False


class _Raised(NamedTuple):
    """An exception other than SymconeError that a point raised in a worker."""

    exc: BaseException
    trace: str  # the worker's formatted traceback


def _keep_worker_heap() -> None:
    """Keep freed row blocks in this process's heap; a no-op without glibc's mallopt.

    With both thresholds raised, the row-block temporaries a worker frees are
    reused for its next block instead of being unmapped and faulted in again.
    Raising only one of them turns off glibc's dynamic threshold and faults
    more, not less.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def _work(points: Sequence[_Point], counter, lock, pipe: Tuple[int, int], sigint) -> None:
    """Body of a forked worker: put back the SIGINT handler `sigint`, claim
    points until none is left, send one message, exit."""
    global _IN_WORKER
    code = 1
    try:
        import pickle
        import signal
        import traceback

        signal.signal(signal.SIGINT, sigint)
        os.close(pipe[0])
        _IN_WORKER = True
        _keep_worker_heap()
        done = []
        while True:
            with lock:
                j = counter.value
                counter.value = j + 1
            if j >= len(points):
                break
            try:
                done.append((j, _evaluate(points[j])))
            except Exception as exc:
                done.append((j, _Raised(exc, traceback.format_exc())))
        with os.fdopen(pipe[1], "wb") as fh:
            fh.write(pickle.dumps(done, pickle.HIGHEST_PROTOCOL))
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
    finally:
        os._exit(code)


def _fork_join(points: Sequence[_Point], workers: int, ctx) -> list:
    """Outcomes of `points` in order, from `workers` children forked from this process.

    The children inherit the plan, claim point indices from a shared counter
    and each write one pickled list of (index, outcome) to its own pipe.
    This process never evaluates a point and never tunes its own allocator.
    However this function exits, every child still running is killed, and
    every child is reaped.

    A SIGINT that arrives while os.fork runs its at-fork hooks would be
    raised inside a hook, where Python only reports it and the run goes on.
    So each fork runs under a SIGINT handler that only records the signal.
    The child puts the previous handler back before it starts work; this
    process puts it back once the child is in `pids`, then acts on a
    recorded signal as that handler would have.
    """
    import pickle
    import select
    import signal

    counter = ctx.RawValue("q", 0)
    lock = ctx.Lock()
    pids: Dict[int, int] = {}  # read end of a child's pipe -> its pid, until reaped
    try:
        for _ in range(workers):
            pipe = os.pipe()
            held = []
            prev = signal.signal(signal.SIGINT, lambda signum, frame: held.append(signum))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(points, counter, lock, pipe, prev)
                pids[pipe[0]] = pid
            except BaseException:
                os.close(pipe[0])
                raise
            finally:
                os.close(pipe[1])
                signal.signal(signal.SIGINT, prev)
            if held and prev == signal.SIG_DFL:
                os.kill(os.getpid(), signal.SIGINT)
            elif held and callable(prev):
                prev(signal.SIGINT, None)
        chunks: Dict[int, List[bytes]] = {r: [] for r in pids}
        poller = select.poll()
        for r in pids:
            poller.register(r, select.POLLIN)
        while pids:
            for r, _ in poller.poll():
                data = os.read(r, 1 << 20)
                if data:
                    chunks[r].append(data)
                    continue
                poller.unregister(r)
                status = os.waitstatus_to_exitcode(os.waitpid(pids[r], 0)[1])
                del pids[r]
                os.close(r)
                if status:
                    raise RuntimeError(f"a check worker exited with status {status}")
    finally:
        for r, pid in pids.items():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            os.close(r)
    outcomes = [None] * len(points)
    for parts in chunks.values():
        for j, out in pickle.loads(b"".join(parts)):
            outcomes[j] = out
    return outcomes


def _evaluate_all(points: Sequence[_Point], jobs: int) -> list:
    """Outcomes of `points` in order, on min(jobs, points) forked workers.

    Runs in this process with one worker, inside a worker, without the
    fork start method, or while other threads run (a fork could copy a
    lock one of them holds).  An exception other than SymconeError that a
    point raises propagates; the first in plan order wins, as in process.
    """
    workers = min(jobs, len(points))
    if workers > 1 and not _IN_WORKER and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            outcomes = _fork_join(points, workers, multiprocessing.get_context("fork"))
            for out in outcomes:
                if isinstance(out, _Raised):
                    raise out.exc from RuntimeError(f"in a check worker:\n{out.trace}")
            return outcomes
    return [_evaluate(p) for p in points]


def _fold_fixed(check: LemmaCheck, ctx: RunContext, outcomes: list) -> CheckResult:
    ks = _levels(check, ctx)
    total = _Tally()
    failure = None
    for out in outcomes:
        if isinstance(out, SamplingExhaustedError):
            failure = out
            break
        if isinstance(out, SymconeError):
            raise out
        total = total.merge(out)
    best, wit, used, nonfinite, excluded = total
    tol = _tol_for(check, ctx)
    details = {"k_values": [k for k in ks], "tol": tol, "nonfinite_rows": nonfinite, "excluded_rows": excluded}
    if failure is not None:
        verdict = "ERROR"
        details["error"] = str(failure)
        details["rejections"] = failure.rejection_counts
    elif nonfinite:
        verdict = "ERROR"
        details["error"] = f"{nonfinite} rows gave a NaN slack"
    elif not used:
        verdict = "ERROR"
        details["error"] = "no row was evaluated: every sample fell outside the hypothesis"
    else:
        verdict = "PASS" if best >= -tol else "FAIL"
    return CheckResult(
        id=check.id, kind=check.kind, n=ctx.n, k=ks[0] if len(ks) == 1 else None,
        samples=used, min_slack=best if used else math.nan, verdict=verdict, seed=ctx.seed, witness=wit,
        details=details,
    )


def _fold_asymptotic(check: LemmaCheck, ctx: RunContext, outcomes: list) -> CheckResult:
    k, grid, Ks = _sweep(check, ctx)
    tol = _tol_for(check, ctx)
    points = []
    total = _Tally()
    for a, g in enumerate(grid):
        pt = _Tally()
        exhausted = None
        for out in outcomes[a * len(Ks):(a + 1) * len(Ks)]:
            if isinstance(out, SamplingExhaustedError):
                exhausted = out
                continue
            if isinstance(out, SymconeError):
                raise out
            pt = pt.merge(out)
        total = total.merge(pt)
        passed = exhausted is None and pt.used > 0 and pt.nonfinite == 0 and pt.best >= -tol
        point = {
            "kappa1": g,
            "min_slack": None if not math.isfinite(pt.best) else pt.best,
            "samples": pt.used,
            "nonfinite_rows": pt.nonfinite,
            "excluded_rows": pt.excluded,
            "passed": bool(passed),
            "exhausted": None if exhausted is None else str(exhausted),
        }
        if exhausted is not None:
            point["rejections"] = exhausted.rejection_counts
        points.append(point)
    star_idx = None
    for a in range(len(points)):
        if all(p["passed"] for p in points[a:]):
            star_idx = a
            break
    details = {
        "points": points, "K_grid": [Kv for Kv in Ks], "tol": tol,
        "nonfinite_rows": total.nonfinite, "excluded_rows": total.excluded,
    }
    kappa1_star = None
    if star_idx is not None:
        verdict = "THRESHOLD"
        kappa1_star = grid[star_idx]
    elif points[-1]["exhausted"] is not None:
        verdict = "ERROR"
    elif not points[-1]["samples"] and not points[-1]["nonfinite_rows"]:
        verdict = "ERROR"
        details["error"] = "no row was evaluated at the top point: every sample fell outside the hypothesis"
    else:
        verdict = "FAIL"
    return CheckResult(
        id=check.id, kind=check.kind, n=ctx.n, k=k, samples=total.used,
        min_slack=total.best if total.used else math.nan, verdict=verdict, seed=ctx.seed, witness=total.witness,
        kappa1_star=kappa1_star, details=details,
    )


def run_checks(
    requests: Sequence[Tuple[str, RunContext]], jobs: Optional[int] = None
) -> List[Union[CheckResult, SymconeError]]:
    """Run many checks, each request a (check id, RunContext) pair.

    The points of all requests (each k of a fixed check, each (kappa_1, K)
    of a sweep) draw from their own child seeds, so they are evaluated in
    one pass on `jobs` worker processes (default: every usable CPU) and
    folded per request in plan order.  Results do not depend on `jobs`.
    Returns, per request, its CheckResult or the SymconeError it raised;
    the first error in plan order wins, as in a one-by-one run.
    """
    jobs = resolve_jobs(jobs)
    plans = []
    for check_id, ctx in requests:
        try:
            plans.append(_plan(check_id, ctx))
        except SymconeError as exc:
            plans.append(exc)
    outcomes = iter(_evaluate_all([p for plan in plans if isinstance(plan, list) for p in plan], jobs))
    results = []
    for (check_id, ctx), plan in zip(requests, plans):
        if isinstance(plan, SymconeError):
            results.append(plan)
            continue
        check = REGISTRY[check_id]
        fold = _fold_asymptotic if check.kind == "ASYMPTOTIC" else _fold_fixed
        try:
            results.append(fold(check, ctx, [next(outcomes) for _ in plan]))
        except SymconeError as exc:
            results.append(exc)
    return results


def run_check(check_id: str, ctx: Optional[RunContext] = None, **kwargs) -> CheckResult:
    """Run one named check.  Either pass a RunContext or keyword fields."""
    if ctx is None:
        ctx = RunContext(**kwargs)
    elif kwargs:
        raise InvalidInputError("pass either a RunContext or keyword fields, not both")
    out = run_checks([(check_id, ctx)])[0]
    if isinstance(out, SymconeError):
        raise out
    return out
