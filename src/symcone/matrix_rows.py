"""Row slack functions of the registry's matrix statements: PSD forms and the
asymptotic forms swept over the top scale kappa_1.

Signature: rows(X, aux, P) -> (B,) slacks, one per row of X.  Rows excluded
by a hypothesis guard return +inf.  A form's slack is its least eigenvalue
over its Frobenius norm (`quadforms._relmin`); the scalar asymptotic
statements use the inequality slack of `scalar_rows`.

P["K"] is a tuple of K values.  A statement with K (`uses_K`) builds its
K-free tables once and returns (len(P["K"]), B) slacks, one row per K, each
with the bits of a call at that K alone.
"""

from __future__ import annotations

import numpy as np

from .quadforms import (
    _relmin,
    abcd_batch,
    divdiff_exp_scaled,
    divdiff_ratio,
    h_matrix_batch,
    key_matrix_from_parts,
    lemma41_gap_batch,
)
from .scalar_rows import _ineq, _mag
from .symfun import batch_coeffs, batch_excl1_table, batch_excl2_table, order


# ---------------------------------------------------------------------------
# PSD forms.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Asymptotic forms.
# ---------------------------------------------------------------------------


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
    K = np.array(P["K"])[:, None]
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
    K = np.array(P["K"])[:, None]
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
        - cc[..., None, None] * D
    )
    G[..., idx, idx] += pen[:, None]
    return np.where(ok, _relmin(G), np.inf)


def _rows_key(X, aux, P):
    k = P["k"]
    i0 = P["i0"]
    K = np.array(P["K"])[:, None]
    v = order(batch_excl1_table(X), k - 1)
    ok = K * X[:, i0] * v[:, i0] > 1.0
    M = key_matrix_from_parts(X, v, batch_excl2_table(X, (k - 2,))[k - 2], i0, K)
    return np.where(ok, _relmin(M), np.inf)


def _rows_gap(X, aux, P, *, with_kappa_i_sq):
    k = P["k"]
    i0 = P["i0"]
    K = np.array(P["K"])[:, None]
    T1 = batch_excl1_table(X)
    ok = K * X[:, i0] * T1[:, i0, k - 1] > 1.0
    out = np.full(ok.shape, np.inf)
    rows = ok.any(axis=0)
    if rows.any():
        G = lemma41_gap_batch(X[rows], k, i0, K, with_kappa_i_sq, T1[rows])
        out[ok] = _relmin(G[ok[:, rows]])
    return out
