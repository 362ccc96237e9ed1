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
    _add_diag, _relmin, _with_diag, a_form, b_form, c_form, d_form, divdiff_exp_scaled, divdiff_ratio, h_form,
    h_ratio, key_matrix_from_parts, lemma41_gap_batch, reduced_tables,
)
from .scalar_rows import _ineq, _mag
from .symfun import batch_coeffs, batch_excl1_table, batch_excl2_table, order


# ---------------------------------------------------------------------------
# PSD forms.
# ---------------------------------------------------------------------------


def _rows_l52(X, aux, P):
    n = X.shape[1]
    Pc = batch_excl2_table(X, range(n + 1))
    M = np.stack([Pc.pop(s) for s in range(n + 1)])  # (n+1, B, n, n), one matrix per order s
    _with_diag(M[:n], batch_excl1_table(X).transpose(2, 0, 1))  # order n is the zero matrix
    return np.minimum.reduce(_relmin(M))


def _rows_l53(X, aux, P):
    n = X.shape[1]
    return _relmin(b_form(batch_excl1_table(X), batch_excl2_table(X, (n - 3,)), n - 1))


def _rows_l56(X, aux, P):
    s = P["k"]
    return _relmin(a_form(batch_excl1_table(X), batch_excl2_table(X, (s - 2, s - 1, s)), s + 1))


def _rows_d_gram(X, aux, P):
    return _relmin(d_form(batch_excl1_table(np.delete(X, 0, axis=1)), P["k"]))


def _rows_a_psd(X, aux, P):
    k = P["k"]
    _, E, S = reduced_tables(X, 0, (k - 3, k - 2, k - 1))
    return _relmin(a_form(E, S, k))


def _rows_b_psd(X, aux, P):
    k = P["k"]
    _, E, S = reduced_tables(X, 0, (k - 2,))
    return _relmin(b_form(E, S, k))


def _rows_l64(X, aux, P):
    n = X.shape[1]
    Y = np.delete(X, P["i0"], axis=1)
    r, ok = h_ratio(batch_coeffs(Y), n)
    return np.where(ok, _relmin(h_form(Y, batch_excl2_table(Y, (n - 5, n - 3)), r)), -1.0)


def _rows_s615(X, aux, P):
    n = X.shape[1]
    Y, E, S = reduced_tables(X, P["i0"], (n - 5, n - 3))
    cbar = batch_coeffs(Y)
    r, ok = h_ratio(cbar, n)
    Rd = r[:, None] * (
        order(E, n - 5) * order(E, n - 3)
        - 4.0 * order(E, n - 6) * order(E, n - 2)
        - (4.0 / 3.0) * (order(cbar, n - 5) * cbar[:, n - 3])[:, None]
    )
    return np.where(ok, _relmin(_add_diag(h_form(Y, S, r), -Rd)), -1.0)


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
    Y, E, S = reduced_tables(X, i0, (n - 5, n - 4, n - 3))
    r, ok = h_ratio(batch_coeffs(Y), n)
    Rd = 2.0 * order(E, n - 3) * order(E, n - 5) - 2.0 * order(E, n - 2) * order(E, n - 6)
    R = _with_diag(S[n - 3] * S[n - 5], Rd)
    G = (8.0 / 9.0) * (X[:, i0] ** 2)[:, None, None] * a_form(E, S, n - 2) - r[:, None, None] * R
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
    k = n - 2
    Y, E, S = reduced_tables(X, i0, (k - 3, k - 2, k - 1, k))
    pen = (1.0 / 20.0) * order(batch_coeffs(Y), n - 3) ** 2
    G = (8.0 / 9.0) * (X[:, i0] ** 2)[:, None, None] * a_form(E, S, k) + c_form(Y, E, S, k)
    return _relmin(_add_diag(G, -pen[:, None]))


def _rows_s602(X, aux, P):
    n = X.shape[1]
    i0 = P["i0"]
    k = n - 2
    K = np.array(P["K"])[:, None]
    Y, E, S = reduced_tables(X, i0, (k - 3, k - 2, k - 1))
    c = batch_coeffs(X)
    s_ii = order(batch_coeffs(Y), n - 3)
    denom = K * X[:, i0] * s_ii - 1.0
    ok = denom > 0.0
    cc = 1.0 / np.where(ok, denom, 1.0)
    pen = (1.0 / 20.0) * s_ii**2
    G = (
        (1.0 / 9.0) * (X[:, i0] ** 2)[:, None, None] * a_form(E, S, k)
        + c[:, n - 2][:, None, None] * b_form(E, S, k)
        - cc[..., None, None] * d_form(E, k)
    )
    return np.where(ok, _relmin(_add_diag(G, pen[:, None])), np.inf)


def _rows_key(X, aux, P):
    k = P["k"]
    i0 = P["i0"]
    K = np.array(P["K"])[:, None]
    v = order(batch_excl1_table(X), k - 1)
    with np.errstate(over="ignore"):  # an overflowing K kappa_i v_i is inside the hypothesis
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
