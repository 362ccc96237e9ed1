"""Row slack functions of the registry's matrix statements: PSD forms and the
asymptotic forms swept over the top scale kappa_1.

Signature: rows(X, aux, P) -> (B,) slacks, one per row of X.  Rows excluded
by a hypothesis guard return +inf.  A form's slack is its least eigenvalue
over its Frobenius norm (`quadforms._relmin`), screened where P carries
the screen's tolerance (`_slack`); the scalar asymptotic statements use the
inequality slack of `scalar_rows`.

P["K"] is a tuple of K values.  A statement with K (`uses_K`) builds its
K-free tables once and returns (len(P["K"]), B) slacks, one row per K, each
with the bits of a call at that K alone.

A statement over the positions j != i stacks its candidate slacks on a
leading axis in ascending j (`_rows_l34`: both bounds at each j) and reduces
it once with `np.minimum.reduce`, as `_rows_l52` reduces its orders.
"""

from __future__ import annotations

import numpy as np

from .quadforms import (
    _add_diag, _relmin, _screened_relmin, _with_diag, a_form, b_form, c_form, d_form, divdiff_exp_scaled,
    divdiff_ratio, h_form, h_ratio, inv_c, key_matrix_batch, reduced_tables, rhs_combination_batch,
)
from .scalar_rows import _ineq, _mag
from .symfun import batch_coeffs, batch_excl1_table, batch_excl2_table, order


# ---------------------------------------------------------------------------
# PSD forms.
# ---------------------------------------------------------------------------


def _slack(M, P, valid=None):
    """`_relmin` of M, or `_screened_relmin` at the tolerance P["screen"]
    where P carries one (the registry's runs do; a replay does not).  The
    caller masks the matrices outside `valid`."""
    tol = P.get("screen")
    return _relmin(M) if tol is None else _screened_relmin(M, tol, valid)


def _rows_l52(X, aux, P):
    n = X.shape[1]
    Pc = batch_excl2_table(X, range(1, n))
    M = np.stack([Pc.pop(s) for s in range(1, n)])  # (n-1, B, n, n), one matrix per order s = 1..n-1
    _with_diag(M, batch_excl1_table(X)[:, :, 1:].transpose(2, 0, 1))
    # Order 0 is the all-ones J and order n the zero matrix on every row: one of each is solved.
    slack = _slack(np.concatenate([np.stack([np.ones((n, n)), np.zeros((n, n))]), M.reshape(-1, n, n)]), P)
    ends = np.broadcast_to(slack[:2, None], (2, X.shape[0]))
    return np.minimum.reduce(np.concatenate([ends[:1], slack[2:].reshape(n - 1, X.shape[0]), ends[1:]]))


def _rows_l53(X, aux, P):
    n = X.shape[1]
    return _relmin(b_form(batch_excl1_table(X), batch_excl2_table(X, (n - 3,)), n - 1))


def _rows_l56(X, aux, P):
    s = P["k"]
    return _slack(a_form(batch_excl1_table(X), batch_excl2_table(X, (s - 2, s - 1, s)), s + 1), P)


def _rows_d_gram(X, aux, P):
    return _relmin(d_form(batch_excl1_table(np.delete(X, 0, axis=1)), P["k"]))


def _rows_a_psd(X, aux, P):
    k = P["k"]
    _, E, S = reduced_tables(X, 0, (k - 3, k - 2, k - 1))
    return _slack(a_form(E, S, k), P)


def _rows_b_psd(X, aux, P):
    k = P["k"]
    _, E, S = reduced_tables(X, 0, (k - 2,))
    return _relmin(b_form(E, S, k))


def _rows_l64(X, aux, P):
    n = X.shape[1]
    Y = np.delete(X, P["i0"], axis=1)
    r, ok = h_ratio(batch_coeffs(Y), n)
    return np.where(ok, _slack(h_form(Y, batch_excl2_table(Y, (n - 5, n - 3)), r), P, ok), -1.0)


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
    return np.where(ok, _slack(_add_diag(h_form(Y, S, r), -Rd), P, ok), -1.0)


# ---------------------------------------------------------------------------
# Asymptotic forms.
# ---------------------------------------------------------------------------


def _rows_l32(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    i0 = P["i0"]
    eps = 1.0 / (3.0 * k)
    top = X[:, 0]
    l = np.delete(np.arange(n), i0)
    E = batch_excl1_table(X)
    s2 = batch_excl2_table(X, (k - 2,))[k - 2][:, i0, l].T
    wl = np.exp(X.T[l] - top)
    dd = divdiff_exp_scaled(X.T[l], X[:, i0], top)
    lhs = (2.0 - eps) * (wl * s2 + dd * E[:, l, k - 1].T)
    rhs = wl * E[:, i0, k - 1] / X[:, 0]
    return np.minimum.reduce(_ineq(lhs, rhs), axis=0)


def _rows_l34(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    i0 = P["i0"]
    j = np.delete(np.arange(n), i0)
    E = batch_excl1_table(X)
    s_ii = E[:, i0, k - 1]
    ki, kj = X[:, i0], X.T[j]
    s_jj = E[:, j, k - 1].T
    aj = s_jj + (ki + kj) * batch_excl2_table(X, (k - 2,))[k - 2][:, i0, j].T
    with np.errstate(over="ignore", invalid="ignore"):  # kappa_j - kappa_i > ~709: lhs = +-inf, slack +-1
        lhs = 2.0 * ki * divdiff_ratio(ki - kj) * s_jj
        bound = np.where(np.isinf(lhs), np.sign(lhs), _ineq(lhs, aj))
    # the L-quantity, scaled by e^{-|kappa_i - kappa_j|} to stay finite
    Lsc = np.where(
        ki > kj,
        (ki + kj) * s_ii - 2.0 * ki * np.exp(np.minimum(kj - ki, 0.0)) * s_jj,
        2.0 * ki * s_jj - (ki + kj) * np.exp(np.minimum(ki - kj, 0.0)) * s_ii,
    )
    both = np.stack([bound, Lsc / (1.0 + np.abs(Lsc))], axis=1)  # (j, 2, B): both bounds at each j
    return np.minimum.reduce(both.reshape(-1, X.shape[0]), axis=0)


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
    rhs = (1.0 / logP) * w[:, i0] * E[:, i0, k - 1] * h[:, i0] ** 2
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing K term is a NaN slack
        return _ineq(w[:, i0] * (K * gsum**2 - spq) + 2.0 * term.sum(axis=1), rhs)


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
    # C-contiguous columns l != i0, so that each row's sum runs over its own last axis
    others = np.delete(np.arange(n), i0)
    w, s2, h2 = (np.ascontiguousarray(a[:, others]) for a in (w, s2, h**2))
    lhs = 2.0 * (w * s2 * h2).sum(axis=1)
    rhs = (1.0 / logP) * s_ii * (w * h2).sum(axis=1)
    v = 2.0 * X[:, 0] * s2.T - s_ii  # the scalar sufficient bound at each l != i0
    return np.minimum.reduce(np.concatenate([_ineq(lhs, rhs)[None], v / (1.0 + np.abs(v))]), axis=0)


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
    return np.where(ok, _slack(G, P, ok), -1.0)


def _rows_l63(X, aux, P):
    n = X.shape[1]
    i0 = P["i0"]
    Y = np.delete(X, i0, axis=1)
    T1 = batch_excl1_table(Y)
    cbar = batch_coeffs(Y)
    s2b = cbar[:, n - 2]
    s3 = cbar[:, n - 3]
    s5 = order(cbar, n - 5)
    s6j, s2j = order(T1, n - 6).T, order(T1, n - 2).T  # (j, B), j over the entries of kappa|i
    t1 = -s2b * s6j
    t2 = -s2j * s6j
    t3 = (1.0 / 40.0) * s3 * s5
    return np.minimum.reduce((t1 + t2 + t3) / _mag(t1, t2, t3), axis=0)


def _rows_s601(X, aux, P):
    n = X.shape[1]
    i0 = P["i0"]
    k = n - 2
    Y, E, S = reduced_tables(X, i0, (k - 3, k - 2, k - 1, k))
    pen = (1.0 / 20.0) * order(batch_coeffs(Y), n - 3) ** 2
    G = (8.0 / 9.0) * (X[:, i0] ** 2)[:, None, None] * a_form(E, S, k) + c_form(Y, E, S, k)
    return _slack(_add_diag(G, -pen[:, None]), P)


def _rows_s602(X, aux, P):
    n = X.shape[1]
    i0 = P["i0"]
    k = n - 2
    K = np.array(P["K"])[:, None]
    Y, E, S = reduced_tables(X, i0, (k - 3, k - 2, k - 1))
    c = batch_coeffs(X)
    s_ii = order(batch_coeffs(Y), n - 3)
    denom = inv_c(K, X[:, i0], s_ii)
    ok = denom > 0.0
    cc = 1.0 / np.where(ok, denom, 1.0)
    pen = (1.0 / 20.0) * s_ii**2
    G = (
        (1.0 / 9.0) * (X[:, i0] ** 2)[:, None, None] * a_form(E, S, k)
        + c[:, n - 2][:, None, None] * b_form(E, S, k)
        - cc[..., None, None] * d_form(E, k)
    )
    return np.where(ok, _slack(_add_diag(G, pen[:, None]), P, ok), np.inf)


def _rows_key(X, aux, P):
    k = P["k"]
    i0 = P["i0"]
    K = np.array(P["K"])[:, None]
    M, T1 = key_matrix_batch(X, k, i0, K)
    return np.where(inv_c(K, X[:, i0], T1[:, i0, k - 1]) > 0.0, _relmin(M), np.inf)


def _rows_gap(X, aux, P, *, with_kappa_i_sq):
    """LHS - RHS of the section-4 matrix inequality, both sides multiplied by
    kappa_i K (sigma_k^{ii})^2 - sigma_k^{ii} (positive where c > 0) as in the
    proof's final line: PSD iff keyform >= (1/sigma_k^{ii}) [alpha A + sigma_k B + C - c D]."""
    k = P["k"]
    i0 = P["i0"]
    K = np.array(P["K"])[:, None]
    G, T1 = key_matrix_batch(X, k, i0, K)
    s_ii = T1[:, i0, k - 1]
    keep = np.delete(np.arange(X.shape[1]), i0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing K term is a NaN slack
        G *= (X[:, i0] * K * s_ii**2 - s_ii)[..., None, None]
        G[..., keep[:, None], keep] -= rhs_combination_batch(X, k, i0, K, with_kappa_i_sq, s_ii)
    return np.where(inv_c(K, X[:, i0], s_ii) > 0.0, _relmin(G), np.inf)
