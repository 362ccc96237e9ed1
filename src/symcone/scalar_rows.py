"""Row slack functions of the registry's scalar statements: identities and
inequalities.

Signature: rows(X, aux, P) -> (B,) slacks, one per row of X.  Rows excluded
by a hypothesis guard return +inf.  An identity's slack is
-|residual| / (1 + the sum of its term magnitudes) (`_iden`), an
inequality's (lhs - rhs) / (1 + |lhs| + |rhs|) (`_ineq`).

A statement over an index set (every level l < k, pair p < q, position j)
stacks its candidate slacks on a leading axis in the statement's order and
reduces it once with `np.minimum.reduce`: the loop's minima in the loop's
order.  Two keep a loop: `_rows_l51`, whose inner sum is ragged in k, and
`_rows_l21`, whose per-level `einsum` has no fixed summation order batched.
"""

from __future__ import annotations

import math

import numpy as np

from .quadforms import inv_c
from .symfun import batch_coeffs, batch_excl1_table, batch_excl2_table, order


def _binom(n: int) -> np.ndarray:
    """C(n, m) for m = 0..n, as integers."""
    return np.array([math.comb(n, m) for m in range(n + 1)])


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
# Identities.
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
    invc = inv_c(K, ki, s_ii)
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
    s = np.arange(1, n + 1)
    c = np.concatenate([batch_coeffs(X).T, np.zeros((1, X.shape[0]), dtype=X.dtype)])  # c[-1]: sigma_{-1} = 0
    T = np.ascontiguousarray(batch_excl1_table(X).transpose(2, 0, 1))  # (order, B, i): each sum over i contiguous
    prods = T[n - s] * T[n - 1]
    r1 = c[n - s] * c[n - 1]
    r2 = -(s + 1)[:, None] * c[n] * c[n - s - 1]
    return np.minimum.reduce(_iden(prods.sum(axis=2) - (r1 + r2), np.abs(prods).sum(axis=2), r1, r2), axis=0)


def _rows_l55(X, aux, P):
    n = X.shape[1]
    T = batch_excl1_table(X)
    lhs = (batch_excl2_table(X, (n - 4,))[n - 4] ** 2).sum(axis=2).T
    r1 = 3 * order(T, n - 4).T ** 2
    r2 = -2 * order(T, n - 5).T * order(T, n - 3).T
    r3 = -4 * order(T, n - 6).T * order(T, n - 2).T
    r4 = -6 * order(T, n - 7).T * order(T, n - 1).T
    return np.minimum.reduce(_iden(lhs - (r1 + r2 + r3 + r4), lhs, r1, r2, r3, r4), axis=0)


# ---------------------------------------------------------------------------
# Inequalities.
# ---------------------------------------------------------------------------


def _rows_newton(X, aux, P):
    n = X.shape[1]
    k = np.arange(2, n + 1)
    c = batch_coeffs(X).T
    b = _binom(n)[:, None]
    lhs = (c[k - 1] / b[k - 1]) ** 2
    rhs = c[k] * c[k - 2] / (b[k] * b[k - 2])
    return np.minimum.reduce(_ineq(lhs, rhs), axis=0)


def _rows_maclaurin(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    c = batch_coeffs(X).T
    # one scalar exponent per level: numpy takes x ** 0.5 as sqrt, an array exponent as pow
    r = np.stack([(c[l] / math.comb(n, l)) ** (1.0 / l) for l in range(1, k + 1)])
    return np.minimum.reduce((r[:-1] - r[-1]) / (1.0 + r[:-1] + r[-1]), axis=0)


def _rows_gen_newton(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    c = batch_coeffs(X).T
    b = _binom(n)[:, None]
    s, r = np.add(np.tril_indices(k), 1)  # every 1 <= r <= s <= k, s-major
    kr = np.minimum(k + r, n)  # sigma_{k+r} = 0 past n
    lhs = c[s] * c[k] / (b[s] * b[k])
    rhs = np.where((k + r <= n)[:, None], c[s - r] * c[kr] / (b[s - r] * b[kr]), 0.0)
    return np.minimum.reduce(_ineq(lhs, rhs), axis=0)


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
    a, b = np.triu_indices(n, 1)  # every pair a < b, a-major
    lhs = theta * batch_excl1_table(X)[:, b, k - 1].T
    rhs = np.abs(batch_excl2_table(X, (k - 1,))[k - 1][:, a, b].T)
    return np.minimum.reduce(_ineq(lhs, rhs), axis=0)


def _rows_l23(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    s = np.arange(k + 1)
    c = batch_coeffs(X).T
    b = _binom(n)
    lhs = X[:, 0] ** s[:, None] * c[k - s] / c[k]
    return np.minimum.reduce(_ineq(lhs, (b[k - s] / b[k])[:, None]), axis=0)


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
    prod = np.cumprod(X[:, : k - 1], axis=1).T  # row s - 1: the product of the s largest entries
    return np.minimum.reduce(_ineq(batch_coeffs(X).T[1:k], prod), axis=0)


def _rows_l26(X, aux, P):
    n = X.shape[1]
    k = P["k"]
    theta = 1.0 / (n ** (n - k) * math.comb(n, k))
    lhs = batch_excl1_table(X)[:, :k, k - 1].T
    rhs = theta * batch_coeffs(X)[:, k] / X[:, :k].T
    return np.minimum.reduce(_ineq(lhs, rhs), axis=0)


def _rows_l58(X, aux, P):
    n = X.shape[1]
    lhs = 4.0 * order(batch_coeffs(X), n - 4) ** 2
    rhs = (batch_excl2_table(X, (n - 4,))[n - 4] ** 2).sum(axis=2).T
    return np.minimum.reduce(_ineq(lhs, rhs), axis=0)


def _rows_l59(X, aux, P):
    n = X.shape[1]
    cb = batch_coeffs(X[:, 1:])
    ratio = order(cb, n - 3) / X[:, 0] ** (n - 3)
    delta = np.array([[0.1], [0.3]])
    d = delta.astype(object)  # Python float powers: numpy's array pow may round them differently
    dp = np.minimum(d ** (n - 2) / 2 ** (n - 1), d ** (n - 1)).astype(float)
    hyp = (-X[:, n - 1] >= delta * X[:, 0]) | (X[:, n - 2] >= delta * X[:, 0])
    val = (ratio - dp) / (1.0 + np.abs(ratio) + dp)
    return np.minimum.reduce(np.where(hyp, val, np.inf), axis=0)
