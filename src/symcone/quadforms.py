"""Quadratic forms of the sigma_k curvature estimate, as explicit matrices.

Every builder is row-parallel: it maps the rows X (B, n) to a stack of
(B, m, m) matrices, one per row, and is shared by the lemma registry and the
key-form search.  A batch of one is X[None].

K enters only the rank-one term and the constant c.  A builder's K is a
scalar or a column (nK, 1): a column builds the K-free tables once and gives
a (nK, B, m, m) stack, each (B, m, m) with the bits of a call at that K.

Index conventions:
  * The distinguished index `i0` is a 0-based position in kappa.  The
    builders do not validate it or the level k; `RunContext` and
    `SearchConfig` do, before anything is built.
  * The reduced forms (A, B, C, D, H) are (n-1) x (n-1), indexed by the
    positions j != i in increasing order.
  * Off-diagonal entries store the coefficient of the ordered-pair sum
    "sum over p != q" as written, so xi^T M xi reproduces that sum exactly
    (each unordered pair appears twice in both).
"""

from __future__ import annotations

import numpy as np

from .errors import SingularDenominatorError
from .symfun import batch_coeffs, batch_excl1_table, batch_excl2_table, order


# ---------------------------------------------------------------------------
# Batch builders (0-based distinguished index).
# ---------------------------------------------------------------------------


def key_matrix_batch(X: np.ndarray, k: int, i0: int, K) -> np.ndarray:
    S = batch_excl2_table(X, (k - 2,))[k - 2]
    return key_matrix_from_parts(X, order(batch_excl1_table(X), k - 1), S, i0, K)


def key_matrix_from_parts(X: np.ndarray, v: np.ndarray, S: np.ndarray, i0: int, K) -> np.ndarray:
    """The key matrix of the rows X (B, n) from v = sigma_k^{jj} = sigma_{k-1}(X|j), (B, n),
    and S = sigma_k^{pp,qq} = sigma_{k-2}(X|p,q), (B, n, n) with a zero diagonal."""
    n = X.shape[1]
    ki = X[:, i0]
    M = (K * ki)[..., None, None] * (v[:, :, None] * v[:, None, :])
    M -= ki[:, None, None] * S
    a = v + (ki[:, None] + X) * S[:, i0, :]  # diagonal weights a_j, j != i
    a[:, i0] = -v[:, i0]
    idx = np.arange(n)
    M[..., idx, idx] += a
    return M


def abcd_batch(X: np.ndarray, k: int, i0: int):
    """The reduced forms on the positions j != i; the tables hold
    sigma_t(kappa | i j) and sigma_t(kappa | i p q)."""
    Y = np.delete(X, i0, axis=1)
    m = Y.shape[1]
    T1 = batch_excl1_table(Y)
    one = {t: order(T1, t) for t in (k - 2, k - 1, k)}
    two = batch_excl2_table(Y, (k - 3, k - 2, k - 1, k))
    offdiag = ~np.eye(m, dtype=bool)
    A = np.where(offdiag, two[k - 2] ** 2 - two[k - 1] * two[k - 3], 0.0)
    Bm = np.where(offdiag, -two[k - 2], 0.0)
    C = np.where(offdiag, two[k] * two[k - 2] - two[k - 1] ** 2, 0.0)
    D = one[k - 1][:, :, None] * one[k - 1][:, None, :]
    idx = np.arange(m)
    A[:, idx, idx] = one[k - 2] ** 2
    Bm[:, idx, idx] = 2.0 * one[k - 2]
    C[:, idx, idx] = Y**2 * one[k - 2] ** 2 - 2.0 * one[k] * one[k - 2]
    # D diagonal is already sigma_{k-1}^2(kappa|ij) from the outer product
    return A, Bm, C, D


def h_matrix_batch(X: np.ndarray, i0: int) -> np.ndarray:
    n = X.shape[1]
    m = n - 1
    Y = np.delete(X, i0, axis=1)
    two = batch_excl2_table(Y, (n - 5, n - 3))
    cbar = batch_coeffs(Y)
    s3 = cbar[:, n - 3]
    s5 = cbar[:, n - 5]
    if np.any(s5 == 0.0):
        raise SingularDenominatorError("sigma_{n-5}(kappa|i) vanished in H construction")
    r = 2.0 * s3 / (3.0 * s5)
    offdiag = ~np.eye(m, dtype=bool)
    H = np.where(offdiag, r[:, None, None] * two[n - 5] * two[n - 3] - two[n - 3] ** 2, 0.0)
    idx = np.arange(m)
    H[:, idx, idx] = order(batch_excl1_table(Y**2), n - 3)
    return H


def rhs_combination_batch(
    X: np.ndarray, k: int, i0: int, K, with_kappa_i_sq: bool, s_ii: np.ndarray
) -> np.ndarray:
    """(1/c) [alpha A + sigma_k B + C - c D], s_ii = sigma_{k-1}(kappa|i) of each
    row and 1/c = K kappa_i s_ii - 1.  Where 1/c <= 0 (outside the hypothesis)
    c is taken as 1, and the caller masks the result."""
    A, Bm, C, D = abcd_batch(X, k, i0)
    sk = batch_coeffs(X)[:, k]
    denom = K * X[:, i0] * s_ii - 1.0
    c = 1.0 / np.where(denom > 0.0, denom, 1.0)
    alpha = X[:, i0] ** 2 if with_kappa_i_sq else np.ones(X.shape[0])
    comb = alpha[:, None, None] * A + sk[:, None, None] * Bm + C - c[..., None, None] * D
    return denom[..., None, None] * comb


def lemma41_gap_batch(
    X: np.ndarray, k: int, i0: int, K, with_kappa_i_sq: bool, T1: np.ndarray
) -> np.ndarray:
    """LHS - RHS of the section-4 matrix inequality, in consistently scaled form.

    Both sides are multiplied by kappa_i K (sigma_k^{ii})^2 - sigma_k^{ii}
    (positive whenever c > 0), matching the proof's final line; the result is
    PSD iff  keyform >= (1/sigma_k^{ii}) [alpha A + sigma_k B + C - c D].
    T1 = batch_excl1_table(X) serves both sides.
    """
    s_ii = T1[:, i0, k - 1]
    mult = X[:, i0] * K * s_ii**2 - s_ii
    S = batch_excl2_table(X, (k - 2,))[k - 2]
    G = mult[..., None, None] * key_matrix_from_parts(X, order(T1, k - 1), S, i0, K)
    keep = np.delete(np.arange(X.shape[1]), i0)
    G[..., keep[:, None], keep] -= rhs_combination_batch(X, k, i0, K, with_kappa_i_sq, s_ii)
    return G


# ---------------------------------------------------------------------------
# Divided differences of the exponential, for the Section-3 test-function
# terms.
# ---------------------------------------------------------------------------


def divdiff_ratio(d) -> np.ndarray:
    """(1 - e^{-d})/d for any sign of d, elementwise; the Taylor series
    replaces expm1 for |d| < 1e-6, and the limit at d = 0 is 1."""
    d = np.asarray(d, dtype=float)
    small = np.abs(d) < 1e-6
    dd = np.where(small, 1.0, d)
    series = 1.0 - d / 2.0 + d * d / 6.0 - d**3 / 24.0
    return np.where(small, series, -np.expm1(-dd) / dd)


def divdiff_exp_scaled(a, b, top):
    """(e^a - e^b)/(a - b) * e^{-top}, elementwise-stable; the coincidence
    limit is e^{a - top}."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.exp(np.maximum(a, b) - top) * divdiff_ratio(np.abs(a - b))


# ---------------------------------------------------------------------------
# Eigenvalues.
# ---------------------------------------------------------------------------


def _relmin(M: np.ndarray) -> np.ndarray:
    """Least eigenvalue over the Frobenius norm, for each matrix of a batch.

    LAPACK scales inside `eigvalsh`, but the norm squares the entries, which
    overflows above about 1e154.  A matrix whose plain norm is not finite has
    its eigenvalue and norm taken over a power of two near its largest
    entry; every other matrix keeps the plain quotient.  A matrix with a
    non-finite entry has no such scale and gets a NaN slack (if `eigvalsh`
    returns on it at all).  The matrices are the last two axes, so a stack
    of any leading shape (such as one (B, m, m) stack per K) works.
    """
    with np.errstate(over="ignore"):  # an overflowing norm is rescaled below
        fro = np.sqrt(np.sum(M * M, axis=(-2, -1)))
    lam = np.linalg.eigvalsh(M)[..., 0]
    big = ~np.isfinite(fro)
    if big.any():
        amax = np.abs(M[big]).max(axis=(1, 2))
        s = np.where(np.isfinite(amax), np.ldexp(1.0, np.frexp(amax)[1]), np.nan)
        Ms = M[big] / s[:, None, None]
        lam[big] /= s
        fro[big] = np.sqrt(np.sum(Ms * Ms, axis=(1, 2)))
    return lam / np.maximum(fro, 1e-300)
