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
  * A form built on kappa|i (A, B, C, D, H) is (n-1) x (n-1), indexed by
    the positions j != i in increasing order.
  * Off-diagonal entries store the coefficient of the ordered-pair sum
    "sum over p != q" as written, so xi^T M xi reproduces that sum exactly
    (each unordered pair appears twice in both).
"""

from __future__ import annotations

import numpy as np

from .symfun import batch_coeffs, batch_excl1_table, batch_excl2_table, order


# ---------------------------------------------------------------------------
# Batch builders (0-based distinguished index).
# ---------------------------------------------------------------------------


def key_matrix_batch(X: np.ndarray, k: int, i0: int, K):
    """The key matrices of the rows X (B, n), and the single-exclusion table
    T1 = batch_excl1_table(X) they are built from, for the caller to reuse."""
    T1 = batch_excl1_table(X)
    S = batch_excl2_table(X, (k - 2,))[k - 2]
    return key_matrix_from_parts(X, order(T1, k - 1), S, i0, K), T1


def inv_c(K, ki, s_ii):
    """1/c = K kappa_i sigma_{k-1}(kappa|i) - 1; the section-4 hypothesis c > 0
    holds where it is > 0.  An overflowing K term is +inf, inside the
    hypothesis, and the slack it feeds is NaN."""
    with np.errstate(over="ignore"):
        return K * ki * s_ii - 1  # an int 1 keeps a Fraction row exact


def key_matrix_from_parts(X: np.ndarray, v: np.ndarray, S: np.ndarray, i0: int, K) -> np.ndarray:
    """The key matrix of the rows X (B, n) from v = sigma_k^{jj} = sigma_{k-1}(X|j), (B, n),
    and S = sigma_k^{pp,qq} = sigma_{k-2}(X|p,q), (B, n, n) with a zero diagonal."""
    ki = X[:, i0]
    with np.errstate(over="ignore"):  # an overflowing K term is an inf entry, a NaN slack
        M = (K * ki)[..., None, None] * (v[:, :, None] * v[:, None, :])
    M -= ki[:, None, None] * S
    a = v + (ki[:, None] + X) * S[:, i0, :]  # diagonal weights a_j, j != i
    a[:, i0] = -v[:, i0]
    return _add_diag(M, a)


# ---------------------------------------------------------------------------
# The reduced forms on a vector Y (B, m), kappa|i or kappa itself, from its
# tables E = batch_excl1_table(Y) and S = batch_excl2_table(Y, orders).
# ---------------------------------------------------------------------------


def reduced_tables(X: np.ndarray, i0: int, orders):
    """Y = X without column i0, its single-exclusion table and its pair tables of `orders`."""
    Y = np.delete(X, i0, axis=1)
    return Y, batch_excl1_table(Y), batch_excl2_table(Y, orders)


def _with_diag(M: np.ndarray, d: np.ndarray) -> np.ndarray:
    """M with the diagonal of its last two axes set to d, in place."""
    idx = np.arange(M.shape[-1])
    M[..., idx, idx] = d
    return M


def _add_diag(M: np.ndarray, d: np.ndarray) -> np.ndarray:
    """M with d added to the diagonal of its last two axes, in place."""
    idx = np.arange(M.shape[-1])
    M[..., idx, idx] += d
    return M


def a_form(E: np.ndarray, S: dict, k: int) -> np.ndarray:
    """A: sigma_{k-2}(Y|pq)^2 - sigma_{k-1}(Y|pq) sigma_{k-3}(Y|pq) off the
    diagonal, sigma_{k-2}(Y|j)^2 on it; S holds orders k-3, k-2 and k-1."""
    return _with_diag(S[k - 2] ** 2 - S[k - 1] * S[k - 3], order(E, k - 2) ** 2)


def b_form(E: np.ndarray, S: dict, k: int) -> np.ndarray:
    """B: -sigma_{k-2}(Y|pq) off the diagonal, 2 sigma_{k-2}(Y|j) on it; S holds order k-2."""
    return _with_diag(-S[k - 2], 2.0 * order(E, k - 2))


def c_form(Y: np.ndarray, E: np.ndarray, S: dict, k: int) -> np.ndarray:
    """C: sigma_k(Y|pq) sigma_{k-2}(Y|pq) - sigma_{k-1}(Y|pq)^2 off the diagonal, y_j^2
    sigma_{k-2}(Y|j)^2 - 2 sigma_k(Y|j) sigma_{k-2}(Y|j) on it; S holds orders k-2..k."""
    d = Y**2 * order(E, k - 2) ** 2 - 2.0 * order(E, k) * order(E, k - 2)
    return _with_diag(S[k] * S[k - 2] - S[k - 1] ** 2, d)


def d_form(E: np.ndarray, k: int) -> np.ndarray:
    """D: the rank-one Gram matrix of w_j = sigma_{k-1}(Y|j)."""
    w = order(E, k - 1)
    return w[:, :, None] * w[:, None, :]


def h_ratio(cbar: np.ndarray, n: int):
    """r = 2 sigma_{n-3}(kappa|i) / (3 sigma_{n-5}(kappa|i)) from cbar = batch_coeffs(kappa|i),
    and the rows where both are positive; elsewhere r divides by 3 and the slack is -1."""
    s3, s5 = cbar[:, n - 3], order(cbar, n - 5)
    ok = (s3 > 0.0) & (s5 > 0.0)
    return 2.0 * s3 / (3.0 * np.where(ok, s5, 1.0)), ok


def h_form(Y: np.ndarray, S: dict, r: np.ndarray) -> np.ndarray:
    """H on Y = kappa|i (B, n-1): r sigma_{n-5}(Y|pq) sigma_{n-3}(Y|pq) - sigma_{n-3}(Y|pq)^2
    off the diagonal, sigma_{n-3}(Y^2|j) on it; S holds orders n-5 and n-3, r is `h_ratio`'s."""
    n = Y.shape[1] + 1
    d = order(batch_excl1_table(Y**2), n - 3)
    return _with_diag(r[:, None, None] * S[n - 5] * S[n - 3] - S[n - 3] ** 2, d)


def rhs_combination_batch(
    X: np.ndarray, k: int, i0: int, K, with_kappa_i_sq: bool, s_ii: np.ndarray
) -> np.ndarray:
    """(1/c) [alpha A + sigma_k B + C - c D], s_ii = sigma_{k-1}(kappa|i) of each
    row and 1/c = `inv_c`.  Where 1/c <= 0 (outside the hypothesis)
    c is taken as 1, and the caller masks the result."""
    Y, E, S = reduced_tables(X, i0, (k - 3, k - 2, k - 1, k))
    A, Bm, C, D = a_form(E, S, k), b_form(E, S, k), c_form(Y, E, S, k), d_form(E, k)
    sk = batch_coeffs(X)[:, k]
    denom = inv_c(K, X[:, i0], s_ii)
    c = 1.0 / np.where(denom > 0.0, denom, 1.0)
    alpha = X[:, i0] ** 2 if with_kappa_i_sq else np.ones(X.shape[0])
    comb = alpha[:, None, None] * A + sk[:, None, None] * Bm + C - c[..., None, None] * D
    return denom[..., None, None] * comb


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
    its eigenvalue and norm taken over 2^e, e the exponent of its largest
    entry; every other matrix keeps the plain quotient.  A matrix with a
    non-finite entry has no such scale: it gets a NaN slack and is not sent
    to `eigvalsh`.  The matrices are the last two axes, so a stack of any
    leading shape (such as one (B, m, m) stack per K) works.
    """
    with np.errstate(over="ignore"):  # an overflowing norm is rescaled below
        fro = np.sqrt(np.sum(M * M, axis=(-2, -1)))
    big = ~np.isfinite(fro)
    if not big.any():
        return np.linalg.eigvalsh(M)[..., 0] / np.maximum(fro, 1e-300)
    finite = np.isfinite(M).all(axis=(-2, -1))
    lam = np.full(fro.shape, np.nan)
    lam[finite] = np.linalg.eigvalsh(M[finite])[:, 0]
    e = np.where(big, np.frexp(np.abs(M).max(axis=(-2, -1)))[1], 0)  # 2^0 leaves the rest
    with np.errstate(over="ignore"):  # only next to a non-finite entry, whose slack is NaN
        Ms = np.ldexp(M, -e[..., None, None])
        fro = np.where(big, np.sqrt(np.sum(Ms * Ms, axis=(-2, -1))), fro)
    return np.ldexp(lam, -e) / np.maximum(fro, 1e-300)


_PILOTS = 8  # matrices eigensolved to set the screen's threshold
_DELTA = 2.0**-40  # the screen's margin: eigvalsh's error up to about 4000 eps of the norm


def _screened_relmin(M: np.ndarray, tol: float, valid=None) -> np.ndarray:
    """`_relmin` of every matrix of M that could hold the least slack of the
    matrices in `valid` (a mask of M's leading shape, default all), and a
    certified lower bound above that least slack on the others.

    The `_PILOTS` valid matrices with the least min-diagonal over norm (an
    upper bound on the slack) are eigensolved; m* is their least slack.
    Every other matrix goes through a Cholesky pivot test at the threshold
    t = max(m*, tol) + _DELTA, and only the matrices that fail it are
    eigensolved.  One that passes reads max(m*, tol) + _DELTA/2, strictly
    above m* and tol, so it can never hold the minimum or its witness.  The
    exact values are `_relmin`'s bits, which do not depend on the rest of
    the stack; the lower bounds do.  A call of at most 4 * `_PILOTS` valid
    matrices, or with a non-finite norm among them, is `_relmin` itself.
    Matrices outside `valid` are not evaluated and read NaN.

    The test factors C = fl(M/F - (t + r) I), F the Frobenius norm
    `_relmin` divides by, from its lower triangle as `eigvalsh` reads it.
    If floating-point Cholesky completes with positive pivots,
    lambda_min(C) > -alpha_m tr(C), alpha_m = gamma_{m+1}/(1 - gamma_{m+1})
    (S. M. Rump, "Verification of positive definiteness", BIT 46, 2006), and
    as the shift is positive, tr(C) <= tr(M)/F <= sqrt(m) up to rounding, so
    r = `_rump_shift(m)` covers it.  The roundings of M/F and of the shift,
    and any underflow, cost about 4u, so the exact slack exceeds t - 4u, and
    the slack eigvalsh would compute exceeds max(m*, tol) while its error
    stays below _DELTA - 4u, about 4000 eps of the norm.  A norm below
    2^-450 could have lost its squares to underflow; such a matrix is
    eigensolved.
    """
    lead, m = M.shape[:-2], M.shape[-1]
    M = M.reshape(-1, m, m)
    if valid is not None:
        out = np.full(M.shape[0], np.nan)
        out[np.ravel(valid)] = _screened_relmin(M[np.ravel(valid)], tol)
        return out.reshape(lead)
    N = M.shape[0]
    with np.errstate(over="ignore"):  # an overflowing norm takes `_relmin`'s scaled path
        fro = np.sqrt(np.sum(M * M, axis=(-2, -1)))
    if N <= 4 * _PILOTS or not np.isfinite(fro).all():
        return _relmin(M).reshape(lead)
    # M/F entry-major, (m, m, N), so that each step of the factorization is one contiguous op per entry
    C = np.divide(M.transpose(1, 2, 0), np.maximum(fro, 2.0**-450), out=np.empty((m, m, N)))
    diag = np.arange(m)
    pilots = np.argpartition(C[diag, diag].min(axis=0), _PILOTS)[:_PILOTS]
    lam = _relmin(M[pilots])
    floor = max(float(lam.min()), tol)
    C[diag, diag] -= floor + _DELTA + _rump_shift(m)
    solve = ~(_cholesky_completes(C) & (fro > 2.0**-450))
    solve[pilots] = False
    out = np.full(N, floor + _DELTA / 2)
    out[pilots] = lam
    out[solve] = _relmin(M[solve])
    return out.reshape(lead)


def _rump_shift(m: int) -> float:
    """alpha_m sqrt(m) for unit roundoff u = 2^-53, rounded up by 1% for the
    roundings of F and of the trace."""
    u = 2.0**-53
    g = (m + 1) * u / (1.0 - (m + 1) * u)
    return 1.01 * m**0.5 * g / (1.0 - g)


def _cholesky_completes(C: np.ndarray) -> np.ndarray:
    """Whether floating-point Cholesky runs to completion with positive pivots
    on the lower triangle of each matrix of C (m, m, N), the matrices on the
    last axis: one right-looking pass, vectorized over the matrices.  C is
    overwritten."""
    ok = np.ones(C.shape[-1], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # only on a matrix that fails
        for j in range(C.shape[0]):
            d = C[j, j]
            ok &= d > 0.0
            r = C[j + 1:, j] / np.sqrt(np.where(ok, d, 1.0))
            C[j + 1:, j + 1:] -= r[:, None] * r[None, :]
    return ok
