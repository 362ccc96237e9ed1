"""Quadratic forms of the sigma_k curvature estimate, as explicit matrices.

Index conventions:
  * Public `i`, `p`, `q` arguments are 1-based positions in kappa.
  * The reduced forms (A, B, C, D, H) are (n-1) x (n-1), indexed by the
    positions j != i in increasing order.
  * Off-diagonal entries store the coefficient of the ordered-pair sum
    "sum over p != q" as written, so xi^T M xi reproduces that sum exactly
    (each unordered pair appears twice in both).

All builders have row-parallel batch variants (suffix `_batch`, 0-based i)
used by the lemma registry; the scalar API wraps a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InvalidInputError, SingularDenominatorError
from .symfun import (
    _as_vector,
    batch_coeffs,
    batch_excl1_table,
    batch_excl2_table,
    order,
)

__all__ = [
    "QuadForm",
    "KeyParams",
    "TestFnTerms",
    "key_matrix",
    "abcd_matrices",
    "rhs_combination",
    "lemma41_gap",
    "h_matrix",
    "testfn_terms",
    "min_eig",
]

@dataclass(frozen=True)
class QuadForm:
    n: int
    entries: np.ndarray
    label: str

    def __post_init__(self):
        e = self.entries
        if e.shape != (self.n, self.n):
            raise InvalidInputError(f"entries shape {e.shape} != ({self.n}, {self.n})")

    def __call__(self, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        return float(xi @ self.entries @ xi)


@dataclass(frozen=True)
class KeyParams:
    """(k, i, K) plus the derived constant c = 1/(K kappa_i sigma_{k-1}(kappa|i) - 1)."""

    k: int
    i: int  # 1-based
    K: float
    c: float

    @staticmethod
    def for_kappa(kappa, k: int, i: int, K: float) -> "KeyParams":
        arr = _as_vector(kappa)
        _check_k(k, arr.size)
        if not 1 <= i <= arr.size:
            raise InvalidInputError(f"i={i} out of range [1, {arr.size}]")
        s_ii = float(batch_coeffs(np.delete(arr, i - 1)[None, :])[0, k - 1])
        denom = K * arr[i - 1] * s_ii - 1.0
        if not denom > 0:
            raise DomainError(
                f"K*kappa_i*sigma_(k-1)(kappa|i) - 1 = {denom} must be positive for c_(k,K)"
            )
        return KeyParams(k=k, i=i, K=float(K), c=1.0 / denom)


@dataclass(frozen=True)
class TestFnTerms:
    """The five scalar test-function terms, each scaled by e^{-kappa_1}."""

    Ai: float
    Bi: float
    Ci: float
    Di: float
    Ei: float
    small_kappa1: bool = False  # kappa_1 <= 1: the large-scale regime is vacuous

    def combination(self) -> float:
        return self.Ai + self.Bi + self.Ci + self.Di - self.Ei


# ---------------------------------------------------------------------------
# Batch builders (0-based distinguished index).
# ---------------------------------------------------------------------------


def key_matrix_batch(X: np.ndarray, k: int, i0: int, K: float) -> np.ndarray:
    return key_matrix_from_table(X, batch_excl1_table(X), k, i0, K)


def key_matrix_from_table(X: np.ndarray, T1: np.ndarray, k: int, i0: int, K: float) -> np.ndarray:
    """The key matrix of the rows X, for callers that hold T1 = batch_excl1_table(X)."""
    return key_matrix_from_parts(X, order(T1, k - 1), batch_excl2_table(X, (k - 2,))[k - 2], i0, K)


def key_matrix_from_parts(X: np.ndarray, v: np.ndarray, S: np.ndarray, i0: int, K: float) -> np.ndarray:
    """The key matrix of the rows X (B, n) from v = sigma_k^{jj} = sigma_{k-1}(X|j), (B, n),
    and S = sigma_k^{pp,qq} = sigma_{k-2}(X|p,q), (B, n, n) with a zero diagonal."""
    n = X.shape[1]
    ki = X[:, i0]
    M = K * ki[:, None, None] * (v[:, :, None] * v[:, None, :])
    M -= ki[:, None, None] * S
    a = v + (ki[:, None] + X) * S[:, i0, :]  # diagonal weights a_j, j != i
    a[:, i0] = -v[:, i0]
    idx = np.arange(n)
    M[:, idx, idx] += a
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


def embed_reduced(M: np.ndarray, n: int, i0: int) -> np.ndarray:
    """Embed a (B, n-1, n-1) reduced form into (B, n, n) with row/col i0 zero."""
    B = M.shape[0]
    out = np.zeros((B, n, n))
    keep = [j for j in range(n) if j != i0]
    out[np.ix_(np.arange(B), keep, keep)] = M
    return out


def rhs_combination_batch(
    X: np.ndarray, k: int, i0: int, K: float, with_kappa_i_sq: bool, s_ii: Optional[np.ndarray] = None
) -> np.ndarray:
    """s_ii = sigma_{k-1}(kappa|i) of each row, computed when not given."""
    A, Bm, C, D = abcd_batch(X, k, i0)
    if s_ii is None:
        s_ii = batch_coeffs(np.delete(X, i0, axis=1))[:, k - 1]
    sk = batch_coeffs(X)[:, k]
    denom = K * X[:, i0] * s_ii - 1.0
    if np.any(denom <= 0):
        raise DomainError("K*kappa_i*sigma_(k-1)(kappa|i) must exceed 1 on every row")
    c = 1.0 / denom
    alpha = X[:, i0] ** 2 if with_kappa_i_sq else np.ones(X.shape[0])
    comb = (
        alpha[:, None, None] * A
        + sk[:, None, None] * Bm
        + C
        - c[:, None, None] * D
    )
    return denom[:, None, None] * comb


def lemma41_gap_batch(
    X: np.ndarray, k: int, i0: int, K: float, with_kappa_i_sq: bool, T1: Optional[np.ndarray] = None
) -> np.ndarray:
    """LHS - RHS of the section-4 matrix inequality, in consistently scaled form.

    Both sides are multiplied by kappa_i K (sigma_k^{ii})^2 - sigma_k^{ii}
    (positive whenever c > 0), matching the proof's final line; the result is
    PSD iff  keyform >= (1/sigma_k^{ii}) [alpha A + sigma_k B + C - c D].
    T1 = batch_excl1_table(X), computed when not given, serves both sides.
    """
    n = X.shape[1]
    if T1 is None:
        T1 = batch_excl1_table(X)
    s_ii = T1[:, i0, k - 1]
    mult = X[:, i0] * K * s_ii**2 - s_ii
    lhs = mult[:, None, None] * key_matrix_from_table(X, T1, k, i0, K)
    rhs = embed_reduced(rhs_combination_batch(X, k, i0, K, with_kappa_i_sq, s_ii), n, i0)
    return lhs - rhs


# ---------------------------------------------------------------------------
# Scalar API.
# ---------------------------------------------------------------------------


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise InvalidInputError(f"k={k} out of range [1, {n}]")


def _check_i(i: int, n: int) -> int:
    if not 1 <= i <= n:
        raise InvalidInputError(f"i={i} out of range [1, {n}]")
    return i - 1


def key_matrix(kappa, params: KeyParams) -> QuadForm:
    arr = _as_vector(kappa)
    _check_k(params.k, arr.size)
    i0 = _check_i(params.i, arr.size)
    s_ii = float(batch_coeffs(np.delete(arr, i0)[None, :])[0, params.k - 1])
    if not params.K * arr[i0] * s_ii > 1.0:
        raise DomainError("KeyParams invariant K*kappa_i*sigma_(k-1)(kappa|i) > 1 violated")
    M = key_matrix_batch(arr[None, :], params.k, i0, params.K)[0]
    return QuadForm(n=arr.size, entries=M, label="KEY")


def abcd_matrices(kappa, k: int, i: int):
    arr = _as_vector(kappa)
    _check_k(k, arr.size)
    i0 = _check_i(i, arr.size)
    A, B, C, D = abcd_batch(arr[None, :], k, i0)
    m = arr.size - 1
    return (
        QuadForm(n=m, entries=A[0], label="A"),
        QuadForm(n=m, entries=B[0], label="B"),
        QuadForm(n=m, entries=C[0], label="C"),
        QuadForm(n=m, entries=D[0], label="D"),
    )


def rhs_combination(kappa, params: KeyParams, with_kappa_i_sq: bool) -> QuadForm:
    arr = _as_vector(kappa)
    _check_k(params.k, arr.size)
    i0 = _check_i(params.i, arr.size)
    raw = rhs_combination_batch(arr[None, :], params.k, i0, params.K, with_kappa_i_sq)[0]
    # rhs_combination proper is (1/c)[...]; the batch helper returns it
    # pre-multiplied by 1/c's denominator definition, which is the same thing.
    return QuadForm(n=arr.size - 1, entries=raw, label="RHS")


def lemma41_gap(kappa, params: KeyParams, with_kappa_i_sq: bool) -> QuadForm:
    arr = _as_vector(kappa)
    _check_k(params.k, arr.size)
    i0 = _check_i(params.i, arr.size)
    G = lemma41_gap_batch(arr[None, :], params.k, i0, params.K, with_kappa_i_sq)[0]
    return QuadForm(n=arr.size, entries=G, label="LHS_MINUS_RHS")


def h_matrix(kappa, i: int) -> QuadForm:
    arr = _as_vector(kappa)
    if arr.size < 5:
        raise InvalidInputError("h_matrix needs n >= 5")
    i0 = _check_i(i, arr.size)
    H = h_matrix_batch(arr[None, :], i0)[0]
    return QuadForm(n=arr.size - 1, entries=H, label="H")


# ---------------------------------------------------------------------------
# Section-3 test-function terms.
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


def testfn_terms(kappa, k: int, i: int, h, K: float) -> TestFnTerms:
    """The five section-3 terms for diagonal derivative data h, scaled by e^{-kappa_1}.

    The exponential weights are carried as w_l = e^{kappa_l - kappa_1} and
    P as log P = kappa_1 + log(sum w_l), so the evaluation stays finite for
    kappa_1 far beyond the overflow threshold of e^x.
    """
    arr = _as_vector(kappa)
    hv = np.asarray(h, dtype=float)
    if hv.shape != arr.shape:
        raise InvalidInputError("h must have the same shape as kappa")
    _check_k(k, arr.size)
    i0 = _check_i(i, arr.size)
    top = float(np.max(arr))
    w = np.exp(arr - top)
    W = float(np.sum(w))
    logP = top + math.log(W)
    skl = order(batch_excl1_table(arr[None, :]), k - 1)[0]  # sigma_k^{ll}
    S = batch_excl2_table(arr[None, :], (k - 2,))[k - 2][0]  # sigma_k^{pp,qq}, zero diagonal
    gsum = float(skl @ hv)
    spq = float(hv @ S @ hv)
    Ai = w[i0] * (K * gsum**2 - spq)
    Ci = float(skl[i0] * np.sum(w * hv**2))
    # l = i0 drops out: S[i0, i0] = 0, and the divided difference is masked.
    Bi = 2.0 * float(np.sum(S[i0] * w * hv**2))
    dd = np.where(np.arange(arr.size) == i0, 0.0, divdiff_exp_scaled(arr, arr[i0], top))
    Di = 2.0 * float(np.sum(dd * skl * hv**2))
    Pi_scaled = float(np.sum(w * hv))  # P_i * e^{-kappa_1}
    Ei = (1.0 + logP) / (W * logP) * skl[i0] * Pi_scaled**2
    terms = TestFnTerms(
        Ai=float(Ai), Bi=float(Bi), Ci=float(Ci), Di=float(Di), Ei=float(Ei),
        small_kappa1=bool(top <= 1.0),
    )
    # C_i and D_i are positive-weight sums of squares on Gamma_k.
    member = bool(np.all(batch_coeffs(arr[None, :])[0, 1 : k + 1] > 0.0))
    if member and np.all(np.diff(arr) <= 0) and not (terms.Ci >= 0.0 and terms.Di >= 0.0):
        raise DomainError(f"C_i/D_i positivity violated on Gamma_k: C_i={terms.Ci}, D_i={terms.Di}")
    return terms


# ---------------------------------------------------------------------------
# Eigenvalues.
# ---------------------------------------------------------------------------


def _relmin(M: np.ndarray) -> np.ndarray:
    """Least eigenvalue over the Frobenius norm, for each matrix of a batch."""
    fro = np.sqrt(np.sum(M * M, axis=(1, 2)))
    return np.linalg.eigvalsh(M)[:, 0] / np.maximum(fro, 1e-300)


def min_eig(M) -> float:
    """Least eigenvalue of a symmetric matrix (QuadForm or ndarray), n <= 64."""
    e = M.entries if isinstance(M, QuadForm) else np.asarray(M, dtype=float)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {e.shape}")
    if e.shape[0] > 64:
        raise InvalidInputError("min_eig supports n <= 64")
    if not np.all(np.isfinite(e)):
        raise InvalidInputError("matrix contains non-finite entries")
    return float(np.linalg.eigvalsh(e)[0])
