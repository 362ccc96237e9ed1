"""Elementary symmetric functions, exclusion variants, and derivatives.

Everything is built on one coefficient dynamic program, `batch_coeffs_t`, for

    prod_i (1 + kappa_i t) = sum_m sigma_m(kappa) t^m,

which evaluates all of sigma_0..sigma_n in one numerically stable O(n^2)
pass (no division, unlike Newton-identity recurrences).

Conventions:
  * sigma_0 = 1, sigma_m = 0 for m < 0 or m > n.
  * sigma_m(kappa|S) is sigma_m of kappa with the entries of S removed.
  * Public index arguments (p, q, exclusion sets) are 1-based positions,
    matching the usual mathematical notation; internal helpers are 0-based.

Derivative facts used throughout:
    d sigma_k / d kappa_p           = sigma_{k-1}(kappa|p)
    d^2 sigma_k / d kappa_p d kappa_q = sigma_{k-2}(kappa|pq)   (p != q)
    d^2 sigma_k / d kappa_p^2         = 0
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "SymTable",
    "sigma",
    "sigma_all",
    "sigma_excl",
    "sigma_d1",
    "sigma_d2",
    "sigma_enum",
    "sigma_fsum",
]

def _as_vector(kappa) -> np.ndarray:
    arr = np.asarray(kappa, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInputError(f"kappa must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("kappa contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SymTable:
    """All sigma_0..sigma_n of one vector, immutable."""

    base: tuple
    n: int
    values: tuple

    def sigma(self, m: int) -> float:
        if m < 0 or m > self.n:
            return 0.0
        return self.values[m]


def sigma_all(kappa) -> SymTable:
    arr = _as_vector(kappa)
    c = batch_coeffs_t(arr)
    return SymTable(base=tuple(arr.tolist()), n=arr.size, values=tuple(c.tolist()))


def sigma(k: int, kappa) -> float:
    arr = _as_vector(kappa)
    if k == 0:
        return 1.0
    if k < 0 or k > arr.size:
        return 0.0
    return float(batch_coeffs_t(arr)[k])


def _validate_excl(excl, n: int) -> tuple:
    raw = [int(j) for j in excl]
    idx = sorted(set(raw))
    if len(idx) != len(raw):
        raise InvalidInputError(f"duplicate exclusion indices: {excl}")
    if len(idx) > 3:
        raise InvalidInputError(f"at most 3 exclusions supported, got {len(idx)}")
    for j in idx:
        if not 1 <= j <= n:
            raise InvalidInputError(f"exclusion index {j} out of range [1, {n}]")
    return tuple(idx)


def sigma_excl(k: int, kappa, excl) -> float:
    """sigma_k of kappa with the (1-based) indices in excl removed."""
    arr = _as_vector(kappa)
    idx = _validate_excl(excl, arr.size)
    m = arr.size - len(idx)
    if k == 0:
        return 1.0
    if k < 0 or k > m:
        return 0.0
    keep = np.ones(arr.size, dtype=bool)
    keep[[j - 1 for j in idx]] = False
    return float(batch_coeffs_t(arr[keep])[k])


def sigma_d1(k: int, kappa, p: int) -> float:
    """First partial: d sigma_k / d kappa_p = sigma_{k-1}(kappa|p)."""
    return sigma_excl(k - 1, kappa, (p,))


def sigma_d2(k: int, kappa, p: int, q: int) -> float:
    """Second partial: sigma_{k-2}(kappa|pq) for p != q, exactly 0 for p == q."""
    arr = _as_vector(kappa)
    for j in (p, q):
        if not 1 <= j <= arr.size:
            raise InvalidInputError(f"index {j} out of range [1, {arr.size}]")
    if p == q:
        return 0.0
    return sigma_excl(k - 2, kappa, (p, q))


# ---------------------------------------------------------------------------
# Oracles: brute-force enumeration, used by tests and by witness re-checks.
# ---------------------------------------------------------------------------


def sigma_enum(k: int, kappa) -> float:
    """Subset-enumeration oracle; O(C(n, k)), intended for n <= 12."""
    arr = _as_vector(kappa)
    if k == 0:
        return 1.0
    if k < 0 or k > arr.size:
        return 0.0
    vals = arr.tolist()
    return float(sum(math.prod(c) for c in itertools.combinations(vals, k)))


def sigma_fsum(k: int, kappa) -> float:
    """Compensated-summation evaluation (exact-rounded sum of term products).

    A test oracle: each subset product carries its own rounding, but the
    summation itself is exact.  Exact values come from the batched kernels
    run on `Fraction` object arrays.
    """
    arr = _as_vector(kappa)
    if k == 0:
        return 1.0
    if k < 0 or k > arr.size:
        return 0.0
    vals = arr.tolist()
    return math.fsum(math.prod(c) for c in itertools.combinations(vals, k))


# ---------------------------------------------------------------------------
# Batched kernels (0-based, internal).  Row-parallel versions of the same
# coefficient DP, used by the samplers and the lemma registry where one check
# touches 10^4 vectors at a time.  Every table is allocated with the input's
# dtype, so a `Fraction` object array goes through the same code exactly.
# ---------------------------------------------------------------------------


def batch_coeffs_t(XT: np.ndarray, top: Optional[int] = None) -> np.ndarray:
    """c[t] = sigma_t of every column of XT, t = 0..min(top, m): (m, ...) -> (top+1, ...).

    The one coefficient DP of the batched kernels.  It is coefficient-major:
    each step is one elementwise multiply-add on contiguous planes, and each
    entry goes through the same multiply-adds in the same order as the
    row-wise recurrence, so the values are bit-identical to it.  It stops at
    order `top` (default m), since no order feeds a lower one.
    """
    m = XT.shape[0]
    top = m if top is None else min(top, m)
    c = np.zeros((top + 1,) + XT.shape[1:], dtype=XT.dtype)
    c[0] = 1  # an int, not 1.0: a float would turn Fraction products into floats
    for t in range(m):
        hi = min(t + 1, top)
        c[1 : hi + 1] += XT[t] * c[:hi]
    return c


def _dp(X: np.ndarray, keep: np.ndarray, top: int) -> np.ndarray:
    """c[t, s, b] = sigma_t(X[b, keep[s]]) for t = 0..min(top, m):
    `batch_coeffs_t` over every kept-column set at once.

    keep is (sets, m) with ascending 0-based columns; the kept columns are
    gathered once into an (m, sets, B) block.
    """
    return batch_coeffs_t(np.ascontiguousarray(X.T)[keep.T], top)


def _kept(n: int, excluded: np.ndarray) -> np.ndarray:
    """Ascending kept columns for each row of excluded columns: (sets, n - e)."""
    mask = np.ones((excluded.shape[0], n), dtype=bool)
    mask[np.arange(excluded.shape[0])[:, None], excluded] = False
    return np.nonzero(mask)[1].reshape(excluded.shape[0], n - excluded.shape[1])


@functools.lru_cache(maxsize=None)
def _excl1_keep(n: int) -> np.ndarray:
    """Kept columns of every single exclusion for length n; built once, read-only."""
    keep = _kept(n, np.arange(n)[:, None])
    keep.flags.writeable = False
    return keep


@functools.lru_cache(maxsize=None)
def _excl2_index(n: int):
    """The pairs p < q of `triu_indices(n, 1)` and the kept columns of every
    pair exclusion for length n; built once, read-only."""
    p, q = np.triu_indices(n, 1)
    keep = _kept(n, np.stack([p, q], axis=1))
    for a in (p, q, keep):
        a.flags.writeable = False
    return p, q, keep


def order(T: np.ndarray, t: int) -> np.ndarray:
    """Order-t slice of a coefficient table (orders on the last axis);
    zeros when sigma_t is identically zero there (t < 0 or t too large)."""
    if 0 <= t < T.shape[-1]:
        return T[..., t]
    return np.zeros(T.shape[:-1], dtype=T.dtype)


def batch_coeffs(X: np.ndarray) -> np.ndarray:
    """sigma_m for every row: X (B, n) -> (B, n+1); `batch_coeffs_t` on X.T."""
    return np.ascontiguousarray(batch_coeffs_t(np.ascontiguousarray(X.T)).T)


def batch_excl1_table(X: np.ndarray) -> np.ndarray:
    """T[b, i, m] = sigma_m(row_b | i) for all single exclusions: (B, n, n)."""
    n = X.shape[1]
    c = _dp(X, _excl1_keep(n), n - 1)
    return np.ascontiguousarray(c.transpose(2, 1, 0))


def batch_excl2_table(X: np.ndarray, orders) -> dict:
    """{t: T} with T[b, p, q] = sigma_t(row_b | p, q), (B, n, n), for each t
    in orders.  The diagonal is zero, and so is every T with t outside
    [0, n-2]; the DP runs only up to the highest order asked for."""
    B, n = X.shape
    orders = tuple(orders)
    p, q, keep = _excl2_index(n)
    c = _dp(X, keep, max(max(orders), 0))
    out = {}
    for t in orders:
        T = np.zeros((B, n, n), dtype=X.dtype)
        if 0 <= t < c.shape[0]:
            T[:, p, q] = c[t].T
            T[:, q, p] = c[t].T
        out[t] = T
    return out
