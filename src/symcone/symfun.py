"""Elementary symmetric functions, exclusion tables, and derivatives.

Everything is built on one coefficient dynamic program, `batch_coeffs_t`, for

    prod_i (1 + kappa_i t) = sum_m sigma_m(kappa) t^m,

which evaluates all of sigma_0..sigma_n in one numerically stable O(n^2)
pass (no division, unlike Newton-identity recurrences).

Conventions:
  * sigma_0 = 1, sigma_m = 0 for m < 0 or m > n.
  * sigma_m(kappa|S) is sigma_m of kappa with the entries of S removed; for
    one set S it is `sigma` (or `batch_coeffs`) on the reduced vector, and
    for every single or pair exclusion at once it is a table below.
  * Positions in the tables are 0-based.

Derivative facts used throughout:
    d sigma_k / d kappa_p           = sigma_{k-1}(kappa|p)
    d^2 sigma_k / d kappa_p d kappa_q = sigma_{k-2}(kappa|pq)   (p != q)
    d^2 sigma_k / d kappa_p^2         = 0
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from .errors import InvalidInputError

__all__ = ["sigma"]


def sigma(k: int, kappa) -> float:
    """sigma_k of one finite 1-D vector at an integer level k."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise InvalidInputError(f"k must be an integer, got {k!r}")
    arr = np.asarray(kappa, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInputError(f"kappa must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("kappa contains non-finite entries")
    if k == 0:
        return 1.0
    if k < 0 or k > arr.size:
        return 0.0
    return float(batch_coeffs_t(arr)[k])


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
