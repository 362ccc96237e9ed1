"""Reference computations the tests compare the package against.

`sigma_enum` and `sigma_fsum` evaluate sigma_k by subset enumeration, which
shares no code with the coefficient DP of `symcone.symfun`.  `in_gamma` is
the membership test of the samplers written out on one table: the exact
sign of each computed sigma_m, no tolerance.

`sample_rows` is the row-major form of `cones.sample_batch`: one
`rng.uniform` call per quantity, sorting every candidate, the
sigma_k(|kappa|) noise DP on every row.  With a near-top index and the
window SIGMA_K_WINDOW it draws the rows of `sample_batch` bit for bit and
tallies the same rejections.  Without them it is the kappa_1-pinned Gamma_k
generator the tests use for generic cone rows: the window-less draw fills
the tail uniformly in [-0.95 (n-k) kappa1 / k, kappa1] instead of solving
the last entry from a sigma_k target.
"""

import itertools
import math

import numpy as np

from symcone.cones import SIGMA_RANGE_NOISE_FACTOR, rejection_sample
from symcone.symfun import batch_coeffs

_EPS = np.finfo(float).eps


def sigma_enum(k: int, kappa) -> float:
    """Subset-enumeration oracle; O(C(n, k)), intended for n <= 12."""
    vals = [float(v) for v in kappa]
    if k == 0:
        return 1.0
    if k < 0 or k > len(vals):
        return 0.0
    return float(sum(math.prod(c) for c in itertools.combinations(vals, k)))


def sigma_fsum(k: int, kappa) -> float:
    """Compensated-summation evaluation (exact-rounded sum of term products).

    Each subset product carries its own rounding, but the summation itself
    is exact.  Exact values come from the batched kernels run on `Fraction`
    object arrays.
    """
    vals = [float(v) for v in kappa]
    if k == 0:
        return 1.0
    if k < 0 or k > len(vals):
        return 0.0
    return math.fsum(math.prod(c) for c in itertools.combinations(vals, k))


def in_gamma(kappa, k: int, barred: bool = False) -> bool:
    """kappa in Gamma_k: sigma_1..sigma_k > 0.  The barred cone allows
    sigma_k = 0."""
    c = batch_coeffs(np.asarray(kappa, dtype=float)[None, :])[0]
    if barred:
        return bool(np.all(c[1:k] > 0.0) and c[k] >= 0.0)
    return bool(np.all(c[1 : k + 1] > 0.0))


def rowwise_coeffs(X):
    """sigma_m of every row, the row-wise coefficient DP: (B, n) -> (B, n+1)."""
    B, n = X.shape
    c = np.zeros((B, n + 1))
    c[:, 0] = 1.0
    for t in range(n):
        c[:, 1 : t + 2] = c[:, 1 : t + 2] + X[:, t : t + 1] * c[:, : t + 1]
    return c


def candidates(rng, B, n, k, kappa1, near_top, solve_range):
    X = np.empty((B, n))
    X[:, 0] = kappa1 * (1.0 + rng.uniform(-0.005, 0.005, B))
    sq = np.sqrt(X[:, 0]) / n
    lo_scale = kappa1 / n
    for j in range(1, n - 1 if solve_range is not None else n):
        if near_top is not None and j < near_top:
            X[:, j] = X[:, 0] - rng.uniform(0.0, 1.0, B) * sq
        elif j < k or solve_range is not None:
            X[:, j] = np.exp(rng.uniform(math.log(lo_scale), math.log(kappa1 * 0.9), B))
            if j >= k:
                flip = rng.uniform(size=B) < 0.25
                X[flip, j] = -0.3 * X[flip, j]
        else:
            X[:, j] = rng.uniform(-0.95 * (n - k) * kappa1 / k, kappa1, B)
    if solve_range is not None:
        lo, hi = solve_range
        target = np.exp(rng.uniform(math.log(lo), math.log(hi), B))
        c = rowwise_coeffs(X[:, : n - 1])
        denom = c[:, k - 1].copy()
        bad = denom <= 0
        denom[bad] = 1.0
        X[:, n - 1] = (target - c[:, k]) / denom
        X[bad, n - 1] = np.inf
    return -np.sort(-X, axis=1)


def feasible(X, k, kappa1, near_top, sigma_range, counts):
    B, n = X.shape
    ok = np.all(np.isfinite(X), axis=1)
    counts["finite"] += int(B - ok.sum())
    c = rowwise_coeffs(np.where(ok[:, None], X, 0.0))
    member = np.all(c[:, 1 : k + 1] > 0.0, axis=1)
    counts["gamma_k"] += int((ok & ~member).sum())
    ok &= member
    m = np.abs(X[:, 0] - kappa1) <= 0.01 * kappa1
    counts["kappa1_target"] += int((ok & ~m).sum())
    ok &= m
    if near_top is not None:
        with np.errstate(invalid="ignore"):
            m = X[:, near_top - 1] > X[:, 0] - np.sqrt(np.maximum(X[:, 0], 0.0)) / n
        m &= ok
        counts["near_top"] += int((ok & ~m).sum())
        ok &= m
    if sigma_range is not None:
        lo, hi = sigma_range
        with np.errstate(invalid="ignore"):  # inf * 0 on the rows already rejected as non-finite
            noise = SIGMA_RANGE_NOISE_FACTOR * _EPS * rowwise_coeffs(np.abs(X))[:, k]
        m = (c[:, k] >= lo - noise) & (c[:, k] <= hi + noise)
        counts["sigma_k_range"] += int((ok & ~m).sum())
        ok &= m
    return ok


def sampler_counts(*extra):
    """A zeroed rejection tally with the keys of `sample_batch`, then `extra`."""
    return dict.fromkeys(("finite", "gamma_k", "kappa1_target", "near_top", "sigma_k_range", "predicate") + extra, 0)


def sample_rows(rng, count, n, k, kappa1, near_top_index=None, sigma_k_range=None, predicate=None,
                max_attempts=100_000):
    """(rows, rejection counts) of the row-major sampler; `predicate` maps rows to a keep-mask."""
    counts = sampler_counts()

    def draw(B):
        X = candidates(rng, B, n, k, kappa1, near_top_index, sigma_k_range)
        X = X[feasible(X, k, kappa1, near_top_index, sigma_k_range, counts)]
        if predicate is not None and X.shape[0]:
            keep = predicate(X)
            counts["predicate"] += int(X.shape[0] - keep.sum())
            X = X[keep]
        return X

    block = lambda left, room: min(2048, max(64, 4 * left), room)
    return rejection_sample(draw, count, block, max_attempts, counts, "sampling"), counts
