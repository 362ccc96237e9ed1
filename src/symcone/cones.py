"""Constrained sampling in the Garding cone.

Gamma_k is the open cone {sigma_1 > 0, ..., sigma_k > 0}.  A draw is kept
only if the exact sign of each computed sigma_m is positive (no tolerance),
so a returned sample re-validates with the same sigma DP.  The barred cone of
level m, which allows sigma_m = 0, has its own sampler (`sample_bar_batch`).

`sample_batch` draws the conjecture regime, at a level 2 <= k <= n - 1:
kappa_1 pinned near a target scale, an index i near the top
(kappa_i > kappa_1 - sqrt(kappa_1)/n) and sigma_k in SIGMA_K_WINDOW.  It has
one construction, in row-parallel batches: positions 2..i pinned just below
kappa_1, the others log-uniform below it (a quarter of those past k negated
and shrunk), and the last entry solved from sigma_k(kappa) = target via the
linearity of sigma_k in each single variable.  Rescaling by homogeneity
cannot hit a sigma_k window and a kappa_1 window at once (the rescaled
kappa_1 depends only on the draw's shape), so the solve is what terminates.

At large kappa_1 the map kappa -> sigma_k is ill-conditioned: the absolute
term magnitude T_k = sigma_k(|kappa|) can exceed sigma_k by 1/eps and no
float64 vector attains sigma_k in [N0, N] exactly.  The window check therefore
allows a representation-noise margin of 64*eps*T_k.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, SamplingExhaustedError
from .symfun import batch_coeffs_t

__all__ = ["sample_batch", "make_rng"]

_EPS = np.finfo(float).eps
SIGMA_RANGE_NOISE_FACTOR = 64.0
# The sigma_k window [N0, N] of the conjecture regime, shared by the regime
# samplers of the lemma registry and by the key-form search.
SIGMA_K_WINDOW = (1.0, 10.0)
_BATCH = 2048


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator: independent seeds are independent streams."""
    return np.random.Generator(np.random.Philox(int(seed) & (2**64 - 1)))


def check_regime_level(n: int, k: int) -> None:
    """Raise InvalidInputError unless k is a level of the conjecture regime
    at dimension n: the last entry x is solved from sigma_k = s_k + x s_{k-1}
    on the other n - 1 entries (k <= n - 1), and the regime's forms use
    sigma_{k-2} (k >= 2)."""
    if not 2 <= k <= n - 1:
        raise InvalidInputError(f"need 2 <= k <= n-1, got k={k}, n={n}")


# ---------------------------------------------------------------------------
# Batched constrained sampling.
# ---------------------------------------------------------------------------


def _descending(X: np.ndarray) -> np.ndarray:
    """Sort the rows of the C-contiguous X descending, in place; -sort(-X)."""
    np.negative(X, out=X)
    X.sort(axis=1)
    return np.negative(X, out=X)


def _candidates(rng: np.random.Generator, B: int, n: int, k: int, kappa1: float, near_top: int) -> np.ndarray:
    """One batch of candidate vectors, sorted descending (feasibility unchecked).

    Entries are drawn column by column into the rows of a (n, B) block."""
    XT = np.empty((n, B))
    np.multiply(kappa1, 1.0 + rng.uniform(-0.005, 0.005, B), out=XT[0])
    sq = np.sqrt(XT[0]) / n
    lo_scale = kappa1 / n
    for j in range(1, n - 1):
        if j < near_top:
            # pin positions 2..i strictly inside (kappa1 - sqrt(kappa1)/n, kappa1)
            np.subtract(XT[0], rng.uniform(0.0, 1.0, B) * sq, out=XT[j])
        else:
            np.exp(rng.uniform(math.log(lo_scale), math.log(kappa1 * 0.9), B), out=XT[j])
            if j >= k:  # a quarter of the tail entries turn negative
                XT[j] *= np.where(rng.uniform(size=B) < 0.25, -0.3, 1.0)
    lo, hi = SIGMA_K_WINDOW
    target = np.exp(rng.uniform(math.log(lo), math.log(hi), B))
    c = batch_coeffs_t(XT[: n - 1])
    bad = c[k - 1] <= 0
    # a row without a positive slope gets an infinite last entry, which
    # the finite check of `_feasible_mask` rejects
    XT[n - 1] = np.where(bad, np.inf, (target - c[k]) / np.where(bad, 1.0, c[k - 1]))
    return _descending(np.ascontiguousarray(XT.T))


def _feasible_mask(
    X: np.ndarray,
    k: int,
    kappa1: float,
    near_top: int,
    counts: dict,
    predicate: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Keep-mask of the rows of X in the conjecture regime, with each
    rejection counted under the first constraint that fails it: finite,
    in Gamma_k, kappa_1 within 1% of its target, entry `near_top` near the
    top, sigma_k in SIGMA_K_WINDOW up to its noise margin.

    The constraints run on the columns of X.T, one contiguous elementwise op
    each.  The sigma_k(|kappa|) noise margin can only decide a live row whose
    sigma_k lies outside the window, so its DP runs on those rows alone.
    `predicate`, if given, gets the surviving columns and their sigma table
    (see `sample_batch`).
    """
    B, n = X.shape
    XT = np.ascontiguousarray(X.T)
    ok = np.isfinite(XT).all(axis=0)
    live = int(np.count_nonzero(ok))
    counts["finite"] += B - live
    c = batch_coeffs_t(XT if live == B else np.where(ok, XT, 0.0))
    m = (c[1 : k + 1] > 0.0).all(axis=0)
    counts["gamma_k"] += int(np.count_nonzero(ok & ~m))
    ok &= m
    m = np.abs(XT[0] - kappa1) <= 0.01 * kappa1
    counts["kappa1_target"] += int(np.count_nonzero(ok & ~m))
    ok &= m
    with np.errstate(invalid="ignore"):  # rows already rejected as non-finite
        m = XT[near_top - 1] > XT[0] - np.sqrt(np.maximum(XT[0], 0.0)) / n
    counts["near_top"] += int(np.count_nonzero(ok & ~m))
    ok &= m
    lo, hi = SIGMA_K_WINDOW
    sk = c[k]
    m = (sk >= lo) & (sk <= hi)
    out = np.flatnonzero(ok & ~m)
    if out.size:
        noise = SIGMA_RANGE_NOISE_FACTOR * _EPS * batch_coeffs_t(np.abs(XT[:, out]), k)[k]
        m[out] = (sk[out] >= lo - noise) & (sk[out] <= hi + noise)
    counts["sigma_k_range"] += int(np.count_nonzero(ok & ~m))
    ok &= m
    if predicate is not None and ok.any():
        rows = np.flatnonzero(ok)
        m = predicate(XT[:, rows], c[:, rows])
        counts["predicate"] += rows.size - int(np.count_nonzero(m))
        ok[rows] = m
    return ok


def rejection_sample(
    draw: Callable[[int], np.ndarray],
    count: int,
    block: Callable[[int, int], int],
    budget: int,
    counts: dict,
    what: str,
) -> np.ndarray:
    """Stack the rows that `draw(B)` accepts from B fresh candidates until
    `count` rows are in, and return exactly `count` of them.

    `block(left, room)` sizes each draw from the rows still missing and the
    draws left in the budget; a size above `room` is drawn whole.  Once
    `budget` candidates are spent, raise SamplingExhaustedError with the
    per-constraint rejections that `draw` tallied in `counts`.
    """
    out = []
    got = 0
    attempts = 0
    while got < count:
        if attempts >= budget:
            worst = max(counts, key=counts.get)
            raise SamplingExhaustedError(
                f"{what} exhausted after {attempts} draws ({got}/{count} accepted); "
                f"most-rejecting constraint: {worst} ({counts[worst]} rejections)",
                rejection_counts=counts,
            )
        B = block(count - got, budget - attempts)
        attempts += B
        X = draw(B)
        if X.shape[0]:
            out.append(X)
            got += X.shape[0]
    return np.concatenate(out)[:count]


def sample_batch(
    rng: np.random.Generator,
    count: int,
    n: int,
    k: int,
    kappa1: float,
    near_top_index: int,
    predicate: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    max_attempts: int = 100_000,
) -> np.ndarray:
    """Draw `count` vectors of the conjecture regime (rows sorted descending)
    or raise: kappa_1 within 1% of `kappa1`, entry `near_top_index` (1-based)
    near the top, sigma_k in SIGMA_K_WINDOW, at a level 2 <= k <= n - 1
    (InvalidInputError otherwise).

    `predicate`, if given, maps a block of feasible vectors, as the columns
    of XT (n, B), and their sigma table c (n + 1, B), c[m] = sigma_m, to a
    boolean keep-mask (used for case conditioning by the lemma registry).
    """
    check_regime_level(n, k)
    counts = {
        "finite": 0,
        "gamma_k": 0,
        "kappa1_target": 0,
        "near_top": 0,
        "sigma_k_range": 0,
        "predicate": 0,
    }

    def draw(B: int) -> np.ndarray:
        X = _candidates(rng, B, n, k, kappa1, near_top_index)
        return X[_feasible_mask(X, k, kappa1, near_top_index, counts, predicate)]

    return rejection_sample(
        draw, count, lambda left, room: min(_BATCH, max(64, 4 * left), room), max_attempts, counts, "sampling"
    )


def sample_bar_batch(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    """Vectors in the barred cone of level m (dimension m), sorted descending.

    Interior points are positive vectors; 40% of the draws are boundary
    points, constructed explicitly by zeroing one entry (sigma_m = 0
    exactly), since the boundary has measure zero and is unreachable by
    rejection.
    """
    X = np.exp(rng.uniform(-1.0, 3.0, (count, m)))
    hit = rng.uniform(size=count) < 0.4
    cols = rng.integers(0, m, size=count)
    X[hit, cols[hit]] = 0.0
    return _descending(X)
