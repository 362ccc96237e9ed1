"""Garding-cone membership, constrained sampling, and sigma_k normalization.

Gamma_k is the open cone {sigma_1 > 0, ..., sigma_k > 0}; the barred variant
keeps sigma_m > 0 for m < k but allows sigma_k = 0.  Membership uses the
exact sign of the computed double — no tolerance — so that a returned sample
always re-validates with the same code path.

Sampling works in row-parallel batches.  Two constructions are used:

  * box: top block (positions 1..k) log-uniform in [kappa1/n, kappa1], tail
    uniform in [-0.95 (n-k) kappa1 / k, kappa1], sort, reject outside Gamma_k.
  * solve: when a sigma_k range [N0, N] is requested, the last entry is
    solved from sigma_k(kappa) = target via the linearity of sigma_k in each
    single variable.  Rescaling-based normalization cannot hit a sigma_k
    window and a kappa_1 window at once (the rescaled kappa_1 depends only on
    the draw's shape), so the solve construction is the one that terminates.

At large kappa_1 the map kappa -> sigma_k is ill-conditioned: the absolute
term magnitude T_k = sigma_k(|kappa|) can exceed sigma_k by 1/eps and no
float64 vector attains sigma_k in [N0, N] exactly.  The range check therefore
allows a representation-noise margin of 64*eps*T_k, recorded on request.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, InvalidInputError, SamplingExhaustedError
from .symfun import _as_vector, batch_coeffs, batch_coeffs_t, sigma

__all__ = [
    "ConeVariant",
    "ConeQuery",
    "SampleSpec",
    "in_gamma",
    "tail_sum_check",
    "normalize_sigma_k",
    "sample_gamma",
    "make_rng",
]

_EPS = np.finfo(float).eps
SIGMA_RANGE_NOISE_FACTOR = 64.0
# The sigma_k window [N0, N] of the conjecture regime, shared by the regime
# samplers of the lemma registry and by the key-form search.
SIGMA_K_WINDOW = (1.0, 10.0)
_BATCH = 2048


class ConeVariant(enum.Enum):
    OPEN = "open"
    BARRED = "barred"


@dataclass(frozen=True)
class ConeQuery:
    n: int
    k: int
    variant: ConeVariant = ConeVariant.OPEN

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise InvalidInputError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")


@dataclass(frozen=True)
class SampleSpec:
    """Constraints for one constrained draw inside Gamma_k (OPEN)."""

    n: int
    k: int
    kappa1_target: float
    near_top_index: Optional[int] = None  # 1-based; requires kappa_i > kappa_1 - sqrt(kappa_1)/n
    sigma_k_range: Optional[Tuple[float, float]] = None
    rng_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise InvalidInputError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not (self.kappa1_target > 0):
            raise InvalidInputError("kappa1_target must be > 0")
        if self.sigma_k_range is not None:
            lo, hi = self.sigma_k_range
            if not (0 < lo <= hi):
                raise InvalidInputError(f"sigma_k_range must satisfy 0 < N0 <= N, got {self.sigma_k_range}")
        if self.near_top_index is not None and not 1 <= self.near_top_index <= self.n:
            raise InvalidInputError(f"near_top_index {self.near_top_index} out of range")


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator: independent seeds are independent streams."""
    return np.random.Generator(np.random.Philox(int(seed) & (2**64 - 1)))


def in_gamma(q: ConeQuery, kappa) -> bool:
    arr = _as_vector(kappa)
    if arr.size != q.n:
        raise InvalidInputError(f"dimension mismatch: query n={q.n}, vector n={arr.size}")
    c = batch_coeffs(arr[None, :])[0]
    if q.variant is ConeVariant.OPEN:
        return bool(np.all(c[1 : q.k + 1] > 0.0))
    return bool(np.all(c[1 : q.k] > 0.0) and c[q.k] >= 0.0)


def tail_sum_check(k: int, kappa) -> float:
    """kappa_k + ... + kappa_n (must be > 0 on Gamma_k); input must be sorted."""
    arr = _as_vector(kappa)
    if np.any(np.diff(arr) > 0):
        raise InvalidInputError("tail_sum_check requires kappa sorted descending")
    if not 1 <= k <= arr.size:
        raise InvalidInputError(f"k={k} out of range")
    return float(np.sum(arr[k - 1 :]))


def normalize_sigma_k(kappa, k: int, target: float) -> np.ndarray:
    """Rescale kappa -> t*kappa so sigma_k = target, using homogeneity."""
    arr = _as_vector(kappa)
    if not target > 0:
        raise DomainError(f"target must be > 0, got {target}")
    s = sigma(k, arr)
    if not s > 0:
        raise DomainError(f"sigma_{k}(kappa) = {s} is not positive; cannot normalize")
    t = (target / s) ** (1.0 / k)
    return arr * t


# ---------------------------------------------------------------------------
# Batched constrained sampling.
# ---------------------------------------------------------------------------


def _descending(X: np.ndarray) -> np.ndarray:
    """Sort the rows of the C-contiguous X descending, in place; -sort(-X)."""
    np.negative(X, out=X)
    X.sort(axis=1)
    return np.negative(X, out=X)


def _candidates(
    rng: np.random.Generator,
    B: int,
    n: int,
    k: int,
    kappa1: float,
    near_top: Optional[int],
    solve_range: Optional[Tuple[float, float]],
) -> np.ndarray:
    """One batch of candidate vectors, sorted descending (feasibility unchecked).

    Entries are drawn column by column into the rows of a (n, B) block."""
    XT = np.empty((n, B))
    np.multiply(kappa1, 1.0 + rng.uniform(-0.005, 0.005, B), out=XT[0])
    sq = np.sqrt(XT[0]) / n
    lo_scale = kappa1 / n
    for j in range(1, n - 1 if solve_range is not None else n):
        if near_top is not None and j < near_top:
            # pin positions 2..i strictly inside (kappa1 - sqrt(kappa1)/n, kappa1)
            np.subtract(XT[0], rng.uniform(0.0, 1.0, B) * sq, out=XT[j])
        elif j < k or solve_range is not None:
            np.exp(rng.uniform(math.log(lo_scale), math.log(kappa1 * 0.9), B), out=XT[j])
            if j >= k:  # a quarter of the solved draw's tail entries turn negative
                XT[j] *= np.where(rng.uniform(size=B) < 0.25, -0.3, 1.0)
        else:
            XT[j] = rng.uniform(-0.95 * (n - k) * kappa1 / k, kappa1, B)
    if solve_range is not None:
        lo, hi = solve_range
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
    near_top: Optional[int],
    sigma_range: Optional[Tuple[float, float]],
    counts: dict,
    predicate: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Keep-mask of the rows of X that meet every constraint, with each
    rejection counted under the first constraint that fails it.

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
    if near_top is not None:
        with np.errstate(invalid="ignore"):  # rows already rejected as non-finite
            m = XT[near_top - 1] > XT[0] - np.sqrt(np.maximum(XT[0], 0.0)) / n
        counts["near_top"] += int(np.count_nonzero(ok & ~m))
        ok &= m
    if sigma_range is not None:
        lo, hi = sigma_range
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
    near_top_index: Optional[int] = None,
    sigma_k_range: Optional[Tuple[float, float]] = None,
    predicate: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    max_attempts: int = 100_000,
) -> np.ndarray:
    """Draw `count` feasible vectors (rows sorted descending) or raise.

    `predicate`, if given, maps a block of feasible vectors, as the columns
    of XT (n, B), and their sigma table c (n + 1, B), c[m] = sigma_m, to a
    boolean keep-mask (used for case conditioning by the lemma registry).
    """
    counts = {
        "finite": 0,
        "gamma_k": 0,
        "kappa1_target": 0,
        "near_top": 0,
        "sigma_k_range": 0,
        "predicate": 0,
    }

    def draw(B: int) -> np.ndarray:
        X = _candidates(rng, B, n, k, kappa1, near_top_index, sigma_k_range)
        return X[_feasible_mask(X, k, kappa1, near_top_index, sigma_k_range, counts, predicate)]

    return rejection_sample(
        draw, count, lambda left, room: min(_BATCH, max(64, 4 * left), room), max_attempts, counts, "sampling"
    )


def sample_gamma(spec: SampleSpec) -> np.ndarray:
    """One feasible vector per the spec; deterministic for a fixed seed."""
    rng = make_rng(spec.rng_seed)
    X = sample_batch(
        rng,
        1,
        spec.n,
        spec.k,
        spec.kappa1_target,
        near_top_index=spec.near_top_index,
        sigma_k_range=spec.sigma_k_range,
    )
    return X[0]


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
    return -np.sort(-X, axis=1)
