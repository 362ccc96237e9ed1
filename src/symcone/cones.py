"""Constrained sampling in the Garding cone.

Gamma_k is the open cone {sigma_1 > 0, ..., sigma_k > 0}.  A draw is kept
only if the exact sign of each computed sigma_m is positive (no tolerance),
so a returned sample re-validates with the same sigma DP.  The catalog's
other hypothesis samplers are in `hypotheses`, among them `_sampler_bar` of
the barred cone (level n), the only one that draws boundary rows.

`sample_batch(P, rng, B, cases=...)` draws the conjecture regime with the
one sampler contract of `hypotheses._SAMPLERS`, for the registry and the
search alike.  P holds n, a level 2 <= k <= n - 1, the target scale kappa1
and the 0-based index i0 of i = i0 + 1: kappa_1 is pinned near kappa1, the
index i is near the top (kappa_i > kappa_1 - sqrt(kappa_1)/n) and sigma_k
lies in SIGMA_K_WINDOW.  It has one construction, in row-parallel batches:
positions 2..i pinned just below kappa_1, the others log-uniform below it
(a quarter of those past k negated and shrunk), and the last entry solved
from sigma_k(kappa) = target via the linearity of sigma_k in each single
variable.  Rescaling by homogeneity cannot hit a sigma_k window and a
kappa_1 window at once (the rescaled kappa_1 depends only on the draw's
shape), so the solve is what terminates.

At large kappa_1 the map kappa -> sigma_k is ill-conditioned: the absolute
term magnitude T_k = sigma_k(|kappa|) can exceed sigma_k by 1/eps and no
float64 vector attains sigma_k in [N0, N] exactly.  The window check therefore
allows a representation-noise margin of 64*eps*T_k.

The case classifier, which sorts a vector at level k = n - 2 into the five
regions A, B1, B2, B3 and C of the paper's proof, is here too: the accept
test `_feasible_mask` conditions on a tuple of case names, so the regime's
samplers draw one case region or a union of them.

`rejection_sample` is the loop of every rejection sampler, this one and
those of `hypotheses`: it sizes each block from the acceptance rate it
measures, so a sampler draws about the candidates its rows need and stops
at exactly its budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from .errors import DomainError, InvalidInputError, SamplingExhaustedError
from .symfun import batch_coeffs_t

__all__ = ["CaseLabel", "classify_case", "classify_masks", "sample_batch", "make_rng"]

_EPS = np.finfo(float).eps
SIGMA_RANGE_NOISE_FACTOR = 64.0
# The sigma_k window [N0, N] of the conjecture regime, shared by the regime
# samplers of the lemma registry and by the key-form search.
SIGMA_K_WINDOW = (1.0, 10.0)
_BLOCK = 2048  # rows per block, of a sampler's draws and of a check's evaluation
_REGIME_BUDGET = 100_000  # candidates `sample_batch` may draw
# The rejection tally of the regime's accept test, one key per constraint in
# the order `_feasible_mask` applies them; "predicate" counts the case test.
_REGIME_COUNTS = ("finite", "gamma_k", "kappa1_target", "near_top", "sigma_k_range", "predicate")


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
# Case classification at level k = n - 2.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseLabel:
    primary: str
    labels: Tuple[str, ...]


_CASE_ORDER = ("A", "B1", "B2", "B3", "C")


def classify_masks(X: np.ndarray, i0: int) -> Dict[str, np.ndarray]:
    """Boolean case masks for rows sorted descending, at level k = n - 2.

    The five regions are decided by the sign of sigma_{n-2}(kappa|i), the
    signs of the two smallest entries, and two product criteria with margin
    delta_0 = 1/(32 n (n-2)).  The seam sigma_{n-2}(kappa|i) = 0 belongs to C.
    B1 and B2 may overlap; membership is reported for all of them.
    """
    XT = np.ascontiguousarray(X.T)
    return _case_masks(XT, batch_coeffs_t(XT), i0)


def _case_masks(XT: np.ndarray, c: np.ndarray, i0: int) -> Dict[str, np.ndarray]:
    """`classify_masks` on the columns of XT (n, B), given their sigma table c."""
    n = XT.shape[0]
    cb = batch_coeffs_t(np.delete(XT, i0, axis=0))
    sbar, s3bar = cb[n - 2], cb[n - 3]
    sk = c[n - 2]
    d0 = 1.0 / (32.0 * n * (n - 2))
    top = XT[0].copy()
    for j in range(1, n - 2):
        top *= XT[j]
    A = (sbar <= 0.0) & (XT[n - 2] <= 0.0)
    Breg = (sbar <= 0.0) & (XT[n - 1] < 0.0) & (XT[n - 2] > 0.0)
    b1 = XT[i0] * s3bar >= (1.0 + d0) * sk
    b2 = top >= 2.0 * (n - 2) * sk
    return {
        "A": A,
        "B1": Breg & b1,
        "B2": Breg & b2,
        "B3": Breg & ~b1 & ~b2,
        "C": sbar >= 0.0,
    }


def classify_case(kappa, i: int) -> CaseLabel:
    """Case of one vector (sorted descending) at level k = n - 2; i is 1-based."""
    arr = np.asarray(kappa, dtype=float)
    if arr.ndim != 1 or arr.size < 4:
        raise InvalidInputError("classify_case needs a 1-D vector with n >= 4")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("kappa contains non-finite entries")
    if np.any(np.diff(arr) > 0):
        raise InvalidInputError("classify_case requires kappa sorted descending")
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise InvalidInputError(f"i must be an integer, got {i!r}")
    if not 1 <= i <= arr.size:
        raise InvalidInputError(f"i={i} out of range [1, {arr.size}]")
    masks = classify_masks(arr[None, :], i - 1)
    labels = tuple(name for name in _CASE_ORDER if bool(masks[name][0]))
    if not labels:
        raise DomainError("vector falls outside the five-case partition")
    return CaseLabel(primary=labels[0], labels=labels)


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
    # a row without a positive slope, or whose sigmas overflow at a huge kappa1, gets
    # a non-finite last entry, which the finite check of `_feasible_mask` rejects
    with np.errstate(over="ignore", invalid="ignore"):
        c = batch_coeffs_t(XT[: n - 1])
        bad = c[k - 1] <= 0
        XT[n - 1] = np.where(bad, np.inf, (target - c[k]) / np.where(bad, 1.0, c[k - 1]))
    return _descending(np.ascontiguousarray(XT.T))


def _feasible_mask(
    X: np.ndarray, k: int, kappa1: float, near_top: int, counts: dict, cases: Tuple[str, ...] = ()
) -> np.ndarray:
    """Keep-mask of the rows of X in the conjecture regime, with each
    rejection counted under the first constraint that fails it: finite,
    in Gamma_k, kappa_1 within 1% of its target, entry `near_top` near the
    top, sigma_k in SIGMA_K_WINDOW up to its noise margin and, if `cases`
    names any, in one of those case regions at i0 = near_top - 1.

    The constraints run on the columns of X.T, one contiguous elementwise op
    each.  The sigma_k(|kappa|) noise margin can only decide a live row whose
    sigma_k lies outside the window, so its DP runs on those rows alone;
    the case masks, likewise, run on the survivors with their sigma table.
    """
    B, n = X.shape
    XT = np.ascontiguousarray(X.T)
    ok = np.isfinite(XT).all(axis=0)
    counts["finite"] += B - int(np.count_nonzero(ok))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite or overflowing row fails a test
        c = batch_coeffs_t(XT)
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
    if cases and ok.any():
        rows = np.flatnonzero(ok)
        masks = _case_masks(XT[:, rows], c[:, rows], near_top - 1)
        m = np.logical_or.reduce([masks[name] for name in cases])
        counts["predicate"] += rows.size - int(np.count_nonzero(m))
        ok[rows] = m
    return ok


def rejection_sample(
    draw: Callable[[int], np.ndarray], count: int, budget: int, counts: dict, what: str, cap: int = _BLOCK
) -> np.ndarray:
    """Stack the rows that `draw(B)` accepts from B fresh candidates until
    `count` rows are in, and return the first `count` of them.

    Each block is sized from the acceptance rate measured so far: the draws
    the missing rows need at that rate, plus 1/8.  The rate is taken as 1
    before the first block, and a block that follows only empty ones is
    full.  A block is 64 to `cap` draws and never more than the budget
    left, so once exactly `budget` candidates are spent, SamplingExhaustedError
    reports the per-constraint rejections that `draw` tallied in `counts`.
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
        need = count - got
        B = cap if attempts and not got else need * (attempts or 1) // (got or 1) * 9 // 8 + 1
        B = min(max(B, 64), cap, budget - attempts)
        attempts += B
        X = draw(B)
        if X.shape[0]:
            out.append(X)
            got += X.shape[0]
    return np.concatenate(out)[:count]


def sample_batch(P: dict, rng: np.random.Generator, B: int, *, cases: Tuple[str, ...] = ()) -> np.ndarray:
    """Draw B vectors of the conjecture regime (rows sorted descending) or
    raise: kappa_1 within 1% of P["kappa1"], entry P["i0"] + 1 (1-based)
    near the top, sigma_k in SIGMA_K_WINDOW, at a level 2 <= k = P["k"] <=
    n - 1 (InvalidInputError otherwise) and, if `cases` names any, in one of
    those case regions, which exist at k = n - 2 only (see `classify_masks`;
    InvalidInputError at another level).
    """
    n, k, kappa1, near_top = P["n"], P["k"], P["kappa1"], P["i0"] + 1
    check_regime_level(n, k)
    if cases and k != n - 2:
        raise InvalidInputError(f"the case regions exist at k = n-2 only, got k={k}, n={n}")
    counts = dict.fromkeys(_REGIME_COUNTS, 0)

    def draw(blk: int) -> np.ndarray:
        X = _candidates(rng, blk, n, k, kappa1, near_top)
        return X[_feasible_mask(X, k, kappa1, near_top, counts, cases)]

    return rejection_sample(draw, B, _REGIME_BUDGET, counts, "sampling")
