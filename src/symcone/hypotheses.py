"""The hypotheses of the registry's checks: case classification and samplers.

The case classifier sorts a vector at level k = n - 2 into the five regions
A, B1, B2, B3 and C of the paper's proof.  Each sampler draws exactly B rows
that satisfy one check's hypothesis, as `sampler(P, rng, B) -> (X, aux)`;
`_SAMPLERS` names the variants the catalog uses.  A sampler that cannot
realize its hypothesis within its budget raises `SamplingExhaustedError`
with the rejection breakdown.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .cones import (
    SIGMA_K_WINDOW,
    _descending,
    _feasible_mask,
    rejection_sample,
    sample_bar_batch,
    sample_batch,
)
from .errors import DomainError, InvalidInputError
from .symfun import batch_coeffs_t

__all__ = ["CaseLabel", "classify_case", "classify_masks"]

_BLOCK = 2048  # rows per block, of a sampler's draws and of a check's evaluation
_SAMPLER_BUDGET = 400_000


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
    if np.any(np.diff(arr) > 0):
        raise InvalidInputError("classify_case requires kappa sorted descending")
    if not 1 <= i <= arr.size:
        raise InvalidInputError(f"i={i} out of range [1, {arr.size}]")
    masks = classify_masks(arr[None, :], i - 1)
    labels = tuple(name for name in _CASE_ORDER if bool(masks[name][0]))
    if not labels:
        raise DomainError("vector falls outside the five-case partition")
    return CaseLabel(primary=labels[0], labels=labels)


def _case_predicate(i0: int, cases: Tuple[str, ...]):
    """A `sample_batch` predicate keeping the columns that fall in any of `cases`."""

    def pred(XT: np.ndarray, c: np.ndarray) -> np.ndarray:
        masks = _case_masks(XT, c, i0)
        keep = np.zeros(XT.shape[1], dtype=bool)
        for name in cases:
            keep |= masks[name]
        return keep

    return pred


# ---------------------------------------------------------------------------
# Hypothesis samplers.  Each returns (X, aux) with exactly B rows; its
# options are keyword arguments, bound per variant in `_SAMPLERS`.
# ---------------------------------------------------------------------------


def _draw_gamma(rng, B: int, n: int, k: int, force_neg: int = 0, barred: bool = False) -> np.ndarray:
    """Cone members with generic scales; optionally force trailing negatives."""
    counts = {"membership": 0}

    def draw(blk):
        X = np.abs(rng.normal(0.0, 3.0, (blk, n))) + 0.05
        top = X.max(axis=1)
        if force_neg:
            for j in range(force_neg):
                X[:, n - 1 - j] = -rng.uniform(0.0, 0.8, blk) * top * (n - k) / (k * (j + 1))
        else:
            X[:, n - 1] = rng.uniform(-0.5, 1.0, blk) * top
        X = _descending(X)
        c = batch_coeffs_t(np.ascontiguousarray(X.T))
        if barred:
            keep = (c[1:k] > 0.0).all(axis=0) & (c[k] >= 0.0)
        else:
            keep = (c[1 : k + 1] > 0.0).all(axis=0)
        counts["membership"] += int(blk - keep.sum())
        return X[keep]

    return rejection_sample(draw, B, lambda left, room: _BLOCK, _SAMPLER_BUDGET, counts, "gamma sampler")


def _sampler_real(P, rng, B, *, aux_K=False):
    n = P["n"]
    X = rng.normal(0.0, 1.0, (B, n)) * 10.0 ** rng.uniform(-1.0, 2.0, (B, 1))
    aux = {}
    if aux_K:
        aux["K"] = 10.0 ** rng.uniform(0.0, 3.0, B)
    return X, aux


def _sampler_cone(P, rng, B, *, force_neg=0, aux_xi=False):
    X = _draw_gamma(rng, B, P["n"], P["k"], force_neg=force_neg)
    aux = {}
    if aux_xi:
        aux["xi"] = rng.normal(0.0, 1.0, (B, P["n"]))
    return X, aux


def _sampler_bar(P, rng, B):
    return sample_bar_batch(rng, B, P["n"]), {}


def _sampler_bark(P, rng, B):
    return _draw_gamma(rng, B, P["n"], P["k"], barred=True), {}


def _sampler_l59(P, rng, B):
    """Top scale swept log-uniformly; hypothesis: a delta-large second entry
    or a delta-negative last entry (delta = 0.1, the weaker variant)."""
    n = P["n"]
    k = n - 2
    counts = {"membership": 0, "hypothesis": 0}

    def draw(blk):
        X = np.empty((blk, n))
        X[:, 0] = 10.0 ** rng.uniform(0.5, 4.0, blk)
        X[:, 1:] = rng.uniform(-0.95 * 2.0 / (n - 2), 1.0, (blk, n - 1)) * X[:, :1]
        X = _descending(X)
        c = batch_coeffs_t(np.ascontiguousarray(X.T))
        member = (c[1 : k + 1] > 0.0).all(axis=0)
        counts["membership"] += int(blk - member.sum())
        hyp = (-X[:, n - 1] >= 0.1 * X[:, 0]) | (X[:, n - 2] >= 0.1 * X[:, 0])
        counts["hypothesis"] += int((member & ~hyp).sum())
        return X[member & hyp]

    return rejection_sample(draw, B, lambda left, room: _BLOCK, _SAMPLER_BUDGET, counts, "scale sampler"), {}


def _uniform(u: np.ndarray, low, high) -> np.ndarray:
    """`Generator.uniform(low, high)` on the standard draws u of `rng.random`:
    numpy computes low + (high - low) * u, so the bits are the same."""
    return low + (high - low) * u


def _sampler_tail_cases(P, rng, B, *, cases=("B3", "C")):
    """Constructive draw for the tail cases B3 / C at any scale.

    Both cases pin sigma_{n-2}(kappa|i) to a near-zero value T1 while
    sigma_{n-2}(kappa) stays in SIGMA_K_WINDOW; at large scales that region
    is far too thin for rejection.  Writing sigma_{n-2} and sigma_{n-3} of the
    reduced vector as affine functions of its last two entries (x, y) gives
    a 2x2 linear system in (x + y, x y), solved in closed form; x and y are
    then roots of a quadratic.  Draws with a negative discriminant or a
    failed feasibility re-check are rejected.
    """
    n = P["n"]
    k = n - 2
    k1 = P["kappa1"]
    i0 = P["i0"]
    d0 = 1.0 / (32.0 * n * (n - 2))
    pred = _case_predicate(i0, cases)
    counts = {
        "finite": 0, "gamma_k": 0, "kappa1_target": 0, "near_top": 0,
        "sigma_k_range": 0, "predicate": 0, "discriminant": 0,
    }
    nm = n - 4
    log_st = tuple(map(math.log, SIGMA_K_WINDOW))
    log_mid = math.log(0.9 * k1)
    lo_e = min(-12.0, -3.0 * math.log10(k1) - 2.0)
    hi_e = math.log10(d0)

    def draw(blk):
        # One `rng.random` fill per block, read in draw order: the kappa_1
        # jitter, the kappa_i offset, the sigma_k target, the (draw, entry)
        # middle magnitudes and then their signs, the sign of T1, its magnitude.
        u = rng.random((5 + 2 * nm, blk))
        kap1 = k1 * (1.0 + _uniform(u[0], -0.005, 0.005))
        ki = kap1 - u[1] * np.sqrt(kap1) / n  # uniform(0, 1) is u itself
        st = np.exp(_uniform(u[2], *log_st))  # sigma_k target
        # The discriminant of the root quadratic is only nonnegative when the
        # middle entries are O(sigma_k / kappa_1^2) and (for positive targets)
        # |T1| = O(sigma_k^2 / kappa_1^3); span those windows in log scale.
        lo_m = np.log(st * 1e-4 / (k1 * k1))
        mids = np.exp(_uniform(u[3 : 3 + nm].reshape(blk, nm), lo_m[:, None], log_mid))
        mids *= np.where(u[3 + nm : 3 + 2 * nm].reshape(blk, nm) < 0.5, -1.0, 1.0)
        pre = np.empty((n - 3, blk))  # reduced prefix, one column per draw
        pre[0] = kap1
        pre[1:] = mids.T
        cp = batch_coeffs_t(pre)
        s5, s4, s3 = cp[n - 5], cp[n - 4], cp[n - 3]
        sgn = np.where(u[3 + 2 * nm] < 0.5, 1.0, -1.0)
        T1 = sgn * st * 10.0 ** _uniform(u[4 + 2 * nm], lo_e, hi_e)
        T2 = (st - T1) / ki
        det = s4 * s4 - s5 * s3
        safe = np.abs(det) > 0.0
        det = np.where(safe, det, 1.0)
        # x + y and x y; sigma_{n-2} of the n-3 prefix entries is zero
        xs = (s4 * (T2 - s3) - s5 * T1) / det
        xp = (s4 * T1 - s3 * (T2 - s3)) / det
        disc = xs * xs - 4.0 * xp
        safe &= disc >= 0.0
        rows = np.flatnonzero(safe)
        counts["discriminant"] += blk - rows.size
        if not rows.size:
            return np.empty((0, n))
        xs, r = xs[rows], np.sqrt(disc[rows])
        XT = np.empty((n, rows.size))
        XT[: n - 3] = pre[:, rows]
        XT[n - 3] = (xs + r) / 2.0
        XT[n - 2] = (xs - r) / 2.0
        XT[n - 1] = ki[rows]
        X = _descending(np.ascontiguousarray(XT.T))
        return X[_feasible_mask(X, k, k1, i0 + 1, counts, pred)]

    return rejection_sample(draw, B, lambda left, room: 4096, _SAMPLER_BUDGET, counts, "tail-case sampler"), {}


def _sampler_main(P, rng, B, *, cases=None, aux_h=False):
    """The conjecture-regime sampler: kappa_1 pinned, index i near the top,
    sigma_k in SIGMA_K_WINDOW; optional case conditioning."""
    pred = _case_predicate(P["i0"], cases) if cases else None
    X = sample_batch(rng, B, P["n"], P["k"], P["kappa1"], near_top_index=P["i0"] + 1, predicate=pred)
    aux = {}
    if aux_h:
        aux["h"] = rng.normal(0.0, 1.0, (B, P["n"]))
    return X, aux


_SAMPLERS = {
    "real": _sampler_real,
    "real_K": functools.partial(_sampler_real, aux_K=True),
    "cone": _sampler_cone,
    "cone_xi": functools.partial(_sampler_cone, aux_xi=True),
    "cone_neg1": functools.partial(_sampler_cone, force_neg=1),
    "cone_neg2": functools.partial(_sampler_cone, force_neg=2),
    "bar": _sampler_bar,
    "bark": _sampler_bark,
    "l59": _sampler_l59,
    "main": _sampler_main,
    "main_h": functools.partial(_sampler_main, aux_h=True),
    "main_abb2": functools.partial(_sampler_main, cases=("A", "B1", "B2")),
    "tail_cases": _sampler_tail_cases,
}
