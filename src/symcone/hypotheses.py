"""The hypothesis samplers of the registry's checks.

Each sampler draws exactly B rows that satisfy one check's hypothesis, and
nothing else, as `sampler(P, rng, B) -> X`; `_SAMPLERS` names the variants
the catalog uses.  The conjecture-regime sampler `cones.sample_batch` is one
of them as it stands, and with its case conditioning bound; the tail-case
sampler here shares its accept test `cones._feasible_mask`.
A statement that also reads per-row auxiliary draws (a constant K, a
direction xi or h) names them, and `_AUX` draws each one after the rows, on
the same stream.  The rejection samplers here share the budget
`_SAMPLER_BUDGET` and the loop `cones.rejection_sample`, which sizes their
blocks from the acceptance rate it measures, up to `_TAIL_BLOCK` draws for
the tail-case sampler and `cones._BLOCK` for the others.  A sampler that
cannot realize its hypothesis within its budget raises
`SamplingExhaustedError` with the rejection breakdown.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .cones import SIGMA_K_WINDOW, _REGIME_COUNTS, _descending, _feasible_mask, rejection_sample, sample_batch
from .symfun import batch_coeffs_t

_SAMPLER_BUDGET = 400_000
# The tail-case sampler's block cap: above kappa_1 = 100 it accepts at most
# about a quarter of its draws, and each block pays some thirty numpy calls
# whatever its size.
_TAIL_BLOCK = 8192


# ---------------------------------------------------------------------------
# Hypothesis samplers.  Each draws exactly B rows as `sampler(P, rng, B) -> X`;
# its options are keyword arguments, bound per variant in `_SAMPLERS`.
# ---------------------------------------------------------------------------


def _sampler_real(P, rng, B):
    return rng.normal(0.0, 1.0, (B, P["n"])) * 10.0 ** rng.uniform(-1.0, 2.0, (B, 1))


def _sampler_gamma(P, rng, B, *, force_neg=0):
    """Open-cone Gamma_k members at generic scales; optionally force trailing negatives."""
    n, k = P["n"], P["k"]
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
        keep = (c[1 : k + 1] > 0.0).all(axis=0)
        counts["membership"] += int(blk - keep.sum())
        return X[keep]

    return rejection_sample(draw, B, _SAMPLER_BUDGET, counts, "gamma sampler")


def _sampler_bar(P, rng, B):
    """Vectors in the barred cone of level n (dimension n), sorted descending.

    Interior points are positive vectors; 40% of the draws are boundary
    points, constructed explicitly by zeroing one entry (sigma_n = 0
    exactly), since the boundary has measure zero and is unreachable by
    rejection.
    """
    n = P["n"]
    X = np.exp(rng.uniform(-1.0, 3.0, (B, n)))
    hit = rng.uniform(size=B) < 0.4
    cols = rng.integers(0, n, size=B)
    X[hit, cols[hit]] = 0.0
    return _descending(X)


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

    return rejection_sample(draw, B, _SAMPLER_BUDGET, counts, "scale sampler")


def _uniform(u: np.ndarray, low, high) -> np.ndarray:
    """`Generator.uniform(low, high)` on the standard draws u of `rng.random`:
    numpy computes low + (high - low) * u, so the bits are the same."""
    return low + (high - low) * u


def _sampler_tail_cases(P, rng, B):
    """Constructive draw for the tail cases B3 / C at any scale.

    Both cases pin sigma_{n-2}(kappa|i) to a near-zero value T1 while
    sigma_{n-2}(kappa) stays in SIGMA_K_WINDOW; at large scales that region
    is far too thin for rejection.  Writing sigma_{n-2} and sigma_{n-3} of the
    reduced vector as affine functions of its last two entries (x, y) gives
    a 2x2 linear system in (x + y, x y), solved in closed form; x and y are
    then roots of a quadratic.  Draws with a negative discriminant or a
    failed feasibility re-check are rejected.

    A row of B3 or C has at most one negative entry: B has kappa_{n-1} > 0,
    and in C kappa|i lies in the closure of Gamma_{n-2} in R^{n-1}.  So at
    most one middle entry is negated, each of the n - 3 choices (none, or
    which one) with probability 1/(n - 3): independent fair signs
    conditioned on that event.  A finite draw whose roots still bring it
    to two negatives is rejected as `negatives` before the sigma DP.
    """
    n = P["n"]
    k = n - 2
    k1 = P["kappa1"]
    i0 = P["i0"]
    d0 = 1.0 / (32.0 * n * (n - 2))
    counts = dict.fromkeys(_REGIME_COUNTS + ("discriminant", "negatives"), 0)
    nm = n - 4
    log_st = tuple(map(math.log, SIGMA_K_WINDOW))
    log_mid = math.log(0.9 * k1)
    lo_e = min(-12.0, -3.0 * math.log10(k1) - 2.0)
    hi_e = math.log10(d0)

    def draw(blk):
        # One `rng.random` fill per block, read in draw order: the kappa_1
        # jitter, the kappa_i offset, the sigma_k target, the (draw, entry)
        # middle magnitudes, the negated middle entry, the sign of T1, its magnitude.
        u = rng.random((6 + nm, blk))
        kap1 = k1 * (1.0 + _uniform(u[0], -0.005, 0.005))
        ki = kap1 - u[1] * np.sqrt(kap1) / n  # uniform(0, 1) is u itself
        st = np.exp(_uniform(u[2], *log_st))  # sigma_k target
        XT = np.empty((n, blk))  # the draws, one column each; the first n - 3 rows are the reduced prefix
        pre = XT[: n - 3]
        pre[0] = kap1
        XT[n - 1] = ki
        # A draw whose products overflow at a huge kappa_1 fails the discriminant or the finite test.
        with np.errstate(all="ignore"):
            # The discriminant of the root quadratic is only nonnegative when the
            # middle entries are O(sigma_k / kappa_1^2) and (for positive targets)
            # |T1| = O(sigma_k^2 / kappa_1^3); span those windows in log scale.
            lo_m = np.log(st * 1e-4 / (k1 * k1))
            pre[1:] = np.exp(_uniform(u[3 : 3 + nm].reshape(blk, nm), lo_m[:, None], log_mid)).T
            pick = (u[3 + nm] * (n - 3)).astype(np.intp)  # the middle entry to negate, or nm for none
            pre[1:] *= np.where(np.arange(nm)[:, None] == pick, -1.0, 1.0)
            cp = batch_coeffs_t(pre)
            s5, s4, s3 = cp[n - 5], cp[n - 4], cp[n - 3]
            sgn = np.where(u[4 + nm] < 0.5, 1.0, -1.0)
            T1 = sgn * st * 10.0 ** _uniform(u[5 + nm], lo_e, hi_e)
            T2 = (st - T1) / ki
            det = s4 * s4 - s5 * s3
            ok = np.abs(det) > 0.0
            det = np.where(ok, det, 1.0)
            # x + y and x y; sigma_{n-2} of the n-3 prefix entries is zero
            xs = (s4 * (T2 - s3) - s5 * T1) / det
            xp = (s4 * T1 - s3 * (T2 - s3)) / det
            disc = xs * xs - 4.0 * xp
            ok &= disc >= 0.0
            r = np.sqrt(disc)
            XT[n - 3] = (xs + r) / 2.0
            XT[n - 2] = (xs - r) / 2.0
        counts["discriminant"] += blk - int(np.count_nonzero(ok))
        two = ok & (np.count_nonzero(XT < 0.0, axis=0) >= 2) & np.isfinite(XT).all(axis=0)
        counts["negatives"] += int(np.count_nonzero(two))
        X = _descending(XT.T[ok & ~two])
        return X[_feasible_mask(X, k, k1, i0 + 1, counts, ("B3", "C"))]

    return rejection_sample(draw, B, _SAMPLER_BUDGET, counts, "tail-case sampler", _TAIL_BLOCK)


_SAMPLERS = {
    "real": _sampler_real,
    "cone": _sampler_gamma,
    "cone_neg1": functools.partial(_sampler_gamma, force_neg=1),
    "cone_neg2": functools.partial(_sampler_gamma, force_neg=2),
    "bar": _sampler_bar,
    "l59": _sampler_l59,
    "main": sample_batch,
    "main_abb2": functools.partial(sample_batch, cases=("A", "B1", "B2")),
    "tail_cases": _sampler_tail_cases,
}


def _normal_rows(P, rng, B):
    return rng.normal(0.0, 1.0, (B, P["n"]))


# The per-row auxiliary draws a statement can declare in `LemmaCheck.aux`, each as `draw(P, rng, B)`:
# the constant K of L4_2_id1 and the directions xi of L2_1_guan and h of L3_5.
_AUX = {"K": lambda P, rng, B: 10.0 ** rng.uniform(0.0, 3.0, B), "xi": _normal_rows, "h": _normal_rows}
