"""Adversarial search for negative eigenvalues of the key form.

`minimize_lambda` runs restarted Nelder-Mead over a feasible slice of the
constraint set.  The free variables are kappa_2 .. kappa_{n-1}, with kappa_1
pinned to the target scale and kappa_n solved from sigma_k(kappa) = target
for a target in the sigma_k window (sigma_k is affine in each single entry),
because the window is far too thin at large scales for rejection or penalty
methods to stay inside it.  Constraint violations return +inf, which
Nelder-Mead treats as a wall.

Any negative finding is re-evaluated on the key matrix computed exactly,
by the same builder run on `Fraction` entries and rounded once to float, so
that a rounding artifact of the float kernels is not mistaken for a
counterexample.

`threshold_bisect` locates the smallest top-curvature scale at which a named
registry check passes, by bisection on a log grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import minimize

from .cones import SIGMA_K_WINDOW, SIGMA_RANGE_NOISE_FACTOR, make_rng, sample_batch
from .errors import InvalidInputError, SamplingExhaustedError
from .quadforms import _relmin, key_matrix_batch
from .registry import run_check
from .symfun import batch_coeffs

_EPS = np.finfo(float).eps

__all__ = [
    "SearchConfig",
    "SearchWitness",
    "SearchResult",
    "ThresholdResult",
    "minimize_lambda",
    "threshold_bisect",
]


@dataclass(frozen=True)
class SearchConfig:
    n: int
    k: Optional[int] = None  # default n - 2
    K: float = 1e3
    kappa1: float = 1e4
    i: int = 2  # 1-based near-top index
    restarts: int = 50
    maxiter: int = 400
    seed: int = 0

    def resolved_k(self) -> int:
        k = self.k if self.k is not None else self.n - 2
        if not 2 <= k <= self.n - 1:
            raise InvalidInputError(f"need 2 <= k <= n-1, got k={k}, n={self.n}")
        return k


@dataclass
class SearchWitness:
    kappa: List[float]
    value: float  # lambda_min / frobenius of the key form
    xi: List[float]  # eigenvector of the least eigenvalue
    refined_value: Optional[float] = None  # value of the exactly computed key matrix (negatives only)


@dataclass
class SearchResult:
    config: SearchConfig
    best: Optional[SearchWitness]
    ranked: List[SearchWitness] = field(default_factory=list)
    evaluations: int = 0
    restarts_used: int = 0


def _assemble(u: np.ndarray, cfg: SearchConfig, k: int, target: float) -> Optional[np.ndarray]:
    """Build the full vector from the free coordinates; None when infeasible."""
    n = cfg.n
    kap = np.empty(n)
    kap[0] = cfg.kappa1
    kap[1 : n - 1] = u
    c = batch_coeffs(kap[None, : n - 1])[0]
    denom = c[k - 1]
    if not denom > 0:
        return None
    kap[n - 1] = (target - c[k]) / denom
    if not np.all(np.isfinite(kap)):
        return None
    if np.any(kap[1:] > kap[0]):
        return None  # kappa_1 must stay the top entry
    if kap[cfg.i - 1] <= kap[0] - math.sqrt(kap[0]) / n:
        return None
    c = batch_coeffs(kap[None, :])[0]
    if not np.all(c[1:k] > 0.0):
        return None
    # sigma_k equals the solved target up to representation noise; at large
    # scales the recomputed value quantizes in ULPs of the absolute term sum
    # and its exact sign is meaningless.
    noise = SIGMA_RANGE_NOISE_FACTOR * _EPS * batch_coeffs(np.abs(kap)[None, :])[0][k]
    if not c[k] > -noise:
        return None
    s_ii = batch_coeffs(np.delete(kap, cfg.i - 1)[None, :])[0][k - 1]
    if not cfg.K * kap[cfg.i - 1] * s_ii > 1.0:
        return None
    return kap


def _key(kap: np.ndarray, cfg: SearchConfig, k: int) -> np.ndarray:
    """The key matrix of one vector, as a batch of one."""
    return key_matrix_batch(kap[None, :], k, cfg.i - 1, cfg.K)


def _exact_key(kap: np.ndarray, cfg: SearchConfig, k: int) -> np.ndarray:
    """The key matrix computed in exact rational arithmetic from the float
    entries of kap, each entry then rounded once to float."""
    X = np.array([[Fraction(float(v)) for v in kap]], dtype=object)
    return key_matrix_batch(X, k, cfg.i - 1, Fraction(cfg.K)).astype(float)


def minimize_lambda(cfg: SearchConfig) -> SearchResult:
    """Restarted Nelder-Mead search for the most negative normalized eigenvalue."""
    k = cfg.resolved_k()
    rng = make_rng(cfg.seed)
    evaluations = 0
    candidates: List[SearchWitness] = []

    try:
        starts = sample_batch(
            rng,
            cfg.restarts,
            cfg.n,
            k,
            cfg.kappa1,
            near_top_index=cfg.i,
            sigma_k_range=SIGMA_K_WINDOW,
        )
    except SamplingExhaustedError:
        return SearchResult(config=cfg, best=None, evaluations=0, restarts_used=0)

    lo, hi = SIGMA_K_WINDOW
    for r in range(cfg.restarts):
        # Rescale so kappa_1 sits exactly at the pinned scale (samples jitter
        # it by 0.5%); keep the row's own sigma_k as the slice target so the
        # re-solved last entry reproduces a feasible point.
        row = starts[r] * (cfg.kappa1 / starts[r][0])
        sk = float(batch_coeffs(row[None, :])[0][k])
        target = min(max(sk, lo), hi)
        u0 = row[1 : cfg.n - 1].copy()

        def f(u):
            nonlocal evaluations
            evaluations += 1
            kap = _assemble(np.asarray(u, dtype=float), cfg, k, target)
            if kap is None:
                return math.inf
            return float(_relmin(_key(kap, cfg, k))[0])

        if not math.isfinite(f(u0)):
            continue
        res = minimize(
            f,
            u0,
            method="Nelder-Mead",
            options={"maxiter": cfg.maxiter, "xatol": 1e-10 * cfg.kappa1, "fatol": 1e-14},
        )
        kap = _assemble(np.asarray(res.x, dtype=float), cfg, k, target)
        if kap is None:
            continue
        M = _key(kap, cfg, k)
        value = float(_relmin(M)[0])
        _, vecs = np.linalg.eigh(M[0])
        wit = SearchWitness(
            kappa=[float(v) for v in kap],
            value=value,
            xi=[float(v) for v in vecs[:, 0]],
        )
        if value < 0.0:
            wit.refined_value = float(_relmin(_exact_key(kap, cfg, k))[0])
        candidates.append(wit)

    candidates.sort(key=lambda w: w.value)
    best = candidates[0] if candidates else None
    return SearchResult(
        config=cfg,
        best=best,
        ranked=candidates[:10],
        evaluations=evaluations,
        restarts_used=len(candidates),
    )


@dataclass
class ThresholdResult:
    check_id: str
    n: int
    kappa1_star: Optional[float]  # smallest passing scale found, None if none pass
    lo: float
    hi: float
    all_pass: bool  # already passes at the lower endpoint
    none_pass: bool  # still fails at the upper endpoint
    evaluations: int = 0
    history: List[dict] = field(default_factory=list)


def _passes_at(check_id: str, n: int, g: float, samples: int, seed: int, K: Optional[float], k: Optional[int]) -> Tuple[bool, float]:
    res = run_check(check_id, n=n, samples=samples, seed=seed, kappa1=g, K=K, k=k)
    ok = res.verdict in ("PASS", "THRESHOLD")
    return ok, res.min_slack


def threshold_bisect(
    check_id: str,
    n: int,
    lo: float = 10.0,
    hi: float = 1e6,
    steps: int = 20,
    samples: int = 500,
    seed: int = 0,
    K: Optional[float] = None,
    k: Optional[int] = None,
) -> ThresholdResult:
    """Log-scale bisection for the smallest scale at which a check passes.

    Assumes pass/fail is monotone in the scale (the asymptotic statements
    only claim validity above some scale); endpoint flags report when the
    bracket never straddles the transition.
    """
    if not 0 < lo < hi:
        raise InvalidInputError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    history: List[dict] = []
    evaluations = 0

    def probe(g: float) -> bool:
        nonlocal evaluations
        evaluations += 1
        ok, slack = _passes_at(check_id, n, g, samples, seed, K, k)
        history.append({"kappa1": g, "passed": ok, "min_slack": slack})
        return ok

    hi_ok = probe(hi)
    if not hi_ok:
        return ThresholdResult(check_id, n, None, lo, hi, False, True, evaluations, history)
    lo_ok = probe(lo)
    if lo_ok:
        return ThresholdResult(check_id, n, lo, lo, hi, True, False, evaluations, history)
    a, b = math.log(lo), math.log(hi)  # fail at a, pass at b
    for _ in range(steps):
        mid = 0.5 * (a + b)
        if probe(math.exp(mid)):
            b = mid
        else:
            a = mid
    return ThresholdResult(check_id, n, math.exp(b), lo, hi, False, False, evaluations, history)
