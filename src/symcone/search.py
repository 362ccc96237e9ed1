"""Adversarial search for negative eigenvalues of the key form.

`minimize_lambda` runs restarted Nelder-Mead over a feasible slice of the
constraint set.  The free variables are kappa_2 .. kappa_{n-1}, with kappa_1
pinned to the target scale and kappa_n solved from sigma_k(kappa) = target
for a target in the sigma_k window (sigma_k is affine in each single entry),
because the window is far too thin at large scales for rejection or penalty
methods to stay inside it.  Constraint violations return +inf, which
Nelder-Mead treats as a wall.

All restarts of a search advance in lockstep, and each step evaluates every
candidate point of every restart in one batched objective call.  Per restart
the iterates are those of the classic scalar Nelder-Mead (the coefficients,
initial simplex, tie order and stopping rule of scipy's
`_minimize_neldermead`), so batching changes no result.

Any negative finding is re-evaluated on the key matrix computed exactly,
by the same builder run on integer-scaled entries and rounded once to
float, so that a rounding artifact of the float kernels is not mistaken for
a counterexample.

`threshold_bisect` locates the smallest top-curvature scale at which a named
registry check passes, by bisection on a log grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import numpy as np

from .cones import _EPS, SIGMA_K_WINDOW, SIGMA_RANGE_NOISE_FACTOR, check_regime_level, make_rng, sample_batch
from .errors import InvalidInputError, SamplingExhaustedError
from .quadforms import _relmin, inv_c, key_matrix_batch, key_matrix_from_parts
from .registry import RunContext, _check_for, _params, run_check
from .symfun import batch_coeffs, batch_coeffs_t

__all__ = [
    "SearchConfig",
    "SearchWitness",
    "SearchRun",
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

    def __post_init__(self) -> None:
        if not 1 <= self.i <= self.n:
            raise InvalidInputError(f"need 1 <= i <= n, got i={self.i}, n={self.n}")
        if self.restarts < 1:
            raise InvalidInputError(f"need restarts >= 1, got {self.restarts}")
        for name in ("kappa1", "K"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InvalidInputError(f"need {name} > 0 and finite, got {value}")
        if self.maxiter < 1:
            raise InvalidInputError(f"need maxiter >= 1, got {self.maxiter}")
        check_regime_level(self.n, self.resolved_k())

    def resolved_k(self) -> int:
        return self.k if self.k is not None else self.n - 2


@dataclass
class SearchWitness:
    kappa: List[float]
    value: float  # lambda_min / frobenius of the key form
    xi: List[float]  # eigenvector of the least eigenvalue
    refined_value: Optional[float] = None  # value of the exactly computed key matrix (negatives only)


@dataclass
class SearchRun:
    """How one restart ended."""

    start_feasible: bool
    nfev: int  # objective rows of this restart, the start-point check included
    nit: int  # Nelder-Mead iterations, counted from 1 as scipy does
    status: str  # infeasible_start | converged | maxiter
    value: Optional[float] = None  # the best vertex's value, None after an infeasible start


@dataclass
class SearchResult:
    config: SearchConfig
    best: Optional[SearchWitness]
    ranked: List[SearchWitness] = field(default_factory=list)
    evaluations: int = 0  # the objective evaluations scalar Nelder-Mead makes
    restarts_used: int = 0
    runs: List[SearchRun] = field(default_factory=list)  # one per restart, in restart order
    objective_calls: int = 0  # batched objective calls
    objective_rows: int = 0  # rows those calls computed, the unused speculative points included
    error: Optional[str] = None  # why no start point could be drawn, None if the search ran
    rejections: Optional[dict] = None  # the start sampler's rejections per constraint, with `error`


@functools.lru_cache(maxsize=None)
def _table_sets(m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sets of `_assemble`'s DP as a keep mask of the first m entries,
    (m, sets, 1): |kappa|, kappa, then kappa less each pair p < q of the
    n = m + 1 entries, p and q in `rows` and `cols`, the pairs (j, m) first.
    Built once, read-only."""
    p, q = np.triu_indices(m, 1)
    rows, cols = np.r_[:m, p], np.r_[[m] * m, q]
    keep, s = np.ones((m + 1, 2 + rows.size), dtype=bool), np.arange(2, 2 + rows.size)
    keep[rows, s] = keep[cols, s] = False
    keep = keep[:m, :, None]
    for a in (keep, rows, cols):
        a.flags.writeable = False
    return keep, rows, cols


def _assemble(U: np.ndarray, cfg: SearchConfig, k: int, target: np.ndarray) -> Tuple[np.ndarray, np.ndarray, tuple]:
    """Full vectors from rows of free coordinates, each row with its own
    sigma_k target, the mask of the feasible rows, and the key builder's
    tables v = sigma_{k-1}(kap|j) (B, n) and S = sigma_{k-2}(kap|p,q) (B, n, n).

    One coefficient DP call on the first n-1 entries gives every sigma: each
    set writes its removed entries as exact zeros, whose DP steps change no
    sigma, and the solved last entry joins each set by hand, as the DP's
    last step would."""
    n, m = cfg.n, cfg.n - 1
    keep, rows, cols = _table_sets(m)
    kap = np.empty((U.shape[0], n))
    kap[:, 0] = top = float(cfg.kappa1)
    kap[:, 1:m] = U
    P = kap[:, :m].T
    Z = np.where(keep, P[:, None, :], 0.0)
    np.abs(P, out=Z[:, 0])
    # Infeasible rows run through every test below; their inf/nan is masked.
    with np.errstate(all="ignore"):
        c = batch_coeffs_t(Z, k)  # c[t, s] = sigma_t of set s, t <= k
        x = kap[:, m] = (target - c[k, 1]) / c[k - 1, 1]
        ok = (c[k - 1, 1] > 0) & np.isfinite(kap).all(1)
        ok &= (kap[:, 1:] <= top).all(1)  # kappa_1 must stay the top entry
        ok &= kap[:, cfg.i - 1] > top - math.sqrt(top) / n
        full = c[1:, 1] + x * c[:-1, 1]  # sigma_1..sigma_k of kap
        ok &= (full[: k - 1] > 0.0).all(0)
        # sigma_k equals the solved target up to representation noise; at
        # large scales the recomputed value quantizes in ULPs of the absolute
        # term sum and its exact sign is meaningless.
        noise = SIGMA_RANGE_NOISE_FACTOR * _EPS * (c[k, 0] + np.abs(x) * c[k - 1, 0])
        ok &= (full[k - 1] > 0.0) | (full[k - 1] > -noise)
        v = np.empty_like(kap)
        v[:, :m] = (c[k - 1, 2 : m + 2] + x * c[k - 2, 2 : m + 2]).T
        v[:, m] = c[k - 1, 1]
        ok &= inv_c(cfg.K, kap[:, cfg.i - 1], v[:, cfg.i - 1]) > 0.0
        w = c[k - 2, 2:]  # the sets (j, n-1) stand as they are; the others gain x
        if k > 2:
            w[m:] += x * c[k - 3, m + 2 :]
    S = np.zeros(kap.shape + (n,))
    S[:, rows, cols] = S[:, cols, rows] = w.T
    return kap, ok, (v, S)


def _objective(U: np.ndarray, cfg: SearchConfig, k: int, target: np.ndarray) -> np.ndarray:
    """lambda_min / frobenius of the key form for each row; +inf when infeasible
    or when the key form has a non-finite entry (a NaN slack), like a wall."""
    kap, ok, (v, S) = _assemble(U, cfg, k, target)
    if ok.all():
        f = _relmin(key_matrix_from_parts(kap, v, S, cfg.i - 1, cfg.K))
    else:
        f = np.full(U.shape[0], np.inf)
        if ok.any():
            f[ok] = _relmin(key_matrix_from_parts(kap[ok], v[ok], S[ok], cfg.i - 1, cfg.K))
    return np.fmin(f, np.inf)  # fmin drops a NaN, so it reads +inf


def _exact_key(kap: List[float], cfg: SearchConfig, k: int) -> np.ndarray:
    """The key matrix computed in exact rational arithmetic from the float
    entries of kap, each entry then rounded once to float.

    Every float is a dyadic rational, so with D the largest denominator the
    entries kap*D are integers.  The key matrix is homogeneous, M(D kap,
    K D^-k) = D^(k-1) M(kap, K), so the builder runs on integers (only the
    K term is a Fraction) and one division recovers the same rationals."""
    q = [Fraction(float(v)) for v in kap]
    D = max(f.denominator for f in q)
    X = np.array([[f.numerator * (D // f.denominator) for f in q]], dtype=object)
    M, _ = key_matrix_batch(X, k, cfg.i - 1, Fraction(cfg.K) / D**k)
    return (M / D ** (k - 1)).astype(float)


def _nelder_mead(
    func: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    maxiter: int,
    xatol: float,
    fatol: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nelder-Mead from each row of x0 (R, N), all problems in lockstep.

    func(U, r) returns the values of the rows of U, row j being a point of
    problem r[j]; a row's value must not depend on the other rows.  Each
    step makes one call on every candidate point of every active problem
    (the reflection, the expansion and both contractions), and a second
    call on the shrunk vertices of the problems that shrink.  Per problem
    every expression, the choice among the candidates, the tie order of the
    sort and the stopping rule are those of scipy's `_minimize_neldermead`
    (not adaptive, no bounds), so the iterates are the same bits.

    Returns the best vertex (R, N) and its value (R,), the iteration and
    evaluation counts, and whether the tolerance test stopped the problem
    (else maxiter did).  The value is scipy's `fun`, and the evaluation
    counts are scipy's: a candidate point counts only where scipy evaluates it.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    # The four candidates a * xbar + b * worst; (-b) * w = -(b * w) exactly.
    a = np.array([1 + rho, 1 + rho * chi, 1 + psi * rho, 1 - psi])[:, None, None]
    b = np.array([-rho, -rho * chi, -psi * rho, psi])[:, None, None]
    nonzdelt, zdelt = 0.05, 0.00025
    R, N = x0.shape
    s = np.repeat(x0[:, None, :], N + 1, axis=1)
    j = np.arange(N)
    s[:, j + 1, j] = np.where(x0 != 0, (1 + nonzdelt) * x0, zdelt)
    ar = np.arange(R)
    fs = func(s.reshape(-1, N), np.repeat(ar, N + 1)).reshape(R, N + 1)
    for _ in range(2):  # scipy sorts the first simplex twice; ties among +inf can move
        ind = np.argsort(fs, axis=1)
        s, fs = s[ar[:, None], ind], fs[ar[:, None], ind]

    # s, fs and nf hold the active problems act only; a problem's results
    # are written out when it stops.  Active problems share their iteration
    # count, so only convergence can shrink the active set.
    x, fx, nit, nfev = np.empty((R, N)), np.empty(R), np.full(R, maxiter), np.empty(R, dtype=int)
    converged = np.zeros(R, dtype=bool)
    act, nf, r4 = ar, np.full(R, N + 1), np.tile(ar, 4)
    with np.errstate(invalid="ignore"):  # inf - inf at the walls
        for it in range(1, maxiter):
            done = np.maximum.reduce(np.abs(fs[:, :1] - fs[:, 1:]), axis=1) <= fatol
            if done.any():  # the vertex test only where the value test holds
                done[done] = np.maximum.reduce(np.abs(s[done, 1:] - s[done, :1]), axis=(1, 2)) <= xatol
                if done.any():
                    stop = act[done]
                    converged[stop], nit[stop], nfev[stop] = True, it, nf[done]
                    x[stop], fx[stop] = s[done, 0], fs[done, 0]
                    act, s, fs, nf = act[~done], s[~done], fs[~done], nf[~done]
                    if not act.size:
                        break
                    ar, r4 = np.arange(act.size), np.tile(act, 4)

            xbar = np.add.reduce(s[:, :-1], 1) / N
            worst = s[:, -1]
            # reflection, expansion, outside and inside contraction
            cand = a * xbar + b * worst
            fcand = func(cand.reshape(-1, N), r4).reshape(4, -1)
            fxr = fcand[0]

            expand = fxr < fs[:, 0]
            contract = ~(expand | (fxr < fs[:, -2]))  # neither expanded nor accepted
            outside = contract & (fxr < fs[:, -1])
            inside = contract ^ outside
            second = np.where(expand, 1, 3 - outside)  # unused where the reflection is accepted
            f2 = fcand[second, ar]
            nf += 1 + (expand | contract)
            take2 = (expand & (f2 < fxr)) | (outside & (f2 <= fxr)) | (inside & (f2 < fs[:, -1]))
            shrink = contract & ~take2
            # The worst vertex becomes the second point or else the
            # reflection, except where the simplex shrinks.
            new = np.where(take2, second, 0)
            s[:, -1] = np.where(shrink[:, None], worst, cand[new, ar])
            fs[:, -1] = np.where(shrink, fs[:, -1], fcand[new, ar])
            if shrink.any():
                sh = s[shrink]
                sh[:, 1:] = sh[:, :1] + sigma * (sh[:, 1:] - sh[:, :1])
                s[shrink] = sh
                fs[shrink, 1:] = func(sh[:, 1:].reshape(-1, N), np.repeat(act[shrink], N)).reshape(-1, N)
                nf[shrink] += N

            ind = np.argsort(fs, axis=1)
            s, fs = s[ar[:, None], ind], fs[ar[:, None], ind]
    x[act], fx[act], nfev[act] = s[:, 0], fs[:, 0], nf
    return x, fx, nit, nfev, converged


def _starts(cfg: SearchConfig, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The free coordinates of every restart's start point and its sigma_k
    target.  Raises SamplingExhaustedError when no start can be drawn."""
    starts = sample_batch(_params(cfg.n, k, cfg.i - 1, (cfg.K,), cfg.kappa1), make_rng(cfg.seed), cfg.restarts)
    # Rescale so kappa_1 sits exactly at the pinned scale (samples jitter it
    # by 0.5%); keep each row's own sigma_k as its slice target so the
    # re-solved last entry reproduces a feasible point.
    rows = starts * (cfg.kappa1 / starts[:, :1])
    lo, hi = SIGMA_K_WINDOW
    target = np.minimum(np.maximum(batch_coeffs(rows)[:, k], lo), hi)
    return rows[:, 1 : cfg.n - 1], target


def minimize_lambda(cfg: SearchConfig) -> SearchResult:
    """Restarted Nelder-Mead search for the most negative normalized eigenvalue."""
    k = cfg.resolved_k()
    try:
        U0, target = _starts(cfg, k)
    except SamplingExhaustedError as exc:
        return SearchResult(config=cfg, best=None, error=str(exc), rejections=exc.rejection_counts)

    feasible = np.isfinite(_objective(U0, cfg, k, target))
    calls, rows = 1, len(U0)
    runs = [SearchRun(start_feasible=bool(f), nfev=1, nit=0, status="infeasible_start") for f in feasible]
    candidates: List[SearchWitness] = []
    run = np.flatnonzero(feasible)
    if run.size:
        t = target[run]

        def objective(U: np.ndarray, r: np.ndarray) -> np.ndarray:
            nonlocal calls, rows
            calls += 1
            rows += len(U)
            return _objective(U, cfg, k, t[r])

        # A best vertex is never worse than its feasible start: every end point is feasible.
        x, fx, nit, nfev, converged = _nelder_mead(objective, U0[run], cfg.maxiter, 1e-10 * cfg.kappa1, 1e-14)
        kap, _, (v, S) = _assemble(x, cfg, k, t)
        vecs = np.linalg.eigh(key_matrix_from_parts(kap, v, S, cfg.i - 1, cfg.K))[1]
        for j, r in enumerate(run):
            status = "converged" if converged[j] else "maxiter"
            runs[r] = SearchRun(True, runs[r].nfev + int(nfev[j]), int(nit[j]), status, float(fx[j]))
            candidates.append(SearchWitness(kappa=kap[j].tolist(), value=runs[r].value, xi=vecs[j, :, 0].tolist()))

    candidates.sort(key=lambda w: w.value)
    ranked = candidates[:10]
    for wit in ranked:  # only the reported witnesses pay for the exact key matrix
        if wit.value < 0.0:
            wit.refined_value = float(_relmin(_exact_key(wit.kappa, cfg, k))[0])
    return SearchResult(
        config=cfg,
        best=ranked[0] if ranked else None,
        ranked=ranked,
        evaluations=sum(rec.nfev for rec in runs),
        restarts_used=len(candidates),
        runs=runs,
        objective_calls=calls,
        objective_rows=rows,
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


def _threshold_context(
    check_id: str, n: int, lo: float, hi: float, steps: int, samples: int, seed: int, K: Optional[float], k: Optional[int]
) -> RunContext:
    """The run of every `threshold_bisect` probe, less its scale.  Raises
    InvalidInputError on a request no probe could run, before any probe."""
    if not 0 < lo < hi < math.inf:
        raise InvalidInputError(f"need 0 < lo < hi < inf, got lo={lo}, hi={hi}")
    if steps < 0:
        raise InvalidInputError(f"need steps >= 0, got {steps}")
    ctx = RunContext(n=n, samples=samples, seed=seed, K=K, k=k)
    check = _check_for(check_id, ctx)
    if check.kind != "ASYMPTOTIC" and check.default_kappa1 is None:
        raise InvalidInputError(f"{check_id} does not depend on kappa_1: every probe would draw the same rows")
    return ctx


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
    ctx = _threshold_context(check_id, n, lo, hi, steps, samples, seed, K, k)
    history: List[dict] = []
    evaluations = 0

    def probe(g: float) -> bool:
        nonlocal evaluations
        evaluations += 1
        res = run_check(check_id, replace(ctx, kappa1=g))
        ok = res.verdict in ("PASS", "THRESHOLD")
        history.append({"kappa1": g, "passed": ok, "min_slack": res.min_slack})
        return ok

    hi_ok = probe(hi)
    if not hi_ok:
        return ThresholdResult(check_id, n, None, lo, hi, False, True, evaluations, history)
    lo_ok = probe(lo)
    if lo_ok:
        return ThresholdResult(check_id, n, lo, lo, hi, True, False, evaluations, history)
    a, b, star = math.log(lo), math.log(hi), hi  # fail at a, pass at b, whose probed scale is star
    for _ in range(steps):
        mid = 0.5 * (a + b)
        g = math.exp(mid)
        if probe(g):
            b, star = mid, g
        else:
            a = mid
    return ThresholdResult(check_id, n, star, lo, hi, False, False, evaluations, history)
