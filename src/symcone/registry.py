"""Named-check registry: every verified statement as a reproducible check.

Each check has a stable id and a kind; what it checks is a row-parallel slack
function (`scalar_rows`, `matrix_rows`), a named hypothesis sampler
(`hypotheses`) and its default levels k.  This module holds the catalog and
the runner.  The slack conventions are uniform across the catalog:

  IDENTITY    slack = -|lhs - rhs| / (1 + sum of |term| magnitudes).
              Magnitude (not value) normalization: identities whose sides
              nearly cancel still certify at the rounding level.
  INEQUALITY  slack = (lhs - rhs) / (1 + |lhs| + |rhs|).
  PSD         slack = lambda_min / max(frobenius norm, tiny).
  ASYMPTOTIC  the same slack, evaluated on a grid of top-curvature scales
              kappa_1 in {10, ..., 1e6} (and a grid of K where K enters);
              verdict THRESHOLD(kappa_1*) with the smallest grid scale from
              which every larger scale passes, FAIL if the top scale fails.

PASS iff min slack >= -tol (identities/inequalities, default 1e-10) or
min slack >= -psd_eps (matrix checks, default 1e-8).  A sampler that cannot
realize its hypothesis reports ERROR with the rejection breakdown.  The
conjecture regime exists at 2 <= k <= n - 1 only, so a regime check that
takes any `--k` reports ERROR with its sampler's message at another level.  A
fixed-kind check also reports ERROR when no row was evaluated or any slack
is NaN; NaN rows are counted in `details["nonfinite_rows"]`.  In an
asymptotic sweep a NaN fails its grid point, and a sweep whose top point has
a NaN row, or evaluated no row at all, reports ERROR as well.

Rows whose sample falls outside a check's stated hypothesis (for example the
derived constant c requires K kappa_i sigma_{k-1}(kappa|i) > 1) are excluded
from the minimum and counted in `details["excluded_rows"]` (per grid point
as well, for an asymptotic sweep).

All randomness flows from one integer seed through counter-based child
streams, so every result - including witnesses - is bit-reproducible.  Each
point of a check (one k of a fixed check, one kappa_1 of a sweep) has its own
stream, so `run_checks` plans the points of many checks, evaluates them with
`parallel.fork_map` and folds each check's outcomes in plan order; the result
does not depend on the number of workers.  Both kinds share the plan and the
fold: a fixed check is one group of points at its scale, one per level, and a
group stops at its first point whose sampler ran dry.  A sweep is one group,
and one point, per kappa_1.  K enters only the slack, so K is an axis of it:
a point's parameters carry its whole K grid as a tuple, each block of rows
is drawn once and its rows function called once, and row a of the returned
(K, B) slacks is tallied under the a-th K (common random numbers).  The
point's stream is labelled with the grid's first K, so a run with K pinned
to that value draws the same rows, and a draw that runs dry leaves the whole
group without rows.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .cones import make_rng
from .errors import InvalidInputError, SamplingExhaustedError, SymconeError
from .hypotheses import _BLOCK, _SAMPLERS, CaseLabel, classify_case, classify_masks
from .matrix_rows import (
    _rows_a_psd, _rows_b_psd, _rows_d_gram, _rows_gap, _rows_key, _rows_l32, _rows_l34, _rows_l35a, _rows_l35b,
    _rows_l52, _rows_l53, _rows_l56, _rows_l61, _rows_l62, _rows_l63, _rows_l64, _rows_s601, _rows_s602, _rows_s615,
)
from .parallel import fork_map, resolve_jobs
from .scalar_rows import (
    _rows_gen_newton, _rows_id1, _rows_id2, _rows_id3, _rows_id4, _rows_id5, _rows_l21, _rows_l22, _rows_l23,
    _rows_l24a, _rows_l24b, _rows_l25, _rows_l26, _rows_l51, _rows_l54, _rows_l55, _rows_l58, _rows_l59,
    _rows_maclaurin, _rows_newton,
)

__all__ = [
    "CaseLabel",
    "CheckResult",
    "LemmaCheck",
    "RunContext",
    "classify_case",
    "classify_masks",
    "registry_list",
    "resolve_jobs",
    "run_check",
    "run_checks",
    "witness_slack",
    "IDENTITY_TOL",
    "INEQUALITY_TOL",
    "PSD_EPS",
    "ASYM_KAPPA1_GRID",
    "ASYM_K_GRID",
]

IDENTITY_TOL = 1e-10
INEQUALITY_TOL = 1e-10
PSD_EPS = 1e-8
ASYM_KAPPA1_GRID = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
ASYM_K_GRID = (1e1, 1e2, 1e3, 1e4)


def _child_seed(seed: int, label: str) -> int:
    digest = hashlib.blake2s(f"{seed}|{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# ---------------------------------------------------------------------------
# Catalog.
# ---------------------------------------------------------------------------


# Default levels of a check at dimension n.  `--k` replaces them where the
# check's statement covers that level: at any k for most checks, only within
# k_values(n) for a `k_strict` check, and never for a k-free check, whose rows
# cover every level themselves.


def _k_free(n):
    return (None,)


def _k_top(n):
    return (max(2, n - 2),)


def _k_range(lo, hi_off):
    """k in [lo, n + hi_off]."""
    return lambda n: tuple(range(lo, n + hi_off + 1))


@dataclass(frozen=True)
class LemmaCheck:
    id: str
    kind: str  # IDENTITY | INEQUALITY | PSD | ASYMPTOTIC
    description: str
    sampler: str
    rows: Callable  # rows(X, aux, P) -> (B,) or (len(P["K"]), B) slacks
    k_values: Callable  # k_values(n) -> default levels
    min_n: int = 3
    uses_K: bool = False
    psd_scaled: bool = False  # tolerance: psd_eps instead of tol
    default_kappa1: Optional[float] = None  # fixed-scale case checks
    k_strict: bool = False  # the statement holds at k_values(n) only


_CATALOG = (
    # -- identities ---------------------------------------------------------
    LemmaCheck("L4_2_id1", "IDENTITY", "diagonal entry identity for the reduced key form", "real_K", _rows_id1, _k_top),
    LemmaCheck("L4_2_id2", "IDENTITY", "off-diagonal product identity for the reduced key form", "real", _rows_id2, _k_top, min_n=3),
    LemmaCheck("L4_2_id3", "IDENTITY", "pair-sum expansion of (s^ii + s^jj)(kappa_i + kappa_j)", "real", _rows_id3, _k_top),
    LemmaCheck("L4_2_id4", "IDENTITY", "triple-exclusion expansion of s^qq s^{ii,pp} - s^ii s^{pp,qq}", "real", _rows_id4, _k_top, min_n=3),
    LemmaCheck("L4_2_id5", "IDENTITY", "triple-exclusion expansion of s^pp sigma_{k-1}(kappa|iq)", "real", _rows_id5, _k_top, min_n=3),
    LemmaCheck("L5_1_identity", "IDENTITY", "square of sigma_k versus sigma_k of squares with cross terms", "real", _rows_l51, _k_free),
    LemmaCheck("L5_4_identity", "IDENTITY", "sum over i of sigma_{n-s}(kappa|i) sigma_{n-1}(kappa|i)", "real", _rows_l54, _k_free),
    LemmaCheck("L5_5_identity", "IDENTITY", "sum of squared double exclusions at order n-4", "real", _rows_l55, _k_free),
    # -- inequalities -------------------------------------------------------
    LemmaCheck("newton", "INEQUALITY", "normalized log-concavity of the sigma_k sequence on R^n", "real", _rows_newton, _k_free),
    LemmaCheck("maclaurin", "INEQUALITY", "monotonicity of normalized sigma_k roots on the cone", "cone", _rows_maclaurin, _k_range(2, 0), k_strict=True),
    LemmaCheck("gen_newton", "INEQUALITY", "shifted product comparison of normalized sigma values", "cone", _rows_gen_newton, _k_range(2, 0), k_strict=True),
    LemmaCheck("L2_1_guan", "INEQUALITY", "concavity-type quadratic comparison between levels l < k", "cone_xi", _rows_l21, _k_range(2, 0), min_n=4, k_strict=True),
    LemmaCheck("L2_2_theta", "INEQUALITY", "double exclusion dominated by Theta times single exclusion", "cone", _rows_l22, _k_range(2, 0), min_n=4, k_strict=True),
    LemmaCheck("L2_3_ratio", "INEQUALITY", "kappa_1^s sigma_{k-s} / sigma_k bounded below by binomials", "cone", _rows_l23, _k_range(2, 0), k_strict=True),
    LemmaCheck("L2_4a", "INEQUALITY", "negative entry bounded by (n-k)/k times the top entry", "cone_neg1", _rows_l24a, _k_range(2, -1), k_strict=True),
    LemmaCheck("L2_4b", "INEQUALITY", "pairwise bound for the two most negative entries", "cone_neg2", _rows_l24b, _k_range(2, -2), min_n=4, k_strict=True),
    LemmaCheck("L2_5_product", "INEQUALITY", "sigma_s dominates the product of the s largest entries", "bark", _rows_l25, _k_range(2, 0), k_strict=True),
    LemmaCheck("L2_6_theta", "INEQUALITY", "single exclusion bounded below via theta = 1/(n^{n-k} C(n,k))", "cone", _rows_l26, _k_range(2, 0), k_strict=True),
    LemmaCheck("L5_8_sum", "INEQUALITY", "4 sigma_{n-4}^2 dominates the row sums of squared pair exclusions", "cone", _rows_l58, _k_top, min_n=4, k_strict=True),
    LemmaCheck("L5_9_lower", "INEQUALITY", "scale-free lower bound for sigma_{n-3}(kappa|1)", "l59", _rows_l59, _k_top, min_n=5, k_strict=True),
    # -- PSD ----------------------------------------------------------------
    LemmaCheck("L5_2_psd", "PSD", "exclusion matrix of order s on the closed cone", "bar", _rows_l52, _k_free, psd_scaled=True),
    LemmaCheck("L5_3_psd", "PSD", "2-diagonal minus off-diagonal form at order n-3, closed cone", "bar", _rows_l53, _k_free, psd_scaled=True),
    LemmaCheck("L5_6_psd", "PSD", "squared-exclusion Gram-type form at level s", "cone", _rows_l56, _k_range(2, 0), psd_scaled=True, k_strict=True),
    LemmaCheck("L5_7_psd", "PSD", "order n-3 form under the weaker level n-2 hypothesis", "cone", _rows_l53, _k_top, min_n=4, psd_scaled=True, k_strict=True),
    LemmaCheck("D_gram", "PSD", "rank-one Gram matrix of single-exclusion derivatives", "cone", _rows_d_gram, _k_top, min_n=4, psd_scaled=True),
    LemmaCheck("A_psd", "PSD", "reduced quadratic form A on cone members", "cone", _rows_a_psd, _k_top, min_n=4, psd_scaled=True),
    LemmaCheck("B_psd", "PSD", "reduced quadratic form B on cone members", "cone", _rows_b_psd, _k_top, min_n=4, psd_scaled=True, k_strict=True),
    LemmaCheck("L6_4_H", "PSD", "the H form on case A/B1/B2 samples at a fixed large scale", "main_abb2", _rows_l64, _k_top, min_n=5, psd_scaled=True, default_kappa1=1e4, k_strict=True),
    LemmaCheck("T6_1_s615", "PSD", "H minus its diagonal correction on case A/B1/B2 samples", "main_abb2", _rows_s615, _k_top, min_n=5, psd_scaled=True, default_kappa1=1e4, k_strict=True),
    # -- asymptotic ---------------------------------------------------------
    LemmaCheck("L3_2", "ASYMPTOTIC", "weighted second-derivative lower bound at large top scale", "main", _rows_l32, _k_top, min_n=5),
    LemmaCheck("L3_4", "ASYMPTOTIC", "divided-difference upper bound for the diagonal weights a_j", "main", _rows_l34, _k_top, min_n=5),
    LemmaCheck("L3_5_a", "ASYMPTOTIC", "first test-function inequality with the K-weighted square", "main_h", _rows_l35a, _k_top, min_n=5, uses_K=True),
    LemmaCheck("L3_5_b", "ASYMPTOTIC", "second test-function inequality and its scalar sufficient bound", "main_h", _rows_l35b, _k_top, min_n=5),
    LemmaCheck("L6_1_ratio", "ASYMPTOTIC", "ratio sigma_{n-3}/sigma_{n-5} of the reduced vector bounded", "main_abb2", _rows_l61, _k_top, min_n=5, k_strict=True),
    LemmaCheck("L6_2_bound", "ASYMPTOTIC", "(8/9) kappa_i^2 A dominates the ratio-weighted R form", "main_abb2", _rows_l62, _k_top, min_n=5, psd_scaled=True, k_strict=True),
    LemmaCheck("L6_3_bound", "ASYMPTOTIC", "scalar bound with the 1/40 product margin", "main_abb2", _rows_l63, _k_top, min_n=5, k_strict=True),
    LemmaCheck("T6_1_s601", "ASYMPTOTIC", "(8/9) kappa_i^2 A + C with the 1/20 penalty removed", "main_abb2", _rows_s601, _k_top, min_n=5, psd_scaled=True, k_strict=True),
    LemmaCheck("T6_1_s602", "ASYMPTOTIC", "(1/9) kappa_i^2 A + sigma_k B - c D with the 1/20 penalty added", "main_abb2", _rows_s602, _k_top, min_n=5, uses_K=True, psd_scaled=True, k_strict=True),
    LemmaCheck("C3_1_key", "ASYMPTOTIC", "the key curvature form itself on the conjecture regime", "main", _rows_key, _k_top, min_n=5, uses_K=True, psd_scaled=True),
    LemmaCheck("S7_case_key", "ASYMPTOTIC", "the key form on the remaining cases B3 and C", "tail_cases", _rows_key, _k_top, min_n=5, uses_K=True, psd_scaled=True, k_strict=True),
    LemmaCheck("L4_1_gap", "ASYMPTOTIC", "key form minus its reduced-form lower bound (tight variant)", "main", functools.partial(_rows_gap, with_kappa_i_sq=True), _k_top, min_n=5, uses_K=True, psd_scaled=True),
    LemmaCheck("L4_1_gap_alt", "ASYMPTOTIC", "key form minus its reduced-form lower bound (weak variant)", "main", functools.partial(_rows_gap, with_kappa_i_sq=False), _k_top, min_n=5, uses_K=True, psd_scaled=True),
)

REGISTRY: Dict[str, LemmaCheck] = {c.id: c for c in _CATALOG}


def registry_list() -> Tuple[LemmaCheck, ...]:
    return _CATALOG


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunContext:
    n: int
    samples: int = 1000
    seed: int = 0
    k: Optional[int] = None
    K: Optional[float] = None
    kappa1: Optional[float] = None
    i: int = 2  # 1-based near-top index for regime samplers
    tol: float = INEQUALITY_TOL
    psd_eps: float = PSD_EPS

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise InvalidInputError(f"need samples >= 1, got {self.samples}")
        if not 1 <= self.i <= self.n:
            raise InvalidInputError(f"need 1 <= i <= n, got i={self.i}, n={self.n}")
        if self.k is not None and not 1 <= self.k <= self.n:
            raise InvalidInputError(f"k={self.k} out of range for n={self.n}")
        for name in ("K", "kappa1"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise InvalidInputError(f"need {name} > 0 and finite, got {value}")
        for name in ("tol", "psd_eps"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise InvalidInputError(f"need a finite {name} >= 0, got {value}")


@dataclass
class CheckResult:
    id: str
    kind: str
    n: int
    k: Optional[int]
    samples: int
    min_slack: float
    verdict: str  # PASS | FAIL | THRESHOLD | ERROR
    seed: int
    witness: Optional[dict] = None
    kappa1_star: Optional[float] = None
    details: dict = field(default_factory=dict)


def _tol_for(check: LemmaCheck, ctx: RunContext) -> float:
    return ctx.psd_eps if check.psd_scaled else ctx.tol


def _grid(check: LemmaCheck, ctx: RunContext) -> Tuple[tuple, tuple, tuple]:
    """(levels, kappa_1 groups, K values) of a run.

    The levels are `ctx.k` if set and the check's statement covers it, else
    the check's defaults: a k-free check (levels (None,)) and a `k_strict`
    check asked for a level outside its defaults keep them.  A fixed check
    is one group at its scale with one point per level; a sweep has one
    group per kappa_1, one point at its single level that evaluates every K.
    """
    ks = check.k_values(ctx.n)
    if ctx.k is not None and ks != (None,) and not (check.k_strict and ctx.k not in ks):
        ks = (ctx.k,)
    if check.kind != "ASYMPTOTIC":
        return ks, (check.default_kappa1 if ctx.kappa1 is None else ctx.kappa1,), (ctx.K,)
    Ks = ASYM_K_GRID if check.uses_K else (None,)
    return ks[:1], ASYM_KAPPA1_GRID if ctx.kappa1 is None else (ctx.kappa1,), Ks if ctx.K is None else (ctx.K,)


def _params(n: int, k: Optional[int], i0: int, Ks: tuple, kappa1: Optional[float]) -> dict:
    """The parameters P a rows function and its sampler see, in a run and in its replay."""
    return {"n": n, "k": k, "i0": i0, "K": Ks, "kappa1": kappa1}


def _make_witness(check, P, X, aux, j, slack) -> dict:
    wit = {
        "check": check.id,
        "kappa": [float(v) for v in X[j]],
        "k": P["k"],
        "i": P["i0"] + 1,
        "K": None if P.get("K") is None else float(P["K"]),
        "kappa1": None if P.get("kappa1") is None else float(P["kappa1"]),
        "slack": float(slack),
        "aux": {
            key: (float(val[j]) if np.ndim(val[j]) == 0 else [float(v) for v in val[j]])
            for key, val in aux.items()
        },
    }
    return wit


def witness_slack(witness: dict) -> float:
    """Re-evaluate a stored witness; reproduces the recorded slack."""
    check = REGISTRY[witness["check"]]
    X = np.asarray(witness["kappa"], dtype=float)[None, :]
    aux = {
        key: (np.full(1, val) if np.ndim(val) == 0 else np.asarray(val, dtype=float)[None, :])
        for key, val in witness.get("aux", {}).items()
    }
    P = _params(X.shape[1], witness.get("k"), int(witness.get("i", 1)) - 1, (witness.get("K"),), witness.get("kappa1"))
    return float(np.ravel(check.rows(X, aux, P))[0])


class _Tally(NamedTuple):
    """Minimum slack, its witness and the row counts of some evaluated rows."""

    best: float = math.inf
    witness: Optional[dict] = None
    used: int = 0
    nonfinite: int = 0
    excluded: int = 0

    def merge(self, other: "_Tally") -> "_Tally":
        """Both tallies in one; on a tie the minimum and witness of `self` stay."""
        best, wit = (other.best, other.witness) if other.best < self.best else (self.best, self.witness)
        return _Tally(
            best, wit, self.used + other.used, self.nonfinite + other.nonfinite, self.excluded + other.excluded
        )


def _block_tally(check, P, X, aux, slacks) -> _Tally:
    """The tally of one block of rows.

    A +inf slack marks a row outside the check's hypothesis and a NaN slack
    a row that could not be evaluated; neither enters the minimum.  Both are
    counted: the folds refuse to pass on NaN rows and report the excluded ones.
    """
    nan = np.isnan(slacks)
    excluded = slacks == np.inf
    used = ~nan & ~excluded
    best, wit = math.inf, None
    if np.any(used):
        j = int(np.argmin(np.where(used, slacks, np.inf)))
        best = float(slacks[j])
        wit = _make_witness(check, P, X, aux, j, best)
    return _Tally(best, wit, int(used.sum()), int(nan.sum()), int(excluded.sum()))


def _eval_point(check, P, rng, samples) -> _Tally:
    """The tally of `samples` rows, each evaluated at every K of P["K"].

    Each block is drawn once and goes through one rows call for the whole
    K grid; a K-free rows function's (B,) slacks stand for every K.  The
    tallies of the Ks merge in K order, so on a tie the earlier K keeps the
    witness, which records its own K.
    """
    per_K = [dict(P, K=K) for K in P["K"]]
    tallies = [_Tally()] * len(per_K)
    drawn = 0
    while drawn < samples:
        B = min(_BLOCK, samples - drawn)
        X, aux = _SAMPLERS[check.sampler](P, rng, B)
        slacks = np.broadcast_to(check.rows(X, aux, P), (len(per_K), B))
        tallies = [t.merge(_block_tally(check, Pa, X, aux, sa)) for t, Pa, sa in zip(tallies, per_K, slacks)]
        drawn += B
    return functools.reduce(_Tally.merge, tallies)


class _Point(NamedTuple):
    """One independent unit of evaluation: `rows` samples of `check`, each
    evaluated at every K of the params `P`."""

    check: LemmaCheck
    P: dict
    seed: int  # child seed of the point's own stream
    rows: int


def _check_for(check_id: str, ctx: RunContext) -> LemmaCheck:
    """The check a request names; raises InvalidInputError unless it applies at n."""
    if check_id not in REGISTRY:
        raise InvalidInputError(f"unknown check id: {check_id!r}")
    check = REGISTRY[check_id]
    if ctx.n < check.min_n:
        raise InvalidInputError(f"{check.id} requires n >= {check.min_n}, got n={ctx.n}")
    return check


def _plan(check_id: str, ctx: RunContext) -> List[_Point]:
    """The points of one check, group by group, in the order the fold reads
    their outcomes: one per level of a fixed check, one per kappa_1 of a
    sweep, which carries the K grid.  A point's child seed is labelled id|n|k
    in a fixed check and id|n|k|kappa_1|K in a sweep, K the first of the grid."""
    check = _check_for(check_id, ctx)
    levels, groups, Ks = _grid(check, ctx)
    rows = max(1, -(-ctx.samples // len(levels)))
    sweep = check.kind == "ASYMPTOTIC"
    return [
        _Point(
            check, _params(ctx.n, k, ctx.i - 1, Ks, g),
            _child_seed(ctx.seed, f"{check.id}|{ctx.n}|{k}" + (f"|{g}|{Ks[0]}" if sweep else "")), rows,
        )
        for g in groups
        for k in levels
    ]


def _evaluate(point: _Point):
    """The tally of `_eval_point`, or the SymconeError it raised, as a value."""
    try:
        return _eval_point(point.check, point.P, make_rng(point.seed), point.rows)
    except SymconeError as exc:
        return exc


def _fold(check: LemmaCheck, ctx: RunContext, outcomes: list) -> CheckResult:
    """One check's result from its points' outcomes in plan order.

    Each group merges its points' tallies up to the first point whose
    sampler ran dry, and reports that point's rejections.  Only the verdict
    and the keys that describe the plan depend on the kind.
    """
    levels, groups, Ks = _grid(check, ctx)
    tol = _tol_for(check, ctx)
    size = len(levels)
    total, points = _Tally(), []
    for a, g in enumerate(groups):
        pt, exhausted = _Tally(), None
        for out in outcomes[a * size:(a + 1) * size]:
            if isinstance(out, SamplingExhaustedError):
                exhausted = out
                break
            if isinstance(out, SymconeError):
                raise out
            pt = pt.merge(out)
        total = total.merge(pt)
        point = {
            "kappa1": g,
            "min_slack": pt.best if math.isfinite(pt.best) else None,
            "samples": pt.used,
            "nonfinite_rows": pt.nonfinite,
            "excluded_rows": pt.excluded,
            "passed": bool(exhausted is None and pt.used > 0 and pt.nonfinite == 0 and pt.best >= -tol),
            "exhausted": None if exhausted is None else str(exhausted),
        }
        if exhausted is not None:
            point["rejections"] = exhausted.rejection_counts
        points.append(point)
    top = points[-1]
    sweep = check.kind == "ASYMPTOTIC"
    counts = {"tol": tol, "nonfinite_rows": total.nonfinite, "excluded_rows": total.excluded}
    details = {"points": points, "K_grid": list(Ks), **counts} if sweep else {"k_values": list(levels), **counts}
    if top["exhausted"] is not None:
        details.update(error=top["exhausted"], rejections=top["rejections"])
    elif top["nonfinite_rows"]:
        details["error"] = f"{top['nonfinite_rows']} rows gave a NaN slack"
    elif not top["samples"]:
        where = " at the top point" if sweep else ""
        details["error"] = f"no row was evaluated{where}: every sample fell outside the hypothesis"
    # The smallest scale from which every larger scale passes (a fixed check has one).
    star = next((a for a in range(len(points)) if all(p["passed"] for p in points[a:])), None)
    verdict = "ERROR" if "error" in details else "FAIL" if star is None else "THRESHOLD" if sweep else "PASS"
    kappa1_star = groups[star] if sweep and verdict == "THRESHOLD" else None
    return CheckResult(
        id=check.id, kind=check.kind, n=ctx.n, k=levels[0] if len(levels) == 1 else None, samples=total.used,
        min_slack=total.best if total.used else math.nan, verdict=verdict, seed=ctx.seed, witness=total.witness,
        kappa1_star=kappa1_star, details=details,
    )


def run_checks(
    requests: Sequence[Tuple[str, RunContext]], jobs: Optional[int] = None
) -> List[Union[CheckResult, SymconeError]]:
    """Run many checks, each request a (check id, RunContext) pair.

    The points of all requests (each k of a fixed check, each kappa_1 of a
    sweep) draw from their own child seeds, so they are evaluated in
    one pass on `jobs` worker processes (default: every usable CPU) and
    folded per request in plan order.  Results do not depend on `jobs`.
    Returns, per request, its CheckResult or the SymconeError it raised;
    the first error in plan order wins, as in a one-by-one run.
    """
    jobs = resolve_jobs(jobs)
    plans = []
    for check_id, ctx in requests:
        try:
            plans.append(_plan(check_id, ctx))
        except SymconeError as exc:
            plans.append(exc)
    outcomes = iter(fork_map(_evaluate, [p for plan in plans if isinstance(plan, list) for p in plan], jobs))
    results = []
    for (check_id, ctx), plan in zip(requests, plans):
        if isinstance(plan, SymconeError):
            results.append(plan)
            continue
        try:
            results.append(_fold(REGISTRY[check_id], ctx, [next(outcomes) for _ in plan]))
        except SymconeError as exc:
            results.append(exc)
    return results


def run_check(check_id: str, ctx: Optional[RunContext] = None, **kwargs) -> CheckResult:
    """Run one named check.  Either pass a RunContext or keyword fields."""
    if ctx is None:
        ctx = RunContext(**kwargs)
    elif kwargs:
        raise InvalidInputError("pass either a RunContext or keyword fields, not both")
    out = run_checks([(check_id, ctx)])[0]
    if isinstance(out, SymconeError):
        raise out
    return out
