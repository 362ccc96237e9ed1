"""The column-major rejection samplers against their row-major oracles.

The oracles are the row-major forms of `cones._candidates` and
`cones._feasible_mask` (`oracles.sample_rows`), and below, of
`cones.classify_masks` and the tail-case draw: one `rng.uniform` call per
quantity, sorting every candidate, the sigma_k(|kappa|) noise DP on every
row.  The samplers must return the same rows bit for bit (compared as
uint64) and tally the same rejections.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

import symcone.cones as cones
import symcone.hypotheses as hypotheses
from symcone.cones import (
    SIGMA_K_WINDOW,
    SIGMA_RANGE_NOISE_FACTOR,
    classify_masks,
    make_rng,
    rejection_sample,
    sample_batch,
)
from symcone.errors import SamplingExhaustedError
from symcone.registry import ASYM_KAPPA1_GRID, run_check
from symcone.symfun import batch_coeffs_t

from oracles import feasible, rowwise_coeffs, sample_rows, sampler_counts

_EPS = np.finfo(float).eps
MAIN_CASES = ("A", "B1", "B2")


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _same(a, b):
    assert a.shape == b.shape
    assert np.array_equal(_bits(a), _bits(b))


# ---------------------------------------------------------------------------
# Row-major oracles.
# ---------------------------------------------------------------------------


def _masks(X, i0):
    B, n = X.shape
    cb = rowwise_coeffs(np.delete(X, i0, axis=1))
    sbar, s3bar = cb[:, n - 2], cb[:, n - 3]
    sk = rowwise_coeffs(X)[:, n - 2]
    d0 = 1.0 / (32.0 * n * (n - 2))
    A = (sbar <= 0.0) & (X[:, n - 2] <= 0.0)
    Breg = (sbar <= 0.0) & (X[:, n - 1] < 0.0) & (X[:, n - 2] > 0.0)
    b1 = X[:, i0] * s3bar >= (1.0 + d0) * sk
    b2 = np.prod(X[:, : n - 2], axis=1) >= 2.0 * (n - 2) * sk
    return {"A": A, "B1": Breg & b1, "B2": Breg & b2, "B3": Breg & ~b1 & ~b2, "C": sbar >= 0.0}


def _pred(i0, cases):
    def pred(X):
        masks = _masks(X, i0)
        keep = np.zeros(X.shape[0], dtype=bool)
        for c in cases:
            keep |= masks[c]
        return keep

    return pred


def _tail_cases(P, rng, B, budget=400_000, independent=False):
    """The tail-case draw, row-major.  `independent` is its earlier form:
    each middle entry negated with probability 1/2, every draw that passes
    the discriminant on to the accept test, blocks of at most `_BLOCK`."""
    n = P["n"]
    k = n - 2
    k1 = P["kappa1"]
    i0 = P["i0"]
    d0 = 1.0 / (32.0 * n * (n - 2))
    pred = _pred(i0, ("B3", "C"))
    counts = sampler_counts("discriminant") if independent else sampler_counts("discriminant", "negatives")

    def draw(blk):
        kap1 = k1 * (1.0 + rng.uniform(-0.005, 0.005, blk))
        ki = kap1 - rng.uniform(0.0, 1.0, blk) * np.sqrt(kap1) / n
        nm = n - 4
        st = np.exp(rng.uniform(*map(math.log, SIGMA_K_WINDOW), blk))
        lo_m = np.log(st * 1e-4 / (k1 * k1))
        mids = np.exp(rng.uniform(lo_m[:, None], math.log(0.9 * k1), (blk, nm)))
        if independent:
            flip = rng.uniform(size=(blk, nm)) < 0.5
        else:  # none of the middle entries (pick nm) or the one at pick
            pick = np.floor(rng.uniform(size=blk) * (n - 3))
            flip = np.arange(nm)[None, :] == pick[:, None]
        mids[flip] *= -1.0
        pre = np.concatenate([kap1[:, None], mids], axis=1)
        cp = rowwise_coeffs(pre)
        s5, s4, s3 = cp[:, n - 5], cp[:, n - 4], cp[:, n - 3]
        s2 = np.zeros(blk)  # sigma_{n-2} of the n-3 prefix entries
        sgn = np.where(rng.uniform(size=blk) < 0.5, 1.0, -1.0)
        lo_e = min(-12.0, -3.0 * math.log10(k1) - 2.0)
        T1 = sgn * st * 10.0 ** rng.uniform(lo_e, math.log10(d0), blk)
        T2 = (st - T1) / ki
        det = s4 * s4 - s5 * s3
        safe = np.abs(det) > 0.0
        det = np.where(safe, det, 1.0)
        u = (s4 * (T2 - s3) - s5 * (T1 - s2)) / det
        v = (s4 * (T1 - s2) - s3 * (T2 - s3)) / det
        disc = u * u - 4.0 * v
        safe &= disc >= 0.0
        counts["discriminant"] += int(blk - safe.sum())
        r = np.sqrt(np.where(safe, disc, 0.0))
        X = np.concatenate([pre, ((u + r) / 2.0)[:, None], ((u - r) / 2.0)[:, None], ki[:, None]], axis=1)
        X = -np.sort(-X, axis=1)
        X = X[safe]
        if not independent:
            two = ((X < 0.0).sum(axis=1) >= 2) & np.isfinite(X).all(axis=1)
            counts["negatives"] += int(two.sum())
            X = X[~two]
        if not X.shape[0]:
            return X
        X = X[feasible(X, k, k1, i0 + 1, SIGMA_K_WINDOW, counts)]
        if X.shape[0]:
            keep = pred(X)
            counts["predicate"] += int(X.shape[0] - keep.sum())
            X = X[keep]
        return X

    cap = cones._BLOCK if independent else hypotheses._TAIL_BLOCK
    return rejection_sample(draw, B, budget, counts, "tail-case sampler", cap), counts


# ---------------------------------------------------------------------------
# Tests.
# ---------------------------------------------------------------------------


@pytest.fixture
def seen_counts(monkeypatch):
    """The rejection tallies each sampler hands to `rejection_sample`."""
    seen = []

    def spy(draw, count, budget, counts, what, cap=cones._BLOCK):
        seen.append(counts)
        return rejection_sample(draw, count, budget, counts, what, cap)

    monkeypatch.setattr(cones, "rejection_sample", spy)
    monkeypatch.setattr(hypotheses, "rejection_sample", spy)
    return seen


def _assert_counts(got, want):
    assert got == want
    assert all(type(v) is int for v in got.values())


def _params(n, kappa1, k=None, i=2):
    return {"n": n, "k": n - 2 if k is None else k, "i0": i - 1, "kappa1": kappa1}


TAIL_POINTS = [(n, kappa1) for n in (5, 6, 7) for kappa1 in ASYM_KAPPA1_GRID] + [(n, 1e4) for n in range(8, 13)]


@pytest.mark.parametrize("n, kappa1", TAIL_POINTS)
def test_tail_cases_sampler(n, kappa1, seen_counts):
    P = _params(n, kappa1)
    seed = 1000 * n + int(math.log10(kappa1))
    X = hypotheses._sampler_tail_cases(P, make_rng(seed), 300)
    ref, counts = _tail_cases(P, make_rng(seed), 300)
    _same(X, ref)
    assert isinstance(X, np.ndarray) and X.shape == (300, n)  # the rows and nothing else
    _assert_counts(seen_counts[-1], counts)
    assert counts["discriminant"] and counts["negatives"]
    # At kappa_1 = 10 the rows the case test rejects have two negative
    # entries (412 of 412 under the independent signs, n = 5..10), and
    # such a row now falls under `negatives` first.
    assert counts["predicate"] or kappa1 == 10.0
    assert np.all(np.count_nonzero(X < 0.0, axis=1) <= 1)
    masks = classify_masks(X, P["i0"])
    assert np.all(masks["B3"] | masks["C"])


@pytest.mark.parametrize("n", range(5, 11))
def test_independent_signs_never_return_two_negatives(n):
    # The earlier draw negated every middle entry with probability 1/2; of
    # its draws only those with at most one negative entry were ever kept,
    # so conditioning the signs on that event keeps the law of the rows.
    for kappa1 in ASYM_KAPPA1_GRID:
        X, _ = _tail_cases(_params(n, kappa1), make_rng(3000 * n + int(math.log10(kappa1))), 300, independent=True)
        assert np.all(np.count_nonzero(X < 0.0, axis=1) <= 1), kappa1


@pytest.mark.parametrize("kappa1", [1e4, 1e6])
@pytest.mark.parametrize("n", [9, 12])
def test_tail_rows_are_exactly_in_the_regime(n, kappa1):
    # sigma_1..sigma_k recomputed exactly on the integers kappa * D, D the
    # largest denominator of a row's entries, as `search._exact_key` builds
    # them: every row is in Gamma_{n-2} and its sigma_{n-2} in SIGMA_K_WINDOW.
    k = n - 2
    lo, hi = map(Fraction, SIGMA_K_WINDOW)
    X = hypotheses._sampler_tail_cases(_params(n, kappa1), make_rng(4000 * n + int(math.log10(kappa1))), 300)
    q = [[Fraction(float(v)) for v in row] for row in X]
    D = [max(f.denominator for f in row) for row in q]
    ints = np.array([[f.numerator * (d // f.denominator) for f in row] for row, d in zip(q, D)], dtype=object)
    c = batch_coeffs_t(ints.T, k)
    for j, d in enumerate(D):
        assert all(c[1:, j] > 0), X[j]
        assert lo * d**k <= c[k, j] <= hi * d**k, X[j]


def test_case_key_reaches_n12():
    # The sampler runs dry at no point of the sweep up to n = 12.
    r11, r12 = (run_check("S7_case_key", n=n, samples=300, seed=42) for n in (11, 12))
    assert r11.verdict == "THRESHOLD" and r11.kappa1_star == 10.0
    assert r12.verdict != "ERROR"


@pytest.mark.parametrize("cases", [(), MAIN_CASES], ids=["all", "cases"])
@pytest.mark.parametrize("kappa1", ASYM_KAPPA1_GRID)
@pytest.mark.parametrize("n", [5, 6, 7])
def test_main_sampler(n, kappa1, cases, seen_counts):
    P = _params(n, kappa1)
    seed = 2000 * n + int(math.log10(kappa1))
    X = sample_batch(P, make_rng(seed), 200, cases=cases)
    pred = _pred(1, cases) if cases else None
    ref, counts = sample_rows(make_rng(seed), 200, n, n - 2, kappa1, 2, SIGMA_K_WINDOW, pred)
    _same(X, ref)
    _assert_counts(seen_counts[-1], counts)


def test_catalog_regime_samplers_are_sample_batch():
    P = _params(6, 1e3)
    for name, cases in (("main", ()), ("main_abb2", MAIN_CASES)):
        _same(hypotheses._SAMPLERS[name](P, make_rng(3), 100), sample_batch(P, make_rng(3), 100, cases=cases))


BOUND_OPTIONS = [  # catalog samplers with an option bound; `test_case_conditioning` covers the case guard
    name
    for name, sampler in hypotheses._SAMPLERS.items()
    if isinstance(sampler, functools.partial) and name != "main_abb2"
]


@pytest.mark.parametrize("name", BOUND_OPTIONS)
def test_bound_option_changes_the_draw(name):
    sampler = hypotheses._SAMPLERS[name]
    P = _params(6, 1e3)
    X = sampler(P, make_rng(5), 50)
    ref = sampler.func(P, make_rng(5), 50)
    assert not np.array_equal(_bits(X), _bits(ref))


def test_sigma_window_noise_margin_both_ways(seen_counts, monkeypatch):
    # At kappa_1 = 1e6 the solved sigma_k misses the window by a few ULPs of
    # sigma_k(|kappa|), so every row is kept by the noise margin alone.
    X = sample_batch(_params(7, 1e6), make_rng(11), 300)
    ref, counts = sample_rows(make_rng(11), 300, 7, 5, 1e6, near_top_index=2, sigma_k_range=SIGMA_K_WINDOW)
    _same(X, ref)
    _assert_counts(seen_counts[-1], counts)
    sk = rowwise_coeffs(X)[:, 5]
    assert np.all((sk < 1.0) | (sk > 10.0))
    # A window just above the largest sigma_k of moderate-scale rows: that
    # row and its close neighbours are inside the margin, the rest beyond it.
    X = sample_batch(_params(6, 1e4), make_rng(12), 300)
    sk = rowwise_coeffs(X)[:, 4]
    noise = SIGMA_RANGE_NOISE_FACTOR * _EPS * rowwise_coeffs(np.abs(X))[:, 4]
    j = int(np.argmax(sk))
    window = (sk[j] + noise[j] / 2, 2 * sk[j])
    got, want = sampler_counts(), sampler_counts()
    monkeypatch.setattr(cones, "SIGMA_K_WINDOW", window)
    mask = cones._feasible_mask(X, 4, 1e4, 2, got)
    assert np.array_equal(mask, feasible(X, 4, 1e4, 2, window, want))
    _assert_counts(got, want)
    assert mask[j] and 0 < want["sigma_k_range"] < X.shape[0]


def test_feasible_mask_on_a_mixed_block(monkeypatch):
    # Sampled rows, half of them not drawn near the top (index 1 pins no
    # entry and its test holds on every kept row), some broken on purpose.
    X = np.concatenate([
        sample_batch(_params(6, 100.0), make_rng(14), 100),
        sample_batch(_params(6, 100.0, i=1), make_rng(15), 100),
    ])
    X[0, 5] = np.inf
    X[1, 2] = np.nan
    X[2, :] = -np.inf
    X[10:20] *= -1.0  # outside Gamma_k
    X[20:30, 0] *= 1.5  # kappa_1 off target
    window = (2.0, 10.0)  # rows with sigma_k in [1, 2) fall outside
    got, want = sampler_counts(), sampler_counts()
    monkeypatch.setattr(cones, "SIGMA_K_WINDOW", window)
    mask = cones._feasible_mask(X, 4, 100.0, 2, got, ("B1", "B2"))
    with np.errstate(invalid="ignore"):
        ref = feasible(X, 4, 100.0, 2, window, want)
    with np.errstate(all="ignore"):  # the broken rows, which `ref` rejects
        masks = classify_masks(X, 1)
    keep = masks["B1"] | masks["B2"]
    want["predicate"] = int(np.count_nonzero(ref & ~keep))
    assert np.array_equal(mask, ref & keep)
    _assert_counts(got, want)
    assert all(want.values())


def test_exhausted_sample_batch_counts(monkeypatch):
    # index n: the solved last entry, far below kappa_1, must sit near the top
    monkeypatch.setattr(cones, "_REGIME_BUDGET", 2000)
    with pytest.raises(SamplingExhaustedError) as got:
        sample_batch(_params(5, 1e4, k=3, i=5), make_rng(7), 10)
    with pytest.raises(SamplingExhaustedError) as want:
        sample_rows(make_rng(7), 10, 5, 3, 1e4, near_top_index=5, sigma_k_range=SIGMA_K_WINDOW, max_attempts=2000)
    _assert_counts(got.value.rejection_counts, want.value.rejection_counts)
    assert str(got.value) == str(want.value)


def test_exhausted_tail_cases_counts(monkeypatch):
    monkeypatch.setattr(hypotheses, "_SAMPLER_BUDGET", 3 * 4096)
    P = _params(6, 1e6)
    with pytest.raises(SamplingExhaustedError) as got:
        hypotheses._sampler_tail_cases(P, make_rng(3), 100_000)
    with pytest.raises(SamplingExhaustedError) as want:
        _tail_cases(P, make_rng(3), 100_000, budget=3 * 4096)
    _assert_counts(got.value.rejection_counts, want.value.rejection_counts)
    assert got.value.rejection_counts["negatives"]
    assert str(got.value) == str(want.value)


def test_uniform_is_generator_uniform():
    u = make_rng(5).random(3000)
    rng = make_rng(5)
    _same(hypotheses._uniform(u[:1000], -0.005, 0.005), rng.uniform(-0.005, 0.005, 1000))
    low = np.log(np.linspace(1e-3, 1.0, 1000))[:, None]
    _same(hypotheses._uniform(u[1000:].reshape(1000, 2), low, 9.1), rng.uniform(low, 9.1, (1000, 2)))


def test_classify_masks_matches_row_oracle():
    rng = make_rng(9)
    for n in (5, 6, 7):
        X = -np.sort(-rng.normal(0.0, 3.0, (500, n)), axis=1)
        X[:50, -2:] = 0.0
        for i0 in (0, 1, n - 1):
            got, want = classify_masks(X, i0), _masks(X, i0)
            assert got.keys() == want.keys()
            for name in want:
                assert np.array_equal(got[name], want[name]), name


def test_coefficient_major_dp_matches_rows():
    rng = make_rng(4)
    X = rng.normal(0.0, 10.0, (64, 6))
    X[0] = [0.0, -0.0, 1.0, -0.0, 2.0, -3.0]
    X[1] = [np.inf, 0.0, 1.0, -1.0, 2.0, 3.0]
    X[2] = [np.nan, 1.0, 2.0, 3.0, 4.0, 5.0]
    with np.errstate(all="ignore"):
        ref = rowwise_coeffs(X)
        XT = np.ascontiguousarray(X.T)
        _same(batch_coeffs_t(XT), ref.T)
        for top in (0, 2, 6, 9):
            _same(batch_coeffs_t(XT, top), ref.T[: min(top, 6) + 1])


# ---------------------------------------------------------------------------
# The block rule of `rejection_sample`.
# ---------------------------------------------------------------------------


@pytest.fixture
def blocks(monkeypatch):
    """(budget, cap, [(candidates, rows accepted) per block]) of each sampler call."""
    calls = []

    def spy(draw, count, budget, counts, what, cap=cones._BLOCK):
        log = []
        calls.append((budget, cap, log))

        def counted(B):
            X = draw(B)
            log.append((B, X.shape[0]))
            return X

        return rejection_sample(counted, count, budget, counts, what, cap)

    monkeypatch.setattr(cones, "rejection_sample", spy)
    monkeypatch.setattr(hypotheses, "rejection_sample", spy)
    return calls


def test_block_rule_on_a_known_rate():
    # Half of every block is accepted: the first block assumes rate 1, the
    # second needs (1000 - 563) rows at the measured rate 563/1126, plus 1/8.
    log = []

    def half(B):
        log.append(B)
        return np.zeros((B // 2, 1))

    X = rejection_sample(half, 1000, 100_000, {"x": 0}, "half")
    assert X.shape == (1000, 1)
    assert log == [1000 * 9 // 8 + 1, 437 * 1126 // 563 * 9 // 8 + 1]


def test_block_rule_after_empty_blocks():
    # A block after empty ones is full, the first one at least 64, and the
    # last one never more than the budget left.
    log = []

    def dry(B):
        log.append(B)
        return np.empty((0, 1))

    with pytest.raises(SamplingExhaustedError, match=r"^dry exhausted after 5000 draws \(0/10 accepted\)"):
        rejection_sample(dry, 10, 5000, {"none": 0}, "dry")
    assert log == [64, cones._BLOCK, cones._BLOCK, 5000 - 64 - 2 * cones._BLOCK]


REJECTION_SAMPLERS = [  # catalog sampler, its parameters and its block cap
    pytest.param("cone", _params(6, 1.0), cones._BLOCK, id="gamma"),
    pytest.param("l59", _params(6, 1.0), cones._BLOCK, id="scale"),
    pytest.param("main", _params(6, 1e3), cones._BLOCK, id="regime"),
    pytest.param("tail_cases", _params(7, 1e6), hypotheses._TAIL_BLOCK, id="tail"),
]


@pytest.mark.parametrize("count", [1, 30, 1000, 5000])
@pytest.mark.parametrize("name, P, cap", REJECTION_SAMPLERS)
def test_blocks_follow_the_acceptance_rate(name, P, cap, count, blocks):
    X = hypotheses._SAMPLERS[name](P, make_rng(count), count)
    assert X.shape[0] == count
    ((budget, used_cap, log),) = blocks
    drawn, accepted = map(sum, zip(*log))
    assert used_cap == cap and max(B for B, _ in log) <= cap
    assert drawn <= budget
    assert accepted - count <= count / 4 + 64  # rows accepted and thrown away


@pytest.mark.parametrize("name, P, cap", REJECTION_SAMPLERS)
def test_exhausted_sampler_spends_exactly_its_budget(name, P, cap, blocks, monkeypatch):
    budget = 3001
    monkeypatch.setattr(hypotheses, "_SAMPLER_BUDGET", budget)
    monkeypatch.setattr(cones, "_REGIME_BUDGET", budget)
    with pytest.raises(SamplingExhaustedError, match=f"exhausted after {budget} draws"):
        hypotheses._SAMPLERS[name](P, make_rng(1), budget)  # every sampler rejects some draws
    ((_, _, log),) = blocks
    assert sum(B for B, _ in log) == budget
