"""The benchmark's workloads and the correctness gate on their outputs.

All three run closed-loop in the benchmark's own process, one call at a
time, through symcone's public entry points.  Entry points are looked up on
the module at call time so that the tracer's rebinding takes effect.

* catalog - `symcone verify` over the full catalog (the routine user job:
  large row blocks, Jacobi and the sigma DP dominate).
* search  - `minimize_lambda` on the six criterion-4 cells (every objective
  evaluation is a batch of one, so per-call overhead dominates).
* tail    - `S7_case_key` over its full (kappa_1, K) sweep (the slowest
  check: the constructive B3/C sampler plus Jacobi on near-singular forms).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

# A search cell fails when the value and its compensated re-evaluation are
# both below the PSD tolerance of the registry.
SEARCH_NEGATIVE = -1e-8


@dataclass
class Task:
    key: str
    digest: str
    failure: Optional[str]


@dataclass
class PassOutcome:
    tasks: List[Task]
    rows: int  # rows evaluated (search: objective evaluations)
    restarts: int = 0
    evals: int = 0
    bytes_out: int = 0


def _digest(*fields) -> str:
    blob = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _num(x) -> float:
    """A float from a JSON value; the CLI writes non-finite floats as strings."""
    return math.nan if x is None else float(x)


def result_failure(verdict: str, samples, min_slack) -> Optional[str]:
    """Why a check result is not a success, or None.

    A pass on zero evaluated rows or with a non-finite minimum slack certifies
    nothing, so it counts as a failure.
    """
    if verdict not in ("PASS", "THRESHOLD"):
        return f"verdict {verdict}"
    if not samples:
        return f"{verdict} on zero evaluated rows"
    if not math.isfinite(_num(min_slack)):
        return f"{verdict} with non-finite min_slack {min_slack!r}"
    return None


def check_task(rec: dict) -> Task:
    """Gate one check result given as a dict (a CLI record or the fields of a `CheckResult`)."""
    key = f"{rec.get('id')}|n={rec.get('n')}"
    digest = _digest(rec.get("id"), rec.get("n"), rec.get("verdict"), rec.get("min_slack"), rec.get("witness"))
    return Task(key, digest, result_failure(rec.get("verdict"), rec.get("samples"), rec.get("min_slack")))


def mark_digest_changes(first: PassOutcome, later: PassOutcome) -> None:
    """Fail every task of `later` whose result differs from the first pass."""
    ref = {t.key: t.digest for t in first.tasks}
    for t in later.tasks:
        if t.failure is None and ref.get(t.key) != t.digest:
            t.failure = "result differs from the first pass of this run"
    if len(later.tasks) != len(first.tasks) and later.tasks:
        later.tasks[0].failure = later.tasks[0].failure or "task count differs from the first pass"


@dataclass(frozen=True)
class Catalog:
    """`symcone verify --n 5..7 --samples 1000` in process, default options."""

    n: str = "5..7"
    samples: int = 1000
    only: Optional[str] = None

    name = "catalog"
    imports = ("symcone", "symcone.cli")

    def run_pass(self, seed: int, out_dir: Path) -> PassOutcome:
        symcone = sys.modules["symcone"]
        out = out_dir / "catalog.jsonl"
        argv = ["verify", "--n", self.n, "--samples", str(self.samples), "--seed", str(seed), "--out", str(out)]
        if self.only:
            argv += ["--only", self.only]
        code = symcone.cli.main(argv)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        manifest = next((r for r in records if r.get("record") == "manifest"), {})
        results = [r for r in records if r.get("record") == "result"]
        tasks = [check_task(r) for r in results]
        expected = len(manifest.get("checks", ()))
        if not tasks or len(tasks) != expected:
            tasks.append(Task("catalog|tasks", "", f"{len(results)} results for {expected} tasks"))
        if code != 0:
            for t in tasks:
                t.failure = t.failure or f"CLI exit code {code}"
        rows = sum(int(r.get("samples") or 0) for r in results)
        return PassOutcome(tasks, rows=rows, bytes_out=out.stat().st_size)


@dataclass(frozen=True)
class Search:
    """`minimize_lambda` on the criterion-4 cells n in {5,6,7}, k in {n-2, n-1}."""

    cells: Tuple[Tuple[int, int], ...] = tuple((n, k) for n in (5, 6, 7) for k in (n - 2, n - 1))
    restarts: int = 4
    maxiter: int = 150
    K: float = 1e3
    kappa1: float = 1e4

    name = "search"
    imports = ("symcone",)

    def run_pass(self, seed: int, out_dir: Path) -> PassOutcome:
        symcone = sys.modules["symcone"]
        tasks, restarts, evals = [], 0, 0
        for n, k in self.cells:
            cfg = symcone.SearchConfig(
                n=n, k=k, K=self.K, kappa1=self.kappa1, restarts=self.restarts, maxiter=self.maxiter, seed=seed
            )
            res = symcone.minimize_lambda(cfg)
            restarts += res.restarts_used
            evals += res.evaluations
            best = res.best
            failure = None
            if best is None:
                failure = "no feasible restart"
            elif best.value < SEARCH_NEGATIVE and (best.refined_value or 0.0) < SEARCH_NEGATIVE:
                failure = f"negative key-form eigenvalue {best.value!r} (refined {best.refined_value!r})"
            witness = None if best is None else [best.kappa, best.xi, best.refined_value]
            verdict = "FAIL" if failure else "PASS"
            value = None if best is None else best.value
            tasks.append(Task(f"search|n={n}|k={k}", _digest("search", n, k, verdict, value, witness), failure))
        return PassOutcome(tasks, rows=evals, restarts=restarts, evals=evals)


@dataclass(frozen=True)
class Tail:
    """`run_check("S7_case_key")` over its full (kappa_1, K) sweep for each n."""

    ns: Tuple[int, ...] = (5, 6, 7)
    samples: int = 3000

    name = "tail"
    imports = ("symcone",)

    def run_pass(self, seed: int, out_dir: Path) -> PassOutcome:
        symcone = sys.modules["symcone"]
        tasks, rows = [], 0
        for n in self.ns:
            res = symcone.run_check("S7_case_key", n=n, samples=self.samples, seed=seed)
            task = check_task(vars(res))
            points = res.details.get("points") or [{}]
            if task.failure is None and not points[-1].get("passed"):
                task.failure = "top sweep point did not pass"
            tasks.append(task)
            rows += res.samples
        return PassOutcome(tasks, rows=rows)


WORKLOADS = {w.name: w for w in (Catalog(), Search(), Tail())}

# Small inputs on the same code paths: the warm-up before timing, and the
# benchmark's smoke test.
TINY = {
    "catalog": Catalog(n="5", samples=16, only="newton,L5_2_psd,L4_1_gap,S7_case_key"),
    "search": Search(cells=((5, 3),), restarts=1, maxiter=20),
    "tail": Tail(ns=(5,), samples=64),
}
