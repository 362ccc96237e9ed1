"""symcone benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog|search|tail|all --seed N \
        --seconds S --trace 0|1

The runner imports symcone from `src/` of the checkout, runs a small warm-up
pass, then repeats full workload passes until `--seconds` have passed (and
at least two passes, so that each pass's results can be compared with the
first).  Every pass goes through the correctness gate in `workloads.py`.

--trace 0  prints the end-to-end metrics: the median pass time, rows
           evaluated per second, the median set-up time of fresh
           interpreters importing symcone, and the peak RSS of this process.
--trace 1  alternates untraced and traced passes and prints the per-layer
           metrics of the traced passes (see `tracer.py`), plus the tracing
           overhead and the share of the traced pass that layer self times
           cover.  It also writes the spans and a per-(check, n) detail file.

Metrics (per-layer ones are per pass, medians over the traced passes):

  wall_s            median pass time
  rows_per_s        median over passes of rows evaluated per second (catalog
                    and tail: CheckResult.samples; search: objective
                    evaluations, each one key-form row)
  setup_s           median wall time of fresh interpreters that import
                    symcone (and symcone.cli for catalog) and exit
  peak_rss_mb       peak RSS of this process
  <layer>.calls     calls of the layer's traced functions
  <layer>.self_s    the layer's span time minus its child spans
  symfun.row_ops    sum of B*m*(m+1)/2 over coefficient-DP runs on B rows of
                    length m; rows_per_call is rows passed per call
  cones.rows_in     candidate rows screened by `_feasible_mask`; rows_out
                    those accepted; accept_ratio = rows_out / rows_in
  quadforms.eig.*   matrices = matrices passed to the eigensolvers; s_per_matrix =
                    eigensolver self time per matrix
  registry.*        checks = run_check calls; sample_s = time inside the
                    `_SAMPLERS` entries; rows_evaluated = rows they return
  search.*          evals = SearchResult.evaluations; s_per_eval =
                    minimize_lambda time per evaluation
  cli.bytes_out     size of the JSONL report
  trace.*           wall_s = traced pass time; overhead_frac = traced over
                    untraced pass time, minus 1; self_sum_frac = sum of all
                    layer self times over the traced pass time

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A human-readable summary,
including `failed_frac` and (for search) `restarts_per_s`, goes to standard
error.  Each run also writes `perfbench/out/<workload>-seed<N>-trace<T>.json`
with the environment manifest, every pass time and every failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import TINY, WORKLOADS, PassOutcome, mark_digest_changes  # noqa: E402

MIN_PASSES = 2
SETUP_REPEATS = 3

END_TO_END = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "symfun.calls": "count",
    "symfun.self_s": "s",
    "symfun.rows_per_call": "rows",
    "symfun.row_ops": "count",
    "cones.calls": "count",
    "cones.self_s": "s",
    "cones.rows_in": "rows",
    "cones.rows_out": "rows",
    "cones.accept_ratio": "ratio",
    "quadforms.build.calls": "count",
    "quadforms.build.self_s": "s",
    "quadforms.eig.calls": "count",
    "quadforms.eig.self_s": "s",
    "quadforms.eig.matrices": "count",
    "quadforms.eig.s_per_matrix": "s",
    "registry.checks": "count",
    "registry.self_s": "s",
    "registry.sample_s": "s",
    "registry.rows_evaluated": "rows",
    "search.evals": "count",
    "search.self_s": "s",
    "search.s_per_eval": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_frac": "ratio",
}
# Exact counts, from argument and result shapes or the program's own
# counters; they repeat exactly for a seed.  Everything else is measured.
COMPUTED = {
    "symfun.calls", "symfun.rows_per_call", "symfun.row_ops", "cones.calls", "cones.rows_in",
    "cones.rows_out", "cones.accept_ratio", "quadforms.build.calls", "quadforms.eig.calls",
    "quadforms.eig.matrices", "registry.checks", "registry.rows_evaluated", "search.evals",
    "cli.bytes_out",
}


class NoProgram(Exception):
    """The checkout holds no importable symcone under src/."""


# ---------------------------------------------------------------------------
# Environment manifest.
# ---------------------------------------------------------------------------


def _read(path: str) -> Optional[str]:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> Optional[str]:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> Dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else ():
        level, kind, size = (_read(str(idx / f)) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _git_commit(root: Path) -> Optional[str]:
    head = _read(str(root / ".git" / "HEAD"))
    if head and head.startswith("ref: "):
        return _read(str(root / ".git" / head[5:]))
    return head


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _version(module: str) -> Optional[str]:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def environment(root: Path, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "seed": seed,
        "note": "bit-for-bit results hold per platform only",
    }


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def import_program(root: Path, modules) -> None:
    src = root / "src"
    if not (src / "symcone" / "__init__.py").is_file():
        raise NoProgram(f"no symcone package under {src}")
    sys.path.insert(0, str(src))
    try:
        for mod in modules:
            __import__(mod)
    except ImportError as exc:
        raise NoProgram(f"cannot import symcone from {src}: {exc}") from exc
    where = Path(sys.modules["symcone"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise NoProgram(f"symcone was imported from {where}, not from {src}")


def measure_setup(root: Path, modules) -> List[float]:
    """Wall time of fresh interpreters that import the workload's modules and exit."""
    code = "import sys; sys.path.insert(0, 'src'); " + "; ".join(f"import {m}" for m in modules)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(stats: List[dict], outcomes: List[PassOutcome], untraced: List[float]) -> Dict[str, float]:
    """Per-layer metrics: medians over traced passes (counts repeat exactly)."""

    def med(fn) -> float:
        return _median([fn(s, o) for s, o in zip(stats, outcomes)])

    m = {
        "symfun.calls": med(lambda s, o: s["calls"]["symfun"]),
        "symfun.self_s": med(lambda s, o: s["self_s"]["symfun"]),
        "symfun.rows_per_call": med(lambda s, o: _ratio(s["counts"]["symfun.rows"], s["calls"]["symfun"])),
        "symfun.row_ops": med(lambda s, o: s["counts"]["symfun.row_ops"]),
        "cones.calls": med(lambda s, o: s["calls"]["cones"]),
        "cones.self_s": med(lambda s, o: s["self_s"]["cones"]),
        "cones.rows_in": med(lambda s, o: s["counts"]["cones.rows_in"]),
        "cones.rows_out": med(lambda s, o: s["counts"]["cones.rows_out"]),
        "cones.accept_ratio": med(lambda s, o: _ratio(s["counts"]["cones.rows_out"], s["counts"]["cones.rows_in"])),
        "quadforms.build.calls": med(lambda s, o: s["calls"]["quadforms.build"]),
        "quadforms.build.self_s": med(lambda s, o: s["self_s"]["quadforms.build"]),
        "quadforms.eig.calls": med(lambda s, o: s["calls"]["quadforms.eig"]),
        "quadforms.eig.self_s": med(lambda s, o: s["self_s"]["quadforms.eig"]),
        "quadforms.eig.matrices": med(lambda s, o: s["counts"]["quadforms.eig.matrices"]),
        "quadforms.eig.s_per_matrix": med(
            lambda s, o: _ratio(s["self_s"]["quadforms.eig"], s["counts"]["quadforms.eig.matrices"])
        ),
        "registry.checks": med(lambda s, o: len(s["tasks"])),
        "registry.self_s": med(lambda s, o: s["self_s"]["registry"]),
        "registry.sample_s": med(lambda s, o: s["sample_s"]),
        "registry.rows_evaluated": med(lambda s, o: s["counts"]["registry.rows_evaluated"]),
        "search.evals": med(lambda s, o: o.evals),
        "search.self_s": med(lambda s, o: s["self_s"]["search"]),
        "search.s_per_eval": med(lambda s, o: _ratio(s["search_s"], o.evals)),
        "cli.self_s": med(lambda s, o: s["self_s"]["cli"]),
        "cli.bytes_out": med(lambda s, o: o.bytes_out),
        "trace.wall_s": med(lambda s, o: s["wall_s"]),
        "trace.self_sum_frac": med(lambda s, o: _ratio(s["wall_s"] - s["self_s"]["bench"], s["wall_s"])),
    }
    m["trace.overhead_frac"] = _ratio(m["trace.wall_s"] - _median(untraced), _median(untraced))
    return m


def task_times(stats: List[dict]) -> List[dict]:
    """Per-(check, n) span times, medians over the traced passes."""
    by_task: Dict[tuple, List[dict]] = {}
    for s in stats:
        for t in s["tasks"]:
            by_task.setdefault((t["check"], t["n"]), []).append(t)
    out = []
    for (check, n), ts in by_task.items():
        layers = sorted({k for t in ts for k in t["self_s"]})
        out.append({
            "check": check,
            "n": n,
            "seconds": _median([t["seconds"] for t in ts]),
            "self_s": {k: _median([t["self_s"].get(k, 0.0) for t in ts]) for k in layers},
        })
    return sorted(out, key=lambda t: -t["seconds"])


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, sizes=None) -> dict:
    """One benchmark run; returns the result file's content."""
    workload = (sizes or WORKLOADS)[name]
    import_program(root, workload.imports)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = environment(root, seed)
    setup = [] if trace else measure_setup(root, workload.imports)

    TINY[name].run_pass(seed, out_dir)  # warm-up: imports, allocator, caches

    tracer = Tracer() if trace else None
    outcomes: List[PassOutcome] = []
    times: List[float] = []
    traced: List[bool] = []
    deadline = time.perf_counter() + seconds
    while len(outcomes) < MIN_PASSES or time.perf_counter() < deadline:
        on = trace and len(outcomes) % 2 == 1
        t0 = time.perf_counter()
        if on:
            tracer.install()
            try:
                outcome = tracer.record_pass(len(outcomes), lambda: workload.run_pass(seed, out_dir))
            finally:
                tracer.uninstall()
        else:
            outcome = workload.run_pass(seed, out_dir)
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        traced.append(on)

    for later in outcomes[1:]:
        mark_digest_changes(outcomes[0], later)
    tasks = [t for o in outcomes for t in o.tasks]
    failures = [
        {"pass": i, "task": t.key, "reason": t.failure}
        for i, o in enumerate(outcomes)
        for t in o.tasks
        if t.failure
    ]

    if trace:
        stats = [tracer.passes[i] for i, on in enumerate(traced) if on]
        metrics = layer_metrics(
            stats,
            [o for o, on in zip(outcomes, traced) if on],
            [t for t, on in zip(times, traced) if not on],
        )
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": _median(times),
            "rows_per_s": _median([o.rows / t for o, t in zip(outcomes, times)]),
            "setup_s": _median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    summary = {
        "failed_frac": len(failures) / len(tasks),
        "restarts_per_s": sum(o.restarts for o in outcomes) / sum(times),
    }
    result = {
        "workload": name,
        "params": vars(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "correct": not failures,
        "attempted": len(tasks),
        "failed": len(failures),
        "failures": failures[:50],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "metric_kind": {k: "computed" if k in COMPUTED else "measured" for k in units},
        "summary": summary,
        "pass_s": times,
        "pass_traced": traced,
        "setup_s": setup,
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        result["missing_trace_points"] = tracer.missing
        detail = {"environment": env, "workload": name, "seed": seed, "tasks": task_times(stats), "passes": stats}
        (out_dir / f"{name}-seed{seed}-detail.json").write_text(json.dumps(detail, indent=1))
        tracer.save_spans(out_dir / f"{name}-seed{seed}-spans.npz")
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))
    return result


def _print_summary(result: dict) -> None:
    err = sys.stderr
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={len(result['pass_s'])} correct={result['correct']}", file=err)
    for k, m in result["metrics"].items():
        print(f"  {k:28s} {m['value']:.6g} {m['unit']}", file=err)
    print(f"  {'failed_frac':28s} {result['summary']['failed_frac']:.6g} ratio", file=err)
    if result["workload"] == "search":
        print(f"  {'restarts_per_s':28s} {result['summary']['restarts_per_s']:.6g} 1/s", file=err)
    for f in result["failures"]:
        print(f"  FAILED pass {f['pass']} {f['task']}: {f['reason']}", file=err)


def main(argv=None, sizes=None) -> int:
    """Command-line entry; `sizes` replaces the workload inputs (smoke test)."""
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        # One process per workload, so that peak RSS is each workload's own.
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, *rest]).returncode
            for name in sorted(WORKLOADS)
        ]
        return max(codes)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd(), sizes)
    except NoProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print_summary(result)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())
