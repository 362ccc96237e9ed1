"""Command-line interface: verify / search / threshold.

Output is JSON Lines (one record per line), written by one writer.  The
first record of every run but `verify --list` is a manifest with the schema
version and every resolved option that can change a result, seed included,
so a result file is self-describing and re-runnable.

Results are bit-for-bit reproducible per platform only, so every manifest
records the Python and numpy versions, the platform and the BLAS library.

Exit codes: 0 all checks passed, 1 at least one genuine failure (negative
slack beyond tolerance or a confirmed negative search finding), 2 an error
(unknown check, infeasible sampling, bad arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import platform
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .errors import InvalidInputError, SymconeError
from .parallel import resolve_jobs
from .registry import PSD_EPS, REGISTRY, RunContext, registry_list, run_checks
from .search import SearchConfig, _threshold_context, minimize_lambda, threshold_bisect

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# JSON emission with exact float round-trips.
# ---------------------------------------------------------------------------


def _jfloat(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _jdump(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return _jfloat(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_jdump(str(k))}:{_jdump(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_jdump(v) for v in obj) + "]"
    if dataclasses.is_dataclass(obj):  # its __dict__ holds the fields in order
        return _jdump(vars(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _parse_n(text: str) -> List[int]:
    if ".." in text:
        a, b = text.split("..", 1)
        lo, hi = int(a), int(b)
        if lo > hi:
            raise argparse.ArgumentTypeError(f"bad n range: {text}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _parse_k(text: str) -> Optional[int]:
    if text == "auto":
        return None
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symcone", description="verification toolkit for sigma_k curvature forms")
    parser.add_argument("--version", action="version", version=f"symcone {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run registry checks")
    v.add_argument("--n", type=_parse_n, default=[6], help="dimension, an integer or a range a..b")
    v.add_argument("--k", type=_parse_k, default=None, help="level, an integer or 'auto' (per-check default)")
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--kappa1", type=float, default=None, help="pin the top-curvature scale (asymptotic checks)")
    v.add_argument("--K", type=float, default=None, help="pin the constant K (checks that use it)")
    v.add_argument("--i", type=int, default=2, help="1-based near-top index for regime samplers")
    v.add_argument("--only", type=str, default=None, help="comma-separated check ids")
    v.add_argument("--tol", type=float, default=1e-10)
    v.add_argument("--psd-eps", type=float, default=1e-8)
    v.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: every CPU this process may use); results do not depend on it",
    )
    v.add_argument("--out", type=str, default=None, help="write JSONL here instead of stdout")
    v.add_argument("--list", action="store_true", help="list the catalog and exit")

    s = sub.add_parser("search", help="adversarial eigenvalue minimization of the key form")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=_parse_k, default=None)
    s.add_argument("--K", type=float, default=1e3)
    s.add_argument("--kappa1", type=float, default=1e4)
    s.add_argument("--i", type=int, default=2)
    s.add_argument("--restarts", type=int, default=50)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", type=str, default=None)

    t = sub.add_parser("threshold", help="bisect the smallest passing scale of a check")
    t.add_argument("--check", type=str, required=True)
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--k", type=_parse_k, default=None)
    t.add_argument("--K", type=float, default=None)
    t.add_argument("--lo", type=float, default=10.0)
    t.add_argument("--hi", type=float, default=1e6)
    t.add_argument("--steps", type=int, default=20)
    t.add_argument("--samples", type=int, default=500)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", type=str, default=None)

    return parser


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _environment() -> dict:
    """What bit-for-bit reproducibility depends on besides the options and seed."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):  # numpy without a machine-readable config
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas": blas,
    }


def _options(args) -> dict:
    """Every option of the command in parser order, `--only` as `checks`,
    except the ones that choose where and what to print."""
    return {
        ("checks" if name == "only" else name): value
        for name, value in vars(args).items()
        if name not in ("command", "out", "list")
    }


@contextlib.contextmanager
def _writer(args, fields: Optional[dict]):
    """Open `--out` (stdout without it) and yield `emit`, which writes one
    record per line.  Unless `fields` is None the manifest comes first: the
    shared keys, then `fields`, then the environment.  The file is closed
    however the command ends."""
    try:
        fh = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        raise InvalidInputError(f"cannot write {args.out}: {exc.strerror}") from exc

    def emit(record: dict) -> None:
        fh.write(_jdump(record) + "\n")
        fh.flush()

    try:
        if fields is not None:
            emit(
                {
                    "record": "manifest", "schema_version": SCHEMA_VERSION, "tool": "symcone", "version": __version__,
                    "command": args.command, **fields, "environment": _environment(),
                }
            )
        yield emit
    finally:
        if args.out:
            fh.close()


def _cmd_verify(args) -> int:
    jobs = resolve_jobs(args.jobs)
    if args.list:
        with _writer(args, None) as emit:
            for check in registry_list():
                emit({"record": "catalog", "id": check.id, "kind": check.kind, "min_n": check.min_n,
                      "description": check.description})
        return 0

    if args.only:
        ids = [t.strip() for t in args.only.split(",") if t.strip()]
        unknown = [t for t in ids if t not in REGISTRY]
        if unknown:
            print(f"unknown check ids: {unknown}", file=sys.stderr)
            return 2
    else:
        ids = [c.id for c in registry_list()]

    requests = [
        (
            cid,
            RunContext(
                n=n, samples=args.samples, seed=args.seed, k=args.k, K=args.K, kappa1=args.kappa1,
                i=args.i, tol=args.tol, psd_eps=args.psd_eps,
            ),
        )
        for n in args.n
        for cid in ids
        if n >= REGISTRY[cid].min_n
    ]
    if not requests:
        print(f"error: no requested check applies to n={','.join(map(str, args.n))}", file=sys.stderr)
        return 2

    worst = 0
    with _writer(args, {**_options(args), "checks": [cid for cid, _ in requests], "jobs": jobs}) as emit:
        results = run_checks(requests, jobs)
        for (cid, ctx), res in zip(requests, results):
            if isinstance(res, SymconeError):
                rec = {"record": "result", "id": cid, "n": ctx.n, "verdict": "ERROR", "details": {"error": str(res)}}
            else:
                rec = {**vars(res), "record": "result"}
            emit(rec)
            if rec["verdict"] == "ERROR":
                worst = max(worst, 2)
            elif rec["verdict"] == "FAIL":
                worst = max(worst, 1)
        emit({"record": "summary", "tasks": len(results), "exit_code": worst})
    return worst


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        n=args.n,
        k=args.k,
        K=args.K,
        kappa1=args.kappa1,
        i=args.i,
        restarts=args.restarts,
        seed=args.seed,
    )
    with _writer(args, {"config": cfg}) as emit:
        result = minimize_lambda(cfg)
        emit({**vars(result), "record": "result"})
        # Negative beyond the PSD tolerance, both in float and exactly built.
        negative = (
            result.best is not None
            and result.best.value < -PSD_EPS
            and result.best.refined_value is not None
            and result.best.refined_value < -PSD_EPS
        )
        emit({"record": "summary", "negative_found": bool(negative)})
    if result.error is not None:
        print(f"error: {result.error}", file=sys.stderr)
    if result.best is None:
        return 2
    return 1 if negative else 0


def _cmd_threshold(args) -> int:
    request = dict(lo=args.lo, hi=args.hi, steps=args.steps, samples=args.samples, seed=args.seed, K=args.K, k=args.k)
    _threshold_context(args.check, args.n, **request)
    with _writer(args, _options(args)) as emit:
        try:
            result = threshold_bisect(args.check, args.n, **request)
        except SymconeError as exc:
            emit({"record": "summary", "error": str(exc)})
            return 2
        emit({**vars(result), "record": "result"})
        emit({"record": "summary", "kappa1_star": result.kappa1_star})
    return 1 if result.none_pass else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "search":
            return _cmd_search(args)
        return _cmd_threshold(args)
    except SymconeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
