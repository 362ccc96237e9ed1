"""Layer tracing for symcone, done entirely from outside the package.

Each layer is a set of functions that one symcone module exposes to the
others.  `Tracer.install` replaces every such function by a recording
wrapper in the namespaces of the symcone modules that imported it (the
package namespace included).  A function that no other module imports at
load time - `cones._feasible_mask`, which `registry` imports inside a
function, or `quadforms.embed_reduced`, which only `quadforms` calls - is
rebound in its own module instead.  The entries of `registry._SAMPLERS` are
wrapped in place.  `Tracer.uninstall` restores every original binding.  No
file under `src/` is edited.

Spans are kept in memory as parallel arrays (name, start, end, parent, pass
id) and written out once the benchmark ends.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested because everything runs in one thread.

Counts are computed from argument and result shapes, so they repeat exactly
for a given seed; they are labelled "computed" in the result files.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT_LAYER = "bench"

# (layer, defining module, function names).  Names that a later version of
# symcone no longer defines are skipped and listed in `Tracer.missing`.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("symfun", "symcone.symfun",
     ("batch_coeffs", "batch_coeffs_excl", "batch_excl1_table", "batch_abs_term_sum", "sigma_fsum")),
    ("cones", "symcone.cones", ("sample_batch", "_feasible_mask")),
    ("quadforms.build", "symcone.quadforms",
     ("key_matrix_batch", "abcd_batch", "h_matrix_batch", "lemma41_gap_batch", "rhs_combination_batch",
      "_reduced_tables", "embed_reduced", "divdiff_exp_scaled")),
    ("quadforms.eig", "symcone.quadforms", ("jacobi_min_eig_batch", "jacobi_eig_single")),
    ("registry", "symcone.registry", ("run_check",)),
    ("search", "symcone.search", ("minimize_lambda",)),
    ("cli", "symcone.cli", ("main",)),
)
LAYER_NAMES = (ROOT_LAYER,) + tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))
SAMPLER_TABLE = ("symcone.registry", "_SAMPLERS")


# ---------------------------------------------------------------------------
# Exact counts from argument shapes.  Each takes (counters, args, kwargs,
# result) and runs inside the span it counts.
# ---------------------------------------------------------------------------


def _dp_ops(rows: int, n: int) -> int:
    """Multiply-adds of the coefficient DP on `rows` vectors of length n."""
    return rows * n * (n + 1) // 2


def _count_dp(cnt, args, kwargs, out):
    B, n = args[0].shape
    cnt["symfun.rows"] += B
    cnt["symfun.row_ops"] += _dp_ops(B, n)


def _count_dp_excl(cnt, args, kwargs, out):
    B, n = args[0].shape
    cnt["symfun.rows"] += B
    cnt["symfun.row_ops"] += _dp_ops(B, n - len(set(args[1])))


def _count_excl1(cnt, args, kwargs, out):
    B, n = args[0].shape
    cnt["symfun.rows"] += B
    cnt["symfun.row_ops"] += n * _dp_ops(B, n - 1)


def _count_fsum(cnt, args, kwargs, out):
    cnt["symfun.rows"] += 1  # subset enumeration, not a DP: no row_ops


def _count_feasible(cnt, args, kwargs, out):
    cnt["cones.rows_in"] += args[0].shape[0]
    cnt["cones.rows_out"] += int(np.count_nonzero(out))


def _count_eig_batch(cnt, args, kwargs, out):
    cnt["quadforms.eig.matrices"] += np.shape(args[0])[0]


def _count_eig_single(cnt, args, kwargs, out):
    cnt["quadforms.eig.matrices"] += 1


def _count_sampler(cnt, args, kwargs, out):
    cnt["registry.rows_evaluated"] += out[0].shape[0]


COUNTERS: Dict[str, Callable] = {
    "batch_coeffs": _count_dp,
    "batch_abs_term_sum": _count_dp,
    "batch_coeffs_excl": _count_dp_excl,
    "batch_excl1_table": _count_excl1,
    "sigma_fsum": _count_fsum,
    "_feasible_mask": _count_feasible,
    "jacobi_min_eig_batch": _count_eig_batch,
    "jacobi_eig_single": _count_eig_single,
}
COUNT_NAMES = (
    "symfun.rows", "symfun.row_ops", "cones.rows_in", "cones.rows_out",
    "quadforms.eig.matrices", "registry.rows_evaluated",
)


class Tracer:
    """Records spans and counts around symcone's inter-module calls."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._layer_of_name: List[int] = []
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.pass_id = array("q")
        self.tags: Dict[int, tuple] = {}  # run_check span index -> (check id, n)
        self.counts: Dict[str, int] = dict.fromkeys(COUNT_NAMES, 0)
        self.missing: List[str] = []
        self.passes: Dict[int, dict] = {}
        self._stack: List[int] = []
        self._pass = -1
        self._plan: List[Tuple[dict, str, object, Callable]] = []

    def _name_id(self, layer: str, func: str) -> int:
        key = f"{layer}:{func}"
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
            self._layer_of_name.append(LAYER_NAMES.index(layer))
        return self._name_ids[key]

    # -- span recording ----------------------------------------------------

    def _wrap(self, layer: str, func: str, fn: Callable, count: Optional[Callable]) -> Callable:
        nid = self._name_id(layer, func)
        is_check = func == "run_check"
        stack, counts, tags = self._stack, self.counts, self.tags
        name, start, end, parent, pass_id = self.name, self.start, self.end, self.parent, self.pass_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            pass_id.append(self._pass)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(counts, args, kwargs, out)
                return out
            finally:
                end[idx] = clock()
                stack.pop()
                if is_check:
                    ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
                    tags[idx] = (args[0], ctx.n if ctx is not None else kwargs.get("n"))

        traced.__wrapped__ = fn
        return traced

    def record_pass(self, pass_id: int, work: Callable[[], object]):
        """Run `work` under a root span and keep the pass's layer statistics."""
        self._pass = pass_id
        before = dict(self.counts)
        lo = len(self.start)
        try:
            return self._wrap(ROOT_LAYER, "pass", work, None)()
        finally:
            self._pass = -1
            stats = self._pass_stats(lo, len(self.start))
            stats["counts"] = {k: self.counts[k] - before[k] for k in COUNT_NAMES}
            self.passes[pass_id] = stats

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function; see the module docstring for where."""
        if not self._plan:
            self._plan = self._make_plan()
        for namespace, key, _, wrapper in self._plan:
            namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, orig, _ in self._plan:
            namespace[key] = orig

    def _make_plan(self) -> List[Tuple[dict, str, object, Callable]]:
        mods = {k: m for k, m in list(sys.modules.items()) if k == "symcone" or k.startswith("symcone.")}
        plan = []
        for layer, modname, funcs in LAYERS:
            home = mods.get(modname)
            for func in funcs:
                fn = getattr(home, func, None)
                if not callable(fn):
                    self.missing.append(f"{modname}.{func}")
                    continue
                users = [m for k, m in mods.items() if k != modname and m.__dict__.get(func) is fn]
                wrapper = self._wrap(layer, func, fn, COUNTERS.get(func))
                plan += [(m.__dict__, func, fn, wrapper) for m in users or [home]]
        table = getattr(mods.get(SAMPLER_TABLE[0]), SAMPLER_TABLE[1], None)
        if not isinstance(table, dict):
            self.missing.append(".".join(SAMPLER_TABLE))
            return plan
        for key, fn in table.items():
            plan.append((table, key, fn, self._wrap("registry", f"sampler.{key}", fn, _count_sampler)))
        return plan

    # -- analysis ----------------------------------------------------------

    def _pass_stats(self, lo: int, hi: int) -> dict:
        start = np.frombuffer(self.start[lo:hi], dtype=float)
        end = np.frombuffer(self.end[lo:hi], dtype=float)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int64) - lo
        names = np.frombuffer(self.name[lo:hi], dtype=np.int64)
        layers = np.asarray(self._layer_of_name)[names]
        dur = end - start
        child = np.bincount(parent[1:], weights=dur[1:], minlength=hi - lo)
        own = dur - child
        nl = len(LAYER_NAMES)
        layer_self = np.bincount(layers, weights=own, minlength=nl)
        layer_calls = np.bincount(layers, minlength=nl)

        def inclusive(pred) -> float:
            ids = [i for i, nm in enumerate(self.names) if pred(nm)]
            return float(dur[np.isin(names, ids)].sum())

        tasks = []
        for idx, (check, n) in sorted(self.tags.items()):
            if not lo <= idx < hi:
                continue
            j = idx - lo
            k = int(np.searchsorted(start, end[j], side="left"))
            sub = np.bincount(layers[j:k], weights=own[j:k], minlength=nl)
            tasks.append({
                "check": check,
                "n": n,
                "seconds": float(dur[j]),
                "self_s": {LAYER_NAMES[i]: float(sub[i]) for i in range(1, nl) if sub[i] > 0.0},
            })
        return {
            "wall_s": float(dur[0]),
            "self_s": {LAYER_NAMES[i]: float(layer_self[i]) for i in range(nl)},
            "calls": {LAYER_NAMES[i]: int(layer_calls[i]) for i in range(1, nl)},
            "sample_s": inclusive(lambda nm: nm.startswith("registry:sampler.")),
            "search_s": inclusive(lambda nm: nm == "search:minimize_lambda"),
            "tasks": tasks,
        }

    def save_spans(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            pass_id=np.frombuffer(self.pass_id, dtype=np.int64),
        )
