"""Smoke test of the benchmark itself, on tiny inputs.

Run from the root of the repository:

    python3 -m pytest -q perfbench/smoke.py

It is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import TINY, PassOutcome, Task, check_task, mark_digest_changes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_runner():
    assert {w["name"] for w in SPEC["workloads"]} == set(TINY)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_prints_with_its_unit(workload, trace, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv, sizes=TINY) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in line["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    if trace:
        # Layer self times cover the traced pass.
        assert line["metrics"]["trace.self_sum_frac"]["value"] > 0.98
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_gate_flags_silent_pass():
    ok = {"id": "newton", "n": 5, "verdict": "PASS", "samples": 10, "min_slack": 0.0, "witness": None}
    assert check_task(ok).failure is None
    assert check_task(dict(ok, samples=0)).failure is not None
    assert check_task(dict(ok, min_slack="inf")).failure is not None
    assert check_task(dict(ok, min_slack=math.nan)).failure is not None
    assert check_task(dict(ok, verdict="ERROR")).failure is not None


def test_gate_flags_changed_results():
    first = PassOutcome([Task("a", "x", None), Task("b", "y", None)], rows=1)
    later = PassOutcome([Task("a", "x", None), Task("b", "z", None)], rows=1)
    mark_digest_changes(first, later)
    assert [t.failure is None for t in later.tasks] == [True, False]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tail", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
