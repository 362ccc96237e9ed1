"""Command-line interface: JSONL schema, exit codes, determinism."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import symcone
from symcone import registry_list, search
from symcone.cli import _build_parser, main


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestVerify:
    def test_list_catalog(self, tmp_path, capsys):
        out = tmp_path / "catalog.jsonl"
        assert main(["verify", "--list", "--out", str(out)]) == 0
        records = read_jsonl(out)
        assert len(records) >= 25
        for rec in records:
            assert rec["record"] == "catalog"
            assert rec["id"] and rec["kind"]

    def test_python_dash_m(self):
        src = os.path.dirname(os.path.dirname(symcone.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "symcone", "verify", "--list"], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [(r["record"], r["id"]) for r in records] == [("catalog", c.id) for c in registry_list()]

    def test_single_check_report(self, tmp_path):
        out = tmp_path / "r.jsonl"
        code = main(["verify", "--only", "newton", "--n", "6", "--samples", "300", "--out", str(out)])
        assert code == 0
        records = read_jsonl(out)
        assert records[0]["record"] == "manifest"
        assert records[0]["schema_version"] == 1
        assert records[0]["seed"] == 0
        assert records[-1]["record"] == "summary"
        results = [r for r in records if r["record"] == "result"]
        assert len(results) == 1
        r = results[0]
        for field in ("id", "kind", "n", "k", "samples", "min_slack", "verdict", "seed"):
            assert field in r
        assert r["id"] == "newton"
        assert r["verdict"] == "PASS"

    def test_n_range_and_only_list(self, tmp_path):
        out = tmp_path / "r.jsonl"
        code = main(
            ["verify", "--only", "newton,maclaurin", "--n", "5..6", "--samples", "100", "--out", str(out)]
        )
        assert code == 0
        results = [r for r in read_jsonl(out) if r["record"] == "result"]
        assert {(r["id"], r["n"]) for r in results} == {
            ("newton", 5), ("newton", 6), ("maclaurin", 5), ("maclaurin", 6)
        }

    def test_unknown_check_is_usage_error(self, tmp_path, capsys):
        assert main(["verify", "--only", "bogus", "--n", "5"]) == 2

    def test_failing_check_exit_one(self, tmp_path):
        out = tmp_path / "r.jsonl"
        # tol 0 turns machine-epsilon identity residue into a failure
        code = main(
            ["verify", "--only", "L4_2_id1", "--n", "6", "--samples", "200", "--tol", "0", "--out", str(out)]
        )
        assert code == 1
        results = [r for r in read_jsonl(out) if r["record"] == "result"]
        assert results[0]["verdict"] == "FAIL"

    def test_pinned_sweep(self, tmp_path):
        out = tmp_path / "r.jsonl"
        code = main(
            [
                "verify", "--only", "C3_1_key", "--n", "5", "--k", "3",
                "--kappa1", "1e4", "--K", "1e3", "--samples", "300", "--out", str(out),
            ]
        )
        assert code == 0
        r = [x for x in read_jsonl(out) if x["record"] == "result"][0]
        assert r["verdict"] == "THRESHOLD"
        assert r["kappa1_star"] == 1e4

    def test_jobs_deterministic_merge(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["verify", "--only", "newton,L5_1_identity,L3_2", "--n", "5..6", "--samples", "200", "--seed", "7"]
        assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
        ra, rb = a.read_text().splitlines(), b.read_text().splitlines()
        assert json.loads(ra[0])["jobs"] == 1 and json.loads(rb[0])["jobs"] == 2
        assert len(ra) == 2 + 6 and ra[1:] == rb[1:]  # results and summary byte for byte

    def test_default_jobs_is_every_usable_cpu(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert main(["verify", "--only", "newton", "--n", "5", "--samples", "50", "--out", str(out)]) == 0
        assert read_jsonl(out)[0]["jobs"] == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, jobs, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        assert main(["verify", "--only", "newton", "--n", "5", "--jobs", jobs, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: need jobs >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("check", ["newton", "C3_1_key"])  # a fixed and an asymptotic check
    @pytest.mark.parametrize("samples", ["0", "-4"])
    def test_samples_below_one_exits_2(self, check, samples, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        assert main(["verify", "--only", check, "--n", "5", "--samples", samples, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: need samples >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("i", ["0", "9"])
    def test_near_top_index_out_of_range_exits_2(self, i, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        argv = ["verify", "--n", "5", "--i", i, "--only", "C3_1_key", "--kappa1", "1e3", "--K", "1e3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: need 1 <= i <= n")
        assert not out.exists()

    @pytest.mark.parametrize("n, k", [("5", "0"), ("5", "9"), ("5..7", "6")])
    def test_level_out_of_range_exits_2(self, n, k, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        assert main(["verify", "--only", "newton", "--n", n, "--k", k, "--samples", "20", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: k={k} out of range for n=5\n"
        assert not out.exists()

    @pytest.mark.parametrize("k", ["5", "1"])
    def test_regime_level_outside_2_to_n_minus_1(self, k, tmp_path, capsys):
        # The regime checks that take any --k draw from the conjecture-regime
        # sampler, which needs 2 <= k <= n-1: their records read ERROR, every
        # other record is written, and the run exits 2.
        out = tmp_path / "r.jsonl"
        assert main(["verify", "--n", "5", "--k", k, "--samples", "20", "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        records = read_jsonl(out)
        results = [r for r in records if r["record"] == "result"]
        assert [r["id"] for r in results] == [c.id for c in registry_list() if c.min_n <= 5]
        regime = ("L3_2", "L3_4", "L3_5_a", "L3_5_b", "C3_1_key", "L4_1_gap", "L4_1_gap_alt")
        errors = {r["id"]: r["details"]["error"] for r in results if r["verdict"] == "ERROR"}
        assert errors == dict.fromkeys(regime, f"need 2 <= k <= n-1, got k={k}, n=5")
        assert all(r["verdict"] != "FAIL" for r in results)
        assert records[-1] == {"record": "summary", "tasks": len(results), "exit_code": 2}

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kappa1", "-5"], "need kappa1 > 0"),
            (["--kappa1", "0"], "need kappa1 > 0"),
            (["--kappa1", "nan"], "need kappa1 > 0"),
            (["--kappa1", "inf"], "need kappa1 > 0 and finite, got inf"),
            (["--K", "0"], "need K > 0"),
            (["--K", "-1"], "need K > 0"),
            (["--K", "inf"], "need K > 0 and finite, got inf"),
            (["--tol", "nan"], "need a finite tol >= 0"),
            (["--tol=-1e-9"], "need a finite tol >= 0"),
            (["--psd-eps", "nan"], "need a finite psd_eps >= 0"),
            (["--psd-eps", "inf"], "need a finite psd_eps >= 0"),
        ],
        ids=[
            "kappa1-neg", "kappa1-zero", "kappa1-nan", "kappa1-inf", "K-zero", "K-neg", "K-inf", "tol-nan", "tol-neg",
            "eps-nan", "eps-inf",
        ],
    )
    def test_invalid_scale_or_tolerance_exits_2(self, flags, message, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        assert main(["verify", "--only", "C3_1_key", "--n", "5", "--samples", "20", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_overflowing_K_is_an_error(self, tmp_path, capsys):
        # K = 1e300 overflows the key form's K term: its rows have a NaN
        # slack, and NaN rows at the top point make the sweep ERROR
        out = tmp_path / "r.jsonl"
        argv = ["verify", "--n", "5", "--only", "C3_1_key", "--K", "1e300", "--samples", "10", "--out", str(out)]
        assert main(argv) == 2
        (result,) = [r for r in read_jsonl(out) if r["record"] == "result"]
        assert result["verdict"] == "ERROR"
        assert result["details"]["error"] == "10 rows gave a NaN slack"
        assert capsys.readouterr().err == ""

    def test_no_applicable_check_exits_2(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        assert main(["verify", "--n", "4", "--only", "C3_1_key", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: no requested check applies to n=4")
        assert not out.exists()

    def test_asymptotic_top_point_without_rows_exits_2(self, tmp_path):
        out = tmp_path / "r.jsonl"
        argv = ["verify", "--n", "5", "--only", "C3_1_key", "--K", "1e-30", "--samples", "20", "--out", str(out)]
        assert main(argv) == 2
        rec = [r for r in read_jsonl(out) if r["record"] == "result"][0]
        assert rec["verdict"] == "ERROR" and rec["samples"] == 0 and rec["min_slack"] == "nan"

    def test_float_round_trip(self, tmp_path):
        out = tmp_path / "r.jsonl"
        main(["verify", "--only", "newton", "--n", "6", "--samples", "300", "--out", str(out)])
        from symcone import run_check

        rec = [r for r in read_jsonl(out) if r["record"] == "result"][0]
        res = run_check("newton", n=6, samples=300, seed=0)
        assert rec["min_slack"] == res.min_slack  # 17 significant digits round-trip


class TestSearchCommand:
    def test_search_report(self, tmp_path):
        out = tmp_path / "s.jsonl"
        code = main(
            ["search", "--n", "5", "--k", "3", "--kappa1", "1e3", "--restarts", "5", "--out", str(out)]
        )
        assert code == 0
        records = read_jsonl(out)
        assert records[0]["record"] == "manifest"
        assert records[0]["command"] == "search"
        result = [r for r in records if r["record"] == "result"][0]
        assert result["best"] is not None
        assert len(result["runs"]) == 5
        assert sum(run["nfev"] for run in result["runs"]) == result["evaluations"]
        assert result["objective_rows"] > result["evaluations"]
        assert 1 <= result["objective_calls"] < result["objective_rows"]
        assert records[-1]["negative_found"] is False
        assert result["error"] is None and result["rejections"] is None

    def test_exhausted_start_sampler_is_reported(self, tmp_path, capsys):
        # At i = n the near-top test rejects every start candidate.
        out = tmp_path / "s.jsonl"
        assert main(["search", "--n", "5", "--k", "3", "--i", "5", "--restarts", "4", "--out", str(out)]) == 2
        result = [r for r in read_jsonl(out) if r["record"] == "result"][0]
        assert result["best"] is None and result["runs"] == []
        assert result["error"].startswith("sampling exhausted after ")
        assert result["rejections"]["near_top"] > 0
        assert sum(result["rejections"].values()) == result["rejections"]["near_top"]
        assert capsys.readouterr().err == f"error: {result['error']}\n"

    def test_roundoff_negative_is_not_a_failure(self, tmp_path):
        # The best end point is negative at the rounding level, in float and
        # exactly built; only a value below -PSD_EPS is a finding.
        out = tmp_path / "s.jsonl"
        argv = ["search", "--n", "7", "--k", "5", "--kappa1", "1e4", "--K", "1e3", "--restarts", "4", "--seed", "42"]
        assert main(argv + ["--out", str(out)]) == 0
        records = read_jsonl(out)
        best = [r for r in records if r["record"] == "result"][0]["best"]
        assert -1e-8 < best["value"] < 0.0
        assert -1e-8 < best["refined_value"] < 0.0
        assert records[-1]["negative_found"] is False

    @pytest.mark.parametrize(
        "flags",
        [
            ["--i", "9"], ["--i", "0"], ["--restarts", "0"], ["--kappa1", "-5"], ["--kappa1", "inf"], ["--K", "-1"],
            ["--K", "nan"], ["--K", "inf"], ["--k", "5"], ["--k", "1"],
        ],
        ids=[
            "i-above-n", "i-zero", "no-restarts", "negative-kappa1", "inf-kappa1", "negative-K", "nan-K", "inf-K",
            "k-is-n", "k-one",
        ],
    )
    def test_invalid_config_exits_2(self, flags, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        assert main(["search", "--n", "5", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: need ")
        assert not out.exists()

    def test_overflowing_K_leaves_no_feasible_restart(self, tmp_path, capsys):
        # a NaN objective value is a wall, like an infeasible point
        out = tmp_path / "s.jsonl"
        assert main(["search", "--n", "5", "--K", "1e300", "--restarts", "2", "--out", str(out)]) == 2
        (result,) = [r for r in read_jsonl(out) if r["record"] == "result"]
        assert result["best"] is None
        assert [run["status"] for run in result["runs"]] == ["infeasible_start"] * 2
        assert capsys.readouterr().err == ""


class TestThresholdCommand:
    def test_threshold_report(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code = main(
            [
                "threshold", "--check", "L3_2", "--n", "5",
                "--lo", "10", "--hi", "1e4", "--samples", "100", "--out", str(out),
            ]
        )
        assert code == 0
        records = read_jsonl(out)
        result = [r for r in records if r["record"] == "result"][0]
        assert result["kappa1_star"] is not None
        assert records[-1]["record"] == "summary"

    def test_unknown_check(self, tmp_path):
        out = tmp_path / "t.jsonl"
        assert main(["threshold", "--check", "bogus", "--n", "5", "--out", str(out)]) == 2

    @pytest.mark.parametrize("samples", ["0", "-4"])
    def test_samples_below_one_exits_2(self, samples, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["threshold", "--check", "L3_2", "--n", "5", "--samples", samples, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: need samples >= 1, got {samples}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--K", "0"], ["--K", "nan"], ["--K", "inf"]], ids=["K-zero", "K-nan", "K-inf"])
    def test_invalid_K_exits_2(self, flags, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["threshold", "--check", "L3_5_a", "--n", "5", "--samples", "20", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: need K > 0")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--check", "bogus", "--n", "5"], "unknown check id: 'bogus'"),
            (["--check", "L3_2", "--n", "4"], "L3_2 requires n >= 5, got n=4"),
            (["--check", "L3_2", "--n", "5", "--k", "6"], "k=6 out of range for n=5"),
            (["--check", "L3_2", "--n", "5", "--lo", "1e4", "--hi", "10"], "need 0 < lo < hi"),
            (["--check", "L3_2", "--n", "5", "--lo", "10", "--hi", "10"], "need 0 < lo < hi"),
            (["--check", "L3_2", "--n", "5", "--hi", "inf"], "need 0 < lo < hi < inf, got lo=10.0, hi=inf"),
        ],
        ids=["unknown-check", "n-below-min", "k-above-n", "lo-above-hi", "lo-equals-hi", "hi-inf"],
    )
    def test_invalid_request_runs_no_probe(self, flags, message, monkeypatch, tmp_path, capsys):
        def probe(*args, **kwargs):
            raise AssertionError("a probe ran")

        monkeypatch.setattr(search, "run_check", probe)
        out = tmp_path / "t.jsonl"
        assert main(["threshold", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()


COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--only", "newton", "--n", "5", "--samples", "20"],
        ["search", "--n", "5", "--k", "3", "--restarts", "1"],
        ["threshold", "--check", "L3_2", "--n", "5", "--lo", "10", "--hi", "1e3", "--steps", "1", "--samples", "20"],
    ],
    ids=["verify", "search", "threshold"],
)


@COMMANDS
def test_manifest_records_environment(argv, tmp_path):
    out = tmp_path / "m.jsonl"
    main(argv + ["--out", str(out)])
    env = read_jsonl(out)[0]["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["platform"] == platform.platform()
    assert env["blas"] is None or set(env["blas"]) == {"name", "version"}


@COMMANDS
def test_out_in_missing_directory_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "r.jsonl"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        [
            "verify", "--only", "C3_1_key", "--n", "5", "--k", "3", "--samples", "20", "--seed", "3", "--kappa1", "1e4",
            "--K", "1e3", "--i", "3", "--tol", "1e-6", "--psd-eps", "1e-7", "--jobs", "1",
        ],
        ["search", "--n", "5", "--k", "3", "--K", "50", "--kappa1", "1e3", "--i", "3", "--restarts", "1", "--seed", "3"],
        [
            "threshold", "--check", "L3_5_a", "--n", "5", "--k", "3", "--K", "50", "--lo", "10", "--hi", "1e3",
            "--steps", "1", "--samples", "20", "--seed", "3",
        ],
    ],
    ids=["verify", "search", "threshold"],
)
def test_manifest_records_every_option(argv, tmp_path):
    out = tmp_path / "m.jsonl"
    main(argv + ["--out", str(out)])
    manifest = read_jsonl(out)[0]
    recorded = {**manifest, **manifest.get("config", {})}  # search records its SearchConfig
    options = vars(_build_parser().parse_args(argv))
    for name in set(options) - {"command", "out", "list", "only"}:
        assert recorded[name] == options[name], name
    if argv[0] == "verify":
        assert recorded["checks"] == ["C3_1_key"]


class TestVersionFlag:
    def test_version_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
