import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ptwishart import cli, reporting


def run_cli(args):
    return cli.main(args)


def test_usage_error_exit_code(tmp_path, capsys, monkeypatch):
    # every refusal comes before any runner starts
    for runner in ("run_spectrum", "run_extremes", "run_ppt_sweep", "run_pure_state"):
        monkeypatch.setattr(cli.experiments, runner, lambda config: pytest.fail("a runner started"))
    # an existing report file that cannot be written; root ignores permission
    # bits, so os.access is what refuses it
    read_only = tmp_path / "read_only.json"
    read_only.write_text("")
    access = os.access
    monkeypatch.setattr(cli.os, "access", lambda path, mode: path != str(read_only) and access(path, mode))
    # argv, and a word the one-line message must contain
    rows = [
        (["spectrum", "--alpha", "2", "--p", "8"], "--p"),
        (["spectrum", "--d", "4", "--d1", "4"], "--d1"),
        (["spectrum", "--d1", "4"], "--d2"),
        (["ppt", "--alpha", "2"], "unrecognized arguments: --alpha"),
        (["nonsense"], "nonsense"),
        (["spectrum", "--format", "xml"], "xml"),
        (["spectrum", "--alpha", "0"], "alpha"),
        (["spectrum", "--alpha", "nan"], "alpha"),
        (["spectrum", "--alpha", "inf"], "alpha"),
        (["extremes", "--alpha", "-1"], "alpha"),
        (["ppt", "--alphas", "nan"], "alpha"),
        (["ppt", "--alphas", "2", "-1"], "alpha"),
        (["laws", "--alpha", "0"], "alpha"),
        (["spectrum", "--d", "4", "--out", str(tmp_path / "missing" / "r.json")], "missing"),
        (["selftest", "--out", str(tmp_path)], str(tmp_path)),
        (["spectrum", "--d", "4", "--out", str(read_only)], "read_only.json"),
        (["spectrum", "--p", "0"], "p must"),
        (["extremes", "--p", "0"], "p must"),
        (["spectrum", "--p", "-4"], "p must"),
        # an ancilla beyond 2**62 is refused before any draw
        (["spectrum", "--d", "3", "--p", "100000000000000000000"], "p must"),
        (["spectrum", "--d", "3", "--p", "5000000000000000000"], "p must"),
        (["spectrum", "--alpha", "1e300"], "p must"),
        (["ppt", "--alphas", "1e300"], "p must"),
        (["ppt", "--d", "2", "--ensemble", "mixture", "--alphas", "1e300"], "p must"),
        # a mixture state costs time linear in n * p, which is bounded by 2**30
        (["ppt", "--d", "2", "--ensemble", "mixture", "--alphas", "1e9", "--trials", "1"], "mixture"),
        (["spectrum", "--d", "2", "--ensemble", "mixture", "--p", "4000000000", "--trials", "1"], "mixture"),
        (["laws", "--alpha", "1e-100"], "alpha"),
        # 1 / alpha overflows to inf, and no law takes a non-finite parameter
        (["laws", "--alpha", "1e-320"], "alpha 1e-320"),
        # the supports narrow, relative to their midpoints, until a density grid
        # repeats its x values: about 1 at a large alpha, about 1/alpha at a small one
        (["laws", "--alpha", "1e30"], "alpha 1e+30 is too large"),
        (["laws", "--alpha", "1e-40"], "alpha 1e-40 is too small"),
        (["spectrum", "--check", "--tol", "nan"], "tol"),
        (["ppt", "--field", "real"], "field"),
        (["pure", "--field", "real"], "field"),
        (["spectrum", "--check", "--tol", "-1"], "tol must be finite and >= 0"),
        (["spectrum", "--bins", "100001"], "bins"),
        (["laws", "--bins", "100001"], "bins"),
        # options a subcommand's runner does not read are refused, and never abbreviated
        (["ppt", "--check"], "--check"),
        (["ppt", "--tol", "1"], "--tol"),
        (["extremes", "--bins", "5"], "--bins"),
        (["pure", "--bins", "5"], "--bins"),
        (["pure", "--alpha", "2"], "--alpha"),
        (["pure", "--p", "4"], "--p"),
        (["spectrum", "--thr", "2"], "--thr"),
        # rejected by the config, before any trial worker starts
        (["spectrum", "--threads", "65"], "threads must be between 1 and 64"),
        # the trial count bounds the number of streams a run maps
        (["spectrum", "--d", "2", "--trials", "1000000000000"], "trials must be between 1 and 100000"),
        (["spectrum", "--d", "2", "--trials", "100000000000000000000"], "trials must be between 1 and 100000"),
        # a ppt run maps trials streams per alpha
        (["ppt", "--d", "2", "--trials", "20000", "--alphas", "1", "2", "3", "4", "5", "6"],
         "ppt maps trials * alphas streams, at most 100000, got 20000 * 6"),
        # a spectrum report lists every eigenvalue and histogram, so its size is bounded
        (["spectrum", "--trials", "9083"], "spectrum report lists"),
        (["spectrum", "--d", "1", "--bins", "100000", "--trials", "50"], "spectrum report lists"),
        (["spectrum", "--seed", "-1"], "master_seed"),
        (["pure", "--d1", "2", "--d2", "3"], "square"),
        (["spectrum", "--tol", "0.1"], "needs check"),
        (["ppt", "--alphas", "8", "2"], "strictly increasing"),
        (["pure", "--method", "eigh"], "--method"),
        # one trial's n x n matrix alone (n = 10**6) is 16 TB
        (["extremes", "--d", "1000", "--trials", "1"], "of memory here"),
        # one pure state at d = 10**5 holds arrays of 10**10 entries
        (["pure", "--d", "100000", "--trials", "1"], "of memory here"),
    ]
    for argv, word in rows:
        # a warning would print ahead of the message
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(argv) == 1, argv
        assert [str(w.message) for w in caught] == [], argv
        err = capsys.readouterr().err
        assert err.startswith("ptwishart: usage error:") and err.count("\n") == 1, (argv, err)
        assert word in err, (argv, err)


def test_spectrum_writes_deterministic_json(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["spectrum", "--d", "5", "--trials", "2", "--seed", "7", "--out"]
    assert run_cli(args + [str(out1)]) == 0
    assert run_cli(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["config"]["d1"] == 5
    assert report["config"]["master_seed"] == 7


def test_csv_output(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli(["extremes", "--d", "4", "--trials", "2", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(reporting.CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 3  # two trials, three statistics each


def test_selftest_exit_zero(tmp_path):
    out = tmp_path / "selftest.json"
    assert run_cli(["selftest", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True


def test_check_mode_threshold_miss(tmp_path):
    out = tmp_path / "ext.json"
    code = run_cli(["extremes", "--d", "4", "--trials", "2", "--check", "--tol", "1e-9", "--out", str(out)])
    assert code == 3
    code = run_cli(["extremes", "--d", "4", "--trials", "2", "--check", "--tol", "10", "--out", str(out)])
    assert code == 0


def test_pure_subcommand(tmp_path):
    out = tmp_path / "pure.json"
    assert run_cli(["pure", "--d", "6", "--trials", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["ensemble"] == "pure"
    assert report["theory"]["moments"]["moment_k2"] == 1.0


def test_ppt_subcommand(tmp_path):
    out = tmp_path / "ppt.json"
    assert run_cli(["ppt", "--d", "3", "--trials", "3", "--alphas", "2", "8", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [e["alpha"] for e in report["aggregates"]["per_alpha"]] == [2.0, 8.0]


def test_thread_budget_goes_to_stderr_only(capsys):
    argv = ["ppt", "--d", "3", "--trials", "3", "--alphas", "2", "8", "--format", "csv"]
    budgets = {
        "1": r"1 trial worker x default BLAS threads",
        "2": r"2 trial workers (x \d+ BLAS threads?|, BLAS threads not managed)",
    }
    for threads, budget in budgets.items():
        assert run_cli(argv + ["--threads", threads]) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(rf"ptwishart: ppt finished in \d+\.\d\ds \({budget}, peak RSS [1-9]\d* MB\)\n", captured.err), captured.err
        assert "finished" not in captured.out and "worker" not in captured.out and "RSS" not in captured.out


def test_laws_subcommand_stdout(capsys):
    assert run_cli(["laws", "--alpha", "1", "--bins", "8"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    values = {rec["statistic"]: rec["value"] for rec in report["records"]}
    assert values["marchenko_pastur:moment_k3"] == 5.0
    # at alpha = 1e20 the supports are narrow, but every grid point is distinct
    assert run_cli(["laws", "--alpha", "1e20"]) == 0
    tables = json.loads(capsys.readouterr().out)["density_tables"]
    assert [len(set(table["x"])) for table in tables.values()] == [101] * 3


def test_unbalanced_shape(tmp_path):
    out = tmp_path / "u.json"
    assert run_cli(["spectrum", "--d1", "6", "--d2", "4", "--trials", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["d1"] == 6 and report["config"]["d2"] == 4
    assert len(report["spectra"][0]["eigenvalues"]) == 24


# small runs of every subcommand; --check with a loose tol adds the checks block
SHAPE_ARGV = {
    "spectrum": ["--d", "3", "--trials", "2", "--check", "--tol", "10"],
    "extremes": ["--d", "3", "--trials", "2", "--check", "--tol", "10"],
    "ppt": ["--d", "2", "--trials", "2", "--alphas", "2", "8"],
    "pure": ["--d", "3", "--trials", "2", "--check", "--tol", "10"],
    "selftest": [],
    "laws": ["--bins", "4"],
}


def _key_paths(node, path=""):
    """Leaf paths of a JSON value, with list positions written as []."""
    if isinstance(node, dict):
        leaves = {leaf for key, value in node.items() for leaf in _key_paths(value, f"{path}/{key}")}
        return leaves or {path}
    if isinstance(node, list):
        leaves = {leaf for value in node for leaf in _key_paths(value, path + "[]")}
        return leaves or {path + "[]"}
    return {path}


def _report_shapes(tmp_path) -> dict:
    """Per subcommand: sorted JSON key paths, and each CSV row without its value."""
    shapes = {}
    for subcommand, argv in SHAPE_ARGV.items():
        out = tmp_path / f"{subcommand}.json"
        assert run_cli([subcommand, *argv, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        rows = list(csv.reader(io.StringIO(reporting.emit_csv(report))))[1:]
        shapes[subcommand] = {
            "json_paths": sorted(_key_paths(report)),
            "csv_keys": [",".join(row[:-1]) for row in rows],
        }
    return shapes


def test_report_shapes(tmp_path):
    # platform-independent: key names and record keys, never eigenvalues
    expected = json.loads((Path(__file__).parent / "report_shapes.json").read_text())
    assert _report_shapes(tmp_path) == expected


def test_cli_import_leaves_scipy_out():
    # scipy.linalg and scipy.integrate cost most of a run's start-up, and numpy's
    # OpenBLAS serves every routine the package calls
    code = "import sys, ptwishart.cli; print(sorted({'scipy.linalg', 'scipy.integrate'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
