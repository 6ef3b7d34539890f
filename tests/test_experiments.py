import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptwishart import _blas, experiments, reporting
from ptwishart.errors import ParameterError
from ptwishart.experiments import (
    ExperimentConfig,
    _run_trials,
    run_extremes,
    run_laws,
    run_ppt_sweep,
    run_pure_state,
    run_selftest,
    run_spectrum,
)


def small_config(**kwargs):
    base = dict(subcommand="spectrum", d1=6, d2=6, trials=3, alpha=4.0, master_seed=11)
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_config_resolves_p_from_alpha():
    config = small_config(d1=5, d2=5, alpha=3.0)
    assert config.resolved_p == 75
    assert config.effective_alpha == 3.0
    assert small_config(d1=10, d2=10, alpha=4.1).resolved_p == 410
    config = small_config(alpha=None, p=77)
    assert config.resolved_p == 77
    assert config.effective_alpha == pytest.approx(77 / 36)
    with pytest.raises(ParameterError):
        _ = small_config(alpha=2.0, p=10).resolved_p
    with pytest.raises(ParameterError):
        _ = small_config(alpha=None, p=None).resolved_p


def test_spectrum_report_structure_and_rescaling():
    report = run_spectrum(small_config(ensemble="induced"))
    stats = report["aggregates"]["statistics"]
    # the rescaled state spectrum has unit first moment, exactly
    assert stats["moment_k1"]["mean"] == pytest.approx(1.0, abs=1e-9)
    assert report["scale"] == "state_rescaled"
    assert len(report["spectra"]) == 3
    assert len(report["spectra"][0]["eigenvalues"]) == 36
    names = {rec["statistic"] for rec in report["records"]}
    assert {"moment_k1", "centered_moment_k4", "ks_semicircle", "lambda_min", "lambda_max", "support_fraction"} <= names


def test_spectrum_trace_matches_wishart_trace():
    # partial transposition preserves the trace, so moment_k1 of Y equals that of W
    report = run_spectrum(small_config(ensemble="wishart"))
    for rec in report["records"]:
        if rec["statistic"] == "moment_k1":
            assert rec["value"] == pytest.approx(1.0, abs=0.2)


def test_reports_are_deterministic():
    for runner, config in [
        (run_spectrum, small_config()),
        (run_extremes, small_config(subcommand="extremes")),
        (run_pure_state, small_config(subcommand="pure", ensemble="pure", alpha=None)),
        (run_ppt_sweep, small_config(subcommand="ppt", ensemble="induced", alpha=None, alphas=(2.0, 8.0))),
        # two trial workers, each with its share of the BLAS threads
        (run_ppt_sweep, small_config(subcommand="ppt", ensemble="induced", alpha=None, alphas=(2.0, 8.0),
                                     threads=2)),
    ]:
        first = reporting.emit_json(runner(config))
        second = reporting.emit_json(runner(config))
        assert first == second


def test_reports_independent_of_thread_count():
    one = run_spectrum(small_config(threads=1))
    two = run_spectrum(small_config(threads=2))
    assert one["records"] == two["records"]
    assert one["aggregates"] == two["aggregates"]


def blas_counts() -> list[int]:
    return [get() for get, _, _ in _blas._copies()]


def test_trial_workers_split_the_blas_threads():
    if not _blas._copies():
        pytest.skip("no OpenBLAS copy is mapped into this process")
    before = blas_counts()
    starts = [start for _, _, start in _blas._copies()]
    for workers in (2, 3):
        seen = []
        config = small_config(threads=workers, trials=workers)
        _run_trials(config, lambda stream: seen.append(blas_counts()) or {}, p=1, alpha=1.0)
        assert seen == [[max(1, start // workers) for start in starts]] * workers
        assert blas_counts() == before

    def boom(stream):
        raise RuntimeError("trial failed")

    with pytest.raises(RuntimeError, match="trial failed"):
        _run_trials(small_config(threads=2), boom, p=1, alpha=1.0)
    assert blas_counts() == before


def test_one_worker_leaves_blas_alone(monkeypatch):
    def refuse(workers):
        raise AssertionError("one worker must not touch the BLAS thread counts")

    monkeypatch.setattr(experiments._blas, "split", refuse)
    for config in (small_config(threads=1), small_config(threads=2, trials=1)):
        assert experiments._trial_workers(config) == 1
        assert experiments.thread_budget(config) == "1 trial worker x default BLAS threads"
        run_spectrum(config)


def test_two_workers_match_one_worker_at_the_per_worker_blas_count(tmp_path):
    counts = _blas.per_worker_counts(2)
    if not counts:
        pytest.skip("no OpenBLAS copy is mapped into this process")
    # one environment variable sets every copy, so they must agree
    assert len(set(counts)) == 1, counts
    root = Path(__file__).resolve().parent.parent
    base = [sys.executable, "-m", "ptwishart", "ppt", "--d", "15", "--trials", "4", "--seed", "5"]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    reports = []
    for threads, extra_env in (("2", {}), ("1", {"OPENBLAS_NUM_THREADS": str(counts[0])})):
        out = tmp_path / f"threads{threads}.json"
        subprocess.run(base + ["--threads", threads, "--out", str(out)], env={**env, **extra_env},
                       check=True, capture_output=True, timeout=300)
        reports.append(json.loads(out.read_text()))
    assert reports[0]["records"] == reports[1]["records"]
    assert reports[0]["aggregates"] == reports[1]["aggregates"]



def test_json_round_trip():
    report = run_extremes(small_config(subcommand="extremes"))
    text = reporting.emit_json(report)
    assert reporting.parse_json(text) == report


def test_csv_schema():
    report = run_extremes(small_config(subcommand="extremes"))
    text = reporting.emit_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "subcommand,d1,d2,p,alpha,field,trial,statistic,value"
    assert len(lines) == 1 + len(report["records"])
    first = lines[1].split(",")
    assert first[0] == "extremes" and first[1] == "6" and first[2] == "6"


def test_extremes_requires_wishart():
    with pytest.raises(ParameterError):
        run_extremes(small_config(subcommand="extremes", ensemble="induced"))


def test_extremes_check_mode():
    report = run_extremes(small_config(subcommand="extremes", check=True, tol=1e-9))
    assert report["all_checks_pass"] is False
    report = run_extremes(small_config(subcommand="extremes", check=True, tol=10.0))
    assert report["all_checks_pass"] is True


def test_ppt_sweep_structure():
    config = small_config(subcommand="ppt", ensemble="induced", alpha=None, alphas=(2.0, 8.0), trials=4, d1=3, d2=3)
    report = run_ppt_sweep(config)
    per_alpha = report["aggregates"]["per_alpha"]
    assert [entry["alpha"] for entry in per_alpha] == [2.0, 8.0]
    assert per_alpha[0]["p"] == 18 and per_alpha[1]["p"] == 72
    for entry in per_alpha:
        assert 0.0 <= entry["ci_low"] <= entry["ppt_frequency"] <= entry["ci_high"] <= 1.0
    assert set(report["aggregates"]["monotone"]) == {"frequencies", "non_decreasing", "adjacent_inversions"}
    with pytest.raises(ParameterError):
        run_ppt_sweep(small_config(subcommand="ppt", ensemble="induced", alpha=None, alphas=()))
    config = small_config(subcommand="ppt", ensemble="induced", alpha=None, alphas=(8.2,), trials=1,
                          d1=15, d2=15)
    assert run_ppt_sweep(config)["aggregates"]["per_alpha"][0]["p"] == 1845


def test_pure_state_methods_agree():
    base = dict(subcommand="pure", ensemble="pure", alpha=None, d1=6, d2=6, trials=5, master_seed=3)
    formula = run_pure_state(ExperimentConfig(**base, method="schmidt"))
    direct = run_pure_state(ExperimentConfig(**base, method="eigh"))
    for rec_f, rec_d in zip(formula["records"], direct["records"]):
        assert rec_f["statistic"] == rec_d["statistic"]
        assert rec_f["value"] == pytest.approx(rec_d["value"], abs=1e-8)


def test_pure_state_requires_square_shape():
    with pytest.raises(ParameterError):
        run_pure_state(small_config(subcommand="pure", ensemble="pure", alpha=None, d1=2, d2=3))


def test_selftest_all_pass():
    report = run_selftest()
    assert report["all_pass"] is True
    names = [item["name"] for item in report["items"]]
    assert "nc_count_k8" in names
    assert "admissible_triple_count_k6" in names
    failures = [item for item in report["items"] if not item["pass"]]
    assert failures == []


def test_laws_report():
    report = run_laws(alpha=4.0, bins=16)
    assert report["config"] == {"subcommand": "laws", "alpha": 4.0, "bins": 16}
    values = {rec["statistic"]: rec["value"] for rec in report["records"]}
    assert values["semicircle_std:moment_k4"] == 2.0
    assert values["product_semicircle:moment_k4"] == 4.0
    assert values["marchenko_pastur:moment_k2"] == pytest.approx(1.25)
    assert values["semicircle_shifted:moment_k2"] == pytest.approx(1.25)
    tables = report["density_tables"]
    assert set(tables) == {"semicircle_std", "semicircle_shifted", "marchenko_pastur"}
    assert len(tables["semicircle_std"]["x"]) == 17
    # json round trip of a laws report
    assert reporting.parse_json(reporting.emit_json(report)) == report
