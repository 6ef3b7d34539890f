"""Acceptance suite: one test per criterion, printed as a pass/fail line each.

Combinatorial criteria 1-3 and the law identities of criterion 4 assert the
exact items of one run_selftest() call, and criteria 1-3 hold its elapsed time
to each criterion's runtime budget; Monte Carlo criteria run at fixed seeds
with the stated finite-size margins.
"""

import time

import numpy as np
import pytest

from ptwishart import (
    BipartiteShape,
    ProductSemicircle,
    SampleStream,
    Semicircle,
    WishartParams,
    catalan,
    hermitian_eigenvalues,
    partial_transpose,
    pt_spectrum_from_schmidt,
    sample_pure_state,
    sample_wishart,
    schmidt_coefficients,
)
from ptwishart import reporting
from ptwishart.experiments import (
    ExperimentConfig,
    _quadrature_suite,
    run_extremes,
    run_laws,
    run_ppt_sweep,
    run_pure_state,
    run_selftest,
    run_spectrum,
)

SEED = 20260809
THREADS = 4


def _criterion(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def selftest_items():
    """One run_selftest() call for criteria 1-4: its items by name and its elapsed time."""
    start = time.monotonic()
    report = run_selftest()
    return {item["name"]: item for item in report["items"]}, time.monotonic() - start


def _item_is(items, name, want):
    """The self-test item expects `want` and found it."""
    return items[name]["expected"] == items[name]["actual"] == want


def test_criterion_1_combinatorics_exactness(selftest_items):
    items, elapsed = selftest_items
    expected_nc = [1, 2, 5, 14, 42, 132, 429, 1430]
    ok = all(_item_is(items, f"nc_count_k{k}", want) for k, want in zip(range(1, 9), expected_nc))
    ok = ok and all(_item_is(items, f"chording_count_k{2 * k}", catalan(k)) for k in range(1, 7))
    counts = {k: items[f"admissible_triple_count_k{k}"] for k in range(1, 7)}
    ok = ok and all(item["expected"] == item["actual"] for item in counts.values())
    ok = ok and [counts[2]["actual"], counts[4]["actual"], counts[6]["actual"]] == [1, 2, 5]
    ok = ok and counts[1]["actual"] == counts[3]["actual"] == counts[5]["actual"] == 0
    _criterion("criterion 1: combinatorics exactness", ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_2_kreweras_suite(selftest_items):
    items, elapsed = selftest_items
    ok = all(_item_is(items, f"kreweras_suite_k{k}", "ok") for k in range(1, 9))
    _criterion("criterion 2: Kreweras suite", ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_3_wishart_moment_oracle(selftest_items):
    items, elapsed = selftest_items
    ok = all(_item_is(items, f"wishart_admissible_bijection_k{k}", "ok") for k in range(1, 7))
    ok = ok and all(_item_is(items, f"wishart_matching_bounds_k{k}", "ok") for k in range(1, 6))
    _criterion("criterion 3: Wishart moment-method oracle", ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_4_law_identities(selftest_items):
    items, _ = selftest_items
    # SC(0,1) moment 2k == catalan(k) == MP(1) moment k for k <= 8
    ok = _item_is(items, "sc_mp_catalan_identity", "ok")
    # density mass within 1e-8 and quadrature moments k = 1..8 within 1e-6 of
    # the closed forms: the self-test's items for MP(alpha), and the same suite
    # for the two semicircles it does not integrate
    ok = ok and all(_item_is(items, f"mp_quadrature_alpha_{alpha}", "ok") for alpha in (0.5, 1.0, 2.0, 4.0))
    ok = ok and all(_quadrature_suite(law) == "ok" for law in (Semicircle(0.0, 1.0), Semicircle(1.0, 0.25)))
    _criterion("criterion 4: law identities", ok)


def test_criterion_5_esd_convergence():
    config = ExperimentConfig(
        subcommand="spectrum", d1=30, d2=30, trials=20, alpha=4.0,
        ensemble="wishart", field="complex", master_seed=SEED, threads=THREADS,
    )
    report = run_spectrum(config)
    stats = report["aggregates"]["statistics"]
    targets = {1: 0.0, 2: 0.25, 3: 0.0, 4: 0.125}
    margins = {1: 0.05, 2: 0.05, 3: 0.05, 4: 0.10}
    ok = True
    for k in (1, 2, 3, 4):
        ok = ok and abs(stats[f"centered_moment_k{k}"]["mean"] - targets[k]) <= margins[k]
    mean_ks = stats["ks_semicircle"]["mean"]
    ok = ok and mean_ks <= 0.08
    per_trial_support = [
        rec["value"] for rec in report["records"] if rec["statistic"] == "support_fraction"
    ]
    ok = ok and all(v >= 0.99 for v in per_trial_support)
    _criterion("criterion 5: ESD convergence", ok, f"mean KS {mean_ks:.4f}")


def test_criterion_6_extreme_eigenvalues():
    ok = True
    details = []
    for alpha, tol, lo_target, hi_target in [(4.0, 0.25, 0.0, 2.0), (1.0, 0.3, -1.0, 3.0)]:
        config = ExperimentConfig(
            subcommand="extremes", d1=40, d2=40, trials=10, alpha=alpha,
            ensemble="wishart", field="complex", master_seed=SEED, threads=THREADS,
        )
        report = run_extremes(config)
        mins = [r["value"] for r in report["records"] if r["statistic"] == "lambda_min"]
        maxs = [r["value"] for r in report["records"] if r["statistic"] == "lambda_max"]
        ok = ok and all(abs(v - lo_target) <= tol for v in mins)
        ok = ok and all(abs(v - hi_target) <= tol for v in maxs)
        if alpha == 4.0:
            mean_dev = report["aggregates"]["statistics"]["diag_deviation"]["mean"]
            ok = ok and mean_dev <= 0.15
        worst = max(
            max(abs(v - hi_target) for v in maxs), max(abs(v - lo_target) for v in mins)
        )
        details.append(f"alpha={alpha:g} worst dev {worst:.3f}")
    _criterion("criterion 6: extreme eigenvalues", ok, "; ".join(details))


def test_criterion_7_ppt_threshold():
    config = ExperimentConfig(
        subcommand="ppt", d1=15, d2=15, trials=50, ensemble="induced",
        alphas=(2.0, 3.0, 6.0, 8.0), master_seed=SEED, threads=THREADS,
    )
    report = run_ppt_sweep(config)
    freq = {entry["alpha"]: entry["ppt_frequency"] for entry in report["aggregates"]["per_alpha"]}
    ok = freq[2.0] == 0.0 and freq[8.0] >= 0.9 and freq[3.0] < freq[6.0]
    _criterion(
        "criterion 7: PPT threshold",
        ok,
        f"freq(2)={freq[2.0]:.2f} freq(3)={freq[3.0]:.2f} freq(6)={freq[6.0]:.2f} freq(8)={freq[8.0]:.2f}",
    )


def test_criterion_8_pure_state_pt():
    ok = True
    # formula spectrum against direct eigendecomposition, 20 states per size
    for d in range(2, 7):
        shape = BipartiteShape(d, d)
        for t in range(20):
            psi = sample_pure_state(shape, SampleStream(SEED, 1000 * d + t))
            formula = d * pt_spectrum_from_schmidt(schmidt_coefficients(psi, shape))
            rho = np.outer(psi, psi.conj())
            direct = d * hermitian_eigenvalues(partial_transpose(rho, shape))
            ok = ok and np.max(np.abs(formula - direct)) <= 1e-8
    config = ExperimentConfig(
        subcommand="pure", d1=50, d2=50, trials=20, ensemble="pure",
        master_seed=SEED,
    )
    stats = run_pure_state(config)["aggregates"]["statistics"]
    law = ProductSemicircle()
    m2, m4 = stats["moment_k2"]["mean"], stats["moment_k4"]["mean"]
    ok = ok and abs(m2 - law.moment(2)) <= 0.1
    ok = ok and abs(m4 - law.moment(4)) <= 0.4
    _criterion("criterion 8: pure-state partial transpose", ok, f"m2={m2:.3f} m4={m4:.3f}")


def test_criterion_9_structural_invariants():
    rng = np.random.default_rng(SEED)
    ok = True
    # involution and trace/Frobenius invariance of the block transposition
    for d1, d2 in [(3, 3), (2, 5)]:
        shape = BipartiteShape(d1, d2)
        a = rng.standard_normal((shape.n, shape.n)) + 1j * rng.standard_normal((shape.n, shape.n))
        a = (a + a.conj().T) / 2
        b = partial_transpose(a, shape)
        ok = ok and np.array_equal(partial_transpose(b, shape), a)
        ok = ok and abs(np.trace(b) - np.trace(a)) <= 1e-12 * abs(np.trace(a))
        ok = ok and abs(np.linalg.norm(b) - np.linalg.norm(a)) <= 1e-12 * np.linalg.norm(a)
    # Wishart positive semidefiniteness
    for field in ("real", "complex"):
        w = sample_wishart(WishartParams(n=16, p=24, field=field), SampleStream(SEED, 5))
        vals = hermitian_eigenvalues(w)
        ok = ok and vals[0] >= -1e-10 * np.abs(vals).max()
    # determinism of every report type under a fixed seed
    runs = [
        (run_spectrum, ExperimentConfig(subcommand="spectrum", d1=5, d2=5, trials=2, alpha=4.0, master_seed=SEED)),
        (run_extremes, ExperimentConfig(subcommand="extremes", d1=5, d2=5, trials=2, alpha=4.0, master_seed=SEED)),
        (run_ppt_sweep, ExperimentConfig(subcommand="ppt", d1=3, d2=3, trials=2, ensemble="induced", alphas=(2.0, 8.0), master_seed=SEED)),
        # two trial workers, each with its share of the BLAS threads
        (run_ppt_sweep, ExperimentConfig(subcommand="ppt", d1=6, d2=6, trials=3, ensemble="induced", alphas=(2.0, 8.0), master_seed=SEED, threads=2)),
        (run_pure_state, ExperimentConfig(subcommand="pure", d1=5, d2=5, trials=2, ensemble="pure", master_seed=SEED)),
    ]
    for runner, config in runs:
        ok = ok and reporting.emit_json(runner(config)) == reporting.emit_json(runner(config))
    ok = ok and reporting.emit_json(run_laws(2.0, 8)) == reporting.emit_json(run_laws(2.0, 8))
    ok = ok and reporting.emit_json(run_selftest()) == reporting.emit_json(run_selftest())
    _criterion("criterion 9: structural invariants", ok)


def test_criterion_10_two_qubit_ppt_frequency():
    """The PPT frequency of two-qubit states under the Hilbert-Schmidt measure.

    At d1 = d2 = 2 a state is PPT exactly when it is separable (Peres;
    Horodecki, Horodecki & Horodecki), and an induced state with p = n = 4
    (alpha = 1) is distributed by the Hilbert-Schmidt measure (Zyczkowski &
    Sommers).  Its separability probability is 8/33, Slater's conjecture,
    which this Monte Carlo checks: the frequency over 20,000 trials must lie
    within 4 standard errors of 8/33.  A draw without the partial transpose
    is always PPT, and a Bartlett factor whose chi-square degrees of freedom
    are off by one gives about 0.43.
    """
    config = ExperimentConfig(
        subcommand="ppt", d1=2, d2=2, trials=20000, ensemble="induced",
        alphas=(1.0,), master_seed=0, threads=1,
    )
    (entry,) = run_ppt_sweep(config)["aggregates"]["per_alpha"]
    expected = 8 / 33
    z = (entry["ppt_frequency"] - expected) / np.sqrt(expected * (1 - expected) / config.trials)
    ok = entry["p"] == 4 and abs(z) <= 4.0
    _criterion("criterion 10: two-qubit PPT frequency", ok, f"freq={entry['ppt_frequency']:.5f} z={z:+.2f}")
