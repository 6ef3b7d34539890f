import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ptwishart import BipartiteShape, MarchenkoPastur, _blas, experiments, partitions, reporting, spectra
from ptwishart.ensembles import SampleStream, ancilla_dim, sample_induced_state, sample_pure_state
from ptwishart.errors import ParameterError
from ptwishart.laws import PPT_THRESHOLD_ALPHA, reference
from ptwishart.experiments import (
    ExperimentConfig,
    _quadrature_suite,
    _run_trials,
    run_extremes,
    run_laws,
    run_ppt_sweep,
    run_pure_state,
    run_selftest,
    run_spectrum,
)
from ptwishart.spectra import SpectralSample, empirical_moment, pt_spectrum_from_schmidt, schmidt_coefficients


def small_config(**kwargs):
    base = dict(subcommand="spectrum", d1=6, d2=6, trials=3, alpha=4.0, master_seed=11)
    base.update(kwargs)
    return ExperimentConfig(**base)


PURE = dict(subcommand="pure", ensemble="pure", alpha=None)
PPT = dict(subcommand="ppt", ensemble="induced", alpha=None, alphas=(2.0, 8.0))


def test_config_resolves_p_from_alpha():
    # the (alpha, p) grid: one pair for spectrum and extremes, one per alpha for ppt, none for pure
    assert small_config(d1=5, d2=5, alpha=3.0).grid == [(3.0, 75)]
    assert small_config(d1=10, d2=10, alpha=4.1).grid == [(4.1, 410)]
    assert small_config(alpha=None, p=77).grid == [(77 / 36, 77)]
    assert small_config(**PPT, d1=3, d2=3).grid == [(2.0, 18), (8.0, 72)]
    assert small_config(**PURE).grid == []
    # a property, not a field: the report's config block is unchanged
    assert "grid" not in dataclasses.asdict(small_config())


# one row per check in ExperimentConfig.__post_init__: overrides of small_config,
# and a word the refusal must contain
@pytest.mark.parametrize("overrides, word", [
    pytest.param(dict(d2=0), "factor dimensions", id="dimension"),
    pytest.param(dict(subcommand="laws"), "subcommand", id="unknown-subcommand"),
    pytest.param(dict(subcommand="extremes", ensemble="induced"), "ensemble", id="extremes-induced"),
    pytest.param(dict(PPT, ensemble="wishart"), "ensemble", id="ppt-wishart"),
    pytest.param(dict(trials=0), "trials", id="trials"),
    pytest.param(dict(trials=10**5 + 1), "trials must be between 1 and 100000",
                 id="trials-too-many"),
    pytest.param(dict(PPT, trials=5 * 10**4 + 1), r"^ppt maps trials \* alphas streams, at most 100000, "
                 r"got 50001 \* 2$", id="ppt-streams"),
    pytest.param(dict(d1=30, d2=30, trials=9083), "spectrum report lists", id="spectrum-report-size"),
    pytest.param(dict(d1=1, d2=1, trials=50, bins=10**5), "spectrum report lists", id="spectrum-report-bins"),
    pytest.param(dict(master_seed=-1), "master_seed", id="seed-negative"),
    pytest.param(dict(master_seed=2**64), "master_seed", id="seed-too-large"),
    pytest.param(dict(bins=0), "bins", id="bins"),
    pytest.param(dict(threads=65), "threads", id="threads"),
    pytest.param(dict(PPT, alphas=()), "nonempty alpha grid", id="ppt-empty-grid"),
    pytest.param(dict(PPT, alpha=4.0), "no single alpha or p", id="ppt-alpha"),
    pytest.param(dict(PPT, p=10), "no single alpha or p", id="ppt-p"),
    pytest.param(dict(alphas=(2.0, 8.0)), "ppt only", id="spectrum-grid"),
    pytest.param(dict(PURE, p=10), "no ancilla", id="pure-ancilla"),
    pytest.param(dict(PURE, d1=2, d2=3), "square", id="pure-nonsquare"),
    pytest.param(dict(p=10), "exactly one of alpha and p", id="alpha-and-p"),
    pytest.param(dict(alpha=None), "exactly one of alpha and p", id="no-ancilla"),
    pytest.param(dict(alpha=float("nan")), "alpha must be finite", id="alpha-nan"),
    pytest.param(dict(alpha=1e300), "p must be", id="alpha-oversized"),
    pytest.param(dict(alpha=None, p=0), "p must be", id="p-empty"),
    pytest.param(dict(PPT, alphas=(8.0, 2.0)), "strictly increasing", id="ppt-unordered-grid"),
    pytest.param(dict(PPT, alphas=(2.0, 2.0)), "strictly increasing", id="ppt-repeated-alpha"),
    pytest.param(dict(ensemble="mixture", alpha=None, d1=1, d2=1, p=2**30 + 1), "mixture", id="mixture-work"),
    pytest.param(dict(check=True, tol=-1.0), "tol must be finite", id="tol-negative"),
    pytest.param(dict(tol=0.1), "needs check", id="tol-without-check"),
    pytest.param(dict(ensemble="induced", field="real"), "field", id="state-field"),
    pytest.param(dict(PPT, check=True), "no threshold check", id="ppt-check"),
    pytest.param(dict(PPT, tol=0.1), "no threshold check", id="ppt-tol"),
    pytest.param(dict(subcommand="extremes", bins=7), "spectrum only", id="extremes-bins"),
    pytest.param(dict(PPT, bins=7), "spectrum only", id="ppt-bins"),
    pytest.param(dict(PURE, bins=7), "spectrum only", id="pure-bins"),
])
def test_config_refuses(overrides, word):
    with pytest.raises(ParameterError, match=word):
        small_config(**overrides)


def test_spectrum_report_bound():
    # configs only: 1000 trials of 1 + 2 * 4999 + 1 values reach the bound exactly
    assert experiments.MAX_SPECTRUM_VALUES == 10**7
    at_bound = dict(d1=1, d2=1, bins=4999)
    assert small_config(**at_bound, trials=1000).trials == 1000
    with pytest.raises(ParameterError, match="spectrum report"):
        small_config(**at_bound, trials=1001)
    # extremes and ppt list no spectra; ppt's two alphas map 2 * 5 * 10**4 streams
    assert small_config(subcommand="extremes", d1=30, d2=30, trials=10**5).trials == 10**5
    assert small_config(**PPT, d1=30, d2=30, trials=5 * 10**4).streams == 10**5


def test_memory_budget_refuses_workers_that_do_not_fit(monkeypatch):
    # configs only, with an injected budget: three workers fit, four do not,
    # and the worker count is never capped to fit
    need = experiments.worker_memory(36, 144, "complex", "wishart")
    monkeypatch.setattr(experiments, "memory_budget", lambda: 3 * need)
    assert small_config(threads=3, trials=4).threads == 3
    with pytest.raises(ParameterError, match=r"^4 trial workers x [0-9.]+ MB = [0-9.]+ MB is more than the "
                                             r"[0-9.]+ MB of memory here"):
        small_config(threads=4, trials=4)
    # one worker per trial at most, so 4 threads over 3 trials are 3 workers
    assert small_config(threads=4, trials=3).threads == 4
    with pytest.raises(ParameterError, match="memory"):
        small_config(**PPT, threads=4, trials=4)
    # the largest estimate over a ppt grid counts: at alpha = 0.5 (p < n) the
    # zherk factor sits beside the buffer, at alpha = 4 only lauum's scratch block
    grid = dict(PPT, d1=16, d2=16, trials=1)
    below = experiments.worker_memory(256, 128, "complex", "induced")
    assert below > experiments.worker_memory(256, 1024, "complex", "induced")
    monkeypatch.setattr(experiments, "memory_budget", lambda: below - 1)
    assert small_config(**dict(grid, alphas=(4.0,))).alphas == (4.0,)
    with pytest.raises(ParameterError, match="memory"):
        small_config(**dict(grid, alphas=(0.5, 4.0)))
    # pure states are bounded too: PURE_ENTRY_BYTES per entry of the n = 36 state
    pure = experiments.worker_memory(36, 0, "complex", "pure")
    monkeypatch.setattr(experiments, "memory_budget", lambda: 3 * pure)
    assert small_config(**PURE, threads=3, trials=4).threads == 3
    with pytest.raises(ParameterError, match=r"^4 trial workers x [0-9.]+ MB = [0-9.]+ MB is more than the "):
        small_config(**PURE, threads=4, trials=4)
    assert pure == experiments.PURE_ENTRY_BYTES * 36
    # an unreadable budget refuses nothing
    monkeypatch.setattr(experiments, "memory_budget", lambda: None)
    assert small_config(threads=4, trials=4).threads == 4


def test_worker_memory_counts_one_buffer_and_what_the_draw_holds_beside_it():
    rows = _blas.SOLVER_WORK_ROWS
    n = 1600
    # the lauum path: the buffer, the workspace and the Bartlett draw's scratch
    # block, 2**14 // n = 10 columns of n - 1 normals below the diagonal
    scratch = 10 * (n - 1)
    assert experiments.worker_memory(n, 4 * n, "complex", "wishart") == 16 * n * (n + rows) + 16 * scratch
    assert experiments.worker_memory(n, 4 * n, "real", "wishart") == 8 * n * (n + rows) + 8 * scratch
    assert experiments.worker_memory(n, 4 * n, "complex", "induced") == 16 * n * (n + rows) + 16 * scratch
    # zherk's rectangular factor and the scratch block beside the Gram buffer;
    # at n = 100 the block holds all 100 columns
    assert experiments.worker_memory(n, 100, "complex", "wishart") == 16 * n * (n + rows) + 16 * (n * 100 + scratch)
    assert experiments.worker_memory(100, 400, "real", "wishart") == 8 * 100 * (100 + rows) + 8 * 100 * (100 + 99)
    # a block of mixture vectors
    assert experiments.worker_memory(n, 4 * n, "complex", "mixture") == 16 * n * (n + rows) + 16 * n * 512


@pytest.mark.parametrize("files, expected", [
    pytest.param({"/proc/self/cgroup": "0::/job\n", "/sys/fs/cgroup/job/memory.max": "max\n"}, [],
                 id="v2-no-limit"),
    pytest.param({"/proc/self/cgroup": "0::/job\n", "/sys/fs/cgroup/job/memory.max": "1073741824\n"},
                 [2**30], id="v2"),
    pytest.param({"/proc/self/cgroup": "0::/job\n", "/sys/fs/cgroup/memory.max": "4096\n"}, [4096],
                 id="v2-namespace-root"),
    pytest.param({"/proc/self/cgroup": "4:memory:/job\n3:cpu:/job\n",
                  "/sys/fs/cgroup/memory/job/memory.limit_in_bytes": "2048\n"}, [2048], id="v1"),
    pytest.param({"/proc/self/cgroup": "4:cpu,memory:/job\n",
                  "/sys/fs/cgroup/memory/memory.limit_in_bytes": "2048\n"}, [2048], id="v1-namespace-root"),
    pytest.param({"/proc/self/cgroup": "3:cpu:/job\n"}, [], id="no-memory-controller"),
    pytest.param({}, [], id="no-cgroup-file"),
])
def test_cgroup_limits_are_read_from_memory_max_or_limit_in_bytes(monkeypatch, files, expected):
    def fake_open(path, *args, **kwargs):
        if path not in files:
            raise FileNotFoundError(path)
        return io.StringIO(files[path])

    monkeypatch.setattr(experiments, "open", fake_open, raising=False)
    assert list(experiments._cgroup_limits()) == expected
    budget = experiments.memory_budget()
    assert budget == min(expected + [os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")])


def test_mixture_work_bound():
    # configs only: nothing is sampled at either side of n * p = 2**30
    bound = experiments.MAX_MIXTURE_ENTRIES
    assert bound == 2**30
    mixture = dict(subcommand="spectrum", ensemble="mixture", alpha=None)
    ppt = dict(subcommand="ppt", ensemble="mixture", alpha=None, d1=2, d2=2)
    assert small_config(**mixture, d1=1, d2=1, p=bound).grid == [(bound, bound)]
    assert small_config(**ppt, alphas=(2.0, bound / 16)).alphas == (2.0, bound / 16)
    for config in (dict(mixture, d1=1, d2=1, p=bound + 1),
                   dict(mixture, d1=5, d2=1, p=None, alpha=(bound + 1) / 5),
                   dict(ppt, alphas=(2.0, bound / 16 + 0.25))):
        with pytest.raises(ParameterError, match="mixture"):
            small_config(**config)
    # the Wishart and induced draws cost O(n^2 min(n, p)) and keep only the 2**62 bound
    for ensemble in ("wishart", "induced"):
        assert small_config(ensemble=ensemble, alpha=None, d1=1, d2=1, p=bound + 1).grid == [(bound + 1, bound + 1)]


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


def test_reports_independent_of_thread_count():
    one = run_spectrum(small_config(threads=1))
    two = run_spectrum(small_config(threads=2))
    assert one["records"] == two["records"]
    assert one["aggregates"] == two["aggregates"]


def test_trial_workers_split_the_blas_threads():
    if _blas._threads() is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count symbols")
    blas_count, _, start = _blas._threads()
    before = blas_count()
    for workers in (2, 3):
        seen = []
        config = small_config(threads=workers, trials=workers)
        _run_trials(config, lambda stream: seen.append(blas_count()) or {})
        assert seen == [max(1, start // workers)] * workers
        assert blas_count() == before

    def boom(stream):
        raise RuntimeError("trial failed")

    with pytest.raises(RuntimeError, match="trial failed"):
        _run_trials(small_config(threads=2), boom)
    assert blas_count() == before


def test_one_worker_leaves_blas_alone(monkeypatch):
    def refuse(workers):
        raise AssertionError("one worker must not touch the BLAS thread counts")

    monkeypatch.setattr(experiments._blas, "split", refuse)
    for config in (small_config(threads=1), small_config(threads=2, trials=1)):
        assert experiments._trial_workers(config) == 1
        assert experiments.thread_budget(config) == "1 trial worker x default BLAS threads"
        run_spectrum(config)


@pytest.mark.parametrize("overrides, streams, workers", [
    pytest.param(dict(threads=2, trials=1), 1, 1, id="spectrum-one-trial"),
    pytest.param(dict(threads=3, trials=2), 2, 2, id="spectrum-two-trials"),
    # ppt maps each trial at each alpha: one trial over two alphas is two draws
    pytest.param(dict(PPT, threads=2, trials=1), 2, 2, id="ppt-one-trial"),
    pytest.param(dict(PPT, threads=4, trials=1, alphas=(2.0, 4.0, 8.0)), 3, 3, id="ppt-three-alphas"),
    pytest.param(dict(PPT, threads=1, trials=3), 6, 1, id="ppt-one-thread"),
    pytest.param(dict(PURE, threads=2, trials=1), 1, 1, id="pure-one-trial"),
])
def test_trial_workers_are_at_most_one_per_stream(monkeypatch, overrides, streams, workers):
    config = small_config(**overrides)
    assert config.streams == streams
    assert experiments._trial_workers(config) == workers
    seen = []
    monkeypatch.setattr(experiments._blas, "split", lambda count: seen.append(count) or contextlib.nullcontext())
    assert _run_trials(config, lambda stream: stream.stream_index) == list(range(streams))
    assert seen == ([workers] if workers > 1 else [])
    # the memory check counts the same workers
    need = max(experiments.worker_memory(config.shape.n, p, config.field, config.ensemble)
               for p in [p for _, p in config.grid] or [0])
    monkeypatch.setattr(experiments, "memory_budget", lambda: workers * need)
    small_config(**overrides)
    monkeypatch.setattr(experiments, "memory_budget", lambda: workers * need - 1)
    with pytest.raises(ParameterError, match=f"^{workers} trial worker"):
        small_config(**overrides)


def test_two_workers_match_one_worker_at_the_per_worker_blas_count(tmp_path):
    count = _blas.per_worker_count(2)
    if count is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count symbols")
    root = Path(__file__).resolve().parent.parent
    base = [sys.executable, "-m", "ptwishart", "ppt", "--d", "15", "--trials", "4", "--seed", "5"]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    reports = []
    for threads, extra_env in (("2", {}), ("1", {"OPENBLAS_NUM_THREADS": str(count)})):
        out = tmp_path / f"threads{threads}.json"
        subprocess.run(base + ["--threads", threads, "--out", str(out)], env={**env, **extra_env},
                       check=True, capture_output=True, timeout=300)
        reports.append(json.loads(out.read_text()))
    assert reports[0]["records"] == reports[1]["records"]
    assert reports[0]["aggregates"] == reports[1]["aggregates"]



@pytest.mark.parametrize("runner, subcommand, solver", [(run_spectrum, "spectrum", "pt_eigenvalues"),
                                                       (run_extremes, "extremes", "pt_extreme_eigenvalues")])
@pytest.mark.parametrize("d", [6, 16], ids=["herk", "lauum"])
def test_wishart_draw_is_the_eigensolve_buffer(monkeypatch, runner, subcommand, solver, d):
    # a trial holds one n x n buffer: the draw itself is transposed, checked
    # and solved in place, so no second n x n array is alive through the solve
    draws, solved = [], []
    sample, solve = experiments.sample_wishart, getattr(experiments, solver)

    def tracked_sample(params, stream):
        w = sample(params, stream)
        draws.append((w, w.copy()))
        return w

    def checked_solve(w, shape):
        values = solve(w, shape)
        drawn, before = draws[-1]
        solved.append(w is drawn and not np.array_equal(w, before))
        return values

    monkeypatch.setattr(experiments, "sample_wishart", tracked_sample)
    monkeypatch.setattr(experiments, solver, checked_solve)
    runner(small_config(subcommand=subcommand, d1=d, d2=d))
    assert solved == [True] * 3


@pytest.mark.parametrize("d", [1, 2, 3, 6, 20])
def test_pure_moments_equal_the_spectrum_route(d):
    # the power sums of the Schmidt coefficients give, trial by trial, the mean
    # of (d * eigenvalue)**k over the d**2-entry closed-form spectrum
    config = small_config(**PURE, d1=d, d2=d, trials=4)
    got = [(r["trial"], r["statistic"], r["value"]) for r in run_pure_state(config)["records"]]
    want = []
    for t in range(4):
        psi = sample_pure_state(config.shape, SampleStream(config.master_seed, t))
        sample = SpectralSample(d * pt_spectrum_from_schmidt(schmidt_coefficients(psi, config.shape)))
        want += [(t, f"moment_k{k}", empirical_moment(sample, k)) for k in range(1, 7)]
    assert [row[:2] for row in got] == [row[:2] for row in want]
    for (*_, value), (*_, expected) in zip(got, want):
        assert value == pytest.approx(expected, rel=1e-12, abs=0)


def test_pure_run_builds_no_spectrum(monkeypatch):
    called = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            called.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("pt_spectrum_from_schmidt", "empirical_moment"):
        real = getattr(spectra, name)
        for module in (spectra, experiments):
            monkeypatch.setattr(module, name, spy(name, real), raising=False)
    monkeypatch.setattr(SpectralSample, "__post_init__", spy("SpectralSample", SpectralSample.__post_init__))
    run_pure_state(small_config(**PURE, trials=2))
    assert called == []
    # the spies see a spectrum run's samples and moments
    run_spectrum(small_config(trials=1))
    assert {"SpectralSample", "empirical_moment"} <= set(called)


def test_pure_trial_holds_no_spectrum():
    # tracemalloc sees the state and its normalized copy, 32 bytes per entry;
    # building and sorting the d**2-entry spectrum peaked at 44
    d = 300
    config = small_config(**PURE, d1=d, d2=d, trials=1)
    run_pure_state(config)
    tracemalloc.start()
    try:
        run_pure_state(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 38 * d**2


def test_ppt_grid_maps_one_stream_per_grid_point_and_trial():
    # grid point ai draws stream ai * trials + t and numbers its records t;
    # at n = 9 no path depends on the BLAS thread count, so values compare exactly
    config = small_config(subcommand="ppt", ensemble="induced", alpha=None, alphas=(2.0, 8.0), trials=3,
                          d1=3, d2=3, threads=2)
    rows = [r for r in run_ppt_sweep(config)["records"] if r["statistic"] == "min_eigenvalue_scaled"]
    expected = []
    for ai, alpha in enumerate(config.alphas):
        p = ancilla_dim(alpha, 9)
        for t in range(3):
            rho = sample_induced_state(9, p, SampleStream(config.master_seed, ai * 3 + t))
            expected.append((alpha, p, t, 9 * experiments.ppt_gauge(rho, config.shape).min_eigenvalue))
    assert [(r["alpha"], r["p"], r["trial"], r["value"]) for r in rows] == expected


def test_one_ppt_draw_makes_few_c_calls():
    # each numpy call on a large enough array releases the GIL and takes it
    # back, so two trial workers overlap only where a draw makes few of them.
    # One induced d = 15 draw at alpha = 4 made 429 builtin (C-level) calls
    # when the Bartlett factor was drawn a column at a time, and makes 114
    # with numpy 2.4; the bound leaves a third for other numpy versions'
    # Python-level wrappers and stays below half of 429
    shape = BipartiteShape(15, 15)

    def draw(stream_index):
        rho = sample_induced_state(shape.n, 4 * shape.n, SampleStream(3, stream_index))
        return spectra.ppt_gauge(rho, shape, overwrite=True)

    draw(0)  # first-call set-up: symbol lookups, thread counts
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(arg) if event == "c_call" else None)
    try:
        draw(1)
    finally:
        sys.setprofile(None)
    assert len(calls) <= 152, Counter(getattr(c, "__qualname__", repr(c)) for c in calls).most_common(10)


def test_json_round_trip():
    report = run_extremes(small_config(subcommand="extremes"))
    text = reporting.emit_json(report)
    assert json.loads(text) == report


def test_csv_schema():
    report = run_extremes(small_config(subcommand="extremes"))
    text = reporting.emit_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "subcommand,d1,d2,p,alpha,field,trial,statistic,value"
    assert len(lines) == 1 + len(report["records"])
    first = lines[1].split(",")
    assert first[0] == "extremes" and first[1] == "6" and first[2] == "6"


@pytest.mark.parametrize("p", [pytest.param(77, id="p=77"), pytest.param(72, id="alpha=2")])
def test_extremes_edges_follow_an_explicit_p(p):
    # with p given, alpha = p / n sets the records' columns and the edges, the
    # support of reference(alpha), bit for bit the spectrum report's; at
    # alpha = 2, 1 - 2 / sqrt(alpha) would differ from it in the last bit
    config = dict(alpha=None, p=p, trials=1)
    report = run_extremes(small_config(subcommand="extremes", **config))
    alpha = p / 36
    support = run_spectrum(small_config(**config))["theory"]["support"]
    edges = [report["theory"]["edge_low"], report["theory"]["edge_high"]]
    assert np.array(edges).tobytes() == np.array(support).tobytes()
    assert tuple(edges) == reference(alpha).support
    assert {(r["p"], r["alpha"]) for r in report["records"]} == {(p, alpha)}


class _MovedLaw:
    """MarchenkoPastur(1) with its closed-form moment k moved by `by`; for k = 0
    an atom of mass `by` moves the quadrature mass alone."""

    def __init__(self, k, by):
        self.law, self.k, self.by = MarchenkoPastur(1.0), k, by
        self.support = self.law.support
        self.atom = by if k == 0 else 0.0

    def density(self, t):
        return self.law.density(t)

    def moment(self, j):
        return self.law.moment(j) + (self.by if j == self.k else 0.0)


@pytest.mark.parametrize("k", range(0, 9))
def test_quadrature_suite_holds_each_order_to_its_margin(k):
    # the suite behind the self-test's mp_quadrature items and criterion 4:
    # the mass within 1e-8 and every moment k = 1..8 within 1e-6
    tol = 1e-8 if k == 0 else 1e-6
    assert _quadrature_suite(_MovedLaw(k, 0.5 * tol)) == "ok"
    refusal = _quadrature_suite(_MovedLaw(k, 2.0 * tol))
    if k == 0:
        assert refusal.startswith("density mass ")
    else:
        assert refusal == f"quadrature moment {k} disagrees with the closed form"


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
    assert report["theory"] == {"threshold_alpha": PPT_THRESHOLD_ALPHA,
                                "min_eigenvalue_limits": [reference(a).support[0] for a in config.alphas]}
    config = small_config(subcommand="ppt", ensemble="induced", alpha=None, alphas=(8.2,), trials=1,
                          d1=15, d2=15)
    assert run_ppt_sweep(config)["aggregates"]["per_alpha"][0]["p"] == 1845


def test_selftest_all_pass(monkeypatch):
    # each order's couples and triples are enumerated once and shared by every check
    couple_orders, triple_orders = [], []
    enumerate_couples = partitions.wishart_admissible_couples
    enumerate_triples = partitions.admissible_triples

    def counting_couples(k):
        couple_orders.append(k)
        return enumerate_couples(k)

    def counting_triples(couples):
        triple_orders.append(couples[0][0].k)
        return enumerate_triples(couples)

    for module in (partitions, experiments):
        monkeypatch.setattr(module, "wishart_admissible_couples", counting_couples)
        monkeypatch.setattr(module, "admissible_triples", counting_triples)
    report = run_selftest()
    assert sorted(couple_orders) == sorted(triple_orders) == [1, 2, 3, 4, 5, 6]
    assert report["all_pass"] is True
    names = [item["name"] for item in report["items"]]
    assert "nc_count_k8" in names
    assert "admissible_triple_count_k6" in names
    failures = [item for item in report["items"] if not item["pass"]]
    assert failures == []


def test_selftest_pruned_call_counts(monkeypatch):
    # one run_selftest() tests 196 triples (one per couple) in place of 29,220,
    # and at k = 6 the matching condition of the 12,632 couples whose block
    # counts sum to 7 in place of 41,209
    order, match_calls, triple_calls = [None], Counter(), [0]
    enumerate_couples = partitions.wishart_admissible_couples
    couples_match = partitions._couples_match
    admissibility = partitions.triple_admissibility

    def spied_couples(k):
        order[0] = k
        try:
            return enumerate_couples(k)
        finally:
            order[0] = None

    def spied_match(a, c):
        match_calls[order[0]] += 1
        return couples_match(a, c)

    def spied_admissibility(a, b, c):
        triple_calls[0] += 1
        return admissibility(a, b, c)

    for module in (partitions, experiments):
        monkeypatch.setattr(module, "wishart_admissible_couples", spied_couples)
    monkeypatch.setattr(partitions, "_couples_match", spied_match)
    monkeypatch.setattr(partitions, "triple_admissibility", spied_admissibility)
    assert run_selftest()["all_pass"] is True
    assert 0 < match_calls[6] <= 12_632
    assert 0 < triple_calls[0] <= 200


def _failed_items(report):
    return {item["name"] for item in report["items"] if not item["pass"]}


def test_selftest_catches_a_wrong_kreweras_complement(monkeypatch):
    monkeypatch.setattr(experiments, "kreweras_complement", lambda q: q)
    report = run_selftest()
    assert "kreweras_suite_k4" in _failed_items(report)
    assert report["all_pass"] is False


def test_selftest_catches_a_matching_condition_that_always_holds(monkeypatch):
    for module in (partitions, experiments):
        monkeypatch.setattr(module, "_couples_match", lambda a, c: True)
    # this test is about the couples: the triple scan over the mutant's 12,632
    # couples at k = 6 would take about 15 s, so it yields nothing here
    monkeypatch.setattr(experiments, "admissible_triples", lambda couples: iter(()))
    failed = _failed_items(run_selftest())
    assert {"wishart_admissible_bijection_k1", "wishart_admissible_bijection_k2"}.isdisjoint(failed)
    assert {f"wishart_admissible_bijection_k{k}" for k in range(3, 7)} <= failed


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
    assert json.loads(reporting.emit_json(report)) == report
