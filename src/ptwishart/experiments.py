"""Monte Carlo experiment runners behind the command-line interface.

`ExperimentConfig.__post_init__` does every check of a run, so a bad input is
refused before any computation.  Each public runner defines one trial as a
function of its SampleStream and maps it with `_run_trials`, the one trial
loop, over streams 0..count-1 (ppt maps its whole grid at once: grid point ai
draws streams ai * trials + t).  With two or more trial workers the loop sets
numpy's OpenBLAS to max(1, start-up thread count // workers) threads while
they run, so the cores are split, not oversubscribed.  A trial holds one n x n
array: `pt_eigenvalues`, or for the two ends `pt_extreme_eigenvalues`,
transposes its `_draw` in place and solves it there, and `worker_memory` is
what a worker holds at its peak, which the config checks against
`memory_budget` before any trial.
A report is a pure function of its config, `threads` included, on a given machine; with two or
more workers its values can differ from a one-worker run in the last bits,
because the BLAS thread count changes the order of floating-point sums.
`_records` builds the report rows and `_report` assembles config echo,
platform and RNG provenance, and the `--check` block around the runner's
aggregates and theory block.  The theory blocks of spectrum, extremes, ppt
and laws read their moments, edges and PPT threshold from `laws.reference`,
the one place that names a run's limit law; pure keeps its product law.
"""

from __future__ import annotations

import os
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from math import isfinite, sqrt

import numpy as np

from . import _blas, reporting
from .ensembles import (
    SampleStream,
    WishartParams,
    ancilla_dim,
    check_ancilla,
    sample_induced_state,
    sample_mixture_state,
    sample_pure_state,
    sample_wishart,
    _draw_bytes,
)
from .errors import ParameterError
from .laws import PPT_THRESHOLD_ALPHA, MarchenkoPastur, ProductSemicircle, Semicircle, quadrature_moment, reference
from .linalg import BipartiteShape, pt_eigenvalues, pt_extreme_eigenvalues
from .partitions import (
    _couples_match,
    admissible_triples,
    catalan,
    chordings,
    interleaved_union,
    is_noncrossing,
    kreweras_complement,
    noncrossing_partitions,
    set_partitions,
    wishart_admissible_couples,
    wishart_matching_stats,
)
from .spectra import (
    SpectralSample,
    diag_deviation,
    empirical_moment,
    esd_fraction,
    extremes,
    histogram,
    ks_distance,
    ppt_gauge,
    schmidt_coefficients,
)

MOMENT_ORDERS = tuple(range(1, 9))
SUPPORT_PAD = 0.5

# subcommand: the ensembles its runner samples
ENSEMBLES = {
    "spectrum": ("wishart", "induced", "mixture"),
    "extremes": ("wishart",),
    "ppt": ("induced", "mixture"),
    "pure": ("pure",),
}
DEFAULT_BINS = 100
MAX_BINS = 10**5
MAX_THREADS = 64
# bounds the number of streams a run maps (`ExperimentConfig.streams`: its
# trials, times the alpha grid's size for ppt), not the size of its report;
# each stream's result is held until the report is built
MAX_TRIALS = 10**5
# largest number of values a spectrum report lists: each trial lists its n
# eigenvalues and a histogram of 2 * bins + 1 values.  A run peaks at about
# 125 bytes per value (held floats plus the rendered JSON), so about 1.3 GB
# at the bound
MAX_SPECTRUM_VALUES = 10**7
# largest n * p of a mixture state: sample_mixture_state costs 65-90 ns per
# entry on 2 cores, so one trial at the bound takes about 70-90 s
MAX_MIXTURE_ENTRIES = 2**30


# a pure-state trial holds its state of n = d**2 entries and the SVD's copy of
# it, never an n x n matrix: ru_maxrss rose by 34-42 bytes per entry at
# d = 1000-3000, falling with d; larger d is admitted by extrapolation
PURE_ENTRY_BYTES = 48


def _cgroup_limits():
    """The readable memory limits of this process's cgroups: memory.max for
    cgroup v2, where "max" is no limit, and memory.limit_in_bytes for v1; each
    at the process's cgroup path or else at the mount's root, as in a container."""
    try:
        with open("/proc/self/cgroup") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return
    for line in lines:
        hierarchy, controllers, path = line.split(":", 2)
        if hierarchy == "0":
            root, name = "/sys/fs/cgroup", "memory.max"
        elif "memory" in controllers.split(","):
            root, name = "/sys/fs/cgroup/memory", "memory.limit_in_bytes"
        else:
            continue
        for directory in (root + path, root):
            try:
                with open(os.path.join(directory, name)) as fh:
                    value = fh.read().strip()
            except OSError:
                continue
            if value != "max":
                yield int(value)
            break


def memory_budget() -> int | None:
    """Bytes the trial workers may hold together: the physical memory, or a
    lower cgroup limit; None when neither can be read.  Only reads."""
    limits = list(_cgroup_limits())
    try:
        limits.append(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (ValueError, OSError):
        pass
    return min(limits, default=None)


def worker_memory(n: int, p: int, field: str, ensemble: str) -> int:
    """Bytes one trial worker holds at its peak for an n x n matrix drawn with
    ancilla p: the trial's one n x n buffer, LAPACK's workspace, and what the
    draw holds beside the buffer (`ensembles._draw_bytes`); for a pure state
    of n entries, PURE_ENTRY_BYTES per entry."""
    if ensemble == "pure":
        return PURE_ENTRY_BYTES * n
    item = 8 if field == "real" else 16
    return item * n * (n + _blas.SOLVER_WORK_ROWS) + _draw_bytes(n, p, field, ensemble == "mixture")


def _check_alpha(alpha: float):
    if not (isfinite(alpha) and alpha > 0):
        raise ParameterError(f"alpha must be finite and > 0, got {alpha}")


def _check_bins(bins: int):
    if not 1 <= bins <= MAX_BINS:
        raise ParameterError(f"bins must be between 1 and {MAX_BINS}, got {bins}")


@dataclass
class ExperimentConfig:
    """Configuration of one harness run; fully determines every trial record."""

    subcommand: str
    d1: int
    d2: int
    trials: int = 10
    alpha: float | None = None
    p: int | None = None
    field: str = "complex"
    ensemble: str = "wishart"
    master_seed: int = 0
    bins: int = DEFAULT_BINS
    threads: int = 1
    alphas: tuple[float, ...] | None = None
    check: bool = False
    tol: float | None = None

    def __post_init__(self):
        shape = self.shape  # refuses a factor dimension < 1
        if self.subcommand not in ENSEMBLES:
            raise ParameterError(f"subcommand must be one of {tuple(ENSEMBLES)}, got {self.subcommand!r}")
        if self.ensemble not in ENSEMBLES[self.subcommand]:
            raise ParameterError(f"{self.subcommand} ensemble must be one of {ENSEMBLES[self.subcommand]}, "
                                 f"got {self.ensemble!r}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ParameterError(f"trials must be between 1 and {MAX_TRIALS}, got {self.trials}")
        SampleStream(self.master_seed)  # refuses a seed outside 0..2**64-1
        _check_bins(self.bins)
        if self.bins != DEFAULT_BINS and self.subcommand != "spectrum":
            raise ParameterError(f"bins is read by spectrum only, not by {self.subcommand}")
        if self.subcommand == "spectrum" and self.trials * (shape.n + 2 * self.bins + 1) > MAX_SPECTRUM_VALUES:
            raise ParameterError(f"a spectrum report lists trials * (n + 2 * bins + 1) values, at most "
                                 f"{MAX_SPECTRUM_VALUES}, got {self.trials} * ({shape.n} + 2 * {self.bins} + 1)")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ParameterError(f"threads must be between 1 and {MAX_THREADS}, got {self.threads}")
        if self.alphas is not None:
            self.alphas = tuple(float(a) for a in self.alphas)
        if self.subcommand == "ppt":
            if not self.alphas or self.alpha is not None or self.p is not None:
                raise ParameterError("ppt needs a nonempty alpha grid and no single alpha or p")
        elif self.alphas is not None:
            raise ParameterError(f"an alpha grid is read by ppt only, not by {self.subcommand}")
        elif self.subcommand == "pure":
            if self.alpha is not None or self.p is not None:
                raise ParameterError("pure-state runs have no ancilla: give no alpha or p")
            if self.d1 != self.d2:
                raise ParameterError("pure-state spectra require a square bipartition d1 == d2")
        elif (self.p is None) == (self.alpha is None):
            raise ParameterError("exactly one of alpha and p must be given")
        ps = [p for _, p in self.grid] or [0]  # a pure state has no ancilla
        # the monotone block compares neighbouring grid entries
        if self.alphas and any(b <= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ParameterError(f"the alpha grid must be strictly increasing, got {list(self.alphas)}")
        if self.streams > MAX_TRIALS:
            raise ParameterError(f"ppt maps trials * alphas streams, at most {MAX_TRIALS}, "
                                 f"got {self.trials} * {len(self.alphas)}")
        p = max(ps)
        if self.ensemble == "mixture" and shape.n * p > MAX_MIXTURE_ENTRIES:
            raise ParameterError(f"mixture states need n * p <= 2**30, got n={shape.n}, p={p}")
        if self.tol is not None and not (isfinite(self.tol) and self.tol >= 0):
            raise ParameterError(f"tol must be finite and >= 0, got {self.tol}")
        if self.subcommand == "ppt" and (self.check or self.tol is not None):
            raise ParameterError("ppt has no threshold check: give no check or tol")
        if self.tol is not None and not self.check:
            raise ParameterError("tol is the check threshold, so it needs check")
        if self.ensemble != "wishart" and self.field != "complex":
            raise ParameterError(f"field must be complex for the {self.ensemble} ensemble")
        budget = memory_budget()
        if budget is not None:
            workers = _trial_workers(self)
            need = max(worker_memory(shape.n, q, self.field, self.ensemble) for q in ps)
            if workers * need > budget:
                raise ParameterError(f"{workers} trial worker{'s' if workers > 1 else ''} x {need / 2**20:.1f} MB "
                                     f"= {workers * need / 2**20:.1f} MB is more than the {budget / 2**20:.1f} MB "
                                     f"of memory here; use fewer threads or a smaller d")

    @property
    def shape(self) -> BipartiteShape:
        return BipartiteShape(self.d1, self.d2)

    @property
    def grid(self) -> list[tuple[float, int]]:
        """The run's (alpha, p) pairs: one for spectrum and extremes, alpha = p / n
        when p is given; one per alphas entry for ppt; none for pure.  Refuses
        an alpha that is not finite and > 0, and an empty or oversized ancilla."""
        n = self.shape.n
        if self.p is not None:
            check_ancilla(self.p)
            return [(self.p / n, self.p)]
        alphas = self.alphas or (() if self.alpha is None else (self.alpha,))
        grid = []
        for alpha in alphas:
            _check_alpha(alpha)
            grid.append((float(alpha), ancilla_dim(alpha, n)))
        return grid

    @property
    def streams(self) -> int:
        """How many streams the run maps: trials per grid point for ppt, trials otherwise."""
        return self.trials * len(self.grid) if self.subcommand == "ppt" else self.trials


def _record(subcommand, statistic, value, d1="", d2="", p="", alpha="", field="", trial="") -> dict:
    """One report row: the CSV columns, blank where a run has no such axis."""
    row = (subcommand, d1, d2, p, alpha, field, trial, statistic, value)
    return dict(zip(reporting.CSV_COLUMNS, row))


def _trial_workers(config: ExperimentConfig) -> int:
    return min(config.threads, config.streams)


def thread_budget(config: ExperimentConfig) -> str:
    """How `_run_trials` splits the cores, e.g. "2 trial workers x 1 BLAS thread"."""
    workers = _trial_workers(config)
    if workers == 1:
        return "1 trial worker x default BLAS threads"
    blas = _blas.per_worker_count(workers)
    if blas is None:
        return f"{workers} trial workers, BLAS threads not managed"
    return f"{workers} trial workers x {blas} BLAS thread{'' if blas == 1 else 's'}"


def _run_trials(config: ExperimentConfig, trial) -> list:
    """The one trial loop: `trial(SampleStream(master_seed, s))` for each of the
    run's streams s (ppt's whole grid), in stream order, each built in its worker."""

    def one(s: int):
        return trial(SampleStream(config.master_seed, s))

    workers = _trial_workers(config)
    if workers == 1:
        return [one(s) for s in range(config.streams)]
    # the pool is joined before the BLAS thread counts are restored
    with _blas.split(workers), ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, range(config.streams)))


def _records(config: ExperimentConfig, per_trial: list[dict], p, alpha) -> list[dict]:
    """The report rows of trials 0..len(per_trial)-1, statistics sorted by name."""
    return [_record(config.subcommand, name, stats[name], config.d1, config.d2, p, alpha, config.field, t)
            for t, stats in enumerate(per_trial) for name in sorted(stats)]


def _aggregate(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    stderr = float(arr.std(ddof=1) / sqrt(arr.size)) if arr.size > 1 else 0.0
    return {
        "mean": float(arr.mean()),
        "stderr": stderr,
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


def _aggregate_stats(per_trial: list[dict]) -> dict:
    names = sorted(per_trial[0])
    return {"statistics": {name: _aggregate([s[name] for s in per_trial]) for name in names}}


def _report(config: ExperimentConfig, records: list[dict], check=None, **sections) -> dict:
    """Report of a trial runner.  `check` is a (name, value, default threshold)
    triple; under config.check the value passes when it is <= the threshold."""
    echo = asdict(config)
    if echo["alphas"] is not None:
        echo["alphas"] = list(echo["alphas"])
    report = {
        "config": echo,
        "platform": reporting.platform_block(),
        "rng": {"bit_generator": "PCG64", "master_seed": config.master_seed},
        "records": records,
        "scale": "wishart_raw" if config.ensemble == "wishart" else "state_rescaled",
        **sections,
    }
    if config.check and check is not None:
        name, value, default = check
        threshold = config.tol if config.tol is not None else default
        passed = value <= threshold
        report["checks"] = [{"name": name, "value": value, "threshold": threshold, "pass": passed}]
        report["all_checks_pass"] = passed
    return report


def _draw(config: ExperimentConfig, p: int, stream: SampleStream) -> np.ndarray:
    """One trial's matrix: a Wishart sample, or a state of the config's ensemble."""
    n = config.shape.n
    if config.ensemble == "wishart":
        return sample_wishart(WishartParams(n=n, p=p, field=config.field), stream)
    sample = sample_induced_state if config.ensemble == "induced" else sample_mixture_state
    return sample(n, p, stream)


def run_spectrum(config: ExperimentConfig) -> dict:
    """Spectrum of partially transposed samples against the shifted semicircle.

    Wishart samples are used raw; states are rescaled by the total dimension
    n so the limit law is O(1) in both modes.
    """
    shape = config.shape
    n = shape.n
    [(alpha, p)] = config.grid
    law = reference(alpha)
    centered_law = Semicircle(0.0, law.variance)
    lo_edge, hi_edge = law.support

    def one_trial(stream: SampleStream) -> tuple[dict, dict]:
        w = _draw(config, p, stream)
        if config.ensemble != "wishart":
            w *= n
        sample = SpectralSample(pt_eigenvalues(w, shape))
        centered = SpectralSample(sample.eigenvalues - law.mean)
        stats = {}
        for k in MOMENT_ORDERS:
            stats[f"moment_k{k}"] = empirical_moment(sample, k)
            stats[f"centered_moment_k{k}"] = empirical_moment(centered, k)
        stats["ks_semicircle"] = ks_distance(sample, law)
        stats["lambda_min"], stats["lambda_max"] = extremes(sample)
        stats["support_fraction"] = esd_fraction(sample, lo_edge - SUPPORT_PAD, hi_edge + SUPPORT_PAD)
        edges, counts = histogram(sample, bins=config.bins)
        return stats, {
            "trial": stream.stream_index,
            "eigenvalues": sample.eigenvalues.tolist(),
            "histogram": {"bin_edges": edges.tolist(), "counts": counts.tolist()},
        }

    results = _run_trials(config, one_trial)
    per_trial = [stats for stats, _ in results]
    spectra = [entry for _, entry in results]
    aggregates = _aggregate_stats(per_trial)
    theory = {
        "law": {"kind": "semicircle", "mean": law.mean, "variance": law.variance},
        "support": [lo_edge, hi_edge],
        "moments": {f"moment_k{k}": law.moment(k) for k in MOMENT_ORDERS},
        "centered_moments": {f"centered_moment_k{k}": centered_law.moment(k) for k in MOMENT_ORDERS},
    }
    mean_ks = aggregates["statistics"]["ks_semicircle"]["mean"]
    return _report(
        config, _records(config, per_trial, p, alpha), ("mean_ks_semicircle", mean_ks, 0.08),
        aggregates=aggregates, spectra=spectra, theory=theory,
    )


def run_extremes(config: ExperimentConfig) -> dict:
    """Extreme eigenvalues of partially transposed Wishart samples."""
    shape = config.shape
    [(alpha, p)] = config.grid
    edge_lo, edge_hi = reference(alpha).support

    def one_trial(stream: SampleStream) -> dict:
        w = _draw(config, p, stream)
        # the partial transpose keeps W's diagonal entry for entry; read before
        # the eigensolve overwrites w
        deviation = diag_deviation(w)
        lam_lo, lam_hi = pt_extreme_eigenvalues(w, shape)
        return {"lambda_min": lam_lo, "lambda_max": lam_hi, "diag_deviation": deviation}

    per_trial = _run_trials(config, one_trial)
    worst = max(
        max(abs(s["lambda_max"] - edge_hi), abs(s["lambda_min"] - edge_lo)) for s in per_trial
    )
    return _report(
        config, _records(config, per_trial, p, alpha), ("extreme_eigenvalue_deviation", worst, 0.25),
        aggregates=_aggregate_stats(per_trial), theory={"edge_low": edge_lo, "edge_high": edge_hi},
    )


def _wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def run_ppt_sweep(config: ExperimentConfig) -> dict:
    """PPT frequency of random states across a grid of ancilla aspect ratios.

    The whole grid is one map: grid point ai draws streams ai * trials + t,
    and its records number those trials t.
    """
    shape = config.shape
    n, trials = shape.n, config.trials
    grid = config.grid

    def one_trial(stream: SampleStream) -> dict:
        _, p = grid[stream.stream_index // trials]
        result = ppt_gauge(_draw(config, p, stream), shape, overwrite=True)
        stats = {
            "is_ppt": 1.0 if result.is_ppt else 0.0,
            "min_eigenvalue_scaled": n * result.min_eigenvalue,
        }
        if result.gauge is not None:
            stats["gauge"] = result.gauge
        return stats

    results = _run_trials(config, one_trial)
    records, per_alpha = [], []
    for ai, (alpha, p) in enumerate(grid):
        per_trial = results[ai * trials:(ai + 1) * trials]
        records += _records(config, per_trial, p, alpha)
        hits = sum(int(s["is_ppt"]) for s in per_trial)
        ci_low, ci_high = _wilson_interval(hits, trials)
        min_scaled = [s["min_eigenvalue_scaled"] for s in per_trial]
        entry = {
            "alpha": alpha,
            "p": p,
            "trials": trials,
            "ppt_frequency": hits / trials,
            "ci_low": ci_low,
            "ci_high": ci_high,
            "mean_min_eigenvalue_scaled": _aggregate(min_scaled)["mean"],
        }
        if "gauge" in per_trial[0]:
            entry["mean_gauge"] = _aggregate([s["gauge"] for s in per_trial])["mean"]
        per_alpha.append(entry)

    freqs = [e["ppt_frequency"] for e in per_alpha]
    inversions = sum(1 for a, b in zip(freqs, freqs[1:]) if b < a)
    aggregates = {
        "per_alpha": per_alpha,
        "monotone": {
            "frequencies": freqs,
            "non_decreasing": inversions == 0,
            "adjacent_inversions": inversions,
        },
    }
    theory = {
        "threshold_alpha": PPT_THRESHOLD_ALPHA,
        "min_eigenvalue_limits": [reference(a).support[0] for a, _ in grid],
    }
    return _report(config, records, aggregates=aggregates, theory=theory)


def run_pure_state(config: ExperimentConfig) -> dict:
    """Moments k = 1..6 of d * rho^PT for uniform pure states on a square bipartition.

    Beside the Schmidt coefficients li, rho^PT has the eigenvalues +-sqrt(li * lj), i < j,
    so Tr (rho^PT)^k is P_k for odd k and P_(k/2)**2 for even k, with P_j = sum_i li**j.
    """
    shape = config.shape
    d = shape.d1
    law = ProductSemicircle()

    def one_trial(stream: SampleStream) -> dict:
        lam = schmidt_coefficients(sample_pure_state(shape, stream), shape)
        power = {j: float(np.sum(lam**j)) for j in (1, 2, 3, 5)}
        return {f"moment_k{k}": d ** (k - 2) * (power[k] if k % 2 else power[k // 2] ** 2) for k in range(1, 7)}

    per_trial = _run_trials(config, one_trial)
    aggregates = _aggregate_stats(per_trial)
    dev = abs(aggregates["statistics"]["moment_k2"]["mean"] - law.moment(2))
    # no ancilla in the pure-state model; blank p and alpha in the records
    return _report(
        config, _records(config, per_trial, p="", alpha=""), ("mean_moment_k2_deviation", dev, 0.1),
        aggregates=aggregates, theory={"moments": {f"moment_k{k}": law.moment(k) for k in range(1, 7)}},
    )


# ---------------------------------------------------------------------------
# exhaustive combinatorics self-test


def _kreweras_suite(k: int) -> str:
    seen = set()
    for q in noncrossing_partitions(k):
        comp = kreweras_complement(q)
        if not is_noncrossing(comp):
            return f"complement of {q} is crossing"
        if q.n_blocks + comp.n_blocks != k + 1:
            return f"block counts of {q} and {comp} do not sum to k+1"
        if not is_noncrossing(interleaved_union(q, comp)):
            return f"interleaved union of {q} and {comp} is crossing"
        comp_blocks = comp.blocks()
        # q's labels 0-based, with r[k] = r[0] standing for the successor of k
        r = q.rgs + q.rgs[:1]
        singletons = {i + 1 for i in range(k) if r[i] == r[i + 1]}
        failed = singletons.symmetric_difference(b[0] for b in comp_blocks if len(b) == 1)
        if failed:
            return f"singleton rule fails at {min(failed)} for {q}"
        # the pair rule r[i] == r[j + 1] != r[j] == r[i + 1] for i < j, found by
        # looking up (r[j + 1], r[j]) among the steps (r[i], r[i + 1])
        steps = defaultdict(list)
        for i in range(k):
            steps[r[i], r[i + 1]].append(i)
        pairs = set()
        for j in range(k):
            if r[j] != r[j + 1]:
                pairs.update((i + 1, j + 1) for i in steps[r[j + 1], r[j]] if i < j)
        failed = pairs.symmetric_difference(b for b in comp_blocks if len(b) == 2)
        if failed:
            return f"pair rule fails at {min(failed)} for {q}"
        seen.add(comp.rgs)
    if len(seen) != catalan(k):
        return f"complement is not injective on NC({k})"
    return "ok"


def _matching_bounds_suite(k: int) -> str:
    parts = list(set_partitions(k))
    for pa in parts:
        for pc in parts:
            if not _couples_match(pa.rgs, pc.rgs):
                continue
            stats = wishart_matching_stats(pa.rgs, pc.rgs)
            if not stats.distinct_values <= stats.distinct_couples + 1 <= k + 1:
                return f"value/couple bound fails for a={pa}, c={pc}"
            if stats.heavy_count > 4 * (k + 1 - stats.distinct_values):
                return f"heavy-position bound fails for a={pa}, c={pc}"
    return "ok"


def _admissible_bijection_suite(k: int, couples) -> str:
    images = set()
    for pa, pc in couples:
        if not is_noncrossing(pa):
            return f"row partition {pa} is crossing"
        if not is_noncrossing(pc):
            return f"ancilla partition {pc} is crossing"
        if kreweras_complement(pa) != pc:
            return f"{pc} is not the Kreweras complement of {pa}"
        images.add(pc.rgs)
    if len(images) != len(couples):
        return "class map is not injective"
    if images != {q.rgs for q in noncrossing_partitions(k)}:
        return "class map is not onto NC(k)"
    if len(couples) != catalan(k):
        return f"expected {catalan(k)} classes, found {len(couples)}"
    return "ok"


def _admissible_structure_suite(k: int, triples) -> str:
    chording_set = {q.rgs for q in chordings(k)}
    for pa, pb, pc in triples:
        if pa != pb:
            return f"row and column partitions differ: {pa} vs {pb}"
        if pc.n_blocks != k // 2:
            return f"ancilla partition {pc} does not have k/2 blocks"
        if pc.rgs not in chording_set:
            return f"ancilla partition {pc} is not a chording"
    return "ok"


def _sc_mp_identity_suite() -> str:
    std, mp1 = Semicircle(0.0, 1.0), MarchenkoPastur(1.0)
    for k in range(0, 9):
        want = float(catalan(k))
        if std.moment(2 * k) != want:
            return f"semicircle moment {2 * k} != catalan({k})"
        if mp1.moment(k) != want:
            return f"MP(1) moment {k} != catalan({k})"
    return "ok"


def _quadrature_suite(law) -> str:
    """The law's density has mass 1 within 1e-8, and its quadrature moments
    k = 1..8 are the closed forms within 1e-6."""
    mass = quadrature_moment(law, 0)
    if abs(mass - 1.0) > 1e-8:
        return f"density mass {mass} is not 1"
    for k in MOMENT_ORDERS:
        if abs(quadrature_moment(law, k) - law.moment(k)) > 1e-6:
            return f"quadrature moment {k} disagrees with the closed form"
    return "ok"


def run_selftest() -> dict:
    """Exhaustive combinatorics and law-identity suite; exact expectations."""
    items = []

    def add(name, expected, actual):
        items.append({"name": name, "expected": expected, "actual": actual, "pass": expected == actual})

    for k in range(1, 9):
        actual = sum(1 for q in set_partitions(k) if is_noncrossing(q))
        add(f"nc_count_k{k}", catalan(k), actual)
    for k in range(1, 7):
        add(f"chording_count_k{2 * k}", catalan(k), sum(1 for _ in chordings(2 * k)))
    for k in range(1, 9):
        add(f"kreweras_suite_k{k}", "ok", _kreweras_suite(k))
    for k in range(1, 6):
        add(f"wishart_matching_bounds_k{k}", "ok", _matching_bounds_suite(k))
    # each order's classes are enumerated once and shared by the three checks below
    couples = {k: wishart_admissible_couples(k) for k in range(1, 7)}
    triples = {k: list(admissible_triples(couples[k])) for k in couples}
    for k in couples:
        add(f"wishart_admissible_bijection_k{k}", "ok", _admissible_bijection_suite(k, couples[k]))
    for k in couples:
        expected = catalan(k // 2) if k % 2 == 0 else 0
        add(f"admissible_triple_count_k{k}", expected, len(triples[k]))
    for k in (2, 4, 6):
        add(f"admissible_triple_structure_k{k}", "ok", _admissible_structure_suite(k, triples[k]))
    add("sc_mp_catalan_identity", "ok", _sc_mp_identity_suite())
    for alpha in (0.5, 1.0, 2.0, 4.0):
        add(f"mp_quadrature_alpha_{alpha}", "ok", _quadrature_suite(MarchenkoPastur(alpha)))

    return {
        "config": {"subcommand": "selftest"},
        "platform": reporting.platform_block(),
        "items": items,
        "all_pass": all(item["pass"] for item in items),
        "records": [_record("selftest", it["name"], 1.0 if it["pass"] else 0.0) for it in items],
    }


def run_laws(alpha: float = 4.0, bins: int = DEFAULT_BINS) -> dict:
    """Theory tables: moments and density grids for the three limit laws."""
    _check_alpha(alpha)
    _check_bins(bins)
    try:
        laws = [
            ("semicircle_std", Semicircle(0.0, 1.0)),
            ("semicircle_shifted", reference(alpha)),
            ("marchenko_pastur", MarchenkoPastur(alpha)),
            ("product_semicircle", ProductSemicircle()),
        ]
    except ParameterError as exc:  # 1 / alpha overflows to inf
        raise ParameterError(f"alpha {alpha} is too small: {exc}") from None
    records = []
    density_tables = {}
    for name, law in laws:
        for k in range(0, 9):
            try:
                moment = law.moment(k)
            except OverflowError:
                raise ParameterError(f"alpha {alpha} is too small: the {name} moment k={k} overflows") from None
            records.append(_record("laws", f"{name}:moment_k{k}", moment, alpha=alpha))
        if hasattr(law, "density"):
            lo, hi = law.support
            grid = np.linspace(lo, hi, bins + 1)
            if np.unique(grid).size < grid.size:
                raise ParameterError(f"alpha {alpha} is too {'large' if alpha > 1 else 'small'}: the {name} "
                                     f"support [{lo}, {hi}] is too narrow for {bins + 1} distinct grid points")
            density_tables[name] = {
                "x": grid.tolist(),
                "density": law.density(grid).tolist(),
                "support": [lo, hi],
                "atom": float(getattr(law, "atom", 0.0)),
            }
    return {
        "config": {"subcommand": "laws", "alpha": alpha, "bins": bins},
        "platform": reporting.platform_block(),
        "records": records,
        "density_tables": density_tables,
    }
