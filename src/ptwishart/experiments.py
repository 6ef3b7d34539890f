"""Monte Carlo experiment runners behind the command-line interface.

Each public runner validates its config, defines one trial as a function of
its SampleStream, and hands it to `_run_trials`, the one trial loop.  That
loop builds stream `first_stream + t` inside the thread that runs trial t and
returns the per-trial statistics in stream order.  With two or more trial
workers it sets every OpenBLAS copy to max(1, start-up thread count // workers)
while they run, so the cores are split, not oversubscribed.  A report is a pure
function of its config, `threads` included, on a given machine; with two or
more workers its values can differ from a one-worker run in the last bits,
because the BLAS thread count changes the order of floating-point sums.
`_record` builds every report row and `_report` assembles config echo,
platform and RNG provenance, and the `--check` block around the runner's
aggregates and theory block.
"""

from __future__ import annotations

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
)
from .errors import ParameterError
from .laws import MarchenkoPastur, ProductSemicircle, Semicircle, quadrature_moment
from .linalg import BipartiteShape, hermitian_eigenvalues, partial_transpose
from .partitions import (
    admissible_triples,
    catalan,
    chordings,
    interleaved_union,
    is_noncrossing,
    kreweras_complement,
    mp_moment_via_noncrossing,
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
    pt_spectrum_from_schmidt,
    schmidt_coefficients,
)

MOMENT_ORDERS = tuple(range(1, 9))
SUPPORT_PAD = 0.5

MATRIX_ENSEMBLES = ("wishart", "induced", "mixture")
STATE_ENSEMBLES = ("induced", "mixture")
MAX_BINS = 10**5
MAX_THREADS = 64
# largest n * p of a mixture state: sample_mixture_state costs 65-90 ns per
# entry on 2 cores, so one trial at the bound takes about 70-90 s
MAX_MIXTURE_ENTRIES = 2**30


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
    bins: int = 100
    threads: int = 1
    alphas: tuple[float, ...] | None = None
    method: str = "schmidt"
    check: bool = False
    tol: float | None = None

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ParameterError(f"factor dimensions must be >= 1, got ({self.d1}, {self.d2})")
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        _check_bins(self.bins)
        if not 1 <= self.threads <= MAX_THREADS:
            raise ParameterError(f"threads must be between 1 and {MAX_THREADS}, got {self.threads}")
        if self.alphas is not None:
            self.alphas = tuple(float(a) for a in self.alphas)
        ancillas = []
        for alpha in (self.alpha,) + (self.alphas or ()):
            if alpha is not None:
                _check_alpha(alpha)
                ancillas.append(ancilla_dim(alpha, self.n))  # refuses an empty or oversized ancilla
        if self.p is not None:
            check_ancilla(self.p)
            ancillas.append(self.p)
        p = max(ancillas, default=0)
        if self.ensemble == "mixture" and self.n * p > MAX_MIXTURE_ENTRIES:
            raise ParameterError(f"mixture states need n * p <= 2**30, got n={self.n}, p={p}")
        if self.tol is not None and not (isfinite(self.tol) and self.tol >= 0):
            raise ParameterError(f"tol must be finite and >= 0, got {self.tol}")
        if self.ensemble != "wishart" and self.field != "complex":
            raise ParameterError(f"field must be complex for the {self.ensemble} ensemble")

    @property
    def n(self) -> int:
        return self.d1 * self.d2

    @property
    def resolved_p(self) -> int:
        """Ancilla dimension: explicit p, or ancilla_dim(alpha, d1 * d2)."""
        if (self.p is None) == (self.alpha is None):
            raise ParameterError("exactly one of alpha and p must be given")
        if self.p is not None:
            return self.p
        return ancilla_dim(self.alpha, self.n)

    @property
    def effective_alpha(self) -> float:
        if self.alpha is not None:
            return float(self.alpha)
        return self.resolved_p / self.n


def _record(subcommand, statistic, value, d1="", d2="", p="", alpha="", field="", trial="") -> dict:
    """One report row: the CSV columns, blank where a run has no such axis."""
    row = (subcommand, d1, d2, p, alpha, field, trial, statistic, value)
    return dict(zip(reporting.CSV_COLUMNS, row))


def _trial_workers(config: ExperimentConfig) -> int:
    return min(config.threads, config.trials)


def thread_budget(config: ExperimentConfig) -> str:
    """How `_run_trials` splits the cores, e.g. "2 trial workers x 1 BLAS thread"."""
    workers = _trial_workers(config)
    if workers == 1:
        return "1 trial worker x default BLAS threads"
    counts = _blas.per_worker_counts(workers)
    if not counts:
        return f"{workers} trial workers, BLAS threads not managed"
    blas = max(counts)
    return f"{workers} trial workers x {blas} BLAS thread{'' if blas == 1 else 's'}"


def _run_trials(config: ExperimentConfig, trial, p, alpha, first_stream: int = 0):
    """The one trial loop: maps `trial(stream)` over streams first_stream + t, t < trials;
    returns its dicts of named statistics in stream order and their records."""

    def one(t: int) -> dict:
        return trial(SampleStream(config.master_seed, first_stream + t))

    workers = _trial_workers(config)
    if workers > 1:
        # the pool is joined before the BLAS thread counts are restored
        with _blas.split(workers), ThreadPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(one, range(config.trials)))
    else:
        per_trial = [one(t) for t in range(config.trials)]
    records = [
        _record(config.subcommand, name, stats[name], config.d1, config.d2, p, alpha,
                config.field, t)
        for t, stats in enumerate(per_trial)
        for name in sorted(stats)
    ]
    return per_trial, records


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
        **sections,
    }
    if config.check and check is not None:
        name, value, default = check
        threshold = config.tol if config.tol is not None else default
        passed = value <= threshold
        report["checks"] = [{"name": name, "value": value, "threshold": threshold, "pass": passed}]
        report["all_checks_pass"] = passed
    return report


def _sample_state(ensemble: str, n: int, p: int, stream: SampleStream) -> np.ndarray:
    if ensemble == "induced":
        return sample_induced_state(n, p, stream)
    if ensemble == "mixture":
        return sample_mixture_state(n, p, stream)
    raise ParameterError(f"unknown state ensemble {ensemble!r}")


def run_spectrum(config: ExperimentConfig) -> dict:
    """Spectrum of partially transposed samples against the shifted semicircle.

    Wishart samples are used raw; states are rescaled by the total dimension
    n so the limit law is O(1) in both modes.
    """
    if config.ensemble not in MATRIX_ENSEMBLES:
        raise ParameterError(f"spectrum ensemble must be one of {MATRIX_ENSEMBLES}")
    shape = BipartiteShape(config.d1, config.d2)
    n, p = shape.n, config.resolved_p
    alpha = config.effective_alpha
    law = Semicircle(1.0, 1.0 / alpha)
    centered_law = Semicircle(0.0, 1.0 / alpha)
    lo_edge, hi_edge = law.support
    spectra = [None] * config.trials

    def one_trial(stream: SampleStream) -> dict:
        if config.ensemble == "wishart":
            w = sample_wishart(WishartParams(n=n, p=p, field=config.field), stream)
            mat = partial_transpose(w, shape)
        else:
            rho = _sample_state(config.ensemble, n, p, stream)
            mat = n * partial_transpose(rho, shape)
        sample = SpectralSample(hermitian_eigenvalues(mat))
        centered = SpectralSample(sample.eigenvalues - 1.0)
        stats = {}
        for k in MOMENT_ORDERS:
            stats[f"moment_k{k}"] = empirical_moment(sample, k)
            stats[f"centered_moment_k{k}"] = empirical_moment(centered, k)
        stats["ks_semicircle"] = ks_distance(sample, law)
        stats["lambda_min"], stats["lambda_max"] = extremes(sample)
        stats["support_fraction"] = esd_fraction(sample, lo_edge - SUPPORT_PAD, hi_edge + SUPPORT_PAD)
        edges, counts = histogram(sample, bins=config.bins)
        # stream index == trial index here; each trial fills its own slot
        spectra[stream.stream_index] = {
            "trial": stream.stream_index,
            "eigenvalues": sample.eigenvalues.tolist(),
            "histogram": {"bin_edges": edges.tolist(), "counts": counts.tolist()},
        }
        return stats

    per_trial, records = _run_trials(config, one_trial, p, alpha)
    aggregates = _aggregate_stats(per_trial)
    theory = {
        "law": {"kind": "semicircle", "mean": 1.0, "variance": 1.0 / alpha},
        "support": [lo_edge, hi_edge],
        "moments": {f"moment_k{k}": law.moment(k) for k in MOMENT_ORDERS},
        "centered_moments": {f"centered_moment_k{k}": centered_law.moment(k) for k in MOMENT_ORDERS},
    }
    mean_ks = aggregates["statistics"]["ks_semicircle"]["mean"]
    return _report(
        config, records, ("mean_ks_semicircle", mean_ks, 0.08),
        scale="wishart_raw" if config.ensemble == "wishart" else "state_rescaled",
        aggregates=aggregates, spectra=spectra, theory=theory,
    )


def run_extremes(config: ExperimentConfig) -> dict:
    """Extreme eigenvalues of partially transposed Wishart samples."""
    if config.ensemble != "wishart":
        raise ParameterError("extremes runs on the wishart ensemble only")
    shape = BipartiteShape(config.d1, config.d2)
    n, p = shape.n, config.resolved_p
    alpha = config.effective_alpha
    edge_lo = 1.0 - 2.0 / sqrt(alpha)
    edge_hi = 1.0 + 2.0 / sqrt(alpha)

    def one_trial(stream: SampleStream) -> dict:
        w = sample_wishart(WishartParams(n=n, p=p, field=config.field), stream)
        eigs = hermitian_eigenvalues(partial_transpose(w, shape))
        lam_lo, lam_hi = extremes(SpectralSample(eigs))
        return {"lambda_min": lam_lo, "lambda_max": lam_hi, "diag_deviation": diag_deviation(w)}

    per_trial, records = _run_trials(config, one_trial, p, alpha)
    worst = max(
        max(abs(s["lambda_max"] - edge_hi), abs(s["lambda_min"] - edge_lo)) for s in per_trial
    )
    return _report(
        config, records, ("extreme_eigenvalue_deviation", worst, 0.25),
        scale="wishart_raw", aggregates=_aggregate_stats(per_trial),
        theory={"edge_low": edge_lo, "edge_high": edge_hi},
    )


def _wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def run_ppt_sweep(config: ExperimentConfig) -> dict:
    """PPT frequency of random states across a grid of ancilla aspect ratios.

    The alpha at grid position ai draws streams ai * trials + t.
    """
    if config.ensemble not in STATE_ENSEMBLES:
        raise ParameterError(f"ppt ensemble must be one of {STATE_ENSEMBLES}")
    if not config.alphas:
        raise ParameterError("ppt sweep needs a nonempty alpha grid")
    shape = BipartiteShape(config.d1, config.d2)
    n = shape.n
    records = []
    per_alpha = []
    for ai, alpha in enumerate(config.alphas):
        p = ancilla_dim(alpha, n)

        def one_trial(stream: SampleStream) -> dict:
            result = ppt_gauge(_sample_state(config.ensemble, n, p, stream), shape)
            stats = {
                "is_ppt": 1.0 if result.is_ppt else 0.0,
                "min_eigenvalue_scaled": n * result.min_eigenvalue,
            }
            if result.gauge is not None:
                stats["gauge"] = result.gauge
            return stats

        per_trial, alpha_records = _run_trials(config, one_trial, p, alpha, ai * config.trials)
        records += alpha_records
        hits = sum(int(s["is_ppt"]) for s in per_trial)
        ci_low, ci_high = _wilson_interval(hits, config.trials)
        min_scaled = [s["min_eigenvalue_scaled"] for s in per_trial]
        entry = {
            "alpha": alpha,
            "p": p,
            "trials": config.trials,
            "ppt_frequency": hits / config.trials,
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
        "threshold_alpha": 4.0,
        "min_eigenvalue_limits": [1.0 - 2.0 / sqrt(a) for a in config.alphas],
    }
    return _report(config, records, scale="state_rescaled", aggregates=aggregates, theory=theory)


def run_pure_state(config: ExperimentConfig) -> dict:
    """Spectrum of d * rho^PT for uniform pure states on a square bipartition."""
    if config.ensemble != "pure":
        raise ParameterError("pure-state runs use the pure ensemble")
    if config.d1 != config.d2:
        raise ParameterError("pure-state spectra require a square bipartition d1 == d2")
    if config.method not in ("schmidt", "eigh"):
        raise ParameterError(f"method must be 'schmidt' or 'eigh', got {config.method!r}")
    d = config.d1
    shape = BipartiteShape(d, d)
    law = ProductSemicircle()

    def one_trial(stream: SampleStream) -> dict:
        psi = sample_pure_state(shape, stream)
        if config.method == "schmidt":
            values = d * pt_spectrum_from_schmidt(schmidt_coefficients(psi, shape))
        else:
            rho = np.outer(psi, psi.conj())
            values = d * hermitian_eigenvalues(partial_transpose(rho, shape))
        sample = SpectralSample(values)
        return {f"moment_k{k}": empirical_moment(sample, k) for k in range(1, 7)}

    # no ancilla in the pure-state model; blank p and alpha in the records
    per_trial, records = _run_trials(config, one_trial, p="", alpha="")
    aggregates = _aggregate_stats(per_trial)
    dev = abs(aggregates["statistics"]["moment_k2"]["mean"] - law.moment(2))
    return _report(
        config, records, ("mean_moment_k2_deviation", dev, 0.1),
        scale="state_rescaled", aggregates=aggregates,
        theory={"moments": {f"moment_k{k}": law.moment(k) for k in range(1, 7)}},
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
        comp_blocks = set(comp.blocks())
        for i in range(1, k + 1):
            succ = i % k + 1
            if ((i,) in comp_blocks) != q.same_block(i, succ):
                return f"singleton rule fails at {i} for {q}"
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                is_pair = (i, j) in comp_blocks
                rule = (
                    q.same_block(i, j % k + 1)
                    and q.same_block(i % k + 1, j)
                    and not q.same_block(i, j)
                )
                if is_pair != rule:
                    return f"pair rule fails at ({i}, {j}) for {q}"
        seen.add(comp.rgs)
    if len(seen) != catalan(k):
        return f"complement is not injective on NC({k})"
    return "ok"


def _matching_bounds_suite(k: int) -> str:
    parts = list(set_partitions(k))
    for pa in parts:
        for pc in parts:
            stats = wishart_matching_stats(pa.rgs, pc.rgs)
            if not stats.matches:
                continue
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
    std = Semicircle(0.0, 1.0)
    for k in range(0, 9):
        want = float(catalan(k))
        if std.moment(2 * k) != want:
            return f"semicircle moment {2 * k} != catalan({k})"
        if mp_moment_via_noncrossing(1.0, k) != want:
            return f"MP(1) moment {k} != catalan({k})"
    return "ok"


def _mp_quadrature_suite(alpha: float) -> str:
    law = MarchenkoPastur(alpha)
    mass = quadrature_moment(law, 0)
    if abs(mass - 1.0) > 1e-8:
        return f"density mass {mass} is not 1"
    for k in range(1, 7):
        if abs(quadrature_moment(law, k) - law.moment(k)) > 1e-6:
            return f"quadrature moment {k} disagrees with the non-crossing sum"
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
        add(f"mp_quadrature_alpha_{alpha}", "ok", _mp_quadrature_suite(alpha))

    return {
        "config": {"subcommand": "selftest"},
        "platform": reporting.platform_block(),
        "items": items,
        "all_pass": all(item["pass"] for item in items),
        "records": [_record("selftest", it["name"], 1.0 if it["pass"] else 0.0) for it in items],
    }


def run_laws(alpha: float = 4.0, bins: int = 100) -> dict:
    """Theory tables: moments and density grids for the three limit laws."""
    _check_alpha(alpha)
    _check_bins(bins)
    laws = [
        ("semicircle_std", Semicircle(0.0, 1.0)),
        ("semicircle_shifted", Semicircle(1.0, 1.0 / alpha)),
        ("marchenko_pastur", MarchenkoPastur(alpha)),
        ("product_semicircle", ProductSemicircle()),
    ]
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
