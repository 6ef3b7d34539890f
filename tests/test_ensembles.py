import itertools
import tracemalloc
from math import sqrt

import numpy as np
import pytest

from ptwishart import ensembles
from ptwishart import (
    BipartiteShape,
    SampleStream,
    WishartParams,
    hermitian_eigenvalues,
    partial_transpose,
    sample_pure_state,
    sample_wishart,
)
from ptwishart.ensembles import sample_induced_state, sample_mixture_state
from ptwishart.errors import ParameterError


def test_stream_validation():
    with pytest.raises(ParameterError):
        SampleStream(-1, 0)
    with pytest.raises(ParameterError):
        SampleStream(2**64, 0)
    with pytest.raises(ParameterError):
        SampleStream(0, -1)
    SampleStream(2**64 - 1, 10**6)


def test_wishart_params():
    params = WishartParams(n=9, alpha=4.0)
    assert params.p == 36
    assert WishartParams(n=10, alpha=0.35).p == 3
    # alpha * n lands just below an integer in floating point: 409.99999999999994
    assert WishartParams(n=100, alpha=4.1).p == 410
    assert WishartParams(n=225, alpha=8.2).p == 1845
    with pytest.raises(ParameterError):
        WishartParams(n=4, p=2, alpha=1.0)
    with pytest.raises(ParameterError):
        WishartParams(n=4)
    with pytest.raises(ParameterError):
        WishartParams(n=4, alpha=0.01)
    # p = 2**62 is the largest ancilla; the complex field's 2p degrees of freedom must not wrap
    w = sample_wishart(WishartParams(n=2, p=2**62), SampleStream(0, 0))
    assert np.all(np.isfinite(w)) and np.all(np.diagonal(w).real > 0)
    with pytest.raises(ParameterError):
        WishartParams(n=2, p=2**62 + 1)
    with pytest.raises(ParameterError):
        WishartParams(n=4, alpha=1e300)
    with pytest.raises(ParameterError):
        WishartParams(n=4, p=3, field="quaternion")


def test_sampler_determinism_across_ensembles():
    stream = SampleStream(99, 3)
    pairs = [
        (sample_wishart(WishartParams(n=6, p=8), stream), sample_wishart(WishartParams(n=6, p=8), stream)),
        (sample_induced_state(6, 8, stream), sample_induced_state(6, 8, stream)),
        (sample_mixture_state(6, 8, stream), sample_mixture_state(6, 8, stream)),
        (sample_pure_state(BipartiteShape(2, 3), stream), sample_pure_state(BipartiteShape(2, 3), stream)),
    ]
    for a, b in pairs:
        np.testing.assert_array_equal(a, b)


def test_wishart_recomputed_by_scalar_loops():
    # the documented Bartlett layout, drawn one variate at a time from the same stream
    for field, n, p in [("complex", 4, 6), ("complex", 5, 3), ("real", 4, 6), ("real", 5, 3)]:
        stream = SampleStream(5, n + p)
        w = sample_wishart(WishartParams(n=n, p=p, field=field), stream)
        rng = stream.generator()
        m = min(n, p)
        factor = np.zeros((n, m), dtype=complex)
        for j in range(m):
            factor[j, j] = sqrt(rng.chisquare((p - j) * (1 if field == "real" else 2)))
        for j in range(m):
            for i in range(j + 1, n):
                factor[i, j] = rng.standard_normal()
                if field == "complex":
                    factor[i, j] += 1j * rng.standard_normal()
        scale = 1.0 / p if field == "real" else 0.5 / p
        expected = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                for k in range(m):
                    expected[i, j] += scale * factor[i, k] * np.conj(factor[j, k])
        assert w.dtype == (np.float64 if field == "real" else np.complex128)
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-13)
        assert np.array_equal(w, w.conj().T)


def _cycles(perm):
    seen, count = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            count += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    return count


def _genus_sum(k, d1, d2, p):
    """E Tr ((G G^dagger / p)^Gamma)^k for complex G of size d1*d2 x p with
    E|entry|^2 = 1: p^-k sum over S_k of p^#sigma d1^#(gamma^-1 sigma) d2^#(gamma sigma)."""
    gamma = [(i + 1) % k for i in range(k)]
    gamma_inv = [(i - 1) % k for i in range(k)]
    total = 0
    for sigma in itertools.permutations(range(k)):
        total += (p ** _cycles(sigma) * d1 ** _cycles([gamma_inv[s] for s in sigma])
                  * d2 ** _cycles([gamma[s] for s in sigma]))
    return total / p**k


def _z_scores(samples, exact):
    """(mean - exact) / standard error, one per column of samples."""
    samples = np.asarray(samples)
    return (samples.mean(axis=0) - exact) / (samples.std(axis=0, ddof=1) / sqrt(len(samples)))


@pytest.mark.parametrize("p", [36, 5])
def test_complex_wishart_exact_finite_size_moments(p):
    d, trials = 3, 10_000
    n = d * d
    diagonals, traces = [], []
    for t in range(trials):
        w = sample_wishart(WishartParams(n=n, p=p), SampleStream(70 + p, t))
        x = partial_transpose(w, BipartiteShape(d, d))
        x2 = x @ x
        diagonals.append(np.diagonal(w).real)
        traces.append([np.trace(x).real, np.trace(x2).real, np.vdot(x, x2).real, np.vdot(x2, x2).real])
    # E W_jj = 1 for each j separately: the degrees of freedom follow the diagonal
    assert np.all(np.abs(_z_scores(diagonals, 1.0)) <= 4.0)
    exact = [_genus_sum(k, d, d, p) for k in range(1, 5)]
    # Gamma keeps the trace and the Frobenius norm: E Tr W = n, E Tr W^2 = n(n + p)/p
    assert exact[:2] == pytest.approx([n, n * (n + p) / p], rel=1e-15)
    assert np.all(np.abs(_z_scores(traces, exact)) <= 4.0)


@pytest.mark.parametrize("p", [20, 4])
def test_real_wishart_exact_finite_size_moments(p):
    n, trials = 9, 10_000
    diagonals, traces = [], []
    for t in range(trials):
        w = sample_wishart(WishartParams(n=n, p=p, field="real"), SampleStream(80 + p, t))
        diagonals.append(np.diagonal(w))
        traces.append([np.trace(w), np.vdot(w, w)])
    assert np.all(np.abs(_z_scores(diagonals, 1.0)) <= 4.0)
    assert np.all(np.abs(_z_scores(traces, [n, n * (n + p + 1) / p])) <= 4.0)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_wishart_rank_is_the_ancilla_count(field):
    n, p = 12, 5
    w = sample_wishart(WishartParams(n=n, p=p, field=field), SampleStream(19, 2))
    assert np.array_equal(w, w.conj().T)
    vals = np.abs(hermitian_eigenvalues(w))
    assert np.sum(vals <= 1e-12 * vals.max()) == n - p
    assert np.sum(vals >= 1e-3 * vals.max()) == p


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("chunk", [1, 7])
def test_wishart_chunk_size_changes_only_rounding(monkeypatch, field, chunk):
    # GRAM_CHUNK bounds working memory only: neither the Wishart sample nor the
    # mixture state, whose vectors are accumulated in GRAM_CHUNK blocks, may move
    # by more than rounding when it changes
    params = WishartParams(n=6, p=2 * ensembles.GRAM_CHUNK + 5, field=field)
    expected = sample_wishart(params, SampleStream(23, 1))
    expected_mixture = sample_mixture_state(params.n, params.p, SampleStream(23, 1))
    monkeypatch.setattr(ensembles, "GRAM_CHUNK", chunk)
    w = sample_wishart(params, SampleStream(23, 1))
    assert np.max(np.abs(w - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.array_equal(w, w.conj().T)
    rho = sample_mixture_state(params.n, params.p, SampleStream(23, 1))
    assert np.max(np.abs(rho - expected_mixture)) <= 1e-13 * np.max(np.abs(expected_mixture))
    assert np.array_equal(rho, rho.conj().T)


def test_wishart_never_holds_the_ginibre_matrix():
    # G alone would take 16 * 100 * 20000 bytes = 32 MB
    tracemalloc.start()
    try:
        sample_wishart(WishartParams(n=100, p=20_000), SampleStream(3, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_wishart_diagonal_near_one():
    w = sample_wishart(WishartParams(n=4, p=10_000), SampleStream(8, 0))
    assert np.max(np.abs(np.diagonal(w) - 1.0)) <= 0.1


@pytest.mark.parametrize("field", ["real", "complex"])
def test_wishart_psd_and_hermitian(field):
    w = sample_wishart(WishartParams(n=12, p=20, field=field), SampleStream(13, 1))
    np.testing.assert_array_equal(w, w.conj().T)
    vals = hermitian_eigenvalues(w)
    assert vals[0] >= -1e-10 * np.abs(vals).max()


def test_induced_state_unit_trace_and_psd():
    rho = sample_induced_state(6, 9, SampleStream(21, 4))
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    vals = hermitian_eigenvalues(rho)
    assert vals[0] >= -1e-10 * np.abs(vals).max()


def test_induced_state_equals_normalized_wishart():
    stream = SampleStream(34, 2)
    rho = sample_induced_state(5, 7, stream)
    w = sample_wishart(WishartParams(n=5, p=7, field="complex"), stream)
    np.testing.assert_allclose(rho, w / np.trace(w).real, atol=1e-15)


def test_induced_state_flat_measure_first_moment():
    # ancilla dimension equal to the system dimension: E rho = Id/n
    n, trials = 2, 10_000
    acc = np.zeros((n, n), dtype=complex)
    samples = np.empty((trials, n, n), dtype=complex)
    for t in range(trials):
        samples[t] = sample_induced_state(n, n, SampleStream(77, t))
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(trials)
    target = np.eye(n) / n
    assert np.all(np.abs(mean - target) <= 4.0 * stderr + 1e-12)


def test_induced_state_concentrates_to_maximally_mixed():
    rho = sample_induced_state(4, 100_000, SampleStream(55, 0))
    assert np.linalg.norm(rho - np.eye(4) / 4, 2) <= 0.05


def test_mixture_state_single_term_is_pure():
    rho = sample_mixture_state(5, 1, SampleStream(3, 9))
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    vals = hermitian_eigenvalues(rho)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.abs(vals[:-1]) <= 1e-10)


def test_mixture_state_rank_bound_and_trace():
    rho = sample_mixture_state(6, 3, SampleStream(4, 0))
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    vals = hermitian_eigenvalues(rho)
    assert np.sum(vals > 1e-10) == 3


def test_mixture_state_concentrates_to_maximally_mixed():
    rho = sample_mixture_state(4, 100_000, SampleStream(56, 0))
    assert np.linalg.norm(rho - np.eye(4) / 4, 2) <= 0.05


def test_mixture_state_never_holds_all_vectors():
    # the vectors alone would take 16 * 100 * 20000 bytes = 32 MB
    tracemalloc.start()
    try:
        rho = sample_mixture_state(100, 20_000, SampleStream(3, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert np.array_equal(rho, rho.conj().T)
    # every partial block of vectors is counted once
    assert abs(np.trace(rho).real - 1.0) <= 1e-12


@pytest.mark.parametrize("sampler, exact", [
    (sample_induced_state, lambda n, p: (n + p) / (n * p + 1)),
    (sample_mixture_state, lambda n, p: 1 / p + (p - 1) / (p * n)),
], ids=["induced", "mixture"])
@pytest.mark.parametrize("n, p", [(4, 6), (6, 3), (3, 1030)])
def test_state_exact_finite_size_purity(sampler, exact, n, p):
    # E Tr rho^2 at finite n and p; p = 1030 ends the mixture draw in a partial GRAM_CHUNK block
    trials = 10_000
    purities = [np.vdot(rho, rho).real for rho in (sampler(n, p, SampleStream(90, t)) for t in range(trials))]
    assert abs(_z_scores(purities, exact(n, p))) <= 4.0


def test_pure_state_norm_and_phase():
    v = sample_pure_state(BipartiteShape(3, 4), SampleStream(6, 2))
    assert v.shape == (12,)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    scalar = sample_pure_state(BipartiteShape(1, 1), SampleStream(6, 3))
    assert abs(abs(scalar[0]) - 1.0) <= 1e-12


def test_pure_state_coordinate_symmetry():
    trials = 100_000
    values = np.empty(trials)
    for t in range(trials):
        v = sample_pure_state(BipartiteShape(2, 2), SampleStream(58, t))
        values[t] = abs(v[0]) ** 2
    stderr = values.std(ddof=1) / np.sqrt(trials)
    assert abs(values.mean() - 0.25) <= 4.0 * stderr


def test_trace_concentration():
    # |trace(W)/n - 1| <= 0.05 in at least 99% of trials once n*p >= 1e5
    trials, hits = 200, 0
    for t in range(trials):
        w = sample_wishart(WishartParams(n=100, p=1000), SampleStream(60, t))
        if abs(np.trace(w).real / 100 - 1.0) <= 0.05:
            hits += 1
    assert hits / trials >= 0.99


def test_trace_and_normalized_extreme_weakly_uncorrelated():
    # sanity check of the independence of trace(W) and W/trace(W)
    trials = 1000
    traces = np.empty(trials)
    tops = np.empty(trials)
    for t in range(trials):
        w = sample_wishart(WishartParams(n=16, p=32), SampleStream(61, t))
        traces[t] = np.trace(w).real
        tops[t] = hermitian_eigenvalues(w / np.trace(w).real)[-1]
    corr = np.corrcoef(traces, tops)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(trials)
