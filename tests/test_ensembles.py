import tracemalloc

import numpy as np
import pytest

from ptwishart import ensembles
from ptwishart import (
    BipartiteShape,
    SampleStream,
    WishartParams,
    hermitian_eigenvalues,
    sample_ginibre,
    sample_induced_state,
    sample_mixture_state,
    sample_pure_state,
    sample_wishart,
)
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
    with pytest.raises(ParameterError):
        WishartParams(n=4, p=3, field="quaternion")


@pytest.mark.parametrize("field", ["real", "complex"])
def test_ginibre_determinism(field):
    a = sample_ginibre(3, 5, field, SampleStream(42, 7))
    b = sample_ginibre(3, 5, field, SampleStream(42, 7))
    np.testing.assert_array_equal(a, b)
    c = sample_ginibre(3, 5, field, SampleStream(42, 8))
    assert not np.array_equal(a, c)


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


def test_ginibre_real_mean_near_zero():
    total = 0.0
    count = 0
    for t in range(100_000):
        g = sample_ginibre(3, 5, "real", SampleStream(2024, t))
        total += g.sum()
        count += g.size
    mean = total / count
    assert abs(mean) <= 4.0 / np.sqrt(count)


def test_ginibre_complex_unit_second_moment():
    total = 0.0
    count = 0
    for t in range(100_000):
        g = sample_ginibre(3, 5, "complex", SampleStream(2025, t))
        total += (np.abs(g) ** 2).sum()
        count += g.size
    mean = total / count
    # Var |entry|^2 = 1 for the unit-total-variance complex normal
    assert abs(mean - 1.0) <= 4.0 / np.sqrt(count)


def test_wishart_recomputed_by_scalar_loops():
    stream = SampleStream(5, 0)
    params = WishartParams(n=2, p=1, field="complex")
    w = sample_wishart(params, stream)
    g = sample_ginibre(2, 1, "complex", stream)
    expected = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(1):
                expected[i, j] += g[i, k] * np.conj(g[j, k])
    np.testing.assert_allclose(w, expected, atol=1e-14)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("p", [1, ensembles.GRAM_CHUNK + 3, 2 * ensembles.GRAM_CHUNK])
def test_wishart_is_the_gram_of_the_ginibre_draw(field, p):
    # one partial, one plus-a-remainder and two full ancilla chunks
    stream = SampleStream(17, 3)
    w = sample_wishart(WishartParams(n=7, p=p, field=field), stream)
    g = sample_ginibre(7, p, field, stream)
    np.testing.assert_allclose(w, g @ g.conj().T / p, rtol=0, atol=1e-13)
    assert np.array_equal(w, w.conj().T)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("chunk", [1, 7])
def test_wishart_chunk_size_changes_only_rounding(monkeypatch, field, chunk):
    params = WishartParams(n=6, p=2 * ensembles.GRAM_CHUNK + 5, field=field)
    expected = sample_wishart(params, SampleStream(23, 1))
    monkeypatch.setattr(ensembles, "GRAM_CHUNK", chunk)
    w = sample_wishart(params, SampleStream(23, 1))
    assert np.max(np.abs(w - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.array_equal(w, w.conj().T)


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
