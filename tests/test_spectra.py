import numpy as np
import pytest

from ptwishart import (
    BipartiteShape,
    SampleStream,
    Semicircle,
    SpectralSample,
    empirical_moment,
    hermitian_eigenvalues,
    ks_distance,
    partial_transpose,
    pt_spectrum_from_schmidt,
    sample_pure_state,
    schmidt_coefficients,
)
from ptwishart.ensembles import sample_induced_state
from ptwishart.errors import ParameterError, ShapeError
from ptwishart.spectra import diag_deviation, esd_fraction, extremes, histogram, ppt_gauge


def test_sample_sorts_and_validates():
    s = SpectralSample([3.0, 1.0, 2.0])
    np.testing.assert_array_equal(s.eigenvalues, [1.0, 2.0, 3.0])
    assert s.n == 3
    with pytest.raises(ParameterError):
        SpectralSample([])
    with pytest.raises(ParameterError):
        SpectralSample([np.inf, 0.0])


def test_esd_fraction_examples():
    s = SpectralSample([1.0, 2.0, 3.0])
    assert esd_fraction(s, 1.5, 3.0) == pytest.approx(2.0 / 3.0)
    assert esd_fraction(s, 1.0, 3.0) == 1.0
    assert esd_fraction(s, 10.0, 20.0) == 0.0
    # out of order, or a NaN edge, for which lo > hi is False
    for lo, hi in [(2.0, 1.0), (float("nan"), 3.0), (1.0, float("nan")), (float("nan"), float("nan"))]:
        with pytest.raises(ParameterError, match="lo <= hi"):
            esd_fraction(s, lo, hi)


def test_esd_fraction_is_additive():
    rng = np.random.default_rng(0)
    s = SpectralSample(rng.standard_normal(101))
    mid = 0.123456  # not an eigenvalue
    assert mid not in s.eigenvalues
    total = esd_fraction(s, s.eigenvalues[0], mid) + esd_fraction(s, mid, s.eigenvalues[-1])
    assert total == pytest.approx(1.0)


def test_empirical_moment_examples():
    zeros = SpectralSample(np.zeros(5))
    for k in range(1, 5):
        assert empirical_moment(zeros, k) == 0.0
    assert empirical_moment(zeros, 0) == 1.0
    with pytest.raises(ParameterError):
        empirical_moment(zeros, -1)


def test_empirical_moment_matches_matrix_powers():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = (a + a.conj().T) / 2
    s = SpectralSample(hermitian_eigenvalues(a))
    power = np.eye(8, dtype=complex)
    for k in range(1, 7):
        power = power @ a
        direct = np.trace(power).real / 8
        assert empirical_moment(s, k) == pytest.approx(direct, rel=1e-8)


def test_extremes():
    assert extremes(SpectralSample([1.0, 2.0, 3.0])) == (1.0, 3.0)
    assert extremes(SpectralSample([5.0])) == (5.0, 5.0)


def test_centered_moments_of_diagonal_removed_transpose():
    # moments of Y - diag(Y) approach catalan(k/2) * alpha^(-k/2); alpha = 1 here
    from ptwishart import SampleStream, WishartParams, sample_wishart

    d, trials = 30, 20
    shape = BipartiteShape(d, d)
    m2 = m4 = 0.0
    for t in range(trials):
        w = sample_wishart(WishartParams(n=d * d, alpha=1.0), SampleStream(41, t))
        z = partial_transpose(w, shape)
        np.fill_diagonal(z, 0)
        sample = SpectralSample(hermitian_eigenvalues(z))
        m2 += empirical_moment(sample, 2)
        m4 += empirical_moment(sample, 4)
    assert abs(m2 / trials - 1.0) <= 0.1
    assert abs(m4 / trials - 2.0) <= 0.3


def test_first_moment_invariant_under_block_transposition():
    from ptwishart import SampleStream, WishartParams, sample_wishart

    shape = BipartiteShape(4, 4)
    w = sample_wishart(WishartParams(n=16, p=20), SampleStream(12, 0))
    before = SpectralSample(hermitian_eigenvalues(w))
    after = SpectralSample(hermitian_eigenvalues(partial_transpose(w, shape)))
    assert abs(empirical_moment(after, 1) - empirical_moment(before, 1)) <= 1e-12


def _law_quantile(law, prob, lo, hi):
    for _ in range(80):
        mid = (lo + hi) / 2
        if law.cdf(mid) < prob:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_ks_distance_on_exact_quantiles():
    law = Semicircle(0.0, 1.0)
    n = 50
    points = [_law_quantile(law, (i - 0.5) / n, -2.0, 2.0) for i in range(1, n + 1)]
    d = ks_distance(SpectralSample(points), law)
    assert d <= 1.0 / (2 * n) + 1e-6


def test_ks_distance_far_sample():
    law = Semicircle(0.0, 1.0)
    assert ks_distance(SpectralSample([100.0, 101.0]), law) == pytest.approx(1.0)


def test_histogram_defaults_cover_sample():
    rng = np.random.default_rng(3)
    s = SpectralSample(rng.standard_normal(500))
    edges, counts = histogram(s, bins=32)
    assert counts.sum() == 500
    assert counts.size == 32
    assert np.all(np.diff(edges) > 0)
    with pytest.raises(ParameterError):
        histogram(s, bins=0)


def test_diag_deviation():
    assert diag_deviation(np.eye(3)) == 0.0
    assert diag_deviation(np.diag([1.2, 0.9])) == pytest.approx(0.2)
    with pytest.raises(ShapeError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        diag_deviation(np.zeros((2, 3)))


def test_ppt_gauge_maximally_mixed():
    for d in (2, 3):
        shape = BipartiteShape(d, d)
        result = ppt_gauge(np.eye(d * d) / (d * d), shape)
        assert result.is_ppt
        assert result.gauge == pytest.approx(0.0, abs=1e-12)


def test_ppt_gauge_bell_projector():
    shape = BipartiteShape(2, 2)
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = np.outer(psi, psi)
    result = ppt_gauge(rho, shape)
    assert not result.is_ppt
    assert result.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    assert result.gauge == pytest.approx(3.0, abs=1e-10)


def test_ppt_gauge_product_pure_state_is_ppt():
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi = np.kron(u / np.linalg.norm(u), v / np.linalg.norm(v))
        result = ppt_gauge(np.outer(psi, psi.conj()), BipartiteShape(3, 3))
        assert result.is_ppt


def test_ppt_gauge_rejects_unnormalized():
    with pytest.raises(ParameterError):
        ppt_gauge(np.eye(4), BipartiteShape(2, 2))


def test_ppt_gauge_nonsquare_shape_reports_flag_only():
    result = ppt_gauge(np.eye(6) / 6, BipartiteShape(2, 3))
    assert result.is_ppt
    assert result.gauge is None


def test_ppt_gauge_consistency_on_random_states():
    index = 0
    for d in (2, 3):
        shape = BipartiteShape(d, d)
        for aspect in (1, 2, 4, 6, 8):
            for _ in range(10):
                rho = sample_induced_state(d * d, aspect * d * d, SampleStream(31, index))
                result = ppt_gauge(rho, shape)
                assert result.is_ppt == (result.gauge <= 1.0 + 1e-8)
                index += 1
    assert index == 100


def test_pure_pt_spectrum_balanced_pair():
    np.testing.assert_allclose(
        pt_spectrum_from_schmidt([0.5, 0.5]), [-0.5, 0.5, 0.5, 0.5], atol=1e-15
    )


def test_pure_pt_spectrum_product_state():
    np.testing.assert_allclose(pt_spectrum_from_schmidt([1.0, 0.0]), [0.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_pure_pt_spectrum_counts():
    rng = np.random.default_rng(5)
    lam = rng.dirichlet(np.ones(6))
    spec = pt_spectrum_from_schmidt(lam)
    assert spec.size == 36
    assert np.sum(spec < 0) == 15  # d(d-1)/2 negative square roots


def test_pure_pt_spectrum_invalid():
    with pytest.raises(ParameterError):
        pt_spectrum_from_schmidt([0.7, 0.7])
    with pytest.raises(ParameterError):
        pt_spectrum_from_schmidt([1.5, -0.5])


def test_pure_pt_spectrum_matches_direct_eigendecomposition():
    # build the state from its Schmidt decomposition with random orthonormal bases
    rng = np.random.default_rng(6)
    d = 5
    lam = rng.dirichlet(np.ones(d))
    basis_a = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    basis_b = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        psi += np.sqrt(lam[i]) * np.kron(basis_a[:, i], basis_b[:, i])
    shape = BipartiteShape(d, d)
    direct = hermitian_eigenvalues(partial_transpose(np.outer(psi, psi.conj()), shape))
    np.testing.assert_allclose(pt_spectrum_from_schmidt(lam), direct, atol=1e-8)


def test_schmidt_coefficients():
    shape = BipartiteShape(2, 2)
    product = np.kron([1.0, 0.0], [0.0, 1.0]).astype(complex)
    np.testing.assert_allclose(schmidt_coefficients(product, shape), [1.0, 0.0], atol=1e-15)
    psi = sample_pure_state(BipartiteShape(3, 3), SampleStream(9, 0))
    lam = schmidt_coefficients(psi, BipartiteShape(3, 3))
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(lam) <= 0)
    with pytest.raises(ShapeError):
        schmidt_coefficients(psi, BipartiteShape(2, 2))
