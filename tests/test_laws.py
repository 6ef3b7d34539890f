import numpy as np
import pytest
from scipy import integrate

from ptwishart import MarchenkoPastur, ProductSemicircle, Semicircle, mp_moment_via_noncrossing
from ptwishart.errors import ParameterError
from ptwishart.laws import PPT_THRESHOLD_ALPHA, reference


def test_semicircle_density_values():
    std = Semicircle(0.0, 1.0)
    assert std.density(0.0) == pytest.approx(1.0 / np.pi, rel=1e-12)
    assert std.density(2.0) == 0.0
    assert std.density(-2.0) == 0.0
    assert std.density(3.0) == 0.0


def test_semicircle_support_quarter_variance():
    law = Semicircle(1.0, 0.25)
    assert law.support == (0.0, 2.0)


def test_the_ppt_threshold_is_where_the_reference_lower_edge_is_zero():
    # 1 - 2 sqrt(1 / 4) is exactly 0
    assert reference(PPT_THRESHOLD_ALPHA).support[0] == 0.0
    assert reference(2.0) == Semicircle(1.0, 0.5)


def test_semicircle_rejects_bad_variance():
    with pytest.raises(ParameterError):
        Semicircle(0.0, 0.0)
    with pytest.raises(ParameterError):
        Semicircle(0.0, -1.0)
    # a non-finite parameter would spread the density grid over an infinite support
    for mean, variance in [(0.0, float("nan")), (1.0, float("inf")), (float("nan"), 1.0), (float("-inf"), 1.0)]:
        with pytest.raises(ParameterError, match="finite"):
            Semicircle(mean, variance)


def test_semicircle_moments_are_catalan():
    std = Semicircle(0.0, 1.0)
    assert [std.moment(k) for k in (2, 4, 6)] == [1.0, 2.0, 5.0]
    assert std.moment(3) == 0.0
    assert Semicircle(0.7, 2.0).moment(1) == pytest.approx(0.7)
    # first and second moments match the Marchenko-Pastur law of same aspect
    for alpha in (1.0, 2.0, 4.0):
        shifted = Semicircle(1.0, 1.0 / alpha)
        assert shifted.moment(1) == pytest.approx(MarchenkoPastur(alpha).moment(1))
        assert shifted.moment(2) == pytest.approx(1.0 + 1.0 / alpha)


def test_mp_density_values():
    assert MarchenkoPastur(1.0).density(2.0) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)
    assert MarchenkoPastur(0.5).atom == pytest.approx(0.5)
    assert MarchenkoPastur(2.0).atom == 0.0
    for alpha in (0.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            MarchenkoPastur(alpha)


def test_mp_moments():
    for alpha in (0.5, 1.0, 3.0):
        law = MarchenkoPastur(alpha)
        assert law.moment(0) == 1.0
        assert law.moment(1) == 1.0
        assert law.moment(2) == pytest.approx(1.0 + 1.0 / alpha)
    assert MarchenkoPastur(1.0).moment(3) == 5.0
    with pytest.raises(ParameterError):
        MarchenkoPastur(1.0).moment(-1)


# at a dyadic alpha every term and partial sum of both sums is exact; elsewhere
# the sum over NC(k) rounds to about 1e-12 relative at k = 12
@pytest.mark.parametrize("alpha, rtol", [(0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (4.0, 0.0),
                                         (0.3, 1e-11), (3.0, 1e-11), (4.1, 1e-11)])
def test_mp_moment_is_the_noncrossing_sum(alpha, rtol):
    for k in range(13):
        closed, enumerated = MarchenkoPastur(alpha).moment(k), mp_moment_via_noncrossing(alpha, k)
        assert abs(closed - enumerated) <= rtol * enumerated, (k, closed, enumerated)


def test_product_semicircle_moments():
    law = ProductSemicircle()
    assert law.moment(2) == 1.0
    assert law.moment(4) == 4.0
    assert law.moment(6) == 25.0
    assert law.moment(3) == 0.0
    with pytest.raises(ParameterError):
        law.moment(-1)


def test_cdf_values():
    std = Semicircle(0.0, 1.0)
    assert std.cdf(0.0) == pytest.approx(0.5, abs=1e-8)
    assert std.cdf(2.0) == 1.0
    assert std.cdf(-2.0) == 0.0
    half = MarchenkoPastur(0.5)
    assert half.cdf(0.0) >= 0.5
    assert half.cdf(half.support[0]) == pytest.approx(0.5, abs=1e-12)
    # the atom of mass 1 - alpha at zero is a jump of the CDF there
    assert half.cdf(-1e-12) == 0.0
    assert half.cdf(0.0) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize(
    "law", [Semicircle(0.0, 1.0), MarchenkoPastur(0.5), MarchenkoPastur(4.0)], ids=["sc", "mp_half", "mp4"]
)
def test_cdf_monotone_in_range(law):
    lo, hi = law.support
    grid = np.linspace(lo - 0.5, hi + 0.5, 1000)
    values = [law.cdf(float(x)) for x in grid]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] == 0.0 or law.atom > 0
    assert values[-1] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "law",
    [
        Semicircle(0.0, 1.0),
        Semicircle(1.0, 0.25),
        MarchenkoPastur(0.5),
        MarchenkoPastur(1.0),
        MarchenkoPastur(2.0),
        MarchenkoPastur(4.0),
    ],
    ids=["sc_std", "sc_shifted", "mp_half", "mp1", "mp2", "mp4"],
)
def test_cdf_matches_quadrature_of_density(law):
    lo, hi = law.support
    grid = np.concatenate([[lo - 0.5], np.linspace(lo, hi, 201), [hi + 0.5]])
    atom = getattr(law, "atom", 0.0)
    expected = [
        (atom if x >= 0.0 else 0.0)
        + integrate.quad(law.density, lo, min(max(x, lo), hi), epsabs=1e-13, epsrel=1e-13)[0]
        for x in grid
    ]
    values = law.cdf(grid)
    assert np.max(np.abs(values - expected)) <= 1e-9
    scalars = [law.cdf(float(x)) for x in grid]
    assert all(type(v) is float for v in scalars)
    assert values.tolist() == scalars
