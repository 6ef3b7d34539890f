"""Closed-form spectral limit laws.

Three laws cover the ensembles in this package: the semicircle law (the
limit of partially transposed Wishart spectra, shifted to mean 1), the
Marchenko-Pastur law (the limit of Wishart spectra themselves, aspect
parameterized so that alpha = p / n for a (1/p)-normalized sample
covariance), and the symmetric law with Catalan-squared even moments that
governs partially transposed pure states.

`reference` is the one place a run's limit law is chosen: every runner with
an ancilla reads its moments, edges and PPT threshold from it.

Moments and CDFs are closed forms; only `quadrature_moment`, the independent
cross-check of the moments, integrates a density numerically, by a midpoint
rule after a cosine substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite, pi, sqrt

import numpy as np

from .errors import ParameterError
from .partitions import catalan

# midpoint nodes of `quadrature_moment`
_QUADRATURE_NODES = 4096


def _scalar_or_array(values: np.ndarray):
    if values.ndim == 0:
        return float(values)
    return values


@dataclass(frozen=True)
class Semicircle:
    """Semicircle law with the given mean and variance.

    The support is [mean - 2*sigma, mean + 2*sigma] with sigma = sqrt(variance)
    and the density is sqrt(4*variance - (x - mean)^2) / (2*pi*variance).
    Even central moments are Catalan numbers times powers of the variance.
    """

    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if not (isfinite(self.mean) and isfinite(self.variance) and self.variance > 0):
            raise ParameterError(f"mean must be finite and variance finite and positive, "
                                 f"got mean {self.mean} and variance {self.variance}")

    @property
    def support(self) -> tuple[float, float]:
        radius = 2.0 * sqrt(self.variance)
        return (self.mean - radius, self.mean + radius)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        rad = 4.0 * self.variance - (x - self.mean) ** 2
        val = np.sqrt(np.clip(rad, 0.0, None)) / (2.0 * pi * self.variance)
        return _scalar_or_array(np.where(rad >= 0.0, val, 0.0))

    def moment(self, k: int) -> float:
        """Exact k-th moment via binomial expansion around the mean."""
        if k < 0:
            raise ParameterError(f"moment order must be >= 0, got {k}")
        total = 0.0
        for j in range(0, k + 1, 2):
            total += comb(k, j) * self.mean ** (k - j) * catalan(j // 2) * self.variance ** (j // 2)
        return float(total)

    def cdf(self, x):
        """F = 1/2 + u sqrt(4 - u^2) / (4 pi) + arcsin(u / 2) / pi, u = (x - mean) / sigma
        clipped to the support [-2, 2]."""
        u = np.clip((np.asarray(x, dtype=float) - self.mean) / sqrt(self.variance), -2.0, 2.0)
        val = 0.5 + u * np.sqrt(4.0 - u * u) / (4.0 * pi) + np.arcsin(u / 2.0) / pi
        return _scalar_or_array(np.clip(val, 0.0, 1.0))


# the alpha at which the lower edge of reference(alpha) is 0: below it a random
# induced state is not PPT
PPT_THRESHOLD_ALPHA = 4.0


def reference(alpha: float) -> Semicircle:
    """SC(1, 1/alpha), the limit law of a partially transposed Wishart spectrum
    at ancilla ratio alpha = p / n; its support is 1 -+ 2 sqrt(1/alpha)."""
    return Semicircle(1.0, 1.0 / alpha)


@dataclass(frozen=True)
class MarchenkoPastur:
    """Limit eigenvalue law of (1/p) G G^dagger Wishart matrices, alpha = p/n.

    For alpha < 1 the matrix is rank deficient and the law carries an atom of
    mass 1 - alpha at zero.  The continuous part occupies
    [(1 - 1/sqrt(alpha))^2, (1 + 1/sqrt(alpha))^2] for every alpha and has
    total mass min(alpha, 1); its density is
    alpha * sqrt((x - b_lo) * (b_hi - x)) / (2*pi*x).
    """

    alpha: float

    def __post_init__(self):
        if not (isfinite(self.alpha) and self.alpha > 0):
            raise ParameterError(f"alpha must be finite and positive, got {self.alpha}")

    @property
    def atom(self) -> float:
        """Mass of the atom at zero (nonzero only for alpha < 1)."""
        return max(0.0, 1.0 - self.alpha)

    @property
    def support(self) -> tuple[float, float]:
        r = 1.0 / sqrt(self.alpha)
        return ((1.0 - r) ** 2, (1.0 + r) ** 2)

    def density(self, x):
        lo, hi = self.support
        x = np.asarray(x, dtype=float)
        inside = (x > lo) & (x < hi) & (x > 0.0)
        rad = np.where(inside, (x - lo) * (hi - x), 0.0)
        safe_x = np.where(inside, x, 1.0)
        val = self.alpha * np.sqrt(rad) / (2.0 * pi * safe_x)
        return _scalar_or_array(np.where(inside, val, 0.0))

    def moment(self, k: int) -> float:
        """Exact k-th moment, the Narayana sum over j of N(k, j) alpha^(j - k), where
        N(k, j) = C(k, j) C(k, j - 1) / k counts the non-crossing partitions of [k] into j blocks."""
        if k < 0:
            raise ParameterError(f"moment order must be >= 0, got {k}")
        if k == 0:
            return 1.0
        return float(sum(comb(k, j) * comb(k, j - 1) // k * self.alpha ** (j - k) for j in range(1, k + 1)))

    def cdf(self, x):
        """Atom plus alpha / (2 pi) * (G(x) - G(lo)) on the support, where
        G(t) = R + mid * arcsin((t - mid) / half) - root * arcsin((mid - lo * hi / t) / half)
        is a primitive of R / t, with R = sqrt((t - lo) * (hi - t)), root = sqrt(lo * hi),
        and mid, half the support's midpoint and half-width; G(lo) = -(pi / 2) * (mid - root).
        """
        lo, hi = self.support
        mid, half, root = (lo + hi) / 2.0, (hi - lo) / 2.0, sqrt(lo * hi)
        x = np.asarray(x, dtype=float)
        inside = (x > lo) & (x < hi)
        # hi > 0, so t never divides by zero, even at alpha = 1 where lo = 0
        t = np.where(inside, x, hi)
        prim = (
            np.sqrt((t - lo) * (hi - t))
            + mid * np.arcsin(np.clip((t - mid) / half, -1.0, 1.0))
            - root * np.arcsin(np.clip((mid - lo * hi / t) / half, -1.0, 1.0))
        )
        cont = self.alpha / (2.0 * pi) * (prim + (pi / 2.0) * (mid - root))
        base = np.where(x >= 0.0, self.atom, 0.0)
        val = np.where(x >= hi, 1.0, np.where(inside, base + cont, base))
        return _scalar_or_array(np.clip(val, 0.0, 1.0))


@dataclass(frozen=True)
class ProductSemicircle:
    """Law of the product of two independent standard semicircular variables.

    Odd moments vanish; moment 2k equals catalan(k)**2.  Only moments are
    exposed: the density involves special functions and is out of scope here.
    """

    def moment(self, k: int) -> float:
        if k < 0:
            raise ParameterError(f"moment order must be >= 0, got {k}")
        if k % 2 == 1:
            return 0.0
        return float(catalan(k // 2) ** 2)


def quadrature_moment(law, k: int) -> float:
    """Moment by numerical quadrature of the density plus any atom at zero.

    Independent cross-check of the closed-form moments; the atom contributes
    only to the 0-th moment.  With t = mid + half * cos(theta) the integral over
    the support [mid - half, mid + half] becomes half * the integral over
    [0, pi] of t^k * density(t) * sin(theta), which a _QUADRATURE_NODES-point
    midpoint rule in theta takes.  The sine cancels the square-root edges of
    both laws and the 1 / sqrt(x) pole of MarchenkoPastur(1) at zero, so the
    integrand is smooth and periodic; for k <= 8 the relative error is a few
    units in the last place.
    """
    if k < 0:
        raise ParameterError(f"moment order must be >= 0, got {k}")
    lo, hi = law.support
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    theta = (np.arange(_QUADRATURE_NODES) + 0.5) * (pi / _QUADRATURE_NODES)
    t = mid + half * np.cos(theta)
    val = half * (pi / _QUADRATURE_NODES) * np.sum(t**k * law.density(t) * np.sin(theta))
    if k == 0:
        val += getattr(law, "atom", 0.0)
    return float(val)
