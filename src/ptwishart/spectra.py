"""Empirical spectral statistics and entanglement diagnostics.

A SpectralSample is a sorted eigenvalue list; all interval fractions,
moments, extremes and distribution distances read from it.  The PPT
diagnostics work on density matrices directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .linalg import BipartiteShape, _as_square, pt_extreme_eigenvalues

# Numerical tolerance for "positive partial transpose": lambda_min may dip
# this far below zero, relative to the spectral radius, and still count.
PPT_EIGENVALUE_RTOL = 1e-10

# A state handed to ppt_gauge must have unit trace to within this.
STATE_TRACE_TOL = 1e-8


@dataclass(frozen=True)
class SpectralSample:
    """Ascending eigenvalue sample."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.asarray(self.eigenvalues, dtype=float).ravel())
        if vals.size == 0:
            raise ParameterError("spectral sample must contain at least one eigenvalue")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("spectral sample contains non-finite values")
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def n(self) -> int:
        return int(self.eigenvalues.size)


def esd_fraction(sample: SpectralSample, lo: float, hi: float) -> float:
    """Fraction of eigenvalues in the closed interval [lo, hi], for lo <= hi."""
    if not lo <= hi:
        raise ParameterError(f"interval endpoints must satisfy lo <= hi, got [{lo}, {hi}]")
    e = sample.eigenvalues
    count = np.searchsorted(e, hi, side="right") - np.searchsorted(e, lo, side="left")
    return float(count) / sample.n


def empirical_moment(sample: SpectralSample, k: int) -> float:
    """k-th moment of the empirical eigenvalue distribution, mean of lambda^k."""
    if k < 0:
        raise ParameterError(f"moment order must be >= 0, got {k}")
    if k == 0:
        return 1.0
    return float(np.mean(sample.eigenvalues**k))


def extremes(sample: SpectralSample) -> tuple[float, float]:
    """(smallest, largest) eigenvalue."""
    e = sample.eigenvalues
    return float(e[0]), float(e[-1])


def ks_distance(sample: SpectralSample, law) -> float:
    """Kolmogorov-Smirnov distance between the sample and the law's CDF;
    supremum over jump points."""
    n = sample.n
    cdf_vals = law.cdf(sample.eigenvalues)
    steps = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(steps / n - cdf_vals))
    d_minus = float(np.max(cdf_vals - (steps - 1.0) / n))
    return min(max(d_plus, d_minus, 0.0), 1.0)


def histogram(sample: SpectralSample, bins: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """(bin edges, counts) of a fixed-width histogram over the sample range
    padded by 1% per side."""
    if bins < 1:
        raise ParameterError(f"bins must be >= 1, got {bins}")
    e = sample.eigenvalues
    span = float(e[-1] - e[0])
    pad = 0.01 * span if span > 0 else 0.5
    lo, hi = float(e[0]) - pad, float(e[-1]) + pad
    if lo >= hi:
        raise ParameterError(f"histogram range is empty: [{lo}, {hi}]")
    counts, edges = np.histogram(e, bins=bins, range=(lo, hi))
    return edges, counts


def diag_deviation(w) -> float:
    """Largest deviation of a diagonal entry from 1: max_i |w_ii - 1|."""
    return float(np.max(np.abs(np.diagonal(_as_square(w)) - 1.0)))


@dataclass(frozen=True)
class PPTResult:
    """Outcome of the positive-partial-transpose test on a state.

    gauge is 1 - n * lambda_min(rho^PT) for square bipartitions (<= 1 exactly
    when the state is PPT, up to the numerical tolerance) and None otherwise.
    """

    is_ppt: bool
    min_eigenvalue: float
    gauge: float | None


def ppt_gauge(rho, shape: BipartiteShape, overwrite: bool = False) -> PPTResult:
    """PPT test and gauge for a unit-trace state on the given bipartition.

    Only the ends of the partial transpose's spectrum are found, by
    `pt_extreme_eigenvalues`: lambda_min and the spectral radius, in an
    F-ordered copy of rho.  With `overwrite`, a writeable F-ordered float64 or
    complex128 rho is written in place of the copy."""
    rho = np.asarray(rho)
    trace = complex(np.trace(rho)).real
    if abs(trace - 1.0) > STATE_TRACE_TOL:
        raise ParameterError(f"state trace must be 1 within {STATE_TRACE_TOL}, got {trace}")
    lam_min, lam_max = pt_extreme_eigenvalues(rho if overwrite else rho.copy(order="F"), shape)
    spectral_radius = max(abs(lam_min), abs(lam_max))
    is_ppt = lam_min >= -PPT_EIGENVALUE_RTOL * spectral_radius
    gauge = 1.0 - shape.n * lam_min if shape.d1 == shape.d2 else None
    return PPTResult(is_ppt=bool(is_ppt), min_eigenvalue=lam_min, gauge=gauge)


def pt_spectrum_from_schmidt(schmidt) -> np.ndarray:
    """Spectrum of the partial transpose of a pure state, from its Schmidt
    coefficients: the coefficients themselves plus +-sqrt(li * lj) for every
    pair i < j.  Returns d**2 values, ascending."""
    lam = np.asarray(schmidt, dtype=float).ravel()
    if lam.size == 0 or float(lam.min()) < -1e-12 or abs(float(lam.sum()) - 1.0) > 1e-8:
        raise ParameterError("schmidt coefficients must be nonnegative and sum to 1")
    lam = np.clip(lam, 0.0, None)
    iu, ju = np.triu_indices(lam.size, k=1)
    cross = np.sqrt(lam[iu] * lam[ju])
    return np.sort(np.concatenate([lam, cross, -cross]))


def schmidt_coefficients(psi, shape: BipartiteShape) -> np.ndarray:
    """Schmidt coefficients (squared singular values of the coefficient
    matrix) of a bipartite vector, descending."""
    psi = np.asarray(psi).ravel()
    if psi.size != shape.n:
        raise ShapeError(f"vector of length {psi.size} does not match shape {shape}")
    singular = np.linalg.svd(psi.reshape(shape.d1, shape.d2), compute_uv=False)
    return singular**2
