"""Seeded samplers for the random matrix and random state ensembles.

Every sampler is a pure function of its parameters and a SampleStream, so a
Monte Carlo run parallelizes by giving each trial its own stream index and
the output is reproducible bit for bit regardless of scheduling.  Complex
Gaussian entries follow the unit-total-variance convention: real and
imaginary parts are independent N(0, 1/2), so E|entry|^2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, sqrt

import numpy as np

from .errors import ParameterError
from .linalg import BipartiteShape

FIELDS = ("real", "complex")


def _check_field(field: str):
    if field not in FIELDS:
        raise ParameterError(f"field must be one of {FIELDS}, got {field!r}")


@dataclass(frozen=True)
class SampleStream:
    """Reproducible randomness source addressed by (master_seed, stream_index).

    Streams with different indices are derived from the master seed by a
    splittable hash (numpy SeedSequence spawn keys), so they are
    statistically independent by construction.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ParameterError("master_seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise ParameterError("stream_index must be >= 0")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(seq))


def ancilla_dim(alpha: float, n: int) -> int:
    """Ancilla count p = alpha * n: the nearest integer when alpha * n is within
    1e-9 of one, else the floor.  Plain flooring would turn 4.1 * 100 =
    409.99999999999994 into 409."""
    x = alpha * n
    nearest = round(x)
    return nearest if abs(x - nearest) <= 1e-9 else int(floor(x))


@dataclass(frozen=True)
class WishartParams:
    """Matrix size n and ancilla count p, or aspect alpha with p = ancilla_dim(alpha, n)."""

    n: int
    p: int | None = None
    alpha: float | None = None
    field: str = "complex"

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"matrix size must be >= 1, got {self.n}")
        _check_field(self.field)
        if (self.p is None) == (self.alpha is None):
            raise ParameterError("exactly one of p and alpha must be given")
        if self.p is None:
            object.__setattr__(self, "p", ancilla_dim(self.alpha, self.n))
        if self.p < 1:
            raise ParameterError(f"ancilla count must be >= 1, got {self.p}")


def sample_ginibre(rows: int, cols: int, field: str, stream: SampleStream) -> np.ndarray:
    """rows x cols matrix of i.i.d. standard normal entries (real or complex)."""
    if rows < 1 or cols < 1:
        raise ParameterError(f"matrix dimensions must be >= 1, got ({rows}, {cols})")
    _check_field(field)
    rng = stream.generator()
    if field == "real":
        return rng.standard_normal((rows, cols))
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / sqrt(2.0)


def sample_wishart(params: WishartParams, stream: SampleStream) -> np.ndarray:
    """Wishart sample (1/p) G G^dagger; Hermitian positive semidefinite."""
    g = sample_ginibre(params.n, params.p, params.field, stream)
    w = g @ g.conj().T / params.p
    # enforce exact self-adjointness against rounding in the product
    return (w + w.conj().T) / 2.0


def sample_induced_state(n: int, p: int, stream: SampleStream) -> np.ndarray:
    """Random induced state: a complex (n, p)-Wishart sample with unit trace.

    Equals in law the partial trace over a p-dimensional ancilla of a
    uniform pure state on C^n (x) C^p.
    """
    w = sample_wishart(WishartParams(n=n, p=p, field="complex"), stream)
    return w / np.trace(w).real


def sample_mixture_state(n: int, p: int, stream: SampleStream) -> np.ndarray:
    """Uniform average of p independent Haar-random rank-one projectors on C^n."""
    if n < 1 or p < 1:
        raise ParameterError(f"dimensions must be >= 1, got (n={n}, p={p})")
    rng = stream.generator()
    re = rng.standard_normal((n, p))
    im = rng.standard_normal((n, p))
    vectors = re + 1j * im
    vectors /= np.linalg.norm(vectors, axis=0)
    rho = vectors @ vectors.conj().T / p
    return (rho + rho.conj().T) / 2.0


def sample_pure_state(shape: BipartiteShape, stream: SampleStream) -> np.ndarray:
    """Haar-uniform unit vector on C^(d1*d2): normalized complex Gaussian."""
    rng = stream.generator()
    re = rng.standard_normal(shape.n)
    im = rng.standard_normal(shape.n)
    v = re + 1j * im
    return v / np.linalg.norm(v)
