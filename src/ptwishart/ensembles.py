"""Seeded samplers for the random matrix and random state ensembles.

Every sampler is a pure function of its parameters and a SampleStream, so a
Monte Carlo run parallelizes by giving each trial its own stream index and
the output is reproducible bit for bit regardless of scheduling.  Complex
Gaussian entries follow the unit-total-variance convention: real and
imaginary parts are independent N(0, 1/2), so E|entry|^2 = 1.

Draw layout: every sampler takes its Gaussian vectors as the rows of one
(count, 2*size) standard normal draw viewed as complex, so a complex entry is
two consecutive normals (real part first); the real field draws (count, size).
An n x p Ginibre matrix G is the transpose of such a (p, n) draw, and a row
block of the draw is a contiguous run of the stream, which lets
`sample_wishart` draw G^T in row blocks without changing any value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, sqrt

import numpy as np
from scipy.linalg import blas

from .errors import ParameterError
from .linalg import BipartiteShape

FIELDS = ("real", "complex")

# ancilla rows of G^T drawn per Gram update; bounds sample_wishart's working memory
GRAM_CHUNK = 512


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


def _standard_normal_rows(rng: np.random.Generator, count: int, size: int, field: str) -> np.ndarray:
    """count x size standard normals; a complex entry is two consecutive draws
    (real, imaginary), unscaled, so E|entry|^2 = 2."""
    if field == "real":
        return rng.standard_normal((count, size))
    return rng.standard_normal((count, 2 * size)).view(np.complex128)


def sample_ginibre(rows: int, cols: int, field: str, stream: SampleStream) -> np.ndarray:
    """rows x cols matrix of i.i.d. standard normal entries (real or complex):
    the transpose of a (cols, rows) draw in the module's layout."""
    if rows < 1 or cols < 1:
        raise ParameterError(f"matrix dimensions must be >= 1, got ({rows}, {cols})")
    _check_field(field)
    g = _standard_normal_rows(stream.generator(), cols, rows, field).T
    return g if field == "real" else g / sqrt(2.0)


def sample_wishart(params: WishartParams, stream: SampleStream) -> np.ndarray:
    """Wishart sample (1/p) G G^dagger, G = sample_ginibre(n, p, field, stream);
    exactly Hermitian, positive semidefinite.

    G^T is drawn GRAM_CHUNK rows at a time and each block is added to the lower
    triangle of the Gram by zherk/dsyrk, so working memory is O(n^2 + n * GRAM_CHUNK).
    The chunk size changes W only by rounding in the accumulation.
    """
    n, p, field = params.n, params.p, params.field
    rng = stream.generator()
    if field == "real":
        update, alpha, dtype = blas.dsyrk, 1.0 / p, np.float64
    else:
        # the unscaled complex draw has E|entry|^2 = 2
        update, alpha, dtype = blas.zherk, 0.5 / p, np.complex128
    c = np.zeros((n, n), dtype=dtype, order="F")
    for start in range(0, p, GRAM_CHUNK):
        block = _standard_normal_rows(rng, min(GRAM_CHUNK, p - start), n, field)
        # block.T is the F-ordered n x rows slice of G: c += alpha * G_k G_k^dagger
        c = update(alpha, block.T, beta=1.0, c=c, lower=1, overwrite_c=1)
    # mirror the lower triangle; the diagonal is counted twice
    w = c + c.conj().T
    w[np.diag_indices(n)] *= 0.5
    return w


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
    vectors = _standard_normal_rows(stream.generator(), p, n, "complex").T
    vectors /= np.linalg.norm(vectors, axis=0)
    rho = vectors @ vectors.conj().T / p
    return (rho + rho.conj().T) / 2.0


def sample_pure_state(shape: BipartiteShape, stream: SampleStream) -> np.ndarray:
    """Haar-uniform unit vector on C^(d1*d2): normalized complex Gaussian."""
    v = _standard_normal_rows(stream.generator(), 1, shape.n, "complex")[0]
    return v / np.linalg.norm(v)
