"""Seeded samplers for the random matrix and random state ensembles.

Every sampler is a pure function of its parameters and a SampleStream, so a
Monte Carlo run parallelizes by giving each trial its own stream index and
the output is reproducible bit for bit regardless of scheduling.  Wishart
samples are scaled for the unit-total-variance convention: the entries of G
in W = G G^dagger / p have E|entry|^2 = 1 (complex: real and imaginary parts
independent N(0, 1/2)), so E W = Id.

Draw layout: every sampler takes its Gaussian vectors as the rows of one
(count, 2*size) standard normal draw viewed as complex, so a complex entry is
two consecutive normals (real part first); the real field draws (count, size).
A row block of such a draw is a contiguous run of the stream, which lets
`sample_mixture_state` draw its vectors in row blocks without changing any
value.  `sample_wishart` draws no n x p Ginibre matrix: it draws W's Bartlett
factor L (Edelman & Rao, Random matrix theory, Acta Numerica 2005), first the
min(n, p) diagonal chi-square variates in diagonal order, then the strictly
lower entries column by column, each column top to bottom, a complex entry
again two consecutive normals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np
from scipy.linalg import blas

from .errors import ParameterError
from .linalg import BipartiteShape

FIELDS = ("real", "complex")

# vectors drawn per Gram update; bounds sample_mixture_state's working memory
GRAM_CHUNK = 512

# largest ancilla count, well inside the int64 range of the chi-square degrees of
# freedom p - j that sample_wishart draws with
MAX_ANCILLA = 2**62


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


def check_ancilla(p, origin: str = ""):
    """Refuse an ancilla count outside 1..MAX_ANCILLA; `origin` says where p came from."""
    if not 1 <= p <= MAX_ANCILLA:
        raise ParameterError(f"p must be between 1 and 2**62, got {p}{origin}")


def ancilla_dim(alpha: float, n: int) -> int:
    """Ancilla count p = alpha * n: the nearest integer when alpha * n is within
    1e-9 of one, else the floor.  Plain flooring would turn 4.1 * 100 =
    409.99999999999994 into 409.  Raises ParameterError unless 1 <= p <= MAX_ANCILLA."""
    p = alpha * n
    if p <= MAX_ANCILLA:  # a larger p, inf included, is refused unrounded
        nearest = round(p)
        p = nearest if abs(p - nearest) <= 1e-9 else int(floor(p))
    check_ancilla(p, f" from alpha {alpha} at n={n}")
    return p


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
        check_ancilla(self.p)


def _standard_normal_rows(rng: np.random.Generator, count: int, size: int, field: str) -> np.ndarray:
    """count x size standard normals; a complex entry is two consecutive draws
    (real, imaginary), unscaled, so E|entry|^2 = 2."""
    if field == "real":
        return rng.standard_normal((count, size))
    return rng.standard_normal((count, 2 * size)).view(np.complex128)


def _bartlett_factor(rng: np.random.Generator, n: int, p: int, field: str) -> np.ndarray:
    """F-ordered n x min(n, p) lower-trapezoidal L with L L^dagger equal in law to
    G G^dagger for an n x p draw G in the module's layout.

    Diagonal entry j is the square root of a chi-square variate with p - j degrees
    of freedom, 2(p - j) for the complex field (matching E|entry|^2 = 2); the
    entries below it are independent normals.
    """
    m = min(n, p)
    # doubled in float64: 2(p - j) in int64 would wrap for p near MAX_ANCILLA
    diagonal = np.sqrt(rng.chisquare((p - np.arange(m)) * (1.0 if field == "real" else 2.0)))
    factor = np.zeros((n, m), dtype=np.float64 if field == "real" else np.complex128, order="F")
    factor[np.diag_indices(m)] = diagonal
    for j in range(m):
        # the column below the diagonal is contiguous; a complex entry is two normals
        rng.standard_normal(out=factor[j + 1:, j].view(np.float64))
    return factor


def _mirror_lower(c: np.ndarray) -> np.ndarray:
    """Exactly Hermitian matrix with the lower triangle of c, whose strict upper
    triangle is zero: c + c^dagger with the doubly counted diagonal halved."""
    w = c.conj().T
    w += c
    w[np.diag_indices(len(w))] *= 0.5
    return w


def sample_wishart(params: WishartParams, stream: SampleStream) -> np.ndarray:
    """Wishart sample (1/p) G G^dagger of an n x p Gaussian G (real or complex with
    E|entry|^2 = 1); exactly Hermitian, positive semidefinite, of rank min(n, p).

    Computed as (1/p) L L^dagger from the Bartlett factor L, one zherk/dsyrk on
    the n x min(n, p) factor: about n^2/2 normals in place of the n * p of G.
    """
    n, p, field = params.n, params.p, params.field
    if field == "real":
        update, alpha, dtype = blas.dsyrk, 1.0 / p, np.float64
    else:
        # the unscaled complex draw has E|entry|^2 = 2
        update, alpha, dtype = blas.zherk, 0.5 / p, np.complex128
    c = np.zeros((n, n), dtype=dtype, order="F")
    # the factor is a temporary, released before the mirror allocates
    c = update(alpha, _bartlett_factor(stream.generator(), n, p, field), c=c, lower=1, overwrite_c=1)
    return _mirror_lower(c)


def sample_induced_state(n: int, p: int, stream: SampleStream) -> np.ndarray:
    """Random induced state: a complex (n, p)-Wishart sample with unit trace.

    Equals in law the partial trace over a p-dimensional ancilla of a
    uniform pure state on C^n (x) C^p.
    """
    w = sample_wishart(WishartParams(n=n, p=p, field="complex"), stream)
    return w / np.trace(w).real


def sample_mixture_state(n: int, p: int, stream: SampleStream) -> np.ndarray:
    """Uniform average of p independent Haar-random rank-one projectors on C^n;
    exactly Hermitian.

    The vectors are drawn GRAM_CHUNK at a time, normalized and added to the lower
    triangle by zherk, so working memory is O(n^2 + n * GRAM_CHUNK).
    """
    if n < 1 or p < 1:
        raise ParameterError(f"dimensions must be >= 1, got (n={n}, p={p})")
    rng = stream.generator()
    c = np.zeros((n, n), dtype=np.complex128, order="F")
    for start in range(0, p, GRAM_CHUNK):
        block = _standard_normal_rows(rng, min(GRAM_CHUNK, p - start), n, "complex")
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        # block.T is F-ordered n x rows: c += (1/p) sum of v v^dagger over the block
        c = blas.zherk(1.0 / p, block.T, beta=1.0, c=c, lower=1, overwrite_c=1)
    return _mirror_lower(c)


def sample_pure_state(shape: BipartiteShape, stream: SampleStream) -> np.ndarray:
    """Haar-uniform unit vector on C^(d1*d2): normalized complex Gaussian."""
    v = _standard_normal_rows(stream.generator(), 1, shape.n, "complex")[0]
    return v / np.linalg.norm(v)
