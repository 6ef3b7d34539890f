"""Seeded samplers for the random matrix and random state ensembles.

Every sampler is a pure function of its parameters and a SampleStream, so a
Monte Carlo run parallelizes by giving each trial its own stream index and
the output is reproducible bit for bit regardless of scheduling.  Wishart
samples are scaled for the unit-total-variance convention: the entries of G
in W = G G^dagger / p have E|entry|^2 = 1 (complex: real and imaginary parts
independent N(0, 1/2)), so E W = Id.

Draw layout: each state sampler takes its Gaussian vectors as the rows of one
(count, 2*size) standard normal draw viewed as complex, so a complex entry is
two consecutive normals (real part first).
A row block of such a draw is a contiguous run of the stream, which lets
`sample_mixture_state` draw its vectors in row blocks without changing any
value.  `sample_wishart` draws no n x p Ginibre matrix: it draws W's Bartlett
factor L (Edelman & Rao, Random matrix theory, Acta Numerica 2005), first the
min(n, p) diagonal chi-square variates in diagonal order, then the strictly
lower entries column by column, each column top to bottom, a complex entry
again two consecutive normals.  One builder, `_fill_bartlett`, draws them into
the layout that `_lauum_route`'s Gram routine reads: L itself for zherk/dsyrk,
or the index-reversed view of the array lauum overwrites, a reversal that is
undone inside the draw.  So every sampler returns an F-ordered n x n array in
natural index order, the one layout `linalg`'s solvers read.  It draws the
normals of a block of whole columns, about _BLOCK_ENTRIES entries, in one
call.  The block is a run of the stream, so the values are those of one call
per column; but a draw makes a few numpy calls, not one per column, and each
call hands the GIL to the other trial workers and waits to take it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from . import _blas
from .errors import ParameterError
from .linalg import _BLOCK_ENTRIES, BipartiteShape

FIELDS = ("real", "complex")

# vectors drawn per Gram update; bounds sample_mixture_state's working memory
GRAM_CHUNK = 512

# smallest n whose square Bartlett factor goes to lauum.  OpenBLAS's lauum
# result depends on the BLAS thread count at every n, zherk's did at no n
# measured, and numpy's complex eigvalsh not up to n = 160; so below the bound
# a complex report does not depend on the trial-worker count.  lauum would
# save under 1 ms per trial there.
LAUUM_MIN_N = 256

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


def _standard_normal_rows(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    """count x size complex standard normals; an entry is two consecutive draws
    (real, imaginary), unscaled, so E|entry|^2 = 2."""
    return rng.standard_normal((count, 2 * size)).view(np.complex128)


def _lauum_route(n: int, p: int) -> bool:
    """Whether sample_wishart forms L L^dagger with lauum: the factor is square
    (p >= n) and n >= LAUUM_MIN_N.  Otherwise it takes zherk/dsyrk."""
    return p >= n >= LAUUM_MIN_N


def _block_columns(n: int) -> int:
    """Columns of an n-row matrix in one block of about _BLOCK_ENTRIES entries, at least one."""
    return max(1, _BLOCK_ENTRIES // n)


def _draw_bytes(n: int, p: int, field: str, mixture: bool) -> int:
    """Bytes a draw holds beside its n x n buffer: a GRAM_CHUNK block of mixture
    vectors, or `_fill_bartlett`'s scratch block (at most 256 KB) and, off the
    lauum route, the n x min(n, p) Bartlett factor zherk/dsyrk multiplies."""
    item = 8 if field == "real" else 16
    if mixture:
        return 16 * n * min(GRAM_CHUNK, p)
    m = min(n, p)
    scratch = item * min(m, _block_columns(n)) * (n - 1)
    return scratch if _lauum_route(n, p) else scratch + item * n * m


def _fill_bartlett(rng: np.random.Generator, p: int, out: np.ndarray) -> np.ndarray:
    """Draw the Bartlett factor of an n x p draw into `out`, a zeroed n x min(n, p)
    view of either field's dtype, and return it.  Diagonal entry j is the square
    root of a chi-square variate with p - j degrees of freedom, 2(p - j) for the
    complex field (matching E|entry|^2 = 2); the entries below it are normals,
    drawn `_block_columns(n)` columns at a time, in one call into a scratch
    block, and copied out column by column, so `out` may be any view."""
    n, m = out.shape
    # doubled in float64: 2(p - j) in int64 would wrap for p near MAX_ANCILLA
    degrees = (p - np.arange(m)) * (2.0 if np.iscomplexobj(out) else 1.0)
    out[np.diag_indices(m)] = np.sqrt(rng.chisquare(degrees))
    cols = _block_columns(n)
    scratch = np.empty(min(m, cols) * (n - 1), dtype=out.dtype)
    for j in range(0, m, cols):
        k = min(m, j + cols)
        # columns j..k-1 hold n - 1 - c entries each below the diagonal
        block = scratch[:(k - j) * (n - 1) - (k - j) * (j + k - 1) // 2]
        rng.standard_normal(out=block.view(np.float64))
        start = 0
        for c in range(j, k):
            out[c + 1:, c] = block[start:start + n - 1 - c]
            start += n - 1 - c
    return out


def _bartlett_factor(rng: np.random.Generator, n: int, p: int, field: str) -> np.ndarray:
    """F-ordered n x min(n, p) lower-trapezoidal L with L L^dagger equal in law to
    G G^dagger for an n x p draw G in the module's layout."""
    dtype = np.float64 if field == "real" else np.complex128
    return _fill_bartlett(rng, p, np.zeros((n, min(n, p)), dtype=dtype, order="F"))


def _mirror_lower(c: np.ndarray) -> np.ndarray:
    """Make c exactly Hermitian from its lower triangle, in place, and return it.

    The strict upper triangle, whatever it holds, becomes the conjugate of the
    strict lower one, and each diagonal entry d becomes (d + conj(d)) * 0.5:
    the values of c + c^dagger with the doubly counted diagonal halved, bit
    for bit unless a Gram entry is exactly zero (x + 0 turns -0.0 into 0.0).
    The copy runs in column blocks of about _BLOCK_ENTRIES entries, so its
    temporaries stay small.
    """
    n = len(c)
    cols = min(n, _block_columns(n))
    # the strict upper triangle of a diagonal block, the last one's leading part
    upper = ~np.tri(cols, dtype=bool)
    for j in range(0, n, cols):
        k = min(n, j + cols)
        np.conjugate(c[j:k, :j].T, out=c[:j, j:k])
        np.copyto(c[j:k, j:k], np.conjugate(c[j:k, j:k].T), where=upper[:k - j, :k - j])
    diagonal = np.arange(n)
    d = c[diagonal, diagonal]
    d += d.conj()
    d *= 0.5
    c[diagonal, diagonal] = d
    return c


def sample_wishart(params: WishartParams, stream: SampleStream) -> np.ndarray:
    """Wishart sample (1/p) G G^dagger of an n x p Gaussian G (real or complex with
    E|entry|^2 = 1); exactly Hermitian, positive semidefinite, of rank min(n, p).

    Computed as (1/p) L L^dagger from the Bartlett factor L: about n^2/2 normals
    in place of the n * p of G.  For p >= n the factor is square, and with J the
    index reversal, U = J L J is upper triangular and L L^dagger = J (U U^dagger) J.
    On `_lauum_route` the builder fills the reversed view J U J of an F-ordered U,
    and zlauum/dlauum forms U U^dagger in place of U in about half the time of
    a zherk, which would multiply the zero upper triangle of L.  lauum was
    written for the Cholesky factors of potri and reads only the real part of
    the diagonal; the Bartlett diagonal is a square root of a chi-square
    variate, real, so nothing is lost.  The reversal is undone inside the
    draw: U U^dagger's upper triangle, read through the reversed view and
    scaled, is copied into U's strict lower triangle and diagonal, one column
    block at a time, and mirrored, so the sample is U's own F-ordered buffer
    in natural index order, the one n x n array the draw allocates.
    Otherwise the builder fills L and one zherk/dsyrk
    forms L L^dagger in a zeroed F-ordered array, which is mirrored in place and
    returned; for p < n the factor is not square.  `_blas` calls both routines
    in numpy's OpenBLAS.
    """
    n, p, field = params.n, params.p, params.field
    # the unscaled complex draw has E|entry|^2 = 2
    scale = 1.0 / p if field == "real" else 0.5 / p
    if not _lauum_route(n, p):
        factor = _bartlett_factor(stream.generator(), n, p, field)
        c = _blas.herk(scale, factor, np.zeros((n, n), dtype=factor.dtype, order="F"))
        return _mirror_lower(c)
    u = np.zeros((n, n), dtype=np.float64 if field == "real" else np.complex128, order="F")
    _fill_bartlett(stream.generator(), p, u[::-1, ::-1])
    u = _blas.lauum(u)
    # reversed back, U U^dagger's upper triangle is L L^dagger's lower one: read
    # through the reversed view and scaled, it fills u's strict lower triangle
    # one block of columns at a time, then u's diagonal.  A diagonal block's
    # mask keeps it off u's diagonal and upper triangle, which later blocks read
    reversed_u, cols = u[::-1, ::-1], _block_columns(n)
    lower = np.tri(cols, k=-1, dtype=bool)
    for j in range(0, n, cols):
        k = min(n, j + cols)
        np.copyto(u[j:k, j:k], reversed_u[j:k, j:k] * scale, where=lower[:k - j, :k - j])
        np.multiply(reversed_u[k:, j:k], scale, out=u[k:, j:k])
    np.fill_diagonal(u, np.diagonal(reversed_u) * scale)
    return _mirror_lower(u)


def sample_induced_state(n: int, p: int, stream: SampleStream) -> np.ndarray:
    """Random induced state: a complex (n, p)-Wishart sample with unit trace.

    Equals in law the partial trace over a p-dimensional ancilla of a
    uniform pure state on C^n (x) C^p.  The sample is divided by its trace in
    place.
    """
    w = sample_wishart(WishartParams(n=n, p=p, field="complex"), stream)
    w /= np.trace(w).real
    return w


def sample_mixture_state(n: int, p: int, stream: SampleStream) -> np.ndarray:
    """Uniform average of p independent Haar-random rank-one projectors on C^n;
    exactly Hermitian.

    The vectors are drawn GRAM_CHUNK at a time, normalized and added to the lower
    triangle by `_blas.herk` (zherk), so working memory is O(n^2 + n * GRAM_CHUNK).
    """
    if n < 1 or p < 1:
        raise ParameterError(f"dimensions must be >= 1, got (n={n}, p={p})")
    rng = stream.generator()
    c = np.zeros((n, n), dtype=np.complex128, order="F")
    for start in range(0, p, GRAM_CHUNK):
        block = _standard_normal_rows(rng, min(GRAM_CHUNK, p - start), n)
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        # block.T is F-ordered n x rows: c += (1/p) sum of v v^dagger over the block
        c = _blas.herk(1.0 / p, block.T, c, beta=1.0)
    return _mirror_lower(c)


def sample_pure_state(shape: BipartiteShape, stream: SampleStream) -> np.ndarray:
    """Haar-uniform unit vector on C^(d1*d2): normalized complex Gaussian."""
    v = _standard_normal_rows(stream.generator(), 1, shape.n)[0]
    return v / np.linalg.norm(v)
