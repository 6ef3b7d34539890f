"""Dense linear algebra on bipartite (block) matrices.

An operator on C^d1 (x) C^d2 is stored as an ordinary (d1*d2) x (d1*d2)
ndarray.  Basis vectors are flattened row-major on (first-factor index,
second-factor index), so the matrix is a d1 x d1 grid of contiguous
d2 x d2 blocks and the entry in block (i, j) at inner position (k, l)
sits at [i*d2 + k, j*d2 + l].  The dtype plays the role of the field tag:
float64 arrays take the real-symmetric eigensolver, complex arrays the
Hermitian one.  Both come from numpy's own OpenBLAS through `_blas`, whose
ctypes calls release the GIL, so trial workers overlap their eigensolves.
An eigensolve is one reduction of the lower triangle, as in eigvalsh, and
one finish.  The reduction is LAPACKE_zhetrd or LAPACKE_dsytrd, eigvalsh's
own, to a tridiagonal matrix, for the real field and below TWO_STAGE_MIN_N,
and from there for complex matrices LAPACK's two-stage reduction (Haidar,
Ltaief & Dongarra, SC'11), which numpy does not wrap: zhetrd_2stage, or for
`pt_extreme_eigenvalues` its first stage alone, zhetrd_he2hb, to a band of
the width kd that zhetrd_2stage picks (16 in OpenBLAS 0.3.31).  For all n
eigenvalues the finish is dsterf, which gives the bits of the drivers that
pair the same reduction with it (zheevd, dsyevd, zheevd_2stage), so
eigvalsh's bit for bit below TWO_STAGE_MIN_N.  For `pt_extreme_eigenvalues`
it is a bisection, once for the smallest and once for the largest
eigenvalue: on the tridiagonal matrix dstebz's Sturm counts, and on the band,
from its Gershgorin bounds, whether zpbtrf can factor the shifted band as
positive definite, O(n kd^2) work per step.  Where the OpenBLAS lacks a
symbol of the route, or a matrix's largest entry, which the Hermiticity check
finds, lies where the drivers would rescale it, np.linalg.eigvalsh is the
fallback.  A solver reads each matrix in the memory order it has, a C-ordered
one as its conjugate, to which these routines give the same eigenvalue bits.  `partial_transpose` and
`hermitian_eigenvalues` never write their input; `pt_eigenvalues` and
`pt_extreme_eigenvalues`, which the Monte Carlo trials call, do both steps in
their input's own memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blas
from .errors import NumericError, ParameterError, ShapeError

# Relative tolerance for the structural self-adjointness check.
HERMITICITY_RTOL = 1e-10

# Smallest complex matrix that takes the two-stage reduction.  In medians of 31
# paired calls on 2 cores, both on the lower triangle, zheevd_2stage is no slower
# than zheevd from here on at 1 and at 2 BLAS threads, and 1% slower at n =
# 361-370 with one.  For the two ends, the first stage and the band's bisection
# against the one-stage reduction and dstebz below here, and against the whole
# two-stage reduction and dstebz from here on, in ms (medians of 9 in-process
# calls, 2 cores, complex Hermitian matrices):
#
#     n       2 BLAS threads     1 BLAS thread
#     324      10.27 /  9.30      9.77 /  8.09
#     361      11.96 / 12.25     11.35 / 10.50
#     380      13.26 / 13.19     11.92 / 12.24
#     400      13.61 / 13.46     14.16 / 13.79
#     484      17.81 / 19.88     21.07 / 22.63
#     625      30.15 / 38.66     34.32 / 40.75
#     900      64.53 / 88.78     82.10 / 102.11
#    1600     243.4 / 316.3     422.0 / 524.2
#
# The band's ends break even near here too, so one bound serves every route.
TWO_STAGE_MIN_N = 380

# Python-level loops over a matrix take blocks of about this many entries:
# _transpose_blocks runs of slabs, and in `ensembles` the Bartlett draw's and
# the mirror's column blocks.  A block is a few numpy calls, each of which hands
# the GIL to the other trial workers, and its temporaries stay at 256 KB
_BLOCK_ENTRIES = 2**14

# is_hermitian compares a with its conjugate transpose in square tiles of this
# side, tile (i, j) against tile (j, i).  Its temporaries stay small (24 bytes
# per tile entry for the complex field, 0.2 MB), and a tile reads contiguous
# runs of either memory order, where a block of whole rows reads a column
# block of the other order with a stride
_HERMITICITY_TILE = 96


@dataclass(frozen=True)
class BipartiteShape:
    """Factor dimensions (d1, d2) of a bipartite space of total dimension d1*d2."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ParameterError(f"factor dimensions must be >= 1, got ({self.d1}, {self.d2})")

    @property
    def n(self) -> int:
        """Total dimension d1*d2."""
        return self.d1 * self.d2


def _as_square(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def _hermitian_scale(a: np.ndarray) -> float | None:
    """The largest modulus of a square a's entries where a equals its conjugate
    transpose to within HERMITICITY_RTOL times it, else None; None on a
    non-finite entry."""
    n, t = len(a), _HERMITICITY_TILE
    # np.maximum, unlike max(), keeps a NaN
    scale = deviation = np.float64(0.0)
    for i in range(0, n, t):
        for j in range(i, n, t):
            upper, lower = a[i:i + t, j:j + t], a[j:j + t, i:i + t]
            scale = np.maximum(scale, np.abs(upper).max())
            if not np.isfinite(scale):
                # a NaN or an infinity, for which inf <= HERMITICITY_RTOL * inf would
                # hold; checked before the subtraction could form inf - inf
                return None
            # conj(lower^T) - upper, entry for entry; subtracting in place holds
            # one temporary, not two (np.conjugate copies real input too, where
            # ndarray.conj would return a itself)
            diff = np.conjugate(lower.T)
            diff -= upper
            if not diff.any():
                # the tiles mirror each other exactly, as in every sampled
                # matrix, so lower's largest modulus is upper's
                continue
            scale = np.maximum(scale, np.abs(lower).max())
            if not np.isfinite(scale):
                return None
            deviation = np.maximum(deviation, np.abs(diff).max())
    scale = float(scale)
    return scale if float(deviation) <= HERMITICITY_RTOL * scale else None


def is_hermitian(a) -> bool:
    """Whether a equals its conjugate transpose to within HERMITICITY_RTOL times
    its largest entry; False on a non-finite entry."""
    return _hermitian_scale(_as_square(a)) is not None


def _bipartite(a, shape: BipartiteShape) -> np.ndarray:
    a = _as_square(a)
    if a.shape[0] != shape.n:
        raise ShapeError(
            f"matrix of size {a.shape[0]} does not match bipartite shape "
            f"({shape.d1}, {shape.d2}) with total dimension {shape.n}"
        )
    return a


def partial_transpose(a, shape: BipartiteShape) -> np.ndarray:
    """Transpose each d2 x d2 block of a in place of the block.

    In 4-index form the output satisfies out[i, j; k, l] = a[i, j; l, k].
    The operation is an involution and preserves trace, Frobenius norm,
    and self-adjointness.  The output is a new C-ordered array.
    """
    a = _bipartite(a, shape)
    # splitting each axis of a 2-d array gives a view, so a is read once
    blocks = (shape.d1, shape.d2, shape.d1, shape.d2)
    out = np.empty(a.shape, dtype=a.dtype)
    _transpose_blocks(out.reshape(blocks), reverse=False, source=a.reshape(blocks))
    return out


def _check_self_adjoint(a: np.ndarray) -> float:
    """a's largest entry modulus, once a passes the Hermiticity check."""
    scale = _hermitian_scale(a)
    if scale is None:
        # the check fails on a non-finite entry, so the full isfinite pass runs
        # only to name the failure
        if not np.all(np.isfinite(a)):
            raise NumericError("matrix has non-finite entries")
        raise NumericError("matrix is not self-adjoint within tolerance")
    return scale


def _dtype(a: np.ndarray):
    return np.complex128 if np.iscomplexobj(a) else np.float64


def _checked_eigenvalues(a: np.ndarray, in_place: bool, ends: bool = False) -> np.ndarray:
    """a's eigenvalues, all or with `ends` the smallest and the largest, once `_check_self_adjoint`
    passes a: by `_blas.eigenvalues` in a's memory, or in a copy in a's memory order unless `in_place`,
    a complex matrix of size TWO_STAGE_MIN_N or more on the two-stage reduction; by
    np.linalg.eigvalsh(a) where `_blas` returns None."""
    scale = _check_self_adjoint(a)
    work = a if in_place else np.array(a, dtype=_dtype(a))
    values = _blas.eigenvalues(work, np.iscomplexobj(work) and len(work) >= TWO_STAGE_MIN_N, ends, scale)
    if values is None:
        values = np.linalg.eigvalsh(a)
        return values[[0, -1]] if ends else values
    return values


def hermitian_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a self-adjoint matrix, ascending, with multiplicity.

    Real-symmetric input (float dtype) takes the real solver.  A complex
    matrix of size TWO_STAGE_MIN_N or more takes the two-stage reduction
    where numpy's OpenBLAS exports it; otherwise the values are exactly what
    np.linalg.eigvalsh returns, which is the fallback where a symbol is
    missing or the matrix's scale is one LAPACK's drivers would rescale.
    The solver reads the lower triangle of a copy in the input's memory
    order, so the input is never written.  Raises NumericError on non-finite
    entries, when the input is not self-adjoint to within HERMITICITY_RTOL,
    or when the solver does not converge.
    """
    a = _as_square(a)
    return _checked_eigenvalues(a, in_place=False)


def _transpose_blocks(blocks: np.ndarray, reverse: bool, source: np.ndarray | None = None):
    """Write into the 4-index view blocks[i, k, j, l] source's [i, l, j, k].

    With `reverse` it is source[i*, l*, j*, k*], * the index reversal
    x -> dim - 1 - x.  source is blocks itself by default: either map is its
    own inverse, so the entries move by swaps of slabs blocks[i] and
    blocks[i*], a run of slabs of about _BLOCK_ENTRIES entries, at least one,
    at a time, and the copy held is that run.  A distinct source, sharing no
    memory with blocks, is read once.
    """
    d1 = blocks.shape[0]
    source = blocks if source is None else source
    step = max(1, _BLOCK_ENTRIES // blocks[0].size)
    # runs of slabs i in [a, b); reversed, the partners [d1 - b, d1 - a) of the
    # slabs below the middle one, then the middle slab, its own partner
    if reverse:
        runs = [(a, min(a + step, d1 // 2)) for a in range(0, d1 // 2, step)]
        runs += [(d1 // 2, d1 // 2 + 1)] if d1 % 2 else []
    else:
        runs = [(a, min(a + step, d1)) for a in range(0, d1, step)]
    flip = (slice(None, None, -1),) * 4 if reverse else ()
    for a, b in runs:
        partners = slice(d1 - b, d1 - a) if reverse else slice(a, b)
        saved = source[a:b].copy() if source is blocks else source[a:b]
        if partners.start != a:
            blocks[a:b] = source[partners][flip].transpose(0, 3, 2, 1)
        blocks[partners] = saved[flip].transpose(0, 3, 2, 1)


def _pt_solve(w, shape: BipartiteShape, ends: bool) -> np.ndarray:
    """pt_eigenvalues, or with `ends` its smallest and largest value."""
    a = _bipartite(w, shape)
    dtype = _dtype(a)
    reverse = not (a.flags.c_contiguous or a.flags.f_contiguous)
    memory = a[::-1, ::-1] if reverse else a
    if not (memory.dtype == dtype and (memory.flags.c_contiguous or memory.flags.f_contiguous)
            and memory.flags.writeable):
        memory, reverse = np.array(a, dtype=dtype), False
    blocks = memory.ravel(order="K").reshape(shape.d1, shape.d2, shape.d1, shape.d2)
    _transpose_blocks(blocks, reverse)
    return _checked_eigenvalues(memory, in_place=True, ends=ends)


def pt_eigenvalues(w, shape: BipartiteShape) -> np.ndarray:
    """All eigenvalues, ascending, of w's partial transpose, found in w's memory.

    w is consumed: its memory becomes the partial transpose and then the
    reduction's workspace, so a trial holds one n x n buffer from its draw to
    its eigenvalues.  w may be C- or F-ordered, or such an array reversed in
    both indices, as sample_wishart's lauum path returns it; any other w is
    first copied, and is then left unchanged.  The blocks of w's memory read
    in C order are transposed in place, which leaves that memory, read in its
    own order, holding w's partial transpose, as (A^T)^Gamma = (A^Gamma)^T;
    a reversed w is un-reversed in the same pass, as J X J would move the
    eigenvalues' bits.  The reduction, chosen as in hermitian_eigenvalues,
    reads the lower triangle of that memory, and dsterf finishes.  So the
    values are those of hermitian_eigenvalues(partial_transpose(w, shape)),
    bit for bit.  Raises as hermitian_eigenvalues does.
    """
    return _pt_solve(w, shape, ends=False)


def pt_extreme_eigenvalues(w, shape: BipartiteShape) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of w's partial transpose, found in w's memory.

    w is consumed and read as by pt_eigenvalues.  Below TWO_STAGE_MIN_N, and
    for the real field, the reduction is pt_eigenvalues' own and two dstebz
    bisections then find the two ends, in O(n) work per step, where dsterf
    would find all n eigenvalues.  From TWO_STAGE_MIN_N on, a complex w
    takes only the first stage of the two-stage reduction, to a band of
    width kd, and each step of the two bisections is one banded Cholesky
    factorization (zpbtrf), in O(n kd^2) work.  The ends agree with
    pt_eigenvalues' first and last value to within a few units in the last
    place of the spectral radius, not bit for bit.  Raises as
    hermitian_eigenvalues does.
    """
    low, high = _pt_solve(w, shape, ends=True)
    return float(low), float(high)
