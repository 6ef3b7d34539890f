"""Dense linear algebra on bipartite (block) matrices.

An operator on C^d1 (x) C^d2 is stored as an ordinary (d1*d2) x (d1*d2)
ndarray.  Basis vectors are flattened row-major on (first-factor index,
second-factor index), so the matrix is a d1 x d1 grid of contiguous
d2 x d2 blocks and the entry in block (i, j) at inner position (k, l)
sits at [i*d2 + k, j*d2 + l].  The dtype plays the role of the field tag:
float64 arrays take the real-symmetric eigensolver, complex arrays the
Hermitian one.  Every eigensolve is one `_blas.eigenvalues` call, whose
docstring and module docstring describe its routes through numpy's own
OpenBLAS and its np.linalg.eigvalsh fallback; its ctypes calls release the
GIL, so trial workers overlap their eigensolves.  Every solve reads
F-ordered memory in natural index order: F in place, else an F-ordered copy.
`partial_transpose` and `hermitian_eigenvalues` never write their input;
`pt_eigenvalues` and `pt_extreme_eigenvalues`, which the Monte Carlo trials
call, do both steps in the memory of a writeable F-ordered float64 or
complex128 input, as every sampler returns, and in a copy of any other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blas
from .errors import NumericError, ParameterError, ShapeError

# Relative tolerance for the structural self-adjointness check.
HERMITICITY_RTOL = 1e-10

# Python-level loops over a matrix take blocks of about this many entries:
# _transpose_blocks runs of slabs, and in `ensembles` the column blocks of the
# Bartlett draw, of the lauum route's reversal and of the mirror.  A block is a
# few numpy calls, each of which hands the GIL to the other trial workers, and
# its temporaries stay at 256 KB
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
    out = np.array(_bipartite(a, shape), order="C")
    _transpose_blocks(out.reshape(shape.d1, shape.d2, shape.d1, shape.d2))
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


def hermitian_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a self-adjoint matrix, ascending, with multiplicity.

    Real-symmetric input (float dtype) takes the real solver, complex input
    the Hermitian one, on `_blas.eigenvalues`' route for all n values.  The
    values are float64 whatever the input's precision, and for float64 and
    complex128 input exactly np.linalg.eigvalsh's, except that complex
    matrices of size `_blas.TWO_STAGE_MIN_N` or more take the two-stage
    reduction.  The solver reads the lower triangle of an F-ordered float64
    or complex128 copy, so the input is never written.  Raises NumericError
    on non-finite entries, when the input is not self-adjoint to within
    HERMITICITY_RTOL, or when the solver does not converge.
    """
    a = _as_square(a)
    scale = _check_self_adjoint(a)
    return _blas.eigenvalues(np.array(a, dtype=_dtype(a), order="F"), scale)


def _transpose_blocks(blocks: np.ndarray):
    """Transpose each block of the 4-index view blocks in place: blocks[i, k, j, l]
    takes the entry at [i, l, j, k].  The slabs blocks[i] move a run of about
    _BLOCK_ENTRIES entries, at least one slab, at a time, and the copy held is
    that run."""
    d1 = blocks.shape[0]
    step = max(1, _BLOCK_ENTRIES // blocks[0].size)
    for a in range(0, d1, step):
        blocks[a:a + step] = blocks[a:a + step].copy().transpose(0, 3, 2, 1)


def _pt_solve(w, shape: BipartiteShape, ends: bool) -> np.ndarray:
    """pt_eigenvalues, or with `ends` its smallest and largest value."""
    a = _bipartite(w, shape)
    dtype = _dtype(a)
    if not (a.dtype == dtype and a.flags.f_contiguous and a.flags.writeable):
        a = np.array(a, dtype=dtype, order="F")
    _transpose_blocks(a.ravel(order="F").reshape(shape.d1, shape.d2, shape.d1, shape.d2))
    return _blas.eigenvalues(a, _check_self_adjoint(a), ends)


def pt_eigenvalues(w, shape: BipartiteShape) -> np.ndarray:
    """All eigenvalues, ascending, of w's partial transpose, found in w's memory.

    F in place, else an F-ordered copy: a writeable F-ordered float64 or
    complex128 w, as every sampler returns, is consumed, its memory becoming
    the partial transpose and then the reduction's workspace, so a trial
    holds one n x n buffer from its draw to its eigenvalues; any other w is
    first copied into such an array, and is then left unchanged.  The blocks
    of that memory read in C order, the transpose, are transposed in place,
    which leaves it, read in F order, holding w's partial transpose, as
    (A^T)^Gamma = (A^Gamma)^T.  `_blas.eigenvalues` then solves it on the
    route hermitian_eigenvalues takes, so the values are those of
    hermitian_eigenvalues(partial_transpose(w, shape)), bit for bit.  Raises
    as hermitian_eigenvalues does.
    """
    return _pt_solve(w, shape, ends=False)


def pt_extreme_eigenvalues(w, shape: BipartiteShape) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of w's partial transpose, found in w's memory.

    w is consumed and read as by pt_eigenvalues.  `_blas.eigenvalues` then
    finds only the two ends, by bisection, on the route for the ends that
    its module docstring describes.  They agree with pt_eigenvalues' first
    and last value to within a few units in the last place of the spectral
    radius, not bit for bit.  Raises as hermitian_eigenvalues does.
    """
    low, high = _pt_solve(w, shape, ends=True)
    return float(low), float(high)
