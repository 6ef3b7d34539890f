"""Dense linear algebra on bipartite (block) matrices.

An operator on C^d1 (x) C^d2 is stored as an ordinary (d1*d2) x (d1*d2)
ndarray.  Basis vectors are flattened row-major on (first-factor index,
second-factor index), so the matrix is a d1 x d1 grid of contiguous
d2 x d2 blocks and the entry in block (i, j) at inner position (k, l)
sits at [i*d2 + k, j*d2 + l].  The dtype plays the role of the field tag:
float64 arrays take the real-symmetric eigensolver, complex arrays the
Hermitian one.  Both come from numpy's own OpenBLAS through `_blas`, whose
ctypes calls release the GIL, so trial workers overlap their eigensolves.
Below TWO_STAGE_MIN_N, and for the real field, the solver is LAPACKE_zheevd
or LAPACKE_dsyevd, called as eigvalsh calls it, so the eigenvalues are
eigvalsh's bit for bit.  Complex matrices of size TWO_STAGE_MIN_N and up go
to LAPACK's two-stage tridiagonal reduction (zheevd_2stage; Haidar, Ltaief &
Dongarra, SC'11), which numpy does not wrap.  Where the OpenBLAS lacks the
symbol, np.linalg.eigvalsh is the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blas
from .errors import NumericError, ParameterError, ShapeError

# Relative tolerance for the structural self-adjointness check.
HERMITICITY_RTOL = 1e-10

# Smallest complex matrix that takes the two-stage eigensolver.  On 2 cores at
# the default 2 BLAS threads it is 12% slower than eigvalsh at n = 1225 and
# 4-12% faster from n = 1296 on; with one BLAS thread it wins from n = 625.
TWO_STAGE_MIN_N = 1250

# is_hermitian compares a's rows with its columns in blocks of about this many
# entries, so its temporaries stay small; a matrix this size or smaller (n up
# to 256) is one block
_HERMITICITY_BLOCK_ENTRIES = 2**16


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


def is_hermitian(a) -> bool:
    a = _as_square(a)
    n = len(a)
    rows = max(1, _HERMITICITY_BLOCK_ENTRIES // max(n, 1))
    # np.maximum, unlike max(), keeps a NaN
    scale = deviation = np.float64(0.0)
    for i in range(0, n, rows):
        block = a[i:i + rows]
        scale = np.maximum(scale, np.abs(block).max())
        if not np.isfinite(scale):
            # a NaN or an infinity, for which inf <= HERMITICITY_RTOL * inf would
            # hold; checked before the subtraction could form inf - inf
            return False
        deviation = np.maximum(deviation, np.abs(block - a[:, i:i + rows].conj().T).max())
    if scale == 0.0:
        return True
    return float(deviation) <= HERMITICITY_RTOL * float(scale)


def partial_transpose(a, shape: BipartiteShape) -> np.ndarray:
    """Transpose each d2 x d2 block of a in place of the block.

    In 4-index form the output satisfies out[i, j; k, l] = a[i, j; l, k].
    The operation is an involution and preserves trace, Frobenius norm,
    and self-adjointness.
    """
    a = _as_square(a)
    if a.shape[0] != shape.n:
        raise ShapeError(
            f"matrix of size {a.shape[0]} does not match bipartite shape "
            f"({shape.d1}, {shape.d2}) with total dimension {shape.n}"
        )
    # [i, k, j, l] indexes the entry of block (i, j) at inner position (k, l);
    # splitting each axis of a 2-d array gives a view, so out is written once
    blocks = (shape.d1, shape.d2, shape.d1, shape.d2)
    out = np.empty_like(a, order="C")
    out.reshape(blocks)[...] = a.reshape(blocks).swapaxes(1, 3)
    return out


def hermitian_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a self-adjoint matrix, ascending, with multiplicity.

    Real-symmetric input (float dtype) takes the real solver.  A complex
    matrix of size TWO_STAGE_MIN_N or more goes to zheevd_2stage when
    numpy's OpenBLAS exports it; otherwise LAPACKE_zheevd or
    LAPACKE_dsyevd returns exactly what np.linalg.eigvalsh would, which is
    the fallback when that symbol is missing.  The input is never written.
    Raises NumericError on non-finite entries, when the input is not
    self-adjoint to within HERMITICITY_RTOL, or when the solver does not
    converge.
    """
    a = _as_square(a)
    if not np.all(np.isfinite(a)):
        raise NumericError("matrix has non-finite entries")
    if not is_hermitian(a):
        raise NumericError("matrix is not self-adjoint within tolerance")
    complex_field = np.iscomplexobj(a)
    if complex_field and len(a) >= TWO_STAGE_MIN_N:
        solver = _blas.zheevd_2stage()
        if solver is not None:
            # Read column-major, the C-ordered copy is the transpose of a, i.e.
            # its conjugate, which has the same eigenvalues; its upper triangle
            # is a's lower one, the triangle eigvalsh reads.
            return _blas.eigenvalues(solver, a, "C", b"U")
    solver = _blas.heevd(complex_field)
    if solver is not None:
        # the column-major copy and the triangle that eigvalsh passes
        return _blas.eigenvalues(solver, a, "F", b"L")
    return np.linalg.eigvalsh(a)
