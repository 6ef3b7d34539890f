"""Dense linear algebra on bipartite (block) matrices.

An operator on C^d1 (x) C^d2 is stored as an ordinary (d1*d2) x (d1*d2)
ndarray.  Basis vectors are flattened row-major on (first-factor index,
second-factor index), so the matrix is a d1 x d1 grid of contiguous
d2 x d2 blocks and the entry in block (i, j) at inner position (k, l)
sits at [i*d2 + k, j*d2 + l].  The dtype plays the role of the field tag:
float64 arrays take numpy's real-symmetric eigensolver, complex arrays its
Hermitian one, except that complex matrices of size TWO_STAGE_MIN_N and up
go to LAPACK's two-stage tridiagonal reduction (zheevd_2stage; Haidar,
Ltaief & Dongarra, SC'11), which numpy and scipy do not wrap.
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

# LAPACKE's matrix_layout value for column-major storage
_LAPACK_COL_MAJOR = 102


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
    scale = float(np.abs(a).max()) if a.size else 0.0
    if scale == 0.0:
        return True
    return float(np.abs(a - a.conj().T).max()) <= HERMITICITY_RTOL * scale


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
    # blocks[i, k, j, l] is the entry of block (i, j) at inner position (k, l)
    blocks = a.reshape(shape.d1, shape.d2, shape.d1, shape.d2)
    return blocks.swapaxes(1, 3).reshape(shape.n, shape.n).copy()


def hermitian_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a self-adjoint matrix, ascending, with multiplicity.

    Real-symmetric input (float dtype) is dispatched by LAPACK to real
    arithmetic automatically.  A complex matrix of size TWO_STAGE_MIN_N or
    more goes to zheevd_2stage when the loaded OpenBLAS exports it; the
    input is never written.  Raises NumericError on non-finite entries, when
    the input is not self-adjoint to within HERMITICITY_RTOL, or when the
    two-stage solver does not converge.
    """
    a = _as_square(a)
    if not np.all(np.isfinite(a)):
        raise NumericError("matrix has non-finite entries")
    if not is_hermitian(a):
        raise NumericError("matrix is not self-adjoint within tolerance")
    if np.iscomplexobj(a) and len(a) >= TWO_STAGE_MIN_N:
        solver = _blas.zheevd_2stage()
        if solver is not None:
            return _two_stage_eigenvalues(solver, a)
    return np.linalg.eigvalsh(a)


def _two_stage_eigenvalues(solver, a: np.ndarray) -> np.ndarray:
    # The working copy takes the place of the one eigvalsh makes.  Read
    # column-major, the C-ordered copy is the transpose of a, i.e. its
    # conjugate, which has the same eigenvalues; its upper triangle is a's
    # lower one, the triangle eigvalsh reads.
    work = np.array(a, dtype=np.complex128, order="C")
    n = len(work)
    eigenvalues = np.empty(n)
    info = solver(_LAPACK_COL_MAJOR, b"N", b"U", n, work.ctypes.data, n, eigenvalues.ctypes.data)
    if info != 0:
        raise NumericError(f"zheevd_2stage failed with info {info}")
    return eigenvalues
