"""Dense linear algebra on bipartite (block) matrices.

An operator on C^d1 (x) C^d2 is stored as an ordinary (d1*d2) x (d1*d2)
ndarray.  Basis vectors are flattened row-major on (first-factor index,
second-factor index), so the matrix is a d1 x d1 grid of contiguous
d2 x d2 blocks and the entry in block (i, j) at inner position (k, l)
sits at [i*d2 + k, j*d2 + l].  The dtype plays the role of the field tag:
float64 arrays take the real-symmetric LAPACK path, complex128 the
Hermitian one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError

# Relative tolerance for the structural self-adjointness check.
HERMITICITY_RTOL = 1e-10


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
    arithmetic automatically.  Raises NumericError on non-finite entries or
    when the input is not self-adjoint to within HERMITICITY_RTOL.
    """
    a = _as_square(a)
    if not np.all(np.isfinite(a)):
        raise NumericError("matrix has non-finite entries")
    if not is_hermitian(a):
        raise NumericError("matrix is not self-adjoint within tolerance")
    return np.linalg.eigvalsh(a)
