"""Every BLAS and LAPACK routine the package calls, and the thread count of
the OpenBLAS that runs them.

The routines come from numpy's own OpenBLAS (64-bit integers, "64_" suffix)
through ctypes, one cached lookup `_function` for all of them:

- `heevd`: LAPACKE_zheevd or LAPACKE_dsyevd, the front end of the routine
  numpy's eigvalsh itself calls, and `zheevd_2stage`: LAPACKE_zheevd_2stage,
  which numpy does not wrap; `eigenvalues` runs either on the lower triangle;
- `herk`: cblas_zherk or cblas_dsyrk;
- `lauum`: LAPACKE_zlauum or LAPACKE_dlauum.

A foreign call through ctypes releases the GIL, so trial workers run these
routines at the same time; numpy's eigvalsh holds the GIL.  Where numpy's
copy lacks a symbol (numpy < 2, or a numpy built on another BLAS), the
eigensolver lookups return None and the caller falls back to eigvalsh, while
`herk` and `lauum` form their products with numpy's matmul.

OpenBLAS starts one thread per core (or as many as OPENBLAS_NUM_THREADS
says).  Trial workers that all call it would run workers x cores threads, so
`split` gives numpy's copy max(1, its start-up count // workers) threads while
the workers run.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from ctypes import c_char, c_double, c_int, c_int64, c_void_p
from functools import cache

import numpy as np

from .errors import NumericError

# LAPACKE's matrix_layout and the CBLAS enum values for column-major storage,
# the lower triangle and no transpose
_COL_MAJOR = 102
_CBLAS_LOWER = 122
_CBLAS_NO_TRANS = 111

# the dtype and the (name, restype, argtypes) of each routine, indexed by "is
# the field complex"
_DTYPES = (np.float64, np.complex128)
_EVD = (c_int64, (c_int, c_char, c_char, c_int64, c_void_p, c_int64, c_void_p))
_HEEVD = [("scipy_LAPACKE_dsyevd64_", *_EVD), ("scipy_LAPACKE_zheevd64_", *_EVD)]
_ZHEEVD_2STAGE = ("scipy_LAPACKE_zheevd_2stage64_", *_EVD)
_UPDATE = (None, (c_int, c_int, c_int, c_int64, c_int64, c_double, c_void_p, c_int64, c_double,
                  c_void_p, c_int64))
_HERK = [("scipy_cblas_dsyrk64_", *_UPDATE), ("scipy_cblas_zherk64_", *_UPDATE)]
_LAUUM = [(name, c_int64, (c_int, c_char, c_int64, c_void_p, c_int64))
          for name in ("scipy_LAPACKE_dlauum64_", "scipy_LAPACKE_zlauum64_")]
_GET_THREADS = ("scipy_openblas_get_num_threads64_", c_int, ())
_SET_THREADS = ("scipy_openblas_set_num_threads64_", None, (c_int,))


def _mapped() -> tuple:
    """ctypes handles of the OpenBLAS libraries mapped into this process now."""
    try:
        with open("/proc/self/maps") as fh:
            # the path is the sixth field of a mapping line
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except OSError:
        return ()
    return tuple(ctypes.CDLL(path) for path in paths)


@cache
def _function(name: str, restype, argtypes: tuple):
    """The routine `name` with the given signature, or None when no mapped copy exports it."""
    for lib in _mapped():
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = argtypes
            return fn
    return None


@cache
def _threads(lookup=_function) -> tuple | None:
    """(get, set, start-up thread count) of numpy's OpenBLAS, or None without the symbols.
    `lookup` is bound at import, so a stand-in `_function` that a test installs cannot turn the split off."""
    get, set_ = lookup(*_GET_THREADS), lookup(*_SET_THREADS)
    if get is None or set_ is None:
        return None
    return get, set_, get()


def heevd(complex_field: bool):
    """LAPACKE_zheevd (complex) or LAPACKE_dsyevd (real), or None:
    solver(layout, jobz, uplo, n, a, lda, w) -> info."""
    return _function(*_HEEVD[complex_field])


def zheevd_2stage():
    """LAPACKE_zheevd_2stage, with heevd's signature, or None."""
    return _function(*_ZHEEVD_2STAGE)


def eigenvalues(solver, work: np.ndarray) -> np.ndarray:
    """The eigenvalues, ascending, that `solver` (from `heevd` or `zheevd_2stage`)
    finds in the lower triangle of work read column-major: a C-ordered work
    reads as its transpose, the conjugate of a self-adjoint work.  work, a C-
    or F-ordered square float64 or complex128 array, is overwritten."""
    n = len(work)
    if not (work.shape == (n, n) and work.dtype in _DTYPES
            and (work.flags.c_contiguous or work.flags.f_contiguous) and work.flags.writeable):
        raise ValueError(f"work must be a writeable C- or F-ordered square float64 or complex128 array, "
                         f"got shape {work.shape} and dtype {work.dtype}")
    values = np.empty(n)
    info = solver(_COL_MAJOR, b"N", b"L", n, work.ctypes.data, max(n, 1), values.ctypes.data)
    if info != 0:
        raise NumericError(f"{solver.__name__} failed with info {info}")
    return values


def herk(alpha: float, a: np.ndarray, c: np.ndarray, beta: float = 0.0) -> np.ndarray:
    """alpha a a^dagger + beta c into the lower triangle of c, in place, and c;
    zherk for complex128 input, dsyrk for float64.  a is n x k, c an F-ordered
    n x n array of a's dtype.  Without the symbol, numpy's matmul writes all of
    c; with beta = 0, as in BLAS, c's old entries are ignored."""
    complex_field = np.iscomplexobj(a)
    a = np.asfortranarray(a, dtype=_DTYPES[complex_field])
    n, k = a.shape
    if not (c.flags.f_contiguous and c.shape == (n, n) and c.dtype == a.dtype):
        raise ValueError(f"c must be an F-ordered {n} x {n} {a.dtype} array")
    fn = _function(*_HERK[complex_field])
    if fn is None:
        c[...] = alpha * (a @ a.conj().T) + (beta * c if beta else 0.0)
        return c
    fn(_COL_MAJOR, _CBLAS_LOWER, _CBLAS_NO_TRANS, n, k, alpha, a.ctypes.data, max(n, 1), beta,
       c.ctypes.data, max(n, 1))
    return c


def lauum(u: np.ndarray) -> np.ndarray:
    """U U^dagger in the upper triangle of the upper triangular square u, whose
    strict lower triangle is kept, and that array; zlauum for complex128 input,
    dlauum for float64.  Like herk's c, an F-ordered u of its field's dtype is
    written in place; any other u is copied into one first.  Without the
    symbol, numpy's matmul forms the product in n x n temporaries that
    `experiments.worker_memory` does not count."""
    complex_field = np.iscomplexobj(u)
    out = np.asfortranarray(u, dtype=_DTYPES[complex_field])
    n = len(out)
    if out.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    fn = _function(*_LAUUM[complex_field])
    if fn is None:
        upper = np.triu(out)
        np.copyto(out, upper @ upper.conj().T, where=~np.tri(n, k=-1, dtype=bool))
        return out
    info = fn(_COL_MAJOR, b"U", n, out.ctypes.data, max(n, 1))
    if info != 0:
        raise NumericError(f"lauum failed with info {info}")
    return out


def per_worker_count(workers: int) -> int | None:
    """The thread count `split(workers)` gives numpy's OpenBLAS; None without the symbols."""
    threads = _threads()
    return None if threads is None else max(1, threads[2] // workers)


@contextmanager
def split(workers: int):
    """Run the block with numpy's OpenBLAS at its per-worker count; the old
    count comes back afterwards, also when the block raises."""
    threads = _threads()
    if threads is None:
        yield
        return
    get, set_, _ = threads
    old = get()
    try:
        set_(per_worker_count(workers))
        yield
    finally:
        set_(old)
