"""Every BLAS and LAPACK routine the package calls, and the thread counts of
the OpenBLAS that runs them.

The routines come from numpy's own OpenBLAS (64-bit integers, "64_" suffix)
through ctypes, one cached lookup `_function` for all of them:

- `heevd`: LAPACKE_zheevd or LAPACKE_dsyevd, the front end of the routine
  numpy's eigvalsh itself calls;
- `zheevd_2stage`: LAPACKE_zheevd_2stage, which numpy does not wrap;
- `herk`: cblas_zherk or cblas_dsyrk;
- `lauum`: LAPACKE_zlauum or LAPACKE_dlauum.

A foreign call through ctypes releases the GIL, so trial workers run these
routines at the same time; numpy's eigvalsh holds the GIL.  Where numpy's
copy lacks a symbol (numpy < 2, or a numpy built on another BLAS), the
eigensolver lookups return None and the caller falls back to eigvalsh, while
`herk` and `lauum` import scipy.linalg and call its wrappers, which run in
scipy's own OpenBLAS.  This module is the only one that imports scipy, and
only then.

OpenBLAS starts one thread per core (or as many as OPENBLAS_NUM_THREADS
says).  Trial workers that all call it would run workers x cores threads, so
`split` gives each copy in the process max(1, its start-up count // workers)
threads while the workers run.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from ctypes import c_char, c_double, c_int, c_int64, c_void_p
from functools import cache

import numpy as np

from .errors import NumericError

# (get, set) thread-count symbols of the OpenBLAS in the numpy (64-bit
# integers, "64_" suffix) and scipy wheels; scipy's copy is loaded only when
# numpy's lacks a Gram routine
_SYMBOLS = [(f"scipy_openblas_get_num_threads{suffix}", f"scipy_openblas_set_num_threads{suffix}")
            for suffix in ("64_", "")]

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
def _copies() -> tuple:
    """(get, set, start-up thread count) of each OpenBLAS mapped into this process.

    When numpy's copy lacks a Gram routine, scipy's copy runs it, so scipy is
    imported first and the scan covers its copy too."""
    if any(_function(*routine) is None for routine in _HERK + _LAUUM):
        import scipy.linalg  # noqa: F401
    copies = []
    for lib in _mapped():
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                copies.append((get, set_, get()))
                break
    return tuple(copies)


def heevd(complex_field: bool):
    """LAPACKE_zheevd (complex) or LAPACKE_dsyevd (real), or None:
    solver(layout, jobz, uplo, n, a, lda, w) -> info."""
    return _function(*_HEEVD[complex_field])


def zheevd_2stage():
    """LAPACKE_zheevd_2stage, with heevd's signature, or None."""
    return _function(*_ZHEEVD_2STAGE)


def eigenvalues(solver, work: np.ndarray, uplo: bytes) -> np.ndarray:
    """The eigenvalues, ascending, that `solver` (from `heevd` or `zheevd_2stage`)
    finds in triangle `uplo` of work read column-major; a C-ordered work reads
    as its transpose.  work, a C- or F-ordered square float64 or complex128
    array, is the solver's workspace and is overwritten."""
    n = len(work)
    if not (work.shape == (n, n) and work.dtype in _DTYPES
            and (work.flags.c_contiguous or work.flags.f_contiguous) and work.flags.writeable):
        raise ValueError(f"work must be a writeable C- or F-ordered square float64 or complex128 array, "
                         f"got shape {work.shape} and dtype {work.dtype}")
    values = np.empty(n)
    info = solver(_COL_MAJOR, b"N", uplo, n, work.ctypes.data, max(n, 1), values.ctypes.data)
    if info != 0:
        raise NumericError(f"{solver.__name__} failed with info {info}")
    return values


def herk(alpha: float, a: np.ndarray, c: np.ndarray, beta: float = 0.0) -> np.ndarray:
    """alpha a a^dagger + beta c into the lower triangle of c, in place, and c;
    zherk for complex128 input, dsyrk for float64.  a is n x k, c an F-ordered
    n x n array of a's dtype."""
    complex_field = np.iscomplexobj(a)
    fn = _function(*_HERK[complex_field])
    if fn is None:
        from scipy.linalg import blas
        update = blas.zherk if complex_field else blas.dsyrk
        return update(alpha, a, beta=beta, c=c, lower=1, overwrite_c=1)
    a = np.asfortranarray(a, dtype=_DTYPES[complex_field])
    n, k = a.shape
    if not (c.flags.f_contiguous and c.shape == (n, n) and c.dtype == a.dtype):
        raise ValueError(f"c must be an F-ordered {n} x {n} {a.dtype} array")
    fn(_COL_MAJOR, _CBLAS_LOWER, _CBLAS_NO_TRANS, n, k, alpha, a.ctypes.data, max(n, 1), beta,
       c.ctypes.data, max(n, 1))
    return c


def lauum(u: np.ndarray) -> np.ndarray:
    """U U^dagger in the upper triangle of the upper triangular square u, whose
    strict lower triangle is kept, and that array; zlauum for complex128 input,
    dlauum for float64.  Like herk's c, an F-ordered u of its field's dtype is
    written in place; any other u is copied into one first."""
    complex_field = np.iscomplexobj(u)
    fn = _function(*_LAUUM[complex_field])
    if fn is None:
        from scipy.linalg import lapack
        out, info = (lapack.zlauum if complex_field else lapack.dlauum)(u, overwrite_c=1)
    else:
        out = np.asfortranarray(u, dtype=_DTYPES[complex_field])
        n = len(out)
        if out.shape != (n, n):
            raise ValueError(f"expected a square matrix, got shape {out.shape}")
        info = fn(_COL_MAJOR, b"U", n, out.ctypes.data, max(n, 1))
    if info != 0:
        raise NumericError(f"lauum failed with info {info}")
    return out


def per_worker_counts(workers: int) -> list[int]:
    """The thread count `split(workers)` gives each copy; empty when none was found."""
    return [max(1, start // workers) for _, _, start in _copies()]


@contextmanager
def split(workers: int):
    """Run the block with every copy at its per-worker count; the old counts
    come back afterwards, also when the block raises."""
    copies = _copies()
    old = [get() for get, _, _ in copies]
    try:
        for (_, set_, _), count in zip(copies, per_worker_counts(workers)):
            set_(count)
        yield
    finally:
        for (_, set_, _), count in zip(copies, old):
            set_(count)
