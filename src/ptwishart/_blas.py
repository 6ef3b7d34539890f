"""The OpenBLAS copies loaded into this process: thread counts and LAPACKE eigensolvers.

numpy and scipy each bring their own OpenBLAS, and each starts one thread per
core (or as many as OPENBLAS_NUM_THREADS says).  Trial workers that all call
such a BLAS would run workers x cores threads, so `split` gives each copy
max(1, its start-up count // workers) threads while the workers run.

The copies also export LAPACKE eigenvalue drivers, and a foreign call through
ctypes releases the GIL, so trial workers can run their eigensolves at the
same time; numpy's eigvalsh holds the GIL.  `heevd` finds the LAPACKE front
end of the routine eigvalsh itself calls, LAPACKE_zheevd or LAPACKE_dsyevd in
numpy's copy (64-bit integers, "64_" suffix), and `zheevd_2stage` finds
LAPACKE_zheevd_2stage in scipy's copy (32-bit integers), which neither numpy
nor scipy wraps.  Both resolve through `_lapacke` over the same mapped
libraries.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache

# (get, set) thread-count symbols of the OpenBLAS in the numpy (64-bit
# integers, "64_" suffix) and scipy wheels
_SYMBOLS = [(f"scipy_openblas_get_num_threads{suffix}", f"scipy_openblas_set_num_threads{suffix}")
            for suffix in ("64_", "")]


@cache
def _libraries() -> tuple:
    """ctypes handles of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            # the path is the sixth field of a mapping line
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except OSError:
        return ()
    return tuple(ctypes.CDLL(path) for path in paths)


@cache
def _copies() -> tuple:
    """(get, set, start-up thread count) of each OpenBLAS mapped into this process."""
    copies = []
    for lib in _libraries():
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                copies.append((get, set_, get()))
                break
    return tuple(copies)


@cache
def _lapacke(name: str):
    """The LAPACKE eigenvalue driver `name`(layout, jobz, uplo, n, a, lda, w) -> info,
    or None when no mapped copy exports it.  Its integers are 64-bit when the
    name ends in "64_" and C ints otherwise."""
    integer = ctypes.c_int64 if name.endswith("64_") else ctypes.c_int
    for lib in _libraries():
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = integer
            fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, integer,
                           ctypes.c_void_p, integer, ctypes.c_void_p]
            return fn
    return None


def heevd(complex_field: bool):
    """numpy's LAPACKE_zheevd (complex) or LAPACKE_dsyevd (real), or None."""
    return _lapacke("scipy_LAPACKE_zheevd64_" if complex_field else "scipy_LAPACKE_dsyevd64_")


def zheevd_2stage():
    """scipy's LAPACKE_zheevd_2stage, or None."""
    return _lapacke("scipy_LAPACKE_zheevd_2stage")


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
