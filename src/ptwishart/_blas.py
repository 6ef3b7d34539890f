"""The OpenBLAS copies loaded into this process: thread counts and one LAPACKE driver.

numpy and scipy each bring their own OpenBLAS, and each starts one thread per
core (or as many as OPENBLAS_NUM_THREADS says).  Trial workers that all call
such a BLAS would run workers x cores threads, so `split` gives each copy
max(1, its start-up count // workers) threads while the workers run.

scipy's copy also exports LAPACKE_zheevd_2stage, which scipy does not wrap;
`zheevd_2stage` finds it with the same scan of the mapped libraries.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache

# (get, set) thread-count symbols of the OpenBLAS in the numpy (64-bit
# integers, "64_" suffix) and scipy wheels
_SYMBOLS = [(f"scipy_openblas_get_num_threads{suffix}", f"scipy_openblas_set_num_threads{suffix}")
            for suffix in ("64_", "")]

# the two-stage Hermitian eigensolver of scipy's copy, with 32-bit integers
_ZHEEVD_2STAGE = "scipy_LAPACKE_zheevd_2stage"


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
def zheevd_2stage():
    """LAPACKE_zheevd_2stage(layout, jobz, uplo, n, a, lda, w) -> info, or None
    when no mapped copy exports it."""
    for lib in _libraries():
        fn = getattr(lib, _ZHEEVD_2STAGE, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int,
                           ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p]
            return fn
    return None


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
