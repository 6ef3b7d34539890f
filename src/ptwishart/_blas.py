"""Thread counts of the OpenBLAS copies loaded into this process.

numpy and scipy each bring their own OpenBLAS, and each starts one thread per
core (or as many as OPENBLAS_NUM_THREADS says).  Trial workers that all call
such a BLAS would run workers x cores threads, so `split` gives each copy
max(1, its start-up count // workers) threads while the workers run.
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
def _copies() -> tuple:
    """(get, set, start-up thread count) of each OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            # the path is the sixth field of a mapping line
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except OSError:
        return ()
    copies = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                copies.append((get, set_, get()))
                break
    return tuple(copies)


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
