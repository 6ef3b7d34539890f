"""Every BLAS and LAPACK routine the package calls, and the thread count of
the OpenBLAS that runs them.

The routines come from numpy's own OpenBLAS (64-bit integers, "64_" suffix)
through ctypes, one cached lookup `_function` for all of them:

- `hetrd`: LAPACKE_zhetrd or LAPACKE_dsytrd, the tridiagonal reduction
  inside numpy's eigvalsh, and `zhetrd_2stage`: LAPACK's two-stage reduction,
  which has no LAPACKE front end; `eigenvalues` runs either on the lower
  triangle and finishes with
- `dsterf`: LAPACKE_dsterf, every eigenvalue of the tridiagonal matrix, or
  `dstebz`: LAPACKE_dstebz, one eigenvalue by Sturm-count bisection, for the
  two ends after `hetrd`;
- `zhetrd_he2hb`: the first stage of zhetrd_2stage alone, a reduction to a
  Hermitian band matrix, whose two ends `eigenvalues` finds by bisection on
- `zpbtrf`: the banded Cholesky factorization, which succeeds exactly where
  the shifted band matrix is positive definite;
- `herk`: cblas_zherk or cblas_dsyrk;
- `lauum`: LAPACKE_zlauum or LAPACKE_dlauum.

zhetrd_2stage, zhetrd_he2hb, zpbtrf and ilaenv2stage, which gives the band
width zhetrd_2stage picks, are the Fortran symbols themselves: every argument
goes by reference, the character arguments' lengths follow as hidden trailing
arguments, and a first call of a reduction with workspace sizes of -1 asks
for the sizes of the workspace that numpy then allocates.

A foreign call through ctypes releases the GIL, so trial workers run these
routines at the same time; numpy's eigvalsh holds the GIL.  Where numpy's
copy lacks a symbol (numpy < 2, or a numpy built on another BLAS), the
eigenvalue lookups return None and the caller falls back to eigvalsh, while
`herk` and `lauum` form their products with numpy's matmul.

OpenBLAS starts one thread per core (or as many as OPENBLAS_NUM_THREADS
says).  Trial workers that all call it would run workers x cores threads, so
`split` gives numpy's copy max(1, its start-up count // workers) threads while
the workers run.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from ctypes import POINTER, byref, c_char, c_char_p, c_double, c_int, c_int64, c_size_t, c_void_p
from functools import cache
from math import sqrt

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
_TRD = (c_int64, (c_int, c_char, c_int64, c_void_p, c_int64, c_void_p, c_void_p, c_void_p))
_HETRD = [("scipy_LAPACKE_dsytrd64_", *_TRD), ("scipy_LAPACKE_zhetrd64_", *_TRD)]
_REF = POINTER(c_int64)
_ZHETRD_2STAGE = ("scipy_zhetrd_2stage_64_", None, (c_char_p, c_char_p, _REF, c_void_p, _REF, c_void_p, c_void_p,
                                                    c_void_p, c_void_p, _REF, c_void_p, _REF, _REF, c_size_t, c_size_t))
_ZHETRD_HE2HB = ("scipy_zhetrd_he2hb_64_", None, (c_char_p, _REF, _REF, c_void_p, _REF, c_void_p, _REF, c_void_p,
                                                  c_void_p, _REF, _REF, c_size_t))
_ZPBTRF = ("scipy_zpbtrf_64_", None, (c_char_p, _REF, _REF, c_void_p, _REF, _REF, c_size_t))
_ILAENV2STAGE = ("scipy_ilaenv2stage_64_", c_int64, (_REF, c_char_p, c_char_p, _REF, _REF, _REF, _REF, c_size_t,
                                                     c_size_t))
_DSTERF = ("scipy_LAPACKE_dsterf64_", c_int64, (c_int64, c_void_p, c_void_p))
_DSTEBZ = ("scipy_LAPACKE_dstebz64_", c_int64, (c_char, c_char, c_int64, c_double, c_double, c_int64, c_int64,
                                               c_double, c_void_p, c_void_p, _REF, _REF, c_void_p, c_void_p, c_void_p))
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


def hetrd(complex_field: bool):
    """LAPACKE_zhetrd (complex) or LAPACKE_dsytrd (real), or None:
    reduce(layout, uplo, n, a, lda, d, e, tau) -> info."""
    return _function(*_HETRD[complex_field])


def zhetrd_2stage():
    """LAPACK's zhetrd_2stage behind hetrd's signature, for column-major
    storage, its workspace allocated here; or None."""
    fn = _function(*_ZHETRD_2STAGE)
    if fn is None:
        return None

    def reduce(layout, uplo, n, a, lda, d, e, tau):
        n, lda, info = c_int64(n), c_int64(lda), c_int64()
        sizes = np.empty(2, dtype=np.complex128)
        query = c_int64(-1)
        fn(b"N", uplo, byref(n), a, byref(lda), d, e, tau, sizes[:1].ctypes.data, byref(query),
           sizes[1:].ctypes.data, byref(query), byref(info), 1, 1)
        if info.value != 0:
            return info.value
        lhous, lwork = (c_int64(int(size.real)) for size in sizes)
        hous, work = np.empty(lhous.value, dtype=np.complex128), np.empty(lwork.value, dtype=np.complex128)
        fn(b"N", uplo, byref(n), a, byref(lda), d, e, tau, hous.ctypes.data, byref(lhous), work.ctypes.data,
           byref(lwork), byref(info), 1, 1)
        return info.value

    reduce.__name__ = fn.__name__
    return reduce


def zhetrd_he2hb():
    """The first stage of LAPACK's zhetrd_2stage, to the band width kd that
    zhetrd_2stage asks ilaenv2stage for, behind hetrd's leading arguments for
    column-major storage, or None: reduce(layout, uplo, n, a, lda) -> (info,
    band, spare).  band, n x (kd + 1) in C order, holds column j of the
    Hermitian band matrix's `uplo` band in row j, as LAPACK stores a band with
    leading dimension kd + 1 ('L': band[j, k] = B[j + k, j]), and zeros past
    the matrix's end.  spare, of band's shape, was the reduction's workspace;
    band, its tau and that workspace come from one allocation, whose size a
    first call asks for."""
    fn, width = _function(*_ZHETRD_HE2HB), _function(*_ILAENV2STAGE)
    if fn is None or width is None:
        return None

    def reduce(layout, uplo, n, a, lda):
        unset = c_int64(-1)
        kd = width(byref(c_int64(1)), b"ZHETRD_2STAGE", b"N", byref(c_int64(n)), byref(unset), byref(unset),
                   byref(unset), 13, 1)
        entries, info = (kd + 1) * n, c_int64()

        def call(band, tau, work, lwork):
            fn(uplo, byref(c_int64(n)), byref(c_int64(kd)), a, byref(c_int64(lda)), band, byref(c_int64(kd + 1)),
               tau, work, byref(c_int64(lwork)), byref(info), 1)
            return info.value

        size = np.empty(1, dtype=np.complex128)
        if call(None, None, size.ctypes.data, -1) != 0:
            return info.value, None, None
        lwork = int(size[0].real)
        band, tau, work = np.split(np.empty(entries + n + max(lwork, entries), dtype=np.complex128),
                                   [entries, entries + n])
        call(band.ctypes.data, tau.ctypes.data, work.ctypes.data, lwork)
        band = band.reshape(n, kd + 1)
        for k in range(1, kd + 1):
            band[max(n - k, 0):, k] = 0.0
        return info.value, band, work[:entries].reshape(band.shape)

    reduce.__name__ = fn.__name__
    return reduce


def zpbtrf():
    """LAPACK's zpbtrf, or None: factor(uplo, n, kd, ab, ldab) -> info, 0
    where the Hermitian band matrix in ab is positive definite, ab then
    overwritten by its Cholesky factor, and k > 0 where the leading minor of
    order k is not."""
    fn = _function(*_ZPBTRF)
    if fn is None:
        return None

    def factor(uplo, n, kd, ab, ldab):
        info = c_int64()
        fn(uplo, byref(c_int64(n)), byref(c_int64(kd)), ab, byref(c_int64(ldab)), byref(info), 1)
        return info.value

    factor.__name__ = fn.__name__
    return factor


def dsterf():
    """LAPACKE_dsterf, or None: finish(n, d, e) -> info, d overwritten by the
    eigenvalues, ascending."""
    return _function(*_DSTERF)


def dstebz():
    """LAPACKE_dstebz, or None: finish(range, order, n, vl, vu, il, iu, abstol,
    d, e, m, nsplit, w, iblock, isplit) -> info."""
    return _function(*_DSTEBZ)


def _unscaled(scale: float) -> bool:
    """Whether LAPACK's eigenvalue drivers would reduce a work of largest entry
    modulus `scale` as it is.  They rescale a matrix whose largest entry
    modulus m, read from the lower triangle, lies outside
    [sqrt(safmin / eps), sqrt(eps / safmin)], about [1.4e-146, 7.1e145]; the
    bare reduction does not.  `scale` is the largest modulus over all of work,
    as the Hermiticity check finds it, within a relative 1e-10 of m, so well
    within a factor of 2 of m, and every value for which m might lie outside
    counts as outside."""
    low = sqrt(np.finfo(np.float64).tiny / np.finfo(np.float64).epsneg)
    return scale == 0.0 or 2.0 * low <= scale <= 0.5 / low


def _band_ends(band: np.ndarray, spare: np.ndarray, factor) -> np.ndarray:
    """The smallest and the largest eigenvalue of the Hermitian band matrix B
    that `zhetrd_he2hb` returns in band, each by bisection from B's
    Gershgorin bounds [gl, gu].  A shift s lies below the smallest where
    `factor` factors B - s I, and above the largest where it factors s I - B;
    each test copies band into spare and shifts the diagonal there.  A
    bisection stops when no double lies between its bounds or they are
    closer than 2 eps max(|gl|, |gu|), dstebz's default tolerance, and gives
    their midpoint."""
    n, width = band.shape
    # |band| in spare's first half, which the bisection overwrites later
    size = np.abs(band, out=spare.reshape(-1).view(np.float64)[:band.size].reshape(band.shape))
    size[:, 0] = 0.0
    # row j's off-diagonal entries: column j's below the diagonal, and by
    # symmetry band[j - k, k] for each k
    radius = size.sum(axis=1)
    for k in range(1, min(width, n)):
        radius[k:] += size[:n - k, k]
    centre = band[:, 0].real
    bounds = float((centre - radius).min()), float((centre + radius).max())
    tolerance = 2.0 * np.finfo(np.float64).eps * max(abs(bounds[0]), abs(bounds[1]))
    ends = np.empty(2)
    for end, sign in enumerate((1.0, -1.0)):
        low, high = bounds
        while True:
            middle = 0.5 * (low + high)
            if not low < middle < high or high - low < tolerance:
                break
            np.multiply(band, sign, out=spare)
            spare[:, 0] -= sign * middle
            info = factor(b"L", n, width - 1, spare.ctypes.data, width)
            if info < 0:
                raise NumericError(f"{factor.__name__} failed with info {info}")
            # factored: B - middle I, or middle I - B, is positive definite
            if (info == 0) == (sign > 0):
                low = middle
            else:
                high = middle
        ends[end] = middle
    return ends


def eigenvalues(work: np.ndarray, scale: float, two_stage: bool = False, ends: bool = False) -> np.ndarray | None:
    """The eigenvalues, ascending, of the self-adjoint matrix in the lower
    triangle of work read column-major: a C-ordered work reads as its
    transpose, the conjugate of a self-adjoint work.  One tridiagonal
    reduction, by `hetrd`, or by `zhetrd_2stage` for a complex work with
    `two_stage` where it is exported, then one finish: `dsterf` for all n, or
    with `ends` `dstebz` twice, for the smallest and then the largest.  A
    complex work with both `two_stage` and `ends` stops at a band matrix
    instead, after `zhetrd_he2hb`, and `_band_ends` bisects with `zpbtrf` for
    the two ends.  work, a C- or F-ordered square float64 or complex128 array,
    is overwritten.  None, with work untouched, where numpy's OpenBLAS lacks a
    routine of the route or the drivers would rescale work (`_unscaled`, which
    reads `scale`, work's largest entry modulus)."""
    n = len(work)
    if not (work.shape == (n, n) and work.dtype in _DTYPES
            and (work.flags.c_contiguous or work.flags.f_contiguous) and work.flags.writeable):
        raise ValueError(f"work must be a writeable C- or F-ordered square float64 or complex128 array, "
                         f"got shape {work.shape} and dtype {work.dtype}")
    complex_field = work.dtype == np.complex128
    if complex_field and two_stage and ends:
        reduce, factor = zhetrd_he2hb(), zpbtrf()
        if reduce is None or factor is None or not _unscaled(scale):
            return None
        info, band, spare = reduce(_COL_MAJOR, b"L", n, work.ctypes.data, max(n, 1))
        if info != 0:
            raise NumericError(f"{reduce.__name__} failed with info {info}")
        return _band_ends(band, spare, factor)
    reduce = (zhetrd_2stage() if complex_field and two_stage else None) or hetrd(complex_field)
    finish = dstebz() if ends else dsterf()
    if reduce is None or finish is None or not _unscaled(scale):
        return None
    d, e, tau = np.empty(n), np.empty(max(n - 1, 1)), np.empty(max(n - 1, 1), dtype=work.dtype)
    info = reduce(_COL_MAJOR, b"L", n, work.ctypes.data, max(n, 1), d.ctypes.data, e.ctypes.data, tau.ctypes.data)
    if info != 0:
        raise NumericError(f"{reduce.__name__} failed with info {info}")
    if not ends:
        info = finish(n, d.ctypes.data, e.ctypes.data)
        if info != 0:
            raise NumericError(f"{finish.__name__} failed with info {info}")
        return d
    found, blocks = c_int64(), c_int64()
    value, block, split_at = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    extremes = np.empty(2)
    for k, index in enumerate((1, n)):
        # RANGE = 'I' with IL = IU = index; ABSTOL = 0 asks for LAPACK's default tolerance
        info = finish(b"I", b"E", n, 0.0, 0.0, index, index, 0.0, d.ctypes.data, e.ctypes.data, byref(found),
                      byref(blocks), value.ctypes.data, block.ctypes.data, split_at.ctypes.data)
        if info != 0 or found.value != 1:
            raise NumericError(f"{finish.__name__} failed with info {info}")
        extremes[k] = value[0]
    return extremes


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
