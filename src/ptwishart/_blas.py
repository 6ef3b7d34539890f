"""Every BLAS and LAPACK routine the package calls, the route of each
eigensolve through them, and the thread count of the OpenBLAS that runs them.

The routines come from numpy's own OpenBLAS (64-bit integers, "64_" suffix)
through ctypes, one cached lookup `_function` for all of them, by the symbol
the library exports.  A foreign call through ctypes releases the GIL, so
trial workers run these routines at the same time; numpy's eigvalsh holds
the GIL.  `herk` is cblas_zherk or cblas_dsyrk, `lauum` LAPACKE_zlauum or
LAPACKE_dlauum; where numpy's copy lacks the symbol (numpy < 2, or a numpy
built on another BLAS), they form their products with numpy's matmul.

`eigenvalues` solves a self-adjoint matrix on one of three routes, chosen
from its field, its size n and whether all n eigenvalues or only the two
ends are wanted.  Each starts with a reduction of the lower triangle:

- All n: to a tridiagonal matrix, then LAPACKE_dsterf.  The reduction is
  eigvalsh's own, LAPACKE_dsytrd or LAPACKE_zhetrd, for the real field and
  below TWO_STAGE_MIN_N, and from there for complex matrices LAPACK's
  two-stage zhetrd_2stage (Haidar, Ltaief & Dongarra, SC'11), which numpy
  does not wrap.  dsterf gives the bits of the drivers that pair the same
  reduction with it (dsyevd, zheevd, zheevd_2stage), so eigvalsh's bit for
  bit below TWO_STAGE_MIN_N.
- The two ends, for the real field and below TWO_STAGE_MIN_N: the one-stage
  reduction, then LAPACKE_dstebz twice, a Sturm-count bisection for the
  smallest and one for the largest eigenvalue, O(n) work per step.
- The two ends of a complex matrix from TWO_STAGE_MIN_N on: only the first
  stage of zhetrd_2stage, zhetrd_he2hb, to a Hermitian band of the width kd
  that zhetrd_2stage asks ilaenv2stage for (16 in OpenBLAS 0.3.31), which
  skips the bulge chase.  Two bisections then start from the band's
  Gershgorin bounds; each step asks whether zpbtrf, the banded Cholesky
  factorization, succeeds on the shifted band, that is, whether it is
  positive definite, O(n kd^2) work.

The ends agree with dsterf's to within a few units in the last place of the
spectral radius, not bit for bit.  Where numpy's copy lacks a symbol of the
route, or where LAPACK's drivers would rescale the matrix (`_unscaled`),
np.linalg.eigvalsh is the fallback.

zhetrd_2stage, zhetrd_he2hb, zpbtrf and ilaenv2stage are the Fortran symbols
themselves: every argument goes by reference, the character arguments'
lengths follow as hidden trailing arguments, and a first call of a reduction
with workspace sizes of -1 asks for the sizes of the workspace that numpy
then allocates.

OpenBLAS starts one thread per core (or as many as OPENBLAS_NUM_THREADS
says).  Trial workers that all call it would run workers x cores threads, so
`split` gives numpy's copy max(1, its start-up count // workers) threads while
the workers run.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from ctypes import POINTER, c_char, c_char_p, c_double, c_int, c_int64, c_size_t, c_void_p
from functools import cache
from math import sqrt

import numpy as np

from .errors import NumericError

# Smallest complex matrix that takes the two-stage reduction.  In medians of 31
# paired calls on 2 cores, both on the lower triangle, zheevd_2stage is no slower
# than zheevd from here on at 1 and at 2 BLAS threads, and 1% slower at n =
# 361-370 with one.  For the two ends, the first stage and the band's bisection
# against the one-stage reduction and dstebz below here, and against the whole
# two-stage reduction and dstebz from here on, in ms (medians of 9 in-process
# calls, 2 cores, complex Hermitian matrices):
#
#     n       2 BLAS threads     1 BLAS thread
#     324      10.27 /  9.30      9.77 /  8.09
#     361      11.96 / 12.25     11.35 / 10.50
#     380      13.26 / 13.19     11.92 / 12.24
#     400      13.61 / 13.46     14.16 / 13.79
#     484      17.81 / 19.88     21.07 / 22.63
#     625      30.15 / 38.66     34.32 / 40.75
#     900      64.53 / 88.78     82.10 / 102.11
#    1600     243.4 / 316.3     422.0 / 524.2
#
# The band's ends break even near here too, so one bound serves every route.
TWO_STAGE_MIN_N = 380

# LAPACK's eigensolver workspace, in matrix rows: after a small call of the
# same route and a matmul, as a trial's draw sets up OpenBLAS before its solve,
# ru_maxrss rose by 72-194 rows' worth during zhetrd_2stage at n = 380-3600,
# by 73-172 during zhetrd_he2hb and the band's bisection there, by 23-109
# during zhetrd at n = 225-361 and by 43-73 during dsytrd at n = 380-3600, at
# 1 and 2 BLAS threads, with either finish
SOLVER_WORK_ROWS = 512

# LAPACKE's matrix_layout and the CBLAS enum values for column-major storage,
# the lower triangle and no transpose
_COL_MAJOR = 102
_CBLAS_LOWER = 122
_CBLAS_NO_TRANS = 111

# the dtype and the (name, restype, argtypes) of each routine, indexed by "is
# the field complex"; a Fortran argument typed _REF takes a c_int64, which
# ctypes passes by reference
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


def _check(info: int, routine: str):
    if info != 0:
        raise NumericError(f"{routine} failed with info {info}")


def _tridiagonal(work: np.ndarray, reduce, two_stage: bool) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal d and the off-diagonal e of the tridiagonal matrix to
    which `reduce` takes work's lower triangle: LAPACKE_zhetrd or
    LAPACKE_dsytrd, or with `two_stage` zhetrd_2stage."""
    n, info = len(work), c_int64()
    d, e, tau = np.empty(n), np.empty(max(n - 1, 1)), np.empty(max(n - 1, 1), dtype=work.dtype)
    if not two_stage:
        _check(reduce(_COL_MAJOR, b"L", n, work.ctypes.data, max(n, 1), d.ctypes.data, e.ctypes.data,
                      tau.ctypes.data), "zhetrd/dsytrd")
        return d, e

    def call(hous, lhous, space, lwork):
        reduce(b"N", b"L", c_int64(n), work.ctypes.data, c_int64(max(n, 1)), d.ctypes.data, e.ctypes.data,
               tau.ctypes.data, hous, c_int64(lhous), space, c_int64(lwork), info, 1, 1)
        _check(info.value, "zhetrd_2stage")

    sizes = np.empty(2, dtype=np.complex128)
    call(sizes[:1].ctypes.data, -1, sizes[1:].ctypes.data, -1)
    lhous, lwork = (int(size.real) for size in sizes)
    hous, space = np.empty(lhous, dtype=np.complex128), np.empty(lwork, dtype=np.complex128)
    call(hous.ctypes.data, lhous, space.ctypes.data, lwork)
    return d, e


def _all_values(work: np.ndarray) -> np.ndarray | None:
    """All n eigenvalues, ascending: the tridiagonal reduction, two-stage for
    a complex work from TWO_STAGE_MIN_N on, then dsterf; None, work
    untouched, where a routine is not exported."""
    n, complex_field = len(work), work.dtype == np.complex128
    two_stage = complex_field and n >= TWO_STAGE_MIN_N
    reduce, finish = _function(*(_ZHETRD_2STAGE if two_stage else _HETRD[complex_field])), _function(*_DSTERF)
    if reduce is None or finish is None:
        return None
    d, e = _tridiagonal(work, reduce, two_stage)
    _check(finish(n, d.ctypes.data, e.ctypes.data), "dsterf")
    return d


def _tridiagonal_ends(work: np.ndarray) -> np.ndarray | None:
    """The smallest and the largest eigenvalue: the one-stage tridiagonal
    reduction, then dstebz once for each; None, work untouched, where a
    routine is not exported."""
    n = len(work)
    reduce, finish = _function(*_HETRD[work.dtype == np.complex128]), _function(*_DSTEBZ)
    if reduce is None or finish is None:
        return None
    d, e = _tridiagonal(work, reduce, False)
    found, blocks = c_int64(), c_int64()
    value, block, split_at = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    ends = np.empty(2)
    for k, index in enumerate((1, n)):
        # RANGE = 'I' with IL = IU = index; ABSTOL = 0 asks for LAPACK's default tolerance
        info = finish(b"I", b"E", n, 0.0, 0.0, index, index, 0.0, d.ctypes.data, e.ctypes.data, found, blocks,
                      value.ctypes.data, block.ctypes.data, split_at.ctypes.data)
        if info != 0 or found.value != 1:
            raise NumericError(f"dstebz failed with info {info}")
        ends[k] = value[0]
    return ends


def _band(work: np.ndarray, reduce, width) -> np.ndarray:
    """`reduce`, zhetrd_he2hb, takes work's lower triangle to a Hermitian band
    matrix B of the width kd that `width`, ilaenv2stage, gives zhetrd_2stage.
    The band, n x (kd + 1) in C order, holds column j of B's lower band in
    row j, as LAPACK stores a band with leading dimension kd + 1
    (band[j, k] = B[j + k, j]), and zeros past the matrix's end, which the
    reduction leaves as they are.  Its tau and its workspace, whose size a
    first call asks for, are freed on return."""
    n, unset, info = len(work), c_int64(-1), c_int64()
    kd = width(c_int64(1), b"ZHETRD_2STAGE", b"N", c_int64(n), unset, unset, unset, 13, 1)

    def call(band, tau, space, lwork):
        reduce(b"L", c_int64(n), c_int64(kd), work.ctypes.data, c_int64(max(n, 1)), band, c_int64(kd + 1), tau,
               space, c_int64(lwork), info, 1)
        _check(info.value, "zhetrd_he2hb")

    query = np.empty(1, dtype=np.complex128)
    call(None, None, query.ctypes.data, -1)
    lwork = int(query[0].real)
    band, tau, space = (np.zeros((n, kd + 1), dtype=np.complex128), np.empty(n, dtype=np.complex128),
                        np.empty(lwork, dtype=np.complex128))
    call(band.ctypes.data, tau.ctypes.data, space.ctypes.data, lwork)
    return band


def _band_ends(work: np.ndarray) -> np.ndarray | None:
    """The smallest and the largest eigenvalue of a complex work: `_band`'s
    B, then for each a bisection from B's Gershgorin bounds [gl, gu].  A
    shift s lies below the smallest where zpbtrf factors B - s I, and above
    the largest where it factors s I - B; each test copies band into spare,
    an array of band's shape, and shifts the diagonal there.  A bisection
    stops when no double lies between its bounds or they are closer than
    2 eps max(|gl|, |gu|), dstebz's default tolerance, and gives their
    midpoint.  None, work untouched, where a routine is not exported."""
    reduce, width, factor = _function(*_ZHETRD_HE2HB), _function(*_ILAENV2STAGE), _function(*_ZPBTRF)
    if reduce is None or width is None or factor is None:
        return None
    band = _band(work, reduce, width)
    spare, (n, columns) = np.empty_like(band), band.shape
    size = np.abs(band)
    size[:, 0] = 0.0
    # row j's off-diagonal entries: column j's below the diagonal, and by
    # symmetry band[j - k, k] for each k
    radius = size.sum(axis=1)
    for k in range(1, min(columns, n)):
        radius[k:] += size[:n - k, k]
    centre = band[:, 0].real
    bounds = float((centre - radius).min()), float((centre + radius).max())
    tolerance = 2.0 * np.finfo(np.float64).eps * max(abs(bounds[0]), abs(bounds[1]))
    # zpbtrf's arguments but the shifted band: n, kd, the leading dimension and info
    order, kd, leading, info = c_int64(n), c_int64(columns - 1), c_int64(columns), c_int64()
    ends = np.empty(2)
    for end, sign in enumerate((1.0, -1.0)):
        low, high = bounds
        while True:
            middle = 0.5 * (low + high)
            if not low < middle < high or high - low < tolerance:
                break
            np.multiply(band, sign, out=spare)
            spare[:, 0] -= sign * middle
            factor(b"L", order, kd, spare.ctypes.data, leading, info, 1)
            # info = k > 0 where the leading minor of order k is not positive
            # definite, and < 0 only for an illegal argument
            _check(min(info.value, 0), "zpbtrf")
            # factored: B - middle I, or middle I - B, is positive definite
            if (info.value == 0) == (sign > 0):
                low = middle
            else:
                high = middle
        ends[end] = middle
    return ends


def eigenvalues(work: np.ndarray, scale: float, ends: bool = False) -> np.ndarray:
    """The eigenvalues, ascending, or with `ends` the smallest and the
    largest, of the self-adjoint matrix in the lower triangle of work, on the
    route that the module docstring describes.  work, a writeable F-ordered
    square float64 or complex128 array, is overwritten, except on the
    eigvalsh fallback, which reads work untouched: callers solve F in place,
    else an F-ordered copy, and any other work raises ValueError.  `_unscaled`
    tells from `scale`, work's largest entry modulus, whether the drivers
    would rescale work."""
    n = len(work)
    if not (work.shape == (n, n) and work.dtype in _DTYPES and work.flags.f_contiguous and work.flags.writeable):
        raise ValueError(f"work must be a writeable F-ordered square float64 or complex128 array, "
                         f"got shape {work.shape}, dtype {work.dtype}, F-ordered {work.flags.f_contiguous}")
    band = ends and work.dtype == np.complex128 and n >= TWO_STAGE_MIN_N
    route = _band_ends if band else _tridiagonal_ends if ends else _all_values
    values = route(work) if _unscaled(scale) else None
    if values is None:
        values = np.linalg.eigvalsh(work)[[0, -1] if ends else ...]
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
