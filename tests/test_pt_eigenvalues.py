"""The one-buffer trial path against the three-buffer formula it replaced.

`_reference_*` below are test-local copies of the earlier path: the draw
allocates W next to its Gram array, `partial_transpose` writes a second
n x n array and `hermitian_eigenvalues` copies that into a third, the
reduction's workspace.  The one-buffer path must hand the reduction the
reference's matrix, bytes compared, not only give the same eigenvalues.  It
may hand it as stored or transposed, in the lower triangle: LAPACK reads a
C-ordered buffer as its transpose, the conjugate of a self-adjoint matrix,
and `test_linalg.py::test_solvers_give_a_matrix_and_its_conjugate_the_same_bits`
checks that a matrix and its conjugate give the same eigenvalue bits.  Any
other matrix, such as the index-reversed one, is a defect even where its
eigenvalues happen to agree to the last bit.
"""

import ctypes
import tracemalloc

import numpy as np
import pytest

from ptwishart import _blas, ensembles, linalg
from ptwishart.ensembles import (
    SampleStream,
    WishartParams,
    sample_induced_state,
    sample_mixture_state,
    sample_wishart,
)
from ptwishart.linalg import (
    BipartiteShape,
    hermitian_eigenvalues,
    partial_transpose,
    pt_eigenvalues,
    pt_extreme_eigenvalues,
)
from ptwishart.spectra import ppt_gauge


def _reference_mirror(c):
    w = c.conj().T
    w += c
    w[np.diag_indices(len(w))] *= 0.5
    return w


def _reference_wishart(n, p, field, stream):
    scale = 1.0 / p if field == "real" else 0.5 / p
    factor = ensembles._bartlett_factor(stream.generator(), n, p, field)
    if p < n or n < ensembles.LAUUM_MIN_N:
        return _reference_mirror(_blas.herk(scale, factor, np.zeros((n, n), dtype=factor.dtype, order="F")))
    u = _blas.lauum(np.array(factor[::-1, ::-1], order="F"))
    w = _reference_mirror(u[::-1, ::-1])
    w *= scale
    return w


def _reference_mixture(n, p, stream):
    rng = stream.generator()
    c = np.zeros((n, n), dtype=np.complex128, order="F")
    for start in range(0, p, ensembles.GRAM_CHUNK):
        block = rng.standard_normal((min(ensembles.GRAM_CHUNK, p - start), 2 * n)).view(np.complex128)
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        c = _blas.herk(1.0 / p, block.T, c, beta=1.0)
    return _reference_mirror(c)


def _reference_draw(ensemble, field, n, p, stream):
    if ensemble == "wishart":
        return _reference_wishart(n, p, field, stream)
    if ensemble == "induced":
        w = _reference_wishart(n, p, "complex", stream)
        return w / np.trace(w).real
    return _reference_mixture(n, p, stream)


def _draw(ensemble, field, n, p, stream):
    if ensemble == "wishart":
        return sample_wishart(WishartParams(n=n, p=p, field=field), stream)
    return (sample_induced_state if ensemble == "induced" else sample_mixture_state)(n, p, stream)


def _reference_pt(w, shape):
    """The partial transpose by the reshape formula, a new C-ordered array."""
    blocks = (shape.d1, shape.d2, shape.d1, shape.d2)
    return np.ascontiguousarray(w.reshape(blocks).transpose(0, 3, 2, 1).reshape(shape.n, shape.n))


def _solver_spy(monkeypatch):
    """Record (uplo, the n x n buffer read in C order, its address) for every call that reaches a
    reduction, to a tridiagonal matrix or to a band."""
    seen = []

    def spying(lookup):
        def wrapped(*complex_field):
            reduce = lookup(*complex_field)
            if reduce is None:
                pytest.skip("numpy's OpenBLAS lacks a reduction")
            # hetrd(complex_field) serves either field, zhetrd_2stage() and
            # zhetrd_he2hb() the complex one
            dtype = np.complex128 if complex_field in ((), (True,)) else np.float64

            def spy(layout, uplo, n, a, *rest):
                buffer = ctypes.string_at(a, n * n * np.dtype(dtype).itemsize)
                seen.append((uplo, np.frombuffer(buffer, dtype).reshape(n, n), a))
                return reduce(layout, uplo, n, a, *rest)

            spy.__name__ = reduce.__name__
            return spy
        return wrapped

    monkeypatch.setattr(_blas, "hetrd", spying(_blas.hetrd))
    monkeypatch.setattr(_blas, "zhetrd_2stage", spying(_blas.zhetrd_2stage))
    monkeypatch.setattr(_blas, "zhetrd_he2hb", spying(_blas.zhetrd_he2hb))
    return seen


def _assert_same_matrix(seen):
    """Both reduction calls read the lower triangle, the first of the second's matrix or its transpose."""
    (uplo, matrix, _), (reference_uplo, reference, _) = seen
    assert uplo == reference_uplo == b"L"
    assert matrix.tobytes() in (reference.tobytes(), reference.T.tobytes())


SHAPES = [(1, 5), (5, 1), (3, 5), (16, 16), (17, 15), (36, 35)]


def _cases():
    for d1, d2 in SHAPES:
        n = d1 * d2
        for ensemble, field in [("wishart", "complex"), ("wishart", "real"), ("induced", "complex"),
                                ("mixture", "complex")]:
            # (36, 35) is n = 1260, the two-stage reduction, with d1 != d2; the
            # real field and the states there run the same layouts as (17, 15)
            if n > 1000 and (field, ensemble) != ("complex", "wishart"):
                continue
            yield pytest.param(ensemble, field, d1, d2, 4 * n, id=f"{ensemble}-{field}-{d1}x{d2}")
        # p < n: a rectangular factor on zherk/dsyrk even at n >= LAUUM_MIN_N
        for ensemble, field in [("wishart", "complex"), ("wishart", "real"), ("induced", "complex")]:
            if n > 1 and n < 1000:
                yield pytest.param(ensemble, field, d1, d2, max(1, n // 3), id=f"{ensemble}-{field}-{d1}x{d2}-p<n")


@pytest.mark.parametrize("ensemble, field, d1, d2, p", list(_cases()))
def test_one_buffer_trial_hands_the_solver_the_same_bytes(monkeypatch, ensemble, field, d1, d2, p):
    shape = BipartiteShape(d1, d2)
    stream = SampleStream(71, d1 * 100 + d2)
    seen = _solver_spy(monkeypatch)
    w = _draw(ensemble, field, shape.n, p, stream)
    reference = _reference_draw(ensemble, field, shape.n, p, stream)
    # the draw is equal bit for bit, signed zeros included
    assert np.ascontiguousarray(w).tobytes() == np.ascontiguousarray(reference).tobytes()
    # the spectrum runner rescales states by n before the partial transpose
    if ensemble != "wishart":
        w *= shape.n
        reference = reference * shape.n
    values = pt_eigenvalues(w, shape)
    expected = hermitian_eigenvalues(_reference_pt(reference, shape))
    assert len(seen) == 2
    _assert_same_matrix(seen)
    assert values.tobytes() == expected.tobytes()


# every layout pt_eigenvalues reads in place: C, F and each of them reversed in
# both indices, each on the one-stage and on the two-stage reduction, here
# forced at small n
LAYOUTS = {
    "C": lambda a: np.array(a, order="C"),
    "F": lambda a: np.array(a, order="F"),
    "reversed-C": lambda a: np.array(a[::-1, ::-1], order="C")[::-1, ::-1],
    "reversed-F": lambda a: np.array(a[::-1, ::-1], order="F")[::-1, ::-1],
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("field, reduction", [("real", "one-stage"), ("complex", "one-stage"),
                                             ("complex", "two-stage")])
@pytest.mark.parametrize("d1, d2", [(1, 4), (4, 1), (3, 4), (4, 3), (5, 5)])
def test_in_place_partial_transpose_in_every_layout(monkeypatch, layout, field, reduction, d1, d2):
    if reduction == "two-stage":
        monkeypatch.setattr(linalg, "TWO_STAGE_MIN_N", 1)
    shape = BipartiteShape(d1, d2)
    w = sample_wishart(WishartParams(n=shape.n, p=shape.n + 2, field=field), SampleStream(5, d1 + 7 * d2))
    seen = _solver_spy(monkeypatch)
    buffer = LAYOUTS[layout](w)
    assert np.array_equal(buffer, w)
    # the lowest address of the buffer's memory
    address = (buffer[::-1, ::-1] if layout.startswith("reversed") else buffer).ctypes.data
    values = pt_eigenvalues(buffer, shape)
    expected = hermitian_eigenvalues(_reference_pt(w, shape))
    _assert_same_matrix(seen)
    assert values.tobytes() == expected.tobytes()
    # the reduction ran in the buffer's own memory
    assert seen[0][2] == address


# |end - eigvalsh's end| / spectral radius: the ends come from dstebz's
# bisection, or from TWO_STAGE_MIN_N on from the band's, eigvalsh's from
# dsterf, whose rounding differs.  The largest measured over the cases below
# and those of test_band_ends_are_eigvalsh_ends was 2.0e-15; over 132 draws of
# both fields at n = 6-1600 and alpha = 0.5, 4 and 9 it was 7.0e-15 with
# dstebz.  Over 42 other complex draws at n = 400-1600 it reached 1.7e-14, at
# n = 1600 and alpha = 0.5, with the band's ends and with dstebz's alike
ENDS_RTOL = 1e-14


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("field, d1, d2, forced", [
    ("real", 3, 4, False), ("complex", 3, 4, False), ("complex", 3, 4, True), ("complex", 5, 1, True),
    ("real", 19, 20, False), ("complex", 18, 21, False), ("complex", 19, 20, False),
])
def test_extreme_eigenvalues_are_eigvalsh_ends_in_every_layout(monkeypatch, layout, field, d1, d2, forced):
    # both fields, both sides of TWO_STAGE_MIN_N (n = 378 and 380), and the
    # two-stage reduction forced at small n
    if forced:
        monkeypatch.setattr(linalg, "TWO_STAGE_MIN_N", 1)
    shape = BipartiteShape(d1, d2)
    w = sample_wishart(WishartParams(n=shape.n, p=4 * shape.n, field=field), SampleStream(13, d1 + 7 * d2))
    seen = _solver_spy(monkeypatch)
    buffer = LAYOUTS[layout](w)
    address = (buffer[::-1, ::-1] if layout.startswith("reversed") else buffer).ctypes.data
    low, high = pt_extreme_eigenvalues(buffer, shape)
    expected = np.linalg.eigvalsh(_reference_pt(w, shape))
    hermitian_eigenvalues(_reference_pt(w, shape))
    _assert_same_matrix(seen)
    assert seen[0][2] == address
    radius = np.abs(expected).max()
    assert abs(low - expected[0]) <= ENDS_RTOL * radius
    assert abs(high - expected[-1]) <= ENDS_RTOL * radius


def _random_hermitian(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def _negative_definite(n):
    w = sample_wishart(WishartParams(n=n, p=4 * n), SampleStream(19, n))
    w += 0.01 * np.eye(n)
    return -w


@pytest.mark.parametrize("make, n, steps", [
    # both ends repeated, and Gershgorin bounds that are the ends themselves
    pytest.param(lambda n: np.diag(np.resize([-2.0, 0.5, 3.0, -2.0, 3.0], n)).astype(complex), 400, None,
                 id="repeated-ends"),
    pytest.param(_negative_definite, 400, None, id="negative-definite"),
    # an empty Gershgorin interval holds no double to test
    pytest.param(lambda n: np.zeros((n, n), dtype=complex), 400, 0, id="zero"),
    pytest.param(_random_hermitian, 1, 0, id="n=1"),
    # at most the band width, and one more: the first stage copies the whole triangle
    pytest.param(_random_hermitian, 5, None, id="n=5"),
    pytest.param(_random_hermitian, 16, None, id="n=16"),
    pytest.param(_random_hermitian, 17, None, id="n=17"),
])
def test_band_ends_are_eigvalsh_ends(monkeypatch, make, n, steps):
    # the two-stage ends, called directly at any n: the first stage to a band,
    # then bisection with zpbtrf (test_linalg.py bounds its step count)
    factor = _blas.zpbtrf()
    if _blas.zhetrd_he2hb() is None or factor is None:
        pytest.skip("numpy's OpenBLAS exports no zhetrd_he2hb/zpbtrf")
    calls = []
    monkeypatch.setattr(_blas, "zpbtrf", lambda: lambda *args: calls.append(args[1]) or factor(*args))
    a = make(n)
    expected = np.linalg.eigvalsh(a)
    ends = _blas.eigenvalues(np.asfortranarray(a), two_stage=True, ends=True)
    radius = np.abs(expected).max()
    assert np.abs(ends - expected[[0, -1]]).max() <= ENDS_RTOL * radius
    assert set(calls) <= {n}
    assert len(calls) == steps if steps is not None else len(calls) >= 2


@pytest.mark.parametrize("field, forced", [pytest.param("real", False, id="real"),
                                           pytest.param("complex", False, id="complex"),
                                           pytest.param("complex", True, id="complex-two-stage")])
@pytest.mark.parametrize("exponent, rescaled", [(-700, True), (-400, False), (400, False), (700, True)])
def test_a_matrix_the_drivers_would_rescale_goes_to_eigvalsh(monkeypatch, field, forced, exponent, rescaled):
    # LAPACK's drivers rescale a matrix whose largest entry lies outside about
    # [1e-146, 1e146]; the bare reductions do not, so such a matrix takes the
    # eigvalsh fallback, and one inside the range takes the reduction; forced,
    # the two-stage reduction, and for the ends its first stage and the band's
    # bisection
    if forced:
        monkeypatch.setattr(linalg, "TWO_STAGE_MIN_N", 1)
    shape = BipartiteShape(4, 5)
    w = sample_wishart(WishartParams(n=shape.n, p=4 * shape.n, field=field), SampleStream(17, 0))
    unscaled = pt_eigenvalues(w.copy(), shape)
    w *= 2.0 ** exponent
    eigvalsh, fallback = np.linalg.eigvalsh, []
    expected = eigvalsh(_reference_pt(w, shape))
    seen = _solver_spy(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: fallback.append(len(a)) or eigvalsh(a))
    values = pt_eigenvalues(w.copy(), shape)
    ends = np.array(pt_extreme_eigenvalues(w.copy(), shape))
    assert len(seen) == (0 if rescaled else 2)
    assert fallback == ([shape.n] * 2 if rescaled else [])
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(ends))
    if rescaled:
        assert values.tobytes() == expected.tobytes()
        assert ends.tobytes() == expected[[0, -1]].tobytes()
    radius = np.abs(unscaled).max() * 2.0 ** exponent
    assert np.abs(values - unscaled * 2.0 ** exponent).max() <= 1e-13 * radius
    assert np.abs(ends - unscaled[[0, -1]] * 2.0 ** exponent).max() <= 1e-13 * radius


@pytest.mark.parametrize("field", ["real", "complex"])
def test_the_rescaling_guard_takes_the_hermiticity_checks_scale(monkeypatch, field):
    # the check finds the largest entry modulus, and the guard reads it in
    # place of a pass of its own over the buffer
    if _blas.hetrd(field == "complex") is None or _blas.dsterf() is None or _blas.dstebz() is None:
        pytest.skip("numpy's OpenBLAS lacks a routine of the route")
    shape = BipartiteShape(4, 5)
    w = sample_wishart(WishartParams(n=shape.n, p=4 * shape.n, field=field), SampleStream(17, 1))
    largest = float(np.abs(w).max())
    seen, unscaled = [], _blas._unscaled
    monkeypatch.setattr(_blas, "_unscaled", lambda work, scale: seen.append(scale) or unscaled(work, scale))
    pt_eigenvalues(w.copy(), shape)
    pt_extreme_eigenvalues(w.copy(), shape)
    assert seen == [largest, largest]
    # without a scale the guard finds one itself; a given one decides
    work = np.asfortranarray(_reference_pt(w, shape))
    assert _blas.eigenvalues(work.copy()) is not None
    assert _blas.eigenvalues(work.copy(), scale=2.0**700) is None
    assert seen == [largest, largest, None, 2.0**700]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_pt_eigenvalues_copies_other_input_and_leaves_it(monkeypatch, field):
    shape = BipartiteShape(3, 4)
    seen = _solver_spy(monkeypatch)
    w = sample_wishart(WishartParams(n=12, p=30, field=field), SampleStream(9, 1))
    expected = hermitian_eigenvalues(_reference_pt(w, shape))
    big = np.zeros((24, 24), dtype=w.dtype)
    big[::2, ::2] = w
    frozen = w.copy()
    frozen.flags.writeable = False
    # a strided view, another dtype, a read-only array and a list
    inputs = [big[::2, ::2], w.astype(np.complex64 if field == "complex" else np.float32), frozen, w.tolist()]
    for x in inputs:
        before = np.array(x, copy=True)
        values = pt_eigenvalues(x, shape)
        np.testing.assert_array_equal(np.asarray(x), before)
        if np.asarray(x).dtype == w.dtype:
            assert values.tobytes() == expected.tobytes()
    assert len(seen) == 1 + len(inputs)


def test_public_functions_leave_their_input_unchanged():
    shape = BipartiteShape(16, 16)
    # the lauum path's reversed view, and the F-ordered herk result
    for w in (sample_wishart(WishartParams(n=256, p=1024), SampleStream(9, 4)),
              sample_induced_state(256, 100, SampleStream(9, 5))):
        before = w.copy()
        pt = partial_transpose(w, shape)
        assert not np.shares_memory(pt, w)
        hermitian_eigenvalues(pt)
        hermitian_eigenvalues(w)
        rho = w / np.trace(w).real
        rho_before = rho.copy()
        ppt_gauge(rho, shape)
        np.testing.assert_array_equal(w, before)
        np.testing.assert_array_equal(rho, rho_before)


@pytest.mark.parametrize("solve", [pt_eigenvalues, pt_extreme_eigenvalues], ids=["all", "ends"])
@pytest.mark.parametrize("field, itemsize", [("complex", 16), ("real", 8)])
def test_one_trial_peaks_near_one_buffer(field, itemsize, solve):
    # a draw, its partial transpose and the eigensolve at n = 400 (the lauum
    # path, then dsytrd, zhetrd_2stage or for the complex ends zhetrd_he2hb,
    # whose workspaces numpy allocates: about 0.18 and 0.17 * 16 * n^2 here
    # for the two complex routes); the three-buffer path peaked at about
    # 2 * itemsize * n^2
    n, shape = 400, BipartiteShape(20, 20)
    params = WishartParams(n=n, p=4 * n, field=field)
    tracemalloc.start()
    try:
        solve(sample_wishart(params, SampleStream(3, 0)), shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * itemsize * n * n
