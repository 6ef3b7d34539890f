"""The one-buffer trial path against the three-buffer formula it replaced.

`_reference_*` below are test-local copies of the earlier path: the draw
allocates W next to its Gram array, `partial_transpose` writes a second
n x n array and `hermitian_eigenvalues` copies that into a third, the
solver's workspace.  The one-buffer path must hand the solver the
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
from ptwishart.linalg import BipartiteShape, hermitian_eigenvalues, partial_transpose, pt_eigenvalues
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
    LAPACKE solver."""
    seen = []

    def spying(lookup):
        def wrapped(*complex_field):
            solver = lookup(*complex_field)
            if solver is None:
                pytest.skip("numpy's OpenBLAS lacks a LAPACKE eigensolver")
            # heevd(complex_field) serves either field, zheevd_2stage() the complex one
            dtype = np.complex128 if complex_field in ((), (True,)) else np.float64

            def spy(layout, jobz, uplo, n, a, lda, w):
                buffer = ctypes.string_at(a, n * n * np.dtype(dtype).itemsize)
                seen.append((uplo, np.frombuffer(buffer, dtype).reshape(n, n), a))
                return solver(layout, jobz, uplo, n, a, lda, w)

            spy.__name__ = solver.__name__
            return spy
        return wrapped

    monkeypatch.setattr(_blas, "heevd", spying(_blas.heevd))
    monkeypatch.setattr(_blas, "zheevd_2stage", spying(_blas.zheevd_2stage))
    return seen


def _assert_same_matrix(seen):
    """Both solver calls read the lower triangle, the first of the second's matrix or its transpose."""
    (uplo, matrix, _), (reference_uplo, reference, _) = seen
    assert uplo == reference_uplo == b"L"
    assert matrix.tobytes() in (reference.tobytes(), reference.T.tobytes())


SHAPES = [(1, 5), (5, 1), (3, 5), (16, 16), (17, 15), (36, 35)]


def _cases():
    for d1, d2 in SHAPES:
        n = d1 * d2
        for ensemble, field in [("wishart", "complex"), ("wishart", "real"), ("induced", "complex"),
                                ("mixture", "complex")]:
            # (36, 35) is n = 1260, the two-stage solver, with d1 != d2; the
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
# both indices, each on heevd and on the two-stage solver, here forced at small n
LAYOUTS = {
    "C": lambda a: np.array(a, order="C"),
    "F": lambda a: np.array(a, order="F"),
    "reversed-C": lambda a: np.array(a[::-1, ::-1], order="C")[::-1, ::-1],
    "reversed-F": lambda a: np.array(a[::-1, ::-1], order="F")[::-1, ::-1],
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("field, solver", [("real", "heevd"), ("complex", "heevd"), ("complex", "two-stage")])
@pytest.mark.parametrize("d1, d2", [(1, 4), (4, 1), (3, 4), (4, 3), (5, 5)])
def test_in_place_partial_transpose_in_every_layout(monkeypatch, layout, field, solver, d1, d2):
    if solver == "two-stage":
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
    # the solver ran in the buffer's own memory
    assert seen[0][2] == address


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


@pytest.mark.parametrize("field, itemsize", [("complex", 16), ("real", 8)])
def test_one_trial_peaks_near_one_buffer(field, itemsize):
    # a draw, its partial transpose and the eigensolve at n = 400 (the lauum
    # path, then dsyevd or zheevd_2stage); the three-buffer path peaked at
    # about 2 * itemsize * n^2
    n, shape = 400, BipartiteShape(20, 20)
    params = WishartParams(n=n, p=4 * n, field=field)
    tracemalloc.start()
    try:
        pt_eigenvalues(sample_wishart(params, SampleStream(3, 0)), shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * itemsize * n * n
