import numpy as np
import pytest

from ptwishart import BipartiteShape, hermitian_eigenvalues, partial_transpose
from ptwishart.errors import NumericError, ParameterError, ShapeError
from ptwishart.linalg import is_hermitian


def random_hermitian(n, rng, complex_field=True):
    if complex_field:
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        m = rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def test_shape_validation():
    with pytest.raises(ParameterError):
        BipartiteShape(0, 3)
    with pytest.raises(ParameterError):
        BipartiteShape(2, -1)
    assert BipartiteShape(2, 3).n == 6


def test_partial_transpose_identity():
    shape = BipartiteShape(2, 2)
    np.testing.assert_array_equal(partial_transpose(np.eye(4), shape), np.eye(4))


def test_partial_transpose_moves_single_entry():
    # entry in block (0, 1) at inner position (0, 1) moves to inner (1, 0);
    # block (i, j) at inner (k, l) sits at row-major [i*d2 + k, j*d2 + l]
    shape = BipartiteShape(2, 2)
    a = np.zeros((4, 4))
    a[0 * 2 + 0, 1 * 2 + 1] = 5.0
    b = partial_transpose(a, shape)
    expected = np.zeros((4, 4))
    expected[0 * 2 + 1, 1 * 2 + 0] = 5.0
    np.testing.assert_array_equal(b, expected)


def test_partial_transpose_involution():
    rng = np.random.default_rng(7)
    shape = BipartiteShape(3, 2)
    a = random_hermitian(6, rng)
    np.testing.assert_array_equal(partial_transpose(partial_transpose(a, shape), shape), a)


def test_partial_transpose_preserves_trace_frobenius_hermiticity():
    rng = np.random.default_rng(11)
    for d1, d2 in [(2, 2), (3, 2), (2, 5)]:
        shape = BipartiteShape(d1, d2)
        a = random_hermitian(shape.n, rng)
        b = partial_transpose(a, shape)
        assert is_hermitian(b)
        assert abs(np.trace(b) - np.trace(a)) <= 1e-12 * abs(np.trace(a))
        fa, fb = np.linalg.norm(a), np.linalg.norm(b)
        assert abs(fb - fa) <= 1e-12 * fa


def test_partial_transpose_shape_mismatch():
    with pytest.raises(ShapeError):
        partial_transpose(np.eye(5), BipartiteShape(2, 2))
    with pytest.raises(ShapeError):
        partial_transpose(np.zeros((4, 3)), BipartiteShape(2, 2))


def test_eigenvalues_simple():
    np.testing.assert_allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])
    np.testing.assert_allclose(hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0])


def test_eigenvalues_trace_identity_and_residual():
    rng = np.random.default_rng(13)
    a = random_hermitian(6, rng)
    vals = hermitian_eigenvalues(a)
    norm = np.linalg.norm(a, 2)
    assert abs(vals.sum() - np.trace(a).real) <= 1e-9 * norm
    # residual bound via full decomposition of the same matrix
    w, v = np.linalg.eigh(a)
    np.testing.assert_allclose(vals, w, atol=1e-12 * norm)
    residual = np.linalg.norm(a @ v - v * w, axis=0).max()
    assert residual <= 1e-10 * norm


def test_eigenvalues_of_partial_transpose_share_trace_and_frobenius():
    rng = np.random.default_rng(17)
    shape = BipartiteShape(3, 3)
    a = random_hermitian(9, rng)
    ea = hermitian_eigenvalues(a)
    eb = hermitian_eigenvalues(partial_transpose(a, shape))
    assert abs(ea.sum() - eb.sum()) <= 1e-9 * max(1.0, abs(ea.sum()))
    sa, sb = (ea**2).sum(), (eb**2).sum()
    assert abs(sa - sb) <= 1e-9 * sa


def test_eigenvalues_real_path_agrees_with_complex():
    rng = np.random.default_rng(19)
    a = random_hermitian(8, rng, complex_field=False)
    real_vals = hermitian_eigenvalues(a)
    complex_vals = hermitian_eigenvalues(a.astype(complex))
    np.testing.assert_allclose(real_vals, complex_vals, atol=1e-12 * np.linalg.norm(a, 2))


def test_eigenvalues_rejects_bad_input():
    with pytest.raises(NumericError):
        hermitian_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NumericError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ShapeError):
        hermitian_eigenvalues(np.zeros((2, 3)))


def test_psd_product_is_numerically_psd():
    rng = np.random.default_rng(23)
    g = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    w = g @ g.conj().T / 9
    w = (w + w.conj().T) / 2
    vals = hermitian_eigenvalues(w)
    assert vals[0] >= -1e-10 * np.abs(vals).max()
