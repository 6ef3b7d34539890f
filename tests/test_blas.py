import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import blas, lapack

from ptwishart import SampleStream, WishartParams, _blas, ensembles, sample_wishart

ROOT = Path(__file__).resolve().parent.parent

FIELDS = pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
SIZES = pytest.mark.parametrize("n", [36, 255, 300])
# at the start-up BLAS thread count, and at the per-worker count of two trial workers
WORKERS = pytest.mark.parametrize("workers", [1, 2], ids=["start-up-threads", "split-2"])


def _routine(table, complex_field):
    if _blas._function(*table[complex_field]) is None:
        pytest.skip(f"numpy's OpenBLAS exports no {table[complex_field][0]}")


def _draw(rng, shape, complex_field):
    x = rng.standard_normal(shape)
    if complex_field:
        x = x + 1j * rng.standard_normal(shape)
    return np.asfortranarray(x)


@contextmanager
def _split(workers):
    """`_blas.split(workers)`, with scipy's OpenBLAS, which runs the references,
    at max(1, its own count // workers) threads too."""
    for lib in _blas._mapped():
        if hasattr(lib, "scipy_openblas_set_num_threads"):
            get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
            break
    else:
        pytest.skip("scipy's OpenBLAS exports no thread-count symbols")
    old = get()
    try:
        with _blas.split(workers):
            set_(max(1, old // workers))
            yield
    finally:
        set_(old)


@FIELDS
@SIZES
@WORKERS
@pytest.mark.parametrize("k_of_n", [lambda n: n // 3, lambda n: n, lambda n: 4 * n], ids=["k<n", "k=n", "k>n"])
def test_herk_equals_scipy_bitwise(n, k_of_n, workers, complex_field):
    _routine(_blas._HERK, complex_field)
    rng = np.random.default_rng(n)
    a = _draw(rng, (n, k_of_n(n)), complex_field)
    update = blas.zherk if complex_field else blas.dsyrk
    with _split(workers):
        # a fresh product, and an update of an existing triangle as the mixture sampler makes
        for beta in (0.0, 1.0):
            start = _draw(rng, (n, n), complex_field)
            expected = update(0.25, a, beta=beta, c=start.copy(order="F"), lower=1)
            c = start.copy(order="F")
            assert _blas.herk(0.25, a, c, beta=beta) is c
            np.testing.assert_array_equal(c, expected)
        # a C-ordered operand is copied into F order
        expected = update(1.0, a, c=np.zeros((n, n), dtype=a.dtype, order="F"), lower=1)
        c = _blas.herk(1.0, np.ascontiguousarray(a), np.zeros((n, n), dtype=a.dtype, order="F"))
        np.testing.assert_array_equal(c, expected)


@FIELDS
@SIZES
@WORKERS
def test_lauum_equals_scipy_bitwise(n, workers, complex_field):
    _routine(_blas._LAUUM, complex_field)
    lower = np.tril(_draw(np.random.default_rng(n + 1), (n, n), complex_field))
    # the index-reversed lower factor that sample_wishart passes, upper triangular
    u = lower[::-1, ::-1]
    before = u.copy()
    with _split(workers):
        expected, info = (lapack.zlauum if complex_field else lapack.dlauum)(u)
        got = _blas.lauum(u)
    assert info == 0
    np.testing.assert_array_equal(u, before)
    if complex_field or workers == 1:
        np.testing.assert_array_equal(got, expected)
    else:
        # numpy's and scipy's OpenBLAS builds may round dlauum differently at
        # fewer BLAS threads; on 2 cores (one thread per worker) they do, in
        # the last bit
        assert np.max(np.abs(got - expected)) <= 4e-16 * np.max(np.abs(expected))


# relative to the largest entry; measured: 0 on the herk route, 2.3e-15 on the
# lauum route and 3.1e-16 for a two-block mixture
FALLBACK_RTOL = 1e-14


def _assert_close(got, expected):
    assert np.max(np.abs(got - expected)) <= FALLBACK_RTOL * np.max(np.abs(expected))


def _no_symbols(monkeypatch):
    monkeypatch.setattr(_blas, "_function", lambda *routine: None)


@FIELDS
def test_fallbacks_compute_what_the_routines_compute(monkeypatch, complex_field):
    rng = np.random.default_rng(67)
    a = _draw(rng, (40, 30), complex_field)
    # lauum reads only the real part of the diagonal; a Bartlett factor's is real
    u = np.triu(_draw(rng, (40, 40), complex_field), 1) + np.diag(rng.standard_normal(40))
    u += np.tril(_draw(rng, (40, 40), complex_field), -1)
    start = _draw(rng, (40, 40), complex_field)
    # beta = 0 ignores c's old entries, here NaN; beta = 1 adds to a Hermitian c,
    # whose diagonal zherk takes as real
    starts = {0.0: np.full((40, 40), np.nan, dtype=a.dtype, order="F"), 1.0: start + start.conj().T}
    expected = {beta: np.tril(_blas.herk(0.5, a, c.copy(order="F"), beta=beta)) for beta, c in starts.items()}
    expected_u = _blas.lauum(u.copy(order="F"))
    _no_symbols(monkeypatch)
    for beta, c in starts.items():
        _assert_close(np.tril(_blas.herk(0.5, a, c.copy(order="F"), beta=beta)), expected[beta])
    got_u = _blas.lauum(u.copy(order="F"))
    _assert_close(got_u, expected_u)
    # lauum keeps the strict lower triangle
    np.testing.assert_array_equal(np.tril(got_u, -1), np.tril(u, -1))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n, p", [(36, 144), (300, 100), (300, 1200)], ids=["herk", "herk-p<n", "lauum"])
def test_wishart_falls_back_to_numpy_without_the_symbols(monkeypatch, field, n, p):
    params = WishartParams(n=n, p=p, field=field)
    expected = sample_wishart(params, SampleStream(53, 0))
    _no_symbols(monkeypatch)
    got = sample_wishart(params, SampleStream(53, 0))
    _assert_close(got, expected)
    # the matmul fallback writes both triangles; the mirror still leaves the sample exactly Hermitian
    np.testing.assert_array_equal(got, got.conj().T)


def test_mixture_falls_back_to_numpy_without_the_symbols(monkeypatch):
    # p > GRAM_CHUNK: the second block updates the first one's triangle
    p = ensembles.GRAM_CHUNK + 64
    expected = ensembles.sample_mixture_state(12, p, SampleStream(59, 0))
    _no_symbols(monkeypatch)
    got = ensembles.sample_mixture_state(12, p, SampleStream(59, 0))
    _assert_close(got, expected)
    np.testing.assert_array_equal(got, got.conj().T)


def _fresh(code: str) -> list[str]:
    """The stdout lines of `code` run in a new interpreter, so nothing of this
    process's lookups is cached there."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_split_survives_a_lookup_without_the_symbols():
    # the thread-count symbols are looked up through the real `_function`, even
    # when a stand-in that finds nothing replaced it before the first split
    if _blas._threads() is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count symbols")
    code = (
        "from ptwishart import _blas\n"
        "_blas._function = lambda *routine: None\n"
        "get, _, start = _blas._threads()\n"
        "with _blas.split(2):\n"
        "    print(get() == _blas.per_worker_count(2) == max(1, start // 2))\n"
        "print(get() == start)\n"
    )
    assert _fresh(code) == ["True", "True"]


def test_trials_without_the_symbols_match_and_import_no_scipy():
    # a lauum-route spectrum trial at n = 289, solved by eigvalsh, a mixture
    # trial of two Gram blocks, an extremes trial at n = 289 and a ppt sweep at
    # n = 400 (the band's ends), first with numpy's OpenBLAS routines and
    # then without; spectrum compares eigenvalues, extremes and ppt their records
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from ptwishart import _blas, experiments\n"
        "def config(subcommand, d, ensemble, **kw):\n"
        "    return experiments.ExperimentConfig(subcommand=subcommand, d1=d, d2=d, ensemble=ensemble, **kw)\n"
        "configs = [config('spectrum', 17, 'wishart', trials=1, alpha=4.0),\n"
        "           config('spectrum', 12, 'mixture', trials=1, alpha=4.0),\n"
        "           config('extremes', 17, 'wishart', trials=1, alpha=4.0),\n"
        "           config('ppt', 20, 'induced', trials=2, alpha=None, alphas=(3.0, 5.0))]\n"
        "runners = {'spectrum': experiments.run_spectrum, 'extremes': experiments.run_extremes,\n"
        "           'ppt': experiments.run_ppt_sweep}\n"
        "def values(c):\n"
        "    report = runners[c.subcommand](c)\n"
        "    if c.subcommand == 'spectrum':\n"
        "        return np.array(report['spectra'][0]['eigenvalues'])\n"
        "    return np.array([r['value'] for r in report['records']])\n"
        "expected = [values(c) for c in configs]\n"
        "_blas._function = lambda *routine: None\n"
        "for e, c in zip(expected, configs):\n"
        "    print(np.max(np.abs(values(c) - e)) / np.max(np.abs(e)))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    *errors, imported = _fresh(code)
    assert len(errors) == 4 and all(0 <= float(e) <= 1e-12 for e in errors), errors
    assert imported == "[]"
