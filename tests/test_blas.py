import os
import subprocess
import sys
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


@FIELDS
@SIZES
@WORKERS
@pytest.mark.parametrize("k_of_n", [lambda n: n // 3, lambda n: n, lambda n: 4 * n], ids=["k<n", "k=n", "k>n"])
def test_herk_equals_scipy_bitwise(n, k_of_n, workers, complex_field):
    _routine(_blas._HERK, complex_field)
    rng = np.random.default_rng(n)
    a = _draw(rng, (n, k_of_n(n)), complex_field)
    update = blas.zherk if complex_field else blas.dsyrk
    with _blas.split(workers):
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
    with _blas.split(workers):
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


def _scipy_spies(monkeypatch):
    calls = []
    for module, name in [(blas, "zherk"), (blas, "dsyrk"), (lapack, "zlauum"), (lapack, "dlauum")]:
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, original=original, **kwargs:
                            calls.append(name) or original(*args, **kwargs))
    return calls


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n, p", [(36, 144), (300, 100), (300, 1200)], ids=["herk", "herk-p<n", "lauum"])
def test_wishart_falls_back_to_scipy_without_the_symbols(monkeypatch, field, n, p):
    params = WishartParams(n=n, p=p, field=field)
    expected = sample_wishart(params, SampleStream(53, 0))
    calls = _scipy_spies(monkeypatch)
    monkeypatch.setattr(_blas, "_function", lambda *routine: None)
    np.testing.assert_array_equal(sample_wishart(params, SampleStream(53, 0)), expected)
    routine = "lauum" if p >= n >= ensembles.LAUUM_MIN_N else "herk" if field == "complex" else "syrk"
    assert calls == [("z" if field == "complex" else "d") + routine]


def test_mixture_falls_back_to_scipy_without_the_symbols(monkeypatch):
    # p > GRAM_CHUNK: the second block updates the first one's triangle
    p = ensembles.GRAM_CHUNK + 64
    expected = ensembles.sample_mixture_state(12, p, SampleStream(59, 0))
    calls = _scipy_spies(monkeypatch)
    monkeypatch.setattr(_blas, "_function", lambda *routine: None)
    np.testing.assert_array_equal(ensembles.sample_mixture_state(12, p, SampleStream(59, 0)), expected)
    assert calls == ["zherk", "zherk"]


def test_split_covers_scipy_openblas_when_it_runs_the_gram():
    # in a fresh process, so that no earlier scan of the copies is cached
    code = (
        "import sys\n"
        "from ptwishart import _blas\n"
        "_blas._function = lambda *routine: None\n"
        "with _blas.split(2):\n"
        "    copies = _blas._copies()\n"
        "    print(sorted(get.__name__ for get, _, _ in copies))\n"
        "    print([get() for get, _, _ in copies] == _blas.per_worker_counts(2))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    names, split, imported = result.stdout.splitlines()
    if "scipy_openblas_get_num_threads64_" not in names:
        pytest.skip("numpy's OpenBLAS is not a scipy-openblas build")
    assert "'scipy_openblas_get_num_threads'" in names
    assert split == "True" and imported == "True"
