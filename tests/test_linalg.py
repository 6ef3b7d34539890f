import warnings
from concurrent.futures import ThreadPoolExecutor
from math import isqrt

import numpy as np
import pytest

from ptwishart import (
    BipartiteShape,
    SampleStream,
    WishartParams,
    _blas,
    experiments,
    hermitian_eigenvalues,
    partial_transpose,
    sample_wishart,
)
from ptwishart.errors import NumericError, ParameterError, ShapeError
from ptwishart.experiments import ExperimentConfig
from ptwishart._blas import TWO_STAGE_MIN_N
from ptwishart.linalg import (
    _HERMITICITY_TILE,
    HERMITICITY_RTOL,
    _hermitian_scale,
    is_hermitian,
    pt_eigenvalues,
    pt_extreme_eigenvalues,
)


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
        np.testing.assert_array_equal(np.diagonal(b), np.diagonal(a))
        assert abs(np.trace(b) - np.trace(a)) <= 1e-12 * abs(np.trace(a))
        fa, fb = np.linalg.norm(a), np.linalg.norm(b)
        assert abs(fb - fa) <= 1e-12 * fa


@pytest.mark.parametrize("d1, d2", [(1, 5), (5, 1), (3, 5), (4, 4)])
def test_partial_transpose_returns_a_new_array(d1, d2):
    # with d1 = 1 or d2 = 1 the transposed view reshapes without a copy
    shape = BipartiteShape(d1, d2)
    a = random_hermitian(shape.n, np.random.default_rng(29))
    expected = a.reshape(d1, d2, d1, d2).swapaxes(1, 3).reshape(shape.n, shape.n)
    for x in (a, np.asfortranarray(a)):
        b = partial_transpose(x, shape)
        assert not np.shares_memory(b, x)
        np.testing.assert_array_equal(b, expected)


def _unblocked_is_hermitian(a):
    scale = float(np.abs(a).max())
    if not np.isfinite(scale):
        return False
    return scale == 0.0 or float(np.abs(a - a.conj().T).max()) <= HERMITICITY_RTOL * scale


@pytest.mark.parametrize("i, j", [(5, 100), (250, 290)], ids=["first-block", "last-block"])
def test_blocked_hermiticity_check_matches_the_unblocked_formula(i, j):
    n = 300
    tile = _HERMITICITY_TILE
    # several tiles a side; (i, j) lies in the first row of tiles or the last column of them
    assert tile < n and (i < tile or j // tile == (n - 1) // tile)
    a = random_hermitian(n, np.random.default_rng(31)) / 10
    assert np.abs(a).max() < 1.0
    a[0, 0] = 1.0  # the scale is exactly 1
    a[j, i] = 0.0
    for delta, expected in [(HERMITICITY_RTOL, True), (np.nextafter(HERMITICITY_RTOL, 1.0), False),
                            (1e-3, False)]:
        a[i, j] = delta
        assert is_hermitian(a) == _unblocked_is_hermitian(a) == expected, delta
        assert is_hermitian(a.conj().T) == expected


def _tiled_is_hermitian(a):
    # the check before its exact-mirror shortcut: both tiles' largest entries,
    # then the deviation, for every pair of tiles
    n, t = len(a), _HERMITICITY_TILE
    scale = deviation = np.float64(0.0)
    for i in range(0, n, t):
        for j in range(i, n, t):
            upper, lower = a[i:i + t, j:j + t], a[j:j + t, i:i + t]
            scale = np.maximum(scale, np.abs(upper).max())
            if j != i:
                scale = np.maximum(scale, np.abs(lower).max())
            if not np.isfinite(scale):
                return False
            diff = np.conjugate(lower.T)
            diff -= upper
            deviation = np.maximum(deviation, np.abs(diff).max())
    if scale == 0.0:
        return True
    return float(deviation) <= HERMITICITY_RTOL * float(scale)


def _hermitian_cases():
    # (id, matrix): exactly Hermitian, deviations at the tolerance, non-finite
    # entries in a diagonal and an off-diagonal tile, and edge sizes
    t = _HERMITICITY_TILE
    n = 2 * t + 33  # between tile multiples
    exact = random_hermitian(n, np.random.default_rng(43)) / 10
    assert np.abs(exact).max() < 1.0
    exact[0, 0] = 2.0  # the scale is exactly 2
    cases = [("exact", exact), ("zero", np.zeros((n, n), dtype=complex)), ("n=1", np.array([[3.0 + 0j]])),
             ("n=1-imaginary", np.array([[3.0 + 1e-9j]])),
             ("between-tiles", random_hermitian(t + 1, np.random.default_rng(5)))]
    for i, j, where in [(5, 3, "diagonal-tile"), (n - 2, 7, "off-diagonal-tile")]:
        bound = HERMITICITY_RTOL * 2.0
        for name, delta in [("under", np.nextafter(bound, 0.0)), ("at", bound), ("over", np.nextafter(bound, 1.0))]:
            a = exact.copy()
            a[j, i], a[i, j] = 0.0, delta  # a deviation of exactly delta
            cases.append((f"{where}-{name}", a))
        for value in (np.nan, np.inf):
            a = exact.copy()
            a[i, j] = value
            cases.append((f"{where}-{value}", a))
            a = a.copy()
            a[j, i] = value
            cases.append((f"{where}-{value}-mirrored", a))
    return [pytest.param(name, a, id=name) for name, a in cases]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("layout", ["C", "F", "reversed"])
@pytest.mark.parametrize("name, a", _hermitian_cases())
def test_exact_mirror_shortcut_keeps_every_verdict(field, layout, name, a):
    a = a.real.copy() if field == "real" else a
    a = {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "reversed": np.asfortranarray(a)[::-1, ::-1]}[layout]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no inf - inf, say
        got = is_hermitian(a)
    expected = _tiled_is_hermitian(a)
    assert got == expected == _unblocked_is_hermitian(a)
    if name.endswith(("under", "at", "over")):
        assert expected == (not name.endswith("over"))
    if name in ("exact", "zero", "n=1", "between-tiles"):
        assert expected


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
@pytest.mark.parametrize("mirrored", [False, True], ids=["one-entry", "mirrored"])
def test_hermiticity_check_refuses_non_finite_entries(value, mirrored):
    # with an infinite entry the scale and the deviation are both inf, and
    # inf <= HERMITICITY_RTOL * inf holds
    a = np.eye(300, dtype=type(value))
    a[250, 290] = value
    if mirrored:
        a[290, 250] = np.conj(value)
    assert not is_hermitian(a)
    assert not _unblocked_is_hermitian(a)


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


# the routines past the reduction on each route: all n values, the two ends
# on the tridiagonal matrix, and the two ends on the band
ALL_VALUES, TRIDIAGONAL_ENDS, BAND_ENDS = ("dsterf",), ("dstebz",), ("ilaenv2stage", "zpbtrf")


def _one_stage(complex_field):
    return "zhetrd" if complex_field else "dsytrd"


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 9, 225, TWO_STAGE_MIN_N - 1])
def test_evd_eigenvalues_equal_eigvalsh_bitwise(routines, n, complex_field):
    routines.need(_one_stage(complex_field), *ALL_VALUES)
    rng = np.random.default_rng(47)
    a = random_hermitian(n, rng, complex_field)
    # C-ordered, F-ordered, and a strided view of a larger Hermitian matrix
    inputs = [a, np.asfortranarray(a), random_hermitian(2 * n, rng, complex_field)[::2, ::2]]
    for x in inputs:
        before = x.copy()
        vals = hermitian_eigenvalues(x)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_array_equal(vals, np.linalg.eigvalsh(x))
    assert routines.solves() == [((_one_stage(complex_field), n), [("dsterf", n)])] * len(inputs)


@pytest.mark.parametrize("ends", [False, True], ids=["all", "ends"])
@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_the_solver_refuses_c_ordered_work(routines, complex_field, ends):
    # every caller hands the solver F-ordered memory in natural index order, so
    # C-ordered work is refused before any routine runs, not read as its conjugate
    x = random_hermitian(9, np.random.default_rng(9), complex_field)
    with pytest.raises(ValueError, match="F-ordered"):
        _blas.eigenvalues(np.ascontiguousarray(x), _hermitian_scale(x), ends)
    assert routines.calls == []


# zpbtrf calls of one band bisection: its Gershgorin interval is at most
# 2 max(|gl|, |gu|) wide, each step halves it up to half a unit in the last
# place of max(|gl|, |gu|), and it stops below 2 eps max(|gl|, |gu|)
BISECTION_STEPS = 53


def _assert_band_bisection(finish, n):
    """finish is two bisections' zpbtrf steps on the band matrix of order n."""
    assert set(finish) == {("zpbtrf", n)}
    assert 2 <= len(finish) <= 2 * BISECTION_STEPS


@pytest.mark.parametrize("complex_field, n, routine", [
    (True, TWO_STAGE_MIN_N, "zhetrd_2stage"),
    (True, TWO_STAGE_MIN_N - 1, "zhetrd"),
    (False, 2, "dsytrd"),
    (False, TWO_STAGE_MIN_N - 1, "dsytrd"),
    (False, TWO_STAGE_MIN_N, "dsytrd"),
    (False, 1600, "dsytrd"),
])
def test_each_size_and_field_reaches_its_reduction_on_the_lower_triangle(routines, complex_field, n, routine):
    band = routine == "zhetrd_2stage"
    routines.need(routine, *ALL_VALUES, *(("zhetrd_he2hb",) + BAND_ENDS if band else TRIDIAGONAL_ENDS))
    a = random_hermitian(n, np.random.default_rng(n), complex_field)
    hermitian_eigenvalues(a)
    pt_eigenvalues(a.copy(), BipartiteShape(1, n))
    pt_extreme_eigenvalues(a, BipartiteShape(1, n))
    solves = routines.solves()
    # all n values: one reduction, then dsterf
    assert solves[:2] == [((routine, n), [("dsterf", n)])] * 2
    (ends_reduction, finish), = solves[2:]
    if band:
        # the ends from the two-stage size on: the first stage alone, to a band,
        # then zpbtrf for each step of the two bisections
        assert ends_reduction == ("zhetrd_he2hb", n)
        _assert_band_bisection(finish, n)
    else:
        # the ends below it: one reduction, then dstebz for the smallest (il = 1)
        # and for the largest (il = n)
        assert (ends_reduction, finish) == ((routine, n), [("dstebz", 1), ("dstebz", n)])


@pytest.mark.parametrize("subcommand, runner, ensemble, field, d1, d2", [
    ("spectrum", "run_spectrum", "wishart", "complex", 3, 4),
    ("spectrum", "run_spectrum", "wishart", "real", 3, 4),
    ("extremes", "run_extremes", "wishart", "complex", 3, 4),
    ("extremes", "run_extremes", "wishart", "real", 3, 4),
    ("ppt", "run_ppt_sweep", "induced", "complex", 3, 4),
    ("ppt", "run_ppt_sweep", "mixture", "complex", 3, 4),
    ("spectrum", "run_spectrum", "wishart", "complex", 19, 20),
    ("extremes", "run_extremes", "wishart", "complex", 19, 20),
    ("ppt", "run_ppt_sweep", "induced", "complex", 19, 20),
])
def test_each_trial_reaches_one_reduction_and_its_finish(routines, subcommand, runner, ensemble, field, d1, d2):
    # spectrum reads all n eigenvalues, extremes and ppt only the two ends; at
    # n = TWO_STAGE_MIN_N the ends come from the band
    n = d1 * d2
    two_stage = field == "complex" and n >= TWO_STAGE_MIN_N
    if subcommand == "spectrum":
        reduction, rest = ("zhetrd_2stage" if two_stage else _one_stage(field == "complex")), ALL_VALUES
    else:
        reduction = "zhetrd_he2hb" if two_stage else _one_stage(field == "complex")
        rest = BAND_ENDS if two_stage else TRIDIAGONAL_ENDS
    routines.need(reduction, *rest)
    alphas = {"alphas": (2.0, 8.0), "alpha": None} if subcommand == "ppt" else {"alpha": 4.0}
    config = ExperimentConfig(subcommand=subcommand, ensemble=ensemble, field=field, d1=d1, d2=d2, trials=2,
                              master_seed=5, **alphas)
    getattr(experiments, runner)(config)
    solves = routines.solves()
    assert len(solves) == (4 if subcommand == "ppt" else 2)
    for solve, finish in solves:
        assert solve == (reduction, n)
        if subcommand == "spectrum":
            assert finish == [("dsterf", n)]
        elif two_stage:
            _assert_band_bisection(finish, n)
        else:
            assert finish == [("dstebz", 1), ("dstebz", n)]


def test_two_stage_eigenvalues_agree_with_eigvalsh(routines):
    routines.need("zhetrd_2stage", *ALL_VALUES)
    d = isqrt(TWO_STAGE_MIN_N - 1) + 1
    shape = BipartiteShape(d, d)
    a = partial_transpose(sample_wishart(WishartParams(n=shape.n, alpha=4.0), SampleStream(31, 0)), shape)
    before = a.copy()
    vals = hermitian_eigenvalues(a)
    assert routines.solves() == [(("zhetrd_2stage", shape.n), [("dsterf", shape.n)])]
    assert np.array_equal(a, before)
    expected = np.linalg.eigvalsh(a)
    assert np.max(np.abs(vals - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.all(np.diff(vals) >= 0)
    # a.T, the conjugate of a, is copied in its F order, which the solver reads as
    # it reads a's C order: the same bytes
    assert hermitian_eigenvalues(a.T).tobytes() == vals.tobytes()
    assert len(routines.reductions) == 2


# Each eigensolver route's fallback, refusal and concurrency checks, one row
# per (entry point, route).  A row's shape is None for hermitian_eigenvalues
# and the bipartite shape for pt_eigenvalues, which consumes its input.


def _solve(a, shape):
    return hermitian_eigenvalues(a) if shape is None else pt_eigenvalues(a, shape)


def _hermitian(n, seed, complex_field=True, single=False):
    """A Hermitian matrix, float32 or complex64 if `single`."""
    a = random_hermitian(n, np.random.default_rng(seed), complex_field)
    return lambda: a.astype(np.complex64 if complex_field else np.float32) if single else a.copy()


def _wishart(n, p, index):
    return lambda: sample_wishart(WishartParams(n=n, p=p), SampleStream(9, index))


def _extremes(a, shape):
    return np.array(pt_extreme_eigenvalues(a, shape))


# every routine of every route
EVERY_ROUTINE = ("dsytrd", "zhetrd", "zhetrd_2stage", "zhetrd_he2hb") + ALL_VALUES + TRIDIAGONAL_ENDS + BAND_ENDS


@pytest.mark.parametrize("shape, make, missing, solve", [
    pytest.param(None, _hermitian(225, 53, False), ("dsytrd",), _solve, id="hermitian_eigenvalues-evd-real"),
    pytest.param(None, _hermitian(225, 53), ("zhetrd",), _solve, id="hermitian_eigenvalues-evd-complex"),
    pytest.param(None, _hermitian(TWO_STAGE_MIN_N, 37), ("zhetrd_2stage",), _solve,
                 id="hermitian_eigenvalues-two-stage"),
    pytest.param(None, _hermitian(225, 53), ("dsterf",), _solve, id="hermitian_eigenvalues-no-dsterf"),
    # single precision reads as double on either path
    pytest.param(None, _hermitian(6, 71, False, single=True), EVERY_ROUTINE, _solve,
                 id="hermitian_eigenvalues-float32"),
    pytest.param(None, _hermitian(6, 71, single=True), EVERY_ROUTINE, _solve,
                 id="hermitian_eigenvalues-complex64"),
    pytest.param(BipartiteShape(16, 16), _wishart(256, 1024, 3), ("zhetrd", "zhetrd_2stage"), _solve,
                 id="pt_eigenvalues-no-solver"),
    pytest.param(BipartiteShape(16, 16), _wishart(256, 1024, 3), ("zhetrd", "zhetrd_2stage"), _extremes,
                 id="pt_extreme_eigenvalues-no-solver"),
    pytest.param(BipartiteShape(16, 16), _wishart(256, 1024, 3), ("dstebz",), _extremes,
                 id="pt_extreme_eigenvalues-no-dstebz"),
    pytest.param(BipartiteShape(20, 20), _wishart(400, 1600, 4), ("zhetrd_he2hb",), _extremes,
                 id="pt_extreme_eigenvalues-no-he2hb"),
    pytest.param(BipartiteShape(20, 20), _wishart(400, 1600, 4), ("ilaenv2stage",), _extremes,
                 id="pt_extreme_eigenvalues-no-ilaenv2stage"),
    pytest.param(BipartiteShape(20, 20), _wishart(400, 1600, 4), ("zpbtrf",), _extremes,
                 id="pt_extreme_eigenvalues-no-zpbtrf"),
])
def test_falls_back_without_the_symbol(monkeypatch, routines, shape, make, missing, solve):
    routed = solve(make(), shape)
    routines.hidden.update(missing)
    routed_calls = len(routines.calls)
    fallback = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: fallback.append(len(a)) or eigvalsh(a))
    a = make()
    double = a.astype(np.result_type(a, np.float64))
    expected = eigvalsh(double if shape is None else partial_transpose(double, shape))
    got = solve(a, shape)
    np.testing.assert_array_equal(got, expected if len(got) == len(a) else expected[[0, -1]])
    assert got.dtype == routed.dtype == np.float64
    # with a routine of the route missing, none of the others runs either
    assert len(routines.calls) == routed_calls
    assert fallback == [len(a)]


@pytest.mark.parametrize("shape, make, solve", [
    pytest.param(None, _hermitian(225, 59, False), _solve, id="hermitian_eigenvalues-evd-real"),
    pytest.param(None, _hermitian(225, 59), _solve, id="hermitian_eigenvalues-evd-complex"),
    pytest.param(None, _hermitian(TWO_STAGE_MIN_N, 41), _solve, id="hermitian_eigenvalues-two-stage"),
    pytest.param(BipartiteShape(3, 4), _wishart(12, 20, 2), _solve, id="pt_eigenvalues-evd"),
    pytest.param(BipartiteShape(3, 4), _wishart(12, 20, 2), _extremes, id="pt_extreme_eigenvalues-evd"),
])
def test_refuses_bad_input_before_the_solver(routines, shape, make, solve):
    a = make()
    bad = a.copy()
    bad[3, 5] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        solve(bad, shape)
    bad = a.copy()
    bad[3, 5] += 1.0
    with pytest.raises(NumericError, match="self-adjoint"):
        solve(bad, shape)
    if shape is not None:
        with pytest.raises(ShapeError):
            solve(a, BipartiteShape(3, 3))
    assert routines.calls == []


def _ends_of_a_copy(a):
    # the one block of a 1 x n shape transposes to a^T = conj(a), whose ends are a's
    return np.array(pt_extreme_eigenvalues(a.copy(), BipartiteShape(1, len(a))))


@pytest.mark.parametrize("complex_field, n, seed, count, split, repeats, reduction, solve", [
    pytest.param(False, 225, 61, 4, 2, 3, "dsytrd", hermitian_eigenvalues, id="hermitian_eigenvalues-evd-real"),
    pytest.param(True, 225, 61, 4, 2, 3, "zhetrd", hermitian_eigenvalues, id="hermitian_eigenvalues-evd-complex"),
    pytest.param(True, TWO_STAGE_MIN_N, 43, 2, 3, 2, "zhetrd_2stage", hermitian_eigenvalues,
                 id="hermitian_eigenvalues-two-stage"),
    pytest.param(True, TWO_STAGE_MIN_N, 43, 2, 3, 2, "zhetrd_he2hb", _ends_of_a_copy,
                 id="pt_extreme_eigenvalues-band"),
])
def test_concurrent_calls_match_serial(routines, complex_field, n, seed, count, split, repeats, reduction, solve):
    # ctypes releases the GIL, so pool workers run their solves at the same
    # time, as trial workers do, with the BLAS threads split among them
    routines.need(reduction, *(BAND_ENDS if reduction == "zhetrd_he2hb" else ALL_VALUES))
    rng = np.random.default_rng(seed)
    matrices = [random_hermitian(n, rng, complex_field) for _ in range(count)]
    with _blas.split(split):
        serial = [solve(a) for a in matrices]
        with ThreadPoolExecutor(max_workers=3) as pool:
            concurrent = list(pool.map(solve, matrices * repeats, timeout=300))
    assert [call.routine for call in routines.reductions] == [reduction] * (count * (1 + repeats))
    for vals, expected in zip(concurrent, serial * repeats):
        np.testing.assert_array_equal(vals, expected)
