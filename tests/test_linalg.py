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
from ptwishart.linalg import (
    _HERMITICITY_TILE,
    HERMITICITY_RTOL,
    TWO_STAGE_MIN_N,
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


def _two_stage_reduction():
    reduce = _blas.zhetrd_2stage()
    if reduce is None:
        pytest.skip("the loaded OpenBLAS exports no zhetrd_2stage")
    return reduce


def _one_stage_reduction(complex_field):
    reduce = _blas.hetrd(complex_field)
    if reduce is None:
        pytest.skip("numpy's OpenBLAS exports no 64-bit LAPACKE_zhetrd/LAPACKE_dsytrd")
    return reduce


def _band_route():
    """The first-stage reduction to a band; skip where the OpenBLAS lacks it or zpbtrf."""
    reduce = _blas.zhetrd_he2hb()
    if reduce is None or _blas.zpbtrf() is None:
        pytest.skip("numpy's OpenBLAS exports no zhetrd_he2hb/zpbtrf")
    return reduce


def _spy(monkeypatch, complex_field=True, lookups=("zhetrd_2stage",)):
    """Count, by n, the calls that reach the reductions the `_blas` lookups
    return for the field; skip when the OpenBLAS lacks one."""
    calls = []
    for lookup in lookups:
        reduce = {"hetrd": lambda: _one_stage_reduction(complex_field), "zhetrd_2stage": _two_stage_reduction,
                  "zhetrd_he2hb": _band_route}[lookup]()

        def spy(*args, reduce=reduce):
            calls.append(args[2])
            return reduce(*args)

        monkeypatch.setattr(_blas, lookup, lambda *field, spy=spy: spy)
    return calls


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 9, 225, TWO_STAGE_MIN_N - 1])
def test_evd_eigenvalues_equal_eigvalsh_bitwise(monkeypatch, n, complex_field):
    calls = _spy(monkeypatch, complex_field, ("hetrd",))
    rng = np.random.default_rng(47)
    a = random_hermitian(n, rng, complex_field)
    # C-ordered, F-ordered, and a strided view of a larger Hermitian matrix
    inputs = [a, np.asfortranarray(a), random_hermitian(2 * n, rng, complex_field)[::2, ::2]]
    for x in inputs:
        before = x.copy()
        vals = hermitian_eigenvalues(x)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_array_equal(vals, np.linalg.eigvalsh(x))
    assert calls == [n] * len(inputs)


@pytest.mark.parametrize("ends", [False, True], ids=["all", "ends"])
@pytest.mark.parametrize("lookup, n", [("hetrd", 2), ("hetrd", 9), ("hetrd", 225), ("zhetrd_2stage", 9),
                                       ("zhetrd_2stage", TWO_STAGE_MIN_N)])
def test_solvers_give_a_matrix_and_its_conjugate_the_same_bits(lookup, n, ends):
    # linalg hands a reduction each matrix in the memory order it has, on this
    # assumption: LAPACK reads a C-ordered buffer as its transpose, which for
    # the self-adjoint x is conj(x), in the lower triangle, which every route
    # reads; and every finish gives the two the same bits (with the ends at
    # TWO_STAGE_MIN_N, the band's bisection)
    two_stage = lookup == "zhetrd_2stage"
    _two_stage_reduction() if two_stage else _one_stage_reduction(True)
    if two_stage and ends:
        _band_route()
    x = random_hermitian(n, np.random.default_rng(n))
    assert np.array_equal(x, x.conj().T)
    scale = _hermitian_scale(x)
    column_major = _blas.eigenvalues(np.asfortranarray(x), scale, two_stage, ends)
    conjugate = _blas.eigenvalues(np.ascontiguousarray(x), scale, two_stage, ends)
    assert column_major.tobytes() == conjugate.tobytes()


# the routine each size and field reaches, as numpy's OpenBLAS names it:
# LAPACKE_<routine> is scipy_LAPACKE_<routine>64_, the Fortran zhetrd_2stage
# scipy_zhetrd_2stage_64_ and zhetrd_he2hb scipy_zhetrd_he2hb_64_
ROUTINE_NAMES = {"zhetrd_2stage": "scipy_zhetrd_2stage_64_", "zhetrd": "scipy_LAPACKE_zhetrd64_",
                 "dsytrd": "scipy_LAPACKE_dsytrd64_", "zhetrd_he2hb": "scipy_zhetrd_he2hb_64_"}
REDUCTIONS = ("hetrd", "zhetrd_2stage", "zhetrd_he2hb")
# the argument each finish's record keeps: dsterf's n, dstebz's il, zpbtrf's n
FINISH_ARGUMENT = {"dsterf": 0, "dstebz": 5, "zpbtrf": 1}
LOOKUPS = REDUCTIONS + tuple(FINISH_ARGUMENT)
# zpbtrf calls of one band bisection: its Gershgorin interval is at most
# 2 max(|gl|, |gu|) wide, each step halves it up to half a unit in the last
# place of max(|gl|, |gu|), and it stops below 2 eps max(|gl|, |gu|)
BISECTION_STEPS = 53


def routine_spy(monkeypatch, complex_field=True):
    """Record each call that reaches the routines the six `_blas` lookups
    return: (name, uplo, n) for a reduction, ("dsterf", n) and ("dstebz", il)
    for a finish on the tridiagonal matrix, ("zpbtrf", n) for a step of the
    band bisection; skip where the OpenBLAS lacks the one-stage route."""
    _one_stage_reduction(complex_field)
    if _blas.dsterf() is None or _blas.dstebz() is None:
        pytest.skip("numpy's OpenBLAS exports no 64-bit LAPACKE_dsterf/LAPACKE_dstebz")
    seen = []
    for lookup in LOOKUPS:
        def spying(*field, find=getattr(_blas, lookup), lookup=lookup):
            routine = find(*field)
            if routine is None:
                return None

            def spy(*args):
                if lookup in REDUCTIONS:
                    seen.append((routine.__name__, args[1], args[2]))
                else:
                    seen.append((lookup, args[FINISH_ARGUMENT[lookup]]))
                return routine(*args)
            spy.__name__ = routine.__name__
            return spy

        monkeypatch.setattr(_blas, lookup, spying)
    return seen


def _solves(seen):
    """The calls routine_spy saw, one (reduction, [finish calls]) pair per eigensolve."""
    solves = []
    for call in seen:
        if len(call) == 3:
            solves.append((call, []))
        else:
            solves[-1][1].append(call)
    return solves


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
def test_each_size_and_field_reaches_its_reduction_on_the_lower_triangle(monkeypatch, complex_field, n, routine):
    seen = routine_spy(monkeypatch, complex_field)
    if routine == "zhetrd_2stage":
        _two_stage_reduction()
        _band_route()
    a = random_hermitian(n, np.random.default_rng(n), complex_field)
    hermitian_eigenvalues(a)
    pt_eigenvalues(a.copy(), BipartiteShape(1, n))
    pt_extreme_eigenvalues(a, BipartiteShape(1, n))
    reduction = (ROUTINE_NAMES[routine], b"L", n)
    # all n values: one reduction, then dsterf
    assert seen[:4] == [reduction, ("dsterf", n)] * 2
    (ends_reduction, finish), = _solves(seen[4:])
    if routine == "zhetrd_2stage":
        # the ends from the two-stage size on: the first stage alone, to a band,
        # then zpbtrf for each step of the two bisections
        assert ends_reduction == (ROUTINE_NAMES["zhetrd_he2hb"], b"L", n)
        _assert_band_bisection(finish, n)
    else:
        # the ends below it: one reduction, then dstebz for the smallest (il = 1)
        # and for the largest (il = n)
        assert (ends_reduction, finish) == (reduction, [("dstebz", 1), ("dstebz", n)])


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
def test_each_trial_reaches_one_reduction_and_its_finish(monkeypatch, subcommand, runner, ensemble, field, d1, d2):
    # spectrum reads all n eigenvalues, extremes and ppt only the two ends; at
    # n = TWO_STAGE_MIN_N the ends come from the band
    seen = routine_spy(monkeypatch, field == "complex")
    n = d1 * d2
    two_stage = field == "complex" and n >= TWO_STAGE_MIN_N
    if two_stage:
        _two_stage_reduction()
        _band_route()
    alphas = {"alphas": (2.0, 8.0), "alpha": None} if subcommand == "ppt" else {"alpha": 4.0}
    config = ExperimentConfig(subcommand=subcommand, ensemble=ensemble, field=field, d1=d1, d2=d2, trials=2,
                              master_seed=5, **alphas)
    getattr(experiments, runner)(config)
    solves = _solves(seen)
    assert len(solves) == (4 if subcommand == "ppt" else 2)
    for reduction, finish in solves:
        if subcommand == "spectrum":
            name = "zhetrd_2stage" if two_stage else "zhetrd" if field == "complex" else "dsytrd"
            assert (reduction, finish) == ((ROUTINE_NAMES[name], b"L", n), [("dsterf", n)])
        elif two_stage:
            assert reduction == (ROUTINE_NAMES["zhetrd_he2hb"], b"L", n)
            _assert_band_bisection(finish, n)
        else:
            name = "zhetrd" if field == "complex" else "dsytrd"
            assert (reduction, finish) == ((ROUTINE_NAMES[name], b"L", n), [("dstebz", 1), ("dstebz", n)])


def test_two_stage_eigenvalues_agree_with_eigvalsh(monkeypatch):
    calls = _spy(monkeypatch)
    d = isqrt(TWO_STAGE_MIN_N - 1) + 1
    shape = BipartiteShape(d, d)
    a = partial_transpose(sample_wishart(WishartParams(n=shape.n, alpha=4.0), SampleStream(31, 0)), shape)
    before = a.copy()
    vals = hermitian_eigenvalues(a)
    assert calls == [shape.n]
    assert np.array_equal(a, before)
    expected = np.linalg.eigvalsh(a)
    assert np.max(np.abs(vals - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.all(np.diff(vals) >= 0)
    # a.T, the conjugate of a, is copied in its F order, which the solver reads as
    # it reads a's C order: the same bytes
    assert hermitian_eigenvalues(a.T).tobytes() == vals.tobytes()
    assert calls == [shape.n, shape.n]


# Each eigensolver route's fallback, refusal and concurrency checks, one row
# per (entry point, route).  A row's shape is None for hermitian_eigenvalues
# and the bipartite shape for pt_eigenvalues, which consumes its input.


def _solve(a, shape):
    return hermitian_eigenvalues(a) if shape is None else pt_eigenvalues(a, shape)


def _hermitian(n, seed, complex_field=True):
    return lambda: random_hermitian(n, np.random.default_rng(seed), complex_field)


def _wishart(n, p, index):
    return lambda: sample_wishart(WishartParams(n=n, p=p), SampleStream(9, index))


BOTH_REDUCTIONS = ("hetrd", "zhetrd_2stage")


def _extremes(a, shape):
    return np.array(pt_extreme_eigenvalues(a, shape))


@pytest.mark.parametrize("shape, make, missing, solve", [
    pytest.param(None, _hermitian(225, 53, False), ("hetrd",), _solve, id="hermitian_eigenvalues-evd-real"),
    pytest.param(None, _hermitian(225, 53), ("hetrd",), _solve, id="hermitian_eigenvalues-evd-complex"),
    pytest.param(None, _hermitian(TWO_STAGE_MIN_N, 37), ("zhetrd_2stage",), _solve,
                 id="hermitian_eigenvalues-two-stage"),
    pytest.param(None, _hermitian(225, 53), ("dsterf",), _solve, id="hermitian_eigenvalues-no-dsterf"),
    pytest.param(BipartiteShape(16, 16), _wishart(256, 1024, 3), BOTH_REDUCTIONS, _solve,
                 id="pt_eigenvalues-no-solver"),
    pytest.param(BipartiteShape(16, 16), _wishart(256, 1024, 3), BOTH_REDUCTIONS, _extremes,
                 id="pt_extreme_eigenvalues-no-solver"),
    pytest.param(BipartiteShape(16, 16), _wishart(256, 1024, 3), ("dstebz",), _extremes,
                 id="pt_extreme_eigenvalues-no-dstebz"),
    pytest.param(BipartiteShape(20, 20), _wishart(400, 1600, 4), ("zhetrd_he2hb",), _extremes,
                 id="pt_extreme_eigenvalues-no-he2hb"),
    pytest.param(BipartiteShape(20, 20), _wishart(400, 1600, 4), ("zpbtrf",), _extremes,
                 id="pt_extreme_eigenvalues-no-zpbtrf"),
])
def test_falls_back_without_the_symbol(monkeypatch, shape, make, missing, solve):
    for lookup in missing:
        monkeypatch.setattr(_blas, lookup, lambda *complex_field: None)
    fallback = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: fallback.append(len(a)) or eigvalsh(a))
    a = make()
    expected = eigvalsh(a if shape is None else partial_transpose(a, shape))
    got = solve(a, shape)
    np.testing.assert_array_equal(got, expected if len(got) == len(a) else expected[[0, -1]])
    # without the two-stage symbol alone hetrd reduces; with no route left, eigvalsh
    routes = missing == ("zhetrd_2stage",) and _blas.hetrd(np.iscomplexobj(a)) and _blas.dsterf()
    assert fallback == ([] if routes else [len(a)])


@pytest.mark.parametrize("shape, make, lookups, solve", [
    pytest.param(None, _hermitian(225, 59, False), ("hetrd",), _solve, id="hermitian_eigenvalues-evd-real"),
    pytest.param(None, _hermitian(225, 59), ("hetrd",), _solve, id="hermitian_eigenvalues-evd-complex"),
    pytest.param(None, _hermitian(TWO_STAGE_MIN_N, 41), ("zhetrd_2stage",), _solve,
                 id="hermitian_eigenvalues-two-stage"),
    pytest.param(BipartiteShape(3, 4), _wishart(12, 20, 2), BOTH_REDUCTIONS, _solve, id="pt_eigenvalues-evd"),
    pytest.param(BipartiteShape(3, 4), _wishart(12, 20, 2), BOTH_REDUCTIONS, _extremes,
                 id="pt_extreme_eigenvalues-evd"),
])
def test_refuses_bad_input_before_the_solver(monkeypatch, shape, make, lookups, solve):
    a = make()
    calls = _spy(monkeypatch, np.iscomplexobj(a), lookups)
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
    assert calls == []


def _ends_of_a_copy(a):
    # the one block of a 1 x n shape transposes to a^T = conj(a), whose ends are a's
    return np.array(pt_extreme_eigenvalues(a.copy(), BipartiteShape(1, len(a))))


@pytest.mark.parametrize("complex_field, n, seed, count, split, repeats, lookup, solve", [
    pytest.param(False, 225, 61, 4, 2, 3, "hetrd", hermitian_eigenvalues, id="hermitian_eigenvalues-evd-real"),
    pytest.param(True, 225, 61, 4, 2, 3, "hetrd", hermitian_eigenvalues, id="hermitian_eigenvalues-evd-complex"),
    pytest.param(True, TWO_STAGE_MIN_N, 43, 2, 3, 2, "zhetrd_2stage", hermitian_eigenvalues,
                 id="hermitian_eigenvalues-two-stage"),
    pytest.param(True, TWO_STAGE_MIN_N, 43, 2, 3, 2, "zhetrd_he2hb", _ends_of_a_copy,
                 id="pt_extreme_eigenvalues-band"),
])
def test_concurrent_calls_match_serial(monkeypatch, complex_field, n, seed, count, split, repeats, lookup, solve):
    # ctypes releases the GIL, so pool workers run their solves at the same
    # time, as trial workers do, with the BLAS threads split among them
    calls = _spy(monkeypatch, complex_field, (lookup,))
    rng = np.random.default_rng(seed)
    matrices = [random_hermitian(n, rng, complex_field) for _ in range(count)]
    with _blas.split(split):
        serial = [solve(a) for a in matrices]
        with ThreadPoolExecutor(max_workers=3) as pool:
            concurrent = list(pool.map(solve, matrices * repeats, timeout=300))
    assert len(calls) == count * (1 + repeats)
    for vals, expected in zip(concurrent, serial * repeats):
        np.testing.assert_array_equal(vals, expected)
