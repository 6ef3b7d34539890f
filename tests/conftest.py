"""A spy on the eigensolver's LAPACK routines, for the tests of its routes."""

from ctypes import string_at
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest

from ptwishart import _blas

# each eigensolver routine by the symbol numpy's OpenBLAS exports: its short
# name and the positions among its arguments of uplo, n and the n x n matrix
# (None where it takes none); dstebz's record keeps il, its first index, as
# n.  ilaenv2stage is only hidden or needed: its calls are not recorded
ROUTINES = {
    "scipy_LAPACKE_dsytrd64_": ("dsytrd", 1, 2, 3),
    "scipy_LAPACKE_zhetrd64_": ("zhetrd", 1, 2, 3),
    "scipy_zhetrd_2stage_64_": ("zhetrd_2stage", 1, 2, 3),
    "scipy_zhetrd_he2hb_64_": ("zhetrd_he2hb", 0, 1, 3),
    "scipy_LAPACKE_dsterf64_": ("dsterf", None, 0, None),
    "scipy_LAPACKE_dstebz64_": ("dstebz", None, 5, None),
    "scipy_zpbtrf_64_": ("zpbtrf", 0, 1, None),
    "scipy_ilaenv2stage_64_": ("ilaenv2stage", None, 3, None),
}
SYMBOLS = {name: symbol for symbol, (name, *_) in ROUTINES.items()}


class Call(NamedTuple):
    """One call of an eigensolver routine.  For a reduction, matrix is the
    n x n buffer it was handed, read in C order and copied at the call, and
    address that buffer's address."""

    routine: str
    uplo: bytes | None
    n: int
    matrix: np.ndarray | None = None
    address: int | None = None


class RoutineSpy:
    """Every call of an eigensolver routine, in `calls`, recorded by wrapping
    what `_blas._function` finds; a routine named in `hidden` is exported
    nowhere, so its route falls back to eigvalsh."""

    def __init__(self, monkeypatch):
        self.calls, self.hidden, find = [], set(), _blas._function

        def lookup(symbol, restype, argtypes):
            if symbol not in ROUTINES:
                return find(symbol, restype, argtypes)
            fn = None if ROUTINES[symbol][0] in self.hidden else find(symbol, restype, argtypes)
            return None if fn is None else partial(self._record, ROUTINES[symbol], fn)

        monkeypatch.setattr(_blas, "_function", lookup)

    def _record(self, routine, fn, *args):
        name, uplo, n, matrix = routine
        if any(getattr(arg, "value", None) == -1 for arg in args):
            # a workspace query, or ilaenv2stage's unset arguments
            return fn(*args)
        # a Fortran routine's n is a c_int64, which ctypes passes by reference
        size = getattr(args[n], "value", args[n])
        uplo = None if uplo is None else args[uplo]
        if matrix is None:
            self.calls.append(Call(name, uplo, size))
        else:
            dtype = np.dtype(np.complex128 if name[0] == "z" else np.float64)
            buffer = string_at(args[matrix], size * size * dtype.itemsize)
            self.calls.append(Call(name, uplo, size, np.frombuffer(buffer, dtype).reshape(size, size),
                                   args[matrix]))
        return fn(*args)

    def need(self, *names):
        """Skip unless numpy's OpenBLAS exports each routine named, or with no
        names every routine of every route."""
        for name in names or SYMBOLS:
            if not any(hasattr(lib, SYMBOLS[name]) for lib in _blas._mapped()):
                pytest.skip(f"numpy's OpenBLAS exports no {SYMBOLS[name]}")

    @property
    def reductions(self) -> list[Call]:
        return [call for call in self.calls if call.matrix is not None]

    def solves(self) -> list[tuple[tuple, list[tuple]]]:
        """One ((reduction, n), [(finish, n), ...]) pair per eigensolve, each
        reduction on the lower triangle."""
        solves = []
        for call in self.calls:
            if call.matrix is not None:
                assert call.uplo == b"L"
                solves.append(((call.routine, call.n), []))
            else:
                solves[-1][1].append((call.routine, call.n))
        return solves


@pytest.fixture
def routines(monkeypatch):
    return RoutineSpy(monkeypatch)
