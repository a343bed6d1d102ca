"""The three LAPACK routines jobsignal needs, called in numpy's own OpenBLAS.

The PyPI numpy wheels for Linux bundle scipy-openblas64, an ILP64 OpenBLAS
whose LAPACK symbols carry a scipy_ prefix and a 64_ suffix; numpy's linalg
extension links against it, so a handle on that extension resolves them.
Every factorization and triangular solve then runs in the library numpy's
own qr runs in, and importing jobsignal imports no scipy. A numpy build
without these symbols fails the import with ImportError; there is no
fallback.

Arguments go by reference with 64-bit integers, and the hidden length of
each character argument follows them, as gfortran passes it. Callers hand
in finite operands: nothing here scans for NaN or inf.
"""

from __future__ import annotations

import ctypes

import numpy as np
from numpy.linalg import _umath_linalg

_INT = ctypes.c_int64


def _resolve(handle, name: str, n_args: int, n_chars: int):
    """The routine name in handle, typed as n_args pointers and n_chars
    hidden lengths; ImportError naming it when handle lacks it."""
    try:
        routine = getattr(handle, name)
    except AttributeError:
        raise ImportError(
            f"numpy's LAPACK does not export {name}: jobsignal needs a numpy build "
            f"that bundles scipy-openblas64, such as the PyPI numpy wheels for Linux"
        ) from None
    routine.argtypes = [ctypes.c_void_p] * n_args + [ctypes.c_size_t] * n_chars
    routine.restype = None
    return routine


_lib = ctypes.CDLL(_umath_linalg.__file__)
_dpotrf = _resolve(_lib, "scipy_dpotrf_64_", 5, 1)
_dtrtrs = _resolve(_lib, "scipy_dtrtrs_64_", 10, 3)
_dtrtri = _resolve(_lib, "scipy_dtrtri_64_", 6, 2)

_L, _U, _N, _T = (ctypes.c_char_p(flag) for flag in (b"L", b"U", b"N", b"T"))


def _ref(value: int):
    return ctypes.byref(_INT(value))


def _order(a: np.ndarray) -> int:
    """The order of a, which must be a writable square float64 matrix in
    Fortran order."""
    if not (
        a.dtype == np.float64
        and a.ndim == 2
        and a.shape[0] == a.shape[1]
        and a.flags.f_contiguous
        and a.flags.writeable
    ):
        raise ValueError("expected a writable square float64 matrix in Fortran order")
    return a.shape[0]


def potrf(a: np.ndarray) -> int:
    """Overwrite the lower triangle of a with its Cholesky factor (dpotrf).

    The strict upper triangle is left as it is. Returns LAPACK's info: 0 on
    success, k > 0 when the leading minor of order k is not positive
    definite, -k when argument k was rejected.
    """
    n = _order(a)
    info = _INT(0)
    _dpotrf(_L, _ref(n), a.ctypes.data, _ref(max(n, 1)), ctypes.byref(info), 1)
    return info.value


def trtri(a: np.ndarray) -> int:
    """Overwrite the lower-triangular a with its inverse (dtrtri).

    The strict upper triangle is left as it is. Returns LAPACK's info: 0 on
    success, k > 0 when a[k-1, k-1] is exactly zero.
    """
    n = _order(a)
    info = _INT(0)
    _dtrtri(_L, _N, _ref(n), a.ctypes.data, _ref(max(n, 1)), ctypes.byref(info), 1, 1)
    return info.value


def solve_triangular(
    a: np.ndarray, b: np.ndarray, *, lower: bool, trans: bool = False, overwrite_b: bool = False
) -> np.ndarray:
    """x with a x = b, or a' x = b when trans is set (dtrtrs); b is a vector
    or a matrix with one right-hand side per column.

    Only the triangle that lower selects is read. A C-ordered a is solved
    as its Fortran-ordered transpose with the other triangle and the
    opposite trans, so a transposed factor needs no copy. With overwrite_b
    a writable Fortran-ordered float64 b is solved in place and returned.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not a.flags.f_contiguous:
        if a.flags.c_contiguous:
            a, lower, trans = a.T, not lower, not trans
        else:
            a = np.asfortranarray(a)
    in_place = (
        overwrite_b
        and isinstance(b, np.ndarray)
        and b.dtype == np.float64
        and b.flags.f_contiguous
        and b.flags.writeable
    )
    x = b if in_place else np.array(b, dtype=np.float64, order="F")
    n = a.shape[0]
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"right-hand side of shape {x.shape} does not match a {n} x {n} matrix")
    nrhs, ld = (1 if x.ndim == 1 else x.shape[1]), max(n, 1)
    info = _INT(0)
    _dtrtrs(
        _L if lower else _U, _T if trans else _N, _N, _ref(n), _ref(nrhs),
        a.ctypes.data, _ref(ld), x.ctypes.data, _ref(ld), ctypes.byref(info), 1, 1, 1,
    )
    if info.value > 0:
        raise np.linalg.LinAlgError(f"singular triangular matrix: zero at diagonal {info.value}")
    if info.value < 0:
        raise ValueError(f"dtrtrs rejected argument {-info.value}")
    return x
