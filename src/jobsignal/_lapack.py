"""The seven LAPACK routines jobsignal needs, called in numpy's own OpenBLAS.

A dense covariance factor is held in rectangular full packed format
(Gustavson, Wasniewski, Dongarra & Langou 2010, ACM TOMS 37(2)): an n x n
triangle in n(n+1)/2 doubles, which dpftrf factorizes, dtftri inverts and
dtfsm solves against with level-3 BLAS. Only the lower triangle with
TRANSR='N' is bound; jobsignal.gpr lays it out. dtrtrs solves with the
small dense trend factor. dgeqrf and dorgqr give the QR of a tall block of
a column-major work buffer in place, for the low-rank factor, and dlaqge
scales the rows of such a block.

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
import math

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
_dpftrf = _resolve(_lib, "scipy_dpftrf_64_", 5, 2)
_dtfsm = _resolve(_lib, "scipy_dtfsm_64_", 11, 5)
_dtftri = _resolve(_lib, "scipy_dtftri_64_", 6, 3)
_dtrtrs = _resolve(_lib, "scipy_dtrtrs_64_", 10, 3)
_dgeqrf = _resolve(_lib, "scipy_dgeqrf_64_", 8, 0)
_dorgqr = _resolve(_lib, "scipy_dorgqr_64_", 9, 0)
_dlaqge = _resolve(_lib, "scipy_dlaqge_64_", 10, 1)

_L, _U, _N, _T = (ctypes.c_char_p(flag) for flag in (b"L", b"U", b"N", b"T"))
_ONE = ctypes.c_double(1.0)


def _ref(value: int):
    return ctypes.byref(_INT(value))


def _packed_order(a: np.ndarray, *, writable: bool = True) -> int:
    """n for a, which must be a contiguous float64 vector of n(n+1)/2
    entries, an n x n triangle in rectangular full packed format, and
    writable if the routine overwrites it."""
    if not (
        a.dtype == np.float64
        and a.ndim == 1
        and a.flags.c_contiguous
        and (a.flags.writeable or not writable)
    ):
        raise ValueError("expected a writable contiguous float64 vector")
    n = (math.isqrt(8 * a.size + 1) - 1) // 2
    if n * (n + 1) // 2 != a.size:
        raise ValueError(f"{a.size} entries do not pack a triangle")
    return n


def pftrf(a: np.ndarray) -> int:
    """Overwrite a, the lower triangle of a symmetric matrix in rectangular
    full packed format (TRANSR='N'), with its Cholesky factor in that
    format (dpftrf).

    Returns LAPACK's info: 0 on success, k > 0 when the leading minor of
    order k is not positive definite.
    """
    n = _packed_order(a)
    info = _INT(0)
    _dpftrf(_N, _L, _ref(n), a.ctypes.data, ctypes.byref(info), 1, 1)
    return info.value


def tftri(a: np.ndarray) -> int:
    """Overwrite a, a lower-triangular matrix in rectangular full packed
    format (TRANSR='N'), with its inverse in that format (dtftri).

    Returns LAPACK's info: 0 on success, k > 0 when diagonal entry k is
    exactly zero.
    """
    n = _packed_order(a)
    info = _INT(0)
    _dtftri(_N, _L, _N, _ref(n), a.ctypes.data, ctypes.byref(info), 1, 1, 1)
    return info.value


def tfsm(a: np.ndarray, b: np.ndarray, *, trans: bool = False) -> np.ndarray:
    """Overwrite b with x, a x = b or a' x = b when trans is set, and return
    it (dtfsm); a is lower-triangular in rectangular full packed format
    (TRANSR='N'), b a writable Fortran-ordered float64 vector or matrix with
    one right-hand side per column.

    dtfsm has no info: a zero on a's diagonal gives inf or NaN, not an error.
    """
    n = _packed_order(a, writable=False)
    if not (
        isinstance(b, np.ndarray)
        and b.dtype == np.float64
        and b.ndim in (1, 2)
        and b.flags.f_contiguous
        and b.flags.writeable
    ):
        raise ValueError("expected a writable float64 right-hand side in Fortran order")
    if b.shape[0] != n:
        raise ValueError(f"right-hand side of shape {b.shape} does not match a {n} x {n} matrix")
    nrhs = 1 if b.ndim == 1 else b.shape[1]
    _dtfsm(
        _N, _L, _L, _T if trans else _N, _N, _ref(n), _ref(nrhs), ctypes.byref(_ONE),
        a.ctypes.data, b.ctypes.data, _ref(max(n, 1)), 1, 1, 1, 1, 1,
    )
    return b


def solve_triangular(
    a: np.ndarray, b: np.ndarray, *, lower: bool, trans: bool = False
) -> np.ndarray:
    """x with a x = b, or a' x = b when trans is set (dtrtrs); b is a vector
    or a matrix with one right-hand side per column.

    Only the triangle that lower selects is read. A C-ordered a is solved
    as its Fortran-ordered transpose with the other triangle and the
    opposite trans, so a transposed factor needs no copy.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not a.flags.f_contiguous:
        if a.flags.c_contiguous:
            a, lower, trans = a.T, not lower, not trans
        else:
            a = np.asfortranarray(a)
    x = np.array(b, dtype=np.float64, order="F")
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


def _leading_dimension(a: np.ndarray) -> int:
    """LAPACK's LDA for a, which must be a writable float64 matrix of at least
    as many rows as columns, each column contiguous: a Fortran-ordered array
    or a block of rows and columns of one."""
    if not (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.ndim == 2
        and a.flags.writeable
        and a.shape[0] >= a.shape[1]
        and a.strides[0] == a.itemsize
        and a.strides[1] % a.itemsize == 0
        and a.strides[1] >= a.itemsize * a.shape[0]
    ):
        raise ValueError("expected a writable float64 matrix, not wider than tall, by columns")
    return max(a.strides[1] // a.itemsize, 1)


def _with_workspace(routine, *args) -> int:
    """Call routine with args, then a workspace of the size it asks for (LWORK = -1
    first), then INFO; returns INFO."""
    info = _INT(0)
    query = np.empty(1)
    routine(*args, query.ctypes.data, _ref(-1), ctypes.byref(info))
    work = np.empty(max(int(query[0]), 1))
    routine(*args, work.ctypes.data, _ref(work.size), ctypes.byref(info))
    return info.value


def geqrf(a: np.ndarray) -> np.ndarray:
    """Overwrite a (see _leading_dimension) with its QR factorization (dgeqrf):
    R in its upper triangle and the Householder vectors below; returns their
    scalar factors tau, for orgqr."""
    lda = _leading_dimension(a)
    m, n = a.shape
    tau = np.empty(n)
    info = _with_workspace(_dgeqrf, _ref(m), _ref(n), a.ctypes.data, _ref(lda), tau.ctypes.data)
    if info < 0:
        raise ValueError(f"dgeqrf rejected argument {-info}")
    return tau


def orgqr(a: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Overwrite a, as geqrf left it, with the orthonormal columns of its Q
    (dorgqr), and return it."""
    lda = _leading_dimension(a)
    m, n = a.shape
    info = _with_workspace(
        _dorgqr, _ref(m), _ref(n), _ref(n), a.ctypes.data, _ref(lda), tau.ctypes.data
    )
    if info < 0:
        raise ValueError(f"dorgqr rejected argument {-info}")
    return a


def scale_rows(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Overwrite a (see _leading_dimension) with diag(r) a, and return it.

    dlaqge scales the rows alone, each entry by one product r_i * a_ij, the
    bits of numpy's a * r[:, None], when the row condition is below 0.1 and
    the column condition is not: here 0 and 1. Unlike that ufunc on a block
    of a larger buffer, it allocates no iteration buffers.
    """
    lda = _leading_dimension(a)
    m, n = a.shape
    if not (r.dtype == np.float64 and r.shape == (m,) and r.flags.c_contiguous):
        raise ValueError(f"expected a contiguous float64 vector of {m} row factors")
    equed = ctypes.create_string_buffer(1)
    _dlaqge(
        _ref(m), _ref(n), a.ctypes.data, _ref(lda), r.ctypes.data, r.ctypes.data,
        ctypes.byref(ctypes.c_double(0.0)), ctypes.byref(_ONE), ctypes.byref(_ONE), equed, 1,
    )
    return a
