"""The ctypes binding to the LAPACK in numpy's OpenBLAS, checked against
numpy's own linalg, and the promise that a verdict never imports scipy or
a thread pool."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jobsignal import _lapack
from oracle_gpr import pack, unpack

SRC = Path(__file__).resolve().parent.parent / "src"


def spd_matrix(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def lower_factor(rng, n):
    """A well-conditioned lower-triangular matrix in Fortran order whose
    strict upper triangle holds garbage the routines must not read."""
    factor = np.tril(rng.normal(size=(n, n)), -1) + np.diag(rng.uniform(1.0, 2.0, size=n))
    garbage = np.triu(rng.normal(size=(n, n)), 1)
    return np.asfortranarray(factor + garbage), factor


def max_rel(got, expected):
    return np.abs(got - expected).max() / np.abs(expected).max()


# Odd and even orders lay the packed triangle out differently.
ORDERS = [1, 2, 3, 5, 40, 41]


class TestPftrf:
    @pytest.mark.parametrize("n", ORDERS)
    def test_matches_numpy_cholesky(self, rng, n):
        spd = spd_matrix(rng, n)
        packed = pack(spd)
        assert _lapack.pftrf(packed) == 0
        assert max_rel(unpack(packed), np.linalg.cholesky(spd)) <= 1e-12

    @pytest.mark.parametrize("n", [6, 7])
    def test_indefinite_matrix_reports_failing_minor(self, rng, n):
        spd = spd_matrix(rng, n)
        spd[3, 3] = -100.0
        assert _lapack.pftrf(pack(spd)) == 4

    def test_rejects_a_buffer_that_is_not_a_packed_triangle(self, rng):
        with pytest.raises(ValueError, match="contiguous float64 vector"):
            _lapack.pftrf(np.asfortranarray(spd_matrix(rng, 3)))
        with pytest.raises(ValueError, match="7 entries do not pack a triangle"):
            _lapack.pftrf(np.ones(7))


class TestTftri:
    @pytest.mark.parametrize("n", ORDERS)
    def test_matches_numpy_inverse(self, rng, n):
        _, factor = lower_factor(rng, n)
        packed = pack(factor)
        assert _lapack.tftri(packed) == 0
        assert max_rel(unpack(packed), np.linalg.inv(factor)) <= 1e-12

    def test_zero_on_the_diagonal_reports_its_position(self, rng):
        _, factor = lower_factor(rng, 5)
        factor[2, 2] = 0.0
        assert _lapack.tftri(pack(factor)) == 3


class TestTfsm:
    @pytest.mark.parametrize("n", ORDERS)
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("nrhs", [None, 1, 4])
    def test_matches_numpy_solve(self, rng, n, trans, nrhs):
        _, factor = lower_factor(rng, n)
        b = rng.normal(size=(n,) if nrhs is None else (n, nrhs))
        x = np.array(b, order="F")
        assert _lapack.tfsm(pack(factor), x, trans=trans) is x
        expected = np.linalg.solve(factor.T if trans else factor, b)
        assert max_rel(x, expected) <= 1e-12

    def test_rejects_a_c_ordered_matrix(self, rng):
        _, factor = lower_factor(rng, 4)
        with pytest.raises(ValueError, match="Fortran order"):
            _lapack.tfsm(pack(factor), np.ones((4, 3)))

    def test_shape_mismatch(self, rng):
        _, factor = lower_factor(rng, 4)
        with pytest.raises(ValueError, match="does not match"):
            _lapack.tfsm(pack(factor), np.ones(5))


class TestSolveTriangular:
    # "strided": every other row and column of a larger array, neither C-
    # nor Fortran-contiguous, which the binding copies.
    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("rhs_shape", [(7,), (7, 3)])
    def test_matches_numpy_solve(self, rng, order, trans, lower, rhs_shape):
        buf, factor = lower_factor(rng, 7)
        a, triangle = (buf, factor) if lower else (buf.T, factor.T)
        if order == "strided":
            spread = np.zeros((14, 14))
            spread[::2, ::2] = a
            a = spread[::2, ::2]
        else:
            a = np.array(a, order=order)
        b = rng.normal(size=rhs_shape)
        b_before = b.copy()
        x = _lapack.solve_triangular(a, b, lower=lower, trans=trans)
        expected = np.linalg.solve(triangle.T if trans else triangle, b)
        assert x.shape == b.shape
        assert max_rel(x, expected) <= 1e-12
        assert np.array_equal(b, b_before)

    def test_zero_on_the_diagonal_is_singular(self, rng):
        buf, _ = lower_factor(rng, 4)
        buf[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
            _lapack.solve_triangular(buf, np.ones(4), lower=True)

    def test_shape_mismatch(self, rng):
        buf, _ = lower_factor(rng, 4)
        with pytest.raises(ValueError, match="does not match"):
            _lapack.solve_triangular(buf, np.ones(5), lower=True)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(4, 3\)"):
            _lapack.solve_triangular(np.ones((4, 3)), np.ones(4), lower=True)


class TestGeqrf:
    @pytest.mark.parametrize(
        "a", [np.ones((4, 3)), np.ones((3, 4), order="F")], ids=["c-ordered", "wider-than-tall"]
    )
    def test_rejects_a_matrix_lapack_cannot_read_by_columns(self, a):
        with pytest.raises(ValueError, match="not wider than tall, by columns"):
            _lapack.geqrf(a)



class TestScaleRows:
    def test_matches_the_numpy_product_bit_for_bit(self, rng):
        # A block of a larger column-major buffer, as the low-rank cells
        # scale it; the rows and columns around it are left alone.
        buf = np.asfortranarray(rng.standard_normal((9, 5)))
        before = buf.copy()
        r = rng.uniform(0.5, 2e3, 6)
        assert _lapack.scale_rows(buf[1:7, :3], r) is not None
        expected = before.copy()
        expected[1:7, :3] = before[1:7, :3] * r[:, None]
        assert np.array_equal(buf, expected)

    def test_rejects_row_factors_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="vector of 4 row factors"):
            _lapack.scale_rows(np.ones((4, 2), order="F"), np.ones(3))

def test_missing_symbol_is_import_error():
    class Handle:
        """A library handle that exports nothing, as ctypes.CDLL reports it."""

        def __getattr__(self, name):
            raise AttributeError(name)

    with pytest.raises(ImportError, match="scipy_dpftrf_64_") as excinfo:
        _lapack._resolve(Handle(), "scipy_dpftrf_64_", 5, 2)
    assert "PyPI numpy wheels for Linux" in str(excinfo.value)


def test_cold_start_imports_no_scipy():
    # Neither scipy nor concurrent.futures: the search runs on the calling
    # thread, and importing the thread pool cost about 4 ms of cold start.
    code = (
        "import sys\n"
        "import jobsignal.cli\n"
        "from jobsignal import gpr\n"
        "gpr.fit(gpr.TrainingSet(inputs=[[0.0], [1.0], [2.0]], targets=[0.0, 1.0, 0.0]),\n"
        "        gpr.BasisExpansion(gpr.CONST), gpr.Kernel(sigma_sq=1.0, theta=[1.0]))\n"
        "roots = ('scipy', 'concurrent')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in roots))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
