"""The ctypes binding to the LAPACK in numpy's OpenBLAS, checked against
numpy's own linalg, and the promise that a verdict never imports scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jobsignal import _lapack

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


class TestPotrf:
    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_matches_numpy_cholesky(self, rng, n):
        spd = spd_matrix(rng, n)
        buf = np.array(spd, order="F")
        assert _lapack.potrf(buf) == 0
        assert max_rel(np.tril(buf), np.linalg.cholesky(spd)) <= 1e-12
        # The strict upper triangle is left as it was.
        assert np.array_equal(np.triu(buf, 1), np.triu(spd, 1))

    def test_indefinite_matrix_reports_failing_minor(self, rng):
        spd = spd_matrix(rng, 6)
        spd[3, 3] = -100.0
        assert _lapack.potrf(np.asfortranarray(spd)) == 4

    def test_rejects_c_ordered_buffer(self, rng):
        with pytest.raises(ValueError, match="Fortran order"):
            _lapack.potrf(np.ascontiguousarray(spd_matrix(rng, 3)))


class TestTrtri:
    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_matches_numpy_inverse(self, rng, n):
        buf, factor = lower_factor(rng, n)
        upper = np.triu(buf, 1)
        assert _lapack.trtri(buf) == 0
        assert max_rel(np.tril(buf), np.linalg.inv(factor)) <= 1e-12
        assert np.array_equal(np.triu(buf, 1), upper)

    def test_zero_on_the_diagonal_reports_its_position(self, rng):
        buf, _ = lower_factor(rng, 5)
        buf[2, 2] = 0.0
        assert _lapack.trtri(buf) == 3


class TestSolveTriangular:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("rhs_shape", [(7,), (7, 3)])
    def test_matches_numpy_solve(self, rng, order, trans, lower, rhs_shape):
        buf, factor = lower_factor(rng, 7)
        a, triangle = (buf, factor) if lower else (buf.T, factor.T)
        a = np.array(a, order=order)
        b = rng.normal(size=rhs_shape)
        b_before = b.copy()
        x = _lapack.solve_triangular(a, b, lower=lower, trans=trans)
        expected = np.linalg.solve(triangle.T if trans else triangle, b)
        assert x.shape == b.shape
        assert max_rel(x, expected) <= 1e-12
        assert np.array_equal(b, b_before)

    @pytest.mark.parametrize("rhs_shape", [(6,), (6, 4)])
    def test_overwrite_b_solves_in_place(self, rng, rhs_shape):
        buf, factor = lower_factor(rng, 6)
        b = np.asfortranarray(rng.normal(size=rhs_shape))
        expected = np.linalg.solve(factor, b)
        x = _lapack.solve_triangular(buf, b, lower=True, overwrite_b=True)
        assert x is b
        assert max_rel(b, expected) <= 1e-12

    def test_overwrite_b_copies_a_c_ordered_matrix(self, rng):
        buf, factor = lower_factor(rng, 6)
        b = rng.normal(size=(6, 4))
        b_before = b.copy()
        x = _lapack.solve_triangular(buf, b, lower=True, overwrite_b=True)
        assert max_rel(x, np.linalg.solve(factor, b_before)) <= 1e-12
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


class TestBlasThreads:
    def test_pinned_to_one_thread(self):
        # conftest pins OPENBLAS_NUM_THREADS=1 before numpy loads OpenBLAS.
        assert _lapack.blas_threads() == 1

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS caps its threads at the CPUs"
    )
    def test_follows_openblas_num_threads(self):
        code = "from jobsignal import _lapack\nprint(_lapack.blas_threads())\n"
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="2")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2"


def test_missing_symbol_is_import_error():
    class Handle:
        """A library handle that exports nothing, as ctypes.CDLL reports it."""

        def __getattr__(self, name):
            raise AttributeError(name)

    with pytest.raises(ImportError, match="scipy_dpotrf_64_") as excinfo:
        _lapack._resolve(Handle(), "scipy_dpotrf_64_", 5, 1)
    assert "PyPI numpy wheels for Linux" in str(excinfo.value)


def test_cold_start_imports_no_scipy():
    code = (
        "import sys\n"
        "import jobsignal.cli\n"
        "from jobsignal import gpr\n"
        "gpr.fit(gpr.TrainingSet(inputs=[[0.0], [1.0], [2.0]], targets=[0.0, 1.0, 0.0]),\n"
        "        gpr.BasisExpansion(gpr.CONST), gpr.Kernel(sigma_sq=1.0, theta=[1.0]))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
