from __future__ import annotations

import os

# Before numpy loads OpenBLAS: the suite factorizes many small matrices, which
# lose to thread start-up and oversubscription on BLAS's default thread count
# (200 refits of a 200-row panel: 2.6 s on two threads, 0.29 s on one). An
# explicit OPENBLAS_NUM_THREADS still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from jobsignal import BasisExpansion, Kernel, TrainingSet, fit

# (criterion, passed, detail) tuples registered by test_acceptance.py.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_acceptance(criterion: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((criterion, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"{status}  {criterion}{suffix}")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def separated_inputs(rng, n, d, theta):
    """Random inputs with per-dimension spacing scaled to the correlation
    length, so the covariance stays comfortably well conditioned and both
    the library and the dense-inverse oracle are accurate to ~1e-10."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    columns = []
    for dim in range(d):
        spacing = 0.7 * np.sqrt(theta[dim])
        base = rng.permutation(n) * spacing
        columns.append(base + rng.uniform(0.0, 0.5 * spacing, size=n))
    return np.column_stack(columns)


def random_instance(rng, max_n=12, max_d=3, degree="const", jitter=1e-10):
    n = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    theta = rng.uniform(0.1, 10.0, size=d)
    inputs = separated_inputs(rng, n, d, theta)
    targets = rng.normal(0.0, 1.0, size=n)
    kernel = Kernel(sigma_sq=float(rng.uniform(0.5, 2.0)), theta=theta, jitter=jitter)
    return TrainingSet(inputs=inputs, targets=targets), BasisExpansion(degree), kernel


def random_fitted_model(rng, n=8, d=2, degree="const", jitter=1e-10):
    """A well-separated random instance whose fit never needs escalation."""
    theta = rng.uniform(0.5, 3.0, size=d)
    inputs = separated_inputs(rng, n, d, theta)
    targets = rng.normal(0.0, 1.0, size=n)
    kernel = Kernel(sigma_sq=float(rng.uniform(0.5, 2.0)), theta=theta, jitter=jitter)
    training = TrainingSet(inputs=inputs, targets=targets)
    return fit(training, BasisExpansion(degree), kernel)
