"""Brute-force oracles for the regression math, used only by tests.

The dense_* functions go through explicit dense inversion (np.linalg.inv)
and per-pair loops, deliberately avoiding the library's Cholesky/QR code
paths so the two implementations can check each other. The leave-one-out
oracle refits the library's own model once per fold, the definition the
closed-form leave-one-out in jobsignal.evaluation must reproduce.
"""

from __future__ import annotations

import math

import numpy as np

from jobsignal import gpr


def dense_correlation(points_a: np.ndarray, points_b: np.ndarray, theta: np.ndarray) -> np.ndarray:
    out = np.empty((len(points_a), len(points_b)))
    for i, xa in enumerate(points_a):
        for j, xb in enumerate(points_b):
            acc = 0.0
            for dim in range(len(theta)):
                acc += (xa[dim] - xb[dim]) ** 2 / theta[dim]
            out[i, j] = math.exp(-acc)
    return out


def dense_design(points: np.ndarray, degree: str) -> np.ndarray:
    ones = np.ones((len(points), 1))
    if degree == "const":
        return ones
    return np.hstack([ones, points])


def dense_gls_beta(inputs, targets, sigma_sq, theta, jitter, degree):
    """Trend coefficients via explicit inversion of the regularized covariance."""
    n = len(inputs)
    cov = sigma_sq * dense_correlation(inputs, inputs, theta) + jitter * sigma_sq * np.eye(n)
    cov_inv = np.linalg.inv(cov)
    design = dense_design(inputs, degree)
    gram = design.T @ cov_inv @ design
    return np.linalg.inv(gram) @ design.T @ cov_inv @ targets


def dense_gpr_predict(inputs, targets, x_new, sigma_sq, theta, jitter, degree):
    """Posterior mean/variance from the partitioned-covariance formulation."""
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    x_new = np.asarray(x_new, dtype=float).reshape(1, -1)
    n = len(inputs)
    cov = sigma_sq * dense_correlation(inputs, inputs, theta) + jitter * sigma_sq * np.eye(n)
    cov_inv = np.linalg.inv(cov)
    design = dense_design(inputs, degree)
    gram = design.T @ cov_inv @ design
    gram_inv = np.linalg.inv(gram)
    beta = gram_inv @ design.T @ cov_inv @ targets
    residual = targets - design @ beta
    k = sigma_sq * dense_correlation(inputs, x_new, theta)[:, 0]
    kappa = sigma_sq
    f_new = dense_design(x_new, degree)[0]
    mean = float(f_new @ beta + k @ cov_inv @ residual)
    u = f_new - design.T @ cov_inv @ k
    variance = float(kappa - k @ cov_inv @ k + u @ gram_inv @ u)
    return mean, variance


def dense_log_marginal_likelihood(inputs, targets, sigma_sq, theta, jitter, degree):
    """Log marginal likelihood with the trend at its GLS value, via slogdet/inv."""
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n = len(inputs)
    cov = sigma_sq * dense_correlation(inputs, inputs, theta) + jitter * sigma_sq * np.eye(n)
    cov_inv = np.linalg.inv(cov)
    beta = dense_gls_beta(inputs, targets, sigma_sq, theta, jitter, degree)
    residual = targets - dense_design(inputs, degree) @ beta
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * (n * math.log(2.0 * math.pi) + logdet + float(residual @ cov_inv @ residual))


def refit_loo_predictions(inputs, targets, basis, kernel) -> np.ndarray:
    """Each row predicted by a fresh fit on all other rows, kernel held fixed.

    O(N^4) in all; raises the fold's FitError when its fit fails.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    predicted = np.empty(targets.size)
    for i in range(targets.size):
        keep = np.arange(targets.size) != i
        training = gpr.TrainingSet(inputs=inputs[keep], targets=targets[keep])
        model = gpr.fit(training, basis, kernel)
        predicted[i] = gpr.predict(model, inputs[i]).mean
    return predicted
