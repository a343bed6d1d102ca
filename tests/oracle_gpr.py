"""Brute-force oracles for the regression math, used only by tests.

The dense_* functions go through explicit dense inversion (np.linalg.inv)
and per-pair loops, deliberately avoiding the library's Cholesky/QR code
paths so the two implementations can check each other. The leave-one-out
oracle refits the library's own model once per fold, the definition the
closed-form leave-one-out in jobsignal.evaluation must reproduce.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from jobsignal import _lapack, gpr


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


def distinct_rows(inputs, targets):
    """(distinct inputs in first-occurrence order, group of each row, group
    counts, group mean targets), by a loop over the rows. The means are
    sums in row order divided by the count, as the library forms them."""
    inputs = np.asarray(inputs, dtype=float)
    groups: dict[tuple, int] = {}
    index = np.empty(len(inputs), dtype=np.intp)
    sums: list[float] = []
    counts: list[float] = []
    for i, (row, target) in enumerate(zip(inputs, targets)):
        k = groups.setdefault(tuple(row.tolist()), len(groups))
        if k == len(sums):
            sums.append(0.0)
            counts.append(0.0)
        sums[k] += float(target)
        counts[k] += 1.0
        index[i] = k
    first = [int(np.argmax(index == k)) for k in range(len(groups))]
    counts = np.array(counts)
    return inputs[first], index, counts, np.array(sums) / counts


@functools.lru_cache(maxsize=None)
def _packed_positions(n: int) -> np.ndarray:
    """Entry m of an n x n lower triangle in LAPACK's rectangular full
    packed format (TRANSR='N', UPLO='L') holds the matrix entry of flat
    C-order index positions[m]. Laid out case by case as LAPACK's dtrttf
    documents it: with k = n // 2, an even n gives an (n + 1) x k array whose
    rows 1..n hold the first k columns of the triangle and whose upper
    triangle holds the last k columns transposed; an odd n gives an n x
    (k + 1) array whose rows 0..n-1 hold the first k + 1 columns and whose
    strict upper triangle holds the last k columns transposed."""
    k = n // 2
    if n % 2 == 0:
        arf = np.empty((n + 1, k), dtype=np.intp)
        for j in range(k):
            for i in range(j, n):
                arf[i + 1, j] = i * n + j
            for i in range(j, k):
                arf[j, i] = (k + i) * n + k + j
    else:
        arf = np.empty((n, k + 1), dtype=np.intp)
        for j in range(k + 1):
            for i in range(j, n):
                arf[i, j] = i * n + j
        for j in range(k):
            for i in range(j, k):
                arf[j, i + 1] = (k + 1 + i) * n + k + 1 + j
    positions = arf.reshape(-1, order="F")
    positions.setflags(write=False)
    return positions


def pack(matrix) -> np.ndarray:
    """The lower triangle of a square matrix in packed storage, the layout
    of the factor a fitted model holds."""
    matrix = np.asarray(matrix, dtype=float)
    return matrix.reshape(-1)[_packed_positions(len(matrix))]


def unpack(packed) -> np.ndarray:
    """The lower-triangular matrix that packed holds, zeros above its diagonal."""
    packed = np.asarray(packed, dtype=float)
    n = (math.isqrt(8 * packed.size + 1) - 1) // 2
    matrix = np.zeros(n * n)
    matrix[_packed_positions(n)] = packed
    return matrix.reshape(n, n)


def compressed_covariance(inputs, kernel):
    """sigma_sq * (R_u + jitter * diag(1/n_k)) over the distinct rows of inputs:
    the matrix whose Cholesky factor a model fitted on inputs holds."""
    distinct, _, counts, _ = distinct_rows(inputs, np.zeros(len(inputs)))
    corr = gpr.correlation(distinct, distinct, kernel.theta)
    return kernel.sigma_sq * (corr + np.diag(kernel.jitter / counts))


def reference_theta_search(training, basis, search, failed=()) -> gpr.Kernel:
    """The grid search with each cell built from scratch: the distinct rows
    found by a loop, gpr.correlation over them at the cell's theta, then a
    fresh corr + diag(jitter / n_k) for every escalation attempt (starting
    at the default jitter when a row repeats and the base jitter is 0),
    packed by pack and factorized by the same LAPACK dpftrf the library
    calls; the likelihood
    adds the within-group terms of the full N x N matrix. On 1-d inputs the
    kernel of the model gpr.fit_hyperparameters returns must have the same
    sigma_sq and theta bit for bit; the jitter here is the search's base
    jitter, before any escalation. Cells whose theta is in failed are
    skipped, as the search skips a cell that raises FitError.
    """
    n, d = training.inputs.shape
    distinct, index, counts, means = distinct_rows(training.inputs, training.targets)
    u = len(distinct)
    residual = training.targets - means[index]
    design = basis.design_matrix(distinct)
    best = None  # (loglik, theta, sigma_sq)
    for theta_scalar in search.grid():
        if theta_scalar in failed:
            continue
        corr = gpr.correlation(distinct, distinct, np.full(d, float(theta_scalar)))
        jitter = search.jitter
        if jitter == 0.0 and u < n:
            jitter = gpr.DEFAULT_JITTER
        while True:
            chol = pack(corr + np.diag(jitter / counts))
            if _lapack.pftrf(chol) == 0:
                break
            jitter = gpr.DEFAULT_JITTER if jitter == 0.0 else jitter * 10.0
            if jitter > gpr.MAX_JITTER * (1.0 + 1e-12):
                chol = None
                break
        if chol is None:
            continue
        try:
            _, _, _, rho = gpr._gls(gpr._Dense(chol), design, means)
        except gpr.FitError:
            continue
        quad = float(rho @ rho)
        logdet = 2.0 * float(np.sum(np.log(np.diag(unpack(chol)))))
        if u < n:
            quad += float(residual @ residual) / jitter
            logdet += float(np.sum(np.log(counts))) + (n - u) * math.log(jitter)
        sigma_sq = max(quad / n, gpr.SIGMA_SQ_FLOOR)
        loglik = -0.5 * (
            n * math.log(2.0 * math.pi) + n * math.log(sigma_sq) + logdet + quad / sigma_sq
        )
        if best is None or loglik > best[0]:
            best = (loglik, float(theta_scalar), sigma_sq)
    _, theta, sigma_sq = best
    return gpr.Kernel(sigma_sq=sigma_sq, theta=np.full(d, theta), jitter=search.jitter)


def reference_partial_cholesky(groups, theta):
    """gpr._partial_cholesky written plainly, into a work buffer of the
    library's layout: one _scaled_distances call per pivot column,
    np.argmax, a fresh matmul result and a column * column temporary per
    step. The arithmetic is the same, so gpr._partial_cholesky must leave the
    same columns bit for bit, or give None alike. Returns G, u x rank, or
    None when the rank reaches u // 6 first."""
    u = groups.counts.size
    tol = u * np.finfo(float).eps
    cap = u // 6
    inputs = groups.inputs
    neg_theta = -np.asarray(theta, dtype=float)
    residual = np.ones(u)
    g = np.empty((u + cap, cap + 2), order="F")[:u]
    rank = 0
    while residual.max() > tol:
        if rank == cap:
            return None
        pivot = int(np.argmax(residual))
        column = g[:, rank]
        gpr._scaled_distances(inputs, inputs[pivot : pivot + 1], neg_theta, out=column[:, None])
        np.exp(column, out=column)
        column -= g[:, :rank] @ g[pivot, :rank]
        column /= math.sqrt(residual[pivot])
        residual -= column * column
        np.maximum(residual, 0.0, out=residual)
        residual[pivot] = 0.0
        rank += 1
    return g[:, :rank]


def dense_kriging(training, basis, kernel, points):
    """(fitted means, leave-one-out predictions, predicted means, predicted
    variances at points) of the model at kernel, from the N x N covariance
    C = sigma_sq * (R + jitter * I) inverted by np.linalg.inv: the fitted
    means are F beta + sigma_sq R alpha, row i held out is
    t_i - (P t)_i / P_ii, and the predictions are those of dense_gpr_predict."""
    inputs, targets = training.inputs, training.targets
    n = targets.size
    corr = gpr.correlation(inputs, inputs, kernel.theta)
    cov_inv = np.linalg.inv(kernel.sigma_sq * (corr + kernel.jitter * np.eye(n)))
    design = dense_design(inputs, basis.degree)
    trend = cov_inv @ design
    gram_inv = np.linalg.inv(design.T @ trend)
    beta = gram_inv @ trend.T @ targets
    alpha = cov_inv @ (targets - design @ beta)
    fitted = design @ beta + kernel.sigma_sq * (corr @ alpha)
    proj = cov_inv - trend @ gram_inv @ trend.T
    loo = targets - (proj @ targets) / np.diag(proj)
    k = kernel.sigma_sq * gpr.correlation(inputs, points, kernel.theta)
    mean = dense_design(points, basis.degree) @ beta + k.T @ alpha
    u = dense_design(points, basis.degree).T - design.T @ cov_inv @ k
    variance = kernel.sigma_sq - np.einsum("ij,ij->j", k, cov_inv @ k)
    variance += np.einsum("ij,ij->j", u, gram_inv @ u)
    return fitted, loo, mean, variance
