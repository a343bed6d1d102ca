"""Gaussian process regression with a polynomial trend (universal kriging).

The model is y(x) = F(x)·beta + Z(x): a generalized-least-squares trend over
a small basis (constant, or constant plus the coordinate projections) plus a
zero-mean stationary process Z whose covariance between two points is

    sigma_sq * exp(-sum_i (x_i - x'_i)**2 / theta_i).

Every correlation is exp(-D) of one distance function, _scaled_distances,
and every linear solve goes through one Cholesky factor made by _factorize,
over the u distinct input rows. Rows with identical inputs have identical
rows of R, so with Z the N x u incidence matrix and n_k the rows of
distinct input k, R + jitter*I = Z R_u Z' + jitter*I, and the fit follows
exactly from R_u + jitter*diag(1/n_k), the group means of the targets and
the residual within the groups (Binois, Gramacy & Ludkovski 2018, JCGS
27(4), section 3; Ankenman, Nelson & Staum 2010, Oper. Res. 58(2)). The
compression is exact and needs no setting; when every input is distinct
(u = N) it is the identity, with the arithmetic of the plain N x N
factorization. On every rung of its jitter ladder _factorize fills the
lower triangle of that matrix from the distinct inputs, a block of columns
at a time, and factorizes it with LAPACK dpotrf in place, in a u x u
Fortran-ordered buffer that becomes the model's factor. No distance matrix
and no matrix larger than u x u is held. LAPACK is numpy's own OpenBLAS,
called through jobsignal._lapack. Nothing here inverts a matrix (the dense
inverse lives only in the test oracle).
Hyperparameters are selected by maximizing the log marginal likelihood over
a logarithmic theta grid with the process variance profiled out in closed
form. With at least _SCREEN_MIN_ORDER distinct inputs, and a jitter large
enough that rounding moves a likelihood by less than _SCREEN_WIDTH, a
screen bounds every cell first: with G a partial pivoted Cholesky factor
of R_u, grown until its residual trace t is small, and lam the smallest
jitter/n_k, R_u + jitter*diag(1/n_k) lies between C = GG' +
jitter*diag(1/n_k) and (1 + t/lam) C, which brackets the likelihood at a
cost of O(u m^2) for rank m (see _screen). The cell with the best lower
bound is factorized densely, and every cell whose upper bound, plus the
rounding allowance, falls below that cell's likelihood is dropped; the
others run as before. The selection and the model are the bits the full
scan gives.
The cells run one at a time, in grid order, on the calling thread, each
factorized into the same u x u buffer. The winner is picked after the scan
and its factor becomes the fitted model, factorized once more only if a
later cell reused the buffer, so the search is also the fit. A fitted
model holds no mutable state: predict logs at DEBUG, on the jobsignal.gpr
logger, how many variances it clamped to 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _lapack
from .errors import ConfigError, FitError

__all__ = [
    "BasisExpansion",
    "GprModel",
    "Kernel",
    "Prediction",
    "SearchConfig",
    "TrainingSet",
    "correlation",
    "fit",
    "fit_hyperparameters",
    "predict",
]

logger = logging.getLogger(__name__)

DEFAULT_JITTER = 1e-10
MAX_JITTER = 1e-4
SIGMA_SQ_FLOOR = 1e-30  # keeps log(sigma_sq) finite on zero-residual data
_FILL_COLUMNS = 128  # columns of R that _factorize fills per block
_SCREEN_MIN_ORDER = 256  # fewest distinct inputs the search screens; a smaller cell is cheap
_SCREEN_WIDTH = 0.25  # log-likelihood units: the widest bound a screened cell settles for

CONST = "const"
LINEAR = "linear"


@dataclass(frozen=True, eq=False)
class Kernel:
    """Hyperparameters of the correlation model.

    sigma_sq scales the process covariance, theta holds one squared
    correlation length per input dimension (larger theta, slower decay),
    and jitter is the diagonal regularizer added as a fraction of sigma_sq.
    """

    sigma_sq: float
    theta: np.ndarray
    jitter: float = DEFAULT_JITTER

    def __post_init__(self) -> None:
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float)).copy()
        if theta.ndim != 1 or theta.size == 0:
            raise ValueError("theta must be a non-empty 1-d vector")
        if not np.all(np.isfinite(theta)) or np.any(theta <= 0.0):
            raise ValueError("every theta entry must be positive and finite")
        sigma_sq = float(self.sigma_sq)
        if not math.isfinite(sigma_sq) or sigma_sq <= 0.0:
            raise ValueError("sigma_sq must be positive and finite")
        jitter = float(self.jitter)
        if not math.isfinite(jitter) or jitter < 0.0:
            raise ValueError("jitter must be non-negative and finite")
        theta.setflags(write=False)
        object.__setattr__(self, "sigma_sq", sigma_sq)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "jitter", jitter)


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Observed inputs (N x d) and their targets (length N), no gaps allowed."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=float).copy()
        targets = np.asarray(self.targets, dtype=float).copy()
        if inputs.ndim != 2:
            raise ValueError("inputs must be a 2-d array of shape (N, d)")
        if targets.ndim != 1:
            raise ValueError("targets must be a 1-d vector")
        n, d = inputs.shape
        if n < 1 or d < 1:
            raise ValueError("need at least one observation and one input dimension")
        if targets.shape[0] != n:
            raise ValueError(f"{n} input rows but {targets.shape[0]} targets")
        if not np.all(np.isfinite(inputs)) or not np.all(np.isfinite(targets)):
            raise ValueError("inputs and targets must be finite (no missing entries)")
        inputs.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def ndim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class BasisExpansion:
    """Ordered trend basis; the first function is always the constant 1.

    degree "const" keeps just the constant; "linear" appends the d
    coordinate projections.
    """

    degree: str = CONST

    def __post_init__(self) -> None:
        if self.degree not in (CONST, LINEAR):
            raise ValueError(f"unknown basis degree {self.degree!r}")

    def size(self, ndim: int) -> int:
        return 1 if self.degree == CONST else 1 + ndim

    def design_matrix(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        ones = np.ones((inputs.shape[0], 1))
        if self.degree == CONST:
            return ones
        return np.hstack([ones, inputs])


@dataclass(frozen=True)
class Prediction:
    """Posterior mean and (clamped non-negative) variance.

    Floats for a single point; length-M arrays, one entry per row, for an
    (M, d) batch (compare those field by field, not with ==).
    """

    mean: float | np.ndarray
    variance: float | np.ndarray


@dataclass(frozen=True, eq=False)
class _Groups:
    """The training rows grouped by identical inputs, groups in order of
    first occurrence: inputs[index[i]] is row i's input, counts holds n_k,
    means the group means of the targets and residual each target less its
    group mean. When no input repeats, inputs and means are the training
    arrays themselves and residual is never read."""

    inputs: np.ndarray
    index: np.ndarray
    counts: np.ndarray
    means: np.ndarray
    residual: np.ndarray

    @property
    def tied(self) -> bool:
        return self.counts.size < self.index.size


def _group_rows(training: TrainingSet) -> _Groups:
    inputs, targets, n = training.inputs, training.targets, training.n
    # A stable sort of the rows, so each run of equal rows starts at its
    # first occurrence; -0.0 and 0.0 compare equal, as their distances do.
    order = np.lexsort(inputs.T[::-1])
    ordered = inputs[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    if starts.all():
        return _Groups(inputs, np.arange(n), np.ones(n), targets, np.zeros(n))
    first = order[starts]
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    index = np.empty(n, dtype=np.intp)
    index[order] = rank[np.cumsum(starts) - 1]
    counts = np.bincount(index).astype(float)
    means = np.bincount(index, weights=targets) / counts
    return _Groups(inputs[np.sort(first)], index, counts, means, targets - means[index])


@dataclass(frozen=True, eq=False)
class GprModel:
    """Fitted state; immutable after fit and safe to share across threads:
    predict reads it and never writes to it.

    chol, trend_whitened and group_alpha live on the u distinct inputs of
    groups (see the module docstring): chol factorizes the compressed
    covariance sigma_sq * (R_u + kernel.jitter * diag(1/n_k)), and
    group_alpha is Z' alpha, C_u^-1 (ybar - F_u beta). alpha is N-long,
    C^-1 (t - F beta) for the full covariance C. kernel.jitter reflects any
    diagonal escalation applied during fitting.
    """

    training: TrainingSet
    kernel: Kernel
    basis: BasisExpansion
    beta: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    trend_whitened: np.ndarray  # chol^-1 F_u, reused by the variance solves
    trend_r: np.ndarray  # upper QR factor of trend_whitened
    groups: _Groups
    group_alpha: np.ndarray


def _scaled_distances(
    a: np.ndarray, b: np.ndarray, theta: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """D[j, k] = sum_i (a[j, i] - b[k, i])**2 / theta_i, points as rows,
    written into out when given.

    The only code that forms coordinate differences. It sums dimension by
    dimension, so it holds no N x N x d temporary, and on one dimension it
    needs no buffer but out.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    theta = np.asarray(theta, dtype=float)
    if a.shape[1] != theta.size or b.shape[1] != theta.size:
        raise ValueError(
            f"dimension mismatch: points of size {a.shape[1]}/{b.shape[1]}, "
            f"{theta.size} correlation lengths"
        )
    shape = (a.shape[0], b.shape[0])
    out = np.empty(shape) if out is None else out
    term = np.empty(shape) if theta.size > 1 else None
    for i, length in enumerate(theta):
        target = out if i == 0 else term
        np.subtract(a[:, i, None], b[None, :, i], out=target)
        np.square(target, out=target)
        target /= length
        if i > 0:
            out += term
    return out


def correlation(a: np.ndarray, b: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Correlations exp(-sum_i (a[j, i] - b[k, i])**2 / theta_i), in (0, 1].

    a and b hold points as rows (a 1-d array is one point); the result has
    one row per point of a and one column per point of b.
    """
    # Dividing by -theta gives exactly -D, so exp follows with no negation.
    neg_dist = _scaled_distances(a, b, -np.asarray(theta, dtype=float))
    return np.exp(neg_dist, out=neg_dist)


def _factorize(buf: np.ndarray, groups: _Groups, theta: np.ndarray, jitter: float) -> float:
    """Factorize R_u + jitter*diag(1/n_k) in place in buf, escalating jitter
    x10 up to MAX_JITTER; returns the jitter used.

    R_u is correlation(groups.inputs, groups.inputs, theta), n_k are
    groups.counts and buf is u x u in Fortran order; with no repeated input
    the matrix is R + jitter*I. dpotrf reads only the lower triangle, so
    each rung fills just that, straight from the inputs, _FILL_COLUMNS
    columns at a time: no distance matrix is held, and every rung rebuilds
    R_u from scratch. It then adds jitter/n_k to the diagonal and lets
    LAPACK dpotrf overwrite the lower triangle with the factor. The strict
    upper triangle is left holding garbage (zero it before using buf as a
    dense factor). On a tied panel (u < N) R + 0*I is singular and the
    likelihood's (N - u) log(jitter) term -inf, so there every rung must
    factorize R_u + jitter*diag(1/n_k) with jitter > 0: a ladder given
    jitter 0 starts at DEFAULT_JITTER.
    """
    n = buf.shape[0]
    flat = buf.reshape(-1, order="F")  # a view into buf
    diag = flat[:: n + 1]
    inputs = groups.inputs
    neg_theta = -np.asarray(theta, dtype=float)  # exactly -D, as in correlation
    first = buf[:, :_FILL_COLUMNS]
    if jitter == 0.0 and groups.tied:
        jitter = DEFAULT_JITTER
    while True:
        # Later blocks are built contiguously in the first block's columns,
        # which no later block covers, and exponentiated into place; the
        # first block, whole columns and so contiguous itself, goes last.
        for j0 in range(_FILL_COLUMNS, n, _FILL_COLUMNS):
            j1 = min(j0 + _FILL_COLUMNS, n)
            block = flat[: (j1 - j0) * (n - j0)].reshape(j1 - j0, n - j0)
            _scaled_distances(inputs[j0:j1], inputs[j0:], neg_theta, out=block)
            np.exp(block, out=buf[j0:, j0:j1].T)
        _scaled_distances(inputs, inputs[:_FILL_COLUMNS], neg_theta, out=first)
        np.exp(first, out=first)
        diag += jitter / groups.counts
        info = _lapack.potrf(buf)
        if info == 0:
            return jitter
        if info < 0:
            raise ValueError(f"dpotrf rejected argument {-info}")
        nxt = DEFAULT_JITTER if jitter == 0.0 else jitter * 10.0
        if nxt > MAX_JITTER * (1.0 + 1e-12):
            raise FitError(f"covariance is not positive definite even at jitter {jitter:g}")
        logger.debug("cholesky failed at jitter %g, escalating to %g", jitter, nxt)
        jitter = nxt


def _trend_design(training: TrainingSet, basis: BasisExpansion, groups: _Groups) -> np.ndarray:
    """The u x p trend design F_u of the distinct inputs (F = Z F_u);
    FitError when p exceeds N."""
    p = basis.size(training.ndim)
    if p > training.n:
        raise FitError(
            f"trend system is underdetermined: {p} basis functions for {training.n} observations"
        )
    return basis.design_matrix(groups.inputs)


def _gls(chol: np.ndarray, design: np.ndarray, targets: np.ndarray):
    """Generalized least squares through the whitened system.

    Returns (whitened design, its upper QR factor, coefficients, whitened
    residual). Raises FitError when the whitened design is rank deficient.
    """
    ft = _lapack.solve_triangular(chol, design, lower=True)
    yt = _lapack.solve_triangular(chol, targets, lower=True)
    q, r_qr = np.linalg.qr(ft)
    diag = np.abs(np.diag(r_qr))
    tol = max(ft.shape) * np.finfo(float).eps * diag.max()
    if diag.size < ft.shape[1] or diag.min() <= tol:
        raise FitError("trend system is singular (collinear or duplicate basis functions)")
    beta = _lapack.solve_triangular(r_qr, q.T @ yt, lower=False)
    rho = yt - ft @ beta
    return ft, r_qr, beta, rho


def _likelihood(groups: _Groups, jitter: float, quad: float, logdet: float):
    """(loglik, sigma_sq) of the N-row panel from quad, the GLS quadratic
    form of the group means against R_u + jitter*diag(1/n_k), and logdet,
    that matrix's log-determinant, with the process variance profiled out:
    sigma_sq = quad / N, floored so the likelihood stays finite on
    zero-residual data. On a tied panel the log-determinant of R + jitter*I
    gains sum(log n_k) + (N - u) log(jitter) and the quadratic form
    r'r / jitter, r the residual within the groups. The value decreases in
    both quad and logdet.
    """
    n, u = groups.index.size, groups.counts.size
    if groups.tied:
        quad += float(groups.residual @ groups.residual) / jitter
        logdet += float(np.sum(np.log(groups.counts))) + (n - u) * math.log(jitter)
    sigma_sq = max(quad / n, SIGMA_SQ_FLOOR)
    loglik = -0.5 * (
        n * math.log(2.0 * math.pi) + n * math.log(sigma_sq) + logdet + quad / sigma_sq
    )
    return loglik, sigma_sq


def _profile_log_likelihood(chol: np.ndarray, groups: _Groups, design: np.ndarray, jitter: float):
    """_likelihood with the trend at its GLS value, from chol, the lower
    factor of R_u + jitter*diag(1/n_k) (its strict upper triangle is not
    read), and design, F_u; GLS runs on the group means. Raises FitError
    when the whitened design is rank deficient.
    """
    _, _, _, rho = _gls(chol, design, groups.means)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return _likelihood(groups, jitter, float(rho @ rho), logdet)


def _rounding_allowance(groups: _Groups, jitter: float) -> float:
    """How far rounding may move a cell's log-likelihood, dense or screened:
    (N + u) u**2 eps / lam, lam = jitter / max(n_k) the smallest entry of
    jitter*diag(1/n_k); inf at jitter 0.

    A computed Cholesky factor L is exact for a matrix within
    (u + 1) eps |L||L'| of the one factorized (Higham 2002, Thm 10.3),
    whose 2-norm is at most about u**2 eps, as the diagonal of R_u is 1.
    Against the smallest eigenvalue, at least lam, that moves the quadratic
    form by a fraction u**2 eps / lam and the log-determinant by u times
    as much; the likelihood weights the first by N/2 and the second by 1/2.
    The screen's QR is no less accurate, so the sum bounds both to first
    order. On sampled and synth panels of 300 to 1600 rows at jitter 1e-4
    to 1e-10, the dense value and a screen run to a width of 1e-4 differed
    by at most 1/200 of it.
    """
    lam = jitter / float(groups.counts.max())
    if lam == 0.0:
        return math.inf
    n, u = groups.index.size, groups.counts.size
    return (n + u) * u * u * np.finfo(float).eps / lam


def _screen(groups: _Groups, design: np.ndarray, theta: np.ndarray, jitter: float):
    """(lower, upper, rank): bounds on the log-likelihood that
    _profile_log_likelihood gives at theta, each good up to
    _rounding_allowance, from a partial pivoted Cholesky factor G of R_u
    of that rank; (-inf, inf, rank) when the rank reaches u // 8 first.

    G grows one column of R_u at a time, computed from the inputs at the
    pivot (Harbrecht, Peters & Schneider 2012), so nothing u x u is held.
    With Lambda = jitter*diag(1/n_k), lam its smallest entry and
    C = GG' + Lambda, the residual E = R_u - GG' has 0 <= E <= t*I for its
    trace t, so C <= R_u + Lambda <= (1 + t/lam) C: the log-determinant
    lies in [log det C, log det C + t/lam] and the GLS quadratic form in
    [Q/(1 + t/lam), Q], Q its value against C. G stops growing when that
    leaves the interval at most _SCREEN_WIDTH wide. One QR of the
    (u + m) x (m + p + 1) least-squares system
        [Lambda^-1/2 G, Lambda^-1/2 F_u, Lambda^-1/2 ybar; I_m, 0, 0]
    gives both: its leading m x m block of R factors I + G' Lambda^-1 G,
    and its last diagonal entry squared is
    Q = min over (z, beta) of |Lambda^-1/2 (ybar - F_u beta - G z)|^2 + |z|^2.
    The likelihood decreases in both, so the bounds are _likelihood at the
    two corners. Only upper ever drops a cell; lower picks the cell that
    goes first.
    """
    n, u = groups.index.size, groups.counts.size
    lam = jitter / float(groups.counts.max())
    tol = 2.0 * _SCREEN_WIDTH * lam / (n + 1)  # width <= (N + 1) t / (2 lam)
    cap = u // 8
    inputs = groups.inputs
    neg_theta = -np.asarray(theta, dtype=float)
    residual = np.ones(u)  # the diagonal of E; R_u's is exactly 1
    g_t = np.empty((cap, u))  # G', one contiguous row per column of G
    rank = 0
    while (trace := float(residual.sum())) > tol:
        if rank == cap:
            return -math.inf, math.inf, rank
        pivot = int(np.argmax(residual))
        column = g_t[rank]
        _scaled_distances(inputs, inputs[pivot : pivot + 1], neg_theta, out=column[:, None])
        np.exp(column, out=column)
        column -= g_t[:rank, pivot] @ g_t[:rank]
        column /= math.sqrt(residual[pivot])
        residual -= column * column
        np.maximum(residual, 0.0, out=residual)
        residual[pivot] = 0.0
        rank += 1
    p = design.shape[1]
    scale = np.sqrt(groups.counts / jitter)[:, None]
    system = np.zeros((u + rank, rank + p + 1))
    np.multiply(g_t[:rank].T, scale, out=system[:u, :rank])
    np.multiply(design, scale, out=system[:u, rank:-1])
    np.multiply(groups.means[:, None], scale, out=system[:u, -1:])
    system[u:, :rank] = np.eye(rank)
    r = np.linalg.qr(system, mode="r")
    logdet = float(np.sum(np.log(jitter / groups.counts)))
    logdet += 2.0 * float(np.sum(np.log(np.abs(np.diag(r)[:rank]))))
    quad = float(r[-1, -1]) ** 2
    spread = trace / lam
    lower, _ = _likelihood(groups, jitter, quad, logdet + spread)
    upper, _ = _likelihood(groups, jitter, quad / (1.0 + spread), logdet)
    return lower, upper, rank


def _model_from_factor(
    training: TrainingSet,
    groups: _Groups,
    basis: BasisExpansion,
    design: np.ndarray,
    kernel: Kernel,
    chol: np.ndarray,
) -> GprModel:
    """The fitted model around chol, the in-place factor of
    R_u + kernel.jitter*diag(1/n_k).

    Zeroes chol's strict upper triangle, scales it to the compressed
    covariance's factor and solves the trend and group_alpha against it.
    Row i of a group k gets alpha_i = r_i / (sigma_sq*jitter) + group_alpha_k / n_k.
    """
    for j in range(1, chol.shape[0]):
        chol[:j, j] = 0.0  # contiguous in Fortran order
    chol *= math.sqrt(kernel.sigma_sq)
    ft, r_qr, beta, rho = _gls(chol, design, groups.means)
    group_alpha = _lapack.solve_triangular(chol.T, rho, lower=False)
    alpha = group_alpha
    if groups.tied:
        noise = kernel.sigma_sq * kernel.jitter
        alpha = groups.residual / noise + (group_alpha / groups.counts)[groups.index]
    return GprModel(
        training=training,
        kernel=kernel,
        basis=basis,
        beta=beta,
        chol=chol,
        alpha=alpha,
        trend_whitened=ft,
        trend_r=r_qr,
        groups=groups,
        group_alpha=group_alpha,
    )


def fit(training: TrainingSet, basis: BasisExpansion, kernel: Kernel) -> GprModel:
    """Fit trend coefficients and process state for the given kernel.

    Solves (F' C^-1 F) beta = F' C^-1 t against the jitter-regularized
    covariance, then precomputes alpha = C^-1 (t - F beta) for prediction.
    The returned model records the jitter actually used, including any
    escalation needed to make the factorization succeed.
    """
    groups = _group_rows(training)
    design = _trend_design(training, basis, groups)
    u = groups.counts.size
    chol = np.empty((u, u), order="F")
    jitter = _factorize(chol, groups, kernel.theta, kernel.jitter)
    return _model_from_factor(training, groups, basis, design, replace(kernel, jitter=jitter), chol)


def predict(model: GprModel, x_new: np.ndarray) -> Prediction:
    """Posterior mean and variance at one point (1-d x_new) or at each row
    of an (M, d) batch.

    With K the N x M cross-covariance and F(X) the batch's design rows,
    mean = F(X) beta + K' alpha and variance = kappa - diag(K' C^-1 K) plus
    the trend-uncertainty term diag(U' (F' C^-1 F)^-1 U) with
    U = F(X)' - F' C^-1 K. K = Z K_u repeats the cross-covariance K_u to
    the u distinct inputs, and Z' C^-1 Z = C_u^-1, so every term is over
    those: K' alpha = K_u' group_alpha, and all M points share one
    triangular solve of the stored u x u Cholesky factor against K_u
    (Rasmussen & Williams, GPML Alg. 2.1).
    Variances that round below zero are clamped to 0, their count logged at
    DEBUG and never stored. A 1-d x_new gives a Prediction of two floats.
    A point with a NaN or infinite coordinate raises ValueError.
    """
    x = np.asarray(x_new, dtype=float)
    single = x.ndim < 2
    if single:
        x = x.reshape(1, -1)
    elif x.ndim != 2:
        raise ValueError(f"points must be one point or an (M, d) batch, got shape {x.shape}")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"points must be finite, but row {i} is {x[i].tolist()}")
    m = x.shape[0]
    if m == 1:
        # OpenBLAS solves a lone right-hand side with trsv, which rounds
        # differently from trsm; a duplicate row keeps one point on the batch
        # arithmetic, so its variance (and clamp) does not depend on batching.
        x = np.repeat(x, 2, axis=0)
    design = model.basis.design_matrix(x)
    # M x N, so that its transpose is the Fortran-ordered right-hand side
    # the triangular solve overwrites without a copy.
    k_t = correlation(x, model.groups.inputs, model.kernel.theta)
    k_t *= model.kernel.sigma_sq
    # The per-point sums below are einsums over contiguous rows, not BLAS
    # matrix-vector products, so each runs in the same order whatever M is.
    mean = design @ model.beta + np.einsum("ij,j->i", k_t, model.group_alpha)
    v_t = _lapack.solve_triangular(model.chol, k_t.T, lower=True, overwrite_b=True).T
    ft_t = np.ascontiguousarray(model.trend_whitened.T)
    u = design.T - np.einsum("ik,jk->ji", v_t, ft_t)
    w_t = _lapack.solve_triangular(model.trend_r.T, u, lower=True).T
    variance = (
        model.kernel.sigma_sq
        - np.einsum("ij,ij->i", v_t, v_t)
        + np.einsum("ij,ij->i", w_t, w_t)
    )
    mean, variance = mean[:m], variance[:m]
    clamped = variance < 0.0
    if clamped.any():
        logger.debug("clamped %d negative variances to 0", int(clamped.sum()))
        variance[clamped] = 0.0
    if single:
        return Prediction(mean=float(mean[0]), variance=float(variance[0]))
    return Prediction(mean=mean, variance=variance)


@dataclass(frozen=True)
class SearchConfig:
    """Logarithmic theta grid for hyperparameter selection.

    The grid is shared across input dimensions: each cell evaluates an
    isotropic theta vector. steps == 1 degenerates to the single cell
    theta_min.
    """

    theta_min: float = 0.1
    theta_max: float = 10.0
    steps: int = 13
    jitter: float = DEFAULT_JITTER

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigError("theta grid is empty (steps must be >= 1)")
        if not (0.0 < self.theta_min <= self.theta_max):
            raise ConfigError(
                f"theta grid bounds must satisfy 0 < lower <= upper, "
                f"got {self.theta_min!r}:{self.theta_max!r}"
            )
        if math.isinf(self.theta_max):
            raise ConfigError(f"theta grid bounds must be finite, got {self.theta_min!r}:inf")
        if not (math.isfinite(self.jitter) and self.jitter >= 0.0):
            raise ConfigError(f"jitter must be non-negative and finite, got {self.jitter!r}")

    def grid(self) -> np.ndarray:
        return np.geomspace(self.theta_min, self.theta_max, self.steps)


def fit_hyperparameters(
    training: TrainingSet, basis: BasisExpansion, search: SearchConfig
) -> GprModel:
    """Pick sigma_sq and theta by grid-searched maximum marginal likelihood
    and return the model fitted at them.

    For each grid theta the process variance is profiled out in closed form
    by _profile_log_likelihood on the factor _factorize makes at that theta,
    which fit makes too.

    The grid is screened first when there are at least _SCREEN_MIN_ORDER
    distinct inputs, at least two cells, and _rounding_allowance, which
    depends on N, u and jitter / max(n_k) alone, is below _SCREEN_WIDTH (so
    never at jitter 0 or the default 1e-10 on a few hundred rows). _screen
    bounds each cell's likelihood at a rank of at most u // 8. The cell
    with the largest lower bound is then factorized densely; if that
    succeeds, every cell whose upper bound plus the allowance is below its
    likelihood is dropped, and a FitError there drops nothing. Cells the
    screen could not bound survive. The search logs at DEBUG each cell's
    screen rank and bounds, the cells dropped and those that survive.

    The remaining cells run in grid order on the calling thread, each
    factorized into the one u x u buffer. The winner is chosen after the
    scan, in ascending theta order, and only a strictly larger likelihood
    replaces the incumbent, so ties resolve toward the smallest theta and
    then the smallest sigma_sq; a dropped cell's likelihood is below the
    winner's, so the screen does not change which cell wins. Its factor
    becomes the model's if it was the last cell run; otherwise the winner
    is factorized again at the jitter it used, which rebuilds the same
    matrix and so the same bits. The model's kernel carries that jitter,
    and the model equals fit(training, basis, model.kernel) bit for bit.
    A FitError in a cell skips it; any other error stops the scan and
    propagates.
    """
    groups = _group_rows(training)
    design = _trend_design(training, basis, groups)
    u, d = groups.counts.size, training.ndim
    grid = search.grid()
    # Per grid cell: (loglik, sigma_sq, jitter), or None when the cell failed.
    cells: list[tuple[float, float, float] | None] = [None] * grid.size

    def run(i: int) -> None:
        try:
            jitter = _factorize(buf, groups, np.full(d, grid[i]), search.jitter)
            cells[i] = (*_profile_log_likelihood(buf, groups, design, jitter), jitter)
        except FitError:
            logger.debug("skipping theta=%g: not factorizable", grid[i])

    allowance = _rounding_allowance(groups, search.jitter)
    bounds = None
    if u >= _SCREEN_MIN_ORDER and grid.size > 1 and allowance < _SCREEN_WIDTH:
        bounds = [_screen(groups, design, np.full(d, theta), search.jitter) for theta in grid]
        for theta, (*bound, rank) in zip(grid, bounds):
            logger.debug("screened theta=%g: rank %d, loglik in [%g, %g]", theta, rank, *bound)
    buf = np.empty((u, u), order="F")  # after the screen has let go of its arrays
    held = None  # the last cell run, whose factor buf holds if it succeeded
    survivors = range(grid.size)
    if bounds is not None:
        held = max(survivors, key=lambda i: bounds[i][0])
        run(held)
        # Only a value that was computed can rule a cell out.
        floor = -math.inf if cells[held] is None else cells[held][0]
        survivors = [i for i in survivors if i != held and not bounds[i][1] + allowance < floor]
        logger.debug(
            "theta=%g factorized first; screened out theta: %s; surviving theta: %s",
            grid[held],
            " ".join(f"{grid[i]:g}" for i in range(grid.size) if i != held and i not in survivors)
            or "none",
            " ".join(f"{grid[i]:g}" for i in survivors) or "none",
        )
    for held in survivors:
        run(held)

    best = None
    for i, cell in enumerate(cells):
        if cell is not None and (best is None or cell[0] > cells[best][0]):
            best = i
    if best is None:
        raise FitError("no admissible theta grid cell: every candidate failed to factorize")
    _, sigma_sq, jitter = cells[best]
    kernel = Kernel(sigma_sq=sigma_sq, theta=np.full(d, grid[best]), jitter=jitter)
    if held != best:
        _factorize(buf, groups, kernel.theta, jitter)
    return _model_from_factor(training, groups, basis, design, kernel, buf)

