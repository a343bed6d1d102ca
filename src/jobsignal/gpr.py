"""Gaussian process regression with a polynomial trend (universal kriging).

The model is y(x) = F(x)·beta + Z(x): a generalized-least-squares trend over
a small basis (constant, or constant plus the coordinate projections) plus a
zero-mean stationary process Z whose covariance between two points is

    sigma_sq * exp(-sum_i (x_i - x'_i)**2 / theta_i).

Every correlation is exp(-D) of one distance function, _scaled_distances
(whose arithmetic _partial_cholesky's pivot step repeats on one column),
and every linear solve goes through one factor over the u distinct input
rows: a Cholesky factor made by _factorize, or the low-rank form below.
Rows with identical inputs have identical rows of R, so with Z the N x u
incidence matrix and n_k the rows of distinct input k,
R + jitter*I = Z R_u Z' + jitter*I, and the fit follows exactly from
R_u + jitter*diag(1/n_k), the group means of the targets and the residual
within the groups (Binois, Gramacy & Ludkovski 2018, JCGS
27(4), section 3; Ankenman, Nelson & Staum 2010, Oper. Res. 58(2)). The
compression is exact and needs no setting; when every input is distinct
(u = N) it is the identity, with the arithmetic of the plain N x N
factorization. On every rung of its jitter ladder _factorize fills the
lower triangle of that matrix from the distinct inputs, a block of columns
at a time, and factorizes it with LAPACK dpftrf in place, in one buffer of
u(u+1)/2 doubles that becomes the model's factor. The buffer holds the
triangle in rectangular full packed format (TRANSR='N', UPLO='L';
Gustavson, Wasniewski, Dongarra & Langou 2010, ACM TOMS 37(2)). Read as
the Fortran-ordered (u + e) x h matrix A, with h = ceil(u/2) and e = 1 when
u is even, 0 when odd, it has L[i, j] at A[e + i, j] for the first h
columns of L (j <= i), and L[h + j - 1 + e, h + r] at A[r, j] for r < j + e:
the last u - h columns, transposed, above a staircase on which the two
meet. dpftrf, dtfsm and dtftri work in that format with level-3 BLAS at the
speed of their full-storage forms, so no distance matrix and no u x u
matrix is held. LAPACK is numpy's own OpenBLAS, called through
jobsignal._lapack. Nothing here inverts a covariance (the dense inverse
lives only in the test oracle).
Hyperparameters are selected by maximizing the log marginal likelihood over
a logarithmic theta grid with the process variance profiled out in closed
form. With at least _LOW_RANK_MIN_ORDER distinct inputs, and a jitter large
enough that rounding moves a likelihood by less than _LOW_RANK_ALLOWANCE
(_low_rank_applies), each cell first grows a partial pivoted Cholesky factor
G of R_u until its largest residual pivot is at most u eps, LAPACK dpstrf's
default tolerance (_partial_cholesky). A cell that gets there within
u // _LOW_RANK_CAP_DIVISOR = u // 6 pivots reaches numerical rank m:
C = GG' + jitter*diag(1/n_k) is then its model, closer to the dense matrix
than the dense factor's own rounding allowance. The cap is where a
low-rank cell comes to cost what a dense one does: on two cores with
OpenBLAS on one thread, at jitter 1e-4, a dense cell took 1.5, 2.6 and
40 ms at u = 382, 500 and 1600, and a low-rank cell as much at about
0.22 u, 0.22 u and 0.17 u pivots. A low-rank cell's likelihood comes from
one QR of O(u m^2), and the model whitens with the (u + m) x m orthonormal
factor of [diag(n_k/jitter)^1/2 G; I] (_LowRank), so no u x u matrix is
formed. Any other cell is factorized densely (_Dense), and every solve of
a fitted model goes through the factor's whiten, whiten_t and
inverse_diagonal, whichever form it has.
The cells run one at a time, in grid order, on the calling thread, every
dense one factorized into the same packed buffer and every low-rank one
pivoted in one work buffer, reserved uninitialised at the cap, of which
only the rows a cell writes become resident; a cell past the cap lets it go
before its dense factorization. The winner's factor becomes the fitted
model; a dense winner is factorized once more only if a later dense cell
reused the buffer, so the search is also the fit, and fit is the search at
one cell: one path, _fit, makes both models. A fitted model holds no mutable state: predict logs at
DEBUG, on the jobsignal.gpr logger, how many variances it clamped to 0.
The fitted model also gives the closed forms over its own training rows
that evaluation reads. Leave-one-out at frozen hyperparameters is exact
from the one full-data fit (Dubrule 1983, Math. Geology 15(6); Rasmussen &
Williams, GPML 5.4.2): with P = C^-1 - C^-1 F (F' C^-1 F)^-1 F' C^-1, the
held-out residual of row i is (P t)_i / P_ii, and P t is the fit's alpha.
GprModel.held_out_diagonals gives diag(P) and diag(C^-1) from the factor
in O(N + u^3), or O(N + u m^2) when it is low-rank. In-sample predictions
need no solve at all. On the training rows the cross-covariance is
K = C - jitter * sigma_sq * I and C alpha = t - F beta, so the kriging mean
F beta + K alpha is exactly t - jitter * sigma_sq * alpha, with the jitter
the fit actually used: GprModel.fitted_means.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import ConfigError, EvaluationError, FitError

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
_FILL_COLUMNS = 64  # columns of the packed matrix that _factorize fills per block
_LOW_RANK_MIN_ORDER = 256  # fewest distinct inputs of a low-rank cell; a smaller cell is cheap
_LOW_RANK_ALLOWANCE = 0.25  # log-likelihood units: the most rounding a low-rank cell allows
_LOW_RANK_CAP_DIVISOR = 6  # a cell pivots at most u // 6 times, where low-rank costs what dense does

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
class _Dense:
    """C_u = L L', with chol the lower Cholesky factor L in u(u+1)/2 doubles,
    in the packed layout of the module docstring."""

    chol: np.ndarray

    def scaled(self, sigma_sq: float) -> _Dense:
        """The factor of sigma_sq * C_u, made in place."""
        chol = self.chol
        chol *= math.sqrt(sigma_sq)
        return self

    def whiten(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b, overwriting b, a Fortran-ordered array of u rows."""
        return _lapack.tfsm(self.chol, b)

    def whiten_t(self, w: np.ndarray) -> np.ndarray:
        """L^-T w, overwriting w, a Fortran-ordered array of u rows."""
        return _lapack.tfsm(self.chol, w, trans=True)

    def inverse_diagonal(self) -> np.ndarray:
        """diag(C_u^-1), the column sums of squares of L^-1."""
        # L^-1, squared in place, is the one temporary of the factor's size.
        chol_inv = self.chol.copy()
        info = _lapack.tftri(chol_inv)
        if info != 0:
            raise EvaluationError(f"covariance factor is singular (dtftri info {info})")
        np.square(chol_inv, out=chol_inv)
        return _column_sums(chol_inv, (math.isqrt(8 * chol_inv.size + 1) - 1) // 2)


@dataclass(frozen=True, eq=False)
class _LowRank:
    """C_u = G G' + diag(noise) for a u x m G, held as noise and q, the
    (u + m) x m orthonormal factor of [A; I_m], A = diag(noise)^-1/2 G.

    With Q1 the first u rows of q, C_u^-1 = diag(noise)^-1/2 (I - Q1 Q1')
    diag(noise)^-1/2 (Woodbury), so W b = (I - q q') [diag(noise)^-1/2 b; 0]
    has (W a)'(W b) = a' C_u^-1 b: W whitens as L^-1 does, into u + m rows,
    and W' = [diag(noise)^-1/2, 0] (I - q q') takes them back.
    """

    q: np.ndarray
    noise: np.ndarray

    def scaled(self, sigma_sq: float) -> _LowRank:
        """The factor of sigma_sq * C_u: G and the noise scale together, so
        A and q stay."""
        return _LowRank(self.q, self.noise * sigma_sq)

    def whiten(self, b: np.ndarray) -> np.ndarray:
        """W b, for b of u rows."""
        u, q = self.noise.size, self.q
        out = np.zeros((q.shape[0], *b.shape[1:]), order="F")
        np.divide(b.T, np.sqrt(self.noise), out=out[:u].T)
        out -= q @ (q[:u].T @ out[:u])
        return out

    def whiten_t(self, w: np.ndarray) -> np.ndarray:
        """W' w, for w of u + m rows."""
        u, q = self.noise.size, self.q
        projected = w - q @ (q.T @ w)
        return (projected[:u].T / np.sqrt(self.noise)).T

    def inverse_diagonal(self) -> np.ndarray:
        """diag(C_u^-1), (1 - the row sums of squares of Q1) / noise."""
        q1 = self.q[: self.noise.size]
        return (1.0 - np.einsum("ij,ij->i", q1, q1)) / self.noise


@dataclass(frozen=True, eq=False)
class GprModel:
    """Fitted state; immutable after fit and safe to share across threads:
    predict and the methods below read it and never write to it.

    factor, trend_whitened and group_alpha live on the u distinct inputs of
    groups (see the module docstring): factor is the compressed covariance
    C_u = sigma_sq * (R_u + kernel.jitter * diag(1/n_k)), a _Dense Cholesky
    factor, or a _LowRank one when the fit found R_u's numerical rank, and
    group_alpha is Z' alpha, C_u^-1 (ybar - F_u beta). alpha is N-long,
    C^-1 (t - F beta) for the full covariance C. kernel.jitter reflects any
    diagonal escalation applied during fitting.
    """

    training: TrainingSet
    kernel: Kernel
    basis: BasisExpansion
    beta: np.ndarray
    factor: _Dense | _LowRank
    alpha: np.ndarray
    trend_whitened: np.ndarray  # F_u whitened by factor, reused by the variance solves
    trend_r: np.ndarray  # upper QR factor of trend_whitened
    groups: _Groups
    group_alpha: np.ndarray

    def held_out_diagonals(self) -> tuple[np.ndarray, np.ndarray]:
        """(diag(P), diag(C^-1)) over the N training rows (see the module docstring).

        With W the factor's whitening, C_u^-1 = W'W, diag(C_u^-1) comes from
        the factor, and the trend term of diag(P_u) is the row sums of
        squares of W' Q, where Q = trend_whitened trend_r^-1 has orthonormal
        columns. Row i of a group k of n_k rows then has
        P_ii = (1 - 1/n_k) / (sigma_sq*jitter) + (P_u)_kk / n_k^2, and
        diag(C^-1)_ii likewise, so no N x N matrix is formed.
        """
        inv_diag = self.factor.inverse_diagonal()
        q = _lapack.solve_triangular(self.trend_r, self.trend_whitened.T, lower=False, trans=True)
        trend = self.factor.whiten_t(np.asfortranarray(q.T))
        p_diag = inv_diag - np.einsum("ij,ij->i", trend, trend)
        groups = self.groups
        if groups.tied:
            within = (1.0 - 1.0 / groups.counts) / (self.kernel.sigma_sq * self.kernel.jitter)
            squares = groups.counts**2
            inv_diag = (within + inv_diag / squares)[groups.index]
            p_diag = (within + p_diag / squares)[groups.index]
        return p_diag, inv_diag

    def fitted_means(self) -> np.ndarray:
        """Each training row's kriging mean, t - jitter * sigma_sq * alpha
        (see the module docstring)."""
        kernel = self.kernel
        return self.training.targets - (kernel.jitter * kernel.sigma_sq) * self.alpha


def _scaled_distances(
    a: np.ndarray, b: np.ndarray, theta: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """D[j, k] = sum_i (a[j, i] - b[k, i])**2 / theta_i, points as rows,
    written into out when given.

    The only code that forms coordinate differences but the pivot step of
    _partial_cholesky, which does the same operations on one column. It sums dimension
    by dimension, so it holds no N x N x d temporary, and on one dimension
    it needs no buffer but out.
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
    # A distance that overflows at a tiny theta has the intended exp(-inf) = 0.
    with np.errstate(over="ignore"):
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


def _packed(packed: np.ndarray, n: int) -> tuple[np.ndarray, int, int]:
    """(A, h, e): packed, an n x n lower triangle in the layout of the
    module docstring, as the Fortran-ordered (n + e) x h matrix A it is."""
    h, e = n - n // 2, 1 - n % 2
    return packed.reshape(n + e, h, order="F"), h, e


def _diagonal(n: int) -> np.ndarray:
    """The positions in packed storage of an n x n triangle's diagonal, in order."""
    h, e = n - n // 2, 1 - n % 2
    step = n + e + 1
    return np.concatenate([e + step * np.arange(h), (1 - e) * (n + e) + step * np.arange(n - h)])


def _staircase(a: np.ndarray, e: int, j0: int):
    """(j1, above, lower) for the block of up to _FILL_COLUMNS columns
    j0:j1 of A (see _packed): its rows above the staircase, all from L's
    last columns, and its rows from e + j0 down, all from L's first columns
    but the strict upper triangle of their leading square, which the
    staircase crosses."""
    j1 = min(j0 + _FILL_COLUMNS, a.shape[1])
    block = a[:, j0:j1]
    return j1, block[: e + j0], block[e + j0 :]


def _column_sums(packed: np.ndarray, n: int) -> np.ndarray:
    """The column sums of the n x n lower triangle that packed holds."""
    a, h, e = _packed(packed, n)
    first = np.empty(h)
    last = np.zeros(h + e)  # by row of A; the first n - h rows hold L's last columns
    for j0 in range(0, h, _FILL_COLUMNS):
        j1, above, lower = _staircase(a, e, j0)
        strip = lower[: j1 - j0]
        tril = np.tril(strip)
        first[j0:j1] = lower[j1 - j0 :].sum(axis=0) + tril.sum(axis=0)
        last[: e + j0] += above.sum(axis=1)
        last[e + j0 : e + j1] += (strip - tril).sum(axis=1)
    return np.concatenate([first, last[: n - h]])


def _factorize(packed: np.ndarray, groups: _Groups, theta: np.ndarray, jitter: float) -> float:
    """Factorize R_u + jitter*diag(1/n_k) in place in packed, escalating
    jitter x10 up to MAX_JITTER; returns the jitter used.

    R_u is correlation(groups.inputs, groups.inputs, theta), n_k are
    groups.counts and packed holds u(u+1)/2 doubles, the lower triangle in
    the layout of the module docstring; with no repeated input the matrix
    is R + jitter*I. Each rung fills it straight from the inputs, one
    _staircase block at a time and one distance block per part: the rows
    above, the lower rows whole, then the strict upper triangle of the
    strip. No distance matrix is held, every rung rebuilds R_u from
    scratch, and the entries are those of correlation bit for bit. It then
    adds jitter/n_k to the diagonal and lets LAPACK dpftrf overwrite the
    triangle with its factor. On a tied panel (u < N) R + 0*I is singular
    and the likelihood's (N - u) log(jitter) term -inf, so there every rung
    must factorize R_u + jitter*diag(1/n_k) with jitter > 0: a ladder given
    jitter 0 starts at DEFAULT_JITTER.
    """
    n = groups.counts.size
    a, h, e = _packed(packed, n)
    diag = _diagonal(n)
    inputs = groups.inputs
    neg_theta = -np.asarray(theta, dtype=float)  # exactly -D, as in correlation
    above_diagonal = ~np.tri(_FILL_COLUMNS - 1, _FILL_COLUMNS, dtype=bool)
    scratch = packed[: (n + e) * min(h, _FILL_COLUMNS)]  # the first block's columns
    if jitter == 0.0 and groups.tied:
        jitter = DEFAULT_JITTER
    while True:
        # Each part of a later block is built contiguously, transposed, in
        # the first block's columns, which no later block covers, and
        # exponentiated into place. The first block goes last, in place but
        # for its strip's upper triangle.
        for j0 in [*range(_FILL_COLUMNS, h, _FILL_COLUMNS), 0]:
            j1, above, lower = _staircase(a, e, j0)
            last = inputs[h + e - 1 + j0 : h + e - 1 + j1]  # L's columns held above
            upper = above_diagonal[: j1 - j0 - 1, : j1 - j0].T
            for out, rows, cols, where in (
                (above, inputs[h : h + e + j0], last, True),
                (lower, inputs[j0:], inputs[j0:j1], True),
                (lower[: j1 - j0 - 1], inputs[h + e + j0 : h + e + j1 - 1], last, upper),
            ):
                if j0 > 0:
                    block = scratch[: out.size].reshape(out.shape[::-1])
                else:
                    block = out.T if where is True else np.empty(out.shape[::-1])
                _scaled_distances(cols, rows, neg_theta, out=block)
                np.exp(block, out=out.T, where=where)
        packed[diag] += jitter / groups.counts
        info = _lapack.pftrf(packed)
        if info == 0:
            return jitter
        if info < 0:
            raise ValueError(f"dpftrf rejected argument {-info}")
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


def _gls(factor: _Dense | _LowRank, design: np.ndarray, targets: np.ndarray):
    """Generalized least squares through the system whitened by factor.

    Returns (whitened design, its upper QR factor, coefficients, whitened
    residual). Raises FitError when the whitened design is rank deficient.
    """
    # One solve for both: dtfsm on a lone right-hand side costs about as
    # much as on several.
    p = design.shape[1]
    whitened = np.empty((design.shape[0], p + 1), order="F")
    whitened[:, :p] = design
    whitened[:, p] = targets
    whitened = factor.whiten(whitened)
    ft, yt = whitened[:, :p], whitened[:, p]
    q, r_qr = np.linalg.qr(ft)
    _require_full_rank(np.diag(r_qr), ft.shape)
    beta = _lapack.solve_triangular(r_qr, q.T @ yt, lower=False)
    rho = yt - ft @ beta
    return ft, r_qr, beta, rho


def _require_full_rank(diag: np.ndarray, shape: tuple[int, int]) -> None:
    """FitError unless diag, the diagonal of the upper QR factor of a whitened
    design of that shape, clears rounding."""
    diag = np.abs(diag)
    tol = max(shape) * np.finfo(float).eps * diag.max()
    if diag.size < shape[1] or diag.min() <= tol:
        raise FitError("trend system is singular (collinear or duplicate basis functions)")


def _likelihood(groups: _Groups, jitter: float, quad: float, logdet: float):
    """(loglik, sigma_sq) of the N-row panel from quad, the GLS quadratic
    form of the group means against R_u + jitter*diag(1/n_k), and logdet,
    that matrix's log-determinant, with the process variance profiled out:
    sigma_sq = quad / N, floored so the likelihood stays finite on
    zero-residual data. On a tied panel the log-determinant of R + jitter*I
    gains sum(log n_k) + (N - u) log(jitter) and the quadratic form
    r'r / jitter, r the residual within the groups.
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
    """_likelihood with the trend at its GLS value, from chol, the packed
    lower factor of R_u + jitter*diag(1/n_k), and design, F_u; GLS runs on
    the group means. Raises FitError when the whitened design is rank
    deficient.
    """
    _, _, _, rho = _gls(_Dense(chol), design, groups.means)
    logdet = 2.0 * float(np.sum(np.log(chol[_diagonal(groups.counts.size)])))
    return _likelihood(groups, jitter, float(rho @ rho), logdet)


def _rounding_allowance(groups: _Groups, jitter: float) -> float:
    """How far rounding may move a dense cell's log-likelihood:
    (N + u) u**2 eps / lam, lam = jitter / max(n_k) the smallest entry of
    jitter*diag(1/n_k); inf at jitter 0.

    A computed Cholesky factor L is exact for a matrix within
    (u + 1) eps |L||L'| of the one factorized (Higham 2002, Thm 10.3),
    whose 2-norm is at most about u**2 eps, as the diagonal of R_u is 1.
    Against the smallest eigenvalue, at least lam, that moves the quadratic
    form by a fraction u**2 eps / lam and the log-determinant by u times
    as much; the likelihood weights the first by N/2 and the second by 1/2.
    """
    lam = jitter / float(groups.counts.max())
    if lam == 0.0:
        return math.inf
    n, u = groups.index.size, groups.counts.size
    # Python floats: numpy's IEEE arithmetic, and inf at a tiny jitter with no warning.
    return (n + u) * u * u * sys.float_info.epsilon / lam


def _low_rank_applies(groups: _Groups, jitter: float) -> bool:
    """Whether a cell may be low-rank: at least _LOW_RANK_MIN_ORDER distinct
    inputs, and a _rounding_allowance below _LOW_RANK_ALLOWANCE.

    A low-rank cell leaves out E = R_u - GG', whose trace t is at most
    u**2 eps (see _partial_cholesky). With lam as in _rounding_allowance,
    R_u + jitter*diag(1/n_k) then lies between C and (1 + t/lam) C, so the
    log-determinant moves by at most t/lam and the quadratic form by a
    fraction t/lam: the likelihood by at most (N + 1) t / (2 lam), which is
    below the dense factor's own allowance. Under this gate t/lam, at most
    u**2 eps / lam, is below _LOW_RANK_ALLOWANCE / (N + u): 5.7e-6 on 1600
    rows at jitter 1e-4. The default jitter of 1e-10 never meets the gate
    at 256 rows or more.
    """
    return (
        groups.counts.size >= _LOW_RANK_MIN_ORDER
        and _rounding_allowance(groups, jitter) < _LOW_RANK_ALLOWANCE
    )


def _low_rank_work(groups: _Groups, p: int) -> np.ndarray:
    """The work buffer of the low-rank cells, reserved uninitialised at its
    largest size. It is C-ordered, one row per column of the column-major
    matrix work.T, whose cap + p + 1 columns and u + cap rows, with cap =
    u // _LOW_RANK_CAP_DIVISOR, leave room for the least-squares system of
    _low_rank_likelihood at any rank up to the cap, p the trend's basis size.
    A page of it becomes resident only when written, so the rows past the
    largest rank + p + 1 cost address space and no memory."""
    u = groups.counts.size
    cap = u // _LOW_RANK_CAP_DIVISOR
    return np.empty((cap + p + 1, u + cap))


def _partial_cholesky(groups: _Groups, theta: np.ndarray, work: np.ndarray) -> int | None:
    """The rank m of a pivoted partial Cholesky factor G of R_u at theta,
    grown until the largest residual pivot is at most u eps, the default
    tolerance of LAPACK dpstrf, with G in the first m columns and u rows of
    work.T (see _low_rank_work); None when the rank reaches the cap,
    u // _LOW_RANK_CAP_DIVISOR, first.

    G grows one column of R_u at a time, computed from the inputs at the
    pivot (Harbrecht, Peters & Schneider 2012), so nothing u x u is held,
    and only the first m rows of work are written. The residual
    E = R_u - GG' is positive semidefinite and its diagonal, updated at
    each step, ends at most u eps, so its trace is at most u**2 eps.
    Rounding may leave an entry of it below 0; the pivot is the largest,
    above tol > 0, so no such entry is chosen or reaches the square root.
    The stopping rule reads neither the jitter nor the targets.
    """
    u = groups.counts.size
    tol = u * np.finfo(float).eps  # R_u's diagonal is exactly 1
    cap = u // _LOW_RANK_CAP_DIVISOR
    # One contiguous row per coordinate, paired with -theta_i: each pivot
    # column is _scaled_distances' arithmetic, term by term, with none of
    # its checks, and every step below writes into preallocated arrays.
    coords = list(zip(np.ascontiguousarray(groups.inputs.T), -np.asarray(theta, dtype=float)))
    residual = np.ones(u)  # the diagonal of E
    scratch = np.empty(u)
    rank = 0
    # A distance may overflow to -inf at a tiny theta, as in _scaled_distances.
    with np.errstate(over="ignore"):
        while residual[pivot := int(residual.argmax())] > tol:
            if rank == cap:
                return None
            column = work[rank, :u]
            for i, (coord, neg_length) in enumerate(coords):
                target = column if i == 0 else scratch
                np.subtract(coord, coord[pivot], out=target)
                np.square(target, out=target)
                target /= neg_length
                if i > 0:
                    column += scratch
            np.exp(column, out=column)
            np.matmul(work[:rank, :u].T, work[:rank, pivot], out=scratch)
            column -= scratch
            column /= math.sqrt(residual[pivot])
            np.multiply(column, column, out=scratch)
            residual -= scratch
            residual[pivot] = 0.0
            rank += 1
    return rank


def _low_rank_likelihood(
    work: np.ndarray, rank: int, groups: _Groups, design: np.ndarray, jitter: float
):
    """_likelihood of C = GG' + Lambda, G the rank columns _partial_cholesky
    left in work.T, which this overwrites, and Lambda = jitter*diag(1/n_k),
    with the trend at its GLS value. Raises FitError when the whitened
    design is rank deficient.

    One QR, in place, of the (u + m) x (m + p + 1) least-squares system
        [Lambda^-1/2 G, Lambda^-1/2 F_u, Lambda^-1/2 ybar; I_m, 0, 0]
    gives both terms: its leading m x m block of R factors I + G' Lambda^-1 G,
    so log det C = log det Lambda + 2 log |det R_m|, its next p diagonal
    entries are the whitened design's, and its last diagonal entry squared
    is the quadratic form,
    min over (z, beta) of |Lambda^-1/2 (ybar - F_u beta - G z)|^2 + |z|^2.
    """
    u, p = groups.counts.size, design.shape[1]
    system = work[: rank + p + 1, : u + rank].T
    system[:u, rank:-1] = design
    system[:u, -1] = groups.means
    _lapack.scale_rows(system[:u], np.sqrt(groups.counts / jitter))
    system[u:] = np.eye(rank, rank + p + 1)
    _lapack.geqrf(system)
    diag = np.diag(system)
    _require_full_rank(diag[rank:-1], (u + rank, p))
    logdet = float(np.sum(np.log(jitter / groups.counts)))
    logdet += 2.0 * float(np.sum(np.log(np.abs(diag[:rank]))))
    return _likelihood(groups, jitter, float(diag[-1]) ** 2, logdet)


def _model_from_factor(
    training: TrainingSet,
    groups: _Groups,
    basis: BasisExpansion,
    design: np.ndarray,
    kernel: Kernel,
    factor: _Dense | _LowRank,
) -> GprModel:
    """The fitted model around factor, that of R_u + kernel.jitter*diag(1/n_k)
    (a dense one is scaled in place).

    Scales factor to the compressed covariance's and solves the trend and
    group_alpha against it. Row i of a group k gets
    alpha_i = r_i / (sigma_sq*jitter) + group_alpha_k / n_k.
    """
    factor = factor.scaled(kernel.sigma_sq)
    ft, r_qr, beta, rho = _gls(factor, design, groups.means)
    group_alpha = factor.whiten_t(rho)
    alpha = group_alpha
    if groups.tied:
        noise = kernel.sigma_sq * kernel.jitter
        alpha = groups.residual / noise + (group_alpha / groups.counts)[groups.index]
    return GprModel(
        training=training,
        kernel=kernel,
        basis=basis,
        beta=beta,
        factor=factor,
        alpha=alpha,
        trend_whitened=ft,
        trend_r=r_qr,
        groups=groups,
        group_alpha=group_alpha,
    )


def _fit(training: TrainingSet, basis: BasisExpansion, thetas, jitter: float, sigma_sq=None):
    """The model of the likeliest cell among thetas, each from jitter up its ladder,
    with sigma_sq, when given, for the profiled one (see fit_hyperparameters)."""
    groups = _group_rows(training)
    design = _trend_design(training, basis, groups)
    u, p = design.shape
    low_rank = _low_rank_applies(groups, jitter)
    work = None  # the low-rank cells' work buffer, reserved by the first that needs it
    buf = None  # the packed buffer of every dense cell, allocated by the first
    held = None  # the last dense cell run, whose factor buf holds if it succeeded
    best = None  # (loglik, sigma_sq, cell, jitter, rank of a low-rank cell or None)
    for i, theta in enumerate(thetas):
        name = f"theta={theta[0]:g}" if (theta == theta[0]).all() else f"theta={theta.tolist()}"
        try:
            if low_rank and work is None:
                work = _low_rank_work(groups, p)
            rank = None if work is None else _partial_cholesky(groups, theta, work)
            if rank is not None:
                used, cell = jitter, _low_rank_likelihood(work, rank, groups, design, jitter)
                logger.debug("%s: low-rank, rank %d", name, rank)
            else:
                work = None  # past the cap: let it go before the packed buffer is held
                if buf is None:
                    buf = np.empty(u * (u + 1) // 2)
                held = i
                used = _factorize(buf, groups, theta, jitter)
                cell = _profile_log_likelihood(buf, groups, design, used)
                logger.debug("%s: dense", name)
        except FitError as exc:
            logger.debug("skipping %s: %s", name, exc)
            failure = exc
            continue
        if best is None or cell[0] > best[0]:
            best = (*cell, i, used, rank)
    if best is None:
        reason = f"every candidate failed; {name}: {failure}"
        raise FitError(f"no admissible theta grid cell: {reason}") from failure
    _, profiled, i, jitter, rank = best
    sigma_sq = profiled if sigma_sq is None else sigma_sq
    kernel = Kernel(sigma_sq=sigma_sq, theta=thetas[i], jitter=jitter)
    if rank is not None:
        buf = None  # no dense cell won: let its buffer go before the factor is formed
        # The cells' QRs overwrote G, and a later cell past the cap may have
        # let the buffer go: pivot again, to the same rank, and form the
        # orthonormal factor in G's columns, copied out.
        work = _low_rank_work(groups, p) if work is None else work
        _partial_cholesky(groups, kernel.theta, work)
        stacked = work[:rank, : u + rank].T
        _lapack.scale_rows(stacked[:u], np.sqrt(groups.counts / jitter))
        stacked[u:] = np.eye(rank)
        _lapack.orgqr(stacked, _lapack.geqrf(stacked))
        factor = _LowRank(q=np.array(stacked, order="F"), noise=jitter / groups.counts)
        work = stacked = None  # copied out: let the buffer go before the model is formed
    else:
        work = None  # no low-rank cell won: let its buffer go before the factor is formed
        if held != i:
            _factorize(buf, groups, kernel.theta, jitter)
        factor = _Dense(buf)
    return _model_from_factor(training, groups, basis, design, kernel, factor)


def fit(training: TrainingSet, basis: BasisExpansion, kernel: Kernel) -> GprModel:
    """Fit trend coefficients and process state for the given kernel.

    Solves (F' C^-1 F) beta = F' C^-1 t against the jitter-regularized
    covariance, then precomputes alpha = C^-1 (t - F beta) for prediction.
    It is the search at the one cell kernel.theta, with kernel.sigma_sq for
    the profiled variance, so its factor is low-rank or dense as that cell's
    is, and a FitError is the cell's own. The returned model records the
    jitter actually used, including any escalation the ladder needed.
    """
    try:
        return _fit(training, basis, [kernel.theta], kernel.jitter, kernel.sigma_sq)
    except FitError as exc:
        raise (exc.__cause__ or exc) from None


def predict(model: GprModel, x_new: np.ndarray) -> Prediction:
    """Posterior mean and variance at one point (1-d x_new) or at each row
    of an (M, d) batch.

    With K the N x M cross-covariance and F(X) the batch's design rows,
    mean = F(X) beta + K' alpha and variance = kappa - diag(K' C^-1 K) plus
    the trend-uncertainty term diag(U' (F' C^-1 F)^-1 U) with
    U = F(X)' - F' C^-1 K. K = Z K_u repeats the cross-covariance K_u to
    the u distinct inputs, and Z' C^-1 Z = C_u^-1, so every term is over
    those: K' alpha = K_u' group_alpha, and all M points share one
    whitening of K_u by the model's factor, a triangular solve when it is
    dense (Rasmussen & Williams, GPML Alg. 2.1).
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
        # OpenBLAS solves a lone right-hand side of the trend factor with
        # trsv, which rounds differently from trsm; a duplicate row keeps one
        # point on the batch arithmetic.
        x = np.repeat(x, 2, axis=0)
    design = model.basis.design_matrix(x)
    # M x N, so that its transpose is the Fortran-ordered right-hand side
    # the triangular solve overwrites without a copy.
    k_t = correlation(x, model.groups.inputs, model.kernel.theta)
    k_t *= model.kernel.sigma_sq
    # The per-point sums below are einsums over contiguous rows, not BLAS
    # matrix-vector products, so each runs in the same order whatever M is.
    mean = design @ model.beta + np.einsum("ij,j->i", k_t, model.group_alpha)
    v_t = model.factor.whiten(k_t.T).T
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

    For each grid theta the process variance is profiled out in closed form.
    Where _low_rank_applies (at least _LOW_RANK_MIN_ORDER distinct inputs,
    and a jitter for which _rounding_allowance is below _LOW_RANK_ALLOWANCE:
    never jitter 0, nor the default 1e-10 on a few hundred rows), each cell
    first runs _partial_cholesky, and a cell that reaches numerical rank
    within u // 6 pivots takes its likelihood from _low_rank_likelihood.
    Every other cell is factorized by _factorize, into the one packed
    buffer, and takes it from _profile_log_likelihood. The search logs one
    line per cell at DEBUG: "theta=...: low-rank, rank m" or
    "theta=...: dense".

    The winner is the cell with the largest likelihood, in ascending theta
    order, and only a strictly larger likelihood replaces the incumbent, so
    ties resolve toward the smallest theta and then the smallest sigma_sq.
    Every low-rank cell pivots in the one work buffer of _low_rank_work,
    reserved by the first cell that needs it and let go by any cell past
    the cap, and its QR overwrites G there, so a low-rank winner runs its
    pivots again, O(u m^2), to the same rank, in the buffer reserved anew
    if it was let go, and forms its orthonormal factor. A dense winner's
    factor becomes the model's if it was the last dense cell run, and is
    otherwise factorized again at the jitter it used, which rebuilds the
    same matrix and so the same bits. The model's kernel carries that
    jitter. fit is
    this search at the one cell model.kernel.theta (both are _fit), so
    fit(training, basis, model.kernel) repeats the winner's cell and equals
    the model bit for bit by construction, wherever _low_rank_applies reads
    the winner's jitter as it read the search's. A FitError in a cell skips
    it, with its reason at DEBUG, and when every cell fails the FitError
    names the last one's reason; any other error stops the scan and
    propagates.
    """
    grid = [np.full(training.ndim, value) for value in search.grid()]
    return _fit(training, basis, grid, search.jitter)
