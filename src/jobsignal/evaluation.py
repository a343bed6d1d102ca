"""Leave-one-out evaluation of the regression over the panel.

Hyperparameters are selected once on the full panel and held fixed; each
row is then predicted by the model fitted on all other rows, exactly, from
the one full-data fit. Frozen hyperparameters include the jitter: if the
full-data factorization had to escalate it, every fold uses the escalated
value, and the report records it. The closed forms over the training rows
are GprModel methods (see jobsignal.gpr); this module does no linear algebra.

The report carries the correlation rate (Pearson correlation of actual vs
predicted), RMSE, and RAE (sum of absolute errors relative to the
mean-predictor baseline), in either prediction direction. This module owns
both report files: save_report writes report.json, and format_report renders
the whole of report.txt, the panel's descriptive statistics above the
metrics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gpr
from ._documents import write_document
from .errors import EvaluationError
from .pipeline import PanelDataset, SiteRecord

__all__ = [
    "Direction",
    "split_panel",
    "EvaluationReport",
    "correlation_rate",
    "evaluate",
    "evaluate_model",
    "format_report",
    "rae",
    "rmse",
    "save_report",
]

REPORT_SCHEMA = "evaluation-report/1"

# A fold is degenerate when P_ii keeps less than this share of diag(C^-1)_i:
# half the digits cancelled, so the held-out trend is singular to working
# precision (a sound fold keeps a share of order one).
FOLD_RTOL = math.sqrt(np.finfo(float).eps)


class Direction(enum.Enum):
    """Which panel column is the input and which is the prediction target."""

    SCORE_TO_RATE = "score_to_rate"
    RATE_TO_SCORE = "rate_to_score"

    def flag(self) -> str:
        return self.value.replace("_", "-")


def split_panel(panel: PanelDataset, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
    scores = panel.scores()
    rates = panel.rates()
    if direction is Direction.SCORE_TO_RATE:
        return scores.reshape(-1, 1), rates
    return rates.reshape(-1, 1), scores


def _as_pairs(values) -> tuple[np.ndarray, np.ndarray]:
    pairs = list(values)
    actual = np.array([float(a) for a, _ in pairs])
    predicted = np.array([float(p) for _, p in pairs])
    return actual, predicted


def correlation_rate(pairs) -> float:
    """Pearson correlation between actual and predicted values."""
    actual, predicted = _as_pairs(pairs)
    if actual.size < 2:
        raise EvaluationError("correlation needs at least two pairs")
    da = actual - actual.mean()
    dp = predicted - predicted.mean()
    denom_sq = float(da @ da) * float(dp @ dp)
    if denom_sq == 0.0:
        raise EvaluationError("correlation undefined: zero variance in actual or predicted values")
    r = float(da @ dp) / math.sqrt(denom_sq)
    # Rounding can carry r past +-1 on affine pairs; a NaN passes through.
    return math.copysign(1.0, r) if abs(r) > 1.0 else r


def rmse(pairs) -> float:
    """Root mean squared prediction error."""
    actual, predicted = _as_pairs(pairs)
    if actual.size == 0:
        raise EvaluationError("rmse needs at least one pair")
    residual = predicted - actual
    return math.sqrt(float(residual @ residual) / actual.size)


def rae(pairs) -> float:
    """Relative absolute error against the mean-predictor baseline.

    1.0 means no better than always predicting the mean of the actuals.
    """
    actual, predicted = _as_pairs(pairs)
    if actual.size < 2:
        raise EvaluationError("rae needs at least two pairs")
    baseline = float(np.abs(actual - actual.mean()).sum())
    if baseline == 0.0:
        raise EvaluationError("rae undefined: all actual values are equal")
    return float(np.abs(predicted - actual).sum()) / baseline


@dataclass(frozen=True)
class EvaluationReport:
    """Cross-validated metrics; per_fold is the (actual, predicted) list the
    metrics recompute from exactly."""

    direction: Direction
    n: int
    correlation_rate: float
    rmse: float
    rae: float
    kernel: gpr.Kernel
    basis: gpr.BasisExpansion
    in_sample: bool
    per_fold: tuple[tuple[float, float], ...]


def _require_rows(n: int) -> None:
    if n < 3:
        raise EvaluationError(f"evaluation needs at least 3 rows, got {n}")


def evaluate(
    panel: PanelDataset,
    direction: Direction,
    basis: gpr.BasisExpansion,
    search: gpr.SearchConfig,
    in_sample: bool = False,
) -> EvaluationReport:
    """Select hyperparameters on the panel, which fits once, and score the fit.

    in_sample=True scores the full-data fit on its own training rows
    instead of leave-one-out predictions.
    """
    _require_rows(panel.n)
    inputs, targets = split_panel(panel, direction)
    model = gpr.fit_hyperparameters(gpr.TrainingSet(inputs=inputs, targets=targets), basis, search)
    return evaluate_model(model, panel, direction, in_sample=in_sample)


def evaluate_model(
    model: gpr.GprModel,
    panel: PanelDataset,
    direction: Direction,
    in_sample: bool = False,
) -> EvaluationReport:
    """Compute all three metrics for a model fitted on the whole panel.

    model must be the fit on split_panel(panel, direction); its kernel,
    with the jitter the fit actually used, is the one the report records.
    Leave-one-out predicts row i as t_i - alpha_i / P_ii (Dubrule 1983) from
    model.held_out_diagonals(), and fails a fold whose P_ii keeps less than
    FOLD_RTOL of diag(C^-1)_ii; in_sample=True reads model.fitted_means().
    """
    _require_rows(panel.n)
    targets = model.training.targets
    if in_sample:
        predicted = model.fitted_means()
    else:
        p_diag, inv_diag = model.held_out_diagonals()
        degenerate = ~np.isfinite(p_diag) | (p_diag <= FOLD_RTOL * inv_diag)
        if degenerate.any():
            i = int(np.argmax(degenerate))
            raise EvaluationError(
                f"fold {i} ({panel.rows[i].url}) failed: held-out trend system is singular "
                f"(P_ii = {p_diag[i]:.3g}, diag(C^-1)_ii = {inv_diag[i]:.3g})"
            )
        predicted = targets - model.alpha / p_diag
    pairs = list(zip(targets.tolist(), predicted.tolist()))
    return EvaluationReport(
        direction=direction,
        n=panel.n,
        correlation_rate=correlation_rate(pairs),
        rmse=rmse(pairs),
        rae=rae(pairs),
        kernel=model.kernel,
        basis=model.basis,
        in_sample=in_sample,
        per_fold=tuple(pairs),
    )


def save_report(report: EvaluationReport, path) -> None:
    kernel = report.kernel
    body = {
        "direction": report.direction.value,
        "n": report.n,
        "correlation_rate": report.correlation_rate,
        "rmse": report.rmse,
        "rae": report.rae,
        "kernel": {
            "sigma_sq": kernel.sigma_sq,
            "theta": kernel.theta.tolist(),
            "jitter": kernel.jitter,
        },
        "basis": report.basis.degree,
        "in_sample": report.in_sample,
        "per_fold": [[actual, predicted] for actual, predicted in report.per_fold],
    }
    write_document(REPORT_SCHEMA, body, path)


def _block(lines: list[tuple[str, str]]) -> str:
    width = max(len(label) for label, _ in lines)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in lines)


def format_report(
    report: EvaluationReport, panel: PanelDataset, complete_sites: Sequence[SiteRecord] = ()
) -> str:
    """The text of report.txt: panel statistics, a blank line, the metrics.

    Rank statistics come from complete_sites, the records that fed the
    panel's scores; without them (panel.csv carries no ranks) they read n/a.
    """
    if panel.n != report.n:
        raise ValueError(f"report of {report.n} rows does not match a panel of {panel.n} rows")
    rates = panel.rates()
    rank_mean = rank_std = "n/a"
    if complete_sites:
        ranks = np.array([float(site.rank) for site in complete_sites])
        rank_mean, rank_std = f"{ranks.mean():.1f}", f"{ranks.std(ddof=1):.1f}"
    panel_lines = [
        ("Number of web sites", str(panel.raw_count)),
        ("Number of web sites after listwise deletion", str(panel.n)),
        ("Average unemployment rate", f"{rates.mean():.4f}"),
        ("Std. deviation of unemployment rate", f"{rates.std(ddof=1):.4f}"),
        ("Average web site ranking", rank_mean),
        ("Std. deviation of web site ranking", rank_std),
    ]
    metric_lines = [
        ("Prediction direction", report.direction.flag()),
        ("Validation", "in-sample" if report.in_sample else "leave-one-out"),
        ("Observations", str(report.n)),
        ("Correlation rate", f"{report.correlation_rate * 100:.2f}%"),
        ("RMSE", f"{report.rmse:.4f}"),
        ("RAE", f"{report.rae:.4f}"),
    ]
    return f"{_block(panel_lines)}\n\n{_block(metric_lines)}\n"
