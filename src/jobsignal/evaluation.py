"""Leave-one-out evaluation of the regression over the panel.

Hyperparameters are selected once on the full panel and held fixed; each
row is then predicted by the model fitted on all other rows. That
prediction is computed exactly in closed form from the one full-data fit
(Dubrule 1983, Math. Geology 15(6); Rasmussen & Williams, GPML 5.4.2):
with P = C^-1 - C^-1 F (F' C^-1 F)^-1 F' C^-1, the held-out residual of
row i is (P t)_i / P_ii, and P t is the fit's alpha. Frozen hyperparameters
include the jitter: if the full-data factorization had to escalate it,
every fold uses the escalated value, and the report records it.

The report carries the correlation rate (Pearson correlation of actual vs
predicted), RMSE, and RAE (sum of absolute errors relative to the
mean-predictor baseline), in either prediction direction.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtri

from . import gpr
from .errors import EvaluationError, FitError, ParseError
from .pipeline import PanelDataset

__all__ = [
    "Direction",
    "split_panel",
    "EvaluationReport",
    "correlation_rate",
    "evaluate",
    "evaluate_model",
    "format_report",
    "rae",
    "report_from_dict",
    "report_to_dict",
    "rmse",
    "load_report",
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

    @classmethod
    def from_flag(cls, text: str) -> "Direction":
        try:
            return cls(text.replace("-", "_"))
        except ValueError:
            raise ValueError(
                f"unknown direction {text!r}; use score-to-rate or rate-to-score"
            ) from None

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
    return float(da @ dp) / math.sqrt(denom_sq)


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


def _loo_pairs(model: gpr.GprModel, labels) -> list[tuple[float, float]]:
    """(actual, predicted) per row, each predicted by the fit without that row.

    With C = L L', diag(C^-1) is the row sums of squares of L^-T, and the
    trend term of diag(P) is the row sums of squares of L^-T Q, where
    Q = trend_whitened trend_r^-1 has orthonormal columns.
    """
    # L^-T is the one N x N temporary. dtrtri leaves the strict lower triangle
    # as it finds it, and L' has zeros there, so whole-row sums are valid.
    chol_inv_t, info = dtrtri(model.chol.T, lower=0)
    if info != 0:
        raise EvaluationError(f"covariance factor is singular (dtrtri info {info})")
    q = solve_triangular(model.trend_r, model.trend_whitened.T, trans="T", lower=False).T
    trend = chol_inv_t @ q
    inv_diag = np.einsum("ij,ij->i", chol_inv_t, chol_inv_t)
    p_diag = inv_diag - np.einsum("ij,ij->i", trend, trend)
    degenerate = ~np.isfinite(p_diag) | (p_diag <= FOLD_RTOL * inv_diag)
    if degenerate.any():
        i = int(np.argmax(degenerate))
        raise EvaluationError(
            f"fold {i} ({labels[i]}) failed: held-out trend system is singular "
            f"(P_ii = {p_diag[i]:.3g}, diag(C^-1)_ii = {inv_diag[i]:.3g})"
        )
    targets = model.training.targets
    predicted = targets - model.alpha / p_diag
    return list(zip(targets.tolist(), predicted.tolist()))


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
    """Select hyperparameters on the panel, fit once, and score the fit.

    in_sample=True scores the full-data fit on its own training rows
    instead of leave-one-out predictions.
    """
    _require_rows(panel.n)
    inputs, targets = split_panel(panel, direction)
    training = gpr.TrainingSet(inputs=inputs, targets=targets)
    kernel = gpr.fit_hyperparameters(training, basis, search)
    try:
        model = gpr.fit(training, basis, kernel)
    except FitError as exc:
        protocol = "in-sample" if in_sample else "full-data"
        raise EvaluationError(f"{protocol} fit failed: {exc}") from exc
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
    """
    _require_rows(panel.n)
    if in_sample:
        training = model.training
        pairs = [
            (float(t), gpr.predict(model, x).mean)
            for x, t in zip(training.inputs, training.targets)
        ]
    else:
        pairs = _loo_pairs(model, [row.url for row in panel.rows])
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


def report_to_dict(report: EvaluationReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "direction": report.direction.value,
        "n": report.n,
        "correlation_rate": report.correlation_rate,
        "rmse": report.rmse,
        "rae": report.rae,
        "kernel": {
            "sigma_sq": float(report.kernel.sigma_sq),
            "theta": report.kernel.theta.tolist(),
            "jitter": float(report.kernel.jitter),
        },
        "basis": report.basis.degree,
        "in_sample": report.in_sample,
        "per_fold": [[actual, predicted] for actual, predicted in report.per_fold],
    }


def report_from_dict(payload: dict) -> EvaluationReport:
    if not isinstance(payload, dict) or payload.get("schema") != REPORT_SCHEMA:
        raise ParseError(f"unsupported report document (expected schema {REPORT_SCHEMA!r})")
    try:
        kern = payload["kernel"]
        return EvaluationReport(
            direction=Direction(payload["direction"]),
            n=int(payload["n"]),
            correlation_rate=float(payload["correlation_rate"]),
            rmse=float(payload["rmse"]),
            rae=float(payload["rae"]),
            kernel=gpr.Kernel(
                sigma_sq=kern["sigma_sq"],
                theta=np.asarray(kern["theta"]),
                jitter=kern["jitter"],
            ),
            basis=gpr.BasisExpansion(payload["basis"]),
            in_sample=bool(payload["in_sample"]),
            per_fold=tuple((float(a), float(p)) for a, p in payload["per_fold"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed report document: {exc}") from exc


def save_report(report: EvaluationReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


def load_report(path) -> EvaluationReport:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ParseError(f"report file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"report file is not valid JSON: {exc}") from exc
    return report_from_dict(payload)


def format_report(report: EvaluationReport) -> str:
    lines = [
        ("Prediction direction", report.direction.flag()),
        ("Validation", "in-sample" if report.in_sample else "leave-one-out"),
        ("Observations", str(report.n)),
        ("Correlation rate", f"{report.correlation_rate * 100:.2f}%"),
        ("RMSE", f"{report.rmse:.4f}"),
        ("RAE", f"{report.rae:.4f}"),
    ]
    width = max(len(label) for label, _ in lines)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in lines)
