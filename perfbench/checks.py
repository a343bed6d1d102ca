"""Output checks of the jobsignal benchmark, run outside the timed region.

A report passes when it is schema-valid with the expected row count, its
metrics recompute from its own per_fold pairs, a few leave-one-out folds
refit directly on their n-1 rows agree with per_fold, and in-sample
predictions agree with a dense-solve kriging mean computed here (LU, not
the program's Cholesky).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.linalg import lu_factor, lu_solve

REPORT_SCHEMA = "evaluation-report/1"
REPORT_KEYS = {
    "schema",
    "direction",
    "n",
    "correlation_rate",
    "rmse",
    "rae",
    "kernel",
    "basis",
    "in_sample",
    "per_fold",
}

# Prediction agreement, relative to the targets' standard deviation. An
# algebraically equal leave-one-out (closed form against refits) agrees to
# <= 3e-9 at jitter 1e-4; an LOO that is wrong misses by the noise scale.
PREDICTION_RTOL = 1e-6
METRIC_RTOL = 1e-9
FOLDS_CHECKED = 4


class CheckError(Exception):
    """An output of the program is wrong."""


def read_panel(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(scores, rates) of a panel CSV's bytes, in file order."""
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"), newline="")))
    if not rows:
        raise CheckError("panel has no rows")
    return (
        np.array([float(r["score"]) for r in rows]),
        np.array([float(r["unemployment_rate"]) for r in rows]),
    )


def split(panel: tuple[np.ndarray, np.ndarray], direction: str) -> tuple[np.ndarray, np.ndarray]:
    """(inputs as an N x 1 array, targets) for a report direction."""
    scores, rates = panel
    if direction == "score_to_rate":
        return scores.reshape(-1, 1), rates
    return rates.reshape(-1, 1), scores


def load_report(data: bytes, *, n: int, direction: str, in_sample: bool, jitter: float) -> dict:
    """Parse report.json's bytes and check its schema and the expected verdict shape."""
    report = json.loads(data)
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        raise CheckError(f"report is not an object with keys {sorted(REPORT_KEYS)}")
    expected = {
        "schema": REPORT_SCHEMA,
        "direction": direction,
        "n": n,
        "basis": "const",
        "in_sample": in_sample,
    }
    for key, value in expected.items():
        if report[key] != value:
            raise CheckError(f"report {key} is {report[key]!r}, expected {value!r}")
    kernel = report["kernel"]
    if set(kernel) != {"sigma_sq", "theta", "jitter"} or kernel["jitter"] != jitter:
        raise CheckError(f"report kernel is {kernel!r}, expected jitter {jitter!r}")
    values = [kernel["sigma_sq"], *kernel["theta"], report["correlation_rate"], report["rmse"], report["rae"]]
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        raise CheckError("report has a non-finite or non-float kernel or metric")
    pairs = report["per_fold"]
    if len(pairs) != n or not all(len(p) == 2 for p in pairs):
        raise CheckError(f"report per_fold has {len(pairs)} entries, expected {n} pairs")
    return report


def check_actuals(report: dict, targets: np.ndarray) -> None:
    actual = np.array([a for a, _ in report["per_fold"]])
    if not np.array_equal(actual, targets):
        raise CheckError("per_fold actual values are not the panel targets in panel order")


def check_metrics(report: dict) -> None:
    """The report's metrics recompute from its per_fold pairs."""
    pairs = np.array(report["per_fold"], dtype=float)
    actual, predicted = pairs[:, 0], pairs[:, 1]
    da, dp = actual - actual.mean(), predicted - predicted.mean()
    expected = {
        "correlation_rate": float(da @ dp) / math.sqrt(float(da @ da) * float(dp @ dp)),
        "rmse": math.sqrt(float(np.mean((predicted - actual) ** 2))),
        "rae": float(np.abs(predicted - actual).sum()) / float(np.abs(da).sum()),
    }
    for key, value in expected.items():
        if not math.isclose(report[key], value, rel_tol=METRIC_RTOL, abs_tol=METRIC_RTOL):
            raise CheckError(f"{key} is {report[key]!r}, per_fold gives {value!r}")


def _tolerance(targets: np.ndarray) -> float:
    return PREDICTION_RTOL * float(np.std(targets))


def check_folds(gpr, report: dict, inputs: np.ndarray, targets: np.ndarray, folds) -> None:
    """Refit each fold on its n-1 rows with the report's kernel; the held-out
    prediction must match per_fold."""
    k = report["kernel"]
    kernel = gpr.Kernel(sigma_sq=k["sigma_sq"], theta=np.asarray(k["theta"]), jitter=k["jitter"])
    basis = gpr.BasisExpansion(report["basis"])
    tol = _tolerance(targets)
    for i in folds:
        keep = np.arange(targets.size) != i
        model = gpr.fit(gpr.TrainingSet(inputs=inputs[keep], targets=targets[keep]), basis, kernel)
        expected = gpr.predict(model, inputs[i]).mean
        got = report["per_fold"][i][1]
        if not abs(got - expected) <= tol:
            raise CheckError(f"fold {i}: per_fold predicts {got!r}, refit gives {expected!r} (tol {tol:.3g})")


def correlation(a: np.ndarray, b: np.ndarray, theta: np.ndarray) -> np.ndarray:
    sq = (((a[:, None, :] - b[None, :, :]) ** 2) / theta).sum(axis=-1)
    return np.exp(-sq)


def kriging_mean(inputs, targets, x_eval, sigma_sq: float, theta, jitter: float) -> np.ndarray:
    """Universal-kriging mean with a constant trend, by dense LU solves."""
    theta = np.asarray(theta, dtype=float)
    cov = sigma_sq * correlation(inputs, inputs, theta)
    cov[np.diag_indices_from(cov)] += jitter * sigma_sq
    lu = lu_factor(cov)
    ones = np.ones(targets.size)
    ci_t, ci_1 = lu_solve(lu, targets), lu_solve(lu, ones)
    beta = float(ones @ ci_t) / float(ones @ ci_1)
    weights = lu_solve(lu, targets - beta)
    return beta + sigma_sq * correlation(x_eval, inputs, theta) @ weights


def check_in_sample(report: dict, inputs: np.ndarray, targets: np.ndarray) -> None:
    k = report["kernel"]
    expected = kriging_mean(inputs, targets, inputs, k["sigma_sq"], k["theta"], k["jitter"])
    got = np.array([p for _, p in report["per_fold"]])
    worst = int(np.argmax(np.abs(got - expected)))
    tol = _tolerance(targets)
    if not abs(got[worst] - expected[worst]) <= tol:
        raise CheckError(
            f"in-sample row {worst}: report predicts {got[worst]!r}, dense kriging gives {expected[worst]!r} (tol {tol:.3g})"
        )


def check_report(gpr, report: dict, panel, rng) -> None:
    """Every content check on a report parsed by load_report."""
    inputs, targets = split(panel, report["direction"])
    check_actuals(report, targets)
    check_metrics(report)
    if report["in_sample"]:
        check_in_sample(report, inputs, targets)
    else:
        folds = sorted(rng.sample(range(targets.size), FOLDS_CHECKED))
        check_folds(gpr, report, inputs, targets, folds)
