"""Self-test of the benchmark: its checks, its span arithmetic and its contract.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from jobsignal import cli, gpr  # noqa: E402


def test_self_time_is_span_minus_children():
    # cli.main [0, 10] -> pipeline.ingest_sites [1, 2]
    #                  -> evaluation.evaluate [3, 9] -> gpr.fit [4, 6]
    #                                                -> evaluation.rmse [6.5, 7]
    #                                                -> gpr.predict [7, 8.5]
    tree = [
        spans.Span("cli", "main", None, 0.0, 10.0),
        spans.Span("pipeline", "ingest_sites", 0, 1.0, 2.0),
        spans.Span("evaluation", "evaluate", 0, 3.0, 9.0),
        spans.Span("gpr", "fit", 2, 4.0, 6.0),
        spans.Span("evaluation", "rmse", 2, 6.5, 7.0),
        spans.Span("gpr", "predict", 2, 7.0, 8.5),
    ]
    assert spans.self_times(tree) == [3.0, 1.0, 2.0, 2.0, 0.5, 1.5]
    assert spans.layer_self_time(tree, "cli") == 10.0 - 1.0 - 6.0
    evaluate_self = 6.0 - 2.0 - 1.5  # evaluate minus its gpr children
    assert spans.layer_self_time(tree, "evaluation", within=("evaluation", "evaluate")) == evaluate_self
    metrics = spans.layer_metrics(tree, chol_flops=0.0, jitter_escalations=0, variance_clamps=0, rows_dropped=0)
    assert metrics["evaluation.self_s"] == evaluate_self
    assert metrics["evaluation.evaluate_s"] == 6.0
    assert metrics["gpr.fit_s"] == 2.0 and metrics["gpr.fit_calls"] == 1
    assert metrics["pipeline.ingest_s"] == 1.0


def _verdict(tmp_path: Path, name: str, *extra: str) -> tuple[dict, tuple[np.ndarray, np.ndarray]]:
    argv = ["pipeline", "--direction", "rate-to-score", *workloads.MODEL_FLAGS, "--out", str(tmp_path / name), *extra]
    assert cli.main(argv) == 0
    out = tmp_path / name
    n = workloads.BUNDLED_ROWS
    report = checks.load_report(
        (out / "report.json").read_bytes(),
        n=n,
        direction="rate_to_score",
        in_sample="--in-sample" in extra,
        jitter=workloads.JITTER,
    )
    return report, checks.read_panel((out / "panel.csv").read_bytes())


def _closed_form_loo(inputs, targets, kernel: dict) -> np.ndarray:
    """Leave-one-out means from one dense inverse (Dubrule 1983):
    e = P t / diag(P), P = C^-1 - C^-1 F (F' C^-1 F)^-1 F' C^-1."""
    cov = kernel["sigma_sq"] * checks.correlation(inputs, inputs, np.asarray(kernel["theta"]))
    cov[np.diag_indices_from(cov)] += kernel["jitter"] * kernel["sigma_sq"]
    ci = np.linalg.inv(cov)
    ci_f = ci.sum(axis=1, keepdims=True)
    p = ci - ci_f @ ci_f.T / ci_f.sum()
    return targets - (p @ targets) / np.diag(p)


@pytest.fixture(scope="module")
def loo_report(tmp_path_factory):
    return _verdict(tmp_path_factory.mktemp("loo"), "loo")


def test_fold_check_accepts_the_program_and_an_equal_closed_form(loo_report):
    report, panel = loo_report
    inputs, targets = checks.split(panel, report["direction"])
    checks.check_report(gpr, report, panel, random.Random(0))
    # An algebraically equal LOO (tied inputs: 29 distinct rates in 382 rows) passes.
    closed = _closed_form_loo(inputs, targets, report["kernel"])
    swapped = dict(report, per_fold=[[a, float(p)] for (a, _), p in zip(report["per_fold"], closed)])
    checks.check_folds(gpr, swapped, inputs, targets, range(0, targets.size, 10))


def test_fold_check_rejects_a_perturbed_entry(loo_report):
    report, panel = loo_report
    inputs, targets = checks.split(panel, report["direction"])
    fold = 7
    tol = checks.PREDICTION_RTOL * float(np.std(targets))
    per_fold = [list(p) for p in report["per_fold"]]
    per_fold[fold][1] += 2.0 * tol
    with pytest.raises(checks.CheckError, match=f"fold {fold}"):
        checks.check_folds(gpr, dict(report, per_fold=per_fold), inputs, targets, [fold])
    per_fold[fold][1] -= 1.5 * tol
    checks.check_folds(gpr, dict(report, per_fold=per_fold), inputs, targets, [fold])


def test_in_sample_check_matches_dense_kriging_and_rejects_a_perturbation(tmp_path):
    report, panel = _verdict(tmp_path, "in-sample", "--in-sample")
    checks.check_report(gpr, report, panel, random.Random(0))
    inputs, targets = checks.split(panel, report["direction"])
    per_fold = [list(p) for p in report["per_fold"]]
    per_fold[3][1] += 2.0 * checks.PREDICTION_RTOL * float(np.std(targets))
    with pytest.raises(checks.CheckError, match="in-sample row 3"):
        checks.check_in_sample(dict(report, per_fold=per_fold), inputs, targets)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.UNITS
    assert spec["paths"] == [HERE.name]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "synth-loo-500", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
