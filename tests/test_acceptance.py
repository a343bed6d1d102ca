"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test registers a PASS/FAIL line that pytest prints in its terminal
summary (section "acceptance criteria")."""

import json
import math
import time

import numpy as np

from jobsignal import (
    BasisExpansion,
    Kernel,
    SearchConfig,
    TrainingSet,
    correlation_rate,
    evaluate,
    fit,
    fit_hyperparameters,
    ingest_sites,
    listwise_delete,
    predict,
    rae,
    rmse,
)
from jobsignal.cli import main
from jobsignal.datasets import bundled_sites_path
from jobsignal.gpr import correlation
from jobsignal.pipeline import read_panel_csv

from conftest import record_acceptance, separated_inputs
from oracle_gpr import dense_gpr_predict


def read_report(path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check(criterion: str, passed: bool, detail: str = ""):
    record_acceptance(criterion, passed, detail)
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        theta = rng.uniform(0.1, 10.0, size=d)
        inputs = separated_inputs(rng, n, d, theta)
        targets = rng.normal(size=n)
        kernel = Kernel(sigma_sq=float(rng.uniform(0.5, 2.0)), theta=theta, jitter=1e-10)
        model = fit(TrainingSet(inputs=inputs, targets=targets), BasisExpansion("const"), kernel)
        span = inputs.max(axis=0) - inputs.min(axis=0)
        x_new = inputs.min(axis=0) + rng.uniform(-0.2, 1.2, size=d) * span
        prediction = predict(model, x_new)
        mean, variance = dense_gpr_predict(
            inputs, targets, x_new, kernel.sigma_sq, theta, model.kernel.jitter, "const"
        )
        worst = max(worst, abs(prediction.mean - mean), abs(prediction.variance - max(variance, 0.0)))
    elapsed = time.perf_counter() - start
    check(
        "1 GPR oracle equivalence (100 instances, 1e-8 abs)",
        worst <= 1e-8 and elapsed < 10.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_interpolation():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_mean = 0.0
    worst_var_ratio = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 3))
        theta = rng.uniform(0.3, 5.0, size=d)
        inputs = separated_inputs(rng, n, d, theta)
        targets = rng.normal(size=n)
        kernel = Kernel(sigma_sq=float(rng.uniform(0.5, 2.0)), theta=theta, jitter=1e-10)
        model = fit(TrainingSet(inputs=inputs, targets=targets), BasisExpansion("const"), kernel)
        assert model.kernel.jitter <= 1e-10
        for x, t in zip(inputs, targets):
            prediction = predict(model, x)
            worst_mean = max(worst_mean, abs(prediction.mean - t))
            worst_var_ratio = max(worst_var_ratio, prediction.variance / kernel.sigma_sq)
    elapsed = time.perf_counter() - start
    check(
        "2 interpolation at training inputs (1e-6)",
        worst_mean <= 1e-6 and worst_var_ratio <= 1e-6 and elapsed < 5.0,
        f"max |mean-t| {worst_mean:.2e}, max var/sigma_sq {worst_var_ratio:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_kernel_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    min_eig = np.inf
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        d = int(rng.integers(1, 5))
        kernel = Kernel(
            sigma_sq=float(rng.uniform(0.5, 2.0)),
            theta=rng.uniform(0.1, 10.0, size=d),
            jitter=1e-10,
        )
        # Dyadic coordinates so that shifted differences stay bit-exact.
        points = rng.integers(-256, 256, size=(n, d)) / 64.0
        shift = rng.integers(-64, 64, size=d) / 64.0
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        forward = correlation(points[i], points[j], kernel.theta)[0, 0]
        ok &= forward == correlation(points[j], points[i], kernel.theta)[0, 0]
        ok &= 0.0 < forward <= 1.0
        ok &= correlation(points[i] + shift, points[j] + shift, kernel.theta)[0, 0] == forward
        corr = correlation(points, points, kernel.theta)
        reg = kernel.sigma_sq * corr + kernel.jitter * kernel.sigma_sq * np.eye(n)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(reg).min()))
    elapsed = time.perf_counter() - start
    check(
        "3 kernel symmetry/range/stationarity/PSD (1000 point sets)",
        ok and min_eig >= -1e-10 and elapsed < 10.0,
        f"min eigenvalue {min_eig:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_hyperparameter_recovery():
    start = time.perf_counter()
    search = SearchConfig(theta_min=0.1, theta_max=10.0, steps=21)
    grid = search.grid()
    log_step = math.log10(grid[1]) - math.log10(grid[0])
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        inputs = rng.uniform(0.0, 6.0, size=(40, 1))
        corr = np.exp(-((inputs - inputs.T) ** 2) / 1.0)
        chol = np.linalg.cholesky(corr + 1e-10 * np.eye(40))
        targets = chol @ rng.standard_normal(40)
        kernel = fit_hyperparameters(
            TrainingSet(inputs=inputs, targets=targets), BasisExpansion("const"), search
        ).kernel
        if abs(math.log10(kernel.theta[0])) <= log_step + 1e-9:
            hits += 1
    elapsed = time.perf_counter() - start
    check(
        "4 hyperparameter recovery (>= 9/10 seeds within one grid step)",
        hits >= 9 and elapsed < 60.0,
        f"{hits}/10 seeds, {elapsed:.1f}s",
    )


def test_criterion_5_pipeline_counts():
    start = time.perf_counter()
    records = ingest_sites(bundled_sites_path())
    kept, dropped = listwise_delete(records)
    elapsed = time.perf_counter() - start
    check(
        "5 bundled fixture counts (427 -> 382)",
        len(records) == 427 and len(kept) == 382 and dropped == 45 and elapsed < 1.0,
        f"raw {len(records)}, kept {len(kept)}, {elapsed:.2f}s",
    )


def test_criterion_6_metric_hand_checks():
    rmse_value = rmse([(3.0, 0.0), (4.0, 0.0)])
    rmse_ok = abs(rmse_value - math.sqrt(12.5)) <= 1e-12

    actual = np.array([1.0, 4.0, 2.0, 8.0, 5.0])
    baseline_pairs = [(a, actual.mean()) for a in actual]
    rae_ok = abs(rae(baseline_pairs) - 1.0) <= 1e-12

    pearson = correlation_rate(list(zip([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0])))
    pearson_ok = abs(pearson - 0.6) <= 1e-12

    check(
        "6 metric hand checks (rmse, rae baseline, pearson)",
        rmse_ok and rae_ok and pearson_ok,
        f"rmse {rmse_value!r}, rae {rae(baseline_pairs)!r}, pearson {pearson!r}",
    )


def test_criterion_7_end_to_end_recovery(tmp_path):
    start = time.perf_counter()
    coupled = tmp_path / "coupled"
    assert main(["synth", "--n", "20", "--coupling", "1.0", "--noise", "0", "--seed", "0",
                 "--out", str(coupled)]) == 0
    assert main(["evaluate", "--panel", str(coupled / "panel.csv"), "--basis", "linear",
                 "--out", str(coupled)]) == 0
    coupled_report = read_report(coupled / "report.json")

    null = tmp_path / "null"
    assert main(["synth", "--n", "200", "--coupling", "0.0", "--noise", "0", "--seed", "0",
                 "--out", str(null)]) == 0
    assert main(["evaluate", "--panel", str(null / "panel.csv"), "--out", str(null)]) == 0
    null_report = read_report(null / "report.json")

    elapsed = time.perf_counter() - start
    check(
        "7 end-to-end synth recovery (coupled and null panels)",
        coupled_report["correlation_rate"] > 0.999
        and coupled_report["rae"] < 0.01
        and abs(null_report["correlation_rate"]) < 0.4
        and null_report["rae"] >= 0.8
        and elapsed < 30.0,
        f"coupled corr {coupled_report['correlation_rate']:.4f} rae {coupled_report['rae']:.2e}; "
        f"null corr {null_report['correlation_rate']:.4f} rae {null_report['rae']:.3f}; {elapsed:.1f}s",
    )


def test_criterion_8_pipeline_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["pipeline", "--out", str(out1)]) == 0
    assert main(["pipeline", "--out", str(out2)]) == 0
    report_same = (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    panel_same = (out1 / "panel.csv").read_bytes() == (out2 / "panel.csv").read_bytes()
    check(
        "8 pipeline determinism (byte-identical report.json and panel.csv)",
        report_same and panel_same,
        f"report identical: {report_same}, panel identical: {panel_same}",
    )


def test_criterion_9_scale_invariance(tmp_path):
    # Part 1: scaling one raw signal column leaves panel scores unchanged.
    from jobsignal import SiteRecord, normalize_and_score

    records = ingest_sites(bundled_sites_path())
    kept, _ = listwise_delete(records)
    base_scores = np.array([score for _, score in normalize_and_score(kept)])
    scaled_records = [
        SiteRecord(
            url=record.url,
            country_code=record.country_code,
            rank=record.rank,
            trend=record.trend * 1000.0,
            traffic=record.traffic,
        )
        for record in kept
    ]
    scaled_scores = np.array([score for _, score in normalize_and_score(scaled_records)])
    score_dev = float(np.abs(scaled_scores - base_scores).max())

    # Part 2: scaling all rates by c scales rmse by c and fixes corr/rae.
    # c = 4 keeps every float operation exactly scalable end to end.
    c = 4.0
    base_out = tmp_path / "base"
    assert main(["synth", "--n", "40", "--coupling", "0.8", "--noise", "0.2", "--seed", "7",
                 "--out", str(base_out)]) == 0
    panel = read_panel_csv(base_out / "panel.csv")
    scaled_csv = tmp_path / "scaled_panel.csv"
    lines = ["url,country,score,unemployment_rate"]
    for row in panel.rows:
        lines.append(f"{row.url},{row.country_code},{row.score!r},{row.unemployment_rate * c!r}")
    scaled_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")

    assert main(["evaluate", "--panel", str(base_out / "panel.csv"), "--out", str(base_out)]) == 0
    base_report = read_report(base_out / "report.json")
    scaled_out = tmp_path / "scaled"
    assert main(["evaluate", "--panel", str(scaled_csv), "--out", str(scaled_out)]) == 0
    scaled_report = read_report(scaled_out / "report.json")

    corr_dev = abs(scaled_report["correlation_rate"] - base_report["correlation_rate"])
    rae_dev = abs(scaled_report["rae"] - base_report["rae"])
    rmse_dev = abs(scaled_report["rmse"] - c * base_report["rmse"]) / (c * base_report["rmse"])
    check(
        "9 scale invariance (signal column x1000; rates x c)",
        score_dev <= 1e-9 and corr_dev <= 1e-12 and rae_dev <= 1e-12 and rmse_dev <= 1e-12,
        f"score dev {score_dev:.2e}; corr dev {corr_dev:.2e}; rae dev {rae_dev:.2e}; "
        f"rmse rel dev {rmse_dev:.2e}",
    )
