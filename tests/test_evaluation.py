import json
import math

import numpy as np
import pytest

from jobsignal import (
    BasisExpansion,
    Direction,
    EvaluationError,
    Kernel,
    SearchConfig,
    TrainingSet,
    correlation_rate,
    evaluate,
    fit,
    predict,
    rae,
    rmse,
)
from jobsignal.evaluation import (
    REPORT_SCHEMA,
    evaluate_model,
    fit_panel,
    format_report,
    save_report,
    split_panel,
)
from jobsignal.datasets import bundled_indicators_path, bundled_sites_path
from jobsignal.pipeline import (
    PanelDataset,
    PanelRow,
    build_panel,
    ingest_sites,
    listwise_delete,
    normalize_and_score,
    read_indicators,
)
from jobsignal.synth import RATE_CENTER, RATE_SCALE, synthetic_panel

from conftest import separated_inputs
from oracle_gpr import dense_gpr_predict, refit_loo_predictions


def panel_from(scores, rates):
    rows = tuple(
        PanelRow(
            url=f"s{i:03d}.example.test",
            country_code="ZZ",
            score=float(s),
            unemployment_rate=float(r),
        )
        for i, (s, r) in enumerate(zip(scores, rates))
    )
    return PanelDataset(rows=rows, raw_count=len(rows))


class TestCorrelationRate:
    def test_perfect_agreement(self):
        pairs = [(1.0, 1.0), (2.0, 2.0), (5.0, 5.0)]
        assert correlation_rate(pairs) == 1.0

    def test_perfect_anticorrelation(self):
        pairs = [(-1.0, 1.0), (0.0, 0.0), (1.0, -1.0)]
        assert correlation_rate(pairs) == -1.0

    def test_hand_computed(self):
        pairs = list(zip([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0]))
        assert correlation_rate(pairs) == pytest.approx(0.6, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(EvaluationError, match="zero variance"):
            correlation_rate([(1.0, 2.0), (1.0, 3.0)])
        with pytest.raises(EvaluationError, match="zero variance"):
            correlation_rate([(1.0, 2.0), (3.0, 2.0)])

    def test_needs_two_pairs(self):
        with pytest.raises(EvaluationError, match="two"):
            correlation_rate([(1.0, 1.0)])

    def test_bounded_on_random_inputs(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 30))
            pairs = list(zip(rng.normal(size=n), rng.normal(size=n)))
            try:
                value = correlation_rate(pairs)
            except EvaluationError:
                continue
            assert abs(value) <= 1.0 + 1e-12


class TestRmse:
    def test_zero_residual(self):
        assert rmse([(1.0, 1.0), (2.0, 2.0)]) == 0.0

    def test_hand_computed(self):
        assert rmse([(3.0, 0.0), (4.0, 0.0)]) == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_constant_residual(self, rng):
        for r in (-2.5, 0.25, 7.0):
            actual = rng.normal(size=6)
            pairs = list(zip(actual, actual + r))
            assert rmse(pairs) == pytest.approx(abs(r), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError, match="one pair"):
            rmse([])

    def test_at_least_mean_absolute_residual(self, rng):
        # Quadratic mean dominates the arithmetic mean of |residuals|.
        for _ in range(100):
            n = int(rng.integers(1, 20))
            actual = rng.normal(size=n)
            predicted = rng.normal(size=n)
            pairs = list(zip(actual, predicted))
            assert rmse(pairs) >= np.abs(predicted - actual).mean() - 1e-12


class TestRae:
    def test_zero_numerator(self):
        assert rae([(1.0, 1.0), (2.0, 2.0)]) == 0.0

    def test_baseline_predictor_is_one(self, rng):
        actual = rng.normal(size=12)
        mean = actual.mean()
        pairs = [(a, mean) for a in actual]
        assert rae(pairs) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed(self):
        pairs = list(zip([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]))
        assert rae(pairs) == pytest.approx(1.0, abs=1e-12)

    def test_all_actuals_equal_rejected(self):
        with pytest.raises(EvaluationError, match="equal"):
            rae([(2.0, 1.0), (2.0, 3.0)])

    def test_one_pair_rejected(self):
        with pytest.raises(EvaluationError, match="rae needs at least two pairs"):
            rae([(2.0, 1.0)])

    def test_translation_invariant(self, rng):
        actual = rng.normal(size=15)
        predicted = rng.normal(size=15)
        base = rae(list(zip(actual, predicted)))
        for shift in (-100.0, 3.7, 250.0):
            shifted = rae(list(zip(actual + shift, predicted + shift)))
            assert shifted == pytest.approx(base, abs=1e-12)


class TestMetricScaleEquivariance:
    def test_scaling_pairs(self, rng):
        actual = rng.normal(size=20)
        predicted = rng.normal(size=20)
        pairs = list(zip(actual, predicted))
        base_corr = correlation_rate(pairs)
        base_rmse = rmse(pairs)
        base_rae = rae(pairs)
        for c in (3.0, 0.125, 1000.0):
            scaled = list(zip(c * actual, c * predicted))
            assert correlation_rate(scaled) == pytest.approx(base_corr, abs=1e-12)
            assert rae(scaled) == pytest.approx(base_rae, abs=1e-12)
            assert rmse(scaled) == pytest.approx(c * base_rmse, rel=1e-12)


class TestLoocvPredictions:
    def test_constant_target_recovered(self, monkeypatch):
        import jobsignal.evaluation as ev

        # The correlation rate is undefined on a constant target, so evaluate
        # raises; the per-fold pairs are read as they reach the metric.
        pairs = []
        original_rate = ev.correlation_rate

        def spy_rate(values):
            pairs.extend(values)
            return original_rate(values)

        rng = np.random.default_rng(5)
        panel = panel_from(rng.standard_normal(8), np.full(8, 6.25))
        monkeypatch.setattr(ev, "correlation_rate", spy_rate)
        with pytest.raises(EvaluationError, match="correlation undefined"):
            evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), SearchConfig())
        assert len(pairs) == 8
        for actual, predicted in pairs:
            assert actual == 6.25
            assert predicted == pytest.approx(6.25, abs=1e-6)

    def test_noiseless_linear_panel(self):
        rng = np.random.default_rng(7)
        scores = rng.standard_normal(20)
        panel = panel_from(scores, 2.0 * scores)
        pairs = evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("linear"), SearchConfig()).per_fold
        assert len(pairs) == 20
        for actual, predicted in pairs:
            assert abs(predicted - actual) < 1e-3

    def test_three_row_panel_shape(self, monkeypatch):
        import jobsignal.evaluation as ev

        fold_sizes = []
        original_search = ev.gpr.fit_hyperparameters

        def spy_search(training, basis, search):
            fold_sizes.append(training.n)
            return original_search(training, basis, search)

        panel = panel_from([0.0, 1.0, 2.0], [1.0, 3.0, 2.0])
        monkeypatch.setattr(ev.gpr, "fit_hyperparameters", spy_search)
        pairs = evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), SearchConfig()).per_fold
        assert len(pairs) == 3
        # One full-data fit; the folds come from its factor, not from refits.
        assert fold_sizes == [3]
        assert [actual for actual, _ in pairs] == [1.0, 3.0, 2.0]

    def test_too_few_rows(self):
        panel = panel_from([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(EvaluationError, match="at least 3"):
            evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), SearchConfig())

    def test_fold_failure_identifies_fold(self):
        # Without row 3 the remaining inputs all equal 0, so that fold's
        # linear trend is singular (a refit raises FitError there).
        # P_33 rounds to just above 0 at jitter 1e-10 and to just below at 1e-4.
        panel = panel_from([0.0, 0.0, 0.0, 1.0], [1.0, 3.0, 2.0, 4.0])
        for jitter in (1e-10, 1e-4):
            with pytest.raises(EvaluationError, match=r"fold 3 \(s003"):
                evaluate(
                    panel, Direction.SCORE_TO_RATE, BasisExpansion("linear"), SearchConfig(jitter=jitter)
                )

    def test_matches_dense_oracle_per_fold(self):
        rng = np.random.default_rng(9)
        scores = np.sort(rng.uniform(-2, 2, size=8))
        rates = 8.0 + np.sin(scores)
        panel = panel_from(scores, rates)
        search = SearchConfig(theta_min=0.5, theta_max=0.5, steps=1)
        pairs = evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), search).per_fold
        for i, (actual, predicted) in enumerate(pairs):
            mask = np.ones(8, dtype=bool)
            mask[i] = False
            # sigma_sq is profiled on the full panel; reproduce it via the search.
            from jobsignal import TrainingSet, fit_hyperparameters

            kernel = fit_hyperparameters(
                TrainingSet(inputs=scores.reshape(-1, 1), targets=rates),
                BasisExpansion("const"),
                search,
            ).kernel
            mean, _ = dense_gpr_predict(
                scores[mask].reshape(-1, 1), rates[mask], [scores[i]],
                kernel.sigma_sq, kernel.theta, kernel.jitter, "const",
            )
            assert predicted == pytest.approx(mean, abs=1e-8)


def assert_loo_matches_refits(panel, direction, basis, search, atol=1e-8):
    """evaluate's per_fold predictions equal refit LOO with the report's kernel."""
    report = evaluate(panel, direction, basis, search)
    inputs, targets = split_panel(panel, direction)
    refit = refit_loo_predictions(inputs, targets, basis, report.kernel)
    closed = np.array([predicted for _, predicted in report.per_fold])
    np.testing.assert_allclose(closed, refit, rtol=0.0, atol=atol)
    return report


class TestClosedFormLoo:
    @pytest.mark.parametrize("n", [3, 40, 200])
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("degree", ["const", "linear"])
    def test_matches_refit_loo(self, n, direction, degree):
        panel = synthetic_panel(n, 0.7, 0.5, seed=n)
        assert_loo_matches_refits(panel, direction, BasisExpansion(degree), SearchConfig(jitter=1e-4))

    @pytest.mark.parametrize(
        "direction, atol", [(Direction.SCORE_TO_RATE, 1e-8), (Direction.RATE_TO_SCORE, 1e-7)]
    )
    def test_low_rank_model_matches_refit_loo(self, direction, atol):
        # 300 distinct inputs at jitter 1e-4: the full-data model and every
        # refit on 299 rows are low-rank, each truncated at its own pivots,
        # so the two differ by the truncation as well as by rounding: by at
        # most 7.3e-9 in score-to-rate and 3.6e-8 in rate-to-score (scores
        # with std 0.90), where the dense forms differ by 1.5e-10.
        panel = synthetic_panel(300, 0.7, 0.5, seed=300)
        basis, search = BasisExpansion("const"), SearchConfig(jitter=1e-4)
        model = fit_panel(panel, direction, basis, search)
        assert type(model.factor).__name__ == "_LowRank"
        assert_loo_matches_refits(panel, direction, basis, search, atol)

    @pytest.mark.parametrize("degree", ["const", "linear"])
    def test_escalated_jitter_applies_to_every_fold(self, degree):
        # A duplicated input makes R singular, so the full-data fit at jitter 0
        # escalates; the report records the escalated jitter and every fold
        # equals a refit at that jitter.
        scores = np.r_[np.linspace(-2.0, 2.0, 11), -2.0]
        panel = panel_from(scores, 8.0 + np.sin(scores) + 0.1 * np.cos(7.0 * scores))
        search = SearchConfig(theta_min=0.5, theta_max=0.5, steps=1, jitter=0.0)
        report = assert_loo_matches_refits(panel, Direction.SCORE_TO_RATE, BasisExpansion(degree), search)
        assert report.kernel.jitter == 1e-10

    @pytest.mark.parametrize("degree", ["const", "linear"])
    @pytest.mark.parametrize(
        "case", ["bundled-rate-to-score", "synth-200-repeated", "synth-200-repeated-new-targets"]
    )
    def test_tied_panel_matches_refit_loo(self, case, degree):
        # Tied inputs: the bundled panel's 382 rows carry 29 distinct rates,
        # and every row of the synth panel appears twice (200 distinct
        # scores in 400 rows), the second time with the same rate or with a
        # fresh one. A refit without row i has one replicate less.
        if case == "bundled-rate-to-score":
            records = ingest_sites(bundled_sites_path())
            kept, _ = listwise_delete(records)
            panel = build_panel(
                normalize_and_score(kept), records, read_indicators(bundled_indicators_path())
            )
            direction = Direction.RATE_TO_SCORE
        else:
            synth = synthetic_panel(200, 0.7, 0.5, seed=4)
            rates = synth.rates()
            if case.endswith("new-targets"):
                again = rates + np.random.default_rng(4).normal(0.0, 0.5, size=rates.size)
            else:
                again = rates
            panel = panel_from(np.tile(synth.scores(), 2), np.r_[rates, again])
            direction = Direction.SCORE_TO_RATE
        inputs, _ = split_panel(panel, direction)
        assert len(np.unique(inputs)) < panel.n
        assert_loo_matches_refits(panel, direction, BasisExpansion(degree), SearchConfig(jitter=1e-4))


def in_sample_means(model, panel, direction):
    report = evaluate_model(model, panel, direction, in_sample=True)
    return np.array([predicted for _, predicted in report.per_fold])


class TestInSampleClosedForm:
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("degree", ["const", "linear"])
    def test_matches_batched_predict(self, direction, degree):
        panel = synthetic_panel(200, 0.7, 0.5, seed=3)
        model = fit_panel(panel, direction, BasisExpansion(degree), SearchConfig(jitter=1e-4))
        expected = predict(model, model.training.inputs).mean
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.abs(in_sample_means(model, panel, direction) - expected).max() <= 1e-8 * scale

    @pytest.mark.parametrize("degree", ["const", "linear"])
    def test_matches_dense_oracle(self, rng, degree):
        for _ in range(5):
            theta = float(rng.uniform(0.5, 3.0))
            scores = separated_inputs(rng, 12, 1, theta)[:, 0]
            panel = panel_from(scores, 8.0 + np.sin(scores) + 0.3 * rng.standard_normal(12))
            inputs, targets = split_panel(panel, Direction.SCORE_TO_RATE)
            kernel = Kernel(sigma_sq=float(rng.uniform(0.5, 2.0)), theta=[theta])
            model = fit(TrainingSet(inputs=inputs, targets=targets), BasisExpansion(degree), kernel)
            means = in_sample_means(model, panel, Direction.SCORE_TO_RATE)
            for x, mean in zip(inputs, means):
                expected, _ = dense_gpr_predict(
                    inputs, targets, x, kernel.sigma_sq, kernel.theta, kernel.jitter, degree
                )
                assert mean == pytest.approx(expected, abs=1e-8)

    def test_escalated_jitter_is_used(self):
        # A duplicated input with a different target: the fit at jitter 0
        # escalates to 1e-10, and the two rows' means move off their targets.
        scores = np.r_[np.linspace(-2.0, 2.0, 11), -2.0]
        rates = 8.0 + np.sin(scores) + 0.1 * np.cos(7.0 * np.arange(12))
        panel = panel_from(scores, rates)
        search = SearchConfig(theta_min=0.5, theta_max=0.5, steps=1, jitter=0.0)
        model = fit_panel(panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), search)
        assert model.kernel.jitter == 1e-10
        means = in_sample_means(model, panel, Direction.SCORE_TO_RATE)
        assert min(abs(means[0] - rates[0]), abs(means[11] - rates[11])) > 1e-3
        expected = predict(model, model.training.inputs).mean
        assert np.abs(means - expected).max() <= 1e-6


class TestEvaluate:
    def test_noiseless_linear_metrics(self):
        rng = np.random.default_rng(7)
        scores = rng.standard_normal(20)
        panel = panel_from(scores, 2.0 * scores)
        report = evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("linear"), SearchConfig())
        assert report.correlation_rate > 0.999
        assert report.rae < 0.01

    def test_independent_target_near_zero_correlation(self):
        rng = np.random.default_rng(0)
        panel = panel_from(rng.standard_normal(50), 8.0 + 2.0 * rng.standard_normal(50))
        report = evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), SearchConfig())
        assert abs(report.correlation_rate) < 0.4
        assert report.rae >= 0.8

    def test_direction_flip_completes_with_same_n(self):
        rng = np.random.default_rng(2)
        panel = panel_from(rng.standard_normal(10), 8.0 + rng.standard_normal(10))
        forward = evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), SearchConfig())
        backward = evaluate(panel, Direction.RATE_TO_SCORE, BasisExpansion("const"), SearchConfig())
        assert forward.n == backward.n == 10
        assert forward.direction is Direction.SCORE_TO_RATE
        assert backward.direction is Direction.RATE_TO_SCORE

    def test_metrics_recompute_from_per_fold_bit_for_bit(self):
        rng = np.random.default_rng(4)
        panel = panel_from(rng.standard_normal(9), 8.0 + rng.standard_normal(9))
        report = evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), SearchConfig())
        assert len(report.per_fold) == report.n
        assert correlation_rate(report.per_fold) == report.correlation_rate
        assert rmse(report.per_fold) == report.rmse
        assert rae(report.per_fold) == report.rae

    def test_deterministic(self, tmp_path):
        rng = np.random.default_rng(6)
        panel = panel_from(rng.standard_normal(8), 8.0 + rng.standard_normal(8))
        first = evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), SearchConfig())
        second = evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), SearchConfig())
        save_report(first, tmp_path / "first.json")
        save_report(second, tmp_path / "second.json")
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()

    def test_in_sample_mode(self):
        rng = np.random.default_rng(8)
        scores = rng.standard_normal(10)
        panel = panel_from(scores, 8.0 + 2.0 * scores + 0.5 * rng.standard_normal(10))
        in_sample = evaluate(
            panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), SearchConfig(), in_sample=True
        )
        assert in_sample.in_sample
        # A noise-free interpolator scores near-perfectly on its own rows.
        assert in_sample.rmse < 1e-6
        assert in_sample.correlation_rate > 0.999999

    def test_monotone_noise_degradation(self):
        search = SearchConfig(jitter=1e-4)
        correlations = []
        for noise in (0.0, 0.7, 3.0):
            panel = synthetic_panel(40, 1.0, noise, seed=1)
            report = evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), search)
            correlations.append(report.correlation_rate)
        assert correlations[0] >= correlations[1] >= correlations[2]

    def test_constant_rates_undefined_correlation(self):
        panel = panel_from([0.0, 1.0, 2.0, 3.0], [7.0, 7.0, 7.0, 7.0])
        with pytest.raises(EvaluationError):
            evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), SearchConfig())


class TestReportSerialization:
    def make_panel(self):
        rng = np.random.default_rng(12)
        return panel_from(rng.standard_normal(8), 8.0 + rng.standard_normal(8))

    def make_report(self):
        panel = self.make_panel()
        return evaluate(panel, Direction.SCORE_TO_RATE, BasisExpansion("const"), SearchConfig())

    def test_json_round_trip_bit_exact(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        save_report(report, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc == {
            "schema": REPORT_SCHEMA,
            "direction": report.direction.value,
            "n": report.n,
            "correlation_rate": report.correlation_rate,
            "rmse": report.rmse,
            "rae": report.rae,
            "kernel": {
                "sigma_sq": report.kernel.sigma_sq,
                "theta": report.kernel.theta.tolist(),
                "jitter": report.kernel.jitter,
            },
            "basis": report.basis.degree,
            "in_sample": report.in_sample,
            "per_fold": [list(pair) for pair in report.per_fold],
        }
        assert list(doc)[0] == "schema"
        # == on floats forgives the sign of zero; the bit patterns do not.
        parsed = np.array(doc["per_fold"], dtype=float).view(np.uint64)
        assert np.array_equal(parsed, np.array(report.per_fold).view(np.uint64))

    def test_text_table_labels(self):
        text = format_report(self.make_report(), self.make_panel())
        panel_block, metrics_block = text.split("\n\n")
        assert panel_block.startswith("Number of web sites ")
        assert "Observations          8\n" in metrics_block
        for label in ("Correlation rate", "RMSE", "RAE"):
            assert f"\n{label}" in metrics_block
        assert text.endswith("\n") and not text.endswith("\n\n")


class TestSyntheticPanel:
    def test_boundary_three_rows(self):
        panel = synthetic_panel(3, 0.5, 0.0, seed=0)
        assert panel.n == 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n >= 3"):
            synthetic_panel(2, 0.5, 0.0, seed=0)
        with pytest.raises(ValueError, match="coupling"):
            synthetic_panel(5, 1.5, 0.0, seed=0)
        for noise in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise"):
                synthetic_panel(5, 0.5, noise, seed=0)
        with pytest.raises(ValueError, match=r"seed must be non-negative, got -1"):
            synthetic_panel(5, 0.5, 0.0, seed=-1)

    def test_deterministic_per_seed(self):
        first = synthetic_panel(10, 0.7, 0.3, seed=42)
        second = synthetic_panel(10, 0.7, 0.3, seed=42)
        other = synthetic_panel(10, 0.7, 0.3, seed=43)
        assert first.rows == second.rows
        assert first.rows != other.rows

    def test_full_coupling_zero_noise_is_affine(self):
        panel = synthetic_panel(25, 1.0, 0.0, seed=3)
        scores = panel.scores()
        rates = panel.rates()
        assert np.allclose(rates, RATE_CENTER + RATE_SCALE * scores, atol=1e-12)

    def test_sample_correlation_tracks_coupling(self):
        for coupling in (0.0, 0.5, 0.9):
            panel = synthetic_panel(2000, coupling, 0.0, seed=11)
            sample = np.corrcoef(panel.scores(), panel.rates())[0, 1]
            assert sample == pytest.approx(coupling, abs=0.06)

    def test_zero_coupling_small_sample_correlation(self):
        panel = synthetic_panel(200, 0.0, 0.0, seed=0)
        sample = np.corrcoef(panel.scores(), panel.rates())[0, 1]
        assert abs(sample) < 0.2
