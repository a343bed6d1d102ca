import logging
import math
import re
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from jobsignal import (
    BasisExpansion,
    ConfigError,
    EvaluationError,
    FitError,
    Kernel,
    SearchConfig,
    TrainingSet,
    fit,
    fit_hyperparameters,
    predict,
)
from jobsignal import _lapack, gpr
from jobsignal.datasets import bundled_indicators_path, bundled_sites_path
from jobsignal.evaluation import Direction, split_panel
from jobsignal.gpr import (
    correlation,
    _profile_log_likelihood,
)
from jobsignal.synth import synthetic_panel
from jobsignal.pipeline import (
    build_panel,
    ingest_sites,
    listwise_delete,
    normalize_and_score,
    read_indicators,
)

from conftest import random_fitted_model, random_instance, separated_inputs
from oracle_gpr import (
    compressed_covariance,
    pack,
    unpack,
    dense_design,
    dense_gls_beta,
    dense_gpr_predict,
    dense_kriging,
    dense_log_marginal_likelihood,
    reference_partial_cholesky,
    reference_theta_search,
)


def kernel_1d(theta=1.0, sigma_sq=1.0, jitter=1e-10):
    return Kernel(sigma_sq=sigma_sq, theta=[theta], jitter=jitter)


def fail_dpftrf_three_times(monkeypatch):
    """Make the LAPACK binding's pftrf fail its first three calls the way a
    partial factorization does, scribbling over the packed triangle; returns
    the list of packed matrices each call was given."""
    pftrf = _lapack.pftrf
    tried = []

    def fails_three_times(packed):
        tried.append(packed.copy())
        if len(tried) <= 3:
            packed[:] = np.nan
            return 1  # LAPACK: leading minor 1 is not positive definite
        return pftrf(packed)

    monkeypatch.setattr(_lapack, "pftrf", fails_three_times)
    return tried


def regularized_covariance(inputs, kernel):
    """sigma_sq * (R + jitter * I): the matrix fit factorizes."""
    corr = correlation(inputs, inputs, kernel.theta)
    return kernel.sigma_sq * (corr + kernel.jitter * np.eye(len(inputs)))


class TestKernelCorrelation:
    def test_zero_distance_is_one(self, rng):
        kernel = Kernel(sigma_sq=2.0, theta=[0.7, 3.0], jitter=0.0)
        for _ in range(10):
            x = rng.normal(size=2)
            assert correlation(x, x, kernel.theta)[0, 0] == 1.0

    def test_unit_distance_unit_theta(self):
        value = correlation([0.0], [1.0], [1.0])[0, 0]
        assert value == pytest.approx(0.3678794412, abs=1e-10)

    def test_per_dimension_sum(self):
        value = correlation([0.0, 0.0], [1.0, 2.0], [1.0, 4.0])[0, 0]
        assert value == pytest.approx(0.1353352832, abs=1e-10)

    def test_symmetry_exact(self, rng):
        theta = rng.uniform(0.2, 5.0, size=3)
        for _ in range(100):
            a, b = rng.normal(size=(2, 3))
            assert correlation(a, b, theta)[0, 0] == correlation(b, a, theta)[0, 0]

    def test_range(self, rng):
        theta = rng.uniform(0.2, 5.0, size=2)
        for _ in range(200):
            a, b = rng.normal(0, 3, size=(2, 2))
            value = correlation(a, b, theta)[0, 0]
            assert 0.0 < value <= 1.0
            if not np.array_equal(a, b):
                assert value < 1.0

    def test_stationarity_on_dyadic_grid(self, rng):
        # Dyadic coordinates keep the shifted differences bit-exact.
        theta = np.array([1.3, 0.8])
        for _ in range(100):
            a = rng.integers(-64, 64, size=2) / 64.0
            b = rng.integers(-64, 64, size=2) / 64.0
            c = rng.integers(-64, 64, size=2) / 64.0
            assert correlation(a + c, b + c, theta)[0, 0] == correlation(a, b, theta)[0, 0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            correlation([0.0, 1.0], [1.0], [1.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            correlation([0.0, 1.0], [1.0, 2.0], [1.0])


class TestBuildCovariance:
    def test_single_point(self):
        corr = correlation(np.array([[0.3]]), np.array([[0.3]]), [1.0])
        assert corr.shape == (1, 1)
        assert corr[0, 0] == 1.0

    def test_identical_points(self):
        points = np.array([[1.5], [1.5]])
        assert np.array_equal(correlation(points, points, [1.0]), np.ones((2, 2)))

    def test_two_points_hand_value(self):
        points = np.array([[0.0], [1.0]])
        expected = np.array([[1.0, math.exp(-1)], [math.exp(-1), 1.0]])
        assert np.allclose(correlation(points, points, [1.0]), expected, atol=1e-15)

    def test_matches_pairwise_correlation(self, rng):
        theta = rng.uniform(0.3, 4.0, size=3)
        points = rng.normal(0, 2, size=(6, 3))
        corr = correlation(points, points, theta)
        for i in range(6):
            for j in range(6):
                assert corr[i, j] == pytest.approx(
                    correlation(points[i], points[j], theta)[0, 0], rel=1e-15
                )

    def test_regularized_diagonal(self):
        # fit factorizes sigma_sq * R plus jitter * sigma_sq on the diagonal only.
        kernel = Kernel(sigma_sq=2.0, theta=[1.0], jitter=1e-6)
        points = np.array([[0.0], [1.0]])
        training = TrainingSet(inputs=points, targets=np.array([0.0, 1.0]))
        model = fit(training, BasisExpansion("const"), kernel)
        plain = kernel.sigma_sq * correlation(points, points, kernel.theta)
        chol = unpack(model.factor.chol)
        reg = chol @ chol.T
        assert np.allclose(np.diag(reg) - np.diag(plain), 1e-6 * 2.0)
        off_diag = ~np.eye(2, dtype=bool)
        assert np.allclose(reg[off_diag], plain[off_diag], rtol=1e-14, atol=0.0)

    def test_positive_semidefinite(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 21))
            d = int(rng.integers(1, 5))
            kernel = Kernel(
                sigma_sq=float(rng.uniform(0.5, 2.0)), theta=rng.uniform(0.1, 10.0, size=d)
            )
            points = rng.normal(0, 2, size=(n, d))
            reg = regularized_covariance(points, kernel)
            assert np.linalg.eigvalsh(reg).min() >= -1e-10


class TestExtendCovariance:
    def test_self_correlation_column(self):
        points = np.array([[0.0], [2.0], [4.0]])
        column = correlation(points, points[1], [0.9])[:, 0]
        assert column[1] == 1.0

    def test_distant_point_vanishes(self):
        theta = np.array([2.0, 0.5])
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        # Squared distances of at least 50 * theta_i in each dimension.
        far = np.array([math.sqrt(50 * 2.0 * 2), math.sqrt(50 * 0.5 * 2)]) + 1.0
        assert np.all(correlation(points, far, theta) < 1e-20)

    def test_assembled_matches_build(self, rng):
        # correlation(X, x) is the last column of correlation over X and x stacked.
        for _ in range(25):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 4))
            theta = rng.uniform(0.2, 5.0, size=d)
            points = rng.normal(0, 2, size=(n, d))
            x_new = rng.normal(0, 2, size=d)
            stacked = np.vstack([points, x_new])
            full = correlation(stacked, stacked, theta)
            assert np.array_equal(correlation(points, x_new, theta)[:, 0], full[:n, n])
            assert full[n, n] == 1.0

    def test_dimension_mismatch(self):
        points = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            correlation(points, np.array([0.0, 1.0]), [1.0])


class TestFit:
    def test_constant_targets_constant_basis(self):
        training = TrainingSet(inputs=np.array([[0.0], [1.0], [3.0]]), targets=np.full(3, 4.2))
        model = fit(training, BasisExpansion("const"), kernel_1d(theta=2.0, sigma_sq=1.5))
        assert model.beta == pytest.approx([4.2], abs=1e-12)
        assert np.abs(model.alpha).max() < 1e-9

    def test_linear_data_absorbed_by_trend(self):
        training = TrainingSet(
            inputs=np.array([[0.0], [1.0], [2.0]]), targets=np.array([1.0, 2.0, 3.0])
        )
        model = fit(training, BasisExpansion("linear"), kernel_1d())
        assert model.beta == pytest.approx([1.0, 1.0], abs=1e-8)
        assert np.linalg.norm(model.alpha) < 1e-6
        oracle_beta = dense_gls_beta(
            training.inputs, training.targets, 1.0, np.array([1.0]), 1e-10, "linear"
        )
        assert model.beta == pytest.approx(oracle_beta, abs=1e-9)

    def test_beta_matches_dense_gls(self, rng):
        for degree in ("const", "linear"):
            for _ in range(10):
                n, d = int(rng.integers(4, 10)), int(rng.integers(1, 3))
                inputs = rng.uniform(0, 5, size=(n, d))
                targets = rng.normal(size=n)
                kernel = Kernel(sigma_sq=1.3, theta=rng.uniform(0.5, 3.0, size=d), jitter=1e-8)
                model = fit(TrainingSet(inputs=inputs, targets=targets), BasisExpansion(degree), kernel)
                oracle = dense_gls_beta(inputs, targets, 1.3, kernel.theta, model.kernel.jitter, degree)
                assert model.beta == pytest.approx(oracle, rel=1e-6, abs=1e-8)

    def test_cholesky_reconstruction_invariant(self, rng):
        for _ in range(10):
            model = random_fitted_model(rng, n=int(rng.integers(2, 10)), d=2)
            reg = regularized_covariance(model.training.inputs, model.kernel)
            chol = unpack(model.factor.chol)
            err = np.linalg.norm(chol @ chol.T - reg) / np.linalg.norm(reg)
            assert err <= 1e-10

    def test_residual_identity_invariant(self, rng):
        # 1e-8 absolute at unit residual scale; scaled when high trend
        # leverage amplifies the residual magnitudes.
        for degree in ("const", "linear"):
            for _ in range(10):
                model = random_fitted_model(rng, n=int(rng.integers(2, 10)), d=1, degree=degree)
                reg = regularized_covariance(model.training.inputs, model.kernel)
                design = model.basis.design_matrix(model.training.inputs)
                lhs = reg @ model.alpha
                rhs = model.training.targets - design @ model.beta
                scale = max(1.0, float(np.abs(rhs).max()))
                assert np.abs(lhs - rhs).max() <= 1e-8 * scale

    def test_interpolates_training_targets(self, rng):
        model = random_fitted_model(rng, n=7, d=2, jitter=1e-10)
        assert model.kernel.jitter == 1e-10
        for x, t in zip(model.training.inputs, model.training.targets):
            assert predict(model, x).mean == pytest.approx(t, abs=1e-6)

    def test_jitter_escalates_on_singular_covariance(self):
        # Exact duplicates with zero base jitter make the correlation matrix
        # exactly singular; the ladder must step up to the 1e-10 default.
        # The factor is over the two distinct inputs: R_u + jitter*diag(1/2, 1).
        inputs = np.array([[0.0], [0.0], [1.0]])
        training = TrainingSet(inputs=inputs, targets=np.array([0.0, 0.5, 1.0]))
        model = fit(training, BasisExpansion("const"), kernel_1d(jitter=0.0))
        assert model.kernel.jitter == 1e-10
        reg = compressed_covariance(inputs, model.kernel)
        assert reg.shape == (2, 2) and reg[0, 0] == 1.0 + 0.5e-10
        chol = unpack(model.factor.chol)
        err = np.linalg.norm(chol @ chol.T - reg) / np.linalg.norm(reg)
        assert err <= 1e-10

    def test_each_ladder_rung_regularizes_the_unjittered_matrix(self, monkeypatch):
        # The factorization runs in place; every rung must see the original
        # matrix plus its own jitter, not the previous rung's leftovers.
        tried = fail_dpftrf_three_times(monkeypatch)
        inputs = np.array([[0.0], [0.4], [1.0]])
        training = TrainingSet(inputs=inputs, targets=np.array([0.0, 0.5, 1.0]))
        model = fit(training, BasisExpansion("const"), kernel_1d(jitter=0.0))
        assert model.kernel.jitter == 1e-8
        corr = correlation(inputs, inputs, [1.0])
        for matrix, jitter in zip(tried, [0.0, 1e-10, 1e-9, 1e-8]):
            assert np.array_equal(matrix, pack(corr + jitter * np.eye(3)))

    def test_jitter_ladder_exhaustion_is_fit_error(self, monkeypatch):
        def always_fails(matrix):
            return 1

        monkeypatch.setattr(_lapack, "pftrf", always_fails)
        training = TrainingSet(inputs=np.array([[0.0], [1.0]]), targets=np.array([0.0, 1.0]))
        with pytest.raises(FitError) as excinfo:
            fit(training, BasisExpansion("const"), kernel_1d())
        assert str(excinfo.value) == "covariance is not positive definite even at jitter 0.0001"

    def test_factor_matches_numpy_cholesky(self, rng):
        # The library calls dpftrf through its own binding; np.linalg.cholesky
        # reaches dpotrf in the same OpenBLAS through numpy's wrapper, so this
        # checks the binding, the packed layout and the in-place fill.
        models = [random_fitted_model(rng, n=int(rng.integers(2, 30)), d=2) for _ in range(10)]
        training = _sample_from_kernel(np.random.default_rng(3), n=200)
        models.append(fit(training, BasisExpansion("linear"), kernel_1d(jitter=1e-4)))
        for model in models:
            reg = regularized_covariance(model.training.inputs, model.kernel)
            expected = np.linalg.cholesky(reg)
            assert np.abs(unpack(model.factor.chol) - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("u", [1, 2, 3, 40, 41, 129, 130, 256, 257])
    @pytest.mark.parametrize("d", [1, 2])
    def test_fill_is_the_packed_correlation_bit_for_bit(self, monkeypatch, rng, u, d):
        # The packed layout differs for odd and even u, and past
        # _FILL_COLUMNS columns the fill runs in several blocks. Every
        # fourth distinct input repeats, so jitter/n_k varies.
        monkeypatch.setattr(_lapack, "pftrf", lambda packed: 0)  # keep the fill as it is
        inputs = rng.uniform(0.0, 6.0, size=(u, d))[np.r_[np.arange(u), 0:u:4]]
        groups = gpr._group_rows(TrainingSet(inputs=inputs, targets=np.zeros(len(inputs))))
        theta = rng.uniform(0.3, 3.0, size=d)
        packed = np.full(u * (u + 1) // 2, np.nan)
        jitter = gpr._factorize(packed, groups, theta, 1e-6)
        corr = correlation(groups.inputs, groups.inputs, theta)
        assert np.array_equal(packed, pack(corr + np.diag(jitter / groups.counts)))

    @pytest.mark.parametrize("u", [1, 2, 3, 40, 41, 129, 130, 256, 257])
    def test_column_sums_of_the_packed_triangle(self, rng, u):
        lower = np.tril(rng.normal(size=(u, u)))
        sums = gpr._column_sums(pack(lower), u)
        assert np.abs(sums - lower.sum(axis=0)).max() <= 1e-12 * np.abs(lower).sum(axis=0).max()

    def test_singular_factor_has_no_inverse_diagonal(self, rng):
        factor = np.tril(rng.normal(size=(5, 5)), -1) + np.eye(5)
        factor[2, 2] = 0.0
        with pytest.raises(EvaluationError, match=r"covariance factor is singular \(dtftri info 3\)"):
            gpr._Dense(pack(factor)).inverse_diagonal()

    def test_singular_trend_system(self):
        # A constant input column duplicates the intercept under the linear basis.
        inputs = np.column_stack([np.linspace(0, 1, 5), np.full(5, 2.0)])
        training = TrainingSet(inputs=inputs, targets=np.linspace(0, 1, 5))
        kernel = Kernel(sigma_sq=1.0, theta=[1.0, 1.0])
        with pytest.raises(FitError) as excinfo:
            fit(training, BasisExpansion("linear"), kernel)
        assert str(excinfo.value) == "trend system is singular (collinear or duplicate basis functions)"

    def test_underdetermined_trend_system(self):
        training = TrainingSet(inputs=np.array([[0.0, 1.0]]), targets=np.array([1.0]))
        kernel = Kernel(sigma_sq=1.0, theta=[1.0, 1.0])
        with pytest.raises(FitError) as excinfo:
            fit(training, BasisExpansion("linear"), kernel)
        assert str(excinfo.value) == "trend system is underdetermined: 3 basis functions for 1 observations"

    def test_dimension_mismatch(self):
        training = TrainingSet(inputs=np.array([[0.0, 1.0]]), targets=np.array([1.0]))
        with pytest.raises(ValueError, match="correlation lengths"):
            fit(training, BasisExpansion("const"), kernel_1d())


class TestPredict:
    def test_matches_dense_oracle(self, rng):
        for _ in range(30):
            training, basis, kernel = random_instance(rng)
            model = fit(training, basis, kernel)
            span = training.inputs.max(axis=0) - training.inputs.min(axis=0)
            x_new = training.inputs.min(axis=0) + rng.uniform(-0.2, 1.2, size=training.ndim) * span
            prediction = predict(model, x_new)
            mean, variance = dense_gpr_predict(
                training.inputs, training.targets, x_new, kernel.sigma_sq, kernel.theta,
                model.kernel.jitter, basis.degree,
            )
            assert prediction.mean == pytest.approx(mean, abs=1e-8)
            assert prediction.variance == pytest.approx(max(variance, 0.0), abs=1e-8)

    def test_training_point_variance_vanishes(self, rng):
        model = random_fitted_model(rng, n=6, d=1, jitter=1e-10)
        sigma_sq = model.kernel.sigma_sq
        for x in model.training.inputs:
            assert predict(model, x).variance <= 1e-6 * sigma_sq

    def test_far_point_reverts_to_trend(self, rng):
        for degree in ("const", "linear"):
            model = random_fitted_model(rng, n=6, d=2, degree=degree)
            far = model.training.inputs.max(axis=0) + 100.0
            prediction = predict(model, far)
            f_row = model.basis.design_matrix([far])[0]
            assert prediction.mean == pytest.approx(float(f_row @ model.beta), abs=1e-10)
            ft = model.trend_whitened
            gram_inv = np.linalg.inv(ft.T @ ft)
            expected_var = model.kernel.sigma_sq + float(f_row @ gram_inv @ f_row)
            assert prediction.variance == pytest.approx(expected_var, rel=1e-9)

    def test_variance_bounded_by_prior_plus_trend_term(self, rng):
        model = random_fitted_model(rng, n=8, d=2)
        ft = model.trend_whitened
        gram_inv = np.linalg.inv(ft.T @ ft)
        for _ in range(50):
            x = rng.uniform(-3, 8, size=2)
            prediction = predict(model, x)
            f_row = model.basis.design_matrix([x])[0]
            bound = model.kernel.sigma_sq + float(f_row @ gram_inv @ f_row)
            assert prediction.variance <= bound + 1e-10

    def test_negative_variance_clamped_and_counted(self, caplog):
        # With zero jitter the exact variance at a training point is 0, so
        # rounding lands on either side; negatives must clamp and be logged.
        caplog.set_level(logging.DEBUG, logger="jobsignal.gpr")

        def logged_clamps():
            total = sum(r.args[0] for r in caplog.records if r.msg.startswith("clamped %d"))
            caplog.clear()
            return total

        per_point_total = batched_total = 0
        for trial in range(10):
            trial_rng = np.random.default_rng(trial)
            inputs = (trial_rng.permutation(14) * 0.8 + trial_rng.uniform(0, 0.3, 14)).reshape(-1, 1)
            targets = trial_rng.normal(size=14)
            model = fit(
                TrainingSet(inputs=inputs, targets=targets),
                BasisExpansion("const"),
                kernel_1d(theta=3.0, sigma_sq=1.5, jitter=0.0),
            )
            assert model.kernel.jitter == 0.0
            caplog.clear()
            per_point = [predict(model, x).variance for x in inputs]
            assert all(v >= 0.0 for v in per_point)
            per_point_total += logged_clamps()
            # One batched call over the same points clamps the same entries.
            batched = predict(model, inputs)
            assert np.array_equal(batched.variance, per_point)
            batched_total += logged_clamps()
        assert per_point_total == batched_total > 0

    @pytest.mark.parametrize("degree", ["const", "linear"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "m, tied",
        [
            pytest.param(1, False, id="1"),
            pytest.param(7, False, id="7"),
            pytest.param(1, True, id="1-tied"),
            pytest.param(7, True, id="7-tied"),
        ],
    )
    def test_batch_matches_per_point_and_oracle(self, rng, degree, d, m, tied):
        model = random_fitted_model(rng, n=10, d=d, degree=degree)
        if tied:
            # 16 rows over the 10 distinct inputs, one of them four times,
            # each replicate with its own target.
            repeat = np.r_[np.arange(10), 0, 0, 0, 3, 7, 7]
            training = TrainingSet(
                inputs=model.training.inputs[repeat],
                targets=model.training.targets[repeat] + rng.normal(0.0, 0.3, size=repeat.size),
            )
            model = fit(training, model.basis, replace(model.kernel, jitter=1e-4))
            assert model.factor.chol.shape == (55,)
        training, kernel = model.training, model.kernel
        span = training.inputs.max(axis=0) - training.inputs.min(axis=0)
        points = training.inputs.min(axis=0) + rng.uniform(-0.2, 1.2, size=(m, d)) * span
        batched = predict(model, points)
        assert batched.mean.shape == batched.variance.shape == (m,)
        per_point = [predict(model, x) for x in points]
        assert all(isinstance(p.mean, float) and isinstance(p.variance, float) for p in per_point)
        means = np.array([p.mean for p in per_point])
        variances = np.array([p.variance for p in per_point])
        scale = max(1.0, float(np.abs(means).max()))
        assert np.abs(batched.mean - means).max() <= 1e-12 * scale
        assert np.abs(batched.variance - variances).max() <= 1e-12 * kernel.sigma_sq
        for x, mean, variance in zip(points, batched.mean, batched.variance):
            expected_mean, expected_var = dense_gpr_predict(
                training.inputs, training.targets, x, kernel.sigma_sq, kernel.theta,
                kernel.jitter, degree,
            )
            assert mean == pytest.approx(expected_mean, abs=1e-8)
            assert variance == pytest.approx(max(expected_var, 0.0), abs=1e-8)

    def test_dimension_mismatch(self, rng):
        model = random_fitted_model(rng, n=5, d=2)
        for points, message in (
            ([0.0], "dimension mismatch"),
            (np.zeros((3, 1)), "dimension mismatch"),
            (np.zeros((3, 3)), "dimension mismatch"),
            (np.zeros((2, 3, 2)), re.escape("one point or an (M, d) batch, got shape (2, 3, 2)")),
        ):
            with pytest.raises(ValueError, match=message):
                predict(model, points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, rng, bad):
        # Unchecked, an infinite coordinate yields the bare trend and a finite
        # variance: its correlations are all exactly 0.
        model = random_fitted_model(rng, n=6, d=2)
        with pytest.raises(ValueError, match=r"row 0 is \[0\.5, (nan|-?inf)\]"):
            predict(model, [0.5, bad])
        batch = np.array([[0.5, 1.0], [1.0, 2.0], [bad, 1.0], [bad, bad]])
        with pytest.raises(ValueError, match=r"row 2 is \[(nan|-?inf), 1\.0\]"):
            predict(model, batch)

    def test_concurrent_reads_match_serial(self, rng):
        model = random_fitted_model(rng, n=10, d=2)
        points = [rng.uniform(-2, 6, size=2) for _ in range(32)]
        serial = [predict(model, x) for x in points]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda x: predict(model, x), points))
        assert serial == threaded


class TestClosedFormsOverTrainingRows:
    """held_out_diagonals and fitted_means against the dense N x N
    covariance C = sigma_sq * (R + jitter * I), inverted explicitly."""

    @pytest.mark.parametrize("degree", ["const", "linear"])
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_match_dense_oracle(self, rng, degree, tied):
        inputs = rng.uniform(0.0, 6.0, size=(40, 1))
        if tied:
            # 40 rows over 28 distinct inputs, repeats of up to 4 rows.
            inputs = inputs[np.r_[np.arange(28), 0, 0, 0, 3, 3, 9, 14, 14, 20, 27, 27, 27]]
        training = TrainingSet(inputs=inputs, targets=np.sin(inputs[:, 0]) + rng.normal(0.0, 0.3, 40))
        kernel = Kernel(sigma_sq=1.3, theta=[1.0], jitter=1e-4)
        model = fit(training, BasisExpansion(degree), kernel)
        assert model.kernel.jitter == kernel.jitter and model.groups.tied is tied

        cov_inv = np.linalg.inv(regularized_covariance(inputs, kernel))
        design = dense_design(inputs, degree)
        trend = cov_inv @ design
        proj = cov_inv - trend @ np.linalg.inv(design.T @ trend) @ trend.T
        p_diag, inv_diag = model.held_out_diagonals()
        np.testing.assert_allclose(p_diag, np.diag(proj), rtol=1e-8)
        np.testing.assert_allclose(inv_diag, np.diag(cov_inv), rtol=1e-8)

        expected = [
            dense_gpr_predict(
                inputs, training.targets, x, kernel.sigma_sq, kernel.theta, kernel.jitter, degree
            )[0]
            for x in inputs
        ]
        np.testing.assert_allclose(model.fitted_means(), expected, rtol=1e-8)


def profile_log_likelihood(training, basis, theta, jitter):
    """_profile_log_likelihood on the dense factor at theta, as a dense cell
    of the search makes it."""
    groups = gpr._group_rows(training)
    u = groups.counts.size
    chol = np.empty(u * (u + 1) // 2)
    jitter = gpr._factorize(chol, groups, np.asarray(theta, dtype=float), jitter)
    return _profile_log_likelihood(chol, groups, basis.design_matrix(groups.inputs), jitter)


class TestLogMarginalLikelihood:
    def test_matches_dense_oracle(self, rng):
        for trial in range(20):
            training, basis, kernel = random_instance(rng, max_n=10, jitter=1e-8)
            if trial >= 10:
                # Repeat rows, with fresh targets: the per-cell likelihood of
                # the compressed factor equals the N x N slogdet/solve one.
                repeat = np.r_[np.arange(training.n), rng.integers(0, training.n, size=5)]
                training = TrainingSet(
                    inputs=training.inputs[repeat], targets=rng.normal(0.0, 1.0, size=repeat.size)
                )
                kernel = replace(kernel, jitter=1e-4)
            value, sigma_sq = profile_log_likelihood(training, basis, kernel.theta, kernel.jitter)
            oracle = dense_log_marginal_likelihood(
                training.inputs, training.targets, sigma_sq, kernel.theta,
                kernel.jitter, basis.degree,
            )
            assert value == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def _sample_from_kernel(rng, n=40, theta=1.0):
    inputs = rng.uniform(0.0, 6.0, size=(n, 1))
    corr = np.exp(-((inputs - inputs.T) ** 2) / theta)
    chol = np.linalg.cholesky(corr + 1e-10 * np.eye(n))
    return TrainingSet(inputs=inputs, targets=chol @ rng.standard_normal(n))


def assert_same_selection(got, expected):
    assert got.sigma_sq == expected.sigma_sq
    assert np.array_equal(got.theta, expected.theta)


# How far a low-rank cell may move sigma_sq from the dense reference's
# value, relatively. The worst move measured on the panels of
# test_matches_cell_by_cell_reference is below 1e-9.
SIGMA_SQ_RTOL = 1e-8


def assert_selects_reference(got, expected):
    """The theta a dense scan selects, with sigma_sq within SIGMA_SQ_RTOL."""
    assert np.array_equal(got.theta, expected.theta)
    assert abs(got.sigma_sq - expected.sigma_sq) <= SIGMA_SQ_RTOL * expected.sigma_sq


# How far fitted means, leave-one-out predictions and predict's means may
# lie from the dense N x N oracle, over std(targets), and predict's
# variances over sigma_sq, by jitter. At 1e-4 the worst measured on the
# panels of test_matches_cell_by_cell_reference is 1.8e-9. At 1e-6 the dense
# library model itself lies up to 1.3e-6 from the oracle, whose explicit
# inverse is of a matrix with a condition number near 1e9, and so does the
# low-rank one.
KRIGING_RTOL = {1e-4: 1e-8, 1e-6: 3e-6}


def assert_matches_dense_kriging(model, tol):
    """Fitted means, leave-one-out predictions and predict's means agree with
    the dense N x N oracle at the model's kernel to tol * std(targets), and
    predict's variances to tol * sigma_sq."""
    training = model.training
    rng = np.random.default_rng(0)
    points = training.inputs[rng.choice(training.n, 16)] + rng.normal(0.0, 0.05, (16, training.ndim))
    fitted, loo, mean, variance = dense_kriging(training, model.basis, model.kernel, points)
    p_diag, _ = model.held_out_diagonals()
    prediction = predict(model, points)
    scale = tol * float(np.std(training.targets))
    assert np.abs(model.fitted_means() - fitted).max() <= scale
    assert np.abs(training.targets - model.alpha / p_diag - loo).max() <= scale
    assert np.abs(prediction.mean - mean).max() <= scale
    assert np.abs(prediction.variance - variance).max() <= tol * model.kernel.sigma_sq


def assert_model_equals_fit(model, rtol=0.0):
    """The search's model equals a fit at its kernel: bit for bit unless rtol."""
    refit = fit(model.training, model.basis, model.kernel)
    assert refit.kernel.jitter == model.kernel.jitter
    assert type(refit.factor) is type(model.factor)
    pairs = [(name, getattr(model, name), getattr(refit, name)) for name in ("alpha", "beta", "trend_whitened", "trend_r")]
    pairs += [(name, value, getattr(refit.factor, name)) for name, value in vars(model.factor).items()]
    for name, got, expected in pairs:
        if rtol == 0.0:
            assert np.array_equal(got, expected), name
        else:
            assert np.abs(got - expected).max() <= rtol * np.abs(expected).max(), name


class TestFitHyperparameters:
    def test_recovers_generating_theta(self):
        search = SearchConfig(theta_min=0.1, theta_max=10.0, steps=21)
        grid = search.grid()
        log_step = math.log10(grid[1]) - math.log10(grid[0])
        training = _sample_from_kernel(np.random.default_rng(3))
        kernel = fit_hyperparameters(training, BasisExpansion("const"), search).kernel
        assert abs(math.log10(kernel.theta[0])) <= log_step + 1e-9

    def test_selection_maximizes_reported_likelihood(self, rng):
        training = _sample_from_kernel(rng, n=20)
        search = SearchConfig(theta_min=0.2, theta_max=5.0, steps=7)
        selected = fit_hyperparameters(training, BasisExpansion("const"), search).kernel
        cells = {
            theta: profile_log_likelihood(training, BasisExpansion("const"), [theta], search.jitter)
            for theta in search.grid()
        }
        best, best_sigma_sq = cells[selected.theta[0]]
        assert best_sigma_sq == selected.sigma_sq
        for value, _ in cells.values():
            assert value <= best

    def test_constant_targets_degenerate(self):
        training = TrainingSet(
            inputs=np.linspace(0, 3, 8).reshape(-1, 1), targets=np.full(8, 2.5)
        )
        search = SearchConfig(theta_min=0.1, theta_max=10.0, steps=5)
        kernel = fit_hyperparameters(training, BasisExpansion("const"), search).kernel
        assert kernel.theta[0] in search.grid()
        # The profiled variance collapses toward 0 (rounding keeps the
        # residual quadratic form from being exactly zero at every theta).
        assert kernel.sigma_sq <= 1e-20
        # The degenerate kernel still fits and predicts the constant.
        model = fit(training, BasisExpansion("const"), kernel)
        assert predict(model, [1.234]).mean == pytest.approx(2.5, abs=1e-9)

    def test_exact_ties_resolve_to_smallest_theta(self):
        # With a single observation every grid cell evaluates identically,
        # so the ascending scan must keep the smallest theta.
        training = TrainingSet(inputs=np.array([[0.7]]), targets=np.array([3.2]))
        search = SearchConfig(theta_min=0.1, theta_max=10.0, steps=9)
        kernel = fit_hyperparameters(training, BasisExpansion("const"), search).kernel
        assert kernel.theta[0] == search.grid()[0]

    def test_single_cell_grid(self):
        training = _sample_from_kernel(np.random.default_rng(0), n=10)
        search = SearchConfig(theta_min=0.7, theta_max=0.7, steps=1)
        kernel = fit_hyperparameters(training, BasisExpansion("const"), search).kernel
        assert kernel.theta[0] == 0.7

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            SearchConfig(steps=0)
        with pytest.raises(ConfigError, match="bounds"):
            SearchConfig(theta_min=2.0, theta_max=1.0)

    def test_deterministic(self):
        training = _sample_from_kernel(np.random.default_rng(7), n=15)
        search = SearchConfig(theta_min=0.1, theta_max=10.0, steps=9)
        first = fit_hyperparameters(training, BasisExpansion("const"), search).kernel
        second = fit_hyperparameters(training, BasisExpansion("const"), search).kernel
        assert first.sigma_sq == second.sigma_sq
        assert np.array_equal(first.theta, second.theta)

    @pytest.mark.parametrize("jitter", [1e-10, 1e-6, 1e-4])
    @pytest.mark.parametrize("degree", ["const", "linear"])
    def test_matches_cell_by_cell_reference(self, monkeypatch, degree, jitter):
        # A sampled panel, both directions of the bundled panel, whose
        # rate-to-score inputs are tied (29 distinct rates over 382 rows),
        # and three panels of 300 to 600 distinct inputs, one of them 2-d.
        # Cells may be low-rank wherever there are at least
        # _LOW_RANK_MIN_ORDER distinct inputs and the jitter is 1e-6 or more;
        # a search whose cells are all dense gives the reference's bits.
        records = ingest_sites(bundled_sites_path())
        kept, _ = listwise_delete(records)
        panel = build_panel(
            normalize_and_score(kept), records, read_indicators(bundled_indicators_path())
        )
        cases = [_sample_from_kernel(np.random.default_rng(5), n=30)]
        for direction in Direction:
            inputs, targets = split_panel(panel, direction)
            cases.append(TrainingSet(inputs=inputs, targets=targets))
        cases.append(_sample_from_kernel(np.random.default_rng(5), n=300))
        inputs, targets = split_panel(synthetic_panel(600, 0.7, 0.5, 3), Direction.SCORE_TO_RATE)
        cases.append(TrainingSet(inputs=inputs, targets=targets))
        rng = np.random.default_rng(8)
        inputs = rng.uniform(0.0, 3.0, size=(300, 2))
        cases.append(TrainingSet(inputs=inputs, targets=np.sin(inputs).sum(axis=1)))
        basis = BasisExpansion(degree)
        search = SearchConfig(jitter=jitter)
        pivots = spy_partial_cholesky(monkeypatch)
        low_rank_winners = 0
        for training in cases:
            pivots.clear()
            model = fit_hyperparameters(training, basis, search)
            assert_model_equals_fit(model)
            distinct = model.groups.counts.size
            assert bool(pivots) == (distinct >= gpr._LOW_RANK_MIN_ORDER and jitter >= 1e-6)
            expected = reference_theta_search(training, basis, search)
            if isinstance(model.factor, gpr._Dense):
                assert_same_selection(model.kernel, expected)
            else:
                assert_selects_reference(model.kernel, expected)
                low_rank_winners += 1
            if pivots:
                assert_matches_dense_kriging(model, KRIGING_RTOL[jitter])
        # Bundled score-to-rate, the 600-row synth panel and the 300-row
        # sample pick low-rank cells (the last at rank 45, within the cap of
        # 300 // 6 = 50); the 2-d panel picks a dense cell.
        assert low_rank_winners == (0 if jitter == 1e-10 else 3)

    @pytest.mark.parametrize("degree", ["const", "linear"])
    def test_two_dimensional_model_matches_fit_at_its_kernel(self, rng, degree):
        # A cell divides each dimension by its theta before summing, as fit
        # does, so the factors agree bit for bit in any dimension.
        inputs = separated_inputs(rng, 40, 2, [1.0, 1.0])
        training = TrainingSet(inputs=inputs, targets=np.sin(inputs).sum(axis=1))
        model = fit_hyperparameters(training, BasisExpansion(degree), SearchConfig(jitter=1e-4))
        assert_model_equals_fit(model)

    def test_escalating_cells_match_reference(self):
        # Duplicated inputs make every cell singular at jitter 0.
        training = _sample_from_kernel(np.random.default_rng(9), n=12)
        inputs = np.vstack([training.inputs, training.inputs[:4]])
        targets = np.concatenate([training.targets, training.targets[:4]])
        training = TrainingSet(inputs=inputs, targets=targets)
        basis = BasisExpansion("const")
        search = SearchConfig(jitter=0.0)
        model = fit_hyperparameters(training, basis, search)
        assert model.kernel.jitter > 0.0
        assert_same_selection(model.kernel, reference_theta_search(training, basis, search))
        assert_model_equals_fit(model)

    def test_each_ladder_rung_of_a_cell_regularizes_the_unjittered_matrix(self, monkeypatch):
        # A cell refills its buffer from the distances after a failed rung.
        tried = fail_dpftrf_three_times(monkeypatch)
        inputs = np.array([[0.0], [0.4], [1.0]])
        training = TrainingSet(inputs=inputs, targets=np.array([0.0, 0.5, 1.0]))
        search = SearchConfig(theta_min=0.7, theta_max=0.7, steps=1, jitter=0.0)
        model = fit_hyperparameters(training, BasisExpansion("const"), search)
        assert model.kernel.jitter == 1e-8
        corr = correlation(inputs, inputs, [0.7])
        for matrix, jitter in zip(tried, [0.0, 1e-10, 1e-9, 1e-8]):
            assert np.array_equal(matrix, pack(corr + jitter * np.eye(3)))

    def test_gradient_sign_consistent_with_grid_trajectory(self):
        # Central finite differences of the profile likelihood in log theta
        # must agree in sign with the discrete trend between neighboring
        # grid cells on the way to the optimum.
        training = _sample_from_kernel(np.random.default_rng(11))
        basis = BasisExpansion("const")
        search = SearchConfig(theta_min=0.1, theta_max=10.0, steps=13)
        grid = search.grid()

        def profile_ll(theta):
            return profile_log_likelihood(training, basis, [theta], search.jitter)[0]

        values = np.array([profile_ll(t) for t in grid])
        best = int(np.argmax(values))
        selected = fit_hyperparameters(training, basis, search).kernel
        assert selected.theta[0] == grid[best]
        h = 1e-4
        for i in range(len(grid)):
            if i == best:
                continue  # at the peak the local slope may point either way
            log_t = math.log(grid[i])
            grad = (profile_ll(math.exp(log_t + h)) - profile_ll(math.exp(log_t - h))) / (2 * h)
            toward_optimum = 1.0 if i < best else -1.0
            assert math.copysign(1.0, grad) == toward_optimum

    @pytest.mark.parametrize("degree", ["const", "linear"])
    def test_interior_winner_is_refactorized(self, monkeypatch, degree):
        # The winner sits inside the grid, so the cells after it overwrite
        # its factor in the one buffer and it is factorized once more.
        training = _sample_from_kernel(np.random.default_rng(3), n=150)
        grid = SearchConfig().grid()
        calls = spy_factorize(monkeypatch)
        model = fit_hyperparameters(training, BasisExpansion(degree), SearchConfig())
        winner = model.kernel.theta[0]
        assert grid[0] < winner < grid[-1]
        assert calls == list(grid) + [winner]
        assert_model_equals_fit(model)

    def test_last_cell_winner_is_not_refactorized(self, monkeypatch):
        training = _sample_from_kernel(np.random.default_rng(3), n=60, theta=40.0)
        calls = spy_factorize(monkeypatch)
        model = fit_hyperparameters(training, BasisExpansion("const"), SearchConfig())
        assert model.kernel.theta[0] == SearchConfig().grid()[-1]
        assert len(calls) == SearchConfig().steps
        assert_model_equals_fit(model)

    def test_fit_error_in_an_interior_cell_skips_it(self, monkeypatch):
        # The cell that fails is the one that would have won.
        training = _sample_from_kernel(np.random.default_rng(5), n=80)
        basis, search = BasisExpansion("const"), SearchConfig()
        failed = [fit_hyperparameters(training, basis, search).kernel.theta[0]]
        assert search.grid()[0] < failed[0] < search.grid()[-1]

        def fail(theta):
            if theta in failed:
                raise FitError("injected")

        calls = spy_factorize(monkeypatch, fail)
        model = fit_hyperparameters(training, basis, search)
        assert failed[0] in calls and model.kernel.theta[0] != failed[0]
        assert_same_selection(model.kernel, reference_theta_search(training, basis, search, failed))
        assert_model_equals_fit(model)

    def test_other_error_in_a_cell_propagates(self, monkeypatch):
        training = _sample_from_kernel(np.random.default_rng(5), n=80)
        interior = SearchConfig().grid()[5]

        def fail(theta):
            if theta == interior:
                raise RuntimeError("cell broke")

        calls = spy_factorize(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="cell broke"):
            fit_hyperparameters(training, BasisExpansion("const"), SearchConfig())
        assert calls[-1] == interior


def spy_factorize(monkeypatch, before=None):
    """Wrap gpr._factorize, calling before(theta) first on each call;
    returns the list of the theta of every call."""
    factorize = gpr._factorize
    calls = []

    def spy(buf, groups, theta, jitter):
        calls.append(float(theta[0]))
        if before is not None:
            before(float(theta[0]))
        return factorize(buf, groups, theta, jitter)

    monkeypatch.setattr(gpr, "_factorize", spy)
    return calls


def spy_partial_cholesky(monkeypatch):
    """Wrap gpr._partial_cholesky; returns the list of (theta, rank or None)
    of every call."""
    partial_cholesky = gpr._partial_cholesky
    calls = []

    def spy(groups, theta, work):
        rank = partial_cholesky(groups, theta, work)
        calls.append((float(theta[0]), rank))
        return rank

    monkeypatch.setattr(gpr, "_partial_cholesky", spy)
    return calls


def spy_low_rank_work(monkeypatch):
    """Wrap gpr._low_rank_work, handing out each reservation filled with NaN;
    returns the list of every reservation, so a row never written stays NaN."""
    low_rank_work = gpr._low_rank_work
    reservations = []

    def spy(groups, p):
        work = low_rank_work(groups, p)
        work.fill(np.nan)
        reservations.append(work)
        return work

    monkeypatch.setattr(gpr, "_low_rank_work", spy)
    return reservations


def bundled_panel():
    records = ingest_sites(bundled_sites_path())
    kept, _ = listwise_delete(records)
    return build_panel(normalize_and_score(kept), records, read_indicators(bundled_indicators_path()))


def scan(calls):
    """The scan's share of spy_partial_cholesky's calls: a low-rank winner
    runs its pivots once more after the scan."""
    return calls[: SearchConfig().steps]


class TestScreen:
    """Where cells may be low-rank, every cell that reaches numerical rank
    within u // 6 pivots is its own model, every other cell is factorized
    densely, and the search selects the theta the dense scan selects."""

    def search(self, training, jitter=1e-4):
        return fit_hyperparameters(training, BasisExpansion("const"), SearchConfig(jitter=jitter))

    def test_bounds_hold_the_dense_likelihood(self, monkeypatch):
        # A low-rank cell's likelihood is the dense cell's to within the dense
        # factor's own rounding allowance, which bounds the truncation too.
        training = _sample_from_kernel(np.random.default_rng(5), n=300)
        pivots = spy_partial_cholesky(monkeypatch)
        model = self.search(training)
        allowance = gpr._rounding_allowance(model.groups, 1e-4)
        assert allowance < gpr._LOW_RANK_ALLOWANCE
        design = model.basis.design_matrix(model.groups.inputs)
        work = gpr._low_rank_work(model.groups, design.shape[1])
        low_rank = [theta for theta, rank in scan(pivots) if rank is not None]
        assert 0 < len(low_rank) < SearchConfig().steps
        for theta in low_rank:
            rank = gpr._partial_cholesky(model.groups, np.array([theta]), work)
            value, sigma_sq = gpr._low_rank_likelihood(work, rank, model.groups, design, 1e-4)
            dense, dense_sigma_sq = profile_log_likelihood(training, model.basis, [theta], 1e-4)
            assert abs(value - dense) <= allowance
            assert abs(sigma_sq - dense_sigma_sq) <= SIGMA_SQ_RTOL * dense_sigma_sq

    @pytest.mark.parametrize(
        "rows, jitter, every_cell",
        [
            (600, 1e-10, True),
            (600, 0.0, True),
            (gpr._LOW_RANK_MIN_ORDER - 1, 1e-4, True),
            (600, 1e-4, False),
        ],
    )
    def test_factorizes_fewer_cells_only_where_it_screens(
        self, monkeypatch, rows, jitter, every_cell
    ):
        # At jitter 1e-10 rounding could move a cell's likelihood further
        # than the low-rank form is exact, at jitter 0 by any amount, and
        # below _LOW_RANK_MIN_ORDER distinct inputs a dense cell costs too
        # little to go low-rank. fit is the search at one cell, so its
        # factor is dense exactly where every cell of the search is.
        training = _sample_from_kernel(np.random.default_rng(5), n=rows)
        calls = spy_factorize(monkeypatch)
        self.search(training, jitter)
        assert (set(calls) == set(SearchConfig().grid())) == every_cell
        model = fit(training, BasisExpansion("const"), kernel_1d(jitter=jitter))
        assert isinstance(model.factor, gpr._Dense) == every_cell

    def test_failed_first_cell_rules_out_nothing(self, monkeypatch):
        # A FitError in the first dense cell skips that cell alone: every
        # other cell still runs, low-rank or dense.
        training = _sample_from_kernel(np.random.default_rng(5), n=300)
        failed = []

        def fail_first(theta):
            if not failed:
                failed.append(theta)
                raise FitError("injected")

        pivots = spy_partial_cholesky(monkeypatch)
        calls = spy_factorize(monkeypatch, fail_first)
        model = self.search(training)
        search = SearchConfig(jitter=1e-4)
        capped = {theta for theta, rank in scan(pivots) if rank is None}
        assert [theta for theta, _ in scan(pivots)] == list(search.grid())
        assert failed[0] in capped and set(calls) == capped
        assert model.kernel.theta[0] != failed[0]
        expected = reference_theta_search(training, BasisExpansion("const"), search, failed)
        assert_selects_reference(model.kernel, expected)
        assert_model_equals_fit(model)

    def test_cells_past_the_rank_cap_survive(self, monkeypatch):
        # On inputs uniform over [0, 6] the three smallest thetas need more
        # than u // 6 pivots to reach numerical rank (76, 64 and 54 > 50), so
        # those cells, and only those, are factorized densely.
        training = _sample_from_kernel(np.random.default_rng(5), n=300)
        pivots = spy_partial_cholesky(monkeypatch)
        calls = spy_factorize(monkeypatch)
        model = self.search(training)
        capped = [theta for theta, rank in scan(pivots) if rank is None]
        ranks = [rank for _, rank in scan(pivots) if rank is not None]
        assert capped and ranks and max(ranks) <= 300 // 6
        assert sorted(set(calls)) == capped
        search = SearchConfig(jitter=1e-4)
        assert_selects_reference(model.kernel, reference_theta_search(training, model.basis, search))
        assert_model_equals_fit(model)

    def test_logs_ranks_and_survivors(self, monkeypatch, caplog):
        # One DEBUG line per cell says how the cell was computed.
        training = _sample_from_kernel(np.random.default_rng(5), n=300)
        pivots = spy_partial_cholesky(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="jobsignal.gpr"):
            self.search(training)
        messages = [r.getMessage() for r in caplog.records if r.name == "jobsignal.gpr"]
        expected = [
            f"theta={theta:g}: dense" if rank is None else f"theta={theta:g}: low-rank, rank {rank}"
            for theta, rank in scan(pivots)
        ]
        assert messages == expected
        assert any(": dense" in m for m in messages) and any(": low-rank" in m for m in messages)

    @pytest.mark.parametrize("degree", ["const", "linear"])
    def test_bundled_score_to_rate_factorizes_no_cell(self, monkeypatch, caplog, degree):
        # The paper's panel: 382 distinct scores, and theta = 0.1 reaches rank
        # 53, within the cap of 382 // 6 = 63, so every cell is low-rank.
        inputs, targets = split_panel(bundled_panel(), Direction.SCORE_TO_RATE)
        training = TrainingSet(inputs=inputs, targets=targets)
        calls = spy_factorize(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="jobsignal.gpr"):
            model = fit_hyperparameters(training, BasisExpansion(degree), SearchConfig(jitter=1e-4))
        messages = [r.getMessage() for r in caplog.records if r.name == "jobsignal.gpr"]
        assert calls == []
        assert messages[0] == "theta=0.1: low-rank, rank 53"
        assert len(messages) == SearchConfig().steps
        assert all(": low-rank, rank " in m for m in messages)
        assert_model_equals_fit(model)

    @pytest.mark.parametrize("degree", ["const", "linear"])
    @pytest.mark.parametrize("case", ["synth-300", "synth-600", "bundled", "2-d"])
    def test_matches_the_reference_step_bit_for_bit(self, case, degree):
        # The pivot step writes into preallocated arrays; the arithmetic is
        # the reference's, so every factor and rank is the same bits, though
        # every cell pivots in what the one work buffer holds from the last.
        # On the 2-d panel over [0, 3]^2 cells stop at the rank cap of u // 6.
        if case == "2-d":
            inputs = np.random.default_rng(8).uniform(0.0, 3.0, size=(300, 2))
            training = TrainingSet(inputs=inputs, targets=np.sin(inputs).sum(axis=1))
        else:
            if case == "bundled":
                panel = bundled_panel()
            else:
                panel = synthetic_panel(int(case[6:]), 0.7, 0.5, 3)
            inputs, targets = split_panel(panel, Direction.SCORE_TO_RATE)
            training = TrainingSet(inputs=inputs, targets=targets)
        basis = BasisExpansion(degree)
        groups = gpr._group_rows(training)
        design = gpr._trend_design(training, basis, groups)
        u, d = groups.counts.size, training.ndim
        assert u >= gpr._LOW_RANK_MIN_ORDER
        work = gpr._low_rank_work(groups, design.shape[1])
        capped = 0
        for theta in SearchConfig().grid():
            rank = gpr._partial_cholesky(groups, np.full(d, theta), work)
            expected = reference_partial_cholesky(groups, np.full(d, theta))
            if expected is None:
                assert rank is None
                capped += 1
                continue
            assert rank == expected.shape[1] <= u // 6
            assert np.array_equal(work[:rank, :u].T, expected)
            # As in the search, the cell's QR overwrites work, and the next
            # cell pivots in what is left of it.
            gpr._low_rank_likelihood(work, rank, groups, design, 1e-4)
        assert capped or case != "2-d"


class TestMemory:
    def test_peak_allocation_in_covariance_units(self):
        # Peak traced allocation over N x N doubles: the search and fit
        # each hold one packed factor of N(N+1)/2 doubles and no distance
        # matrix, and the held-out diagonals invert one packed copy of it.
        training = _sample_from_kernel(np.random.default_rng(21), n=600)
        basis = BasisExpansion("const")

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1] / (training.n**2 * 8)
            finally:
                tracemalloc.stop()

        assert peak(lambda: fit_hyperparameters(training, basis, SearchConfig())) <= 0.75
        assert peak(lambda: fit(training, basis, kernel_1d())) <= 0.75
        # At jitter 1e-4, with the inputs stretched over [0, 9], the smallest
        # theta needs more than u // 6 pivots and is dense, and the others
        # are low-rank, the next at rank 92: the packed buffer and the work
        # buffer of u/6 + 2 columns of u + u/6 doubles are held together.
        stretched = TrainingSet(inputs=training.inputs * 1.5, targets=training.targets)
        mixed = SearchConfig(jitter=1e-4)
        assert peak(lambda: fit_hyperparameters(stretched, basis, mixed)) <= 0.75
        model = fit(training, basis, kernel_1d(jitter=1e-4))
        assert peak(model.held_out_diagonals) <= 0.75

    @staticmethod
    def low_rank_search(monkeypatch, n, seed):
        """(calls to _factorize, the cells' ranks, the model, and the peak
        traced allocation over N x N doubles of the search at jitter 1e-4
        and the held-out diagonals) on a synth panel."""
        inputs, targets = split_panel(synthetic_panel(n, 0.7, 0.5, seed), Direction.SCORE_TO_RATE)
        training = TrainingSet(inputs=inputs, targets=targets)
        calls = spy_factorize(monkeypatch)
        pivots = spy_partial_cholesky(monkeypatch)
        tracemalloc.start()
        try:
            model = fit_hyperparameters(training, BasisExpansion("const"), SearchConfig(jitter=1e-4))
            model.held_out_diagonals()
            peak = tracemalloc.get_traced_memory()[1] / (n**2 * 8)
        finally:
            tracemalloc.stop()
        rank = model.factor.q.shape[1]
        assert model.factor.q.shape == (n + rank, rank)
        return calls, [rank for _, rank in scan(pivots)], model, peak

    def test_low_rank_search_holds_no_packed_buffer(self, monkeypatch):
        # Every cell of the 600-row synth panel reaches numerical rank within
        # u // 6 = 100 pivots (ranks 68 down to 14), so no packed buffer of
        # N(N+1)/2 doubles, 0.5 in these units, is allocated. The peak, 0.23,
        # is mostly the work buffer, reserved at the cap: 102 columns of
        # u + 100 doubles, 0.20 in these units.
        calls, ranks, model, peak = self.low_rank_search(monkeypatch, 600, 3)
        assert calls == []
        assert ranks[0] == 68 and model.factor.q.shape[1] < 600 // 6
        assert peak <= 0.25

    def test_rank_near_the_cap_holds_no_packed_buffer(self, monkeypatch):
        # On the 500-row synth panel (seed 1) theta = 0.1 reaches rank 63,
        # within the cap of 500 // 6 = 83, so every cell is low-rank. The
        # work buffer is reserved at the cap, 85 columns of u + 83 doubles,
        # 0.20 in these units, and the peak is 0.24.
        calls, ranks, _, peak = self.low_rank_search(monkeypatch, 500, 1)
        assert calls == []
        assert ranks[0] == 63 <= 500 // 6
        assert peak <= 0.25

    @pytest.mark.parametrize("case", ["bundled", "synth-1600"])
    def test_rows_past_the_largest_rank_are_never_written(self, monkeypatch, case):
        # The work buffer is reserved once, uninitialised, at the cap, and a
        # cell of rank m writes its first m + p + 1 rows: the rows past the
        # largest, never written, never become resident. On bundled
        # score-to-rate that is 55 of 65 rows, on the 1600-row panel 74 of 268.
        panel = bundled_panel() if case == "bundled" else synthetic_panel(1600, 0.7, 0.5, 3)
        inputs, targets = split_panel(panel, Direction.SCORE_TO_RATE)
        training = TrainingSet(inputs=inputs, targets=targets)
        reservations = spy_low_rank_work(monkeypatch)
        pivots = spy_partial_cholesky(monkeypatch)
        fit_hyperparameters(training, BasisExpansion("const"), SearchConfig(jitter=1e-4))
        written = max(rank for _, rank in pivots) + 2
        [work] = reservations
        assert work.shape == (training.n // 6 + 2, training.n + training.n // 6)
        assert written < work.shape[0]
        assert not np.isnan(work[written - 1, : training.n]).any()
        assert np.isnan(work[written:]).all()

    def test_a_cell_past_the_cap_lets_the_work_buffer_go(self, monkeypatch):
        # The stretched 600-row search of test_peak_allocation_in_covariance_units:
        # theta = 0.1 pivots to the cap, lets the work buffer go before its
        # dense factorization, and the next cell, low-rank, reserves it again.
        training = _sample_from_kernel(np.random.default_rng(21), n=600)
        stretched = TrainingSet(inputs=training.inputs * 1.5, targets=training.targets)
        reservations = []
        low_rank_work = gpr._low_rank_work

        def reserve(groups, p):
            work = low_rank_work(groups, p)
            reservations.append(weakref.ref(work))
            return work

        def nothing_reserved(theta):
            assert all(ref() is None for ref in reservations)

        monkeypatch.setattr(gpr, "_low_rank_work", reserve)
        calls = spy_factorize(monkeypatch, nothing_reserved)
        model = fit_hyperparameters(stretched, BasisExpansion("const"), SearchConfig(jitter=1e-4))
        assert calls == [0.1]
        assert len(reservations) == 2
        assert isinstance(model.factor, gpr._LowRank)

    def test_low_rank_winner_before_a_cell_past_the_cap(self, monkeypatch):
        # theta = 1 is low-rank (rank 29) and wins; theta = 0.1, after it,
        # passes the cap and lets the work buffer go, so the winner reserves
        # it again to pivot once more. The model is fit's at its kernel.
        training = _sample_from_kernel(np.random.default_rng(5), n=300)
        reservations = spy_low_rank_work(monkeypatch)
        calls = spy_factorize(monkeypatch)
        model = gpr._fit(training, BasisExpansion("const"), [np.array([1.0]), np.array([0.1])], 1e-4)
        assert calls == [0.1]
        assert len(reservations) == 2
        assert isinstance(model.factor, gpr._LowRank)
        assert model.kernel.theta[0] == 1.0
        assert_model_equals_fit(model)

    def test_tied_panel_peak_allocation_in_row_units(self):
        # 20,000 rows over 40 distinct inputs. The search and the held-out
        # diagonals work on the 40 x 40 compressed matrix, so the peak traced
        # allocation counts N-long arrays (the two diagonals it returns and
        # their temporaries); one N x N buffer would be 20,000 of these
        # units, 3.2 GB.
        rng = np.random.default_rng(21)
        n, distinct = 20_000, 40
        levels = rng.uniform(0.0, 6.0, size=(distinct, 1))
        inputs = levels[np.arange(n) % distinct]
        training = TrainingSet(inputs=inputs, targets=np.sin(inputs[:, 0]) + rng.normal(0.0, 0.3, n))
        tracemalloc.start()
        try:
            model = fit_hyperparameters(training, BasisExpansion("const"), SearchConfig())
            search_peak = tracemalloc.get_traced_memory()[1] / (n * 8)
            tracemalloc.reset_peak()
            p_diag, inv_diag = model.held_out_diagonals()
            loo_peak = tracemalloc.get_traced_memory()[1] / (n * 8)
        finally:
            tracemalloc.stop()
        assert model.factor.chol.shape == (distinct * (distinct + 1) // 2,)
        assert p_diag.shape == inv_diag.shape == (n,)
        assert search_peak <= 8.0
        assert loo_peak <= 32.0


class TestTypes:
    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            Kernel(sigma_sq=0.0, theta=[1.0])
        with pytest.raises(ValueError):
            Kernel(sigma_sq=1.0, theta=[0.0])
        with pytest.raises(ValueError):
            Kernel(sigma_sq=1.0, theta=[1.0], jitter=-1e-3)
        with pytest.raises(ValueError):
            Kernel(sigma_sq=1.0, theta=[])

    def test_training_set_validation(self):
        with pytest.raises(ValueError):
            TrainingSet(inputs=np.zeros((2, 1)), targets=np.zeros(3))
        with pytest.raises(ValueError):
            TrainingSet(inputs=np.zeros((0, 1)), targets=np.zeros(0))
        with pytest.raises(ValueError):
            TrainingSet(inputs=np.array([[np.nan]]), targets=np.array([1.0]))
        with pytest.raises(ValueError, match=re.escape("inputs must be a 2-d array of shape (N, d)")):
            TrainingSet(inputs=np.zeros(3), targets=np.zeros(3))
        with pytest.raises(ValueError, match="targets must be a 1-d vector"):
            TrainingSet(inputs=np.zeros((3, 1)), targets=np.zeros((3, 1)))

    def test_unknown_degree_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            BasisExpansion("quadratic")
