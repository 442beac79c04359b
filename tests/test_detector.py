import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aedetect.detector import (
    SCORE_CHUNK,
    ScoreSeries,
    ThresholdSpec,
    detect,
    fit_threshold,
    percentile_linear,
    residuals,
    score_mahalanobis,
    score_pointwise_mse,
    score_window_mse,
)
from aedetect.errors import LeakageError, ValidationError
from aedetect.models import DenseAutoencoder, LstmAutoencoder
from aedetect.preprocess import WindowSpec, partition_windows
from aedetect.training import CovarianceModel, estimate_residual_covariance


class FixedOutput:
    """Stub model returning a fixed reconstruction."""

    def __init__(self, xhat):
        self.xhat = np.asarray(xhat, dtype=np.float64)

    def forward(self, x, cache=True):
        return self.xhat


class ForwardSpy:
    """Wraps a model and records (cache, rows) of every forward call."""

    def __init__(self, model):
        self.model = model
        self.calls = []

    def forward(self, x, cache=True):
        self.calls.append((cache, x.shape[0]))
        return self.model.forward(x, cache)


def percentile_oracle(scores, alpha):
    """Independent sort-and-interpolate oracle in pure python."""
    s = sorted(float(v) for v in scores)
    n = len(s)
    h = (n - 1) * alpha / 100.0
    j = math.floor(h)
    if j + 1 >= n:
        return s[n - 1]
    frac = h - j
    return s[j] + frac * (s[j + 1] - s[j])


class TestScorePointwiseMse:
    def test_perfect_reconstruction(self):
        x = np.random.default_rng(0).random((5, 3))
        series = score_pointwise_mse(FixedOutput(x), x)
        assert not series.scores.any()
        assert series.kind == "mse_point"

    def test_two_channel_unit_residual(self):
        series = score_pointwise_mse(FixedOutput(np.ones((1, 2))), np.zeros((1, 2)))
        assert series.scores[0] == 1.0

    def test_matches_per_row_loop(self):
        rng = np.random.default_rng(1)
        x = rng.random((20, 6))
        model = DenseAutoencoder(d=6, seed=0)
        series = score_pointwise_mse(model, x)
        xhat = model.forward(x)
        for i in range(20):
            expected = sum((xhat[i, j] - x[i, j]) ** 2 for j in range(6)) / 6
            assert series.scores[i] == pytest.approx(expected, rel=1e-12)

    def test_batch_reordering_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.random((15, 4))
        model = DenseAutoencoder(d=4, seed=1)
        perm = rng.permutation(15)
        direct = score_pointwise_mse(model, x).scores[perm]
        permuted = score_pointwise_mse(model, x[perm]).scores
        assert np.array_equal(direct, permuted)


class TestScoreWindowMse:
    def test_zero_residual(self):
        w = np.random.default_rng(3).random((3, 5, 4))
        series = score_window_mse(FixedOutput(w), w)
        assert not series.scores.any()
        assert series.kind == "mse_window"

    def test_uniform_residual(self):
        w = np.zeros((1, 5, 51))
        series = score_window_mse(FixedOutput(w + 0.1), w)
        assert series.scores[0] == pytest.approx(0.01, abs=1e-15)

    def test_equals_flatten_then_pointwise(self):
        rng = np.random.default_rng(4)
        w = rng.random((6, 5, 3))
        model = LstmAutoencoder(d=3, window_length=5, seed=0)
        series = score_window_mse(model, w)
        what = model.forward(w)
        flat = np.mean((what.reshape(6, 15) - w.reshape(6, 15)) ** 2, axis=1)
        assert np.allclose(series.scores, flat, rtol=1e-15, atol=0)


class TestScoreMahalanobis:
    def test_identity_covariance(self):
        cov = CovarianceModel.from_sigma(np.eye(2), 0.0)
        series = score_mahalanobis(FixedOutput(np.array([[3.0, 4.0]])), cov,
                                   np.zeros((1, 2)))
        assert series.scores[0] == pytest.approx(5.0, abs=1e-12)
        assert series.kind == "mahalanobis"

    def test_zero_residual(self):
        cov = CovarianceModel.from_sigma(np.eye(3), 0.0)
        x = np.random.default_rng(5).random((4, 3))
        series = score_mahalanobis(FixedOutput(x), cov, x)
        assert not series.scores.any()

    def test_equals_whitened_norm(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 5))
        cov = CovarianceModel.from_sigma(a @ a.T + 0.3 * np.eye(5), 0.0)
        x = rng.random((10, 5))
        xhat = rng.random((10, 5))
        series = score_mahalanobis(FixedOutput(xhat), cov, x)
        white = (xhat - x) @ cov.sigma_inv_sqrt
        expected = np.sqrt(np.sum(white * white, axis=1))
        assert np.allclose(series.scores, expected, rtol=0, atol=1e-10)

    def test_identity_covariance_is_sqrt_d_times_mse(self):
        rng = np.random.default_rng(7)
        x, xhat = rng.random((8, 4)), rng.random((8, 4))
        cov = CovarianceModel.from_sigma(np.eye(4), 0.0)
        d_scores = score_mahalanobis(FixedOutput(xhat), cov, x).scores
        m_scores = score_pointwise_mse(FixedOutput(xhat), x).scores
        assert np.allclose(d_scores, np.sqrt(4 * m_scores), rtol=0, atol=1e-10)

    def test_dimension_mismatch(self):
        cov = CovarianceModel.from_sigma(np.eye(3), 0.0)
        with pytest.raises(ValidationError):
            score_mahalanobis(FixedOutput(np.zeros((2, 2))), cov, np.zeros((2, 2)))


class TestFitThreshold:
    def train_series(self, scores, kind="mse_point"):
        return ScoreSeries(np.asarray(scores, dtype=np.float64),
                           np.arange(len(scores)), kind, from_training=True)

    def test_one_to_hundred_at_95(self):
        spec = fit_threshold(self.train_series(np.arange(1.0, 101.0)), 95.0)
        assert spec.tau == 95.05
        assert spec.fitted_on == 100

    def test_constant_scores(self):
        for alpha in (5.0, 50.0, 99.9):
            spec = fit_threshold(self.train_series([2.5] * 10), alpha)
            assert spec.tau == 2.5

    def test_single_score(self):
        assert fit_threshold(self.train_series([0.7]), 95.0).tau == 0.7

    def test_alpha_100_is_max(self):
        spec = fit_threshold(self.train_series([3.0, 1.0, 2.0]), 100.0)
        assert spec.tau == 3.0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError):
            fit_threshold(self.train_series([1.0]), 0.0)
        with pytest.raises(ValidationError):
            fit_threshold(self.train_series([1.0]), 150.0)

    def test_non_training_scores_rejected(self):
        series = ScoreSeries(np.ones(3), np.arange(3), "mse_point",
                             from_training=False)
        with pytest.raises(LeakageError):
            fit_threshold(series, 95.0)

    def test_empty_scores(self):
        with pytest.raises(ValidationError):
            fit_threshold(self.train_series([]), 95.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=60),
           st.floats(0.01, 100.0))
    def test_matches_oracle_exactly(self, scores, alpha):
        spec = fit_threshold(self.train_series(scores), alpha)
        assert spec.tau == percentile_oracle(scores, alpha)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=40),
           st.floats(1, 99), st.floats(0.1, 10))
    def test_monotone_in_alpha(self, scores, alpha, bump):
        lo = fit_threshold(self.train_series(scores), alpha)
        hi = fit_threshold(self.train_series(scores), min(alpha + bump, 100.0))
        assert hi.tau >= lo.tau


class TestDetect:
    def test_strict_inequality(self):
        series = ScoreSeries(np.array([0.1, 0.5, 0.9]), np.arange(3), "mse_point")
        spec = ThresholdSpec(95.0, 0.5, "mse_point", 3)
        assert detect(series, spec).tolist() == [False, False, True]

    def test_all_below(self):
        series = ScoreSeries(np.array([0.1, 0.2]), np.arange(2), "mse_point")
        assert not detect(series, ThresholdSpec(95.0, 0.9, "mse_point", 2)).any()

    def test_kind_mismatch(self):
        series = ScoreSeries(np.ones(2), np.arange(2), "mse_window")
        with pytest.raises(ValidationError):
            detect(series, ThresholdSpec(95.0, 0.5, "mse_point", 2))

    @pytest.mark.parametrize("tau, fitted_on", (
        (float("nan"), 3), (float("inf"), 3), (float("-inf"), 3), (-0.5, 3),
        (0.5, 0), (0.5, -5),
    ))
    def test_spec_needs_finite_tau_and_a_fitting_set(self, tau, fitted_on):
        with pytest.raises(ValidationError):
            ThresholdSpec(95.0, tau, "mse_point", fitted_on)

    def test_flagged_fraction_of_fitting_set(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            scores = rng.random(rng.integers(5, 300))
            series = ScoreSeries(scores, np.arange(scores.size), "mse_point",
                                 from_training=True)
            spec = fit_threshold(series, 95.0)
            frac = detect(series, spec).mean()
            assert frac <= 0.05 + 1.0 / scores.size


class TestScoreSeriesInvariants:
    def test_negative_scores_rejected(self):
        with pytest.raises(ValidationError):
            ScoreSeries(np.array([-0.1]), np.array([0]), "mse_point")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            ScoreSeries(np.array([0.1]), np.array([0]), "anomaly")

    def test_percentile_linear_matches_numpy(self):
        rng = np.random.default_rng(11)
        scores = np.sort(rng.random(37))
        for alpha in (1.0, 42.5, 95.0, 99.0):
            assert percentile_linear(scores, alpha) == pytest.approx(
                np.percentile(scores, alpha), rel=1e-12)


CHUNK_SIZES = (1, SCORE_CHUNK, SCORE_CHUNK + 1, 2 * SCORE_CHUNK + 56)


def dense_case(n):
    return DenseAutoencoder(d=8, seed=3), np.random.default_rng(n).random((n, 8))


def lstm_case(n):
    model = LstmAutoencoder(d=8, window_length=5, seed=4)
    return model, np.random.default_rng(n).random((n, 5, 8))


class TestChunkedScoring:
    """Chunked no-cache scoring equals one cached forward pass bit for bit."""

    @pytest.mark.parametrize("n", CHUNK_SIZES)
    @pytest.mark.parametrize("case", (dense_case, lstm_case))
    def test_residuals_equal_one_pass(self, case, n):
        model, x = case(n)
        assert residuals(model, x).tobytes() == (model.forward(x) - x).tobytes()

    @pytest.mark.parametrize("n", CHUNK_SIZES)
    def test_dense_scores_equal_one_pass(self, n):
        model, x = dense_case(n)
        a = np.random.default_rng(5).standard_normal((8, 8))
        cov = CovarianceModel.from_sigma(a @ a.T + 0.5 * np.eye(8), 0.0)
        r = model.forward(x) - x
        mse = np.mean(r * r, axis=1)
        distance = np.sqrt(np.maximum(
            np.einsum("ij,jk,ik->i", r, cov.sigma_inv, r), 0.0))
        assert np.array_equal(score_pointwise_mse(model, x).scores, mse)
        assert np.array_equal(score_mahalanobis(model, cov, x).scores, distance)

    @pytest.mark.parametrize("n", CHUNK_SIZES)
    def test_window_scores_equal_one_pass(self, n):
        model, w = lstm_case(n)
        r = model.forward(w) - w
        assert np.array_equal(score_window_mse(model, w).scores,
                              np.mean(r * r, axis=(1, 2)))

    @pytest.mark.parametrize("n", (SCORE_CHUNK + 1, 2 * SCORE_CHUNK + 56))
    def test_scoring_runs_balanced_no_cache_chunks(self, n):
        model, x = dense_case(n)
        wmodel, w = lstm_case(n)
        cov = CovarianceModel.from_sigma(np.eye(8), 0.0)
        calls = [
            lambda spy: score_pointwise_mse(spy, x),
            lambda spy: score_mahalanobis(spy, cov, x),
            lambda spy: estimate_residual_covariance(spy, x),
        ]
        for score in calls:
            spy = ForwardSpy(model)
            score(spy)
            self.assert_chunked(spy, n)
        spy = ForwardSpy(wmodel)
        score_window_mse(spy, w)
        self.assert_chunked(spy, n)

    def test_window_set_scores_equal_its_tensor(self):
        # 1 025 windows over one run of rows: two chunks, gathered one at a time
        model, n, t = LstmAutoencoder(d=8, window_length=5, seed=4), 1025, 5
        matrix = np.random.default_rng(n).random((n + t - 1, 8))
        ws, _, _ = partition_windows(matrix, np.zeros(n + t - 1, dtype=bool),
                                     np.arange(n + t - 1), WindowSpec(t, 1))
        w = np.asarray(ws)
        assert w.shape == (n, t, 8)
        spy = ForwardSpy(model)
        scores = score_window_mse(spy, ws).scores
        self.assert_chunked(spy, n)
        assert scores.tobytes() == score_window_mse(model, w).scores.tobytes()

    @staticmethod
    def assert_chunked(spy, n):
        caches = [cache for cache, _ in spy.calls]
        rows = [rows for _, rows in spy.calls]
        assert not any(caches)
        assert sum(rows) == n
        assert max(rows) <= SCORE_CHUNK and min(rows) >= SCORE_CHUNK // 2
