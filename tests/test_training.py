import tracemalloc

import numpy as np
import pytest

from aedetect import training
from aedetect.detector import SCORE_CHUNK
from aedetect.errors import LeakageError, NumericError, ValidationError
from aedetect.models import DenseAutoencoder, LstmAutoencoder
from aedetect.training import (
    CovarianceModel,
    TrainConfig,
    estimate_residual_covariance,
    mahalanobis_loss,
    matrix_inverse_sqrt,
    mse_loss,
    train,
)


class FixedOutput:
    """Stub model whose forward pass returns a fixed reconstruction."""

    def __init__(self, xhat):
        self.xhat = np.asarray(xhat, dtype=np.float64)

    def forward(self, x, cache=True):
        return self.xhat


def loss_grad_check(loss_fn, x, xhat, h=1e-5):
    _, grad = loss_fn(x, xhat)
    worst = 0.0
    flat = xhat.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = loss_fn(x, xhat)[0]
        flat[k] = orig - h
        down = loss_fn(x, xhat)[0]
        flat[k] = orig
        num = (up - down) / (2 * h)
        a = grad.ravel()[k]
        worst = max(worst, abs(a - num) / max(abs(a), abs(num), 1e-8))
    return worst


class TestMseLoss:
    def test_perfect_reconstruction(self):
        x = np.random.default_rng(0).random((3, 4))
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0 and not grad.any()

    def test_unit_residual(self):
        loss, _ = mse_loss(np.zeros((1, 2)), np.ones((1, 2)))
        assert loss == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x, xhat = rng.random((3, 4)), rng.random((3, 4))
        assert loss_grad_check(mse_loss, x, xhat) < 1e-6


class TestWindowMseLoss:
    def test_uniform_residual(self):
        x = np.zeros((1, 5, 51))
        loss, _ = mse_loss(x, x + 0.1)
        assert loss == pytest.approx(0.01, abs=1e-15)

    def test_zero_residual(self):
        x = np.random.default_rng(2).random((2, 5, 3))
        assert mse_loss(x, x.copy())[0] == 0.0

    def test_equals_flattened_mse(self):
        rng = np.random.default_rng(3)
        x, xhat = rng.random((4, 5, 6)), rng.random((4, 5, 6))
        windowed, _ = mse_loss(x, xhat)
        flat, _ = mse_loss(x.reshape(4, 30), xhat.reshape(4, 30))
        assert windowed == flat


class TestMatrixInverseSqrt:
    def test_identity(self):
        assert np.allclose(matrix_inverse_sqrt(np.eye(3), 0.0), np.eye(3),
                           atol=1e-14)

    def test_diagonal(self):
        out = matrix_inverse_sqrt(np.diag([4.0, 9.0]), 0.0)
        assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 8))
        sigma = a @ a.T + 0.1 * np.eye(8)
        m = matrix_inverse_sqrt(sigma, 0.0)
        eye = np.eye(8)
        resid = np.linalg.norm(m @ m @ sigma - eye) / np.linalg.norm(eye)
        assert resid < 1e-8

    def test_negative_eigenvalue_raises(self):
        with pytest.raises(NumericError):
            matrix_inverse_sqrt(np.diag([1.0, -1.0]), 0.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            matrix_inverse_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]), 0.0)


class TestMahalanobisLoss:
    def test_identity_covariance_is_euclidean(self):
        cov = CovarianceModel.from_sigma(np.eye(2), 0.0)
        loss, _ = mahalanobis_loss(np.zeros((1, 2)), np.array([[3.0, 4.0]]), cov)
        assert loss == pytest.approx(5.0, abs=1e-12)

    def test_diagonal_covariance(self):
        cov = CovarianceModel.from_sigma(np.diag([4.0, 9.0]), 0.0)
        loss, _ = mahalanobis_loss(np.zeros((1, 2)), np.array([[2.0, 3.0]]), cov)
        assert loss == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        cov = CovarianceModel.from_sigma(a @ a.T + 0.5 * np.eye(4), 0.0)
        x, xhat = rng.random((3, 4)), rng.random((3, 4)) + 0.5
        fn = lambda u, v: mahalanobis_loss(u, v, cov)
        assert loss_grad_check(fn, x, xhat) < 1e-5

    def test_zero_residual_zero_gradient(self):
        cov = CovarianceModel.from_sigma(np.eye(3), 0.0)
        x = np.random.default_rng(6).random((2, 3))
        loss, grad = mahalanobis_loss(x, x.copy(), cov)
        assert loss == 0.0 and not grad.any()

    def test_scaled_identity_scaling_law(self):
        # with sigma^2 I the loss is 1/sigma times the identity-covariance loss
        rng = np.random.default_rng(7)
        x, xhat = rng.random((5, 3)), rng.random((5, 3))
        base, _ = mahalanobis_loss(x, xhat, CovarianceModel.from_sigma(np.eye(3), 0.0))
        scaled, _ = mahalanobis_loss(
            x, xhat, CovarianceModel.from_sigma(4.0 * np.eye(3), 0.0))
        assert scaled == pytest.approx(base / 2.0, rel=1e-12)


class TestEstimateResidualCovariance:
    def test_hand_covariance(self):
        x = np.zeros((4, 2))
        residuals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        cov = estimate_residual_covariance(FixedOutput(residuals), x)
        sample = np.diag([2.0 / 3.0, 2.0 / 3.0])
        eps = 1e-6 * np.trace(sample) / 2
        assert np.allclose(cov.sigma, sample + eps * np.eye(2), atol=1e-18)
        assert cov.epsilon == pytest.approx(eps)

    def test_identical_residuals_shrink_to_floor(self):
        x = np.zeros((5, 2))
        cov = estimate_residual_covariance(FixedOutput(np.full((5, 2), 0.7)), x)
        assert cov.epsilon == 1e-12
        assert np.array_equal(cov.sigma, 1e-12 * np.eye(2))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(8)
        x = rng.random((30, 4))
        model = DenseAutoencoder(d=4, seed=0)
        cov = estimate_residual_covariance(model, x)
        assert np.array_equal(cov.sigma, cov.sigma.T)

    def test_too_few_rows(self):
        with pytest.raises(ValidationError):
            estimate_residual_covariance(FixedOutput(np.zeros((3, 3))),
                                         np.zeros((3, 3)))

    def test_labelled_rows_leak(self):
        with pytest.raises(LeakageError):
            estimate_residual_covariance(FixedOutput(np.zeros((5, 2))),
                                         np.zeros((5, 2)),
                                         labels=np.array([0, 0, 1, 0, 0], bool))

    @pytest.mark.parametrize("n", (SCORE_CHUNK, SCORE_CHUNK + 1,
                                   2 * SCORE_CHUNK + 56))
    def test_equals_one_pass_covariance(self, n):
        model = DenseAutoencoder(d=8, seed=2)
        x = np.random.default_rng(n).random((n, 8))
        r = model.forward(x) - x
        centered = r - r.mean(axis=0)
        sample = (centered.T @ centered) / (n - 1)
        sample = 0.5 * (sample + sample.T)
        epsilon = 1e-6 * float(np.trace(sample)) / 8
        inv_sqrt = matrix_inverse_sqrt(sample, epsilon)
        cov = estimate_residual_covariance(model, x)
        assert cov.epsilon == epsilon
        assert np.array_equal(cov.sigma, sample + epsilon * np.eye(8))
        assert np.array_equal(cov.sigma_inv_sqrt, inv_sqrt)
        assert np.array_equal(cov.sigma_inv, inv_sqrt @ inv_sqrt)

    def test_peak_memory_is_below_two_and_a_half_inputs(self):
        # the fit that held the full reconstruction, latent, their joined
        # chunks, the residual and a centred copy peaked at 4.05 times the
        # input (tracemalloc) on this input
        model = DenseAutoencoder(d=8, seed=0)
        x = np.random.default_rng(0).random((20_000, 8))
        tracemalloc.start()
        try:
            estimate_residual_covariance(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * x.nbytes

    def test_inverse_sqrt_consistency(self):
        rng = np.random.default_rng(9)
        x = rng.random((40, 3))
        cov = estimate_residual_covariance(DenseAutoencoder(d=3, seed=1), x)
        assert np.allclose(cov.sigma_inv_sqrt @ cov.sigma_inv_sqrt, cov.sigma_inv,
                           rtol=1e-8, atol=0)


def healthy_blob(n, d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n)
    base = 0.5 + 0.25 * np.sin(np.linspace(0, 40, n))
    x = base[:, None] + 0.1 * g[:, None] + 0.02 * rng.standard_normal((n, d))
    return np.clip(x, 0.0, 1.0)


class TestTrain:
    def test_zero_epochs_is_rejected(self):
        # a model trained for no epochs would ship its initial weights
        with pytest.raises(ValidationError, match="max_epochs"):
            TrainConfig(max_epochs=0)

    def test_seeded_rerun_is_bit_identical(self):
        x = healthy_blob(300, 4, 1)
        runs = []
        for _ in range(2):
            model = DenseAutoencoder(d=4, seed=3)
            _, report, _ = train(model, x[:240], x[240:],
                                 TrainConfig(max_epochs=4, seed=3, batch_size=64))
            runs.append(([p.copy() for p in model.parameters()],
                         report.val_losses))
        for a, b in zip(runs[0][0], runs[1][0]):
            assert np.array_equal(a, b)
        assert runs[0][1] == runs[1][1]

    def test_validation_loss_converges(self):
        # d=8, 5000 rows of structured healthy data: final val loss well
        # under a fifth of the first epoch's within 25 epochs
        x = healthy_blob(5000, 8, 2)
        model = DenseAutoencoder(d=8, seed=0)
        _, report, _ = train(model, x[:4000], x[4000:], TrainConfig(seed=0))
        assert report.val_losses[-1] < 0.2 * report.val_losses[0]

    def test_flagged_items_rejected(self):
        x = healthy_blob(100, 3, 3)
        labels = np.zeros(80, dtype=bool)
        labels[7] = True
        model = DenseAutoencoder(d=3, seed=0)
        with pytest.raises(LeakageError):
            train(model, x[:80], x[80:], TrainConfig(max_epochs=1),
                  train_labels=labels)

    def test_mahalanobis_needs_dense_items(self):
        model = LstmAutoencoder(d=3, window_length=4, seed=0)
        windows = np.random.default_rng(4).random((50, 4, 3))
        with pytest.raises(ValidationError):
            train(model, windows, windows[:10],
                  TrainConfig(loss="mahalanobis", max_epochs=1))

    def test_best_epoch_is_argmin_of_validation(self):
        x = healthy_blob(400, 4, 5)
        model = DenseAutoencoder(d=4, seed=1)
        _, report, _ = train(model, x[:320], x[320:],
                             TrainConfig(max_epochs=8, seed=1, batch_size=64))
        assert report.best_epoch == int(np.argmin(report.val_losses)) + 1

    def test_learning_rate_non_increasing_by_factor(self):
        x = healthy_blob(400, 4, 6)
        model = DenseAutoencoder(d=4, seed=2)
        _, report, _ = train(model, x[:320], x[320:],
                             TrainConfig(max_epochs=20, seed=2, batch_size=64))
        rates = report.learning_rates
        for a, b in zip(rates, rates[1:]):
            assert b <= a
            assert b == a or b == pytest.approx(0.2 * a, rel=1e-12)

    def test_mahalanobis_warmup_and_covariance(self):
        x = healthy_blob(600, 4, 7)
        model = DenseAutoencoder(d=4, seed=4)
        _, report, cov = train(model, x[:480], x[480:],
                               TrainConfig(loss="mahalanobis", max_epochs=9,
                                           warmup_epochs=5, seed=4,
                                           batch_size=128))
        assert report.warmup_epochs == 5
        assert cov is not None and cov.sigma.shape == (4, 4)
        assert np.array_equal(cov.sigma, cov.sigma.T)

    # shorter than the warm-up, ending at its last epoch, and past the switch
    @pytest.mark.parametrize("max_epochs, warmup_epochs", ((3, 3), (5, 5), (7, 5)))
    def test_mahalanobis_covariance_fits_the_restored_weights(self, max_epochs,
                                                              warmup_epochs):
        x = healthy_blob(600, 4, 7)
        model = DenseAutoencoder(d=4, seed=4)
        _, report, cov = train(model, x[:480], x[480:],
                               TrainConfig(loss="mahalanobis", max_epochs=max_epochs,
                                           warmup_epochs=5, seed=4,
                                           batch_size=128))
        assert report.epochs_run == max_epochs
        assert report.warmup_epochs == warmup_epochs
        refit = estimate_residual_covariance(model, x[:480])
        assert cov.sigma.tobytes() == refit.sigma.tobytes()

    def test_mahalanobis_best_weights_come_from_warmup(self):
        # the validation stream switches scale at the warm-up boundary, so
        # the best epoch stays inside the warm-up and early stopping fires
        # `patience` epochs after the switch
        x = healthy_blob(600, 4, 8)
        model = DenseAutoencoder(d=4, seed=5)
        config = TrainConfig(loss="mahalanobis", max_epochs=25, warmup_epochs=5,
                             es_patience=10, seed=5, batch_size=128)
        _, report, _ = train(model, x[:480], x[480:], config)
        assert report.best_epoch <= config.warmup_epochs
        assert report.stop_reason == "early_stop"
        assert report.epochs_run == report.best_epoch + config.es_patience

    def test_report_lengths_match_epochs(self):
        x = healthy_blob(200, 3, 9)
        model = DenseAutoencoder(d=3, seed=6)
        _, report, _ = train(model, x[:160], x[160:],
                             TrainConfig(max_epochs=3, seed=6, batch_size=64))
        assert len(report.train_losses) == len(report.val_losses) \
            == len(report.learning_rates) == report.epochs_run == 3

    def test_report_csv(self, tmp_path):
        x = healthy_blob(200, 3, 10)
        model = DenseAutoencoder(d=3, seed=7)
        _, report, _ = train(model, x[:160], x[160:],
                             TrainConfig(max_epochs=2, seed=7, batch_size=64))
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,learning_rate"
        assert len(lines) == 3


def scripted_train(monkeypatch, history, **overrides):
    """(model, report) of `train` on a tiny dense model whose validation loss
    at epoch k is history[k - 1]; it runs len(history) epochs at a learning
    rate of 1 unless `overrides` say otherwise."""
    losses = iter(history)
    monkeypatch.setattr(training, "_epoch_loss", lambda *args: next(losses))
    x = healthy_blob(48, 3, 12)
    model = DenseAutoencoder(d=3, seed=0)
    config = TrainConfig(**{"max_epochs": len(history), "learning_rate": 1.0,
                            "batch_size": 16, "seed": 0, **overrides})
    _, report, _ = train(model, x[:32], x[32:], config)
    return model, report


class TestValidationState:
    """One validation history per test drives the learning-rate cuts, the
    early stop and the weights restored; a cut after the last epoch run is
    never seen, so some histories run one epoch past the plateau."""

    def check(self, monkeypatch, history, rates, stop_reason, best_epoch,
              **overrides):
        model, report = scripted_train(monkeypatch, history, **overrides)
        assert report.learning_rates == rates
        assert report.stop_reason == stop_reason
        assert report.epochs_run == len(rates)
        assert report.best_epoch == best_epoch
        # the restored weights are those of a run that ends at the best epoch
        reference, _ = scripted_train(monkeypatch, history[:best_epoch],
                                      **{**overrides, "max_epochs": best_epoch})
        for p, q in zip(model.parameters(), reference.parameters()):
            assert np.array_equal(p, q)

    def test_strictly_decreasing_never_stops(self, monkeypatch):
        self.check(monkeypatch, [1.0 / (k + 1) for k in range(30)], [1.0] * 30,
                   "max_epochs", 30)

    def test_flat_history_stops_at_eleven(self, monkeypatch):
        # stale reaches 5 at epoch 6 (a cut) and 10 at epoch 11 (the stop)
        self.check(monkeypatch, [1.0] + [1.0] * 10, [1.0] * 6 + [0.2] * 5,
                   "early_stop", 1)

    def test_nine_stagnant_epochs_continue(self, monkeypatch):
        self.check(monkeypatch, [1.0, 0.9] + [0.9] * 9, [1.0] * 7 + [0.2] * 4,
                   "max_epochs", 2)

    def test_improving_keeps_lr(self, monkeypatch):
        self.check(monkeypatch, [1.0, 0.9, 0.8], [1.0] * 3, "max_epochs", 3)

    def test_five_stagnant_epochs_reduce_once(self, monkeypatch):
        # the cut comes after epoch 7; epoch 8 runs at the reduced rate
        self.check(monkeypatch, [1.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9] + [0.9],
                   [1.0] * 7 + [0.2], "max_epochs", 2)

    def test_two_plateaus_compound(self, monkeypatch):
        # cuts after epochs 6 and 11; a patience of 20 keeps training past
        # the second, so epoch 12 runs at 0.2 * 0.2
        self.check(monkeypatch, [1.0] + [1.0] * 10 + [1.0], [1.0] * 6 + [0.2] * 5
                   + [0.2 * 0.2], "max_epochs", 1, es_patience=20)


class TestTrainConfig:
    def test_rejects_unknown_loss(self):
        with pytest.raises(ValidationError):
            TrainConfig(loss="huber")

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValidationError):
            TrainConfig(max_epochs=-1)

    @pytest.mark.parametrize("factor", (0.0, 1.0, 2.0, -0.5))
    def test_rejects_plateau_factor_outside_unit_interval(self, factor):
        with pytest.raises(ValidationError):
            TrainConfig(plateau_factor=factor)
