"""Acceptance suite: one test per release criterion, each printing a PASS
line with the measured numbers. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import numpy as np
import pytest

from aedetect import (
    DenseAutoencoder,
    LstmAutoencoder,
    TrainConfig,
    WindowSpec,
    apply_scaler,
    default_config,
    detect,
    estimate_residual_covariance,
    fit_scaler,
    fit_threshold,
    generate,
    impute_cascade,
    invert_scaler,
    label_samples,
    confusion,
    mahalanobis_loss,
    matrix_inverse_sqrt,
    metrics,
    mse_loss,
    partition_windows,
    plan_split,
    score_mahalanobis,
    score_pointwise_mse,
    score_window_mse,
    train,
)
from aedetect.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from aedetect.dataset import SensorLog
from aedetect.detector import ScoreSeries
from aedetect.errors import LeakageError, NumericError
from aedetect.neuralnet import DenseLayer, LstmLayer, RepeatVector, TimeDistributedDense
from aedetect.training import CovarianceModel

ACCEPTANCE_SEED = 1  # fixed seed for the end-to-end synthetic criteria


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def layer_gradient_error(layer, x, rng, h=1e-5):
    r = rng.standard_normal(layer.forward(x).shape)

    def objective():
        return float(np.sum(layer.forward(x) * r))

    layer.forward(x)
    grad_in = layer.backward(r)
    grads = [g.copy() for g in layer.gradients()]
    worst = 0.0
    for p, g in zip(layer.parameters(), grads):
        flat, gflat = p.ravel(), g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = objective()
            flat[k] = orig - h
            down = objective()
            flat[k] = orig
            worst = max(worst, rel_err(gflat[k], (up - down) / (2 * h)))
    flat = x.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = objective()
        flat[k] = orig - h
        down = objective()
        flat[k] = orig
        worst = max(worst, rel_err(grad_in.ravel()[k], (up - down) / (2 * h)))
    return worst


def loss_gradient_error(loss_fn, x, xhat, h=1e-5):
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
        worst = max(worst, rel_err(grad.ravel()[k], (up - down) / (2 * h)))
    return worst


def test_acceptance_1_gradient_integrity():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dense = DenseLayer(4, 3, rng)
        worst = max(worst, layer_gradient_error(dense, rng.standard_normal((3, 4)), rng))
        lstm = LstmLayer(3, 2, return_sequences=True, rng=rng)
        worst = max(worst, layer_gradient_error(lstm, rng.standard_normal((2, 3, 3)), rng))
        worst = max(worst, layer_gradient_error(RepeatVector(3),
                                                rng.standard_normal((2, 4)), rng))
        tdd = TimeDistributedDense(4, 2, rng)
        worst = max(worst, layer_gradient_error(tdd, rng.standard_normal((2, 3, 4)), rng))
        x, xhat = rng.random((3, 4)), rng.random((3, 4)) + 0.1
        worst = max(worst, loss_gradient_error(mse_loss, x, xhat))
        a = rng.standard_normal((4, 4))
        cov = CovarianceModel.from_sigma(a @ a.T + 0.5 * np.eye(4), 0.0)
        worst = max(worst, loss_gradient_error(
            lambda u, v: mahalanobis_loss(u, v, cov), x, xhat))
    elapsed = time.monotonic() - start
    assert worst < 1e-4
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS: gradient checks on 20 seeds, "
          f"max rel err {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 30s)")


def test_acceptance_2_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(123)

    # fit_threshold vs independent sort-and-interpolate oracle, exact
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        scores = rng.random(n) * float(rng.integers(1, 1000))
        alpha = float(rng.uniform(0.001, 100.0))
        series = ScoreSeries(scores, np.arange(n), "mse_point", from_training=True)
        tau = fit_threshold(series, alpha).tau
        s = sorted(float(v) for v in scores)
        h = (n - 1) * alpha / 100.0
        j = math.floor(h)
        expected = s[n - 1] if j + 1 >= n else s[j] + (h - j) * (s[j + 1] - s[j])
        assert tau == expected

    # window labels vs any-over-slice oracle
    for _ in range(200):
        n = int(rng.integers(5, 40))
        t = int(rng.integers(1, 6))
        stride = int(rng.integers(1, 4))
        if n < t:
            continue
        flags = rng.random(n) < 0.3
        _, labels, ends = partition_windows(np.zeros((n, 1)), flags, np.arange(n),
                                             WindowSpec(t, stride))
        for k in range(labels.size):
            lo = k * stride
            assert labels[k] == any(flags[lo : lo + t])

    # impute cascade vs three-step hand oracle, exact
    for _ in range(200):
        n = int(rng.integers(2, 40))
        col = rng.random(n) * 10
        mask = rng.random(n) < 0.4
        if mask.all():
            mask[int(rng.integers(0, n))] = False
        col[mask] = np.nan
        ts = np.datetime64("2024-01-01T00:00", "m") + np.arange(n) \
            * np.timedelta64(1, "m")
        out = impute_cascade(SensorLog(ts, ("a",), col[:, None])).values[:, 0]
        obs = [i for i in range(n) if not mask[i]]
        expected = list(col)
        for a, b in zip(obs, obs[1:]):
            for i in range(a + 1, b):
                expected[i] = col[a] + (col[b] - col[a]) * ((i - a) / (b - a))
        for i in range(obs[0]):
            expected[i] = col[obs[0]]
        for i in range(obs[-1] + 1, n):
            expected[i] = col[obs[-1]]
        assert out.tolist() == expected

    # confusion counts vs scalar loop
    for _ in range(200):
        n = int(rng.integers(1, 100))
        flags = rng.random(n) < 0.5
        truth = rng.random(n) < 0.4
        cm = confusion(flags, truth)
        counts = [0, 0, 0, 0]
        for f, t in zip(flags, truth):
            if f and t:
                counts[0] += 1
            elif f:
                counts[1] += 1
            elif t:
                counts[3] += 1
            else:
                counts[2] += 1
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == tuple(counts)

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS: threshold/window/impute/confusion oracles "
          f"agree exactly, {elapsed:.1f}s (< 30s)")


def test_acceptance_3_algebraic_identities():
    start = time.monotonic()
    rng = np.random.default_rng(7)

    # Mahalanobis with identity covariance equals sqrt(d * MSE) per row
    class Fixed:
        def __init__(self, xhat):
            self.xhat = xhat

        def forward(self, x, cache=True):
            return self.xhat

    worst_d = 0.0
    for d in (2, 8, 51):
        x, xhat = rng.random((40, d)), rng.random((40, d))
        cov = CovarianceModel.from_sigma(np.eye(d), 0.0)
        ds = score_mahalanobis(Fixed(xhat), cov, x).scores
        ms = score_pointwise_mse(Fixed(xhat), x).scores
        worst_d = max(worst_d, np.max(np.abs(ds - np.sqrt(d * ms))))
    assert worst_d < 1e-10

    # inverse square root residual on random SPD matrices up to 51x51
    worst_resid = 0.0
    for d in (3, 8, 20, 51):
        a = rng.standard_normal((d, d))
        sigma = a @ a.T + 0.05 * np.eye(d)
        m = matrix_inverse_sqrt(sigma, 0.0)
        eye = np.eye(d)
        worst_resid = max(worst_resid,
                          np.linalg.norm(m @ m @ sigma - eye) / np.linalg.norm(eye))
    assert worst_resid < 1e-8

    # scaler round trip
    matrix = rng.standard_normal((300, 12)) * 40 + 5
    params = fit_scaler(matrix, np.arange(200))
    back = invert_scaler(apply_scaler(matrix, params), params)
    rel = np.max(np.abs(back - matrix) / np.maximum(np.abs(matrix), 1e-300))
    assert rel <= 1e-12

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS: D=sqrt(d*MSE) to {worst_d:.1e}, inv-sqrt "
          f"residual {worst_resid:.1e}, scaler round-trip {rel:.1e}, "
          f"{elapsed:.1f}s (< 10s)")


def test_acceptance_4_reported_f1_consistency():
    rows = {
        "snapshot AE, MSE": (0.933, 0.997, 0.964),
        "snapshot AE, Mahalanobis": (0.934, 0.999, 0.966),
        "sequence AE, MSE": (0.935, 0.997, 0.965),
    }
    worst = 0.0
    for name, (p, r, f1) in rows.items():
        recomputed = 2 * p * r / (p + r)
        worst = max(worst, abs(recomputed - f1))
        assert abs(recomputed - f1) <= 0.001, name
    print(f"\nACCEPTANCE 4 PASS: published F1 values reproduce from "
          f"precision/recall, max gap {worst:.4f} (<= 0.001)")


@pytest.fixture(scope="module")
def synthetic_run():
    """Default profile generated and prepared once at the acceptance seed."""
    config = default_config(seed=ACCEPTANCE_SEED)
    log, schedule = generate(config)
    labels = label_samples(log, schedule)
    plan = plan_split(labels, 0.9, 0.2, seed=ACCEPTANCE_SEED)
    scaler = fit_scaler(log.values, plan.pool_indices, labels)
    scaled = apply_scaler(log.values, scaler)
    return config, labels, plan, scaler, scaled


def test_acceptance_5_dense_end_to_end(synthetic_run):
    start = time.monotonic()
    config, labels, plan, scaler, scaled = synthetic_run
    truth = labels[plan.test_indices]

    model = DenseAutoencoder(d=config.n_channels, seed=ACCEPTANCE_SEED)
    trained, _, _ = train(model, scaled[plan.train_indices],
                          scaled[plan.validation_indices],
                          TrainConfig(seed=ACCEPTANCE_SEED),
                          train_labels=labels[plan.train_indices],
                          val_labels=labels[plan.validation_indices])
    spec = fit_threshold(
        score_pointwise_mse(trained, scaled[plan.train_indices], from_training=True),
        95.0)
    flags = detect(score_pointwise_mse(trained, scaled[plan.test_indices]), spec)
    mse_report = metrics(confusion(flags, truth))

    maha_model = DenseAutoencoder(d=config.n_channels, seed=ACCEPTANCE_SEED)
    maha_trained, _, cov = train(maha_model, scaled[plan.train_indices],
                                 scaled[plan.validation_indices],
                                 TrainConfig(seed=ACCEPTANCE_SEED, loss="mahalanobis"),
                                 train_labels=labels[plan.train_indices],
                                 val_labels=labels[plan.validation_indices])
    maha_spec = fit_threshold(
        score_mahalanobis(maha_trained, cov, scaled[plan.train_indices],
                          from_training=True), 95.0)
    maha_flags = detect(
        score_mahalanobis(maha_trained, cov, scaled[plan.test_indices]), maha_spec)
    maha_report = metrics(confusion(maha_flags, truth))

    elapsed = time.monotonic() - start
    assert mse_report.recall >= 0.95
    assert mse_report.specificity >= 0.90
    assert maha_report.recall >= mse_report.recall
    assert elapsed < 180.0
    print(f"\nACCEPTANCE 5 PASS: dense MSE recall {mse_report.recall:.3f} "
          f"(>= 0.95), specificity {mse_report.specificity:.3f} (>= 0.90); "
          f"Mahalanobis recall {maha_report.recall:.3f} >= MSE recall; "
          f"{elapsed:.0f}s (< 180s)")


def test_acceptance_6_lstm_end_to_end(synthetic_run):
    start = time.monotonic()
    config, labels, plan, scaler, scaled = synthetic_run
    wspec = WindowSpec(5, 1)
    pool_w, pool_labels, _ = partition_windows(scaled, labels, plan.pool_indices,
                                               wspec)
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    n_val = int(0.2 * pool_w.shape[0])
    pick = np.sort(rng.choice(pool_w.shape[0], size=n_val, replace=False))
    val_mask = np.zeros(pool_w.shape[0], dtype=bool)
    val_mask[pick] = True

    model = LstmAutoencoder(d=config.n_channels, window_length=5,
                            seed=ACCEPTANCE_SEED)
    trained, _, _ = train(model, pool_w[~val_mask], pool_w[val_mask],
                          TrainConfig(seed=ACCEPTANCE_SEED, learning_rate=1e-3),
                          train_labels=pool_labels[~val_mask],
                          val_labels=pool_labels[val_mask])
    spec = fit_threshold(
        score_window_mse(trained, pool_w[~val_mask], from_training=True), 95.0)
    test_w, test_labels, _ = partition_windows(scaled, labels, plan.test_indices,
                                               wspec)
    flags = detect(score_window_mse(trained, test_w), spec)
    report = metrics(confusion(flags, test_labels))

    elapsed = time.monotonic() - start
    assert report.recall >= 0.90
    assert report.specificity >= 0.85
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 6 PASS: window recall {report.recall:.3f} (>= 0.90), "
          f"specificity {report.specificity:.3f} (>= 0.85), {elapsed:.0f}s (< 600s)")


def test_acceptance_7_false_alarm_calibration():
    from dataclasses import replace

    rates = []
    for seed in range(5):
        config = default_config(seed=seed)
        log, schedule = generate(config)
        labels = label_samples(log, schedule)
        plan = plan_split(labels, 0.9, 0.2, seed=seed)
        scaler = fit_scaler(log.values, plan.pool_indices, labels)
        scaled = apply_scaler(log.values, scaler)
        model = DenseAutoencoder(d=config.n_channels, seed=seed)
        trained, _, _ = train(model, scaled[plan.train_indices],
                              scaled[plan.validation_indices],
                              TrainConfig(seed=seed))
        spec = fit_threshold(
            score_pointwise_mse(trained, scaled[plan.train_indices],
                                from_training=True), 95.0)
        fresh = replace(config, seed=seed + 1000, faults=(), n_samples=5000)
        fresh_log, _ = generate(fresh)
        fresh_scores = score_pointwise_mse(trained,
                                           apply_scaler(fresh_log.values, scaler))
        rates.append(float(detect(fresh_scores, spec).mean()))
    assert all(0.02 <= r <= 0.08 for r in rates), rates
    print(f"\nACCEPTANCE 7 PASS: fresh healthy flag rates "
          f"{[f'{r:.3f}' for r in rates]} all within [0.02, 0.08]")


def test_acceptance_8_determinism_and_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "run"
    base = ["--out-dir", str(out), "--seed", "5"]
    assert main(["synth"] + base + ["--synth.n_samples", "2500"]) == EXIT_OK
    assert main(["prepare"] + base +
                ["--paths.sensor_csv", str(out / "sensor.csv"),
                 "--paths.fault_csv", str(out / "faults.csv")]) == EXIT_OK
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["train"] + base + ["--train.max_epochs", "5",
                                        "--paths.model_file", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()

    assert main(["prepare", "--out-dir", str(out),
                 "--paths.sensor_csv", str(out / "missing.csv")]) == EXIT_IO
    assert main(["threshold"] + base + ["--pipeline.alpha", "0",
                                        "--paths.model_file", str(a)]) \
        == EXIT_VALIDATION
    assert main(["train"] + base + ["--pipeline.architecture", "lstm_ae",
                                    "--pipeline.loss", "mahalanobis"]) \
        == EXIT_VALIDATION

    import aedetect.cli as cli_module

    def numeric_boom(config):
        raise NumericError("synthetic numeric failure")

    monkeypatch.setitem(cli_module.COMMANDS, "detect", numeric_boom)
    assert main(["detect"] + base) == EXIT_NUMERIC
    print("\nACCEPTANCE 8 PASS: byte-identical retrain and exit codes 0/1/2/3")


def test_acceptance_9_leakage_guards():
    rng = np.random.default_rng(0)
    x = rng.random((60, 4))
    labels = np.zeros(60, dtype=bool)
    labels[10] = True

    model = DenseAutoencoder(d=4, seed=0)
    with pytest.raises(LeakageError):
        train(model, x[:40], x[40:], TrainConfig(max_epochs=1),
              train_labels=labels[:40])

    with pytest.raises(LeakageError):
        fit_scaler(x, np.arange(20), labels)

    scores = ScoreSeries(rng.random(30), np.arange(30), "mse_point",
                         from_training=False)
    with pytest.raises(LeakageError):
        fit_threshold(scores, 95.0)

    with pytest.raises(LeakageError):
        estimate_residual_covariance(model, x[:20], labels=labels[:20])

    print("\nACCEPTANCE 9 PASS: flagged training items, non-training scaler "
          "rows, non-training threshold scores and covariance rows all "
          "raise LeakageError")
