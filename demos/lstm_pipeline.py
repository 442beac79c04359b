"""Sequence-model variant: five-minute sliding windows through the LSTM
autoencoder, scored per window.

Windows are cut separately inside each contiguous block of a partition so
they never straddle the train/test boundary or a fault gap; a window counts
as anomalous if any of its five frames is flagged.
"""

from aedetect import (
    LstmAutoencoder,
    TrainConfig,
    WindowSpec,
    apply_scaler,
    confusion,
    default_config,
    detect,
    fit_scaler,
    fit_threshold,
    format_metrics_table,
    generate,
    label_samples,
    metrics,
    partition_windows,
    plan_split,
    score_window_mse,
    train,
)

SEED = 1

config = default_config(seed=SEED)
log, schedule = generate(config)
labels = label_samples(log, schedule)
plan = plan_split(labels, 0.9, 0.2, seed=SEED)
scaler = fit_scaler(log.values, plan.pool_indices, labels)
scaled = apply_scaler(log.values, scaler)

# --- window the healthy pool; a window belongs to its last row's partition
spec = WindowSpec(length=5, stride=1)
pool_windows, pool_labels, ends = partition_windows(scaled, labels,
                                                    plan.pool_indices, spec)
val_mask = plan.parts[ends] == 1  # code 1 is the val partition
print(f"{pool_windows.shape[0]} healthy training windows "
      f"({val_mask.sum()} held for validation), shape {pool_windows.shape[1:]}")

# a window set holds the scaled log once plus one end row per window; a
# subset keeps some end rows, and training gathers one batch at a time
train_windows = pool_windows.subset(~val_mask)
model = LstmAutoencoder(d=log.n_channels, window_length=5, seed=SEED)
model, report, _ = train(
    model,
    train_windows,
    pool_windows.subset(val_mask),
    TrainConfig(seed=SEED, learning_rate=1e-3),
    train_labels=pool_labels[~val_mask],
    val_labels=pool_labels[val_mask],
)
print(f"trained {report.epochs_run} epochs, "
      f"val loss {report.val_losses[0]:.5f} -> {report.val_losses[-1]:.5f}")

train_scores = score_window_mse(model, train_windows, from_training=True)
threshold = fit_threshold(train_scores, alpha=95.0)

test_windows, test_labels, _ = partition_windows(scaled, labels,
                                                 plan.test_indices, spec)
flags = detect(score_window_mse(model, test_windows), threshold)
print(f"\n{test_windows.shape[0]} test windows, "
      f"{test_labels.sum()} labelled anomalous")
print(format_metrics_table(metrics(confusion(flags, test_labels))))
