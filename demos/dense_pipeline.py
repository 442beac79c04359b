"""Walk the snapshot-autoencoder pipeline end to end on synthetic data.

Stages: generate a plant log with injected faults, label it, split it
chronologically (healthy-only training pool), scale it, train the dense
autoencoder on healthy snapshots, fit a 95th-percentile threshold on the
training reconstruction errors, and evaluate the flags on the held-out mix
of healthy and faulty samples.
"""

import numpy as np

from aedetect import (
    DenseAutoencoder,
    TrainConfig,
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
    partition_items,
    plan_split,
    score_pointwise_mse,
    train,
)

SEED = 1

# --- synthetic plant: 8 channels, 20k minutes, three fault intervals
config = default_config(seed=SEED)
log, schedule = generate(config)
labels = label_samples(log, schedule)
print(f"log: {log.n_samples} minutes x {log.n_channels} channels, "
      f"{labels.sum()} fault minutes ({labels.mean():.1%})")
for start, duration in schedule.intervals:
    print(f"  fault at {start} for {duration} min")

# --- chronological healthy split + healthy-only MinMax scaling
plan = plan_split(labels, train_ratio=0.9, validation_ratio=0.2, seed=SEED)
scaler = fit_scaler(log.values, plan.pool_indices, labels)
scaled = apply_scaler(log.values, scaler)
print(f"split: {plan.train_indices.size} train / "
      f"{plan.validation_indices.size} val / {plan.test_indices.size} test "
      f"({labels[plan.test_indices].mean():.0%} of test is faulty)")

# --- one snapshot item per row, in the partition of that row
(train_x, _, train_y), (val_x, _, val_y), (test_x, test_rows, truth) = \
    partition_items(scaled, labels, plan.parts, None, "train", "val", "test")

# --- train on healthy snapshots only
model = DenseAutoencoder(d=log.n_channels, seed=SEED)
model, report, _ = train(model, train_x, val_x, TrainConfig(seed=SEED),
                         train_labels=train_y, val_labels=val_y)
print(f"trained {report.epochs_run} epochs ({report.stop_reason}), "
      f"val loss {report.val_losses[0]:.5f} -> {report.val_losses[-1]:.5f}")

# --- threshold on training scores, flag the test partition
threshold = fit_threshold(score_pointwise_mse(model, train_x, from_training=True),
                          alpha=95.0)
print(f"threshold tau = {threshold.tau:.6f} "
      f"(95th percentile of {threshold.fitted_on} training scores)")

test_scores = score_pointwise_mse(model, test_x, test_rows)
flags = detect(test_scores, threshold)
print()
print(format_metrics_table(metrics(confusion(flags, truth))))

# --- how each injected fault scored
print()
for fault in config.faults:
    rows = np.arange(fault.start, fault.start + fault.length)
    sel = np.isin(test_rows, rows)
    print(f"{fault.mode:15s} recall {flags[sel].mean():.3f} "
          f"median score {np.median(test_scores.scores[sel]):.5f}")
