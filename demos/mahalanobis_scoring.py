"""Mahalanobis variant of the snapshot pipeline.

Training warms up with plain MSE for five epochs, estimates a whitening
covariance on healthy training data, freezes it, and continues with the
whitened-residual loss. Once the best epoch's weights are restored, the
residual covariance is fitted on them; scoring uses its Mahalanobis distance
D = sqrt(r' Sigma^-1 r), which inflates errors in directions where healthy
residuals are small. The demo compares the plain-MSE and Mahalanobis flags
on the same test partition.
"""

from aedetect import (
    DenseAutoencoder,
    TrainConfig,
    apply_scaler,
    confusion,
    default_config,
    detect,
    fit_scaler,
    fit_threshold,
    generate,
    label_samples,
    metrics,
    partition_items,
    plan_split,
    score_mahalanobis,
    score_pointwise_mse,
    train,
)

SEED = 1

config = default_config(seed=SEED)
log, schedule = generate(config)
labels = label_samples(log, schedule)
plan = plan_split(labels, 0.9, 0.2, seed=SEED)
scaler = fit_scaler(log.values, plan.pool_indices, labels)
scaled = apply_scaler(log.values, scaler)
(train_x, _, train_y), (val_x, _, val_y), (test_x, _, truth) = partition_items(
    scaled, labels, plan.parts, None, "train", "val", "test")


def run(loss):
    model = DenseAutoencoder(d=log.n_channels, seed=SEED)
    model, report, cov = train(model, train_x, val_x,
                               TrainConfig(seed=SEED, loss=loss),
                               train_labels=train_y, val_labels=val_y)
    if loss == "mahalanobis":
        score = lambda x, **kw: score_mahalanobis(model, cov, x, **kw)
        print(f"[{loss}] warm-up {report.warmup_epochs} epochs, "
              f"ran {report.epochs_run}, best epoch {report.best_epoch}; "
              f"covariance shrinkage eps = {cov.epsilon:.3e}")
    else:
        score = lambda x, **kw: score_pointwise_mse(model, x, **kw)
        print(f"[{loss}] ran {report.epochs_run} epochs")
    threshold = fit_threshold(score(train_x, from_training=True), alpha=95.0)
    flags = detect(score(test_x), threshold)
    return flags, metrics(confusion(flags, truth))


mse_flags, mse_report = run("mse")
maha_flags, maha_report = run("mahalanobis")

print(f"\n{'':14s}{'precision':>10s}{'recall':>10s}{'specificity':>12s}")
print(f"{'MSE':14s}{mse_report.precision:>10.3f}{mse_report.recall:>10.3f}"
      f"{mse_report.specificity:>12.3f}")
print(f"{'Mahalanobis':14s}{maha_report.precision:>10.3f}"
      f"{maha_report.recall:>10.3f}{maha_report.specificity:>12.3f}")

# faults the whitened score catches that the plain score misses
extra = maha_flags & ~mse_flags & truth
print(f"\nfault samples caught only by the Mahalanobis score: {extra.sum()}")
missed_both = truth & ~maha_flags & ~mse_flags
print(f"fault samples missed by both: {missed_both.sum()} of {truth.sum()}")
