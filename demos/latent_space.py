"""Export the 8-dimensional latent codes of the test partition.

The encoder bottleneck is an automatically learned feature set; healthy and
faulty samples separate there even before any thresholding. This demo trains
the snapshot model, writes the raw latent vectors to latent.csv (one row per
test sample, columns z1..z8), and prints a coarse separation statistic. Any
external projection tool (PCA, t-SNE, ...) can consume the CSV.
"""

import numpy as np

from aedetect import (
    DenseAutoencoder,
    TrainConfig,
    apply_scaler,
    default_config,
    extract_latent,
    fit_scaler,
    generate,
    label_samples,
    plan_split,
    train,
)
from aedetect.dataset import write_table

SEED = 1
OUT = "latent.csv"

config = default_config(seed=SEED)
log, schedule = generate(config)
labels = label_samples(log, schedule)
plan = plan_split(labels, 0.9, 0.2, seed=SEED)
scaler = fit_scaler(log.values, plan.pool_indices, labels)
scaled = apply_scaler(log.values, scaler)

model = DenseAutoencoder(d=log.n_channels, seed=SEED)
model, _, _ = train(model, scaled[plan.train_indices],
                    scaled[plan.validation_indices], TrainConfig(seed=SEED))

latent = extract_latent(model, scaled[plan.test_indices])
write_table(OUT, ["index", "label"] + [f"z{k + 1}" for k in range(8)], (
    ",".join((str(int(i)), str(int(flag)), *map(repr, row.tolist())))
    for i, flag, row in zip(plan.test_indices, labels[plan.test_indices], latent)))
print(f"wrote {latent.shape[0]} x {latent.shape[1]} latent matrix to {OUT}")

# centroid distance between healthy and faulty codes, in units of the
# average within-group spread: > 1 means the groups separate visibly
truth = labels[plan.test_indices]
healthy, faulty = latent[~truth], latent[truth]
gap = np.linalg.norm(healthy.mean(axis=0) - faulty.mean(axis=0))
spread = 0.5 * (healthy.std(axis=0).mean() + faulty.std(axis=0).mean())
print(f"healthy/faulty centroid gap = {gap:.3f}, "
      f"mean within-group spread = {spread:.3f} (ratio {gap / spread:.1f})")
