"""Anomaly scoring, percentile thresholds and flagging.

Score kinds: per-snapshot MSE, per-window MSE, and Mahalanobis distance of
the raw residual under the frozen training covariance. Thresholds are linear
interpolation percentiles of healthy training scores; flags use strict >.

Every score and the residual covariance run the model in no-cache passes
over balanced chunks of at most SCORE_CHUNK items; a score reduces each
chunk before the next, so scoring memory does not grow with the log's
length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LeakageError, ValidationError

SCORE_KINDS = ("mse_point", "mse_window", "mahalanobis")
SCORE_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class ScoreSeries:
    """Non-negative anomaly scores aligned to sample or window-end indices.

    `from_training` marks scores computed on the healthy training partition;
    only such series may fit a threshold.
    """

    scores: np.ndarray
    indices: np.ndarray
    kind: str
    from_training: bool = False

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        indices = np.asarray(self.indices, dtype=np.int64)
        if self.kind not in SCORE_KINDS:
            raise ValidationError(f"score kind must be one of {SCORE_KINDS}")
        if scores.shape != indices.shape or scores.ndim != 1:
            raise ValidationError("scores and indices must be matching 1-D arrays")
        if scores.size and (not np.isfinite(scores).all() or scores.min() < 0.0):
            raise ValidationError("scores must be finite and non-negative")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class ThresholdSpec:
    """Percentile level alpha in (0, 100], the fitted cut value tau (finite
    and >= 0, as every score is) and the number of scores it was fitted on."""

    alpha: float
    tau: float
    kind: str
    fitted_on: int

    def __post_init__(self):
        if not 0.0 < self.alpha <= 100.0:
            raise ValidationError("alpha must lie in (0, 100]")
        if not (math.isfinite(self.tau) and self.tau >= 0.0):
            raise ValidationError(f"tau must be finite and >= 0, got {self.tau}")
        if self.kind not in SCORE_KINDS:
            raise ValidationError(f"score kind must be one of {SCORE_KINDS}")
        if self.fitted_on < 1:
            raise ValidationError(f"fitted_on must be >= 1, got {self.fitted_on}")


def _default_indices(n: int, indices) -> np.ndarray:
    if indices is None:
        return np.arange(n, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.shape != (n,):
        raise ValidationError(f"expected {n} indices, got shape {indices.shape}")
    return indices


def _chunks(x):
    """The slices of `np.array_split(x, k)`, one at a time, for the fewest
    k chunks of at most SCORE_CHUNK items, so none but a lone chunk is
    shorter than SCORE_CHUNK / 2 rows: BLAS rounds products of one or a few
    rows differently, and a short fixed-stride tail would change scores. A
    window set gathers each chunk only when it is reached."""
    n = len(x)
    k = max(1, math.ceil(n / SCORE_CHUNK))
    size, extra = divmod(n, k)
    lo = 0
    for i in range(k):
        hi = lo + size + (i < extra)
        yield x[lo:hi]
        lo = hi


def residuals(model, x: np.ndarray) -> np.ndarray:
    """`model.forward(x) - x` bit for bit, written chunk by chunk from
    no-cache passes over `_chunks(x)`, so no full-size reconstruction
    exists."""
    x = np.asarray(x, dtype=np.float64)
    r, lo = np.empty_like(x), 0
    for chunk in _chunks(x):
        hi = lo + chunk.shape[0]
        np.subtract(model.forward(chunk, cache=False), chunk, out=r[lo:hi])
        lo = hi
    return r


def _chunk_scores(model, x: np.ndarray, score) -> np.ndarray:
    """`score(residual)` of each of `_chunks(x)` in turn, joined: a chunk's
    reconstruction is reduced to its scores before the next pass, so no
    full-size reconstruction or residual exists."""
    return np.concatenate([score(model.forward(chunk, cache=False) - chunk)
                           for chunk in _chunks(x)])


def score_pointwise_mse(
    model, x: np.ndarray, indices=None, from_training: bool = False
) -> ScoreSeries:
    """Per-row mean squared residual of the dense reconstruction."""
    x = np.asarray(x, dtype=np.float64)
    scores = _chunk_scores(model, x, lambda r: np.mean(r * r, axis=1))
    return ScoreSeries(scores, _default_indices(x.shape[0], indices),
                       "mse_point", from_training)


def score_window_mse(
    model, windows, indices=None, from_training: bool = False
) -> ScoreSeries:
    """Per-window mean squared residual over all T*d entries; `windows` is
    a (n, T, d) array or a window set, gathered one chunk at a time."""
    scores = _chunk_scores(model, windows,
                           lambda r: np.mean(r * r, axis=(1, 2)))
    return ScoreSeries(scores, _default_indices(len(windows), indices),
                       "mse_window", from_training)


def score_mahalanobis(
    model, cov, x: np.ndarray, indices=None, from_training: bool = False
) -> ScoreSeries:
    """D = sqrt(r' sigma^-1 r) per row, using the raw (uncentered) residual."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != cov.d:
        raise ValidationError(
            f"input dimension {x.shape[1]} != covariance dimension {cov.d}"
        )

    def distance(r):
        quad = np.einsum("ij,jk,ik->i", r, cov.sigma_inv, r)
        # rounding can push the quadratic form infinitesimally below zero
        return np.sqrt(np.maximum(quad, 0.0))

    scores = _chunk_scores(model, x, distance)
    return ScoreSeries(scores, _default_indices(x.shape[0], indices),
                       "mahalanobis", from_training)


def percentile_linear(sorted_scores: np.ndarray, alpha: float) -> float:
    """Linear-interpolation percentile of an ascending score vector: for
    rank h = (n-1) * alpha / 100, interpolate between the neighbours of h."""
    n = sorted_scores.size
    h = (n - 1) * alpha / 100.0
    j = math.floor(h)
    if j + 1 >= n:
        return float(sorted_scores[n - 1])
    frac = h - j
    return float(sorted_scores[j] + frac * (sorted_scores[j + 1] - sorted_scores[j]))


def fit_threshold(train_scores: ScoreSeries, alpha: float = 95.0) -> ThresholdSpec:
    """Percentile threshold over healthy training scores."""
    if not train_scores.from_training:
        raise LeakageError(
            "thresholds may only be fitted on healthy training scores"
        )
    if len(train_scores) == 0:
        raise ValidationError("cannot fit a threshold on an empty score set")
    if not 0.0 < alpha <= 100.0:
        raise ValidationError(f"alpha must lie in (0, 100], got {alpha}")
    tau = percentile_linear(np.sort(train_scores.scores), alpha)
    return ThresholdSpec(alpha, tau, train_scores.kind, len(train_scores))


def detect(scores: ScoreSeries, spec: ThresholdSpec) -> np.ndarray:
    """Boolean flags: score strictly above tau."""
    if scores.kind != spec.kind:
        raise ValidationError(
            f"score kind {scores.kind!r} does not match threshold {spec.kind!r}"
        )
    return scores.scores > spec.tau

