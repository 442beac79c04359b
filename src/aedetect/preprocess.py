"""Data preparation: channel pruning, imputation, scaling, splits, windows.

The cascade order is fixed: drop fully-empty channels, impute remaining gaps
(linear interpolation, then backward fill for leading runs, then forward fill
for trailing runs), scale with a MinMax transform fitted on healthy training
rows only, split 90/10 chronologically over healthy samples, and segment into
sliding windows.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import SensorLog, read_table, write_table
from .errors import LeakageError, ParseError, ValidationError


@dataclass(frozen=True, eq=False)
class ScalerParams:
    """Per-channel MinMax bounds; fitted on healthy training rows only."""

    minimum: np.ndarray  # (C,)
    maximum: np.ndarray  # (C,)
    fitted_on: int

    def __post_init__(self):
        lo = np.asarray(self.minimum, dtype=np.float64)
        hi = np.asarray(self.maximum, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValidationError("scaler min/max must be matching 1-D vectors")
        if np.any(lo > hi):
            raise ValidationError("scaler requires min <= max per channel")
        object.__setattr__(self, "minimum", lo)
        object.__setattr__(self, "maximum", hi)

    def to_doc(self) -> dict:
        """The JSON block of `scaler.json` and of a model file's `scaler`."""
        return {
            "min": self.minimum.tolist(),
            "max": self.maximum.tolist(),
            "fitted_on": self.fitted_on,
        }

    @classmethod
    def from_doc(cls, doc) -> ScalerParams:
        """Inverse of `to_doc`; a malformed block raises KeyError, TypeError
        or ValueError, which each reader reports in its own terms."""
        return cls(np.asarray(doc["min"], dtype=np.float64),
                   np.asarray(doc["max"], dtype=np.float64),
                   int(doc["fitted_on"]))


@dataclass(frozen=True)
class WindowSpec:
    length: int = 5
    stride: int = 1

    def __post_init__(self):
        if self.length < 1 or self.stride < 1:
            raise ValidationError("window length and stride must be >= 1")


@dataclass(frozen=True, eq=False)
class SplitPlan:
    """Row-index partition of a log into train/validation/test sets.

    train and validation contain only healthy rows; test holds all fault rows
    plus the held-out healthy remainder.
    """

    train_indices: np.ndarray
    validation_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        for name in ("train_indices", "validation_indices", "test_indices"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        sets = [
            set(self.train_indices.tolist()),
            set(self.validation_indices.tolist()),
            set(self.test_indices.tolist()),
        ]
        total = len(sets[0]) + len(sets[1]) + len(sets[2])
        if len(sets[0] | sets[1] | sets[2]) != total:
            raise ValidationError("split partitions must be pairwise disjoint")

    @property
    def pool_indices(self) -> np.ndarray:
        """Healthy training pool: train and validation rows, in row order."""
        return np.sort(np.concatenate([self.train_indices, self.validation_indices]))


def drop_empty_channels(log: SensorLog) -> tuple[SensorLog, list[str]]:
    """Remove channels with no observed value at all; error if none survive."""
    observed = ~np.all(np.isnan(log.values), axis=0)
    if not observed.any():
        raise ValidationError("every channel is empty")
    dropped = [name for name, keep in zip(log.channel_names, observed) if not keep]
    if not dropped:
        return log, []
    kept_names = tuple(
        name for name, keep in zip(log.channel_names, observed) if keep
    )
    return SensorLog(log.timestamps, kept_names, log.values[:, observed]), dropped


def _impute_column(col: np.ndarray) -> np.ndarray:
    out = col.copy()
    obs = np.flatnonzero(~np.isnan(col))
    if obs.size == 0:
        raise ValidationError("cannot impute a fully-missing channel; drop it first")
    # interior gaps: linear interpolation between nearest observed neighbours
    gaps = np.flatnonzero(np.isnan(col))
    idx = gaps[(gaps > obs[0]) & (gaps < obs[-1])]
    after = np.searchsorted(obs, idx)
    i0, i1 = obs[after - 1], obs[after]
    out[idx] = col[i0] + (col[i1] - col[i0]) * ((idx - i0) / (i1 - i0))
    out[: obs[0]] = col[obs[0]]  # backward fill of the leading run
    out[obs[-1] + 1 :] = col[obs[-1]]  # forward fill of the trailing run
    return out


def impute_cascade(log: SensorLog) -> SensorLog:
    """Fill every missing cell; observed cells are untouched."""
    filled = np.empty_like(log.values)
    for c in range(log.n_channels):
        filled[:, c] = _impute_column(log.values[:, c])
    return SensorLog(log.timestamps, log.channel_names, filled)


def fit_scaler(
    matrix: np.ndarray,
    rows: np.ndarray,
    labels: np.ndarray | None = None,
) -> ScalerParams:
    """Per-channel min/max over exactly the given rows.

    When `labels` is supplied, any flagged row in the fitting set raises
    LeakageError: the scaler must see healthy training data only.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValidationError("scaler fitting set is empty")
    if labels is not None and np.asarray(labels, dtype=bool)[rows].any():
        raise LeakageError("scaler fitting set contains fault-labelled rows")
    sub = np.asarray(matrix, dtype=np.float64)[rows]
    if np.isnan(sub).any():
        raise ValidationError("scaler input still has missing cells; impute first")
    return ScalerParams(sub.min(axis=0), sub.max(axis=0), int(rows.size))


def apply_scaler(matrix: np.ndarray, params: ScalerParams) -> np.ndarray:
    """y = (x - min) / (max - min); constant channels map to 0; no clamping."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.shape[-1] != params.minimum.shape[0]:
        raise ValidationError(
            f"matrix has {x.shape[-1]} channels, scaler has {params.minimum.shape[0]}"
        )
    span = params.maximum - params.minimum
    degenerate = span == 0.0
    denom = np.where(degenerate, 1.0, span)
    y = (x - params.minimum) / denom
    if degenerate.any():
        y[..., degenerate] = 0.0
    return y


def invert_scaler(scaled: np.ndarray, params: ScalerParams) -> np.ndarray:
    """Analytic inverse of apply_scaler (degenerate channels map back to min)."""
    y = np.asarray(scaled, dtype=np.float64)
    if y.shape[-1] != params.minimum.shape[0]:
        raise ValidationError("channel count mismatch")
    return y * (params.maximum - params.minimum) + params.minimum


def plan_split(
    labels: np.ndarray,
    train_ratio: float = 0.9,
    validation_ratio: float = 0.2,
    seed: int = 0,
) -> SplitPlan:
    """Chronological healthy split: first ``train_ratio`` of healthy rows form
    the training pool; the rest of the healthy rows plus all fault rows form
    the test set. The validation set is a seeded uniform sample of
    ``validation_ratio`` of the pool.
    """
    if not 0.0 < train_ratio < 1.0 or not 0.0 < validation_ratio < 1.0:
        raise ValidationError("split ratios must lie strictly between 0 and 1")
    flags = np.asarray(labels, dtype=bool)
    healthy = np.flatnonzero(~flags)
    if healthy.size == 0:
        raise ValidationError("no healthy samples to train on")
    n_pool = int(train_ratio * healthy.size)
    pool = healthy[:n_pool]
    test = np.sort(np.concatenate([healthy[n_pool:], np.flatnonzero(flags)]))
    rng = np.random.default_rng(seed)
    n_val = int(validation_ratio * pool.size)
    val = np.sort(rng.choice(pool, size=n_val, replace=False))
    train = np.setdiff1d(pool, val)
    return SplitPlan(train, val, test)


def make_windows(
    matrix: np.ndarray,
    labels: np.ndarray,
    spec: WindowSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sliding windows over a contiguous block.

    Returns (windows, window_labels, window_end_indices); window i covers rows
    [i*stride, i*stride + length) and is labelled anomalous if any frame is.
    """
    x = np.asarray(matrix, dtype=np.float64)
    flags = np.asarray(labels, dtype=bool)
    n = x.shape[0]
    if flags.shape[0] != n:
        raise ValidationError("labels must align 1:1 with matrix rows")
    if n < spec.length:
        raise ValidationError(f"need at least {spec.length} rows to window, got {n}")
    return partition_windows(x, flags, np.arange(n), spec)


def contiguous_runs(rows: np.ndarray) -> list[np.ndarray]:
    """Split a sorted row-index set into maximal runs of consecutive indices."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(rows) != 1) + 1
    return np.split(rows, breaks)


def partition_windows(
    matrix: np.ndarray,
    labels: np.ndarray,
    rows: np.ndarray,
    spec: WindowSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window one partition of a log without straddling its gaps.

    Windows are taken over each maximal contiguous run of `rows`; runs shorter
    than the window length yield none. Returns (windows, labels, end_rows)
    where end_rows are absolute row indices of each window's last frame.
    """
    x = np.asarray(matrix, dtype=np.float64)
    flags = np.asarray(labels, dtype=bool)
    t, stride = spec.length, spec.stride
    # (first row, row count) of each run long enough for a window; the output
    # is sized up front and filled run by run, so no run's windows are copied
    # twice
    runs = [(int(run[0]), run.size) for run in contiguous_runs(rows) if run.size >= t]
    counts = [(size - t) // stride + 1 for _, size in runs]
    total = sum(counts)
    windows = np.empty((total, t, x.shape[1] if x.ndim == 2 else 0))
    window_labels = np.empty(total, dtype=bool)
    ends = np.empty(total, dtype=np.int64)
    lo = 0
    for (first, size), count in zip(runs, counts):
        block, out = slice(first, first + size), slice(lo, lo + count)
        view = np.lib.stride_tricks.sliding_window_view(x[block], t, axis=0)
        windows[out] = view[::stride].transpose(0, 2, 1)
        window_labels[out] = np.lib.stride_tricks.sliding_window_view(
            flags[block], t)[::stride].any(axis=1)
        ends[out] = np.arange(first + t - 1, first + size, stride)
        lo += count
    return windows, window_labels, ends


def write_matrix_csv(matrix: np.ndarray, channel_names, path) -> None:
    """Prepared-matrix file: header = channel names, one row per sample."""
    x = np.asarray(matrix, dtype=np.float64)
    if np.isnan(x).any() or np.isinf(x).any():
        raise ValidationError("prepared matrices must be fully finite")
    write_table(path, channel_names, (map(repr, row.tolist()) for row in x))


def read_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    """Prepared-matrix file back as (matrix, channel names); the body streams
    through `np.loadtxt`, which parses each cell as `float()` does."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            names = [h.strip() for h in next(csv.reader(fh))]
            with warnings.catch_warnings():
                # a header-only file is an empty partition, not a mistake
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                matrix = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except StopIteration:
            raise ParseError(f"{path}: empty matrix file") from None
        except (csv.Error, ValueError) as exc:
            raise ParseError(
                f"{path}: {exc} (rows counted from 0 after the header)"
            ) from None
    if matrix.size == 0:
        return np.empty((0, len(names))), names
    if matrix.shape[1] != len(names):
        raise ParseError(
            f"{path}: rows have {matrix.shape[1]} cells, header has {len(names)}"
        )
    return matrix, names


SPLIT_PLAN_HEADER = ("row_index", "partition")
PARTITIONS = ("train", "val", "test")


def write_split_plan(plan: SplitPlan, path) -> None:
    """SplitPlan file: CSV of (row_index, partition), in row order."""
    parts = (plan.train_indices, plan.validation_indices, plan.test_indices)
    write_table(path, SPLIT_PLAN_HEADER, sorted(
        (int(i), part) for rows, part in zip(parts, PARTITIONS) for i in rows))


def read_split_plan(path) -> SplitPlan:
    buckets = {part: [] for part in PARTITIONS}
    read_table(path, lambda row: buckets[row[1].strip()].append(int(row[0])),
               SPLIT_PLAN_HEADER)
    return SplitPlan(*(np.array(buckets[part], dtype=np.int64) for part in PARTITIONS))
