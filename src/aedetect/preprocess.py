"""Data preparation: channel pruning, imputation, scaling, splits, windows.

The cascade order is fixed: drop fully-empty channels, impute remaining gaps
(linear interpolation, then backward fill for leading runs, then forward fill
for trailing runs), scale with a MinMax transform fitted on healthy training
rows only, split 90/10 chronologically over healthy samples, and segment into
sliding windows. An item, a row or a window, belongs to the partition of its
last row (`partition_items`).
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
    """Per-channel finite MinMax bounds; fitted on `fitted_on` >= 1 healthy
    training rows only."""

    minimum: np.ndarray  # (C,)
    maximum: np.ndarray  # (C,)
    fitted_on: int

    def __post_init__(self):
        lo = np.asarray(self.minimum, dtype=np.float64)
        hi = np.asarray(self.maximum, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValidationError("scaler min/max must be matching 1-D vectors")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValidationError("scaler min/max must be finite")
        if np.any(lo > hi):
            raise ValidationError("scaler requires min <= max per channel")
        if self.fitted_on < 1:
            raise ValidationError(f"scaler fitted_on must be >= 1, got {self.fitted_on}")
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
        """Inverse of `to_doc`; a malformed block raises KeyError, TypeError,
        ValueError or OverflowError, which each reader reports in its own
        terms."""
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


PARTITIONS = ("train", "val", "test")


@dataclass(frozen=True, eq=False)
class SplitPlan:
    """Partition of a log's rows into train/validation/test sets: `parts[k]`
    is the index into PARTITIONS of row k, so the sets are disjoint, cover
    every row and list their rows in row order.

    train and validation contain only healthy rows; test holds all fault rows
    plus the held-out healthy remainder.
    """

    parts: np.ndarray  # (N,) int8

    def __post_init__(self):
        parts = np.asarray(self.parts)
        if parts.ndim != 1 or ((parts < 0) | (parts >= len(PARTITIONS))).any():
            raise ValidationError("split plan must be one partition code "
                                  f"in 0..{len(PARTITIONS) - 1} per row")
        parts = parts.astype(np.int8)
        parts.setflags(write=False)
        object.__setattr__(self, "parts", parts)

    @property
    def train_indices(self) -> np.ndarray:
        return np.flatnonzero(self.parts == 0)

    @property
    def validation_indices(self) -> np.ndarray:
        return np.flatnonzero(self.parts == 1)

    @property
    def test_indices(self) -> np.ndarray:
        return np.flatnonzero(self.parts == 2)

    @property
    def pool_indices(self) -> np.ndarray:
        """Healthy training pool: train and validation rows, in row order."""
        return np.flatnonzero(self.parts != 2)


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
    y = x - params.minimum
    y /= np.where(degenerate, 1.0, span)
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
    ``validation_ratio`` of the pool. A split that leaves the train or the
    validation set empty raises ValidationError naming it.
    """
    if not 0.0 < train_ratio < 1.0 or not 0.0 < validation_ratio < 1.0:
        raise ValidationError("split ratios must lie strictly between 0 and 1")
    flags = np.asarray(labels, dtype=bool)
    healthy = np.flatnonzero(~flags)
    if healthy.size == 0:
        raise ValidationError("no healthy samples to train on")
    pool = healthy[: int(train_ratio * healthy.size)]
    parts = np.full(flags.size, 2, dtype=np.int8)
    parts[pool] = 0
    rng = np.random.default_rng(seed)
    parts[rng.choice(pool, size=int(validation_ratio * pool.size), replace=False)] = 1
    for code in (0, 1):  # the test rows hold the last healthy row, after the pool
        if not (parts == code).any():
            raise ValidationError(f"the split leaves the {PARTITIONS[code]} "
                                  "partition empty")
    return SplitPlan(parts)


def window_ends(rows: np.ndarray, spec: WindowSpec) -> np.ndarray:
    """The last row of every window over sorted `rows`, by the one window
    rule: windows lie inside maximal runs of consecutive rows, never across a
    gap, and step `spec.stride` rows from each run's first row, so a run's
    window ends are `run[length - 1::stride]` and a shorter run yields none."""
    rows = np.asarray(rows, dtype=np.int64)
    runs = np.split(rows, np.flatnonzero(np.diff(rows) != 1) + 1)
    return np.concatenate([run[spec.length - 1 :: spec.stride] for run in runs])


class WindowSet:
    """The (n, length, channels) windows of a matrix that end at rows `ends`,
    held as the matrix (not copied) and one int per window. Indexing gathers
    windows: `ws[idx]` equals `np.asarray(ws)[idx]` for a slice, an int
    array, a bool mask or an int."""

    ndim = 3

    def __init__(self, matrix: np.ndarray, ends: np.ndarray, length: int):
        self.matrix, self.ends, self.length = matrix, ends, length
        rows, width = matrix.shape
        # frame k is the window of rows k .. k + length - 1
        self._frames = np.lib.stride_tricks.as_strided(
            matrix, (max(rows - length + 1, 0), length, width),
            (matrix.strides[0], *matrix.strides), writeable=False)

    def __len__(self) -> int:
        return self.ends.size

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.ends.size, self.length, self.matrix.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    def __getitem__(self, idx) -> np.ndarray:
        return self._frames[self.ends[idx] - (self.length - 1)]

    def subset(self, mask) -> WindowSet:
        """The windows that end at `ends[mask]`, over the same matrix."""
        return WindowSet(self.matrix, self.ends[mask], self.length)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[:], dtype=dtype)

    def tobytes(self) -> bytes:
        return self[:].tobytes()


def partition_windows(
    matrix: np.ndarray,
    labels: np.ndarray,
    rows: np.ndarray,
    spec: WindowSpec,
) -> tuple[WindowSet, np.ndarray, np.ndarray]:
    """The windows of `rows` whose last rows are `window_ends(rows, spec)`,
    as a WindowSet over `matrix`, whether each holds a fault row, and those
    last rows. No (n, length, channels) array is made: the set and the fault
    flags cost one int and one bool per window beside the matrix."""
    ends = window_ends(rows, spec)
    # fault rows up to each row, so a window's count is a difference of two
    faults = np.concatenate(([0], np.cumsum(np.asarray(labels, dtype=bool))))
    return (WindowSet(np.asarray(matrix, dtype=np.float64), ends, spec.length),
            faults[ends + 1] > faults[ends + 1 - spec.length], ends)


def partition_items(
    scaled: np.ndarray,
    labels: np.ndarray,
    parts: np.ndarray,
    spec: WindowSpec | None,
    *names: str,
) -> list[tuple[np.ndarray | WindowSet, np.ndarray, np.ndarray]]:
    """[(items, row per item, fault flag per item)] of each named partition
    of one scaled log, by the one item rule: an item belongs to the partition
    of its last row. With `spec` None an item is one row, `scaled[rows]`.
    Otherwise items are windows, which lie within runs of pool (train and
    val) rows or of test rows, never across a gap: one `partition_windows`
    call per side asked for. A partition that yields no items raises
    ValidationError naming it."""
    codes = [PARTITIONS.index(name) for name in names]
    if spec is None:
        rows = [np.flatnonzero(parts == code) for code in codes]
        found = [(scaled[part_rows], part_rows, labels[part_rows])
                 for part_rows in rows]
    else:
        test = PARTITIONS.index("test")
        cuts = {side: partition_windows(scaled, labels,
                                        np.flatnonzero((parts == test) == side), spec)
                for side in {code == test for code in codes}}
        found = []
        for code in codes:
            windows, flags, ends = cuts[code == test]
            keep = parts[ends] == code
            found.append((windows.subset(keep), ends[keep], flags[keep]))
    for name, (items, _rows, _flags) in zip(names, found):
        if len(items) == 0:
            raise ValidationError(f"the {name} partition yields no items")
    return found


def write_matrix_csv(matrix: np.ndarray, channel_names, path) -> None:
    """Prepared-matrix file: header = channel names, one row per sample."""
    x = np.asarray(matrix, dtype=np.float64)
    if np.isnan(x).any() or np.isinf(x).any():
        raise ValidationError("prepared matrices must be fully finite")
    write_table(path, channel_names, (",".join(map(repr, row.tolist())) for row in x))


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


def write_split_plan(plan: SplitPlan, path) -> None:
    """SplitPlan file: CSV of (row_index, partition), one row per log row."""
    # the codes' bytes, one per row, iterate as the codes' ints, with no list
    write_table(path, SPLIT_PLAN_HEADER, (
        f"{i},{PARTITIONS[part]}" for i, part in enumerate(plan.parts.tobytes())))


def read_split_plan(path) -> SplitPlan:
    """SplitPlan file back: body row k is (k, the name of a partition)."""
    codes, parts = {part: code for code, part in enumerate(PARTITIONS)}, bytearray()
    read_table(path, lambda row: parts.append(codes[row[1]]), SPLIT_PLAN_HEADER,
               indexed=True)
    return SplitPlan(np.frombuffer(parts, dtype=np.int8))
