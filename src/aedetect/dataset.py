"""Sensor-log and fault-schedule ingestion.

File formats:
- sensor CSV: UTF-8, header row, column 1 an ISO timestamp "YYYY-MM-DD HH:MM",
  remaining columns numeric; empty fields or "NaN" mark missing cells.
- fault CSV: header "start,duration_minutes".
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .errors import (
    DuplicateTimestampError,
    ParseError,
    SpacingError,
    ValidationError,
)

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M"
MISSING_MARKERS = ("", "NaN")

ONE_MINUTE = np.timedelta64(1, "m")


def _parse_timestamp(text: str, row: int) -> np.datetime64:
    try:
        dt = datetime.strptime(text.strip(), TIMESTAMP_FORMAT)
    except ValueError as exc:
        raise ParseError(f"row {row}: malformed timestamp {text!r}") from exc
    return np.datetime64(dt.strftime("%Y-%m-%dT%H:%M"), "m")


def format_timestamp(ts: np.datetime64) -> str:
    return str(ts.astype("datetime64[m]")).replace("T", " ")


@dataclass(frozen=True, eq=False)
class SensorLog:
    """Uniform minute-grid sensor readings; NaN cells mark missing values."""

    timestamps: np.ndarray  # datetime64[m], shape (N,)
    channel_names: tuple[str, ...]
    values: np.ndarray  # float64, shape (N, C)

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[m]")
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 2:
            raise ValidationError("values must be a 2-D matrix")
        if vals.shape[0] != ts.shape[0]:
            raise ValidationError(
                f"{ts.shape[0]} timestamps but {vals.shape[0]} value rows"
            )
        if vals.shape[1] != len(self.channel_names):
            raise ValidationError(
                f"{len(self.channel_names)} channel names but "
                f"{vals.shape[1]} value columns"
            )
        _validate_minute_grid(ts)
        if np.isinf(vals).any():
            raise ValidationError("non-missing cells must be finite")
        ts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


def _validate_minute_grid(ts: np.ndarray) -> None:
    if ts.shape[0] < 2:
        return
    deltas = np.diff(ts)
    dup = np.flatnonzero(deltas == np.timedelta64(0, "m"))
    if dup.size:
        raise DuplicateTimestampError(
            f"duplicate timestamp {format_timestamp(ts[dup[0] + 1])}"
        )
    bad = np.flatnonzero(deltas != ONE_MINUTE)
    if bad.size:
        i = bad[0]
        raise SpacingError(
            f"gap of {deltas[i]} between {format_timestamp(ts[i])} and "
            f"{format_timestamp(ts[i + 1])}; expected 1 minute"
        )


@dataclass(frozen=True)
class FaultSchedule:
    """Annotated fault intervals: (start, whole minutes > 0), sorted by start."""

    intervals: tuple[tuple[np.datetime64, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        normalized = []
        for start, duration in self.intervals:
            duration = int(duration)
            if duration <= 0:
                raise ValidationError(f"fault duration must be > 0, got {duration}")
            normalized.append((np.datetime64(start, "m"), duration))
        normalized.sort(key=lambda iv: iv[0])
        object.__setattr__(self, "intervals", tuple(normalized))


def load_sensor_csv(path) -> SensorLog:
    """Load a sensor CSV into a SensorLog.

    Rows are sorted by timestamp before the uniform-grid check; duplicate
    timestamps and gaps other than one minute are rejected. Cells equal to
    one of MISSING_MARKERS become NaN.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: missing header row") from None
        if len(header) < 2:
            raise ParseError("header must name a timestamp column and >=1 channel")
        channel_names = tuple(h.strip() for h in header[1:])

        timestamps = []
        rows = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"row {row_no}: expected {len(header)} fields, got {len(row)}"
                )
            timestamps.append(_parse_timestamp(row[0], row_no))
            parsed = np.empty(len(channel_names), dtype=np.float64)
            for j, cell in enumerate(row[1:]):
                cell = cell.strip()
                if cell in MISSING_MARKERS:
                    parsed[j] = np.nan
                else:
                    try:
                        value = float(cell)
                    except ValueError as exc:
                        raise ParseError(
                            f"row {row_no}: cannot parse {cell!r} as a number"
                        ) from exc
                    if np.isinf(value):
                        raise ParseError(f"row {row_no}: non-finite value {cell!r}")
                    parsed[j] = value
            rows.append(parsed)

    if not rows:
        raise ParseError("file has a header but no data rows")
    ts = np.array(timestamps, dtype="datetime64[m]")
    values = np.vstack(rows)
    order = np.argsort(ts, kind="stable")
    return SensorLog(ts[order], channel_names, values[order])


def write_sensor_csv(log: SensorLog, path) -> None:
    """Write a SensorLog back to CSV; finite cells round-trip bit-exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("timestamp",) + log.channel_names)
        for i in range(log.n_samples):
            cells = [format_timestamp(log.timestamps[i])]
            for x in log.values[i]:
                cells.append("" if np.isnan(x) else repr(float(x)))
            writer.writerow(cells)


def load_fault_intervals(path) -> FaultSchedule:
    """Load a fault CSV with columns start,duration_minutes."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError("empty file: missing header row") from None
        if header[:2] != ["start", "duration_minutes"]:
            raise ParseError(
                "fault CSV header must be 'start,duration_minutes', "
                f"got {','.join(header)!r}"
            )
        intervals = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ParseError(f"row {row_no}: expected 2 fields")
            start = _parse_timestamp(row[0], row_no)
            try:
                duration = int(row[1].strip())
            except ValueError as exc:
                raise ParseError(
                    f"row {row_no}: cannot parse duration {row[1]!r}"
                ) from exc
            if duration <= 0:
                raise ValidationError(
                    f"row {row_no}: duration must be a positive minute count"
                )
            intervals.append((start, duration))
    return FaultSchedule(tuple(intervals))


def write_fault_intervals(schedule: FaultSchedule, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start", "duration_minutes"])
        for start, duration in schedule.intervals:
            writer.writerow([format_timestamp(start), duration])


def label_samples(log: SensorLog, schedule: FaultSchedule) -> np.ndarray:
    """Boolean fault flags per row: true iff the timestamp falls inside any
    half-open interval [start, start + duration)."""
    flags = np.zeros(log.n_samples, dtype=bool)
    for start, duration in schedule.intervals:
        end = start + duration * ONE_MINUTE
        lo = np.searchsorted(log.timestamps, start, side="left")
        hi = np.searchsorted(log.timestamps, end, side="left")
        flags[lo:hi] = True
    return flags
