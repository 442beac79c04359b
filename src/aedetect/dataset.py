"""Sensor-log and fault-schedule ingestion, and the CSV table codec that
every pipeline file goes through.

File formats:
- every CSV (`write_table`/`read_table`): UTF-8, a header row quoted by
  csv where a cell needs it, and every non-empty row with the header's field
  count; body cells are never quoted.
- sensor CSV: column 1 a timestamp "YYYY-MM-DD HH:MM" (any form that
  strptime reads with that format, e.g. "2024-1-1 0:5", is accepted too),
  remaining columns numeric; empty fields or "NaN" mark missing cells.
- fault CSV: header "start,duration_minutes".
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from array import array
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
# A canonical stamp, "YYYY-MM-DD HH:MM" in ASCII digits with a year other
# than 0000, and the newline that joins it to the next; "0" marks a digit.
# numpy converts canonical stamps exactly as strptime with TIMESTAMP_FORMAT
# reads them, and rejects an impossible date or time of this shape, as
# strptime does (numpy would take year 0000).
_CANONICAL_STAMP = np.frombuffer(b"0000-00-00 00:00\n", np.uint8)
_STAMP_DIGIT = _CANONICAL_STAMP == ord("0")
FAULT_HEADER = ("start", "duration_minutes")
FORMAT_BLOCK = 4096

ONE_MINUTE = np.timedelta64(1, "m")


@contextlib.contextmanager
def replacing(path, newline=None):
    """A UTF-8 text handle on a sibling temporary file that replaces `path`
    only once the block ends without error, so a writer that raises or is
    killed mid-way leaves the old file whole. Every pipeline file is written
    through it; on an error the temporary file is removed."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, doc) -> None:
    """One JSON document, indented by one space and ended by a newline."""
    with replacing(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_table(path, header, lines) -> None:
    """One CSV table: UTF-8, the header row as csv.writer writes it, then
    each string of the iterable `lines` as one body row, written as given and
    ended with "\r\n", csv's row terminator.

    Header cells are quoted where csv needs it, since channel names come from
    the user's log. Body cells are never quoted: the caller joins them with
    ",", and every body cell of a pipeline file is a float repr, an int, a
    canonical stamp or a fixed name, none of which holds a comma, a quote or
    a line break. So the bytes are those csv.writer writes for the same
    cells."""
    with replacing(path, newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(line + "\r\n" for line in lines)


def read_table(path, parse, header=None, indexed=False) -> tuple[list[str], list]:
    """The header row (cells stripped) and the list of `parse(row)` for each
    non-empty row of a CSV table, None results left out: a `parse` that
    fills arrays of its own returns None, and no per-row list is built. The
    header must equal `header` when one is given, every row must have the
    header's field count, and in an `indexed` table the first cell of body
    row k must read k. A missing or wrong header, undecodable bytes, a
    malformed line, a short or long row, a wrong index, or a
    LookupError/ValueError/OverflowError from `parse` raises one ParseError
    naming the file and row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            found = [h.strip() for h in next(reader, ())]
            if not found:
                raise ValueError("missing header")
            if header is not None and found != list(header):
                raise ValueError(f"header must be {','.join(header)!r}, "
                                 f"got {','.join(found)!r}")
            width, count, rows = len(found), 0, []
            for row in reader:
                if row:
                    if len(row) != width:
                        raise ValueError(f"expected {width} fields, got {len(row)}")
                    if indexed and int(row[0]) != count:
                        raise ValueError(f"{found[0]} must be {count}, "
                                         f"got {row[0].strip()!r}")
                    if (value := parse(row)) is not None:
                        rows.append(value)
                    count += 1
        except (csv.Error, LookupError, ValueError, OverflowError) as exc:
            row = reader.line_num or 1
            if isinstance(exc, UnicodeDecodeError):
                # the text layer decodes ahead of the csv reader
                row, exc = _undecodable_line(path)
            what = f"unknown value {exc}" if isinstance(exc, KeyError) else exc
            raise ParseError(f"{path}: row {row}: {what}") from None
    return found, rows


def _undecodable_line(path) -> tuple[int, UnicodeDecodeError]:
    """(line number, decode error) of the first line of a file that is not
    UTF-8; the file is read one line at a time, and only after decoding it
    failed, so there is such a line."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return number, exc
    raise AssertionError(f"{path} decodes line by line")


def _parse_timestamp(text: str) -> np.datetime64:
    dt = datetime.strptime(text.strip(), TIMESTAMP_FORMAT)  # ValueError if malformed
    return np.datetime64(dt.strftime("%Y-%m-%dT%H:%M"), "m")


def _all_canonical(texts: list[str]) -> bool:
    """Whether every text is a canonical stamp, checked at once on the bytes
    of all texts joined by newlines: exactly _CANONICAL_STAMP.size bytes per
    text, each block of the canonical shape."""
    blob = ("\n".join(texts) + "\n").encode("utf-8")
    if len(blob) != _CANONICAL_STAMP.size * len(texts):
        return False
    stamps = np.frombuffer(blob, np.uint8).reshape(-1, _CANONICAL_STAMP.size)
    digits = stamps[:, _STAMP_DIGIT]
    return bool((digits - ord("0") <= 9).all()  # uint8: a byte below "0" wraps
                and (stamps[:, ~_STAMP_DIGIT] == _CANONICAL_STAMP[~_STAMP_DIGIT]).all()
                and (digits[:, :4] != ord("0")).any(axis=1).all())


def _parse_timestamps(texts: list[str]) -> np.ndarray:
    """datetime64[m] of each stamp text, equal to what `_parse_timestamp`
    gives it: one numpy conversion when every text is a canonical stamp,
    else strptime on each text. ValueError when some text is not a stamp;
    the caller names its row."""
    if not _all_canonical(texts):
        texts = [str(_parse_timestamp(t)) for t in texts]
    return np.array(texts, dtype="datetime64[m]")


class StampColumn:
    """The stamps of column `column` of the CSV table at `path`, given by
    `add` one text at a time in row order (from a `read_table` row callback)
    and converted by `_parse_timestamps` one FORMAT_BLOCK of texts at a
    time, so memory holds one block of texts, not one string per row.

    `add` never raises, so the callback's own checks keep their order over
    the whole file: a block that holds a bad stamp is only noted, and
    `values` then raises ParseError naming the first bad stamp's row."""

    def __init__(self, path, column: int, header=None):
        self._path, self._column, self._header = path, column, header
        self._texts: list[str] = []
        self._minutes = array("q")
        self._error: ValueError | None = None

    def add(self, text: str) -> None:
        self._texts.append(text)
        if len(self._texts) == FORMAT_BLOCK:
            self._convert()

    def _convert(self) -> None:
        if self._texts and self._error is None:
            try:
                self._minutes.frombytes(_parse_timestamps(self._texts).tobytes())
            except ValueError as exc:
                self._error = exc
        self._texts.clear()

    def values(self) -> np.ndarray:
        """datetime64[m] of every text added, equal to `_parse_timestamps`
        of them all; a bad stamp raises ParseError naming the file and the
        row, found by reading the column again one row at a time."""
        self._convert()
        if self._error is not None:
            read_table(self._path, lambda row: _parse_timestamp(row[self._column]),
                       self._header)
            raise self._error
        return np.frombuffer(self._minutes, dtype="datetime64[m]")


def format_timestamp(ts: np.datetime64) -> str:
    return str(ts.astype("datetime64[m]")).replace("T", " ")


def format_timestamps(ts: np.ndarray):
    """`format_timestamp` of each stamp in turn. numpy formats a block of
    FORMAT_BLOCK stamps at a time, so memory does not grow with the log."""
    for start in range(0, ts.size, FORMAT_BLOCK):
        block = np.datetime_as_string(ts[start:start + FORMAT_BLOCK], unit="m")
        for text in block.tolist():
            yield text.replace("T", " ")


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
        normalized = sorted((_fault_interval(start, duration)
                             for start, duration in self.intervals),
                            key=lambda iv: iv[0])
        object.__setattr__(self, "intervals", tuple(normalized))


def _fault_interval(start, duration) -> tuple[np.datetime64, int]:
    """(start, duration) as FaultSchedule holds them; ValidationError unless
    the duration is a positive minute count and `label_samples` can compute
    the interval's end: the duration fits a timedelta64 and the end fits a
    datetime64, both int64 minute counts that numpy wraps silently."""
    start, duration = np.datetime64(start, "m"), int(duration)
    if duration <= 0:
        raise ValidationError(f"fault duration must be > 0, got {duration}")
    last = np.iinfo(np.int64).max
    if duration > min(last, last - int(start.astype(np.int64))):
        raise ValidationError(f"fault of {duration} minutes from "
                              f"{format_timestamp(start)} ends past the last "
                              "minute datetime64 can hold")
    return start, duration


def _check_sensor_row(row) -> None:
    """The checks `load_sensor_csv` makes on whole columns, made on one row;
    raises the message of the row's first bad stamp or cell."""
    _parse_timestamp(row[0])
    for cell in row[1:]:
        cell = cell.strip()
        if cell and math.isinf(float(cell)):
            raise ValueError(f"non-finite value {cell!r}")


def load_sensor_csv(path) -> SensorLog:
    """Load a sensor CSV into a SensorLog.

    Rows are sorted by timestamp before the uniform-grid check; duplicate
    timestamps and gaps other than one minute are rejected, naming the file.
    Empty cells become NaN. A bad stamp or cell raises ParseError naming its
    row.
    """
    stamps, cells = StampColumn(path, 0), array("d")

    def parse(row):
        stamps.add(row[0])
        cells.fromlist([float(c) if (c := cell.strip()) else math.nan
                        for cell in row[1:]])

    try:
        header, _ = read_table(path, parse)
        values = np.frombuffer(cells, dtype=np.float64)
        if np.isinf(values).any():
            raise ValueError("non-finite value")
    except ValueError:
        # the cells are checked whole, so find the first bad row, and its
        # message, by checking the file again one row at a time
        read_table(path, _check_sensor_row)
        raise
    # every cell is good, so the first bad stamp is the first bad row
    ts = stamps.values()
    if len(header) < 2:
        raise ParseError(f"{path}: header must name a timestamp and a channel")
    if not ts.size:
        raise ParseError(f"{path}: file has a header but no data rows")
    values = values.reshape(ts.size, len(header) - 1)
    if (ts[1:] < ts[:-1]).any():  # a log in time order needs no sorted copies
        order = np.argsort(ts, kind="stable")
        ts, values = ts[order], values[order]
    try:
        return SensorLog(ts, tuple(header[1:]), values)
    except ValidationError as exc:  # a duplicate stamp or a gap
        raise type(exc)(f"{path}: {exc}") from None


def write_sensor_csv(log: SensorLog, path) -> None:
    """Write a SensorLog back to CSV; finite cells round-trip bit-exactly and
    missing cells are written empty. Each line's "nan" cells are emptied by
    one `replace`: a stamp or the repr of a finite float never holds "nan",
    and a SensorLog holds no infinity."""
    write_table(path, ("timestamp",) + log.channel_names, (
        ",".join((stamp, *map(repr, row.tolist()))).replace("nan", "")
        for stamp, row in zip(format_timestamps(log.timestamps), log.values)))


def load_fault_intervals(path) -> FaultSchedule:
    """Load a fault CSV with columns start,duration_minutes."""

    _, intervals = read_table(
        path, lambda row: _fault_interval(_parse_timestamp(row[0]), int(row[1])),
        FAULT_HEADER)
    return FaultSchedule(tuple(intervals))


def write_fault_intervals(schedule: FaultSchedule, path) -> None:
    write_table(path, FAULT_HEADER, (f"{format_timestamp(start)},{duration}"
                                     for start, duration in schedule.intervals))


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
