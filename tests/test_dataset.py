import csv
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aedetect.dataset import (
    FaultSchedule,
    SensorLog,
    StampColumn,
    label_samples,
    load_fault_intervals,
    load_sensor_csv,
    read_table,
    write_sensor_csv,
    write_table,
)
from aedetect.errors import (
    DuplicateTimestampError,
    ParseError,
    SpacingError,
    ValidationError,
)
from aedetect.preprocess import write_matrix_csv


def minute_range(start, n):
    return np.datetime64(start, "m") + np.arange(n) * np.timedelta64(1, "m")


def write(tmp_path, text, name="log.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def csv_bytes(header, rows) -> bytes:
    """The header and rows as csv.writer writes them in UTF-8."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


class TestLoadSensorCsv:
    def test_three_rows_one_missing(self, tmp_path):
        path = write(tmp_path, "timestamp,a,b\n"
                               "2024-01-01 00:00,1.0,2.0\n"
                               "2024-01-01 00:01,,3.0\n"
                               "2024-01-01 00:02,4.0,5.0\n")
        log = load_sensor_csv(path)
        assert log.n_samples == 3 and log.n_channels == 2
        assert log.channel_names == ("a", "b")
        assert np.isnan(log.values).sum() == 1
        assert np.isnan(log.values[1, 0])

    def test_two_minute_gap_is_spacing_error(self, tmp_path):
        path = write(tmp_path, "timestamp,a\n"
                               "2024-01-01 00:00,1\n"
                               "2024-01-01 00:02,2\n")
        with pytest.raises(SpacingError, match="log.csv: gap of 2 minutes between"):
            load_sensor_csv(path)

    def test_nan_sentinel_matches_scratch_parse(self, tmp_path):
        # oracle: independent line-by-line parse of the same text
        text = ("timestamp,a,b\n"
                "2024-01-01 00:00,1.5,2.5\n"
                "2024-01-01 00:01,NaN,3.5\n"
                "2024-01-01 00:02,0.25,NaN\n"
                "2024-01-01 00:03,4.5,5.5\n"
                "2024-01-01 00:04,6.5,7.5\n")
        expected = []
        for line in text.splitlines()[1:]:
            cells = line.split(",")[1:]
            expected.append([float("nan") if c == "NaN" else float(c) for c in cells])
        log = load_sensor_csv(write(tmp_path, text))
        assert log.n_samples == 5
        for i, row in enumerate(expected):
            for j, v in enumerate(row):
                if v != v:
                    assert np.isnan(log.values[i, j])
                else:
                    assert log.values[i, j] == v

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = write(tmp_path, "timestamp,a\n"
                               "2024-01-01 00:00,1\n"
                               "2024-01-01 00:00,2\n")
        with pytest.raises(DuplicateTimestampError,
                           match="log.csv: duplicate timestamp 2024-01-01 00:00"):
            load_sensor_csv(path)

    def test_malformed_timestamp_reports_row(self, tmp_path):
        path = write(tmp_path, "timestamp,a\n"
                               "2024-01-01 00:00,1\n"
                               "not-a-time,2\n")
        with pytest.raises(ParseError, match="row 3"):
            load_sensor_csv(path)

    def test_bad_number_reports_row(self, tmp_path):
        path = write(tmp_path, "timestamp,a\n2024-01-01 00:00,oops\n")
        with pytest.raises(ParseError, match="row 2"):
            load_sensor_csv(path)

    def test_rows_sorted_by_timestamp(self, tmp_path):
        path = write(tmp_path, "timestamp,a\n"
                               "2024-01-01 00:01,2\n"
                               "2024-01-01 00:00,1\n")
        log = load_sensor_csv(path)
        assert log.values[:, 0].tolist() == [1.0, 2.0]

    def test_infinity_rejected(self, tmp_path):
        path = write(tmp_path, "timestamp,a\n2024-01-01 00:00,inf\n")
        with pytest.raises(ParseError):
            load_sensor_csv(path)


NAN = float("nan")
H = "timestamp,a,b\n"
# what the row-at-a-time reader (strptime and float() per row) gave for each
# text: the values in timestamp order, or the error after the file name
READER_CASES = {
    "unpadded-stamps": (H + "2024-1-1 0:0,1,2\n2024-1-1 0:1,3,4\n",
                        [[1.0, 2.0], [3.0, 4.0]]),
    "whitespace": (H + "  2024-01-01 00:00 , 1.5 ,\t2.5\n2024-01-01 00:01,3e0 ,  -4\n",
                   [[1.5, 2.5], [3.0, -4.0]]),
    "missing-cells": (H + "2024-01-01 00:00,NaN,nan\n2024-01-01 00:01,, \n"
                      "2024-01-01 00:02,1,2\n", [[NAN, NAN], [NAN, NAN], [1.0, 2.0]]),
    "quoted-cells": (H + '"2024-01-01 00:00","1.5",2\n2024-01-01 00:01,"",4\n',
                     [[1.5, 2.0], [NAN, 4.0]]),
    "unsorted-rows": (H + "2024-01-01 00:02,3,3\n2024-01-01 00:00,1,1\n"
                      "2024-01-01 00:01,2,2\n", [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
    "unit-separator": (H + "2024-01-01 00:00,\x1c1.5\x1c,2\n", [[1.5, 2.0]]),
    "blank-line-before-bad-row": (H + "2024-01-01 00:00,1,2\n\n2024-01-01 00:01,x,2\n",
                                  "row 4: could not convert string to float: 'x'"),
    "inf": (H + "2024-01-01 00:00,1,2\n2024-01-01 00:01,inf,2\n",
            "row 3: non-finite value 'inf'"),
    "minus-infinity": (H + "2024-01-01 00:00,1,2\n2024-01-01 00:01,1,-Infinity\n",
                       "row 3: non-finite value '-Infinity'"),
    "feb-30": (H + "2024-02-29 23:59,1,2\n2024-02-30 00:00,1,2\n",
               "row 3: day is out of range for month"),
    "minute-60": (H + "2024-01-01 23:59,1,2\n2024-01-01 23:60,1,2\n",
                  "row 3: unconverted data remains: 0"),
    "hour-24": (H + "2024-01-01 24:00,1,2\n", "row 2: time data '2024-01-01 24:00' "
                "does not match format '%Y-%m-%d %H:%M'"),
    "year-0": (H + "0000-01-01 00:00,1,2\n", "row 2: year 0 is out of range"),
    "bad-stamp-before-bad-number": (
        H + "2024-01-01 00:00,1,2\n2024-02-30 00:00,1,2\n2024-01-01 00:02,x,2\n",
        "row 3: day is out of range for month"),
    "inf-before-bad-number": (
        H + "2024-01-01 00:00,1,2\n2024-01-01 00:01,1e999,2\n2024-01-01 00:02,x,2\n",
        "row 3: non-finite value '1e999'"),
}


class TestReaderParity:
    @pytest.mark.parametrize("text, expected", READER_CASES.values(),
                             ids=READER_CASES.keys())
    def test_same_result_or_error_as_row_at_a_time(self, tmp_path, text, expected):
        path = write(tmp_path, text)
        if isinstance(expected, str):
            with pytest.raises(ParseError, match=re.escape(f"log.csv: {expected}")):
                load_sensor_csv(path)
            return
        log = load_sensor_csv(path)
        assert np.array_equal(log.timestamps,
                              minute_range("2024-01-01T00:00", len(expected)))
        assert np.array_equal(log.values, np.array(expected), equal_nan=True)


def block_log(tmp_path, n, edits=None):
    """An n-row, 3-channel log with 5% of its cells missing, and its sensor
    CSV with file row k (the header is row 1) replaced by edits[k](row)."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, 3)) * 100
    values[rng.random((n, 3)) < 0.05] = np.nan
    log = SensorLog(minute_range("2024-01-01T00:00", n), ("a", "b", "c"), values)
    path = tmp_path / "sensor.csv"
    write_sensor_csv(log, path)
    lines = path.read_bytes().split(b"\r\n")
    for k, edit in (edits or {}).items():
        lines[k - 1] = edit(lines[k - 1])
    path.write_bytes(b"\r\n".join(lines))
    return log, path


def stamp(text):
    return lambda line: text + line[line.index(b","):]


def last_cell(text):
    return lambda line: line[:line.rindex(b",") + 1] + text


NOT_A_TIME = "time data 'not a time' does not match format '%Y-%m-%d %H:%M'"


class TestStampBlocks:
    """Stamps are converted FORMAT_BLOCK (4 096) rows at a time. The loaded
    arrays and the error texts are those of the reader that converted the
    whole column at once, as recorded on it."""

    @pytest.mark.parametrize("n", (4095, 4096, 4097, 8193))
    def test_block_edges_load_bit_equal(self, tmp_path, n):
        log, path = block_log(tmp_path, n)
        again = load_sensor_csv(path)
        assert again.timestamps.tobytes() == log.timestamps.tobytes()
        assert again.values.tobytes() == log.values.tobytes()

    def test_one_block_through_strptime(self, tmp_path):
        # row 5000 (minute 4 998) spelled unpadded sends the second block
        # through strptime, the other two through numpy
        log, path = block_log(tmp_path, 8193, {5000: stamp(b"2024-1-4 11:18")})
        again = load_sensor_csv(path)
        assert again.timestamps.tobytes() == log.timestamps.tobytes()
        assert again.values.tobytes() == log.values.tobytes()

    @pytest.mark.parametrize("edits, message", (
        pytest.param({4100: stamp(b"not a time")}, f"row 4100: {NOT_A_TIME}",
                     id="bad-stamp"),
        pytest.param({4100: stamp(b"2024-02-30 00:00")},
                     "row 4100: day is out of range for month", id="feb-30"),
        pytest.param({4100: stamp(b"not a time"), 3000: last_cell(b"inf")},
                     "row 3000: non-finite value 'inf'", id="inf-before"),
        pytest.param({4100: stamp(b"not a time"), 6000: last_cell(b"inf")},
                     f"row 4100: {NOT_A_TIME}", id="inf-after"),
        pytest.param({4100: stamp(b"not a time"), 6000: last_cell(b"x")},
                     f"row 4100: {NOT_A_TIME}", id="bad-number-after"),
    ))
    def test_bad_stamp_past_the_first_block(self, tmp_path, edits, message):
        _, path = block_log(tmp_path, 8193, edits)
        with pytest.raises(ParseError) as caught:
            load_sensor_csv(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_sensor_load_peak_memory(self, tmp_path):
        # the reader that held one stamp string per row peaked at 3 276 805
        # bytes (tracemalloc) on this file
        _, path = block_log(tmp_path, 20_000)
        tracemalloc.start()
        try:
            load_sensor_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_276_805 / 2


class TestRoundTrip:
    def test_write_then_load_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((20, 3)) * 1e3
        values[rng.random((20, 3)) < 0.2] = np.nan
        values[:, 1] += 0.1  # make sure at least one observed value per channel
        log = SensorLog(minute_range("2024-01-01T00:00", 20), ("a", "b", "c"), values)
        path = tmp_path / "out.csv"
        write_sensor_csv(log, path)
        again = load_sensor_csv(path)
        finite = ~np.isnan(values)
        assert np.array_equal(again.values[finite], values[finite])
        assert np.isnan(again.values[~finite]).all()
        path2 = tmp_path / "out2.csv"
        write_sensor_csv(again, path2)
        assert path.read_bytes() == path2.read_bytes()


class TestFaultIntervals:
    def test_42_minute_interval(self, tmp_path):
        path = write(tmp_path, "start,duration_minutes\n2018-07-08 00:11,42\n",
                     "faults.csv")
        schedule = load_fault_intervals(path)
        start, duration = schedule.intervals[0]
        assert start == np.datetime64("2018-07-08T00:11", "m")
        assert duration == 42

    def test_51h51m_interval(self, tmp_path):
        path = write(tmp_path, "start,duration_minutes\n2018-04-18 00:30,3111\n",
                     "faults.csv")
        schedule = load_fault_intervals(path)
        assert schedule.intervals[0][1] == 51 * 60 + 51

    def test_zero_duration_rejected(self, tmp_path):
        path = write(tmp_path, "start,duration_minutes\n2018-07-08 00:11,0\n",
                     "faults.csv")
        with pytest.raises(ValidationError):
            load_fault_intervals(path)

    def test_unparseable_start_rejected(self, tmp_path):
        path = write(tmp_path, "start,duration_minutes\nsoon,5\n", "faults.csv")
        with pytest.raises(ParseError):
            load_fault_intervals(path)

    @pytest.mark.parametrize("text", (
        "start,duration_minutes,note\n2018-07-08 00:11,42,x\n",
        "start,duration_minutes\n2018-07-08 00:11,42,x\n",
    ))
    def test_extra_field_rejected(self, tmp_path, text):
        path = write(tmp_path, text, "faults.csv")
        with pytest.raises(ParseError, match="faults.csv"):
            load_fault_intervals(path)

    # the end of the first wraps past int64 to a minute before the log; the
    # second does not fit int64 at all
    @pytest.mark.parametrize("duration", (2**63 - 1, 10**30), ids=("wraps", "huge"))
    def test_end_past_datetime64_names_file_and_row(self, tmp_path, duration):
        path = write(tmp_path, "start,duration_minutes\n2024-01-01 00:00,5\n"
                               f"2024-01-01 10:00,{duration}\n", "faults.csv")
        with pytest.raises(ParseError, match="faults.csv: row 3: fault of "
                                             f"{duration} minutes from 2024-01-01 "
                                             "10:00 ends past the last minute"):
            load_fault_intervals(path)

    @pytest.mark.parametrize("start, duration", (
        ("2024-01-01T10:00", 2**63 - 1),
        ("2024-01-01T10:00", 10**30),
        ("1960-01-01T00:00", 2**63),  # ends in range, but no timedelta64 holds it
    ), ids=("wraps", "huge", "before-1970"))
    def test_schedule_rejects_end_past_datetime64(self, start, duration):
        with pytest.raises(ValidationError, match="ends past the last minute"):
            FaultSchedule(((np.datetime64(start, "m"), duration),))

    def test_last_representable_end_is_kept(self):
        start = np.datetime64("2024-01-01T10:00", "m")
        duration = 2**63 - 1 - int(start.astype(np.int64))
        log = SensorLog(minute_range("2024-01-01T09:58", 4), ("a",), np.zeros((4, 1)))
        flags = label_samples(log, FaultSchedule(((start, duration),)))
        assert flags.tolist() == [False, False, True, True]

    def test_intervals_sorted(self):
        schedule = FaultSchedule((
            (np.datetime64("2024-01-02T00:00", "m"), 5),
            (np.datetime64("2024-01-01T00:00", "m"), 5),
        ))
        starts = [s for s, _ in schedule.intervals]
        assert starts == sorted(starts)


# byte corruptions spliced in after a file's header line: not UTF-8, a NUL,
# a field longer than the csv module's limit, and a quote that is never closed
CORRUPT_BYTES = {
    "not-utf8": b"\xff\xfe",
    "nul": b"\x00",
    "huge-field": b'"' + b"x" * 200_000 + b'",',
    "stray-quote": b'"',
}


class TestTable:
    def test_a_writer_that_raises_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["k"], ("old",))
        old = path.read_bytes()

        def lines():
            yield "new"
            raise RuntimeError("died mid-write")

        with pytest.raises(RuntimeError, match="died mid-write"):
            write_table(path, ["k"], lines())
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_round_trip_skips_blank_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["k", 'v,"w"'], ("a,0.1", "b,2.0"))
        assert path.read_bytes() == b'k,"v,""w"""\r\na,0.1\r\nb,2.0\r\n'
        path.write_bytes(path.read_bytes() + b"\r\n\r\nd,3\r\n")
        header, rows = read_table(path, lambda row: (row[0], float(row[1])),
                                  ("k", 'v,"w"'))
        assert header == ["k", 'v,"w"']
        assert rows == [("a", 0.1), ("b", 2.0), ("d", 3.0)]

    def test_writers_write_the_bytes_of_csv_writer(self, tmp_path):
        # each line is joined by its caller and never quoted; the reference is
        # csv.writer over the same cells, a missing sensor cell empty
        edge = [np.nan, -0.0, 5e-324, 1e16, 1e-05, -1.5e300, 0.1, 2.0]
        values = np.array([edge, [np.nan] * 8, edge[::-1]])
        names = ('a,"b"', "c", " d", "e\tf", "g", "h", "i", "j")
        log = SensorLog(minute_range("2024-01-01T00:00", 3), names, values)
        stamps = ["2024-01-01 00:00", "2024-01-01 00:01", "2024-01-01 00:02"]
        write_sensor_csv(log, tmp_path / "sensor.csv")
        assert (tmp_path / "sensor.csv").read_bytes() == csv_bytes(
            ("timestamp",) + names,
            [[stamp] + ["" if np.isnan(x) else repr(x) for x in row]
             for stamp, row in zip(stamps, values.tolist())])
        assert (tmp_path / "sensor.csv").read_bytes().startswith(
            b'timestamp,"a,""b""",c, d,e\tf,')

        finite = np.array([edge[1:], edge[:0:-1]])
        write_matrix_csv(finite, names[1:], tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == csv_bytes(
            names[1:], [[repr(x) for x in row] for row in finite.tolist()])

    @pytest.mark.parametrize("write, make_args, bound", (
        (write_sensor_csv, lambda log, path: (log, path), 2_000_000),
        (write_matrix_csv, lambda log, path: (np.nan_to_num(log.values),
                                              log.channel_names, path), 1_000_000),
    ), ids=("sensor", "matrix"))
    def test_writer_peak_memory(self, tmp_path, write, make_args, bound):
        # writers that built one list over a whole column (stamps, cells or
        # lines) of this 20 000-row log peaked at 2.4-4.5 MB (tracemalloc);
        # one row at a time, the sensor writer peaks at 1.3 MB, most of it
        # one block of formatted stamps, and the matrix writer at 0.14 MB
        log, _ = block_log(tmp_path, 20_000)
        args = make_args(log, tmp_path / "out.csv")
        tracemalloc.start()
        try:
            write(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("text, row", (
        ("", 1),
        ("\nk,v\n", 1),
        ("k,w\n", 1),
        ("k,v\na,1\nb\n", 3),
        ("k,v\na,1\nb,2,3\n", 3),
        ("k,v\na,x\n", 2),
    ))
    def test_bad_table_names_file_and_row(self, tmp_path, text, row):
        path = write(tmp_path, text, "t.csv")
        with pytest.raises(ParseError, match=f"t.csv: row {row}:"):
            read_table(path, lambda r: float(r[1]), ("k", "v"))

    def test_undecodable_byte_names_its_row(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_table(path, ("row_index", "timestamp", "label"),
                    (f"{i},2024-01-01 00:00,0" for i in range(2_500)))
        data = path.read_bytes()
        cut = data.index(b"\n") + 1
        path.write_bytes(data[:cut] + b"\xff\xfe" + data[cut:])
        with pytest.raises(ParseError, match="labels.csv: row 2: 'utf-8' codec can't "
                                             "decode byte 0xff in position 0"):
            read_table(path, lambda row: row)

    def test_bad_stamp_in_a_column_names_its_row(self, tmp_path):
        path = write(tmp_path, "k,t\na,2024-01-01 00:00\n\nb,2024-1-1 0:1\n"
                               "c,2024-02-30 00:00\n", "t.csv")
        _, texts = read_table(path, lambda row: row[1])
        good, bad = StampColumn(path, 1), StampColumn(path, 1)
        for text in texts[:2]:
            good.add(text)
        for text in texts:
            bad.add(text)
        assert np.array_equal(good.values(), minute_range("2024-01-01T00:00", 2))
        with pytest.raises(ParseError,
                           match="t.csv: row 5: day is out of range for month"):
            bad.values()

    @pytest.mark.parametrize("splice", sorted(CORRUPT_BYTES))
    @pytest.mark.parametrize("name, load, text", (
        ("sensor.csv", load_sensor_csv,
         "timestamp,a\n2024-01-01 00:00,1\n2024-01-01 00:01,2\n"),
        ("faults.csv", load_fault_intervals,
         "start,duration_minutes\n2024-01-01 00:00,5\n"),
    ), ids=("sensor", "faults"))
    def test_corrupt_bytes_are_parse_error(self, tmp_path, name, load, text, splice):
        head, body = text.encode().split(b"\n", 1)
        path = tmp_path / name
        path.write_bytes(head + b"\n" + CORRUPT_BYTES[splice] + body)
        with pytest.raises(ParseError, match=name):
            load(path)


class TestLabelSamples:
    def test_fault6_against_minute_enumeration(self):
        ts = minute_range("2018-07-08T00:00", 61)
        log = SensorLog(ts, ("a",), np.zeros((61, 1)))
        schedule = FaultSchedule(((np.datetime64("2018-07-08T00:11", "m"), 42),))
        flags = label_samples(log, schedule)
        # oracle: test each of the 61 stamps for membership in [start, end)
        start = np.datetime64("2018-07-08T00:11", "m")
        end = start + np.timedelta64(42, "m")
        expected = np.array([start <= t < end for t in ts])
        assert np.array_equal(flags, expected)
        assert flags.sum() == 42
        assert flags[11] and flags[52] and not flags[53]

    def test_empty_schedule_all_false(self):
        log = SensorLog(minute_range("2024-01-01T00:00", 5), ("a",), np.zeros((5, 1)))
        assert not label_samples(log, FaultSchedule()).any()

    def test_overlap_is_boolean_union(self):
        log = SensorLog(minute_range("2024-01-01T00:00", 10), ("a",),
                        np.zeros((10, 1)))
        t0 = np.datetime64("2024-01-01T00:02", "m")
        schedule = FaultSchedule(((t0, 4), (t0 + 2, 4)))
        flags = label_samples(log, schedule)
        assert flags.sum() == 6  # minutes 2..7

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-10, 70), st.integers(1, 30)),
                    max_size=6),
           st.integers(10, 60))
    def test_flag_count_matches_minute_set_union(self, raw_intervals, n):
        base = np.datetime64("2024-01-01T00:00", "m")
        log = SensorLog(minute_range("2024-01-01T00:00", n), ("a",),
                        np.zeros((n, 1)))
        schedule = FaultSchedule(tuple((base + s, d) for s, d in raw_intervals))
        flags = label_samples(log, schedule)
        union = set()
        for s, d in raw_intervals:
            union.update(range(s, s + d))
        expected = union & set(range(n))
        assert flags.sum() == len(expected)
        assert set(np.flatnonzero(flags).tolist()) == expected

    def test_adding_interval_is_monotone(self):
        log = SensorLog(minute_range("2024-01-01T00:00", 30), ("a",),
                        np.zeros((30, 1)))
        base = np.datetime64("2024-01-01T00:00", "m")
        small = FaultSchedule(((base + 3, 5),))
        bigger = FaultSchedule(((base + 3, 5), (base + 20, 4)))
        f1 = label_samples(log, small)
        f2 = label_samples(log, bigger)
        assert np.all(f2[f1])  # nothing unflagged by the extra interval


class TestSensorLogInvariants:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            SensorLog(minute_range("2024-01-01T00:00", 3), ("a", "b"),
                      np.zeros((3, 1)))

    def test_infinite_cell_rejected(self):
        values = np.zeros((3, 1))
        values[1, 0] = np.inf
        with pytest.raises(ValidationError):
            SensorLog(minute_range("2024-01-01T00:00", 3), ("a",), values)

    def test_values_are_read_only(self):
        log = SensorLog(minute_range("2024-01-01T00:00", 3), ("a",),
                        np.zeros((3, 1)))
        with pytest.raises(ValueError):
            log.values[0, 0] = 1.0
