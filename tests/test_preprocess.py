import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aedetect.dataset import SensorLog
from aedetect.errors import LeakageError, ParseError, ValidationError
from aedetect.preprocess import (
    ScalerParams,
    SplitPlan,
    WindowSpec,
    apply_scaler,
    drop_empty_channels,
    fit_scaler,
    impute_cascade,
    invert_scaler,
    partition_windows,
    plan_split,
    read_matrix_csv,
    read_split_plan,
    window_ends,
    write_matrix_csv,
    write_split_plan,
)


def make_log(values):
    values = np.asarray(values, dtype=np.float64)
    ts = np.datetime64("2024-01-01T00:00", "m") + np.arange(values.shape[0]) \
        * np.timedelta64(1, "m")
    names = tuple(f"c{i}" for i in range(values.shape[1]))
    return SensorLog(ts, names, values)


def impute_oracle(col):
    """Independent three-step oracle: interpolate, backward fill, forward fill."""
    col = list(col)
    n = len(col)
    obs = [i for i in range(n) if col[i] == col[i]]
    out = list(col)
    for a, b in zip(obs, obs[1:]):
        for i in range(a + 1, b):
            out[i] = col[a] + (col[b] - col[a]) * ((i - a) / (b - a))
    for i in range(obs[0]):  # backward fill
        out[i] = col[obs[0]]
    for i in range(obs[-1] + 1, n):  # forward fill
        out[i] = col[obs[-1]]
    return out


class TestDropEmptyChannels:
    def test_one_fully_missing(self):
        values = np.array([[1.0, np.nan], [2.0, np.nan], [3.0, np.nan]])
        log, dropped = drop_empty_channels(make_log(values))
        assert dropped == ["c1"]
        assert log.channel_names == ("c0",)

    def test_identity_when_nothing_missing(self):
        log = make_log(np.ones((4, 3)))
        out, dropped = drop_empty_channels(log)
        assert dropped == []
        assert out.values is log.values

    def test_52_channels_one_empty_leaves_51(self):
        rng = np.random.default_rng(0)
        values = rng.random((10, 52))
        values[:, 14] = np.nan  # channel "s15" in 1-based naming
        ts = np.datetime64("2024-01-01T00:00", "m") + np.arange(10) \
            * np.timedelta64(1, "m")
        names = tuple(f"s{i + 1}" for i in range(52))
        log, dropped = drop_empty_channels(SensorLog(ts, names, values))
        assert log.n_channels == 51
        assert dropped == ["s15"]

    def test_all_empty_is_error(self):
        with pytest.raises(ValidationError):
            drop_empty_channels(make_log(np.full((3, 2), np.nan)))


class TestImputeCascade:
    def test_midpoint(self):
        out = impute_cascade(make_log([[1.0], [np.nan], [3.0]]))
        assert out.values[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_leading_and_trailing_runs(self):
        col = [np.nan, 2.0, np.nan, 4.0, np.nan]
        out = impute_cascade(make_log([[v] for v in col]))
        assert out.values[:, 0].tolist() == [2.0, 2.0, 3.0, 4.0, 4.0]
        assert out.values[:, 0].tolist() == impute_oracle(col)

    def test_equal_thirds(self):
        col = [1.0, np.nan, np.nan, 4.0]
        out = impute_cascade(make_log([[v] for v in col]))
        assert out.values[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_observed_cells_untouched(self):
        col = [1.5, np.nan, 2.5]
        out = impute_cascade(make_log([[v] for v in col]))
        assert out.values[0, 0] == 1.5 and out.values[2, 0] == 2.5

    def test_fully_missing_channel_is_error(self):
        with pytest.raises(ValidationError):
            impute_cascade(make_log([[np.nan], [np.nan]]))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_hand_oracle_exactly(self, data):
        n = data.draw(st.integers(2, 25))
        values = data.draw(st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n))
        mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if all(mask):
            mask[data.draw(st.integers(0, n - 1))] = False
        col = [np.nan if m else v for v, m in zip(values, mask)]
        out = impute_cascade(make_log([[v] for v in col]))
        assert out.values[:, 0].tolist() == impute_oracle(col)

    def test_channels_match_hand_oracle_exactly(self):
        # gaps at both ends of a channel, a channel with one observed cell,
        # and a channel with none missing
        columns = [[np.nan, np.nan, 0.1, np.nan, np.nan, 7.3, -2.0, np.nan, 1e-3,
                    np.nan],
                   [np.nan, np.nan, np.nan, -4.25, np.nan, np.nan, np.nan, np.nan,
                    np.nan, np.nan],
                   [float(i) / 3 for i in range(10)]]
        out = impute_cascade(make_log(np.array(columns).T))
        for c, col in enumerate(columns):
            assert out.values[:, c].tolist() == impute_oracle(col)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_idempotent_and_dense(self, data):
        n = data.draw(st.integers(2, 20))
        mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if all(mask):
            mask[0] = False
        col = [np.nan if m else float(i) for i, m in enumerate(mask)]
        once = impute_cascade(make_log([[v] for v in col]))
        assert not np.isnan(once.values).any()
        twice = impute_cascade(once)
        assert np.array_equal(once.values, twice.values)


class TestScaler:
    def test_min_max_of_rows(self):
        matrix = np.array([[2.0], [4.0], [6.0], [99.0]])
        params = fit_scaler(matrix, np.array([0, 1, 2]))
        assert params.minimum[0] == 2.0 and params.maximum[0] == 6.0
        assert params.fitted_on == 3

    def test_constant_channel(self):
        params = fit_scaler(np.full((3, 1), 5.0), np.arange(3))
        assert params.minimum[0] == params.maximum[0] == 5.0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((40, 6))
        rows = np.sort(rng.choice(40, size=17, replace=False))
        params = fit_scaler(matrix, rows)
        for c in range(6):
            lo, hi = np.inf, -np.inf
            for r in rows:
                lo = min(lo, matrix[r, c])
                hi = max(hi, matrix[r, c])
            assert params.minimum[c] == lo and params.maximum[c] == hi

    def test_apply_midpoint(self):
        params = ScalerParams(np.array([2.0]), np.array([6.0]), 3)
        assert apply_scaler(np.array([[4.0]]), params)[0, 0] == 0.5

    def test_no_clamping_above_one(self):
        params = ScalerParams(np.array([2.0]), np.array([6.0]), 3)
        assert apply_scaler(np.array([[8.0]]), params)[0, 0] == 1.5

    def test_degenerate_channel_maps_to_zero(self):
        params = ScalerParams(np.array([5.0]), np.array([5.0]), 3)
        assert apply_scaler(np.array([[7.0], [5.0]]), params).tolist() == [[0.0], [0.0]]

    def test_fitting_rows_land_in_unit_interval(self):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((30, 4)) * 10
        rows = np.arange(30)
        scaled = apply_scaler(matrix, fit_scaler(matrix, rows))
        assert scaled.min() == 0.0 and scaled.max() == 1.0

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((50, 5)) * 7 + 3
        params = fit_scaler(matrix, np.arange(25))
        back = invert_scaler(apply_scaler(matrix, params), params)
        rel = np.abs(back - matrix) / np.maximum(np.abs(matrix), 1e-300)
        assert rel.max() <= 1e-12

    def test_empty_fitting_set_is_error(self):
        with pytest.raises(ValidationError):
            fit_scaler(np.ones((3, 1)), np.array([], dtype=np.int64))

    def test_fault_rows_in_fitting_set_leak(self):
        labels = np.array([False, True, False])
        with pytest.raises(LeakageError):
            fit_scaler(np.ones((3, 1)), np.array([0, 1]), labels)

    @pytest.mark.parametrize("lo, hi, fitted_on", (
        (np.nan, 1.0, 3), (0.0, np.inf, 3), (-np.inf, 1.0, 3), (0.0, 1.0, 0),
        (0.0, 1.0, -3),
    ))
    def test_needs_finite_bounds_and_a_fitting_set(self, lo, hi, fitted_on):
        with pytest.raises(ValidationError):
            ScalerParams(np.array([0.0, lo]), np.array([1.0, hi]), fitted_on)

    def test_column_mismatch(self):
        params = ScalerParams(np.zeros(2), np.ones(2), 1)
        with pytest.raises(ValidationError):
            apply_scaler(np.ones((3, 3)), params)


class TestPlanSplit:
    def test_ratio_arithmetic(self):
        labels = np.array([False] * 100 + [True] * 10)
        plan = plan_split(labels, 0.9, 0.2, seed=0)
        assert plan.pool_indices.size == 90
        assert plan.test_indices.size == 20
        assert plan.validation_indices.size == 18
        assert plan.train_indices.size == 72

    def test_seed_determinism(self):
        labels = np.array([False] * 50 + [True] * 5)
        a = plan_split(labels, 0.9, 0.2, seed=42)
        b = plan_split(labels, 0.9, 0.2, seed=42)
        assert np.array_equal(a.train_indices, b.train_indices)
        assert np.array_equal(a.validation_indices, b.validation_indices)
        assert np.array_equal(a.test_indices, b.test_indices)

    def test_pool_is_chronological_prefix_of_healthy(self):
        rng = np.random.default_rng(1)
        labels = rng.random(200) < 0.1
        plan = plan_split(labels, 0.9, 0.2, seed=0)
        healthy = np.flatnonzero(~labels)
        assert np.array_equal(plan.pool_indices, healthy[: plan.pool_indices.size])
        assert not labels[plan.pool_indices].any()
        assert labels[plan.test_indices].sum() == labels.sum()

    def test_table2_sized_split_proportions(self):
        # healthy count sized so the test block lands near 35k with a 42%
        # anomaly share and the training pool near 185k
        n_healthy = 205_000
        n_fault = 14_845
        labels = np.zeros(n_healthy + n_fault, dtype=bool)
        rng = np.random.default_rng(0)
        labels[rng.choice(labels.size, size=n_fault, replace=False)] = True
        plan = plan_split(labels, 0.9, 0.2, seed=0)
        pool, test = plan.pool_indices.size, plan.test_indices.size
        assert pool == int(0.9 * n_healthy)
        share = labels[plan.test_indices].mean()
        assert abs(share - 0.42) < 0.01
        assert abs(pool - 185_000) / 185_000 < 0.01
        assert abs(test - 35_000) / 35_000 < 0.011

    def test_no_healthy_is_error(self):
        with pytest.raises(ValidationError):
            plan_split(np.array([True, True]), 0.9, 0.2, seed=0)

    def test_parts_must_be_partition_codes(self):
        # overlapping partitions cannot be expressed; a code outside 0..2 or
        # a second axis is the only way to get a plan wrong
        for parts in ([0, 1, 3], [0, -1, 2], [0, 1, 256], [[0, 1], [2, 0]]):
            with pytest.raises(ValidationError):
                SplitPlan(np.array(parts))


def block_windows(matrix, labels, spec):
    """`partition_windows` over one contiguous block, rows 0..n-1."""
    return partition_windows(matrix, labels, np.arange(len(labels)), spec)


class TestMakeWindows:
    """Windows over one contiguous block of rows."""

    def test_count_formula(self):
        w, labels, ends = block_windows(np.zeros((7, 2)), np.zeros(7, dtype=bool),
                                        WindowSpec(5, 1))
        assert w.shape == (3, 5, 2)
        assert ends.tolist() == [4, 5, 6]

    def test_or_labels(self):
        flags = np.array([0, 0, 0, 1, 0, 0, 0], dtype=bool)
        _, labels, _ = block_windows(np.zeros((7, 1)), flags, WindowSpec(5, 1))
        assert labels.tolist() == [True, True, True]

    def test_single_window_is_whole_matrix(self):
        matrix = np.arange(10.0).reshape(5, 2)
        w, labels, ends = block_windows(matrix, np.zeros(5, dtype=bool),
                                        WindowSpec(5, 1))
        assert w.shape == (1, 5, 2)
        assert np.array_equal(w[0], matrix)

    def test_stride(self):
        w, _, ends = block_windows(np.zeros((11, 1)), np.zeros(11, dtype=bool),
                                   WindowSpec(3, 2))
        assert w.shape[0] == 5
        assert ends.tolist() == [2, 4, 6, 8, 10]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_labels_match_any_over_slice_oracle(self, data):
        n = data.draw(st.integers(5, 30))
        t = data.draw(st.integers(1, 5))
        stride = data.draw(st.integers(1, 3))
        flags = np.array(data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n)))
        if n < t:
            return
        _, labels, ends = block_windows(np.zeros((n, 1)), flags, WindowSpec(t, stride))
        for k in range(labels.size):
            lo = k * stride
            assert labels[k] == any(flags[lo : lo + t])
            assert ends[k] == lo + t - 1


class TestPartitionWindows:
    def test_runs_never_straddle_gaps(self):
        matrix = np.arange(20.0).reshape(20, 1)
        labels = np.zeros(20, dtype=bool)
        rows = np.array([0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 15, 18, 19])
        w, wl, ends = partition_windows(matrix, labels, rows, WindowSpec(3, 1))
        # runs: [0..4] -> 3 windows, [10..15] -> 4 windows, [18,19] -> none
        assert w.shape[0] == 7
        assert ends.tolist() == [2, 3, 4, 12, 13, 14, 15]
        for window, end in zip(w, ends):
            assert np.array_equal(window[:, 0], np.arange(end - 2, end + 1))

    @pytest.mark.parametrize("rows, spec, ends", [
        ([3, 4, 5, 6, 7], WindowSpec(5, 1), [7]),
        ([3, 4, 5, 6], WindowSpec(5, 1), []),
        ([0, 1, 2, 3, 10, 11, 12], WindowSpec(2, 5), [1, 11]),
        ([1, 2, 3, 7, 8, 20], WindowSpec(1, 1), [1, 2, 3, 7, 8, 20]),
        ([], WindowSpec(3, 1), []),
    ], ids=["run-of-T", "run-of-T-minus-1", "stride-past-run", "dense", "empty"])
    def test_window_ends(self, rows, spec, ends):
        got = window_ends(np.array(rows, dtype=np.int64), spec)
        assert got.dtype == np.int64 and got.tolist() == ends

    def test_empty_rows(self):
        w, wl, ends = partition_windows(np.zeros((5, 2)), np.zeros(5, dtype=bool),
                                        np.array([], dtype=np.int64), WindowSpec(3, 1))
        assert w.shape == (0, 3, 2) and wl.size == 0 and ends.size == 0


    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_concatenated_runs(self, seed, stride):
        rng = np.random.default_rng(seed)
        n, spec = 300, WindowSpec(5, stride)
        matrix = rng.standard_normal((n, 3))
        labels = rng.random(n) < 0.05
        # runs of 1..40 rows between gaps, half of them 1..8 rows: shorter
        # than, as long as, or a few rows longer than the window
        keep = np.zeros(n, dtype=bool)
        lo = 0
        while lo < n:
            size = int(rng.integers(1, 9 if rng.random() < 0.5 else 41))
            keep[lo : lo + size] = True
            lo += size + int(rng.integers(1, 4))
        for rows in (np.flatnonzero(keep), np.array([], dtype=np.int64)):
            got = partition_windows(matrix, labels, rows, spec)
            want = concatenated_partition_windows(matrix, labels, rows, spec)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def window_set_case(self):
        """A window set over a 60-row log whose rows have gaps."""
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((60, 3))
        rows = np.flatnonzero(rng.random(60) < 0.8)
        ws, _, ends = partition_windows(matrix, np.zeros(60, dtype=bool), rows,
                                        WindowSpec(4, 1))
        assert len(ws) == ends.size > 2
        return matrix, ws, ends

    def test_window_set_is_the_gathered_tensor(self):
        matrix, ws, ends = self.window_set_case()
        tensor = matrix[ends[:, None] + np.arange(1 - 4, 1)]
        full = np.asarray(ws)
        assert ws.shape == full.shape == tensor.shape
        assert full.dtype == np.float64 and np.array_equal(full, tensor)

    def test_window_set_indexing_equals_the_tensor(self):
        _, ws, ends = self.window_set_case()
        full = np.asarray(ws)
        mask = np.arange(ends.size) % 3 == 1
        for idx in (slice(1, -1), slice(None, None, 2), np.array([2, 0, 2]),
                    mask, 1, -1):
            got = ws[idx]
            assert got.shape == full[idx].shape
            assert np.array_equal(got, full[idx])

    def test_window_set_subset_keeps_masked_ends(self):
        matrix, ws, ends = self.window_set_case()
        mask = ends % 2 == 0
        sub = ws.subset(mask)
        assert sub.matrix is matrix
        assert np.array_equal(sub.ends, ends[mask])
        assert np.array_equal(np.asarray(sub), np.asarray(ws)[mask])

    def test_pool_split_holds_no_window_tensor(self):
        # 3 000 rows x 8 channels at T = 40: an (n, T, d) tensor of the pool
        # alone is about 40x the matrix's bytes
        rows, spec = 3000, WindowSpec(40, 1)
        matrix = np.random.default_rng(4).standard_normal((rows, 8))
        labels = np.zeros(rows, dtype=bool)
        plan = plan_split(labels, seed=4)
        tracemalloc.start()
        try:
            windows, flags, ends = partition_windows(matrix, labels,
                                                     plan.pool_indices, spec)
            found = [(windows.subset(keep), ends[keep], flags[keep])
                     for keep in (plan.parts[ends] == code for code in (0, 1))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(items) for items, _, _ in found) == ends.size > 2000
        assert peak < 4 * matrix.nbytes


def concatenated_partition_windows(matrix, labels, rows, spec):
    """Window each contiguous run on its own, then concatenate the pieces."""
    t, stride = spec.length, spec.stride
    view = np.lib.stride_tricks.sliding_window_view
    pieces, piece_labels, piece_ends = [], [], []
    breaks = [k for k in range(1, rows.size) if rows[k] != rows[k - 1] + 1]
    for run in np.split(rows, breaks):
        if run.size < t:
            continue
        w = view(matrix[run], t, axis=0)[::stride]
        pieces.append(np.ascontiguousarray(w.transpose(0, 2, 1)))
        piece_labels.append(view(labels[run], t)[::stride].any(axis=1))
        piece_ends.append(run[0] + np.arange(w.shape[0]) * stride + t - 1)
    if not pieces:
        return (np.empty((0, t, matrix.shape[1])), np.empty(0, dtype=bool),
                np.empty(0, dtype=np.int64))
    return (np.concatenate(pieces), np.concatenate(piece_labels),
            np.concatenate(piece_ends))


class TestFilesRoundTrip:
    def test_matrix_csv(self, tmp_path):
        rng = np.random.default_rng(9)
        matrix = rng.standard_normal((12, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, ["a", "b", "c"], path)
        back, names = read_matrix_csv(path)
        assert names == ["a", "b", "c"]
        assert np.array_equal(back, matrix)

    def test_matrix_csv_parses_like_float(self, tmp_path):
        rng = np.random.default_rng(10)
        bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
        edge = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
        values = np.concatenate([edge, bits[np.isfinite(bits)]])[:3000]
        path = tmp_path / "m.csv"
        write_matrix_csv(values.reshape(-1, 5), list("abcde"), path)
        back, _ = read_matrix_csv(path)
        cells = [float(c) for line in path.read_text().splitlines()[1:]
                 for c in line.split(",")]
        assert np.array_equal(back.ravel().view(np.uint64),
                              np.array(cells).view(np.uint64))

    def test_matrix_csv_header_only_is_empty(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back, names = read_matrix_csv(path)
        assert back.shape == (0, 3) and names == ["a", "b", "c"]

    @pytest.mark.parametrize("body", ("1.0,abc\n", "1.0,2.0\n3.0\n",
                                      "1.0,2.0,3.0\n"))
    def test_matrix_csv_bad_body_names_file(self, tmp_path, body):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n" + body)
        with pytest.raises(ParseError, match="m.csv"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("row", ("x,train", "3", "3,holdout", "1,holdout",
                                     "2,train", "-1,train", "1, val"))
    def test_split_plan_bad_row_names_file(self, tmp_path, row):
        path = tmp_path / "plan.csv"
        path.write_text(f"row_index,partition\n0,train\n{row}\n")
        with pytest.raises(ParseError, match="plan.csv: row 3"):
            read_split_plan(path)

    def test_matrix_csv_rejects_nan(self, tmp_path):
        matrix = np.array([[1.0, np.nan]])
        with pytest.raises(ValidationError):
            write_matrix_csv(matrix, ["a", "b"], tmp_path / "m.csv")

    def test_split_plan_csv(self, tmp_path):
        plan = SplitPlan(np.array([0, 1, 0, 2, 0, 2]))
        path = tmp_path / "plan.csv"
        write_split_plan(plan, path)
        back = read_split_plan(path)
        assert back.parts.dtype == np.int8
        assert np.array_equal(back.parts, plan.parts)
        assert np.array_equal(back.train_indices, [0, 2, 4])
        assert np.array_equal(back.validation_indices, [1])
        assert np.array_equal(back.test_indices, [3, 5])
        assert path.read_text().splitlines() == [
            "row_index,partition", "0,train", "1,val", "2,train", "3,test",
            "4,train", "5,test"]
