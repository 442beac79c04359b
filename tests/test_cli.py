import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import aedetect
from aedetect import dataset, detector, preprocess, training
from aedetect.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    LABELS_HEADER,
    SECTIONS,
    RunConfig,
    _items,
    _load_prepared,
    _read_labels,
    main,
    resolve_config,
    build_parser,
)
from aedetect.dataset import SensorLog, format_timestamps, write_sensor_csv, write_table
from aedetect.errors import ParseError
from aedetect.models import load_model
from aedetect.preprocess import PARTITIONS, WindowSpec, read_matrix_csv, read_split_plan


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows):
    """Rows back as the pipeline writes them, so unchanged rows keep their
    bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


# byte corruptions of a pipeline file: not UTF-8, a NUL, a field longer than
# the csv module's limit, and a quote that is never closed
CORRUPT_BYTES = {
    "not-utf8": b"\xff\xfe",
    "nul": b"\x00",
    "huge-field": b'"' + b"x" * 200_000 + b'",',
    "stray-quote": b'"',
}


# INI-shaped config text: a section header, then up to four key/value lines,
# each name and value known to the CLI or any text
CONFIG_LINE = st.tuples(
    st.one_of(st.sampled_from(sum(SECTIONS.values(), ())), st.text(max_size=6)),
    st.sampled_from((" = ", ":", "", "==")),
    st.one_of(st.sampled_from((
        "", "1", "-1", "0.5", "nan", "-inf", "1e999", "9" * 5000, "%(oops", "%%",
        "%(seed)s", "lstm_ae", "mahalanobis", "..", "model.json", "a\x00b",
        "x\n[paths]")), st.text(max_size=8)),
).map("".join)
CONFIG_TEXT = st.tuples(
    st.one_of(st.sampled_from((*SECTIONS, "DEFAULT")), st.text(max_size=6)),
    st.lists(CONFIG_LINE, max_size=4),
).map(lambda parts: "".join(f"{line}\n" for line in (f"[{parts[0]}]", *parts[1])))


# a run's (architecture, loss), LSTM twice as often since its windows are
# what can outgrow a test run, and every other key that synth and the
# pipeline stages read, at ordinary and edge values, on a log small enough
# for a six-stage run
RUN_MODEL = st.sampled_from((("dense_ae", "mse"), ("dense_ae", "mahalanobis"),
                             ("lstm_ae", "mse"), ("lstm_ae", "mse")))
RUN_VALUES = st.fixed_dictionaries({
    "pipeline.seed": st.integers(0, 99),
    "synth.n_samples": st.integers(200, 1500),
    "synth.gap_fraction": st.sampled_from((0.0, 0.05)),
    "pipeline.window_length": st.sampled_from((1, 5, 24, 60)),
    "pipeline.window_stride": st.sampled_from((1, 3, 40)),
    "pipeline.train_ratio": st.sampled_from((0.05, 0.5, 0.9, 0.999)),
    "pipeline.validation_ratio": st.sampled_from((0.01, 0.2, 0.99)),
    "pipeline.alpha": st.sampled_from((0.001, 50.0, 95.0, 100.0)),
    "train.batch_size": st.sampled_from((3, 64, 4096)),
    "train.max_epochs": st.integers(0, 2),
})


def set_cell(column, value):
    """A table's rows with cell `column` of body row 0 set to `value`."""
    return lambda rows: (rows[:1] + [rows[1][:column] + [value] + rows[1][column + 1:]]
                         + rows[2:])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A small but complete synthetic run: synth + prepare + dense train at
    reduced epochs, with a fitted threshold."""
    out = tmp_path_factory.mktemp("run")
    assert run(["synth", "--out-dir", out, "--seed", 5,
                "--synth.n_samples", 2500]) == EXIT_OK
    assert run(["prepare", "--out-dir", out, "--seed", 5,
                "--paths.sensor_csv", out / "sensor.csv",
                "--paths.fault_csv", out / "faults.csv"]) == EXIT_OK
    assert run(["train", "--out-dir", out, "--seed", 5,
                "--train.max_epochs", 6]) == EXIT_OK
    assert run(["threshold", "--out-dir", out, "--seed", 5]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def scored_dir(pipeline_dir, tmp_path_factory):
    """A copy of `pipeline_dir` after `detect`, so it holds every
    intermediate file."""
    out = shutil.copytree(pipeline_dir, tmp_path_factory.mktemp("scored") / "run")
    assert run(["detect", "--out-dir", out, "--seed", 5]) == EXIT_OK
    return out


# the pipeline stages that read each intermediate file
LATER_STAGES = ("threshold", "detect", "eval")
FILE_READERS = {
    **{name: ("train",) + LATER_STAGES
       for name in ("train.csv", "val.csv", "test.csv", "scaler.json")},
    "model.json": LATER_STAGES,
    "scores.csv": ("eval",),
}


@pytest.fixture(scope="module")
def long_sensor(tmp_path_factory):
    """Lines of the sensor.csv of a 4 097-row, 2-channel log, header first."""
    rng = np.random.default_rng(4097)
    stamps = np.datetime64("2024-01-01T00:00", "m") + np.arange(4097)
    path = tmp_path_factory.mktemp("long") / "sensor.csv"
    write_sensor_csv(SensorLog(stamps, ("a", "b"), rng.random((4097, 2))), path)
    return path.read_bytes().decode("utf-8").split("\r\n")[:-1]


def labels_file(path, n, edits=None):
    """labels.csv of n rows, every 11th row a fault, as `prepare` writes it,
    with file row k (the header is row 1) replaced by edits[k](row); returns
    the flags and stamps written."""
    flags = np.arange(n) % 11 == 3
    stamps = np.datetime64("2024-01-01T00:00", "m") + np.arange(n)
    write_table(path, LABELS_HEADER, (
        f"{i},{stamp},{int(flag)}" for i, (stamp, flag)
        in enumerate(zip(format_timestamps(stamps), flags))))
    lines = path.read_bytes().split(b"\r\n")
    for k, edit in (edits or {}).items():
        lines[k - 1] = edit(lines[k - 1])
    path.write_bytes(b"\r\n".join(lines))
    return flags, stamps


def bad_stamp(line):
    index, _, label = line.split(b",")
    return b",".join((index, b"not a time", label))


class TestLabelsFile:
    """Label stamps are converted FORMAT_BLOCK (4 096) rows at a time. The
    arrays and the error texts are those of the reader that held every
    stamp string, as recorded on it."""

    @pytest.mark.parametrize("n", (4095, 4096, 4097, 8193))
    def test_block_edges_read_bit_equal(self, tmp_path, n):
        flags, stamps = labels_file(tmp_path / "labels.csv", n)
        got_flags, got_stamps = _read_labels(tmp_path / "labels.csv")
        assert got_flags.tobytes() == flags.tobytes()
        assert got_stamps.tobytes() == stamps.tobytes()

    @pytest.mark.parametrize("edits, message", (
        pytest.param({4100: bad_stamp}, "row 4100: time data 'not a time' does not "
                     "match format '%Y-%m-%d %H:%M'", id="bad-stamp"),
        # every other check of the file comes first, a short row too
        pytest.param({4100: bad_stamp, 8000: lambda line: line[:line.rindex(b",")]},
                     "row 8000: expected 3 fields, got 2", id="short-row-after"),
    ))
    def test_bad_stamp_past_the_first_block(self, tmp_path, edits, message):
        path = tmp_path / "labels.csv"
        labels_file(path, 8193, edits)
        with pytest.raises(ParseError) as caught:
            _read_labels(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_peak_memory(self, tmp_path):
        # the reader that held one stamp string per row peaked at 2 727 279
        # bytes (tracemalloc) on this file
        labels_file(tmp_path / "labels.csv", 20_000)
        tracemalloc.start()
        try:
            _read_labels(tmp_path / "labels.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_727_279 / 2


class TestConfigResolution:
    def test_defaults(self):
        config = resolve_config(build_parser().parse_args(["prepare"]))
        assert config.architecture == "dense_ae"
        assert config.alpha == 95.0
        assert config.batch_size == 256

    def test_file_and_flag_precedence(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[pipeline]\nalpha = 90\nseed = 3\n"
                       "[train]\nmax_epochs = 7\n")
        args = build_parser().parse_args(
            ["train", "--config", str(ini), "--pipeline.alpha", "99"])
        config = resolve_config(args)
        assert config.alpha == 99.0  # flag beats file
        assert config.seed == 3      # file beats default
        assert config.max_epochs == 7

    def test_global_seed_flag_wins(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[pipeline]\nseed = 3\n")
        args = build_parser().parse_args(["train", "--config", str(ini),
                                          "--seed", "11"])
        assert resolve_config(args).seed == 11

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[pipeline]\nbogus = 1\n")
        assert run(["prepare", "--config", ini]) == EXIT_VALIDATION

    def test_mahalanobis_requires_dense(self):
        config = RunConfig(architecture="lstm_ae", loss="mahalanobis")
        with pytest.raises(Exception):
            config.validate()

    def test_arch_default_learning_rates(self):
        dense = RunConfig(architecture="dense_ae")
        lstm = RunConfig(architecture="lstm_ae")
        assert dense.train_config().learning_rate == pytest.approx(3e-3)
        assert lstm.train_config().learning_rate == pytest.approx(1e-3)

    def test_learning_rate_flag_is_a_float(self):
        args = build_parser().parse_args(["train", "--train.learning_rate", "0.01"])
        lr = resolve_config(args).learning_rate
        assert type(lr) is float and lr == 0.01

    def test_option_strings(self):
        options = sorted(option for action in build_parser()._actions
                         for option in action.option_strings)
        assert options == [
            "--config", "--help", "--out-dir", "--paths.fault_csv",
            "--paths.model_file", "--paths.out_dir", "--paths.sensor_csv",
            "--pipeline.alpha", "--pipeline.architecture", "--pipeline.loss",
            "--pipeline.seed", "--pipeline.train_ratio",
            "--pipeline.validation_ratio", "--pipeline.window_length",
            "--pipeline.window_stride", "--seed", "--synth.gap_fraction",
            "--synth.n_channels", "--synth.n_samples", "--train.batch_size",
            "--train.es_patience", "--train.learning_rate", "--train.max_epochs",
            "--train.plateau_factor", "--train.plateau_patience",
            "--train.warmup_epochs", "-h"]

    def test_default_train_config(self):
        assert RunConfig().train_config() == training.TrainConfig(learning_rate=3e-3)

    @pytest.mark.parametrize("key, raw, value", (
        ("max_epochs", "7", 7), ("learning_rate", "0.05", 0.05),
        ("batch_size", "32", 32), ("es_patience", "3", 3),
        ("plateau_patience", "2", 2), ("plateau_factor", "0.5", 0.5),
        ("warmup_epochs", "4", 4),
    ))
    def test_train_flag_reaches_train_config(self, key, raw, value):
        args = build_parser().parse_args(
            ["train", f"--train.{key}", raw, "--pipeline.loss", "mahalanobis",
             "--seed", "9"])
        config = resolve_config(args).train_config()
        assert getattr(config, key) == value
        assert getattr(training.TrainConfig(), key) != value
        assert (config.loss, config.seed) == ("mahalanobis", 9)

    @pytest.mark.parametrize("flags, seed, out_dir", (
        (["--seed", "3", "--pipeline.seed", "4"], 4, "out"),
        (["--pipeline.seed", "4", "--seed", "3"], 3, "out"),
        (["--out-dir", "a", "--paths.out_dir", "b"], 0, "b"),
        (["--paths.out_dir", "b", "--out-dir", "a"], 0, "a"),
    ))
    def test_later_of_alias_and_key_flag_wins(self, flags, seed, out_dir):
        config = resolve_config(build_parser().parse_args(["train"] + flags))
        assert (config.seed, config.out_dir) == (seed, out_dir)

    def test_ini_values_are_literal(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[paths]\nout_dir = runs/100%%(seed)s\n[pipeline]\nseed = 4\n")
        config = resolve_config(build_parser().parse_args(["train", "--config", str(ini)]))
        assert config.out_dir == "runs/100%%(seed)s"

    # a `%(` and a byte that is not UTF-8 among them: each is a config error
    # that names the file
    @pytest.mark.parametrize("blob", (
        b"[pipeline]\nseed = %(oops\n",
        b"[pipeline]\nseed = 3\xff\n",
        b"\xff[pipeline]\n",
        b"[pipeline]\nseed = x\n",
        b"[pipeline]\nbogus = 1\n",
        b"[bogus]\nseed = 1\n",
        b"seed = 1\n",
        b"[pipeline]\nseed = 1\nseed = 2\n",
        b"[paths]\nmodel_file = a\x00b\n",
        b"[DEFAULT]\nseed = 3\n",
    ), ids=("interpolation", "not-utf8-value", "not-utf8-header", "bad-int",
            "unknown-key", "unknown-section", "no-section", "duplicate-key",
            "nul-in-path", "default-section"))
    def test_bad_config_file_exits_2_naming_it(self, tmp_path, capsys, blob):
        ini = tmp_path / "run.ini"
        ini.write_bytes(blob)
        assert run(["detect", "--config", ini, "--out-dir", tmp_path]) \
            == EXIT_VALIDATION
        assert str(ini) in capsys.readouterr().err


class TestExitCodes:
    def test_missing_input_file_is_io_error(self, tmp_path):
        assert run(["prepare", "--out-dir", tmp_path,
                    "--paths.sensor_csv", tmp_path / "nope.csv"]) == EXIT_IO

    def test_non_uniform_timestamps_are_validation_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,a\n2024-01-01 00:00,1\n2024-01-01 00:05,2\n")
        assert run(["prepare", "--out-dir", tmp_path,
                    "--paths.sensor_csv", bad]) == EXIT_VALIDATION

    def test_alpha_out_of_range(self, pipeline_dir):
        assert run(["threshold", "--out-dir", pipeline_dir,
                    "--pipeline.alpha", "150"]) == EXIT_VALIDATION

    def test_mahalanobis_lstm_config_error(self, pipeline_dir):
        assert run(["train", "--out-dir", pipeline_dir,
                    "--pipeline.architecture", "lstm_ae",
                    "--pipeline.loss", "mahalanobis"]) == EXIT_VALIDATION

    def test_unknown_stage_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["export-latent"])
        assert exc.value.code == EXIT_VALIDATION
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("key,raw", [("learning_rate", "nan"),
                                         ("learning_rate", "inf"),
                                         ("max_epochs", "0")])
    def test_untrainable_setting_exits_2_naming_it(self, pipeline_dir, tmp_path,
                                                   capsys, key, raw):
        model_file = tmp_path / "m.json"
        assert run(["train", "--out-dir", pipeline_dir, "--seed", 5,
                    "--paths.model_file", model_file,
                    f"--train.{key}", raw]) == EXIT_VALIDATION
        assert f"{key} must be positive and finite" in capsys.readouterr().err
        assert not model_file.exists()

    @pytest.mark.parametrize("stage,architecture,key,raw", [
        ("train", "lstm_ae", "window_length", "0"),
        ("train", "lstm_ae", "window_stride", "0"),
        ("train", "dense_ae", "window_length", "0"),
        ("prepare", "dense_ae", "train_ratio", "1.5"),
        ("prepare", "dense_ae", "validation_ratio", "0"),
    ])
    def test_bad_window_or_split_setting_exits_before_reading_files(
            self, tmp_path, capsys, stage, architecture, key, raw):
        assert run([stage, "--out-dir", tmp_path, "--paths.sensor_csv",
                    tmp_path / "sensor.csv", "--pipeline.architecture", architecture,
                    f"--pipeline.{key}", raw]) == EXIT_VALIDATION
        assert f"--pipeline.{key} must" in capsys.readouterr().err

    def test_bad_train_setting_exits_before_reading_files(self, tmp_path, capsys):
        assert run(["train", "--out-dir", tmp_path,
                    "--train.learning_rate", "nan"]) == EXIT_VALIDATION
        assert "learning_rate must be positive and finite" in capsys.readouterr().err

    def test_detect_without_threshold(self, pipeline_dir, tmp_path):
        assert run(["train", "--out-dir", pipeline_dir, "--seed", 5,
                    "--train.max_epochs", 1,
                    "--paths.model_file", tmp_path / "raw.json"]) == EXIT_OK
        assert run(["detect", "--out-dir", pipeline_dir,
                    "--paths.model_file", tmp_path / "raw.json"]) \
            == EXIT_VALIDATION


    def test_empty_labels_csv_is_parse_error(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        (out / "labels.csv").write_text("")
        assert run(["detect", "--out-dir", out, "--seed", 5]) == EXIT_VALIDATION
        assert "labels.csv: row 1:" in capsys.readouterr().err

    def test_truncated_scores_csv_is_parse_error(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        assert run(["detect", "--out-dir", out, "--seed", 5]) == EXIT_OK
        scores = out / "scores.csv"
        lines = scores.read_text().splitlines()
        # the file ends halfway through its fourth row
        scores.write_text("\n".join(lines[:3] + [lines[3][: len(lines[3]) // 2]]))
        capsys.readouterr()
        assert run(["eval", "--out-dir", out, "--seed", 5]) == EXIT_VALIDATION
        assert "scores.csv: row 4:" in capsys.readouterr().err

    # a str replaces the whole file, bytes are spliced in after its first
    # line, and a function maps the file's rows to new rows
    @pytest.mark.parametrize("name, text", (
        ("scaler.json", "{"),
        ("scaler.json", '{"min": [0.0]}'),
        ("scaler.json", '{"min": [0.0], "max": [1.0], "fitted_on": 1e999}'),
        *(pytest.param(name, "[" * 100_000, id=f"{name}-deep-nesting")
          for name in ("scaler.json", "model.json")),
        ("split_plan.csv", "row_index,partition\nx,train\n"),
        ("split_plan.csv", "row_index,partition\n0\n"),
        ("test.csv", "a,b,c,d,e,f,g,h\n"),
        ("labels.csv", "row_index,timestamp,label\n0,2024-01-01 00:00,0,1\n"),
        ("labels.csv", "row,timestamp,label\n0,2024-01-01 00:00,0\n"),
        ("scores.csv", "index,timestamp,score\n"),
        ("labels.csv", "row_index,timestamp,label\n0,not a time,0\n"),
        ("labels.csv", "row_index,timestamp,label\n1,2024-01-01 00:00,0\n"),
        *(pytest.param(name, blob, id=f"{name}-{label}")
          for name in ("labels.csv", "split_plan.csv", "test.csv", "scores.csv",
                       "scaler.json", "model.json")
          for label, blob in CORRUPT_BYTES.items()),
        *(pytest.param("labels.csv", set_cell(2, value), id=f"labels.csv-label-{value}")
          for value in ("2", "-1", "01")),
        pytest.param("scores.csv", set_cell(0, "9" * 30), id="scores.csv-huge-index"),
        pytest.param("scores.csv", set_cell(3, "7"), id="scores.csv-flag-7"),
        pytest.param("scores.csv",
                     lambda rows: set_cell(3, "01"[rows[1][3] == "0"])(rows),
                     id="scores.csv-flipped-flag"),
        pytest.param("scores.csv", set_cell(2, "abc"), id="scores.csv-score-abc"),
        pytest.param("scores.csv",
                     lambda rows: set_cell(3, "0")(set_cell(2, "nan")(rows)),
                     id="scores.csv-score-nan-unflagged"),
    ))
    def test_corrupt_prepared_file_is_parse_error(self, pipeline_dir, tmp_path,
                                                  capsys, name, text):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        stage = "eval" if name == "scores.csv" else "detect"
        if stage == "eval":
            assert run(["detect", "--out-dir", out, "--seed", 5]) == EXIT_OK
        path = out / name
        if isinstance(text, bytes):
            data = path.read_bytes()
            cut = data.index(b"\n") + 1
            path.write_bytes(data[:cut] + text + data[cut:])
        elif callable(text):
            write_rows(path, text(read_rows(path)))
        else:
            path.write_text(text)
        capsys.readouterr()
        assert run([stage, "--out-dir", out, "--seed", 5]) == EXIT_VALIDATION
        assert name in capsys.readouterr().err

    # a NaN tau would flag no test row, and tau -inf every one
    @pytest.mark.parametrize("edit", (
        {"tau": float("nan")}, {"tau": float("-inf"), "fitted_on": -5},
        {"tau": float("inf")}, {"tau": -0.5}, {"fitted_on": 0}, {"kind": "bogus"},
    ), ids=("tau-nan", "tau-minus-inf", "tau-inf", "tau-negative", "fitted-on-0",
            "kind-bogus"))
    def test_bad_threshold_is_model_format_error(self, pipeline_dir, tmp_path,
                                                 capsys, edit):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        doc = json.loads((out / "model.json").read_text())
        doc["threshold"].update(edit)
        (out / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["detect", "--out-dir", out, "--seed", 5]) == EXIT_VALIDATION
        assert capsys.readouterr().err \
            == f"error: {out / 'model.json'}: model file has a bad threshold block\n"

    def test_covariance_not_positive_definite_names_the_file(self, pipeline_dir,
                                                              tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        doc = json.loads((out / "model.json").read_text())
        doc["covariance"] = {"d": 8, "sigma": (-np.eye(8)).ravel().tolist(),
                             "epsilon": 0.0}
        (out / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["detect", "--out-dir", out, "--seed", 5]) == EXIT_VALIDATION
        assert capsys.readouterr().err \
            == f"error: {out / 'model.json'}: model file has a bad covariance block\n"

    def test_covariance_of_another_d_names_the_file(self, gappy_dir, tmp_path,
                                                     capsys):
        # a 4x4 block in the 8-channel file: every later stage, eval too,
        # rejects the file before it scores or checks flags
        out = tmp_path / "run"
        shutil.copytree(gappy_dir, out)
        run_stages(out, ("train", "threshold", "detect"),
                   ["--pipeline.loss", "mahalanobis", "--train.max_epochs", 2])
        doc = json.loads((out / "model.json").read_text())
        doc["covariance"] = {"d": 4, "sigma": np.eye(4).ravel().tolist(),
                             "epsilon": 0.0}
        (out / "model.json").write_text(json.dumps(doc))
        for stage in LATER_STAGES:
            capsys.readouterr()
            assert run([stage, "--out-dir", out, "--seed", 5]) == EXIT_VALIDATION
            assert capsys.readouterr().err == f"error: {out / 'model.json'}: " \
                "model file has a bad covariance block\n"

    def test_bad_weight_field_names_the_file(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        flags = ["--out-dir", out, "--seed", 5, "--pipeline.architecture", "lstm_ae"]
        assert run(["train"] + flags + ["--train.max_epochs", 1]) == EXIT_OK
        doc = json.loads((out / "model.json").read_text())
        doc["layers"][0]["W_input"] = [0.5]
        (out / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["threshold"] + flags) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {out / 'model.json'}: field " \
            "'W_input' has 1 values, expected shape (16, 8)\n"

    def test_window_longer_than_every_test_run_fails_train(self, tmp_path, capsys):
        # the test rows of this log form runs of 6, 4, 3 and 59 rows; train
        # once passed and detect alone failed
        flags = ["--out-dir", tmp_path, "--seed", 3, "--synth.n_samples", 600,
                 "--paths.sensor_csv", tmp_path / "sensor.csv",
                 "--paths.fault_csv", tmp_path / "faults.csv",
                 "--pipeline.architecture", "lstm_ae", "--train.max_epochs", 1]
        assert run(["synth"] + flags) == EXIT_OK
        assert run(["prepare"] + flags) == EXIT_OK
        capsys.readouterr()
        assert run(["train"] + flags + ["--pipeline.window_length", 60]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: the test partition yields no items\n"
        assert not (tmp_path / "model.json").exists()
        assert run(["train"] + flags + ["--pipeline.window_length", 59]) == EXIT_OK

    # a NaN bound would pass through train into model.json, where no re-run
    # of train could mend it
    @pytest.mark.parametrize("bound, value, fitted_on", (
        ("min", float("nan"), -3), ("max", float("inf"), 1),
        ("min", float("-inf"), 1), ("min", 0.0, 0),
    ), ids=("min-nan", "max-inf", "min-minus-inf", "fitted-on-0"))
    def test_bad_scaler_is_rejected(self, pipeline_dir, tmp_path, capsys, bound,
                                    value, fitted_on):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)

        def edit(scaler):
            scaler[bound][0] = value
            scaler["fitted_on"] = fitted_on

        scaler = json.loads((out / "scaler.json").read_text())
        edit(scaler)
        (out / "scaler.json").write_text(json.dumps(scaler))
        capsys.readouterr()
        assert run(["train", "--out-dir", out, "--seed", 5]) == EXIT_VALIDATION
        assert f"{out / 'scaler.json'}: bad scaler document" in capsys.readouterr().err
        shutil.copy(pipeline_dir / "scaler.json", out / "scaler.json")
        doc = json.loads((out / "model.json").read_text())
        edit(doc["scaler"])
        (out / "model.json").write_text(json.dumps(doc))
        assert run(["detect", "--out-dir", out, "--seed", 5]) == EXIT_VALIDATION
        assert "bad scaler block" in capsys.readouterr().err

    # the last row of the log, a test row, gets another row_index in
    # split_plan.csv, or is missing from both split_plan.csv and test.csv;
    # every partition's row count still matches its matrix file
    @pytest.mark.parametrize("index", ("99999", "-1", None),
                             ids=("index-99999", "index-minus-1", "last-row-missing"))
    def test_bad_split_plan_row_is_parse_error(self, pipeline_dir, tmp_path, capsys,
                                               index):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        plan = read_rows(out / "split_plan.csv")
        assert plan[-1] == ["2499", "test"]
        if index is None:
            del plan[-1]
            write_rows(out / "test.csv", read_rows(out / "test.csv")[:-1])
        else:
            plan[-1][0] = index
        write_rows(out / "split_plan.csv", plan)
        capsys.readouterr()
        assert run(["detect", "--out-dir", out, "--seed", 5]) == EXIT_VALIDATION
        assert "split_plan.csv" in capsys.readouterr().err

    # one body row of a per-row file gets any integer index, or its last
    # cell (the partition or the label) any text, or is dropped or doubled
    @settings(max_examples=50, deadline=None)
    @given(name=st.sampled_from(("split_plan.csv", "labels.csv")),
           k=st.integers(0, 2499),
           mutation=st.one_of(
               st.tuples(st.just("index"),
                         st.one_of(st.integers(-2, 2502), st.integers())),
               st.tuples(st.just("value"), st.one_of(
                   st.sampled_from(("train", "val", "test", "0", "1", "2", "",
                                    " 1", "1.0", "TRAIN", " train", "holdout")),
                   st.text(st.characters(blacklist_categories=("Cs",)),
                           max_size=6))),
               st.tuples(st.sampled_from(("drop", "double")), st.none())))
    def test_per_row_file_mutation_exits_0_or_2(self, pipeline_dir, name, k,
                                                mutation):
        path = pipeline_dir / name
        original = path.read_bytes()
        rows = read_rows(path)
        kind, value = mutation
        row = rows[k + 1]
        if kind == "index":
            rows[k + 1] = [str(value)] + row[1:]
        elif kind == "value":
            rows[k + 1] = row[:-1] + [value]
        elif kind == "drop":
            del rows[k + 1]
        else:
            rows.insert(k + 1, row)
        with tempfile.TemporaryDirectory() as tmp:
            out = shutil.copytree(pipeline_dir, Path(tmp) / "run")
            write_rows(out / name, rows)
            changed = (out / name).read_bytes() != original
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["detect", "--out-dir", str(out), "--seed", "5"])
        assert code in (EXIT_OK, EXIT_VALIDATION)
        if name == "split_plan.csv" and changed:
            assert code == EXIT_VALIDATION
            assert "split_plan.csv" in err.getvalue()

    # one line of a sensor.csv that ends one row past the first stamp block
    # (the header counts as line 0) becomes any text, or is dropped or doubled
    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(0, 4097),
           mutation=st.one_of(
               st.tuples(st.just("replace"), st.one_of(
                   st.sampled_from(("", ",", "2024-01-01 00:00,1,2",
                                    "2024-01-03 20:16,inf,0", "not a time,1,2")),
                   st.text(st.characters(blacklist_categories=("Cs",)),
                           max_size=40))),
               st.tuples(st.sampled_from(("drop", "double")), st.none())))
    def test_sensor_row_mutation_exits_0_or_2(self, long_sensor, k, mutation):
        lines = list(long_sensor)
        kind, text = mutation
        if kind == "replace":
            lines[k] = text
        elif kind == "drop":
            del lines[k]
        else:
            lines.insert(k, lines[k])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sensor.csv"
            path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["prepare", "--out-dir", tmp, "--paths.sensor_csv",
                             str(path)])
        assert code in (EXIT_OK, EXIT_VALIDATION)
        if code == EXIT_VALIDATION:
            assert "sensor.csv" in err.getvalue()

    # each intermediate file that the per-row fuzz above leaves out gets a
    # span of its bytes replaced, is cut short, or loses or repeats a line,
    # then goes through one stage that reads it
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_intermediate_file_mutation_exits_0_to_3(self, scored_dir, data):
        name = data.draw(st.sampled_from(sorted(FILE_READERS)), label="file")
        stage = data.draw(st.sampled_from(FILE_READERS[name]), label="stage")
        original = (scored_dir / name).read_bytes()
        size = len(original)
        kind = data.draw(st.sampled_from(("splice", "cut", "drop", "double")))
        if kind == "splice":
            start = data.draw(st.integers(0, size))
            end = data.draw(st.integers(start, min(size, start + 16)))
            blob = data.draw(st.one_of(st.binary(max_size=8), st.sampled_from(
                (b",", b"\n", b'"', b"{", b"]", b"-", b"nan", b"inf", b"1e999",
                 b"null", b"true", b"[]", b"\xff"))))
            mutated = original[:start] + blob + original[end:]
        elif kind == "cut":
            mutated = original[:data.draw(st.integers(0, size - 1))]
        else:
            lines = original.splitlines(keepends=True)
            k = data.draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [] if kind == "drop" else [lines[k]] * 2
            mutated = b"".join(lines)
        with tempfile.TemporaryDirectory() as tmp:
            out = shutil.copytree(scored_dir, Path(tmp) / "run")
            (out / name).write_bytes(mutated)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([stage, "--out-dir", str(out), "--seed", "5",
                             "--train.max_epochs", "1"])
        assert code in (EXIT_OK, EXIT_IO, EXIT_VALIDATION, EXIT_NUMERIC)

    # a config file of INI-shaped text, with any bytes spliced in or of bytes
    # alone, goes through a stage whose out dir is empty: it is rejected (2)
    # or the model file is missing (1)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_config_file_mutation_exits_1_or_2(self, data):
        blob = data.draw(CONFIG_TEXT).encode("utf-8", "surrogatepass")
        kind = data.draw(st.sampled_from(("text", "splice", "bytes")))
        if kind == "splice":
            at = data.draw(st.integers(0, len(blob)))
            blob = blob[:at] + data.draw(st.one_of(st.binary(max_size=4), st.sampled_from(
                (b"\xff", b"\x80", b"\xc3", b"%(", b"\x00", b"\n[")))) + blob[at:]
        elif kind == "bytes":
            blob = data.draw(st.binary(max_size=64))
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            Path("run.ini").write_bytes(blob)
            os.mkdir("empty")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["detect", "--config", "run.ini", "--out-dir", "empty"])
        assert code in (EXIT_IO, EXIT_VALIDATION)

    # a configuration goes through every stage until one fails: each exits 0
    # or 2, and a configuration that passes train scores some test items
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(model=RUN_MODEL, values=RUN_VALUES)
    @example(model=("lstm_ae", "mse"), values={  # test runs of 6, 4, 3 and 59 rows
        "pipeline.seed": 3, "synth.n_samples": 600, "pipeline.window_length": 60})
    def test_run_configuration_exits_0_or_2(self, model, values):
        with tempfile.TemporaryDirectory() as tmp:
            flags = ["--pipeline.architecture", model[0], "--pipeline.loss", model[1],
                     "--out-dir", tmp,
                     "--paths.sensor_csv", str(Path(tmp) / "sensor.csv"),
                     "--paths.fault_csv", str(Path(tmp) / "faults.csv")]
            for key, value in values.items():
                flags += [f"--{key}", str(value)]
            trained = False
            for stage in ("synth", "prepare", "train", "threshold", "detect", "eval"):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = main([stage] + flags)
                assert code in (EXIT_OK, EXIT_VALIDATION), err.getvalue()
                assert not (trained and "yields no items" in err.getvalue())
                if code != EXIT_OK:
                    break
                trained = trained or stage == "train"

    def test_scaler_of_another_prepare_is_validation_error(self, pipeline_dir,
                                                           tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        assert run(["prepare", "--out-dir", out, "--seed", 5,
                    "--paths.sensor_csv", out / "sensor.csv",
                    "--paths.fault_csv", out / "faults.csv",
                    "--pipeline.train_ratio", 0.5]) == EXIT_OK
        for stage in LATER_STAGES:
            capsys.readouterr()
            assert run([stage, "--out-dir", out, "--seed", 5]) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert f"{out / 'scaler.json'} differs from the scaler in " \
                f"{out / 'model.json'}" in err

    @pytest.mark.parametrize("duration", (2**63 - 1, 10**30), ids=("wraps", "huge"))
    def test_fault_end_past_datetime64_is_parse_error(self, pipeline_dir, tmp_path,
                                                      capsys, duration):
        # the first once labelled no row and exited 0, the second escaped as
        # an OverflowError traceback
        faults = tmp_path / "faults.csv"
        faults.write_bytes((pipeline_dir / "faults.csv").read_bytes()
                           + f"2024-01-01 10:00,{duration}\r\n".encode())
        rows = len(read_rows(faults))
        capsys.readouterr()
        assert run(["prepare", "--out-dir", tmp_path, "--seed", 5,
                    "--paths.sensor_csv", pipeline_dir / "sensor.csv",
                    "--paths.fault_csv", faults]) == EXIT_VALIDATION
        assert f"{faults}: row {rows}: fault of {duration} minutes" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("architecture", ("dense_ae", "lstm_ae"))
    def test_matrix_of_another_width_is_parse_error(self, pipeline_dir, tmp_path,
                                                    capsys, architecture):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        flags = ["--out-dir", out, "--seed", 5,
                 "--pipeline.architecture", architecture]
        if architecture == "lstm_ae":
            assert run(["train"] + flags + ["--train.max_epochs", 1]) == EXIT_OK
            assert run(["threshold"] + flags) == EXIT_OK
        # test.csv loses its last column, header and every row
        write_rows(out / "test.csv", [row[:-1] for row in read_rows(out / "test.csv")])
        capsys.readouterr()
        assert run(["detect"] + flags) == EXIT_VALIDATION
        assert f"{out / 'test.csv'}: 7 columns, but scaler.json has 8" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("stage, flags", (
        pytest.param("synth", ["--seed", -1], id="synth-seed"),
        pytest.param("prepare", ["--seed", -1], id="prepare-seed"),
        pytest.param("train", ["--seed", -1], id="dense-train-seed"),
        pytest.param("train", ["--seed", -1, "--pipeline.architecture", "lstm_ae"],
                     id="lstm-train-seed"),
        pytest.param("train", ["--train.plateau_factor", 2], id="plateau-factor-2"),
        pytest.param("train", ["--train.plateau_factor", 0], id="plateau-factor-0"),
    ))
    def test_bad_config_value_is_validation_error(self, pipeline_dir, tmp_path,
                                                  stage, flags):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        assert run([stage, "--out-dir", out, "--paths.sensor_csv",
                    out / "sensor.csv", "--train.max_epochs", 1] + flags) \
            == EXIT_VALIDATION


class TestPrepare:
    def test_outputs_and_summary(self, pipeline_dir):
        for name in ("train.csv", "val.csv", "test.csv", "split_plan.csv",
                     "labels.csv", "scaler.json", "prep_summary.json"):
            assert (pipeline_dir / name).exists()
        summary = json.loads((pipeline_dir / "prep_summary.json").read_text())
        assert summary["missing_cells_after"] == 0
        assert summary["rows"] == 2500
        assert summary["train_rows"] + summary["validation_rows"] \
            + summary["test_rows"] == 2500

    def test_no_test_row_in_training_files(self, pipeline_dir):
        partitions = {}
        with open(pipeline_dir / "split_plan.csv") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row_index, part in reader:
                partitions.setdefault(part, set()).add(int(row_index))
        assert not partitions["train"] & partitions["test"]
        assert not partitions["val"] & partitions["test"]
        with open(pipeline_dir / "labels.csv") as fh:
            reader = csv.reader(fh)
            next(reader)
            fault_rows = {int(r[0]) for r in reader if r[2] == "1"}
        assert fault_rows <= partitions["test"]

    def test_an_empty_partition_exits_2_before_writing(self, tmp_path, capsys):
        # 300 rows at ratios 0.05 / 0.05 split 14 train, 0 val and 286 test rows
        assert run(["synth", "--out-dir", tmp_path, "--seed", 1,
                    "--synth.n_samples", 300]) == EXIT_OK
        capsys.readouterr()
        assert run(["prepare", "--out-dir", tmp_path, "--seed", 1,
                    "--paths.sensor_csv", tmp_path / "sensor.csv",
                    "--paths.fault_csv", tmp_path / "faults.csv",
                    "--pipeline.train_ratio", 0.05,
                    "--pipeline.validation_ratio", 0.05]) == EXIT_VALIDATION
        assert "the split leaves the val partition empty" in capsys.readouterr().err
        assert not (tmp_path / "split_plan.csv").exists()
        assert not (tmp_path / "train.csv").exists()


class TestDetectAndEval:
    def test_scores_csv_one_row_per_test_item(self, pipeline_dir):
        assert run(["detect", "--out-dir", pipeline_dir, "--seed", 5]) == EXIT_OK
        with open(pipeline_dir / "scores.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "timestamp", "score", "flagged"]
        summary = json.loads((pipeline_dir / "prep_summary.json").read_text())
        assert len(rows) - 1 == summary["test_rows"]

    def test_eval_writes_reports(self, pipeline_dir):
        assert run(["detect", "--out-dir", pipeline_dir, "--seed", 5]) == EXIT_OK
        assert run(["eval", "--out-dir", pipeline_dir, "--seed", 5]) == EXIT_OK
        text = (pipeline_dir / "metrics.txt").read_text()
        assert "recall" in text
        with open(pipeline_dir / "metrics.csv") as fh:
            values = dict(
                (r[0], r[1]) for r in csv.reader(fh) if r and r[0] != "metric")
        assert int(values["tp"]) + int(values["fn"]) > 0

    def test_perfect_flags_give_perfect_metrics(self, pipeline_dir):
        # overwrite the flag column with the ground truth and put each score
        # on the side of tau that its flag says, then re-evaluate
        assert run(["detect", "--out-dir", pipeline_dir, "--seed", 5]) == EXIT_OK
        with open(pipeline_dir / "labels.csv") as fh:
            reader = csv.reader(fh)
            next(reader)
            truth = {int(r[0]): r[2] for r in reader}
        tau = json.loads((pipeline_dir / "model.json").read_text())["threshold"]["tau"]
        with open(pipeline_dir / "scores.csv") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[3] = truth[int(row[0])]
            row[2] = repr(2.0 * tau + 1.0 if row[3] == "1" else 0.0)
        with open(pipeline_dir / "scores.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run(["eval", "--out-dir", pipeline_dir, "--seed", 5]) == EXIT_OK
        with open(pipeline_dir / "metrics.csv") as fh:
            values = dict(
                (r[0], r[1]) for r in csv.reader(fh) if r and r[0] != "metric")
        assert float(values["precision"]) == 1.0
        assert float(values["recall"]) == 1.0
        assert float(values["specificity"]) == 1.0
        assert float(values["f1"]) == 1.0
        run(["detect", "--out-dir", pipeline_dir, "--seed", 5])  # restore

    def test_eval_rejects_flags_of_an_older_threshold(self, pipeline_dir, tmp_path,
                                                      capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        (out / "metrics.csv").unlink(missing_ok=True)
        for stage, alpha in (("threshold", "95"), ("detect", "95"),
                             ("threshold", "99.9")):
            assert run([stage, "--out-dir", out, "--seed", 5,
                        "--pipeline.alpha", alpha]) == EXIT_OK
        capsys.readouterr()
        assert run(["eval", "--out-dir", out, "--seed", 5]) == EXIT_VALIDATION
        assert "scores.csv flags disagree with the threshold" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()


class TestThreshold:
    def test_alpha_100_is_max_train_score(self, pipeline_dir, tmp_path):
        model_file = tmp_path / "m100.json"
        model_bytes = (pipeline_dir / "model.json").read_bytes()
        model_file.write_bytes(model_bytes)
        assert run(["threshold", "--out-dir", pipeline_dir, "--seed", 5,
                    "--pipeline.alpha", "100",
                    "--paths.model_file", model_file]) == EXIT_OK
        doc = json.loads(model_file.read_text())
        # recompute max training score through the library
        from aedetect.models import load_model
        from aedetect import detector, preprocess
        bundle = load_model(model_file)
        plan = preprocess.read_split_plan(pipeline_dir / "split_plan.csv")
        train_m, _ = preprocess.read_matrix_csv(pipeline_dir / "train.csv")
        series = detector.score_pointwise_mse(bundle.model, train_m,
                                              from_training=True)
        assert doc["threshold"]["tau"] == series.scores.max()
        assert doc["threshold"]["alpha"] == 100.0


class TestDeterminism:
    def test_repeat_train_byte_identical(self, pipeline_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(["train", "--out-dir", pipeline_dir, "--seed", 5,
                        "--train.max_epochs", 3,
                        "--paths.model_file", path]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_repeat_synth_byte_identical(self, tmp_path):
        for sub in ("x", "y"):
            assert run(["synth", "--out-dir", tmp_path / sub, "--seed", 9,
                        "--synth.n_samples", 800]) == EXIT_OK
        assert (tmp_path / "x" / "sensor.csv").read_bytes() \
            == (tmp_path / "y" / "sensor.csv").read_bytes()
        assert (tmp_path / "x" / "faults.csv").read_bytes() \
            == (tmp_path / "y" / "faults.csv").read_bytes()

    def test_repeat_detect_byte_identical(self, pipeline_dir, tmp_path):
        assert run(["detect", "--out-dir", pipeline_dir, "--seed", 5]) == EXIT_OK
        first = (pipeline_dir / "scores.csv").read_bytes()
        assert run(["detect", "--out-dir", pipeline_dir, "--seed", 5]) == EXIT_OK
        assert (pipeline_dir / "scores.csv").read_bytes() == first


class TestLstmPipeline:
    def test_window_pipeline_round_trip(self, pipeline_dir, tmp_path):
        model_file = tmp_path / "lstm.json"
        base = ["--out-dir", pipeline_dir, "--seed", 5,
                "--pipeline.architecture", "lstm_ae",
                "--paths.model_file", model_file]
        assert run(["train"] + base + ["--train.max_epochs", 2]) == EXIT_OK
        assert run(["threshold"] + base) == EXIT_OK
        assert run(["detect"] + base) == EXIT_OK
        assert run(["eval"] + base) == EXIT_OK
        doc = json.loads(model_file.read_text())
        assert doc["architecture"] == "lstm_ae"
        assert doc["T"] == 5
        assert doc["threshold"]["kind"] == "mse_window"


class TestMahalanobisPipeline:
    def test_distance_pipeline_round_trip(self, pipeline_dir, tmp_path):
        model_file = tmp_path / "maha.json"
        base = ["--out-dir", pipeline_dir, "--seed", 5,
                "--pipeline.loss", "mahalanobis",
                "--paths.model_file", model_file]
        assert run(["train"] + base + ["--train.max_epochs", 8]) == EXIT_OK
        doc = json.loads(model_file.read_text())
        assert "covariance" in doc
        assert run(["threshold"] + base) == EXIT_OK
        assert run(["detect"] + base) == EXIT_OK
        assert run(["eval"] + base) == EXIT_OK
        doc = json.loads(model_file.read_text())
        assert doc["threshold"]["kind"] == "mahalanobis"

    def test_model_file_covariance_fits_the_shipped_weights(self, gappy_dir,
                                                             tmp_path):
        # three epochs, best at epoch 2: the covariance of the restored
        # epoch-2 weights, not of the epoch-3 weights training ended with
        out = tmp_path / "run"
        shutil.copytree(gappy_dir, out)
        run_stages(out, ("train",), ["--pipeline.loss", "mahalanobis",
                                     "--train.max_epochs", 3])
        val_losses = [float(row[2]) for row in read_rows(out / "train_report.csv")[1:]]
        assert int(np.argmin(val_losses)) + 1 == 2
        bundle = load_model(out / "model.json")
        train_items, _ = read_matrix_csv(out / "train.csv")
        refit = training.estimate_residual_covariance(bundle.model, train_items)
        assert bundle.covariance.sigma.tobytes() == refit.sigma.tobytes()


# sha256 (first 16 hex digits) of each output of a train -> threshold ->
# detect -> eval run per score kind on the `gappy_dir` data, recorded before
# the CLI's score dispatch was rewritten; any change of output bytes fails.
# The LSTM model.json digest was re-recorded when the file gained its
# window_recipe block; without that block the file is byte-identical to the
# one of digest 7bf7a19f9ccdb6c1. The mse_window digests were re-recorded
# (from 599e6d5b2353b4aa and 45582339c0cced74) when an LSTM window came to
# belong to its end row's partition in place of a seeded window-level
# validation draw, and again (from d6cbd4e83a9eaa4a and 67e0d592b7ef4203)
# when the LSTM layer moved to feature-major products and a tanh-form
# sigmoid; metrics.csv kept its bytes both times.
GOLDEN = {
    "mse_point": {"model.json": "c7c69689758628f2", "scores.csv": "12121dcd3b5052b7",
                  "metrics.csv": "4b54a8d7eb80316b"},
    "mse_window": {"model.json": "8dce4734d88a207a", "scores.csv": "f4a7c9e653623fb0",
                   "metrics.csv": "056e67315338bd4f"},
    "mahalanobis": {"model.json": "c6c33f8d00c6be3a", "scores.csv": "1b7548dffe2088d2",
                    "metrics.csv": "d5b54cbc241c723b"},
}
# the same for every CSV table writer: synth and prepare (the `gappy_dir`
# files), then train of the mse_point run; recorded before
# the writers moved onto one table codec, val.csv and test.csv before the
# writers joined each body line themselves instead of calling csv.writer
GOLDEN_TABLES = {
    "sensor.csv": "8612970063b1e47d", "faults.csv": "f9c295199bd8cc5d",
    "labels.csv": "38f7fe68ab46984a", "split_plan.csv": "2867250c04d73dc0",
    "train.csv": "e5393fe7bdf6a2af", "val.csv": "94a63cb735aa9b70",
    "test.csv": "ff30bc3d4cb971cf", "train_report.csv": "782e9b627efba25a",
}
GOLDEN_FLAGS = {
    "mse_point": ["--train.max_epochs", 2],
    "mse_window": ["--pipeline.architecture", "lstm_ae", "--train.max_epochs", 2],
    # past the 5-epoch MSE warm-up, so the whitened loss trains too
    "mahalanobis": ["--pipeline.loss", "mahalanobis", "--train.max_epochs", 7],
}


@pytest.fixture(scope="module")
def gappy_dir(tmp_path_factory):
    """Prepared files of a 2 500-row synthetic log with 2% missing cells."""
    out = tmp_path_factory.mktemp("gappy")
    assert run(["synth", "--out-dir", out, "--seed", 5,
                "--synth.n_samples", 2500, "--synth.gap_fraction", 0.02]) == EXIT_OK
    assert run(["prepare", "--out-dir", out, "--seed", 5,
                "--paths.sensor_csv", out / "sensor.csv",
                "--paths.fault_csv", out / "faults.csv"]) == EXIT_OK
    return out


def run_stages(out, stages, flags):
    for stage in stages:
        assert run([stage, "--out-dir", out, "--seed", 5] + flags) == EXIT_OK


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


class TestGoldenOutputs:
    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_outputs_match_recorded_digests(self, gappy_dir, tmp_path, kind):
        out = tmp_path / "run"
        shutil.copytree(gappy_dir, out)
        run_stages(out, ("train", "threshold", "detect", "eval"), GOLDEN_FLAGS[kind])
        assert json.loads((out / "model.json").read_text())["threshold"]["kind"] \
            == kind
        assert {name: digest(out / name) for name in GOLDEN[kind]} == GOLDEN[kind]

    def test_tables_match_recorded_digests(self, gappy_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(gappy_dir, out)
        run_stages(out, ("train",), GOLDEN_FLAGS["mse_point"])
        assert {name: digest(out / name) for name in GOLDEN_TABLES} == GOLDEN_TABLES

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_digests_do_not_depend_on_blas_threads(self, gappy_dir, tmp_path, threads):
        """Every golden run, in a fresh process whose OpenBLAS starts with
        its default thread count or with two threads."""
        env = dict(os.environ, PYTHONPATH=str(Path(aedetect.__file__).parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        for kind in GOLDEN:
            out = tmp_path / kind
            shutil.copytree(gappy_dir, out)
            code = (f"from aedetect.cli import main\n"
                    f"for stage in ('train', 'threshold', 'detect', 'eval'):\n"
                    f"    assert main([stage, '--out-dir', {str(out)!r}, '--seed', '5']"
                    f" + {[str(f) for f in GOLDEN_FLAGS[kind]]!r}) == 0\n")
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            assert {name: digest(out / name) for name in GOLDEN[kind]} == GOLDEN[kind]

    def test_lstm_model_does_not_depend_on_blas_threads_at_batch_4096(self, tmp_path):
        """One LSTM batch of all 2 092 training windows spans three 1 024-column
        weight-gradient blocks; trained in fresh processes whose OpenBLAS
        runs one and two threads (on a 2-core box its default is two)."""
        prepared = tmp_path / "prepared"
        assert run(["synth", "--out-dir", prepared, "--seed", 1,
                    "--synth.n_samples", 3000]) == EXIT_OK
        assert run(["prepare", "--out-dir", prepared, "--seed", 1,
                    "--paths.sensor_csv", prepared / "sensor.csv",
                    "--paths.fault_csv", prepared / "faults.csv"]) == EXIT_OK
        env = dict(os.environ, PYTHONPATH=str(Path(aedetect.__file__).parents[1]))
        models = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads-{threads}"
            shutil.copytree(prepared, out)
            args = ["train", "--out-dir", str(out), "--seed", "1",
                    "--pipeline.architecture", "lstm_ae",
                    "--train.batch_size", "4096", "--train.max_epochs", "2"]
            subprocess.run([sys.executable, "-c", "from aedetect.cli import main\n"
                            f"assert main({args!r}) == 0\n"], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            models.append((out / "model.json").read_bytes())
        assert models[0] == models[1]


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_scoring_stages_draw_no_weights(gappy_dir, tmp_path, kind):
    """threshold, detect and eval take every weight from the model file: a
    fresh process that runs one of them never imports numpy.random."""
    out = tmp_path / "run"
    shutil.copytree(gappy_dir, out)
    run_stages(out, ("train",), GOLDEN_FLAGS[kind] + ["--train.max_epochs", 1])
    env = dict(os.environ, PYTHONPATH=str(Path(aedetect.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    for stage in LATER_STAGES:
        code = ("import sys\nfrom aedetect.cli import main\n"
                f"assert main([{stage!r}, '--out-dir', {str(out)!r}, '--seed', '5'])"
                " == 0\n"
                f"assert 'numpy.random' not in sys.modules, {stage!r}\n")
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)


class TestModelFileDecidesScoreKind:
    def test_later_stages_need_no_loss_flag(self, gappy_dir, tmp_path):
        taus = []
        for sub, later in (("flag", GOLDEN_FLAGS["mahalanobis"]), ("bare", [])):
            out = tmp_path / sub
            shutil.copytree(gappy_dir, out)
            run_stages(out, ("train",), GOLDEN_FLAGS["mahalanobis"])
            run_stages(out, ("threshold", "detect"), later)
            threshold = json.loads((out / "model.json").read_text())["threshold"]
            assert threshold["kind"] == "mahalanobis"
            taus.append(threshold["tau"])
        assert taus[0] == taus[1]
        assert (tmp_path / "flag" / "scores.csv").read_bytes() \
            == (tmp_path / "bare" / "scores.csv").read_bytes()

    def test_eval_rejects_a_non_test_row_in_dense_scores(self, pipeline_dir,
                                                          tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        assert run(["detect", "--out-dir", out, "--seed", 5]) == EXIT_OK
        with open(out / "split_plan.csv") as fh:
            train_row = next(r[0] for r in csv.reader(fh) if r[1] == "train")
        with open(out / "scores.csv") as fh:
            rows = list(csv.reader(fh))
        rows[1][0] = train_row
        with open(out / "scores.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert run(["eval", "--out-dir", out, "--seed", 5]) == EXIT_VALIDATION
        assert "scores.csv" in capsys.readouterr().err

    def test_lstm_later_stages_take_windows_from_the_model_file(self, gappy_dir,
                                                                  tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(gappy_dir, out)
        run_stages(out, ("train",), GOLDEN_FLAGS["mse_window"])
        trained = (out / "model.json").read_bytes()
        thresholds, scores = [], []
        for flags in (["--seed", 5], ["--seed", 6],
                      ["--pipeline.validation_ratio", 0.5],
                      ["--pipeline.window_stride", 3]):
            (out / "model.json").write_bytes(trained)
            assert run(["threshold", "--out-dir", out] + flags) == EXIT_OK
            assert run(["detect", "--out-dir", out] + flags) == EXIT_OK
            thresholds.append(json.loads((out / "model.json").read_text())["threshold"])
            scores.append((out / "scores.csv").read_bytes())
        assert all(t == thresholds[0] for t in thresholds)
        assert all(s == scores[0] for s in scores)

        doc = json.loads(trained)
        del doc["window_recipe"]
        (out / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["threshold", "--out-dir", out, "--seed", 5]) == EXIT_VALIDATION
        assert "re-run train" in capsys.readouterr().err


@pytest.fixture(scope="module")
def lstm_run(gappy_dir, tmp_path_factory):
    """The `gappy_dir` files after an LSTM train and threshold, and the items
    `train` handed to `training.train`."""
    out = shutil.copytree(gappy_dir, tmp_path_factory.mktemp("lstm") / "run")
    seen, real = {}, training.train

    def spy(model, train_items, val_items, config, **labels):
        seen.update(train=train_items, val=val_items)
        return real(model, train_items, val_items, config, **labels)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "train", spy)
        run_stages(out, ("train", "threshold"), GOLDEN_FLAGS["mse_window"])
    return out, seen


def healthy_window_ends(parts, length=5):
    """Mask of the rows that end a run of `length` pool rows (stride 1)."""
    pool = parts != PARTITIONS.index("test")
    ends = np.zeros(parts.size, dtype=bool)
    runs = np.lib.stride_tricks.sliding_window_view(pool, length)
    ends[length - 1:] = runs.all(axis=1)
    return ends


class TestLstmItems:
    """An LSTM window belongs to the partition of its last row, as a dense
    item does."""

    def test_windows_belong_to_their_end_rows_partition(self, lstm_run):
        out, seen = lstm_run
        plan = read_split_plan(out / "split_plan.csv")
        full = np.empty((plan.parts.size, 8))
        for code, part in enumerate(PARTITIONS):
            full[plan.parts == code] = read_matrix_csv(out / f"{part}.csv")[0]
        data = _load_prepared(RunConfig(out_dir=str(out)))
        found = _items(data, WindowSpec(5, 1), "train", "val")
        for code, part in enumerate(("train", "val")):
            items, rows, _flags = found[code]
            assert np.array_equal(items, seen[part])
            assert (plan.parts[rows] == code).all()
            for window, end in zip(items, rows):
                span = slice(end - 4, end + 1)
                assert (plan.parts[span] != PARTITIONS.index("test")).all()
                assert np.array_equal(window, full[span])
        # every healthy window is a training or a validation item
        assert len(found[0][1]) + len(found[1][1]) \
            == np.count_nonzero(healthy_window_ends(plan.parts))

    def test_threshold_fits_on_the_train_partition_windows(self, lstm_run):
        out, _seen = lstm_run
        parts = read_split_plan(out / "split_plan.csv").parts
        threshold = json.loads((out / "model.json").read_text())["threshold"]
        assert threshold["fitted_on"] == np.count_nonzero(
            healthy_window_ends(parts) & (parts == PARTITIONS.index("train")))


def library_log(out, seed=5):
    """The scaled log, fault flags and partition codes of `out`'s sensor and
    fault files at the default split, by the library calls `prepare` makes."""
    log, _ = preprocess.drop_empty_channels(dataset.load_sensor_csv(out / "sensor.csv"))
    log = preprocess.impute_cascade(log)
    labels = dataset.label_samples(log, dataset.load_fault_intervals(out / "faults.csv"))
    plan = preprocess.plan_split(labels, 0.9, 0.2, seed)
    scaler = preprocess.fit_scaler(log.values, plan.pool_indices, labels)
    return preprocess.apply_scaler(log.values, scaler), labels, plan.parts


# each score kind's library scorer: (bundle, items, rows, from_training)
SCORERS = {
    "mse_point": lambda bundle, *args: detector.score_pointwise_mse(bundle.model,
                                                                     *args),
    "mahalanobis": lambda bundle, *args: detector.score_mahalanobis(
        bundle.model, bundle.covariance, *args),
    "mse_window": lambda bundle, *args: detector.score_window_mse(bundle.model, *args),
}


class TestOneItemAssembly:
    """The CLI and the library cut the same items, so the two assemblies
    cannot drift: `prepare`'s partition files are the library's dense items,
    and per score kind, τ and scores.csv are the library's scores of
    `partition_items`."""

    def test_partition_files_are_the_dense_items(self, gappy_dir):
        scaled, labels, parts = library_log(gappy_dir)
        assert np.array_equal(read_split_plan(gappy_dir / "split_plan.csv").parts, parts)
        found = preprocess.partition_items(scaled, labels, parts, None, *PARTITIONS)
        for part, (items, _rows, _flags) in zip(PARTITIONS, found):
            assert read_matrix_csv(gappy_dir / f"{part}.csv")[0].tobytes() \
                == items.tobytes()

    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_scores_are_the_library_scores_of_its_items(self, gappy_dir, tmp_path,
                                                         kind):
        out = tmp_path / "run"
        shutil.copytree(gappy_dir, out)
        run_stages(out, ("train", "threshold", "detect"), GOLDEN_FLAGS[kind])
        bundle = load_model(out / "model.json")
        spec = None
        if bundle.window_stride is not None:
            spec = WindowSpec(bundle.model.window_length, bundle.window_stride)
        scaled, labels, parts = library_log(out)
        score = SCORERS[kind]

        [(items, rows, _flags)] = preprocess.partition_items(scaled, labels, parts,
                                                             spec, "train")
        tau = detector.fit_threshold(score(bundle, items, rows, True), 95.0)
        assert tau.tau == bundle.threshold.tau and tau.kind == kind
        assert tau.fitted_on == bundle.threshold.fitted_on

        [(items, rows, _truth)] = preprocess.partition_items(scaled, labels, parts,
                                                             spec, "test")
        series = score(bundle, items, rows, False)
        flags = detector.detect(series, bundle.threshold)
        assert [(row[0], row[2], row[3]) for row in read_rows(out / "scores.csv")[1:]] \
            == [(str(i), repr(float(score)), str(int(flag)))
                for i, score, flag in zip(rows, series.scores, flags)]
