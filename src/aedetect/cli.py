"""Batch command-line front-end wiring the pipeline stages through files.

Stages communicate only via the files they write, which keeps leakage
auditable: prepare -> train -> threshold -> detect -> eval, plus synth.
Configuration is an INI file whose keys are all mirrored as --section.key
flags (flags win over the file, the file wins over defaults).

Exit codes: 0 success, 1 I/O, 2 validation/config, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from array import array
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import dataset, detector, evaluation, preprocess, synthplant, training
from .errors import NumericError, ParseError, ValidationError
from .models import (
    DenseAutoencoder,
    LstmAutoencoder,
    ModelBundle,
    load_model,
    save_model,
)
from .preprocess import SplitPlan, WindowSpec

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

ARCHITECTURES = ("dense_ae", "lstm_ae")

# INI section -> its keys; each key is also the RunConfig field it sets and
# the --section.key flag that overrides it
SECTIONS = {
    "paths": ("sensor_csv", "fault_csv", "model_file", "out_dir"),
    "pipeline": ("architecture", "loss", "alpha", "window_length", "window_stride",
                 "train_ratio", "validation_ratio", "seed"),
    "train": ("max_epochs", "learning_rate", "batch_size", "es_patience",
              "plateau_patience", "plateau_factor", "warmup_epochs"),
    "synth": ("n_channels", "n_samples", "gap_fraction"),
}
# extra option strings of a key's flag
ALIASES = {"seed": ("--seed",), "out_dir": ("--out-dir",)}


@dataclass
class RunConfig:
    sensor_csv: str | None = None
    fault_csv: str | None = None
    model_file: str | None = None
    out_dir: str = "out"
    architecture: str = "dense_ae"
    loss: str = "mse"
    alpha: float = 95.0
    window_length: int = 5
    window_stride: int = 1
    train_ratio: float = 0.9
    validation_ratio: float = 0.2
    seed: int = 0
    max_epochs: int = training.TrainConfig.max_epochs
    learning_rate: float | None = None  # architecture default when unset
    batch_size: int = training.TrainConfig.batch_size
    es_patience: int = training.TrainConfig.es_patience
    plateau_patience: int = training.TrainConfig.plateau_patience
    plateau_factor: float = training.TrainConfig.plateau_factor
    warmup_epochs: int = training.TrainConfig.warmup_epochs
    n_channels: int = 8
    n_samples: int = 20_000
    gap_fraction: float = 0.0

    def validate(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValidationError(
                f"architecture must be one of {ARCHITECTURES}, "
                f"got {self.architecture!r}"
            )
        if self.loss not in training.LOSS_KINDS:
            raise ValidationError(f"loss must be one of {training.LOSS_KINDS}")
        if self.loss == "mahalanobis" and self.architecture != "dense_ae":
            raise ValidationError("the mahalanobis loss applies to dense_ae only")
        if not 0.0 < self.alpha <= 100.0:
            raise ValidationError(f"alpha must lie in (0, 100], got {self.alpha}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    @property
    def out_path(self) -> Path:
        return Path(self.out_dir)

    @property
    def model_path(self) -> Path:
        return Path(self.model_file) if self.model_file else self.out_path / "model.json"

    def train_config(self) -> training.TrainConfig:
        """The [train] keys, the loss and the seed; an unset learning rate
        is the architecture's default."""
        values = {key: getattr(self, key) for key in SECTIONS["train"]}
        if self.learning_rate is None:
            values["learning_rate"] = 3e-3 if self.architecture == "dense_ae" else 1e-3
        return training.TrainConfig(**values, loss=self.loss, seed=self.seed)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str, source: str):
    """`raw` as the type of RunConfig field `key`; `source` names where the
    text came from."""
    kind = _FIELD_TYPES[key]
    try:
        if "\0" in raw:  # in no number, and open() rejects a path holding one
            raise ValueError(raw)
        if kind.startswith("int"):
            return int(raw)
        if kind.startswith("float"):
            return float(raw)
    except ValueError as exc:
        raise ValidationError(f"{source}: bad value {raw!r} for {key}") from exc
    return raw


def load_config_file(path: str) -> dict:
    """The values of an INI file of SECTIONS keys, each read literally (no
    `%` interpolation); any error names the file. `[DEFAULT]` is an unknown
    section like any other: no header can name the empty default section."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: bad config file: {exc}") from exc
    values = {}
    for section in parser.sections():
        for key, raw in parser[section].items():
            if key not in SECTIONS.get(section, ()):
                raise ValidationError(f"{path}: unknown config key [{section}] {key}")
            values[key] = _coerce(key, raw, path)
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aedetect",
        description="Autoencoder anomaly detection for minute-resolution sensor logs",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="INI config file")
    for section, keys in SECTIONS.items():
        for key in keys:
            parser.add_argument(f"--{section}.{key}", *ALIASES.get(key, ()),
                                dest=key, metavar=key.upper())
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(args.config) if args.config else {}
    for key in _FIELD_TYPES:
        raw = getattr(args, key)
        if raw is not None:
            values[key] = _coerce(key, raw, "command line")
    config = RunConfig(**values)
    config.validate()
    return config


def _require(value, name: str) -> str:
    if not value:
        raise ValidationError(f"{name} must be set (config [paths] or flag)")
    return value


LABELS_HEADER = ("row_index", "timestamp", "label")
SCORES_HEADER = ("index", "timestamp", "score", "flagged")


def _read_labels(path) -> tuple[np.ndarray, np.ndarray]:
    """(fault flag, datetime64[m] timestamp) of every row of the log. Row k
    of the file must carry row_index k and a label of exactly 0 or 1, as
    `prepare` writes them, and a stamp that is not a timestamp raises
    ParseError naming its row."""
    flags, stamps = bytearray(), dataset.StampColumn(path, 1, LABELS_HEADER)

    def parse(row):
        if row[2] not in ("0", "1"):
            raise ValueError(f"label must be 0 or 1, got {row[2]!r}")
        flags.append(row[2] == "1")
        stamps.add(row[1])

    dataset.read_table(path, parse, LABELS_HEADER, indexed=True)
    return np.frombuffer(flags, dtype=bool), stamps.values()


def cmd_prepare(config: RunConfig) -> int:
    sensor_csv = _require(config.sensor_csv, "paths.sensor_csv")
    log = dataset.load_sensor_csv(sensor_csv)
    missing_before = int(np.isnan(log.values).sum())
    log, dropped = preprocess.drop_empty_channels(log)
    log = preprocess.impute_cascade(log)

    if config.fault_csv:
        schedule = dataset.load_fault_intervals(config.fault_csv)
    else:
        schedule = dataset.FaultSchedule()
    labels = dataset.label_samples(log, schedule)

    plan = preprocess.plan_split(
        labels, config.train_ratio, config.validation_ratio, config.seed
    )
    scaler = preprocess.fit_scaler(log.values, plan.pool_indices, labels)
    scaled = preprocess.apply_scaler(log.values, scaler)
    stamps, names = log.timestamps, log.channel_names
    del log  # frees the imputed values before the partition copies are made

    out = config.out_path
    out.mkdir(parents=True, exist_ok=True)
    for code, part in enumerate(preprocess.PARTITIONS):
        preprocess.write_matrix_csv(scaled[plan.parts == code], names,
                                    out / f"{part}.csv")
    preprocess.write_split_plan(plan, out / "split_plan.csv")
    dataset.write_table(out / "labels.csv", LABELS_HEADER, (
        f"{i},{stamp},{int(flag)}" for i, (stamp, flag)
        in enumerate(zip(dataset.format_timestamps(stamps), labels))))
    with open(out / "scaler.json", "w", encoding="utf-8") as fh:
        json.dump(scaler.to_doc(), fh, indent=1)
        fh.write("\n")

    summary = {
        "rows": scaled.shape[0],
        "channels_kept": scaled.shape[1],
        "dropped_channels": dropped,
        "missing_cells_before": missing_before,
        "missing_cells_after": int(np.isnan(scaled).sum()),
        "fault_rows": int(labels.sum()),
        "train_rows": int(plan.train_indices.size),
        "validation_rows": int(plan.validation_indices.size),
        "test_rows": int(plan.test_indices.size),
    }
    with open(out / "prep_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"prepared {scaled.shape[0]} rows x {scaled.shape[1]} channels "
          f"({summary['missing_cells_after']} missing cells remain); "
          f"train/val/test = {summary['train_rows']}/"
          f"{summary['validation_rows']}/{summary['test_rows']}")
    return EXIT_OK


@dataclass(frozen=True, eq=False)
class Prepared:
    """What `prepare` wrote: the split, the three scaled partitions, the
    fault flag and timestamp of every row of the log, and the scaler."""

    plan: SplitPlan
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    labels: np.ndarray
    stamps: np.ndarray  # datetime64[m]
    scaler: preprocess.ScalerParams


def _load_prepared(config: RunConfig) -> Prepared:
    out = config.out_path
    plan = preprocess.read_split_plan(out / "split_plan.csv")
    matrices = []
    for code, part in enumerate(preprocess.PARTITIONS):
        path = out / f"{part}.csv"
        matrix, _names = preprocess.read_matrix_csv(path)
        rows = np.count_nonzero(plan.parts == code)
        if matrix.shape[0] != rows:
            raise ParseError(f"{path}: {matrix.shape[0]} rows, but split_plan.csv "
                             f"assigns {rows}")
        matrices.append(matrix)
    labels, stamps = _read_labels(out / "labels.csv")
    if labels.size != plan.parts.size:
        raise ParseError(f"{out / 'split_plan.csv'}: {plan.parts.size} rows, but "
                         f"labels.csv has {labels.size}")
    scaler_path = out / "scaler.json"
    with open(scaler_path, encoding="utf-8") as fh:
        try:
            scaler = preprocess.ScalerParams.from_doc(json.load(fh))
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ParseError(f"{scaler_path}: bad scaler document ({exc!r})") from None
    width = scaler.minimum.size
    for part, matrix in zip(preprocess.PARTITIONS, matrices):
        if matrix.shape[1] != width:
            raise ParseError(f"{out / f'{part}.csv'}: {matrix.shape[1]} columns, "
                             f"but scaler.json has {width}")
    return Prepared(plan, *matrices, labels, stamps, scaler)


def _items(data: Prepared, model, stride: int | None, *parts: str):
    """[(items, row per item, fault flag per item)] of each named partition;
    an item belongs to the partition of its last row. A dense item is one
    row. LSTM items are the model's windows at `stride`, cut once per call
    and never across a gap: from the test rows when the test partition is
    asked for alone, otherwise from the healthy pool (train and val rows).
    Each partition's windows are a window set over the one scaled log,
    subset by end row, so no window is copied until a batch gathers it."""
    codes = [preprocess.PARTITIONS.index(part) for part in parts]
    if isinstance(model, LstmAutoencoder):
        full = np.empty((data.labels.size, data.train.shape[1]))
        for code, part in enumerate(preprocess.PARTITIONS):
            full[data.plan.parts == code] = getattr(data, part)
        rows = (data.plan.test_indices if parts == ("test",)
                else data.plan.pool_indices)
        windows, flags, ends = preprocess.partition_windows(
            full, data.labels, rows, WindowSpec(model.window_length, stride))
        keeps = [data.plan.parts[ends] == code for code in codes]
        found = [(windows.subset(keep), ends[keep], flags[keep]) for keep in keeps]
    else:
        rows = [np.flatnonzero(data.plan.parts == code) for code in codes]
        found = [(getattr(data, part), part_rows, data.labels[part_rows])
                 for part, part_rows in zip(parts, rows)]
    for part, (items, _rows, _flags) in zip(parts, found):
        if items.shape[0] == 0:
            raise ValidationError(f"the {part} partition yields no items")
    return found


def _load_stage(config: RunConfig, thresholded: bool = True):
    """(model file, prepared data) of a later stage. The model file alone
    decides how items are windowed and scored, and it must carry the scaler
    that scaled the prepared data."""
    bundle = load_model(config.model_path)
    if isinstance(bundle.model, LstmAutoencoder) and bundle.window_stride is None:
        raise ValidationError(f"{config.model_path} records no window recipe; "
                              "re-run train")
    if thresholded and bundle.threshold is None:
        raise ValidationError("model has no fitted threshold; run `threshold` first")
    data = _load_prepared(config)
    if data.scaler.to_doc() != bundle.scaler.to_doc():
        raise ValidationError(f"{config.out_path / 'scaler.json'} differs from the "
                              f"scaler in {config.model_path}; re-run train")
    return bundle, data


def _score(bundle: ModelBundle, items, indices,
           from_training: bool = False) -> detector.ScoreSeries:
    """The model file alone picks the score kind: window MSE for an LSTM,
    Mahalanobis distance for a dense model with a covariance block (`train`
    writes one only for loss=mahalanobis), point MSE otherwise."""
    model = bundle.model
    if isinstance(model, LstmAutoencoder):
        return detector.score_window_mse(model, items, indices, from_training)
    if bundle.covariance is not None:
        return detector.score_mahalanobis(model, bundle.covariance, items,
                                          indices, from_training)
    return detector.score_pointwise_mse(model, items, indices, from_training)


def cmd_train(config: RunConfig) -> int:
    train_config = config.train_config()  # a bad value exits before any read
    data = _load_prepared(config)
    d = data.train.shape[1]
    if config.architecture == "dense_ae":
        model, stride, length = DenseAutoencoder(d=d, seed=config.seed), None, 1
    else:
        model = LstmAutoencoder(d=d, window_length=config.window_length,
                                seed=config.seed)
        stride, length = config.window_stride, config.window_length
    (train_items, _, train_labels), (val_items, _, val_labels) = _items(
        data, model, stride, "train", "val")
    # detect and eval score the test items
    if preprocess.window_ends(data.plan.test_indices,
                              WindowSpec(length, stride or 1)).size == 0:
        raise ValidationError("the test partition yields no items")
    trained, report, cov = training.train(
        model, train_items, val_items, train_config,
        train_labels=train_labels, val_labels=val_labels,
    )

    out = config.out_path
    out.mkdir(parents=True, exist_ok=True)
    bundle = ModelBundle(trained, data.scaler, covariance=cov, window_stride=stride)
    save_model(bundle, config.model_path)
    report.write_csv(out / "train_report.csv")
    print(f"trained {config.architecture} for {report.epochs_run} epochs "
          f"({report.stop_reason}); best epoch {report.best_epoch}, "
          f"model -> {config.model_path}")
    return EXIT_OK


def cmd_threshold(config: RunConfig) -> int:
    bundle, data = _load_stage(config, thresholded=False)
    [(items, rows, _flags)] = _items(data, bundle.model, bundle.window_stride, "train")
    scores = _score(bundle, items, rows, from_training=True)
    bundle.threshold = detector.fit_threshold(scores, config.alpha)
    save_model(bundle, config.model_path)
    print(f"threshold tau={bundle.threshold.tau!r} "
          f"(alpha={config.alpha}, kind={bundle.threshold.kind}, "
          f"fitted on {bundle.threshold.fitted_on} scores)")
    return EXIT_OK


def cmd_detect(config: RunConfig) -> int:
    bundle, data = _load_stage(config)
    [(items, rows, _truth)] = _items(data, bundle.model, bundle.window_stride, "test")
    series = _score(bundle, items, rows)
    flags = detector.detect(series, bundle.threshold)
    out = config.out_path
    out.mkdir(parents=True, exist_ok=True)
    stamps = dataset.format_timestamps(data.stamps[series.indices])
    dataset.write_table(out / "scores.csv", SCORES_HEADER, (
        f"{int(i)},{stamp},{float(score)!r},{int(flag)}" for i, stamp, score, flag
        in zip(series.indices, stamps, series.scores, flags)))
    print(f"scored {len(series)} test items ({series.kind}); "
          f"{int(flags.sum())} flagged")
    return EXIT_OK


def cmd_eval(config: RunConfig) -> int:
    bundle, data = _load_stage(config)
    out = config.out_path
    [(_, expected, truth)] = _items(data, bundle.model, bundle.window_stride, "test")
    del data
    rows, scores, flagged = array("q"), array("d"), bytearray()

    def parse(row):
        if row[3] not in ("0", "1"):
            raise ValueError(f"flagged must be 0 or 1, got {row[3]!r}")
        score = float(row[2])
        if not math.isfinite(score):
            raise ValueError(f"score must be finite, got {row[2]!r}")
        rows.append(int(row[0]))
        scores.append(score)
        flagged.append(row[3] == "1")

    dataset.read_table(out / "scores.csv", parse, SCORES_HEADER)
    indices = np.frombuffer(rows, dtype=np.int64)
    flags = np.frombuffer(flagged, dtype=bool)
    if indices.shape != expected.shape or (indices != expected).any():
        raise ValidationError(
            "scores.csv does not align with the test items; re-run detect"
        )
    # detect writes repr(score) and the model file repr(tau), so an untouched
    # pipeline always agrees
    if (flags != (np.frombuffer(scores) > bundle.threshold.tau)).any():
        raise ValidationError(f"scores.csv flags disagree with the threshold in "
                              f"{config.model_path}; re-run detect")

    report = evaluation.metrics(evaluation.confusion(flags, truth))
    evaluation.write_metrics_csv(report, out / "metrics.csv")
    table = evaluation.format_metrics_table(report)
    with open(out / "metrics.txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table)
    return EXIT_OK


def cmd_synth(config: RunConfig) -> int:
    plant = synthplant.default_config(
        n_channels=config.n_channels,
        n_samples=config.n_samples,
        seed=config.seed,
        gap_fraction=config.gap_fraction,
    )
    log, schedule = synthplant.generate(plant)
    out = config.out_path
    out.mkdir(parents=True, exist_ok=True)
    sensor_path = Path(config.sensor_csv) if config.sensor_csv else out / "sensor.csv"
    fault_path = Path(config.fault_csv) if config.fault_csv else out / "faults.csv"
    dataset.write_sensor_csv(log, sensor_path)
    dataset.write_fault_intervals(schedule, fault_path)
    print(f"wrote {log.n_samples} rows x {log.n_channels} channels to "
          f"{sensor_path} and {len(schedule.intervals)} fault intervals to "
          f"{fault_path}")
    return EXIT_OK


COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "threshold": cmd_threshold,
    "detect": cmd_detect,
    "eval": cmd_eval,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        return COMMANDS[args.command](config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())
