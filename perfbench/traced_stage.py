"""Run one aedetect CLI stage with spans around the package's public calls.

Usage: python3 perfbench/traced_stage.py TRACE_JSON RUN_ID OUT_DIR -- STAGE ARGS...

Before `aedetect.cli.main` runs, the functions and methods listed in
`install` are replaced by wrappers that record a span (id, parent, name,
start, end, attributes). Each name is patched where the caller looks it up:
`cli` imports `save_model`/`load_model` by name, `neuralnet` calls `sigmoid`
through its module global, and `training.train` looks up its helpers as
module globals. Spans stay in memory and are written to TRACE_JSON when the
stage ends; reads of files under OUT_DIR are recorded alongside them.
"""

from __future__ import annotations

import builtins
import io
import itertools
import json
import os
import sys
import tracemalloc
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.reads: list[list] = []
        self._ids = itertools.count()
        self._stack: list[int | None] = [None]

    def wrap(self, name: str, fn, attrs=None, measure_alloc: bool = False):
        """Returns fn wrapped in a span; attrs(args, result) adds fields."""

        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1]
            self._stack.append(sid)
            if measure_alloc:
                tracemalloc.start()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
            extra = attrs(args, result) if attrs else {}
            if measure_alloc:
                extra["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.spans.append([sid, parent, name, t0, t1, extra])
            return result

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None,
              measure_alloc: bool = False) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs,
                                       measure_alloc))

    def watch_reads(self, root: str) -> None:
        """Record (path, size) of every file under root opened for reading."""
        root = os.path.abspath(root) + os.sep
        real_open = builtins.open

        def open_and_record(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
                path = os.path.abspath(os.fspath(file))
                if path.startswith(root):
                    self.reads.append([path, os.fstat(handle.fileno()).st_size])
            return handle

        builtins.open = open_and_record
        io.open = open_and_record

    def document(self) -> dict:
        return {"run": self.run_id, "spans": self.spans, "reads": self.reads}


def _items(args, result):
    return {"items": int(len(result.scores))}


def _batch(args, result):
    return {"batch": int(args[1].shape[0])}


def _imputed(args, result):
    return {"imputed_cells": int(np.isnan(args[0].values).sum())}


def _trained(args, result):
    report = result[1]
    return {"items": int(args[1].shape[0]), "epochs_run": report.epochs_run,
            "best_epoch": report.best_epoch}


def install(tracer: Tracer) -> None:
    from aedetect import (cli, dataset, detector, evaluation, models,
                          neuralnet, preprocess, synthplant, training)

    t = tracer
    t.patch(synthplant, "generate", "synthplant.generate")
    t.patch(dataset, "write_sensor_csv", "dataset.write_sensor_csv")
    t.patch(dataset, "load_sensor_csv", "dataset.load_sensor_csv")
    t.patch(preprocess, "impute_cascade", "preprocess.impute_cascade", _imputed)
    for name in ("write_matrix_csv", "read_matrix_csv", "write_split_plan",
                 "read_split_plan", "partition_windows"):
        t.patch(preprocess, name, f"preprocess.{name}")
    t.patch(cli, "save_model", "models.save_model")
    t.patch(cli, "load_model", "models.load_model")
    for cls in (models.DenseAutoencoder, models.LstmAutoencoder):
        t.patch(cls, "forward", "models.forward", _batch)
        t.patch(cls, "backward", "models.backward", _batch)
    t.patch(neuralnet, "sigmoid", "neuralnet.sigmoid")
    t.patch(neuralnet.Adam, "step", "neuralnet.adam_step")
    t.patch(training, "train", "training.train", _trained)
    t.patch(training, "_epoch_loss", "training.validation")
    t.patch(training, "estimate_residual_covariance", "training.covariance")
    t.patch(training, "mse_loss", "training.loss")
    t.patch(training, "mahalanobis_loss", "training.loss")
    for name in ("score_pointwise_mse", "score_window_mse", "score_mahalanobis"):
        t.patch(detector, name, "detector.score", _items, measure_alloc=True)
    t.patch(detector, "fit_threshold", "detector.fit_threshold")
    for name in ("confusion", "metrics", "write_metrics_csv"):
        t.patch(evaluation, name, f"evaluation.{name}")


def main(argv: list[str]) -> int:
    if len(argv) < 5 or argv[3] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    trace_path, run_id, out_dir, stage_argv = argv[0], argv[1], argv[2], argv[4:]
    tracer = Tracer(run_id)
    install(tracer)
    tracer.watch_reads(out_dir)
    from aedetect import cli

    run_stage = tracer.wrap(f"cli.{stage_argv[0]}", cli.main)
    try:
        return run_stage(stage_argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.document(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
