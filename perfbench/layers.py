"""Per-layer metrics from the spans of one traced pipeline.

Input: one document per traced stage process (written by traced_stage.py),
the paths `prepare` wrote for the later stages, and the kernel-pass results
(written by kernels.py). A span is [id, parent, name, start, end, attrs];
its self time is its duration minus the time its child spans cover (spans
of one process never overlap, so that is the sum of their durations).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

TRAIN_BATCH = 256
HANDOFF_READERS = ("train", "threshold", "detect", "eval")


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(docs: list[dict], prepared: set[str], kernels: dict) -> dict:
    total = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(float)
    m: dict[str, float] = {}
    forward_ms, backward_ms, adam_ms, epochs = [], [], [], []
    handoff = 0
    peak_alloc = 0
    trained = {}

    for doc in docs:
        spans = doc["spans"]
        names = {s[0]: s[2] for s in spans}
        covered = defaultdict(float)
        for sid, parent, name, t0, t1, attrs in spans:
            total[name] += t1 - t0
            calls[name] += 1
            for key, value in attrs.items():
                attr_sum[f"{name}.{key}"] += value
            if parent is not None:
                covered[parent] += t1 - t0
            parent_name = names.get(parent)
            if name == "models.forward" and parent_name == "training.train" \
                    and attrs["batch"] == TRAIN_BATCH:
                forward_ms.append((t1 - t0) * 1e3)
            elif name == "models.backward" and attrs["batch"] == TRAIN_BATCH:
                backward_ms.append((t1 - t0) * 1e3)
            elif name == "neuralnet.adam_step":
                adam_ms.append((t1 - t0) * 1e3)
            elif name == "detector.score":
                peak_alloc = max(peak_alloc, attrs["peak_alloc_bytes"])
            elif name == "training.train":
                trained = attrs
                # an epoch ends when its validation pass ends
                ends = sorted(e for _, p, n, _, e, _ in spans
                              if p == sid and n == "training.validation")
                epochs = list(np.diff([t0] + ends))
        for sid, parent, name, t0, t1, _ in spans:
            if parent is None:
                m[f"{name}.self_s"] = t1 - t0 - covered[sid]
        if doc["run"].split("/")[-1] in HANDOFF_READERS:
            handoff += sum(size for path, size in doc["reads"] if path in prepared)

    for name in ("synthplant.generate", "dataset.write_sensor_csv",
                 "dataset.load_sensor_csv", "preprocess.impute_cascade",
                 "preprocess.write_matrix_csv", "preprocess.read_matrix_csv",
                 "preprocess.partition_windows", "models.save_model",
                 "models.load_model", "neuralnet.sigmoid", "training.validation",
                 "training.covariance", "training.loss", "detector.score",
                 "detector.fit_threshold"):
        m[f"{name}_s"] = total[name]
    for name in ("preprocess.read_matrix_csv", "preprocess.partition_windows",
                 "neuralnet.sigmoid"):
        m[f"{name}_calls"] = calls[name]
    m["preprocess.imputed_cells"] = attr_sum["preprocess.impute_cascade.imputed_cells"]
    m["preprocess.split_plan_io_s"] = (total["preprocess.write_split_plan"]
                                       + total["preprocess.read_split_plan"])
    m["cli.handoff_bytes"] = handoff
    m["evaluation.metrics_s"] = sum(v for k, v in total.items()
                                    if k.startswith("evaluation."))

    m["models.forward_ms"] = _percentile(forward_ms, 50)
    m["models.forward_ms_p99"] = _percentile(forward_ms, 99)
    m["models.backward_ms"] = _percentile(backward_ms, 50)
    m["models.backward_ms_p99"] = _percentile(backward_ms, 99)
    m["models.train_batches"] = len(forward_ms)
    m["neuralnet.adam_step_ms"] = _percentile(adam_ms, 50)
    m["neuralnet.adam_step_ms_p99"] = _percentile(adam_ms, 99)
    m["neuralnet.adam_steps"] = len(adam_ms)

    m["training.epochs_run"] = trained.get("epochs_run", 0)
    m["training.best_epoch"] = trained.get("best_epoch", 0)
    m["training.useful_epoch_ratio"] = (m["training.best_epoch"]
                                        / max(m["training.epochs_run"], 1))
    m["training.epoch_s"] = _percentile(epochs, 50)

    score_items = attr_sum["detector.score.items"]
    m["detector.score_items_per_s"] = score_items / max(m["detector.score_s"], 1e-9)
    m["detector.score_peak_alloc_mb"] = peak_alloc / 2**20

    for key, q in kernels.items():
        m[key] = q["p50"]
        m[f"{key}_p99"] = q["p99"]
    m["neuralnet.kernel_samples"] = min(q["n"] for q in kernels.values())
    return m
