"""aedetect benchmark: the file-based CLI pipeline, one process per stage.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. Each stage (synth, prepare, train, threshold, detect, eval) runs as
its own `aedetect` process, as a user would run it, with
OPENBLAS_NUM_THREADS=1, one stage at a time (a closed loop with one client).
The driver times each process from outside and takes its peak RSS from
os.wait4, then checks the outputs. Times are scaled to a reference speed
(see CAL_REF_S).

--trace 0 prints the end-to-end metrics: the median synth time over
SETUP_REPEATS set-ups, and sums of per-stage medians over the pipeline
iterations started until --seconds have passed (at least MIN_ITERATIONS).
--trace 1 runs one untraced and one traced pipeline plus the fixed-batch
kernel pass (kernels.py) and prints the per-layer metrics derived from the
spans that traced_stage.py records.

Metric names and units come from BENCHMARK.json at the checkout root. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the run metadata. See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layers import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
ENTRY = "from aedetect.cli import entry; entry()"
BLAS_THREADS = "1"
PIPELINE = ("prepare", "train", "threshold", "detect", "eval")
SCORE_STAGES = ("threshold", "detect", "eval")
SETUP_REPEATS = 3
MIN_ITERATIONS = 2
KERNEL_REPS = 1000
SCORES_HEADER = ["index", "timestamp", "score", "flagged"]
# On the shared 2-vCPU VM the benchmark was defined on (Intel Xeon), CPU
# speed drifts by up to +-35% over seconds to minutes, and the two vCPUs
# drift independently. The driver and its stages are therefore pinned to one
# vCPU, a calibration kernel is timed on it before and after every process,
# and each wall time is scaled by the kernel times taken near that process
# (StageRun.scaled): reported seconds are seconds at the speed where the
# kernel takes CAL_REF_S (its median on that VM).
CAL_REPS = 500
CAL_REF_S = 0.028
_CAL_X = np.random.default_rng(0).random((256, 36))
_CAL_W = np.random.default_rng(1).random((36, 36))
VALIDATION_RATIO = 0.2  # the program's default pipeline.validation_ratio


@dataclass(frozen=True)
class Workload:
    name: str
    architecture: str
    loss: str
    rows: int
    gap_fraction: float
    recall_floor: float
    specificity_floor: float
    channels: int = 8
    window: int = 5
    stride: int = 1
    max_epochs: int | None = None  # None: the program's default

    def synth_args(self) -> list[str]:
        return ["--synth.n_samples", str(self.rows),
                "--synth.n_channels", str(self.channels),
                "--synth.gap_fraction", repr(self.gap_fraction)]

    def pipeline_args(self) -> list[str]:
        args = ["--pipeline.architecture", self.architecture,
                "--pipeline.loss", self.loss]
        if self.architecture == "lstm_ae":
            args += ["--pipeline.window_length", str(self.window),
                     "--pipeline.window_stride", str(self.stride)]
        if self.max_epochs is not None:
            args += ["--train.max_epochs", str(self.max_epochs)]
        return args


# floors are the acceptance suite's criteria 5 (dense) and 6 (LSTM)
WORKLOADS = {w.name: w for w in (
    Workload("dense-20k", "dense_ae", "mse", 20_000, 0.0, 0.95, 0.90),
    Workload("lstm-20k", "lstm_ae", "mse", 20_000, 0.0, 0.90, 0.85),
    Workload("dense-maha-100k", "dense_ae", "mahalanobis", 100_000, 0.02,
             0.95, 0.90),
)}


@dataclass
class StageRun:
    code: int
    wall_s: float
    peak_rss_mb: float
    start: float  # perf_counter at start and end
    end: float

    def scaled(self, calibrations: list[tuple[float, float]]) -> float:
        """Wall time at the reference speed. The speed is the mean kernel
        time over calibrations within half the process's duration of it, so
        a long process is judged by the speed around it, not at its edges."""
        half = max(self.wall_s / 2.0, 0.1)  # always reaches the edge calibrations
        near = [c for t, c in calibrations if self.start - half <= t <= self.end + half]
        return self.wall_s * CAL_REF_S / statistics.mean(near)


def calibrate(calibrations: list[tuple[float, float]]) -> None:
    """Times a fixed mix of small numpy ops and interpreter work; appends
    (midpoint, seconds) to calibrations."""
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        np.tanh(_CAL_X @ _CAL_W)
        total = 0
        for i in range(300):
            total += i
    t1 = time.perf_counter()
    calibrations.append(((t0 + t1) / 2.0, t1 - t0))


class Ledger:
    """Counts operations (stage processes) and the ones that failed; a
    failed output check fails the operation that wrote the output."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, str] = {}

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, message)
        print(f"FAILED {op}: {message}", file=sys.stderr)


def stage_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(cmd: list[str], log_path: Path,
                calibrations: list[tuple[float, float]]) -> StageRun:
    """Runs cmd to completion, between two calibrations; wall time and peak
    RSS of that one child."""
    calibrate(calibrations)
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=stage_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    calibrate(calibrations)
    return StageRun(proc.returncode, t1 - t0, usage.ru_maxrss / 1024.0, t0, t1)


def run_stage(ledger: Ledger, calibrations: list, op: str, argv: list[str],
              log_dir: Path, trace_dir: Path | None = None,
              read_root: Path | None = None):
    """One `aedetect` invocation; returns its StageRun or None on failure."""
    ledger.attempted += 1
    name = op.replace("/", "_")
    if trace_dir is None:
        cmd = [sys.executable, "-c", ENTRY, *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_stage.py"),
               str(trace_dir / f"{name}.json"), op, str(read_root), "--", *argv]
    result = run_process(cmd, log_dir / f"{name}.log", calibrations)
    if result.code != 0:
        ledger.fail(op, f"exit code {result.code}, log {log_dir / name}.log")
        return None
    return result


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------- checks

def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row]


def _training_items(w: Workload, out: Path) -> int:
    """Items one training epoch visits: train rows (dense) or the windows of
    the train+val pool left after the window-level validation carve-out."""
    plan = _read_csv(out / "split_plan.csv")[1:]
    if w.architecture == "dense_ae":
        return sum(1 for _, part in plan if part == "train")
    pool = sorted(int(i) for i, part in plan if part in ("train", "val"))
    windows, start = 0, 0
    for k in range(1, len(pool) + 1):
        if k == len(pool) or pool[k] != pool[k - 1] + 1:
            run = k - start
            if run >= w.window:
                windows += (run - w.window) // w.stride + 1
            start = k
    return windows - int(VALIDATION_RATIO * windows)


def _confusion(w: Workload, out: Path, tau: float, kind: str) -> dict:
    """Confusion counts rebuilt from labels.csv and the flags in scores.csv,
    which must flag exactly the scores above tau."""
    labels = {int(r[0]): r[2] == "1" for r in _read_csv(out / "labels.csv")[1:]}
    rows = _read_csv(out / "scores.csv")
    if not rows or rows[0] != SCORES_HEADER or len(rows) < 2:
        raise ValueError("scores.csv: missing header or no score rows")
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    last = -1
    for row in rows[1:]:
        index, score, flagged = int(row[0]), float(row[2]), row[3]
        if index <= last or flagged not in ("0", "1"):
            raise ValueError(f"scores.csv: bad row {row}")
        if (flagged == "1") != (score > tau):
            raise ValueError(f"scores.csv: row {row} disagrees with tau={tau!r}")
        last = index
        if kind == "mse_window":  # a window is faulty if any frame is
            truth = any(labels[i] for i in range(index - w.window + 1, index + 1))
        else:
            truth = labels[index]
        if flagged == "1":
            counts["tp" if truth else "fp"] += 1
        else:
            counts["fn" if truth else "tn"] += 1
    return counts


def check_outputs(w: Workload, out: Path, ledger: Ledger, tag: str) -> dict:
    """Checks one finished pipeline's outputs; returns what the metrics need.

    The confusion matrix rebuilt from labels.csv and scores.csv must equal
    metrics.csv, and recall and specificity must meet the workload's floors.
    A missing or malformed output fails the stage that wrote it.
    """
    found: dict = {}
    stage = "threshold"
    try:
        found["model.json"] = sha256(out / "model.json")
        threshold = json.loads((out / "model.json").read_text())["threshold"]
        tau, kind = float(threshold["tau"]), threshold["kind"]
        stage = "train"
        epochs = len(_read_csv(out / "train_report.csv")) - 1
        items = _training_items(w, out)
        stage = "detect"
        found["scores.csv"] = sha256(out / "scores.csv")
        rebuilt = _confusion(w, out, tau, kind)
        stage = "eval"
        reported = dict(_read_csv(out / "metrics.csv")[1:])
        counts = {k: int(reported[k]) for k in rebuilt}
        recall = float(reported["recall"])
        specificity = float(reported["specificity"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        ledger.fail(f"{tag}/{stage}", f"bad {stage} output: {exc}")
        return found
    if counts != rebuilt:
        ledger.fail(f"{tag}/eval", f"metrics.csv counts {counts} != rebuilt {rebuilt}")
    elif recall < w.recall_floor or specificity < w.specificity_floor:
        ledger.fail(f"{tag}/eval", f"recall {recall} / specificity {specificity} "
                    f"below floors {w.recall_floor} / {w.specificity_floor}")
    found.update(recall=recall, specificity=specificity, epochs=epochs, items=items)
    return found


def check_determinism(outputs: list[tuple[str, dict]], ledger: Ledger,
                      store_key: str) -> None:
    """model.json and scores.csv must hash the same in every pipeline of
    this workload and seed, in this run and in earlier runs of the same
    source; the first hashes seen are kept in WORK/hashes.json."""
    store_path = WORK / "hashes.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    reference = store.get(store_key)
    for tag, found in outputs:
        if "scores.csv" not in found:
            continue
        current = {k: found[k] for k in ("model.json", "scores.csv")}
        if reference is None:
            reference = current
            continue
        for name, stage in (("model.json", "threshold"), ("scores.csv", "detect")):
            if current[name] != reference[name]:
                ledger.fail(f"{tag}/{stage}", f"{name} differs from an earlier "
                            f"run of the same seed")
    # only outputs that passed every check become the reference
    if reference is not None and store_key not in store and not ledger.failures:
        store[store_key] = reference
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1))
        os.replace(tmp, store_path)


# ---------------------------------------------------------------- runs

class Bench:
    def __init__(self, w: Workload, seed: int, run_dir: Path):
        self.w = w
        self.seed = seed
        self.run_dir = run_dir
        self.data = run_dir / "data"
        self.ledger = Ledger()
        self.calibrations: list[tuple[float, float]] = []
        self.digest = source_digest()
        # hashes of model.json and scores.csv are compared under this key
        self.store_key = f"{w.name}/seed{seed}/{self.digest[:16]}"
        self.data.mkdir(parents=True)

    def setup(self, op: str, trace_dir: Path | None = None) -> StageRun | None:
        argv = ["synth", "--out-dir", str(self.data), "--seed", str(self.seed),
                *self.w.synth_args()]
        return run_stage(self.ledger, self.calibrations, op, argv, self.run_dir,
                         trace_dir, self.data)

    def pipeline(self, tag: str, trace_dir: Path | None = None,
                 after_detect=None, trained: Path | None = None):
        """Runs prepare..eval into run_dir/tag; None if a stage failed.

        With `trained` set, `train` is skipped: the model and its report are
        copied from that earlier iteration's directory after `prepare`.
        Returns (StageRun per stage, directory, paths `prepare` wrote).
        """
        out = self.run_dir / tag
        out.mkdir()
        common = ["--out-dir", str(out), "--seed", str(self.seed),
                  *self.w.pipeline_args()]
        runs, prepared = {}, set()
        for stage in PIPELINE:
            if stage == "train" and trained is not None:
                for name in ("model.json", "train_report.csv"):
                    shutil.copy(trained / name, out / name)
                continue
            argv = [stage, *common]
            if stage == "prepare":
                argv += ["--paths.sensor_csv", str(self.data / "sensor.csv"),
                         "--paths.fault_csv", str(self.data / "faults.csv")]
            result = run_stage(self.ledger, self.calibrations, f"{tag}/{stage}",
                               argv, out, trace_dir, out)
            if result is None:
                return None
            runs[stage] = result
            if stage == "prepare":
                prepared = {str(p) for p in out.iterdir() if p.suffix != ".log"}
            if stage == "detect" and after_detect is not None:
                after_detect(out)
        return runs, out, prepared


def stage_metrics(samples: dict[str, list[StageRun]], found: dict,
                  calibrations: list[tuple[float, float]]) -> dict:
    """End-to-end metrics from the per-stage medians of one run."""
    wall = {s: statistics.median(r.scaled(calibrations) for r in runs)
            for s, runs in samples.items()}
    return {
        "pipeline_s": sum(wall.values()),
        "prepare_s": wall["prepare"],
        "train_s": wall["train"],
        "score_s": sum(wall[s] for s in SCORE_STAGES),
        "train_items_per_s": found["epochs"] * found["items"] / wall["train"],
        "peak_rss_mb": max(statistics.median(r.peak_rss_mb for r in runs)
                           for runs in samples.values()),
        "recall": found["recall"],
        "specificity": found["specificity"],
    }


def run_untraced(bench: Bench, seconds: float, after_detect=None) -> tuple[dict, dict]:
    setups = []
    for k in range(SETUP_REPEATS):
        result = bench.setup(f"setup{k}")
        if result is None:
            return {}, {}
        try:
            digest = sha256(bench.data / "sensor.csv")
        except OSError as exc:
            bench.ledger.fail(f"setup{k}", f"bad synth output: {exc}")
            return {}, {}
        if setups and digest != setups[0][1]:
            bench.ledger.fail(f"setup{k}", "synth output differs between set-ups")
        setups.append((result, digest))

    # Full pipelines start until the window closes. A run that has fewer
    # than MIN_ITERATIONS by then adds pipelines that reuse the last trained
    # model, so each short stage gets samples apart in time, not one.
    samples = {stage: [] for stage in PIPELINE}
    outputs, first, trained = [], None, None
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_ITERATIONS or time.perf_counter() < deadline:
        tag = f"it{k}"
        k += 1
        reuse = trained if time.perf_counter() >= deadline else None
        done = bench.pipeline(tag, after_detect=after_detect, trained=reuse)
        if done is None:
            break
        runs, out, _ = done
        found = check_outputs(bench.w, out, bench.ledger, tag)
        outputs.append((tag, found))
        if "epochs" not in found:
            break
        first = first or found
        for stage, result in runs.items():
            samples[stage].append(result)
        if "train" in runs:
            trained = out
    check_determinism(outputs, bench.ledger, bench.store_key)

    cals = bench.calibrations
    metrics = stage_metrics(samples, first, cals) if samples["train"] else {}
    metrics["setup_s"] = statistics.median(r.scaled(cals) for r, _ in setups)
    stage_runs = {"setup": [r for r, _ in setups], **samples}
    extra = {"wall_s": {s: [r.wall_s for r in runs] for s, runs in stage_runs.items()},
             "calibration_s": [c for _, c in cals],
             "items_trained": [first["epochs"] * first["items"]] if first else []}
    return metrics, extra


def run_traced(bench: Bench, kernel_reps: int) -> tuple[dict, dict]:
    trace_dir = bench.run_dir / "trace"
    trace_dir.mkdir()
    if bench.setup("setup", trace_dir) is None:
        return {}, {}
    plain = bench.pipeline("plain")
    traced = bench.pipeline("traced", trace_dir)
    outputs = [(tag, check_outputs(bench.w, done[1], bench.ledger, tag))
               for tag, done in (("plain", plain), ("traced", traced)) if done]
    check_determinism(outputs, bench.ledger, bench.store_key)

    bench.ledger.attempted += 1
    kernel_json = trace_dir / "kernels.json"
    kernel = run_process([sys.executable, str(HERE / "kernels.py"), str(kernel_json),
                          str(kernel_reps)], bench.run_dir / "kernels.log",
                         bench.calibrations)
    if kernel.code != 0:
        bench.ledger.fail("kernels", f"exit code {kernel.code}")
    if plain is None or traced is None or kernel.code != 0:
        return {}, {}

    docs = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))
            if p.name != "kernels.json"]
    metrics = layer_metrics(docs, traced[2], json.loads(kernel_json.read_text()))
    walls = {tag: {stage: r.scaled(bench.calibrations) for stage, r in done[0].items()}
             for tag, done in (("plain", plain), ("traced", traced))}
    metrics["trace.overhead_ratio"] = (sum(walls["traced"].values())
                                       / sum(walls["plain"].values()) - 1.0)
    found = dict(outputs)["plain"]
    extra = {"stage_s": walls,
             "items_trained": [found.get("epochs", 0) * found.get("items", 0)]}
    return metrics, extra


def metadata(bench: Bench, trace: int, extra: dict) -> dict:
    git_rev = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        git_rev = git.stdout.strip() or None
    return {
        "workload": bench.w.name, "seed": bench.seed, "trace": trace,
        "git_rev": git_rev, "src_sha256": bench.digest,
        "nproc": os.cpu_count(), "openblas_num_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "rows": bench.w.rows, "channels": bench.w.channels,
        "items_trained": extra.get("items_trained"),
    }


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run(w: Workload, seed: int, seconds: float, trace: int,
        after_detect=None, kernel_reps: int = KERNEL_REPS) -> dict:
    """One benchmark run; returns the result object (metadata under 'meta')."""
    run_dir = WORK / w.name
    shutil.rmtree(run_dir, ignore_errors=True)
    bench = Bench(w, seed, run_dir)
    if trace:
        values, extra = run_traced(bench, kernel_reps)
    else:
        values, extra = run_untraced(bench, seconds, after_detect)
    metrics = {}
    for spec in declared_metrics(trace):
        value = values.get(spec["name"])
        if value is None:
            print(f"metric {spec['name']} was not measured", file=sys.stderr)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    ledger = bench.ledger
    result = {"correct": not ledger.failures, "attempted": ledger.attempted,
              "failed": len(ledger.failures), "metrics": metrics}
    meta = metadata(bench, trace, extra)
    (run_dir / "result.json").write_text(json.dumps(
        {"result": result, "meta": meta, "failures": ledger.failures,
         "detail": extra}, indent=1))
    return {**result, "meta": meta}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aedetect" / "cli.py").is_file():
        print(f"error: no aedetect sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2

    # a terminated driver still kills and reaps its stage process (run_process)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # stages inherit it
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    meta = result.pop("meta")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']!s:>24} {m['unit']}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
