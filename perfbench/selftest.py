"""Self-test of the benchmark on tiny profiles (3000 rows, 1-2 epochs).

Usage: python3 perfbench/selftest.py     (exit code 0 when every check passes)

Checks that:
- an untraced run emits every end-to-end metric of BENCHMARK.json with its
  unit, and passes its own output checks;
- a corrupted scores.csv (a flipped flag, a truncated file) is counted as a
  failed operation;
- a traced run of each architecture/loss emits every per-layer metric with
  its unit, and the spans reach the code each workload exercises;
- the benchmark exits non-zero, printing no result, when the checkout holds
  only BENCHMARK.json and perfbench/.
The tiny profiles train too briefly to meet the acceptance floors, so their
floors are zero; the checks on scores.csv and metrics.csv still apply.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from run import Workload

TINY_DENSE = Workload("selftest-dense", "dense_ae", "mse", 3000, 0.0, 0.0, 0.0,
                      max_epochs=2)
TINY_LSTM = Workload("selftest-lstm", "lstm_ae", "mse", 3000, 0.0, 0.0, 0.0,
                     max_epochs=1)
TINY_MAHA = Workload("selftest-maha", "dense_ae", "mahalanobis", 3000, 0.02,
                     0.0, 0.0, max_epochs=2)
KERNEL_REPS = 20


def flip_first_flag(out) -> None:
    path = out / "scores.csv"
    lines = path.read_text().splitlines(keepends=True)
    head, flag = lines[1].rstrip("\n").rsplit(",", 1)
    lines[1] = f"{head},{1 - int(flag)}\n"
    path.write_text("".join(lines))


def truncate_mid_row(out) -> None:
    path = out / "scores.csv"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


class SelfTest:
    def __init__(self):
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        self.failures += not ok

    def metrics_complete(self, result: dict, trace: int, label: str) -> None:
        declared = run.declared_metrics(trace)
        got = result["metrics"]
        missing = [m["name"] for m in declared
                   if got.get(m["name"], {}).get("value") is None
                   or got[m["name"]]["unit"] != m["unit"]]
        self.expect(not missing and len(got) == len(declared),
                    f"{label}: all {len(declared)} metrics with units {missing or ''}")

    def untraced(self) -> None:
        result = run.run(TINY_DENSE, seed=1, seconds=0, trace=0)
        self.expect(result["correct"] and result["failed"] == 0,
                    f"untraced tiny dense run is correct ({result['attempted']} ops)")
        # set-ups, one full pipeline, one pipeline reusing the trained model
        self.expect(result["attempted"] == run.SETUP_REPEATS + 5 + 4,
                    "second iteration reuses the trained model")
        self.metrics_complete(result, 0, "untraced")
        meta = result["meta"]
        self.expect(meta["openblas_num_threads"] == run.BLAS_THREADS
                    and meta["items_trained"] and meta["nproc"],
                    "run metadata present")

    def corrupted(self) -> None:
        for hook in (flip_first_flag, truncate_mid_row):
            result = run.run(TINY_DENSE, seed=1, seconds=0, trace=0,
                             after_detect=hook)
            self.expect(result["failed"] >= 1 and not result["correct"],
                        f"{hook.__name__} on scores.csv is a failed operation")

    def traced(self) -> None:
        for w, layer_checks in (
            (TINY_DENSE, {"training.epochs_run": 2, "neuralnet.sigmoid_calls": 0}),
            (TINY_LSTM, {"training.epochs_run": 1,
                         "preprocess.partition_windows_calls": 4}),
            (TINY_MAHA, {"preprocess.read_matrix_csv_calls": 12}),
        ):
            result = run.run(w, seed=1, seconds=0, trace=1, kernel_reps=KERNEL_REPS)
            self.expect(result["correct"], f"traced {w.name} run is correct")
            self.metrics_complete(result, 1, f"traced {w.name}")
            values = {k: m["value"] for k, m in result["metrics"].items()}
            for name, want in layer_checks.items():
                self.expect(values.get(name) == want,
                            f"traced {w.name}: {name} == {want} (got {values.get(name)})")
            positive = {
                TINY_LSTM: ("neuralnet.sigmoid_calls", "models.forward_ms"),
                TINY_MAHA: ("preprocess.imputed_cells", "training.covariance_s",
                            "cli.handoff_bytes", "detector.score_peak_alloc_mb"),
            }.get(w, ("models.forward_ms", "neuralnet.adam_steps"))
            for name in positive:
                self.expect((values.get(name) or 0) > 0,
                            f"traced {w.name}: {name} > 0")

    def bare_checkout(self) -> None:
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dense-20k",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        self.expect(proc.returncode != 0 and not printed_result,
                    f"bare checkout exits {proc.returncode} without a result")
        shutil.rmtree(bare)


def main() -> int:
    test = SelfTest()
    test.untraced()
    test.corrupted()
    test.traced()
    test.bare_checkout()
    print(json.dumps({"selftest_failures": test.failures}))
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
