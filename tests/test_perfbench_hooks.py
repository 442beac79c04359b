"""The benchmark in perfbench/ reaches into the package by name: the traced
stage patches functions and methods, and the kernel pass names each layer by
its class. It also reads the pipeline's files to check each run. These tests
fail when a refactor removes a name it relies on or changes a file it reads."""

import importlib.util
import json
import shutil
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from aedetect.cli import EXIT_OK, main
from aedetect.models import DenseAutoencoder, LstmAutoencoder

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class CountingTracer:
    """Stands in for the tracer: checks each patch target and wraps it to
    count its calls under the span's name."""

    def __init__(self, monkeypatch):
        self.patched = []
        self.calls = Counter()
        self._monkeypatch = monkeypatch

    def patch(self, owner, attr, name, attrs=None, measure_alloc=False):
        fn = getattr(owner, attr, None)
        assert callable(fn), \
            f"{getattr(owner, '__name__', owner)}.{attr} is gone ({name})"
        self.patched.append(name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        self._monkeypatch.setattr(owner, attr, counted)


def test_every_traced_name_exists(monkeypatch):
    tracer = CountingTracer(monkeypatch)
    load_script("traced_stage").install(tracer)
    assert "models.forward" in tracer.patched
    assert "preprocess.read_matrix_csv" in tracer.patched


def test_stages_call_the_traced_writers(monkeypatch, tmp_path):
    # the writer spans are timed where the stages call them by these names;
    # a writer inlined into its stage would read 0 s in the per-layer metrics
    tracer = CountingTracer(monkeypatch)
    load_script("traced_stage").install(tracer)
    run(["synth", "--out-dir", tmp_path, "--seed", 5, "--synth.n_samples", 500])
    assert tracer.calls["dataset.write_sensor_csv"] == 1
    tracer.calls.clear()
    run(["prepare", "--out-dir", tmp_path, "--seed", 5,
         "--paths.sensor_csv", tmp_path / "sensor.csv",
         "--paths.fault_csv", tmp_path / "faults.csv"])
    assert tracer.calls["preprocess.write_matrix_csv"] == 3
    assert tracer.calls["preprocess.write_split_plan"] == 1


def test_every_layer_class_has_a_kernel_name():
    kinds = load_script("kernels").LAYER_KINDS
    for model in (DenseAutoencoder(d=3, seed=0),
                  LstmAutoencoder(d=3, window_length=4, seed=0)):
        for layer in model.layers:
            assert type(layer).__name__ in kinds


@pytest.mark.parametrize("arch, model, shape", (
    ("dense_ae", DenseAutoencoder(d=3, seed=0), (4, 3)),
    ("lstm_ae", LstmAutoencoder(d=3, window_length=4, seed=0), (4, 4, 3)),
), ids=("dense", "lstm"))
def test_kernel_pass_runs(arch, model, shape):
    # the kernel pass builds its own Adam over copies of the parameters and
    # steps it with the model's gradient list
    x = np.random.default_rng(0).uniform(size=shape)
    before = [p.copy() for p in model.parameters()]
    out = load_script("kernels").model_pass(arch, model, x, reps=1)
    step = out[f"neuralnet.{arch}.adam_step_ms"]
    assert step["n"] == 1 and np.isfinite(step["p50"])
    assert len(out) == 2 * len(model.layers) + 1
    assert all(np.array_equal(a, b) for a, b in zip(before, model.parameters()))


def test_kernel_script_writes_every_kernel(tmp_path):
    # the script as the benchmark runs it: both models built by keyword,
    # each layer named by its class, one timed sample per kernel
    path = tmp_path / "kernels.json"
    assert load_script("kernels").main([str(path), "1"]) == 0
    out = json.loads(path.read_text())
    kinds = {"dense_ae": ("dense",) * 6,
             "lstm_ae": ("lstm", "lstm", "repeat", "lstm", "lstm", "tdense")}
    expected = {"neuralnet.sigmoid_256x16_us"}
    for arch, layers in kinds.items():
        expected.add(f"neuralnet.{arch}.adam_step_ms")
        expected.update(f"neuralnet.{arch}.L{k}_{kind}.{way}_ms"
                        for k, kind in enumerate(layers)
                        for way in ("forward", "backward"))
    assert set(out) == expected and len(expected) == 27
    assert all(entry["n"] == 1 for entry in out.values())


def run(args):
    assert main([str(a) for a in args]) == EXIT_OK


@pytest.fixture(scope="module")
def prepared_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("prepared")
    run(["synth", "--out-dir", out, "--seed", 5, "--synth.n_samples", 2500,
         "--synth.gap_fraction", 0.02])
    run(["prepare", "--out-dir", out, "--seed", 5,
         "--paths.sensor_csv", out / "sensor.csv",
         "--paths.fault_csv", out / "faults.csv"])
    return out


@pytest.mark.parametrize("architecture", ("dense_ae", "lstm_ae"))
def test_stages_read_and_window_once(monkeypatch, prepared_dir, tmp_path,
                                     architecture):
    # perfbench/selftest.py pins these counts over a traced run; each stage
    # reads the three prepared matrices once and an LSTM stage windows once
    tracer = CountingTracer(monkeypatch)
    load_script("traced_stage").install(tracer)
    out = tmp_path / "run"
    shutil.copytree(prepared_dir, out)
    windows = int(architecture == "lstm_ae")
    for stage in ("train", "threshold", "detect", "eval"):
        tracer.calls.clear()
        run([stage, "--out-dir", out, "--seed", 5,
             "--pipeline.architecture", architecture, "--train.max_epochs", 1])
        assert (tracer.calls["preprocess.read_matrix_csv"],
                tracer.calls["preprocess.partition_windows"]) == (3, windows), stage


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py as a module: it imports its sibling `layers`, and its
    dataclasses need the module registered under its name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("architecture, loss, epochs", (
    ("dense_ae", "mse", 2),
    ("lstm_ae", "mse", 2),
    ("dense_ae", "mahalanobis", 7),
), ids=("mse_point", "mse_window", "mahalanobis"))
def test_benchmark_output_checks_pass(bench, prepared_dir, tmp_path,
                                      architecture, loss, epochs):
    out = tmp_path / "run"
    shutil.copytree(prepared_dir, out)
    for stage in ("train", "threshold", "detect", "eval"):
        run([stage, "--out-dir", out, "--seed", 5,
             "--pipeline.architecture", architecture, "--pipeline.loss", loss,
             "--train.max_epochs", epochs])
    workload = bench.Workload("golden", architecture, loss, 2500, 0.02,
                              recall_floor=0.0, specificity_floor=0.0)
    ledger = bench.Ledger()
    found = bench.check_outputs(workload, out, ledger, "golden")
    assert ledger.failures == {}
    assert found["epochs"] == epochs and found["items"] > 0
