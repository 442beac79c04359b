"""The benchmark in perfbench/ reaches into the package by name: the traced
stage patches functions and methods, and the kernel pass names each layer by
its class. It also reads the pipeline's files to check each run. These tests
fail when a refactor removes a name it relies on or changes a file it reads."""

import importlib.util
import shutil
import sys
from pathlib import Path

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


class CheckingTracer:
    """Stands in for the tracer: checks each patch target, patches nothing."""

    def __init__(self):
        self.patched = []

    def patch(self, owner, attr, name, attrs=None, measure_alloc=False):
        assert callable(getattr(owner, attr, None)), \
            f"{getattr(owner, '__name__', owner)}.{attr} is gone ({name})"
        self.patched.append(name)


def test_every_traced_name_exists():
    tracer = CheckingTracer()
    load_script("traced_stage").install(tracer)
    assert "models.forward" in tracer.patched
    assert "preprocess.read_matrix_csv" in tracer.patched


def test_every_layer_class_has_a_kernel_name():
    kinds = load_script("kernels").LAYER_KINDS
    for model in (DenseAutoencoder(d=3, seed=0),
                  LstmAutoencoder(d=3, window_length=4, seed=0)):
        for layer in model.layers:
            assert type(layer).__name__ in kinds


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
