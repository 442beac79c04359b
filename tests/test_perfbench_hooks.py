"""The benchmark in perfbench/ reaches into the package by name: the traced
stage patches functions and methods, and the kernel pass names each layer by
its class. These tests fail when a refactor removes a name it relies on."""

import importlib.util
from pathlib import Path

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
