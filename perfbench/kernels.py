"""Fixed-batch kernel pass: per-layer forward/backward, Adam.step and sigmoid.

Usage: python3 perfbench/kernels.py OUT_JSON REPS

One fixed, seeded 256-item batch runs forward and backward through each
layer of both autoencoders, REPS times after a short warm-up; Adam.step runs
on the resulting gradients and `neuralnet.sigmoid` on a 256x16 array.
Writes, per kernel, the p50 and p99 of its samples (ms; sigmoid in us) and
the sample count to OUT_JSON.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np

from aedetect import neuralnet
from aedetect.models import DenseAutoencoder, LstmAutoencoder

BATCH = 256
CHANNELS = 8
WINDOW = 5
WARMUP = 5
SEED = 0  # the same batch and weights in every run, whatever the workload seed
LAYER_KINDS = {"DenseLayer": "dense", "LstmLayer": "lstm",
               "RepeatVector": "repeat", "TimeDistributedDense": "tdense"}


def _quantiles(samples: list[float], scale: float) -> dict:
    values = np.asarray(samples[WARMUP:]) * scale
    return {"p50": float(np.percentile(values, 50)),
            "p99": float(np.percentile(values, 99)),
            "n": int(values.size)}


def _timed(fn, reps: int) -> list[float]:
    samples = []
    for _ in range(reps + WARMUP):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return samples


def model_pass(arch: str, model, x: np.ndarray, reps: int) -> dict:
    layers = model.layers
    kinds = [type(layer).__name__ for layer in layers]
    names = [f"neuralnet.{arch}.L{i}_{LAYER_KINDS.get(kind, kind.lower())}"
             for i, kind in enumerate(kinds)]
    fwd = [[] for _ in layers]
    bwd = [[] for _ in layers]
    for _ in range(reps + WARMUP):
        h = x
        for k, layer in enumerate(layers):
            t0 = perf_counter()
            h = layer.forward(h)
            fwd[k].append(perf_counter() - t0)
        g = (2.0 / h.size) * (h - x)
        for k in reversed(range(len(layers))):
            t0 = perf_counter()
            g = layers[k].backward(g)
            bwd[k].append(perf_counter() - t0)
    out = {}
    for name, f, b in zip(names, fwd, bwd):
        out[f"{name}.forward_ms"] = _quantiles(f, 1e3)
        out[f"{name}.backward_ms"] = _quantiles(b, 1e3)
    # a private copy of the parameters, so the timed steps leave the model as is
    optimizer = neuralnet.Adam([p.copy() for p in model.parameters()], 1e-3)
    grads = model.gradients()
    out[f"neuralnet.{arch}.adam_step_ms"] = _quantiles(
        _timed(lambda: optimizer.step(grads), reps), 1e3)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out_path, reps = argv[0], int(argv[1])
    rng = np.random.default_rng(SEED)
    results = {}
    dense = DenseAutoencoder(d=CHANNELS, seed=SEED)
    results.update(model_pass("dense_ae", dense,
                              rng.uniform(size=(BATCH, CHANNELS)), reps))
    lstm = LstmAutoencoder(d=CHANNELS, window_length=WINDOW, seed=SEED)
    results.update(model_pass("lstm_ae", lstm,
                              rng.uniform(size=(BATCH, WINDOW, CHANNELS)), reps))
    a = rng.normal(size=(BATCH, 16))
    results["neuralnet.sigmoid_256x16_us"] = _quantiles(
        _timed(lambda: neuralnet.sigmoid(a), reps), 1e6)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
