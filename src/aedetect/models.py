"""The two fixed autoencoder architectures and their JSON serialization.

Model files are single JSON documents with flat row-major weight arrays plus
shape metadata; the scaler (and threshold/covariance once fitted) travel
inside the file so a model can never be deployed with the wrong normalization.
An LSTM file also records the window stride `train` used, so the later
stages cut the same windows.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .detector import ThresholdSpec
from .errors import ModelFormatError, ValidationError
from .neuralnet import DenseLayer, LstmLayer, RepeatVector, TimeDistributedDense
from .preprocess import ScalerParams
from .training import CovarianceModel

SCHEMA_VERSION = 1

LATENT = 8  # width of both bottlenecks


class _LayerStack:
    """Layers run front to back on (batch, *item_shape) inputs; `forward`
    returns the reconstruction, of the input's shape."""

    architecture: str

    def __init__(self, item_shape: tuple[int, ...], layers: list):
        self.item_shape = item_shape
        self.d = item_shape[-1]
        self.layers = layers

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """cache=False is the inference pass, which `backward` cannot follow."""
        h = np.asarray(x, dtype=np.float64)
        if h.shape[1:] != self.item_shape:
            raise ValidationError(
                f"expected (batch, {', '.join(map(str, self.item_shape))}), "
                f"got {h.shape}"
            )
        for layer in self.layers:
            h = layer.forward(h, cache)
        return h

    def backward(self, grad_recon: np.ndarray) -> np.ndarray:
        g = grad_recon
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self):
        return [g for layer in self.layers for g in layer.gradients()]


class DenseAutoencoder(_LayerStack):
    """Snapshot autoencoder d -> 36 -> 12 -> 8 -> 12 -> 36 -> d, all tanh.
    seed=None draws no weights: they stay zero until a model file fills them."""

    architecture = "dense_ae"

    def __init__(self, d: int, seed: int | None = None):
        if d < 1:
            raise ValidationError("feature count d must be >= 1")
        sizes = (d, 36, 12, LATENT, 12, 36, d)
        rng = None if seed is None else np.random.default_rng(seed)
        super().__init__((d,), [DenseLayer(a, b, rng)
                                for a, b in zip(sizes, sizes[1:])])


class LstmAutoencoder(_LayerStack):
    """Sequence autoencoder LSTM(16)->LSTM(8) -> repeat -> LSTM(8)->LSTM(16)
    -> shared tanh dense head; reconstructs (batch, T, d) windows. seed=None
    draws no weights: they stay zero until a model file fills them."""

    architecture = "lstm_ae"

    def __init__(self, d: int, window_length: int = 5, seed: int | None = None):
        if d < 1 or window_length < 1:
            raise ValidationError("d and window_length must be >= 1")
        rng = None if seed is None else np.random.default_rng(seed)
        self.window_length = window_length
        super().__init__((window_length, d), [
            LstmLayer(d, 16, return_sequences=True, rng=rng),
            LstmLayer(16, LATENT, return_sequences=False, rng=rng),
            RepeatVector(window_length),
            LstmLayer(LATENT, LATENT, return_sequences=True, rng=rng),
            LstmLayer(LATENT, 16, return_sequences=True, rng=rng),
            TimeDistributedDense(16, d, rng),
        ])


@dataclass
class ModelBundle:
    """A trained model plus everything needed to deploy it."""

    model: DenseAutoencoder | LstmAutoencoder
    scaler: ScalerParams
    threshold: ThresholdSpec | None = None
    covariance: CovarianceModel | None = None
    window_stride: int | None = None  # LSTM only: the stride `train` windowed at


def _layer_fields(layer) -> tuple[dict, dict]:
    """A layer's model-file entry in two parts: the fields that name its type
    and sizes, and each weight field's parameter array (for an LSTM, a view
    of one gate's rows of the stacked weights)."""
    if isinstance(layer, TimeDistributedDense):
        return _layer_fields(layer.inner)
    if isinstance(layer, RepeatVector):
        return {"type": "repeat_vector", "T": layer.steps}, {}
    if isinstance(layer, DenseLayer):
        return ({"type": "dense", "in": layer.in_size, "out": layer.out_size,
                 "activation": "tanh"},
                {"W": layer.W, "b": layer.b})
    u = layer.units
    weights = {}
    for k, gate in enumerate(LstmLayer.GATES):
        rows = slice(k * u, (k + 1) * u)
        weights[f"W_{gate}"] = layer.Wx[rows]
        weights[f"U_{gate}"] = layer.Wh[rows]
        weights[f"b_{gate}"] = layer.b[rows]
    return ({"type": "lstm", "in": layer.in_size, "units": u,
             "return_sequences": layer.return_sequences}, weights)


def _layer_doc(layer) -> dict:
    header, weights = _layer_fields(layer)
    return {**header, **{key: w.ravel().tolist() for key, w in weights.items()}}


def _doc_array(doc: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        flat = np.asarray(doc[key], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"bad or missing weight field {key!r}") from exc
    if flat.size != int(np.prod(shape)):
        raise ModelFormatError(
            f"field {key!r} has {flat.size} values, expected shape {shape}"
        )
    if not np.isfinite(flat).all():
        raise ModelFormatError(f"field {key!r} contains non-finite values")
    return flat.reshape(shape)


def _load_layer(doc, layer, position: int) -> None:
    """Copies one layer entry into the architecture's layer at `position`;
    the entry's type, sizes, activation, return_sequences and repeat count
    must be the layer's own."""
    header, weights = _layer_fields(layer)
    if not isinstance(doc, dict):
        raise ModelFormatError(f"layer {position} is not a JSON object")
    for key, value in header.items():
        if doc.get(key) != value:
            raise ModelFormatError(
                f"layer {position}: {key} is {doc.get(key)!r}, but the "
                f"architecture has {value!r}"
            )
    for key, w in weights.items():
        w[...] = _doc_array(doc, key, w.shape)


def to_document(bundle: ModelBundle) -> dict:
    model = bundle.model
    doc = {
        "schema_version": SCHEMA_VERSION,
        "architecture": model.architecture,
        "d": model.d,
    }
    if isinstance(model, LstmAutoencoder):
        doc["T"] = model.window_length
    if bundle.window_stride is not None:
        doc["window_recipe"] = {"stride": bundle.window_stride}
    doc["layers"] = [_layer_doc(layer) for layer in model.layers]
    doc["scaler"] = bundle.scaler.to_doc()
    if bundle.threshold is not None:
        doc["threshold"] = asdict(bundle.threshold)
    if bundle.covariance is not None:
        cov = bundle.covariance
        doc["covariance"] = {
            "d": cov.sigma.shape[0],
            "sigma": cov.sigma.ravel().tolist(),
            "epsilon": cov.epsilon,
        }
    return doc


def _positive_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or value < 1:
        raise ModelFormatError(f"model file needs a positive integer {key!r}")
    return value


def _block(doc: dict, key: str, parse, *args):
    """parse(doc[key], *args); a missing, malformed or numerically invalid
    block (a covariance that is not positive definite) is a ModelFormatError."""
    try:
        return parse(doc[key], *args)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ModelFormatError(f"model file has a bad {key} block") from exc


def _threshold(tdoc) -> ThresholdSpec:
    return ThresholdSpec(alpha=float(tdoc["alpha"]), tau=float(tdoc["tau"]),
                         kind=str(tdoc["kind"]), fitted_on=int(tdoc["fitted_on"]))


def _covariance(cdoc, d: int) -> CovarianceModel:
    if int(cdoc["d"]) != d:
        raise ValueError(f"covariance d {cdoc['d']} != the file's d {d}")
    return CovarianceModel.from_sigma(_doc_array(cdoc, "sigma", (d, d)),
                                      float(cdoc["epsilon"]))


def _stride(rdoc) -> int:
    """The window recipe's stride; keys that older files also wrote (the
    seed and share of a window-level validation draw) are ignored."""
    stride = operator.index(rdoc["stride"])
    if stride < 1:
        raise ValueError(f"window stride must be >= 1, got {stride}")
    return stride


def from_document(doc: dict) -> ModelBundle:
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelFormatError(
            f"unsupported schema_version {version!r}; this build reads "
            f"{SCHEMA_VERSION}"
        )
    scaler = _block(doc, "scaler", ScalerParams.from_doc)
    d = _positive_int(doc, "d")
    if scaler.minimum.shape[0] != d:
        raise ModelFormatError("scaler dimension does not match d")
    arch = doc.get("architecture")
    if arch == "dense_ae":
        model = DenseAutoencoder(d, seed=None)
    elif arch == "lstm_ae":
        model = LstmAutoencoder(d, _positive_int(doc, "T"), seed=None)
    else:
        raise ModelFormatError(f"unknown architecture {arch!r}")
    layer_docs = doc.get("layers")
    if not isinstance(layer_docs, list) or len(layer_docs) != len(model.layers):
        raise ModelFormatError(f"{arch} files hold a list of {len(model.layers)} layers")
    for position, (layer_doc, layer) in enumerate(zip(layer_docs, model.layers)):
        _load_layer(layer_doc, layer, position)

    return ModelBundle(
        model, scaler,
        _block(doc, "threshold", _threshold) if "threshold" in doc else None,
        _block(doc, "covariance", _covariance, d) if "covariance" in doc else None,
        _block(doc, "window_recipe", _stride)
        if "window_recipe" in doc else None,
    )


def save_model(bundle: ModelBundle, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_document(bundle), fh, indent=1)
        fh.write("\n")


def load_model(path) -> ModelBundle:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # undecodable bytes too
            raise ModelFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: model file must hold a JSON object")
    try:
        return from_document(doc)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
