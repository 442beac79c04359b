"""The two fixed autoencoder architectures and their JSON serialization.

Model files are single JSON documents with flat row-major weight arrays plus
shape metadata; the scaler (and threshold/covariance once fitted) travel
inside the file so a model can never be deployed with the wrong normalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .detector import ThresholdSpec
from .errors import ModelFormatError, ValidationError
from .neuralnet import DenseLayer, LstmLayer, RepeatVector, TimeDistributedDense
from .preprocess import ScalerParams
from .training import CovarianceModel

SCHEMA_VERSION = 1

DENSE_HIDDEN = (36, 12, 8)
LSTM_ENCODER_UNITS = (16, 8)


class DenseAutoencoder:
    """Snapshot autoencoder d -> 36 -> 12 -> 8 -> 12 -> 36 -> d, all tanh."""

    architecture = "dense_ae"

    def __init__(self, d: int, hidden_sizes=DENSE_HIDDEN, seed: int = 0):
        if d < 1:
            raise ValidationError("feature count d must be >= 1")
        sizes = (d,) + tuple(hidden_sizes) + tuple(reversed(hidden_sizes[:-1])) + (d,)
        rng = np.random.default_rng(seed)
        self.d = d
        self.hidden_sizes = tuple(hidden_sizes)
        self.layers = [
            DenseLayer(sizes[i], sizes[i + 1], "tanh", rng)
            for i in range(len(sizes) - 1)
        ]
        self._bottleneck = len(hidden_sizes) - 1  # layer index producing the latent
        expected = sum(a * b + b for a, b in zip(sizes, sizes[1:]))
        if self.parameter_count() != expected:
            raise ValidationError(
                f"parameter count {self.parameter_count()} != expected {expected}"
            )

    @property
    def latent_width(self) -> int:
        return self.hidden_sizes[-1]

    def forward(self, x: np.ndarray, cache: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Returns (reconstruction, latent); cache=False is the inference
        pass, which `backward` cannot follow."""
        h = np.asarray(x, dtype=np.float64)
        latent = None
        for i, layer in enumerate(self.layers):
            h = layer.forward(h, cache)
            if i == self._bottleneck:
                latent = h
        return h, latent

    def backward(self, grad_recon: np.ndarray) -> np.ndarray:
        g = grad_recon
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self):
        return [g for layer in self.layers for g in layer.gradients()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())


class LstmAutoencoder:
    """Sequence autoencoder LSTM(16)->LSTM(8) -> repeat -> LSTM(8)->LSTM(16)
    -> shared tanh dense head; reconstructs (batch, T, d) windows."""

    architecture = "lstm_ae"

    def __init__(self, d: int, window_length: int = 5,
                 encoder_units=LSTM_ENCODER_UNITS, seed: int = 0):
        if d < 1 or window_length < 1:
            raise ValidationError("d and window_length must be >= 1")
        u1, u2 = encoder_units
        rng = np.random.default_rng(seed)
        self.d = d
        self.window_length = window_length
        self.encoder_units = (u1, u2)
        self.layers = [
            LstmLayer(d, u1, return_sequences=True, rng=rng),
            LstmLayer(u1, u2, return_sequences=False, rng=rng),
            RepeatVector(window_length),
            LstmLayer(u2, u2, return_sequences=True, rng=rng),
            LstmLayer(u2, u1, return_sequences=True, rng=rng),
            TimeDistributedDense(u1, d, "tanh", rng),
        ]

    @property
    def latent_width(self) -> int:
        return self.encoder_units[1]

    def forward(self, x: np.ndarray, cache: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Returns (reconstruction, latent); latent is the encoder end state.
        cache=False is the inference pass, which `backward` cannot follow."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != self.window_length or x.shape[2] != self.d:
            raise ValidationError(
                f"expected (batch, {self.window_length}, {self.d}), got {x.shape}"
            )
        h = x
        latent = None
        for i, layer in enumerate(self.layers):
            h = layer.forward(h, cache)
            if i == 1:
                latent = h
        return h, latent

    def backward(self, grad_recon: np.ndarray) -> np.ndarray:
        g = grad_recon
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self):
        return [g for layer in self.layers for g in layer.gradients()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())


@dataclass
class ModelBundle:
    """A trained model plus everything needed to deploy it."""

    model: DenseAutoencoder | LstmAutoencoder
    scaler: ScalerParams
    threshold: ThresholdSpec | None = None
    covariance: CovarianceModel | None = None


def _dense_layer_doc(layer: DenseLayer) -> dict:
    return {
        "type": "dense",
        "in": layer.in_size,
        "out": layer.out_size,
        "activation": layer.activation,
        "W": layer.W.ravel().tolist(),
        "b": layer.b.tolist(),
    }


def _lstm_layer_doc(layer: LstmLayer) -> dict:
    u = layer.units
    doc = {
        "type": "lstm",
        "in": layer.in_size,
        "units": u,
        "return_sequences": layer.return_sequences,
    }
    for k, gate in enumerate(LstmLayer.GATES):
        rows = slice(k * u, (k + 1) * u)
        doc[f"W_{gate}"] = layer.Wx[rows].ravel().tolist()
        doc[f"U_{gate}"] = layer.Wh[rows].ravel().tolist()
        doc[f"b_{gate}"] = layer.b[rows].tolist()
    return doc


def _doc_array(doc: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        flat = np.asarray(doc[key], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad or missing weight field {key!r}") from exc
    if flat.size != int(np.prod(shape)):
        raise ModelFormatError(
            f"field {key!r} has {flat.size} values, expected shape {shape}"
        )
    if not np.isfinite(flat).all():
        raise ModelFormatError(f"field {key!r} contains non-finite values")
    return flat.reshape(shape)


def _load_dense_layer(doc: dict, layer: DenseLayer) -> None:
    if doc.get("in") != layer.in_size or doc.get("out") != layer.out_size:
        raise ModelFormatError(
            f"dense layer shape {doc.get('in')}x{doc.get('out')} does not match "
            f"architecture {layer.in_size}x{layer.out_size}"
        )
    layer.activation = doc.get("activation", "tanh")
    layer.W = _doc_array(doc, "W", (layer.out_size, layer.in_size))
    layer.b = _doc_array(doc, "b", (layer.out_size,))


def _load_lstm_layer(doc: dict, layer: LstmLayer) -> None:
    if doc.get("in") != layer.in_size or doc.get("units") != layer.units:
        raise ModelFormatError("lstm layer shape does not match architecture")
    u = layer.units
    for k, gate in enumerate(LstmLayer.GATES):
        rows = slice(k * u, (k + 1) * u)
        layer.Wx[rows] = _doc_array(doc, f"W_{gate}", (u, layer.in_size))
        layer.Wh[rows] = _doc_array(doc, f"U_{gate}", (u, u))
        layer.b[rows] = _doc_array(doc, f"b_{gate}", (u,))


def to_document(bundle: ModelBundle) -> dict:
    model = bundle.model
    doc = {
        "schema_version": SCHEMA_VERSION,
        "architecture": model.architecture,
        "d": model.d,
    }
    if isinstance(model, LstmAutoencoder):
        doc["T"] = model.window_length
        doc["layers"] = [
            _lstm_layer_doc(model.layers[0]),
            _lstm_layer_doc(model.layers[1]),
            {"type": "repeat_vector", "T": model.window_length},
            _lstm_layer_doc(model.layers[3]),
            _lstm_layer_doc(model.layers[4]),
            _dense_layer_doc(model.layers[5].inner),
        ]
    else:
        doc["layers"] = [_dense_layer_doc(layer) for layer in model.layers]
    doc["scaler"] = bundle.scaler.to_doc()
    if bundle.threshold is not None:
        t = bundle.threshold
        doc["threshold"] = {
            "alpha": t.alpha,
            "tau": t.tau,
            "kind": t.kind,
            "fitted_on": t.fitted_on,
        }
    if bundle.covariance is not None:
        cov = bundle.covariance
        doc["covariance"] = {
            "d": cov.sigma.shape[0],
            "sigma": cov.sigma.ravel().tolist(),
            "epsilon": cov.epsilon,
        }
    return doc


def from_document(doc: dict) -> ModelBundle:
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelFormatError(
            f"unsupported schema_version {version!r}; this build reads "
            f"{SCHEMA_VERSION}"
        )
    arch = doc.get("architecture")
    try:
        d = int(doc["d"])
        layer_docs = doc["layers"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError("model file is missing required fields") from exc
    if arch == "dense_ae":
        model = DenseAutoencoder(d)
        if len(layer_docs) != len(model.layers):
            raise ModelFormatError(
                f"expected {len(model.layers)} layers, found {len(layer_docs)}"
            )
        for ldoc, layer in zip(layer_docs, model.layers):
            if ldoc.get("type") != "dense":
                raise ModelFormatError("dense_ae files may only hold dense layers")
            _load_dense_layer(ldoc, layer)
    elif arch == "lstm_ae":
        steps = doc.get("T")
        if not isinstance(steps, int) or steps < 1:
            raise ModelFormatError("lstm_ae files must carry a positive T")
        model = LstmAutoencoder(d, window_length=steps)
        if len(layer_docs) != 6:
            raise ModelFormatError("lstm_ae files must hold exactly 6 layers")
        _load_lstm_layer(layer_docs[0], model.layers[0])
        _load_lstm_layer(layer_docs[1], model.layers[1])
        if layer_docs[2].get("type") != "repeat_vector" or layer_docs[2].get("T") != steps:
            raise ModelFormatError("third layer must be repeat_vector with matching T")
        _load_lstm_layer(layer_docs[3], model.layers[3])
        _load_lstm_layer(layer_docs[4], model.layers[4])
        if layer_docs[5].get("type") != "dense":
            raise ModelFormatError("output head must be a dense layer")
        _load_dense_layer(layer_docs[5], model.layers[5].inner)
    else:
        raise ModelFormatError(f"unknown architecture {arch!r}")

    try:
        scaler = ScalerParams.from_doc(doc["scaler"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError("model file has a bad scaler block") from exc
    if scaler.minimum.shape[0] != d:
        raise ModelFormatError("scaler dimension does not match d")

    threshold = None
    if "threshold" in doc:
        tdoc = doc["threshold"]
        try:
            threshold = ThresholdSpec(
                alpha=float(tdoc["alpha"]),
                tau=float(tdoc["tau"]),
                kind=str(tdoc["kind"]),
                fitted_on=int(tdoc["fitted_on"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError("model file has a bad threshold block") from exc

    covariance = None
    if "covariance" in doc:
        cdoc = doc["covariance"]
        try:
            cd = int(cdoc["d"])
            sigma = _doc_array(cdoc, "sigma", (cd, cd))
            covariance = CovarianceModel.from_sigma(sigma, float(cdoc["epsilon"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError("model file has a bad covariance block") from exc

    return ModelBundle(model, scaler, threshold, covariance)


def save_model(bundle: ModelBundle, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_document(bundle), fh, indent=1)
        fh.write("\n")


def load_model(path) -> ModelBundle:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must hold a JSON object")
    return from_document(doc)
