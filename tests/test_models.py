import json

import numpy as np
import pytest

from aedetect import models
from aedetect.detector import ThresholdSpec
from aedetect.errors import ModelFormatError
from aedetect.models import (
    DenseAutoencoder,
    LstmAutoencoder,
    ModelBundle,
    from_document,
    load_model,
    save_model,
    to_document,
)
from aedetect.preprocess import ScalerParams
from aedetect.training import CovarianceModel


def zero_weights(model):
    for p in model.parameters():
        p[:] = 0.0


def make_scaler(d):
    return ScalerParams(np.zeros(d), np.ones(d), 10)


class TestDenseAutoencoder:
    def test_zero_weights_give_zero_outputs(self):
        model = DenseAutoencoder(d=5, seed=0)
        zero_weights(model)
        assert not model.forward(np.random.default_rng(0).random((3, 5))).any()

    def test_output_shapes(self):
        model = DenseAutoencoder(d=51, seed=0)
        assert model.forward(np.zeros((7, 51))).shape == (7, 51)

    def test_matches_manual_layer_chain(self):
        model = DenseAutoencoder(d=6, seed=3)
        x = np.random.default_rng(1).random((4, 6))
        h = x
        for layer in model.layers:
            h = layer.forward(h)
        assert np.array_equal(model.forward(x), h)

    def test_parameter_count_formula(self):
        # sum of out*in + out along d -> 36 -> 12 -> 8 -> 12 -> 36 -> d
        sizes = [51, 36, 12, 8, 12, 36, 51]
        expected = sum(a * b + b for a, b in zip(sizes, sizes[1:]))
        assert expected == 4883
        assert sum(p.size for p in DenseAutoencoder(d=51, seed=0).parameters()) \
            == expected


class TestLstmAutoencoder:
    def test_zero_weights_zero_reconstruction(self):
        model = LstmAutoencoder(d=4, window_length=5, seed=0)
        zero_weights(model)
        assert not model.forward(np.random.default_rng(0).random((2, 5, 4))).any()

    def test_shapes(self):
        model = LstmAutoencoder(d=51, window_length=5, seed=0)
        assert model.forward(np.zeros((3, 5, 51))).shape == (3, 5, 51)

    @pytest.mark.parametrize("batch,steps,d", [(1, 3, 2), (4, 5, 8), (2, 7, 3)])
    def test_output_shape_equals_input_shape(self, batch, steps, d):
        model = LstmAutoencoder(d=d, window_length=steps, seed=1)
        assert model.forward(np.zeros((batch, steps, d))).shape == (batch, steps, d)

    def test_matches_manual_chain(self):
        model = LstmAutoencoder(d=4, window_length=5, seed=2)
        x = np.random.default_rng(2).random((3, 5, 4))
        h = x
        for layer in model.layers:
            h = layer.forward(h)
        assert np.array_equal(model.forward(x), h)

    def test_encoder_stack_sizes(self):
        model = LstmAutoencoder(d=10, window_length=5, seed=0)
        assert model.layers[0].units == 16
        assert model.layers[1].units == 8
        assert model.layers[3].units == 8
        assert model.layers[4].units == 16


@pytest.mark.parametrize("build", (
    lambda seed: DenseAutoencoder(d=3, seed=seed),
    lambda seed: LstmAutoencoder(d=3, window_length=4, seed=seed),
), ids=("dense", "lstm"))
def test_seed_none_draws_no_weights(build):
    # every weight matrix is zero; the biases are never drawn, so they equal
    # a seeded model's (zero, and 1 for an LSTM's forget gate)
    for bare, seeded in zip(build(None).parameters(), build(0).parameters()):
        if seeded.ndim == 1:
            assert np.array_equal(bare, seeded)
        else:
            assert not bare.any()


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = DenseAutoencoder(d=7, seed=5)
        bundle = ModelBundle(model, make_scaler(7))
        path = tmp_path / "m.json"
        save_model(bundle, path)
        loaded = load_model(path)
        for a, b in zip(model.parameters(), loaded.model.parameters()):
            assert np.array_equal(a, b)

    def test_save_load_save_byte_identical(self, tmp_path):
        model = LstmAutoencoder(d=3, window_length=4, seed=6)
        cov = CovarianceModel.from_sigma(np.eye(3) * 2.0, 1e-9)
        bundle = ModelBundle(model, make_scaler(3),
                             ThresholdSpec(95.0, 0.5, "mse_window", 100), cov)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(bundle, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_window_recipe_holds_the_stride(self):
        bundle = ModelBundle(LstmAutoencoder(d=3, window_length=4, seed=0),
                             make_scaler(3), window_stride=2)
        doc = to_document(bundle)
        assert doc["window_recipe"] == {"stride": 2}
        # older files also record the seed and share of a window-level
        # validation draw, which no stage reads
        doc["window_recipe"].update(seed=5, validation_ratio=0.2)
        assert from_document(doc).window_stride == 2

    def test_forward_identical_after_reload(self, tmp_path):
        model = LstmAutoencoder(d=4, window_length=5, seed=7)
        x = np.random.default_rng(3).random((2, 5, 4))
        before = model.forward(x)
        path = tmp_path / "m.json"
        save_model(ModelBundle(model, make_scaler(4)), path)
        after = load_model(path).model.forward(x)
        assert np.array_equal(before, after)

    def test_unknown_schema_version(self, tmp_path):
        model = DenseAutoencoder(d=3, seed=0)
        doc = to_document(ModelBundle(model, make_scaler(3)))
        doc["schema_version"] = 99
        with pytest.raises(ModelFormatError):
            from_document(doc)

    def test_truncated_file(self, tmp_path):
        model = DenseAutoencoder(d=3, seed=0)
        path = tmp_path / "m.json"
        save_model(ModelBundle(model, make_scaler(3)), path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("arch, corrupt", [
        ("dense_ae", lambda doc: doc["layers"][0].update(W=doc["layers"][0]["W"][:-1])),
        ("lstm_ae", lambda doc: doc.update(layers=5)),
        ("lstm_ae", lambda doc: doc["layers"].__setitem__(3, 7)),
        ("lstm_ae", lambda doc: doc["layers"][5].update(activation="relu")),
        ("lstm_ae", lambda doc: doc["layers"][0].update(type="dense")),
        ("lstm_ae", lambda doc: doc["layers"][1].update(return_sequences=True)),
        ("lstm_ae", lambda doc: doc["layers"][2].update(T=5)),
        ("lstm_ae", lambda doc: doc["window_recipe"].update(stride=0)),
        ("dense_ae", lambda doc: doc.update(covariance={
            "d": 3, "sigma": (-np.eye(3)).ravel().tolist(), "epsilon": 0.0})),
        ("dense_ae", lambda doc: doc.update(covariance={
            "d": 2, "sigma": np.eye(2).ravel().tolist(), "epsilon": 0.0})),
    ], ids=["dense-short-W", "layers-not-a-list", "layer-not-an-object",
            "head-activation", "lstm-type", "lstm-return-sequences",
            "repeat-T", "recipe-stride", "sigma-not-positive-definite",
            "covariance-d"])
    def test_shape_inconsistency(self, arch, corrupt):
        if arch == "dense_ae":
            bundle = ModelBundle(DenseAutoencoder(d=3, seed=0), make_scaler(3))
        else:
            bundle = ModelBundle(LstmAutoencoder(d=3, window_length=4, seed=0),
                                 make_scaler(3), window_stride=1)
        doc = to_document(bundle)
        corrupt(doc)
        with pytest.raises(ModelFormatError):
            from_document(doc)

    def test_threshold_and_covariance_survive(self, tmp_path):
        model = DenseAutoencoder(d=2, seed=1)
        sigma = np.array([[2.0, 0.3], [0.3, 1.5]])
        bundle = ModelBundle(model, make_scaler(2),
                             ThresholdSpec(95.0, 0.125, "mahalanobis", 42),
                             CovarianceModel.from_sigma(sigma, 1e-8))
        path = tmp_path / "m.json"
        save_model(bundle, path)
        loaded = load_model(path)
        assert loaded.threshold == bundle.threshold
        assert np.array_equal(loaded.covariance.sigma, sigma)
        ident = loaded.covariance.sigma_inv_sqrt @ loaded.covariance.sigma_inv_sqrt \
            @ sigma
        assert np.allclose(ident, np.eye(2), atol=1e-10)

    # JSON numbers that no float or int holds: 1e999 reads as inf
    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["threshold"].update(fitted_on=1e999),
        lambda doc: doc["threshold"].update(alpha=10 ** 400),
        lambda doc: doc["scaler"].update(fitted_on=1e999),
        lambda doc: doc["layers"][0]["W"].__setitem__(0, 10 ** 400),
    ], ids=["fitted-on-inf", "alpha-huge-int", "scaler-fitted-on-inf",
            "weight-huge-int"])
    def test_out_of_range_number_is_format_error(self, corrupt):
        doc = to_document(ModelBundle(DenseAutoencoder(d=3, seed=0), make_scaler(3),
                                      ThresholdSpec(95.0, 0.5, "mse_point", 10)))
        corrupt(doc)
        with pytest.raises(ModelFormatError):
            from_document(doc)

    def test_scaler_dimension_checked(self, tmp_path):
        model = DenseAutoencoder(d=3, seed=0)
        doc = to_document(ModelBundle(model, make_scaler(3)))
        doc["scaler"]["min"] = [0.0, 0.0]
        doc["scaler"]["max"] = [1.0, 1.0]
        with pytest.raises(ModelFormatError):
            from_document(doc)

    def test_file_is_json_object(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ModelFormatError):
            load_model(path)


def test_a_save_that_fails_mid_document_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    bundle = ModelBundle(DenseAutoencoder(d=3, seed=0), make_scaler(3))
    save_model(bundle, path)
    old = path.read_bytes()
    # the layers serialise before the last key, which json cannot write
    monkeypatch.setattr(models, "to_document",
                        lambda b: {**to_document(b), "zz": object()})
    with pytest.raises(TypeError):
        save_model(bundle, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
