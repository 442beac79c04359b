import hashlib

import numpy as np
import pytest

from aedetect.errors import NumericError, ValidationError
from aedetect.models import DenseAutoencoder, LstmAutoencoder
from aedetect.neuralnet import (
    Adam,
    DenseLayer,
    LstmLayer,
    RepeatVector,
    TimeDistributedDense,
    sigmoid,
)
from aedetect.training import TrainConfig, train


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6))


def layer_grad_check(layer, x, seed, h=1e-5):
    """Max relative error between analytic and central-difference gradients of
    L = sum(forward(x) * R) over all parameters and the input."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(layer.forward(x).shape)

    def objective():
        return float(np.sum(layer.forward(x) * r))

    layer.forward(x)
    grad_in = layer.backward(r)
    grads = [g.copy() for g in layer.gradients()]
    worst = 0.0
    for p, g in zip(layer.parameters(), grads):
        flat = p.ravel()
        gflat = g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = objective()
            flat[k] = orig - h
            down = objective()
            flat[k] = orig
            worst = max(worst, rel_err(gflat[k], (up - down) / (2 * h)))
    xflat = x.ravel()
    for k in range(xflat.size):
        orig = xflat[k]
        xflat[k] = orig + h
        up = objective()
        xflat[k] = orig - h
        down = objective()
        xflat[k] = orig
        worst = max(worst, rel_err(grad_in.ravel()[k], (up - down) / (2 * h)))
    return worst


class TestDenseForward:
    def test_zero_weights_zero_output(self):
        layer = DenseLayer(3, 2)
        layer.W[:] = 0.0
        assert np.array_equal(layer.forward(np.ones((4, 3))), np.zeros((4, 2)))

    def test_scalar_tanh_value(self):
        layer = DenseLayer(1, 1)
        layer.W[:] = 1.0
        layer.b[:] = 0.0
        out = layer.forward(np.array([[0.5]]))
        assert out[0, 0] == pytest.approx(0.46211716, abs=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            DenseLayer(3, 2).forward(np.ones((4, 5)))

    def test_forward_deterministic(self):
        layer = DenseLayer(4, 3, np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((6, 4))
        assert np.array_equal(layer.forward(x), layer.forward(x))


class TestDenseBackward:
    def test_zero_grad_out(self):
        layer = DenseLayer(4, 2, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((3, 4))
        layer.forward(x)
        grad_in = layer.backward(np.zeros((3, 2)))
        assert not grad_in.any()
        assert not layer.grad_W.any() and not layer.grad_b.any()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        layer = DenseLayer(4, 2, rng)
        x = rng.standard_normal((3, 4))
        assert layer_grad_check(layer, x, seed=0) < 1e-6

    def test_duplicated_rows_double_weight_grad(self):
        rng = np.random.default_rng(3)
        layer = DenseLayer(4, 2, rng)
        x = rng.standard_normal((1, 4))
        g = rng.standard_normal((1, 2))
        layer.forward(x)
        layer.backward(g)
        single = layer.grad_W.copy()
        layer.forward(np.vstack([x, x]))
        layer.backward(np.vstack([g, g]))
        assert np.allclose(layer.grad_W, 2.0 * single, rtol=0, atol=1e-15)


class TestLstm:
    def test_all_zero(self):
        layer = LstmLayer(3, 2, return_sequences=True)
        layer.Wx[:] = 0.0
        layer.Wh[:] = 0.0
        layer.b[:] = 0.0
        out = layer.forward(np.zeros((2, 4, 3)))
        assert not out.any()

    def test_single_cell_hand_value(self):
        layer = LstmLayer(1, 1, return_sequences=False)
        layer.Wx[:] = 0.0
        layer.Wh[:] = 0.0
        layer.b[:] = 0.0
        layer.b[2] = 1.0  # candidate-gate bias so g = tanh(1)
        out = layer.forward(np.zeros((1, 1, 1)))
        # gates i=f=o=0.5, g=tanh(1): h = 0.5*tanh(0.5*tanh(1))
        expected = 0.5 * np.tanh(0.5 * np.tanh(1.0))
        assert out[0, 0] == pytest.approx(expected, abs=1e-12)
        assert out[0, 0] == pytest.approx(0.18169974, abs=1e-8)

    def test_sequence_slice_equals_final_state(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5, 4))
        seq = LstmLayer(4, 3, return_sequences=True, rng=np.random.default_rng(7))
        last = LstmLayer(4, 3, return_sequences=False, rng=np.random.default_rng(7))
        assert np.array_equal(seq.forward(x)[:, -1], last.forward(x))

    def test_bptt_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        layer = LstmLayer(3, 2, return_sequences=True, rng=rng)
        x = rng.standard_normal((2, 3, 3))
        assert layer_grad_check(layer, x, seed=1) < 1e-4

    def test_final_state_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        layer = LstmLayer(3, 2, return_sequences=False, rng=rng)
        x = rng.standard_normal((2, 3, 3))
        assert layer_grad_check(layer, x, seed=2) < 1e-4

    def test_one_step_equals_single_cell(self):
        rng = np.random.default_rng(8)
        layer = LstmLayer(4, 3, return_sequences=False, rng=rng)
        x = rng.standard_normal((2, 1, 4))
        u = layer.units
        xp = x[:, 0] @ layer.Wx.T + layer.b
        i = sigmoid(xp[:, :u])
        f = sigmoid(xp[:, u:2 * u])
        g = np.tanh(xp[:, 2 * u:3 * u])
        o = sigmoid(xp[:, 3 * u:])
        c = i * g
        expected = o * np.tanh(c)
        assert np.allclose(layer.forward(x), expected, rtol=0, atol=1e-15)

    def test_matches_batch_major_reference(self):
        rng = np.random.default_rng(10)
        layer = LstmLayer(4, 3, return_sequences=True, rng=rng)
        x = rng.standard_normal((11, 6, 4))
        u = layer.units
        h = c = np.zeros((11, u))
        expected = []
        for t in range(6):
            z = x[:, t] @ layer.Wx.T + h @ layer.Wh.T + layer.b
            i, f, o = (two_branch_sigmoid(z[:, k * u:(k + 1) * u]) for k in (0, 1, 3))
            c = f * c + i * np.tanh(z[:, 2 * u:3 * u])
            h = o * np.tanh(c)
            expected.append(h)
        assert np.allclose(layer.forward(x), np.stack(expected, axis=1),
                           rtol=0, atol=1e-14)

    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(9)
        layer = LstmLayer(3, 2, return_sequences=True, rng=rng)
        x = rng.standard_normal((2, 4, 3))
        layer.forward(x)
        grad_in = layer.backward(np.zeros((2, 4, 2)))
        assert not grad_in.any()
        assert not any(g.any() for g in layer.gradients())


class TestRepeatAndTimeDistributed:
    def test_repeat_copies(self):
        out = RepeatVector(3).forward(np.array([[1.0, 2.0]]))
        assert out.tolist() == [[[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]]

    def test_repeat_backward_sums(self):
        layer = RepeatVector(3)
        grad = layer.backward(np.ones((1, 3, 2)))
        assert grad.tolist() == [[3.0, 3.0]]

    def test_time_distributed_zero_weights(self):
        layer = TimeDistributedDense(4, 2)
        layer.inner.W[:] = 0.0
        out = layer.forward(np.ones((2, 5, 4)))
        assert not out.any()

    def test_repeat_grad_check(self):
        x = np.random.default_rng(1).standard_normal((2, 4))
        assert layer_grad_check(RepeatVector(3), x, seed=3) < 1e-6

    def test_time_distributed_grad_check(self):
        rng = np.random.default_rng(2)
        layer = TimeDistributedDense(4, 3, rng)
        x = rng.standard_normal((2, 5, 4))
        assert layer_grad_check(layer, x, seed=4) < 1e-4


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = np.array([1.0, -2.0])
        opt = Adam([p], learning_rate=0.01)
        for _ in range(5):
            opt.step([np.zeros(2)])
        assert p.tolist() == [1.0, -2.0]

    def test_first_step_scalar(self):
        p = np.array([0.0])
        opt = Adam([p], learning_rate=0.001)
        opt.step([np.array([1.0])])
        assert p[0] == pytest.approx(-0.000999999990, abs=1e-12)

    def test_identical_params_update_identically(self):
        a, b = np.array([0.3]), np.array([0.3])
        opt = Adam([a, b], learning_rate=0.01)
        for _ in range(7):
            opt.step([np.array([0.5]), np.array([0.5])])
        assert a[0] == b[0]

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal(5)
        before = p.copy()
        opt = Adam([p], learning_rate=0.0)
        for _ in range(3):
            opt.step([rng.standard_normal(5)])
        assert np.array_equal(p, before)

    def test_non_finite_gradient_raises(self):
        opt = Adam([np.zeros(2)], learning_rate=0.01)
        with pytest.raises(NumericError):
            opt.step([np.array([np.nan, 0.0])])

    @pytest.mark.parametrize("grad_shape", [(1,), (5, 1)])
    def test_gradient_shape_must_match_parameter(self, grad_shape):
        # a (1,) gradient would broadcast over all five weights, and a (5, 1)
        # one has the right number of floats in the wrong shape
        p = np.arange(5.0)
        opt = Adam([np.zeros(3), p], learning_rate=0.01)
        with pytest.raises(ValidationError, match="gradient 1"):
            opt.step([np.ones(3), np.ones(grad_shape)])
        assert p.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_empty_parameter_list_is_a_no_op(self):
        Adam([], learning_rate=0.01).step([])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_matches_per_array_form_bit_for_bit(self):
        rng = np.random.default_rng(17)
        shapes = [(64, 8), (64, 16), (64,), (36, 8)]
        start = [rng.standard_normal(s) for s in shapes]
        grad_steps = [[mixed_gradient(rng, s) for s in shapes] for _ in range(40)]
        rates = [1e-3] * 20 + [1e-3 * 0.2] * 20
        params = [p.copy() for p in start]
        opt = Adam(params, learning_rate=1e-3)
        for step, grads in enumerate(grad_steps):
            if step == 20:
                opt.learning_rate *= 0.2
            opt.step(grads)
        expected = adam_per_array([p.copy() for p in start], grad_steps, rates)
        assert [p.tobytes() for p in params] == [p.tobytes() for p in expected]
        # the per-array form's result, recorded with the optimizer that
        # looped over the parameter arrays
        digest = hashlib.sha256(b"".join(p.tobytes() for p in expected))
        assert digest.hexdigest()[:16] == ADAM_PER_ARRAY_DIGEST


ADAM_PER_ARRAY_DIGEST = "b5fa71d87b417f2a"


def mixed_gradient(rng, shape):
    """Gradient with zeros, subnormals, values up to 1e300 (whose squares
    overflow the second moment to inf) and ordinary values of either sign."""
    g = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-8.0, 1.0, shape)
    kind = rng.integers(0, 20, shape)
    g[kind == 0] = 0.0
    g[kind == 1] = rng.uniform(-1.0, 1.0, shape)[kind == 1] * 2.0 ** -1030
    g[kind == 2] = rng.uniform(-1.0, 1.0, shape)[kind == 2] * 10.0 ** rng.uniform(
        150.0, 300.0, shape)[kind == 2]
    return g


def adam_per_array(params, grad_steps, rates, beta1=0.9, beta2=0.999, epsilon=1e-8):
    """Adam as a loop over the parameter arrays, one array at a time, with
    `rates[k]` the learning rate of step k; returns the updated params."""
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t, (grads, lr) in enumerate(zip(grad_steps, rates), start=1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for p, g, m, v in zip(params, grads, ms, vs):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + epsilon)
    return params


class TestActivationRanges:
    # float64 rounds tanh/sigmoid to exactly +-1/1 beyond ~19/36, so probe
    # the open-interval property on the representable range
    def test_tanh_open_interval(self):
        x = np.linspace(-18, 18, 1001)
        y = np.tanh(x)
        assert np.all(y > -1.0) and np.all(y < 1.0)

    def test_sigmoid_open_interval(self):
        x = np.linspace(-30, 30, 1001)
        y = sigmoid(x)
        assert np.all(y > 0.0) and np.all(y < 1.0)


def two_branch_sigmoid(x):
    """Reference: 1/(1+exp(-x)) on x >= 0 and exp(x)/(1+exp(x)) elsewhere,
    each branch evaluated on its own masked subset."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoidBits:
    """`sigmoid` is 0.5 * tanh(x / 2) + 0.5: within 2**-51 of the two-branch
    form everywhere, and exact where the logistic function is."""

    def test_matches_two_branch_form_within_tolerance(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([
            rng.normal(scale=s, size=2000) for s in (0.1, 1.0, 10.0, 800.0)
        ] + [np.array([5e-324, -5e-324, 709.8, -745.1, 36.0, -36.0])])
        with np.errstate(over="ignore"):
            expected = two_branch_sigmoid(x)
        assert np.max(np.abs(sigmoid(x) - expected)) <= 2.0 ** -51

    def test_exact_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        y = sigmoid(x)
        assert y[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
        assert np.isnan(y[4])

    def test_no_floating_point_warning_at_large_magnitude(self):
        with np.errstate(all="raise"):
            assert sigmoid(np.array([800.0, -800.0])).tolist() == [1.0, 0.0]

    def test_in_place_equals_out_of_place(self):
        x = np.random.default_rng(1).normal(scale=5.0, size=(64, 257))
        expected = sigmoid(x)
        y = x.copy()
        assert sigmoid(y, out=y) is y
        assert y.tobytes() == expected.tobytes()


WIDTHS = list(range(1, 25)) + list(range(1017, 1033))


class TestWidthInvariance:
    """An item's outputs do not depend on how many items share its forward
    pass, at every width residue mod 8."""

    @pytest.mark.parametrize("cache", [True, False])
    def test_lstm_prefix_equals_full_pass(self, cache):
        model = LstmAutoencoder(d=8, window_length=5, seed=4)
        x = np.random.default_rng(0).random((1040, 5, 8))
        recon = model.forward(x, cache=cache)
        for n in WIDTHS:
            assert model.forward(x[:n], cache=cache).tobytes() \
                == recon[:n].tobytes(), n

    def test_dense_prefix_equals_full_pass(self):
        # from 1017 rows only: below about 150 rows (d = 8) OpenBLAS's
        # SkylakeX kernels take a small-matrix path for the 36-wide products
        # that rounds differently
        model = DenseAutoencoder(d=8, seed=3)
        x = np.random.default_rng(0).random((1040, 8))
        recon = model.forward(x, cache=False)
        for n in WIDTHS[24:]:
            assert model.forward(x[:n], cache=False).tobytes() \
                == recon[:n].tobytes(), n


class TestInferencePass:
    @pytest.mark.parametrize("batch", [1, 57, 257])
    def test_no_cache_forward_is_bitwise_equal(self, batch):
        model = LstmAutoencoder(d=8, window_length=5, seed=3)
        x = np.random.default_rng(batch).uniform(size=(batch, 5, 8))
        recon = model.forward(x)
        assert model.forward(x, cache=False).tobytes() == recon.tobytes()

    def test_backward_after_no_cache_forward_raises(self):
        model = LstmAutoencoder(d=3, window_length=4, seed=0)
        x = np.random.default_rng(0).uniform(size=(6, 4, 3))
        model.forward(x)
        model.forward(x, cache=False)  # drops the cache of the pass before
        with pytest.raises(ValidationError):
            model.backward(np.ones_like(x))
        layer = LstmLayer(3, 2, return_sequences=True)
        layer.forward(x, cache=False)
        with pytest.raises(ValidationError):
            layer.backward(np.ones((6, 4, 2)))


def test_seeded_lstm_training_bytes_are_pinned():
    """Two seeded epochs over 300 windows (batches of 256 and 44, validation
    through the inference pass) must reproduce these parameter bytes. A
    kernel change that moves any float changes the digest; the digest holds
    for a given numpy and BLAS build."""
    rng = np.random.default_rng(11)
    train_items = rng.uniform(size=(300, 5, 8))
    val_items = rng.uniform(size=(100, 5, 8))
    model = LstmAutoencoder(d=8, window_length=5, seed=4)
    config = TrainConfig(max_epochs=2, batch_size=256, learning_rate=1e-2, seed=4)
    model, report, _ = train(model, train_items, val_items, config)
    assert report.epochs_run == 2 and report.best_epoch == 2
    digest = hashlib.sha256(b"".join(p.tobytes() for p in model.parameters()))
    assert digest.hexdigest() == (
        "c6ad253a52daf199ac9fa4e66bdf5764cc038276e6be2f32c3d1ad5a81e42308"
    )
