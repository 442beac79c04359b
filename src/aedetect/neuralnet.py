"""Minimal neural-network core: dense and LSTM layers with hand-derived
backward passes, and Adam. When to cut the learning rate or stop is decided
in `training.train`.

Everything is float64. Layers keep the forward cache on the instance, so one
layer object serves one forward/backward pair at a time; `forward(x,
cache=False)` is the inference pass, which keeps nothing and cannot be
followed by `backward`. Parameters are plain numpy arrays updated in place by
the optimizer; a layer built without a generator starts them at zero, for a
model file to fill.

The LSTM layer computes feature-major, one column per item, on a batch padded
to a multiple of 8 columns (see `LstmLayer`).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5 * tanh(x / 2) + 0.5, which cannot overflow;
    within 2**-52 of the two-branch exp form, exactly 0.5 at +-0, and `out`
    may alias `x`."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def glorot_uniform(rng: np.random.Generator | None, fan_in: int, fan_out: int,
                   shape) -> np.ndarray:
    """Glorot-uniform draws from `rng`, or zeros when there is none."""
    if rng is None:
        return np.zeros(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {what}")


def _cached(cache, layer: str):
    if cache is None:
        raise ValidationError(
            f"{layer} backward needs a preceding forward(x, cache=True)"
        )
    return cache


class DenseLayer:
    """y = tanh(x @ W.T + b), the one activation both models use; W is (out, in)."""

    def __init__(self, in_size: int, out_size: int,
                 rng: np.random.Generator | None = None):
        self.in_size = in_size
        self.out_size = out_size
        self.W = glorot_uniform(rng, in_size, out_size, (out_size, in_size))
        self.b = np.zeros(out_size)
        self.grad_W = np.zeros_like(self.W)
        self.grad_b = np.zeros_like(self.b)
        self._cache = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_size:
            raise ValidationError(
                f"dense layer expects (batch, {self.in_size}), got {x.shape}"
            )
        y = np.tanh(x @ self.W.T + self.b)
        _check_finite(y, "dense forward")
        self._cache = (x, y) if cache else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, y = _cached(self._cache, "dense")
        dz = grad_out * (1.0 - y * y)
        self.grad_W = dz.T @ x
        self.grad_b = dz.sum(axis=0)
        return dz @ self.W

    def parameters(self):
        return [self.W, self.b]

    def gradients(self):
        return [self.grad_W, self.grad_b]


GRAD_BLOCK = 1024  # batch columns per weight-gradient product


def _step_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over t of a[t] @ b[t].T for (T, m, width) and (T, n, width) arrays,
    one GRAD_BLOCK-column block of the width at a time, each later block added
    with `+=` (`sum()` would turn -0.0 into +0.0). OpenBLAS rounds a product
    with an inner dimension of at most 1 024 alike at any thread count."""
    def block(lo):
        cols = slice(lo, lo + GRAD_BLOCK)
        return (a[:, :, cols] @ b[:, :, cols].transpose(0, 2, 1)).sum(axis=0)
    total = block(0)
    for lo in range(GRAD_BLOCK, a.shape[2], GRAD_BLOCK):
        total += block(lo)
    return total


class LstmLayer:
    """Standard LSTM over (batch, T, in) inputs.

    Per step: i = sig(x Wi' + h Ui' + bi), f, o likewise, g = tanh(...),
    c <- f*c + i*g, h <- o*tanh(c). Weights are stored stacked as
    Wx (4u, in), Wh (4u, u), b (4u,) in GATES order; forget bias starts at 1.

    Inside, everything is feature-major, one column per item: inputs
    (T, in, width), gates (T, 4u, width) straight from `Wx @ x_t` and
    `Wh @ h`, cells and hidden states (T, u, width); i, f share one sigmoid
    call. Weight gradients are per-step products over 1 024-column blocks of
    the batch, summed over T and then over the blocks (`_step_products`), so
    their bits do not depend on the BLAS thread count at any batch.

    `width` is the batch padded with zero columns to a multiple of 8: OpenBLAS
    can round an item's column differently with the product's width when it
    is not a multiple of 8, while multiples of 8 round alike, so an item's
    outputs do not depend on its batch. Padding columns get zero gradients and
    are sliced off. These products round differently from the batch-major
    `x_t @ Wx.T` of the textbook form, so the bits differ from it in the last
    places.
    """

    GATES = ("input", "forget", "candidate", "output")

    def __init__(self, in_size: int, units: int, return_sequences: bool,
                 rng: np.random.Generator | None = None):
        self.in_size = in_size
        self.units = units
        self.return_sequences = return_sequences
        self.Wx = glorot_uniform(rng, in_size, units, (4 * units, in_size))
        self.Wh = glorot_uniform(rng, units, units, (4 * units, units))
        self.b = np.zeros(4 * units)
        self.b[units : 2 * units] = 1.0  # forget gate
        self.grad_Wx = np.zeros_like(self.Wx)
        self.grad_Wh = np.zeros_like(self.Wh)
        self.grad_b = np.zeros_like(self.b)
        self._cache = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.in_size:
            raise ValidationError(
                f"lstm layer expects (batch, T, {self.in_size}), got {x.shape}"
            )
        batch, steps, _ = x.shape
        u = self.units
        width = -(-batch // 8) * 8
        xs = np.zeros((steps, self.in_size, width))
        xs[:, :, :batch] = x.transpose(1, 2, 0)
        gates = self.Wx @ xs
        gates += self.b[:, None]
        # without a cache, one slot of each other per-step buffer is reused,
        # except for the hidden states when the whole sequence is returned
        kept = steps if cache else 1
        cells = np.empty((kept, u, width))
        tanh_c = np.empty((kept, u, width))
        hs = np.empty((steps if cache or self.return_sequences else 1, u, width))
        h = np.zeros((u, width))
        c = np.zeros((u, width))
        ig = np.empty((u, width))
        for t in range(steps):
            a = gates[t]
            if t:
                a += self.Wh @ h
            sigmoid(a[: 2 * u], out=a[: 2 * u])
            np.tanh(a[2 * u : 3 * u], out=a[2 * u : 3 * u])
            sigmoid(a[3 * u :], out=a[3 * u :])
            np.multiply(a[:u], a[2 * u : 3 * u], out=ig)
            c = np.multiply(a[u : 2 * u], c, out=cells[t % kept])
            c += ig
            tc = np.tanh(c, out=tanh_c[t % kept])
            h = np.multiply(a[3 * u :], tc, out=hs[t % hs.shape[0]])
        _check_finite(hs, "lstm forward")
        self._cache = (batch, xs, gates, cells, tanh_c, hs) if cache else None
        if self.return_sequences:
            return np.ascontiguousarray(hs[:, :, :batch].transpose(2, 0, 1))
        return h[:, :batch].T

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        batch, xs, gates, cells, tanh_c, hs = _cached(self._cache, "lstm")
        steps, u, width = hs.shape
        dhs = np.zeros((steps, u, width))
        if self.return_sequences:
            dhs[:, :, :batch] = np.transpose(grad_out, (1, 2, 0))
        else:
            dhs[-1, :, :batch] = np.transpose(grad_out)
        # pre-activation gate grads of every step
        da = np.empty((steps, 4 * u, width))
        dh = np.empty((u, width))
        dc = np.empty((u, width))
        dh_next = np.zeros((u, width))
        dc_next = np.zeros((u, width))
        c_zero = np.zeros((u, width))
        for t in range(steps - 1, -1, -1):
            i, f, g, o = (gates[t, k * u : (k + 1) * u] for k in range(4))
            di, df, dg, do = (da[t, k * u : (k + 1) * u] for k in range(4))
            one_minus = 1.0 - gates[t]
            c_prev = cells[t - 1] if t else c_zero
            np.add(dhs[t], dh_next, out=dh)
            np.multiply(dh, o, out=dc)
            dc *= 1.0 - tanh_c[t] ** 2
            dc += dc_next
            np.multiply(dc, g, out=di)
            di *= i
            di *= one_minus[:u]
            np.multiply(dc, c_prev, out=df)
            df *= f
            df *= one_minus[u : 2 * u]
            np.multiply(dc, i, out=dg)
            dg *= 1.0 - g * g
            np.multiply(dh, tanh_c[t], out=do)
            do *= o
            do *= one_minus[3 * u :]
            dh_next = self.Wh.T @ da[t]
            np.multiply(dc, f, out=dc_next)
        self.grad_Wx = _step_products(da, xs)
        self.grad_Wh = _step_products(da[1:], hs[:-1])
        self.grad_b = da.sum(axis=(0, 2))
        dx = self.Wx.T @ da
        return np.ascontiguousarray(dx[:, :, :batch].transpose(2, 0, 1))

    def parameters(self):
        return [self.Wx, self.Wh, self.b]

    def gradients(self):
        return [self.grad_Wx, self.grad_Wh, self.grad_b]


class RepeatVector:
    """Copies a (batch, k) vector T times to (batch, T, k)."""

    def __init__(self, steps: int):
        self.steps = steps

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        if x.ndim != 2:
            raise ValidationError(f"repeat_vector expects (batch, k), got {x.shape}")
        return np.repeat(x[:, None, :], self.steps, axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.sum(axis=1)

    def parameters(self):
        return []

    def gradients(self):
        return []


class TimeDistributedDense:
    """One shared dense layer applied to every time step of (batch, T, in)."""

    def __init__(self, in_size: int, out_size: int,
                 rng: np.random.Generator | None = None):
        self.inner = DenseLayer(in_size, out_size, rng)

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        if x.ndim != 3:
            raise ValidationError(
                f"time-distributed layer expects (batch, T, in), got {x.shape}"
            )
        batch, steps, k = x.shape
        y = self.inner.forward(x.reshape(batch * steps, k), cache)
        return y.reshape(batch, steps, self.inner.out_size)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        batch, steps, k = grad_out.shape
        dx = self.inner.backward(grad_out.reshape(batch * steps, k))
        return dx.reshape(batch, steps, self.inner.in_size)

    def parameters(self):
        return self.inner.parameters()

    def gradients(self):
        return self.inner.gradients()


class Adam:
    """Adam with bias correction (Kingma & Ba, 2015); updates parameter arrays
    in place.

    Both moments are flat vectors over all parameters, so a step is one
    elementwise pass (a per-array loop pays numpy's call overhead 10+ times
    per array). Elementwise IEEE arithmetic does not depend on layout, so
    every weight rounds exactly as in that loop.
    """

    def __init__(self, params: list[np.ndarray], learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self._shapes = [p.shape for p in params]
        bounds = np.cumsum([0] + [p.size for p in params])
        self.m = np.zeros(bounds[-1])
        self.v = np.zeros(bounds[-1])
        # `_flat` holds a step's gradients, then its update; `_updates` are
        # each parameter's share of it
        self._flat = np.empty(bounds[-1])
        self._updates = [self._flat[lo:hi].reshape(p.shape)
                         for p, lo, hi in zip(params, bounds, bounds[1:])]

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValidationError("gradient list does not match parameter list")
        if not grads:
            return
        shapes = [g.shape for g in grads]
        if shapes != self._shapes:
            k = next(k for k, s in enumerate(shapes) if s != self._shapes[k])
            raise ValidationError(f"gradient {k} has shape {shapes[k]}, "
                                  f"its parameter {self._shapes[k]}")
        g = np.concatenate([x.reshape(-1) for x in grads], out=self._flat)
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (g * g)
        np.divide(self.learning_rate * (self.m / bc1),
                  np.sqrt(self.v / bc2) + self.epsilon, out=self._flat)
        for p, update in zip(self.params, self._updates):
            p -= update

