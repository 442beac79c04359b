"""Minimal neural-network core: dense and LSTM layers with hand-derived
backward passes, Adam, and the two training callbacks.

Everything is float64. Layers keep the forward cache on the instance, so one
layer object serves one forward/backward pair at a time; `forward(x,
cache=False)` is the inference pass, which keeps nothing and cannot be
followed by `backward`. Parameters are plain numpy arrays updated in place by
the optimizer.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e) where x >= 0 and e/(1+e)
    elsewhere, with e = exp(-|x|); min(x, -x) keeps a NaN's sign. `out` may
    alias `x`."""
    e = np.exp(np.minimum(x, -x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {what}")


def _steps_product(a: np.ndarray, w: np.ndarray, time_major: bool = False) -> np.ndarray:
    """Every row of a (batch, T, k) times w (k, n) in one product over the
    batch*T rows; returned as (batch, T, n), or as (T, batch, n) when
    time_major. Each row rounds as in numpy's stacked product `a @ w`, which
    multiplies item by item, except that it takes one-row items (T = 1) as
    vector-matrix products; that case keeps the stacked form."""
    batch, steps, k = a.shape
    if steps == 1:
        out = a @ w
        return out.transpose(1, 0, 2) if time_major else out
    if time_major:
        a = np.ascontiguousarray(a.transpose(1, 0, 2))
    return (a.reshape(-1, k) @ w).reshape(a.shape[0], a.shape[1], w.shape[1])


def _cached(cache, layer: str):
    if cache is None:
        raise ValidationError(
            f"{layer} backward needs a preceding forward(x, cache=True)"
        )
    return cache


class DenseLayer:
    """y = act(x @ W.T + b) with act in {tanh, linear}; W is (out, in)."""

    def __init__(self, in_size: int, out_size: int, activation: str = "tanh",
                 rng: np.random.Generator | None = None):
        if activation not in ("tanh", "linear"):
            raise ValidationError(f"unknown activation {activation!r}")
        self.in_size = in_size
        self.out_size = out_size
        self.activation = activation
        rng = rng or np.random.default_rng(0)
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
        z = x @ self.W.T + self.b
        y = np.tanh(z) if self.activation == "tanh" else z
        _check_finite(y, "dense forward")
        self._cache = (x, y) if cache else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, y = _cached(self._cache, "dense")
        if self.activation == "tanh":
            dz = grad_out * (1.0 - y * y)
        else:
            dz = grad_out
        self.grad_W = dz.T @ x
        self.grad_b = dz.sum(axis=0)
        return dz @ self.W

    def parameters(self):
        return [self.W, self.b]

    def gradients(self):
        return [self.grad_W, self.grad_b]


class LstmLayer:
    """Standard LSTM over (batch, T, in) inputs.

    Per step: i = sig(x Wi' + h Ui' + bi), f, o likewise, g = tanh(...),
    c <- f*c + i*g, h <- o*tanh(c). Weights are stored stacked as
    Wx (4u, in), Wh (4u, u), b (4u,) in GATES order; forget bias starts at 1.

    Per-step state is feature-major: gates (T, 4u, batch), cells and hidden
    states (T, u, batch), so every gate block is one contiguous (u, batch)
    array and i, f share one sigmoid call. Products keep the (batch, features)
    operand order and weight gradients sum rows in (batch, time) order, so
    every float equals that of the batch-major textbook form.
    """

    GATES = ("input", "forget", "candidate", "output")

    def __init__(self, in_size: int, units: int, return_sequences: bool,
                 rng: np.random.Generator | None = None):
        self.in_size = in_size
        self.units = units
        self.return_sequences = return_sequences
        rng = rng or np.random.default_rng(0)
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
        xp = _steps_product(x, self.Wx.T, time_major=True)  # (T, batch, 4u)
        # without a cache, one slot of each per-step buffer is reused, except
        # for the hidden states when the whole sequence is returned
        kept = steps if cache else 1
        gates = np.empty((kept, 4 * u, batch))
        cells = np.empty((kept, u, batch))
        tanh_c = np.empty((kept, u, batch))
        hs = np.empty((steps if cache or self.return_sequences else 1, u, batch))
        h = np.zeros((u, batch))
        c = np.zeros((u, batch))
        ig = np.empty((u, batch))
        for t in range(steps):
            pre = xp[t]
            pre += h.T @ self.Wh.T
            pre += self.b
            a = gates[t % kept]
            a[...] = pre.T
            sigmoid(a[: 2 * u], out=a[: 2 * u])
            np.tanh(a[2 * u : 3 * u], out=a[2 * u : 3 * u])
            sigmoid(a[3 * u :], out=a[3 * u :])
            np.multiply(a[:u], a[2 * u : 3 * u], out=ig)
            c = np.multiply(a[u : 2 * u], c, out=cells[t % kept])
            c += ig
            tc = np.tanh(c, out=tanh_c[t % kept])
            h = np.multiply(a[3 * u :], tc, out=hs[t % hs.shape[0]])
        _check_finite(hs, "lstm forward")
        self._cache = (x, gates, cells, tanh_c, hs) if cache else None
        if self.return_sequences:
            return np.ascontiguousarray(hs.transpose(2, 0, 1))
        return h.T

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, gates, cells, tanh_c, hs = _cached(self._cache, "lstm")
        steps, u, batch = hs.shape
        dhs = np.zeros((steps, u, batch))
        if self.return_sequences:
            dhs[...] = np.transpose(grad_out, (1, 2, 0))
        else:
            dhs[-1] = np.transpose(grad_out)
        # pre-activation gate grads: d holds one step, da every step in
        # (batch, time) row order for the weight gradients
        da = np.empty((batch, steps, 4 * u))
        d = np.empty((4 * u, batch))
        di, df, dg, do = (d[k * u : (k + 1) * u] for k in range(4))
        dh = np.empty((u, batch))
        dc = np.empty((u, batch))
        dh_next = np.zeros((u, batch))
        dc_next = np.zeros((u, batch))
        c_zero = np.zeros((u, batch))
        for t in range(steps - 1, -1, -1):
            i, f, g, o = (gates[t, k * u : (k + 1) * u] for k in range(4))
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
            da[:, t] = d.T
            dh_next = (da[:, t] @ self.Wh).T
            np.multiply(dc, f, out=dc_next)
        da_flat = da.reshape(batch * steps, 4 * u)
        h_prev = np.zeros((batch, steps, u))
        h_prev[:, 1:] = hs[:-1].transpose(2, 0, 1)
        self.grad_Wx = da_flat.T @ x.reshape(batch * steps, self.in_size)
        self.grad_Wh = da_flat.T @ h_prev.reshape(batch * steps, u)
        self.grad_b = da_flat.sum(axis=0)
        return _steps_product(da, self.Wx)

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

    def __init__(self, in_size: int, out_size: int, activation: str = "tanh",
                 rng: np.random.Generator | None = None):
        self.inner = DenseLayer(in_size, out_size, activation, rng)

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


class EarlyStopping:
    """Stop after `patience` consecutive epochs without strict improvement."""

    def __init__(self, patience: int = 10):
        self.patience = patience
        self.best = np.inf
        self.best_epoch = 0
        self.wait = 0

    def update(self, loss: float, epoch: int) -> bool:
        """Feed one epoch's validation loss; returns True when training
        should stop."""
        if loss < self.best:
            self.best = loss
            self.best_epoch = epoch
            self.wait = 0
        else:
            self.wait += 1
        return self.wait >= self.patience


class ReduceLROnPlateau:
    """Multiply the learning rate by `factor` after `patience` stagnant
    epochs; the stagnation counter resets after each reduction."""

    def __init__(self, patience: int = 5, factor: float = 0.2):
        self.patience = patience
        self.factor = factor
        self.best = np.inf
        self.wait = 0

    def update(self, loss: float) -> bool:
        """Feed one epoch's validation loss; returns True when the learning
        rate should be reduced now."""
        if loss < self.best:
            self.best = loss
            self.wait = 0
            return False
        self.wait += 1
        if self.wait >= self.patience:
            self.wait = 0
            return True
        return False

