"""Training protocol: batched Adam epochs, one validation state that keeps
the best weights, cuts the learning rate and stops early, and the Mahalanobis
warm-up / covariance estimation procedure.

The validation state is the best loss, its weights and `stale`, the number of
epochs since the last strict improvement. The learning rate is multiplied by
`plateau_factor` whenever `stale` reaches a multiple of `plateau_patience`,
and training stops once `stale` reaches `es_patience`; the best weights are
restored at the end.

The Mahalanobis path trains with plain MSE for `warmup_epochs` epochs, then
fits a whitening covariance on the training residuals, freezes it, and
continues with the whitened-residual loss. The validation state watches one
stream across the switch. The covariance that `train` returns is fitted once,
on the training residuals of the restored best weights, so it belongs to the
weights the model file ships.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import write_table
from .detector import residuals
from .errors import LeakageError, NumericError, ValidationError
from .neuralnet import Adam

LOSS_KINDS = ("mse", "mahalanobis")


@dataclass
class TrainConfig:
    max_epochs: int = 25
    learning_rate: float = 3e-3
    batch_size: int = 256
    es_patience: int = 10
    plateau_patience: int = 5
    plateau_factor: float = 0.2
    loss: str = "mse"
    warmup_epochs: int = 5  # mahalanobis only
    seed: int = 0

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValidationError(f"loss must be one of {LOSS_KINDS}")
        positive = {
            "max_epochs": self.max_epochs,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "es_patience": self.es_patience,
            "plateau_patience": self.plateau_patience,
            "warmup_epochs": self.warmup_epochs,
        }
        for name, value in positive.items():
            if not 0 < value < np.inf:
                raise ValidationError(
                    f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ValidationError(
                f"plateau_factor must lie in (0, 1), got {self.plateau_factor}")


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """Shrunk residual covariance with precomputed inverse and inverse sqrt."""

    sigma: np.ndarray  # (d, d), already includes the shrinkage term
    sigma_inv: np.ndarray
    sigma_inv_sqrt: np.ndarray
    epsilon: float

    @classmethod
    def from_sigma(cls, sigma: np.ndarray, epsilon: float) -> "CovarianceModel":
        """Build from an already-shrunk symmetric covariance."""
        sigma = np.asarray(sigma, dtype=np.float64)
        inv_sqrt = matrix_inverse_sqrt(sigma, 0.0)
        return cls(sigma, inv_sqrt @ inv_sqrt, inv_sqrt, epsilon)

    @property
    def d(self) -> int:
        return self.sigma.shape[0]


@dataclass
class TrainReport:
    """Per-epoch history; lengths equal the epochs actually run."""

    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stop_reason: str = "max_epochs"
    warmup_epochs: int = 0  # epochs trained with MSE before the loss switch

    @property
    def epochs_run(self) -> int:
        return len(self.val_losses)

    def write_csv(self, path) -> None:
        rows = zip(self.train_losses, self.val_losses, self.learning_rates)
        write_table(path, ["epoch", "train_loss", "val_loss", "learning_rate"],
                    (f"{epoch},{tr!r},{va!r},{lr!r}"
                     for epoch, (tr, va, lr) in enumerate(rows, start=1)))


def mse_loss(x: np.ndarray, xhat: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared residual over every entry; gradient wrt xhat.

    For (batch, d) inputs this is the batch mean of per-item mean squared
    errors; for (batch, T, d) windows it averages over all T*d entries, which
    equals flattening each window first.
    """
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ValidationError(f"shape mismatch {x.shape} vs {xhat.shape}")
    r = xhat - x
    loss = float(np.mean(r * r))
    grad = (2.0 / r.size) * r
    return loss, grad


def matrix_inverse_sqrt(sigma: np.ndarray, epsilon: float) -> np.ndarray:
    """Inverse square root of sigma + epsilon*I via symmetric eigendecomposition.

    The result M satisfies M @ M @ (sigma + epsilon*I) ~= I.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValidationError("covariance must be square")
    if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-10):
        raise ValidationError("covariance must be symmetric")
    shrunk = sigma + epsilon * np.eye(sigma.shape[0])
    eigvals, eigvecs = np.linalg.eigh(shrunk)
    if np.any(eigvals <= 0.0):
        raise NumericError(
            f"covariance not positive definite after shrinkage "
            f"(min eigenvalue {eigvals.min():.3e})"
        )
    return (eigvecs / np.sqrt(eigvals)) @ eigvecs.T


def mahalanobis_loss(
    x: np.ndarray, xhat: np.ndarray, cov: CovarianceModel
) -> tuple[float, np.ndarray]:
    """Batch mean of the whitened residual norm ||(xhat - x) @ sigma^-1/2||.

    Gradient wrt xhat is sigma^-1 r / (N * ||r sigma^-1/2||) per item;
    zero-residual items contribute zero gradient.
    """
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape or x.ndim != 2:
        raise ValidationError("mahalanobis loss expects matching (batch, d) arrays")
    if x.shape[1] != cov.d:
        raise ValidationError(
            f"residual dimension {x.shape[1]} != covariance dimension {cov.d}"
        )
    r = xhat - x
    white = r @ cov.sigma_inv_sqrt
    norms = np.sqrt(np.sum(white * white, axis=1))
    loss = float(np.mean(norms))
    n = r.shape[0]
    safe = np.where(norms > 0.0, norms, 1.0)
    grad = (r @ cov.sigma_inv) / (n * safe[:, None])
    grad[norms == 0.0] = 0.0
    return loss, grad


def estimate_residual_covariance(
    model, healthy: np.ndarray, labels: np.ndarray | None = None
) -> CovarianceModel:
    """Sample covariance (divisor N-1) of reconstruction residuals on healthy
    training rows, shrunk by epsilon*I with epsilon = 1e-6 * trace/d."""
    x = np.asarray(healthy, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("covariance estimation expects (batch, d) snapshots")
    if labels is not None and np.asarray(labels, dtype=bool).any():
        raise LeakageError("covariance estimation received fault-labelled rows")
    n, d = x.shape
    if n <= d:
        raise ValidationError(
            f"need more than d={d} rows to estimate covariance, got {n}"
        )
    r = residuals(model, x)
    r -= r.mean(axis=0)  # centred in place: the residual is the only (n, d) array
    sample = (r.T @ r) / (n - 1)
    sample = 0.5 * (sample + sample.T)  # force bit-exact symmetry
    epsilon = 1e-6 * float(np.trace(sample)) / d
    if epsilon <= 0.0:
        epsilon = 1e-12  # zero-variance residuals: keep the matrix invertible
    return CovarianceModel.from_sigma(sample + epsilon * np.eye(d), epsilon)


def _epoch_loss(model, items: np.ndarray, loss_fn, batch_size: int) -> float:
    """Full-dataset loss without parameter updates."""
    total = 0.0
    for lo in range(0, items.shape[0], batch_size):
        batch = items[lo : lo + batch_size]
        xhat = model.forward(batch, cache=False)
        loss, _ = loss_fn(batch, xhat)
        total += loss * batch.shape[0]
    return total / items.shape[0]


def train(
    model,
    train_items: np.ndarray,
    val_items: np.ndarray,
    config: TrainConfig,
    train_labels: np.ndarray | None = None,
    val_labels: np.ndarray | None = None,
) -> tuple[object, TrainReport, CovarianceModel | None]:
    """Run the full training protocol; returns the trained model (best
    weights restored), the per-epoch report, and, when the Mahalanobis loss
    is active, the residual covariance of the restored weights.

    Items are snapshots, a (n, d) array for the dense model, or windows, a
    (n, T, d) array or a window set for the sequence model; each batch and
    validation slice is taken by indexing, so a window set gathers only the
    windows of one batch at a time. Both must be healthy-only, which is
    enforced whenever label vectors are passed.
    """
    for name, labels in (("train", train_labels), ("validation", val_labels)):
        if labels is not None and np.asarray(labels, dtype=bool).any():
            raise LeakageError(f"{name} items contain fault-labelled samples")
    if train_items.shape[0] == 0 or val_items.shape[0] == 0:
        raise ValidationError("training and validation sets must be non-empty")

    use_mahalanobis = config.loss == "mahalanobis"
    if use_mahalanobis and train_items.ndim != 2:
        raise ValidationError("mahalanobis loss applies to the dense model only")

    optimizer = Adam(model.parameters(), config.learning_rate)
    rng = np.random.default_rng(config.seed)
    report = TrainReport()
    loss_fn = mse_loss
    best_loss, best_weights, stale = np.inf, [], 0
    n = train_items.shape[0]

    for epoch in range(1, config.max_epochs + 1):
        if use_mahalanobis and epoch == config.warmup_epochs + 1:
            whitening = estimate_residual_covariance(model, train_items)
            loss_fn = lambda x, xhat: mahalanobis_loss(x, xhat, whitening)

        perm = rng.permutation(n)
        epoch_total = 0.0
        for lo in range(0, n, config.batch_size):
            batch = train_items[perm[lo : lo + config.batch_size]]
            xhat = model.forward(batch)
            loss, grad = loss_fn(batch, xhat)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            epoch_total += loss * batch.shape[0]
            model.backward(grad)
            optimizer.step(model.gradients())

        val_loss = _epoch_loss(model, val_items, loss_fn, config.batch_size)
        if not np.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")
        report.train_losses.append(epoch_total / n)
        report.val_losses.append(val_loss)
        report.learning_rates.append(optimizer.learning_rate)

        # after the warm-up switch the stream changes scale, which typically
        # pins the best epoch inside the warm-up (nothing special-cases this)
        if val_loss < best_loss:
            best_loss, stale, report.best_epoch = val_loss, 0, epoch
            best_weights = [p.copy() for p in model.parameters()]
            continue
        stale += 1
        if stale >= config.es_patience:
            report.stop_reason = "early_stop"
            break
        if stale % config.plateau_patience == 0:
            optimizer.learning_rate *= config.plateau_factor

    for p, w in zip(model.parameters(), best_weights):
        p[...] = w
    if not use_mahalanobis:
        return model, report, None
    report.warmup_epochs = min(config.warmup_epochs, report.epochs_run)
    return model, report, estimate_residual_covariance(model, train_items)
