"""Seeded synthetic multi-channel sensor logs with injected fault intervals.

Healthy behaviour is a per-channel sinusoid plus cross-correlated Gaussian
noise (a mixing matrix couples the channels). Faults perturb chosen channels
inside an interval: a mean shift of k noise-sigmas, a noise burst that scales
the noise amplitude by k, or a decorrelation that swaps the mixed noise for
fresh independent noise with the same marginal sigma.

Randomness uses per-channel substreams keyed (seed, stream, channel), so
adding channels never reshuffles existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FaultSchedule, ONE_MINUTE, SensorLog
from .errors import ValidationError

FAULT_MODES = ("mean_shift", "variance_burst", "decorrelate")

# substream tags
_BASE_NOISE = 1
_DECORRELATED_NOISE = 2
_GAPS = 3


@dataclass(frozen=True)
class ChannelSpec:
    period: float = 240.0  # minutes per sinusoid cycle
    amplitude: float = 1.0
    offset: float = 0.0
    noise_sigma: float = 0.3
    phase: float = 0.0


@dataclass(frozen=True)
class FaultSpec:
    start: int
    length: int
    mode: str
    magnitude: float = 3.0  # sigma multiples (mean_shift) or noise scale (burst)
    channels: tuple[int, ...] | None = None  # None = every channel

    def __post_init__(self):
        if self.mode not in FAULT_MODES:
            raise ValidationError(f"fault mode must be one of {FAULT_MODES}")
        if self.length <= 0:
            raise ValidationError("fault length must be positive")
        if self.magnitude <= 0.0:
            raise ValidationError("fault magnitude must be positive")


@dataclass(frozen=True)
class PlantConfig:
    n_channels: int = 8
    n_samples: int = 20_000
    seed: int = 0
    channels: tuple[ChannelSpec, ...] = ()
    mixing: tuple[tuple[float, ...], ...] | None = None  # rows should be unit norm
    faults: tuple[FaultSpec, ...] = ()
    start_timestamp: str = "2024-01-01 00:00"
    gap_fraction: float = 0.0
    # AR(1) coefficient per raw noise stream (scalar = all streams); smooth
    # streams model slow operating-point drift, 0 keeps a stream white
    noise_smoothing: tuple[float, ...] | float = 0.0

    def __post_init__(self):
        if self.n_channels < 1 or self.n_samples < 1:
            raise ValidationError("need at least one channel and one sample")
        if self.channels and len(self.channels) != self.n_channels:
            raise ValidationError("channel spec count must match n_channels")
        if not 0.0 <= self.gap_fraction < 1.0:
            raise ValidationError("gap_fraction must lie in [0, 1)")
        smoothing = self.noise_smoothing
        if isinstance(smoothing, (int, float)):
            smoothing = (float(smoothing),) * self.n_channels
        else:
            smoothing = tuple(float(phi) for phi in smoothing)
        if len(smoothing) != self.n_channels:
            raise ValidationError("noise_smoothing must give one value per stream")
        if any(not 0.0 <= phi < 1.0 for phi in smoothing):
            raise ValidationError("noise_smoothing values must lie in [0, 1)")
        object.__setattr__(self, "noise_smoothing", smoothing)
        for fault in self.faults:
            if fault.start < 0 or fault.start + fault.length > self.n_samples:
                raise ValidationError(
                    f"fault [{fault.start}, {fault.start + fault.length}) exceeds "
                    f"the sample range [0, {self.n_samples})"
                )
            for c in fault.channels or ():
                if not 0 <= c < self.n_channels:
                    raise ValidationError(f"fault channel {c} out of range")


def _dct_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis, columns = basis vectors."""
    c = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * (c + 0.5) * k / n)
    basis[:, 0] = 1.0 / np.sqrt(n)
    return basis


def structured_mixing(
    n_channels: int,
    n_factors: int,
    jitter_scales: tuple[float, ...],
) -> np.ndarray:
    """Mixing where every channel rides `n_factors` shared factor streams
    and channel c additionally carries its own white stream scaled by
    jitter_scales[c] (0 = pure factor channel). Streams 0..n_factors-1 are
    the factors; jittered channels claim the later streams in channel order.
    Rows are normalized so marginal sigmas stay at the configured values."""
    if not 1 <= n_factors <= n_channels:
        raise ValidationError("n_factors must lie in [1, n_channels]")
    if len(jitter_scales) != n_channels:
        raise ValidationError("need one jitter scale per channel")
    jittered = [c for c, scale in enumerate(jitter_scales) if scale > 0.0]
    if len(jittered) > n_channels - n_factors:
        raise ValidationError(
            f"only {n_channels - n_factors} streams left for jitter, "
            f"{len(jittered)} channels want one"
        )
    basis = _dct_basis(n_channels)
    mixing = np.zeros((n_channels, n_channels))
    mixing[:, :n_factors] = basis[:, :n_factors]
    for k, c in enumerate(jittered):
        mixing[c, n_factors + k] = jitter_scales[c]
    return mixing / np.linalg.norm(mixing, axis=1, keepdims=True)


_BASE_PERIODS = (97.0, 211.0, 149.0, 331.0, 59.0, 467.0, 283.0, 173.0)
_BASE_AMPLITUDES = (1.0, 0.8, 1.2, 0.9, 1.1, 0.7, 1.0, 0.85)
_BASE_OFFSETS = (0.0, 1.5, -1.0, 0.5, 2.0, -0.5, 1.0, 0.0)


DEFAULT_FACTORS = 2
DEFAULT_JITTER = 0.45
DEFAULT_FACTOR_SMOOTHING = 0.97


def default_config(
    n_channels: int = 8,
    n_samples: int = 20_000,
    seed: int = 0,
    gap_fraction: float = 0.0,
) -> PlantConfig:
    """Desk-scale profile, 8 channels x 20k minutes by default.

    Most channels ride two slowly-drifting shared load factors plus a mild
    sinusoid; the last quarter of the channels carry extra fast per-channel
    jitter on top (vibration-style sensors). Three injected faults cover
    ~2.5% of the samples: a 3-sigma mean shift on five channels, a 4x noise
    burst on the jittery side of the plant, and a decorrelation that detaches
    the factor-driven group from the shared factors.
    """
    channels = tuple(
        ChannelSpec(
            period=_BASE_PERIODS[i % 8],
            amplitude=0.1 * _BASE_AMPLITUDES[i % 8],
            offset=_BASE_OFFSETS[i % 8],
            noise_sigma=0.5,
            phase=0.7 * i,
        )
        for i in range(n_channels)
    )
    n_factors = min(DEFAULT_FACTORS, n_channels)
    n_jittery = min(max(n_channels // 4, 1), n_channels - n_factors)
    n_clean = n_channels - n_jittery
    jitter = tuple(
        0.0 if c < n_clean else DEFAULT_JITTER for c in range(n_channels)
    )
    mixing = tuple(map(tuple, structured_mixing(n_channels, n_factors, jitter)))
    smoothing = tuple(
        DEFAULT_FACTOR_SMOOTHING if j < n_factors else 0.0
        for j in range(n_channels)
    )
    shifted = tuple(range(min(5, n_channels)))
    burst = tuple(range(n_channels // 2, n_channels))
    decorrelated = tuple(range(n_clean))
    faults = (
        FaultSpec(start=int(0.60 * n_samples), length=max(1, int(0.011 * n_samples)),
                  mode="mean_shift", magnitude=3.0, channels=shifted),
        FaultSpec(start=int(0.75 * n_samples), length=max(1, int(0.0075 * n_samples)),
                  mode="variance_burst", magnitude=4.0, channels=burst),
        FaultSpec(start=int(0.875 * n_samples), length=max(1, int(0.0065 * n_samples)),
                  mode="decorrelate", magnitude=1.0, channels=decorrelated),
    )
    return PlantConfig(
        n_channels=n_channels,
        n_samples=n_samples,
        seed=seed,
        channels=channels,
        mixing=mixing,
        faults=faults,
        gap_fraction=gap_fraction,
        noise_smoothing=smoothing,
    )


def _channel_rng(seed: int, stream: int, channel: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream, channel))


def _ar1(white: np.ndarray, phi: float) -> np.ndarray:
    """AR(1) filter with unit marginal variance."""
    if phi == 0.0:
        return white
    # on Python floats: about 3x faster than on numpy scalars, the same bits
    scale = float(np.sqrt(1.0 - phi * phi))
    out = white.tolist()
    for t in range(1, len(out)):
        out[t] = phi * out[t - 1] + scale * out[t]
    return np.array(out)


def generate(config: PlantConfig) -> tuple[SensorLog, FaultSchedule]:
    """Deterministically generate (SensorLog, FaultSchedule) from the config."""
    n, c = config.n_samples, config.n_channels
    specs = config.channels or tuple(ChannelSpec() for _ in range(c))
    if config.mixing is None:
        mixing = np.eye(c)
    else:
        mixing = np.asarray(config.mixing, dtype=np.float64)
        if mixing.shape != (c, c):
            raise ValidationError(f"mixing matrix must be {c}x{c}")

    t = np.arange(n, dtype=np.float64)
    deterministic = np.empty((n, c))
    for j, spec in enumerate(specs):
        deterministic[:, j] = spec.offset + spec.amplitude * np.sin(
            2.0 * np.pi * t / spec.period + spec.phase
        )
    sigma = np.array([spec.noise_sigma for spec in specs])

    raw = np.column_stack(
        [_ar1(_channel_rng(config.seed, _BASE_NOISE, j).standard_normal(n),
              config.noise_smoothing[j])
         for j in range(c)]
    )
    noise = (raw @ mixing.T) * sigma
    values = deterministic + noise

    for fault in config.faults:
        rows = np.arange(fault.start, fault.start + fault.length)
        cols = np.array(fault.channels if fault.channels is not None else range(c),
                        dtype=np.intp)
        block = np.ix_(rows, cols)
        if fault.mode == "mean_shift":
            values[block] += fault.magnitude * sigma[cols]
        elif fault.mode == "variance_burst":
            values[block] = deterministic[block] + fault.magnitude * noise[block]
        else:  # decorrelate: independent noise, same marginal sigma
            for j in cols:
                fresh = np.random.default_rng(
                    (config.seed, _DECORRELATED_NOISE, int(j), fault.start)
                )
                values[rows, j] = (
                    deterministic[rows, j]
                    + sigma[j] * fresh.standard_normal(fault.length)
                )

    if config.gap_fraction > 0.0:
        gap_rng = _channel_rng(config.seed, _GAPS, 0)
        mask = gap_rng.random((n, c)) < config.gap_fraction
        for j in range(c):
            if mask[:, j].all():
                mask[0, j] = False  # keep at least one observed value
        values[mask] = np.nan

    start = np.datetime64(config.start_timestamp.replace(" ", "T"), "m")
    timestamps = start + np.arange(n) * ONE_MINUTE
    names = tuple(f"s{j:02d}" for j in range(c))
    log = SensorLog(timestamps, names, values)
    schedule = FaultSchedule(
        tuple((start + fault.start * ONE_MINUTE, fault.length)
              for fault in config.faults)
    )
    return log, schedule
