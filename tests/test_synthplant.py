import numpy as np
import pytest

from aedetect.dataset import label_samples
from aedetect.errors import ValidationError
from aedetect.synthplant import (
    ChannelSpec,
    FaultSpec,
    PlantConfig,
    default_config,
    generate,
    structured_mixing,
)


def single_channel_config(**kwargs):
    defaults = dict(
        n_channels=1,
        n_samples=2000,
        seed=0,
        channels=(ChannelSpec(period=50.0, amplitude=1.0, offset=0.5,
                              noise_sigma=0.3),),
    )
    defaults.update(kwargs)
    return PlantConfig(**defaults)


class TestGenerate:
    def test_noiseless_sinusoid_is_exact(self):
        spec = ChannelSpec(period=100.0, amplitude=2.0, offset=1.0,
                           noise_sigma=0.0, phase=0.3)
        config = single_channel_config(channels=(spec,), n_samples=500)
        log, schedule = generate(config)
        t = np.arange(500, dtype=np.float64)
        expected = 1.0 + 2.0 * np.sin(2.0 * np.pi * t / 100.0 + 0.3)
        assert np.array_equal(log.values[:, 0], expected)
        assert schedule.intervals == ()

    def test_seed_determinism(self):
        config = default_config(seed=7)
        a, _ = generate(config)
        b, _ = generate(config)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.timestamps, b.timestamps)

    def test_channel_streams_stable_under_channel_count(self):
        # adding channels must not reshuffle the existing ones
        small = generate(default_config(n_channels=4, n_samples=500))[0]
        # same channel specs and per-channel streams, identity mixing isolates
        # the stream comparison
        spec4 = default_config(n_channels=4, n_samples=500)
        spec6 = default_config(n_channels=6, n_samples=500)
        eye4 = tuple(map(tuple, np.eye(4)))
        eye6 = tuple(map(tuple, np.eye(6)))
        a = generate(PlantConfig(n_channels=4, n_samples=500, seed=0,
                                 channels=spec4.channels, mixing=eye4,
                                 noise_smoothing=0.0))[0]
        b = generate(PlantConfig(n_channels=6, n_samples=500, seed=0,
                                 channels=spec6.channels, mixing=eye6,
                                 noise_smoothing=0.0))[0]
        assert np.array_equal(a.values, b.values[:, :4])
        assert small.n_channels == 4

    def test_mean_shift_statistical_oracle(self):
        # period 50 divides both the fault window (100) and the series, so
        # sinusoid means cancel; shift = 3 sigma must show up in the window
        sigma = 0.3
        fault = FaultSpec(start=1000, length=100, mode="mean_shift",
                          magnitude=3.0, channels=(0,))
        deltas = []
        for seed in range(5):
            config = single_channel_config(seed=seed, faults=(fault,))
            log, _ = generate(config)
            inside = log.values[1000:1100, 0].mean()
            outside = np.concatenate([log.values[:1000, 0],
                                      log.values[1100:, 0]]).mean()
            deltas.append(inside - outside)
        for delta in deltas:
            assert abs(delta - 3.0 * sigma) <= 0.5 * sigma

    def test_variance_burst_scales_noise(self):
        fault = FaultSpec(start=500, length=400, mode="variance_burst",
                          magnitude=4.0, channels=(0,))
        config = single_channel_config(seed=3, faults=(fault,),
                                       channels=(ChannelSpec(
                                           period=50.0, amplitude=0.0,
                                           offset=0.0, noise_sigma=0.3),))
        log, _ = generate(config)
        inside = log.values[500:900, 0].std()
        outside = log.values[:500, 0].std()
        assert 3.0 < inside / outside < 5.0

    def test_decorrelate_breaks_correlation(self):
        channels = tuple(ChannelSpec(period=60.0, amplitude=0.0, offset=0.0,
                                     noise_sigma=0.5) for _ in range(4))
        mixing = tuple(map(tuple, structured_mixing(4, 1, (0.0,) * 4)))
        fault = FaultSpec(start=2000, length=1500, mode="decorrelate",
                          magnitude=1.0)
        config = PlantConfig(n_channels=4, n_samples=4000, seed=1,
                             channels=channels, mixing=mixing, faults=(fault,))
        log, _ = generate(config)
        healthy = np.corrcoef(log.values[:2000].T)
        faulty = np.corrcoef(log.values[2000:3500].T)
        off = ~np.eye(4, dtype=bool)
        assert healthy[off].mean() > 0.8
        assert abs(faulty[off].mean()) < 0.2
        # marginal scale is preserved
        assert 0.8 < log.values[2000:3500, 0].std() / log.values[:2000, 0].std() < 1.25

    def test_schedule_matches_configured_intervals(self):
        config = default_config(seed=0)
        log, schedule = generate(config)
        assert len(schedule.intervals) == len(config.faults)
        labels = label_samples(log, schedule)
        expected = sum(f.length for f in config.faults)
        assert labels.sum() == expected
        for fault, (start, duration) in zip(
                sorted(config.faults, key=lambda f: f.start), schedule.intervals):
            assert duration == fault.length
            row = int((start - log.timestamps[0]) / np.timedelta64(1, "m"))
            assert row == fault.start

    def test_gap_injection_keeps_one_observation(self):
        config = default_config(seed=2, gap_fraction=0.3)
        log, _ = generate(config)
        missing = np.isnan(log.values)
        assert missing.any()
        assert (~missing).any(axis=0).all()
        assert abs(missing.mean() - 0.3) < 0.02

    def test_out_of_range_fault_rejected(self):
        fault = FaultSpec(start=1950, length=100, mode="mean_shift")
        with pytest.raises(ValidationError):
            single_channel_config(faults=(fault,))

    def test_healthy_mean_stationary_across_thirds(self):
        # single realizations wander with the slow factors, so stationarity
        # is an ensemble statement: third-means averaged over seeds agree
        sigma = 0.5
        third_means = []
        for seed in range(24):
            config = default_config(seed=seed, n_samples=9000)
            config = PlantConfig(n_channels=8, n_samples=9000, seed=seed,
                                 channels=config.channels, mixing=config.mixing,
                                 faults=(), noise_smoothing=config.noise_smoothing)
            log, _ = generate(config)
            thirds = np.split(log.values, 3, axis=0)
            third_means.append([t.mean(axis=0) for t in thirds])
        ensemble = np.mean(third_means, axis=0)  # (3, channels)
        drift = ensemble.max(axis=0) - ensemble.min(axis=0)
        assert drift.max() < 0.1 * sigma


class TestMixingMatrices:
    def test_structured_mixing_rows_unit_norm(self):
        jitter = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.45, 0.45)
        m = structured_mixing(8, 2, jitter)
        assert np.allclose(np.linalg.norm(m, axis=1), 1.0, atol=1e-12)

    def test_structured_mixing_jitter_is_private(self):
        jitter = (0.0, 0.0, 0.5, 0.5)
        m = structured_mixing(4, 2, jitter)
        # jitter streams feed exactly one channel each
        assert np.count_nonzero(m[:, 2]) == 1
        assert np.count_nonzero(m[:, 3]) == 1

    def test_too_many_jittered_channels(self):
        with pytest.raises(ValidationError):
            structured_mixing(4, 3, (0.1, 0.1, 0.1, 0.1))


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            FaultSpec(start=0, length=10, mode="explode")

    def test_bad_magnitude(self):
        with pytest.raises(ValidationError):
            FaultSpec(start=0, length=10, mode="mean_shift", magnitude=0.0)

    def test_smoothing_length_checked(self):
        with pytest.raises(ValidationError):
            PlantConfig(n_channels=3, n_samples=100, seed=0,
                        noise_smoothing=(0.5, 0.5))

    def test_default_profile_shape(self):
        config = default_config()
        assert config.n_channels == 8 and config.n_samples == 20_000
        assert len(config.faults) == 3
        share = sum(f.length for f in config.faults) / config.n_samples
        assert 0.01 <= share <= 0.03
        modes = {f.mode for f in config.faults}
        assert modes == {"mean_shift", "variance_burst", "decorrelate"}
        shift = [f for f in config.faults if f.mode == "mean_shift"][0]
        assert shift.magnitude == 3.0 and len(shift.channels) == 5
