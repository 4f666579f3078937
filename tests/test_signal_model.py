"""Tests for the synthetic three-phase generator and fault injection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from faultwave import (
    BoundsError,
    ConfigError,
    DegenerateInputError,
    FaultSpec,
    FaultType,
    NoiseSpec,
    ThreePhaseRecord,
    Trace,
    WaveformConfig,
    add_noise,
    generate_baseline,
    inject_fault,
    select_channel,
)
from faultwave.signal_model import MAX_SAMPLES, TWO_PI, sliding_rows
from conftest import FAULT_ONSET_SAMPLE, assert_bitwise_equal, make_record, rng_trace
from test_spectral import frame_grids

FUNDAMENTALS = [49.5, 50.0, 50.5]
AMPLITUDES = [0.3, 1.0, 187794.6]  # the last: a 230 kV phase peak in volts


def out_of_place_baseline(config: WaveformConfig) -> np.ndarray:
    """The samples as generate_baseline built them before it worked in place."""
    t = np.arange(config.n_samples) / config.sample_rate_hz
    offsets = np.asarray(config.phase_offsets_rad)[:, None]
    return config.amplitude_pu * np.sin(TWO_PI * config.fundamental_hz * t[None, :] + offsets)


def out_of_place_noisy(samples: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """The samples as add_noise built them before it worked in place."""
    row_power = np.mean(samples**2, axis=1)
    noise_std = np.sqrt(row_power / 10.0 ** (noise.snr_db / 10.0))
    rng = np.random.default_rng(noise.seed)
    return samples + rng.standard_normal(samples.shape) * noise_std[:, None]


class TestWaveformConfig:
    def test_defaults_match_rated_system(self):
        cfg = WaveformConfig(duration_s=0.2)
        assert cfg.sample_rate_hz == 2000.0
        assert cfg.fundamental_hz == 50.0
        assert cfg.n_samples == 400

    def test_rejects_nyquist_violation(self):
        with pytest.raises(ConfigError, match="Nyquist"):
            WaveformConfig(duration_s=0.2, sample_rate_hz=90.0, fundamental_hz=50.0)

    def test_rejects_fractional_sample_count(self):
        with pytest.raises(ConfigError, match="integer sample count"):
            WaveformConfig(duration_s=0.10003)

    def test_caps_the_sample_count_at_what_a_record_array_holds(self):
        slow = {"sample_rate_hz": 1.0, "fundamental_hz": 0.1}
        assert WaveformConfig(duration_s=float(MAX_SAMPLES), **slow).n_samples <= MAX_SAMPLES
        for duration_s in (2.0 * MAX_SAMPLES, 1e300):
            with pytest.raises(ConfigError, match=f"^duration_s must be .* to {MAX_SAMPLES} at"):
                WaveformConfig(duration_s=duration_s, **slow)

    @pytest.mark.parametrize("field,value", [
        ("sample_rate_hz", 0.0),
        ("duration_s", -1.0),
        ("fundamental_hz", 0.0),
    ])
    def test_rejects_nonpositive_parameters(self, field, value):
        with pytest.raises(ConfigError):
            WaveformConfig(**{"duration_s": 0.2, field: value})

    @pytest.mark.parametrize("offsets", [(0.0, 1.0), (0.0, 1.0, 2.0, 3.0), (0.0, 1.0, np.nan)],
                             ids=["two", "four", "nan"])
    def test_rejects_phase_offsets_not_three_finite_numbers(self, offsets):
        with pytest.raises(ConfigError, match="phase_offsets_rad"):
            WaveformConfig(duration_s=0.2, phase_offsets_rad=offsets)


class TestTrace:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_sample_rejected(self, bad):
        samples = select_channel(make_record("NONE"), "a").samples
        samples[200] = bad
        with pytest.raises(ConfigError, match="finite"):
            Trace(samples, 2000.0)

    def test_two_dimensional_samples_rejected(self):
        with pytest.raises(ConfigError, match="^trace samples must be one-dimensional$"):
            Trace(np.zeros((2, 64)), 2000.0)


class TestThreePhaseRecord:
    @pytest.mark.parametrize("shape", [(400,), (2, 400), (4, 400), (1, 3, 400)])
    def test_samples_that_are_not_3_by_n_rejected(self, shape):
        with pytest.raises(ConfigError, match=r"^samples must be a 3xN matrix, got shape"):
            ThreePhaseRecord(2000.0, np.zeros(shape))

    def test_one_sample_record_rejected(self):
        with pytest.raises(ConfigError, match="^record must contain at least 2 samples per phase$"):
            ThreePhaseRecord(2000.0, np.zeros((3, 1)))


class TestGenerateBaseline:
    def test_shape_and_pure_sinusoid(self):
        cfg = WaveformConfig(duration_s=0.2)
        record = generate_baseline(cfg)
        assert record.samples.shape == (3, 400)
        t = record.time_axis()
        expected = np.sin(2 * np.pi * 50.0 * t)
        np.testing.assert_allclose(record.samples[0], expected, atol=1e-12)
        assert record.labels.fault_type is FaultType.NONE

    def test_zero_amplitude_gives_zero_record(self):
        record = generate_baseline(WaveformConfig(duration_s=0.2, amplitude_pu=0.0))
        assert np.all(record.samples == 0.0)

    def test_single_cycle_is_periodic(self):
        # one full cycle: the sample after the last equals the first
        cfg = WaveformConfig(duration_s=0.02)
        record = generate_baseline(cfg)
        assert record.n_samples == 40
        next_sample = np.sin(
            2 * np.pi * cfg.fundamental_hz * (40 / cfg.sample_rate_hz)
            + np.asarray(cfg.phase_offsets_rad)
        )
        np.testing.assert_allclose(next_sample, record.samples[:, 0], atol=1e-12)

    @pytest.mark.parametrize("duration_s", [0.2, 2.048])
    @pytest.mark.parametrize("amplitude_pu", [0.0, *AMPLITUDES])
    @pytest.mark.parametrize("fundamental_hz", FUNDAMENTALS)
    def test_bitwise_the_out_of_place_expression(self, fundamental_hz, amplitude_pu, duration_s):
        cfg = WaveformConfig(duration_s=duration_s, fundamental_hz=fundamental_hz,
                             amplitude_pu=amplitude_pu)
        assert_bitwise_equal(generate_baseline(cfg).samples, out_of_place_baseline(cfg))

    def test_rows_are_thirds_of_a_cycle_apart(self):
        # 60 samples per cycle divides by 3, so the shift is exactly 20 samples
        cfg = WaveformConfig(duration_s=0.2, sample_rate_hz=3000.0)
        record = generate_baseline(cfg)
        a, b, c = record.samples
        np.testing.assert_allclose(b[20:], a[:-20], atol=1e-12)
        np.testing.assert_allclose(c[40:], a[:-40], atol=1e-12)


class TestInjectFault:
    def test_ag_fault_attenuates_only_phase_a(self, baseline_record):
        fault = FaultSpec(fault_type=FaultType.AG, onset_s=0.065, retained_voltage_pu=0.3)
        faulted = inject_fault(baseline_record, fault)
        k = FAULT_ONSET_SAMPLE
        assert np.array_equal(faulted.samples[1], baseline_record.samples[1])
        assert np.array_equal(faulted.samples[2], baseline_record.samples[2])
        assert np.array_equal(faulted.samples[0, :k], baseline_record.samples[0, :k])
        assert not np.array_equal(faulted.samples[0, k:], baseline_record.samples[0, k:])
        assert faulted.labels == fault

    def test_none_fault_is_identity(self, baseline_record):
        assert inject_fault(baseline_record, FaultSpec()) is baseline_record

    def test_bolted_three_phase_fault_leaves_only_burst(self, baseline_record):
        fault = FaultSpec(fault_type=FaultType.ABC, onset_s=0.065, retained_voltage_pu=0.0)
        faulted = inject_fault(baseline_record, fault)
        k = FAULT_ONSET_SAMPLE
        t_rel = (np.arange(k, 400) - k) / 2000.0
        burst = (
            fault.transient_gain
            * np.exp(-t_rel / fault.transient_tau_s)
            * np.sin(2 * np.pi * fault.transient_freq_hz * t_rel)
        )
        for row in faulted.samples:
            np.testing.assert_allclose(row[k:], burst, atol=1e-12)

    def test_clearing_restores_the_tail(self, baseline_record):
        fault = FaultSpec(fault_type=FaultType.AG, onset_s=0.065, clear_s=0.1)
        faulted = inject_fault(baseline_record, fault)
        np.testing.assert_array_equal(
            faulted.samples[0, 200:], baseline_record.samples[0, 200:]
        )

    def test_identity_when_severity_is_nil(self, baseline_record):
        fault = FaultSpec(
            fault_type=FaultType.AG, onset_s=0.065,
            retained_voltage_pu=1.0, transient_gain=0.0,
        )
        faulted = inject_fault(baseline_record, fault)
        np.testing.assert_array_equal(faulted.samples, baseline_record.samples)

    def test_onset_beyond_record_raises(self, baseline_record):
        with pytest.raises(BoundsError, match="beyond the record end"):
            inject_fault(baseline_record, FaultSpec(fault_type=FaultType.AG, onset_s=0.3))

    @pytest.mark.parametrize("times", [dict(onset_s=1e308), dict(onset_s=0.05, clear_s=1e308)],
                             ids=["onset", "clear"])
    def test_time_whose_sample_index_overflows_raises_bounds_error(self, baseline_record, times):
        with pytest.raises(BoundsError, match="beyond the record end"):
            inject_fault(baseline_record, FaultSpec(fault_type=FaultType.AG, **times))

    def test_clearing_beyond_record_raises(self, baseline_record):
        with pytest.raises(BoundsError, match="beyond the record end"):
            inject_fault(
                baseline_record,
                FaultSpec(fault_type=FaultType.AG, onset_s=0.05, clear_s=0.5),
            )

    @pytest.mark.parametrize("fault_type,phases", [
        (FaultType.AG, (0,)),
        (FaultType.BG, (1,)),
        (FaultType.CG, (2,)),
        (FaultType.AB, (0, 1)),
        (FaultType.BC, (1, 2)),
        (FaultType.ABC, (0, 1, 2)),
        (FaultType.ABCG, (0, 1, 2)),
        (FaultType.NONE, ()),
    ])
    def test_phase_letter_sets(self, fault_type, phases):
        assert fault_type.phases == phases

    def test_untouched_phases_across_all_types(self, baseline_record):
        for fault_type in FaultType:
            if fault_type is FaultType.NONE:
                continue
            faulted = inject_fault(
                baseline_record, FaultSpec(fault_type=fault_type, onset_s=0.065)
            )
            for p in range(3):
                if p not in fault_type.phases:
                    assert np.array_equal(faulted.samples[p], baseline_record.samples[p])


class TestAddNoise:
    def test_measured_snr_matches_target(self):
        # long record so the empirical SNR estimate is tight
        clean = make_record("NONE", duration_s=2.0)
        noisy = add_noise(clean, NoiseSpec(snr_db=20.0, seed=1))
        noise = noisy.samples - clean.samples
        snr = 10 * np.log10(np.mean(clean.samples**2) / np.mean(noise**2))
        assert abs(snr - 20.0) <= 0.5

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0, 40.0])
    @pytest.mark.parametrize("fundamental_hz", FUNDAMENTALS)
    def test_bitwise_the_out_of_place_expression(self, fundamental_hz, snr_db, seed):
        noise = NoiseSpec(snr_db=snr_db, seed=seed)
        for amplitude_pu in AMPLITUDES:
            cfg = WaveformConfig(fundamental_hz=fundamental_hz, amplitude_pu=amplitude_pu)
            record = inject_fault(generate_baseline(cfg), FaultSpec(fault_type=FaultType.AG))
            before = record.samples.copy()
            assert_bitwise_equal(add_noise(record, noise).samples,
                                 out_of_place_noisy(before, noise))
            assert_bitwise_equal(record.samples, before)  # the input is left as it was

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(-1000, 0), fault=st.sampled_from(["NONE", "AG", "BC"]),
           seed=st.integers(0, 2**16))
    @example(k=-540, fault="AG", seed=1)  # every square underflows: once refused as zero power
    @example(k=-1000, fault="BC", seed=1)
    def test_commutes_with_power_of_two_scales_bitwise(self, k, fault, seed):
        """Scaling is exact, and the row powers are rescaled where they would
        underflow, so noise on a record scaled by 2**k is the noise of the
        record, scaled."""
        record, noise = make_record(fault), NoiseSpec(snr_db=20.0, seed=seed)
        scaled = ThreePhaseRecord(record.sample_rate_hz, 2.0**k * record.samples, record.labels)
        assert_bitwise_equal(add_noise(scaled, noise).samples,
                             2.0**k * add_noise(record, noise).samples)

    def test_absent_snr_is_identity(self, baseline_record):
        assert add_noise(baseline_record, NoiseSpec()) is baseline_record

    def test_same_seed_reproduces_bitwise(self, baseline_record):
        a = add_noise(baseline_record, NoiseSpec(snr_db=20.0, seed=7))
        b = add_noise(baseline_record, NoiseSpec(snr_db=20.0, seed=7))
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self, baseline_record):
        a = add_noise(baseline_record, NoiseSpec(snr_db=20.0, seed=7))
        b = add_noise(baseline_record, NoiseSpec(snr_db=20.0, seed=8))
        assert not np.array_equal(a.samples, b.samples)

    def test_zero_power_record_rejected(self):
        record = generate_baseline(WaveformConfig(duration_s=0.2, amplitude_pu=0.0))
        with pytest.raises(DegenerateInputError, match="zero-power"):
            add_noise(record, NoiseSpec(snr_db=20.0))

    @pytest.mark.parametrize("snr_db", [1e308, 3083.0, 10**400, float("inf"), float("nan")],
                             ids=["1e308", "ratio_just_overflows", "huge_int", "inf", "nan"])
    def test_snr_whose_power_ratio_overflows_rejected(self, snr_db):
        with pytest.raises(ConfigError, match="snr_db"):
            NoiseSpec(snr_db=snr_db)

    def test_boolean_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed must not be a boolean, got True$"):
            NoiseSpec(snr_db=20.0, seed=True)

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning would fail the test
    @pytest.mark.parametrize("snr_db", [-3086.0, -4000.0], ids=["ratio_subnormal", "ratio_zero"])
    def test_noise_that_overflows_rejected(self, snr_db):
        record = generate_baseline(WaveformConfig(duration_s=0.2))
        with pytest.raises(ConfigError, match=f"^noise at snr_db={snr_db} overflows float64"):
            add_noise(record, NoiseSpec(snr_db=snr_db, seed=1))

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning would fail the test
    def test_record_whose_mean_square_overflows_rejected(self):
        record = generate_baseline(WaveformConfig(duration_s=0.2, amplitude_pu=1e200))
        with pytest.raises(ConfigError, match="mean square overflows float64"):
            add_noise(record, NoiseSpec(snr_db=20.0, seed=1))

    def test_largest_snr_with_finite_ratio_still_adds_noise(self, baseline_record):
        # 10**308.2 is the last tenth-of-a-decibel step below float max
        noisy = add_noise(baseline_record, NoiseSpec(snr_db=3082.0, seed=1))
        assert np.all(np.isfinite(noisy.samples))


class TestSelectChannel:
    def test_phase_a_is_zero_offset_sinusoid(self, baseline_record):
        trace = select_channel(baseline_record, "a")
        t = baseline_record.time_axis()
        np.testing.assert_allclose(trace.samples, np.sin(2 * np.pi * 50 * t), atol=1e-12)

    def test_unfaulted_phase_matches_baseline(self, baseline_record, ag_record):
        trace = select_channel(ag_record, "b")
        assert np.array_equal(trace.samples, baseline_record.samples[1])

    def test_length_and_rate_preserved(self, baseline_record):
        trace = select_channel(baseline_record, "c")
        assert trace.n_samples == baseline_record.n_samples
        assert trace.sample_rate_hz == baseline_record.sample_rate_hz

    @pytest.mark.parametrize("row, phase", enumerate("abc"))
    def test_row_copied_bitwise_at_the_record_rate(self, row, phase):
        record = make_record("ABCG", snr_db=20.0, seed=4)
        trace = select_channel(record, phase)
        assert isinstance(trace, Trace)
        assert_bitwise_equal(trace.samples, record.samples[row])
        assert trace.samples.flags.c_contiguous
        assert not np.shares_memory(trace.samples, record.samples)
        assert trace.sample_rate_hz == record.sample_rate_hz
        assert type(trace.sample_rate_hz) is type(record.sample_rate_hz)

    def test_unknown_phase_rejected(self, baseline_record):
        with pytest.raises(ConfigError, match=r"^channel must be 'a', 'b' or 'c', got 'd'$"):
            select_channel(baseline_record, "d")

    def test_unhashable_phase_rejected(self, baseline_record):
        with pytest.raises(ConfigError, match=r"^channel must be 'a', 'b' or 'c', got \['a'\]$"):
            select_channel(baseline_record, ["a"])


class TestSlidingRows:
    """The one strided view, against an index gather."""

    @settings(max_examples=60, deadline=None)
    @given(grid=frame_grids(), seed=st.integers(0, 2**16))
    def test_equals_index_gather(self, grid, seed):
        n, width, hop = grid
        values = rng_trace(n, seed)
        starts = np.arange((n - width) // hop + 1) * hop
        assert_bitwise_equal(sliding_rows(values, width, hop),
                             values[starts[:, None] + np.arange(width)[None, :]])

    def test_view_is_read_only(self):
        values = np.arange(10.0)
        rows = sliding_rows(values, 4, 2)
        assert not rows.flags.writeable and rows.base is values
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        assert values.flags.writeable

    def test_non_contiguous_buffer_raises(self):
        with pytest.raises(ValueError, match="not contiguous"):
            sliding_rows(np.arange(20.0)[::2], 4)
