"""Tests for the synthetic three-phase generator and fault injection."""

from __future__ import annotations

import numpy as np
import pytest

from faultwave import (
    BoundsError,
    ConfigError,
    DegenerateInputError,
    FaultSpec,
    FaultType,
    NoiseSpec,
    Trace,
    WaveformConfig,
    add_noise,
    generate_baseline,
    inject_fault,
    select_channel,
)
from conftest import FAULT_ONSET_SAMPLE, make_record


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
        t = trace.time_axis()
        np.testing.assert_allclose(trace.samples, np.sin(2 * np.pi * 50 * t), atol=1e-12)

    def test_unfaulted_phase_matches_baseline(self, baseline_record, ag_record):
        trace = select_channel(ag_record, "b")
        assert np.array_equal(trace.samples, baseline_record.samples[1])

    def test_length_and_rate_preserved(self, baseline_record):
        trace = select_channel(baseline_record, "c")
        assert trace.n_samples == baseline_record.n_samples
        assert trace.sample_rate_hz == baseline_record.sample_rate_hz

    def test_unknown_phase_rejected(self, baseline_record):
        with pytest.raises(ConfigError, match="phase"):
            select_channel(baseline_record, "d")

    def test_unhashable_phase_rejected(self, baseline_record):
        with pytest.raises(ConfigError, match=r"^phase must be one of 'a', 'b', 'c', got \['a'\]$"):
            select_channel(baseline_record, ["a"])
