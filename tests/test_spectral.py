"""Tests for the Fourier and short-time Fourier transforms."""

from __future__ import annotations

import numpy as np
import pytest

from faultwave import (
    ConfigError,
    DegenerateInputError,
    ShapeError,
    Trace,
    dft,
    highband_energy_index,
    select_channel,
    stft,
)
from conftest import FAULT_ONSET_SAMPLE, rng_trace


class TestDft:
    def test_single_tone_concentrates_in_one_bin(self, baseline_record):
        spectrum = dft(select_channel(baseline_record, "a"))
        peak = int(np.argmax(spectrum.magnitudes))
        assert spectrum.frequencies()[peak] == pytest.approx(50.0)
        others = np.delete(spectrum.magnitudes, peak)
        assert others.max() < 1e-9 * spectrum.magnitudes[peak]

    def test_zero_trace_zero_magnitudes(self):
        spectrum = dft(Trace(np.zeros(64), 2000.0))
        assert np.all(spectrum.magnitudes == 0)

    def test_parseval_on_random_trace(self):
        x = rng_trace(1024, seed=11)
        spectrum = dft(Trace(x, 2000.0))
        assert abs(spectrum.energy() - np.sum(x**2)) <= 1e-9 * np.sum(x**2)

    def test_parseval_odd_length(self):
        x = rng_trace(401, seed=12)
        spectrum = dft(Trace(x, 2000.0))
        assert abs(spectrum.energy() - np.sum(x**2)) <= 1e-9 * np.sum(x**2)

    def test_linearity(self):
        x, y = rng_trace(256, 1), rng_trace(256, 2)
        both = np.fft.rfft(2.0 * x - 0.5 * y)
        np.testing.assert_allclose(
            both, 2.0 * np.fft.rfft(x) - 0.5 * np.fft.rfft(y), atol=1e-9
        )

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateInputError):
            dft(Trace(np.ones(1), 2000.0))


class TestStft:
    def test_stationary_tone_has_constant_peak_bin(self, baseline_record):
        gram = stft(select_channel(baseline_record, "a"), window_len=64, hop=16)
        peaks = np.argmax(gram.frames, axis=1)
        assert np.all(peaks == peaks[0])

    def test_frame_count_matches_contract(self, baseline_record):
        gram = stft(select_channel(baseline_record, "a"), window_len=64, hop=16)
        assert gram.frames.shape[0] == (400 - 64) // 16 + 1
        assert gram.frames.shape[1] == 64 // 2 + 1

    def test_highband_jumps_in_frame_containing_onset(self, ag_record):
        gram = stft(select_channel(ag_record, "a"), window_len=64, hop=16)
        band = gram.frequencies() >= 150.0
        energy = np.sum(gram.frames[:, band] ** 2, axis=1)
        starts = np.arange(gram.frames.shape[0]) * 16
        quiet = energy[starts + 64 <= FAULT_ONSET_SAMPLE]
        threshold = quiet.mean() + 5.0 * quiet.std() + 1e-12
        first = int(np.flatnonzero(energy > threshold)[0])
        lo = starts[first]
        assert lo <= FAULT_ONSET_SAMPLE < lo + 64

    def test_zero_trace_zero_frames(self):
        gram = stft(Trace(np.zeros(256), 2000.0))
        assert np.all(gram.frames == 0)

    def test_shift_by_hop_multiple_shifts_frames(self):
        x = rng_trace(512, seed=4)
        shifted = np.concatenate([np.zeros(32), x[:-32]])
        a = stft(Trace(x, 2000.0), window_len=64, hop=16)
        b = stft(Trace(shifted, 2000.0), window_len=64, hop=16)
        np.testing.assert_allclose(b.frames[2:], a.frames[: b.frames.shape[0] - 2], atol=1e-12)

    def test_window_longer_than_trace_rejected(self):
        with pytest.raises(ShapeError, match="window_len"):
            stft(Trace(np.zeros(32), 2000.0), window_len=64)

    def test_nonpositive_hop_rejected(self):
        with pytest.raises(ShapeError, match="hop"):
            stft(Trace(np.zeros(128), 2000.0), window_len=64, hop=0)


class TestHighbandEnergyIndex:
    def test_pure_tone_has_no_highband_content(self, baseline_record):
        trace = select_channel(baseline_record, "a")
        index = highband_energy_index(dft(trace), 150.0, (0, trace.n_samples))
        assert index < 1e-9

    def test_quadratic_homogeneity(self):
        x = rng_trace(400, seed=6)
        base = highband_energy_index(dft(Trace(x, 2000.0)), 150.0, (0, 400))
        scaled = highband_energy_index(dft(Trace(2.0 * x, 2000.0)), 150.0, (0, 400))
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)

    def test_fault_raises_post_onset_index(self, ag_record):
        # whole-cycle spans so the comparison is not edge-leakage noise
        trace = select_channel(ag_record, "a")
        pre = Trace(trace.samples[0:120], 2000.0)
        post = Trace(trace.samples[FAULT_ONSET_SAMPLE : FAULT_ONSET_SAMPLE + 240], 2000.0)
        pre_idx = highband_energy_index(dft(pre), 150.0, (0, 120))
        post_idx = highband_energy_index(
            dft(post), 150.0, (FAULT_ONSET_SAMPLE, FAULT_ONSET_SAMPLE + 240)
        )
        assert post_idx > pre_idx

    def test_monotone_as_cutoff_decreases(self):
        x = rng_trace(400, seed=8)
        spectrum = dft(Trace(x, 2000.0))
        cutoffs = [800.0, 400.0, 200.0, 100.0, 50.0]
        values = [highband_energy_index(spectrum, c, (0, 400)) for c in cutoffs]
        assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))

    def test_empty_span_rejected(self):
        with pytest.raises(DegenerateInputError):
            highband_energy_index(dft(Trace(np.ones(16), 2000.0)), 150.0, (3, 3))

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(ConfigError, match="Nyquist"):
            highband_energy_index(dft(Trace(np.ones(16), 2000.0)), 1000.0, (0, 16))
