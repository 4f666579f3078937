"""Tests for the Fourier and short-time Fourier transforms."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import faultwave
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
from faultwave import spectral
from faultwave.signal_model import sliding_rows, window_grid
from faultwave.spectral import (STFT_HOP, STFT_TAPER, STFT_WINDOW, bin_frequencies,
                                frame_magnitudes)
from conftest import FAULT_ONSET_SAMPLE, assert_bitwise_equal, rng_trace


def one_sided_energy(magnitudes: np.ndarray, n: int) -> float:
    """sum(x**2) from the one-sided bins of ``n`` samples: weight 2 on interior
    bins, 1 on DC and, for even N, on the Nyquist bin."""
    weights = np.full(magnitudes.shape[0], 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return float(np.sum(weights * magnitudes**2))


def test_transforms_return_arrays_and_spectral_defines_no_dataclass():
    trace = Trace(rng_trace(128, seed=3), 2000.0)
    assert type(dft(trace)) is np.ndarray and dft(trace).shape == (65,)
    assert type(stft(trace)) is np.ndarray and stft(trace).shape == (5, STFT_WINDOW // 2 + 1)
    assert not [name for name, value in vars(spectral).items() if dataclasses.is_dataclass(value)
                and value.__module__ == spectral.__name__]
    assert not {"Spectrum", "Spectrogram"} & (set(faultwave.__all__) | set(vars(faultwave)))


class TestDft:
    def test_single_tone_concentrates_in_one_bin(self, baseline_record):
        magnitudes = dft(select_channel(baseline_record, "a"))
        peak = int(np.argmax(magnitudes))
        assert bin_frequencies(400, 2000.0)[peak] == pytest.approx(50.0)
        others = np.delete(magnitudes, peak)
        assert others.max() < 1e-9 * magnitudes[peak]

    def test_zero_trace_zero_magnitudes(self):
        assert np.all(dft(Trace(np.zeros(64), 2000.0)) == 0)

    def test_parseval_on_random_trace(self):
        x = rng_trace(1024, seed=11)
        magnitudes = dft(Trace(x, 2000.0))
        assert abs(one_sided_energy(magnitudes, 1024) - np.sum(x**2)) <= 1e-9 * np.sum(x**2)

    def test_parseval_odd_length(self):
        x = rng_trace(401, seed=12)
        magnitudes = dft(Trace(x, 2000.0))
        assert abs(one_sided_energy(magnitudes, 401) - np.sum(x**2)) <= 1e-9 * np.sum(x**2)

    @pytest.mark.parametrize("n", (2, 3, 400, 401))
    def test_bins_step_by_the_rate_over_the_length(self, n):
        frequencies = bin_frequencies(n, 2000.0)
        assert frequencies.shape == dft(Trace(rng_trace(n), 2000.0)).shape
        assert frequencies[0] == 0.0 and frequencies[1] == pytest.approx(2000.0 / n)
        assert frequencies[-1] <= 1000.0

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
        frames = stft(select_channel(baseline_record, "a"))
        peaks = np.argmax(frames, axis=1)
        assert np.all(peaks == peaks[0])

    def test_frame_count_matches_contract(self, baseline_record):
        frames = stft(select_channel(baseline_record, "a"))
        assert frames.shape[0] == (400 - 64) // 16 + 1
        assert frames.shape[1] == 64 // 2 + 1

    def test_highband_jumps_in_frame_containing_onset(self, ag_record):
        frames = stft(select_channel(ag_record, "a"))
        band = bin_frequencies(STFT_WINDOW, 2000.0) >= 150.0
        energy = np.sum(frames[:, band] ** 2, axis=1)
        starts = np.arange(frames.shape[0]) * 16
        quiet = energy[starts + 64 <= FAULT_ONSET_SAMPLE]
        threshold = quiet.mean() + 5.0 * quiet.std() + 1e-12
        first = int(np.flatnonzero(energy > threshold)[0])
        lo = starts[first]
        assert lo <= FAULT_ONSET_SAMPLE < lo + 64

    def test_zero_trace_zero_frames(self):
        assert np.all(stft(Trace(np.zeros(256), 2000.0)) == 0)

    def test_shift_by_hop_multiple_shifts_frames(self):
        x = rng_trace(512, seed=4)
        shifted = np.concatenate([np.zeros(32), x[:-32]])
        a = stft(Trace(x, 2000.0))
        b = stft(Trace(shifted, 2000.0))
        np.testing.assert_allclose(b[2:], a[: b.shape[0] - 2], atol=1e-12)

    def test_trace_shorter_than_one_frame_rejected(self):
        with pytest.raises(ShapeError, match="window_len"):
            stft(Trace(np.zeros(32), 2000.0))

    def test_checks_its_frame_once(self, monkeypatch):
        calls = []
        check = spectral.check_framing
        monkeypatch.setattr(spectral, "check_framing", lambda *a: calls.append(a) or check(*a))
        stft(Trace(np.zeros(128), 2000.0))
        assert calls == [(128, STFT_WINDOW, STFT_HOP)]

    def test_taper_is_a_read_only_hann_constant(self):
        assert_bitwise_equal(STFT_TAPER, np.hanning(64))
        assert not STFT_TAPER.flags.writeable
        with pytest.raises(ValueError):
            STFT_TAPER[0] = 1.0

    def test_spectral_keeps_no_cache(self):
        assert not any(hasattr(value, "cache_clear") for value in vars(spectral).values())
        assert not hasattr(spectral, "lru_cache") and not hasattr(spectral, "PLAN_CACHE_SIZE")


def index_frame_magnitudes(samples, window_len, hop, taper):
    """Reference: gather the frames through a (frames, window_len) index array."""
    n = samples.shape[0]
    starts = np.arange((n - window_len) // hop + 1) * hop
    segments = samples[starts[:, None] + np.arange(window_len)[None, :]]
    return np.abs(np.fft.rfft(segments * taper, axis=1)) / np.sqrt(window_len)


@st.composite
def frame_grids(draw):
    """(n, window_len, hop): any window up to the record, hops past the window."""
    n = draw(st.integers(2, 2048))
    window_len = draw(st.integers(2, n))
    return n, window_len, draw(st.integers(1, 2 * window_len))


@settings(max_examples=60, deadline=None)
@given(grid=frame_grids(), fs=st.floats(1.0, 1e6))
@example(grid=(400, STFT_WINDOW, STFT_HOP), fs=2000.0)  # the STFT frame of a paper record
@example(grid=(400, 40, 57), fs=2000.0)  # hop longer than the window
def test_window_grid_has_one_entry_per_frame(grid, fs):
    n, width, hop = grid
    starts, times_s = window_grid(n, width, hop, fs)
    rows = sliding_rows(np.zeros(n), width, hop).shape[0]
    assert starts.shape == times_s.shape == (rows,)
    assert frame_magnitudes(np.zeros(n), width, hop).shape[0] == rows
    assert_bitwise_equal(starts, np.arange(rows) * hop)
    assert_bitwise_equal(times_s, (starts + width / 2.0) / fs)


class TestFrameMagnitudes:
    """The strided view against the index gather, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(grid=frame_grids(), seed=st.integers(0, 2**16), hann=st.booleans())
    @example(grid=(400, 63, 16), seed=0, hann=True)  # odd window
    @example(grid=(400, 40, 7), seed=1, hann=False)  # hop does not divide n - window
    @example(grid=(400, 40, 57), seed=2, hann=False)  # hop longer than the window
    @example(grid=(400, 400, 16), seed=3, hann=True)  # one frame: window_len == n
    def test_equals_index_reference_bitwise(self, grid, seed, hann):
        n, window_len, hop = grid
        samples = rng_trace(n, seed)
        taper = np.hanning(window_len) if hann else np.ones(window_len)
        assert_bitwise_equal(frame_magnitudes(samples, window_len, hop, taper),
                             index_frame_magnitudes(samples, window_len, hop, taper))

    def test_window_longer_than_samples_rejected(self):
        with pytest.raises(ShapeError, match="window_len"):
            frame_magnitudes(np.zeros(32), 64, 16)

    def test_nonpositive_hop_rejected(self):
        with pytest.raises(ShapeError, match="hop"):
            frame_magnitudes(np.zeros(128), 64, 0)

    @pytest.mark.parametrize("window_len, hop", [(64, 16.5), (64.0, 16), (64, True),
                                                 (True, 16), (64, np.float64(16.0))])
    def test_non_integer_window_or_hop_rejected(self, window_len, hop):
        with pytest.raises(ShapeError, match="integers"):
            frame_magnitudes(np.zeros(128), window_len, hop)

    def test_numpy_integer_window_and_hop_accepted(self):
        samples = rng_trace(128, seed=2)
        assert_bitwise_equal(frame_magnitudes(samples, np.int64(64), np.int32(16), STFT_TAPER),
                             frame_magnitudes(samples, 64, 16, STFT_TAPER))

    def test_two_dimensional_samples_rejected(self):
        with pytest.raises(ShapeError, match="1-D"):
            frame_magnitudes(np.zeros((2, 64)), 8, 4, np.ones(8))

    def test_strided_input_reads_its_own_elements(self):
        """A column of a record-major array is 1-D but not contiguous."""
        column = rng_trace(3 * 400, seed=5).reshape(400, 3)[:, 1]
        taper = np.hanning(64)
        assert_bitwise_equal(frame_magnitudes(column, 64, 16, taper),
                             index_frame_magnitudes(column, 64, 16, taper))


class TestHighbandEnergyIndex:
    def test_pure_tone_has_no_highband_content(self, baseline_record):
        trace = select_channel(baseline_record, "a")
        index = highband_energy_index(trace, 150.0, (0, trace.n_samples))
        assert index < 1e-9

    def test_quadratic_homogeneity(self):
        x = rng_trace(400, seed=6)
        base = highband_energy_index(Trace(x, 2000.0), 150.0, (0, 400))
        scaled = highband_energy_index(Trace(2.0 * x, 2000.0), 150.0, (0, 400))
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)

    def test_fault_raises_post_onset_index(self, ag_record):
        # whole-cycle spans so the comparison is not edge-leakage noise
        trace = select_channel(ag_record, "a")
        pre_idx = highband_energy_index(trace, 150.0, (0, 120))
        post_idx = highband_energy_index(
            trace, 150.0, (FAULT_ONSET_SAMPLE, FAULT_ONSET_SAMPLE + 240)
        )
        assert post_idx > pre_idx

    def test_monotone_as_cutoff_decreases(self):
        x = rng_trace(400, seed=8)
        cutoffs = [800.0, 400.0, 200.0, 100.0, 50.0]
        values = [highband_energy_index(Trace(x, 2000.0), c, (0, 400)) for c in cutoffs]
        assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))

    def test_empty_span_rejected(self):
        with pytest.raises(DegenerateInputError):
            highband_energy_index(Trace(np.ones(16), 2000.0), 150.0, (3, 3))

    @pytest.mark.parametrize("span", [(-1, 8), (8, 17)])
    def test_span_outside_trace_rejected(self, span):
        with pytest.raises(DegenerateInputError, match="outside the trace"):
            highband_energy_index(Trace(np.ones(16), 2000.0), 150.0, span)

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(ConfigError, match="Nyquist"):
            highband_energy_index(Trace(np.ones(16), 2000.0), 1000.0, (0, 16))
