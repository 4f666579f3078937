"""Fourier and short-time Fourier transforms with high-band energy indices.

Normalization: one-sided magnitudes are |FFT(x)| / sqrt(N) (unitary scaling),
so summing squared magnitudes with weight 2 on interior bins (1 on DC and,
for even N, the Nyquist bin) reproduces the signal energy sum(x**2) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError
from .signal_model import Trace


@dataclass(eq=False)
class Spectrum:
    """One-sided magnitude spectrum of a whole trace."""

    bin_hz: float
    magnitudes: np.ndarray
    n_samples: int

    def frequencies(self) -> np.ndarray:
        return np.arange(self.magnitudes.shape[0]) * self.bin_hz

    def energy(self) -> float:
        """Total signal energy sum(x**2) recovered from the one-sided bins."""
        weights = np.full(self.magnitudes.shape[0], 2.0)
        weights[0] = 1.0
        if self.n_samples % 2 == 0:
            weights[-1] = 1.0
        return float(np.sum(weights * self.magnitudes**2))


@dataclass(eq=False)
class Spectrogram:
    """Hann-windowed magnitude frames, one row per frame; times mark frame centers."""

    frames: np.ndarray
    frame_times_s: np.ndarray
    bin_hz: float

    def frequencies(self) -> np.ndarray:
        return np.arange(self.frames.shape[1]) * self.bin_hz


def dft(trace: Trace) -> Spectrum:
    """One-sided discrete Fourier transform under unitary scaling.

    Raises:
        DegenerateInputError: fewer than 2 samples.
    """
    n = trace.n_samples
    if n < 2:
        raise DegenerateInputError(f"need at least 2 samples for a spectrum, got {n}")
    return Spectrum(
        bin_hz=trace.sample_rate_hz / n,
        magnitudes=np.abs(np.fft.rfft(trace.samples) / np.sqrt(n)),
        n_samples=n,
    )


def frame_magnitudes(samples: np.ndarray, window_len: int, hop: int, taper: np.ndarray) -> np.ndarray:
    """Row f is |rfft(taper * samples[f*hop : f*hop + window_len])| / sqrt(window_len).

    Raises:
        ShapeError: window outside 2..len(samples), or hop < 1.
    """
    n = samples.shape[0]
    if not 2 <= window_len <= n or hop < 1:
        raise ShapeError(f"need 2 <= window_len <= {n} and hop >= 1, got {window_len}, {hop}")
    starts = np.arange((n - window_len) // hop + 1) * hop
    segments = samples[starts[:, None] + np.arange(window_len)[None, :]]
    return np.abs(np.fft.rfft(segments * taper, axis=1)) / np.sqrt(window_len)


def stft(trace: Trace, window_len: int = 64, hop: int = 16) -> Spectrogram:
    """Short-time Fourier transform with a Hann window.

    Frames start every ``hop`` samples; frame times mark window centers.
    Defaults (64 samples, hop 16) resolve a 10 ms-scale burst at 2 kHz.

    Raises:
        ShapeError: see :func:`frame_magnitudes`.
    """
    frames = frame_magnitudes(trace.samples, window_len, hop, np.hanning(window_len))
    starts = np.arange(frames.shape[0]) * hop
    return Spectrogram(
        frames=frames,
        frame_times_s=(starts + window_len / 2.0) / trace.sample_rate_hz,
        bin_hz=trace.sample_rate_hz / window_len,
    )


def highband_energy_index(spectrum: Spectrum, cutoff_hz: float, span: tuple[int, int]) -> float:
    """Squared-magnitude sum in bins at or above ``cutoff_hz``, per span sample.

    ``spectrum`` is expected to be the transform of ``span = (start, stop)``
    taken in isolation; the sum is divided by the span length in samples.

    Raises:
        DegenerateInputError: empty span.
        ConfigError: cutoff at or above the Nyquist frequency.
    """
    lo, hi = span
    if hi <= lo:
        raise DegenerateInputError(f"span {span} is empty")
    if cutoff_hz >= spectrum.bin_hz * spectrum.n_samples / 2.0:
        raise ConfigError(f"cutoff {cutoff_hz} Hz is at or above the Nyquist frequency")
    bins = spectrum.frequencies() >= cutoff_hz
    return float(np.sum(spectrum.magnitudes[bins] ** 2) / (hi - lo))
