"""Fourier and short-time Fourier transforms with high-band energy indices.

Normalization: one-sided magnitudes are |FFT(x)| / sqrt(N) (unitary scaling),
so summing squared magnitudes with weight 2 on interior bins (1 on DC and,
for even N, the Nyquist bin) reproduces the signal energy sum(x**2) exactly.

The STFT frame is one constant, :data:`STFT_WINDOW` samples every
:data:`STFT_HOP` under the read-only Hann taper :data:`STFT_TAPER`; it serves
the spectrogram and ``energy_stft`` alike. :func:`frame_magnitudes` checks
every framing once with :func:`check_framing`, then cuts the frames as
:func:`~faultwave.signal_model.sliding_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError
from .signal_model import Trace, is_integer, sliding_rows

# Frame length and hop of the STFT, in samples: a 10 ms-scale burst at 2 kHz.
STFT_WINDOW = 64
STFT_HOP = 16
STFT_TAPER = np.hanning(STFT_WINDOW)
STFT_TAPER.flags.writeable = False


@dataclass(eq=False)
class Spectrum:
    """One-sided magnitude spectrum of a whole trace."""

    bin_hz: float
    magnitudes: np.ndarray
    n_samples: int

    def frequencies(self) -> np.ndarray:
        return np.arange(self.magnitudes.shape[0]) * self.bin_hz


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


def check_framing(n: int, window_len: int, hop: int) -> None:
    """Raise ShapeError unless ``window_len`` and ``hop`` are integers
    (:func:`~faultwave.signal_model.is_integer`) with 2 <= window_len <= n and
    hop >= 1."""
    if not (is_integer(window_len) and is_integer(hop)):
        raise ShapeError(f"window_len and hop must be integers, got {window_len!r}, {hop!r}")
    if not 2 <= window_len <= n or hop < 1:
        raise ShapeError(f"need 2 <= window_len <= {n} and hop >= 1, got {window_len}, {hop}")


def frame_magnitudes(samples: np.ndarray, window_len: int, hop: int,
                     taper: np.ndarray | None = None) -> np.ndarray:
    """Row f is |rfft(taper * samples[f*hop : f*hop + window_len])| / sqrt(window_len);
    ``taper=None`` is the rectangular window.

    The frames are :func:`~faultwave.signal_model.sliding_rows` of
    ``samples``, ``hop`` elements apart; multiplying by a taper makes the one
    copy, and without one the view goes to the FFT as it is (multiplying by
    ones would copy the frames to change no value).

    Raises:
        ShapeError: ``samples`` not 1-D; window or hop not an integer, window
            outside 2..len(samples), or hop < 1.
    """
    if samples.ndim != 1:
        raise ShapeError(f"samples must be 1-D, got shape {samples.shape}")
    check_framing(samples.shape[0], window_len, hop)
    segments = sliding_rows(np.ascontiguousarray(samples), window_len, int(hop))
    if taper is not None:
        segments = segments * taper
    return np.abs(np.fft.rfft(segments, axis=1)) / np.sqrt(window_len)


def stft(trace: Trace) -> Spectrogram:
    """Short-time Fourier transform over the one STFT frame: :data:`STFT_WINDOW`
    samples every :data:`STFT_HOP`, tapered by :data:`STFT_TAPER`.

    Frame times mark window centers.

    Raises:
        ShapeError: the trace is shorter than one frame.
    """
    frames = frame_magnitudes(trace.samples, STFT_WINDOW, STFT_HOP, STFT_TAPER)
    starts = np.arange(frames.shape[0]) * STFT_HOP
    return Spectrogram(
        frames=frames,
        frame_times_s=(starts + STFT_WINDOW / 2.0) / trace.sample_rate_hz,
        bin_hz=trace.sample_rate_hz / STFT_WINDOW,
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
