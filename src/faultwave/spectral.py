"""Fourier and short-time Fourier transforms with high-band energy indices.

A transform returns magnitudes: :func:`dft` a vector, :func:`stft` a row per
frame of :func:`~faultwave.signal_model.window_grid`; :func:`bin_frequencies`
is the frequency of each column.

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

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError
from .signal_model import Trace, is_integer, sliding_rows

# Frame length and hop of the STFT, in samples: a 10 ms-scale burst at 2 kHz.
STFT_WINDOW = 64
STFT_HOP = 16
STFT_TAPER = np.hanning(STFT_WINDOW)
STFT_TAPER.flags.writeable = False


def bin_frequencies(window_len: int, sample_rate_hz: float) -> np.ndarray:
    """Frequency (Hz) of each one-sided bin of an FFT over ``window_len`` samples."""
    return np.arange(window_len // 2 + 1) * (sample_rate_hz / window_len)


def dft(trace: Trace) -> np.ndarray:
    """One-sided magnitude spectrum under unitary scaling, at
    ``bin_frequencies(trace.n_samples, trace.sample_rate_hz)``.

    Raises:
        DegenerateInputError: fewer than 2 samples.
    """
    n = trace.n_samples
    if n < 2:
        raise DegenerateInputError(f"need at least 2 samples for a spectrum, got {n}")
    return np.abs(np.fft.rfft(trace.samples) / np.sqrt(n))


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


def stft(trace: Trace) -> np.ndarray:
    """Short-time Fourier magnitudes over the one STFT frame: :data:`STFT_WINDOW`
    samples every :data:`STFT_HOP`, tapered by :data:`STFT_TAPER`; the columns
    are ``bin_frequencies(STFT_WINDOW, trace.sample_rate_hz)``.

    Raises:
        ShapeError: the trace is shorter than one frame.
    """
    return frame_magnitudes(trace.samples, STFT_WINDOW, STFT_HOP, STFT_TAPER)


def highband_energy_index(trace: Trace, cutoff_hz: float, span: tuple[int, int]) -> float:
    """Squared-magnitude sum of the :func:`dft` of ``trace[start:stop]``, taken in
    isolation, over its bins at or above ``cutoff_hz``, per span sample.

    The reference the energy detectors are tested against: it masks its own bins.

    Raises:
        DegenerateInputError: a span empty or outside the trace, or of fewer
            than 2 samples.
        ConfigError: cutoff at or above the Nyquist frequency.
    """
    lo, hi = span
    n, fs = trace.n_samples, trace.sample_rate_hz
    if not 0 <= lo < hi <= n:
        raise DegenerateInputError(f"span {span} is empty or outside the trace (N={n})")
    if cutoff_hz >= fs / 2.0:
        raise ConfigError(f"cutoff {cutoff_hz} Hz is at or above the Nyquist frequency")
    magnitudes = dft(Trace(trace.samples[lo:hi], fs))
    bins = np.arange(magnitudes.shape[0]) * (fs / (hi - lo)) >= cutoff_hz
    return float(np.sum(magnitudes[bins] ** 2) / (hi - lo))
