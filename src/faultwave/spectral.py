"""Fourier and short-time Fourier transforms with high-band energy indices.

Normalization: one-sided magnitudes are |FFT(x)| / sqrt(N) (unitary scaling),
so summing squared magnitudes with weight 2 on interior bins (1 on DC and,
for even N, the Nyquist bin) reproduces the signal energy sum(x**2) exactly.

The STFT frame, :data:`STFT_WINDOW` samples every :data:`STFT_HOP`, serves the
spectrogram and ``energy_stft`` alike; its Hann taper is planned once per frame
length (the last :data:`PLAN_CACHE_SIZE` kept, read-only, 8 bytes per sample).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError
from .signal_model import Trace

PLAN_CACHE_SIZE = 8  # tapers kept; the least recently used goes first

# Frame length and hop of the STFT, in samples: a 10 ms-scale burst at 2 kHz.
STFT_WINDOW = 64
STFT_HOP = 16


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


def _check_framing(samples: np.ndarray, window_len: int, hop: int) -> None:
    """Raise ShapeError unless ``samples`` is 1-D and ``window_len``/``hop`` are
    integers (not booleans) with 2 <= window_len <= len(samples) and hop >= 1."""
    if samples.ndim != 1:
        raise ShapeError(f"samples must be 1-D, got shape {samples.shape}")
    if (isinstance(window_len, bool) or isinstance(hop, bool)
            or not isinstance(window_len, Integral) or not isinstance(hop, Integral)):
        raise ShapeError(f"window_len and hop must be integers, got {window_len!r}, {hop!r}")
    n = samples.shape[0]
    if not 2 <= window_len <= n or hop < 1:
        raise ShapeError(f"need 2 <= window_len <= {n} and hop >= 1, got {window_len}, {hop}")


def frame_magnitudes(samples: np.ndarray, window_len: int, hop: int,
                     taper: np.ndarray | None = None) -> np.ndarray:
    """Row f is |rfft(taper * samples[f*hop : f*hop + window_len])| / sqrt(window_len);
    ``taper=None`` is the rectangular window.

    The frames are a strided view of ``samples`` (rows ``hop`` elements
    apart), so no index array is built; multiplying by a taper makes the one
    copy, and without one the view goes to the FFT as it is (multiplying by
    ones would copy the frames to change no value). ``np.ndarray`` builds the
    view (and checks that it stays inside ``samples``) without the Python
    overhead of ``as_strided``. The view holds the same segment values as a
    gather through a ``(frames, window_len)`` index array, so the spectra are
    bitwise unchanged.

    Raises:
        ShapeError: ``samples`` not 1-D; window or hop not an integer, window
            outside 2..len(samples), or hop < 1.
    """
    _check_framing(samples, window_len, hop)
    samples = np.ascontiguousarray(samples)
    step = samples.itemsize
    frames = (samples.shape[0] - window_len) // hop + 1
    segments = np.ndarray((frames, window_len), samples.dtype, samples, 0,
                          (int(hop) * step, step))
    if taper is not None:
        segments = segments * taper
    return np.abs(np.fft.rfft(segments, axis=1)) / np.sqrt(window_len)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _hann(window_len: int) -> np.ndarray:
    """Read-only ``np.hanning(window_len)``."""
    taper = np.hanning(window_len)
    taper.flags.writeable = False
    return taper


def stft(trace: Trace, window_len: int = STFT_WINDOW, hop: int = STFT_HOP) -> Spectrogram:
    """Short-time Fourier transform with a Hann window.

    Frames start every ``hop`` samples; frame times mark window centers.

    Raises:
        ShapeError: see :func:`frame_magnitudes`.
    """
    _check_framing(trace.samples, window_len, hop)  # np.hanning takes 16.5 or True
    frames = frame_magnitudes(trace.samples, window_len, hop, _hann(int(window_len)))
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
