"""Synthetic three-phase voltage records with injectable faults.

This module is the data source for every detector in the package. It builds
per-unit three-phase sinusoids, applies a parametric fault model (voltage sag
on the faulted phases plus a decaying high-frequency burst at onset), adds
white Gaussian noise at a target SNR, and supports fundamental-frequency
deviation scenarios. It also holds the input rules the other modules share,
:class:`Spans` among them.

All operations are pure: given the same inputs (noise seed included) they
return identical outputs, and returned objects are never mutated afterwards.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real

import numpy as np

from .errors import BoundsError, ConfigError, DegenerateInputError

TWO_PI = 2.0 * math.pi

# Default three-phase offsets: phases a, b, c at 0, -120, +120 degrees.
DEFAULT_PHASE_OFFSETS = (0.0, -TWO_PI / 3.0, TWO_PI / 3.0)

PHASES = ("a", "b", "c")  # row order of a record's samples

# The most samples a record can have: numpy caps an array's 24 bytes per
# three-phase sample at the largest intp.
MAX_SAMPLES = np.iinfo(np.intp).max // 24


class FaultType(Enum):
    """Supported short-circuit fault categories.

    The letters name the affected phases; a trailing G marks ground
    involvement and adds no extra phase to the affected set.
    """

    AG = "AG"
    BG = "BG"
    CG = "CG"
    AB = "AB"
    BC = "BC"
    ABCG = "ABCG"
    ABC = "ABC"
    NONE = "NONE"

    @property
    def phases(self) -> tuple[int, ...]:
        """Indices of the phase rows this fault touches."""
        return tuple("ABC".index(c) for c in self.value if c in "ABC")


@dataclass(frozen=True)
class WaveformConfig:
    """Parameters of the healthy three-phase waveform.

    Attributes:
        duration_s: Record length in seconds (default 0.2); must give an
            integer sample count from 2 to :data:`MAX_SAMPLES`.
        sample_rate_hz: Sampling rate (default 2 kHz).
        fundamental_hz: System frequency (default 50 Hz).
        amplitude_pu: Peak amplitude in per-unit. Physical ratings (e.g. a
            230 kV bus) are metadata only: scaling a record keeps each verdict
            until the detector's arithmetic under- or overflows float64.
        phase_offsets_rad: Per-phase offsets (a, b, c).
    """

    duration_s: float = 0.2
    sample_rate_hz: float = 2000.0
    fundamental_hz: float = 50.0
    amplitude_pu: float = 1.0
    phase_offsets_rad: tuple[float, float, float] = DEFAULT_PHASE_OFFSETS

    def __post_init__(self) -> None:
        given = self.phase_offsets_rad
        offsets = tuple(given) if isinstance(given, Iterable) else ()
        if len(offsets) != 3:
            raise ConfigError(f"phase_offsets_rad must be 3 finite numbers, got {given!r}")
        for offset in offsets:
            check_number("phase_offsets_rad", offset, "3 finite numbers")
        object.__setattr__(self, "phase_offsets_rad", offsets)
        rate = self.sample_rate_hz
        check_number("sample_rate_hz", rate, *POSITIVE)
        check_number("duration_s", self.duration_s,
                     f"positive, with an integer sample count from 2 to {MAX_SAMPLES} at {rate} Hz",
                     lambda s: 2 <= round(s * rate) <= MAX_SAMPLES
                     and abs(s * rate - round(s * rate)) <= 1e-6)
        check_fundamental(self.fundamental_hz)
        check_number("amplitude_pu", self.amplitude_pu, *NONNEGATIVE)
        check_nyquist(rate, self.fundamental_hz)

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))


@dataclass(frozen=True)
class FaultSpec:
    """Fault description driving signal synthesis.

    The fault model scales the faulted phases to ``retained_voltage_pu``
    between onset and clearing and superposes a decaying sinusoidal burst
    starting at onset. Defaults produce a visible abrupt sag plus a
    high-frequency signature suitable for level-1 detail coefficients.
    ``fault_type`` may be given as its value string (``"AG"``); the enum is stored.
    """

    # Burst frequency deliberately avoids fs/4 at the 2 kHz default rate: a
    # burst at exactly fs/4 hits alternate level-1 detail coefficients at
    # opposite phases, leaving every other coefficient near zero.
    fault_type: FaultType = FaultType.NONE
    onset_s: float = 0.065
    clear_s: float | None = None
    retained_voltage_pu: float = 0.3
    transient_gain: float = 0.4
    transient_freq_hz: float = 600.0
    transient_tau_s: float = 0.01

    def __post_init__(self) -> None:
        if not isinstance(self.fault_type, FaultType):
            try:
                object.__setattr__(self, "fault_type", FaultType(self.fault_type))
            except ValueError:
                listed = ", ".join(t.value for t in FaultType)
                raise ConfigError(
                    f"fault_type must be one of {listed}, got {self.fault_type!r}") from None
        check_number("onset_s", self.onset_s, *NONNEGATIVE)
        if self.clear_s is not None:
            check_number("clear_s", self.clear_s, f"finite and above onset_s={self.onset_s}",
                         lambda t: t > self.onset_s)
        check_number("retained_voltage_pu", self.retained_voltage_pu, "in [0, 1]",
                     lambda v: 0 <= v <= 1)
        check_number("transient_gain", self.transient_gain, *NONNEGATIVE)
        check_number("transient_freq_hz", self.transient_freq_hz, *POSITIVE)
        check_number("transient_tau_s", self.transient_tau_s, *POSITIVE)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian noise at a target SNR; absent SNR means none."""

    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.snr_db is not None:  # 10**(snr_db/10) is the power ratio add_noise divides by
            check_number("snr_db", self.snr_db, "finite, with 10**(snr_db/10) a finite float",
                         lambda db: math.isfinite(math.pow(10.0, db / 10.0)))
        check_count("seed", self.seed, 0)


# (requirement, ok) arguments of check_number for the common ranges
POSITIVE = ("finite and positive", lambda number: number > 0)
NONNEGATIVE = ("finite and nonnegative", lambda number: number >= 0)


def check_number(name: str, value, requirement: str, ok=lambda number: True) -> None:
    """Raise ConfigError unless ``value`` is a finite real number, not a boolean,
    for which ``ok`` holds; the message starts with the setting's ``name``."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must not be a boolean, got {value}")
    if isinstance(value, (float, int)) or isinstance(value, Real):
        try:
            if math.isfinite(value) and ok(value):
                return
        except OverflowError:  # an integer, or a quantity ``ok`` derives, beyond float range
            pass
    raise ConfigError(f"{name} must be {requirement}, got {value!r}")


def is_integer(value) -> bool:
    """Whether ``value`` is an integer and not a boolean. A plain ``int`` passes
    without the ``numbers.Integral`` lookup, which costs more than the rest of
    most checks; numpy integers take that lookup."""
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


def check_count(name: str, value, minimum: int) -> None:
    """:func:`check_number` for an integer setting of at least ``minimum``."""
    check_number(name, value, f"an integer >= {minimum}",
                 lambda count: is_integer(count) and count >= minimum)


def check_channel(channel) -> None:
    """Raise ConfigError unless ``channel`` names a phase: 'a', 'b' or 'c'."""
    if channel not in PHASES:  # a tuple, so an unhashable channel compares unequal, not raises
        raise ConfigError(f"channel must be 'a', 'b' or 'c', got {channel!r}")


def check_fundamental(fundamental_hz: float) -> None:
    """Raise ConfigError unless ``fundamental_hz`` is finite and positive."""
    check_number("fundamental_hz", fundamental_hz, *POSITIVE)


def check_nyquist(sample_rate_hz: float, fundamental_hz: float) -> None:
    """Raise ConfigError naming both numbers unless ``sample_rate_hz`` exceeds
    twice ``fundamental_hz``."""
    if sample_rate_hz <= 2.0 * fundamental_hz:
        raise ConfigError(
            f"sample_rate_hz={sample_rate_hz} violates Nyquist for fundamental_hz={fundamental_hz}")


def cycle_length(sample_rate_hz: float, fundamental_hz: float, n_samples: int) -> int:
    """Samples in one fundamental cycle, rounded: the ICA template period and the FT
    and wavelet energy window. Raise ConfigError unless :func:`check_nyquist` passes,
    which leaves at least 2 samples per cycle, and DegenerateInputError unless the
    cycle is shorter than the record."""
    check_nyquist(sample_rate_hz, fundamental_hz)
    samples_per_cycle = sample_rate_hz / fundamental_hz
    if not samples_per_cycle < n_samples:
        raise DegenerateInputError(
            f"one {fundamental_hz} Hz cycle is longer than the record ({n_samples} samples)")
    return int(round(samples_per_cycle))


def unit_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``values`` times ``2**-e``, which brings their largest magnitude into [0.5, 1), and
    ``e``: exact for normal floats, so sums of squares that underflow are taken of these."""
    exponent = math.frexp(float(np.maximum.reduce(np.abs(values), None)))[1]
    return np.ldexp(values, -exponent), exponent


def sliding_rows(values: np.ndarray, width: int, hop: int = 1) -> np.ndarray:
    """Read-only view whose row i is ``values[i*hop : i*hop + width]``, for every row
    that fits in the 1-D contiguous ``values``. The rows hold an index gather's values in
    its layout, so results are bitwise the gather's. ``np.ndarray`` builds the view without
    ``as_strided``'s Python overhead, and raises ValueError on a non-contiguous buffer."""
    step = values.itemsize
    rows = np.ndarray(((values.shape[0] - width) // hop + 1, width), values.dtype, values, 0,
                      (hop * step, step))
    rows.setflags(write=False)
    return rows


def window_grid(n_samples: int, width: int, hop: int,
                sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Start sample and center time (s) of each row :func:`sliding_rows` cuts ``hop``
    apart from ``n_samples`` values: the energy windows and the STFT frames."""
    starts = np.arange(0, n_samples - width + 1, hop)
    return starts, (starts + width / 2.0) / sample_rate_hz


@dataclass(frozen=True)
class Spans:
    """Half-open sample ranges: ``calibration`` is the one fault-free span
    (thresholds calibrate on it, the ICA template is built from it),
    ``analysis`` the span scanned for an onset. ``None`` stands for the
    default of the record at hand, which :meth:`resolve` fills in.

    Raises:
        BoundsError: naming the first span given that is not a 2-item list or
            tuple of integers (booleans excluded); a list is stored as a tuple.
    """

    calibration: tuple[int, int] | None = None
    analysis: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        for name in ("calibration", "analysis"):
            span = getattr(self, name)
            if span is None:
                continue
            if not (isinstance(span, (list, tuple)) and len(span) == 2
                    and all(map(is_integer, span))):
                raise BoundsError(f"spans.{name}={span!r} must be two integers")
            object.__setattr__(self, name, tuple(span))

    def resolve(self, n_samples: int) -> Spans:
        """These spans on a record of ``n_samples``; by default the first 30%
        (at least 2 samples) calibrates and all of it is analysed.

        Raises:
            BoundsError: naming the first span that does not fit the record.
        """
        head = (0, max(2, int(0.3 * n_samples)))
        resolved = Spans(head if self.calibration is None else self.calibration,
                         (0, n_samples) if self.analysis is None else self.analysis)
        for name in ("calibration", "analysis"):
            lo, hi = getattr(resolved, name)
            if not 0 <= lo < hi <= n_samples:
                raise BoundsError(
                    f"spans.{name}=({lo}, {hi}) lies outside the record (N={n_samples})")
        return resolved


@dataclass(frozen=True, eq=False)
class Trace:
    """A single sampled channel."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.samples.ndim != 1:
            raise ConfigError("trace samples must be one-dimensional")
        if not np.logical_and.reduce(np.isfinite(self.samples), None):
            raise ConfigError("trace samples must be finite")
        check_number("sample_rate_hz", self.sample_rate_hz, *POSITIVE)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True, eq=False)
class ThreePhaseRecord:
    """Sampled phase voltages (rows a, b, c) plus sampling metadata.

    ``labels`` optionally carries the ground-truth fault used to build the
    record, for testing and reporting; detectors never read it.
    """

    sample_rate_hz: float
    samples: np.ndarray
    labels: FaultSpec | None = None

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 2 or samples.shape[0] != 3:
            raise ConfigError(f"samples must be a 3xN matrix, got shape {samples.shape}")
        if samples.shape[1] < 2:
            raise ConfigError("record must contain at least 2 samples per phase")
        if not np.all(np.isfinite(samples)):
            raise ConfigError("record samples must be finite")
        check_number("sample_rate_hz", self.sample_rate_hz, *POSITIVE)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def time_axis(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.sample_rate_hz


def generate_baseline(config: WaveformConfig) -> ThreePhaseRecord:
    """Generate a healthy three-phase record.

    Row p at sample n equals
    ``amplitude_pu * sin(2*pi*fundamental_hz*n/sample_rate_hz + offset[p])``.

    Args:
        config: Waveform parameters; validated on construction.

    Returns:
        Record labelled with a NONE fault.
    """
    # in place, so synthesis holds one 3xN array: the phase angles become the samples
    angle = np.arange(config.n_samples) / config.sample_rate_hz
    angle *= TWO_PI * config.fundamental_hz
    samples = angle + np.asarray(config.phase_offsets_rad)[:, None]
    np.sin(samples, out=samples)
    samples *= config.amplitude_pu
    return ThreePhaseRecord(
        sample_rate_hz=config.sample_rate_hz, samples=samples, labels=FaultSpec()
    )


def inject_fault(record: ThreePhaseRecord, fault: FaultSpec) -> ThreePhaseRecord:
    """Apply a fault to a record; phases outside the fault's set are untouched.

    Between onset and clearing the faulted phase rows are scaled to
    ``retained_voltage_pu`` and a burst
    ``transient_gain * exp(-(t-onset)/tau) * sin(2*pi*f_t*(t-onset))``
    is superposed.

    Args:
        record: Input record.
        fault: Fault to inject. ``FaultType.NONE`` returns the record as is.

    Returns:
        New record carrying ``fault`` as its label.

    Raises:
        BoundsError: onset or clearing time lies outside the record.
        ConfigError: the faulted samples overflow float64.
    """
    if fault.fault_type is FaultType.NONE:
        return record

    fs = record.sample_rate_hz
    n = record.n_samples
    onset_idx = int(round(min(fault.onset_s * fs, n)))  # min: inf cannot become an int
    if onset_idx >= n:
        raise BoundsError(f"fault onset {fault.onset_s} s is beyond the record end ({n / fs} s)")
    if fault.clear_s is None:
        clear_idx = n
    else:
        clear_idx = int(round(min(fault.clear_s * fs, n + 1)))
        if clear_idx > n:
            raise BoundsError(f"fault clearing {fault.clear_s} s is beyond the record end "
                              f"({n / fs} s)")

    t_rel = (np.arange(onset_idx, clear_idx) - onset_idx) / fs
    samples = record.samples.copy()
    # A decay past float range is a zero burst, not a warning; a burst that is
    # not finite is rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        burst = (
            fault.transient_gain
            * np.exp(-t_rel / fault.transient_tau_s)
            * np.sin(TWO_PI * fault.transient_freq_hz * t_rel)
        )
        for p in fault.fault_type.phases:
            samples[p, onset_idx:clear_idx] = (
                fault.retained_voltage_pu * samples[p, onset_idx:clear_idx] + burst
            )
    if not np.isfinite(samples).all():
        raise ConfigError("the fault burst overflows float64 on this record")
    return ThreePhaseRecord(sample_rate_hz=fs, samples=samples, labels=fault)


def add_noise(record: ThreePhaseRecord, noise: NoiseSpec) -> ThreePhaseRecord:
    """Add per-row white Gaussian noise at the requested SNR.

    Noise variance per row is ``row_power / 10**(snr_db/10)`` where row power
    is the mean square of the row, taken of :func:`unit_scaled` samples where
    every row's is under 2**-960, so the noise keeps its scale down to normal
    floats. Deterministic given ``noise.seed``; an absent ``snr_db`` returns
    the input unchanged.

    Raises:
        ConfigError: a row's mean square overflows float64, so no SNR can be
            set, or the noise does (an SNR far below -3000 dB).
        DegenerateInputError: the record has zero power but an SNR was given.
    """
    if noise.snr_db is None:
        return record

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        row_power = np.mean(record.samples**2, axis=1)
        if not np.isfinite(row_power).all():
            raise ConfigError("the record's mean square overflows float64, so no SNR can be set")
        exponent = 0
        if np.maximum.reduce(row_power) < 2.0 ** -960:
            scaled, exponent = unit_scaled(record.samples)
            row_power = np.mean(scaled**2, axis=1)
        if np.all(row_power == 0.0):
            raise DegenerateInputError("cannot set an SNR on a zero-power record")
        noise_std = np.ldexp(np.sqrt(row_power / 10.0 ** (noise.snr_db / 10.0)), exponent)
        # noise * std + samples in place: IEEE addition commutes, so this is
        # bitwise samples + noise * std
        samples = np.random.default_rng(noise.seed).standard_normal(record.samples.shape)
        samples *= noise_std[:, None]
        samples += record.samples
    if not np.isfinite(samples).all():
        raise ConfigError(f"noise at snr_db={noise.snr_db} overflows float64 on this record")
    return ThreePhaseRecord(sample_rate_hz=record.sample_rate_hz, samples=samples,
                            labels=record.labels)


def select_channel(record: ThreePhaseRecord, phase: str) -> Trace:
    """Extract one phase as a single-channel trace (same sample rate); a phase
    other than 'a', 'b' or 'c' is rejected by :func:`check_channel`."""
    check_channel(phase)
    return Trace(
        samples=record.samples[PHASES.index(phase)].copy(),
        sample_rate_hz=record.sample_rate_hz,
    )
