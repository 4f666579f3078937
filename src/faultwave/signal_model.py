"""Synthetic three-phase voltage records with injectable faults.

This module is the data source for every detector in the package. It builds
per-unit three-phase sinusoids, applies a parametric fault model (voltage sag
on the faulted phases plus a decaying high-frequency burst at onset), adds
white Gaussian noise at a target SNR, and supports fundamental-frequency
deviation scenarios.

All operations are pure: given the same inputs (noise seed included) they
return identical outputs, and returned objects are never mutated afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from .errors import BoundsError, ConfigError, DegenerateInputError

TWO_PI = 2.0 * math.pi

# Default three-phase offsets: phases a, b, c at 0, -120, +120 degrees.
DEFAULT_PHASE_OFFSETS = (0.0, -TWO_PI / 3.0, TWO_PI / 3.0)

PHASE_INDEX = {"a": 0, "b": 1, "c": 2}


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
        if self is FaultType.NONE:
            return ()
        letters = [c for c in self.value if c in "ABC"]
        return tuple(PHASE_INDEX[c.lower()] for c in letters)


@dataclass(frozen=True)
class WaveformConfig:
    """Parameters of the healthy three-phase waveform.

    Attributes:
        duration_s: Record length in seconds; must give an integer sample
            count of at least 2.
        sample_rate_hz: Sampling rate (default 2 kHz).
        fundamental_hz: System frequency (default 50 Hz).
        amplitude_pu: Peak amplitude in per-unit. Physical ratings (e.g. a
            230 kV bus) are metadata only; detectors are scale-covariant.
        phase_offsets_rad: Per-phase offsets (a, b, c).
    """

    duration_s: float
    sample_rate_hz: float = 2000.0
    fundamental_hz: float = 50.0
    amplitude_pu: float = 1.0
    phase_offsets_rad: tuple[float, float, float] = DEFAULT_PHASE_OFFSETS

    def __post_init__(self) -> None:
        offsets = tuple(self.phase_offsets_rad)
        object.__setattr__(self, "phase_offsets_rad", offsets)
        if len(offsets) != 3 or not np.all(np.isfinite(np.asarray(offsets, dtype=float))):
            raise ConfigError(f"phase_offsets_rad must be 3 finite numbers, got {offsets}")
        _check_rate(self.sample_rate_hz)
        if not 0 < self.duration_s < math.inf:
            raise ConfigError(f"duration_s must be finite and positive, got {self.duration_s}")
        if not 0 < self.fundamental_hz < math.inf:
            raise ConfigError(
                f"fundamental_hz must be finite and positive, got {self.fundamental_hz}")
        if self.amplitude_pu < 0:
            raise ConfigError(f"amplitude_pu must be nonnegative, got {self.amplitude_pu}")
        if self.sample_rate_hz <= 2.0 * self.fundamental_hz:
            raise ConfigError(
                f"sample_rate_hz={self.sample_rate_hz} violates Nyquist for "
                f"fundamental_hz={self.fundamental_hz}"
            )
        n_exact = self.duration_s * self.sample_rate_hz
        if not n_exact < math.inf or abs(n_exact - round(n_exact)) > 1e-6:
            raise ConfigError(
                f"duration_s * sample_rate_hz = {n_exact} is not an integer sample count"
            )
        if round(n_exact) < 2:
            raise ConfigError("record must contain at least 2 samples")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))

    def time_axis(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.sample_rate_hz


@dataclass(frozen=True)
class FaultSpec:
    """Fault description driving signal synthesis.

    The fault model scales the faulted phases to ``retained_voltage_pu``
    between onset and clearing and superposes a decaying sinusoidal burst
    starting at onset. Defaults produce a visible abrupt sag plus a
    high-frequency signature suitable for level-1 detail coefficients.
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
        if not 0 <= self.onset_s < math.inf:
            raise ConfigError(f"onset_s must be finite and nonnegative, got {self.onset_s}")
        if self.clear_s is not None and not self.onset_s < self.clear_s < math.inf:
            raise ConfigError(
                f"clear_s={self.clear_s} must be finite and exceed onset_s={self.onset_s}"
            )
        if not 0.0 <= self.retained_voltage_pu <= 1.0:
            raise ConfigError(
                f"retained_voltage_pu must lie in [0, 1], got {self.retained_voltage_pu}"
            )
        if self.transient_gain < 0:
            raise ConfigError("transient_gain must be nonnegative")
        if self.transient_freq_hz <= 0:
            raise ConfigError("transient_freq_hz must be positive")
        if self.transient_tau_s <= 0:
            raise ConfigError("transient_tau_s must be positive")

    @classmethod
    def none(cls) -> "FaultSpec":
        return cls(fault_type=FaultType.NONE)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian noise at a target SNR; absent SNR means none."""

    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.snr_db is not None:
            try:
                ratio = 10.0 ** (self.snr_db / 10.0)  # the power ratio add_noise divides by
            except OverflowError:
                ratio = math.inf
            if ratio == math.inf or not math.isfinite(self.snr_db):
                raise ConfigError(
                    f"snr_db must be finite, with 10**(snr_db/10) a finite float, got {self.snr_db}")
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")


def _check_rate(sample_rate_hz: float) -> None:
    if not 0.0 < sample_rate_hz < np.inf:
        raise ConfigError(f"sample_rate_hz must be finite and positive, got {sample_rate_hz}")


@dataclass(frozen=True, eq=False)
class Trace:
    """A single sampled channel."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.samples.ndim != 1:
            raise ConfigError("trace samples must be one-dimensional")
        if not np.isfinite(self.samples).all():
            raise ConfigError("trace samples must be finite")
        _check_rate(self.sample_rate_hz)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def time_axis(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.sample_rate_hz


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
        _check_rate(self.sample_rate_hz)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz

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
    t = config.time_axis()
    offsets = np.asarray(config.phase_offsets_rad)[:, None]
    phases = TWO_PI * config.fundamental_hz * t[None, :] + offsets
    samples = config.amplitude_pu * np.sin(phases)
    return ThreePhaseRecord(
        sample_rate_hz=config.sample_rate_hz, samples=samples, labels=FaultSpec.none()
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
    """
    if fault.fault_type is FaultType.NONE:
        return record

    fs = record.sample_rate_hz
    n = record.n_samples
    onset_idx = int(round(min(fault.onset_s * fs, n)))  # min: inf cannot become an int
    if onset_idx >= n:
        raise BoundsError(
            f"fault onset {fault.onset_s} s is beyond the record end "
            f"({record.duration_s} s)"
        )
    if fault.clear_s is None:
        clear_idx = n
    else:
        clear_idx = int(round(min(fault.clear_s * fs, n + 1)))
        if clear_idx > n:
            raise BoundsError(
                f"fault clearing {fault.clear_s} s is beyond the record end "
                f"({record.duration_s} s)"
            )

    t_rel = (np.arange(onset_idx, clear_idx) - onset_idx) / fs
    burst = (
        fault.transient_gain
        * np.exp(-t_rel / fault.transient_tau_s)
        * np.sin(TWO_PI * fault.transient_freq_hz * t_rel)
    )

    samples = record.samples.copy()
    for p in fault.fault_type.phases:
        samples[p, onset_idx:clear_idx] = (
            fault.retained_voltage_pu * samples[p, onset_idx:clear_idx] + burst
        )
    return ThreePhaseRecord(sample_rate_hz=fs, samples=samples, labels=fault)


def add_noise(record: ThreePhaseRecord, noise: NoiseSpec) -> ThreePhaseRecord:
    """Add per-row white Gaussian noise at the requested SNR.

    Noise variance per row is ``row_power / 10**(snr_db/10)`` where row power
    is the mean square of the row. Deterministic given ``noise.seed``; an
    absent ``snr_db`` returns the input unchanged.

    Raises:
        DegenerateInputError: the record has zero power but an SNR was given.
    """
    if noise.snr_db is None:
        return record

    row_power = np.mean(record.samples**2, axis=1)
    if np.all(row_power == 0.0):
        raise DegenerateInputError("cannot set an SNR on a zero-power record")

    noise_std = np.sqrt(row_power / 10.0 ** (noise.snr_db / 10.0))
    rng = np.random.default_rng(noise.seed)
    perturbation = rng.standard_normal(record.samples.shape) * noise_std[:, None]
    return ThreePhaseRecord(
        sample_rate_hz=record.sample_rate_hz,
        samples=record.samples + perturbation,
        labels=record.labels,
    )


def select_channel(record: ThreePhaseRecord, phase: str) -> Trace:
    """Extract one phase as a single-channel trace (same sample rate)."""
    if phase not in PHASE_INDEX:
        raise ConfigError(f"phase must be one of 'a', 'b', 'c', got {phase!r}")
    return Trace(
        samples=record.samples[PHASE_INDEX[phase]].copy(),
        sample_rate_hz=record.sample_rate_hz,
    )
