"""Detectors: turn transforms into onset decisions and energy comparisons.

Each detector only builds an index series; one decision core thresholds it:

* wavelet: level-j detail magnitudes, one per sample;
* ica: the performance index of :mod:`faultwave.ica`, one per analysis sample;
* energy: high-band energy of the FT, STFT, or wavelet detail band over
  sliding windows of one :func:`~faultwave.signal_model.cycle_length` (FT,
  wavelet) or one :mod:`~faultwave.spectral` STFT frame.

The core calibrates the threshold with :func:`calibrate_threshold` on a span
assumed fault-free (default mean + 5 sigma, with per-method floors), or takes
a fixed one, and reports the first run of index values above it inside the
analysis span. Detectors report onset only; the return to normal after fault
clearing is deliberately not claimed.

Energy indices are planned once per geometry, keyed on the record length,
window, hop, rate, cutoff and level (:func:`_window_plan`, the last
:data:`PLAN_CACHE_SIZE` kept): at most 24 read-only bytes per window, 0.98 MB
for 409,600 samples in 40-sample windows 10 apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from numbers import Integral

import numpy as np

from . import dwt, spectral
from .errors import BoundsError, ConfigError, DegenerateInputError, NumericalError
from .ica import IcaConfig, performance_index
from .signal_model import (NONNEGATIVE, ThreePhaseRecord, Trace, check_count, check_fundamental,
                           check_number, cycle_length, select_channel)

ENERGY_METHODS = ("energy_ft", "energy_stft", "energy_wt")
METHODS = ("wavelet", "ica") + ENERGY_METHODS


@dataclass(frozen=True)
class FixedThreshold:
    """Use a caller-chosen threshold verbatim."""

    fixed: float

    def __post_init__(self) -> None:
        check_number("fixed", self.fixed, "a finite number")


@dataclass(frozen=True)
class AdaptiveThreshold:
    """mean + k_sigma * stddev over ``Spans.calibration``, which callers must
    keep fault-free (by default the first 30% of the record)."""

    k_sigma: float = 5.0

    def __post_init__(self) -> None:
        check_number("k_sigma", self.k_sigma, *NONNEGATIVE)


@dataclass(frozen=True)
class DetectorConfig:
    """Detector knobs.

    ``level`` applies to the wavelet and ``energy_wt`` indices, ``cutoff_hz``
    to the energy methods, and ``min_consecutive`` to the wavelet and ICA
    detectors only: an energy onset is the first window above threshold.
    """

    method: str = "wavelet"
    threshold: FixedThreshold | AdaptiveThreshold = AdaptiveThreshold()
    level: int = 1
    cutoff_hz: float = 150.0
    min_consecutive: int = 3

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not isinstance(self.threshold, (FixedThreshold, AdaptiveThreshold)):
            raise ConfigError("threshold must be a FixedThreshold or an AdaptiveThreshold, "
                              f"got {self.threshold!r}")
        check_count("level", self.level, 1)
        check_count("min_consecutive", self.min_consecutive, 1)
        check_number("cutoff_hz", self.cutoff_hz, "a finite number")


@dataclass(frozen=True)
class Spans:
    """Half-open sample ranges: ``calibration`` is the one fault-free span
    (thresholds calibrate on it, the ICA template is built from it),
    ``analysis`` the span scanned for an onset. ``None`` stands for the
    default of the record at hand, which :meth:`resolve` fills in."""

    calibration: tuple[int, int] | None = None
    analysis: tuple[int, int] | None = None

    def resolve(self, n_samples: int) -> Spans:
        """These spans on a record of ``n_samples``; by default the first 30%
        (at least 2 samples) calibrates and all of it is analysed.

        Raises:
            BoundsError: naming the first span whose bounds are not integers
                (booleans included) or that does not fit the record.
        """
        head = (0, max(2, int(0.3 * n_samples)))
        resolved = Spans(head if self.calibration is None else self.calibration,
                         (0, n_samples) if self.analysis is None else self.analysis)
        for name in ("calibration", "analysis"):
            lo, hi = getattr(resolved, name)
            if getattr(self, name) is not None and not all(
                    isinstance(b, Integral) and not isinstance(b, bool) for b in (lo, hi)):
                raise BoundsError(f"spans.{name}=({lo!r}, {hi!r}) must be two integers")
            if not 0 <= lo < hi <= n_samples:
                raise BoundsError(
                    f"spans.{name}=({lo}, {hi}) lies outside the record (N={n_samples})")
        return resolved


@dataclass(eq=False)
class DetectionReport:
    """Verdict plus the evidence it was based on.

    ``metadata`` holds method-specific details plus ``analysis_index``, the
    largest index value scanned inside the analysis span.
    """

    method: str
    detected: bool
    onset_sample: int | None
    onset_time_s: float | None
    index_series: np.ndarray
    index_times_s: np.ndarray
    threshold_used: float
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self, config: dict, scenario: dict) -> dict:
        return {
            "method": self.method,
            "detected": bool(self.detected),
            "onset_sample": None if self.onset_sample is None else int(self.onset_sample),
            "onset_time_s": None if self.onset_time_s is None else float(self.onset_time_s),
            "threshold": float(self.threshold_used),
            "config": config,
            "scenario": scenario,
        }


@dataclass(frozen=True)
class EnergyRow:
    scenario_name: str
    e_ft: float
    e_stft: float
    e_wt: float
    detected_ft: bool
    detected_stft: bool
    detected_wt: bool
    error: str | None = None

    @classmethod
    def failed(cls, scenario_name: str, exc: Exception) -> EnergyRow:
        nan = float("nan")
        return cls(scenario_name, nan, nan, nan, False, False, False,
                   error=f"{type(exc).__name__}: {exc}")


def calibrate_threshold(
    values: np.ndarray,
    k_sigma: float = 5.0,
    bias: float = 1.0,
    mean_multiple: float = 0.0,
    floor: float = 0.0,
) -> float:
    """Threshold from index values taken on fault-free data.

    ``max(bias * (mean + k_sigma * std), bias * mean_multiple * mean, floor)``;
    with the defaults this is plain mean + k_sigma * std.

    The mean is taken once and reused for the (population) standard
    deviation. Both are the sums ``values.mean()`` and ``values.std()`` form,
    in the same order, so they are bitwise equal to those calls without the
    second pass ``std`` makes for its own mean. The scalar steps run on
    Python floats, which round as numpy's float64 scalars do.

    Raises:
        DegenerateInputError: no calibration values.
    """
    values = np.asarray(values)
    n = values.size
    if n == 0:
        raise DegenerateInputError("calibration span contains no usable samples")
    mean = float(values.sum()) / n
    deviation = values - mean
    std = math.sqrt(float((deviation * deviation).sum()) / n)
    return max(bias * (mean + k_sigma * std), bias * mean_multiple * mean, floor)


def _first_run_start(above: np.ndarray, min_consecutive: int) -> int | None:
    """Index of the first run of ``min_consecutive`` consecutive True values.

    Row i of the AND of the ``min_consecutive`` shifted slices is True exactly
    when ``above[i : i + min_consecutive]`` is all True.
    """
    count = above.size - min_consecutive + 1
    if count < 1:
        return None
    run = above[:count]
    for shift in range(1, min_consecutive):
        run = run & above[shift:shift + count]
    first = int(np.argmax(run))
    return first if run[first] else None


@dataclass(frozen=True, eq=False)
class _Index:
    """An index series as the decision core sees it.

    ``values[i]`` summarizes samples ``[starts[i], starts[i] + width)``, with
    ``starts`` ascending, and ``valid`` is the half-open row range fit for
    calibration and scanning (``None``: every row).
    """

    starts: np.ndarray
    values: np.ndarray
    width: int
    times_s: np.ndarray
    valid: tuple[int, int] | None = None

    def rows(self, span: tuple[int, int]) -> tuple[int, int]:
        """The valid rows whose samples lie wholly inside ``span``, as a half-open
        range (empty when the end does not exceed the start)."""
        lo, hi = span
        first = int(self.starts.searchsorted(lo))
        stop = int(self.starts.searchsorted(hi - self.width, side="right"))
        if self.valid is not None:
            first, stop = max(first, self.valid[0]), min(stop, self.valid[1])
        return first, stop


def _decide(
    method: str,
    index: _Index,
    cfg: DetectorConfig,
    spans: Spans,
    fs: float,
    metadata: dict,
    rule: tuple[float, float, float] = (1.0, 0.0, 0.0),
    min_consecutive: int | None = None,
) -> DetectionReport:
    """Threshold ``index`` and report its first run above threshold.

    ``rule`` is the method's (bias, mean_multiple, floor) for
    :func:`calibrate_threshold`. Calibration uses the valid values lying
    wholly inside ``spans.calibration``, the scan those inside
    ``spans.analysis``. Both are contiguous row ranges found by binary search
    on ``index.starts``, so the threshold is taken on one slice of
    ``index.values`` and the scan reads another; the analysis index is the
    largest value scanned.

    Raises:
        BoundsError: either span holds no valid value, or the analysis span
            holds fewer than the ``min_consecutive`` values a run needs.
        NumericalError: the threshold or the largest scanned value is not
            finite, so no verdict can be read from the comparison.
    """
    policy = cfg.threshold
    c0, c1 = index.rows(spans.calibration)
    s0, s1 = index.rows(spans.analysis)
    if c1 <= c0:
        lo, hi = spans.calibration
        raise BoundsError(
            f"spans.calibration=({lo}, {hi}) is shorter than one window ({index.width})")
    a_lo, a_hi = spans.analysis
    if s1 <= s0:
        raise BoundsError(
            f"spans.analysis=({a_lo}, {a_hi}) is shorter than one window ({index.width})")
    need = min_consecutive or cfg.min_consecutive
    if s1 - s0 < need:
        raise BoundsError(f"spans.analysis=({a_lo}, {a_hi}) holds {s1 - s0} index values to "
                          f"scan, fewer than min_consecutive={need}")
    if isinstance(policy, FixedThreshold):
        threshold = policy.fixed
    else:
        threshold = calibrate_threshold(index.values[c0:c1], policy.k_sigma, *rule)
    scanned = index.values[s0:s1]
    peak = float(scanned.max())
    if not (math.isfinite(threshold) and math.isfinite(peak)):
        raise NumericalError(f"the threshold ({threshold:.6g}) or the scanned index peak "
                             f"({peak:.6g}) overflows float64")
    run = _first_run_start(scanned > threshold, need)
    onset = None if run is None else int(index.starts[s0 + run])
    return DetectionReport(
        method=method,
        detected=onset is not None,
        onset_sample=onset,
        onset_time_s=None if onset is None else onset / fs,
        index_series=index.values,
        index_times_s=index.times_s,
        threshold_used=threshold,
        metadata={"analysis_index": peak, **metadata},
    )


def wavelet_detect(
    trace: Trace, cfg: DetectorConfig = DetectorConfig(), spans: Spans | None = None
) -> DetectionReport:
    """Onset detection from level-``cfg.level`` detail magnitudes.

    Samples whose detail coefficients straddle the periodic record boundary
    are excluded from calibration and scanning: on non-periodic data they
    carry a wrap discontinuity unrelated to any fault. The samples left are
    one contiguous range, :func:`dwt.artifact_free_range`, which
    :func:`dwt.boundary_artifact_mask` complements; where it is empty, the
    calibration span holds no value and a ``BoundsError`` says so.
    """
    n = trace.n_samples
    spans = (spans or Spans()).resolve(n)
    series = dwt.detail_series(dwt.dwt_decompose(trace, cfg.level), cfg.level)
    starts = np.arange(n)
    index = _Index(starts, series.samples, 1, starts / trace.sample_rate_hz,
                   valid=dwt.artifact_free_range(n, cfg.level))
    return _decide("wavelet", index, cfg, spans, trace.sample_rate_hz, {"level": cfg.level})


# The performance index lives in whitened-source units, so genuine
# disturbances register at order one regardless of record scale. Thresholds
# are floored at this level to ignore pure round-off on noiseless records.
PI_DETECTION_FLOOR = 1e-9


def ica_detect(
    record: ThreePhaseRecord,
    cfg: DetectorConfig = DetectorConfig(method="ica"),
    spans: Spans | None = None,
    ica_cfg: IcaConfig = IcaConfig(),
) -> DetectionReport:
    """Onset detection from the ICA performance index.

    The normal template is built from ``spans.calibration``, the same
    fault-free span the threshold calibrates on. The index only exists on
    the analysis span, so the calibration span must start where the analysis
    span starts and end before it does, and cover at least two fundamental
    cycles; the default span of :meth:`Spans.resolve` does.

    Because the template is averaged from the calibration cycles, index
    values inside that span run systematically lower than fresh data under
    noise (template noise partially cancels its own contribution). Adaptive
    thresholds are therefore scaled by the bias factor (m+1)/(m-1) for m
    calibration cycles, floored at 2.5x the calibration mean and at
    :data:`PI_DETECTION_FLOOR`. The scan skips the first ``window_len - 1``
    values: their trailing mean spans less than a cycle and runs noisier
    (calibration keeps them).

    Raises:
        BoundsError: a span does not fit the record or the rules above.
        DegenerateInputError: the calibration span is all zero.
        NumericalError: the record, the index or the threshold overflows.
    """
    spans = (spans or Spans()).resolve(record.n_samples)
    (p_lo, p_hi), (a_lo, a_hi) = spans.calibration, spans.analysis
    if p_lo != a_lo:
        raise BoundsError(f"spans.calibration=({p_lo}, {p_hi}) must start where "
                          f"spans.analysis=({a_lo}, {a_hi}) starts for the ica detector")
    pi = performance_index(record, spans.calibration, spans.analysis, ica_cfg)
    cycles = (p_hi - p_lo) / pi.window_len
    bias = (cycles + 1) / (cycles - 1)
    starts = np.arange(a_lo, a_hi)
    index = _Index(starts, pi.values, 1, starts / record.sample_rate_hz)
    scan = replace(spans, analysis=(a_lo + pi.window_len - 1, a_hi))
    eigenvalues = pi.whitening_eigenvalues
    return _decide("ica", index, cfg, scan, record.sample_rate_hz,
                   {"components_kept": len(eigenvalues),
                    "whitening_eigenvalues": eigenvalues.tolist()},
                   rule=(bias, 2.5, PI_DETECTION_FLOOR))


# Detection thresholds never drop below this fraction of the trace's mean
# square: a noiseless calibration span only carries round-off, and mean+5*std
# of round-off would flag harmless jitter. Scales with the signal, so the
# detection decision is unchanged under amplitude scaling.
ENERGY_DETECTION_FLOOR = 1e-12

# Multiplicative floor on the calibration mean. Window energies under noise
# are chi-square-like with 14..33 effective degrees of freedom, so the
# maximum over ~100 scan windows reaches 3..3.6x the mean; faulted windows
# measure at 8x and above.
ENERGY_FLOOR_FACTOR = 4.5

PLAN_CACHE_SIZE = 8  # energy-index plans kept; the least recently used goes first


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _window_plan(n_samples: int, window: int, hop: int, fs: float, cutoff_hz: float | None,
                 level: int | None) -> tuple[np.ndarray, tuple | int]:
    """Read-only window starts, and for the wavelet index (no cutoff) their
    :func:`dwt.window_groups` at ``level``, else the first bin of a frame's
    spectrum at or above ``cutoff_hz`` (the high band, as bins ascend); a
    cutoff at or above the Nyquist frequency raises ConfigError."""
    starts = np.arange(0, n_samples - window + 1, hop)
    starts.flags.writeable = False
    if cutoff_hz is None:
        return starts, dwt.window_groups(n_samples, level, starts, window)
    if cutoff_hz >= fs / 2.0:
        raise ConfigError(f"cutoff {cutoff_hz} Hz is at or above the Nyquist frequency")
    return starts, int(np.count_nonzero(np.arange(window // 2 + 1) * (fs / window) < cutoff_hz))


def _energy_window_series(
    trace: Trace, method: str, cfg: DetectorConfig, fundamental_hz: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-window index series for one method: (starts, values, window_len).

    FT and wavelet windows span one :func:`cycle_length` and slide by a quarter
    of it; STFT windows are the Hann frames of :func:`spectral.stft`. The trace
    is transformed once: one framed FFT (:func:`spectral.frame_magnitudes`,
    which ``stft`` wraps), or one decomposition without boundary-wrapped
    coefficients.
    """
    fs = trace.sample_rate_hz
    if method == "energy_stft":
        window, hop = spectral.STFT_WINDOW, spectral.STFT_HOP
    else:
        window = cycle_length(fs, fundamental_hz, trace.n_samples)
        hop = max(1, window // 4)
    if method == "energy_wt":
        tree = dwt.dwt_decompose(trace, cfg.level)  # checks the level before the plan
        starts, groups = _window_plan(trace.n_samples, window, hop, fs, None, cfg.level)
        return starts, dwt.window_energies(tree, cfg.level, starts, window, groups), window
    starts, first_bin = _window_plan(trace.n_samples, window, hop, fs, cfg.cutoff_hz, None)
    if method == "energy_stft":
        frames = spectral.stft(trace, window, hop).frames
    else:
        frames = spectral.frame_magnitudes(trace.samples, window, hop)
    # Column-major, each row sums its bins one by one from the lowest, as the
    # high band always was; row-major rows would be summed pairwise.
    high = np.square(frames[:, first_bin:], order="F")
    return starts, high.sum(axis=1) / window, window


def energy_detect(
    trace: Trace,
    method: str,
    cfg: DetectorConfig = DetectorConfig(method="energy_wt"),
    spans: Spans | None = None,
    fundamental_hz: float = 50.0,
) -> DetectionReport:
    """Compare a high-band energy index against a calibrated threshold.

    The index is evaluated on a family of identical windows (one fundamental
    cycle for FT/wavelet, one frame for STFT) so the calibration and analysis
    statistics are exchangeable; whole-span transforms would instead be
    dominated by span-edge leakage whenever the span does not hold an integer
    number of cycles. The trace is transformed once for all windows. The
    reported analysis index is the largest window value inside the analysis
    span, and the onset is the start of the first window above threshold
    (``min_consecutive`` does not apply). The threshold is
    mean + k_sigma * stddev over the calibration windows, floored at
    :data:`ENERGY_FLOOR_FACTOR` times their mean and at
    :data:`ENERGY_DETECTION_FLOOR` times the trace mean square. A fundamental
    that is not finite and positive raises ConfigError, as in IcaConfig.
    """
    if method not in ENERGY_METHODS:
        raise ConfigError(f"method must be one of {ENERGY_METHODS}, got {method!r}")
    check_fundamental(fundamental_hz)
    spans = (spans or Spans()).resolve(trace.n_samples)
    fs = trace.sample_rate_hz
    starts, values, window = _energy_window_series(trace, method, cfg, fundamental_hz)
    index = _Index(starts, values, window, (starts + window / 2.0) / fs)
    floor = ENERGY_DETECTION_FLOOR * float(np.square(trace.samples).sum() / trace.n_samples)
    return _decide(method, index, cfg, spans, fs, {"window": window},
                   rule=(1.0, ENERGY_FLOOR_FACTOR, floor), min_consecutive=1)


def energy_row(
    name: str,
    record: ThreePhaseRecord,
    cfg: DetectorConfig = DetectorConfig(method="energy_wt"),
    spans: Spans | None = None,
    fundamental_hz: float = 50.0,
) -> EnergyRow:
    """All three energy indices of one record.

    Every phase channel is analyzed and the row reports the largest index
    per method (detected if any phase crosses its threshold), since
    single-phase faults leave the other channels untouched.
    """
    peaks, hits = [], []
    for method in ENERGY_METHODS:
        reports = [energy_detect(select_channel(record, phase), method, cfg, spans, fundamental_hz)
                   for phase in "abc"]
        peaks.append(max(report.metadata["analysis_index"] for report in reports))
        hits.append(any(report.detected for report in reports))
    return EnergyRow(name, *peaks, *hits)
