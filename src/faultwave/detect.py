"""Detectors: turn transforms into onset decisions and energy comparisons.

:func:`run` is the one entry point from the detection settings (the
:class:`DetectorConfig`, spans, channel and fundamental) to a detector: ``ica``
reads the whole record, ``wavelet`` and the energy methods one channel. It
checks the fundamental against the record's own rate (:func:`check_nyquist`)
and rejects a labelled fault onset inside the resolved calibration span
(:func:`check_onset`) before any detector runs.

Each detector only builds an index series; one decision core thresholds it:

* wavelet: level-j detail magnitudes, one per sample;
* ica: the performance index of :mod:`faultwave.ica`, one per analysis sample;
* energy: high-band energy of the FT, STFT, or wavelet detail band over
  sliding windows of one :func:`~faultwave.signal_model.cycle_length` (FT,
  wavelet) or the one :func:`~faultwave.spectral.stft` frame.

The core calibrates the threshold with :func:`calibrate_threshold` on a span
assumed fault-free, or takes a fixed one, and reports the first run of index
values above it inside the analysis span. A calibrated threshold is the
largest of mean + k_sigma * std and each method's floors, and which term
decides depends on the method. On every record measured (400 and 4,096
samples, noiseless to 10 dB), ``wavelet`` takes mean + k_sigma * std, its only
term; ``ica`` takes 2.5 times the mean (times its calibration bias) at the
nominal fundamental, or :data:`PI_DETECTION_FLOOR` on noiseless records; the
energy methods take :data:`ENERGY_FLOOR_FACTOR` times the mean, or the
:data:`ENERGY_DETECTION_FLOOR` term on noiseless ``energy_ft`` records, so
``k_sigma`` moves no energy threshold. Detectors report onset only; the return
to normal after fault clearing is deliberately not claimed.

Each detector keeps one plan cache of :data:`~faultwave.ica.PLAN_CACHE_SIZE`
geometries, so a call on a known geometry does only sample work. The ICA plan
is :func:`ica.index_plan`; the others check the spans and hold the decision
rows and run length. Energy plans, keyed on the window, not the fundamental,
add read-only window starts and times and the cutoff bin or wavelet groups: at
most 32 bytes per window, 1.31 MB for 409,600 samples in windows 10 apart.

On the paper's 400-sample records a call into numpy's Python-level wrappers
(``np.argmax``, ``ndarray.sum``, ``.max``, ...) costs about as much as the
array work it wraps, so the sample work calls the C routine each wrapper ends
in: the ndarray method for ``argmax``, ``cumsum`` and ``repeat``, the ufunc
reduction for ``sum``, ``max``, ``all`` and ``any``. Both run the same loop,
so the results are bitwise those of the wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import dwt, ica, spectral
from .errors import BoundsError, ConfigError, DegenerateInputError, NumericalError
from .ica import PLAN_CACHE_SIZE, IcaConfig, performance_index
from .signal_model import (NONNEGATIVE, PHASES, POSITIVE, FaultSpec, FaultType, Spans,
                           ThreePhaseRecord, Trace, check_channel, check_count, check_fundamental,
                           check_number, check_nyquist, cycle_length, select_channel, unit_scaled,
                           window_grid)

ENERGY_METHODS = ("energy_ft", "energy_stft", "energy_wt")
ENERGY_LABELS = tuple(method.removeprefix("energy_") for method in ENERGY_METHODS)
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
    keep fault-free (by default the first 30% of the record), before each
    detector's floors; the floors decide for ``ica`` and the energy methods
    (see the module docstring)."""

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
        check_number("cutoff_hz", self.cutoff_hz, *POSITIVE)


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


@dataclass(frozen=True)
class EnergyRow:
    """One scenario of the energy table: ``energies`` and ``detected`` hold
    one entry per method of :data:`ENERGY_METHODS`, in that order. A failed
    scenario holds only its ``error``, and no energy or verdict."""

    scenario_name: str
    energies: tuple[float, ...] = ()
    detected: tuple[bool, ...] = ()
    error: str | None = None


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

    A sum of squares under 2**-960 is taken again of :func:`unit_scaled`
    deviations, so the std keeps its scale while they are normal floats.

    Raises:
        DegenerateInputError: no calibration values.
    """
    values = np.asarray(values)
    n = values.size
    if n == 0:
        raise DegenerateInputError("calibration span contains no usable samples")
    mean = float(np.add.reduce(values, None)) / n
    deviation = values - mean
    squares = float(np.add.reduce(deviation * deviation, None))
    if squares < 2.0 ** -960:
        scaled, exponent = unit_scaled(deviation)
        std = math.ldexp(math.sqrt(float(np.add.reduce(scaled * scaled, None)) / n), exponent)
    else:
        std = math.sqrt(squares / n)
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
    first = int(run.argmax())
    return first if run[first] else None


def _plan(calibration: tuple[int, int], analysis: tuple[int, int], rows: int, width: int,
          need: int, first: int = 0, hop: int = 1, valid: tuple[int, int] | None = None,
          skip: int = 0) -> tuple:
    """Where the decision reads an index of ``rows`` rows, row i covering
    samples ``[first + hop * i, first + hop * i + width)``: the half-open row
    ranges wholly inside the ``calibration`` and the ``analysis`` sample range
    (and inside the ``valid`` rows, the wavelet's :func:`dwt.artifact_free_range`,
    if given), then the run length ``need``, ``first`` and ``hop``. The scan
    starts at analysis row ``skip`` or later.

    Raises:
        BoundsError: either range holds no such row, or the analysis range
            holds fewer than the ``need`` values a run needs.
    """
    ranges = []
    for name, (lo, hi) in (("calibration", calibration), ("analysis", analysis)):
        start = max(-((first - lo) // hop), 0)  # the first row starting at lo or later
        stop = min((hi - width - first) // hop + 1, rows)  # past the last row ending by hi
        if stop <= start:
            raise BoundsError(f"spans.{name}=({lo}, {hi}) is shorter than one window ({width})")
        if valid is not None:
            start, stop = max(start, valid[0]), min(stop, valid[1])
            if stop <= start:
                raise BoundsError(f"spans.{name}=({lo}, {hi}) holds no sample of "
                                  f"dwt.artifact_free_range={valid}")
        ranges.append((start, stop))
    start = max(start, skip)  # the analysis rows, found last
    if stop - start < need:
        raise BoundsError(f"spans.analysis=({lo}, {hi}) holds {stop - start} index values to "
                          f"scan, fewer than min_consecutive={need}")
    return ranges[0], (start, stop), need, first, hop


def _decide(method: str, values: np.ndarray, times_s: np.ndarray, plan: tuple,
            cfg: DetectorConfig, fs: float, metadata: dict,
            rule: tuple[float, float, float] = (1.0, 0.0, 0.0)) -> DetectionReport:
    """Threshold ``values`` on the calibration rows of the :func:`_plan`
    (``rule`` is the method's (bias, mean_multiple, floor) for
    :func:`calibrate_threshold`) and report the first run above it in the
    analysis rows: the analysis index is the largest value scanned, the onset
    the first sample of the run's first row.

    Raises:
        DegenerateInputError: a calibrated threshold of exactly 0 (a zero or
            underflowed index and floor), over which any nonzero value is a fault.
        NumericalError: the threshold or the largest scanned value is not
            finite, so no verdict can be read from the comparison.
    """
    policy = cfg.threshold
    (c0, c1), (s0, s1), need, first, hop = plan
    if isinstance(policy, FixedThreshold):
        threshold = policy.fixed
    else:
        threshold = calibrate_threshold(values[c0:c1], policy.k_sigma, *rule)
        if threshold == 0.0:
            raise DegenerateInputError("the calibration index is identically zero")
    scanned = values[s0:s1]
    peak = float(np.maximum.reduce(scanned, None))
    if not (math.isfinite(threshold) and math.isfinite(peak)):
        raise NumericalError(f"the threshold ({threshold:.6g}) or the scanned index peak "
                             f"({peak:.6g}) overflows float64")
    run = _first_run_start(scanned > threshold, need)
    onset = None if run is None else int(first + hop * (s0 + run))
    return DetectionReport(
        method=method,
        detected=onset is not None,
        onset_sample=onset,
        onset_time_s=None if onset is None else onset / fs,
        index_series=values,
        index_times_s=times_s,
        threshold_used=threshold,
        metadata={"analysis_index": peak, **metadata},
    )


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _wavelet_plan(n_samples: int, level: int, need: int, spans: Spans | None) -> tuple:
    """The wavelet detector's plan: one row per sample, the rows of
    :func:`dwt.artifact_free_range` valid; checks the spans, then the level."""
    spans = (spans or Spans()).resolve(n_samples)
    dwt.check_length(n_samples, level)
    return _plan(spans.calibration, spans.analysis, n_samples, 1, need,
                 valid=dwt.artifact_free_range(n_samples, level))


def wavelet_detect(
    trace: Trace, cfg: DetectorConfig = DetectorConfig(), spans: Spans | None = None
) -> DetectionReport:
    """Onset detection from level-``cfg.level`` detail magnitudes.

    Samples whose detail coefficients straddle the periodic record boundary
    are excluded from calibration and scanning: on non-periodic data they
    carry a wrap discontinuity unrelated to any fault. The samples left are
    one contiguous range, :func:`dwt.artifact_free_range`, which
    :func:`dwt.boundary_artifact_mask` complements; a span that holds none
    of them raises a ``BoundsError`` naming that range.
    """
    n, fs = trace.n_samples, trace.sample_rate_hz
    plan = _wavelet_plan(n, cfg.level, cfg.min_consecutive, spans)
    series = dwt.detail_series(dwt.dwt_decompose(trace.samples, cfg.level), cfg.level)
    return _decide("wavelet", series, np.arange(n) / fs, plan, cfg, fs, {})


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
    fault-free span the threshold calibrates on. The spans keep the span rule
    of :func:`ica.index_plan`, whose spans and period build the decision rows
    (one :func:`_plan` call) before the index call finds that plan built.

    Because the template is averaged from the calibration cycles, index
    values inside that span run systematically lower than fresh data under
    noise (template noise partially cancels its own contribution). Adaptive
    thresholds are therefore scaled by the bias factor (m+1)/(m-1) for m
    calibration cycles, floored at 2.5x the calibration mean and at
    :data:`PI_DETECTION_FLOOR`. The scan skips the first ``period - 1`` values
    of the analysis span (the :func:`_plan` ``skip``): a trailing mean there
    spans less than a cycle and runs noisier (calibration keeps those values).

    Raises:
        BoundsError: a span does not fit the record or that rule.
        DegenerateInputError: the calibration span is all zero.
        NumericalError: the record, the index or the threshold overflows.
    """
    fs = record.sample_rate_hz
    resolved, period = ica.index_plan(record.n_samples, fs, ica_cfg.fundamental_hz, spans)[:2]
    calibration, (lo, hi) = resolved.calibration, resolved.analysis
    plan = _plan(calibration, (lo, hi), hi - lo, 1, cfg.min_consecutive, first=lo,
                 skip=period - 1)
    cycles = (calibration[1] - calibration[0]) / period
    # The caller's own spans, so the index finds the plan looked up above.
    pi = performance_index(record, spans, ica_cfg)
    eigenvalues = pi.whitening_eigenvalues
    return _decide("ica", pi.values, np.arange(lo, hi) / fs, plan, cfg, fs,
                   {"components_kept": len(eigenvalues),
                    "whitening_eigenvalues": eigenvalues.tolist()},
                   rule=((cycles + 1) / (cycles - 1), 2.5, PI_DETECTION_FLOOR))


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


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _window_plan(n_samples: int, window: int, hop: int, fs: float, cutoff_hz: float | None,
                 level: int | None, spans: Spans | None) -> tuple:
    """An energy index's read-only window starts; for the wavelet index (no
    cutoff) their :func:`dwt.window_groups` at ``level``, else the first bin
    of a frame's spectrum at or above ``cutoff_hz`` (the high band, as bins
    ascend); the read-only window center times (both of :func:`window_grid`);
    and the plan. Checks the spans, then the level or the cutoff and framing."""
    spans = (spans or Spans()).resolve(n_samples)
    starts, times_s = window_grid(n_samples, window, hop, fs)
    if cutoff_hz is None:
        dwt.check_length(n_samples, level)
        transform = dwt.window_groups(n_samples, level, starts, window)
    elif cutoff_hz >= fs / 2.0:
        raise ConfigError(f"cutoff {cutoff_hz} Hz is at or above the Nyquist frequency")
    else:
        spectral.check_framing(n_samples, window, hop)
        transform = int(np.count_nonzero(spectral.bin_frequencies(window, fs) < cutoff_hz))
    starts.flags.writeable = times_s.flags.writeable = False
    return starts, transform, times_s, _plan(spans.calibration, spans.analysis, starts.size,
                                             window, 1, hop=hop)


def energy_detect(
    trace: Trace,
    method: str,
    cfg: DetectorConfig = DetectorConfig(method="energy_wt"),
    spans: Spans | None = None,
    fundamental_hz: float = 50.0,
) -> DetectionReport:
    """Compare a high-band energy index against a calibrated threshold.

    The index is evaluated on a family of identical windows (one
    :func:`cycle_length` sliding by a quarter of it for FT/wavelet, one
    :func:`spectral.stft` frame for STFT) so the calibration and analysis
    statistics are exchangeable; whole-span transforms would instead be
    dominated by span-edge leakage whenever the span does not hold an integer
    number of cycles. The trace is transformed once for all windows: one
    framed FFT (:func:`spectral.frame_magnitudes`, which ``stft`` wraps) or
    one decomposition without boundary-wrapped coefficients. The reported
    analysis index is the largest window value inside the analysis span, and
    the onset is the start of the first window above threshold
    (``min_consecutive`` does not apply). The threshold is
    mean + k_sigma * stddev over the calibration windows, floored at
    :data:`ENERGY_FLOOR_FACTOR` times their mean and at
    :data:`ENERGY_DETECTION_FLOOR` times the trace mean square. The floors
    decide: on every record measured the factor term wins, or the mean-square
    term on noiseless ``energy_ft`` records, and on 20 dB records a k_sigma of
    0, 3, 5 or 8 gives the same threshold bit for bit. A fundamental
    that is not finite and positive raises ConfigError, as in IcaConfig; for
    FT/wavelet so does one at or above Nyquist (:func:`cycle_length`).

    The index is the one ``method`` names; ``cfg.method`` is not read.
    """
    if method not in ENERGY_METHODS:
        raise ConfigError(f"method must be one of {ENERGY_METHODS}, got {method!r}")
    check_fundamental(fundamental_hz)
    n, fs = trace.n_samples, trace.sample_rate_hz
    if method == "energy_stft":
        window, hop = spectral.STFT_WINDOW, spectral.STFT_HOP
    else:
        window = cycle_length(fs, fundamental_hz, n)
        hop = max(1, window // 4)
    cutoff_hz, level = (None, cfg.level) if method == "energy_wt" else (cfg.cutoff_hz, None)
    starts, transform, times_s, plan = _window_plan(n, window, hop, fs, cutoff_hz, level, spans)
    if method == "energy_wt":
        tree = dwt.dwt_decompose(trace.samples, cfg.level)
        values = dwt.window_energies(tree, cfg.level, starts, window, transform)
    else:
        frames = (spectral.stft(trace.samples) if method == "energy_stft"
                  else spectral.frame_magnitudes(trace.samples, window, hop))
        # Column-major, each row sums its bins one by one from the lowest, as
        # the high band always was; row-major rows would be summed pairwise.
        values = np.add.reduce(np.square(frames[:, transform:], order="F"), 1) / window
    floor = ENERGY_DETECTION_FLOOR * float(np.add.reduce(np.square(trace.samples), None) / n)
    return _decide(method, values, times_s.copy(), plan, cfg, fs, {"window": window},
                   rule=(1.0, ENERGY_FLOOR_FACTOR, floor))


def check_onset(spans: Spans, fault: FaultSpec | None, sample_rate_hz: float) -> None:
    """Require a labelled fault to start outside ``spans.calibration``.

    A fault inside the span that calibrates the threshold lifts the threshold
    over the fault itself, and the verdict becomes a silent "no fault".

    Raises:
        ConfigError: the onset sample lies in the calibration span.
    """
    if fault is None or fault.fault_type is FaultType.NONE:
        return
    onset = fault.onset_s * sample_rate_hz
    lo, hi = spans.calibration
    if onset < hi and lo <= round(onset) < hi:
        raise ConfigError(f"fault onset sample {round(onset)} lies inside the calibration span "
                          f"({lo}, {hi}), which must be fault-free")


def run(record: ThreePhaseRecord, cfg: DetectorConfig = DetectorConfig(),
        spans: Spans | None = None, channel: str = "a",
        fundamental_hz: float = 50.0) -> DetectionReport:
    """Run the ``cfg.method`` detector: ``ica`` on the whole record with
    ``IcaConfig(fundamental_hz)``, ``wavelet`` on the ``channel`` phase, an energy
    method on that phase with ``fundamental_hz``. Whatever the method, the
    fundamental, the channel, the spans and the record's fault label are
    checked first, in that order.

    Raises:
        ConfigError: a fundamental not finite and positive, or at or above the
            record's Nyquist frequency (:func:`check_nyquist`); a channel other
            than 'a', 'b' or 'c' (:func:`check_channel`); a labelled fault
            onset inside the resolved calibration span (:func:`check_onset`).
        BoundsError: a span that does not fit the record (:meth:`Spans.resolve`).
    """
    check_fundamental(fundamental_hz)
    check_nyquist(record.sample_rate_hz, fundamental_hz)
    check_channel(channel)
    spans = (spans or Spans()).resolve(record.n_samples)
    check_onset(spans, record.labels, record.sample_rate_hz)
    if cfg.method == "ica":
        return ica_detect(record, cfg, spans, IcaConfig(fundamental_hz))
    trace = select_channel(record, channel)
    if cfg.method == "wavelet":
        return wavelet_detect(trace, cfg, spans)
    return energy_detect(trace, cfg.method, cfg, spans, fundamental_hz)


def energy_row(
    name: str,
    record: ThreePhaseRecord,
    cfg: DetectorConfig = DetectorConfig(method="energy_wt"),
    spans: Spans | None = None,
    fundamental_hz: float = 50.0,
) -> EnergyRow:
    """All three energy indices of one record, in :data:`ENERGY_METHODS` order.

    Every phase channel is analyzed and the row reports the largest index
    per method (detected if any phase crosses its threshold), since
    single-phase faults leave the other channels untouched.
    """
    peaks, hits = [], []
    for method in ENERGY_METHODS:
        method_cfg = replace(cfg, method=method)
        reports = [run(record, method_cfg, spans, phase, fundamental_hz) for phase in PHASES]
        peaks.append(max(report.metadata["analysis_index"] for report in reports))
        hits.append(any(report.detected for report in reports))
    return EnergyRow(name, tuple(peaks), tuple(hits))
