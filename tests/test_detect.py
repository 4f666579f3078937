"""Tests for threshold calibration and the detector front ends."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from faultwave import (
    BoundsError,
    ConfigError,
    DegenerateInputError,
    DetectorConfig,
    FaultSpec,
    FaultwaveError,
    FixedThreshold,
    IcaConfig,
    NumericalError,
    Spans,
    ThreePhaseRecord,
    Trace,
    WaveformConfig,
    calibrate_threshold,
    dft,
    energy_detect,
    generate_baseline,
    highband_energy_index,
    ica_detect,
    inject_fault,
    performance_index,
    select_channel,
    stft,
    wavelet_detect,
    wavelet_energy_index,
)
from faultwave.detect import (ENERGY_DETECTION_FLOOR, ENERGY_METHODS, METHODS, EnergyRow,
                              energy_row, run)
from faultwave.ica import index_plan
from faultwave.signal_model import PHASES
from faultwave.spectral import STFT_HOP, STFT_WINDOW
from conftest import FAULT_ONSET_SAMPLE, assert_bitwise_equal, make_record, rng_trace

SPANS = Spans(calibration=(0, 120), analysis=(0, 400))


@st.composite
def fitting_span(draw, n: int) -> tuple[int, int]:
    lo = draw(st.integers(0, n - 1))
    return lo, draw(st.integers(lo + 1, n))


class TestSpans:
    @settings(max_examples=100)
    @given(st.integers(2, 10**6))
    def test_defaults_are_the_record_head_and_the_whole_record(self, n):
        assert Spans().resolve(n) == Spans((0, max(2, int(0.3 * n))), (0, n))

    @settings(max_examples=100)
    @given(st.data())
    def test_spans_that_fit_come_back_unchanged(self, data):
        n = data.draw(st.integers(2, 10**6))
        spans = Spans(data.draw(fitting_span(n)), data.draw(fitting_span(n)))
        assert spans.resolve(n) == spans

    @settings(max_examples=100)
    @given(st.data())
    def test_span_that_does_not_fit_is_named(self, data):
        n = data.draw(st.integers(2, 10**6))
        name = data.draw(st.sampled_from(["calibration", "analysis"]))
        lo, hi = data.draw(st.tuples(st.integers(-n, 2 * n), st.integers(-n, 2 * n))
                           .filter(lambda span: not 0 <= span[0] < span[1] <= n))
        with pytest.raises(BoundsError, match=rf"spans\.{name}=\({lo}, {hi}\)"):
            Spans(**{name: (lo, hi)}).resolve(n)

    @pytest.mark.parametrize("name, span", [("calibration", (0.0, 120)), ("analysis", (False, 400)),
                                            ("analysis", (0, "400")), ("calibration", (0, None))])
    def test_span_bound_that_is_not_an_integer_is_named(self, name, span):
        with pytest.raises(BoundsError, match=rf"^spans\.{name}=.* must be two integers$"):
            Spans(**{name: span}).resolve(400)

    @pytest.mark.parametrize("span", [[0, 120, 400], (120,), 120, "ab", {0: 0, 1: 120}])
    def test_span_that_is_not_a_pair_is_named(self, span):
        with pytest.raises(BoundsError, match=r"^spans\.calibration=.* must be two integers$"):
            Spans(calibration=span)

    def test_list_span_is_stored_as_a_tuple(self):
        assert Spans([0, 120], [0, 400]) == SPANS

    def test_numpy_integer_bounds_pass(self):
        spans = Spans((np.int64(0), np.int32(120)), (np.int64(0), np.int64(400)))
        assert spans.resolve(400) == spans

    @pytest.mark.parametrize(
        "run",
        [lambda record, spans: ica_detect(record, DetectorConfig(method="ica"), spans),
         lambda record, spans: energy_detect(select_channel(record, "a"), "energy_ft",
                                             spans=spans),
         lambda record, spans: wavelet_detect(select_channel(record, "a"), spans=spans),
         lambda record, spans: performance_index(record, spans)],
        ids=["ica", "energy_ft", "wavelet", "performance_index"],
    )
    def test_detector_rejects_a_float_or_boolean_bound(self, ag_record, run):
        for bounds in [((0.0, 120.0), (0.0, 400.0)), ((False, 120),)]:
            with pytest.raises(BoundsError, match="spans.calibration=.* must be two integers"):
                run(ag_record, Spans(*bounds))


@pytest.mark.parametrize("name", ["level", "min_consecutive"])
def test_boolean_integer_setting_rejected(name):
    with pytest.raises(ConfigError, match=f"^{name} must not be a boolean, got True$"):
        DetectorConfig(**{name: True})


class TestCalibrateThreshold:
    def test_constant_series_returns_the_constant(self):
        series = np.full(100, 4.2)
        assert calibrate_threshold(series[0:100], 5.0) == pytest.approx(4.2)

    def test_standard_normal_lands_near_k(self):
        series = np.random.default_rng(0).standard_normal(10000)
        threshold = calibrate_threshold(series[0:10000], 5.0)
        assert 4.8 <= threshold <= 5.2

    def test_zero_k_returns_mean(self):
        series = np.arange(10.0)
        assert calibrate_threshold(series[0:10], 0.0) == pytest.approx(series.mean())

    def test_empty_span_rejected(self):
        with pytest.raises(DegenerateInputError):
            calibrate_threshold(np.ones(10)[5:5], 5.0)

    # values [1, 3]: mean 2, std 1
    @pytest.mark.parametrize(
        "k_sigma, bias, mean_multiple, floor, expected",
        [
            (5.0, 1.0, 2.5, 1.0, 7.0),    # k-sigma bound: 2 + 5 * 1
            (1.0, 1.0, 2.5, 1.0, 5.0),    # mean multiple: 2.5 * 2
            (1.0, 1.0, 2.5, 100.0, 100.0),  # absolute floor
            (5.0, 2.0, 2.5, 1.0, 14.0),   # bias scales the k-sigma bound
            (1.0, 2.0, 2.5, 1.0, 10.0),   # ... and the mean multiple
            (1.0, 2.0, 2.5, 100.0, 100.0),  # ... but not the floor
        ],
    )
    def test_each_bound_can_win(self, k_sigma, bias, mean_multiple, floor, expected):
        values = np.array([1.0, 3.0])
        assert calibrate_threshold(values, k_sigma, bias, mean_multiple, floor) == expected


class TestWaveletDetect:
    def test_ag_onset_inside_stated_window(self, ag_record):
        report = wavelet_detect(select_channel(ag_record, "a"))
        assert report.detected
        assert 0.060 <= report.onset_time_s <= 0.070

    def test_clean_baseline_not_detected(self, baseline_record):
        report = wavelet_detect(select_channel(baseline_record, "a"))
        assert not report.detected
        assert report.onset_sample is None and report.onset_time_s is None

    def test_three_phase_fault_visible_on_every_channel(self):
        record = make_record("ABCG")
        for phase in "abc":
            assert wavelet_detect(select_channel(record, phase)).detected

    def test_onset_never_early_beyond_debounce(self):
        for seed in range(5):
            record = make_record("AG", snr_db=20.0, seed=seed)
            report = wavelet_detect(select_channel(record, "a"))
            cfg = DetectorConfig()
            assert report.detected
            assert report.onset_sample >= FAULT_ONSET_SAMPLE - cfg.min_consecutive
            assert report.onset_sample <= FAULT_ONSET_SAMPLE + 80  # two cycles

    @settings(max_examples=40, deadline=None)
    @given(level=st.integers(1, 3), fault=st.sampled_from(["AG", "AB", "ABCG"]),
           onset=st.integers(130, 170))
    def test_onset_moves_with_the_fault_by_whole_cycles(self, level, fault, onset):
        """A noiseless 40-sample cycle is a multiple of 2**level, so moving the
        fault by whole cycles moves the wavelet onset by as many samples."""
        baseline = generate_baseline(WaveformConfig(duration_s=0.2))
        lags = set()
        for k in range(4):
            fault_onset = onset + 40 * k
            record = inject_fault(baseline, FaultSpec(fault, onset_s=fault_onset / 2000.0))
            report = wavelet_detect(select_channel(record, "a"), DetectorConfig(level=level))
            lags.add(report.onset_sample - fault_onset if report.detected else None)
        assert len(lags) == 1, lags

    def test_fixed_threshold_override(self, ag_record):
        report = wavelet_detect(
            select_channel(ag_record, "a"),
            DetectorConfig(threshold=FixedThreshold(1e9)),
        )
        assert not report.detected
        assert report.threshold_used == 1e9

    def test_debounce_longer_than_the_scan_is_rejected(self, ag_record):
        # no run that long fits the scan, so "no fault" would say nothing; nothing of
        # that length is built
        with pytest.raises(BoundsError, match=r"spans\.analysis=\(0, 400\) holds \d+ index values "
                                              f"to scan, fewer than min_consecutive={10**12}$"):
            wavelet_detect(select_channel(ag_record, "a"), DetectorConfig(min_consecutive=10**12))

    def test_transform_overflow_raises_numerical_error(self):
        """Finite samples whose detail coefficients overflow fail as the
        transform, not as the input."""
        trace = Trace(np.tile([1.5e308, -1.5e308], 200), 2000.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="overflows float64$"):
                wavelet_detect(trace)

    def test_zero_trace_is_refused(self):
        with pytest.raises(DegenerateInputError, match="^the calibration index is identically "
                                                       "zero"):
            wavelet_detect(Trace(np.zeros(400), 2000.0))

    def test_fixed_threshold_of_zero_stays_allowed(self):
        report = wavelet_detect(Trace(np.zeros(400), 2000.0),
                                DetectorConfig(threshold=FixedThreshold(0.0)))
        assert not report.detected and report.threshold_used == 0.0

    def test_deviated_frequency_clean_record_quiet(self):
        record = make_record("NONE", fundamental_hz=50.5)
        assert not wavelet_detect(select_channel(record, "a")).detected
        record = make_record("NONE", fundamental_hz=49.5)
        assert not wavelet_detect(select_channel(record, "a")).detected


class TestIcaDetect:
    def test_noisy_ag_fault_detected_within_ten_ms(self):
        record = make_record("AG", snr_db=20.0, seed=0)
        report = ica_detect(record, DetectorConfig(method="ica"), SPANS, IcaConfig())
        assert report.detected
        assert abs(report.onset_time_s - 0.065) <= 0.010

    def test_phase_to_phase_fault_detected(self):
        record = make_record("AB")
        report = ica_detect(record, spans=SPANS)
        assert report.detected

    def test_clean_deviated_frequency_not_detected(self):
        record = make_record("NONE", fundamental_hz=50.5)
        report = ica_detect(
            record, spans=SPANS, ica_cfg=IcaConfig(fundamental_hz=50.5)
        )
        assert not report.detected

    def test_calibration_span_must_fit_analysis(self):
        record = make_record("AG")
        bad = Spans(calibration=(0, 120), analysis=(120, 400))
        with pytest.raises(BoundsError):
            ica_detect(record, spans=bad)

    def test_short_trailing_mean_at_head_is_not_scanned(self):
        """Fault-free 20 dB record whose first index values, averaged over
        less than one cycle, cross the threshold."""
        record = make_record("NONE", snr_db=20.0, seed=1905862544, duration_s=2.048)
        report = ica_detect(record)
        assert not report.detected
        head = report.index_series[: 40 - 1]
        assert head.max() > report.threshold_used > report.metadata["analysis_index"]

    def test_metadata_names_kept_whitening_components(self):
        report = ica_detect(make_record("AG", snr_db=20.0, seed=0), spans=SPANS)
        eigenvalues = report.metadata["whitening_eigenvalues"]
        assert report.metadata["components_kept"] == len(eigenvalues) == 2
        assert eigenvalues == sorted(eigenvalues, reverse=True) and eigenvalues[-1] > 0
        assert "contrast" not in report.metadata


class TestEnergyDetect:
    def test_zero_trace_is_refused(self):
        """A zero trace calibrates a zero threshold, under which any nonzero
        window would read as a fault; the detector refuses it."""
        trace = Trace(np.zeros(400), 2000.0)
        for method in ENERGY_METHODS:
            with pytest.raises(DegenerateInputError, match="^the calibration index is "
                                                           "identically zero"):
                energy_detect(trace, method)

    @pytest.mark.parametrize("method", ENERGY_METHODS)
    def test_underflowed_energy_is_refused(self, ag_record, method):
        """At 1e-163 per unit every squared sample underflows to 0, the trace
        mean square floor with them."""
        trace = select_channel(ag_record, "a")
        tiny = Trace(1e-163 * trace.samples, trace.sample_rate_hz)
        with np.errstate(under="ignore"):
            with pytest.raises(DegenerateInputError, match="^the calibration index is "
                                                           "identically zero"):
                energy_detect(tiny, method)

    def test_ag_fault_detected_by_all_methods(self, ag_record):
        trace = select_channel(ag_record, "a")
        for method in ENERGY_METHODS:
            assert energy_detect(trace, method).detected, method

    @pytest.mark.parametrize("fundamental_hz", [1000.0, 1200.0])
    @pytest.mark.parametrize("method", ["energy_ft", "energy_wt", "ica"])
    def test_direct_call_at_or_above_nyquist_rejected(self, baseline_record, method,
                                                      fundamental_hz):
        """The FT/wavelet window and the ICA period are one cycle length, which
        checks the fundamental against the rate as run does."""
        with pytest.raises(ConfigError, match=r"^sample_rate_hz=2000\.0 violates Nyquist for "
                                              rf"fundamental_hz={fundamental_hz}$"):
            if method == "ica":
                ica_detect(baseline_record, ica_cfg=IcaConfig(fundamental_hz))
            else:
                energy_detect(select_channel(baseline_record, "a"), method,
                              fundamental_hz=fundamental_hz)

    @pytest.mark.parametrize("fundamental_hz", [1000.0, 1200.0])
    def test_stft_does_not_read_the_fundamental(self, baseline_record, fundamental_hz):
        trace = select_channel(baseline_record, "a")
        assert fields(energy_detect(trace, "energy_stft", fundamental_hz=fundamental_hz)) == \
            fields(energy_detect(trace, "energy_stft"))

    @pytest.mark.parametrize("method", ENERGY_METHODS)
    def test_index_strictly_grows_with_severity(self, method):
        values = []
        for retained in (0.9, 0.7, 0.5, 0.3, 0.1):
            record = make_record("AG", retained_voltage_pu=retained)
            report = energy_detect(select_channel(record, "a"), method)
            values.append(report.metadata["analysis_index"])
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_homogeneity_and_stable_decision(self, ag_record):
        trace = select_channel(ag_record, "a")
        scaled = Trace(4.0 * trace.samples, trace.sample_rate_hz)
        for method in ENERGY_METHODS:
            base = energy_detect(trace, method)
            big = energy_detect(scaled, method)
            assert big.metadata["analysis_index"] == pytest.approx(
                16.0 * base.metadata["analysis_index"], rel=1e-9
            )
            assert base.detected == big.detected
            assert base.onset_sample == big.onset_sample

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            energy_detect(Trace(np.zeros(400), 2000.0), "energy_cwt")

    INVALID_FUNDAMENTALS = [0.0, -50.0, float("inf"), float("nan")]

    @pytest.mark.parametrize("fundamental_hz", INVALID_FUNDAMENTALS)
    @pytest.mark.parametrize("method", ENERGY_METHODS)
    def test_non_positive_or_non_finite_fundamental_rejected(self, method, fundamental_hz):
        with pytest.raises(ConfigError, match="fundamental_hz must be finite and positive"):
            energy_detect(Trace(rng_trace(400), 2000.0), method, fundamental_hz=fundamental_hz)

    @pytest.mark.parametrize("fundamental_hz", INVALID_FUNDAMENTALS)
    def test_energy_row_rejects_non_positive_or_non_finite_fundamental(self, fundamental_hz):
        with pytest.raises(ConfigError, match="fundamental_hz must be finite and positive"):
            energy_row("AG", make_record("AG"), fundamental_hz=fundamental_hz)


class TestEnergyWindowSeries:
    """Each trace is transformed once; the window values equal the per-span functions."""

    def trace(self, n: int) -> Trace:
        trace = select_channel(make_record("AG", snr_db=20.0, seed=5, duration_s=n / 2000.0), "a")
        assert trace.n_samples == n
        return trace

    @staticmethod
    def starts(report, n: int) -> tuple[np.ndarray, int]:
        window = report.metadata["window"]
        starts = np.arange(0, n - window + 1, window // 4)
        assert starts.shape == report.index_series.shape
        return starts, window

    @pytest.mark.parametrize("n", (400, 1024, 4096))
    @pytest.mark.parametrize("level", (1, 2, 3))
    def test_wavelet_windows_equal_span_index_bitwise(self, n, level):
        trace = self.trace(n)
        report = energy_detect(trace, "energy_wt", DetectorConfig(method="energy_wt", level=level))
        starts, window = self.starts(report, n)
        expected = [wavelet_energy_index(trace, level, (s, s + window)) for s in starts]
        np.testing.assert_array_equal(report.index_series, expected)

    @pytest.mark.parametrize("n", (400, 1024, 4096))
    def test_ft_windows_match_per_window_dft(self, n):
        trace = self.trace(n)
        cfg = DetectorConfig(method="energy_ft")
        report = energy_detect(trace, "energy_ft", cfg)
        starts, window = self.starts(report, n)
        expected = [
            highband_energy_index(dft(Trace(trace.samples[s : s + window], 2000.0)),
                                  cfg.cutoff_hz, (s, s + window))
            for s in starts
        ]
        np.testing.assert_allclose(report.index_series, expected, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n", (400, 1024, 4096))
    def test_stft_frames_equal_hann_frame_sums_bitwise(self, n):
        trace = self.trace(n)
        report = energy_detect(trace, "energy_stft", DetectorConfig(method="energy_stft"))
        segments = np.lib.stride_tricks.sliding_window_view(trace.samples, STFT_WINDOW)[::STFT_HOP]
        frames = np.abs(np.fft.rfft(segments * np.hanning(STFT_WINDOW), axis=1)) / np.sqrt(STFT_WINDOW)
        gram = stft(trace)
        np.testing.assert_array_equal(gram.frames, frames)
        bins = gram.frequencies() >= 150.0
        np.testing.assert_array_equal(report.index_series,
                                      np.sum(frames[:, bins] ** 2, axis=1) / STFT_WINDOW)

    @settings(max_examples=200, deadline=None)
    @given(fs=st.floats(100.0, 1e5), samples_per_cycle=st.floats(0.5, 300.0),
           n=st.integers(2, 300), seed=st.integers(0, 2**16))
    @example(fs=2000.0, samples_per_cycle=2000.0 / 49.0, n=40, seed=0)  # 40.8 > 40 samples
    @example(fs=2000.0, samples_per_cycle=40.0, n=40, seed=0)  # exactly one cycle
    @example(fs=2000.0, samples_per_cycle=40.0, n=81, seed=0)  # two cycles in the calibration
    @example(fs=2000.0, samples_per_cycle=1.4, n=400, seed=0)  # rounds to 1 sample
    @example(fs=2000.0, samples_per_cycle=1.6, n=400, seed=0)  # rounds to 2 samples
    def test_ft_window_is_the_ica_period(self, fs, samples_per_cycle, n, seed):
        """The FT window and the ICA template period are one cycle length:
        equal, or the same error from both."""
        f0 = fs / samples_per_cycle
        record = ThreePhaseRecord(fs, rng_trace(3 * n, seed).reshape(3, n))
        cfg = DetectorConfig(method="energy_ft", cutoff_hz=fs / 8)

        def ica_period():
            return index_plan(n, fs, f0, Spans((0, n - 1), (0, n)))[1]

        try:
            window = energy_detect(select_channel(record, "a"), "energy_ft", cfg,
                                   Spans((0, n), (0, n)), f0).metadata["window"]
        except (ConfigError, DegenerateInputError) as exc:
            with pytest.raises(type(exc)) as got:
                ica_period()
            assert str(got.value) == str(exc)
            return
        if 2 * window < n:
            assert ica_period() == window
        else:  # the calibration span holds fewer than two periods, and says how long one is
            with pytest.raises(BoundsError, match=rf"cycles \({2 * window} samples\)"):
                ica_period()

    @pytest.mark.parametrize("n", (32, 39))
    @pytest.mark.parametrize("method", ENERGY_METHODS)
    def test_trace_shorter_than_one_cycle_rejected(self, method, n):
        with pytest.raises(FaultwaveError):
            energy_detect(Trace(rng_trace(n), 2000.0), method)


class TestEnergyFloor:
    """With a silent calibration span the threshold is the floor itself, which
    must equal the ``np.mean(x**2)`` form bit for bit."""

    @staticmethod
    def assert_floor_equals_mean_reference(samples, method, f0):
        report = energy_detect(Trace(samples, 2000.0), method, fundamental_hz=f0)
        expected = ENERGY_DETECTION_FLOOR * float(np.mean(samples**2))
        assert expected > 0.0
        assert_bitwise_equal(np.float64(report.threshold_used), np.float64(expected))

    @pytest.mark.parametrize("method", ["energy_ft", "energy_stft"])
    @pytest.mark.parametrize("f0", [50.0, 49.5, 48.0])  # 40, 40.4 and 41.7 samples per cycle
    @pytest.mark.parametrize("n", [400, 4096])
    def test_record_equals_mean_reference_bitwise(self, n, f0, method):
        record = make_record("AG", snr_db=20.0, fundamental_hz=f0, seed=4, duration_s=n / 2000.0)
        samples = select_channel(record, "a").samples.copy()
        samples[:int(0.3 * n)] = 0.0
        self.assert_floor_equals_mean_reference(samples, method, f0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(250, 5000), exponent=st.floats(-30, 10), seed=st.integers(0, 2**16),
           method=st.sampled_from(["energy_ft", "energy_stft"]))
    def test_random_equals_mean_reference_bitwise(self, n, exponent, seed, method):
        samples = 10.0**exponent * rng_trace(n, seed)
        samples[:int(0.3 * n)] = 0.0
        self.assert_floor_equals_mean_reference(samples, method, 50.0)


class TestAmplitudeScaling:
    """Scaling a trace by c = 2**k (exact in floating point) keeps every
    decision and scales the threshold by c (wavelet), c**2 (energy) or 1 (ICA)."""

    DETECTORS = [(wavelet_detect, 1)] + [
        (lambda trace, m=m: energy_detect(trace, m), 2) for m in ENERGY_METHODS
    ]

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(-10, 10), seed=st.integers(0, 2**16),
           fault=st.sampled_from(["AG", "AB", "NONE"]))
    def test_decision_invariant_threshold_covariant(self, k, seed, fault):
        c = 2.0**k
        trace = select_channel(make_record(fault, snr_db=20.0, seed=seed), "a")
        scaled = Trace(c * trace.samples, trace.sample_rate_hz)
        for detect, power in self.DETECTORS:
            base, big = detect(trace), detect(scaled)
            assert (big.detected, big.onset_sample) == (base.detected, base.onset_sample)
            assert big.threshold_used == pytest.approx(c**power * base.threshold_used, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(-10, 10), seed=st.integers(0, 2**16),
           fault=st.sampled_from(["AG", "AB", "NONE"]))
    def test_ica_decision_and_threshold_invariant(self, k, seed, fault):
        """The performance index is scale-free after whitening, and scaling by
        a power of two is exact, so the threshold is bitwise unchanged."""
        record = make_record(fault, snr_db=20.0, seed=seed)
        scaled = ThreePhaseRecord(record.sample_rate_hz, 2.0**k * record.samples, record.labels)
        base, big = ica_detect(record), ica_detect(scaled)
        assert (big.detected, big.onset_sample) == (base.detected, base.onset_sample)
        assert big.threshold_used == base.threshold_used

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, 300), fault=st.sampled_from(["AG", "NONE"]))
    @example(k=0, fault="AG")  # every detector returns
    @example(k=80, fault="AG")  # the energy thresholds (spread in amplitude**4) overflow
    @example(k=153, fault="AG")  # ... and the ICA covariance
    @example(k=155, fault="AG")  # ... and the wavelet threshold: every detector raises
    @example(k=300, fault="NONE")
    def test_overflow_raises_numerical_error(self, k, fault):
        """Scaled by 10**k, every detector returns a finite threshold and
        analysis index or raises NumericalError: an index or threshold that
        overflows never reads as a verdict."""
        record = make_record(fault, snr_db=20.0, seed=k)
        scaled = ThreePhaseRecord(record.sample_rate_hz, 10.0**k * record.samples, record.labels)
        trace = select_channel(scaled, "a")
        runs = [lambda: ica_detect(scaled)] + [lambda d=d: d(trace) for d, _ in self.DETECTORS]
        with np.errstate(over="ignore", invalid="ignore"):
            for run in runs:
                try:
                    report = run()
                except NumericalError:
                    continue
                assert np.isfinite(report.threshold_used)
                assert np.isfinite(report.metadata["analysis_index"])


def direct_call(record, cfg, spans, channel, fundamental_hz):
    """The detector call ``run`` stands for, written out per method."""
    if cfg.method == "ica":
        return ica_detect(record, cfg, spans, IcaConfig(fundamental_hz))
    trace = select_channel(record, channel)
    if cfg.method == "wavelet":
        return wavelet_detect(trace, cfg, spans)
    return energy_detect(trace, cfg.method, cfg, spans, fundamental_hz)


def per_trace_energy_row(name, record, cfg, spans, fundamental_hz):
    """Reference: the energy row as a loop of ``energy_detect`` over the three
    phase traces, per method."""
    traces = [select_channel(record, phase) for phase in PHASES]
    peaks, hits = [], []
    for method in ENERGY_METHODS:
        reports = [energy_detect(trace, method, cfg, spans, fundamental_hz) for trace in traces]
        peaks.append(max(report.metadata["analysis_index"] for report in reports))
        hits.append(any(report.detected for report in reports))
    return EnergyRow(name, *peaks, *hits)


def fields(report):
    """A report's fields, its arrays as dtype and bytes, for a bitwise comparison."""
    return (report.method, report.detected, report.onset_sample, report.onset_time_s,
            report.threshold_used, report.metadata, report.index_series.dtype,
            report.index_series.tobytes(), report.index_times_s.dtype,
            report.index_times_s.tobytes())


# At 2 kHz every fundamental from 49.5 to 50.5 Hz gives the 40-sample energy
# window; the 40 Hz record gives 50 samples, so it shows which fundamental the
# energy methods read.
RUN_RECORDS = [(fault, snr_db, f0) for fault in ("AG", "BG", "NONE") for snr_db in (None, 20.0)
               for f0 in (49.5, 50.0, 50.5)] + [("AG", 20.0, 40.0)]


class TestRun:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("fault,snr_db,f0", RUN_RECORDS)
    def test_equals_the_direct_detector_call(self, fault, snr_db, f0, method):
        record = make_record(fault, snr_db=snr_db, fundamental_hz=f0, seed=5)
        cfg = DetectorConfig(method=method)
        for channel in PHASES:
            for spans in (None, SPANS):
                assert fields(run(record, cfg, spans, channel, f0)) == fields(
                    direct_call(record, cfg, spans, channel, f0))

    @pytest.mark.parametrize("channel", ["d", "A", "", None, ["a"]])
    @pytest.mark.parametrize("method", METHODS)
    def test_bad_channel_rejected(self, method, channel):
        with pytest.raises(ConfigError, match="^channel must be 'a', 'b' or 'c', got "):
            run(make_record("AG"), DetectorConfig(method=method), channel=channel)

    @pytest.mark.parametrize("fundamental_hz", TestEnergyDetect.INVALID_FUNDAMENTALS)
    @pytest.mark.parametrize("method", METHODS)
    def test_non_positive_or_non_finite_fundamental_rejected(self, method, fundamental_hz):
        with pytest.raises(ConfigError, match="fundamental_hz must be finite and positive"):
            run(make_record("AG"), DetectorConfig(method=method), fundamental_hz=fundamental_hz)

    @pytest.mark.parametrize("fundamental_hz", [750.0, 999.0])
    @pytest.mark.parametrize("method", METHODS)
    def test_fundamental_at_or_above_the_records_nyquist_rejected(self, method, fundamental_hz):
        """The record's rate, not the 2 kHz default, bounds the fundamental."""
        record = generate_baseline(WaveformConfig(duration_s=0.4, sample_rate_hz=1500.0))
        with pytest.raises(ConfigError, match=rf"^sample_rate_hz=1500.0 violates Nyquist for "
                                              rf"fundamental_hz={fundamental_hz}$"):
            run(record, DetectorConfig(method=method), fundamental_hz=fundamental_hz)

    @pytest.mark.parametrize("method", METHODS)
    def test_labelled_onset_inside_the_calibration_span_rejected(self, method):
        """Sample 130 of the 0.065 s fault lies inside the default 120-sample
        calibration span of a 400-sample record only once that span is widened."""
        record = make_record("AG", snr_db=20.0, seed=5)
        widened = Spans(calibration=(0, 160))
        run(record, DetectorConfig(method=method))
        with pytest.raises(ConfigError, match=r"onset sample 130 lies inside the calibration "
                                              r"span \(0, 160\)"):
            run(record, DetectorConfig(method=method), widened)
        if method in ENERGY_METHODS:
            with pytest.raises(ConfigError, match="onset sample 130"):
                energy_row("AG", record, DetectorConfig(method=method), widened)

    @pytest.mark.parametrize("fault,snr_db,f0", RUN_RECORDS)
    def test_energy_row_equals_the_per_trace_loop(self, fault, snr_db, f0):
        record = make_record(fault, snr_db=snr_db, fundamental_hz=f0, seed=5)
        for cfg in (DetectorConfig(), DetectorConfig(method="energy_ft", level=2, cutoff_hz=200.0),
                    DetectorConfig(threshold=FixedThreshold(0.01))):
            for spans in (None, SPANS):
                assert energy_row(fault, record, cfg, spans, f0) == per_trace_energy_row(
                    fault, record, cfg, spans, f0)


class TestNoFaultSpecificity:
    def test_one_hundred_clean_records_no_detections(self):
        """Every detector stays quiet on 100 fault-free records."""
        conditions = [
            dict(),
            dict(snr_db=20.0),
            dict(fundamental_hz=49.5),
            dict(fundamental_hz=50.5),
            dict(snr_db=20.0, fundamental_hz=50.5),
        ]
        count = 0
        for seed in range(20):
            for cond in conditions:
                record = make_record("NONE", seed=seed, **cond)
                f0 = cond.get("fundamental_hz", 50.0)
                trace = select_channel(record, "a")
                assert not wavelet_detect(trace).detected
                assert not ica_detect(
                    record, spans=SPANS,
                    ica_cfg=IcaConfig(fundamental_hz=f0),
                ).detected
                for method in ENERGY_METHODS:
                    assert not energy_detect(trace, method, fundamental_hz=f0).detected
                count += 1
        assert count == 100

    def test_sensitivity_all_faults_all_conditions(self):
        """Default-severity faults are caught in every operating condition."""
        for name in ("AG", "BG", "CG", "AB", "BC", "ABC"):
            for cond in (dict(), dict(snr_db=20.0), dict(fundamental_hz=50.5)):
                record = make_record(name, seed=1, **cond)
                f0 = cond.get("fundamental_hz", 50.0)
                for method in ENERGY_METHODS:
                    hit = any(
                        energy_detect(
                            select_channel(record, phase), method, fundamental_hz=f0
                        ).detected
                        for phase in "abc"
                    )
                    assert hit, (name, cond, method)
