"""The slice-based decision core against the mask-based code it replaced.

The reference functions below keep the earlier implementation: boolean masks
over the whole index, ``values.mean()``/``values.std()`` for the threshold,
and ``np.convolve`` to find runs. The new code must match them bit for bit,
errors included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from faultwave import BoundsError, DetectorConfig, FixedThreshold, Spans, Trace, wavelet_detect
from faultwave.detect import (AdaptiveThreshold, DetectionReport, _decide, _first_run_start,
                              _plan, calibrate_threshold)
from faultwave.dwt import (FILTER_LEN, artifact_free_range, boundary_artifact_mask,
                           detail_series, dwt_decompose)
from conftest import assert_bitwise_equal, rng_trace
from test_dwt import loop_boundary_mask


def std_calibrate_threshold(values, k_sigma=5.0, bias=1.0, mean_multiple=0.0, floor=0.0):
    """Reference: the threshold through ``values.mean()`` and ``values.std()``."""
    mean = values.mean()
    return max(bias * float(mean + k_sigma * values.std()),
               bias * mean_multiple * float(mean), floor)


def scalar_calibrate_threshold(values, k_sigma=5.0, bias=1.0, mean_multiple=0.0, floor=0.0):
    """Reference: one mean, reused for the deviation, on numpy float64 scalars."""
    n = values.size
    mean = values.sum() / n
    deviation = values - mean
    std = np.sqrt((deviation * deviation).sum() / n)
    return max(bias * float(mean + k_sigma * std), bias * mean_multiple * float(mean), floor)


def convolve_first_run_start(above, min_consecutive):
    """Reference: runs found by convolving with a box of ones."""
    if min_consecutive > above.size:
        return None
    if min_consecutive == 1:
        hits = np.flatnonzero(above)
        return int(hits[0]) if hits.size else None
    window = np.convolve(above.astype(int), np.ones(min_consecutive, dtype=int), "valid")
    hits = np.flatnonzero(window == min_consecutive)
    return int(hits[0]) if hits.size else None


def mask_decide(method, starts, values, width, valid, cfg, spans, fs, rule,
                min_consecutive=None, valid_mask=None):
    """Reference: the decision core on boolean masks. ``valid`` is the valid
    row range (None: every row), and ``valid_mask`` its mask, by default
    built from it."""
    policy = cfg.threshold
    if valid_mask is None:
        valid_mask = row_mask(valid, starts.size)
    ends = starts + width
    masks = []
    for name in ("calibration", "analysis"):
        lo, hi = getattr(spans, name)
        inside = (starts >= lo) & (ends <= hi)
        if not np.any(inside):
            raise BoundsError(
                f"spans.{name}=({lo}, {hi}) is shorter than one window ({width})")
        if not np.any(inside & valid_mask):
            raise BoundsError(
                f"spans.{name}=({lo}, {hi}) holds no sample of dwt.artifact_free_range={valid}")
        masks.append(inside & valid_mask)
    in_cal, scan = masks
    a_lo, a_hi = spans.analysis
    need = min_consecutive or cfg.min_consecutive
    if np.count_nonzero(scan) < need:
        raise BoundsError(f"spans.analysis=({a_lo}, {a_hi}) holds {np.count_nonzero(scan)} "
                          f"index values to scan, fewer than min_consecutive={need}")
    if isinstance(policy, FixedThreshold):
        threshold = policy.fixed
    else:
        threshold = std_calibrate_threshold(values[in_cal], policy.k_sigma, *rule)
    run = convolve_first_run_start((values > threshold) & scan, need)
    onset = None if run is None else int(starts[run])
    return DetectionReport(method, onset is not None, onset,
                           None if onset is None else onset / fs, values, None, threshold,
                           {"analysis_index": float(values[scan].max())})


def row_mask(valid, rows):
    """The boolean mask of a half-open row range (None: every row)."""
    if valid is None:
        return True
    mask = np.zeros(rows, dtype=bool)
    mask[valid[0]:valid[1]] = True
    return mask


def assert_same_outcome(run, reference):
    """Both raise a BoundsError with the same message, or report the same, bit for bit."""
    try:
        expected = reference()
    except BoundsError as exc:
        with pytest.raises(BoundsError) as got:
            run()
        assert str(got.value) == str(exc)
        return
    report = run()
    assert (report.detected, report.onset_sample, report.onset_time_s) == (
        expected.detected, expected.onset_sample, expected.onset_time_s)
    assert_bitwise_equal(np.float64(report.threshold_used), np.float64(expected.threshold_used))
    assert_bitwise_equal(np.float64(report.metadata["analysis_index"]),
                         np.float64(expected.metadata["analysis_index"]))


# Magnitudes from round-off to volts squared, and lengths past the 128-element
# blocks of numpy's pairwise summation.
CALIBRATION_VALUES = st.tuples(st.integers(1, 3000), st.floats(-30, 10),
                               st.integers(0, 2**16))


class TestCalibrateThreshold:
    @settings(max_examples=200, deadline=None)
    @given(CALIBRATION_VALUES, st.floats(0, 10), st.floats(0.5, 3), st.floats(0, 5),
           st.floats(0, 1))
    @example((1, 0.0, 0), 5.0, 1.0, 0.0, 0.0)
    @example((3000, -30.0, 1), 5.0, 1.0, 0.0, 0.0)
    @example((129, 10.0, 2), 0.0, 1.2, 2.5, 0.0)
    def test_equals_mean_and_std_bitwise(self, drawn, k_sigma, bias, mean_multiple, floor):
        n, exponent, seed = drawn
        values = 10.0**exponent * np.abs(rng_trace(n, seed)) ** 2
        got = np.float64(calibrate_threshold(values, k_sigma, bias, mean_multiple, floor))
        assert_bitwise_equal(
            got, np.float64(std_calibrate_threshold(values, k_sigma, bias, mean_multiple, floor)))
        assert_bitwise_equal(
            got, np.float64(scalar_calibrate_threshold(values, k_sigma, bias, mean_multiple,
                                                       floor)))


class TestFirstRunStart:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), max_size=80), st.integers(1, 6))
    @example([], 1)
    @example([True], 1)
    @example([True, True], 3)
    @example([False, True, True, False, True, True, True], 3)
    def test_equals_convolution_reference(self, above, min_consecutive):
        above = np.array(above, dtype=bool)
        assert (_first_run_start(above, min_consecutive)
                == convolve_first_run_start(above, min_consecutive))


@st.composite
def decisions(draw):
    """An index of evenly spaced windows, spans that may or may not fit it, a
    valid row range that may be empty, a threshold policy and a run length."""
    rows = draw(st.integers(1, 300))
    hop = draw(st.integers(1, 8))
    width = draw(st.integers(1, 40))
    offset = draw(st.integers(0, 50))
    starts = offset + hop * np.arange(rows)
    end = int(starts[-1]) + width + draw(st.integers(0, 20))
    inside = st.integers(0, end - 1).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, end)))
    span = inside | inside | st.tuples(st.integers(-5, end + 5), st.integers(-5, end + 5))
    valid = draw(st.none() | st.tuples(st.integers(0, rows + 5), st.integers(0, rows + 5)))
    seed = draw(st.integers(0, 2**16))
    values = rng_trace(rows, seed) ** 2
    values[draw(st.integers(0, rows)):] += draw(st.floats(0, 50))  # a step up, maybe none
    if draw(st.booleans()):
        policy = FixedThreshold(draw(st.floats(0, 60)))
    else:
        policy = AdaptiveThreshold(draw(st.floats(0, 10)))
    rule = draw(st.sampled_from([(1.0, 0.0, 0.0), (1.4, 2.5, 1e-9), (1.0, 4.5, 0.5)]))
    cfg = DetectorConfig(threshold=policy, min_consecutive=draw(st.integers(1, 5)))
    return (starts, values, width, valid, cfg,
            Spans(draw(span), draw(span)), rule, draw(st.none() | st.integers(1, 5)))


class TestDecide:
    @settings(max_examples=400, deadline=None)
    @given(decisions())
    def test_equals_mask_reference(self, decision):
        starts, values, width, valid, cfg, spans, rule, min_consecutive = decision
        first, hop = int(starts[0]), int(starts[1] - starts[0]) if starts.size > 1 else 1
        need = min_consecutive or cfg.min_consecutive
        assert_same_outcome(
            lambda: _decide("m", values, starts / 2000.0,
                            _plan(spans, starts.size, width, need, first, hop, valid),
                            cfg, 2000.0, {}, rule),
            lambda: mask_decide("m", starts, values, width, valid, cfg, spans, 2000.0, rule,
                                min_consecutive))

    def test_empty_valid_range_names_the_calibration_span(self):
        with pytest.raises(BoundsError) as got:
            _plan(Spans((0, 30), (0, 100)), 100, 1, 3, valid=(60, 60))
        assert str(got.value) == ("spans.calibration=(0, 30) holds no sample of "
                                  "dwt.artifact_free_range=(60, 60)")


def wavelet_lengths(max_level: int = 6, max_n: int = 8192):
    """Every (n, level) ``dwt_decompose`` accepts, up to the given bounds."""
    for level in range(1, max_level + 1):
        step = 1 << level
        for n in range(-(-FILTER_LEN // step) * step, max_n + 1, step):
            if level < n.bit_length():
                yield n, level


class TestWaveletBoundaryRule:
    """One home for the rule: the detector's valid range is the complement of
    the mask, and of the per-coefficient reference mask."""

    def test_range_is_the_complement_of_the_mask(self):
        for n, level in wavelet_lengths():
            lo, hi = artifact_free_range(n, level)
            valid = np.zeros(n, dtype=bool)
            valid[lo:hi] = True
            np.testing.assert_array_equal(valid, ~boundary_artifact_mask(n, level),
                                          err_msg=f"n={n}, level={level}")
            np.testing.assert_array_equal(valid, ~loop_boundary_mask(n, level),
                                          err_msg=f"n={n}, level={level}")

    @pytest.mark.parametrize("n, level", [case for case in wavelet_lengths()
                                          if np.all(loop_boundary_mask(*case))])
    def test_empty_range_raises_the_mask_reference_error(self, n, level):
        trace = Trace(rng_trace(n, seed=n), 2000.0)
        cfg = DetectorConfig(level=level)
        series = detail_series(dwt_decompose(trace, level), level)
        spans = Spans().resolve(n)
        with pytest.raises(BoundsError) as expected:
            mask_decide("wavelet", np.arange(n), series, 1, artifact_free_range(n, level),
                        cfg, spans, 2000.0, (1.0, 0.0, 0.0),
                        valid_mask=~loop_boundary_mask(n, level))
        with pytest.raises(BoundsError) as got:
            wavelet_detect(trace, cfg)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [448, 512, 1024, 4096])
    def test_report_equals_mask_reference(self, n, level):
        samples = rng_trace(n, seed=level)
        samples[n // 2:] += 3.0 * np.sin(np.arange(n - n // 2))
        trace = Trace(samples, 2000.0)
        cfg = DetectorConfig(level=level)
        series = detail_series(dwt_decompose(trace, level), level)
        assert_same_outcome(
            lambda: wavelet_detect(trace, cfg),
            lambda: mask_decide("wavelet", np.arange(n), series, 1,
                                artifact_free_range(n, level), cfg, Spans().resolve(n),
                                2000.0, (1.0, 0.0, 0.0), valid_mask=~loop_boundary_mask(n, level)))
