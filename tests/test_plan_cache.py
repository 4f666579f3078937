"""Plans cached per record geometry leave every report as it was.

A detector call builds its sample-independent arrays (window grids,
coefficient groups, phase slots) from hashable scalars and keeps them in a
bounded ``functools.lru_cache``. Reports made on warm caches, in any order of
geometries and with plans evicted on the way, must equal reports made on cold
ones bit for bit; no report may hold a cached array; and every input error
must still be raised when the plan of its geometry is cached.
"""

from __future__ import annotations

import dataclasses
import itertools
import pathlib
import random
import re

import numpy as np
import pytest

from faultwave import (
    BoundsError,
    ConfigError,
    DegenerateInputError,
    DetectorConfig,
    IcaConfig,
    ShapeError,
    Spans,
    ThreePhaseRecord,
    Trace,
    energy_detect,
    ica_detect,
    performance_index,
    select_channel,
    wavelet_detect,
)
from faultwave import detect, ica, spectral
from faultwave.detect import ENERGY_METHODS
from faultwave.signal_model import cycle_length
from conftest import assert_bitwise_equal, make_record

MODULES = (detect, ica, spectral)
CACHES = {f"{module.__name__}.{name}": value for module in MODULES
          for name, value in vars(module).items() if hasattr(value, "cache_clear")}

# (record length, custom spans) pairs; ``None`` takes the defaults.
SPANS = {400: Spans((10, 130), (10, 400)), 4096: Spans((100, 1300), (100, 4096))}


def clear_caches() -> None:
    for cache in CACHES.values():
        cache.cache_clear()


def record(n: int, f0: float, fault: str = "AG") -> ThreePhaseRecord:
    return make_record(fault, snr_db=20.0, fundamental_hz=f0, seed=n, duration_s=n / 2000.0)


def screen(rec: ThreePhaseRecord, f0: float, level: int, spans: Spans | None) -> list:
    """Every detector on ``rec``, energy methods on every phase."""
    reports = [wavelet_detect(select_channel(rec, "a"), DetectorConfig(level=level), spans),
               ica_detect(rec, spans=spans, ica_cfg=IcaConfig(fundamental_hz=f0))]
    for method, phase in itertools.product(ENERGY_METHODS, "abc"):
        reports.append(energy_detect(select_channel(rec, phase), method,
                                     DetectorConfig(method=method, level=level), spans, f0))
    return reports


def digest(report) -> tuple:
    """Everything a report says, with arrays and floats as bytes."""
    return (report.method, report.detected, report.onset_sample, report.onset_time_s,
            np.float64(report.threshold_used).tobytes(), report.index_series.tobytes(),
            report.index_times_s.tobytes(), repr(sorted(report.metadata.items())))


def test_every_cache_is_a_bounded_plan_cache():
    assert sorted(CACHES) == ["faultwave.detect._wavelet_plan", "faultwave.detect._window_plan",
                              "faultwave.ica.index_plan"]
    assert sorted(plans()) == sorted(CACHES)  # cached_arrays() reads every cache
    for name, cache in CACHES.items():
        module = next(m for m in MODULES if name.startswith(m.__name__ + "."))
        assert cache.cache_parameters()["maxsize"] == module.PLAN_CACHE_SIZE, name


def test_the_plan_cache_size_is_defined_once():
    package = pathlib.Path(detect.__file__).parent
    assigned = [path.name for path in sorted(package.glob("*.py"))
                if re.search(r"^PLAN_CACHE_SIZE\b.*=", path.read_text(), re.M)]
    assert assigned == ["ica.py"]


def test_interleaved_geometries_equal_cold_caches_bitwise():
    geometries = list(itertools.product((400, 4096), (49.5, 50.0, 50.5), (1, 2, 3),
                                        (False, True)))
    records = {(n, f0): record(n, f0) for n, f0, _, _ in geometries}

    def run(geometry):
        n, f0, level, custom = geometry
        return [digest(r) for r in screen(records[n, f0], f0, level,
                                          SPANS[n] if custom else None)]

    cold = {}
    for geometry in geometries:
        clear_caches()
        cold[geometry] = run(geometry)
    clear_caches()
    order = geometries * 2
    random.Random(0).shuffle(order)
    for geometry in order:
        assert run(geometry) == cold[geometry], geometry
    for name, cache in CACHES.items():
        info = cache.cache_info()
        assert info.hits > 0 and info.currsize <= info.maxsize, name


def test_paper_grid_fundamentals_keep_every_plan_warm():
    """The energy plans are keyed on the window, 40 samples at all three
    fundamentals, so the 9 (method, fundamental) pairs of a screen need 3
    energy plans, not more than a cache keeps; a second screen misses none."""
    records = {f0: record(400, f0) for f0 in (49.5, 50.0, 50.5)}
    clear_caches()
    for f0, rec in records.items():
        screen(rec, f0, 1, None)
    misses = {name: cache.cache_info().misses for name, cache in CACHES.items()}
    for f0, rec in records.items():
        screen(rec, f0, 1, None)
    assert {name: cache.cache_info().misses for name, cache in CACHES.items()} == misses


def plans() -> dict:
    """One plan from each cache, by cache name (both kinds of energy plan)."""
    return {
        "faultwave.detect._wavelet_plan": detect._wavelet_plan(400, 2, 3, None),
        "faultwave.detect._window_plan": (
            detect._window_plan(400, 40, 10, 2000.0, None, 2, None),
            detect._window_plan(400, 40, 10, 2000.0, 150.0, None, SPANS[400])),
        "faultwave.ica.index_plan": ica.index_plan(400, 2000.0, 50.0, Spans((0, 120), (0, 400))),
    }


def arrays_in(value) -> list[np.ndarray]:
    """Every array in ``value``, however deep in tuples and dataclasses."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [array for item in value for array in arrays_in(item)]
    return []


def cached_arrays() -> list[np.ndarray]:
    """The arrays of one plan from each cache."""
    return arrays_in(list(plans().values()))


def test_the_wavelet_plan_holds_no_array():
    assert arrays_in(plans()["faultwave.detect._wavelet_plan"]) == []


def test_cached_arrays_are_read_only():
    arrays = cached_arrays()
    assert len(arrays) > 5
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0
    assert all(a is b for a, b in zip(arrays, cached_arrays()))


@pytest.mark.parametrize("n", [400, 4096])
def test_mutating_a_report_changes_no_later_report(n):
    rec = record(n, 50.0)
    expected = [digest(r) for r in screen(rec, 50.0, 2, None)]
    for report in screen(rec, 50.0, 2, None):
        assert report.index_series.flags.writeable and report.index_times_s.flags.writeable
        report.index_series[...] = np.nan
        report.index_times_s[...] = np.nan
    assert [digest(r) for r in screen(rec, 50.0, 2, None)] == expected


def raises_twice(error, match, call):
    """``call`` raises on a cold and on a warm cache alike."""
    for _ in range(2):
        with pytest.raises(error, match=match):
            call()


class TestInputErrorsOnWarmCaches:
    TRACE = select_channel(record(400, 50.0), "a")

    def setup_method(self):
        screen(record(400, 50.0), 50.0, 1, None)
        screen(record(400, 50.0), 50.0, 1, SPANS[400])

    @pytest.mark.parametrize("method", ["energy_ft", "energy_stft"])
    def test_cutoff_at_or_above_nyquist(self, method):
        for cutoff_hz in (1000.0, 1500.0):
            cfg = DetectorConfig(method=method, cutoff_hz=cutoff_hz)
            raises_twice(ConfigError, "Nyquist", lambda: energy_detect(self.TRACE, method, cfg))

    @pytest.mark.parametrize("method", ["energy_ft", "energy_wt"])
    def test_cycle_longer_than_the_trace(self, method):
        short = Trace(self.TRACE.samples[:32], 2000.0)
        raises_twice(DegenerateInputError, "longer than the record",
                     lambda: energy_detect(short, method))
        raises_twice(DegenerateInputError, "longer than the record",
                     lambda: energy_detect(self.TRACE, method, fundamental_hz=4.0))

    def test_level_that_does_not_fit_the_trace(self):
        for level in (5, 61):  # 400 = 16 * 25; 2**61 overflows an int64 window grid
            cfg = DetectorConfig(method="energy_wt", level=level)
            raises_twice(ShapeError, "not divisible",
                         lambda: energy_detect(self.TRACE, "energy_wt", cfg))

    def test_ica_cycle_longer_than_the_record(self):
        raises_twice(DegenerateInputError, "longer than the record",
                     lambda: ica_detect(record(400, 50.0), ica_cfg=IcaConfig(fundamental_hz=4.0)))

    def test_span_misfit(self):
        rec = record(400, 50.0)
        for spans in (Spans(calibration=(0, 500)), Spans(analysis=(300, 401))):
            raises_twice(BoundsError, "outside the record", lambda: wavelet_detect(
                select_channel(rec, "a"), spans=spans))
            raises_twice(BoundsError, "outside the record", lambda: ica_detect(rec, spans=spans))
            for method in ENERGY_METHODS:
                raises_twice(BoundsError, "outside the record", lambda: energy_detect(
                    self.TRACE, method, spans=spans))

    def test_calibration_span_under_two_cycles(self):
        rec = record(400, 50.0)
        for spans in (Spans((0, 79), (0, 400)), Spans((10, 60), (10, 400))):
            raises_twice(BoundsError, "fewer than two", lambda: ica_detect(rec, spans=spans))

    @pytest.mark.parametrize("method", ENERGY_METHODS)
    def test_calibration_span_shorter_than_one_window(self, method):
        window = 64 if method == "energy_stft" else 40
        for spans in (Spans(calibration=(0, 39)), Spans((10, 49), (10, 400))):
            lo, hi = spans.calibration
            raises_twice(BoundsError, re.escape(f"spans.calibration=({lo}, {hi}) is shorter than "
                                                f"one window ({window})") + "$",
                         lambda: energy_detect(self.TRACE, method, spans=spans))

    def test_scan_shorter_than_min_consecutive(self):
        rec = record(400, 50.0)
        cfg = DetectorConfig(min_consecutive=1000)
        message = (r"^spans\.analysis=\(\d+, 400\) holds \d+ index values to scan, "
                   "fewer than min_consecutive=1000$")
        for spans in (None, SPANS[400]):
            raises_twice(BoundsError, message, lambda: wavelet_detect(self.TRACE, cfg, spans))
            raises_twice(BoundsError, message, lambda: ica_detect(
                rec, dataclasses.replace(cfg, method="ica"), spans))

    @pytest.mark.parametrize("spans", [None, SPANS[400]])
    def test_all_zero_calibration_span(self, spans):
        rec = record(400, 50.0)
        lo, hi = (spans or Spans()).resolve(400).calibration
        samples = rec.samples.copy()
        samples[:, lo:hi] = 0.0
        zeroed = ThreePhaseRecord(rec.sample_rate_hz, samples)
        raises_twice(DegenerateInputError, "identically zero",
                     lambda: ica_detect(zeroed, spans=spans))


def test_a_warm_index_derives_no_period(monkeypatch):
    """The ICA span checks and period live in the index plan: a cold call
    derives the cycle length once, a warm one not at all, and the detector's
    own plan builds the index plan its index call then finds."""
    calls = []
    monkeypatch.setattr(ica, "cycle_length", lambda *args: calls.append(args) or cycle_length(*args))
    rec, config = record(400, 49.5), IcaConfig(fundamental_hz=49.5)
    clear_caches()
    cold = performance_index(rec, Spans((0, 120), (0, 400)), config)
    assert len(calls) == 1
    warm = performance_index(rec, Spans((0, 120), (0, 400)), config)
    assert len(calls) == 1
    assert_bitwise_equal(warm.values, cold.values)
    clear_caches()
    ica_detect(rec, ica_cfg=config)
    assert len(calls) == 2
    ica_detect(rec, ica_cfg=config)
    assert len(calls) == 2


def test_list_spans_share_the_tuple_plan():
    rec, config = record(400, 49.5), IcaConfig(fundamental_hz=49.5)
    clear_caches()
    listed = performance_index(rec, Spans([0, 120], [0, 400]), config)
    for calibration, analysis in (((0, 120), (0, 400)), ([0, 120], (0, 400))):
        assert_bitwise_equal(performance_index(rec, Spans(calibration, analysis), config).values,
                             listed.values)
    assert ica.index_plan.cache_info().currsize == 1


@pytest.mark.parametrize("calibration, analysis, f0, error, message", [
    ((0, 120), (0, 401), 50.0, BoundsError,
     "spans.analysis=(0, 401) lies outside the record (N=400)"),
    ((0, 120), (0, 400), 1500.0, ConfigError,
     "sample_rate_hz=2000.0 violates Nyquist for fundamental_hz=1500.0"),
    ((0, 120), (0, 400), 4.0, DegenerateInputError,
     "one 4.0 Hz cycle is longer than the record (400 samples)"),
    ((0, 79), (0, 400), 50.0, BoundsError,
     "spans.calibration=(0, 79) covers fewer than two fundamental cycles (80 samples)"),
], ids=["outside", "short-cycle", "long-cycle", "under-two-cycles"])
def test_each_index_rule_raises_alike_on_cold_and_warm_caches(calibration, analysis, f0, error,
                                                               message):
    """The rules of the index plan, called through the index itself, in the
    order they are checked (the span rule, checked between the first two, has
    its own test); a plan is only cached once they pass."""
    rec, config = record(400, 50.0), IcaConfig(fundamental_hz=f0)
    clear_caches()
    for _ in range(2):
        with pytest.raises(error) as raised:
            performance_index(rec, Spans(calibration, analysis), config)
        assert str(raised.value) == message
        performance_index(rec, Spans((0, 120), (0, 400)), IcaConfig(fundamental_hz=50.0))


@pytest.mark.parametrize("spans, message", [
    (Spans((10, 130), (0, 400)), "spans.calibration=(10, 130) must start where "
                                 "spans.analysis=(0, 400) starts and end before it ends"),
    (Spans((10, 130), (50, 400)), "spans.calibration=(10, 130) must start where "
                                  "spans.analysis=(50, 400) starts and end before it ends"),
    (Spans((0, 400), (0, 400)), "spans.calibration=(0, 400) must start where "
                                "spans.analysis=(0, 400) starts and end before it ends"),
    (Spans(analysis=(10, 400)), "spans.calibration=(0, 120) must start where "
                                "spans.analysis=(10, 400) starts and end before it ends"),
], ids=["starts-late", "starts-early", "ends-late", "default-calibration"])
def test_one_ica_span_rule(spans, message):
    """The index and the ICA detector keep one span rule, with one message,
    on a cold cache and on one that holds the plans of their geometry."""
    rec = record(400, 50.0)
    clear_caches()
    for _ in range(2):
        for call in (lambda: performance_index(rec, spans), lambda: ica_detect(rec, spans=spans)):
            with pytest.raises(BoundsError) as raised:
                call()
            assert str(raised.value) == message
        ica_detect(rec)
        ica_detect(rec, spans=Spans((0, 120), (0, 400)))
