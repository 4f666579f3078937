"""Plans cached per record geometry leave every report as it was.

A detector call builds its sample-independent arrays (window grids, tapers,
coefficient groups, phase slots) from hashable scalars and keeps them in a
bounded ``functools.lru_cache``. Reports made on warm caches, in any order of
geometries and with plans evicted on the way, must equal reports made on cold
ones bit for bit; no report may hold a cached array; and every input error
must still be raised when the plan of its geometry is cached.
"""

from __future__ import annotations

import itertools
import random

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
    select_channel,
    wavelet_detect,
)
from faultwave import detect, ica, spectral
from faultwave.detect import ENERGY_METHODS
from conftest import make_record

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
    assert sorted(CACHES) == ["faultwave.detect._window_plan", "faultwave.ica._phase_plan",
                              "faultwave.spectral._hann"]
    for name, cache in CACHES.items():
        module = next(m for m in MODULES if name.startswith(m.__name__ + "."))
        assert cache.cache_parameters()["maxsize"] == module.PLAN_CACHE_SIZE, name


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


def cached_arrays() -> list[np.ndarray]:
    """The arrays of one plan from each cache."""
    starts, groups = detect._window_plan(400, 40, 10, 2000.0, None, 2)
    slots, frac, deposits = ica._phase_plan(0, 400, 120, 2000.0, 50.0, 40)
    return [spectral._hann(64), starts, detect._window_plan(400, 40, 10, 2000.0, 150.0, None)[0],
            *[array for _, rows, firsts in groups for array in (rows, firsts)],
            slots, frac, *deposits]


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

    @pytest.mark.parametrize("spans", [None, SPANS[400]])
    def test_all_zero_calibration_span(self, spans):
        rec = record(400, 50.0)
        lo, hi = (spans or Spans()).resolve(400).calibration
        samples = rec.samples.copy()
        samples[:, lo:hi] = 0.0
        zeroed = ThreePhaseRecord(rec.sample_rate_hz, samples)
        raises_twice(DegenerateInputError, "identically zero",
                     lambda: ica_detect(zeroed, spans=spans))
