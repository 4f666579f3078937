"""Shared scenario builders for the test suite."""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from faultwave import (
    FaultSpec,
    FaultType,
    NoiseSpec,
    ThreePhaseRecord,
    WaveformConfig,
    add_noise,
    generate_baseline,
    inject_fault,
)

# Fixed draws and no example database: every run tries the same examples.
# Tests keep their own max_examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# Hypothesis still caches the literals it scans from source files; keep that
# cache in a directory removed at exit, not in .hypothesis/ of the checkout.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

SAMPLE_RATE = 2000.0
FUNDAMENTAL = 50.0
DURATION = 0.2
FAULT_ONSET_S = 0.065
FAULT_ONSET_SAMPLE = 130


def make_record(
    fault_type: str = "AG",
    snr_db: float | None = None,
    fundamental_hz: float = FUNDAMENTAL,
    seed: int = 0,
    duration_s: float = DURATION,
    **fault_kwargs,
) -> ThreePhaseRecord:
    """Baseline -> optional fault at 0.065 s -> optional noise."""
    config = WaveformConfig(duration_s=duration_s, fundamental_hz=fundamental_hz)
    record = generate_baseline(config)
    if fault_type != "NONE":
        fault = FaultSpec(
            fault_type=FaultType(fault_type), onset_s=FAULT_ONSET_S, **fault_kwargs
        )
        record = inject_fault(record, fault)
    if snr_db is not None:
        record = add_noise(record, NoiseSpec(snr_db=snr_db, seed=seed))
    return record


@pytest.fixture
def baseline_record() -> ThreePhaseRecord:
    return make_record("NONE")


@pytest.fixture
def ag_record() -> ThreePhaseRecord:
    return make_record("AG")


def rng_trace(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


def assert_bitwise_equal(got: np.ndarray, expected: np.ndarray) -> None:
    """Same dtype, shape and bytes: stricter than ==, which takes -0.0 for 0.0."""
    assert got.dtype == expected.dtype and got.shape == expected.shape
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint8),
                                  np.ascontiguousarray(expected).view(np.uint8))
