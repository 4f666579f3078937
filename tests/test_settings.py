"""Every setting of the config types is checked by the type that holds it."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from faultwave import (AdaptiveThreshold, ConfigError, DetectorConfig, FaultSpec, FaultType,
                       FixedThreshold, NoiseSpec, ThreePhaseRecord, Trace, WaveformConfig)

# The valid settings each bad value replaces one field of.
BASE = {WaveformConfig: {}, FaultSpec: {}, NoiseSpec: {}, DetectorConfig: {},
        FixedThreshold: {"fixed": 1.0}, AdaptiveThreshold: {},
        Trace: {"samples": np.zeros(4), "sample_rate_hz": 2000.0},
        ThreePhaseRecord: {"samples": np.zeros((3, 4)), "sample_rate_hz": 2000.0}}
NOT_NUMERIC = {"fault_type", "method", "threshold", "samples", "labels"}
NONE_ALLOWED = {(FaultSpec, "clear_s"), (NoiseSpec, "snr_db")}

# Every field but those in NOT_NUMERIC, so a field added later is covered too.
NUMERIC_FIELDS = [(cls, f.name) for cls in BASE for f in dataclasses.fields(cls)
                  if f.name not in NOT_NUMERIC]
BAD_VALUES = st.one_of(st.booleans(), st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                       st.text(max_size=4), st.none())
NAN, INF = float("nan"), float("inf")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NUMERIC_FIELDS), BAD_VALUES)
def test_setting_that_is_not_a_finite_number_is_named(field, bad):
    cls, name = field
    assume(bad is not None or field not in NONE_ALLOWED)
    value = (0.0, bad, 0.0) if name == "phase_offsets_rad" else bad
    with pytest.raises(ConfigError) as got:
        cls(**{**BASE[cls], name: value})
    if isinstance(bad, bool):
        assert str(got.value) == f"{name} must not be a boolean, got {bad}"
    else:
        assert str(got.value).startswith(f"{name} must be "), str(got.value)


@pytest.mark.parametrize("cls", [Trace, ThreePhaseRecord])
@pytest.mark.parametrize("bad", [0, -2000.0])
def test_sample_rate_that_is_not_positive_is_named(cls, bad):
    with pytest.raises(ConfigError) as got:
        cls(**{**BASE[cls], "sample_rate_hz": bad})
    assert str(got.value) == f"sample_rate_hz must be finite and positive, got {bad!r}"


@pytest.mark.parametrize("bad", [True, "ag", "G", "", None, NAN, INF, 1, [1], FaultType])
def test_fault_type_outside_the_listed_values_is_named(bad):
    with pytest.raises(ConfigError) as got:
        FaultSpec(fault_type=bad)
    assert str(got.value) == ("fault_type must be one of AG, BG, CG, AB, BC, ABCG, ABC, NONE, "
                              f"got {bad!r}")


def test_fault_type_value_string_is_the_enum():
    assert FaultSpec(fault_type="AG") == FaultSpec(fault_type=FaultType.AG)
    assert FaultSpec(fault_type="AG").fault_type is FaultType.AG


@pytest.mark.parametrize("bad", [True, 5, 0.5, "fixed", None, NAN, INF, {"fixed": 0.5},
                                 AdaptiveThreshold])
def test_threshold_that_is_not_a_policy_is_named(bad):
    with pytest.raises(ConfigError) as got:
        DetectorConfig(threshold=bad)
    assert str(got.value) == ("threshold must be a FixedThreshold or an AdaptiveThreshold, "
                              f"got {bad!r}")
