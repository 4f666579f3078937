"""Every numeric setting of the config types is checked by the type that holds it."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from faultwave import (AdaptiveThreshold, ConfigError, DetectorConfig, FaultSpec, FixedThreshold,
                       NoiseSpec, WaveformConfig)

# The valid settings each bad value replaces one field of.
BASE = {WaveformConfig: {"duration_s": 0.2}, FaultSpec: {}, NoiseSpec: {}, DetectorConfig: {},
        FixedThreshold: {"value": 1.0}, AdaptiveThreshold: {}}
NOT_NUMERIC = {"fault_type", "method", "threshold_policy"}
NONE_ALLOWED = {(FaultSpec, "clear_s"), (NoiseSpec, "snr_db")}
JSON_KEY = {"value": "fixed"}  # FixedThreshold's value is the run config's threshold.fixed

# Every field but those in NOT_NUMERIC, so a field added later is covered too.
NUMERIC_FIELDS = [(cls, f.name) for cls in BASE for f in dataclasses.fields(cls)
                  if f.name not in NOT_NUMERIC]
BAD_VALUES = st.one_of(st.booleans(), st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                       st.text(max_size=4), st.none())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NUMERIC_FIELDS), BAD_VALUES)
def test_setting_that_is_not_a_finite_number_is_named(field, bad):
    cls, name = field
    assume(bad is not None or field not in NONE_ALLOWED)
    value = (0.0, bad, 0.0) if name == "phase_offsets_rad" else bad
    key = JSON_KEY.get(name, name)
    with pytest.raises(ConfigError) as got:
        cls(**{**BASE[cls], name: value})
    if isinstance(bad, bool):
        assert str(got.value) == f"{key} must not be a boolean, got {bad}"
    else:
        assert str(got.value).startswith(f"{key} must be "), str(got.value)
