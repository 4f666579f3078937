"""Golden guard: detector verdicts on the acceptance grid stay as recorded.

``tests/data/detector_golden.json`` holds, for every grid record and its
fault-free twin, each detector's onset sample, detection flag and threshold.
Regenerate it (only when a verdict change is intended) with::

    PYTHONPATH=src python tests/test_detector_golden.py > tests/data/detector_golden.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from faultwave import DetectorConfig, IcaConfig, Spans, energy_detect, ica_detect
from faultwave import select_channel, wavelet_detect
from faultwave.detect import ENERGY_METHODS
from conftest import make_record

GOLDEN = Path(__file__).parent / "data" / "detector_golden.json"
SPANS = Spans(calibration=(0, 120), analysis=(0, 400))


def grid_reports() -> dict[str, dict[str, list]]:
    """``{case: {detector: [onset_sample, detected, threshold]}}`` over the
    acceptance grid (3 faults x clean/noise/freq x 10 seeds, plus the same
    conditions without a fault)."""
    out = {}
    for fault in ("AG", "AB", "ABCG"):
        for condition in ("clean", "noise", "freq"):
            for seed in range(10):
                f0 = (49.5 if seed % 2 == 0 else 50.5) if condition == "freq" else 50.0
                snr = 20.0 if condition == "noise" else None
                for label in (fault, "NONE"):
                    record = make_record(label, snr_db=snr, fundamental_hz=f0, seed=seed)
                    trace = select_channel(record, "a")
                    reports = {
                        "wavelet": wavelet_detect(trace),
                        "ica": ica_detect(record, DetectorConfig(method="ica"), SPANS,
                                          IcaConfig(fundamental_hz=f0)),
                    }
                    for method in ENERGY_METHODS:
                        reports[method] = energy_detect(trace, method, fundamental_hz=f0)
                    out[f"{fault}/{condition}/s{seed}/{label}"] = {
                        name: [r.onset_sample, bool(r.detected), float(r.threshold_used)]
                        for name, r in reports.items()
                    }
    return out


def test_grid_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    current = grid_reports()
    assert current.keys() == golden.keys()
    for case, detectors in golden.items():
        for name, (onset, detected, threshold) in detectors.items():
            got_onset, got_detected, got_threshold = current[case][name]
            assert (got_onset, got_detected) == (onset, detected), (case, name)
            assert got_threshold == pytest.approx(threshold, rel=1e-12, abs=0.0), (case, name)


if __name__ == "__main__":
    cases = sorted(grid_reports().items())
    print("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in cases) + "\n}")
