"""The traced benchmark can attribute time to every layer it fits a slope to.

``bench/run.py``'s slope pass divides each layer's 4096-sample self time by
its 400-sample one, so a layer whose wrapped functions the detection path no
longer calls would end a ``--trace 1`` run with a division by zero. This
catches such a refactor here rather than inside the benchmark.

A layer's self time comes from the few functions the tracer wraps, so the
detection path must keep calling each of them through its module attribute:
if ``energy_stft`` framed its FFT with ``frame_magnitudes`` directly instead
of through ``spectral.stft``, the ``spectral`` layer would record nothing.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_paper_screen() -> dict[str, dict]:
    """Per-name span stats of one traced screen of a 400-sample record."""
    tracer = tracing.Tracer()
    with tracer:
        case = workloads.build_cases(workloads.PAPER, 1, 1, conditions=("snr20",))[0]
        workloads.screen(case)
    assert case.record.n_samples == 400
    return tracing.summarize(tracer.log())


def test_every_slope_layer_records_self_time_on_one_paper_screen():
    layers = [key for key in run.slope_keys() if not key.startswith("detector.")]
    assert layers == ["signal_model", "dwt", "spectral", "ica", "detect"]
    stats = traced_paper_screen()
    for layer in layers:
        self_s = sum(s["self_s"] for name, s in stats.items() if name.startswith(layer + "."))
        assert self_s > 0, layer


def test_detection_path_calls_each_wrapped_transform():
    stats = traced_paper_screen()
    for name in ("spectral.stft", "dwt.dwt_decompose", "dwt.detail_series",
                 "ica.performance_index"):
        assert stats.get(name, {"calls": 0})["calls"] >= 1, name
