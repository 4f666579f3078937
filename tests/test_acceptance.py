"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Scenario anchors throughout: 2 kHz sampling, 50 Hz fundamental, fault onset
at 0.065 s, 20 dB SNR noise, and +/-1% fundamental deviation (49.5/50.5 Hz).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

import faultwave
from faultwave import (
    DetectorConfig,
    FaultSpec,
    FaultType,
    IcaConfig,
    Spans,
    Trace,
    WaveformConfig,
    center,
    dwt_decompose,
    dwt_reconstruct,
    energy_detect,
    fastica,
    fit_ica,
    generate_baseline,
    ica_detect,
    inject_fault,
    select_channel,
    wavelet_detect,
    whiten,
)
from faultwave.detect import ENERGY_METHODS, energy_row
from faultwave.dwt import DB4_LOWPASS
from conftest import FAULT_ONSET_SAMPLE, make_record

_SUITE_START = time.perf_counter()

SPANS = Spans(calibration=(0, 120), analysis=(0, 400))

# 3 fault types x 3 operating conditions; "freq" alternates 49.5/50.5 by seed
GRID_FAULTS = ("AG", "AB", "ABCG")
GRID_CONDITIONS = ("clean", "noise", "freq")
GRID_SEEDS = range(10)


def grid_cases():
    for fault in GRID_FAULTS:
        for condition in GRID_CONDITIONS:
            for seed in GRID_SEEDS:
                if condition == "freq":
                    f0 = 49.5 if seed % 2 == 0 else 50.5
                    snr = None
                else:
                    f0 = 50.0
                    snr = 20.0 if condition == "noise" else None
                yield fault, f0, snr, seed


def test_criterion_1_filter_identities():
    start = time.perf_counter()
    h = DB4_LOWPASS
    n = np.arange(h.shape[0])

    assert abs(h.sum() - sqrt(2.0)) <= 1e-8
    assert abs(np.sum(h**2) - 1.0) <= 1e-8
    for k in (1, 2, 3):
        assert abs(np.dot(h[: -2 * k], h[2 * k :])) <= 1e-8
    for p in range(4):
        assert abs(np.sum((-1.0) ** n * n**p * h)) <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: filter identities within 1e-8 ({elapsed:.3f} s)")


def test_criterion_2_reconstruction_and_energy():
    start = time.perf_counter()
    worst_roundtrip = 0.0
    worst_energy = 0.0
    for seed in range(100):
        x = np.random.default_rng(seed).standard_normal(2048)
        tree = dwt_decompose(Trace(x, 2000.0), 5)
        back = dwt_reconstruct(tree)
        worst_roundtrip = max(
            worst_roundtrip, np.max(np.abs(back - x)) / np.max(np.abs(x))
        )
        total = sum(float(np.sum(d**2)) for d in tree.details) + float(
            np.sum(tree.approx**2)
        )
        worst_energy = max(worst_energy, abs(total - np.sum(x**2)) / np.sum(x**2))

    assert worst_roundtrip <= 1e-9
    assert worst_energy <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"[PASS] criterion 2: 100 traces reconstruct (worst {worst_roundtrip:.2e}) "
        f"and conserve energy (worst {worst_energy:.2e}) in {elapsed:.2f} s"
    )


def test_criterion_3_whitening():
    x = np.random.default_rng(12).standard_normal((3, 4000))
    x = np.array([[1.0, 0.4, -0.2], [0.1, 0.8, 0.5], [-0.3, 0.2, 1.2]]) @ x
    centered, _ = center(x)
    z, _ = whiten(centered)
    cov = z @ z.T / z.shape[1]
    deviation = np.max(np.abs(cov - np.eye(z.shape[0])))
    assert deviation <= 1e-8

    row = np.random.default_rng(13).standard_normal(2000)
    degenerate = np.vstack([row, 2.0 * row, -row])
    centered, _ = center(degenerate)
    z_low, model = whiten(centered)
    assert z_low.shape[0] == 1

    print(
        f"[PASS] criterion 3: whitened covariance deviates {deviation:.2e}; "
        f"rank-1 input reduced to {z_low.shape[0]} component"
    )


def test_criterion_4_fastica_oracle():
    fs, n = 2000.0, 4000
    t = np.arange(n) / fs
    sources = np.vstack([
        np.sin(2 * np.pi * 50.0 * t),
        2.0 * ((120.0 * t) % 1.0) - 1.0,
    ])

    successes = 0
    slowest = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        mixing = rng.uniform(-1.0, 1.0, (2, 2))
        while abs(np.linalg.det(mixing)) < 0.1:
            mixing = rng.uniform(-1.0, 1.0, (2, 2))
        trial_start = time.perf_counter()
        model, _ = fit_ica(mixing @ sources, seed=seed)
        slowest = max(slowest, time.perf_counter() - trial_start)

        corr = np.corrcoef(np.vstack([model.sources, sources]))[:2, 2:]
        straight = min(abs(corr[0, 0]), abs(corr[1, 1]))
        crossed = min(abs(corr[0, 1]), abs(corr[1, 0]))
        if max(straight, crossed) >= 0.99:
            successes += 1

    assert successes >= 19
    assert slowest < 1.0
    print(
        f"[PASS] criterion 4: source recovery >= 0.99 in {successes}/20 trials "
        f"(slowest trial {slowest * 1000:.0f} ms)"
    )


def test_criterion_5_wavelet_onset_localization():
    hits = 0
    runs = 0
    false_positives = 0
    for fault, f0, snr, seed in grid_cases():
        record = make_record(fault, snr_db=snr, fundamental_hz=f0, seed=seed)
        report = wavelet_detect(select_channel(record, "a"))
        runs += 1
        if report.detected and abs(report.onset_time_s - 0.065) <= 0.010:
            hits += 1

        clean = make_record("NONE", snr_db=snr, fundamental_hz=f0, seed=seed)
        if wavelet_detect(select_channel(clean, "a")).detected:
            false_positives += 1

    assert hits >= 0.95 * runs, f"only {hits}/{runs} onsets within 10 ms"
    assert false_positives == 0
    print(
        f"[PASS] criterion 5: wavelet onset within 10 ms in {hits}/{runs} runs, "
        f"{false_positives} clean-record detections"
    )


def test_criterion_6_performance_index_behavior():
    onset_hits = 0
    runs = 0
    worst_ratio = 0.0
    for fault, f0, snr, seed in grid_cases():
        record = make_record(fault, snr_db=snr, fundamental_hz=f0, seed=seed)
        report = ica_detect(
            record, DetectorConfig(method="ica"), SPANS,
            IcaConfig(fundamental_hz=f0),
        )
        runs += 1
        pi = report.index_series
        ratio = pi[:FAULT_ONSET_SAMPLE].mean() / pi.max()
        worst_ratio = max(worst_ratio, ratio)
        assert ratio <= 0.05, f"{fault}/{f0}/{snr}/s{seed}: pre/peak {ratio:.4f}"
        if report.detected and abs(report.onset_time_s - 0.065) <= 0.010:
            onset_hits += 1

    assert onset_hits >= 0.90 * runs, f"only {onset_hits}/{runs} onsets within 10 ms"
    print(
        f"[PASS] criterion 6: pre-fault mean <= 0.05x peak (worst {worst_ratio:.4f}), "
        f"ICA onset within 10 ms in {onset_hits}/{runs} runs"
    )


def test_criterion_7_energy_table_detection():
    faults = [
        FaultSpec(fault_type=FaultType(name), onset_s=0.065)
        for name in ("AG", "BG", "CG", "AB", "BC", "ABC")
    ]
    table = [energy_row(fault.fault_type.value,
                        inject_fault(generate_baseline(WaveformConfig(duration_s=0.2)), fault))
             for fault in faults]
    for row in table:
        assert row.error is None, row
        assert row.detected_ft and row.detected_stft and row.detected_wt, row

    # soft, non-gating: record whether the detail-band index dominates as the
    # reference ordering suggests
    orderings = [
        f"{row.scenario_name}:{'wt>stft>ft' if row.e_wt > row.e_stft > row.e_ft else 'other'}"
        for row in table
    ]

    conditions = [
        dict(),
        dict(snr_db=20.0),
        dict(fundamental_hz=49.5),
        dict(fundamental_hz=50.5),
        dict(snr_db=20.0, fundamental_hz=50.5),
    ]
    crossings = 0
    records = 0
    for seed in range(20):
        for cond in conditions:
            record = make_record("NONE", seed=seed, **cond)
            f0 = cond.get("fundamental_hz", 50.0)
            records += 1
            for method in ENERGY_METHODS:
                for phase in "abc":
                    report = energy_detect(
                        select_channel(record, phase), method, fundamental_hz=f0
                    )
                    crossings += bool(report.detected)

    assert records == 100
    assert crossings == 0
    print(
        "[PASS] criterion 7: six fault types exceed all three thresholds; "
        f"0 crossings on 100 clean records. Observed ordering (soft): {orderings}"
    )


def test_criterion_8_cli_end_to_end(tmp_path):
    config = {
        "fault": {"fault_type": "AG", "onset_s": 0.065},
        "noise": {"snr_db": 20.0, "seed": 4},
        "detector": {"method": "wavelet"},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    trace = tmp_path / "trace.csv"
    report_path = tmp_path / "report.json"
    plots = tmp_path / "plots"

    def run(*args):
        # run from the directory holding the imported package, so the child
        # runs the same faultwave whether or not it is installed
        return subprocess.run(
            [sys.executable, "-m", "faultwave", *args],
            capture_output=True, text=True, timeout=120,
            cwd=Path(faultwave.__file__).parents[1],
        )

    generate = run("generate", "--config", str(cfg), "--out", str(trace))
    assert generate.returncode == 0, generate.stderr
    detect = run("detect", "--in", str(trace), "--config", str(cfg), "--out", str(report_path))
    assert detect.returncode == 0, detect.stderr
    plot = run("plot-data", "--in", str(trace), "--config", str(cfg), "--out", str(plots))
    assert plot.returncode == 0, plot.stderr

    report = json.loads(report_path.read_text())
    assert report["detected"] is True
    assert report["method"] == "wavelet"

    voltage = (plots / "voltage.csv").read_text().strip().splitlines()
    index = (plots / "index.csv").read_text().strip().splitlines()
    assert [l.split(",")[0] for l in voltage[1:]] == [l.split(",")[0] for l in index[1:]]

    print("[PASS] criterion 8: generate -> detect -> plot-data completed with exit 0")


def test_total_runtime_budget():
    elapsed = time.perf_counter() - _SUITE_START
    assert elapsed < 120.0, f"acceptance suite took {elapsed:.0f} s"
    print(f"[PASS] runtime: acceptance suite finished in {elapsed:.1f} s (< 120 s)")
