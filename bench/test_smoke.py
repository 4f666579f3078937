"""Smoke test of the benchmark itself: tiny inputs, output schema, metric names.

    python -m pytest bench/test_smoke.py -q

Nothing here gates on wall-clock time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# End-to-end metrics printed per workload, beyond those BENCHMARK.json gates.
PRINTED = {
    "paper-grid": ("screen_records_per_s", "screen_p50_ms", "screen_p90_ms",
                   "wavelet_p50_ms", "ica_p50_ms", "energy_ft_p50_ms",
                   "energy_stft_p50_ms", "energy_wt_p50_ms"),
    "cli-pipeline": ("cli_generate_p50_s", "cli_detect_p50_s", "cli_energy_table_p50_s"),
}
PRINTED["long-record"] = PRINTED["paper-grid"]
EVERY_WORKLOAD = ("setup_s", "error_rate", "verdict_miss_rate", "peak_rss_mb")
ENVIRONMENT = {"seed", "python", "numpy", "blas", "openblas_threads", "nproc", "cpu"}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert WORKLOADS == ["paper-grid", "long-record", "cli-pipeline"]
    assert all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_output(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, m["name"]

    printed = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
    if not trace:
        assert printed >= set(EVERY_WORKLOAD) | set(PRINTED[workload])

    saved = json.loads((ROOT / ".bench_out" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert set(saved["environment"]) == ENVIRONMENT
    assert all(set(m) == {"value", "unit", "samples"} for m in saved["metrics"].values())
    if trace and workload != "cli-pipeline":
        per_record = {"paper-grid": 112, "long-record": 1219}[workload]
        assert saved["metrics"]["dwt.dwt_decompose.calls_per_record"]["value"] == per_record
        assert saved["metrics"]["spectral.dft.calls_per_record"]["value"] == per_record - 1
    if not trace and workload != "cli-pipeline":
        assert saved["metrics"]["verdict_miss_rate"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("paper-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_check_screen_tells_wrong_verdicts_from_malformed_reports(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads as wl

    case = wl.build_cases(wl.PAPER, 3, 1)[0]
    reports, _ = wl.screen(case)
    assert wl.check_screen(case, reports) == (len(reports), [], 0)
    stage, phase, report = reports[0]
    late = dataclasses.replace(report, onset_sample=case.onset_sample + 100)
    assert wl.check_screen(case, [(stage, phase, late)]) == (1, ["wavelet[a]"], 0)
    nan = dataclasses.replace(report, threshold_used=float("nan"))
    assert wl.check_screen(case, [(stage, phase, nan)]) == (1, [], 1)
    outside = dataclasses.replace(report, onset_sample=-1)
    assert wl.check_screen(case, [(stage, phase, outside)]) == (1, ["wavelet[a]"], 1)


def test_raising_detector_makes_the_run_incorrect(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    import faultwave.detect as det
    import run

    real = det.wavelet_detect
    calls = []

    def crash_after_warm_up(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise RuntimeError("stub detector crash")
        return real(*args, **kwargs)

    monkeypatch.setattr(det, "wavelet_detect", crash_after_warm_up)
    assert run.main(["--workload", "paper-grid", "--seed", "4", "--seconds", "0.2",
                     "--trace", "0", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_only_the_known_plot_data_failure_keeps_a_run_correct(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads as wl

    def call(subcommand, code, tail):
        return wl.Call(subcommand, 1.0, 1.0, code, tail, 0, f"exit {code}" if code else None)

    known = "NameError: name 'write_tree_csv' is not defined. Did you mean: 'write_series_csv'?"
    assert not call("plot-data", 1, known).wrong
    assert not call("generate", 0, "").wrong
    assert call("plot-data", 2, known).wrong
    assert call("plot-data", 1, "ValueError: bad config").wrong
    assert call("detect", 1, known).wrong
    assert call("energy-table", 3, "faultwave: error: every scenario failed").wrong
    malformed = call("detect", 0, "")
    malformed.malformed = True
    assert malformed.wrong
