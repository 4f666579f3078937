"""faultwave benchmark: one closed-loop workload per run, seeded inputs.

    python3 bench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics of BENCHMARK.json (half the time untraced, half traced, so the
tracing overhead is measured too). Every metric is printed by name with its
unit and sample count, the run's environment is printed as ``#`` lines, a
results file is written under ``.bench_out/``, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))

WORKLOADS = ("paper-grid", "long-record", "cli-pipeline")
REPLICAS = {"paper-grid": 8, "long-record": 2}
SETUP_PROBES = 5
SLOPE_PASSES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def build_inputs(args):
    """The workload's records, built from the seed."""
    import workloads as wl

    geometry = wl.PAPER if args.workload == "paper-grid" else wl.LONG
    return wl.build_cases(geometry, args.seed, 1 if args.smoke else REPLICAS[args.workload])


def setup(args):
    """Everything before the first timed operation, warm-up operation included."""
    import workloads as wl

    if args.workload == "cli-pipeline":
        pipe = wl.CliPipeline(ROOT, OUT / f"work-{os.getpid()}", args.seed,
                              wl.LONG if args.smoke else wl.CLI_RECORD)
        pipe.cycle(0)
        return pipe
    cases = build_inputs(args)
    wl.screen(cases[0])
    return cases


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Calibrated and raw wall times from spawning a fresh interpreter until it
    is ready to time its first operation."""
    import workloads as wl

    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + ["--smoke"] * args.smoke
    times, raw = [], []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        before = wl.reference_seconds(repeat=3)
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            ready = probe.stdout.readline()
            wall = perf_counter() - t0
            probe.stdout.read()
            code = probe.wait(timeout=150)
        times.append(wall * wl.calibration(before, wl.reference_seconds(repeat=3)))
        raw.append(wall)
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
    return times, raw


def new_result() -> dict:
    """Counters of one measured window; times are calibrated seconds."""
    return {"latency": [], "raw": [], "scale": [], "stages": {}, "calls": [], "attempted": 0,
            "failed": 0, "wrong": 0, "verdicts": 0, "misses": 0, "errors": []}


def run_screens(cases, seconds: float) -> dict:
    """Screen records round-robin until ``seconds`` have passed."""
    import workloads as wl

    res = new_result()
    deadline = perf_counter() + seconds
    after = wl.reference_seconds()
    while res["attempted"] == 0 or perf_counter() < deadline:
        case = cases[res["attempted"] % len(cases)]
        res["attempted"] += 1
        before = after
        t0 = perf_counter()
        try:
            reports, times = wl.screen(case)
        except Exception as exc:  # a raising detector makes the run incorrect
            reports = None
            res["failed"] += 1
            res["wrong"] += 1
            res["errors"].append(repr(exc))
        wall = perf_counter() - t0
        after = wl.reference_seconds()
        scale = wl.calibration(before, after)
        res["raw"].append(wall)
        res["latency"].append(wall * scale)
        res["scale"].append(scale)
        if reports is None:
            continue
        for stage, t in times.items():
            res["stages"].setdefault(stage, []).append(t * scale)
        verdicts, missed, malformed = wl.check_screen(case, reports)
        res["verdicts"] += verdicts
        res["misses"] += len(missed)
        if missed or malformed:
            res["failed"] += 1
            res["wrong"] += bool(malformed)
            res["errors"].append(f"record {res['attempted'] - 1} ({case.label}): wrong verdict "
                                 f"from {missed}, {malformed} malformed reports")
    return res


def run_cycles(pipe, seconds: float, traced: bool = False) -> dict:
    """Run pipeline passes until ``seconds`` have passed; a pass's latency is
    the time of its ``TIMED_SUBCOMMANDS`` calls."""
    import workloads as wl

    res = new_result()
    deadline = perf_counter() + seconds
    while not res["latency"] or perf_counter() < deadline:
        calls = pipe.cycle(len(res["latency"]) + 1, traced)
        timed = [c for c in calls if c.subcommand in wl.TIMED_SUBCOMMANDS]
        res["latency"].append(sum(c.seconds for c in timed))
        res["raw"].append(sum(c.wall_s for c in timed))
        res["scale"].extend(c.scale for c in calls)
        res["calls"].extend(calls)
        for call in calls:
            res["attempted"] += 1
            res["verdicts"] += call.verdicts
            res["misses"] += call.misses
            if call.error:
                res["failed"] += 1
                res["wrong"] += call.wrong
                res["errors"].append(f"{call.subcommand}: {call.error}")
    return res


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, res: dict, setup_times: tuple[list[float], list[float]]) -> dict:
    """name -> (value, unit, samples)."""
    import workloads as wl

    lat = res["latency"]
    n = len(lat)
    m = {
        "setup_s": (statistics.median(setup_times[0]), "s", len(setup_times[0])),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms", n),
        "throughput_per_s": (n / sum(lat), "1/s", n),
        "latency_raw_p50_ms": (statistics.median(res["raw"]) * 1e3, "ms", n),
        "throughput_raw_per_s": (n / sum(res["raw"]), "1/s", n),
        "setup_raw_s": (statistics.median(setup_times[1]), "s", len(setup_times[1])),
        "reference_kernel_ms": (wl.REFERENCE_NOMINAL_S * 1e3 / statistics.median(res["scale"]),
                                "ms", len(res["scale"])),
        "error_rate": (res["failed"] / res["attempted"], "1", res["attempted"]),
        "verdict_miss_rate": (res["misses"] / max(res["verdicts"], 1), "1", res["verdicts"]),
    }
    if args.workload == "cli-pipeline":
        timed = [c for c in res["calls"] if c.subcommand in wl.TIMED_SUBCOMMANDS]
        m["peak_rss_mb"] = (max(c.max_rss_kb for c in timed) / 1024, "MB", len(timed))
        for sub in wl.TIMED_SUBCOMMANDS:
            times = [c.seconds for c in res["calls"] if c.subcommand == sub]
            m[f"cli_{sub.replace('-', '_')}_p50_s"] = (statistics.median(times), "s", len(times))
    else:
        m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
        m["screen_records_per_s"] = m["throughput_per_s"]
        m["screen_p50_ms"] = m["latency_p50_ms"]
        if n >= 100:
            m["screen_p90_ms"] = (percentile(lat, 90) * 1e3, "ms", n)
        for stage, times in res["stages"].items():
            m[f"{stage}_p50_ms"] = (statistics.median(times) * 1e3, "ms", len(times))
    return m


def slope_keys() -> list[str]:
    import tracing
    import workloads as wl

    return ([layer for layer in tracing.TARGETS if layer != "io"]
            + [f"detector.{stage}" for stage in wl.STAGES])


def slope_pass(args) -> dict:
    """Per-layer log-log slope of per-record time between 400 and 4096 samples.

    The same fault/condition mix is built and screened with tracing on at each
    size, the two sizes in turn over SLOPE_PASSES passes. Each pass is scaled
    by the kernel runs around it (workloads.calibration) and each size keeps
    its median pass. Layers are judged by self time, detectors by inclusive
    time. Only the in-process workloads run it; cli-pipeline reads 0.
    """
    import tracing
    import workloads as wl

    if args.workload == "cli-pipeline":
        return {f"slope.{k}": (0.0, "1", 0) for k in slope_keys()}
    spans = {"wavelet": "detect.wavelet_detect", "ica": "detect.ica_detect"}
    per_size = {}
    for _ in range(1 if args.smoke else SLOPE_PASSES):
        for geometry in (wl.PAPER, wl.LONG):
            before = wl.reference_seconds(repeat=3)
            tracer = tracing.Tracer()
            with tracer:
                cases = wl.build_cases(geometry, args.seed, 1, conditions=("clean", "snr20"))
                cases = cases[:2] if args.smoke else cases
                for case in cases:
                    wl.screen(case)
            scale = wl.calibration(before, wl.reference_seconds(repeat=3)) / len(cases)
            stats = tracing.summarize(tracer.log())
            times = per_size.setdefault(geometry.n_samples, {})
            for key in slope_keys():
                if key.startswith("detector."):
                    stage = key.removeprefix("detector.")
                    t = stats[spans.get(stage, f"detect.energy_detect.{stage}")]["total_s"]
                else:
                    t = sum(s["self_s"] for name, s in stats.items()
                            if name.startswith(key + "."))
                times.setdefault(key, []).append(t * scale)
    (small, t_small), (big, t_big) = sorted(per_size.items())
    return {f"slope.{k}": (math.log(statistics.median(t_big[k]) / statistics.median(t_small[k]))
                           / math.log(big / small), "1", len(t_small[k]))
            for k in slope_keys()}


def per_layer(args, untraced: dict, traced: dict, stats: dict, synth: tuple[dict, int],
              metas: list[dict]) -> dict:
    """name -> (value, unit, samples) from one traced window."""
    import tracing

    units = len(traced["latency"])
    scale = statistics.median(traced["scale"])

    def each(name, key):
        return stats.get(name, {}).get(key, 0.0) * scale / units

    synth_stats, synth_units = synth
    synth_s = sum(s["total_s"] for name, s in synth_stats.items()
                  if name.startswith("signal_model."))
    m = {"signal_model.synthesis_ms_per_record": (
        synth_s * scale * 1e3 / synth_units, "ms", synth_units)}
    for layer, fn_names in tracing.TARGETS.items():
        for fn in fn_names:
            name = f"{layer}.{fn}"
            if name == "detect.energy_detect":
                for method in ("energy_ft", "energy_stft", "energy_wt"):
                    sub = f"{name}.{method}"
                    m[f"{sub}.self_ms_per_record"] = (each(sub, "self_s") * 1e3, "ms", units)
            elif layer != "signal_model":
                m[f"{name}.self_ms_per_record"] = (each(name, "self_s") * 1e3, "ms", units)
            calls, n = (synth_stats, synth_units) if layer == "signal_model" else (stats, units)
            m[f"{name}.calls_per_record"] = (
                sum(s["calls"] for k, s in calls.items() if k.startswith(name)) / n, "count", n)
    obs = traced["observed"]
    fits = obs.get("ica.fastica", [])
    m["ica.fastica.iterations_p50"] = (
        statistics.median(i for i, _ in fits) if fits else 0.0, "count", len(fits))
    m["ica.fastica.converged_ratio"] = (
        sum(c for _, c in fits) / len(fits) if fits else 0.0, "1", len(fits))
    windows = obs.get("detect.energy_detect", [])
    m["detect.energy_detect.windows_per_record"] = (sum(windows) / units, "count", len(windows))
    for name in ("io.write_record_csv", "io.read_record_csv", "io.write_series_csv"):
        seconds = stats.get(name, {}).get("total_s", 0.0) * scale
        moved = sum(obs.get(name, []))
        m[f"{name}.mb_per_s"] = (moved / 1e6 / seconds if seconds else 0.0, "MB/s",
                                 len(obs.get(name, [])))

    def median_of(values):
        return (statistics.median(values) if values else 0.0, "s", len(values))

    m["cli.import_s"] = median_of([meta["import_s"] * scale for meta in metas])
    for sub in ("generate", "detect", "plot-data", "energy-table"):
        m[f"cli.{sub.replace('-', '_')}.command_s"] = median_of(
            [meta["command_s"] * scale for meta in metas if meta["subcommand"] == sub])
    m["cli.plot_data.wall_s"] = median_of(
        [c.seconds for c in untraced.get("calls", [])
         if c.subcommand == "plot-data" and c.returncode == 0])
    untraced_rate = len(untraced["latency"]) / sum(untraced["latency"])
    traced_rate = units / sum(traced["latency"])
    m["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1.0) * 100.0, "%", units)
    m.update(slope_pass(args))
    return m


def traced_run(args, work) -> tuple[dict, dict]:
    """Untraced then traced half-windows; returns (run result, per-layer metrics)."""
    import tracing
    import workloads as wl

    half = args.seconds / 2.0
    if args.workload == "cli-pipeline":
        untraced = run_cycles(work, half)
        res = run_cycles(work, half, traced=True)
        logs = [tracing.load(path) for path in work.span_files]
        log = tracing.concat(logs)
        res["observed"] = log["observed"]
        stats = tracing.summarize(log)
        synth = (stats, len(res["latency"]))
        metas = [entry["meta"] for entry in logs]
    else:
        untraced = run_screens(work, half)
        synth_tracer = tracing.Tracer()
        with synth_tracer:
            rebuilt = build_inputs(args)
        tracer = tracing.Tracer()
        with tracer:
            res = run_screens(work, half)
        log = tracer.log()
        res["observed"] = log["observed"]
        stats = tracing.summarize(log)
        synth = (tracing.summarize(synth_tracer.log()), len(rebuilt))
        metas = []
    OUT.mkdir(exist_ok=True)
    tracing.save(OUT / f"spans-{args.workload}.npz", log)
    metrics = per_layer(args, untraced, res, stats, synth, metas)
    for key in ("attempted", "failed", "wrong", "verdicts", "misses", "errors"):
        res[key] = untraced[key] + res[key]
    return res, metrics


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": NPROC, "cpu": cpu}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "faultwave" / "__init__.py").is_file():
        print(f"bench: no faultwave sources under {SRC}", file=sys.stderr)
        return 2
    threads = int(os.environ.get("OPENBLAS_NUM_THREADS") or NPROC)
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(threads, NPROC)))
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        work = setup(args)
        print("ready", flush=True)
        if args.workload == "cli-pipeline":
            work.close()
        return 0

    setup_times = ([], []) if args.trace else measure_setup(args)
    work = setup(args)
    try:
        if args.trace:
            res, metrics = traced_run(args, work)
        elif args.workload == "cli-pipeline":
            res = run_cycles(work, args.seconds)
        else:
            res = run_screens(work, args.seconds)
    finally:
        if args.workload == "cli-pipeline":
            work.close()
    if not args.trace:
        metrics = end_to_end(args, res, setup_times)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    correct = res["wrong"] == 0
    env = environment(args.seed)
    for key, value in env.items():
        print(f"# {key}: {value}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<48} {value:14.6g} {unit:<6} n={n}")
    if "screen_p90_ms" not in metrics and args.workload != "cli-pipeline" and not args.trace:
        print(f"{'screen_p90_ms':<48} {'n/a':>14} ms     n={len(res['latency'])} (< 100)")
    for error in sorted(set(res["errors"]))[:5]:
        print(f"# error: {error}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "environment": env, "correct": correct,
        "attempted": res["attempted"], "failed": res["failed"], "errors": res["errors"][:20],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }, indent=2) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
