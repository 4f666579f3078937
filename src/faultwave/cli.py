"""Command-line front end: generate records, run detectors, dump plot data.

Exit codes: 0 = ran to completion (detection outcome is report data, not
status), 3 = a detector found no usable signal (`DegenerateInputError` or
`NumericalError` while it runs), 2 = any other bad input: a config, suite,
trace or span the package rejects, an output that would land on the input
config, trace or sidecar or on an existing path that is not a regular file,
or a file it cannot read or write.
"""

from __future__ import annotations

import dataclasses
import json
import os
import stat
import sys
from pathlib import Path
from typing import NoReturn

import click
import numpy as np

from . import __version__, dwt
from .detect import ENERGY_LABELS, DetectionReport, EnergyRow, energy_row, run
from .errors import ConfigError, DegenerateInputError, FaultwaveError, NumericalError
from .io import (
    RunConfig,
    atomic_write_text,
    build_record,
    fault_to_dict,
    load_run_config,
    load_suite,
    output_path,
    parse_run_config,
    read_record_csv,
    sidecar_path,
    write_energy_table_csv,
    write_record_csv,
    write_series_csv,
    write_spectrogram_csv,
    write_spectrum_csv,
    write_tree_csv,
)
from .signal_model import PHASES, ThreePhaseRecord

_SERIES_HEADER = {"wavelet": "detail_abs", "ica": "pi"}

# plot-data's transform dump by method (ica and energy_wt write none): its file
# name and a writer of the channel row's transform at its rate and the detector level
_DUMPS = {
    "wavelet": ("coefficients.csv", lambda path, row, fs, level:
                write_tree_csv(path, dwt.dwt_decompose(row, level))),
    "energy_ft": ("spectrum.csv", lambda path, row, fs, level: write_spectrum_csv(path, row, fs)),
    "energy_stft": ("spectrogram.csv", lambda path, row, fs, level:
                    write_spectrogram_csv(path, row, fs)),
}


def _fail(message: str, code: int) -> NoReturn:
    click.echo(f"faultwave: error: {message}", err=True)
    sys.exit(code)


class _Cli(click.Group):
    """The one error boundary: a rejected input or an unreadable or unwritable
    file exits 2 with one line on stderr. Anything else is a bug and keeps its
    traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (FaultwaveError, OSError) as exc:
            _fail(str(exc), 2)


# A detector reports an overflow as a NumericalError, so numpy's overflow and
# invalid-value warnings on the way there would only repeat it on stderr.
_DETECTOR_ERRSTATE = {"over": "ignore", "invalid": "ignore"}


@click.group(cls=_Cli)
@click.version_option(version=__version__, prog_name="faultwave")
def main() -> None:
    """Synthesize three-phase fault records and run fault detectors."""


@main.command("generate")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run config JSON.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output trace CSV.")
def cmd_generate(config_path: str, out_path: str) -> None:
    """Write a trace CSV plus its JSON metadata sidecar."""
    config = load_run_config(Path(config_path))
    out = output_path(out_path)
    _check_outputs(config_path, None, out, sidecar_path(out))
    record = build_record(config)
    write_record_csv(out, record)
    click.echo(f"wrote {record.n_samples}-sample record to {out_path}")


@main.command("detect")
@click.option("--in", "in_path", required=True, type=click.Path(), help="Input trace CSV.")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run config JSON.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Report JSON path.")
def cmd_detect(in_path: str, config_path: str, out_path: str) -> None:
    """Run the configured detector; write a report JSON and an index CSV."""
    out = output_path(out_path)
    if out.suffix == ".csv":
        raise ConfigError(f"--out {out_path} ends in .csv, the suffix of the index CSV "
                          "written next to the report")
    index = out.with_suffix(".csv")
    config, record, report = _load_and_run(in_path, config_path)
    _check_outputs(config_path, in_path, out, index)

    settings = config.to_dict()
    payload = {
        "method": report.method,
        "detected": bool(report.detected),
        "onset_sample": None if report.onset_sample is None else int(report.onset_sample),
        "onset_time_s": None if report.onset_time_s is None else float(report.onset_time_s),
        "threshold": float(report.threshold_used),
        # the settings detect reads, as a run config that reproduces this report
        "config": {"waveform": {"fundamental_hz": settings["waveform"]["fundamental_hz"]},
                   **{key: settings[key] for key in ("detector", "spans", "channel")}},
        "scenario": {"n_samples": record.n_samples, "sample_rate_hz": record.sample_rate_hz,
                     "fault": fault_to_dict(record.labels)},
    }
    atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    _write_index_csv(index, report)

    verdict = "detected" if report.detected else "no fault"
    at = f" at {report.onset_time_s:.6g} s" if report.detected else ""
    click.echo(f"{report.method}: {verdict}{at} (threshold {report.threshold_used:.6g})")


@main.command("energy-table")
@click.option("--config", "suite_path", required=True, type=click.Path(), help="Scenario suite JSON.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output CSV.")
def cmd_energy_table(suite_path: str, out_path: str) -> None:
    """Evaluate the FT/STFT/WT energy indices over a scenario suite."""
    suite = load_suite(Path(suite_path))
    _check_outputs(suite_path, None, output_path(out_path))
    rows = []
    for name, merged in suite:
        try:
            config = parse_run_config(merged)
            record = build_record(config)
            with np.errstate(**_DETECTOR_ERRSTATE):
                rows.append(energy_row(name, record, config.detector, config.spans,
                                       config.waveform.fundamental_hz))
        except FaultwaveError as exc:
            rows.append(EnergyRow(name, error=f"{type(exc).__name__}: {exc}"))

    write_energy_table_csv(Path(out_path), rows)

    _echo_table(rows)
    if rows and all(row.error is not None for row in rows):
        _fail("every scenario in the suite failed", 3)


def _echo_table(rows: list[EnergyRow]) -> None:
    row_fmt = "{:<12} " + " ".join(["{:>12}"] * len(ENERGY_LABELS)) + "  {}"
    header = row_fmt.format("scenario", *[f"e_{label}" for label in ENERGY_LABELS], "detected")
    click.echo(header)
    click.echo("-" * len(header))
    for row in rows:
        if row.error is not None:
            blank = [""] * (len(ENERGY_LABELS) - 1)
            click.echo(row_fmt.format(row.scenario_name, "error", *blank, row.error))
        else:
            energies = [f"{e:.5g}" for e in row.energies]
            flags = "/".join("y" if f else "n" for f in row.detected)
            click.echo(row_fmt.format(row.scenario_name, *energies, flags))


@main.command("plot-data")
@click.option("--in", "in_path", required=True, type=click.Path(), help="Input trace CSV.")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run config JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
def cmd_plot_data(in_path: str, config_path: str, out_dir: str) -> None:
    """Emit paired CSVs (voltage vs. time, detector index vs. time)."""
    config, record, report = _load_and_run(in_path, config_path)

    out = Path(out_dir)
    dump = _DUMPS.get(config.detector.method)
    names = ["index.csv"] + ([dump[0]] if dump else [])
    # the voltage pair is the input record itself, so it may land on the input
    # trace and sidecar, but not on the config
    _check_outputs(config_path, in_path, *(out / name for name in names))
    _check_outputs(config_path, None, out / "voltage.csv", out / "voltage.meta.json")
    write_record_csv(out / "voltage.csv", record)
    _write_index_csv(out / "index.csv", report)
    if dump:
        name, write = dump
        write(out / name, record.samples[PHASES.index(config.channel)], record.sample_rate_hz,
              config.detector.level)
    click.echo(f"wrote voltage.csv, {', '.join(names)} to {out_dir}")


def _check_outputs(config_path: str, in_path: str | None, *outputs: Path) -> None:
    """Raise ConfigError if an output would land on the input config or, given
    ``in_path``, on the input trace or its sidecar, or if it exists and is not a
    regular file: the rename that writes an output would replace a device, a
    FIFO or a socket. Paths compare resolved: ``os.path.realpath`` is what
    ``Path.resolve`` does, without its RuntimeError on a symlink loop."""
    named = [("config", Path(config_path))]
    if in_path is not None:
        named += [("trace", Path(in_path)), ("sidecar", sidecar_path(Path(in_path)))]
    inputs = {os.path.realpath(path): f"{kind} {path}" for kind, path in named}
    for out in outputs:
        overwritten = inputs.get(os.path.realpath(out))
        if overwritten is not None:
            raise ConfigError(f"writing {out} would overwrite the input {overwritten}")
        try:
            mode = os.stat(out).st_mode
        except OSError:  # a new path, or one the write itself will report
            continue
        if not stat.S_ISREG(mode):
            raise ConfigError(f"output {out} exists and is not a regular file")


def _write_index_csv(path: Path, report: DetectionReport) -> None:
    """The report's index series as `t,<name>` (`detail_abs`, `pi` or `index`)."""
    header = _SERIES_HEADER.get(report.method, "index")
    write_series_csv(path, report.index_times_s, report.index_series, header)


def _load_and_run(
    in_path: str, config_path: str
) -> tuple[RunConfig, ThreePhaseRecord, DetectionReport]:
    """Load config and trace, resolve the spans against the trace (the config returned
    holds them) and :func:`run` the detector; exit 3 if it finds no usable signal."""
    config = load_run_config(Path(config_path))
    record = read_record_csv(Path(in_path))
    config = dataclasses.replace(config, spans=config.spans.resolve(record.n_samples))
    try:
        with np.errstate(**_DETECTOR_ERRSTATE):
            report = run(record, config.detector, config.spans, config.channel,
                         config.waveform.fundamental_hz)
    except (DegenerateInputError, NumericalError) as exc:
        _fail(f"{config.detector.method} detector failed: {exc}", 3)
    return config, record, report


if __name__ == "__main__":
    main()
