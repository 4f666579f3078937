"""Command-line front end: generate records, run detectors, dump plot data.

Exit codes: 0 = ran to completion (detection outcome is report data, not
status), 3 = a detector found no usable signal (`DegenerateInputError` or
`NumericalError` while it runs), 2 = any other bad input: a config, suite,
trace or span the package rejects, or a file it cannot read or write.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import NoReturn

import click
import numpy as np

from . import __version__, dwt, spectral
from .detect import (
    DetectionReport,
    EnergyRow,
    energy_row,
    ica_detect,
    wavelet_detect,
    energy_detect,
)
from .errors import ConfigError, DegenerateInputError, FaultwaveError, NumericalError
from .ica import IcaConfig
from .io import (
    RunConfig,
    atomic_write_text,
    build_record,
    check_onset,
    fault_to_dict,
    load_run_config,
    load_suite,
    parse_run_config,
    read_record_csv,
    write_energy_table_csv,
    write_record_csv,
    write_series_csv,
    write_spectrogram_csv,
    write_spectrum_csv,
    write_tree_csv,
)
from .signal_model import ThreePhaseRecord, select_channel

_SERIES_HEADER = {"wavelet": "detail_abs", "ica": "pi"}


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


def run_detector(record: ThreePhaseRecord, config: RunConfig) -> DetectionReport:
    """Dispatch to the configured detector; exit 3 if it finds no usable signal."""
    method = config.detector.method
    try:
        with np.errstate(**_DETECTOR_ERRSTATE):
            if method == "ica":
                return ica_detect(record, config.detector, config.spans,
                                  IcaConfig(config.waveform.fundamental_hz))
            trace = select_channel(record, config.channel)
            if method == "wavelet":
                return wavelet_detect(trace, config.detector, config.spans)
            return energy_detect(
                trace, method, config.detector, config.spans,
                fundamental_hz=config.waveform.fundamental_hz,
            )
    except (DegenerateInputError, NumericalError) as exc:
        _fail(f"{method} detector failed: {exc}", 3)


@click.group(cls=_Cli)
@click.version_option(version=__version__, prog_name="faultwave")
def main() -> None:
    """Synthesize three-phase fault records and run fault detectors."""


@main.command("generate")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run config JSON.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output trace CSV.")
def cmd_generate(config_path: str, out_path: str) -> None:
    """Write a trace CSV plus its JSON metadata sidecar."""
    record = build_record(load_run_config(Path(config_path)))
    write_record_csv(Path(out_path), record)
    click.echo(f"wrote {record.n_samples}-sample record to {out_path}")


@main.command("detect")
@click.option("--in", "in_path", required=True, type=click.Path(), help="Input trace CSV.")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run config JSON.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Report JSON path.")
def cmd_detect(in_path: str, config_path: str, out_path: str) -> None:
    """Run the configured detector; write a report JSON and an index CSV."""
    out = Path(out_path)
    if out.suffix == ".csv":
        raise ConfigError(f"--out {out_path} ends in .csv, the suffix of the index CSV "
                          "written next to the report")
    config, record, report = _load_and_run(in_path, config_path)

    payload = report.to_json_dict(config=config.to_dict(), scenario=_scenario_info(record))
    atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    _write_index_csv(out.with_suffix(".csv"), report)

    verdict = "detected" if report.detected else "no fault"
    at = f" at {report.onset_time_s:.6g} s" if report.detected else ""
    click.echo(f"{report.method}: {verdict}{at} (threshold {report.threshold_used:.6g})")


@main.command("energy-table")
@click.option("--config", "suite_path", required=True, type=click.Path(), help="Scenario suite JSON.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output CSV.")
def cmd_energy_table(suite_path: str, out_path: str) -> None:
    """Evaluate the FT/STFT/WT energy indices over a scenario suite."""
    rows = []
    for name, merged in load_suite(Path(suite_path)):
        try:
            config = parse_run_config(merged)
            record = build_record(config)
            spans = config.spans.resolve(record.n_samples)
            check_onset(spans, record.labels, record.sample_rate_hz)
            with np.errstate(**_DETECTOR_ERRSTATE):
                rows.append(energy_row(name, record, config.detector, spans,
                                       config.waveform.fundamental_hz))
        except FaultwaveError as exc:
            rows.append(EnergyRow.failed(name, exc))

    write_energy_table_csv(Path(out_path), rows)

    _echo_table(rows)
    if rows and all(row.error is not None for row in rows):
        _fail("every scenario in the suite failed", 3)


def _echo_table(rows: list[EnergyRow]) -> None:
    header = f"{'scenario':<12} {'e_ft':>12} {'e_stft':>12} {'e_wt':>12}  detected"
    click.echo(header)
    click.echo("-" * len(header))
    for row in rows:
        name = row.scenario_name
        if row.error is not None:
            click.echo(f"{name:<12} {'error':>12} {'':>12} {'':>12}  {row.error}")
        else:
            flags = "/".join(
                "y" if f else "n"
                for f in (row.detected_ft, row.detected_stft, row.detected_wt)
            )
            click.echo(
                f"{name:<12} {row.e_ft:>12.5g} {row.e_stft:>12.5g} {row.e_wt:>12.5g}  {flags}"
            )


@main.command("plot-data")
@click.option("--in", "in_path", required=True, type=click.Path(), help="Input trace CSV.")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run config JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
def cmd_plot_data(in_path: str, config_path: str, out_dir: str) -> None:
    """Emit paired CSVs (voltage vs. time, detector index vs. time)."""
    config, record, report = _load_and_run(in_path, config_path)

    out = Path(out_dir)
    write_record_csv(out / "voltage.csv", record)
    _write_index_csv(out / "index.csv", report)
    extras = _write_transform_dumps(out, record, config)
    click.echo(f"wrote voltage.csv, index.csv{extras} to {out_dir}")


def _write_index_csv(path: Path, report: DetectionReport) -> None:
    """The report's index series as `t,<name>` (`detail_abs`, `pi` or `index`)."""
    header = _SERIES_HEADER.get(report.method, "index")
    write_series_csv(path, report.index_times_s, report.index_series, header)


def _write_transform_dumps(out: Path, record: ThreePhaseRecord, config: RunConfig) -> str:
    """Method-specific transform dumps next to the plot pair."""
    method = config.detector.method
    trace = select_channel(record, config.channel)
    if method == "wavelet":
        write_tree_csv(out / "coefficients.csv",
                       dwt.dwt_decompose(trace, config.detector.level))
        return ", coefficients.csv"
    if method == "energy_ft":
        write_spectrum_csv(out / "spectrum.csv", spectral.dft(trace))
        return ", spectrum.csv"
    if method == "energy_stft":
        write_spectrogram_csv(out / "spectrogram.csv", spectral.stft(trace))
        return ", spectrogram.csv"
    return ""


def _load_and_run(
    in_path: str, config_path: str
) -> tuple[RunConfig, ThreePhaseRecord, DetectionReport]:
    """Load config and trace, resolve the spans against the trace, run the configured
    detector; the returned config holds the resolved spans."""
    config = load_run_config(Path(config_path))
    record = read_record_csv(Path(in_path))
    config = dataclasses.replace(config, spans=config.spans.resolve(record.n_samples))
    check_onset(config.spans, record.labels, record.sample_rate_hz)
    return config, record, run_detector(record, config)


def _scenario_info(record: ThreePhaseRecord) -> dict:
    return {
        "n_samples": record.n_samples,
        "sample_rate_hz": record.sample_rate_hz,
        "fault": fault_to_dict(record.labels),
    }


if __name__ == "__main__":
    main()
