"""File formats and run configuration.

Trace records travel as CSV (`t,va,vb,vc`, time in seconds with 12
significant digits) plus a JSON sidecar holding the sample rate and the
ground-truth fault, if any. Reports are JSON; index series, spectra, and
coefficient dumps are CSVs. Every file is UTF-8 and written atomically: into a
temp file next to the target, which is then renamed onto it. A CSV goes into
the temp file row by row, so writing one holds a row at a time, never the
whole text. A written file gets the mode ``open()`` gives (0o666 less the
umask).

A run configuration is one JSON document; omitted sections fall back to
defaults. A detect report's ``config`` holds the detection settings it used
(``waveform.fundamental_hz``, ``detector``, resolved ``spans`` and
``channel``), itself a run config that reproduces the report for a
fundamental under 1 kHz (the Nyquist limit of the default rate), and its
``scenario`` holds the loaded record's length, rate and fault label.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detect import AdaptiveThreshold, DetectorConfig, EnergyRow, FixedThreshold
from .errors import ConfigError, DegenerateInputError, FaultwaveError
from .signal_model import (
    POSITIVE,
    FaultSpec,
    NoiseSpec,
    Spans,
    ThreePhaseRecord,
    WaveformConfig,
    add_noise,
    check_channel,
    check_number,
    generate_baseline,
    inject_fault,
)

FLOAT_FMT = "%.12g"


def output_path(path) -> Path:
    """``path`` as a Path, or a ConfigError if it names no file (``.``, ``""`` or ``/``)."""
    path = Path(path)
    if not path.name:
        raise ConfigError(f"output path {str(path)!r} names no file")
    return path


@contextmanager
def _atomic_open(path: Path):
    """A UTF-8 text handle on a new temp file next to ``path`` (an
    :func:`output_path`), renamed onto ``path`` when the block ends; on any
    error the temp file is removed and ``path`` kept. Like any file ``open()``
    creates, it gets the mode 0o666 less the umask."""
    path = output_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8")  # "x": a new file, never one already there
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    with _atomic_open(path) as handle:
        handle.write(text)


def sidecar_path(csv_path: Path) -> Path:
    return Path(csv_path).with_suffix(".meta.json")


def _write_table(path: Path, header: str, row_fmt: str, *columns) -> None:
    """Write ``header``, then ``row_fmt % row`` for each row of ``zip(*columns)``, one
    row at a time."""
    with _atomic_open(path) as handle:
        handle.write(header + "\n")
        handle.writelines(map(f"{row_fmt}\n".__mod__, zip(*columns)))


def write_record_csv(path: Path, record: ThreePhaseRecord) -> None:
    """Write `t,va,vb,vc` CSV plus the JSON sidecar with sampling metadata."""
    _write_table(path, "t,va,vb,vc", ",".join([FLOAT_FMT] * 4),
                 record.time_axis(), *record.samples)
    meta = {"sample_rate_hz": record.sample_rate_hz, "fault": fault_to_dict(record.labels)}
    atomic_write_text(sidecar_path(path), json.dumps(meta, indent=2) + "\n")


def read_record_csv(path: Path) -> ThreePhaseRecord:
    """Reconstruct a record from CSV, using the sidecar when present.

    The sample rate is the sidecar's, or without a sidecar the mean rate of
    the time column. Either way the time column must be finite and uniform
    at that rate: every step within 1% of 1/sample_rate_hz.
    Malformed content raises a FaultwaveError, never a bare ValueError.
    """
    try:
        return _parse_record_csv(Path(path))
    except FaultwaveError:
        raise
    except ValueError as exc:  # undecodable text, a field np.loadtxt cannot read
        raise DegenerateInputError(f"invalid trace file {path}: {exc}") from exc


def _parse_record_csv(path: Path) -> ThreePhaseRecord:
    raw = path.read_text(encoding="utf-8").strip().splitlines()
    if not raw or not raw[0].startswith("t,"):
        raise DegenerateInputError(f"{path} is not a trace CSV (missing 't,...' header)")
    body = raw[1:]
    if len(body) < 2:
        raise DegenerateInputError(f"{path} holds fewer than 2 samples")

    data = np.loadtxt(body, delimiter=",", ndmin=2, comments=None)
    if data.shape[0] != len(body):
        raise DegenerateInputError(f"{path} has a blank row")
    if data.shape[1] != 4:
        raise DegenerateInputError(f"{path} must have 4 columns (t,va,vb,vc)")

    t = data[:, 0]
    if not np.all(np.isfinite(t)):
        raise DegenerateInputError(f"{path} time column holds a non-finite value")
    labels = None
    meta = sidecar_path(path)
    if meta.exists():
        meta_obj = _read_json(meta)
        rate = meta_obj.get("sample_rate_hz") if isinstance(meta_obj, dict) else None
        try:
            check_number("sample_rate_hz", rate, *POSITIVE)
        except ConfigError as exc:
            raise DegenerateInputError(f"{meta}: {exc}") from exc
        fs = float(rate)
        labels = fault_from_dict(meta_obj.get("fault"))
    else:
        if not t[-1] > t[0]:
            raise DegenerateInputError(f"{path} time column does not increase")
        fs = (len(t) - 1) / (float(t[-1]) - float(t[0]))  # floats overflow to inf silently
    record = ThreePhaseRecord(sample_rate_hz=fs, samples=data[:, 1:].T, labels=labels)
    step = 1.0 / record.sample_rate_hz  # the record has checked that the rate is positive
    if np.any(np.abs(np.diff(t) - step) > 0.01 * step):
        raise DegenerateInputError(
            f"{path} time column is not uniform at {fs:g} Hz: a step is more than 1% off "
            f"{step:g} s (a row missing or repeated?)")
    return record


def write_series_csv(path: Path, times: np.ndarray, values: np.ndarray, value_header: str) -> None:
    _write_table(path, f"t,{value_header}", f"{FLOAT_FMT},{FLOAT_FMT}", times, values)


def write_tree_csv(path: Path, tree) -> None:
    """Coefficient dump: `level,k,value` with levels d1..dJ then aJ."""
    bands = [*tree.details, tree.approx]
    names = [f"d{j}" for j in range(1, len(tree.details) + 1)] + [f"a{len(tree.details)}"]
    sizes = [band.shape[0] for band in bands]
    _write_table(path, "level,k,value", f"%s,%d,{FLOAT_FMT}", np.repeat(names, sizes),
                 np.concatenate([np.arange(size) for size in sizes]), np.concatenate(bands))


def write_spectrum_csv(path: Path, spectrum) -> None:
    """Spectrum dump: `bin_hz,magnitude`."""
    _write_table(path, "bin_hz,magnitude", f"{FLOAT_FMT},{FLOAT_FMT}",
                 spectrum.frequencies(), spectrum.magnitudes)


def write_spectrogram_csv(path: Path, spectrogram) -> None:
    """Spectrogram dump: `frame_time_s,bin_hz,magnitude`, frame-major."""
    frames = spectrogram.frames
    _write_table(path, "frame_time_s,bin_hz,magnitude", ",".join([FLOAT_FMT] * 3),
                 np.repeat(spectrogram.frame_times_s, frames.shape[1]),
                 np.tile(spectrogram.frequencies(), frames.shape[0]), frames.ravel())


def write_energy_table_csv(path: Path, rows: list[EnergyRow]) -> None:
    """Energy table: one row per scenario; a failed scenario carries only its error."""
    values = ",".join([FLOAT_FMT] * 3) + ",%s,%s,%s,"
    lines = [
        f"{row.scenario_name},,,,,,,{_csv_field(row.error)}" if row.error is not None
        else f"{row.scenario_name}," + values % (row.e_ft, row.e_stft, row.e_wt, row.detected_ft,
                                                 row.detected_stft, row.detected_wt)
        for row in rows
    ]
    _write_table(path, "scenario,e_ft,e_stft,e_wt,det_ft,det_stft,det_wt,error", "%s", lines)


def _csv_field(text: str) -> str:
    """``text`` as one RFC 4180 field: quoted, quotes doubled, if it holds ``,``, ``"`` or a
    line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def fault_to_dict(fault: FaultSpec | None) -> dict | None:
    if fault is None:
        return None
    d = dataclasses.asdict(fault)
    d["fault_type"] = fault.fault_type.value
    return d


def fault_from_dict(obj: dict | None) -> FaultSpec | None:
    if obj is None:
        return None
    return _build_section(_object(obj, "fault"), "fault", FaultSpec)


@dataclass
class RunConfig:
    """Everything one CLI invocation needs, with defaults materialized, except
    that unset spans stay None until resolved against a record."""

    waveform: WaveformConfig
    fault: FaultSpec
    noise: NoiseSpec
    detector: DetectorConfig
    spans: Spans
    channel: str = "a"

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "fault": fault_to_dict(self.fault),
                "spans": {name: list(span) for name, span in dataclasses.asdict(self.spans).items()
                          if span is not None}}


_SECTION_KEYS = {f.name for f in dataclasses.fields(RunConfig)}


def _detector_config(obj: dict) -> DetectorConfig:
    """The threshold, when given, is {"fixed": v} or {"k_sigma": k}."""
    if "threshold" in obj:
        threshold = _object(obj["threshold"], "detector.threshold")
        if ("fixed" in threshold) == ("k_sigma" in threshold):
            raise ConfigError("detector.threshold must hold exactly one of 'fixed' and "
                              f"'k_sigma', got {threshold!r}")
        policy = FixedThreshold if "fixed" in threshold else AdaptiveThreshold
        obj = {**obj, "threshold": _build_section(threshold, "detector.threshold", policy)}
    return _build_section(obj, "detector", DetectorConfig)


def _check_keys(obj: dict, allowed: set[str], context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {context}")


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a JSON object, got {value!r}")
    return dict(value)


@contextmanager
def _prefixed(context: str):
    """Prefix a ConfigError raised inside with ``<context>.``: a config type's
    message starts with the key it rejects."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{context}.{exc}") from exc


def _build_section(obj: dict, context: str, builder):
    """``builder(**obj)`` for a config dataclass that has a field for each key of ``obj``."""
    _check_keys(obj, {f.name for f in dataclasses.fields(builder)}, context)
    with _prefixed(context):
        return builder(**obj)


def parse_run_config(obj: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, validating keys.

    Spans keep only the ranges the document names; :meth:`Spans.resolve`
    fits them to a record.

    Raises:
        ConfigError: unknown keys or invalid values (the message names the
            offending key).
        BoundsError: a span that is not two integers.
    """
    obj = _object(obj, "run config")
    _check_keys(obj, _SECTION_KEYS, "run config")

    waveform = _build_section(_object(obj.get("waveform", {}), "waveform"), "waveform",
                              WaveformConfig)
    fault = fault_from_dict(obj.get("fault")) or FaultSpec()
    noise = _build_section(_object(obj.get("noise", {}), "noise"), "noise", NoiseSpec)
    detector = _detector_config(_object(obj.get("detector", {}), "detector"))
    spans = _build_section(_object(obj.get("spans", {}), "spans"), "spans", Spans)

    channel = obj.get("channel", "a")
    check_channel(channel)

    return RunConfig(waveform=waveform, fault=fault, noise=noise,
                     detector=detector, spans=spans, channel=channel)


def _read_json(path: Path):
    """The parsed document; bytes that are not UTF-8 or not JSON, and an integer
    beyond the range of a float, are a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_int=_float_range_int)
    except ValueError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def _float_range_int(text: str) -> int:
    """A JSON integer. Settings are read as floats, so a larger one could only
    overflow later, wherever it is first used."""
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer of {len(text)} digits does not fit a float")
    return value


def load_run_config(path: Path) -> RunConfig:
    return parse_run_config(_read_json(path))


def build_record(config: RunConfig) -> ThreePhaseRecord:
    """Generate, fault, and add noise per the run configuration; a record that
    does not fit in memory raises ConfigError."""
    try:
        record = inject_fault(generate_baseline(config.waveform), config.fault)
        return add_noise(record, config.noise)
    except MemoryError:
        raise ConfigError(f"a record of {config.waveform.n_samples} samples does not fit "
                          "in memory") from None


def load_suite(path: Path) -> list[tuple[str, dict]]:
    """Parse a scenario suite: a base run config plus named partial overrides.

    Returns a list of (name, merged config dict) pairs. The base is parsed
    too, so an invalid base fails the whole suite.

    Raises:
        ConfigError: malformed document, or a scenario name that is not a
            non-empty string free of ``,``, ``"`` and line breaks (it heads a
            CSV row), or that repeats.
    """
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ConfigError("suite must be a JSON object")
    _check_keys(obj, {"base", "scenarios"}, "suite")

    base_dict = obj.get("base", {})
    parse_run_config(base_dict)

    merged: list[tuple[str, dict]] = []
    seen = set()
    scenarios = obj.get("scenarios", [])
    if not isinstance(scenarios, list):
        raise ConfigError(f"suite scenarios must be a JSON list, got {scenarios!r}")
    for i, scenario in enumerate(scenarios):
        if not isinstance(scenario, dict) or "name" not in scenario:
            raise ConfigError(f"scenario #{i} must be an object with a 'name'")
        name = scenario["name"]
        if not (isinstance(name, str) and name.splitlines() == [name]
                and "," not in name and '"' not in name):
            raise ConfigError(f"scenario #{i} name must be a non-empty string without ',', "
                              f"'\"' or a line break, got {name!r}")
        if name in seen:
            raise ConfigError(f"duplicate scenario name {name!r}")
        seen.add(name)
        delta = {k: v for k, v in scenario.items() if k != "name"}
        merged.append((name, _deep_merge(base_dict, delta)))
    return merged


def _deep_merge(base: dict, delta: dict) -> dict:
    out = dict(base)
    for key, value in delta.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out
