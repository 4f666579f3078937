"""Tests for file formats, run configuration, and the command line."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import faultwave
from faultwave import (DetectorConfig, FaultSpec, FaultType, IcaConfig, NoiseSpec,
                       ThreePhaseRecord, WaveformConfig, calibrate_threshold, detail_series,
                       dwt_decompose, ica_detect, select_channel)
from faultwave.detect import METHODS, EnergyRow, check_onset
from faultwave.dwt import boundary_artifact_mask
from faultwave.cli import main
from faultwave.errors import BoundsError, ConfigError, DegenerateInputError, FaultwaveError
from faultwave.io import (
    FLOAT_FMT,
    _write_table,
    build_record,
    parse_run_config,
    read_record_csv,
    sidecar_path,
    write_energy_table_csv,
    write_record_csv,
)
from conftest import assert_bitwise_equal, make_record
from test_csv_golden import SPECIAL


AG_CONFIG = {
    "fault": {"fault_type": "AG", "onset_s": 0.065},
    "noise": {"snr_db": 20.0, "seed": 3},
    "detector": {"method": "wavelet"},
}

BIG_INT = 10**400  # a JSON integer beyond the range of a float


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


class TestRecordCsv:
    def test_round_trip_preserves_samples(self, tmp_path):
        record = make_record("AG", snr_db=20.0, seed=5)
        path = tmp_path / "trace.csv"
        write_record_csv(path, record)
        back = read_record_csv(path)
        assert back.sample_rate_hz == record.sample_rate_hz
        assert np.max(np.abs(back.samples - record.samples)) <= 1e-9
        assert back.labels.fault_type is FaultType.AG

    def test_header_and_column_layout(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_record_csv(path, make_record("NONE"))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,va,vb,vc"
        assert len(lines) == 401
        assert sidecar_path(path).exists()

    def test_rate_recovered_without_sidecar(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_record_csv(path, make_record("NONE"))
        sidecar_path(path).unlink()
        back = read_record_csv(path)
        assert back.sample_rate_hz == pytest.approx(2000.0, rel=1e-9)
        assert back.labels is None

    def test_read_is_bitwise_float_of_each_field(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_record_csv(path, make_record("AG", snr_db=20.0, seed=5, duration_s=2.048))
        rows = [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]]
        expected = np.ascontiguousarray(np.array(rows)[:, 1:].T)
        back = read_record_csv(path)
        assert back.samples.shape == (3, 4096)
        assert back.samples.tobytes() == expected.tobytes()


# A record of random length and rate holding any finite sample values.
RECORDS = st.builds(
    ThreePhaseRecord,
    sample_rate_hz=st.floats(1e-3, 1e9),
    samples=st.integers(2, 300).flatmap(lambda n: hnp.arrays(
        np.float64, (3, n), elements=st.floats(allow_nan=False, allow_infinity=False))),
)


class TestRecordCsvRoundTrip:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory) -> Path:
        return tmp_path_factory.mktemp("round_trip") / "trace.csv"

    @settings(max_examples=60, deadline=None)
    @given(RECORDS, st.booleans())
    @example(ThreePhaseRecord(2000.0, np.array([[0.0, -0.0], [5e-324, -1.7976931348623157e308],
                                                [1e-310, 0.1]])), False)
    def test_samples_come_back_at_12_digits_and_the_rate_with_them(self, path, record,
                                                                   keep_sidecar):
        write_record_csv(path, record)
        if not keep_sidecar:
            sidecar_path(path).unlink()
        back = read_record_csv(path)
        expected = np.array([[float(FLOAT_FMT % v) for v in row] for row in record.samples])
        assert_bitwise_equal(back.samples, expected)
        if keep_sidecar:
            assert back.sample_rate_hz == record.sample_rate_hz
        else:
            # from times written at 12 digits: far inside the 1% step rule
            assert back.sample_rate_hz == pytest.approx(record.sample_rate_hz, rel=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(RECORDS, st.integers(0, 300), st.integers(0, 3),
           st.sampled_from(["nan", "inf", "-inf"]))
    def test_non_finite_field_without_sidecar_exits_2(self, path, record, row, column, value):
        write_record_csv(path, record)
        sidecar_path(path).unlink()
        lines = path.read_text().splitlines()
        row = 1 + row % record.n_samples
        fields = lines[row].split(",")
        fields[column] = value
        lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        cfg = write_json(path.parent / "run.json", AG_CONFIG)
        result = CliRunner().invoke(
            main, ["detect", "--in", str(path), "--config", str(cfg),
                   "--out", str(path.parent / "r.json")])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "must be finite" in result.output or "non-finite" in result.output


class TestTransformDumps:
    def test_coefficient_dump_layout(self, tmp_path):
        from faultwave import dwt_decompose, select_channel
        from faultwave.io import write_tree_csv

        trace = select_channel(make_record("NONE"), "a")
        path = tmp_path / "tree.csv"
        write_tree_csv(path, dwt_decompose(trace, 2))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "level,k,value"
        assert lines[1].startswith("d1,0,")
        assert lines[-1].startswith("a2,99,")
        assert len(lines) == 1 + 200 + 100 + 100

    def test_spectrum_and_spectrogram_dumps(self, tmp_path):
        from faultwave import select_channel, stft
        from faultwave.io import write_spectrogram_csv, write_spectrum_csv

        trace = select_channel(make_record("NONE"), "a")
        write_spectrum_csv(tmp_path / "sp.csv", trace)
        sp_lines = (tmp_path / "sp.csv").read_text().strip().splitlines()
        assert sp_lines[0] == "bin_hz,magnitude"
        assert len(sp_lines) == 1 + 201

        frames = stft(trace)
        write_spectrogram_csv(tmp_path / "sg.csv", trace)
        sg_lines = (tmp_path / "sg.csv").read_text().strip().splitlines()
        assert sg_lines[0] == "frame_time_s,bin_hz,magnitude"
        assert len(sg_lines) == 1 + frames.shape[0] * frames.shape[1]


def one_string_table(header: str, row_fmt: str, *columns) -> str:
    """The table as one string, the way the writer built it before it streamed rows."""
    return header + "\n" + "".join(row_fmt % row + "\n" for row in zip(*columns))


# floats of every kind, with the edges of %.12g drawn often
TABLE_FLOATS = st.one_of(st.sampled_from(SPECIAL.tolist()), st.floats(width=64))


@st.composite
def tables(draw):
    """(row format, columns): some float columns, with or without a leading text
    and integer column as in the coefficient dump."""
    n_rows = draw(st.integers(0, 40))
    n_floats = draw(st.integers(1, 4))
    columns = [draw(hnp.arrays(np.float64, n_rows, elements=TABLE_FLOATS))
               for _ in range(n_floats)]
    row_fmt = ",".join([FLOAT_FMT] * n_floats)
    if draw(st.booleans()):
        text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
        names = draw(st.lists(text, min_size=n_rows, max_size=n_rows))
        counts = draw(hnp.arrays(np.int64, n_rows))
        columns = [np.array(names, dtype=str), counts, *columns]
        row_fmt = "%s,%d," + row_fmt
    return row_fmt, columns


class TestStreamedWriter:
    """``_write_table`` writes row by row what the one-string table held."""

    @settings(max_examples=200, deadline=None)
    @given(table=tables())
    @example(table=(FLOAT_FMT, [np.array([])]))
    @example(table=(FLOAT_FMT, [SPECIAL[:1]]))
    @example(table=(f"{FLOAT_FMT},{FLOAT_FMT}", [np.arange(SPECIAL.shape[0]) / 7.0, SPECIAL]))
    def test_equals_the_one_string_table(self, tmp_path_factory, table):
        row_fmt, columns = table
        path = tmp_path_factory.mktemp("table") / "t.csv"
        _write_table(path, "h,e,a,d", row_fmt, *columns)
        assert path.read_bytes() == one_string_table("h,e,a,d", row_fmt, *columns).encode()

    def test_row_that_fails_to_format_keeps_the_target(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"old,bytes\n")
        counts = [*range(5000), "x", *range(5000)]  # many rows already out before it
        with pytest.raises(TypeError):
            _write_table(path, "k,v", "%d,%d", counts, counts)
        assert path.read_bytes() == b"old,bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_record_write_holds_a_row_not_the_table(self, tmp_path):
        """The joined table of 40,960 rows alone would take about 6 MB."""
        record = make_record("AG", snr_db=20.0, seed=1, duration_s=20.48)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            write_record_csv(tmp_path / "trace.csv", record)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - before < 1_000_000
        assert len((tmp_path / "trace.csv").read_bytes().splitlines()) == 40_961


class TestRunConfig:
    def test_defaults_materialize(self):
        config = parse_run_config({})
        assert config.waveform.n_samples == 400
        assert config.detector.method == "wavelet"
        assert config.spans.resolve(400).analysis == (0, 400)
        assert config.fault.fault_type is FaultType.NONE

    def test_unknown_top_level_key_is_named(self):
        with pytest.raises(ConfigError, match="'detektor'"):
            parse_run_config({"detektor": {}})

    def test_unknown_nested_key_is_named(self):
        with pytest.raises(ConfigError, match="'snr'"):
            parse_run_config({"noise": {"snr": 10}})

    def test_span_outside_record_rejected(self):
        with pytest.raises(BoundsError, match="analysis"):
            parse_run_config({"spans": {"analysis": [0, 900]}}).spans.resolve(400)

    def test_calibration_span_outside_record_rejected(self):
        with pytest.raises(BoundsError, match=r"calibration=\(0, 900\).*N=400"):
            parse_run_config({"spans": {"calibration": [0, 900]}}).spans.resolve(400)

    @pytest.mark.parametrize(
        "fault, rejected",
        [(FaultSpec(FaultType.AG, onset_s=0.0), True),
         (FaultSpec(FaultType.AG, onset_s=0.0595), True),
         (FaultSpec(FaultType.AG, onset_s=0.06), False),
         (FaultSpec(FaultType.NONE, onset_s=0.03), False),
         (None, False)],
        ids=["first_sample", "last_calibration_sample", "first_sample_after", "no_fault",
             "no_label"],
    )
    def test_onset_inside_calibration_rejected(self, fault, rejected):
        spans = parse_run_config({}).spans.resolve(400)  # calibration (0, 120) at 2 kHz
        if rejected:
            with pytest.raises(ConfigError, match=r"calibration span \(0, 120\)"):
                check_onset(spans, fault, 2000.0)
        else:
            check_onset(spans, fault, 2000.0)

    @pytest.mark.parametrize(
        "config, match",
        [
            ({"ica": {"contrast": "cube"}}, "unknown key 'ica' in run config"),
            ({"ica": {"seed": 2}}, "unknown key 'ica' in run config"),
            ({"ica": {"max_iter": 50}}, "unknown key 'ica' in run config"),
            ({"ica": {"tol": 1e-4}}, "unknown key 'ica' in run config"),
            ({"detector": {"k_sigma": 4.0}}, "unknown key 'k_sigma' in detector"),
            ({"detector": {"calibration_span": [0, 100]}},
             "unknown key 'calibration_span' in detector"),
            ({"detector": {"threshold": {"k_sigma": 4.0, "calibration_span": [0, 100]}}},
             "unknown key 'calibration_span' in detector.threshold"),
            ({"detector": {"threshold": 0.5}}, "detector.threshold must be a JSON object"),
            ({"detector": {"threshold": {"fixed": 0.5, "k_sigma": 3.0}}},
             "exactly one of 'fixed' and 'k_sigma'"),
            ({"spans": {"prefault": [0, 120]}}, "unknown key 'prefault' in spans"),
        ],
        ids=["ica_contrast", "ica_seed", "ica_max_iter", "ica_tol", "detector_k_sigma",
             "detector_calibration_span", "threshold_calibration_span", "bare_number_threshold",
             "fixed_and_k_sigma", "spans_prefault"],
    )
    def test_removed_key_or_spelling_rejected(self, config, match):
        with pytest.raises(ConfigError, match=match):
            parse_run_config(config)

    def test_provenance_dict_round_trips(self):
        fixed = dict(AG_CONFIG, detector={"method": "energy_ft", "threshold": {"fixed": 0.25}})
        custom = dict(AG_CONFIG, detector={"method": "ica", "threshold": {"k_sigma": 3.5}},
                      spans={"calibration": [80, 160], "analysis": [80, 400]})
        for obj in (AG_CONFIG, fixed, custom):
            resolved = parse_run_config(obj).to_dict()
            assert parse_run_config(json.loads(json.dumps(resolved))).to_dict() == resolved
            for section in ("detector", "spans"):
                assert obj.get(section, {}).items() <= resolved[section].items()

    def test_build_record_applies_fault_and_noise(self):
        config = parse_run_config(AG_CONFIG)
        record = build_record(config)
        assert record.labels.fault_type is FaultType.AG
        assert record.n_samples == 400


class TestCmdGenerate:
    def test_default_config_writes_400_samples(self, runner, tmp_path):
        cfg = write_json(tmp_path / "run.json", AG_CONFIG)
        out = tmp_path / "trace.csv"
        result = runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 401
        meta = json.loads(sidecar_path(out).read_text())
        assert meta["sample_rate_hz"] == 2000.0
        assert meta["fault"]["fault_type"] == "AG"

    def test_same_seed_is_byte_identical(self, runner, tmp_path):
        cfg = write_json(tmp_path / "run.json", AG_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_json_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"noise": {"snr_db": 20,}}')
        result = runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2
        assert "malformed JSON" in result.output

    def test_unknown_key_exits_2_and_names_it(self, runner, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"waveform": {"durationn_s": 0.2}})
        result = runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2
        assert "durationn_s" in result.output

    def test_invalid_parameter_exits_2(self, runner, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"waveform": {"duration_s": -1.0}})
        result = runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "config, name",
        [
            ({"waveform": {"sample_rate_hz": float("inf")}}, "sample_rate_hz"),
            ({"waveform": {"duration_s": float("inf")}}, "duration_s"),
            ({"waveform": {"fundamental_hz": float("nan")}}, "fundamental_hz"),
            ({"fault": {"fault_type": "AG", "onset_s": float("nan")}}, "onset_s"),
            ({"fault": {"fault_type": "AG", "clear_s": float("inf")}}, "clear_s"),
            ({"noise": {"snr_db": 20.0, "seed": -1}}, "seed"),
            ({"noise": {"snr_db": 20.0, "seed": 1.5}}, "seed"),
            ({"detector": {"threshold": {"k_sigma": float("nan")}}}, "k_sigma"),
            ({"detector": {"threshold": {"k_sigma": float("inf")}}}, "k_sigma"),
            ({"ica": {"fundamental_hz": 0.0}}, "unknown key 'ica' in run config"),
            ({"ica": {"embedding_dim": 2.5}}, "unknown key 'ica' in run config"),
            ({"ica": {"retain": 1.5}}, "unknown key 'ica' in run config"),
            ({"ica": {"retain": 0}}, "unknown key 'ica' in run config"),
            ({"ica": {"retain": "x"}}, "unknown key 'ica' in run config"),
            ({"detector": {"level": True}}, "level"),
            ({"detector": {"min_consecutive": True}}, "min_consecutive"),
            ({"detector": {"cutoff_hz": True}}, "cutoff_hz"),
            ({"noise": {"snr_db": 20.0, "seed": True}}, "seed"),
            ({"detector": {"threshold": {"fixed": False}}}, "detector.threshold.fixed"),
            ({"detector": {"threshold": {"k_sigma": True}}}, "detector.threshold.k_sigma"),
            ({"noise": {"snr_db": True}}, "noise.snr_db"),
            ({"noise": {"snr_db": 1e308}}, "snr_db"),
            ({"waveform": {"fundamental_hz": True}}, "waveform.fundamental_hz"),
            ({"waveform": {"amplitude_pu": True}}, "waveform.amplitude_pu"),
            ({"waveform": {"phase_offsets_rad": [0, True, 0]}}, "waveform.phase_offsets_rad"),
            ({"fault": {"fault_type": "AG", "onset_s": 0.065, "retained_voltage_pu": False}},
             "fault.retained_voltage_pu"),
            ({"fault": {"fault_type": "AG", "onset_s": 0.065, "transient_gain": True}},
             "fault.transient_gain"),
        ],
        ids=["inf_rate", "inf_duration", "nan_fundamental", "nan_onset", "inf_clear",
             "negative_seed", "fractional_seed", "nan_k_sigma", "inf_k_sigma",
             "zero_ica_fundamental", "fractional_embedding_dim",
             "retain_above_one", "zero_retain", "string_retain", "bool_level",
             "bool_min_consecutive", "bool_cutoff", "bool_seed", "bool_fixed", "bool_k_sigma",
             "bool_snr_db", "snr_ratio_overflows",
             "bool_waveform_fundamental", "bool_amplitude",
             "bool_phase_offset", "bool_retained_voltage", "bool_transient_gain"],
    )
    def test_non_finite_or_out_of_range_setting_exits_2(self, runner, tmp_path, request,
                                                             config, name):
        # json.dumps writes nan and inf as NaN and Infinity, which json.loads reads back
        cfg = write_json(tmp_path / "bad.json", config)
        result = runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert name in result.output
        if request.node.callspec.id.startswith("bool_"):
            assert "must not be a boolean" in result.output

    @pytest.mark.filterwarnings("error")  # a numpy warning on stderr fails the run
    @pytest.mark.parametrize(
        "config, key",
        [({"waveform": {"amplitude_pu": True}}, "waveform.amplitude_pu"),
         ({"noise": {"snr_db": True}}, "noise.snr_db"),
         ({"detector": {"cutoff_hz": True}}, "detector.cutoff_hz"),
         ({"detector": {"threshold": {"k_sigma": True}}}, "detector.threshold.k_sigma"),
         ({"fault": {"fault_type": "AG", "onset_s": True}}, "fault.onset_s"),
         ({"detector": {"threshold": {"fixed": True}}}, "detector.threshold.fixed"),
         ({"fault": {"fault_type": "AG", "transient_gain": float("nan")}}, "fault.transient_gain"),
         ({"fault": {"fault_type": "AG", "transient_freq_hz": float("nan")}},
          "fault.transient_freq_hz"),
         ({"fault": {"fault_type": "AG", "transient_freq_hz": float("inf")}},
          "fault.transient_freq_hz"),
         ({"fault": {"fault_type": "AG", "transient_tau_s": float("nan")}},
          "fault.transient_tau_s"),
         ({"fault": {"fault_type": "AG", "transient_tau_s": float("inf")}},
          "fault.transient_tau_s"),
         ({"waveform": {"amplitude_pu": float("nan")}}, "waveform.amplitude_pu"),
         ({"waveform": {"amplitude_pu": float("inf")}}, "waveform.amplitude_pu"),
         ({"waveform": {"amplitude_pu": "1"}}, "waveform.amplitude_pu"),
         ({"detector": {"threshold": {"fixed": "0.5"}}}, "detector.threshold.fixed"),
         ({"detector": {"threshold": {"k_sigma": "5"}}}, "detector.threshold.k_sigma"),
         ({"fault": {"fault_type": [1]}}, "fault.fault_type"),
         ({"channel": ["a"]}, "channel")],
        ids=["bool_amplitude", "bool_snr_db", "bool_cutoff", "bool_k_sigma", "bool_onset",
             "bool_fixed", "nan_transient_gain", "nan_transient_freq", "inf_transient_freq",
             "nan_transient_tau", "inf_transient_tau", "nan_amplitude", "inf_amplitude",
             "string_amplitude", "string_fixed", "string_k_sigma", "list_fault_type",
             "list_channel"],
    )
    def test_setting_that_is_not_a_finite_number_exits_2_with_one_line(self, runner, tmp_path,
                                                                        config, key):
        cfg = write_json(tmp_path / "bad.json", config)
        out = tmp_path / "o.csv"
        result = runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert result.stderr.splitlines() == [result.stderr.strip()]
        assert result.stderr.startswith(f"faultwave: error: {key} must ")
        assert not out.exists()

    def test_span_that_is_not_two_integers_exits_2_with_one_line(self, runner, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"spans": {"calibration": [0.0, 120]}})
        out = tmp_path / "o.csv"
        result = runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert result.stderr == ("faultwave: error: spans.calibration=[0.0, 120] "
                                 "must be two integers\n")
        assert not out.exists()

    # Neither record fits a 48-bit address space: the config rejects the first,
    # and the allocation of the second is refused at once, touching no memory.
    OVERSIZED = [
        (1e300, "waveform.duration_s must be positive, with an integer sample count from 2 "
                "to 384307168202282325 at 2000.0 Hz, got 1e+300"),
        (1e12, "a record of 2000000000000000 samples does not fit in memory")]

    @pytest.mark.parametrize("duration_s, message", OVERSIZED, ids=["count", "memory"])
    def test_oversized_record_exits_2_with_one_line(self, runner, tmp_path, duration_s, message):
        cfg = write_json(tmp_path / "run.json", {"waveform": {"duration_s": duration_s}})
        out = tmp_path / "o.csv"
        result = runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert result.stderr == f"faultwave: error: {message}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # a numpy warning on stderr fails the run
    def test_noise_on_overflowing_record_exits_2_with_one_line(self, runner, tmp_path):
        cfg = write_json(tmp_path / "run.json",
                         {"waveform": {"duration_s": 0.2, "amplitude_pu": 1e200},
                          "fault": {"fault_type": "AG"}, "noise": {"snr_db": 20, "seed": 1}})
        out = tmp_path / "o.csv"
        result = runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert result.stderr == ("faultwave: error: the record's mean square overflows "
                                 "float64, so no SNR can be set\n")
        assert not out.exists()


class TestCmdDetect:
    def make_trace(self, runner, tmp_path, config=AG_CONFIG) -> tuple[Path, Path]:
        cfg = write_json(tmp_path / "run.json", config)
        trace = tmp_path / "trace.csv"
        assert runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(trace)]).exit_code == 0
        return trace, cfg

    def test_fault_trace_yields_detected_report(self, runner, tmp_path):
        trace, cfg = self.make_trace(runner, tmp_path)
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["method"] == "wavelet"
        assert report["detected"] is True
        assert abs(report["onset_time_s"] - 0.065) < 0.010
        assert report["config"]["detector"]["method"] == "wavelet"
        index_csv = out.with_suffix(".csv")
        assert index_csv.read_text().splitlines()[0] == "t,detail_abs"

    def test_clean_trace_not_detected_exit_zero(self, runner, tmp_path):
        clean = dict(AG_CONFIG)
        clean["fault"] = {"fault_type": "NONE"}
        trace, cfg = self.make_trace(runner, tmp_path, clean)
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["detected"] is False

    def test_ica_method_writes_pi_series(self, runner, tmp_path):
        ica_cfg = dict(AG_CONFIG)
        ica_cfg["detector"] = {"method": "ica"}
        trace, cfg = self.make_trace(runner, tmp_path, ica_cfg)
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["detected"] is True
        assert out.with_suffix(".csv").read_text().splitlines()[0] == "t,pi"

    def test_ica_template_locks_to_waveform_fundamental(self, runner, tmp_path):
        config = dict(AG_CONFIG, waveform={"fundamental_hz": 49.5}, detector={"method": "ica"})
        trace, cfg = self.make_trace(runner, tmp_path, config)
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert "ica" not in report["config"]
        record = read_record_csv(trace)
        locked, nominal = (ica_detect(record, DetectorConfig(method="ica"), None, IcaConfig(f0))
                           for f0 in (49.5, 50.0))
        assert report["threshold"] == locked.threshold_used != nominal.threshold_used
        assert report["onset_sample"] == locked.onset_sample

    def test_wavelet_applies_configured_spans(self, runner, tmp_path):
        # calibrate after the fault, scan only before it: the 20 dB AG
        # record is then quiet, which it is not under the default spans
        config = dict(AG_CONFIG, spans={"calibration": [150, 400], "analysis": [0, 100]})
        trace, cfg = self.make_trace(runner, tmp_path, config)
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        series = detail_series(dwt_decompose(select_channel(read_record_csv(trace), "a"), 1), 1)
        valid = ~boundary_artifact_mask(400, 1)
        expected = calibrate_threshold(series[150:400][valid[150:400]])
        assert report["detected"] is False
        assert report["threshold"] == expected

    @pytest.mark.parametrize(
        "sidecar, time_column",
        [({"fault": None}, None), ([], None), ({"sample_rate_hz": 0}, None),
         ({"sample_rate_hz": -2000.0}, None), (None, "constant"), (None, "gapped")],
        ids=["no_rate_key", "not_an_object", "zero_rate", "negative_rate", "constant_time",
             "gapped_time"],
    )
    def test_bad_sample_rate_exits_2(self, runner, tmp_path, sidecar, time_column):
        # the gapped trace is 500 samples less rows 100-199, so it fits the 400-sample config
        duration_s = 0.25 if time_column == "gapped" else 0.2
        generated = dict(AG_CONFIG, waveform={"duration_s": duration_s})
        trace, _ = self.make_trace(runner, tmp_path, generated)
        cfg = write_json(tmp_path / "run.json", AG_CONFIG)
        if sidecar is None:
            sidecar_path(trace).unlink()
        else:
            write_json(sidecar_path(trace), sidecar)
        lines = trace.read_text().splitlines()
        if time_column == "constant":
            trace.write_text("\n".join([lines[0]] + ["0" + l[l.index(","):] for l in lines[1:]]))
        elif time_column == "gapped":
            trace.write_text("\n".join(lines[:101] + lines[201:]) + "\n")
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg),
                   "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2, result.output
        assert "faultwave: error:" in result.output

    @pytest.mark.filterwarnings("error")  # a numpy warning on stderr fails the run
    @pytest.mark.parametrize("rate", [True, "2000", None, float("nan"), 0, -2000.0])
    def test_sidecar_rate_not_finite_and_positive_exits_2_with_one_line(self, runner, tmp_path,
                                                                         rate):
        trace, cfg = self.make_trace(runner, tmp_path)
        meta = write_json(sidecar_path(trace), {"sample_rate_hz": rate})
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg),
                   "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2, (result.output, result.exception)
        assert result.stderr.splitlines() == [result.stderr.strip()]
        assert result.stderr.startswith(f"faultwave: error: {meta}: sample_rate_hz must ")

    @pytest.mark.parametrize("times, rate",
                             [(("-1e308", "1e308"), "0.0"), (("0", "5e-324"), "inf")],
                             ids=["span_overflows", "rate_overflows"])
    def test_time_column_rate_that_overflows_exits_2_with_one_line(self, runner, tmp_path,
                                                                   times, rate):
        trace = tmp_path / "t.csv"
        trace.write_text("t,va,vb,vc\n" + "".join(f"{t},0,0,0\n" for t in times))
        cfg = write_json(tmp_path / "run.json", {})
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg),
                   "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2, (result.output, result.exception)
        assert result.stderr == ("faultwave: error: sample_rate_hz must be finite and positive, "
                                 f"got {rate}\n")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:200] + [""] + lines[200:],
            lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:],
            lambda lines: lines[:5] + ["0.002,abc,0,0"] + lines[6:],
            lambda lines: lines[:1] + [line.split(",")[0] for line in lines[1:]],
            lambda lines: lines[:1] + [line + ",0" for line in lines[1:]],
            lambda lines: lines[:1],
            lambda lines: lines[:2],
            lambda lines: lines[:5] + ["0.002,1_000,0,0"] + lines[6:],
            lambda lines: lines[:5] + ["0.002,\udcff,0,0"] + lines[6:],
        ],
        ids=["blank_row", "ragged_row", "non_numeric", "one_column", "five_columns",
             "header_only", "single_row", "digit_separator", "not_utf8"],
    )
    def test_malformed_trace_exits_2(self, runner, tmp_path, edit):
        trace, cfg = self.make_trace(runner, tmp_path)
        text = "\n".join(edit(trace.read_text().splitlines())) + "\n"
        trace.write_bytes(text.encode(errors="surrogateescape"))  # \udcff is the byte 0xff
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg),
                   "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2, result.output
        assert "faultwave: error:" in result.output

    @pytest.mark.parametrize(
        "sidecar, config",
        [
            ({"sample_rate_hz": 2000, "fault": 5}, AG_CONFIG),
            ({"sample_rate_hz": True}, AG_CONFIG),
            (None, {"fault": 5}),
            (None, {"spans": {"calibration": [0]}}),
            (None, {"spans": {"calibration": ["a", 5]}}),
            (None, {"detector": {"level": "x"}}),
            (None, {"detector": {"min_consecutive": 2.5}}),
            (None, {"detector": {"method": "energy_ft", "cutoff_hz": "x"}}),
            (None, {"detector": {"threshold": "x"}}),
            (None, {"detector": 5}),
            (None, {"waveform": {"phase_offsets_rad": 5}}),
        ],
        ids=["sidecar_fault_not_object", "sidecar_rate_boolean", "config_fault_not_object",
             "span_one_value",
             "span_not_integers", "level_not_integer", "min_consecutive_not_integer",
             "cutoff_not_number", "threshold_not_number", "detector_not_object",
             "phase_offsets_not_a_list"],
    )
    def test_malformed_input_exits_2(self, runner, tmp_path, sidecar, config):
        trace, _ = self.make_trace(runner, tmp_path)
        if sidecar is not None:
            write_json(sidecar_path(trace), sidecar)
        cfg = write_json(tmp_path / "detect.json", config)
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg),
                   "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2, result.output
        assert "faultwave: error:" in result.output

    @pytest.mark.parametrize("command, out", [("detect", "r.json"), ("plot-data", "plots")])
    def test_span_beyond_loaded_record_exits_2(self, runner, tmp_path, command, out):
        trace, _ = self.make_trace(runner, tmp_path)  # 400 samples
        cfg = write_json(tmp_path / "span.json", dict(AG_CONFIG, spans={"calibration": [0, 1200]}))
        result = runner.invoke(
            main, [command, "--in", str(trace), "--config", str(cfg), "--out", str(tmp_path / out)]
        )
        assert result.exit_code == 2, result.output
        assert "(0, 1200)" in result.output and "N=400" in result.output

    @pytest.mark.parametrize("method", METHODS)
    def test_default_spans_come_from_the_loaded_record(self, runner, tmp_path, method):
        generated = {"waveform": {"duration_s": 2.048},
                     "fault": {"fault_type": "AG", "onset_s": 1.0},
                     "noise": {"snr_db": 20.0, "seed": 1}}
        trace, _ = self.make_trace(runner, tmp_path, generated)  # 4096 samples
        cfg = write_json(tmp_path / "detect.json", {"detector": {"method": method}})
        out = tmp_path / "r.json"
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert f"{method}: detected" in result.output
        spans = json.loads(out.read_text())["config"]["spans"]
        assert spans == {"calibration": [0, 1228], "analysis": [0, 4096]}

    @pytest.mark.parametrize("command, out", [("detect", "r.json"), ("plot-data", "plots")])
    @pytest.mark.parametrize("method", METHODS)
    def test_fundamental_above_the_loaded_records_nyquist_exits_2(self, runner, tmp_path,
                                                                  method, command, out):
        """The config's own 2 kHz default rate allows 999 Hz; the 1.5 kHz trace does not."""
        trace, _ = self.make_trace(runner, tmp_path, {
            "waveform": {"sample_rate_hz": 1500.0, "duration_s": 0.4},
            "fault": {"fault_type": "AG", "onset_s": 0.25}, "noise": {"snr_db": 20, "seed": 1}})
        cfg = write_json(tmp_path / "detect.json",
                         {"waveform": {"fundamental_hz": 999.0}, "detector": {"method": method}})
        result = runner.invoke(
            main, [command, "--in", str(trace), "--config", str(cfg), "--out", str(tmp_path / out)])
        assert result.exit_code == 2, result.output
        assert result.stderr == ("faultwave: error: sample_rate_hz=1500.0 violates Nyquist for "
                                 "fundamental_hz=999.0\n")
        assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("method", METHODS)
    def test_report_config_is_the_detection_settings_and_reproduces_the_report(
            self, runner, tmp_path, method):
        generated = {"waveform": {"sample_rate_hz": 8000.0}, "fault": {"fault_type": "AG"}}
        trace, _ = self.make_trace(runner, tmp_path, generated)  # 1600 samples
        detection = {"waveform": {"fundamental_hz": 49.5},
                     "detector": {"method": method, "threshold": {"k_sigma": 4.0}, "level": 2,
                                  "cutoff_hz": 200.0, "min_consecutive": 2},
                     "spans": {"calibration": [0, 480]}, "channel": "a"}
        cfg = write_json(tmp_path / "detect.json", detection)
        out, again = tmp_path / "r.json", tmp_path / "again.json"
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert list(report["config"]) == ["waveform", "detector", "spans", "channel"]
        assert report["config"]["waveform"] == {"fundamental_hz": 49.5}
        assert report["config"]["spans"] == {"calibration": [0, 480], "analysis": [0, 1600]}
        assert report["scenario"]["sample_rate_hz"] == 8000.0
        assert report["scenario"]["fault"]["fault_type"] == "AG"

        echo = write_json(tmp_path / "echo.json", report["config"])
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(echo), "--out", str(again)])
        assert result.exit_code == 0, result.output
        assert again.read_bytes() == out.read_bytes()
        assert again.with_suffix(".csv").read_bytes() == out.with_suffix(".csv").read_bytes()

    def test_missing_trace_exits_2(self, runner, tmp_path):
        cfg = write_json(tmp_path / "run.json", AG_CONFIG)
        result = runner.invoke(
            main, ["detect", "--in", str(tmp_path / "nope.csv"), "--config", str(cfg),
                   "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2

    def test_nan_time_without_sidecar_exits_2(self, runner, tmp_path):
        trace, cfg = self.make_trace(runner, tmp_path)  # 400 samples
        lines = trace.read_text().splitlines()
        lines[51] = ",".join(["nan", *lines[51].split(",")[1:]])
        trace.write_text("\n".join(lines) + "\n")
        sidecar_path(trace).unlink()
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg),
                   "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2, result.output
        assert "time column holds a non-finite value" in result.output

    @pytest.mark.parametrize("nan_row", [51, None], ids=["nan_time", "finite_times"])
    def test_time_column_off_the_sidecar_rate_exits_2(self, runner, tmp_path, nan_row):
        """Times on a 1 kHz grid under the 2 kHz sidecar: the sidecar does not
        excuse the time column from its checks."""
        trace, cfg = self.make_trace(runner, tmp_path)  # 400 samples, 2 kHz sidecar
        trace.write_bytes(mutate_trace(trace.read_text(), [("retime", 2.0)] + (
            [] if nan_row is None else [("set_field", nan_row, 0, "nan")])))
        with pytest.raises(DegenerateInputError, match="time column"):
            read_record_csv(trace)
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg),
                   "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2, result.output
        assert ("holds a non-finite value" if nan_row else "is not uniform at 2000 Hz") \
            in result.output

    def test_report_path_ending_in_csv_exits_2_writing_nothing(self, runner, tmp_path):
        trace, cfg = self.make_trace(runner, tmp_path)
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg),
                   "--out", str(tmp_path / "r.csv")]
        )
        assert result.exit_code == 2, result.output
        assert "ends in .csv" in result.output
        assert not (tmp_path / "r.csv").exists()

    def test_transform_error_exits_3_naming_method(self, runner, tmp_path):
        # an all-zero pre-fault segment leaves the ICA template nothing to average
        dead = {"waveform": {"amplitude_pu": 0.0}, "detector": {"method": "ica"}}
        trace, cfg = self.make_trace(runner, tmp_path, dead)
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg),
                   "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 3
        assert "ica detector failed" in result.output

    def test_tiny_amplitude_reports_the_unscaled_onset(self, runner, tmp_path):
        """At 1e-170 per unit the squared deviations of the calibration details
        underflow; the threshold still follows the spread, not the mean."""
        for amplitude in (1.0, 1e-170):
            config = {"waveform": {"amplitude_pu": amplitude}, "fault": {"fault_type": "AG"}}
            trace, cfg = self.make_trace(runner, tmp_path, config)
            out = tmp_path / "r.json"
            result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
            assert result.output.startswith("wavelet: detected at 0.064 s ")
            assert json.loads(out.read_text())["onset_sample"] == 128

    def test_byte_order_marks_are_skipped(self, runner, tmp_path):
        """A trace, sidecar and config that start with a UTF-8 byte-order mark,
        as spreadsheet "CSV UTF-8" exports do, report as their plain copies."""
        trace, cfg = self.make_trace(runner, tmp_path)
        bom = tmp_path / "bom"
        bom.mkdir()
        for path in (trace, sidecar_path(trace), cfg):
            (bom / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for folder in (tmp_path, bom):
            result = runner.invoke(main, ["detect", "--in", str(folder / trace.name), "--config",
                                          str(folder / cfg.name), "--out", str(folder / "r.json")])
            assert result.exit_code == 0, result.output
        for name in ("r.json", "r.csv"):
            assert (bom / name).read_bytes() == (tmp_path / name).read_bytes()

    OVERFLOWS = {
        "amplitude": {"waveform": {"amplitude_pu": 1e200}, "fault": {"fault_type": "AG"}},
        "k_sigma": {"waveform": {"amplitude_pu": 1e6}, "fault": {"fault_type": "AG"},
                    "detector": {"threshold": {"k_sigma": 1e308}}},
    }

    @pytest.mark.filterwarnings("error")  # a numpy warning on stderr fails the run
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("case", OVERFLOWS)
    def test_overflowing_index_exits_3(self, runner, tmp_path, case, method):
        config = dict(self.OVERFLOWS[case])
        config["detector"] = dict(config.get("detector", {}), method=method)
        trace, cfg = self.make_trace(runner, tmp_path, config)
        out = tmp_path / "r.json"
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg),
                                      "--out", str(out)])
        if case == "k_sigma" and method in ("ica", "energy_ft"):
            # 1e308 times the round-off spread of a noiseless calibration
            # span stays finite: a real threshold that the fault stays under
            assert result.exit_code == 0, result.output
            report = json.loads(out.read_text(), parse_constant=pytest.fail)
            assert report["detected"] is False and np.isfinite(report["threshold"])
            return
        assert result.exit_code == 3, (result.output, result.exception)
        assert result.stderr.splitlines() == [result.stderr.strip()]
        assert result.stderr.startswith(f"faultwave: error: {method} detector failed: ")
        assert "overflows float64" in result.stderr
        assert not out.exists() and not out.with_suffix(".csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_detail_coefficients_exit_3(self, runner, tmp_path):
        """The samples are finite; their level-3 details overflow, which is the
        transform failing, not the input."""
        config = {"waveform": {"amplitude_pu": 1.7e308},
                  "fault": {"fault_type": "AG", "transient_gain": 0}, "detector": {"level": 3}}
        trace, cfg = self.make_trace(runner, tmp_path, config)
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 3, (result.output, result.exception)
        assert result.stderr.splitlines() == [result.stderr.strip()]
        assert result.stderr.startswith("faultwave: error: wavelet detector failed: ")
        assert "overflows float64" in result.stderr

    @pytest.mark.parametrize("method", METHODS)
    def test_all_zero_record_exits_3(self, runner, tmp_path, method):
        """No threshold can be calibrated on a zero calibration span."""
        trace, cfg = self.make_trace(runner, tmp_path, {"waveform": {"amplitude_pu": 0},
                                                        "detector": {"method": method}})
        out = tmp_path / "r.json"
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert result.stderr.splitlines() == [result.stderr.strip()]
        assert result.stderr.startswith(f"faultwave: error: {method} detector failed: ")
        assert "identically zero" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command, out", [("detect", "r.json"), ("plot-data", "plots")])
    @pytest.mark.parametrize(
        "config, message",
        [({"detector": {"method": "energy_ft", "cutoff_hz": 1000}}, "Nyquist"),
         ({"waveform": {"duration_s": 0.02}, "detector": {"method": "energy_stft"}},
          "need 2 <= window_len <= 40"),
         ({"detector": {"method": "ica"}, "spans": {"calibration": [100, 200],
                                                    "analysis": [80, 400]}},
          "spans.calibration=(100, 200) must start where spans.analysis=(80, 400) starts"),
         ({"detector": {"method": "energy_stft"}, "spans": {"calibration": [0, 40]}},
          "spans.calibration=(0, 40) is shorter than one window"),
         ({"detector": {"method": "ica"}, "spans": {"calibration": [0, 60]}},
          "spans.calibration=(0, 60) covers fewer than two"),
         ({"detector": {"method": "wavelet", "level": 4}, "spans": {"calibration": [0, 40]}},
          "spans.calibration=(0, 40) holds no sample of dwt.artifact_free_range=(53, 357)")],
        ids=["cutoff_at_nyquist", "stft_frame_longer_than_trace",
             "ica_calibration_after_analysis_start", "stft_calibration_shorter_than_frame",
             "ica_calibration_shorter_than_two_cycles", "wavelet_calibration_in_boundary_rows"],
    )
    def test_config_error_while_running_exits_2(self, runner, tmp_path, command, out, config,
                                                message):
        trace, cfg = self.make_trace(runner, tmp_path, config)
        result = runner.invoke(
            main, [command, "--in", str(trace), "--config", str(cfg), "--out", str(tmp_path / out)]
        )
        assert result.exit_code == 2, result.output
        assert message in result.output

    @pytest.mark.parametrize("method", ["ica", "energy_ft", "energy_wt"])
    def test_record_within_one_cycle_exits_3_alike(self, runner, tmp_path, method):
        """The ICA period and the FT/wavelet energy window are one cycle length,
        so all three reject a 40-sample record at 49 Hz (40.8 samples a cycle)
        with the same message."""
        trace, _ = self.make_trace(runner, tmp_path, {"waveform": {"duration_s": 0.02}})
        cfg = write_json(tmp_path / "detect.json",
                         {"waveform": {"duration_s": 0.02, "fundamental_hz": 49.0},
                          "detector": {"method": method}})
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 3, result.output
        assert result.stderr == (f"faultwave: error: {method} detector failed: one 49.0 Hz "
                                 "cycle is longer than the record (40 samples)\n")

    @pytest.mark.parametrize("method", ["wavelet", "ica"])
    def test_scan_shorter_than_min_consecutive_exits_2(self, runner, tmp_path, method):
        """No run of 1000 values fits a 400-sample scan, so "no fault" would say nothing."""
        trace, _ = self.make_trace(runner, tmp_path)
        cfg = write_json(tmp_path / "detect.json",
                         {"detector": {"method": method, "min_consecutive": 1000}})
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 2, result.output
        assert result.stderr.splitlines() == [result.stderr.strip()]
        assert result.stderr.startswith("faultwave: error: spans.analysis=(")
        assert result.stderr.endswith(" index values to scan, fewer than min_consecutive=1000\n")

    @pytest.mark.parametrize("spans", [None, {"calibration": [0, 120], "analysis": [0, 400]}],
                             ids=["default", "given"])
    def test_ica_scan_message_names_the_analysis_span(self, runner, tmp_path, spans):
        """The message names the configured analysis span, not the part the ICA scan reads."""
        trace, _ = self.make_trace(runner, tmp_path)
        config = {"detector": {"method": "ica", "min_consecutive": 100000}}
        if spans is not None:
            config["spans"] = spans
        cfg = write_json(tmp_path / "detect.json", config)
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 2, result.output
        assert result.stderr == ("faultwave: error: spans.analysis=(0, 400) holds 361 index "
                                 "values to scan, fewer than min_consecutive=100000\n")

    @pytest.mark.parametrize("method, cutoff_hz", [("energy_ft", 0), ("energy_stft", -1),
                                                   ("energy_wt", -0.0)])
    def test_cutoff_that_is_not_positive_exits_2(self, runner, tmp_path, method, cutoff_hz):
        """At or below 0 Hz the high band is the whole spectrum, and the AG trace
        read "no fault" with exit 0."""
        trace, _ = self.make_trace(runner, tmp_path)
        cfg = write_json(tmp_path / "detect.json",
                         {"detector": {"method": method, "cutoff_hz": cutoff_hz}})
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 2, result.output
        assert result.stderr == ("faultwave: error: detector.cutoff_hz must be finite and "
                                 f"positive, got {cutoff_hz}\n")
        assert not (tmp_path / "r.json").exists()

    def test_ica_span_start_mismatch_exits_2_before_the_index(self, runner, tmp_path):
        """The calibration span is all zero, which the template build would
        reject with exit 3; the span check comes first."""
        record = make_record("AG")
        samples = record.samples.copy()
        samples[:, :120] = 0.0
        trace = tmp_path / "trace.csv"
        write_record_csv(trace, ThreePhaseRecord(record.sample_rate_hz, samples, record.labels))
        cfg = write_json(tmp_path / "detect.json",
                         {"detector": {"method": "ica"},
                          "spans": {"calibration": [0, 120], "analysis": [50, 400]}})
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 2, result.output
        assert result.stderr == ("faultwave: error: spans.calibration=(0, 120) must start where "
                                 "spans.analysis=(50, 400) starts and end before it ends\n")

    @pytest.mark.parametrize(
        "config, code",
        [({"waveform": {"duration_s": 1e306}}, 2),
         ({"waveform": {"fundamental_hz": 5e-324}, "detector": {"method": "energy_ft"}}, 3),
         ({"waveform": {"fundamental_hz": 5e-324}, "detector": {"method": "ica"}}, 3)],
        ids=["sample_count_overflows", "energy_cycle_overflows", "ica_cycle_overflows"],
    )
    def test_extreme_setting_exits_2_or_3_not_1(self, runner, tmp_path, config, code):
        trace, _ = self.make_trace(runner, tmp_path)
        cfg = write_json(tmp_path / "detect.json", config)
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg),
                   "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == code, result.output

    @pytest.mark.parametrize(
        "command, out, config, message",
        [pytest.param("detect", "r.json", {"fault": {"fault_type": "AG", "onset_s": 0.03}},
                      "onset sample 60 lies inside the calibration span (0, 120)",
                      id="detect-r.json"),
         pytest.param("plot-data", "plots", {"fault": {"fault_type": "AG", "onset_s": 0.03}},
                      "onset sample 60 lies inside the calibration span (0, 120)",
                      id="plot-data-plots"),
         # the ICA template is built from the calibration span, so a fault
         # inside it is rejected as well
         pytest.param("detect", "r.json",
                      dict(AG_CONFIG, fault={"fault_type": "AG", "onset_s": 0.05},
                           detector={"method": "ica"}, spans={"calibration": [0, 160]}),
                      "onset sample 100 lies inside the calibration span (0, 160)",
                      id="ica-template-span")],
    )
    def test_labelled_onset_inside_calibration_exits_2(self, runner, tmp_path, command, out,
                                                       config, message):
        trace, cfg = self.make_trace(runner, tmp_path, config)
        result = runner.invoke(
            main, [command, "--in", str(trace), "--config", str(cfg), "--out", str(tmp_path / out)]
        )
        assert result.exit_code == 2, result.output
        assert message in result.output

    @pytest.mark.parametrize(
        "command, method, level, out",
        [("detect", "energy_wt", 2, "r.json"), ("detect", "wavelet", 1, "r.json"),
         ("plot-data", "wavelet", 2, "plots"), ("plot-data", "energy_wt", 1, "plots")],
    )
    def test_length_not_divisible_by_level_exits_2(self, runner, tmp_path, command, method,
                                                    level, out):
        config = dict(AG_CONFIG, waveform={"duration_s": 0.2015},
                      detector={"method": method, "level": level})
        trace, cfg = self.make_trace(runner, tmp_path, config)  # 403 samples
        result = runner.invoke(
            main, [command, "--in", str(trace), "--config", str(cfg), "--out", str(tmp_path / out)]
        )
        assert result.exit_code == 2, result.output
        assert f"trace length 403 is not divisible by 2**{level}" in result.output

    @pytest.mark.parametrize("command, out", [("detect", "r.json"), ("plot-data", "plots")])
    @pytest.mark.parametrize("method", ["ica", "energy_ft", "energy_stft"])
    def test_length_not_divisible_runs_methods_without_level(self, runner, tmp_path, command,
                                                              out, method):
        config = dict(AG_CONFIG, waveform={"duration_s": 0.2015},
                      detector={"method": method, "level": 2})
        trace, cfg = self.make_trace(runner, tmp_path, config)
        result = runner.invoke(
            main, [command, "--in", str(trace), "--config", str(cfg), "--out", str(tmp_path / out)]
        )
        assert result.exit_code == 0, result.output

    def test_removed_config_key_exits_2_naming_it(self, runner, tmp_path):
        trace, _ = self.make_trace(runner, tmp_path)
        # the section whose fundamental the energy window never read
        cfg = write_json(tmp_path / "old.json", dict(AG_CONFIG, ica={"fundamental_hz": 49.0},
                                                     detector={"method": "energy_ft"}))
        result = runner.invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg),
                   "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2, result.output
        assert "unknown key 'ica' in run config" in result.output
        assert not (tmp_path / "r.json").exists()


class TestCmdEnergyTable:
    def suite(self, with_bad=False):
        scenarios = [
            {"name": name, "fault": {"fault_type": name, "onset_s": 0.065}}
            for name in ("AG", "BG", "CG", "AB", "BC", "ABC")
        ]
        if with_bad:
            scenarios.append({"name": "broken", "fault": {"fault_type": "AG", "onset_s": 0.9}})
        return {"base": {}, "scenarios": scenarios}

    def test_six_fault_suite(self, runner, tmp_path):
        suite = write_json(tmp_path / "suite.json", self.suite())
        out = tmp_path / "table.csv"
        result = runner.invoke(main, ["energy-table", "--config", str(suite), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "scenario,e_ft,e_stft,e_wt,det_ft,det_stft,det_wt,error"
        assert len(lines) == 7
        assert all(",True,True,True," in line for line in lines[1:])
        assert "AG" in result.output  # aligned text table on stdout

    def test_stdout_table_bytes(self, runner, tmp_path):
        suite = write_json(tmp_path / "suite.json", self.suite(with_bad=True))
        result = runner.invoke(main, ["energy-table", "--config", str(suite),
                                      "--out", str(tmp_path / "table.csv")])
        assert result.exit_code == 0, result.output
        assert result.stdout == (
            "scenario             e_ft       e_stft         e_wt  detected\n"
            + "-" * 61 + "\n"
            "AG               0.015586    0.0057332     0.018988  y/y/y\n"
            "BG               0.016245    0.0049298     0.018834  y/y/y\n"
            "CG               0.017026    0.0044773     0.017996  y/y/y\n"
            "AB               0.016245    0.0057332     0.018988  y/y/y\n"
            "BC               0.017026    0.0049298     0.018834  y/y/y\n"
            "ABC              0.017026    0.0057332     0.018988  y/y/y\n"
            "broken              error                            "
            "BoundsError: fault onset 0.9 s is beyond the record end (0.2 s)\n")

    def test_layout_follows_the_method_list(self, tmp_path, monkeypatch, capsys):
        """Two methods give two energy and two flag columns in the CSV and on stdout."""
        for module in (faultwave.io, faultwave.cli):
            monkeypatch.setattr(module, "ENERGY_LABELS", ("x", "y"), raising=False)
        rows = [EnergyRow("s", (0.5, 0.25), (True, False)), EnergyRow("bad", error="Boom: x")]
        path = tmp_path / "table.csv"
        write_energy_table_csv(path, rows)
        assert path.read_text().splitlines() == [
            "scenario,e_x,e_y,det_x,det_y,error", "s,0.5,0.25,True,False,", "bad,,,,,Boom: x"]
        faultwave.cli._echo_table(rows)
        header, _, measured, failed = capsys.readouterr().out.splitlines()
        assert header.split() == ["scenario", "e_x", "e_y", "detected"]
        assert measured.split() == ["s", "0.5", "0.25", "y/n"]
        assert failed == f"{'bad':<12} {'error':>12} {'':>12}  Boom: x"

    def test_empty_suite_header_only(self, runner, tmp_path):
        suite = write_json(tmp_path / "suite.json", {"base": {}, "scenarios": []})
        out = tmp_path / "table.csv"
        result = runner.invoke(main, ["energy-table", "--config", str(suite), "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text().strip().splitlines() == [
            "scenario,e_ft,e_stft,e_wt,det_ft,det_stft,det_wt,error"
        ]

    def test_partial_failure_keeps_good_rows(self, runner, tmp_path):
        suite = write_json(tmp_path / "suite.json", self.suite(with_bad=True))
        out = tmp_path / "table.csv"
        result = runner.invoke(main, ["energy-table", "--config", str(suite), "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8
        assert lines[-1].startswith("broken,,,,,,,")
        assert "BoundsError" in lines[-1]

    def test_failed_row_holds_only_its_error(self, runner, tmp_path, monkeypatch):
        """A failed scenario carries no energy and no "not detected" flag."""
        rows = []
        monkeypatch.setattr(faultwave.cli, "write_energy_table_csv",
                            lambda path, table: rows.extend(table))
        suite = write_json(tmp_path / "suite.json", self.suite(with_bad=True))
        result = runner.invoke(main, ["energy-table", "--config", str(suite),
                                      "--out", str(tmp_path / "table.csv")])
        assert result.exit_code == 0, result.output
        assert [field.name for field in dataclasses.fields(EnergyRow)] == [
            "scenario_name", "energies", "detected", "error"]
        assert all(len(row.energies) == len(row.detected) == 3 for row in rows[:-1])
        assert rows[-1] == EnergyRow("broken", error="BoundsError: fault onset 0.9 s is beyond "
                                                     "the record end (0.2 s)")
        assert rows[-1].energies == rows[-1].detected == ()

    def test_zero_amplitude_scenario_becomes_an_error_row(self, runner, tmp_path):
        doc = {"base": {}, "scenarios": [{"name": "AG", "fault": {"fault_type": "AG"}},
                                         {"name": "dead", "waveform": {"amplitude_pu": 0}}]}
        suite = write_json(tmp_path / "suite.json", doc)
        out = tmp_path / "table.csv"
        result = runner.invoke(main, ["energy-table", "--config", str(suite), "--out", str(out)])
        assert result.exit_code == 0, (result.output, result.exception)
        rows = list(csv.reader(out.read_text().strip().splitlines()))
        assert rows[1][0] == "AG" and rows[1][-1] == ""
        assert rows[2] == ["dead", *[""] * 6,
                           "DegenerateInputError: the calibration index is identically zero"]

    def test_every_scenario_failing_writes_the_error_rows_and_exits_3(self, runner, tmp_path):
        doc = {"base": {}, "scenarios": [
            {"name": name, "fault": {"fault_type": "AG", "onset_s": onset_s}}
            for name, onset_s in (("late", 0.9), ("early", 0.03))]}
        suite = write_json(tmp_path / "suite.json", doc)
        out = tmp_path / "table.csv"
        result = runner.invoke(main, ["energy-table", "--config", str(suite), "--out", str(out)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert result.stderr == "faultwave: error: every scenario in the suite failed\n"
        rows = list(csv.reader(out.read_text().strip().splitlines()))
        assert [(row[0], row[-1].split(":")[0]) for row in rows[1:]] == [
            ("late", "BoundsError"), ("early", "ConfigError")]
        assert all(row[1:-1] == [""] * 6 for row in rows[1:])

    def test_scenario_override_merges_into_a_base_section_key_by_key(self, runner, tmp_path):
        scenarios = [{"name": "AG", "fault": {"fault_type": "AG", "onset_s": 0.065}}]
        tables = []
        for base, override in (({"noise": {"snr_db": 20, "seed": 1}}, {"noise": {"seed": 2}}),
                               ({"noise": {"snr_db": 20, "seed": 2}}, {})):
            suite = write_json(tmp_path / "suite.json", {
                "base": base, "scenarios": [{**scenarios[0], **override}]})
            out = tmp_path / f"table{len(tables)}.csv"
            result = runner.invoke(main, ["energy-table", "--config", str(suite), "--out", str(out)])
            assert result.exit_code == 0, (result.output, result.exception)
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]
        unmerged = write_json(tmp_path / "suite.json", {
            "base": {"noise": {"snr_db": 20, "seed": 1}}, "scenarios": scenarios})
        result = runner.invoke(main, ["energy-table", "--config", str(unmerged),
                                      "--out", str(tmp_path / "seed1.csv")])
        assert result.exit_code == 0
        assert (tmp_path / "seed1.csv").read_bytes() != tables[0]

    def test_onset_inside_calibration_becomes_error_row(self, runner, tmp_path):
        doc = self.suite()
        doc["scenarios"].append({"name": "early", "fault": {"fault_type": "AG", "onset_s": 0.03}})
        suite = write_json(tmp_path / "suite.json", doc)
        out = tmp_path / "table.csv"
        result = runner.invoke(main, ["energy-table", "--config", str(suite), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8
        assert lines[-1].startswith('early,,,,,,,"ConfigError: fault onset sample 60')
        assert len(next(csv.reader([lines[-1]]))) == 8

    @pytest.mark.filterwarnings("error")  # a numpy warning on stderr fails the run
    def test_overflowing_index_becomes_error_row(self, runner, tmp_path):
        doc = self.suite()
        doc["scenarios"].append({"name": "huge", "waveform": {"amplitude_pu": 1e200},
                                 "fault": {"fault_type": "AG", "onset_s": 0.065}})
        suite = write_json(tmp_path / "suite.json", doc)
        out = tmp_path / "table.csv"
        result = runner.invoke(main, ["energy-table", "--config", str(suite), "--out", str(out)])
        assert result.exit_code == 0, (result.output, result.exception)
        assert result.stderr == ""
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8
        assert lines[-1].startswith("huge,,,,,,,NumericalError: the threshold")
        assert "overflows float64" in lines[-1]

    def test_boolean_fault_setting_becomes_error_row(self, runner, tmp_path):
        doc = self.suite()
        doc["scenarios"].append({"name": "boolean", "fault": {"fault_type": "AG", "onset_s": True}})
        suite = write_json(tmp_path / "suite.json", doc)
        out = tmp_path / "table.csv"
        result = runner.invoke(main, ["energy-table", "--config", str(suite), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8
        assert lines[-1].startswith(
            'boolean,,,,,,,"ConfigError: fault.onset_s must not be a boolean')
        assert len(next(csv.reader([lines[-1]]))) == 8

    def test_span_that_is_not_two_integers_becomes_error_row(self, runner, tmp_path):
        doc = self.suite()
        doc["scenarios"].append({"name": "halves", "spans": {"calibration": [0.5, 3]}})
        suite = write_json(tmp_path / "suite.json", doc)
        out = tmp_path / "table.csv"
        result = runner.invoke(main, ["energy-table", "--config", str(suite), "--out", str(out)])
        assert result.exit_code == 0, result.output
        row = next(csv.reader([out.read_text().strip().splitlines()[-1]]))
        assert row[0] == "halves"
        assert row[-1].startswith("BoundsError: spans.calibration=")

    def test_oversized_record_becomes_error_row(self, runner, tmp_path):
        doc = self.suite()
        doc["scenarios"] += [{"name": f"huge-{i}", "waveform": {"duration_s": duration_s}}
                             for i, (duration_s, _) in enumerate(TestCmdGenerate.OVERSIZED)]
        suite = write_json(tmp_path / "suite.json", doc)
        out = tmp_path / "table.csv"
        result = runner.invoke(main, ["energy-table", "--config", str(suite), "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = list(csv.reader(out.read_text().strip().splitlines()))[-2:]
        assert [(row[0], row[-1]) for row in rows] == [
            (f"huge-{i}", f"ConfigError: {message}")
            for i, (_, message) in enumerate(TestCmdGenerate.OVERSIZED)]

    def test_duplicate_names_rejected(self, runner, tmp_path):
        doc = self.suite()
        doc["scenarios"].append(dict(doc["scenarios"][0]))
        suite = write_json(tmp_path / "suite.json", doc)
        result = runner.invoke(
            main, ["energy-table", "--config", str(suite), "--out", str(tmp_path / "t.csv")]
        )
        assert result.exit_code == 2
        assert "duplicate" in result.output

    @pytest.mark.parametrize(
        "doc, message",
        [({"scenarios": 5}, "scenarios must be a JSON list"),
         ({"scenarios": {"name": "AG"}}, "scenarios must be a JSON list"),
         ({"scenarios": [{"name": ["x"]}]}, "name must be a non-empty string"),
         ({"scenarios": [{"name": 5}]}, "name must be a non-empty string"),
         ({"scenarios": [{"name": ""}]}, "name must be a non-empty string"),
         ({"scenarios": [{"name": "a,b"}]}, "got 'a,b'"),
         ({"scenarios": [{"name": 'a"b'}]}, "name must be a non-empty string"),
         ({"scenarios": [{"name": "a\nb"}]}, "name must be a non-empty string"),
         ({"scenarios": [{"name": "a\r"}]}, "name must be a non-empty string"),
         ({"base": {"noise": {"snr_db": 1e308}}}, "snr_db"),
         ([{"name": "AG"}], "suite must be a JSON object"),
         ({"scenarios": [{"fault": {"fault_type": "AG"}}]}, "scenario #0 must be an object "
                                                            "with a 'name'"),
         ({"scenarios": [{"name": "AG"}, "BG"]}, "scenario #1 must be an object with a 'name'")],
        ids=["scenarios_number", "scenarios_object", "name_list", "name_number", "name_empty",
             "name_comma", "name_quote", "name_newline", "name_carriage_return",
             "base_snr_ratio_overflows", "suite_list", "scenario_without_name",
             "scenario_string"],
    )
    def test_malformed_suite_exits_2(self, runner, tmp_path, doc, message):
        suite = write_json(tmp_path / "suite.json", doc)
        result = runner.invoke(
            main, ["energy-table", "--config", str(suite), "--out", str(tmp_path / "t.csv")]
        )
        assert result.exit_code == 2, result.output
        assert "faultwave: error:" in result.output and message in result.output

    @pytest.mark.parametrize("message", ["plain", "(0, 1000) lies outside", 'key "x"',
                                         "two\nlines", "cr\r\nlf", '",\n'],
                             ids=["plain", "comma", "quote", "newline", "crlf", "all_three"])
    def test_error_field_reads_back_as_one_field(self, tmp_path, message):
        path = tmp_path / "t.csv"
        write_energy_table_csv(path, [EnergyRow("s", error=f"BoundsError: {message}")])
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1:] == [["s", "", "", "", "", "", "", f"BoundsError: {message}"]]

    def test_error_field_is_quoted_only_when_it_must_be(self, tmp_path):
        path = tmp_path / "t.csv"
        write_energy_table_csv(path, [EnergyRow("p", error="BoundsError: no comma"),
                                      EnergyRow("q", error='BoundsError: (0, 1) "x"')])
        assert path.read_text().splitlines()[1:] == [
            "p,,,,,,,BoundsError: no comma", 'q,,,,,,,"BoundsError: (0, 1) ""x"""']


class TestCmdPlotData:
    def test_wavelet_run_emits_aligned_pair(self, runner, tmp_path):
        cfg = write_json(tmp_path / "run.json", AG_CONFIG)
        trace = tmp_path / "trace.csv"
        assert runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(trace)]).exit_code == 0
        outdir = tmp_path / "plots"
        result = runner.invoke(
            main, ["plot-data", "--in", str(trace), "--config", str(cfg), "--out", str(outdir)]
        )
        assert result.exit_code == 0, result.output
        voltage = (outdir / "voltage.csv").read_text().strip().splitlines()
        index = (outdir / "index.csv").read_text().strip().splitlines()
        t_v = [line.split(",")[0] for line in voltage[1:]]
        t_i = [line.split(",")[0] for line in index[1:]]
        assert t_v == t_i
        assert (outdir / "coefficients.csv").exists()
        coefficients = (outdir / "coefficients.csv").read_text().strip().splitlines()
        assert coefficients[0] == "level,k,value"
        # Periodic-extension DWT keeps N coefficients over all levels.
        assert len(coefficients) - 1 == len(voltage) - 1 == 400

    @pytest.mark.parametrize(
        "method, dump, header",
        [
            ("wavelet", "coefficients.csv", "level,k,value"),
            ("energy_ft", "spectrum.csv", "bin_hz,magnitude"),
            ("energy_stft", "spectrogram.csv", "frame_time_s,bin_hz,magnitude"),
            ("energy_wt", None, None),
        ],
        ids=["wavelet", "energy_ft", "energy_stft", "energy_wt"],
    )
    def test_method_writes_its_transform_dump(self, runner, tmp_path, method, dump, header):
        config = dict(AG_CONFIG)
        config["detector"] = {"method": method}
        cfg = write_json(tmp_path / "run.json", config)
        trace = tmp_path / "trace.csv"
        assert runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(trace)]).exit_code == 0
        outdir = tmp_path / "plots"
        result = runner.invoke(
            main, ["plot-data", "--in", str(trace), "--config", str(cfg), "--out", str(outdir)]
        )
        assert result.exit_code == 0, result.output
        plot_pair = {"voltage.csv", "voltage.meta.json", "index.csv"}
        written = {p.name for p in outdir.iterdir()}
        if dump is None:
            assert written == plot_pair
        else:
            assert written == plot_pair | {dump}
            assert (outdir / dump).read_text().splitlines()[0] == header
            assert dump in result.output

    def test_ica_run_emits_pi_series(self, runner, tmp_path):
        config = dict(AG_CONFIG)
        config["detector"] = {"method": "ica"}
        cfg = write_json(tmp_path / "run.json", config)
        trace = tmp_path / "trace.csv"
        assert runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(trace)]).exit_code == 0
        outdir = tmp_path / "plots"
        result = runner.invoke(
            main, ["plot-data", "--in", str(trace), "--config", str(cfg), "--out", str(outdir)]
        )
        assert result.exit_code == 0, result.output
        assert (outdir / "voltage.csv").exists()
        assert (outdir / "index.csv").read_text().splitlines()[0] == "t,pi"

    def test_empty_trace_exits_2(self, runner, tmp_path):
        cfg = write_json(tmp_path / "run.json", AG_CONFIG)
        empty = tmp_path / "empty.csv"
        empty.write_text("t,va,vb,vc\n")
        result = runner.invoke(
            main, ["plot-data", "--in", str(empty), "--config", str(cfg), "--out", str(tmp_path / "p")]
        )
        assert result.exit_code == 2


class TestOutputOnTheInput:
    """``detect`` and ``plot-data`` exit 2 and write nothing when a report, an
    index CSV or a transform dump would land on the input trace or its
    sidecar, however the two paths are spelled. The ``plot-data`` voltage
    pair writes the input record back, so it may land on the input."""

    def generate(self, runner, tmp_path, trace: Path, method: str = "wavelet") -> Path:
        cfg = write_json(tmp_path / "run.json", {**AG_CONFIG, "detector": {"method": method}})
        assert runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(trace)]).exit_code == 0
        return cfg

    @staticmethod
    def files(root: Path) -> dict[Path, bytes]:
        return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}

    @pytest.mark.parametrize("out, written, kind, overwritten", [
        ("trace.json", "trace.csv", "trace", "trace.csv"),
        ("trace.meta.json", "trace.meta.json", "sidecar", "trace.meta.json"),
        ("sub/../trace.json", "sub/../trace.csv", "trace", "trace.csv"),
    ], ids=["index-on-trace", "report-on-sidecar", "index-on-trace-via-dotdot"])
    def test_detect_output_on_the_input_exits_2_writing_nothing(self, runner, tmp_path, out,
                                                                written, kind, overwritten):
        trace = tmp_path / "trace.csv"
        cfg = self.generate(runner, tmp_path, trace)
        before = self.files(tmp_path)
        result = runner.invoke(main, ["detect", "--in", str(trace), "--config", str(cfg),
                                      "--out", str(tmp_path / out)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert result.stderr == (f"faultwave: error: writing {tmp_path / written} would "
                                 f"overwrite the input {kind} {tmp_path / overwritten}\n")
        assert self.files(tmp_path) == before
        assert not (tmp_path / "sub").exists()

    def test_detect_index_on_a_symlinked_input_exits_2(self, runner, tmp_path):
        trace = tmp_path / "trace.csv"
        cfg = self.generate(runner, tmp_path, trace)
        link = tmp_path / "link.csv"
        link.symlink_to(trace)
        before = self.files(tmp_path)
        result = runner.invoke(main, ["detect", "--in", str(link), "--config", str(cfg),
                                      "--out", str(tmp_path / "trace.json")])
        assert result.exit_code == 2, (result.output, result.exception)
        assert result.stderr == (f"faultwave: error: writing {trace} would overwrite the input "
                                 f"trace {link}\n")
        assert self.files(tmp_path) == before

    @pytest.mark.parametrize("method, name", [
        ("wavelet", "index.csv"), ("ica", "index.csv"), ("wavelet", "coefficients.csv"),
        ("energy_ft", "spectrum.csv"), ("energy_stft", "spectrogram.csv"),
    ])
    def test_plot_data_output_on_the_input_exits_2_writing_nothing(self, runner, tmp_path,
                                                                   method, name):
        trace = tmp_path / "p" / name
        cfg = self.generate(runner, tmp_path, trace, method)
        before = self.files(tmp_path)
        result = runner.invoke(main, ["plot-data", "--in", str(trace), "--config", str(cfg),
                                      "--out", str(tmp_path / "p")])
        assert result.exit_code == 2, (result.output, result.exception)
        assert result.stderr == (f"faultwave: error: writing {trace} would overwrite the input "
                                 f"trace {trace}\n")
        assert self.files(tmp_path) == before

    @pytest.mark.parametrize("method", ["wavelet", "ica"])
    def test_plot_data_writes_the_voltage_pair_back_onto_the_input(self, runner, tmp_path,
                                                                   method):
        trace = tmp_path / "p" / "voltage.csv"
        cfg = self.generate(runner, tmp_path, trace, method)
        before = self.files(tmp_path / "p")
        result = runner.invoke(main, ["plot-data", "--in", str(trace), "--config", str(cfg),
                                      "--out", str(tmp_path / "p")])
        assert result.exit_code == 0, (result.output, result.exception)
        after = self.files(tmp_path / "p")
        assert {path: after[path] for path in before} == before


class TestOutputOnTheConfig:
    """Every subcommand exits 2 and writes nothing when an output would land on
    its own ``--config``: the run config, or the suite for ``energy-table``.
    ``plot-data``'s voltage pair may land on the input trace, not on the config."""

    @pytest.mark.parametrize("command, config, out, written", [
        ("detect", "run.json", "run.json", "run.json"),
        ("detect", "c.csv", "c.json", "c.csv"),
        ("generate", "g.json", "g.json", "g.json"),
        ("generate", "g.meta.json", "g.csv", "g.meta.json"),
        ("plot-data", "p/index.csv", "p", "p/index.csv"),
        ("plot-data", "p/coefficients.csv", "p", "p/coefficients.csv"),
        ("plot-data", "p/voltage.csv", "p", "p/voltage.csv"),
        ("plot-data", "p/voltage.meta.json", "p", "p/voltage.meta.json"),
        ("energy-table", "suite.json", "suite.json", "suite.json"),
    ], ids=["detect-report", "detect-index", "generate-trace", "generate-sidecar",
            "plot-data-index", "plot-data-dump", "plot-data-voltage", "plot-data-voltage-sidecar",
            "energy-table"])
    def test_output_on_the_config_exits_2_writing_nothing(self, runner, tmp_path, command,
                                                           config, out, written):
        trace = tmp_path / "trace.csv"
        cfg = write_json(tmp_path / "setup.json", AG_CONFIG)
        assert runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(trace)]).exit_code == 0
        cfg = tmp_path / config
        cfg.parent.mkdir(exist_ok=True)
        write_json(cfg, TestCmdEnergyTable().suite() if command == "energy-table" else AG_CONFIG)
        args = [] if command in ("generate", "energy-table") else ["--in", str(trace)]
        before = TestOutputOnTheInput.files(tmp_path)
        result = runner.invoke(main, [command, *args, "--config", str(cfg),
                                      "--out", str(tmp_path / out)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert result.stderr == (f"faultwave: error: writing {tmp_path / written} would "
                                 f"overwrite the input config {cfg}\n")
        assert TestOutputOnTheInput.files(tmp_path) == before


class TestErrorBoundary:
    """Every input the package rejects, and every file it cannot read or write,
    exits 2 with a `faultwave: error:` line, never with a traceback."""

    @pytest.fixture
    def inputs(self, runner, tmp_path) -> dict[str, list[str]]:
        cfg = write_json(tmp_path / "run.json", AG_CONFIG)
        trace = tmp_path / "trace.csv"
        assert runner.invoke(main, ["generate", "--config", str(cfg), "--out", str(trace)]).exit_code == 0
        suite = write_json(tmp_path / "suite.json",
                           {"scenarios": [{"name": "AG", "fault": AG_CONFIG["fault"]}]})
        return {"generate": ["--config", str(cfg)],
                "detect": ["--in", str(trace), "--config", str(cfg)],
                "plot-data": ["--in", str(trace), "--config", str(cfg)],
                "energy-table": ["--config", str(suite)]}

    @pytest.mark.parametrize("command", ["generate", "detect", "plot-data", "energy-table"])
    def test_out_under_a_file_exits_2(self, runner, tmp_path, inputs, command):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        result = runner.invoke(main, [command, *inputs[command], "--out", str(blocker / "out")])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "faultwave: error:" in result.output

    @pytest.mark.parametrize("out", [".", "", "/"])
    @pytest.mark.parametrize("command", ["generate", "detect", "energy-table"])
    def test_out_that_names_no_file_exits_2_with_one_line(self, runner, tmp_path, inputs,
                                                         monkeypatch, command, out):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        result = runner.invoke(main, [command, *inputs[command], "--out", out])
        assert result.exit_code == 2, (result.output, result.exception)
        assert result.stderr == f"faultwave: error: output path {str(Path(out))!r} names no file\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["generate", "energy-table"])
    def test_config_not_utf8_exits_2(self, runner, tmp_path, command):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes('{"channel": "\u00e9"}'.encode("latin-1"))
        result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "faultwave: error: malformed JSON in" in result.output

    @pytest.mark.parametrize(
        "command, file, doc",
        [("generate", "config", {"waveform": {"duration_s": BIG_INT}}),
         ("generate", "config", {"fault": {"fault_type": "AG", "onset_s": BIG_INT}}),
         ("generate", "config", {"waveform": {"phase_offsets_rad": [BIG_INT, 0, 0]}}),
         ("detect", "config", {"detector": {"method": "energy_ft", "cutoff_hz": BIG_INT}}),
         ("detect", "config", {"detector": {"threshold": {"fixed": BIG_INT}}}),
         ("detect", "sidecar", {"sample_rate_hz": BIG_INT}),
         ("detect", "sidecar", {"sample_rate_hz": 2000,
                                "fault": {"fault_type": "AG", "onset_s": BIG_INT}}),
         ("energy-table", "config",
          {"scenarios": [{"name": "x", "waveform": {"amplitude_pu": BIG_INT}}]})],
        ids=["duration", "onset", "phase_offset", "cutoff", "fixed_threshold", "sidecar_rate",
             "sidecar_onset", "suite_amplitude"],
    )
    def test_integer_beyond_float_range_exits_2(self, runner, tmp_path, inputs, command, file,
                                                doc):
        args = inputs[command]
        path = (sidecar_path(Path(args[1])) if file == "sidecar"
                else Path(args[args.index("--config") + 1]))
        write_json(path, doc)
        result = runner.invoke(main, [command, *args, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "does not fit a float" in result.output


class TestOutputFiles:
    def test_ascii_locale_writes_a_utf8_table(self, tmp_path):
        """Outputs are UTF-8 whatever the locale: the suite was read as UTF-8."""
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"scenarios": [{"name": "\u03a9fault",
                                                    "fault": AG_CONFIG["fault"]}]}))
        src = str(Path(faultwave.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIO"))}
        env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "faultwave", "energy-table", "--config",
                               str(suite), "--out", str(tmp_path / "table.csv")],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        rows = (tmp_path / "table.csv").read_bytes().splitlines()
        assert rows[1].startswith("\u03a9fault,".encode("utf-8"))

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["umask022", "umask027"])
    def test_files_get_the_mode_open_gives(self, runner, tmp_path, umask, mode):
        cfg = write_json(tmp_path / "run.json", AG_CONFIG)
        trace = tmp_path / "trace.csv"
        old = os.umask(umask)
        try:
            for args in (["generate", "--config", str(cfg), "--out", str(trace)],
                         ["detect", "--in", str(trace), "--config", str(cfg),
                          "--out", str(tmp_path / "report.json")]):
                result = runner.invoke(main, args)
                assert result.exit_code == 0, result.output
        finally:
            os.umask(old)
        for name in ("trace.csv", "trace.meta.json", "report.json", "report.csv"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


def known_key_paths() -> list[tuple[str, ...]]:
    """Every key a run config may hold, as a path from the document root."""
    sections = {"waveform": WaveformConfig, "fault": FaultSpec, "noise": NoiseSpec}
    paths = [(name, f.name) for name, cls in sections.items() for f in dataclasses.fields(cls)]
    paths += [("detector", key)
              for key in ("method", "threshold", "level", "cutoff_hz", "min_consecutive")]
    paths += [("detector", "threshold", key) for key in ("fixed", "k_sigma")]
    paths += [("spans", key) for key in ("calibration", "analysis")]
    return paths + [(key,) for key in (*sections, "detector", "spans", "channel")]


FUZZ_VALUES = st.one_of(
    st.integers(-10**4, 10**4), st.floats(), st.booleans(), st.text(max_size=4),
    st.lists(st.integers(-10**3, 10**3), max_size=3), st.none(),
)


class TestConfigFuzz:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory) -> Path:
        trace = tmp_path_factory.mktemp("fuzz") / "trace.csv"
        write_record_csv(trace, make_record("AG", snr_db=20.0, seed=1))  # 400 samples
        return trace

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.sampled_from(known_key_paths()), FUZZ_VALUES,
                           min_size=1, max_size=3))
    @example({("waveform", "duration_s"): 1e306})
    @example({("waveform", "fundamental_hz"): 5e-324})
    @example({("noise", "snr_db"): 1e308})
    @example({("fault", "onset_s"): BIG_INT})
    @example({("waveform", "amplitude_pu"): float("inf")})
    @example({("noise", "snr_db"): -3086.0})
    @example({("fault", "fault_type"): "AG", ("fault", "transient_freq_hz"): 1e308})
    @example({("fault", "fault_type"): "AG", ("fault", "transient_tau_s"): 5e-324})
    def test_detect_exits_0_2_or_3_never_1(self, trace, settings_):
        for method in METHODS:
            config: dict = {"detector": {"method": method}}
            for path, value in settings_.items():
                node = config
                for key in path[:-1]:
                    if not isinstance(node.get(key), dict):
                        node[key] = {}
                    node = node[key]
                node[path[-1]] = value
            cfg = write_json(trace.parent / "fuzz.json", config)
            result = CliRunner().invoke(
                main, ["detect", "--in", str(trace), "--config", str(cfg),
                       "--out", str(trace.parent / "r.json")]
            )
            assert result.exit_code in (0, 2, 3), (config, result.output, result.exception)
        if self.record_fits_in_a_test(config):
            with warnings.catch_warnings(record=True) as caught:  # a console run prints them
                warnings.simplefilter("always")
                result = CliRunner().invoke(
                    main, ["generate", "--config", str(cfg), "--out", str(trace.parent / "g.csv")])
            assert result.exit_code in (0, 2), (config, result.output, result.exception)
            assert [str(w.message) for w in caught] == [], config
            if result.exit_code == 2:
                assert result.stderr.splitlines() == [result.stderr.strip()], config

    @staticmethod
    def record_fits_in_a_test(config: dict) -> bool:
        """False for a valid config whose record is too long to write here (a duration
        of 10**4 s is 2e7 samples); an invalid one must still exit 2."""
        try:
            return parse_run_config(config).waveform.n_samples <= 10**5
        except FaultwaveError:
            return True


# One edit of a trace CSV: rows and columns count from the header, modulo the size.
TRACE_EDITS = st.one_of(
    st.tuples(st.just("truncate_row"), st.integers(0, 400), st.integers(0, 40)),
    st.tuples(st.just("repeat_time"), st.integers(1, 400)),
    st.tuples(st.just("set_field"), st.integers(0, 400), st.integers(0, 3),
              st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "", "x", "true"])),
    st.tuples(st.just("drop_column"), st.integers(0, 3)),
    st.tuples(st.just("insert_bytes"), st.integers(0, 30_000), st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("retime"), st.sampled_from([2.0, 0.5, 1.02])),
)
SIDECAR_EDITS = st.one_of(
    st.tuples(st.sampled_from(["keep", "delete"])),
    st.tuples(st.just("set_rate"), FUZZ_VALUES | st.just(BIG_INT)),
    st.tuples(st.just("replace_bytes"), st.binary(max_size=24)),
)


def _retimed(line: str, factor: float) -> str:
    """``line`` with its time scaled by ``factor`` and written as the writer does."""
    t, *rest = line.split(",")
    try:
        return ",".join([FLOAT_FMT % (float(t) * factor), *rest])
    except ValueError:  # the header, or a time another edit made unreadable
        return line


def mutate_trace(text: str, edits) -> bytes:
    """``text`` with the line edits applied in order, then encoded, then the byte inserts."""
    lines = text.splitlines()
    inserts = []
    for kind, *args in edits:
        if kind == "insert_bytes":
            inserts.append(args)
            continue
        if kind == "drop_column":
            lines = [",".join(f for j, f in enumerate(line.split(",")) if j != args[0])
                     for line in lines]
            continue
        if kind == "retime":
            lines = [_retimed(line, args[0]) for line in lines]
            continue
        i = args[0] % len(lines)
        fields = lines[i].split(",")
        if kind == "truncate_row":
            lines[i] = lines[i][:args[1]]
        elif kind == "repeat_time":
            lines[i] = ",".join([lines[i - 1].split(",")[0], *fields[1:]])
        elif args[1] < len(fields):  # set_field
            fields[args[1]] = args[2]
            lines[i] = ",".join(fields)
    data = ("\n".join(lines) + "\n").encode()
    for offset, chunk in inserts:
        offset %= len(data) + 1
        data = data[:offset] + chunk + data[offset:]
    return data


class TestTraceFuzz:
    @pytest.fixture(scope="class")
    def original(self, tmp_path_factory) -> tuple[Path, str, dict]:
        trace = tmp_path_factory.mktemp("trace_fuzz") / "trace.csv"
        write_record_csv(trace, make_record("AG", snr_db=20.0, seed=1))  # 400 samples
        return trace, trace.read_text(), json.loads(sidecar_path(trace).read_text())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(TRACE_EDITS, max_size=3), SIDECAR_EDITS, st.sampled_from(METHODS))
    @example([("truncate_row", 7, 12)], ("keep",), "wavelet")
    @example([("repeat_time", 50)], ("delete",), "wavelet")
    @example([("set_field", 51, 0, "nan")], ("delete",), "wavelet")
    @example([("retime", 2.0), ("set_field", 51, 0, "nan")], ("keep",), "wavelet")
    @example([("set_field", 9, 1, "nan"), ("set_field", 9, 0, "inf")], ("delete",), "ica")
    @example([("set_field", 400, 0, "-inf")], ("delete",), "energy_ft")
    @example([], ("set_rate", True), "wavelet")
    @example([], ("set_rate", BIG_INT), "wavelet")
    @example([], ("set_rate", -1e308), "energy_stft")
    @example([("drop_column", 3)], ("keep",), "energy_wt")
    @example([("insert_bytes", 100, b"\xff\xfe")], ("replace_bytes", b'{"x": "\xff"}'), "wavelet")
    def test_detect_exits_0_2_or_3_never_1(self, original, edits, sidecar_edit, method):
        trace, text, sidecar = original
        trace.write_bytes(mutate_trace(text, edits))
        kind, *args = sidecar_edit
        meta = sidecar_path(trace)
        if kind == "keep":
            write_json(meta, sidecar)
        elif kind == "delete":
            meta.unlink(missing_ok=True)
        elif kind == "set_rate":
            write_json(meta, dict(sidecar, sample_rate_hz=args[0]))
        else:
            meta.write_bytes(args[0])
        cfg = write_json(trace.parent / "run.json", dict(AG_CONFIG, detector={"method": method}))
        result = CliRunner().invoke(
            main, ["detect", "--in", str(trace), "--config", str(cfg),
                   "--out", str(trace.parent / "r.json")]
        )
        assert result.exit_code in (0, 2, 3), (edits, sidecar_edit, result.output,
                                               result.exception)
