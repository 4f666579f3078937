"""The transform layer is array-in, array-out: of the library modules only
``signal_model`` (which defines it), ``detect`` and the package ``__init__.py``
name ``Trace``. ``dwt``, ``spectral``, ``io`` and ``cli`` take a channel's
samples and its rate. What a ``Trace`` checked, they check: every transform
rejects samples that are not 1-D, and what reads the rate rejects one that is
not finite and positive.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from faultwave import (ConfigError, ShapeError, dft, dwt_decompose, highband_energy_index, stft,
                       wavelet_energy_index)
from faultwave.io import write_spectrogram_csv, write_spectrum_csv
from conftest import rng_trace

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "faultwave"
TRACE_MODULES = {"signal_model.py", "detect.py", "__init__.py"}
ARRAY_MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name not in TRACE_MODULES)


def names_trace(source: str) -> bool:
    """Whether ``source`` defines, imports or reads ``Trace``, bare or as an attribute."""
    return any(
        isinstance(node, ast.Name) and node.id == "Trace"
        or isinstance(node, ast.Attribute) and node.attr == "Trace"
        or isinstance(node, ast.alias) and "Trace" in (node.name, node.asname)
        or isinstance(node, ast.ClassDef) and node.name == "Trace"
        for node in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("source", [
    "from .signal_model import Trace\n",
    "from . import signal_model as sm\nx = sm.Trace\n",
    "def f(trace: Trace) -> None: ...\n",
    "class Trace: ...\n",
])
def test_trace_is_found(source):
    assert names_trace(source)


def test_trace_in_a_string_or_another_name_is_not_found():
    assert not names_trace('"""A Trace."""\nTraceback = trace = 1\n')


@pytest.mark.parametrize("path", ARRAY_MODULES, ids=[path.name for path in ARRAY_MODULES])
def test_module_names_no_trace(path):
    assert not names_trace(path.read_text())


# Each transform and dump writer, called on ``samples`` (and ``path``, where it writes).
ARRAY_CALLS = {
    "dwt_decompose": lambda samples, path: dwt_decompose(samples, 1),
    "wavelet_energy_index": lambda samples, path: wavelet_energy_index(samples, 1, (0, 2)),
    "dft": lambda samples, path: dft(samples),
    "stft": lambda samples, path: stft(samples),
    "highband_energy_index":
        lambda samples, path: highband_energy_index(samples, 2000.0, 150.0, (0, 2)),
    "write_spectrum_csv": lambda samples, path: write_spectrum_csv(path, samples, 2000.0),
    "write_spectrogram_csv": lambda samples, path: write_spectrogram_csv(path, samples, 2000.0),
}


@pytest.mark.parametrize("shape", [(3, 64), (64, 3)], ids=["3x64", "64x3"])
@pytest.mark.parametrize("call", ARRAY_CALLS.values(), ids=ARRAY_CALLS.keys())
def test_samples_that_are_not_one_dimensional_raise_shape_error(call, shape, tmp_path):
    """No transform reads a 2-D array as a flat buffer, and no writer leaves a file."""
    with pytest.raises(ShapeError, match=re.escape(f"samples must be 1-D, got shape {shape}")):
        call(rng_trace(shape[0] * shape[1]).reshape(shape), tmp_path / "dump.csv")
    assert list(tmp_path.iterdir()) == []


# Each reader of a rate, called on ``samples``, ``rate`` and ``path`` (where it writes).
RATE_CALLS = {
    "highband_energy_index":
        lambda samples, rate, path: highband_energy_index(samples, rate, 150.0, (0, 400)),
    "write_spectrum_csv": lambda samples, rate, path: write_spectrum_csv(path, samples, rate),
    "write_spectrogram_csv":
        lambda samples, rate, path: write_spectrogram_csv(path, samples, rate),
}


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -2000.0])
@pytest.mark.parametrize("call", RATE_CALLS.values(), ids=RATE_CALLS.keys())
def test_rate_that_is_not_finite_and_positive_raises_config_error(call, rate, tmp_path):
    with pytest.raises(ConfigError):
        call(rng_trace(400), rate, tmp_path / "dump.csv")
    assert list(tmp_path.iterdir()) == []
