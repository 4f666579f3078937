"""The exported names and the functions the benchmark's tracer wraps all exist.

``bench/tracing.py`` replaces the functions named in its ``TARGETS`` by timing
wrappers and reads a few result fields through ``OBSERVERS``; a name deleted
from the package would only surface when a traced benchmark run fails. The
file is parsed, not imported, so nothing under ``bench/`` is executed here.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import faultwave
from faultwave.ica import IcaModel

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def tracing_targets() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


@pytest.mark.parametrize("name", faultwave.__all__)
def test_exported_name_resolves(name):
    assert hasattr(faultwave, name)


def test_every_traced_function_exists():
    missing = [f"{layer}.{name}" for layer, names in tracing_targets().items()
               for name in names
               if not callable(getattr(importlib.import_module(f"faultwave.{layer}"), name, None))]
    assert missing == []


def test_observed_fastica_fields_exist():
    assert {"iterations_used", "converged"} <= {f.name for f in dataclasses.fields(IcaModel)}


def test_spans_is_one_class_defined_in_signal_model():
    from faultwave import detect, io, signal_model
    assert faultwave.Spans is detect.Spans is io.Spans is signal_model.Spans
    assert signal_model.Spans.__module__ == "faultwave.signal_model"
