"""Outside-in span tracing of faultwave's public functions.

A :class:`Tracer` replaces each function named in :data:`TARGETS` by a
wrapper, on its home module and on every other ``faultwave`` module that
rebound the same function object through ``from ... import`` (such as
``detect.performance_index`` or the names ``cli`` imports), so calls between
layers are caught. Nothing inside ``src/`` is changed: the wrappers live here
and are removed again by :meth:`Tracer.uninstall`.

Spans (name, parent, start, end) are kept in flat in-memory arrays and written
out as one ``.npz`` file when a run ends. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

TARGETS = {
    "signal_model": ("generate_baseline", "inject_fault", "add_noise"),
    "dwt": ("dwt_decompose", "wavelet_energy_index", "detail_series", "boundary_artifact_mask"),
    "spectral": ("dft", "highband_energy_index", "stft"),
    "ica": ("performance_index", "fit_ica", "whiten", "fastica"),
    "detect": ("wavelet_detect", "ica_detect", "energy_detect"),
    "io": ("write_record_csv", "read_record_csv", "write_series_csv",
           "load_run_config", "load_suite"),
}


def _csv_bytes(path, with_sidecar: bool = False) -> int:
    path = Path(path)
    size = path.stat().st_size
    sidecar = path.with_suffix(".meta.json")
    if with_sidecar and sidecar.exists():
        size += sidecar.stat().st_size
    return size


# Values read from a call's arguments or result, kept per function name.
OBSERVERS = {
    "ica.fastica": lambda result, args: (result.iterations_used, bool(result.converged)),
    "detect.energy_detect": lambda result, args: int(result.index_series.shape[0]),
    "io.write_record_csv": lambda result, args: _csv_bytes(args[0], with_sidecar=True),
    "io.read_record_csv": lambda result, args: _csv_bytes(args[0], with_sidecar=True),
    "io.write_series_csv": lambda result, args: _csv_bytes(args[0]),
}


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.observed: dict[str, list] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        per_method = name == "detect.energy_detect"

        def traced(*args, **kwargs):
            span = name
            if per_method:
                span = f"{name}.{args[1] if len(args) > 1 else kwargs['method']}"
            idx = len(self.end)
            self.name_id.append(self._name_id(span))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if observe is not None:
                self.observed.setdefault(name, []).append(observe(result, args))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "faultwave" or n.startswith("faultwave.")]
        for layer, fn_names in TARGETS.items():
            home = importlib.import_module(f"faultwave.{layer}")
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                traced = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def log(self, meta: dict | None = None) -> dict:
        return {
            "names": list(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).astype(np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "observed": dict(self.observed),
            "meta": meta or {},
        }


def save(path: Path, log: dict) -> None:
    np.savez_compressed(
        path, names=np.array(log["names"], dtype=str), name_id=log["name_id"],
        parent=log["parent"], start=log["start"], end=log["end"],
        observed=json.dumps(log["observed"]), meta=json.dumps(log["meta"]),
    )


def load(path: Path) -> dict:
    with np.load(path) as data:
        return {
            "names": [str(n) for n in data["names"]],
            "name_id": data["name_id"], "parent": data["parent"],
            "start": data["start"], "end": data["end"],
            "observed": json.loads(str(data["observed"])),
            "meta": json.loads(str(data["meta"])),
        }


def concat(logs: list[dict]) -> dict:
    """One log holding every span of ``logs``; parents and names re-indexed."""
    index: dict[str, int] = {}
    parts = {"name_id": [], "parent": [], "start": [], "end": []}
    observed: dict[str, list] = {}
    offset = 0
    for log in logs:
        remap = np.array([index.setdefault(n, len(index)) for n in log["names"]] or [0],
                         dtype=np.int32)
        parts["name_id"].append(remap[log["name_id"]])
        parts["parent"].append(np.where(log["parent"] >= 0, log["parent"] + offset, -1))
        parts["start"].append(log["start"])
        parts["end"].append(log["end"])
        for key, values in log["observed"].items():
            observed.setdefault(key, []).extend(values)
        offset += len(log["start"])
    arrays = {k: np.concatenate(v) if v else np.zeros(0) for k, v in parts.items()}
    return {"names": list(index), **arrays, "observed": observed, "meta": {}}


def summarize(log: dict) -> dict[str, dict]:
    """Per span name: call count, summed self time and summed duration (s)."""
    dur = log["end"] - log["start"]
    parent = log["parent"].astype(np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    ids = log["name_id"].astype(np.int64)
    width = len(log["names"])
    calls = np.bincount(ids, minlength=width)
    self_sum = np.bincount(ids, weights=self_time, minlength=width)
    total = np.bincount(ids, weights=dur, minlength=width)
    return {
        name: {"calls": int(calls[i]), "self_s": float(self_sum[i]), "total_s": float(total[i])}
        for i, name in enumerate(log["names"])
    }
