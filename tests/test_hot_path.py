"""A warm detector screen calls numpy's C routines, not its Python wrappers.

On the paper's 400-sample record each call into a numpy Python-level wrapper
(``np.argmax``, ``ndarray.sum``, ``.all``, ``.max``, ``np.any``, ...) costs
about as much as the array work it wraps, so the detection path calls the C
routine each wrapper ends in instead: the ndarray method for ``argmax``,
``cumsum`` and ``repeat``, and the ufunc reduction (``np.add.reduce``,
``np.maximum.reduce``, ``np.logical_and.reduce``, ``np.logical_or.reduce``)
for ``sum``, ``max``, ``all`` and ``any``. This test profiles one warm screen,
as the benchmark runs it, and fails on any call into a function defined in
numpy's ``fromnumeric.py`` or ``_methods.py``; it matches the file name, so
it holds for numpy 1.x (``numpy/core``) and 2.x (``numpy/_core``) alike.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

WRAPPER_FILES = {"fromnumeric.py", "_methods.py"}


def wrapper_calls(call) -> list[str]:
    """``call()`` under a profiler; every entry into a numpy wrapper, with its caller."""
    seen = []

    def profile(frame, event, arg):
        if event != "call" or os.path.basename(frame.f_code.co_filename) not in WRAPPER_FILES:
            return
        caller = os.path.basename(frame.f_back.f_code.co_filename)
        if caller not in WRAPPER_FILES:  # name the call site, not the wrappers' own calls
            seen.append(f"{frame.f_code.co_name} from {caller}:{frame.f_back.f_lineno}")

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("geometry", [workloads.PAPER, workloads.LONG],
                         ids=lambda g: f"{g.n_samples}-samples")
@pytest.mark.parametrize("condition", ["snr20", "f49.5"],
                         ids=["50Hz-noisy", "49.5Hz-clean"])
def test_warm_screen_enters_no_numpy_python_wrapper(geometry, condition):
    case = workloads.make_case(geometry, "AG", condition, noise_seed=7)
    assert case.record.n_samples == geometry.n_samples
    assert case.f0 == (49.5 if condition == "f49.5" else 50.0)
    workloads.screen(case)  # build every plan once; the benchmark screens warm
    reports = []
    assert wrapper_calls(lambda: reports.extend(workloads.screen(case)[0])) == []
    assert [stage for stage, _, _ in reports] == list(workloads.STAGES[:2]) + [
        method for method in workloads.STAGES[2:] for _ in "abc"]


def test_the_profiler_sees_each_kind_of_wrapper_call():
    x = np.arange(4.0)

    def wrapped():
        np.argmax(x)
        x.sum()
        np.any(x)

    def direct():
        x.argmax()
        np.add.reduce(x, None)
        np.logical_or.reduce(x, None, bool)

    call_lines = {call.rsplit(":", 1)[1] for call in wrapper_calls(wrapped)}
    assert len(call_lines) == 3
    assert wrapper_calls(direct) == []
