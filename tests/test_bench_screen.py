"""Every benchmark screen is correct: the check the benchmark counts failures by.

``bench/run.py`` counts a screen as failed when ``workloads.check_screen``
finds a missed verdict or a malformed report in it, and a change that fails
more screens than its parent is refused. This runs that check on the
``paper-grid`` and ``long-record`` cases of three seeds, so a change that
moves a verdict or an onset fails here first.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("geometry", ["PAPER", "LONG"])
def test_every_screen_is_correct(geometry, seed):
    for case in workloads.build_cases(getattr(workloads, geometry), seed, 1):
        verdicts, missed, malformed = workloads.check_screen(case, workloads.screen(case)[0])
        assert verdicts == 2 + 3 * len(workloads.det.ENERGY_METHODS)
        assert (missed, malformed) == ([], 0), case.label
