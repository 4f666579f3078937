"""Every demo script runs to completion (they write only to demos/out/)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import faultwave

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_0(demo):
    # a script's own directory, not the cwd, heads its sys.path
    package_root = str(Path(faultwave.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
