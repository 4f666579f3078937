"""Every JSON block of README.md is a config the parser accepts.

Suites (blocks with ``scenarios``) go through ``load_suite``, with every
scenario parsed as well; all other blocks through ``parse_run_config``. A
block that names every section documents the defaults and must equal what
``{}`` resolves to.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from faultwave.io import load_suite, parse_run_config

README = Path(__file__).parents[1] / "README.md"
BLOCKS = [json.loads(block) for block in
          re.findall(r"^```json\n(.*?)^```", README.read_text(), re.S | re.M)]
DEFAULTS = json.loads(json.dumps(parse_run_config({}).to_dict()))


def test_readme_has_run_config_and_suite_blocks():
    assert any("scenarios" in block for block in BLOCKS)
    assert any(set(block) == set(DEFAULTS) for block in BLOCKS)


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_json_block_parses(block, tmp_path):
    if "scenarios" in block:
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(block))
        scenarios = load_suite(path)
        for _, merged in scenarios:
            parse_run_config(merged)
        return
    parse_run_config(block)
    if set(block) == set(DEFAULTS):
        assert block == DEFAULTS
