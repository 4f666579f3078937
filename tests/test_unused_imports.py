"""Every name a library module or a demo imports is used in that file, and the CLI
loads no package beyond its runtime dependencies, numpy and click.

A deletion can leave an import behind that nothing reads any more. The
package ``__init__.py`` is skipped: its imports are the exported names.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "faultwave"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
DEMOS = sorted((PACKAGE.parents[1] / "demos").glob("0*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression of ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(tau)\n") == [
        "line 1: os", "line 2: pi"]


@pytest.mark.parametrize("path", MODULES + DEMOS, ids=[path.name for path in MODULES + DEMOS])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_cli_loads_no_test_or_optional_package():
    """A fresh interpreter, run beside the package so it imports this one."""
    code = "import sys, faultwave.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, check=True, cwd=PACKAGE.parent).stdout.split()
    assert "faultwave.cli" in loaded
    assert [name for name in loaded
            if name.split(".")[0] in ("scipy", "hypothesis", "pytest", "_pytest")] == []
