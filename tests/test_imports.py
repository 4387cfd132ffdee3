"""Every name a module imports is read somewhere in it.

A scan of the syntax trees (ast) of the package's modules and the test
modules, in place of a linter: an imported name that no expression reads
fails, unless its import line says `# noqa: F401` (an import kept for
another module to read or patch, as pacing's shade_bids, which the bench
tracer wraps).  The package's __init__.py is skipped: its imports are the
package's API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for p in [*(ROOT / "src" / "dualbid").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, each with its line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import math\nfrom os import path, sep  # noqa: F401\nfrom os import (\n    name,\n)\n"
    assert unused_imports(source + "print(math.pi)\n") == ["name (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
