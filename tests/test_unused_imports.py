"""Every name a module of the package or of the tests imports is used.

An AST scan, with no tool beyond the standard library: a module's imported
names (the bound name of `import a.b`, `import a as b` and `from m import
n as b`) must each appear as a name somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted((ROOT / "src" / "morphdet").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    imported = [(node.lineno, alias.asname or alias.name.split(".")[0])
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "import x.y\n\nprint(np.pi, e, x.y)\n")
    assert unused_imports(source) == [(1, "os"), (3, "c")]
