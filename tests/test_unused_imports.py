"""Every name a module of the package or of the tests imports is used, and
every module-level name of the package is read somewhere.

AST scans, with no tool beyond the standard library:
- a module's imported names (the bound name of `import a.b`, `import a as
  b` and `from m import n as b`) must each appear as a name somewhere in the
  module;
- each function, class or variable a package module defines at module level
  must be read by some module of the package or of the tests: loaded as a
  name, taken as an attribute, or imported by name. Dunder names are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "morphdet").glob("*.py"))
SCANNED = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def unread_module_names(defining, reading):
    """(module, line, name) of each module-level name that a source of
    defining ({module: source}) defines and no source of reading reads."""
    read = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            unread += [(module, node.lineno, name) for name in names
                       if not name.startswith("__") and name not in read]
    return unread


def test_every_module_level_name_of_the_package_is_read():
    sources = {path: path.read_text(encoding="utf-8") for path in SCANNED}
    package = {path.name: sources[path] for path in PACKAGE}
    assert unread_module_names(package, sources.values()) == []


def test_the_scan_finds_an_unread_module_level_name():
    defining = {"m.py": ("A, (B, C) = 1, (2, 3)\nD: int = 4\n__all__ = []\n"
                         "def f():\n    return A\n\nclass K:\n    pass\n"
                         "async def g():\n    pass\n\nE = 5\n")}
    # E is assigned elsewhere, which is not a read
    reading = [defining["m.py"], "from m import K\nimport m\nprint(m.g, C)\nE = 6\n"]
    assert unread_module_names(defining, reading) == [
        ("m.py", 1, "B"), ("m.py", 2, "D"), ("m.py", 4, "f"), ("m.py", 12, "E")]
