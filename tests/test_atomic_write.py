"""Artifacts are written atomically, and written and deleted only by pgm.py.

An interrupted write must leave the final path as it was before: absent, or
holding its earlier bytes. No temporary file may stay behind.
"""

import ast
import os
import pathlib

import numpy as np
import pytest

from morphdet import evalbench, nncore, pgm, synthfaces

SRC = pathlib.Path(synthfaces.__file__).parent

# (module whose write_file binding the writer calls, file name, writer)
WRITERS = [
    (nncore, "model.mdck", lambda path, rows: nncore.write_checkpoint(
        path, {"kind": "test"}, ((name, np.full((2, 3), value)) for name, value in rows))),
    (evalbench, "scores.tsv", evalbench.write_scores),
    (synthfaces, "manifest.tsv", lambda path, rows: synthfaces.write_dataset_manifest(
        path, ((f"images/{name}.pgm", int(value * 4), "bonafide") for name, value in rows))),
]
ROWS = [("p0", 0.25), ("p1", 0.5), ("p2", 0.75)]


def _fail_replace(monkeypatch, _module):
    def replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(pgm.os, "replace", replace)
    return OSError


def _fail_midway(monkeypatch, module):
    """Pass the writer's chunks through, then interrupt after two of them."""
    def write_file(path, chunks):
        def interrupted():
            for k, chunk in enumerate(chunks):
                if k == 2:
                    raise KeyboardInterrupt
                yield chunk

        pgm.write_file(path, interrupted())

    monkeypatch.setattr(module, "write_file", write_file)
    return KeyboardInterrupt


@pytest.mark.parametrize("module, name, writer", WRITERS, ids=["checkpoint", "scores", "manifest"])
@pytest.mark.parametrize("fail", [_fail_replace, _fail_midway], ids=["replace", "midway"])
@pytest.mark.parametrize("earlier", [None, b"earlier bytes\n"], ids=["new", "existing"])
def test_interrupted_write_leaves_the_earlier_file(tmp_path, monkeypatch, module, name, writer,
                                                   fail, earlier):
    path = tmp_path / name
    writer(path, ROWS)
    complete = path.read_bytes()
    if earlier is None:
        path.unlink()
    else:
        path.write_bytes(earlier)
    with pytest.raises(fail(monkeypatch, module)):
        writer(path, ROWS)
    monkeypatch.undo()
    if earlier is None:
        assert os.listdir(tmp_path) == []
    else:
        assert os.listdir(tmp_path) == [name] and path.read_bytes() == earlier
    writer(path, ROWS)
    assert os.listdir(tmp_path) == [name] and path.read_bytes() == complete


def _write_opens(tree):
    """Line numbers of open() calls whose mode is not a read-only constant."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id",
                                                       getattr(node.func, "attr", None)) == "open"):
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax") for m in modes):
            lines.append(node.lineno)
    return lines


def test_only_pgm_opens_files_for_writing():
    assert _write_opens(ast.parse((SRC / "pgm.py").read_text()))  # the scan sees writes
    offenders = {path.name: _write_opens(ast.parse(path.read_text()))
                 for path in sorted(SRC.glob("*.py")) if path.name != "pgm.py"}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


# os and shutil calls that delete, and the Path methods that do
_DELETERS = {"remove", "unlink", "rmdir", "removedirs", "rmtree"}


def _deletes(tree):
    """Line numbers of calls that delete files or directories: os.remove and
    its kin, shutil.rmtree, and any .unlink(), .rmdir() or .rmtree() call,
    and of imports of those names from os or shutil."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            module = getattr(node.func.value, "id", None)
            if node.func.attr in _DELETERS - {"remove"} or (
                    node.func.attr == "remove" and module == "os"):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "shutil"):
            if any(alias.name in _DELETERS for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_only_pgm_deletes_files():
    assert _deletes(ast.parse((SRC / "pgm.py").read_text()))  # the scan sees deletes
    offenders = {path.name: _deletes(ast.parse(path.read_text()))
                 for path in sorted(SRC.glob("*.py")) if path.name != "pgm.py"}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


def test_the_delete_scan_finds_every_form():
    source = ("import os, shutil\nfrom os import unlink\nos.remove(a)\nshutil.rmtree(b)\n"
              "path.unlink()\nitems.remove(c)\nos.rmdir(d)\n")
    assert _deletes(ast.parse(source)) == [2, 3, 4, 5, 7]
