"""The runtime is standard-library only: src/bpc imports nothing else,
and each of its modules uses every name it imports."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bpc"


def _foreign(source):
    """The top-level names of source's absolute imports that are neither
    bpc nor a standard-library module, in order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = [name.partition(".")[0] for name in names]
    return [top for top in tops if top != "bpc" and top not in sys.stdlib_module_names]


def test_the_check_names_third_party_imports():
    source = "import json, numpy.linalg\nfrom hypothesis import given\nfrom . import cli\n"
    assert _foreign(source) == ["numpy", "hypothesis"]


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert {f.name: _foreign(f.read_text(encoding="utf-8")) for f in files} == {f.name: [] for f in files}


def _unused(source):
    """The names source's imports bind that it never reads, in order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_names_unused_imports():
    source = "import os.path, re as regex\nfrom json import dumps, loads\nprint(os.sep, loads)\n"
    assert _unused(source) == ["regex", "dumps"]


def test_src_modules_use_every_name_they_import():
    """__init__.py is exempt: it imports to re-export."""
    files = sorted(f for f in SRC.glob("*.py") if f.name != "__init__.py")
    assert files
    assert {f.name: _unused(f.read_text(encoding="utf-8")) for f in files} == {f.name: [] for f in files}
