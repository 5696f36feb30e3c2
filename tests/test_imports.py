"""The runtime is standard-library only: src/bpc imports nothing else,
and each of its modules uses every name it imports."""

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bpc"


def _absolute(source):
    """The top-level names of source's absolute imports, in order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


def _foreign(source):
    """The top-level names of source's absolute imports that are neither
    bpc nor a standard-library module, in order."""
    return [top for top in _absolute(source) if top != "bpc" and top not in sys.stdlib_module_names]


def test_the_check_names_third_party_imports():
    source = "import json, numpy.linalg\nfrom hypothesis import given\nfrom . import cli\n"
    assert _foreign(source) == ["numpy", "hypothesis"]


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert {f.name: _foreign(f.read_text(encoding="utf-8")) for f in files} == {f.name: [] for f in files}


def test_src_does_not_import_dataclasses():
    """A dataclass generates and compiles its methods when its module is
    imported, and ``dataclasses`` loads ``inspect`` (and with it ``ast``,
    ``dis`` and ``tokenize``): start-up that every command pays.  Value
    classes subclass ``structures._Frozen`` instead."""
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [f.name for f in files if "dataclasses" in _absolute(f.read_text(encoding="utf-8"))] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Under ``python -S`` (no site hooks), importing bpc.cli adds neither
    module to those its own other standard-library imports load, so a
    Python whose standard library loads inspect by itself does not fail."""
    tops = {top for f in SRC.glob("*.py") for top in _absolute(f.read_text(encoding="utf-8"))}
    stdlib = sorted(tops - {"bpc", "dataclasses", "inspect"})
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r})\n"
        f"for name in {stdlib!r}: __import__(name)\n"
        "before = set(sys.modules); import bpc.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


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
