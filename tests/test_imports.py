"""The runtime is standard-library only: src/bpc imports nothing else."""

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
