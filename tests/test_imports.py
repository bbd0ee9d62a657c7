"""Every name a module of the package imports is read somewhere in it."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cychom"


def unused_imports(source):
    """The names that source imports (anywhere in it) and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_finds_a_name_never_read():
    source = ("import os\nimport sys\nfrom math import gcd, prod\n"
              "from __future__ import annotations\n"
              "def f():\n    from json import dumps\n    return sys.argv, prod\n")
    assert unused_imports(source) == [(1, "os"), (3, "gcd"), (6, "dumps")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
