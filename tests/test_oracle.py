"""The reference implementations stay independent of the package they check."""

import ast
from pathlib import Path


def test_oracle_imports_nothing_from_cychom():
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "cychom"] == []
