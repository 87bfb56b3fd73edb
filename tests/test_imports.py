"""Every name a module of the package imports is read by that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mgsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unread_imports(source):
    """Names the imports of ``source`` bind that no expression reads (a
    mention in a docstring or comment is not a read)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_unread_imports_are_found():
    source = ('"""Takes PhysParams."""\n'
              "from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .symbol import PhysParams, PlaneSpec as P\n"
              "x: P = np.zeros(3)\n")
    assert _unread_imports(source) == ["PhysParams", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text()) == []
