"""Every module under ``src/streamfdr`` uses each name it imports.

No linter is installed where the tests run, so this parses the modules with
``ast`` alone.  A name counts as used when the module reads it anywhere
(``np`` in ``np.zeros`` included) or lists it in ``__all__``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "streamfdr"


def unused_imports(source: str) -> list:
    """The names that ``source`` imports and never uses, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport numpy as np\n"
              "from typing import Optional, Sequence\n"
              "x: Sequence = np.zeros(sys.maxsize)\n")
    assert unused_imports(source) == ["Optional", "os"]
    assert unused_imports("from m import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
