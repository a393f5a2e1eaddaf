"""No module of the package imports a `_`-prefixed name from another.

A private name belongs to the module that defines it: the decision it
encodes (how psi is sampled, say) then has one owner, and that module can
change it without reading any other.
"""

import ast
from pathlib import Path

import pytest

import degenrd

_SRC = Path(degenrd.__file__).parent


def private_imports(source: str) -> list[str]:
    """`line: from module import name` for every `_`-prefixed name that
    `source` imports from a module of the package, by a relative import
    or by the name `degenrd`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level == 0 and module.split(".")[0] != "degenrd":
            continue
        found.extend(f"{node.lineno}: from {module} import {a.name}"
                     for a in node.names if a.name.startswith("_"))
    return found


def test_scanner_flags_private_names_of_the_package():
    src = ("from __future__ import annotations\n"
           "from ._private import public\n"
           "from .weights import (PsiJet,\n"
           "                      _sample_points)\n"
           "from numpy import _core\n"
           "def f():\n"
           "    from degenrd.grid import _spacing, build_grid\n"
           "    from . import _helpers\n")
    assert private_imports(src) == [
        "3: from .weights import _sample_points",
        "7: from degenrd.grid import _spacing",
        "8: from . import _helpers"]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_name_imported_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
