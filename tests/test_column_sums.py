"""Coordinate sums go through `grid.rowdot`, column by column.

numpy reduces a short last axis (the `dim` coordinates of an (m, dim)
array) in a scalar loop per row: `np.sum(x * x, axis=-1)` and
`np.linalg.norm(x, axis=-1)` take some 8x the time of the same sums taken
column by column, with equal bits.  The package source therefore calls
neither `np.linalg.norm` nor `np.sum` along an axis; whole-array sums
(`np.sum(x)`, `(w * v).sum()`) are untouched.
"""

import ast
from pathlib import Path

import pytest

import degenrd

_SRC = Path(degenrd.__file__).parent


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def axis_reductions(source: str) -> list[str]:
    """`line: call` for every `np.linalg.norm` call, and every `np.sum`
    call given an axis (by keyword or as its second argument)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name in ("np.linalg.norm", "numpy.linalg.norm"):
            found.append(f"{node.lineno}: {name}")
        elif name in ("np.sum", "numpy.sum") and (
                len(node.args) > 1
                or any(k.arg == "axis" for k in node.keywords)):
            found.append(f"{node.lineno}: {name} along an axis")
    return found


def test_scanner_flags_each_form():
    src = ("np.linalg.norm(r)\nnumpy.linalg.norm(x, axis=1)\n"
           "np.sum(x * x, axis=-1)\nnp.sum(g * cell_gradient(grid, f),\n"
           "       axis=1)\nnumpy.sum(x, 1)\nnp.sum(b)\n(w * v).sum()\n"
           "np.sqrt(rowdot(d, d))\n")
    assert axis_reductions(src) == [
        "1: np.linalg.norm", "2: numpy.linalg.norm",
        "3: np.sum along an axis", "4: np.sum along an axis",
        "6: numpy.sum along an axis"]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_axis_reduction_in_source(path):
    assert axis_reductions(path.read_text(encoding="utf-8")) == []
