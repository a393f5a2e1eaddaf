"""No BLAS-threaded reduction in the package source.

`np.dot`, `np.vdot`, `np.inner` and a whole-array `np.linalg.norm` are BLAS
calls: OpenBLAS splits long vectors over threads, so the sum depends on the
host's thread count, and the woken threads spin against the solver.  Cell
and face sums are numpy pairwise sums (`(w * v).sum()`); a norm along an
axis (`np.linalg.norm(x, axis=1)`) does not call BLAS and is allowed.
"""

import ast
from pathlib import Path

import pytest

import degenrd

_SRC = Path(degenrd.__file__).parent
_BANNED = {"dot", "vdot", "inner"}


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def blas_reductions(source: str) -> list[str]:
    """`line: call` for every BLAS-threaded reduction in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        module, _, func = name.rpartition(".")
        if module in ("np", "numpy") and func in _BANNED:
            found.append(f"{node.lineno}: {name}")
        elif module in ("np.linalg", "numpy.linalg") and func == "norm" \
                and not any(k.arg == "axis" for k in node.keywords):
            found.append(f"{node.lineno}: {name} without axis=")
    return found


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_blas_reduction_in_source(path):
    assert blas_reductions(path.read_text(encoding="utf-8")) == []


def test_scanner_flags_each_banned_form():
    src = ("np.dot(a, b)\nnumpy.vdot(a, b)\nnp.inner(a, b)\n"
           "np.linalg.norm(r)\nnp.linalg.norm(x, axis=1)\n"
           "(w * v).sum()\nA @ x\n")
    assert blas_reductions(src) == [
        "1: np.dot", "2: numpy.vdot", "3: np.inner",
        "4: np.linalg.norm without axis="]
