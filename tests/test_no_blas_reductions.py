"""No BLAS-threaded reduction, no mpmath quadrature and one time differencing
in the package source.

`np.dot`, `np.vdot`, `np.inner` and a whole-array `np.linalg.norm` are BLAS
calls: OpenBLAS splits long vectors over threads, so the sum depends on the
host's thread count, and the woken threads spin against the solver.  Cell
and face sums are numpy pairwise sums (`(w * v).sum()`); a norm along an
axis (`np.linalg.norm(x, axis=1)`) does not call BLAS and is allowed.

`mp.quad` (and its `quadts`, `quadgl` forms) tests convergence by an
absolute error: on an integrand far below 1, such as the ledger's
e^-2837, it stops early without a warning.  The package takes its
integrals in closed form.

`np.gradient` appears only in `diagnostics.fd_derivative`, which every
time derivative of a sampled series goes through, with its error estimate.
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


def mp_quadratures(source: str) -> list[str]:
    """`line: call` for every mpmath quadrature call in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            module, _, func = name.rpartition(".")
            if module in ("mp", "mpmath", "mp.mp", "mpmath.mp") \
                    and func in ("quad", "quadts", "quadgl"):
                found.append(f"{node.lineno}: {name}")
    return found


def gradient_uses(source: str) -> list[str]:
    """`line: owner` for every use of numpy's `gradient` in `source`; the
    owner is the top-level function or class it sits in, or <module>."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) \
                    and _dotted(node) in ("np.gradient", "numpy.gradient"):
                found.append(f"{node.lineno}: {owner}")
            elif isinstance(node, ast.ImportFrom) \
                    and node.module == "numpy" \
                    and any(a.name == "gradient" for a in node.names):
                found.append(f"{node.lineno}: {owner}")
    return found


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_blas_reduction_in_source(path):
    assert blas_reductions(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_mp_quad_in_source(path):
    assert mp_quadratures(path.read_text(encoding="utf-8")) == []


def test_scanner_flags_each_banned_form():
    src = ("np.dot(a, b)\nnumpy.vdot(a, b)\nnp.inner(a, b)\n"
           "np.linalg.norm(r)\nnp.linalg.norm(x, axis=1)\n"
           "(w * v).sum()\nA @ x\n")
    assert blas_reductions(src) == [
        "1: np.dot", "2: numpy.vdot", "3: np.inner",
        "4: np.linalg.norm without axis="]


def test_quadrature_scanner_flags_each_form():
    src = ("mp.quad(f, [0, 1])\nmpmath.quadts(f, [0, 1])\n"
           "mp.mp.quadgl(f, [0, 1])\nmp.gammainc(0.5, 1, 2)\nquad(f)\n")
    assert mp_quadratures(src) == [
        "1: mp.quad", "2: mpmath.quadts", "3: mp.mp.quadgl"]


def test_np_gradient_only_in_fd_derivative():
    uses = [f"{p.name} {use}" for p in sorted(_SRC.glob("*.py"))
            for use in gradient_uses(p.read_text(encoding="utf-8"))]
    assert uses and all(u.startswith("diagnostics.py ")
                        and u.endswith(": fd_derivative") for u in uses), uses


def test_gradient_scanner_flags_each_form():
    src = ("def fd_derivative(t, y):\n    return np.gradient(y, t)\n"
           "class C:\n    def d(self):\n        return numpy.gradient(1)\n"
           "g = np.gradient\nfrom numpy import gradient\n"
           "np.diff(x)\n")
    assert gradient_uses(src) == ["2: fd_derivative", "5: C", "6: <module>",
                                  "7: <module>"]
