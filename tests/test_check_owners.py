"""Only the two audit modules build a `CheckResult`.

`diagnostics` builds the quick audit's checks and `verify` every check
that reads the ledger; the other modules return numbers.  A pass/fail
decision then has one owner, and a check's tolerance is read in one of
two places.
"""

import ast
from pathlib import Path

import pytest

import degenrd

_SRC = Path(degenrd.__file__).parent
_OWNERS = {"diagnostics.py", "verify.py"}


def check_results_built(source: str) -> list[int]:
    """The lines of `source` that call `CheckResult(...)`, by its bare
    name or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "CheckResult"
                 or getattr(node.func, "attr", None) == "CheckResult")]


def test_scanner_finds_every_call():
    src = ("from .diagnostics import CheckResult\n"
           "from . import diagnostics\n"
           "def f(m):\n"
           "    return [CheckResult('a', 'b', m, 0.0),\n"
           "            diagnostics.CheckResult('c', 'd', m, 0.0)]\n"
           "class CheckResultLike:\n"
           "    pass\n")
    assert check_results_built(src) == [4, 5]


@pytest.mark.parametrize(
    "path", sorted(p for p in _SRC.glob("*.py") if p.name not in _OWNERS),
    ids=lambda p: p.name)
def test_no_check_result_built_outside_the_audit_modules(path):
    assert check_results_built(path.read_text(encoding="utf-8")) == []
