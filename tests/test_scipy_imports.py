"""scipy is loaded only by the commands that factorize or eigen-solve.

Importing `scipy.sparse.linalg` costs about half a second, most of a
`verify --quick`.  So no module of the package imports scipy at module
level: `Grid.laplacian` is assembled on first access, `Stepper` and
`neumann_eigenvalue_1` import it where they use it, and `simulate` and
`sweep` import it once after parsing the config, before `solver.run` and
before the sweep's pool forks its workers.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degenrd

_SRC = Path(degenrd.__file__).parent

CFG = {
    "grid": {"resolution": 16},
    "catalyst": {"kind": "bump", "k0": 1.0},
    "stepper": {"t_end": 0.5, "record_stride": 0.05, "field_stride": 0.25},
    "weights": {"T": 0.5},
}


def module_level_scipy_imports(source: str) -> list[str]:
    """`line: statement` for every scipy import that runs at import time,
    that is, one not inside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend(f"{child.lineno}: import {a.name}"
                             for a in child.names
                             if a.name.split(".")[0] == "scipy")
            elif isinstance(child, ast.ImportFrom) and child.level == 0 \
                    and child.module.split(".")[0] == "scipy":
                found.append(f"{child.lineno}: from {child.module} import")
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert module_level_scipy_imports(path.read_text(encoding="utf-8")) == []


def test_scanner_flags_both_import_forms():
    src = ("import scipy.sparse as sp\n"
           "from scipy.sparse import linalg\n"
           "import numpy, scipy\n"
           "if True:\n"
           "    import scipy.linalg\n"
           "def f():\n"
           "    import scipy.sparse.linalg\n"
           "class C:\n"
           "    from scipy import sparse\n"
           "    def g(self):\n"
           "        from scipy.sparse import linalg\n"
           "from . import grid\n"
           "import scipyish\n")
    assert module_level_scipy_imports(src) == [
        "1: import scipy.sparse", "2: from scipy.sparse import",
        "3: import scipy", "5: import scipy.linalg", "9: from scipy import"]


def _python(code: str, cwd: Path) -> str:
    """Run `code` in a fresh interpreter that imports the package from
    this source tree; returns its last line of stdout."""
    path = [str(_SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


_SCIPY = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


def test_quick_commands_load_no_scipy(tmp_path):
    from degenrd.cli import main
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(CFG))
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "run")]) == 0
    with open(tmp_path / "s.csv", "w", encoding="utf-8") as fh:
        fh.write("t,y,N\n" + "".join(f"{i / 10},{0.9 ** i},0.5\n"
                                     for i in range(11)))
    code = f"""
import sys
import degenrd.cli, degenrd.solver
from degenrd.cli import main
assert main(["verify", "run", "--quick"]) == 0
assert main(["plot-data", "run"]) == 0
assert main(["interp-check", "s.csv", "--t1", "0.2", "--t2", "0.5",
             "--t3", "0.8", "--T", "1.0", "--h", "0.1"]) == 0
print({_SCIPY})
"""
    assert _python(code, tmp_path) == "[]"


def test_simulate_loads_scipy_before_the_run(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps(CFG))
    code = f"""
import sys
import degenrd.cli as cli
seen = [{_SCIPY}]
run_sim = cli.run_sim
def probe(*args, **kwargs):
    seen.append("scipy.sparse.linalg" in sys.modules)
    return run_sim(*args, **kwargs)
cli.run_sim = probe
assert cli.main(["simulate", "c.json", "-o", "run"]) == 0
print(seen)
"""
    assert _python(code, tmp_path) == "[[], True]"


def test_sweep_loads_scipy_before_the_pool(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps(CFG))
    code = f"""
import sys
import degenrd.cli as cli
seen = [{_SCIPY}]
class InlinePool:
    def __init__(self, max_workers):
        seen.append("scipy.sparse.linalg" in sys.modules)
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def map(self, fn, items):
        return map(fn, items)
cli.ProcessPoolExecutor = InlinePool
assert cli.main(["sweep", "c.json", "--param", "k0", "--values", "0.5,1",
                 "-j", "2", "-o", "sweep"]) == 0
print(seen)
"""
    assert _python(code, tmp_path) == "[[], True]"
