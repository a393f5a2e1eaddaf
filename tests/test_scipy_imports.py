"""scipy is loaded only by the commands that factorize.

Importing `scipy.sparse.linalg` costs about half a second, most of a
`verify --quick` and of the ledger.  So no module of the package imports
scipy at module level, and only four functions import it where they use
it: `Grid.laplacian` (assembled on first access), `Stepper.__init__`
(SuperLU), and `cmd_simulate` and `cmd_sweep`, which import it once after
parsing the config, before `solver.run` and before the sweep's pool forks
its workers.  The verification layer (`constants`, `verify`, `logconv`,
`weights`, `diagnostics`) loads none, so neither does any `verify` or
`constants` run; nor do they load `numpy.random`, since the ledger draws
no random numbers.
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


def scipy_imports(source: str) -> list[tuple[str | None, str]]:
    """`(scope, "line: statement")` for every scipy import in `source`.

    scope is the dotted name of the innermost enclosing function, such as
    `Grid.laplacian`, or None for an import that runs at import time: one
    in the module body or a class body."""
    found = []

    def visit(node, names, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = names + [child.name]
                visit(child, inner, ".".join(inner))
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, names + [child.name], scope)
                continue
            if isinstance(child, ast.Import):
                found.extend((scope, f"{child.lineno}: import {a.name}")
                             for a in child.names
                             if a.name.split(".")[0] == "scipy")
            elif isinstance(child, ast.ImportFrom) and child.level == 0 \
                    and child.module.split(".")[0] == "scipy":
                found.append((scope, f"{child.lineno}: from {child.module} "
                                     f"import"))
            visit(child, names, scope)

    visit(ast.parse(source), [], None)
    return found


def module_level_scipy_imports(source: str) -> list[str]:
    """`line: statement` for every scipy import that runs at import time,
    that is, one not inside a function body."""
    return [stmt for scope, stmt in scipy_imports(source) if scope is None]


# the only functions of the package that may import scipy, by module file
SCIPY_FUNCTIONS = {
    "grid.py": {"Grid.laplacian"},
    "solver.py": {"Stepper.__init__"},
    "cli.py": {"cmd_simulate", "cmd_sweep"},
}


def scipy_imports_off_the_list(name: str, source: str) -> list[str]:
    """`scope line: statement` for every function-level scipy import in
    module file `name` that is not in SCIPY_FUNCTIONS."""
    allowed = SCIPY_FUNCTIONS.get(name, set())
    return [f"{scope} {stmt}" for scope, stmt in scipy_imports(source)
            if scope is not None and scope not in allowed]


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


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_scipy_imported_only_by_listed_functions(path):
    assert scipy_imports_off_the_list(
        path.name, path.read_text(encoding="utf-8")) == []


def test_scanner_flags_functions_off_the_list():
    src = ("class Grid:\n"
           "    def laplacian(self):\n"
           "        import scipy.sparse as sp\n"
           "    def other(self):\n"
           "        def inner():\n"
           "            from scipy.sparse import linalg\n"
           "def neumann_eigenvalue_1(grid):\n"
           "    import scipy.sparse.linalg\n"
           "def helper():\n"
           "    import numpy.linalg\n")
    assert scipy_imports_off_the_list("grid.py", src) == [
        "Grid.other.inner 6: from scipy.sparse import",
        "neumann_eigenvalue_1 8: import scipy.sparse.linalg"]
    assert scipy_imports_off_the_list("weights.py", src)[0] == \
        "Grid.laplacian 3: import scipy.sparse"


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


def test_full_verify_and_constants_load_no_scipy(tmp_path):
    """Neither loads scipy, and neither loads `numpy.random`."""
    from degenrd.cli import main
    cfg = tmp_path / "c.json"      # snapshots on the T/8 grid verify reads
    cfg.write_text(json.dumps(dict(CFG, stepper={
        "t_end": 0.5, "record_stride": 0.03125, "field_stride": 0.0625})))
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "run")]) == 0
    code = f"""
import sys
from degenrd.cli import main
assert main(["verify", "run"]) == 0
assert main(["constants", "c.json", "-o", "ledger.json"]) == 0
print({_SCIPY} + [m for m in sys.modules if m.startswith("numpy.random")])
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
    """A sweep loads scipy before its pool starts; importing the CLI loads
    neither scipy nor the process pool, which only `cmd_sweep` imports."""
    (tmp_path / "c.json").write_text(json.dumps(CFG))
    code = f"""
import sys
import degenrd.cli as cli
seen = [{_SCIPY}, "concurrent.futures.process" in sys.modules]
class InlinePool:
    def __init__(self, max_workers):
        seen.append("scipy.sparse.linalg" in sys.modules)
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def map(self, fn, items):
        return map(fn, items)
import concurrent.futures
concurrent.futures.ProcessPoolExecutor = InlinePool
assert cli.main(["sweep", "c.json", "--param", "k0", "--values", "0.5,1",
                 "-j", "2", "-o", "sweep"]) == 0
print(seen)
"""
    assert _python(code, tmp_path) == "[[], False, True]"
