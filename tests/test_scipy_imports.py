"""No command imports scipy's Python package.

Importing `scipy.sparse.linalg` costs about 0.35 s and 23 MB, more than a
third of a short `simulate`.  The stepper runs two of scipy's compiled
extensions, SuperLU (`_superlu`) and the sparse kernels (`_sparsetools`),
and `solver.load_extensions` loads them from their files without
importing scipy.  It is the one function listed as allowed to reach
scipy: no module imports scipy at module level, and no other function
imports it.  `cmd_simulate` and `cmd_sweep` call the loader after parsing
the config, before `solver.run` and before the sweep's pool forks its
workers, and a `simulate` or a two-worker `sweep` leaves no scipy module,
`scipy.sparse` and `scipy.linalg` included, in `sys.modules`.  The
verification layer (`constants`, `verify`, `logconv`, `weights`,
`diagnostics`) loads none of it, so neither does any `verify` or
`constants` run; nor do they load `numpy.random`, since the ledger draws
no random numbers.  Where the extensions cannot be used, `simulate` and
`sweep` exit 1 with one line naming the scipy version and the file.

`_superlu` links scipy's own OpenBLAS, which starts its pool threads when
the extension's file is loaded; they spin beside the step yet get no work
from SuperLU.  The loader sets OPENBLAS_NUM_THREADS=1 for that load alone,
so loading starts no thread, and restores the caller's value afterwards,
an unset variable included, also when the load fails.
"""

import ast
import json
import os
import subprocess
import sys
from importlib import metadata
from importlib.machinery import EXTENSION_SUFFIXES
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
SCIPY_FUNCTIONS = {"solver.py": {"load_extensions"}}


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
    src = ("def load_extensions():\n"
           "    import scipy\n"
           "class Stepper:\n"
           "    def __init__(self):\n"
           "        import scipy.sparse as sp\n"
           "    def other(self):\n"
           "        def inner():\n"
           "            from scipy.sparse import linalg\n"
           "def helper():\n"
           "    import numpy.linalg\n")
    assert scipy_imports_off_the_list("solver.py", src) == [
        "Stepper.__init__ 5: import scipy.sparse",
        "Stepper.other.inner 8: from scipy.sparse import"]
    assert scipy_imports_off_the_list("grid.py", src)[0] == \
        "load_extensions 2: import scipy"


def _run(args: list[str], cwd: Path, first: Path | None = None):
    """Run `args` in a fresh interpreter that imports the package from
    this source tree, with `first` ahead of it on the path."""
    path = [str(first or ""), str(_SRC.parent),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def _python(code: str, cwd: Path) -> str:
    """Run `code` as `_run` does; returns its last line of stdout."""
    proc = _run(["-c", code], cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


_SCIPY = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"
_EXT = "[m for m in ('degenrd._superlu', 'degenrd._sparsetools') " \
    "if m in sys.modules]"


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
    """`simulate` loads scipy's two extensions before `solver.run`, and no
    scipy module."""
    (tmp_path / "c.json").write_text(json.dumps(CFG))
    code = f"""
import sys
import degenrd.cli as cli
seen = [{_EXT}]
run_sim = cli.run_sim
def probe(*args, **kwargs):
    seen.append({_EXT})
    return run_sim(*args, **kwargs)
cli.run_sim = probe
assert cli.main(["simulate", "c.json", "-o", "run"]) == 0
print(seen + [{_SCIPY}])
"""
    assert _python(code, tmp_path) == \
        "[[], ['degenrd._superlu', 'degenrd._sparsetools'], []]"


def test_sweep_loads_scipy_before_the_pool(tmp_path):
    """A sweep loads scipy's two extensions before its pool starts;
    importing the CLI loads neither them nor the process pool, which only
    `cmd_sweep` imports."""
    (tmp_path / "c.json").write_text(json.dumps(CFG))
    code = f"""
import sys
import degenrd.cli as cli
seen = [{_EXT}, "concurrent.futures.process" in sys.modules]
class InlinePool:
    def __init__(self, max_workers):
        seen.append({_EXT})
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
    assert _python(code, tmp_path) == \
        "[[], False, ['degenrd._superlu', 'degenrd._sparsetools']]"


def test_simulate_and_sweep_leave_no_scipy_package(tmp_path):
    """After a `simulate` and a `sweep` on two worker processes, neither
    `scipy.sparse` nor `scipy.linalg`, nor any other scipy module, is in
    `sys.modules`."""
    (tmp_path / "c.json").write_text(json.dumps(CFG))
    code = f"""
import sys
from degenrd.cli import main
assert main(["simulate", "c.json", "-o", "run"]) == 0
assert main(["sweep", "c.json", "--param", "k0", "--values", "0.5,1",
             "-j", "2", "-o", "sweep"]) == 0
print({_SCIPY})
"""
    assert _python(code, tmp_path) == "[]"


def test_missing_extensions_exit_1_naming_the_file(tmp_path):
    """Pointed at a scipy package directory that holds no extension file,
    `simulate` and `sweep` exit 1 with one line naming the installed
    scipy version and the file the loader looked for."""
    fake = tmp_path / "fake" / "scipy"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")      # found first, never run
    (tmp_path / "c.json").write_text(json.dumps(CFG))
    want = (f"error: scipy {metadata.version('scipy')}: cannot use "
            f"{fake / 'sparse/linalg/_dsolve/_superlu'}"
            f"{EXTENSION_SUFFIXES[0]} (no such file)")
    for args in (["simulate", "c.json", "-o", "run"],
                 ["sweep", "c.json", "--param", "k0", "--values", "0.5,1",
                  "-o", "sweep"]):
        proc = _run(["-m", "degenrd.cli", *args], tmp_path, fake.parent)
        assert (proc.returncode, proc.stderr.splitlines()) == (1, [want])


def test_extension_rejecting_the_call_is_named(monkeypatch):
    """An entry point that does not accept the loader's call is reported
    as an OSError naming the scipy version and the file."""
    from degenrd import solver
    monkeypatch.setitem(solver._EXTENSIONS, "_superlu", (
        "sparse/linalg/_dsolve", lambda m: m.gstrf(1, 1)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    with pytest.raises(OSError, match=rf"^scipy {metadata.version('scipy')}"
                       r": cannot use \S+/_superlu\S+ \(.*\)$"):
        solver.load_extensions.__wrapped__()
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


_THREADS = """
import json
import os
import numpy
from degenrd.solver import load_extensions
before = len(os.listdir("/proc/self/task"))
load_extensions()
print(json.dumps([before, len(os.listdir("/proc/self/task")),
                  os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="no per-thread entries under /proc")
@pytest.mark.parametrize("preset", [None, "3"])
def test_loading_starts_no_thread_and_restores_the_variable(
        tmp_path, monkeypatch, preset):
    """Loading the extensions adds no thread to a process that imported
    numpy, and leaves OPENBLAS_NUM_THREADS as the caller had it."""
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    before, after, value = json.loads(_python(_THREADS, tmp_path))
    assert (after, value) == (before, preset)


@pytest.mark.parametrize("preset", [None, "3"])
def test_failed_load_restores_the_variable(monkeypatch, preset):
    """An extension file that cannot be loaded is named in an OSError, and
    OPENBLAS_NUM_THREADS, 1 while the load ran, is as it was before."""
    from degenrd import solver
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    seen = []

    def refuse(spec):
        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        raise ImportError("refused")

    monkeypatch.setattr(solver.importlib.util, "module_from_spec", refuse)
    with pytest.raises(OSError, match=r"_superlu\S+ \(refused\)$"):
        solver.load_extensions.__wrapped__()
    assert (seen, os.environ.get("OPENBLAS_NUM_THREADS")) == (["1"], preset)
