"""The benchmark's tracer (perfbench/tracing.py) wraps functions named by
(owner, attribute), and its job (perfbench/job.py) patches a few more in
every run, traced or not.  Every named target must resolve the way the
tracer looks it up, `vars(owner).get(attr)`: an attribute that is only
reachable through a base class or a lazy import would otherwise show up
only as a missing span, or silently cost a run its probes."""

import ast
import importlib.util
from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", _PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _unresolved(tracing, targets):
    """The (owner, attr) pairs that `Recorder.patch` would report missing."""
    missing = []
    for owner, attr in targets:
        obj = tracing.resolve(owner)
        if obj is None or vars(obj).get(attr) is None:
            missing.append((owner, attr))
    return missing


def _job_patch_targets():
    """(owner, attr) of each `rec.patch("owner", "attr", ...)` in job.py."""
    tree = ast.parse((_PERFBENCH / "job.py").read_text())
    return [(call.args[0].value, call.args[1].value)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "patch"
            and len(call.args) >= 2
            and all(isinstance(a, ast.Constant) for a in call.args[:2])]


def test_every_layer_target_resolves():
    tracing = _load_tracing()
    assert tracing.LAYER_TARGETS
    targets = [(owner, attr) for owner, attr, _ in tracing.LAYER_TARGETS]
    assert _unresolved(tracing, targets) == []


def test_every_job_probe_resolves():
    targets = _job_patch_targets()
    assert {("degenrd.cli", "run_sim"), ("degenrd.solver", "step"),
            ("degenrd.cli", "audit"), ("degenrd.cli", "_sweep_one")} \
        <= set(targets)
    assert _unresolved(_load_tracing(), targets) == []
