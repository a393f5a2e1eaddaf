"""The benchmark's tracer (perfbench/tracing.py) wraps functions named by
(owner, attribute).  Every named target must exist: a deleted or renamed
one would otherwise show up only as a missing span in a traced run."""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_layer_target_resolves():
    tracing = _load_tracing()
    assert tracing.LAYER_TARGETS
    missing = [(owner, attr) for owner, attr, _ in tracing.LAYER_TARGETS
               if not hasattr(tracing.resolve(owner), attr)]
    assert missing == []
