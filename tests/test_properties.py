"""Property test over small random configurations (ROADMAP aim 3).

Every configuration the parser accepts either runs or is rejected with
exit 1 and one line naming the offending key: `simulate` exits 0 or 1,
the quick `verify` of a run exits 0 or 3, and `constants` exits 0 or 1.
No command ends in a traceback, and every JSON file `simulate` and the
quick `verify` write, and the ledger `constants` prints, is strict JSON:
no `NaN` or `Infinity`.  The examples are drawn deterministically
(`derandomize`), so the test reads the same configurations on every run.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from degenrd.cli import main

_KEY = re.compile(r"\b(domain|grid|physics|catalyst|initial|stepper|output"
                  r"|weights)\.[a-z_0-9]+")


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(["constant", "bump", "annular-zero",
                                 "time-modulated-bump"]))
    k0 = draw(st.sampled_from([0.5, 1.0, 5.0]))
    catalyst = {"kind": kind, "k0": k0}
    if draw(st.booleans()):
        catalyst["k_max"] = 2.0 * k0
    if kind == "annular-zero":
        catalyst.update(annulus_inner=0.4, annulus_outer=0.45,
                        smoothness=0.02)
    if kind == "time-modulated-bump":
        catalyst["period"] = 0.5
    return {
        "domain": {"dim": draw(st.sampled_from([1, 2]))},
        "grid": {"resolution": draw(st.integers(8, 16))},
        "physics": {"d1": draw(st.sampled_from([0.3, 1.0, 2.0])),
                    "d2": draw(st.sampled_from([0.3, 1.0, 2.0]))},
        "catalyst": catalyst,
        "initial": {"kind": draw(st.sampled_from(["cosine", "gaussian"]))},
        "stepper": {
            "t_end": draw(st.floats(0.3, 1.3)),
            "record_stride": draw(st.sampled_from([0.02, 0.05, 0.1, 0.3])),
            "field_stride": draw(st.sampled_from([0.05, 0.1, 0.25, 0.3]))},
    }


def _main(argv) -> tuple[int, str, str]:
    """Exit code, standard error and standard output of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), out.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(doc=configs())
def test_small_configs_run_or_name_a_key(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "run"
        cfg.write_text(json.dumps(doc))
        code, err, _ = _main(["simulate", str(cfg), "-o", str(out)])
        assert code in (0, 1), err
        if code == 0:
            assert _main(["verify", "--quick", str(out)])[0] in (0, 3)
            for path in out.glob("*.json"):
                _strict_json(path.read_text())
        else:
            assert _KEY.search(err), err
        code, err, ledger = _main(["constants", str(cfg)])
        assert code == 0 or (code == 1 and _KEY.search(err)), err
        if code == 0:
            _strict_json(ledger)
