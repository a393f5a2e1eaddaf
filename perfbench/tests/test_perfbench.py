"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_self_time_of_a_nested_trace():
    # root [0,10] has children a [1,4] and b [5,7], and c [6,8] that
    # overlaps b; a has one child [2,3].  Root's children cover
    # [1,4] + [5,8] = 6 s, so its self time is 4 s.
    spans = [
        ((1, 1), None, "root", 0.0, 10.0),
        ((1, 2), (1, 1), "a", 1.0, 4.0),
        ((1, 3), (1, 2), "leaf", 2.0, 3.0),
        ((1, 4), (1, 1), "b", 5.0, 7.0),
        ((1, 5), (1, 1), "c", 6.0, 8.0),
        ([2, 1], None, "a", 0.0, 0.5),          # ids as read back from JSON
    ]
    got = tracing.self_times(spans)
    assert got["root"] == {"calls": 1, "s": 10.0, "self_s": 4.0}
    assert got["a"] == {"calls": 2, "s": 3.5, "self_s": 2.5}
    assert got["leaf"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert got["b"]["self_s"] == got["c"]["self_s"] == 2.0


def _originals():
    return [(owner, attr, vars(tracing.resolve(owner))[attr])
            for owner, attr, _ in tracing.LAYER_TARGETS]


def test_wrappers_record_spans_and_restore_the_originals():
    from degenrd import solver
    before = _originals()
    rec = tracing.Recorder()
    rec.install()
    try:
        assert rec.missing == []
        assert all(vars(tracing.resolve(o))[a] is not f for o, a, f in before)
        cfg = solver.SimConfig(resolution=16, t_end=0.1)
        solver.run(cfg)
    finally:
        rec.restore()
    assert all(vars(tracing.resolve(o))[a] is f for o, a, f in before)
    got = tracing.self_times(rec.spans)
    steps = got["solver.step"]["calls"]
    assert steps > 0
    assert got["solver.linear_solve"]["calls"] == 4 * steps
    assert got["solver.Stepper"]["calls"] == 1
    assert got["grid.build_grid"]["calls"] == 1


def test_missing_target_is_reported_never_zero():
    rec = tracing.Recorder()
    rec.install([("degenrd.verify", "no_such_check", "verify.gone"),
                 ("degenrd.no_such_module", "f", "x.f")])
    rec.restore()
    assert rec.missing == [("degenrd.verify.no_such_check", "verify.gone"),
                           ("degenrd.no_such_module.f", "x.f")]
    spec = {"per_layer": [
        {"name": "verify.gone.s", "unit": "s", "better": "lower"},
        {"name": "verify.audit.s", "unit": "s", "better": "lower"}]}
    state = {"ops": [run.Op("verify", 1.0, 1.0, 0, {})],
             "untraced": [{"simulate_s": 1.0, "verify_s": 1.0}],
             "traced": [{"simulate_s": 1.0, "verify_s": 1.0}],
             "layers": [{"verify.audit.s": 0.5}],
             "missing": set(rec.missing)}
    res = run.summarize("w", state, spec, trace=True)
    assert "verify.gone.s" not in res["metrics"]
    assert res["metrics"]["verify.audit.s"]["value"] == 0.5
    assert res["missing"] == ["degenrd.no_such_module.f (x.f)",
                              "degenrd.verify.no_such_check (verify.gone)"]


def test_reference_speed_scales_each_stretch_and_skips_the_probes():
    ref = calibrate.REFERENCE_S
    # readings at [1, 1.5] (kernel at reference speed) and [3, 3.5] (half
    # speed); the command spans [0, 5]
    readings = [[1.0, 1.5, ref], [3.0, 3.5, 2 * ref]]
    measured, scaled = calibrate.at_reference_speed(readings, 0.0, 5.0)
    assert measured == pytest.approx(1.0 + 1.5 + 1.5)
    assert scaled == pytest.approx(1.0 + 1.5 / 1.5 + 1.5 / 2)
    # an interval inside one stretch; no readings: as measured
    assert calibrate.at_reference_speed(readings, 4.0, 5.0) == \
        pytest.approx((1.0, 0.5))
    assert calibrate.at_reference_speed([], 2.0, 3.0) == (1.0, 1.0)


def test_a_reading_is_never_nested_in_another():
    # `take` is also the periodic signal handler: a signal that lands
    # inside a reading must not start a second one
    probes = calibrate.Probes()
    probes._busy = True
    probes.take()
    assert probes.readings == []
    probes._busy = False
    probes.take()
    assert len(probes.readings) == 1 and probes.drain() and not probes.readings


def test_verify_crash_is_counted_and_does_not_stop_the_run(tmp_path,
                                                         monkeypatch):
    # field_stride 0.3 puts no snapshot at t = 5, where the interpolation
    # window needs one: `verify` dies with a KeyError (ROADMAP item 4)
    raw = json.loads((BENCH / "workloads" / "ref1d.json").read_text())
    raw["stepper"]["field_stride"] = 0.3
    cfg = tmp_path / "stride.json"
    cfg.write_text(json.dumps(raw))
    wl = run.Workload("stride03", cfg)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, wl.name, wl)
    state = run.run_workloads([wl.name], seed=1, seconds=0.0, trace=False,
                              refs=None)
    res = run.summarize(wl.name, state[wl.name], run.load_spec(), False)
    assert (res["attempted"], res["failed"], res["fail_frac"]) == (2, 1, 0.5)
    assert any("KeyError" in p for p in res["problems"])
    assert res["metrics"]["simulate_s"]["value"] > 0


def _tree(root: Path, scale: float = 1.0) -> None:
    root.mkdir()
    (root / "summary.json").write_text(json.dumps(
        {"dt": 0.01 * scale, "checks": [{"pass": True, "margin": 3.0}]}))
    (root / "trace.csv").write_text(
        "t,mass\n" + "".join(f"{t},{2.0 * scale}\n" for t in (0, 1, 2)))
    rows = np.linspace(1.0, 2.0, 200).reshape(2, 100)
    np.savez(root / "fields.npz", a=rows * scale, times=np.array([0., 1.]))


@pytest.mark.parametrize("scale,ok", [(1.0, True), (1 + 1e-14, True),
                                      (1 + 1e-9, False)])
def test_oracle_accepts_identical_or_1e12_relative(tmp_path, scale, ok):
    _tree(tmp_path / "ref")
    _tree(tmp_path / "new", scale)
    ref = oracle.fingerprint_tree(tmp_path / "ref")
    problems = oracle.compare_tree(tmp_path / "new", ref)
    assert (problems == []) is ok, problems
    if not ok:
        for name in ("summary.json", "trace.csv", "fields.npz"):
            assert any(p.startswith(name) for p in problems), name
