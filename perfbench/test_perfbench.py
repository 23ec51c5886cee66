"""Tests of the benchmark itself: smoke runs, tracer hygiene, count repeatability.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
The workloads are shrunk to one instance or seed each, so the whole file
takes well under a minute.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys

import pytest

import run

workloads = run._import_library()
import tracer  # noqa: E402  (needs the library on sys.path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_INSTANCES", 1)
    monkeypatch.setattr(workloads, "SELFTEST_SEEDS", 1)
    monkeypatch.setattr(workloads, "DEEP_INSTANCES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _result(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def _originals():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracer.PATCHES}


def test_benchmark_file_matches_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: unit for k, (unit, _) in tracer.LAYER_METRICS.items()}
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run(workload, tiny, capsys):
    res, detail = _result(capsys, ["--workload", workload, "--seed", "0",
                                   "--seconds", "0.01", "--trace", "0"])
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert detail["machine"]["jobs"] == 1
    assert detail["fail_frac"] == 0.0


def test_sweep_pass_runs_every_instance_under_both_utilities(tiny):
    sweep = workloads.WORKLOADS["recovery-sweep"]
    specs = [spec for _, spec, _ in sweep.items(sweep.setup(0, ""))]
    assert specs == [workloads.LOG, workloads.POWER]


@pytest.mark.parametrize("raised, correct", [
    (workloads.harness.SolverIndeterminateError("stalled"), True),
    (ValueError("untyped"), False),
    (None, False),
])
def test_failed_items_are_counted(raised, correct, tiny, capsys, monkeypatch):
    def run_item(self, state, item):
        if raised is not None:
            raise raised
        return workloads.Outcome(ok=False)
    monkeypatch.setattr(workloads.Selftest, "run_item", run_item)
    res, detail = _result(capsys, ["--workload", "selftest", "--seed", "0",
                                   "--seconds", "0.01", "--trace", "0"])
    assert res["attempted"] == res["failed"] == 1
    assert res["correct"] is correct
    assert detail["fail_frac"] == 1.0 and len(detail["failures"]) == 1


def test_wrappers_restored_after_traced_run(tiny, capsys):
    before = _originals()
    res, _ = _result(capsys, ["--workload", "recovery-sweep", "--seed", "0",
                              "--seconds", "1", "--trace", "1"])
    assert set(res["metrics"]) == set(tracer.LAYER_METRICS)
    assert _originals() == before


def test_wrappers_restored_when_traced_code_raises():
    before = _originals()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            assert _originals() != before
            1 / 0
    assert _originals() == before


def test_traced_counts_repeat_exactly(tiny, capsys):
    argv = ["--workload", "recovery-sweep", "--seed", "3", "--seconds", "1", "--trace", "1"]
    first, _ = _result(capsys, argv)
    second, _ = _result(capsys, argv)
    counts = [k for k, (unit, _) in tracer.LAYER_METRICS.items()
              if unit in ("count", "count/call")]
    assert first["metrics"]["solver.ipm.calls"]["value"] > 0
    assert ({k: first["metrics"][k]["value"] for k in counts}
            == {k: second["metrics"][k]["value"] for k in counts})


def _span(spans, name, parent=-1, status=None, error=None):
    sp = tracer.Span(len(spans), parent, name)
    sp.end = 1.0
    sp.status, sp.error = status, error
    sp.iterations = 10 if name == "solver.ipm" else None
    spans.append(sp)
    return sp.id


def test_rescues_are_derived_from_the_span_tree():
    spans: list = []
    # solve_dual that walked the y-continuation: three IPM children.
    d = _span(spans, "dual.solve")
    _span(spans, "solver.ipm", d, "numerically-indeterminate")
    _span(spans, "solver.ipm", d, "optimal")
    _span(spans, "solver.ipm", d, "optimal")
    # solve_primal that restarted once and then promoted a stalled iterate.
    p = _span(spans, "primal.solve")
    _span(spans, "solver.ipm", p, "numerically-indeterminate")
    _span(spans, "solver.ipm", p, "numerically-indeterminate")
    # recovery whose refinement stalled and whose turnover LP failed.
    r = _span(spans, "harness.recover")
    rd = _span(spans, "dual.solve", r)
    _span(spans, "solver.ipm", rd, "numerically-indeterminate")
    _span(spans, "solver.lp", r, "numerically-indeterminate")
    m = tracer.layer_metrics(spans, wall_s=1.0, overhead_s=0.0, worst_rel_gap=0.0)
    assert m["dual.continuation_rescues"] == 1
    assert m["primal.restarts"] == 1
    assert m["primal.stall_promotions"] == 1
    assert m["harness.recover.refine_fallbacks"] == 1
    assert m["harness.recover.turnover_fallbacks"] == 1
    assert m["harness.recover.dual_solves_per_call"] == 1
    assert m["solver.ipm.calls"] == 6 and m["solver.ipm.nonoptimal"] == 4
    assert list(m) == list(tracer.LAYER_METRICS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "selftest",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
