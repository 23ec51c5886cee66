"""The benchmark reaches the library by name; each name and call must still fit.

A library function renamed or deleted under a name ``perfbench/tracer.py``
patches, or a signature that no longer takes the arguments
``perfbench/workloads.py`` passes, would break every benchmark run, which
the rest of the suite does not exercise.  Both files are read, not changed.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in _patches()])
def test_tracer_patch_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def _workload_library_uses():
    """Each ``<module>.<attr>`` of a ``from tcdl import ...`` module in the
    workloads, with the call's positional count and keywords (None when
    the attribute is read, not called)."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {alias.asname or alias.name: f"tcdl.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "tcdl"
               for alias in node.names}
    called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    uses = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            label, shape = f"{node.value.id}.{node.attr}", None
            call = called.get(id(node))
            if call is not None:
                shape = (len(call.args), tuple(k.arg for k in call.keywords))
                label += "(" + ", ".join([str(shape[0])] + [k + "=" for k in shape[1]]) + ")"
            uses[label] = pytest.param(modules[node.value.id], node.attr, shape, id=label)
    return sorted(uses.values(), key=lambda p: p.id)


_USES = _workload_library_uses()


def test_workload_calls_are_found():
    names = {p.id.split("(")[0] for p in _USES}
    assert {"harness.recover_primal_from_dual", "dual.compute_x0",
            "harness.selftest", "harness.random_instance",
            "primal.solve_primal", "dual.solve_dual"} <= names


@pytest.mark.parametrize("module_name, attr, shape", _USES)
def test_workload_call_binds(module_name, attr, shape):
    target = getattr(importlib.import_module(module_name), attr)
    if shape is not None:
        n_args, keywords = shape
        inspect.signature(target).bind(*[None] * n_args, **dict.fromkeys(keywords))


def test_solve_convex_results_fit_the_tracer(monkeypatch):
    # the tracer records a solve_convex span's ``status`` only when it is a
    # str and sums its ``iterations`` as a number: a batched solve (the dual
    # grid) and a one-problem solve (solve_dual) must both return an
    # OPTIMAL-or-not str and an int
    from tcdl import dual, harness, solver, utility
    results = []
    solve = dual.solve_convex

    def recording(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(dual, "solve_convex", recording)
    model, _ = harness._generate_instance(1, 3, 2, 0.3, 0.2)
    log = utility.make_utility("log")
    grid = dual.dual_grid(model, log, dual.default_y_grid())
    dual.solve_dual(model, log, 1.0)
    assert [len(r.statuses) for r in results] == [len(grid), 1]
    for res in results:
        assert type(res.status) is str and res.status == solver.OPTIMAL
        assert type(res.iterations) is int
        assert res.iterations == sum(int(i) for i in res.problem_iterations)
    assert results[0].iterations == sum(sol.iterations for sol in grid)
