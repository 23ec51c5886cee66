"""Outside-in tracer for the tcdl solve pipeline.

The tracer edits nothing in the library.  ``Tracer.install`` replaces the
public functions each layer exposes with timing wrappers, in the namespace
the caller looks them up in, and ``Tracer.restore`` puts every original back.
Modules bind imported names at import time, so the solver entry points are
patched once per importing module (``tcdl.dual.solve_convex`` and
``tcdl.primal.solve_convex`` are the same function reached two ways).
``tcdl.solver.solve_lp`` is patched for the minimal-turnover LP, which
``recover_primal_from_dual`` imports inside the function.

Each wrapped call becomes a ``Span`` with a link to the span that was open
when it started.  Spans stay in memory; ``layer_metrics`` folds them into the
per-layer metrics and ``dump`` writes them out at the end of a run.  Rescue
paths the library takes silently are read off the span tree: a ``solve_dual``
with more than one interior-point child took the y-continuation, and so on.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name).  One span name may be reached through
# several modules; each call is recorded once, by the wrapper it went through.
PATCHES = (
    ("tcdl.dual", "solve_convex", "solver.ipm"),
    ("tcdl.primal", "solve_convex", "solver.ipm"),
    ("tcdl.dual", "solve_lp", "solver.lp"),
    ("tcdl.primal", "solve_lp", "solver.lp"),
    ("tcdl.solver", "solve_lp", "solver.lp"),
    ("tcdl.dual", "cps_polytope", "dual.polytope"),
    ("tcdl.dual", "compute_x0", "dual.x0"),
    ("tcdl.dual", "superreplication_price", "dual.superrep"),
    ("tcdl.dual", "solve_dual", "dual.solve"),
    ("tcdl.dual", "dual_grid", "dual.grid"),
    ("tcdl.primal", "max_min_wealth", "primal.phase1"),
    ("tcdl.primal", "solve_primal", "primal.solve"),
    ("tcdl.primal", "is_attainable", "primal.attainable"),
    ("tcdl.primal", "primal_marginal", "primal.marginal"),
    ("tcdl.harness", "recover_primal_from_dual", "harness.recover"),
    ("tcdl.harness", "random_instance", "harness.generate"),
    ("tcdl.harness", "write_report_files", "harness.report_write"),
)

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
_ALL = "item_ref_gmean on every workload"
_LP = "a small share of item_ref_gmean on recovery-sweep (duplicate LPs show here)"
_POLY = ("setup_s on recovery-sweep, which builds them once per instance; "
         "item_ref_gmean on selftest and deep-tree (small share)")
_SUPERREP = "item_ref_gmean on recovery-sweep and selftest (small share)"
_DUAL = "item_ref_gmean on selftest and deep-tree (dual_grid, tcdl dual)"
_PRIMAL = "item_ref_gmean on deep-tree; about 7% of it on recovery-sweep"
_RECOVER = "item_ref_gmean on recovery-sweep, about half of it on selftest; none on deep-tree"
_GENERATE = ("setup_s on deep-tree and recovery-sweep; item_ref_gmean on selftest, "
             "whose items generate their instance")
LAYER_METRICS = {
    "solver.ipm.calls": ("count", _ALL),
    "solver.ipm.s": ("s", _ALL),
    "solver.ipm.iters": ("count", _ALL),
    "solver.ipm.iters_per_call": ("count/call", _ALL),
    "solver.ipm.nonoptimal": ("count", _ALL),
    "solver.ipm.ms_per_iter": ("ms", "item_ref_gmean on deep-tree; about nothing on recovery-sweep"),
    "solver.lp.calls": ("count", _LP),
    "solver.lp.s": ("s", _LP),
    "solver.lp.nonoptimal": ("count", _LP),
    "dual.polytope.s": ("s", _POLY),
    "dual.x0.s": ("s", _POLY),
    "dual.superrep.calls": ("count", _SUPERREP),
    "dual.superrep.s": ("s", _SUPERREP),
    "dual.solve.calls": ("count", _DUAL),
    "dual.solve.s": ("s", _DUAL),
    "dual.solve.ipm_per_call": ("count/call", _DUAL),
    "dual.continuation_rescues": ("count", "item_ref_gmean on selftest (cold grid at extreme y)"),
    "dual.grid.s": ("s", "item_ref_gmean on selftest only"),
    "primal.phase1.s": ("s", _PRIMAL),
    "primal.solve.calls": ("count", _PRIMAL),
    "primal.solve.s": ("s", _PRIMAL),
    "primal.restarts": ("count", _PRIMAL),
    "primal.stall_promotions": ("count", _PRIMAL),
    "primal.attainable.calls": ("count", _RECOVER),
    "primal.attainable.s": ("s", _RECOVER),
    "primal.marginal.s": ("s", "item_ref_gmean on selftest only"),
    "harness.recover.calls": ("count", _RECOVER),
    "harness.recover.s": ("s", _RECOVER),
    "harness.recover.self_s": ("s", _RECOVER),
    "harness.recover.dual_solves_per_call": ("count/call", _RECOVER),
    "harness.recover.refine_fallbacks": ("count", _RECOVER),
    "harness.recover.turnover_fallbacks": ("count", _RECOVER),
    "harness.generate.s": ("s", _GENERATE),
    "harness.generate.attempts": ("count", _GENERATE),
    "harness.generate.accept_ratio": ("ratio", _GENERATE),
    "harness.report_write.s": ("s", "item_ref_gmean on selftest only"),
    "harness.worst_rel_gap": ("ratio", "informational: worst strong-duality gap of the pass"),
    "trace.overhead_frac": ("ratio", "informational: tracer bookkeeping over traced wall time"),
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "status", "iterations", "error")

    def __init__(self, sid: int, parent: int, name: str):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.status = None
        self.iterations = None
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans around the patched library functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                if getattr(original, "__perfbench_wrapped__", None) is not None:
                    raise RuntimeError(f"{module_name}.{attr} is already traced")
                setattr(module, attr, self._wrap(original, name))
                self._saved.append((module, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, original, name: str):
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            t_in = clock()
            span = Span(len(spans), stack[-1] if stack else -1, name)
            spans.append(span)
            stack.append(span.id)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.error = type(exc).__name__
                stack.pop()
                self.overhead_s += (span.start - t_in) + (clock() - span.end)
                raise
            span.end = clock()
            stack.pop()
            status = getattr(result, "status", None)
            if isinstance(status, str):
                span.status = status
                span.iterations = getattr(result, "iterations", None)
            self.overhead_s += (span.start - t_in) + (clock() - span.end)
            return result

        wrapper.__perfbench_wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def layer_metrics(spans: list[Span], wall_s: float, overhead_s: float,
                  worst_rel_gap: float) -> dict[str, float]:
    """Fold a span list into the per-layer metrics named in ``LAYER_METRICS``."""
    from tcdl.solver import OPTIMAL
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)
        if sp.parent >= 0:
            children[sp.parent].append(sp)

    def ancestors(sp: Span):
        while sp.parent >= 0:
            sp = spans[sp.parent]
            yield sp

    def descendants(sp: Span):
        todo = list(children[sp.id])
        while todo:
            cur = todo.pop()
            yield cur
            todo.extend(children[cur.id])

    def total(group) -> float:
        return float(sum(sp.duration for sp in group))

    def ratio(num: float, den: float) -> float:
        return float(num) / den if den else 0.0

    def kids(sp: Span, name: str) -> list[Span]:
        return [c for c in children[sp.id] if c.name == name]

    m: dict[str, float] = {}

    ipm = by_name["solver.ipm"]
    iters = sum(sp.iterations or 0 for sp in ipm)
    m["solver.ipm.calls"] = len(ipm)
    m["solver.ipm.s"] = total(ipm)
    m["solver.ipm.iters"] = iters
    m["solver.ipm.iters_per_call"] = ratio(iters, len(ipm))
    m["solver.ipm.nonoptimal"] = sum(sp.status != OPTIMAL for sp in ipm)
    m["solver.ipm.ms_per_iter"] = ratio(1000.0 * m["solver.ipm.s"], iters)

    lp = by_name["solver.lp"]
    m["solver.lp.calls"] = len(lp)
    m["solver.lp.s"] = total(lp)
    m["solver.lp.nonoptimal"] = sum(sp.status != OPTIMAL for sp in lp)

    # Polytope builds inside random_instance are generation attempts, timed
    # under harness.generate; the rest are the pipeline's own builds.
    m["dual.polytope.s"] = total(
        sp for sp in by_name["dual.polytope"]
        if not any(a.name == "harness.generate" for a in ancestors(sp)))
    m["dual.x0.s"] = total(by_name["dual.x0"])
    superrep = [sp for sp in by_name["dual.superrep"]
                if sp.parent < 0 or spans[sp.parent].name != "dual.x0"]
    m["dual.superrep.calls"] = len(superrep)
    m["dual.superrep.s"] = total(superrep)

    solve = by_name["dual.solve"]
    solve_ipm = [len(kids(sp, "solver.ipm")) for sp in solve]
    m["dual.solve.calls"] = len(solve)
    m["dual.solve.s"] = total(solve)
    m["dual.solve.ipm_per_call"] = ratio(sum(solve_ipm), len(solve))
    m["dual.continuation_rescues"] = sum(k > 1 for k in solve_ipm)
    m["dual.grid.s"] = total(by_name["dual.grid"])

    psolve = by_name["primal.solve"]
    restarts = stalls = 0
    for sp in psolve:
        runs = kids(sp, "solver.ipm")
        restarts += len(runs) > 1
        stalls += bool(sp.error is None and runs and runs[-1].status != OPTIMAL)
    m["primal.phase1.s"] = total(by_name["primal.phase1"])
    m["primal.solve.calls"] = len(psolve)
    m["primal.solve.s"] = total(psolve)
    m["primal.restarts"] = restarts
    m["primal.stall_promotions"] = stalls
    m["primal.attainable.calls"] = len(by_name["primal.attainable"])
    m["primal.attainable.s"] = total(by_name["primal.attainable"])
    m["primal.marginal.s"] = total(by_name["primal.marginal"])

    rec = by_name["harness.recover"]
    self_s = 0.0
    dual_solves = refine = turnover = 0
    for sp in rec:
        self_s += sp.duration - total(children[sp.id])
        below = list(descendants(sp))
        dual_solves += sum(d.name == "dual.solve" for d in below)
        refine += sum(d.name == "solver.ipm" and d.status != OPTIMAL for d in below)
        turnover += sum(c.name == "solver.lp" and c.status != OPTIMAL
                        for c in children[sp.id])
    m["harness.recover.calls"] = len(rec)
    m["harness.recover.s"] = total(rec)
    m["harness.recover.self_s"] = self_s
    m["harness.recover.dual_solves_per_call"] = ratio(dual_solves, len(rec))
    m["harness.recover.refine_fallbacks"] = refine
    m["harness.recover.turnover_fallbacks"] = turnover

    gen = by_name["harness.generate"]
    attempts = sum(len(kids(sp, "dual.polytope")) for sp in gen)
    m["harness.generate.s"] = total(gen)
    m["harness.generate.attempts"] = attempts
    m["harness.generate.accept_ratio"] = ratio(sum(sp.error is None for sp in gen), attempts)
    m["harness.report_write.s"] = total(by_name["harness.report_write"])

    m["harness.worst_rel_gap"] = float(worst_rel_gap)
    m["trace.overhead_frac"] = ratio(overhead_s, wall_s)
    return m
