"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in ``setup`` and lists
one pass of items in ``items``; ``run_item`` runs one item in a closed loop
(single process, ``jobs=1``) and gates its output.  A timed loop stops only
after a whole number of passes, so every item weighs the same in the
figures.  Every library call goes
through a module attribute (``harness.recover_primal_from_dual``, ...) so the
tracer's wrappers see it.

- ``recovery-sweep``: acceptance criterion 02's sweep.  One item is
  ``solve_primal`` + ``recover_primal_from_dual`` + ``slackness_check`` at
  one (instance, utility, x), gated by the criterion 02/03/08 conditions.
  Its instances are criterion 02's fifty, which the acceptance suite
  certifies.
- ``selftest``: one item is ``harness.selftest([seed], jobs=1)`` with its
  default config, writing the report files; gated by the report's pass flag.
  The seeds are 1..10, in an order set by the workload seed.
- ``deep-tree``: one item is the work of ``tcdl x0``, ``tcdl dual --y 1`` and
  ``tcdl primal --x x0+1`` on one 121-node tree (depth 4, branching 3),
  gated by ``x > x0`` and weak duality ``u(x) <= v(1) + x``.

Tolerances come from ``harness.DEFAULT_TOLERANCES``.
"""

from __future__ import annotations

import glob
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from tcdl import dual, harness, primal, utility
from tcdl.errors import MarketError, TcdlError

LOG = utility.parse_utility("log")
POWER = utility.parse_utility("power:0.5")

# (lambda, depth, branching): the acceptance suite's COMBOS, at most 40 nodes.
COMBOS = ((0.01, 2, 3), (0.1, 2, 3), (0.3, 3, 2), (0.3, 3, 3))
# Criterion 02's instances: random_instance(2000 + k, *COMBOS[k % 4], rho=0.3)
# for k < 50.  Every run uses all of them; the workload seed picks one x
# offset per instance and the order of the pass.  A fresh draw of instances
# per seed spread the figures threefold more, and can stall: instance 103012
# with power:0.5 raises SolverIndeterminateError after about 27 s.
SWEEP_POOL_BASE, SWEEP_INSTANCES = 2000, 50
SWEEP_RHO = 0.3
SWEEP_OFFSETS = (0.5, 1.0, 2.0)

# `tcdl selftest --seeds 1..10`, the seeds acceptance criterion 10 certifies;
# the workload seed sets their order.  Fresh seeds are not used: their report
# cost varies twofold, and seed 142014's report fails after about a minute.
SELFTEST_SEEDS = 10

# The first twelve instance seeds that random_instance accepts at 121 nodes,
# from seed 1 on; a candidate is skipped only when random_instance raises.
# The workload seed sets their order.  Fresh draws per workload seed spread
# the figures more than the bound allows (per-instance times vary from 0.45 s
# to 1.2 s), and instance 137002 makes `tcdl dual --y 1` exit 3.
DEEP_DEPTH, DEEP_BRANCHING, DEEP_LAM, DEEP_RHO = 4, 3, 0.3, 0.2
DEEP_INSTANCES = 12
DEEP_CANDIDATES_PER_INSTANCE = 10


@dataclass
class Outcome:
    ok: bool
    phases: dict = field(default_factory=dict)   # seconds per command inside the item
    rel_gap: float | None = None


class Workload:
    def worst_rel_gap(self, state: dict, outcomes: list) -> float:
        """Worst strong-duality gap of a pass, for the traced run; 0 if none."""
        return max((o.rel_gap for o in outcomes if o is not None and o.rel_gap is not None),
                   default=0.0)


def warm_up(seed: int) -> None:
    """One small recovery, so lazy imports and first-call costs land in set-up."""
    model = harness.random_instance(100_000 + seed, depth=2, branching=2,
                                    lam=0.3, rho=0.2, max_attempts=600)
    poly = dual.cps_polytope(model)
    x0 = dual.compute_x0(model, poly)
    primal.solve_primal(model, LOG, x0 + 1.0)
    harness.recover_primal_from_dual(model, LOG, x0 + 1.0, polytope=poly, x0=x0)


class RecoverySweep(Workload):
    name = "recovery-sweep"
    item_kind = "run"

    def setup(self, seed: int, scratch: str) -> dict:
        instances = []
        for k in range(SWEEP_INSTANCES):
            lam, depth, branching = COMBOS[k % len(COMBOS)]
            model = harness.random_instance(SWEEP_POOL_BASE + k, depth=depth,
                                            branching=branching, lam=lam,
                                            rho=SWEEP_RHO, max_attempts=600)
            poly = dual.cps_polytope(model)
            x0 = dual.compute_x0(model, poly)
            instances.append((model, poly, x0))
        # A pass visits every instance once per utility, at its seeded offset
        # and in seeded order.
        rng = np.random.default_rng(seed)
        offsets = rng.choice(SWEEP_OFFSETS, size=len(instances))
        items = [(int(k), spec, float(offsets[k]))
                 for spec in (LOG, POWER) for k in rng.permutation(len(instances))]
        return {"instances": instances, "items": items,
                "instance_seeds": [SWEEP_POOL_BASE + k for k in range(len(instances))]}

    def items(self, state: dict) -> list:
        return state["items"]

    def run_item(self, state: dict, item) -> Outcome:
        k, spec, offset = item
        model, poly, x0 = state["instances"][k]
        x = x0 + harness.X0_MARGIN_COEFF * (1.0 + abs(x0)) + offset
        tol = harness.DEFAULT_TOLERANCES
        psol = primal.solve_primal(model, spec, x)
        rec = harness.recover_primal_from_dual(model, spec, x, polytope=poly, x0=x0)
        slack = harness.slackness_check(model, rec.primal, rec.dual)
        gap = psol.value - (rec.dual.value + x * rec.yhat)
        rel_gap = abs(gap) / (1.0 + abs(psol.value))
        ok = (rel_gap <= tol["strong_duality"]                          # criterion 02
              and rec.attainable                                         # criterion 03
              and psol.value - rec.primal.value <= tol["recovery"]
              and max(slack.r1, slack.r2) <= tol["slackness"])           # criterion 08
        return Outcome(ok=bool(ok), rel_gap=rel_gap)


class Selftest(Workload):
    name = "selftest"
    item_kind = "seed"

    def setup(self, seed: int, scratch: str) -> dict:
        order = np.random.default_rng(seed).permutation(SELFTEST_SEEDS)
        return {"instance_seeds": [int(j) + 1 for j in order], "out_dir": scratch}

    def items(self, state: dict) -> list:
        return state["instance_seeds"]

    def run_item(self, state: dict, seed: int) -> Outcome:
        passed = harness.selftest([seed], state["out_dir"], jobs=1)
        return Outcome(ok=passed.get(seed) is True)

    def worst_rel_gap(self, state: dict, outcomes: list) -> float:
        """Read off the report files the pass wrote, outside any item's timing."""
        worst = 0.0
        for path in glob.glob(os.path.join(state["out_dir"], "*-seed*", "report.json")):
            with open(path) as fh:
                for rec in json.load(fh)["x_records"]:
                    if "rel_gap" in rec:
                        worst = max(worst, float(rec["rel_gap"]))
        return worst


class DeepTree(Workload):
    name = "deep-tree"
    item_kind = "instance"

    def setup(self, seed: int, scratch: str) -> dict:
        models, used, skipped = [], [], []
        cand, last = 1, 1 + DEEP_INSTANCES * DEEP_CANDIDATES_PER_INSTANCE
        while len(models) < DEEP_INSTANCES:
            if cand == last:
                raise MarketError(f"only {len(models)} feasible deep-tree instances "
                                  f"among seeds 1..{last - 1}")
            try:
                models.append(harness.random_instance(
                    cand, depth=DEEP_DEPTH, branching=DEEP_BRANCHING,
                    lam=DEEP_LAM, rho=DEEP_RHO))
                used.append(cand)
            except MarketError:
                skipped.append(cand)
            cand += 1
        order = np.random.default_rng(seed).permutation(len(models))
        return {"models": [models[k] for k in order],
                "instance_seeds": [used[k] for k in order], "skipped_seeds": skipped}

    def items(self, state: dict) -> list:
        return list(range(len(state["models"])))

    def run_item(self, state: dict, k: int) -> Outcome:
        model = state["models"][k]
        clock = time.perf_counter
        t0 = clock()
        x0 = dual.compute_x0(model)                       # tcdl x0
        t1 = clock()
        dsol = dual.solve_dual(model, LOG, 1.0)           # tcdl dual --y 1
        t2 = clock()
        x = x0 + 1.0
        psol = primal.solve_primal(model, LOG, x)         # tcdl primal --x x0+1
        t3 = clock()
        tol = harness.DEFAULT_TOLERANCES
        ok = x > x0 and psol.value <= dsol.value + x * 1.0 + tol["weak_duality"]
        return Outcome(ok=bool(ok), phases={"x0": t1 - t0, "dual": t2 - t1, "primal": t3 - t2})


WORKLOADS = {w.name: w for w in (RecoverySweep(), Selftest(), DeepTree())}
