"""End-to-end duality harness.

Couples the primal and dual sides: locates yhat with v'(yhat) + x = 0 in the
optimal wealth t = I(y), where the equation is affine up to the drift of the
optimal density, by fixed-point steps from the primal optimum at x (at most
YHAT_MAX_SOLVES dual solves, then SolverIndeterminateError); recovers the
primal optimizer from the root solve's density, checks complementary
slackness, and assembles a full report (value grids, gaps, residuals) for a
market instance.  A report makes three kinds of batched interior-point
call: its dual grid, its primal solves over the x grid, and the steps of
its recoveries, whose yhat searches run in lockstep, one batched dual solve
per step over the x still searching.  Each search starts its first solve
from the primal optimum at its x, with the start multipliers its trades
give by complementary slackness, and warm-starts each later one from the
previous optimum; the moment it stops, its recovered payoff is certified by
its own trade-side LP.  ``recover_primal_from_dual`` is the one-x case,
started from the kept (or a new) primal solve at its x
(``primal._kept_solve``), so it gives a report's x record bit for bit, and
``find_yhat`` returns its yhat.
Also provides the seeded random-instance generator and the CLI's selftest driver.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import dual as du
from . import primal as pr
from . import utility as ut
from .errors import (
    BelowX0Error, ConfigError, DomainError, MarketError, SolverIndeterminateError, TcdlError,
    unwrap,
)
from .market import (
    MarketModel, _integer, _mapping, _number, build_market, market_to_dict, read_json,
)

DEFAULT_X_OFFSETS = (0.5, 1.0, 2.0)
# Margin above x0 for automatic x grids; keeps yhat away from the blow-up.
X0_MARGIN_COEFF = 0.05
# Largest y grid a report config may ask for by count; the grid is one
# batched dual solve, run in slices of bounded memory.
MAX_Y_GRID = 10_000
# The report config of each selftest seed, which fills in seed.seed.
SELFTEST_CONFIG = {"seed": {"depth": 3, "branching": 2, "lambda": 0.3, "rho": 0.2},
                   "utility": "log"}

DEFAULT_TOLERANCES = {
    "strong_duality": 1e-5,
    "weak_duality": 1e-6,
    "recovery": 1e-6,
    "slackness": 1e-6,
    "marginal": 1e-3,
    "convexity": 1e-7,
    "x0_slope": 1e-2,
    "yhat_root": 1e-7,
}
# The yhat search stops at |v'(y) + x| <= YHAT_STOP (1 + |x|), two decades
# inside the yhat_root tolerance and above the rounding floor of a dual
# solve's v' (about 2e-12), and gives up after YHAT_MAX_SOLVES dual solves.
YHAT_STOP = 1e-9
YHAT_MAX_SOLVES = 20
# Certificate tolerance of the recovered payoff: ghat sits exactly on the
# attainability boundary and lands within root-finding error of it, so the
# budget matches the yhat root residual.  It decides the recovery's
# attainable flag and is the tolerance its report row lists.
ATTAINABILITY_TOL = 1e-6


def model_hash(model: MarketModel) -> str:
    blob = json.dumps(market_to_dict(model), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def find_yhat(model: MarketModel, spec: ut.UtilitySpec, x: float) -> float:
    """Root of v'(y) + x = 0, found in the optimal wealth t = I(y), y = U'(t).

    The yhat of ``recover_primal_from_dual`` at x, which also solves that
    recovery's certificate LP, and raises what the recovery raises.
    """
    return recover_primal_from_dual(model, spec, x).yhat


def _optimal_wealth(spec: ut.UtilitySpec, x: float, p: np.ndarray, e: np.ndarray,
                    d: np.ndarray) -> float:
    """T(d) = (x + E[d e]) / E[d I(d)], the optimal wealth t = I(y) for the
    fixed leaf density d.

    As I(y z) = I(y) I(z), t solves E[d I(U'(t) d)] = x + E[d e].  T is
    positive because x > x0 >= E[d (-e)] for every density d of the polytope.
    """
    pd = p * d
    return float((x + pd @ e) / (pd @ ut.i_eval(spec, d)))


@dataclass
class RecoveryResult:
    yhat: float
    dual: du.DualSolution
    primal: pr.PrimalSolution
    attainable: bool
    attainability_slack: float   # superreplication price of ghat (<= 0 up to tol)
    yhat_dual_solves: int        # dual solves of the yhat search, the root solve included
    yhat_ipm_iterations: int     # their interior-point iterations, summed
    yhat_start: str              # where the search started: "primal" or "interior"


def recover_primal_from_dual(model: MarketModel, spec: ut.UtilitySpec, x: float,
                             polytope: du.CpsPolytope | None = None,
                             x0: float | None = None) -> RecoveryResult:
    """Reconstruct the primal optimizer ghat = I(yhat z0_T) - x - e_T from the dual.

    The one-x case of ``_recoveries``, started from ``primal._kept_solve`` at
    x (the solve ``solve_primal`` kept at this (spec, x) on this model
    object, else a new one) after the polytope's interior check, so it makes
    no dual solve beyond its yhat search, and equals a report's recovery at
    x bit for bit.  A polytope with an empty relative interior raises first,
    then an x at which the primal raises (below x0, not finite, a stalled
    solve) raises that error.  ``polytope`` and ``x0`` are unread, kept only
    for the benchmark's calls.
    """
    du.require_interior(du.cps_polytope(model))
    return unwrap(_recoveries(model, spec, [pr._kept_solve(model, spec, x)]))[0]


def _recoveries(model: MarketModel, spec: ut.UtilitySpec, primals: list) -> list:
    """``recover_primal_from_dual`` at each x of ``primals``, a primal batch
    as ``primal._solve_primals`` returns it: an x whose primal raised keeps
    that error as its outcome.

    The yhat searches of the solved x run in lockstep: each search step is
    one batched dual solve (``dual._solve_duals``) over the x still
    searching, and each x keeps its own y, warm start and stop test.  For
    the shipped utilities I(y z) = I(y) I(z), so g(t) = v'(U'(t)) + x equals
    -t E[z I(z)] + E[z e] + x, with z the optimal leaf density at U'(t).
    Were z fixed, the root would be T(z) = (x + E[z e]) / E[z I(z)]
    (``_optimal_wealth``), and every step solves the dual at y = U'(T(z)) of
    the latest density z.  Each x starts from its own primal optimum w*: by
    duality yhat = E[U'(w*)], and the pair (Z0*, Z1*) that
    ``primal.shadow_cps`` reads off w* and the multipliers nu is the dual
    optimizer up to the primal solve's residuals.  Its first z is the leaf
    density U'(w*) / E[U'(w*)], giving the first y.  On a polytope with
    lam > 0 its first solve starts at (1 - eps) (Z0*, Z1*) + eps times the
    interior point, eps twice the least weight that puts every slack above
    0, within [1e-6, 0.1], and from the multipliers that
    ``dual.trade_multipliers`` reads off the primal's trades at that y: by
    complementary slackness the start is then near the end of the dual's
    central path, not only near its optimum.  At lam = 0 the first solve
    starts at 0.9 Z0* + 0.1 times the interior point, from lam = 1/s.
    Where the first start is not strictly inside G z < h, the x starts from
    the interior point, its density and lam = 1/s instead.  Every dual
    solve runs at tolerance 1e-10, each after the first from 0.9 times the
    previous optimum plus 0.1 times the interior point and lam = 1/s.  The
    start only chooses where the search begins: the dual optimizer is
    unique (acceptance criterion 09), and the search stops on its own test
    |v'(y) + x| <= 1e-9 (1 + |x|), or fails with
    ``SolverIndeterminateError`` past ``YHAT_MAX_SOLVES`` dual solves; a
    solve that stalls raises, warm start or not.

    The moment an x's search stops, its yhat is U'(T(z)) on the root
    solve's density z, and its claim ghat is certified, and its strategy
    built, by its own max-min LP.  Per x its ``RecoveryResult``, or the
    error its primal or its own search raised.  A batch without a solved x
    returns without building the polytope."""
    out = list(primals)
    if all(isinstance(sol, Exception) for sol in primals):
        return out
    poly = du.cps_polytope(model)
    interior = du.require_interior(poly)
    p = model.tree.leaf_prob()
    e = model.endowment_vector()
    n = model.tree.n_nodes

    def next_y(x: float, d: np.ndarray) -> float:
        """U'(T(d)) at x: the y of the fixed point of the leaf density d."""
        return float(ut.u_prime(spec, _optimal_wealth(spec, x, p, e, d)))

    interior_slack = poly.h - poly.G @ interior

    # Per searching x: its next y, its warm start and start multipliers
    # (None: 1/s), where it started, its iterations so far and its last
    # v'(y) + x.
    searching = {}
    for k, sol in enumerate(primals):
        if isinstance(sol, Exception):
            continue
        z0, z1 = pr.shadow_cps(model, spec, sol)
        if poly.reduced:
            z = 0.9 * z0 + 0.1 * interior
        else:
            # The least weight on the interior point that puts the shadow
            # point strictly inside, doubled, within [1e-6, 0.1].
            z = np.concatenate([z0, z1])
            slack = poly.h - poly.G @ z
            below = slack < 0
            eps = 2.0 * np.max(-slack[below] / (interior_slack[below] - slack[below]), initial=0.0)
            eps = min(0.1, max(1e-6, eps))
            z = (1.0 - eps) * z + eps * interior
        start = "primal" if (poly.h - poly.G @ z).min() > 0 else "interior"
        if start == "interior":
            z0 = z = interior
        y = next_y(sol.x, poly.leaf_density(z0))
        lam = None
        if start == "primal" and not poly.reduced:
            lam = du.trade_multipliers(poly, y, sol.strategy.buy, sol.strategy.sell)
        searching[k] = (y, z, lam, start, 0, None)
    for solves in range(1, YHAT_MAX_SOLVES + 1):
        ks = list(searching)
        sols = du._solve_duals(model, spec, [searching[k][0] for k in ks], poly,
                               np.array([searching[k][1] for k in ks]), 1e-10,
                               [searching[k][2] for k in ks])
        for k, dsol in zip(ks, sols):
            _, _, _, start, iterations, _ = searching.pop(k)
            if isinstance(dsol, Exception):
                out[k] = dsol
                continue
            x = primals[k].x
            iterations += dsol.iterations
            g = dsol.derivative + x
            # At the stop, U'(T(z)) corrects yhat holding the leaf densities
            # fixed, so that the recovered payoff has E[z0 ghat] = 0: the dual
            # derivative carries a small flat-direction bias that would
            # otherwise leak into it.
            y = next_y(x, dsol.z0_T)
            if not abs(g) <= YHAT_STOP * (1.0 + abs(x)):
                # Near-degenerate polytopes leave flat directions in the dual
                # objective; a cold start pins the leaf densities only loosely
                # along them.
                searching[k] = (y, 0.9 * dsol.z + 0.1 * interior, None, start, iterations, g)
                continue
            ghat = ut.i_eval(spec, y * dsol.z0_T) - x - e
            # The margin max_u min_leaf (C u - ghat) is minus the superreplication
            # price of ghat, and the argmax u generates a payoff dominating ghat up
            # to that margin.
            margin, u = pr.max_min_wealth(model, 0.0, ghat)
            wealth = x + ghat + e
            psol = pr.PrimalSolution(
                x=float(x), strategy=pr.strategy_from_trades(model, x, u[:n], u[n:]),
                ghat=ghat, wealth=wealth, value=float(p @ ut.u_eval(spec, wealth)),
                kkt_residual=float("nan"), iterations=0,
            )
            out[k] = RecoveryResult(yhat=y, dual=dsol, primal=psol,
                                    attainable=bool(margin >= -ATTAINABILITY_TOL),
                                    attainability_slack=-float(margin), yhat_dual_solves=solves,
                                    yhat_ipm_iterations=iterations, yhat_start=start)
        if not searching:
            break
    for k, (*_, g) in searching.items():
        stop = YHAT_STOP * (1.0 + abs(primals[k].x))
        out[k] = SolverIndeterminateError(
            f"yhat search: |v'(y) + x| = {abs(g):.3e} above {stop:.3e} "
            f"after {YHAT_MAX_SOLVES} dual solves")
    return out


@dataclass
class SlacknessResiduals:
    r1: float   # |E[z0_T ghat]|
    r2: float   # |E[z0_T (x + ghat)] - x|
    r3: float   # singular terms; zero up to rounding on finite trees
    passed: bool


def slackness_check(model: MarketModel, primal_sol: pr.PrimalSolution,
                    dual_sol: du.DualSolution) -> SlacknessResiduals:
    p = model.tree.leaf_prob()
    z0_T = dual_sol.z0_T
    x = primal_sol.x
    r1 = abs(float((p * z0_T) @ primal_sol.ghat))
    r2 = abs(float((p * z0_T) @ (x + primal_sol.ghat)) - x)
    r3 = abs(dual_sol.singular_mass) * (1.0 + abs(x))
    tol = DEFAULT_TOLERANCES["slackness"]
    return SlacknessResiduals(r1=r1, r2=r2, r3=r3, passed=bool(r1 <= tol and r2 <= tol))


@dataclass
class DualityReport:
    metadata: dict
    x0: float
    x_records: list = field(default_factory=list)
    y_records: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "x0": self.x0,
            "x_records": self.x_records,
            "y_records": self.y_records,
            "checks": self.checks,
            "passed": self.passed,
        }

    def add_check(self, name: str, passed: bool, value: float, tolerance: float,
                  location: str = "") -> None:
        self.checks.append({
            "name": name, "passed": bool(passed), "value": float(value),
            "tolerance": float(tolerance), "location": location,
        })


def _grid(values, name: str) -> np.ndarray:
    """``values`` as floats; a ``DomainError`` unless a nonempty 1-D list of numbers."""
    try:
        grid = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{name} grid is not a list of numbers: {values!r}") from None
    if grid.ndim != 1 or not grid.size:
        raise DomainError(f"{name} grid must be a nonempty 1-D list, got shape {grid.shape}")
    return grid


def conjugacy_check(model: MarketModel, spec: ut.UtilitySpec,
                    x_grid, y_grid,
                    check_marginals: bool = True,
                    metadata: dict | None = None) -> DualityReport:
    """Run the full Main Theorem certification on the given grids.

    The y grid is sorted ascending before the solves; the convexity,
    monotonicity and large-y slope checks read it in that order.  Either
    grid, when it is not a nonempty 1-D list of numbers, and a y grid with a
    non-finite y or a y that appears twice, is a ``DomainError`` before any
    solve; an x that is not finite is refused by its primal solve.  Its two
    phase-1 LPs, the CPS polytope's (dual grid and yhat searches) and the
    trade side's (x0 and the primal start), are solved once per model object.
    """
    tol = DEFAULT_TOLERANCES
    y_grid, xs = _grid(y_grid, "y"), [float(x) for x in _grid(x_grid, "x")]
    if not np.isfinite(y_grid).all():
        raise DomainError(f"y grid has a non-finite y={float(y_grid[~np.isfinite(y_grid)][0])!r}")
    y_grid = np.sort(y_grid)
    repeated = y_grid[1:][np.diff(y_grid) == 0]
    if repeated.size:
        raise DomainError(f"y grid repeats y={float(repeated[0])!r}")
    x0 = du.compute_x0(model)
    p = model.tree.leaf_prob()
    report = DualityReport(metadata=dict(metadata or {}), x0=x0)
    report.metadata.setdefault("model_hash", model_hash(model))
    report.metadata.setdefault("utility", spec.label())
    report.metadata["lambda"] = model.lam
    report.metadata["rho"] = model.rho

    y_solutions = du.dual_grid(model, spec, y_grid)
    for sol in y_solutions:
        report.y_records.append({
            "y": sol.y, "v": sol.value, "v_prime": sol.derivative,
            "singular_mass": sol.singular_mass, "kkt_residual": sol.kkt_residual,
            "ipm_iterations": sol.iterations,
        })

    # Convexity of v along the grid (midpoint test) and monotone v'.
    ys = np.array([s.y for s in y_solutions])
    vs = np.array([s.value for s in y_solutions])
    vps = np.array([s.derivative for s in y_solutions])
    worst = 0.0
    for i in range(len(ys) - 2):
        lamb = (ys[i + 1] - ys[i]) / (ys[i + 2] - ys[i])
        chord = (1 - lamb) * vs[i] + lamb * vs[i + 2]
        worst = max(worst, vs[i + 1] - chord)
    report.add_check("v_convex_midpoint", worst <= tol["convexity"], worst, tol["convexity"])
    mono = float(np.min(np.diff(vps))) if len(vps) > 1 else 0.0
    report.add_check("v_prime_increasing", mono >= -tol["convexity"], mono, tol["convexity"])
    if len(ys) > 1 and ys[-1] >= 1e3 - 1e-9:
        slope = (vs[-1] - vs[-2]) / (ys[-1] - ys[-2])
        err = abs(-slope - x0)
        report.add_check("x0_matches_large_y_slope", err <= tol["x0_slope"], err,
                         tol["x0_slope"], location=f"y={ys[-1]:g}")

    # One batched primal solve over the x grid, then the recoveries, their
    # yhat searches in lockstep.  Each x meets its own failure where its own
    # solves would have raised it; an x the primal refuses as below x0 is
    # recorded so, and one outside its domain raises.
    primals = pr._solve_primals(model, spec, xs)
    for x, psol, rec in zip(xs, primals, _recoveries(model, spec, primals)):
        if isinstance(rec, BelowX0Error):
            report.x_records.append({"x": x, "status": "below-x0", "u": "-inf"})
            continue
        if isinstance(rec, SolverIndeterminateError):
            report.add_check("pipeline", False, float("nan"), 0.0,
                             location=f"x={x:g}: {rec}")
            report.x_records.append({"x": x, "status": "failed", "error": str(rec)})
            continue
        unwrap([rec])
        yhat, dsol = rec.yhat, rec.dual
        u_val = psol.value
        gap = u_val - (dsol.value + x * yhat)
        rel_gap = abs(gap) / (1.0 + abs(u_val))
        slack = slackness_check(model, rec.primal, dsol)

        record = {
            "x": x, "status": "ok", "u": u_val, "yhat": yhat,
            "v_at_yhat": dsol.value, "gap": gap, "rel_gap": rel_gap,
            "primal_kkt_residual": psol.kkt_residual,
            "primal_ipm_iterations": psol.iterations,
            "primal_stall_accepted": psol.stall_accepted,
            "recovery_value": rec.primal.value,
            "recovery_attainable": rec.attainable,
            "yhat_dual_solves": rec.yhat_dual_solves,
            "yhat_ipm_iterations": rec.yhat_ipm_iterations,
            "yhat_start": rec.yhat_start,
            "yhat_kkt_residual": dsol.kkt_residual,
            "slackness": {"r1": slack.r1, "r2": slack.r2, "r3": slack.r3},
        }
        report.add_check("strong_duality", rel_gap <= tol["strong_duality"],
                         rel_gap, tol["strong_duality"], location=f"x={x:g}")
        # Weak duality against every grid y.
        min_env = float(np.min(vs + x * ys))
        report.add_check("weak_duality_u_le_env",
                         u_val <= min_env + tol["weak_duality"],
                         u_val - min_env, tol["weak_duality"], location=f"x={x:g}")
        report.add_check("recovery_attainable", rec.attainable,
                         rec.attainability_slack, ATTAINABILITY_TOL, location=f"x={x:g}")
        report.add_check("recovery_optimal",
                         rec.primal.value >= u_val - tol["recovery"],
                         rec.primal.value - u_val, tol["recovery"], location=f"x={x:g}")
        report.add_check("slackness_r1", slack.r1 <= tol["slackness"], slack.r1,
                         tol["slackness"], location=f"x={x:g}")
        report.add_check("slackness_r2", slack.r2 <= tol["slackness"], slack.r2,
                         tol["slackness"], location=f"x={x:g}")
        if check_marginals:
            # Envelope identity: A(x) = x + A(0), so u'(x) = E[U'(w*)] at the optimum.
            marg = float(p @ ut.u_prime(spec, psol.wealth))
            record["marginal"] = marg
            report.add_check("marginal_equals_yhat",
                             abs(marg - yhat) <= tol["marginal"] * (1.0 + yhat),
                             abs(marg - yhat), tol["marginal"] * (1.0 + yhat),
                             location=f"x={x:g}")
        report.x_records.append(record)

    # v(y) >= sup_x {u(x) - x y} - tol on the computed grid.
    solved = [(r["x"], r["u"]) for r in report.x_records if r.get("status") == "ok"]
    if solved:
        for yrec in report.y_records:
            y = yrec["y"]
            env = max(u - x * y for x, u in solved)
            report.add_check("weak_duality_v_ge_env",
                             yrec["v"] >= env - tol["strong_duality"],
                             env - yrec["v"], tol["strong_duality"],
                             location=f"y={y:g}")
    return report


def _draw_tree(rng: np.random.Generator, depth: int, branching: int, rho: float) -> dict:
    """One draw of ``random_instance``: a market spec without its ``lambda``.

    Nodes are listed level by level, so every child comes after its parent.
    """
    nodes = [{"id": "r", "parent": None, "time": 0}]
    prices = {"r": 1.0}
    cond: dict[str, dict[str, float]] = {}
    frontier = ["r"]
    for t in range(1, depth + 1):
        nxt = []
        for nid in frontier:
            w = rng.uniform(size=branching)
            ps = 0.05 + (1.0 - 0.05 * branching) * w / w.sum()
            row = {}
            for j in range(branching):
                cid = f"{nid}{j}"
                nodes.append({"id": cid, "parent": nid, "time": t})
                prices[cid] = prices[nid] * rng.uniform(0.5, 2.0)
                row[cid] = float(ps[j])
                nxt.append(cid)
            cond[nid] = row
        frontier = nxt
    endow = {nid: float(rng.uniform(-rho, rho)) if rho > 0 else 0.0 for nid in frontier}
    return {"nodes": nodes, "cond_prob": cond, "prices": prices, "endowment": endow}


def _spreads_admit_cps(draw: dict, lam: float) -> bool:
    """Whether the draw's bid-ask spreads admit a strictly consistent price system.

    One exists exactly when some price strictly inside every node's spread
    ((1 - lam) S, S), the ask itself at lam = 0, lies strictly between its
    children's prices or equals all of them (Jouini & Kallal, J. Econ. Theory
    66, 1995).  Leaf to root, the prices a node can take form its open spread
    cut by (lowest lower end, highest upper end) over its children's.  A draw
    that passes still goes to the phase-1 LP, which decides acceptance.
    """
    prices, cond = draw["prices"], draw["cond_prob"]
    span: dict[str, tuple[float, float]] = {}
    for node in reversed(draw["nodes"]):
        nid = node["id"]
        ask = prices[nid]
        lo, hi = (1.0 - lam) * ask, ask
        kids = cond.get(nid)
        if kids:
            kid_lo = min(span[c][0] for c in kids)
            kid_hi = max(span[c][1] for c in kids)
            if lam == 0.0:
                if not (kid_lo < ask < kid_hi or kid_lo == ask == kid_hi):
                    return False
            else:
                lo, hi = max(lo, kid_lo), min(hi, kid_hi)
                if not lo < hi:
                    return False
        span[nid] = (lo, hi)
    return True


def random_instance(seed: int, depth: int, branching: int, lam: float,
                    rho: float, max_attempts: int = 100) -> MarketModel:
    """Seeded random market on a full (branching)^depth tree.

    Prices start at 1 and move by uniform multiplicative shocks in [0.5, 2];
    conditional probabilities are uniform-normalized with a 0.05 floor; the
    endowment is uniform in [-rho, rho], and zero without a draw at rho = 0.
    Regenerates until the CPS polytope has a strictly interior point.  A draw
    whose spreads admit no strictly consistent price system is rejected by
    one pass over its nodes, without building its market or polytope; the
    attempt count includes it.
    """
    return _generate_instance(seed, depth, branching, lam, rho, max_attempts)[0]


def _generate_instance(seed: int, depth: int, branching: int, lam: float, rho: float,
                       max_attempts: int = 100) -> tuple[MarketModel, int]:
    """``random_instance``'s market, which keeps its polytope LP, and its attempt count."""
    if not (1 <= depth <= 5 and 1 <= branching <= 3):
        raise MarketError("random_instance is desk scale: 1 <= depth <= 5, 1 <= branching <= 3, "
                          f"got depth {depth}, branching {branching}")
    if not 0 <= rho < np.inf:
        raise MarketError(f"random_instance needs a finite endowment bound rho >= 0, got {rho}")
    # build_market's own check would see only the draws the spread pass keeps.
    if not 0.0 <= lam < 1.0:
        raise MarketError(f"invalid market: lambda {float(lam)} outside [0, 1)")
    rng = np.random.default_rng(seed)
    for attempt in range(1, max_attempts + 1):
        draw = _draw_tree(rng, depth, branching, rho)
        if not _spreads_admit_cps(draw, lam):
            continue
        model = build_market(dict(draw, **{"lambda": lam}))
        if du.cps_polytope(model).interior is not None:
            return model, attempt
    raise MarketError(f"no CPS-feasible instance after {max_attempts} attempts (seed {seed})")


# ---------------------------------------------------------------------------
# Experiment driver and report files


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """``header`` and ``rows`` as CSV, one line each; a field holding a comma,
    a quote or a newline is quoted, and a float prints as ``str`` does."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_report_files(report: DualityReport, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "report": os.path.join(out_dir, "report.json"),
        "u_curve": os.path.join(out_dir, "u_curve.csv"),
        "v_curve": os.path.join(out_dir, "v_curve.csv"),
        "checks": os.path.join(out_dir, "checks.csv"),
    }
    with open(paths["report"], "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_csv(paths["u_curve"],
              ["x", "status", "u", "yhat", "gap", "marginal"],
              [[r["x"], r.get("status", ""), r.get("u", ""),
                r.get("yhat", ""), r.get("gap", ""), r.get("marginal", "")]
               for r in report.x_records])
    write_csv(paths["v_curve"],
              ["y", "v", "v_prime", "singular_mass"],
              [[r["y"], r["v"], r["v_prime"], r["singular_mass"]]
               for r in report.y_records])
    write_csv(paths["checks"],
              ["name", "location", "value", "tolerance", "passed"],
              [[c["name"], c["location"], c["value"], c["tolerance"], c["passed"]]
               for c in report.checks])
    return paths


def _config_typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ConfigError(f"config field {what!r} must be a {kind.__name__}, got {value!r}")
    return value


def _config_number(value, what: str, low: float = -np.inf) -> float:
    number = _number(value, f"config field {what!r}", ConfigError)
    if not low < number < np.inf:
        bound = "" if low == -np.inf else f" above {low:g}"
        raise ConfigError(f"config field {what!r} must be a finite number{bound}, got {value!r}")
    return number


def _config_numbers(value, what: str, low: float = -np.inf) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"config field {what!r} must be a nonempty JSON list, got {value!r}")
    return [_config_number(v, f"{what}[{i}]", low) for i, v in enumerate(value)]


def _config_keys(mapping, what: str, *allowed: str) -> None:
    unknown = sorted(set(map(str, _mapping(mapping, f"config field {what!r}", ConfigError)))
                     - set(allowed))
    if unknown:
        raise ConfigError(f"config field {what!r} has unknown keys {unknown}")


def run_experiment(config: dict, output_dir: str | None = None) -> DualityReport:
    """Full pipeline on a configured instance; writes report files.

    The config supplies either ``market`` (path to a market JSON file) or
    ``seed`` ({seed, depth, branching, lambda, rho}), plus optional
    ``utility`` (default log), ``x_grid`` or ``x_offsets``, ``y_grid``
    ({min, max, n} or a list), and ``check_marginals``; ``ConfigError`` names
    a malformed or unknown field.  The generator's polytope LP and the x0 LP,
    for the default x grid, stay on the model object for ``conjugacy_check``.
    """
    _config_keys(config, "config", "market", "seed", "utility", "x_grid", "x_offsets",
                 "y_grid", "check_marginals")
    has_market = "market" in config
    has_seed = "seed" in config
    if has_market == has_seed:
        raise ConfigError("config must name exactly one of 'market' or 'seed'")
    if "x_grid" in config and "x_offsets" in config:
        raise ConfigError("config must name at most one of 'x_grid' or 'x_offsets'")

    meta: dict = {}
    if has_market:
        model = build_market(read_json(_config_typed(config["market"], str, "market")))
        meta["source"] = {"market": config["market"]}
        label = os.path.splitext(os.path.basename(config["market"]))[0]
    else:
        sd = config["seed"]
        _config_keys(sd, "seed", "seed", "depth", "branching", "lambda", "rho")
        seed = _integer(sd.get("seed"), "config field 'seed.seed'", ConfigError)
        model, attempts = _generate_instance(
            seed=seed,
            depth=_integer(sd.get("depth", 3), "config field 'seed.depth'", ConfigError),
            branching=_integer(sd.get("branching", 2), "config field 'seed.branching'", ConfigError),
            lam=_config_number(sd.get("lambda", 0.1), "seed.lambda"),
            rho=_config_number(sd.get("rho", 0.2), "seed.rho"),
        )
        meta["source"] = {"seed": dict(sd), "attempts": attempts}
        label = f"seed{seed}"

    spec = ut.parse_utility(_config_typed(config.get("utility", "log"), str, "utility"))

    yg = config.get("y_grid")
    if yg is None:
        y_grid = du.default_y_grid()
    elif isinstance(yg, dict):
        _config_keys(yg, "y_grid", "min", "max", "n")
        lo = _config_number(yg.get("min"), "y_grid.min", 0.0)
        hi = _config_number(yg.get("max"), "y_grid.max", 0.0)
        count = _integer(yg.get("n"), "config field 'y_grid.n'", ConfigError)
        if count < 1:
            raise ConfigError(f"config field 'y_grid.n' must be at least 1, got {count}")
        if count > MAX_Y_GRID:
            raise ConfigError(f"config field 'y_grid.n' must be at most {MAX_Y_GRID}, "
                              f"got {count}")
        y_grid = np.logspace(np.log10(lo), np.log10(hi), count)
    else:
        y_grid = np.array(_config_numbers(yg, "y_grid", 0.0))

    x_grid = _config_numbers(config["x_grid"], "x_grid") if "x_grid" in config else None
    offsets = (_config_numbers(config["x_offsets"], "x_offsets")
               if "x_offsets" in config else DEFAULT_X_OFFSETS)
    check_marginals = _config_typed(config.get("check_marginals", True), bool,
                                    "check_marginals")

    x0 = du.compute_x0(model)
    if x_grid is None:
        margin = X0_MARGIN_COEFF * (1.0 + abs(x0))
        x_grid = [x0 + margin + float(o) for o in offsets]
    report = conjugacy_check(model, spec, x_grid, y_grid,
                             check_marginals=check_marginals, metadata=meta)
    if output_dir is not None:
        sub = os.path.join(output_dir, f"{report.metadata['model_hash'][:12]}-{label}")
        write_report_files(report, sub)
    return report


def _selftest_one(args) -> tuple:
    seed, output_dir = args
    cfg = dict(SELFTEST_CONFIG, seed=dict(SELFTEST_CONFIG["seed"], seed=seed))
    try:
        return seed, run_experiment(cfg, output_dir=output_dir).passed
    except TcdlError as exc:
        return seed, exc


def selftest(seeds, output_dir: str, jobs: int = 1) -> dict:
    """Run the experiment pipeline over a seed range; returns per seed its
    pass flag, or the ``TcdlError`` its run raised, so one failing seed
    leaves the others' results in place.

    ``jobs`` (at least 1) caps the worker processes, as do the seed count
    and the CPU count: the pool starts all its workers at once.  One worker
    runs the seeds in this process.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    tasks = [(int(s), output_dir) for s in seeds]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: it is most of what the library's import costs beyond
        # numpy and scipy's two extensions, and one job never needs it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_selftest_one, tasks))
    else:
        results = [_selftest_one(t) for t in tasks]
    return {seed: ok for seed, ok in results}
