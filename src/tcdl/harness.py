"""End-to-end duality harness.

Couples the primal and dual sides: locates yhat with v'(yhat) + x = 0 in the
optimal wealth t = I(y), where the equation is affine up to the drift of the
optimal density, by fixed-point and secant steps (at most YHAT_MAX_SOLVES
dual solves, then SolverIndeterminateError); recovers the primal optimizer
from the root solve's density, checks complementary slackness, and
assembles a full report (value grids, gaps, residuals) for a market
instance.  A report makes three kinds of batched interior-point call: its
dual grid, its primal solves over the x grid, and its yhat searches, which
run in lockstep, one batched dual solve per search step over the x still
searching.  A search warm-starts each solve from the previous optimum; a
report's search starts its first from the primal optimum at its x, a one-x
search from the interior point.  Each recovered payoff is certified by its
own trade-side LP.
Also provides the seeded random-instance generator and the CLI's selftest driver.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
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

    For the shipped utilities I(y z) = I(y) I(z), so g(t) = v'(U'(t)) + x
    equals -t E[z I(z)] + E[z e] + x, with z the optimal leaf density at
    U'(t).  Were z fixed, the root would be T(z) = (x + E[z e]) / E[z I(z)].
    The search starts at T of the polytope's interior density, then takes
    secant steps on its last two (t, g) pairs, falling back to T of the
    latest density when the secant step is not positive.  Every dual solve
    runs at tolerance 1e-10, each after the first from 0.9 times the previous
    optimum plus 0.1 times the interior point.  It stops at |g| <= 1e-9
    (1 + |x|) and raises ``SolverIndeterminateError`` past ``YHAT_MAX_SOLVES``
    dual solves.  Returns U'(T(z)) on the root solve's density z, the yhat
    ``recover_primal_from_dual`` reports.  It is the one-x case of
    ``_yhat_searches``, which runs the searches of many x in lockstep, and
    starts from the interior point: only a report, which has solved the
    primal at each x, starts its searches from those optima.
    """
    return unwrap(_yhat_searches(model, spec, [x]))[0][0]


def _optimal_wealth(spec: ut.UtilitySpec, x: float, p: np.ndarray, e: np.ndarray,
                    d: np.ndarray) -> float:
    """T(d) = (x + E[d e]) / E[d I(d)], the optimal wealth t = I(y) for the
    fixed leaf density d.

    As I(y z) = I(y) I(z), t solves E[d I(U'(t) d)] = x + E[d e].  T is
    positive because x > x0 >= E[d (-e)] for every density d of the polytope.
    """
    pd = p * d
    return float((x + pd @ e) / (pd @ ut.i_eval(spec, d)))


def _yhat_searches(model: MarketModel, spec: ut.UtilitySpec, xs: list,
                   primals: list | None = None) -> list:
    """``find_yhat``'s search at each x of ``xs``, in lockstep: each search
    step is one batched dual solve (``dual._solve_duals``) over the x still
    searching, and an x leaves the batch when its search stops.  Each x keeps
    its own t, secant pair, warm start and stop test.

    ``primals``, the ``PrimalSolution`` at each x, starts each search from
    its own optimum w*: by duality yhat = E[U'(w*)], and the pair (Z0*, Z1*)
    that ``primal.shadow_cps`` reads off w* and the multipliers nu is the
    dual optimizer up to the primal solve's residuals.  Its first t is T of
    the leaf density U'(w*) / E[U'(w*)], and its first solve starts at 0.9
    times (Z0*, Z1*), Z0* alone at lam = 0, plus 0.1 times the interior
    point.  Where that start is not strictly inside G z < h, the x starts
    from the interior point as ``find_yhat`` does.  The start only chooses
    where the search begins: the dual optimizer is unique (acceptance
    criterion 09), every solve runs to tolerance 1e-10, and the search stops
    on its own test |v'(y) + x| <= 1e-9 (1 + |x|) whatever its start.
    Returns per x its yhat, the dual solve at the root of its search, the
    solves and interior-point iterations the search took and where it
    started ("primal" or "interior"), or the error its own search raises."""
    out = [None if np.isfinite(x) else DomainError(f"yhat search needs a finite x, got x={x!r}")
           for x in xs]
    if None not in out:
        return out
    poly = du.cps_polytope(model)
    x0 = du.compute_x0(model)
    for k, x in enumerate(xs):
        if out[k] is None and x <= x0:
            out[k] = BelowX0Error(
                f"below-x0: x={x} <= x0={x0}, the infimum of v(y)+xy is -infinity")
    if None not in out:
        return out
    interior = du.require_interior(poly)
    p = model.tree.leaf_prob()
    e = model.endowment_vector()

    def start(k: int) -> tuple:
        """x k's first t, its warm start and where it started."""
        if primals is not None:
            z0, z1 = pr.shadow_cps(model, spec, primals[k])
            z = 0.9 * np.concatenate([z0, z1])[:poly.n_vars] + 0.1 * interior
            if (poly.h - poly.G @ z).min() > 0:
                return _optimal_wealth(spec, xs[k], p, e, poly.leaf_density(z0)), z, "primal"
        return _optimal_wealth(spec, xs[k], p, e, poly.leaf_density(interior)), interior, "interior"

    # Per searching x: its t, its last (t, g) pair, its start and its iterations so far.
    searching, started = {}, {}
    for k, o in enumerate(out):
        if o is None:
            t, z, started[k] = start(k)
            searching[k] = (t, None, z, 0)
    for solves in range(1, YHAT_MAX_SOLVES + 1):
        ks = list(searching)
        sols = du._solve_duals(model, spec, [ut.u_prime(spec, searching[k][0]) for k in ks],
                               poly, np.array([searching[k][2] for k in ks]), 1e-10)
        for k, sol in zip(ks, sols):
            t, last, _, iterations = searching.pop(k)
            if isinstance(sol, Exception):
                out[k] = sol
                continue
            x = xs[k]
            iterations += sol.iterations
            g = sol.derivative + x
            if abs(g) <= YHAT_STOP * (1.0 + abs(x)):
                # Correct yhat holding the leaf densities fixed, so that the
                # recovered payoff has E[z0 ghat] = 0: the dual derivative
                # carries a small flat-direction bias that would otherwise
                # leak into it.
                yhat = float(ut.u_prime(spec, _optimal_wealth(spec, x, p, e, sol.z0_T)))
                out[k] = (yhat, sol, solves, iterations, started[k])
                continue
            secant = last is not None and g != last[1]
            step = t - g * (t - last[0]) / (g - last[1]) if secant else 0.0
            if not 0.0 < step < np.inf:
                step = _optimal_wealth(spec, x, p, e, sol.z0_T)
            # Near-degenerate polytopes leave flat directions in the dual
            # objective; a cold start pins the leaf densities only loosely
            # along them.
            searching[k] = (step, (t, g), 0.9 * sol.z + 0.1 * interior, iterations)
        if not searching:
            break
    for k, (_, (_, g), _, _) in searching.items():
        out[k] = SolverIndeterminateError(
            f"yhat search: |v'(y) + x| = {abs(g):.3e} above {YHAT_STOP * (1.0 + abs(xs[k])):.3e} "
            f"after {YHAT_MAX_SOLVES} dual solves")
    return out


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

    yhat and z0_T come from the dual solve at the root of ``find_yhat``'s
    search, which starts from the interior point, so the recovery makes no
    dual solve of its own.  It is the one-x case of ``_recoveries``.
    ``polytope`` and ``x0`` are unread, kept only for the benchmark's calls.
    """
    return unwrap(_recoveries(model, spec, [x]))[0]


def _recoveries(model: MarketModel, spec: ut.UtilitySpec, xs: list,
                primals: list | None = None) -> list:
    """``recover_primal_from_dual`` at each x of ``xs``: the yhat searches run
    in lockstep (``_yhat_searches``, each x starting from its own optimum in
    ``primals`` when given), and each claim ghat whose search ended is
    certified, and its strategy built, by its own max-min LP.  Per x its
    ``RecoveryResult``, or the error its own search raises."""
    tree = model.tree
    e = model.endowment_vector()
    p = tree.leaf_prob()
    n = tree.n_nodes
    out = _yhat_searches(model, spec, xs, primals)
    for k, found in enumerate(out):
        if isinstance(found, Exception):
            continue
        yhat, dsol, solves, iterations, start = found
        x = xs[k]
        ghat = ut.i_eval(spec, yhat * dsol.z0_T) - x - e
        # The margin max_u min_leaf (C u - ghat) is minus the superreplication
        # price of ghat, and the argmax u generates a payoff dominating ghat up
        # to that margin.
        margin, u = pr.max_min_wealth(model, 0.0, ghat)
        wealth = x + ghat + e
        psol = pr.PrimalSolution(
            x=float(x), strategy=pr.strategy_from_trades(model, x, u[:n], u[n:]), ghat=ghat,
            wealth=wealth, value=float(p @ ut.u_eval(spec, wealth)),
            kkt_residual=float("nan"), iterations=0,
        )
        out[k] = RecoveryResult(yhat=yhat, dual=dsol, primal=psol,
                                attainable=bool(margin >= -ATTAINABILITY_TOL),
                                attainability_slack=-float(margin), yhat_dual_solves=solves,
                                yhat_ipm_iterations=iterations, yhat_start=start)
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


def conjugacy_check(model: MarketModel, spec: ut.UtilitySpec,
                    x_grid, y_grid,
                    check_marginals: bool = True,
                    metadata: dict | None = None) -> DualityReport:
    """Run the full Main Theorem certification on the given grids.

    The y grid is sorted ascending before the solves; the convexity,
    monotonicity and large-y slope checks read it in that order.  Its two
    phase-1 LPs, the CPS polytope's (dual grid and yhat searches) and the
    trade side's (x0 and the primal start), are solved once per model object.
    """
    tol = DEFAULT_TOLERANCES
    x0 = du.compute_x0(model)
    p = model.tree.leaf_prob()
    report = DualityReport(metadata=dict(metadata or {}), x0=x0)
    report.metadata.setdefault("model_hash", model_hash(model))
    report.metadata.setdefault("utility", spec.label())
    report.metadata["lambda"] = model.lam
    report.metadata["rho"] = model.rho

    y_solutions = du.dual_grid(model, spec, np.sort(y_grid))
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

    # One batched primal solve over the x above x0, then the recoveries of
    # the x it solved, their yhat searches in lockstep.  Each x meets its own
    # failure where its own solves would have raised it.
    xs = [float(x) for x in x_grid]
    above = [k for k, x in enumerate(xs) if x > x0 + 1e-12]
    primals = dict(zip(above, pr._solve_primals(model, spec, [xs[k] for k in above])))
    solved = [k for k in above if not isinstance(primals[k], Exception)]
    recoveries = dict(zip(solved, _recoveries(model, spec, [xs[k] for k in solved],
                                              [primals[k] for k in solved])))
    for k, x in enumerate(xs):
        if k not in primals:
            report.x_records.append({"x": x, "status": "below-x0", "u": "-inf"})
            continue
        try:
            psol, rec = unwrap([primals[k], recoveries.get(k)])
        except (BelowX0Error, SolverIndeterminateError) as exc:
            report.add_check("pipeline", False, float("nan"), 0.0,
                             location=f"x={x:g}: {exc}")
            report.x_records.append({"x": x, "status": "failed", "error": str(exc)})
            continue
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
    if not rho >= 0:
        raise MarketError(f"random_instance needs an endowment bound rho >= 0, got {rho}")
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


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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


def _config_field(check, value, what: str):
    """A ``market`` field check applied to report-config field ``what``."""
    try:
        return check(value, f"config field {what!r}")
    except MarketError as exc:
        raise ConfigError(str(exc)) from None


def _config_typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ConfigError(f"config field {what!r} must be a {kind.__name__}, got {value!r}")
    return value


def _config_number(value, what: str, low: float = -np.inf) -> float:
    number = _config_field(_number, value, what)
    if not low < number < np.inf:
        bound = "" if low == -np.inf else f" above {low:g}"
        raise ConfigError(f"config field {what!r} must be a finite number{bound}, got {value!r}")
    return number


def _config_numbers(value, what: str, low: float = -np.inf) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"config field {what!r} must be a nonempty JSON list, got {value!r}")
    return [_config_number(v, f"{what}[{i}]", low) for i, v in enumerate(value)]


def _config_keys(mapping, what: str, *allowed: str) -> None:
    unknown = sorted(set(map(str, _config_field(_mapping, mapping, what))) - set(allowed))
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
        seed = _config_field(_integer, sd.get("seed"), "seed.seed")
        model, attempts = _generate_instance(
            seed=seed,
            depth=_config_field(_integer, sd.get("depth", 3), "seed.depth"),
            branching=_config_field(_integer, sd.get("branching", 2), "seed.branching"),
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
        count = _config_field(_integer, yg.get("n"), "y_grid.n")
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

    ``jobs`` (at least 1) caps the worker processes; at most one per seed is
    started, and one job runs the seeds in this process.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    tasks = [(int(s), output_dir) for s in seeds]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_selftest_one, tasks))
    else:
        results = [_selftest_one(t) for t in tasks]
    return {seed: ok for seed, ok in results}
