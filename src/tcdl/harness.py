"""End-to-end duality harness.

Couples the primal and dual sides: locates yhat with v'(yhat) + x = 0 in the
optimal wealth t = I(y), where the equation is affine up to the drift of the
optimal density, by fixed-point and secant steps (at most YHAT_MAX_SOLVES
dual solves, then SolverIndeterminateError); recovers the primal optimizer
from the dual density, checks complementary slackness, and assembles a full
report (value grids, gaps, residuals) for a market instance.  Also provides
the seeded random-instance generator and the selftest driver used by the CLI.
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
from .errors import BelowX0Error, ConfigError, DomainError, MarketError, SolverIndeterminateError
from .market import MarketModel, _integer, _mapping, _number, build_market, market_to_dict

DEFAULT_X_OFFSETS = (0.5, 1.0, 2.0)
# Margin above x0 for automatic x grids; keeps yhat away from the blow-up.
X0_MARGIN_COEFF = 0.05
# Largest y grid a report config may ask for by count; each point is a dual solve.
MAX_Y_GRID = 10_000

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


def find_yhat(model: MarketModel, spec: ut.UtilitySpec, x: float,
              polytope: du.CpsPolytope | None = None,
              x0: float | None = None) -> float:
    """Root of v'(y) + x = 0, found in the optimal wealth t = I(y), y = U'(t).

    For the shipped utilities I(y z) = I(y) I(z), so g(t) = v'(U'(t)) + x
    equals -t E[z I(z)] + E[z e] + x, with z the optimal leaf density at
    U'(t).  Were z fixed, the root would be T(z) = (x + E[z e]) / E[z I(z)].
    The search starts at T of the polytope's interior density, then takes
    secant steps on its last two (t, g) pairs, falling back to T of the
    latest density when the secant step is not positive.  It stops at
    |g| <= 1e-9 (1 + |x|) and raises ``SolverIndeterminateError`` past
    ``YHAT_MAX_SOLVES`` dual solves.  Returns the y of the dual solve at the
    root; ``recover_primal_from_dual`` refines that solve and reports the
    closed-form yhat on the refined density, which differs in the last digits.
    """
    return _find_yhat_solution(model, spec, x, polytope=polytope, x0=x0)[0].y


def _find_yhat_solution(model: MarketModel, spec: ut.UtilitySpec, x: float,
                        polytope: du.CpsPolytope | None = None,
                        x0: float | None = None) -> tuple[du.DualSolution, int]:
    """The dual solve at the root of ``find_yhat``'s search, and the solves it took."""
    if not np.isfinite(x):
        raise DomainError(f"yhat search needs a finite x, got x={x!r}")
    poly = polytope or du.cps_polytope(model)
    if x0 is None:
        x0 = du.compute_x0(model, poly)
    if x <= x0:
        raise BelowX0Error(f"below-x0: x={x} <= x0={x0}, the infimum of v(y)+xy is -infinity")
    interior = du.require_interior(poly)
    p = model.tree.leaf_prob()
    e = model.endowment_vector()

    def fixed_point(d: np.ndarray) -> float:
        # Positive: x > x0 >= E[d (-e)] for every density d of the polytope.
        return float((x + (p * d) @ e) / ((p * d) @ ut.i_eval(spec, d)))

    stop = YHAT_STOP * (1.0 + abs(x))
    t, last = fixed_point(poly.leaf_density(interior)), None
    for solves in range(1, YHAT_MAX_SOLVES + 1):
        sol = du.solve_dual(model, spec, ut.u_prime(spec, t), polytope=poly)
        g = sol.derivative + x
        if abs(g) <= stop:
            return sol, solves
        secant = last is not None and g != last[1]
        step = t - g * (t - last[0]) / (g - last[1]) if secant else 0.0
        last = (t, g)
        t = step if 0.0 < step < np.inf else fixed_point(sol.z0_T)
    raise SolverIndeterminateError(
        f"yhat search: |v'(y) + x| = {abs(g):.3e} above {stop:.3e} "
        f"after {YHAT_MAX_SOLVES} dual solves")


@dataclass
class RecoveryResult:
    yhat: float
    dual: du.DualSolution
    primal: pr.PrimalSolution
    attainable: bool
    attainability_slack: float   # superreplication price of ghat (<= 0 up to tol)
    yhat_dual_solves: int        # dual solves of the yhat search, before the refinement


def recover_primal_from_dual(model: MarketModel, spec: ut.UtilitySpec, x: float,
                             polytope: du.CpsPolytope | None = None,
                             x0: float | None = None) -> RecoveryResult:
    """Reconstruct the primal optimizer ghat = I(yhat z0_T) - x - e_T from the dual.

    The dual solve at the root of the yhat search is refined once, warm
    started at tolerance 1e-10; if that solve fails the recovery raises
    ``SolverIndeterminateError``.
    """
    poly = polytope or du.cps_polytope(model)
    coarse, solves = _find_yhat_solution(model, spec, x, polytope=poly, x0=x0)
    yhat = coarse.y
    # Near-degenerate polytopes leave flat directions in the dual objective;
    # the search tolerance pins the leaf densities only loosely along them.
    dsol = du.solve_dual(model, spec, yhat, polytope=poly,
                         start=0.9 * coarse.z + 0.1 * poly.interior, tol=1e-10)
    tree = model.tree
    e = model.endowment_vector()
    p = tree.leaf_prob()
    z0_T = dsol.z0_T
    # Correct yhat holding the leaf densities fixed, so that the recovered
    # payoff has E[z0 ghat] = 0: the dual derivative carries a small
    # flat-direction bias that would otherwise leak into it.  As
    # I(y z) = I(y) I(z), E[z0 I(y z0)] = x + E[z0 e] solves in closed form;
    # its right side is positive because x > x0 >= E[z0 (-e)].
    target = x + float((p * z0_T) @ e)
    unit_wealth = float((p * z0_T) @ ut.i_eval(spec, z0_T))
    yhat = float(ut.u_prime(spec, target / unit_wealth))
    ghat = ut.i_eval(spec, yhat * z0_T) - x - e
    # One max-min LP certifies ghat and builds its strategy: the margin
    # max_u min_leaf (C u - ghat) is minus the superreplication price of ghat,
    # and the argmax u generates a payoff dominating ghat up to that margin.
    margin, u = pr.max_min_wealth(model, 0.0, ghat)
    attainable = margin >= -ATTAINABILITY_TOL
    n = tree.n_nodes
    strategy = pr.strategy_from_trades(model, x, u[:n], u[n:])
    wealth = x + ghat + e
    psol = pr.PrimalSolution(
        x=float(x), strategy=strategy, ghat=ghat, wealth=wealth,
        value=float(p @ ut.u_eval(spec, wealth)), kkt_residual=float("nan"),
    )
    return RecoveryResult(yhat=yhat, dual=dsol, primal=psol, attainable=attainable,
                          attainability_slack=-margin, yhat_dual_solves=solves)


@dataclass
class SlacknessResiduals:
    r1: float   # |E[z0_T ghat]|
    r2: float   # |E[z0_T (x + ghat)] - x|
    r3: float   # singular terms; identically zero on finite trees
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
                    metadata: dict | None = None,
                    polytope: du.CpsPolytope | None = None,
                    x0: float | None = None) -> DualityReport:
    """Run the full Main Theorem certification on the given grids.

    The y grid is sorted ascending before the solves; the convexity,
    monotonicity and large-y slope checks read it in that order.
    """
    tol = DEFAULT_TOLERANCES
    poly = polytope or du.cps_polytope(model)
    if x0 is None:
        x0 = du.compute_x0(model, poly)
    p = model.tree.leaf_prob()
    report = DualityReport(metadata=dict(metadata or {}), x0=x0)
    report.metadata.setdefault("model_hash", model_hash(model))
    report.metadata.setdefault("utility", spec.label())
    report.metadata["lambda"] = model.lam
    report.metadata["rho"] = model.rho

    y_solutions = du.dual_grid(model, spec, np.sort(y_grid), polytope=poly)
    for sol in y_solutions:
        report.y_records.append({
            "y": sol.y, "v": sol.value, "v_prime": sol.derivative,
            "singular_mass": sol.singular_mass, "kkt_residual": sol.kkt_residual,
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

    for x in x_grid:
        x = float(x)
        if x <= x0 + 1e-12:
            report.x_records.append({"x": x, "status": "below-x0", "u": "-inf"})
            continue
        try:
            psol = pr.solve_primal(model, spec, x)
            rec = recover_primal_from_dual(model, spec, x, polytope=poly, x0=x0)
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
            "primal_stall_accepted": psol.stall_accepted,
            "recovery_value": rec.primal.value,
            "recovery_attainable": rec.attainable,
            "yhat_dual_solves": rec.yhat_dual_solves,
            "refine_kkt_residual": dsol.kkt_residual,
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
                       max_attempts: int = 100) -> tuple[MarketModel, int, du.CpsPolytope]:
    """``random_instance``'s market, its attempt count and its CPS polytope."""
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
        poly = du.cps_polytope(model)
        if poly.nonempty and poly.interior is not None:
            return model, attempt, poly
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
    a malformed or unknown field.
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
        with open(_config_typed(config["market"], str, "market")) as fh:
            model = build_market(json.load(fh))
        poly = None   # built once the rest of the config is checked
        meta["source"] = {"market": config["market"]}
        label = os.path.splitext(os.path.basename(config["market"]))[0]
    else:
        sd = config["seed"]
        _config_keys(sd, "seed", "seed", "depth", "branching", "lambda", "rho")
        seed = _config_field(_integer, sd.get("seed"), "seed.seed")
        model, attempts, poly = _generate_instance(
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

    poly = poly or du.cps_polytope(model)
    x0 = du.compute_x0(model, poly)
    if x_grid is None:
        margin = X0_MARGIN_COEFF * (1.0 + abs(x0))
        x_grid = [x0 + margin + float(o) for o in offsets]
    report = conjugacy_check(model, spec, x_grid, y_grid,
                             check_marginals=check_marginals, metadata=meta,
                             polytope=poly, x0=x0)
    if output_dir is not None:
        sub = os.path.join(output_dir, f"{report.metadata['model_hash'][:12]}-{label}")
        write_report_files(report, sub)
    return report


def _selftest_one(args) -> tuple[int, bool]:
    seed, output_dir, config = args
    cfg = dict(config)
    cfg["seed"] = dict(cfg.get("seed", {}), seed=seed)
    report = run_experiment(cfg, output_dir=output_dir)
    return seed, report.passed


def selftest(seeds, output_dir: str, jobs: int = 1,
             config: dict | None = None) -> dict:
    """Run the experiment pipeline over a seed range; returns per-seed pass flags."""
    base = config or {"seed": {"depth": 3, "branching": 2, "lambda": 0.3, "rho": 0.2},
                      "utility": "log"}
    tasks = [(int(s), output_dir, base) for s in seeds]
    results: list[tuple[int, bool]] = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_selftest_one, tasks))
    else:
        results = [_selftest_one(t) for t in tasks]
    return {seed: ok for seed, ok in results}
