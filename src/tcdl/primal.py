"""Trading strategies, attainable payoffs, and the primal utility problem.

A strategy trades once per node at that node's ask/bid.  The decision
variables are the nonnegative per-node buy/sell amounts; bond holdings
follow from the self-financing ledger and the stock position must be flat
at every leaf.  Attainability of a payoff is a pure LP feasibility question
(free disposal turns domination into membership); the utility maximization
itself is a smooth concave program handled by the interior-point solver,
with the wealth-positivity constraint enforced implicitly by the utility
domain.

Admissibility is automatic on a finite tree (finitely many nodes, finite
liquidation values), so neither the optimization nor the strategy check
imposes a bound on liquidation values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import utility as ut
from .errors import (
    BelowX0Error, DomainError, MarketError, NoConsistentPriceSystemError,
    SolverIndeterminateError, unwrap,
)
from .market import MarketModel, _mapping, _number
from .solver import (
    OPTIMAL, UNBOUNDED,
    ConvexProgram, LinearProgram,
    require_optimal, solve_convex, solve_lp,
)

SF_TOL = 1e-10


@dataclass(frozen=True)
class TradingStrategy:
    """Post-trade holdings and the buy/sell split, per node."""

    x: float                     # initial capital (pre-trade holdings (x, 0))
    phi0: tuple[float, ...]
    phi1: tuple[float, ...]
    buy: tuple[float, ...]
    sell: tuple[float, ...]


@dataclass(frozen=True)
class PayoffVector:
    """Terminal payoff per leaf, aligned with tree.leaves."""

    values: tuple[float, ...]

    @property
    def lower_bound(self) -> float:
        return float(min(self.values))

    def vector(self) -> np.ndarray:
        return np.array(self.values)

    @staticmethod
    def from_leaf_dict(model: MarketModel, mapping) -> "PayoffVector":
        tree = model.tree
        vals = {str(k): _number(v, f"payoff at leaf {k!r}")
                for k, v in _mapping(mapping, "payoff file").items()}
        leaf_ids = [tree.node_ids[leaf] for leaf in tree.leaves]
        unknown = sorted(set(vals) - set(leaf_ids))
        if unknown:
            raise MarketError(f"payoff keys name no leaf: {unknown}")
        missing = [nid for nid in leaf_ids if nid not in vals]
        if missing:
            raise MarketError(f"payoff file missing leaves {missing}")
        return PayoffVector(tuple(vals[nid] for nid in leaf_ids))


@dataclass
class PrimalSolution:
    x: float
    strategy: TradingStrategy
    ghat: np.ndarray             # terminal phi0 minus x, per leaf
    wealth: np.ndarray           # x + ghat + e_T per leaf
    value: float
    kkt_residual: float
    iterations: int              # interior-point iterations, 0 when not solved by one
    stall_accepted: bool = False  # a stalled IPM iterate was accepted as optimal
    nu: np.ndarray | None = None  # IPM multipliers of the flat-at-leaf rows D u = 0, per leaf


def _trade_matrices(model: MarketModel):
    """Cash map C and position map D from (buy, sell) stacked as [b; s].

    Leaf wealth is x + e + C u; the flat-at-leaf constraint reads D u = 0.
    """
    tree = model.tree
    n = tree.n_nodes
    s = model.ask()
    # Row k of the incidence marks node k and its ancestors; parents precede
    # their children, so one pass copies each parent's row.
    on_path = np.eye(n, dtype=bool)
    for k in range(1, n):
        on_path[k] |= on_path[tree.parent[k]]
    leaf_paths = np.tile(on_path[list(tree.leaves)], 2)
    C = np.where(leaf_paths, np.concatenate([-s, (1.0 - model.lam) * s]), 0.0)
    D = np.where(leaf_paths, np.repeat([1.0, -1.0], n), 0.0)
    return C, D


def strategy_from_trades(model: MarketModel, x: float,
                         buy: np.ndarray, sell: np.ndarray) -> TradingStrategy:
    """Assemble holdings from per-node trades using the binding self-financing ledger."""
    tree = model.tree
    n = tree.n_nodes
    s = model.ask()
    phi0 = np.zeros(n)
    phi1 = np.zeros(n)
    for k in range(n):
        par = tree.parent[k]
        base0 = x if par < 0 else phi0[par]
        base1 = 0.0 if par < 0 else phi1[par]
        phi1[k] = base1 + buy[k] - sell[k]
        phi0[k] = base0 - s[k] * buy[k] + (1.0 - model.lam) * s[k] * sell[k]
    return TradingStrategy(
        x=float(x),
        phi0=tuple(float(v) for v in phi0),
        phi1=tuple(float(v) for v in phi1),
        buy=tuple(float(v) for v in buy),
        sell=tuple(float(v) for v in sell),
    )


def shadow_cps(model: MarketModel, spec: ut.UtilitySpec,
               sol: PrimalSolution) -> tuple[np.ndarray, np.ndarray]:
    """The pair (Z0, Z1) per node read off a primal optimum: the shadow price
    of Cvitanić & Karatzas (Math. Finance 6, 1996).

    With Q_k and N_k the sums over the leaves below node k of p U'(w) and of
    ``sol.nu``, and P_k node k's probability, Z0_k = Q_k / (P_k E[U'(w)])
    and Z1_k = -N_k / (P_k E[U'(w)]).  Both are martingales and Z0 is 1 at
    the root.  The KKT rows of the buy and sell columns read
    -S_k Q_k <= N_k <= -(1 - lam) S_k Q_k, so Z1 / Z0 lies in the bid-ask
    spread, but only up to the solve's residuals: the pair is a candidate
    dual point, not a certified one.
    """
    p = model.tree.leaf_prob()
    # D's buy block: row l marks leaf l and its ancestors.
    paths = _trade_matrices(model)[1][:, :model.tree.n_nodes]
    q, nu, prob = np.array([p * ut.u_prime(spec, sol.wealth), sol.nu, p]) @ paths
    scale = prob * q[model.tree.root]
    return q / scale, -nu / scale


def liquidation_value(model: MarketModel, strategy: TradingStrategy, node: int) -> float:
    """phi0 + (phi1)^+ at the bid - (phi1)^- at the ask."""
    if not 0 <= node < model.tree.n_nodes:
        raise MarketError(f"unknown node index {node}")
    s = model.ask_price[node]
    p1 = strategy.phi1[node]
    return strategy.phi0[node] + max(p1, 0.0) * (1.0 - model.lam) * s - max(-p1, 0.0) * s


def check_self_financing(model: MarketModel, strategy: TradingStrategy) -> list[str]:
    """Violations of the per-node trading constraints, all within SF_TOL.

    Covers the buy/sell split, the position recursion, the self-financing
    inequality and leaf liquidation.  Admissibility needs no check: on a
    finite tree every liquidation value is finite.
    """
    tree = model.tree
    s = model.ask()
    out: list[str] = []
    for k in range(tree.n_nodes):
        nid = tree.node_ids[k]
        b, sl = strategy.buy[k], strategy.sell[k]
        if b < -SF_TOL or sl < -SF_TOL:
            out.append(f"negative buy/sell at node {nid!r}")
        par = tree.parent[k]
        base0 = strategy.x if par < 0 else strategy.phi0[par]
        base1 = 0.0 if par < 0 else strategy.phi1[par]
        if abs(strategy.phi1[k] - base1 - (b - sl)) > SF_TOL:
            out.append(f"position change != buy - sell at node {nid!r}")
        cash = -s[k] * b + (1.0 - model.lam) * s[k] * sl
        if strategy.phi0[k] - base0 > cash + SF_TOL:
            out.append(f"self-financing violated at node {nid!r}")
        if tree.is_leaf(k) and abs(strategy.phi1[k]) > SF_TOL:
            out.append(f"stock not liquidated at leaf {nid!r}")
    return out


def is_attainable(model: MarketModel, g, x: float, tol: float = 1e-8) -> bool:
    """Whether g is dominated by the terminal cash of some strategy from x.

    Decided through the sign of the max-min margin of ``max_min_wealth``,
    with a small boundary tolerance that keeps the test numerically stable
    even when g sits exactly on the attainability boundary.
    """
    return max_min_wealth(model, x, g)[0] >= -tol


def max_min_wealth(model: MarketModel, x: float, g=None) -> tuple[float, np.ndarray]:
    """LP value max_u min_leaf (x + C u - g) over strategies from x, and an argmax u.

    By LP duality the value is x minus the superreplication price of g, so it
    is >= 0 iff g is attainable from x, and the argmax generates a payoff
    dominating g up to the value.  The default claim g = -e_T makes the value
    the worst-case terminal wealth: positive iff x is strictly above x0, which
    is the phase-1 problem for the utility maximization and the below-x0
    infeasibility certificate.  x only shifts the value, so the LP is solved
    at x = 0 and x added after; the argmax does not depend on x.  The LP is
    unbounded iff the closed CPS polytope is empty: ``NoConsistentPriceSystemError``;
    a claim that is not one entry per leaf, or has a non-finite entry, is a
    ``DomainError``.

    The default claim's LP is solved once per ``MarketModel`` object: its
    value at x = 0 and argmax stay on the object, and later calls return
    x plus that value and a fresh copy of the argmax, what a new solve
    gives bit for bit.  A new object solves again, even one equal to an old
    one.  A call with a claim g, and a solve that raises, leave nothing.
    """
    if g is not None:
        g = np.asarray(g, dtype=float)
        if g.shape != (len(model.tree.leaves),):
            raise DomainError(f"payoff has {g.shape} entries, expected {len(model.tree.leaves)}")
        if not np.isfinite(g).all():
            raise DomainError("payoff has a non-finite entry")
        value, u = _max_min_lp(model, g)
        return x + value, u
    if "lp" not in model._phase1:
        model._phase1["lp"] = _max_min_lp(model, -model.endowment_vector())
    value, u = model._phase1["lp"]
    return x + value, u.copy()


def _max_min_lp(model: MarketModel, g: np.ndarray) -> tuple[float, np.ndarray]:
    """``max_min_wealth``'s LP at x = 0: its value and an argmax u."""
    C, D = _trade_matrices(model)
    nu = C.shape[1]
    # Variables [u; t]: maximize t subject to t - (C u)_l <= -g_l.
    lb = np.zeros(nu + 1)
    lb[-1] = -np.inf
    res = solve_lp(LinearProgram(
        c=np.concatenate([np.zeros(nu), [1.0]]),
        A_ub=np.hstack([-C, np.ones((C.shape[0], 1))]), b_ub=-g,
        A_eq=np.hstack([D, np.zeros((D.shape[0], 1))]), b_eq=np.zeros(D.shape[0]),
        lb=lb, sense="max",
    ))
    if res.status == UNBOUNDED:
        raise NoConsistentPriceSystemError("market admits arbitrage: max-min wealth LP unbounded")
    require_optimal(res, "max-min wealth LP")
    return float(res.z[-1]), res.z[:nu].copy()


def solve_primal(model: MarketModel, spec: ut.UtilitySpec, x: float,
                 tie_break: bool = False) -> PrimalSolution:
    """Maximize expected utility of terminal liquidation wealth from capital x,
    from the argmax of ``max_min_wealth(model, 0)``, whose LP is solved once
    per model object; the one-problem case of ``_solve_primals``.  It always
    solves; without the tie break it keeps a copy of its solution on the model
    object, ``_phase1["primal"] = (spec, x, solution)``, for ``_kept_solve``."""
    sol = unwrap(_solve_primals(model, spec, [x], tie_break))[0]
    if not tie_break:
        model._phase1["primal"] = (spec, x, _copied(sol))
    return sol


def _kept_solve(model: MarketModel, spec: ut.UtilitySpec, x: float) -> PrimalSolution:
    """A copy of the primal solve kept on the model object at exactly (spec, x),
    else a new solve, which it keeps in its place; the start of a one-x
    recovery.  An x at which the primal raises raises that error, and keeps
    nothing."""
    kept = model._phase1.get("primal")
    if kept is None or kept[:2] != (spec, x):
        kept = model._phase1["primal"] = (spec, x, unwrap(_solve_primals(model, spec, [x]))[0])
    return _copied(kept[2])


def _copied(sol: PrimalSolution) -> PrimalSolution:
    """``sol`` with its own copies of ``ghat``, ``wealth`` and ``nu``."""
    return replace(sol, ghat=sol.ghat.copy(), wealth=sol.wealth.copy(), nu=sol.nu.copy())


def _solve_primals(model: MarketModel, spec: ut.UtilitySpec, xs: list,
                   tie_break: bool = False) -> list:
    """``solve_primal`` at each x of ``xs`` as one batched interior-point solve,
    x in the parameter row and each x from its own start.  The start and the
    below-x0 test read ``max_min_wealth(model, 0)``, which solves no LP when
    this model object has solved it before.  Returns per x its
    ``PrimalSolution``, or the error its own solve raises."""
    out = [None if np.isfinite(x) else DomainError(f"primal solve needs a finite x, got x={x!r}")
           for x in xs]
    if None not in out:
        return out
    tree = model.tree
    n = tree.n_nodes
    p = tree.leaf_prob()
    e = model.endowment_vector()
    # D has the full row rank solve_convex requires: each leaf's own columns
    # appear only in its row.
    C, D = _trade_matrices(model)
    nu = 2 * n

    t_zero, u_feas = max_min_wealth(model, 0.0)
    for k, x in enumerate(xs):
        if out[k] is None and x + t_zero <= 1e-12:
            out[k] = BelowX0Error(
                f"infeasible-below-x0: no strategy keeps terminal wealth positive from x={x}"
                f" (max-min wealth {x + t_zero:.3e})")
    solve = [k for k, o in enumerate(out) if o is None]
    if not solve:
        return out

    def value(v: np.ndarray, x: np.ndarray) -> np.ndarray:
        return -p * ut.u_eval(spec, x + e + v)

    def slopes(v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # -p U''(w) = (1 - a) p U'(w) / w, from the U' of the gradient
        w = x + e + v
        pu = p * ut.u_prime(spec, w)
        return -pu, (1.0 - spec.alpha) * pu / w

    # Shift the phase-1 vertex into the strict interior of u >= 0 by delta
    # in every coordinate.  Equal buy/sell increments keep D u = 0 (D 1 = 0)
    # and cost only the spread: (C 1)_l = -lam * (ask prices along the path
    # to l) >= -max_path_cost, so every start wealth is at least
    # t_star - delta * max_path_cost > t_star / 2.  Spending half of that
    # worst-case margin puts each bound delta away from zero rather than on
    # it; a small fixed cap left most bounds with barrier duals 1/delta and
    # held the fraction-to-boundary step to a few percent for dozens of
    # iterations.  The asks along each path are summed root to leaf, the
    # order cumsum keeps, from C's buy block (minus the asks).
    max_path_cost = model.lam * -float(C[:, :n].cumsum(axis=1)[:, -1].min())
    params = np.array([[xs[k]] for k in solve], dtype=float)
    delta = (params + t_zero) / (2.0 * (max_path_cost + 1.0))

    cp = ConvexProgram(C, value, slopes,
                       G=-np.eye(nu), h=np.zeros(nu),
                       A=D, b=np.zeros(D.shape[0]), start=u_feas + delta, params=params,
                       order=tree.children_first(nu))
    res = solve_convex(cp, tol=1e-9)
    for row, k in enumerate(solve):
        x, status = xs[k], res.statuses[row]
        # Accept a stalled iterate when the certified suboptimality is still
        # far inside the tolerances anything downstream relies on:
        # near-degenerate instances (offsetting trades blowing up while a
        # leaf wealth approaches zero) leave the KKT residual on a rounding
        # floor above tol.
        u_opt, kkt = res.z[row], float(res.kkt_residual[row])
        stall_accepted = status != OPTIMAL and kkt <= 1e-6 * (1.0 + abs(float(res.value[row])))
        if status != OPTIMAL and not stall_accepted:
            out[k] = SolverIndeterminateError(f"primal solve at x={x}: solver status {status}")
            continue
        if tie_break:
            # Minimal turnover among strategies dominating the optimal payoff;
            # u_opt itself is feasible, so anything but optimal is a solver fault.
            ghat = C @ u_opt
            lp = solve_lp(LinearProgram(
                c=np.ones(nu),
                A_ub=-C, b_ub=-ghat + 1e-10,
                A_eq=D, b_eq=np.zeros(D.shape[0]),
                lb=0.0,
            ))
            u_opt = require_optimal(lp, f"minimal-turnover LP at x={x}").z

        ghat = C @ u_opt
        w = x + e + ghat
        out[k] = PrimalSolution(
            x=float(x),
            strategy=strategy_from_trades(model, x, u_opt[:n], u_opt[n:]),
            ghat=ghat,
            wealth=w,
            value=float(p @ ut.u_eval(spec, w)),
            kkt_residual=kkt,
            iterations=int(res.problem_iterations[row]),
            stall_accepted=stall_accepted,
            nu=res.eq_duals[row],
        )
    return out


def primal_marginal(model: MarketModel, spec: ut.UtilitySpec, x: float) -> float:
    """Central finite difference of the primal value function at x.

    The tests' outside reference for the envelope value ``conjugacy_check``
    reports; it stays here because the benchmark's tracer patches it by name.
    """
    h = 1e-4 * max(1.0, abs(x))
    hi = solve_primal(model, spec, x + h)
    lo = solve_primal(model, spec, x - h)
    return (hi.value - lo.value) / (2.0 * h)
