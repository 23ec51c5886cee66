"""Consistent price systems, superreplication pricing, and the dual problem.

On a finite tree the dual domain is the closed polytope of nonnegative
martingale pairs (Z0, Z1) with Z0 at the root normalized to one and the
ratio Z1/Z0 confined to the bid-ask spread (stated multiplicatively, so the
constraint is linear and valid at Z0 = 0).  Superreplication prices are
linear programs over this polytope (x0 is solved on the trade side); the dual
value function v(y) is a smooth convex minimization over it.

On a finite probability space every finitely additive measure in the
abstract dual domain is countably additive, so the singular mass is zero in
exact arithmetic; the reported diagnostic 1 - E[Z0_T] is zero up to the
solve's residual in the martingale rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import primal as pr
from . import utility as ut
from .errors import DomainError, NoConsistentPriceSystemError, SolverIndeterminateError, unwrap
from .market import MarketModel
from .solver import (
    INFEASIBLE, OPTIMAL,
    ConvexProgram, LinearProgram,
    require_optimal, solve_convex, solve_lp,
)

CPS_TOL = 1e-10


@dataclass(frozen=True)
class CpsElement:
    """Martingale pair (Z0, Z1) per node; a point of the dual polytope."""

    z0: tuple[float, ...]
    z1: tuple[float, ...]

    def shadow_price(self) -> np.ndarray:
        """Z1/Z0 where defined (nan at zero-density nodes)."""
        z0 = np.array(self.z0)
        z1 = np.array(self.z1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(z0 > 0, z1 / np.where(z0 > 0, z0, 1.0), np.nan)


def cps_check(model: MarketModel, element: CpsElement, strict: bool = False) -> list[str]:
    """Violation list for martingale, spread, and normalization constraints."""
    tree = model.tree
    z0 = np.array(element.z0)
    z1 = np.array(element.z1)
    s = model.ask()
    out: list[str] = []
    if abs(z0[tree.root] - 1.0) > CPS_TOL:
        out.append(f"z0 at root is {z0[tree.root]}, not 1")
    if z0.min() < -CPS_TOL or z1.min() < -CPS_TOL:
        out.append("negative component in (z0, z1)")
    for k in range(tree.n_nodes):
        ch = tree.children[k]
        if ch:
            cp = np.array(tree.cond_prob[k])
            for name, z in (("z0", z0), ("z1", z1)):
                gap = z[k] - float(cp @ z[list(ch)])
                if abs(gap) > CPS_TOL * max(1.0, abs(z[k])):
                    out.append(f"martingale violation in {name} at node {tree.node_ids[k]!r} ({gap:.3e})")
        lo = (1.0 - model.lam) * s[k] * z0[k]
        hi = s[k] * z0[k]
        if z1[k] < lo - CPS_TOL * max(1.0, hi) or z1[k] > hi + CPS_TOL * max(1.0, hi):
            out.append(f"spread violation at node {tree.node_ids[k]!r}")
    if strict and z0.min() <= 0:
        out.append("not strictly positive (z0 hits 0)")
    return out


@dataclass(frozen=True)
class CpsPolytope:
    """Linear description of the closed dual polytope.

    For lam > 0 the variables are [z0 (n), z1 (n)]; for lam = 0 the spread
    pins z1 = S z0, so the description is reduced to z0 alone and z1 is
    reconstructed on demand.
    """

    model: MarketModel
    n_vars: int
    reduced: bool                 # True when lam = 0 (z1 eliminated)
    G: np.ndarray
    h: np.ndarray
    A: np.ndarray
    b: np.ndarray
    nonempty: bool
    interior: np.ndarray | None   # strictly feasible point, None if the
                                  # polytope has an empty relative interior
    interior_margin: float

    def leaf_density(self, z: np.ndarray) -> np.ndarray:
        n = self.model.tree.n_nodes
        return z[:n][list(self.model.tree.leaves)]

    def element(self, z: np.ndarray) -> CpsElement:
        n = self.model.tree.n_nodes
        z0 = z[:n]
        z1 = self.model.ask() * z0 if self.reduced else z[n:2 * n]
        return CpsElement(tuple(float(v) for v in z0), tuple(float(v) for v in z1))


def cps_polytope(model: MarketModel) -> CpsPolytope:
    """The polytope, built and probed by a phase-1 LP once per model object
    (``MarketModel._phase1``), G and A kept by their nonzero entries (1.1 MB
    dense at 121 nodes); hands out fresh matrices and a copy of the interior point."""
    if "cps" not in model._phase1:
        model._phase1["cps"] = _probed_polytope(model)
    nv, reduced, G, h, A, b, nonempty, interior, margin = model._phase1["cps"]
    # Each entry lands once at its flat index, so the sums are the entries.
    G, A = (np.bincount(at, entries, rows * cols).reshape(rows, cols)
            for (rows, cols), at, entries in (G, A))
    return CpsPolytope(model, nv, reduced, G, h.copy(), A, b.copy(), nonempty=nonempty,
                       interior=None if interior is None else interior.copy(),
                       interior_margin=margin)


def _probed_polytope(model: MarketModel) -> tuple:
    """``cps_polytope``'s kept fields, G and A as shape, flat indices and entries."""
    tree = model.tree
    n = tree.n_nodes
    s = model.ask()
    reduced = model.lam == 0.0
    nv = n if reduced else 2 * n

    # Martingale block, one row per internal node in index order:
    # z_k - sum_c cp_c z_c = 0.  Every non-root node c sits in the row of
    # its parent with minus its conditional probability.
    internal = np.array([bool(ch) for ch in tree.children])
    row_of = np.cumsum(internal) - 1
    cp = np.zeros(n)
    cp[[c for ch in tree.children for c in ch]] = [q for qs in tree.cond_prob for q in qs]
    M = np.zeros((row_of[-1] + 1, n))
    M[row_of[internal], np.flatnonzero(internal)] = 1.0
    parent = np.array(tree.parent[1:], dtype=int)
    M[row_of[parent], np.arange(1, n)] = -cp[1:]
    # After the root normalisation, each internal node has its z0 row and
    # then its z1 row, or at lam = 0 the shadow-price martingale
    # S_k z0_k = sum_c cp_c S_c z0_c.  That row is S_k times the z0 row
    # exactly when every child trades at S_k (the degenerate case of Jouini
    # & Kallal, J. Econ. Theory 66, 1995), and is left out there.  Any other
    # dependence forces some z0 to 0: then no interior point exists, and
    # only the LPs, whose HiGHS handles the rank, read A.  With z1 free
    # (lam > 0) the rows have full rank by induction from the leaves: a
    # leaf's column appears only in its parent's martingale row.
    Z = np.zeros_like(M)
    pairs = (M, M * s) if reduced else (np.hstack([M, Z]), np.hstack([Z, M]))
    keep = np.ones((len(M), 2), dtype=bool)
    if reduced:
        keep[:, 1] = False
        keep[row_of[parent[s[1:] != s[parent]]], 1] = True
    A = np.vstack([np.eye(1, nv, tree.root), np.stack(pairs, axis=1)[keep]])
    b = np.zeros(A.shape[0])
    b[0] = 1.0

    # Per node: z0 >= 0, and for lam > 0 also z1 >= 0 and the two spread
    # rows (1 - lam) S z0 <= z1 <= S z0.  Each row is given by its z0 and z1
    # coefficients and its phase-1 scale.
    zero, one = np.zeros(n), np.ones(n)
    rows = [(-one, zero, one), (zero, -one, one), ((1.0 - model.lam) * s, -one, s), (-s, one, s)]
    rows = rows[:1] if reduced else rows
    G = np.stack([np.hstack([np.diag(u), np.diag(v)])[:, :nv] for u, v, _ in rows],
                 axis=1).reshape(-1, nv)
    scales = np.stack([w for _, _, w in rows], axis=1).ravel()
    h = np.zeros(G.shape[0])

    # Phase 1: maximize the scaled slack margin over the polytope.
    G1 = np.hstack([G, scales[:, None]])
    A1 = np.hstack([A, np.zeros((A.shape[0], 1))])
    c1 = np.zeros(nv + 1)
    c1[-1] = 1.0
    lb = np.full(nv + 1, -np.inf)
    lb[-1] = -1.0
    ub = np.full(nv + 1, np.inf)
    ub[-1] = 0.1
    res = solve_lp(LinearProgram(c=c1, A_ub=G1, b_ub=h, A_eq=A1, b_eq=b,
                                 lb=lb, ub=ub, sense="max"))
    if res.status == INFEASIBLE:
        nonempty, interior, margin = False, None, -np.inf
    else:
        margin = float(require_optimal(res, "CPS polytope phase-1 LP").z[-1])
        nonempty, interior = margin >= -1e-11, res.z[:-1].copy() if margin > 1e-9 else None
    G, A = ((M.shape, np.flatnonzero(M), M[M != 0]) for M in (G, A))
    return nv, reduced, G, h, A, b, nonempty, interior, margin


def _require_nonempty(poly: CpsPolytope):
    if not poly.nonempty:
        raise NoConsistentPriceSystemError(
            "market admits no consistent price system (arbitrage)")


def require_interior(poly: CpsPolytope) -> np.ndarray:
    """The polytope's strictly interior point, where a dual solve starts by default."""
    _require_nonempty(poly)
    if poly.interior is None:
        raise SolverIndeterminateError(
            "dual polytope has empty relative interior; cannot run the interior-point solve")
    return poly.interior


def superreplication_price(model: MarketModel, g) -> float:
    """Cheapest superreplication capital: sup of E[Z0_T g] over the polytope."""
    poly = cps_polytope(model)
    _require_nonempty(poly)
    tree = model.tree
    g = np.asarray(g, dtype=float)
    if g.shape != (len(tree.leaves),):
        raise DomainError(f"payoff has {g.shape} entries, expected {len(tree.leaves)}")
    c = np.zeros(poly.n_vars)
    c[list(tree.leaves)] = tree.leaf_prob() * g
    res = solve_lp(LinearProgram(c=c, A_ub=poly.G, b_ub=poly.h,
                                 A_eq=poly.A, b_eq=poly.b, lb=None, sense="max"))
    require_optimal(res, "superreplication LP")
    return float(res.value)


def compute_x0(model: MarketModel, polytope: CpsPolytope | None = None) -> float:
    """x0 = sup E[Z0_T (-e_T)] = -max_u min_leaf (C u + e_T) by LP duality: one trade-side LP
    (``primal.max_min_wealth``), solved once per model object and shared with the primal's
    start, and no polytope.  ``polytope`` is unread; the benchmark's workloads still pass one."""
    return -pr.max_min_wealth(model, 0.0)[0]


@dataclass
class DualSolution:
    y: float
    z: np.ndarray            # interior-point solution, the polytope's variables
    z0_T: np.ndarray         # leaf densities, aligned with tree.leaves
    optimizer: CpsElement
    value: float             # E[V(y z0_T)] + y E[z0_T e_T]
    derivative: float        # v'(y) = -E[z0_T I(y z0_T)] + E[z0_T e_T]
    singular_mass: float     # 1 - E[z0_T]; 0 up to rounding at finite scale
    kkt_residual: float
    iterations: int          # interior-point iterations of the solve


def solve_dual(model: MarketModel, spec: ut.UtilitySpec, y: float,
               start: np.ndarray | None = None,
               tol: float = 1e-9) -> DualSolution:
    """Minimize E[V(y Z0_T)] + y E[Z0_T e_T] over the dual polytope.

    One interior-point solve from ``start`` or, by default, the polytope's
    interior point; a stall raises ``SolverIndeterminateError``, and a y at
    which y I(y z) or V(y z) at the start is no finite float a
    ``DomainError``.  It is the one-problem case of ``_solve_duals``, whose
    batches the dual grid and each step of ``harness``'s yhat searches are.
    """
    poly = cps_polytope(model)
    if y <= 0:
        raise DomainError("solve_dual requires y > 0")
    starts = None if start is None else np.atleast_2d(start)
    return unwrap(_solve_duals(model, spec, [y], poly, starts, tol))[0]


def _solve_duals(model: MarketModel, spec: ut.UtilitySpec, ys: list, poly: CpsPolytope,
                 starts: np.ndarray | None, tol: float) -> list:
    """``solve_dual`` at each y of ``ys`` as one batched interior-point solve,
    problem k from row k of ``starts`` (from the interior point when None).
    Returns per y its ``DualSolution``, or the error its own solve raises."""
    interior = require_interior(poly)
    tree = model.tree
    p = tree.leaf_prob()
    e = model.endowment_vector()
    leaves = np.array(tree.leaves)
    # y^2 V''(y d) = y I(y d) / ((1 - a) d) for both families (a = 0 for
    # log), so the second derivative reuses the first's m = y I(y d) and
    # neither underflows nor overflows where m does not.
    curvature = 1.0 - spec.alpha

    z_start = interior[None] if starts is None else np.asarray(starts, dtype=float)
    y = np.array(ys, dtype=float)[:, None]
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        yd = y * z_start[:, leaves]
        finite = (yd.min(axis=1) > 0) & (yd.max(axis=1) < np.inf)
        yd[~finite] = 1.0
        m = y * ut.i_eval(spec, yd)
        finite &= np.isfinite(m).all(axis=1) & np.isfinite(ut.v_eval(spec, yd) + y * e).all(axis=1)
        # Scale each objective up or down to a unit gradient at the start so
        # the solver tolerance acts relatively: far above unit scale the
        # iteration stalls at machine precision, far below it the tolerance
        # never pins the density.  A zero start gradient keeps scale 1.
        g = np.abs(p * (y * e - m)).max(axis=1, keepdims=True)
        w = p / np.where(g > 0, g, 1.0)

    def value(d: np.ndarray, q: np.ndarray) -> np.ndarray:
        y, w = q[:, :1], q[:, 1:]
        return w * (ut.v_eval(spec, y * d) + y * e * d)

    def slopes(d: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y, w = q[:, :1], q[:, 1:]
        m = y * ut.i_eval(spec, y * d)
        return w * (y * e - m), w * m / (curvature * d)

    if finite.any():
        res = solve_convex(ConvexProgram(
            np.eye(poly.n_vars)[leaves], value, slopes, G=poly.G, h=poly.h, A=poly.A, b=poly.b,
            start=interior if starts is None else z_start[finite],
            params=np.hstack([y, w])[finite],
            order=tree.children_first(poly.n_vars)), tol=tol)
    out, row = [], np.cumsum(finite) - 1   # y k is problem row[k] of the batch
    for k, y in enumerate(ys):
        if not finite[k]:
            out.append(DomainError("solve_dual requires y > 0" if y <= 0 else
                                   f"dual at y={y!r}: y I(y z) or V(y z) is not a finite float"))
            continue
        status = res.statuses[row[k]]
        if status != OPTIMAL:
            out.append(SolverIndeterminateError(f"dual solve at y={y}: solver status {status}"))
            continue
        z = res.z[row[k]]
        d = poly.leaf_density(z)
        out.append(DualSolution(
            y=float(y), z=z, z0_T=d, optimizer=poly.element(z),
            value=float(p @ ut.v_eval(spec, y * d)) + float(y * (p * d) @ e),
            derivative=-float((p * d) @ ut.i_eval(spec, y * d)) + float((p * d) @ e),
            singular_mass=float(1.0 - p @ d),
            kkt_residual=float(res.kkt_residual[row[k]]),
            iterations=int(res.problem_iterations[row[k]]),
        ))
    return out


def dual_grid(model: MarketModel, spec: ut.UtilitySpec, y_grid) -> list[DualSolution]:
    """``solve_dual`` at each y of a positive grid, from the polytope's interior
    point, as one batched interior-point solve; each y gets the result and
    iteration count of its own solve, and the first failure in grid order raises."""
    poly = cps_polytope(model)
    _require_nonempty(poly)
    ys = [float(y) for y in y_grid]
    if not ys:
        return []
    if ys[0] <= 0:
        raise DomainError("solve_dual requires y > 0")
    return unwrap(_solve_duals(model, spec, ys, poly, None, 1e-9))


def default_y_grid() -> np.ndarray:
    return np.logspace(-3, 3, 41)
