"""LP and smooth convex solvers.

``solve_lp`` wraps scipy's HiGHS backend behind a plain dataclass contract and
re-certifies feasibility, complementary slackness, and the duality gap before
reporting "optimal"; anything less becomes "numerically-indeterminate" rather
than a wrong answer.

``solve_convex`` is a primal-dual interior-point method for

    minimize sum(value(X z))  subject to  G z <= h,  A z = b,

with ``value`` a smooth convex function applied row by row to the linear
image X z (+inf outside its open domain; the line search backtracks into
the domain).  Both duality problems have this form: the primal's X is the
trade-to-wealth map, the dual's the leaf selector.  Each step factors one
reduced KKT matrix K = [[H, A'], [A, 0]] once; its upper-left block, the
Hessian plus the barrier term,

    H = X' diag(value'') X + G' diag(lam/s) G = [X; G]' diag([value''; lam/s]) [X; G],

is one Gram over the stacked rows.  K is assembled one way on every step
(``newton_solver``): its pattern, the Gram pairs of [X; G] (a leaf-selector
row has one nonzero, a polytope row at most two) plus A's entries, is read
once per solve, and each step sums its entries into that pattern with one
``np.bincount``.  K's order n + p picks only the factorisation.  Below
``_SPARSE_KKT_ORDER`` the entries fill a dense array factored by LAPACK's
LU; at or above it, a CSC matrix factored by SuperLU (``splu``, COLAMD
order).  SuperLU's fixed cost per factorisation makes it the slower choice
on small matrices.  Timed per Newton step on a 2-vCPU x86 machine, the
dense LU takes 25-55 us at orders 35-45 against 75-190 us for SuperLU, and
the two tie at order 107 on the dual.  At order 323 (a 121-node tree, whose
dual K has 1126 nonzeros) SuperLU takes 0.56 ms against 2.2 ms; the table
is in BENCH_14.json.  ``A`` must have full row rank; callers drop dependent
rows once when they build the constraints.

The primal step is an Armijo backtracking on the barrier merit
phi(z) = sum(value(X z)) - tau * sum(log s(z)), tau = eta / (10 m) the current
centering target, from 0.99 of the longest step that keeps s > 0; the
Newton direction is a descent direction for phi wherever A z = b holds,
which every start satisfies.  The multipliers take their own
fraction-to-boundary step on lam > 0, independent of the primal one
(Wächter & Biegler, Math. Program. 106, 2006).  A solve is optimal once the
complementarity eta and the dual and primal residuals are all <= tol; the
method polishes to KKT residuals around 1e-9, which the duality checks
downstream rely on.  Once eta <= tol, a solve whose residuals make no new
low for 20 iterations sits on a rounding floor and stops as
"numerically-indeterminate" with its residual, as does one in which no
step decreases the merit or whose KKT matrix is singular (dependent rows
in ``A``, say); there is no least-squares fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

from .errors import DomainError, SolverIndeterminateError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
INDETERMINATE = "numerically-indeterminate"

# Interior-point iteration cap and centering factor: each step aims at the
# per-inequality complementarity eta / (_MU * m).
_MAX_ITER = 1000
_MU = 10.0
# Once eta <= tol, a solve whose KKT residual has made no new low for this
# many iterations sits on a rounding floor and stops.
_STALL_ITERS = 20
# KKT order n + p from which each Newton step is factored sparsely; below
# it the dense LU is as fast or faster (see the module docstring).
_SPARSE_KKT_ORDER = 200


@dataclass
class LinearProgram:
    """min/max c.z  s.t.  A_ub z <= b_ub, A_eq z = b_eq, z >= lb (None = free)."""

    c: np.ndarray
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | float | None = 0.0
    ub: np.ndarray | float | None = None
    sense: str = "min"


@dataclass
class LpResult:
    status: str
    z: np.ndarray | None = None
    value: float | None = None
    # Multipliers for the minimization form: c + A_ub' lam + A_eq' nu - mu_lb = 0,
    # lam >= 0.  For sense="max" they refer to the internal min(-c) problem.
    ineq_duals: np.ndarray | None = None
    eq_duals: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)


def _bounds_list(lp: LinearProgram, n: int):
    def expand(v, default):
        if v is None:
            return [default] * n
        arr = np.broadcast_to(np.asarray(v, dtype=float), (n,))
        return list(arr)
    lbs = expand(lp.lb, -np.inf) if lp.lb is not None else [-np.inf] * n
    ubs = expand(lp.ub, np.inf) if lp.ub is not None else [np.inf] * n
    return list(zip(lbs, ubs))


def solve_lp(lp: LinearProgram) -> LpResult:
    c = np.asarray(lp.c, dtype=float)
    n = c.size
    if not np.all(np.isfinite(c)):
        raise DomainError("LP objective has non-finite entries")
    sign = -1.0 if lp.sense == "max" else 1.0
    res = linprog(
        sign * c,
        A_ub=lp.A_ub, b_ub=lp.b_ub,
        A_eq=lp.A_eq, b_eq=lp.b_eq,
        bounds=_bounds_list(lp, n),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    if res.status == 2:
        return LpResult(status=INFEASIBLE)
    if res.status == 3:
        return LpResult(status=UNBOUNDED)
    if res.status != 0:
        return LpResult(status=INDETERMINATE)

    z = np.asarray(res.x)
    value = sign * res.fun
    lam = -np.asarray(res.ineqlin.marginals) if lp.A_ub is not None else None
    nu = -np.asarray(res.eqlin.marginals) if lp.A_eq is not None else None

    # Re-certify before claiming optimality.
    residuals = {}
    feas = 0.0
    if lp.A_ub is not None:
        slack = np.asarray(lp.b_ub) - lp.A_ub @ z
        feas = max(feas, float(max(0.0, -slack.min(initial=0.0))))
        if lam is not None:
            residuals["comp_slack"] = float(np.max(np.abs(lam * slack), initial=0.0))
    if lp.A_eq is not None:
        feas = max(feas, float(np.max(np.abs(lp.A_eq @ z - lp.b_eq), initial=0.0)))
    residuals["primal_feasibility"] = feas
    # HiGHS returns matched primal/dual basic solutions; the marginal-based
    # objective bound certifies the gap.
    dual_obj = 0.0
    if lp.b_ub is not None and lam is not None:
        dual_obj -= float(lam @ np.asarray(lp.b_ub))
    if lp.b_eq is not None and nu is not None:
        dual_obj -= float(nu @ np.asarray(lp.b_eq))
    lower = res.lower
    if lower is not None and lower.marginals is not None:
        bl = np.array([b[0] for b in _bounds_list(lp, n)])
        finite = np.isfinite(bl)
        dual_obj += float(np.asarray(lower.marginals)[finite] @ bl[finite])
    upper = res.upper
    if upper is not None and upper.marginals is not None:
        bu = np.array([b[1] for b in _bounds_list(lp, n)])
        finite = np.isfinite(bu)
        dual_obj += float(np.asarray(upper.marginals)[finite] @ bu[finite])
    gap = abs(sign * value - dual_obj) / (1.0 + abs(value))
    residuals["duality_gap"] = float(gap)

    ok = (feas <= 1e-9
          and residuals.get("comp_slack", 0.0) <= 1e-8 * (1.0 + float(np.abs(z).max(initial=0.0)))
          and gap <= 1e-8)
    return LpResult(
        status=OPTIMAL if ok else INDETERMINATE,
        z=z, value=float(value),
        ineq_duals=lam, eq_duals=nu,
        residuals=residuals,
    )


@dataclass
class ConvexProgram:
    """minimize sum(value(X z)) s.t. G z <= h, A z = b, from a strict start.

    ``value(v)`` returns the per-row values at v = X z, +inf outside its open
    domain; ``slopes(v)`` returns the per-row first and second derivatives.
    The gradient is X' first and each Newton matrix's Hessian block is one
    Gram over [X; G] with weights [second; lam/s]; the matrix is assembled
    from one pattern read once per solve, and its order picks only whether
    it is factored densely or sparsely (see the module docstring).  ``start``
    must be strictly feasible for the inequalities, inside the domain and on
    ``A z = b`` (the barrier-merit line search relies on it).  ``A`` must
    have full row rank (the solver does not drop dependent rows).  The
    solver reports a stall as "numerically-indeterminate" with its KKT
    residual; it never restarts.
    """

    X: np.ndarray
    value: Callable[[np.ndarray], np.ndarray]
    slopes: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    start: np.ndarray | None = None


@dataclass
class ConvexResult:
    status: str
    z: np.ndarray | None = None
    value: float | None = None
    kkt_residual: float | None = None
    iterations: int = 0


def _gram_pairs(X: np.ndarray):
    """Every pair of nonzeros sharing a row of X, read once from its pattern.

    Returns the pairs' rows, the products ``X[row, j] * X[row, k]`` and the
    column indices j and k; the Gram ``X' diag(w) X`` is the sum over pairs
    of ``w[row] * coef`` at entry (j, k).
    """
    rows, cols = np.nonzero(X)
    vals = X[rows, cols]
    # np.nonzero is row-major, so each row's nonzeros are contiguous.
    counts = np.bincount(rows, minlength=X.shape[0])
    starts = np.cumsum(counts) - counts
    reps = counts[rows]
    first = np.repeat(np.arange(rows.size), reps)
    offset = np.arange(first.size) - np.repeat(np.cumsum(reps) - reps, reps)
    second = starts[rows[first]] + offset
    return rows[first], vals[first] * vals[second], cols[first], cols[second]


def newton_solver(XG: np.ndarray, A: np.ndarray
                  ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Return ``(w, rhs) -> K^-1 rhs`` for K = [[XG' diag(w) XG, A'], [A, 0]].

    K's pattern, the Gram pairs of ``XG`` plus A's entries, is read once,
    and each call fills K's entries with one ``np.bincount`` into it.  The
    order of K picks only the factorisation: below ``_SPARSE_KKT_ORDER`` the
    entries are scattered into a dense array factored by LAPACK's LU; at or
    above it they are the data of a CSC matrix factored by SuperLU with a
    COLAMD column order.  Each call factors K once.  A singular K raises
    ``np.linalg.LinAlgError`` on both paths.
    """
    n, p = XG.shape[1], A.shape[0]
    order = n + p
    pair_row, pair_coef, j, k = _gram_pairs(XG)
    a_row, a_col = np.nonzero(A)
    a_val = A[a_row, a_col]
    # Every contribution to K as (row, column): the Gram pairs, A' in the
    # upper right and A in the lower left.  Keyed column-major and made
    # unique, they give K's pattern and each contribution's slot in it;
    # np.bincount sums each slot's contributions in this order.
    rows = np.concatenate([j, a_col, n + a_row])
    cols = np.concatenate([k, n + a_row, a_col])
    keys, slot = np.unique(cols * order + rows, return_inverse=True)
    constant = np.concatenate([a_val, a_val])

    def entries(w: np.ndarray) -> np.ndarray:
        return np.bincount(slot, weights=np.concatenate([pair_coef * w[pair_row], constant]),
                           minlength=keys.size)

    if order < _SPARSE_KKT_ORDER:
        def dense_solve(w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
            K = np.zeros(order * order)
            K[keys] = entries(w)
            return np.linalg.solve(K.reshape(order, order).T, rhs)

        return dense_solve

    indices = keys % order
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // order, minlength=order))])

    def sparse_solve(w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        K = csc_array((entries(w), indices, indptr), shape=(order, order))
        try:
            return splu(K).solve(rhs)
        except RuntimeError as exc:   # SuperLU's "Factor is exactly singular"
            raise np.linalg.LinAlgError(str(exc)) from None

    return sparse_solve


def solve_convex(cp: ConvexProgram, tol: float = 1e-8) -> ConvexResult:
    """Primal-dual interior-point solve; see module docstring for the problem form."""
    X = np.asarray(cp.X, dtype=float)
    n = X.shape[1]
    G = np.zeros((0, n)) if cp.G is None else np.asarray(cp.G, dtype=float)
    h = np.zeros(0) if cp.h is None else np.asarray(cp.h, dtype=float)
    A = np.zeros((0, n)) if cp.A is None else np.asarray(cp.A, dtype=float)
    b = np.zeros(0) if cp.b is None else np.asarray(cp.b, dtype=float)
    m, p = G.shape[0], A.shape[0]
    newton = newton_solver(np.vstack([X, G]), A)

    def objective(z: np.ndarray) -> float:
        return float(np.sum(cp.value(X @ z)))

    def derivatives(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        first, second = cp.slopes(X @ z)
        return X.T @ first, second

    if cp.start is None:
        raise DomainError("solve_convex requires a strictly feasible start point")
    z = np.asarray(cp.start, dtype=float).copy()
    s = h - G @ z
    if m and s.min() <= 0:
        raise DomainError("start point is not strictly feasible for the inequalities")
    f = objective(z)
    if not np.isfinite(f):
        raise DomainError("start point is outside the objective domain")

    lam = 1.0 / np.maximum(s, 1e-12)
    nu = np.zeros(p)
    # f, its gradient and the per-row second derivatives at the current
    # iterate; each accepted line-search point hands its own over to the
    # next iteration.
    grad, second = derivatives(z)
    best_res, best_it = np.inf, 0

    def result(status, kkt, it):
        return ConvexResult(status=status, z=z, value=f, kkt_residual=kkt,
                            iterations=it)

    for it in range(1, _MAX_ITER + 1):
        r_dual = grad + G.T @ lam + A.T @ nu
        r_pri = A @ z - b
        eta = float(s @ lam)
        tau = eta / (_MU * m) if m else 0.0
        res_inf = max(float(np.abs(r_dual).max(initial=0.0)),
                      float(np.abs(r_pri).max(initial=0.0)))
        if eta <= tol and res_inf <= tol:
            return result(OPTIMAL, max(res_inf, float(np.abs(lam * s).max(initial=0.0))), it)
        if res_inf < best_res:
            best_res, best_it = res_inf, it
        elif eta <= tol and it - best_it >= _STALL_ITERS:
            # Complementarity is within tol, but the residuals sit on a
            # rounding floor above it.
            return result(INDETERMINATE, max(res_inf, eta), it)

        # Newton step on the barrier merit phi = f - tau * sum(log s): the
        # right-hand side -grad(phi) - A'nu makes dz a descent direction for
        # phi wherever A z = b holds.
        grad_phi = grad + G.T @ (tau / s)
        rhs = np.concatenate([-(grad_phi + A.T @ nu), -r_pri])
        try:
            sol = newton(np.concatenate([second, lam / s]), rhs)
        except np.linalg.LinAlgError:
            return result(INDETERMINATE, max(res_inf, eta), it)
        dz, dnu = sol[:n], sol[n:]
        Gdz = G @ dz
        # d(lam*s): s dlam + lam ds = tau - lam*s with ds = -G dz.
        dlam = (tau - lam * s + lam * Gdz) / s

        # Primal step: Armijo backtracking on phi from 0.99 of the longest
        # step keeping s > 0.
        alpha = 1.0
        pos = Gdz > 0
        if pos.any():
            alpha = min(alpha, 0.99 * float((s[pos] / Gdz[pos]).min()))
        phi = f - tau * float(np.log(s).sum())
        slope = float(grad_phi @ dz)
        for _ in range(60):
            z_n = z + alpha * dz
            s_n = h - G @ z_n
            if not m or s_n.min() > 0:
                f_n = objective(z_n)
                if f_n - tau * float(np.log(s_n).sum()) <= phi + 1e-4 * alpha * slope:
                    break
            alpha *= 0.5
        else:
            # No step decreases the merit: report the stall with its residual.
            return result(INDETERMINATE, max(res_inf, eta), it)

        # Multiplier step: its own fraction-to-boundary rule on lam > 0.
        beta = 1.0
        neg = dlam < 0
        if neg.any():
            beta = min(beta, 0.99 * float((-lam[neg] / dlam[neg]).min()))
        lam = lam + beta * dlam
        nu = nu + beta * dnu
        z, s, f = z_n, s_n, f_n
        grad, second = derivatives(z)

    r_dual = grad + G.T @ lam + A.T @ nu
    kkt = max(float(s @ lam),
              float(np.abs(r_dual).max(initial=0.0)),
              float(np.abs(A @ z - b).max(initial=0.0)))
    return result(INDETERMINATE, kkt, _MAX_ITER)


def require_optimal(result, what: str):
    """Raise if an LP/convex result is not certified optimal."""
    if result.status != OPTIMAL:
        raise SolverIndeterminateError(f"{what}: solver status {result.status}")
    return result
