"""LP and smooth convex solvers.

``solve_lp`` solves a ``LinearProgram`` by HiGHS's dual simplex (Huangfu &
Hall, Math. Prog. Comp. 10, 2018) and re-certifies feasibility (rows and
bounds), complementary slackness, and the duality gap before reporting
"optimal"; anything less becomes "numerically-indeterminate" rather than a
wrong answer.  It drives scipy's bundled HiGHS binding (``scipy.optimize.
_highspy._core``, the module ``scipy.optimize.linprog`` calls) directly: it
checks its input itself (``DomainError``), loads one ``HighsLp`` (the
constraint matrix column by column, the rows as ``-inf <= A_ub z <= b_ub``
and ``b_eq <= A_eq z <= b_eq``) and runs it under one ``HighsOptions``
fixed at import: the seven options ``linprog(method="highs")`` sets, both
feasibility tolerances at 1e-10.  Its results are bit for bit those of
``linprog`` with these tolerances.  On the LPs of the recovery sweep and
the selftest (some tens of variables) HiGHS's own run is about a quarter of
a ``linprog`` call; most of the rest is ``linprog``'s per-call overhead: a
validation of each option that builds a fresh options manager, a Python
loop over the columns, and its input cleaning.  A direct call takes under
half the time there; on a 121-node tree's LPs HiGHS's run dominates either
way.  A HiGHS error in loading or running the LP is
"numerically-indeterminate", never "infeasible".

Of scipy the module loads only the two compiled extensions it calls, each
from its file under its full name (``_extension``): HiGHS's binding
``scipy.optimize._highspy._core`` and SuperLU's
``scipy.sparse.linalg._dsolve._superlu``.  Importing them through their
packages would run ``scipy.optimize``'s ``__init__``, which imports
scipy.linalg, fft and f2py, none of which the library calls: on a 2-vCPU
x86 machine a fresh ``import tcdl`` takes 0.10-0.30 s this way against
0.40-0.80 s through the packages.  A module already in ``sys.modules`` is
reused, so scipy's own imports before or after this one share it; a
missing file is an ``ImportError`` naming its path.

``solve_convex`` is a primal-dual interior-point method for a batch of B
programs that share X, G, h, A and b and differ only in a parameter row q
each and, optionally, in their start points and start multipliers:

    minimize sum(value(X z, q))  subject to  G z <= h,  A z = b,

with ``value`` a smooth convex function applied row by row to the linear
image X z (+inf outside its open domain; the line search backtracks into
the domain).  The primal's X is the trade-to-wealth map, the dual's the
leaf selector.  A report's dual grid is one batch (q holding y), its primal
solves another (q holding x, a start per x) and each step of its yhat
searches a third (a warm start per x; the first, and its multipliers,
read off that x's primal optimum).  A one-x recovery makes the search
steps for its one x, and the primal solve too unless ``solve_primal`` kept
one at the same (utility, x) on the model object.  The state has one row
per problem and every product is taken row by row
(``np.matvec``, ``np.vecmat``, ``np.vecdot``), so a problem's iterates do
not depend on its batch.  Each step factors one reduced KKT matrix
K = [[H, A'], [A, 0]] per problem, whose upper-left block is one Gram over
the stacked rows:

    H = X' diag(value'') X + G' diag(lam/s) G = [X; G]' diag([value''; lam/s]) [X; G].

``newton_solver`` reads K's pattern once per solve and sums each step's
entries for the whole batch with one ``np.bincount``.  K's order n + p picks
only the factorisation: below ``_SPARSE_KKT_ORDER`` one batched LAPACK LU
of the stacked dense matrices, at or above it SuperLU per problem
(``_factor``: ``gstrf`` as ``splu(K, permc_spec="NATURAL",
diag_pivot_thresh=0.001)`` calls it, on K's CSC pattern read once per
solve), whose fixed cost loses on small matrices (timings in BENCH_14.json
and BENCH_20.json).  SuperLU reorders no column of its own: it eliminates
the variables group by group in the caller's order (``ConvexProgram.order``),
each group followed by the equality rows whose first variable it holds, and
keeps each diagonal pivot unless its column holds an entry more than 1000
times larger.  On a tree, whose constraints link a node to its parent and
children (the primal's trade map to its ancestors), the groups are the
nodes, children before their parents; the factors of the 121-node trees in
BENCH_34.json hold at most 2.6 times K's nonzeros.
A batch whose stacked K would pass ``_BATCH_BYTES`` runs in slices.
Callers build ``A`` with full row rank.

Each problem takes its own steps.  The primal step is an Armijo
backtracking on the barrier merit phi(z) = sum(value(X z)) - tau * sum(log
s(z)), tau = eta / (10 m) the current centering target, from 0.99 of the
longest step that keeps s > 0; the Newton direction is a descent direction
for phi wherever A z = b holds, which every start satisfies.  A first
trial that leaves z bit for bit where it is cannot decrease the merit; it
is taken, and the multipliers still move.  The
multipliers take their own fraction-to-boundary step on lam > 0 (Wächter &
Biegler, Math. Program. 106, 2006).  A problem is optimal once the
complementarity eta and the dual and primal residuals are all <= tol; the
method polishes to KKT residuals around 1e-9, which the duality checks
downstream rely on.  Once eta <= tol, a problem whose residuals make no new
low for 20 iterations sits on a rounding floor and stops as
"numerically-indeterminate" with its residual, as does one in which no step
decreases the merit or whose KKT matrix is singular (dependent rows in
``A``, say); there is no least-squares fallback.  A stopped problem is
marked once, with its outcome, and every marked problem leaves the batch at
one check per iteration, after the tests for optimality and the floor.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, SolverIndeterminateError


def _extension(name: str):
    """scipy's compiled module ``name``, loaded from its file under its own
    name, or the one already in ``sys.modules``: a second copy of a pybind11
    module would break a later ``import scipy.optimize`` in the process."""
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ImportError("tcdl needs scipy", name="scipy")
        root = scipy.submodule_search_locations[0]
        path = os.path.join(root, *name.split(".")[1:]) + importlib.machinery.EXTENSION_SUFFIXES[0]
        if not os.path.isfile(path):
            raise ImportError(f"no file {path} for scipy's {name}", name=name, path=path)
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


_highs = _extension("scipy.optimize._highspy._core")
_superlu = _extension("scipy.sparse.linalg._dsolve._superlu")

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
# Bytes of stacked dense KKT matrices (8 order^2 per problem) a slice of a
# batch may hold; longer batches are solved slice by slice.
_BATCH_BYTES = 64 << 20


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


def _highs_options():
    """The options ``linprog(method="highs")`` sets, both feasibility
    tolerances at 1e-10; ``passOptions`` copies them into each solve."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.primal_feasibility_tolerance = 1e-10
    options.dual_feasibility_tolerance = 1e-10
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


_HIGHS_OPTIONS = _highs_options()
_HIGHS_STATUS = {_highs.HighsModelStatus.kOptimal: OPTIMAL,
                 _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
                 _highs.HighsModelStatus.kUnbounded: UNBOUNDED}
# The basis statuses of a column nonbasic at its lower and at its upper bound.
_AT_BOUND = (int(_highs.HighsBasisStatus.kLower), int(_highs.HighsBasisStatus.kUpper))


def _constraints(A, b, n: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``A`` and ``b`` as float arrays of shapes (m, n) and (m,), m = 0 when None."""
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float)
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[1] != n or b.shape != A.shape[:1]:
        raise DomainError(f"LP {name} has shape {A.shape} and right-hand side {b.shape}, "
                          f"expected (m, {n}) and (m,)")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise DomainError(f"LP {name} or its right-hand side has non-finite entries")
    return A, b


def solve_lp(lp: LinearProgram) -> LpResult:
    if lp.sense not in ("min", "max"):
        raise DomainError(f"LP sense {lp.sense!r} is neither 'min' nor 'max'")
    c = np.asarray(lp.c, dtype=float)
    if c.ndim != 1 or not c.size:
        raise DomainError(f"LP objective has shape {c.shape}, expected a nonempty vector")
    if not np.all(np.isfinite(c)):
        raise DomainError("LP objective has non-finite entries")
    n = c.size
    A_ub, b_ub = _constraints(lp.A_ub, lp.b_ub, n, "A_ub")
    A_eq, b_eq = _constraints(lp.A_eq, lp.b_eq, n, "A_eq")
    sign = -1.0 if lp.sense == "max" else 1.0
    bounds = np.empty((2, n))   # lower and upper per variable; None is unbounded
    try:
        bounds[0] = -np.inf if lp.lb is None else lp.lb
        bounds[1] = np.inf if lp.ub is None else lp.ub
    except ValueError:
        raise DomainError(f"LP bounds do not broadcast to its {n} variables") from None
    if np.isnan(bounds).any():
        raise DomainError("LP bounds have NaN entries")

    A = np.vstack([A_ub, A_eq])
    cols, rows = np.nonzero(A.T)   # column by column, as scipy's CSC holds them
    model = _highs.HighsLp()
    model.num_col_, model.num_row_ = n, A.shape[0]
    model.col_cost_ = sign * c
    model.col_lower_, model.col_upper_ = np.clip(bounds, -_highs.kHighsInf, _highs.kHighsInf)
    model.row_lower_ = np.concatenate([np.full(b_ub.size, -_highs.kHighsInf), b_eq])
    model.row_upper_ = np.concatenate([b_ub, b_eq])
    matrix = model.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = n, A.shape[0]
    matrix.start_ = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    matrix.index_ = rows
    matrix.value_ = A[rows, cols]
    highs = _highs._Highs()
    error = _highs.HighsStatus.kError
    if (highs.passOptions(_HIGHS_OPTIONS) == error or highs.passModel(model) == error
            or highs.run() == error):
        return LpResult(status=INDETERMINATE)
    status = _HIGHS_STATUS.get(highs.getModelStatus(), INDETERMINATE)
    if status != OPTIMAL:
        return LpResult(status=status)

    solution = highs.getSolution()
    z = np.array(solution.col_value)
    value = sign * highs.getInfo().objective_function_value
    row_dual = np.array(solution.row_dual)
    lam = -row_dual[:b_ub.size] if lp.A_ub is not None else None
    nu = -row_dual[b_ub.size:] if lp.A_eq is not None else None

    # Re-certify before claiming optimality.
    residuals = {}
    feas = 0.0
    if lam is not None:
        slack = b_ub - A_ub @ z
        feas = max(feas, float(max(0.0, -slack.min(initial=0.0))))
        residuals["comp_slack"] = float(np.max(np.abs(lam * slack), initial=0.0))
    if nu is not None:
        feas = max(feas, float(np.max(np.abs(A_eq @ z - b_eq), initial=0.0)))
    residuals["primal_feasibility"] = feas
    # HiGHS returns matched primal/dual basic solutions; the dual objective,
    # each column's dual counted at the bound it is nonbasic at, certifies
    # the gap.
    dual_obj = 0.0
    if lam is not None:
        dual_obj -= float(lam @ b_ub)
    if nu is not None:
        dual_obj -= float(nu @ b_eq)
    basis, col_dual = np.array(highs.getBasis().col_status, dtype=int), np.array(solution.col_dual)
    for bound, at_bound in zip(bounds, _AT_BOUND):
        finite = np.isfinite(bound)
        dual_obj += float(np.where(basis == at_bound, col_dual, 0.0)[finite] @ bound[finite])
    gap = abs(sign * value - dual_obj) / (1.0 + abs(value))
    residuals["duality_gap"] = float(gap)
    # z within its bounds to 1e-9 like the rows (linprog checked this to
    # 3e-4; HiGHS keeps a basic column within its 1e-10 tolerance of a
    # bound); a NaN fails this too.
    outside = np.max(np.maximum(bounds[0] - z, z - bounds[1]), initial=0.0)

    ok = (feas <= 1e-9
          and outside <= 1e-9
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
    """A batch of programs minimize sum(value(X z, q)) s.t. G z <= h, A z = b,
    one per row q of ``params`` (one problem when None).

    ``value(V, Q)`` takes the images V = X z of the problems in the batch,
    one row each, with their rows Q of ``params``, and returns the per-entry
    values, +inf outside the open domain; ``slopes(V, Q)`` the first and
    second derivatives.  ``start`` is one point for every problem or one row
    per problem; each problem's slacks come from its own start.  Starts must
    be strictly feasible, inside their problem's domain and on ``A z = b``;
    ``A`` must have full row rank.  ``multipliers`` holds the start
    multipliers lam of ``G z <= h``, one positive row per problem; None
    starts every problem from lam = 1/s.  The multipliers nu of ``A z = b``
    start at 0: a full Newton step sets nu + dnu whatever nu was.
    ``order`` lists the variables in elimination order for a sparse KKT
    factorisation, one row per group (a tree node's variables, say); each
    equality row follows the group holding the first of its variables.
    None means index order, one variable per group.  It changes results
    only by rounding.
    """

    X: np.ndarray
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    slopes: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    start: np.ndarray | None = None
    params: np.ndarray | None = None
    order: np.ndarray | None = None
    multipliers: np.ndarray | None = None


@dataclass
class ConvexResult:
    """``status`` is OPTIMAL iff every problem's is, and ``iterations`` sums
    theirs; the other fields hold one entry (a row of ``z``) per problem.
    ``eq_duals`` are the multipliers nu of ``A z = b`` in the dual residual
    grad + G' lam + A' nu."""

    status: str
    z: np.ndarray
    value: np.ndarray
    kkt_residual: np.ndarray
    iterations: int
    statuses: tuple[str, ...]
    problem_iterations: np.ndarray
    eq_duals: np.ndarray


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


# The options ``splu(K, permc_spec="NATURAL", diag_pivot_thresh=0.001)``
# hands SuperLU.  The threshold is the default of UMFPACK's symmetric
# strategy (Davis, ACM TOMS 30, 2004).  SuperLU's own, 1.0, is partial
# pivoting: on a 121-node primal its row swaps with the leaf rows fill L+U
# 1.75 times as much and take 2.4 times as long to factor, and a threshold
# of 0.01 keeps most of that fill (BENCH_34.json).
_SUPERLU_OPTIONS = dict(DiagPivotThresh=0.001, ColPerm="NATURAL", PanelSize=None,
                        Relax=None, SymmetricMode=True)


def _factor(data: np.ndarray, rows: np.ndarray, ptr: np.ndarray):
    """SuperLU's LU of the square CSC matrix (data, rows, ptr), indices of C
    int in canonical order, eliminated in its own order with diagonal-
    preferring threshold pivoting: the factor ``splu(K, permc_spec="NATURAL",
    diag_pivot_thresh=0.001)`` returns, without its per-call copy and input
    cleaning.  Its ``L`` and ``U`` are not built."""
    return _superlu.gstrf(ptr.size - 1, data.size, data, rows, ptr, csc_construct_func=None,
                          ilu=False, options=_SUPERLU_OPTIONS)


def newton_solver(XG: np.ndarray, A: np.ndarray, order: np.ndarray | None = None):
    """Return ``(W, RHS) -> (SOL, singular)``: row k of SOL is K_k^-1 RHS[k]
    for K_k = [[XG' diag(W[k]) XG, A'], [A, 0]], and the mask ``singular``
    marks the problems whose K is singular (their rows of SOL are 0).  The
    stacked dense K are factored by one batched LU, solved one by one when
    one is singular; at or above ``_SPARSE_KKT_ORDER`` each K by SuperLU,
    in the elimination order ``order`` of ``ConvexProgram``.
    """
    n, p = XG.shape[1], A.shape[0]
    dim = n + p
    pair_row, pair_coef, j, k = _gram_pairs(XG)
    a_row, a_col = np.nonzero(A)
    a_val = A[a_row, a_col]
    # Every contribution to K as (row, column): the Gram pairs, A' in the
    # upper right and A in the lower left.  Its slot, its column-major place
    # in a dense K or in K's pattern (the unique places) for a sparse one,
    # is read once; np.bincount sums each slot's contributions in order.
    rows = np.concatenate([j, a_col, n + a_row])
    cols = np.concatenate([k, n + a_row, a_col])
    dense = dim < _SPARSE_KKT_ORDER
    if not dense:
        # perm lists K's indices in elimination order: the groups of ``order``
        # in turn, each followed by the equality rows whose first variable it
        # holds (a row without entries goes last); place inverts it, so the
        # sparse K is K[perm][:, perm].
        groups = np.arange(n)[:, None] if order is None else np.reshape(order, (len(order), -1))
        group = np.empty(n, dtype=int)
        group[groups] = np.arange(len(groups))[:, None]
        first = np.full(p, len(groups))
        np.minimum.at(first, a_row, group[a_col])
        ranks = np.concatenate([2 * (np.arange(n) // groups.shape[1]), 2 * first + 1])
        perm = np.concatenate([groups.ravel(), n + np.arange(p)])[np.argsort(ranks, kind="stable")]
        place = np.empty_like(perm)
        place[perm] = np.arange(dim)
        rows, cols = place[rows], place[cols]
    slot, width = cols * dim + rows, dim * dim
    if not dense:
        keys, slot = np.unique(slot, return_inverse=True)
        width = keys.size
        indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // dim, minlength=dim))])
        # K's pattern in CSC, as SuperLU reads it; each step supplies its entries.
        lu_rows, lu_ptr = (keys % dim).astype(np.intc), indptr.astype(np.intc)
    pairs, constant = pair_row.size, np.concatenate([a_val, a_val])
    # Buffers for the batch size of the last call: the flat places of the
    # pairs' weights in W, the slots, and the weights.
    size, gather, slots, weights = 0, None, None, None

    def solve(W: np.ndarray, RHS: np.ndarray):
        nonlocal size, gather, slots, weights
        if len(W) != size:
            size, offsets = len(W), np.arange(len(W))[:, None]
            gather = (pair_row + W.shape[1] * offsets).ravel()
            slots = (slot + width * offsets).ravel()
            weights = np.empty((size, slot.size))
            weights[:, pairs:] = constant
        np.multiply(pair_coef, W.ravel()[gather].reshape(size, pairs), out=weights[:, :pairs])
        E = np.bincount(slots, weights=weights.ravel(), minlength=size * width).reshape(size, width)
        if dense:
            K = E.reshape(-1, dim, dim).transpose(0, 2, 1)
            try:
                return np.linalg.solve(K, RHS[..., None])[..., 0], np.zeros(size, dtype=bool)
            except np.linalg.LinAlgError:
                pass   # solved one by one below, to find the singular problems
        SOL, singular = np.zeros_like(RHS), np.zeros(size, dtype=bool)
        for i in range(size):
            try:
                if dense:
                    SOL[i] = np.linalg.solve(K[i], RHS[i])
                else:
                    SOL[i, perm] = _factor(E[i], lu_rows, lu_ptr).solve(RHS[i, perm])
            except (np.linalg.LinAlgError, RuntimeError):   # SuperLU: "Factor is exactly singular"
                singular[i] = True
        return SOL, singular

    return solve


def _to_boundary(v: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Per row, 0.99 of the longest step keeping v - step * rate > 0, at most 1
    (v / nan is nan, which fmin skips)."""
    limit = np.fmin.reduce(v / np.where(rate > 0, rate, np.nan), axis=1, initial=np.inf)
    return np.minimum(1.0, 0.99 * limit)


def solve_convex(cp: ConvexProgram, tol: float = 1e-8) -> ConvexResult:
    """Primal-dual interior-point solve of a batch; see the module docstring."""
    X = np.asarray(cp.X, dtype=float)
    n = X.shape[1]
    G = np.zeros((0, n)) if cp.G is None else np.asarray(cp.G, dtype=float)
    h = np.zeros(0) if cp.h is None else np.asarray(cp.h, dtype=float)
    A = np.zeros((0, n)) if cp.A is None else np.asarray(cp.A, dtype=float)
    b = np.zeros(0) if cp.b is None else np.asarray(cp.b, dtype=float)
    m, p = G.shape[0], A.shape[0]
    params = np.zeros((1, 0)) if cp.params is None else np.asarray(cp.params, dtype=float)
    if cp.start is None:
        raise DomainError("solve_convex requires a strictly feasible start point")
    newton = newton_solver(np.vstack([X, G]), A, cp.order)
    start = np.asarray(cp.start, dtype=float)
    start = start if start.ndim == 2 else start[None]
    # Each start's slacks, one product per start as for a lone problem.
    s0 = np.array([h - G @ z for z in start])
    if m and s0.min() <= 0:
        raise DomainError("start point is not strictly feasible for the inequalities")
    centering = _MU * max(m, 1)

    total = len(params)
    if cp.multipliers is not None:
        lam0 = np.asarray(cp.multipliers, dtype=float)
        if lam0.shape != (total, m) or not (np.isfinite(lam0) & (lam0 > 0)).all():
            raise DomainError(f"start multipliers must be {total} rows of {m} positive finite "
                              f"entries, got shape {lam0.shape}")
    z_out, f_out, kkt_out = np.empty((total, n)), np.empty(total), np.empty(total)
    nu_out = np.empty((total, p))
    it_out, status_out = np.zeros(total, dtype=int), np.full(total, INDETERMINATE, dtype=object)

    def run(rows: np.ndarray):
        P, B = params[rows], len(rows)   # a slice of the batch
        own = rows if len(start) > 1 else np.zeros(B, dtype=int)
        Z, S = start[own], s0[own]
        V = np.matvec(X, Z)
        F, L = cp.value(V, P).sum(axis=1), np.log(S).sum(axis=1)
        if not np.isfinite(F).all():
            raise DomainError("start point is outside the objective domain")
        lam = 1.0 / np.maximum(S, 1e-12) if cp.multipliers is None else lam0[rows]
        nu = np.zeros((B, p))
        # Stall state: each problem's lowest residual so far and the
        # iterations since it was first reached.
        best, since = np.full(B, np.inf), np.zeros(B, dtype=int)
        stopped = np.zeros(B, dtype=bool)   # outcome recorded; the row leaves at the next drop

        def stop(mask, status, it):
            """Record each row of ``mask`` not stopped yet, with its residual."""
            if np.count_nonzero(mask):
                mask = mask & ~stopped
                comp = np.abs(lam * S).max(axis=1, initial=0.0) if status == OPTIMAL else eta
                k = rows[mask]
                z_out[k], nu_out[k], f_out[k], kkt_out[k], it_out[k], status_out[k] = (
                    Z[mask], nu[mask], F[mask], np.maximum(res_inf, comp)[mask], it, status)
                stopped[mask] = True

        for it in range(1, _MAX_ITER + 2):
            # The derivatives at the current iterates, whose V = X z, F and
            # sum(log s) the last accepted line-search point handed over.
            first, second = cp.slopes(V, P)
            grad = np.vecmat(first, X)
            Anu = np.vecmat(nu, A)
            r_dual = grad + np.vecmat(lam, G) + Anu
            r_pri = np.matvec(A, Z) - b
            eta = np.vecdot(S, lam)
            res_inf = np.abs(np.concatenate([r_dual, r_pri], axis=1)).max(axis=1)
            if it > _MAX_ITER:
                stop(~stopped, INDETERMINATE, _MAX_ITER)
                break
            low = res_inf < best
            best, since = np.where(low, res_inf, best), np.where(low, 0, since + 1)
            small = eta <= tol
            if np.count_nonzero(small):   # both tests need eta <= tol
                stop(small & (res_inf <= tol), OPTIMAL, it)
                # Complementarity is within tol, but the residuals have made
                # no new low for _STALL_ITERS iterations: a rounding floor.
                stop(small & (since >= _STALL_ITERS), INDETERMINATE, it)
            # Every stopped row leaves here, whatever stopped it: the two
            # tests above or, in the previous iteration, its step.
            if np.count_nonzero(stopped):
                if stopped.all():
                    break
                keep = ~stopped
                (Z, S, F, L, lam, nu, grad, second, P, rows, Anu, r_pri, eta, res_inf,
                 best, since, stopped) = (v[keep] for v in (Z, S, F, L, lam, nu, grad, second,
                                                            P, rows, Anu, r_pri, eta, res_inf,
                                                            best, since, stopped))

            # Newton step on the barrier merit phi = f - tau * sum(log s): the
            # right-hand side -grad(phi) - A'nu makes dz a descent direction for
            # phi wherever A z = b holds.
            tau = eta / centering
            tcol = tau[:, None]
            grad_phi = grad + np.vecmat(tcol / S, G)
            rhs = -np.concatenate([grad_phi + Anu, r_pri], axis=1)
            sol, singular = newton(np.concatenate([second, lam / S], axis=1), rhs)
            # No Newton step: stop with the residual.  The zero step below
            # keeps the row's state until it leaves.
            stop(singular, INDETERMINATE, it)
            dZ, dnu = sol[:, :n], sol[:, n:]
            GdZ = np.matvec(G, dZ)
            # d(lam*s): s dlam + lam ds = tau - lam*s with ds = -G dz.
            dlam = (tcol - lam * S + lam * GdZ) / S

            # Primal step: Armijo backtracking on phi from 0.99 of the longest
            # step keeping s > 0, per problem.
            alpha = _to_boundary(S, GdZ)
            phi = F - tau * L
            slope = np.vecdot(grad_phi, dZ)
            for trial in range(60):
                Zn = Z + alpha[:, None] * dZ
                Sn = h - np.matvec(G, Zn)
                # Rounding put a slack at zero: that trial is rejected, and
                # its row is evaluated at the current iterate.
                out = (Sn <= 0).any(axis=1)
                np.copyto(Zn, Z, where=out[:, None])
                np.copyto(Sn, S, where=out[:, None])
                Vn = np.matvec(X, Zn)
                Fn, Ln = cp.value(Vn, P).sum(axis=1), np.log(Sn).sum(axis=1)
                accept = (Fn - tau * Ln <= phi + 1e-4 * alpha * slope) & ~out
                if not trial:
                    # A step that rounds to nothing cannot decrease the merit:
                    # its row takes it and moves its multipliers.
                    still = (Zn == Z).all(axis=1) & ~out
                accept |= still
                if np.count_nonzero(accept) == len(accept):
                    break
                alpha = np.where(accept, alpha, 0.5 * alpha)
            else:
                # No step decreases the merit: stop with the residual.
                stop(~accept, INDETERMINATE, it)

            # Multiplier step: its own fraction-to-boundary rule on lam > 0.
            beta = _to_boundary(lam, -dlam)[:, None]
            lam = lam + beta * dlam
            nu = nu + beta * dnu
            Z, S, V, F, L = Zn, Sn, Vn, Fn, Ln

    # Long batches run in slices whose stacked dense K stays within the budget.
    size = max(1, _BATCH_BYTES // (8 * (n + p) ** 2))
    for first in range(0, total, size):
        run(np.arange(first, min(first + size, total)))
    return ConvexResult(status=next((s for s in status_out if s != OPTIMAL), OPTIMAL),
                        z=z_out, value=f_out, kkt_residual=kkt_out, iterations=int(it_out.sum()),
                        statuses=tuple(status_out), problem_iterations=it_out, eq_duals=nu_out)


def require_optimal(result, what: str):
    """Raise if an LP/convex result is not certified optimal."""
    if result.status != OPTIMAL:
        raise SolverIndeterminateError(f"{what}: solver status {result.status}")
    return result
