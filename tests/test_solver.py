"""Linear and smooth convex solvers against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

from tcdl import dual as du
from tcdl import harness as hn
from tcdl import primal as pr
from tcdl import solver
from tcdl import utility as ut
from tcdl.harness import random_instance
from tcdl.solver import (
    INDETERMINATE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    ConvexProgram,
    LinearProgram,
    LpResult,
    require_optimal,
    solve_convex,
    solve_lp,
)
from tcdl.errors import DomainError, SolverIndeterminateError

from oracles import (
    binomial_cps_polytope_matrices,
    golden_section_max,
    lp_max_by_vertices,
    vertex_enumerate,
)


def test_lp_simple_max():
    # max z1 + z2 on the unit simplex slice z1 + 2 z2 <= 1, z >= 0
    lp = LinearProgram(c=np.array([1.0, 1.0]),
                       A_ub=np.array([[1.0, 2.0]]), b_ub=np.array([1.0]),
                       sense="max")
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(res.z, [1.0, 0.0], atol=1e-9)


def test_lp_matches_vertex_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = 4
        A_eq = rng.normal(size=(1, n))
        b_eq = np.array([1.0])
        G = np.vstack([-np.eye(n), np.eye(n), rng.normal(size=(2, n))])
        h = np.concatenate([np.zeros(n), np.full(n, 2.0),
                            np.abs(rng.normal(size=2)) + 1.0])
        c = rng.normal(size=n)
        verts = vertex_enumerate(A_eq, b_eq, G, h)
        if not verts:
            continue
        oracle = lp_max_by_vertices(c, A_eq, b_eq, G, h)
        res = solve_lp(LinearProgram(c=c, A_ub=G, b_ub=h, A_eq=A_eq,
                                     b_eq=b_eq, lb=None, sense="max"))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(oracle, rel=1e-8, abs=1e-8)


def test_lp_infeasible():
    lp = LinearProgram(c=np.array([1.0]),
                       A_ub=np.array([[1.0], [-1.0]]),
                       b_ub=np.array([-1.0, -1.0]), lb=None)
    assert solve_lp(lp).status == INFEASIBLE


def test_lp_unbounded():
    lp = LinearProgram(c=np.array([1.0, 0.0]), lb=None, sense="max")
    assert solve_lp(lp).status == UNBOUNDED


def test_lp_duals_certify_optimum():
    # min c.z with z >= 0 and A_eq z = b: duals satisfy c + A' nu - mu = 0
    c = np.array([3.0, 1.0, 4.0])
    A_eq = np.array([[1.0, 1.0, 1.0]])
    b_eq = np.array([1.0])
    res = solve_lp(LinearProgram(c=c, A_eq=A_eq, b_eq=b_eq))
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(1.0)
    mu = c + A_eq.T @ res.eq_duals
    assert np.all(mu >= -1e-8)
    assert np.abs(mu * res.z).max() < 1e-8


def test_lp_deterministic():
    rng = np.random.default_rng(3)
    c = rng.normal(size=5)
    G = np.vstack([-np.eye(5), np.ones((1, 5))])
    h = np.concatenate([np.zeros(5), [1.0]])
    first = solve_lp(LinearProgram(c=c, A_ub=G, b_ub=h, lb=None, sense="max"))
    second = solve_lp(LinearProgram(c=c, A_ub=G, b_ub=h, lb=None, sense="max"))
    assert first.value == second.value
    assert np.array_equal(first.z, second.z)


def test_lp_refuses_an_unknown_sense():
    for sense in ("maximize", "MAX", "Min", ""):
        with pytest.raises(DomainError, match="sense"):
            solve_lp(LinearProgram(c=np.array([1.0]), ub=1.0, sense=sense))
    # max of z on [0, 1] is 1, not the minimum 0
    assert solve_lp(LinearProgram(c=np.array([1.0]), ub=1.0, sense="max")).value == 1.0


def _malformed(**change):
    """A well-posed two-variable LP with one field replaced."""
    fields = dict(c=np.array([1.0, 2.0]),
                  A_ub=np.array([[1.0, 1.0]]), b_ub=np.array([3.0]),
                  A_eq=np.array([[1.0, -1.0]]), b_eq=np.array([0.5]),
                  lb=0.0, ub=np.array([5.0, 5.0]))
    fields.update(change)
    return LinearProgram(**fields)


@pytest.mark.parametrize("lp", [
    _malformed(b_ub=np.array([np.nan])),
    _malformed(b_ub=np.array([np.inf])),
    _malformed(b_eq=np.array([-np.inf])),
    _malformed(A_ub=np.array([[1.0, np.nan]])),
    _malformed(A_eq=np.array([[np.inf, 1.0]])),
    _malformed(A_ub=np.array([[1.0, 1.0, 1.0]])),
    _malformed(A_ub=np.array([1.0, 1.0])),
    _malformed(b_ub=np.array([3.0, 4.0])),
    _malformed(b_eq=None),
    _malformed(A_eq=None),
    _malformed(lb=np.zeros(3)),
    _malformed(ub=np.array([1.0, np.nan])),
    _malformed(c=np.array([1.0, np.inf])),
    _malformed(c=np.zeros((2, 1))),
], ids=["b_ub-nan", "b_ub-inf", "b_eq-inf", "A_ub-nan", "A_eq-inf", "A_ub-columns",
        "A_ub-1d", "b_ub-length", "b_eq-missing", "A_eq-missing", "lb-length", "ub-nan",
        "c-inf", "c-2d"])
def test_lp_malformed_input_raises_domain_error(lp):
    with pytest.raises(DomainError, match="LP"):
        solve_lp(lp)


def test_lp_infinite_bounds_stay_legal():
    res = solve_lp(_malformed(lb=np.array([-np.inf, 0.0]), ub=np.inf))
    assert res.status == OPTIMAL
    # z1 = 0.5 + z2 and the objective 0.5 + 3 z2: z2 sits at its bound 0
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(res.z, [0.5, 0.0], atol=1e-12)


def test_lp_highs_errors_are_indeterminate(monkeypatch):
    # an infinite lower bound of +inf is a HiGHS model error, which linprog
    # reported as infeasible; an option HiGHS refuses is an error too
    assert solve_lp(LinearProgram(c=np.array([1.0]), lb=np.inf)).status == INDETERMINATE
    assert linprog([1.0], bounds=[(np.inf, np.inf)], method="highs").status == 2
    options = solver._highs_options()
    options.presolve = "sometimes"
    monkeypatch.setattr(solver, "_HIGHS_OPTIONS", options)
    assert solve_lp(_malformed()).status == INDETERMINATE


def _linprog_reference(lp: LinearProgram) -> LpResult:
    """``solve_lp`` as it stood on ``scipy.optimize.linprog(method="highs")``."""
    c = np.asarray(lp.c, dtype=float)
    n = c.size
    sign = -1.0 if lp.sense == "max" else 1.0
    bounds = np.empty((n, 2))
    bounds[:, 0] = -np.inf if lp.lb is None else lp.lb
    bounds[:, 1] = np.inf if lp.ub is None else lp.ub
    res = linprog(sign * c, A_ub=lp.A_ub, b_ub=lp.b_ub, A_eq=lp.A_eq, b_eq=lp.b_eq,
                  bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status in (2, 3):
        return LpResult(status=INFEASIBLE if res.status == 2 else UNBOUNDED)
    if res.status != 0:
        return LpResult(status=INDETERMINATE)
    z, value = np.asarray(res.x), sign * res.fun
    lam = -np.asarray(res.ineqlin.marginals) if lp.A_ub is not None else None
    nu = -np.asarray(res.eqlin.marginals) if lp.A_eq is not None else None
    residuals, feas = {}, 0.0
    if lp.A_ub is not None:
        slack = np.asarray(lp.b_ub) - lp.A_ub @ z
        feas = max(feas, float(max(0.0, -slack.min(initial=0.0))))
        residuals["comp_slack"] = float(np.max(np.abs(lam * slack), initial=0.0))
    if lp.A_eq is not None:
        feas = max(feas, float(np.max(np.abs(lp.A_eq @ z - lp.b_eq), initial=0.0)))
    residuals["primal_feasibility"] = feas
    dual_obj = 0.0
    if lp.b_ub is not None and lam is not None:
        dual_obj -= float(lam @ np.asarray(lp.b_ub))
    if lp.b_eq is not None and nu is not None:
        dual_obj -= float(nu @ np.asarray(lp.b_eq))
    for side, marginals in ((0, res.lower.marginals), (1, res.upper.marginals)):
        finite = np.isfinite(bounds[:, side])
        dual_obj += float(np.asarray(marginals)[finite] @ bounds[finite, side])
    gap = abs(sign * value - dual_obj) / (1.0 + abs(value))
    residuals["duality_gap"] = float(gap)
    ok = (feas <= 1e-9
          and residuals.get("comp_slack", 0.0) <= 1e-8 * (1.0 + float(np.abs(z).max(initial=0.0)))
          and gap <= 1e-8)
    return LpResult(status=OPTIMAL if ok else INDETERMINATE, z=z, value=float(value),
                    ineq_duals=lam, eq_duals=nu, residuals=residuals)


def _assert_same_as_linprog(lp: LinearProgram) -> str:
    ours, ref = solve_lp(lp), _linprog_reference(lp)
    assert ours.status == ref.status
    for name in ("z", "ineq_duals", "eq_duals"):
        a, b = getattr(ours, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
    assert ours.value == ref.value or (ours.value is None and ref.value is None)
    assert ours.residuals == ref.residuals
    return ours.status


def _small_lps():
    """The LPs of this file's tests above, and degenerate and infeasible-and-unbounded ones."""
    yield LinearProgram(c=np.array([1.0, 1.0]), A_ub=np.array([[1.0, 2.0]]),
                        b_ub=np.array([1.0]), sense="max")
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = 4
        A_eq = rng.normal(size=(1, n))
        G = np.vstack([-np.eye(n), np.eye(n), rng.normal(size=(2, n))])
        h = np.concatenate([np.zeros(n), np.full(n, 2.0), np.abs(rng.normal(size=2)) + 1.0])
        yield LinearProgram(c=rng.normal(size=n), A_ub=G, b_ub=h, A_eq=A_eq,
                            b_eq=np.array([1.0]), lb=None, sense="max")
    yield LinearProgram(c=np.array([1.0]), A_ub=np.array([[1.0], [-1.0]]),
                        b_ub=np.array([-1.0, -1.0]), lb=None)
    yield LinearProgram(c=np.array([1.0, 0.0]), lb=None, sense="max")
    yield LinearProgram(c=np.array([3.0, 1.0, 4.0]), A_eq=np.array([[1.0, 1.0, 1.0]]),
                        b_eq=np.array([1.0]))
    # primal degenerate: three constraints active at the optimum (1, 1)
    yield LinearProgram(c=np.array([1.0, 1.0]),
                        A_ub=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                        b_ub=np.array([1.0, 1.0, 2.0]), sense="max")
    # dual degenerate: every point of z1 + z2 = 1, z >= 0 is optimal
    yield LinearProgram(c=np.array([1.0, 1.0]), A_ub=np.array([[1.0, 1.0]]),
                        b_ub=np.array([1.0]), sense="max")
    # infeasible (z2 <= -1, z2 >= 0) and unbounded (z1 -> inf)
    yield LinearProgram(c=np.array([-1.0, 0.0]), A_ub=np.array([[-1.0, 0.0], [0.0, 1.0]]),
                        b_ub=np.array([0.0, -1.0]))


def test_lp_small_cases_match_linprog_bit_for_bit():
    statuses = [_assert_same_as_linprog(lp) for lp in _small_lps()]
    assert statuses[26:] == [INFEASIBLE, UNBOUNDED, OPTIMAL, OPTIMAL, OPTIMAL, INFEASIBLE]
    assert statuses[:26].count(OPTIMAL) >= 20


def _recorded_lps(run) -> list:
    """Every LinearProgram ``run()`` hands to the dual's and the primal's ``solve_lp``."""
    lps = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (du, pr):
            mp.setattr(module, "solve_lp", lambda lp: lps.append(lp) or solve_lp(lp))
        run()
    return lps


# Criterion 02's instances 2000 + k, one per COMBO, and a 121-node tree.
@pytest.mark.parametrize("seed, depth, branching, lam, rho", [
    (2000, 2, 3, 0.01, 0.3), (2001, 2, 3, 0.1, 0.3), (2002, 3, 2, 0.3, 0.3),
    (2003, 3, 3, 0.3, 0.3), (1, 4, 3, 0.3, 0.2),
])
def test_lp_model_lps_match_linprog_bit_for_bit(seed, depth, branching, lam, rho):
    # the polytope's phase-1 LP (random_instance's check for a CPS), x0's
    # max-min LP, a recovery's certificate and the minimal-turnover tie break
    log = ut.make_utility("log")

    def run():
        model = hn.random_instance(seed, depth, branching, lam=lam, rho=rho, max_attempts=600)
        x = du.compute_x0(model) + 1.0
        pr.solve_primal(model, log, x)
        assert hn.recover_primal_from_dual(model, log, x).attainable
        pr.solve_primal(model, log, x, tie_break=True)

    lps = _recorded_lps(run)
    assert len(lps) == 4
    assert [_assert_same_as_linprog(lp) for lp in lps] == [OPTIMAL] * 4


def test_binomial_price_polytope_against_oracle():
    # one-period S = (4; 8, 2), lambda = 0.1: the density q = E[z0 * 1_up]
    # ranges over an interval whose endpoints come from vertex enumeration
    A_eq, b_eq, G, h = binomial_cps_polytope_matrices(4.0, 8.0, 2.0, 0.1)
    verts = vertex_enumerate(A_eq, b_eq, G, h)
    assert verts
    # payoff 3 in the up state, 0 in the down state, weights p = (1/2, 1/2)
    c = np.zeros(6)
    c[2] = 0.5 * 3.0
    hi = lp_max_by_vertices(c, A_eq, b_eq, G, h)
    assert hi == pytest.approx(11.0 / 9.0, abs=1e-9)
    # q-interval endpoints: q = 0.5 * z0_up
    q_vals = [0.5 * v[2] for v in verts]
    assert min(q_vals) == pytest.approx(0.2666666667, abs=1e-8)
    assert max(q_vals) == pytest.approx(0.4074074074, abs=1e-8)


def test_convex_quadratic_with_equality():
    # min ||z - t||^2 s.t. sum z = 1: projection of t on the simplex plane
    t = np.array([0.3, 0.9, -0.1])
    cp = ConvexProgram(
        X=np.eye(3),
        value=lambda v, _: (v - t) ** 2,
        slopes=lambda v, _: (2.0 * (v - t), np.full(v.shape, 2.0)),
        A=np.ones((1, 3)), b=np.array([1.0]),
        start=np.full(3, 1.0 / 3.0),
    )
    res = solve_convex(cp, tol=1e-10)
    assert res.status == OPTIMAL
    expected = t + (1.0 - t.sum()) / 3.0
    assert np.allclose(res.z[0], expected, atol=1e-8)
    # the equality multiplier closes the dual residual grad + A' nu
    assert res.eq_duals.shape == (1, 1)
    assert np.allclose(2.0 * (res.z[0] - t) + res.eq_duals[0], 0.0, atol=1e-8)


def test_convex_entropy_on_simplex_matches_golden_section():
    # max p log z1 + (1-p) log z2 on z1 + z2 = 1, z >= 0; optimum z1 = p
    p = 0.3
    q = np.array([p, 1 - p])
    cp = ConvexProgram(
        X=np.eye(2),
        value=lambda v, _: -q * np.log(v),
        slopes=lambda v, _: (-q / v, q / v ** 2),
        G=-np.eye(2), h=np.zeros(2),
        A=np.ones((1, 2)), b=np.array([1.0]),
        start=np.array([0.5, 0.5]),
    )
    res = solve_convex(cp, tol=1e-10)
    assert res.status == OPTIMAL
    assert res.z[0, 0] == pytest.approx(p, abs=1e-7)
    t_star, f_star = golden_section_max(
        lambda t: p * np.log(t) + (1 - p) * np.log(1 - t), 1e-9, 1 - 1e-9)
    assert -res.value[0] == pytest.approx(f_star, abs=1e-9)
    assert res.z[0, 0] == pytest.approx(t_star, abs=1e-6)


def test_convex_barrier_domain_respected():
    # objective undefined for z <= 0.5; solver must never step out
    cp = ConvexProgram(
        X=np.eye(1),
        value=lambda v, _: -np.log(v - 0.5) + v if v.min() > 0.5 else np.full(v.shape, np.inf),
        slopes=lambda v, _: (-1.0 / (v - 0.5) + 1.0, 1.0 / (v - 0.5) ** 2),
        start=np.array([1.0]),
    )
    res = solve_convex(cp, tol=1e-10)
    assert res.status == OPTIMAL
    assert res.z[0, 0] == pytest.approx(1.5, abs=1e-8)


def _csc(data, rows, ptr):
    """The matrix ``solver._factor`` is handed, as a CSC array of its own."""
    return csc_array((data.copy(), rows, ptr), shape=(ptr.size - 1,) * 2)


def _splu(K):
    """``splu`` in the natural order with the library's pivot threshold."""
    return splu(K, permc_spec="NATURAL",
                diag_pivot_thresh=solver._SUPERLU_OPTIONS["DiagPivotThresh"])


def _counting_factors(monkeypatch):
    calls, factor = [], solver._factor

    def counting(data, rows, ptr):
        calls.append(ptr.size - 1)
        return factor(data, rows, ptr)

    monkeypatch.setattr(solver, "_factor", counting)
    return calls


def test_rank_deficient_kkt_is_indeterminate(monkeypatch):
    # min |z|^2/2 with the row sum(z) = 1 given twice: the KKT matrix, of
    # order n + 2, is singular, so the solve has no Newton step and stops
    # with its residual, whether K is factored densely (n = 2) or by
    # SuperLU (order at the constant)
    calls = _counting_factors(monkeypatch)
    for n in (2, solver._SPARSE_KKT_ORDER - 2):
        start = np.zeros(n)
        start[:2] = [0.9, 0.1]
        cp = ConvexProgram(
            X=np.eye(n),
            value=lambda v, _: 0.5 * v ** 2,
            slopes=lambda v, _: (v.copy(), np.ones(v.shape)),
            A=np.ones((2, n)), b=np.ones(2),
            start=start,
        )
        res = solve_convex(cp, tol=1e-10)
        assert res.status == INDETERMINATE
        assert res.iterations == 1
        assert res.kkt_residual == pytest.approx(0.9)
        with pytest.raises(SolverIndeterminateError, match="numerically-indeterminate"):
            require_optimal(res, "rank-deficient solve")
    assert calls == [solver._SPARSE_KKT_ORDER]


@pytest.mark.parametrize("seed", [1, 2])
def test_sparse_and_dense_newton_steps_agree_on_deep_trees(monkeypatch, seed):
    # a 121-node tree: both KKT matrices (dual and primal) are of order 323,
    # above the constant, so the default run factors every step by SuperLU
    model = random_instance(seed, 4, 3, lam=0.3, rho=0.2)
    x = du.compute_x0(model) + 1.0
    log = ut.make_utility("log")
    calls = _counting_factors(monkeypatch)
    sparse_dual = du.solve_dual(model, log, 1.0)
    sparse_primal = pr.solve_primal(model, log, x)
    assert calls and set(calls) == {323}
    calls.clear()
    monkeypatch.setattr(solver, "_SPARSE_KKT_ORDER", 10 ** 9)
    dense_dual = du.solve_dual(model, log, 1.0)
    dense_primal = pr.solve_primal(model, log, x)
    assert not calls
    assert sparse_dual.iterations == dense_dual.iterations
    assert sparse_primal.iterations == dense_primal.iterations
    assert sparse_dual.value == pytest.approx(dense_dual.value, rel=1e-10)
    assert sparse_primal.value == pytest.approx(dense_primal.value, rel=1e-10)


@pytest.mark.parametrize("seed", [1, 2])
def test_children_first_factors_stay_sparse_on_deep_trees(monkeypatch, seed):
    # eliminated leaf to root, a tree's KKT matrix fills little: every
    # SuperLU factor of the 121-node dual and primal steps holds at most
    # three times K's nonzeros (a fill-reducing column order read 6 to 8)
    model = random_instance(seed, 4, 3, lam=0.3, rho=0.2)
    log = ut.make_utility("log")
    fill = []

    def measuring(data, rows, ptr):
        K = _csc(data, rows, ptr)
        lu = _splu(K)   # the same factor, with L and U built
        fill.append((lu.L.nnz + lu.U.nnz) / K.nnz)
        return lu

    monkeypatch.setattr(solver, "_factor", measuring)
    du.solve_dual(model, log, 1.0)
    steps = len(fill)
    pr.solve_primal(model, log, du.compute_x0(model) + 1.0)
    assert 0 < steps < len(fill)
    assert max(fill) <= 3.0


def test_direct_factor_solves_as_splu_does_bit_for_bit(monkeypatch):
    # every order-323 K of the 121-node dual and primal solves: SuperLU
    # called directly and through splu with the natural order solve alike
    model = random_instance(1, 4, 3, lam=0.3, rho=0.2)
    log = ut.make_utility("log")
    seen, factor = [], solver._factor

    def keeping(data, rows, ptr):
        seen.append((data.copy(), rows, ptr))
        return factor(data, rows, ptr)

    monkeypatch.setattr(solver, "_factor", keeping)
    du.solve_dual(model, log, 1.0)
    steps = len(seen)
    pr.solve_primal(model, log, du.compute_x0(model) + 1.0)
    assert 0 < steps < len(seen)
    rhs = np.random.default_rng(0).standard_normal(323)
    for data, rows, ptr in seen:
        assert ptr.size - 1 == 323
        direct = factor(data, rows, ptr).solve(rhs)
        reference = _splu(_csc(data, rows, ptr)).solve(rhs)
        assert direct.tobytes() == reference.tobytes()


def test_diagonal_pivots_fill_less_than_partial_pivoting_on_deep_trees(monkeypatch):
    # every order-323 K of the 121-node primal solve: keeping a diagonal
    # pivot unless its column holds an entry 1000 times larger avoids the
    # row swaps partial pivoting makes, and the fill they bring
    model = random_instance(1, 4, 3, lam=0.3, rho=0.2)
    fills, factor = [], solver._factor

    def measuring(data, rows, ptr):
        lu = factor(data, rows, ptr)
        partial = splu(_csc(data, rows, ptr), permc_spec="NATURAL", diag_pivot_thresh=1.0)
        fills.append((lu.nnz, partial.nnz))
        return lu

    monkeypatch.setattr(solver, "_factor", measuring)
    pr.solve_primal(model, ut.make_utility("log"), du.compute_x0(model) + 1.0)
    assert fills
    assert all(ours < partial for ours, partial in fills)


def test_selftest_size_solves_never_factor_sparsely(monkeypatch):
    # depth 3 x branching 2 (selftest's trees): KKT orders 38 to 45 stay dense
    def refuse(data, rows, ptr):
        raise AssertionError(f"SuperLU called at order {ptr.size - 1}")

    monkeypatch.setattr(solver, "_factor", refuse)
    model = random_instance(1, 3, 2, lam=0.3, rho=0.2)
    log = ut.make_utility("log")
    assert du.solve_dual(model, log, 1.0).iterations > 0
    assert pr.solve_primal(model, log, du.compute_x0(model) + 1.0).iterations > 0


def test_require_optimal_raises_with_context():
    bad = solve_lp(LinearProgram(c=np.array([1.0]),
                                 A_ub=np.array([[1.0], [-1.0]]),
                                 b_ub=np.array([-1.0, -1.0]), lb=None))
    with pytest.raises(SolverIndeterminateError, match="probe LP"):
        require_optimal(bad, "probe LP")


# Mostly zeros, so patterns have empty rows and rows with one or two
# entries; nonzeros stay clear of subnormal products.
_entries = st.one_of(st.just(0.0), st.just(0.0),
                     st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3))
_weights = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))


class _Captured(Exception):
    def __init__(self, K):
        super().__init__()
        self.K = K


def _capture(K, *args, **options):
    raise _Captured(K)


def _capture_factor(data, rows, ptr):
    raise _Captured(_csc(data, rows, ptr))


def _elimination_order(A):
    """K's indices as the sparse path orders them at index order: each
    variable, then the equality rows whose first entry is in its column;
    rows without entries last."""
    p, n = A.shape
    lead = [int(np.flatnonzero(row)[0]) if row.any() else n for row in A]

    def rows_after(v):
        return [n + r for r in range(p) if lead[r] == v]

    return [i for v in range(n) for i in [v] + rows_after(v)] + rows_after(n)


def _newton_matrix(XG, A, w, sparse):
    """K as ``newton_solver`` hands it to ``np.linalg.solve``, or with the
    constant patched to 0 to SuperLU (``solver._factor``), there put back in
    index order; neither factors it."""
    rhs = np.zeros(XG.shape[1] + A.shape[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", _capture)
        mp.setattr(solver, "_factor", _capture_factor)
        if sparse:
            mp.setattr(solver, "_SPARSE_KKT_ORDER", 0)
        with pytest.raises(_Captured) as caught:
            solver.newton_solver(XG, A)(w[None], rhs[None])
    if not sparse:
        return caught.value.K[0]
    place = np.argsort(_elimination_order(A))
    return csc_array(caught.value.K.toarray()[np.ix_(place, place)])


def _assert_newton_matrix(XG, A, w):
    n = XG.shape[1]
    dense = _newton_matrix(XG, A, w, sparse=False)
    sparse = _newton_matrix(XG, A, w, sparse=True)
    assert isinstance(dense, np.ndarray) and isinstance(sparse, csc_array)
    assert dense.shape == (n + A.shape[0],) * 2
    ref = XG.T @ (w[:, None] * XG)
    # relative to the Gram of |XG|, which bounds any cancellation in a sum
    scale = np.abs(XG).T @ (w[:, None] * np.abs(XG))
    assert np.all(np.abs(dense[:n, :n] - ref) <= 1e-12 * scale)
    assert np.array_equal(dense[:n, n:], A.T)
    assert np.array_equal(dense[n:, :n], A)
    assert not dense[n:, n:].any()
    # the two factorisations see the same K, bit for bit
    assert np.ascontiguousarray(sparse.toarray()).tobytes() == np.ascontiguousarray(dense).tobytes()


def test_sparse_kkt_eliminates_the_groups_of_the_order_in_turn():
    # groups [3, 1] then [0, 2]: row 0 (columns 0 and 1) first meets the
    # group [3, 1] and follows it, row 1 (column 2) follows [0, 2]
    XG = np.arange(1.0, 13.0).reshape(3, 4)
    A = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0]])
    w = np.array([1.0, 0.5, 2.0])
    K = _newton_matrix(XG, A, w, sparse=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_factor", _capture_factor)
        mp.setattr(solver, "_SPARSE_KKT_ORDER", 0)
        with pytest.raises(_Captured) as caught:
            solver.newton_solver(XG, A, np.array([[3, 1], [0, 2]]))(w[None], np.zeros((1, 6)))
    perm = [3, 1, 4, 0, 2, 5]
    assert np.array_equal(caught.value.K.toarray(), K[np.ix_(perm, perm)])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.integers(1, 6), st.integers(0, 3), st.data())
def test_newton_matrix_matches_dense_product(m, n, p, data):
    XG = data.draw(hnp.arrays(float, (m, n), elements=_entries))
    A = data.draw(hnp.arrays(float, (p, n), elements=_entries))
    w = data.draw(hnp.arrays(float, m, elements=_weights))
    _assert_newton_matrix(XG, A, w)


@pytest.mark.parametrize("p", [0, 2])
@pytest.mark.parametrize("XG, w", [
    (np.zeros((0, 3)), np.zeros(0)),
    (np.zeros((3, 2)), np.ones(3)),
    (np.array([[2.0], [0.0], [-3.0]]), np.array([1.0, 5.0, 0.5])),
    # the primal's bound rows G = -I
    (-np.eye(4), np.arange(1.0, 5.0)),
], ids=["no-rows", "all-zero", "single-column", "minus-identity"])
def test_newton_matrix_edge_patterns(XG, w, p):
    A = np.arange(1.0, p * XG.shape[1] + 1).reshape(p, XG.shape[1])
    _assert_newton_matrix(XG, A, w)


def _tilted_quadratic(params):
    # row k: minimize sum(c_k / 2 (z - t)^2 + g_k z) on sum(z) = 1, from the
    # centre; c_k = 0 leaves the Hessian and so the KKT matrix singular
    t = np.array([0.3, 0.9, -0.1])
    return ConvexProgram(
        X=np.eye(3),
        value=lambda v, q: 0.5 * q[:, :1] * (v - t) ** 2 + q[:, 1:] * v,
        slopes=lambda v, q: (q[:, :1] * (v - t) + q[:, 1:], q[:, :1] * np.ones(v.shape)),
        A=np.ones((1, 3)), b=np.array([1.0]),
        start=np.full(3, 1.0 / 3.0), params=np.asarray(params, dtype=float),
    )


def test_batch_solves_each_problem_as_alone():
    # each problem of a batch takes its own steps and stops on its own
    # rules: a singular KKT matrix stops only its problem, at iteration 1
    params = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, -1.0], [2.0, 0.5, 0.0, 0.0]]
    batch = solve_convex(_tilted_quadratic(params), tol=1e-10)
    assert batch.statuses == (OPTIMAL, INDETERMINATE, OPTIMAL)
    assert batch.status == INDETERMINATE
    assert batch.problem_iterations[1] == 1
    assert batch.iterations == int(batch.problem_iterations.sum())
    for k, row in enumerate(params):
        alone = solve_convex(_tilted_quadratic([row]), tol=1e-10)
        assert alone.statuses == (batch.statuses[k],) and alone.status == batch.statuses[k]
        assert alone.iterations == batch.problem_iterations[k]
        assert np.array_equal(alone.z[0], batch.z[k])
        assert np.array_equal(alone.eq_duals[0], batch.eq_duals[k])
        assert alone.value[0] == batch.value[k]
        assert alone.kkt_residual[0] == batch.kkt_residual[k]
    c, g = params[2][0], np.array(params[2][1:])
    expected = np.array([0.3, 0.9, -0.1]) - g / c
    assert np.allclose(batch.z[2], expected + (1.0 - expected.sum()) / 3.0, atol=1e-8)


def _leaving_batch(rows):
    # row k: minimize sum(c_k / 2 (z - t)^2 + g_k z + d_k exp(z)) on
    # sum(z) = 0; c_k = d_k = 0 leaves the KKT matrix singular, and w_k > 0
    # makes the objective +inf off the start z = 0, so no step descends
    t = np.array([0.3, 0.9, -0.1])
    params = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0],     # optimal at iteration 2
                       [0.0, 1.0, 0.0, -1.0, 0.0, 0.0],    # singular at iteration 1
                       [1.0, 0.0, 0.0, 0.0, 0.0, 1.0],     # no descent at iteration 1
                       [0.0, 3.0, 0.0, -3.0, 1.0, 0.0]])   # needs 9 iterations
    start = np.array([[0.2, -0.1, -0.1], [0.2, -0.1, -0.1], [0.0, 0.0, 0.0], [0.2, -0.1, -0.1]])

    def value(v, q):
        f = 0.5 * q[:, :1] * (v - t) ** 2 + q[:, 1:4] * v + q[:, 4:5] * np.exp(v)
        return np.where((q[:, 5:] > 0) & (v != 0), np.inf, f)

    def slopes(v, q):
        e = q[:, 4:5] * np.exp(v)
        return q[:, :1] * (v - t) + q[:, 1:4] + e, q[:, :1] + e

    return ConvexProgram(X=np.eye(3), value=value, slopes=slopes, A=np.ones((1, 3)),
                         b=np.zeros(1), start=start[rows], params=params[rows])


def test_every_way_out_of_a_batch_matches_the_lone_solve(monkeypatch):
    # under an iteration cap of 3, one problem of the batch is optimal, one
    # has a singular KKT matrix, one finds no descending step and one meets
    # the cap; each leaves with what its own solve gives, bit for bit
    monkeypatch.setattr(solver, "_MAX_ITER", 3)
    batch = solve_convex(_leaving_batch([0, 1, 2, 3]), tol=1e-10)
    assert batch.statuses == (OPTIMAL, INDETERMINATE, INDETERMINATE, INDETERMINATE)
    assert batch.problem_iterations.tolist() == [2, 1, 1, 3]
    # the two stopped at iteration 1 keep their starts and residuals
    assert batch.kkt_residual[1] == 1.0 and batch.kkt_residual[2] == 0.9
    assert np.array_equal(batch.z[2], np.zeros(3))
    for k in range(4):
        alone = solve_convex(_leaving_batch([k]), tol=1e-10)
        assert alone.statuses == (batch.statuses[k],)
        assert alone.problem_iterations[0] == batch.problem_iterations[k]
        for field in ("z", "eq_duals", "value", "kkt_residual"):
            assert np.array_equal(getattr(alone, field)[0], getattr(batch, field)[k]), field


# solve_primal on random_instance(1, 3, 2, lam=0.3, rho=0.2) at x0 + 1 with
# log utility, as solved before the batch axis
PINNED_PRIMAL = {"iterations": 18, "value": 1.4496642701260225,
                 "wealth_sum": 53.822850045020175, "wealth_min": 0.15476842762936993}


def test_single_problem_primal_solve_is_pinned():
    # a one-problem solve_convex, as the primal runs it, gives the results
    # it gave before the batch axis, to 1e-12
    model = random_instance(1, 3, 2, lam=0.3, rho=0.2)
    sol = pr.solve_primal(model, ut.make_utility("log"), du.compute_x0(model) + 1.0)
    assert sol.iterations == PINNED_PRIMAL["iterations"]
    assert sol.value == pytest.approx(PINNED_PRIMAL["value"], rel=1e-12)
    assert sol.wealth.sum() == pytest.approx(PINNED_PRIMAL["wealth_sum"], rel=1e-12)
    assert sol.wealth.min() == pytest.approx(PINNED_PRIMAL["wealth_min"], rel=1e-12)
    assert sol.kkt_residual <= 1e-9


def _bounded_quadratics(multipliers=None):
    # two problems minimize sum(c / 2 (z - t)^2) on sum(z) = 1, z >= 0, each
    # from its own start; z_3 >= 0 is active at both optima
    t = np.array([0.3, 0.9, -0.1])
    return ConvexProgram(
        X=np.eye(3),
        value=lambda v, q: 0.5 * q * (v - t) ** 2,
        slopes=lambda v, q: (q * (v - t), q * np.ones(v.shape)),
        G=-np.eye(3), h=np.zeros(3), A=np.ones((1, 3)), b=np.array([1.0]),
        start=np.array([[1 / 3, 1 / 3, 1 / 3], [0.5, 0.4, 0.1]]),
        params=np.array([[1.0], [3.0]]), multipliers=multipliers)


def test_start_multipliers_of_one_over_s_are_the_default_start():
    # start multipliers equal to 1/s at each start take the path of a
    # solve given none, bit for bit
    cold = solve_convex(_bounded_quadratics(), tol=1e-10)
    starts = _bounded_quadratics().start
    given = solve_convex(_bounded_quadratics(1.0 / starts), tol=1e-10)
    assert cold.statuses == given.statuses == (OPTIMAL, OPTIMAL)
    for field in ("z", "value", "kkt_residual", "problem_iterations", "eq_duals"):
        assert np.array_equal(getattr(cold, field), getattr(given, field)), field
    # from next to the optimum (0.2, 0.8, 0), with the multiplier 0.2 c of
    # z_3 >= 0 there and 1e-9 / s elsewhere, a problem needs fewer steps
    near = np.array([0.2, 0.8 - 1e-9, 1e-9])
    warm = _bounded_quadratics(np.array([[*(1e-9 / near[:2]), 0.2], [*(1e-9 / near[:2]), 0.6]]))
    warm.start = near
    result = solve_convex(warm, tol=1e-10)
    assert result.status == OPTIMAL
    assert np.allclose(result.z, [0.2, 0.8, 0.0], atol=1e-9)
    assert (result.problem_iterations < cold.problem_iterations).all()


@pytest.mark.parametrize("multipliers", [np.ones((1, 3)), np.ones((2, 2)),
                                         np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
                                         np.array([[1.0, 1.0, np.nan], [1.0, 1.0, 1.0]]),
                                         np.array([[1.0, 1.0, np.inf], [1.0, 1.0, 1.0]])],
                         ids=["one-row", "narrow", "zero", "nan", "inf"])
def test_malformed_start_multipliers_are_a_domain_error(multipliers):
    with pytest.raises(DomainError, match="start multipliers must be 2 rows of 3 positive"):
        solve_convex(_bounded_quadratics(multipliers))
