"""Consistent price systems, superreplication pricing, and the dual solve."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from tcdl.errors import DomainError, NoConsistentPriceSystemError, SolverIndeterminateError
from tcdl.market import binomial_market, build_market, single_node_market
from tcdl import dual as du
from tcdl import harness as hn
from tcdl import primal as pr
from tcdl import solver
from tcdl import utility as ut

from oracles import (
    binomial_cps_polytope_matrices,
    lp_max_by_vertices,
    tree_matrices_by_rows,
    vertex_enumerate,
)

LOG = ut.make_utility("log")


def test_cps_check_accepts_valid_element():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1)
    # z0 = (1, 4/3, 2/3) with shadow price everywhere at the ask
    z0 = (1.0, 4.0 / 3.0, 2.0 / 3.0)
    # z1 must be a martingale inside the spread; take z1 = z0 * ask at leaves
    z1 = (0.5 * (4.0 / 3.0 * 2.0) + 0.5 * (2.0 / 3.0 * 8.0),
          4.0 / 3.0 * 2.0, 2.0 / 3.0 * 8.0)
    elem = du.CpsElement(z0, z1)
    assert du.cps_check(model, elem) == []
    sp = elem.shadow_price()
    assert np.all(sp >= (1.0 - model.lam) * model.ask() - 1e-12)
    assert np.all(sp <= model.ask() + 1e-12)


def test_cps_check_flags_violations():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1)
    bad_root = du.CpsElement((2.0, 4.0 / 3.0, 2.0 / 3.0), (8.0, 8.0 / 3.0, 16.0 / 3.0))
    assert any("root" in m for m in du.cps_check(model, bad_root))
    bad_mart = du.CpsElement((1.0, 1.0, 1.0), (4.0, 2.0, 8.0))
    assert any("martingale" in m for m in du.cps_check(model, bad_mart))
    # z1 above the ask at the down leaf
    bad_spread = du.CpsElement((1.0, 4.0 / 3.0, 2.0 / 3.0),
                               (4.0, 4.0, 16.0 / 3.0))
    assert any("spread" in m for m in du.cps_check(model, bad_spread))
    # on a flat market every martingale z0 with z1 = S z0 is consistent, so
    # the sign and strictness rules are the only ones that can fail
    flat = binomial_market(4.0, 4.0, 4.0, lam=0.1)
    negative = du.CpsElement((1.0, 2.5, -0.5), (4.0, 10.0, -2.0))
    assert "negative component in (z0, z1)" in du.cps_check(flat, negative)
    boundary = du.CpsElement((1.0, 2.0, 0.0), (4.0, 8.0, 0.0))
    assert du.cps_check(flat, boundary) == []
    assert du.cps_check(flat, boundary, strict=True) == ["not strictly positive (z0 hits 0)"]


def test_polytope_shape_and_interior():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1)
    poly = du.cps_polytope(model)
    assert not poly.reduced
    assert poly.n_vars == 6
    assert poly.nonempty
    assert poly.interior is not None
    assert poly.interior_margin > 0
    elem = poly.element(poly.interior)
    assert du.cps_check(model, elem, strict=True) == []


def test_frictionless_polytope_is_reduced_point():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.0)
    poly = du.cps_polytope(model)
    assert poly.reduced
    assert poly.n_vars == 3
    # unique martingale measure q = 1/3: densities (down, up) = (4/3, 2/3)
    assert np.allclose(poly.interior, [1.0, 4.0 / 3.0, 2.0 / 3.0], atol=1e-8)


def test_polytope_equality_rows_have_full_rank_with_costs():
    # criterion 02's fifty instances, all with lam > 0; solve_convex relies
    # on full row rank and only the frictionless polytope drops rows
    combos = [(0.01, 2, 3), (0.1, 2, 3), (0.3, 3, 2), (0.3, 3, 3)]
    for k in range(50):
        lam, depth, branching = combos[k % len(combos)]
        model = hn.random_instance(2000 + k, depth=depth, branching=branching,
                                   lam=lam, rho=0.3, max_attempts=600)
        A = du.cps_polytope(model).A
        assert np.linalg.matrix_rank(A) == A.shape[0], f"instance {2000 + k}"


def test_flat_frictionless_polytope_drops_dependent_row():
    # equal prices make the shadow-price martingale row repeat the z0 one
    model = binomial_market(4.0, 4.0, 4.0, lam=0.0)
    poly = du.cps_polytope(model)
    assert poly.A.shape == (2, 3)
    assert np.linalg.matrix_rank(poly.A) == 2
    sol = du.solve_dual(model, LOG, y=1.0)
    assert np.allclose(sol.optimizer.z0, 1.0, atol=1e-8)


def _counting(calls, name, fn):
    """``fn``, adding one to ``calls[name]`` per call."""
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def _mixed_flat_market(lam):
    # r -> {a, b} and b -> b0 keep the parent's price (flat); a -> {a0, a1} moves
    return build_market({
        "nodes": [{"id": "r", "parent": None, "time": 0},
                  {"id": "a", "parent": "r", "time": 1}, {"id": "b", "parent": "r", "time": 1},
                  {"id": "a0", "parent": "a", "time": 2}, {"id": "a1", "parent": "a", "time": 2},
                  {"id": "b0", "parent": "b", "time": 2}],
        "cond_prob": {"r": {"a": 0.25, "b": 0.75}, "a": {"a0": 0.5, "a1": 0.5}, "b": {"b0": 1.0}},
        "prices": {"r": 2.0, "a": 2.0, "b": 2.0, "a0": 4.0, "a1": 1.0, "b0": 2.0},
        "lambda": lam,
    })


def test_rows_are_dropped_only_for_the_frictionless_polytope(monkeypatch):
    # the tree's prices decide the rank: no polytope runs a QR
    calls = {"qr": 0}
    monkeypatch.setattr(scipy.linalg, "qr", _counting(calls, "qr", scipy.linalg.qr))
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    du.solve_dual(model, LOG, y=1.0)
    pr.solve_primal(model, LOG, du.compute_x0(model) + 1.0)
    assert du.cps_polytope(_mixed_flat_market(0.1)).A.shape == (7, 12)
    poly = du.cps_polytope(_mixed_flat_market(0.0))
    # at lam = 0 the flat nodes r and b lose their shadow-price rows; the
    # moving node a keeps S_a z0_a = sum_c cp_c S_c z0_c
    assert np.array_equal(poly.A, [
        [1, 0, 0, 0, 0, 0],                # z0 at the root is 1
        [1, -.25, -.75, 0, 0, 0],          # r: z0 martingale
        [0, 1, 0, -.5, -.5, 0],            # a: z0 martingale
        [0, 2, 0, -2, -.5, 0],             # a: shadow-price martingale
        [0, 0, 1, 0, 0, -1],               # b: z0 martingale
    ])
    assert np.array_equal(poly.b, [1, 0, 0, 0, 0])
    assert poly.interior is not None
    du.solve_dual(_mixed_flat_market(0.0), LOG, y=1.0)
    assert calls == {"qr": 0}


def test_two_period_matrices_match_literal():
    # r -> a -> a0 (single child), r -> b -> {b0, b1}; node order r a b a0 b0 b1,
    # variables [z0; z1] for the polytope and [buy; sell] for the trades
    model = build_market({
        "nodes": [{"id": "r", "parent": None, "time": 0},
                  {"id": "a", "parent": "r", "time": 1}, {"id": "b", "parent": "r", "time": 1},
                  {"id": "a0", "parent": "a", "time": 2}, {"id": "b0", "parent": "b", "time": 2},
                  {"id": "b1", "parent": "b", "time": 2}],
        "cond_prob": {"r": {"a": 0.25, "b": 0.75}, "a": {"a0": 1.0}, "b": {"b0": 0.5, "b1": 0.5}},
        "prices": {"r": 4.0, "a": 6.0, "b": 4.0, "a0": 6.0, "b0": 2.0, "b1": 8.0},
        "lambda": 0.25, "endowment": {"a0": 0.5, "b0": -0.25, "b1": 0.0},
    })
    poly = du.cps_polytope(model)
    A = np.array([
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],            # z0 at the root is 1
        [1, -.25, -.75, 0, 0, 0, 0, 0, 0, 0, 0, 0],      # r: z0 martingale
        [0, 0, 0, 0, 0, 0, 1, -.25, -.75, 0, 0, 0],      # r: z1 martingale
        [0, 1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0],           # a
        [0, 0, 0, 0, 0, 0, 0, 1, 0, -1, 0, 0],
        [0, 0, 1, 0, -.5, -.5, 0, 0, 0, 0, 0, 0],        # b
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -.5, -.5],
    ])
    G = np.array([
        [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],           # r: z0 >= 0
        [0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0],           # r: z1 >= 0
        [3, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0],           # r: bid z0 <= z1
        [-4, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],           # r: z1 <= ask z0
        [0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],           # a
        [0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0],
        [0, 4.5, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0],
        [0, -6, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0],           # b
        [0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0],
        [0, 0, 3, 0, 0, 0, 0, 0, -1, 0, 0, 0],
        [0, 0, -4, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0],           # a0
        [0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 4.5, 0, 0, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, -6, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],           # b0
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0],
        [0, 0, 0, 0, 1.5, 0, 0, 0, 0, 0, -1, 0],
        [0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0],           # b1
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 0, -8, 0, 0, 0, 0, 0, 1],
    ])
    assert np.array_equal(poly.A, A)
    assert np.array_equal(poly.b, [1, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(poly.G, G)
    assert np.array_equal(poly.h, np.zeros(24))
    assert poly.interior is not None
    C, D = pr._trade_matrices(model)
    # leaf rows a0 (path r a a0), b0 (r b b0), b1 (r b b1): buy at the ask,
    # sell at the bid, and the position bought along the path is sold back
    assert np.array_equal(C, [
        [-4, -6, 0, -6, 0, 0, 3, 4.5, 0, 4.5, 0, 0],
        [-4, 0, -4, 0, -2, 0, 3, 0, 3, 0, 1.5, 0],
        [-4, 0, -4, 0, 0, -8, 3, 0, 3, 0, 0, 6],
    ])
    assert np.array_equal(D, [
        [1, 1, 0, 1, 0, 0, -1, -1, 0, -1, 0, 0],
        [1, 0, 1, 0, 1, 0, -1, 0, -1, 0, -1, 0],
        [1, 0, 1, 0, 0, 1, -1, 0, -1, 0, 0, -1],
    ])


@pytest.mark.parametrize("seed, depth, branching, lam", [
    (2000, 2, 3, 0.01), (2002, 3, 2, 0.3), (2003, 3, 3, 0.3), (7, 3, 2, 0.0),
])
def test_block_matrices_equal_row_by_row_reference(seed, depth, branching, lam):
    # same arithmetic, so the block build must match the row-at-a-time one bit for bit
    model = hn.random_instance(seed, depth=depth, branching=branching, lam=lam,
                               rho=0.3, max_attempts=600)
    A, b, G, h, C, D = tree_matrices_by_rows(model)
    poly = du.cps_polytope(model)
    got = (poly.A, poly.b, poly.G, poly.h) + pr._trade_matrices(model)
    for name, ref, arr in zip("AbGhCD", (A, b, G, h, C, D), got):
        assert arr.shape == ref.shape and arr.tobytes() == ref.tobytes(), name


def test_arbitrage_market_has_no_cps():
    # both branch prices above the initial ask with no spread
    model = binomial_market(4.0, 8.0, 6.0, lam=0.0)
    poly = du.cps_polytope(model)
    assert not poly.nonempty
    with pytest.raises(NoConsistentPriceSystemError):
        du.superreplication_price(model, np.zeros(2))


@pytest.mark.parametrize("eps", [1e-10, 1e-9])
def test_near_flat_arbitrage_is_refused_on_every_path(eps):
    # both children a hair above the root price: the shadow-price row stays,
    # so the polytope paths refuse the market as the trade-side LP does
    model = binomial_market(1.0, 1.0 + eps, 1.0 + eps, lam=0.0, endowment=(0.1, -0.1))
    assert not du.cps_polytope(model).nonempty
    for call in (lambda: du.compute_x0(model), lambda: du.solve_dual(model, LOG, 1.0),
                 lambda: du.superreplication_price(model, np.array([1.0, 0.0])),
                 lambda: pr.solve_primal(model, LOG, 1.0)):
        with pytest.raises(NoConsistentPriceSystemError):
            call()


@pytest.mark.parametrize("child_price, nonempty", [(2.0, False), (1.0, True)])
def test_frictionless_single_child_needs_equal_prices(child_price, nonempty):
    # the normalisation and both martingale rows pin z0 = (1, 1), which the
    # shadow-price row S_r z0_r = S_c z0_c admits only at equal prices; the
    # three rows in two unknowns must not lose the one that contradicts
    model = build_market({
        "nodes": [{"id": "r", "parent": None, "time": 0}, {"id": "c", "parent": "r", "time": 1}],
        "cond_prob": {"r": {"c": 1.0}}, "prices": {"r": 1.0, "c": child_price},
        "lambda": 0.0,
    })
    assert du.cps_polytope(model).nonempty is nonempty


def test_superreplication_against_vertex_oracle():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1)
    A_eq, b_eq, G, h = binomial_cps_polytope_matrices(4.0, 8.0, 2.0, 0.1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = rng.normal(size=2)               # (down, up) payoff
        c = np.zeros(6)
        c[1] = 0.5 * g[0]
        c[2] = 0.5 * g[1]
        oracle = lp_max_by_vertices(c, A_eq, b_eq, G, h)
        assert du.superreplication_price(model, g) == pytest.approx(
            oracle, rel=1e-8, abs=1e-8)


def test_call_price_and_q_interval():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1)
    assert du.superreplication_price(model, np.array([0.0, 3.0])) == pytest.approx(
        11.0 / 9.0, abs=1e-9)
    A_eq, b_eq, G, h = binomial_cps_polytope_matrices(4.0, 8.0, 2.0, 0.1)
    verts = vertex_enumerate(A_eq, b_eq, G, h)
    q_vals = [0.5 * v[2] for v in verts]
    # forward prices: E[z0 1_up] spans the interval of risk-neutral weights
    lo = du.superreplication_price(model, np.array([0.0, -1.0]))
    hi = du.superreplication_price(model, np.array([0.0, 1.0]))
    assert -lo == pytest.approx(min(q_vals), abs=1e-9)
    assert hi == pytest.approx(max(q_vals), abs=1e-9)


def test_constant_payoff_prices_at_face_value():
    # E[Z0_T] = 1 forces the price of a constant payoff c to be c
    model = binomial_market(4.0, 8.0, 2.0, lam=0.3)
    for c in (-2.0, 0.0, 1.5):
        assert du.superreplication_price(model, np.full(2, c)) == pytest.approx(
            c, abs=1e-9)


def test_constant_price_market_superreplicates_at_max():
    # with S constant every probability density is consistent, so the
    # superreplication price is the worst-case (largest) payoff
    model = binomial_market(4.0, 4.0, 4.0, lam=0.0)
    g = np.array([1.0, 5.0])
    assert du.superreplication_price(model, g) == pytest.approx(5.0, abs=1e-9)


def test_compute_x0():
    assert du.compute_x0(binomial_market(4.0, 8.0, 2.0, lam=0.1)) == pytest.approx(0.0)
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    A_eq, b_eq, G, h = binomial_cps_polytope_matrices(4.0, 8.0, 2.0, 0.1)
    # e = (up 0.25, down -0.5); x0 = sup E[z0 (-e)]
    c = np.zeros(6)
    c[1] = 0.5 * 0.5
    c[2] = 0.5 * (-0.25)
    assert du.compute_x0(model) == pytest.approx(
        lp_max_by_vertices(c, A_eq, b_eq, G, h), abs=1e-9)


def test_x0_is_the_trade_lp_and_matches_the_polytope_lp(monkeypatch):
    # criterion 02's fifty instances: the trade-side max-min LP gives the
    # superreplication price of -e over the polytope, with one LP and no polytope
    combos = [(0.01, 2, 3), (0.1, 2, 3), (0.3, 3, 2), (0.3, 3, 3)]
    for k in range(50):
        lam, depth, branching = combos[k % len(combos)]
        model = hn.random_instance(2000 + k, depth=depth, branching=branching,
                                   lam=lam, rho=0.3, max_attempts=600)
        expected = du.superreplication_price(model, -model.endowment_vector())
        calls = {"polytope": 0, "lp": 0}
        with monkeypatch.context() as m:
            m.setattr(du, "cps_polytope", _counting(calls, "polytope", du.cps_polytope))
            for module in (du, pr):
                m.setattr(module, "solve_lp", _counting(calls, "lp", module.solve_lp))
            x0 = du.compute_x0(model)
        assert calls == {"polytope": 0, "lp": 1}, f"instance {2000 + k}"
        assert abs(x0 - expected) <= 1e-10 * abs(expected), f"instance {2000 + k}"


def _counting_phase1(monkeypatch) -> list:
    """The CPS phase-1 LPs the dual module solves from here on: the only
    LPs of the module with upper bounds (the margin's)."""
    lps = []
    solve_lp = du.solve_lp

    def counting(lp):
        if lp.ub is not None:
            lps.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(du, "solve_lp", counting)
    return lps


def test_polytope_lp_is_kept_per_object_not_per_value(monkeypatch):
    # the dual entry points on one model object solve one phase-1 LP between
    # them and rebuild the same matrices; an equal model is another object,
    # which solves its own and gets the same polytope bit for bit
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    lps = _counting_phase1(monkeypatch)
    poly = du.cps_polytope(model)
    du.solve_dual(model, LOG, 1.0)
    du.dual_grid(model, LOG, [0.5, 2.0])
    hn.find_yhat(model, LOG, 2.0)
    du.superreplication_price(model, np.array([1.0, 0.0]))
    assert len(lps) == 1
    twin = dataclasses.replace(model)
    assert twin == model and hash(twin) == hash(model)
    fresh = du.cps_polytope(twin)
    assert len(lps) == 2
    for name in ("G", "h", "A", "b", "interior"):
        assert getattr(poly, name).tobytes() == getattr(fresh, name).tobytes(), name
    assert (poly.nonempty, poly.interior_margin) == (fresh.nonempty, fresh.interior_margin)
    assert "_phase1" not in repr(model)


def test_arbitrage_polytope_is_refused_on_every_call(monkeypatch):
    # the empty-polytope verdict is kept like any other outcome: every dual
    # path refuses the market, after one phase-1 LP in all
    model = binomial_market(4.0, 8.0, 6.0, lam=0.0)
    lps = _counting_phase1(monkeypatch)
    for _ in range(2):
        assert not du.cps_polytope(model).nonempty
        for call in (lambda: du.solve_dual(model, LOG, 1.0),
                     lambda: du.dual_grid(model, LOG, [1.0]),
                     lambda: du.superreplication_price(model, np.zeros(2))):
            with pytest.raises(NoConsistentPriceSystemError):
                call()
    assert len(lps) == 1


def test_failed_polytope_lp_keeps_nothing(monkeypatch):
    # a phase-1 solve that raises leaves the model object as it was: the next
    # call solves again and gives what a new object gives
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    with monkeypatch.context() as m:
        m.setattr(du, "solve_lp", lambda lp: solver.LpResult(status=solver.INDETERMINATE))
        with pytest.raises(SolverIndeterminateError, match="phase-1"):
            du.cps_polytope(model)
    assert model._phase1 == {}
    lps = _counting_phase1(monkeypatch)
    interior = du.cps_polytope(model).interior
    assert len(lps) == 1
    fresh = du.cps_polytope(dataclasses.replace(model)).interior
    assert interior.tobytes() == fresh.tobytes()


def test_kept_interior_point_is_handed_out_as_a_copy(monkeypatch):
    # writing into a returned interior point leaves the next call's polytope
    # and the dual solves that start from it unchanged
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    poly = du.cps_polytope(model)
    want = poly.interior.copy()
    expected = du.solve_dual(dataclasses.replace(model), LOG, 1.0)
    poly.interior[:] = 7.0
    lps = _counting_phase1(monkeypatch)
    assert du.cps_polytope(model).interior.tobytes() == want.tobytes()
    sol = du.solve_dual(model, LOG, 1.0)
    assert lps == []
    assert sol.z.tobytes() == expected.z.tobytes() and sol.value == expected.value


def test_kept_matrices_are_handed_out_fresh(monkeypatch):
    # the polytope's matrices are kept by their nonzero entries: each call
    # hands out its own dense G, h, A and b, so writing into one leaves the
    # next call's polytope and the dual solves that read it unchanged
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    expected = du.solve_dual(dataclasses.replace(model), LOG, 1.0)
    poly = du.cps_polytope(model)
    want = {name: getattr(poly, name).copy() for name in "GhAb"}
    for name in want:
        getattr(poly, name)[...] = 7.0
    lps = _counting_phase1(monkeypatch)
    again = du.cps_polytope(model)
    for name, matrix in want.items():
        assert getattr(again, name).tobytes() == matrix.tobytes(), name
    sol = du.solve_dual(model, LOG, 1.0)
    assert lps == []
    assert sol.z.tobytes() == expected.z.tobytes() and sol.value == expected.value


def test_trade_lp_refuses_exactly_the_markets_without_cps():
    # LP duality: the max-min wealth LP is unbounded iff the closed CPS
    # polytope is empty.  600 draws, 10 per (lam, depth, branching), the first
    # ten of each group of test_spread_pass_agrees_with_cps_phase1.
    verdicts = set()
    for lam in (0.0, 0.01, 0.1, 0.3):
        for depth in range(1, 6):
            for branching in range(1, 4):
                rng = np.random.default_rng([depth, branching, int(lam * 100)])
                for _ in range(10):
                    draw = hn._draw_tree(rng, depth, branching, 0.2)
                    model = build_market(dict(draw, **{"lambda": lam}))
                    nonempty = du.cps_polytope(model).nonempty
                    try:
                        du.compute_x0(model)
                        refused = False
                    except NoConsistentPriceSystemError:
                        refused = True
                    assert refused is not nonempty, (lam, depth, branching)
                    verdicts.add(nonempty)
    assert verdicts == {True, False}


def test_dual_solve_frictionless_log_closed_form():
    # v(y) = -ln y - 1 + E[-ln z0]; at y = 1 this is u(1) - 1
    model = binomial_market(4.0, 8.0, 2.0, lam=0.0)
    sol = du.solve_dual(model, LOG, 1.0)
    assert sol.value == pytest.approx(0.5 * np.log(9.0 / 8.0) - 1.0, abs=1e-8)
    assert np.allclose(sol.optimizer.z0, [1.0, 4.0 / 3.0, 2.0 / 3.0], atol=1e-7)
    assert sol.singular_mass == pytest.approx(0.0, abs=1e-9)
    # log utility: z0 I(y z0) = 1/y, so v'(y) = -1/y
    assert sol.derivative == pytest.approx(-1.0, abs=1e-8)


def test_dual_density_integrates_to_one():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.2, endowment=(0.25, -0.5))
    p = model.tree.leaf_prob()
    for y in (0.1, 1.0, 10.0):
        sol = du.solve_dual(model, LOG, y)
        d = np.array(sol.optimizer.z0)[list(model.tree.leaves)]
        assert p @ d == pytest.approx(1.0, abs=1e-8)
        assert du.cps_check(model, sol.optimizer) == []


def test_dual_value_convex_in_y():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1)
    grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    sols = du.dual_grid(model, LOG, grid)
    vals = [s.value for s in sols]
    for i in range(1, len(grid) - 1):
        # convexity on the (geometric) midpoints via supporting slopes
        slope_l = (vals[i] - vals[i - 1]) / (grid[i] - grid[i - 1])
        slope_r = (vals[i + 1] - vals[i]) / (grid[i + 1] - grid[i])
        assert slope_l <= slope_r + 1e-9
    derivs = [s.derivative for s in sols]
    assert all(d1 <= d2 + 1e-7 for d1, d2 in zip(derivs, derivs[1:]))


def test_dual_solve_rejects_nonpositive_y():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1)
    with pytest.raises(DomainError):
        du.solve_dual(model, LOG, 0.0)
    with pytest.raises(DomainError):
        du.solve_dual(model, LOG, -1.0)


@pytest.mark.parametrize("spec, y", [(LOG, 5e-324), (LOG, 1.7e308),
                                     (ut.make_utility("power", 0.5), 1e-160)])
def test_dual_solve_names_y_outside_the_floats(spec, y):
    # y I(y z) or V(y z) overflows at the start point: a typed error, no warning
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(f"dual at y={y!r}:")):
            du.solve_dual(model, spec, y)


def test_dual_solve_deterministic():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.2, endowment=(0.25, -0.5))
    a = du.solve_dual(model, LOG, 0.7)
    b = du.solve_dual(model, LOG, 0.7)
    assert a.value == b.value
    assert a.optimizer == b.optimizer


def test_dual_beats_primal_weak_duality():
    # u(x) <= v(y) + x y for every y > 0
    from tcdl import primal as pr
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    x = 2.0
    u_val = pr.solve_primal(model, LOG, x).value
    for y in (0.2, 0.5, 1.0, 2.0):
        sol = du.solve_dual(model, LOG, y)
        assert u_val <= sol.value + x * y + 1e-8


def _instance_2011():
    return hn.random_instance(2011, depth=3, branching=3, lam=0.3, rho=0.3,
                              max_attempts=600)


def test_ipm_evaluates_slopes_once_per_iterate(monkeypatch):
    # slopes run at the start and at each accepted line-search point, which
    # hands them to the next iteration; value runs at every trial point
    model = _instance_2011()
    counts = []
    solve = du.solve_convex

    def counting(cp, **kwargs):
        calls = {"value": 0, "slopes": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        res = solve(dataclasses.replace(
            cp, value=counted("value", cp.value),
            slopes=counted("slopes", cp.slopes)), **kwargs)
        counts.append((calls, res.iterations))
        return res

    monkeypatch.setattr(du, "solve_convex", counting)
    du.solve_dual(model, LOG, 1.0)
    assert len(counts) == 1
    calls, iterations = counts[0]
    assert calls["slopes"] == iterations
    assert calls["slopes"] <= calls["value"]


def test_dual_solve_evaluates_inverse_marginal_once_per_iterate(monkeypatch):
    # one y I(y d) per slopes call, one for the start check and one for
    # v'(y); before the one-Gram form this solve made 48 calls in 23
    # iterations
    model = _instance_2011()
    calls, iterations = [], []
    i_eval, solve = ut.i_eval, du.solve_convex

    def counting_i_eval(*args):
        calls.append(1)
        return i_eval(*args)

    def counting_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(ut, "i_eval", counting_i_eval)
    monkeypatch.setattr(du, "solve_convex", counting_solve)
    du.solve_dual(model, LOG, 1.0)
    assert len(iterations) == 1
    assert len(calls) <= iterations[0] + 3


def test_instance_2011_values_are_pinned():
    # the dual at y = 1 and the primal at x0 + 1, as solved before the
    # one-Gram Newton matrix; the dual moved only in its last digits
    model = _instance_2011()
    assert du.solve_dual(model, LOG, 1.0).value == pytest.approx(
        0.13480937185140368, rel=1e-12)
    x0 = du.compute_x0(model)
    assert pr.solve_primal(model, LOG, x0 + 1.0).value == pytest.approx(
        1.371298146505993, rel=1e-12)


def test_cold_dual_at_large_y_is_one_ipm_solve(monkeypatch):
    # the barrier-merit line search converges from the polytope's interior
    # point at y = 100, so no continuation in y wraps the solve
    model = hn.random_instance(2034, depth=3, branching=2, lam=0.3, rho=0.3,
                               max_attempts=600)
    iterations = []
    solve = du.solve_convex

    def counting(*args, **kwargs):
        res = solve(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(du, "solve_convex", counting)
    du.solve_dual(model, LOG, 100.0)
    assert len(iterations) == 1


POWER = ut.make_utility("power", 0.5)
_CRITERION_02_COMBOS = [(0.01, 2, 3), (0.1, 2, 3), (0.3, 3, 2), (0.3, 3, 3)]


def _criterion_02_instance(k):
    lam, depth, branching = _CRITERION_02_COMBOS[k % 4]
    return hn.random_instance(2000 + k, depth=depth, branching=branching,
                              lam=lam, rho=0.3, max_attempts=600)


def _outcome(solve):
    """``solve()``, or the type and message of the typed error it raised."""
    try:
        return solve()
    except (DomainError, SolverIndeterminateError) as exc:
        return type(exc), str(exc)


def _per_y(model, spec, grid):
    return [du.solve_dual(model, spec, float(y)) for y in grid]


@pytest.mark.parametrize("spec", [LOG, POWER], ids=lambda s: s.label())
def test_grid_is_one_batch_of_the_per_y_solves(spec, monkeypatch):
    # criterion 02's fifty instances on the default grid: the one batched
    # solve gives each y what its own solve_dual gives, iteration for
    # iteration, and fails where the per-y loop fails
    grid = du.default_y_grid()
    for k in range(50):
        model = _criterion_02_instance(k)
        calls = {"ipm": 0}
        with monkeypatch.context() as m:
            m.setattr(du, "solve_convex", _counting(calls, "ipm", du.solve_convex))
            batched = _outcome(lambda: du.dual_grid(model, spec, grid))
        assert calls == {"ipm": 1}
        sequential = _outcome(lambda: _per_y(model, spec, grid))
        if isinstance(sequential, tuple):
            assert batched == sequential, f"instance {2000 + k}"
            continue
        for one, alone in zip(batched, sequential):
            where = f"instance {2000 + k} at y={alone.y}"
            assert one.y == alone.y and one.iterations == alone.iterations, where
            assert one.value == pytest.approx(alone.value, rel=1e-10), where
            assert one.derivative == pytest.approx(alone.derivative, rel=1e-10), where
            scale = np.abs(alone.z0_T).max()
            assert np.abs(one.z0_T - alone.z0_T).max() <= 1e-10 * scale, where


def test_grid_raises_the_first_failure_of_the_per_y_loop():
    # instance 2009 with power:0.5 stalls at y = 354.8, and y = 1e-160
    # overflows y I(y z) at the start: the grid raises what the per-y loop
    # raises first, with its message, in grid order
    model = _criterion_02_instance(9)
    stall, overflow = du.default_y_grid()[37], 1e-160
    stalled = (SolverIndeterminateError,
               f"dual solve at y={stall}: solver status {solver.INDETERMINATE}")
    overflowed = (DomainError, f"dual at y={overflow!r}: y I(y z) or V(y z) is not a finite float")
    for grid, first in (([1.0, stall, overflow], stalled), ([1.0, overflow, stall], overflowed),
                        ([stall, 2.0], stalled)):
        batched = _outcome(lambda: du.dual_grid(model, POWER, grid))
        assert batched == _outcome(lambda: _per_y(model, POWER, grid)) == first


def test_sliced_grid_equals_the_unsliced_solve(monkeypatch):
    # with the byte budget cut to six problems, the 41-point grid runs in
    # seven slices and gives what one slice gives
    model, _ = hn._generate_instance(1, 3, 2, 0.3, 0.2)
    poly = du.cps_polytope(model)
    grid = du.default_y_grid()
    whole = du.dual_grid(model, LOG, grid)
    order = poly.n_vars + poly.A.shape[0]
    monkeypatch.setattr(solver, "_BATCH_BYTES", 6 * 8 * order ** 2)
    batches = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda K, rhs: batches.append(len(K)) or solve(K, rhs))
    sliced = du.dual_grid(model, LOG, grid)
    assert max(batches) == 6 and batches.count(6) >= 6
    for one, other in zip(whole, sliced):
        assert one.iterations == other.iterations
        assert one.value == pytest.approx(other.value, rel=1e-12)
        assert np.allclose(one.z, other.z, rtol=1e-12, atol=1e-14)


def test_dual_certifies_a_start_that_is_already_optimal():
    # one node, no friction, endowment 1: at y = 1 the only density z = 1
    # has zero gradient, so the second Newton step rounds to nothing; that
    # step is taken and the multipliers converge
    model = single_node_market(lam=0.0, endowment=1.0)
    sol = du.solve_dual(model, ut.make_utility("log"), 1.0)
    assert sol.value == 0.0 and sol.derivative == 0.0
    assert sol.kkt_residual <= 1e-9


def test_trade_multipliers_make_the_shadow_point_stationary():
    # criterion 02's fifty instances at x0 + margin + 1: at each primal
    # optimum's shadow point, with y = E[U'(w*)], the band multipliers read
    # off the trades and a least-squares nu leave the dual's stationarity
    # residual grad + G' lam + A' nu within 1e-6 of the gradient; with
    # lam = 0 it reaches the gradient's order
    worst, worst_without = 0.0, 0.0
    for k in range(50):
        model = _criterion_02_instance(k)
        poly = du.cps_polytope(model)
        x0 = du.compute_x0(model)
        x = x0 + 0.05 * (1.0 + abs(x0)) + 1.0
        p, e, leaves = model.tree.leaf_prob(), model.endowment_vector(), list(model.tree.leaves)
        for spec in (LOG, POWER):
            sol = pr.solve_primal(model, spec, x)
            z0, _ = pr.shadow_cps(model, spec, sol)
            y = float(p @ ut.u_prime(spec, sol.wealth))
            grad = np.zeros(poly.n_vars)
            grad[leaves] = p * y * (e - ut.i_eval(spec, y * z0[leaves]))
            lam = du.trade_multipliers(poly, y, sol.strategy.buy, sol.strategy.sell)
            for multipliers in (lam, np.zeros_like(lam)):
                r = grad + poly.G.T @ multipliers
                nu = np.linalg.lstsq(poly.A.T, -r, rcond=None)[0]
                residual = np.abs(r + poly.A.T @ nu).max() / np.abs(grad).max()
                if multipliers is lam:
                    worst = max(worst, residual)
                else:
                    worst_without = max(worst_without, residual)
    assert worst <= 1e-6
    assert worst_without >= 0.5
