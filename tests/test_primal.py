"""Trading strategies, attainability, and the primal utility maximizer."""

import dataclasses
import pickle

import numpy as np
import pytest

from tcdl.errors import BelowX0Error, DomainError, MarketError, NoConsistentPriceSystemError
from tcdl.market import binomial_market, build_market, market_to_dict, single_node_market
from tcdl import primal as pr
from tcdl import dual as du
from tcdl import harness as hn
from tcdl import utility as ut

LOG = ut.make_utility("log")


def frictionless():
    return binomial_market(4.0, 8.0, 2.0, lam=0.0)


def with_costs(lam=0.1, endowment=(0.0, 0.0)):
    return binomial_market(4.0, 8.0, 2.0, lam=lam, endowment=endowment)


def test_strategy_ledger_and_liquidation():
    model = with_costs()
    # node order is (root, down, up); buy one share at the root, sell at leaves
    buy = np.array([1.0, 0.0, 0.0])
    sell = np.array([0.0, 1.0, 1.0])
    strat = pr.strategy_from_trades(model, 5.0, buy, sell)
    assert strat.phi1[0] == pytest.approx(1.0)
    assert strat.phi0[0] == pytest.approx(1.0)          # 5 - 4
    assert strat.phi1[1] == strat.phi1[2] == pytest.approx(0.0)
    assert strat.phi0[1] == pytest.approx(1.0 + 0.9 * 2.0)
    assert strat.phi0[2] == pytest.approx(1.0 + 0.9 * 8.0)
    # liquidation at the root sells the share at the bid
    assert pr.liquidation_value(model, strat, 0) == pytest.approx(1.0 + 0.9 * 4.0)
    assert pr.check_self_financing(model, strat) == []


def test_self_financing_flags_unliquidated_leaf():
    model = with_costs()
    strat = pr.strategy_from_trades(
        model, 5.0, np.array([1.0, 0.0, 0.0]), np.zeros(3))
    msgs = pr.check_self_financing(model, strat)
    assert any("not liquidated" in m for m in msgs)


def test_self_financing_flags_negative_trade():
    model = with_costs()
    strat = pr.strategy_from_trades(
        model, 5.0, np.array([-1.0, 0.0, 0.0]), np.array([0.0, -1.0, -1.0]))
    msgs = pr.check_self_financing(model, strat)
    assert any("negative buy/sell" in m for m in msgs)


def test_liquidation_value_unknown_node():
    model = with_costs()
    strat = pr.strategy_from_trades(model, 1.0, np.zeros(3), np.zeros(3))
    with pytest.raises(MarketError):
        pr.liquidation_value(model, strat, 99)


def test_payoff_vector_from_leaf_dict():
    model = with_costs()
    g = pr.PayoffVector.from_leaf_dict(model, {"up": 3.0, "down": 0.0})
    # leaves sort as (down, up)
    assert g.values == (0.0, 3.0)
    assert g.lower_bound == 0.0
    with pytest.raises(MarketError):
        pr.PayoffVector.from_leaf_dict(model, {"up": 3.0})


def test_call_attainability_threshold():
    # superreplicating the (down, up) = (0, 3) call costs exactly 11/9
    model = with_costs(lam=0.1)
    g = np.array([0.0, 3.0])
    price = 11.0 / 9.0
    assert pr.is_attainable(model, g, price + 1e-3)
    assert not pr.is_attainable(model, g, price - 1e-3)
    assert pr.max_min_wealth(model, price, g)[0] == pytest.approx(0.0, abs=1e-9)
    assert pr.max_min_wealth(model, price + 0.5, g)[0] == pytest.approx(0.5, abs=1e-9)


def test_margin_equals_x_minus_superreplication_price():
    model = with_costs(lam=0.3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = rng.normal(size=2)
        x = float(rng.normal())
        margin, _ = pr.max_min_wealth(model, x, g)
        assert margin == pytest.approx(
            x - du.superreplication_price(model, g), abs=1e-8)


@pytest.mark.parametrize("g", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]],
                         ids=["nan", "inf", "minus-inf"])
def test_a_non_finite_payoff_is_refused_by_name(g):
    # the margin and the superreplication price share one payoff check
    model = with_costs(lam=0.1)
    with pytest.raises(DomainError, match="^payoff has a non-finite entry$"):
        pr.max_min_wealth(model, 1.0, g)
    with pytest.raises(DomainError, match="^payoff has a non-finite entry$"):
        du.superreplication_price(model, g)
    with pytest.raises(DomainError, match=r"^payoff has \(3,\) entries, expected 2$"):
        du.superreplication_price(model, [0.0, 1.0, 2.0])


def test_free_disposal():
    model = with_costs(lam=0.1)
    g = np.array([0.5, 1.5])
    x = du.superreplication_price(model, g) + 1e-6
    assert pr.is_attainable(model, g, x)
    assert pr.is_attainable(model, g - 0.25, x)


def test_max_min_wealth_zero_endowment():
    # keeping everything in cash gives min wealth exactly x
    model = with_costs(lam=0.1)
    value, _ = pr.max_min_wealth(model, 2.0)
    assert value == pytest.approx(2.0, abs=1e-9)


def test_max_min_wealth_at_huge_x():
    # x only shifts the LP's value, so it never reaches the LP: x = 1e21 is
    # past the bound HiGHS reads as infinite, yet the market is CPS-feasible
    model = with_costs(lam=0.1, endowment=(0.25, -0.5))
    x = 1e21
    assert pr.max_min_wealth(model, x)[0] == x + pr.max_min_wealth(model, 0.0)[0]
    sol = pr.solve_primal(model, LOG, x)
    assert np.isfinite(sol.value)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_x_is_an_input_error(x):
    with pytest.raises(DomainError, match=f"got x={x!r}"):
        pr.solve_primal(with_costs(), LOG, x)


def test_frictionless_log_closed_form():
    # complete market, q = 1/3: wealth (3x/4, 3x/2), value ln x + ln(9/8)/2
    model = frictionless()
    for x in (1.0, 2.5):
        sol = pr.solve_primal(model, LOG, x)
        assert sol.value == pytest.approx(np.log(x) + 0.5 * np.log(9.0 / 8.0),
                                          abs=1e-8)
        assert sol.wealth[0] == pytest.approx(0.75 * x, abs=1e-6)   # down leaf
        assert sol.wealth[1] == pytest.approx(1.5 * x, abs=1e-6)    # up leaf
        assert pr.check_self_financing(model, sol.strategy) == []


def test_primal_value_concave_and_increasing():
    model = with_costs(lam=0.1, endowment=(0.25, -0.5))
    xs = [1.0, 2.0, 3.0]
    vals = [pr.solve_primal(model, LOG, x).value for x in xs]
    assert vals[0] < vals[1] < vals[2]
    assert vals[1] >= 0.5 * (vals[0] + vals[2]) - 1e-10


def test_power_scaling_invariance():
    # with zero endowment, u(c x) = c^alpha u(x) for U(x) = x^a / a
    model = with_costs(lam=0.2)
    spec = ut.make_utility("power", 0.5)
    base = pr.solve_primal(model, spec, 1.0).value
    scaled = pr.solve_primal(model, spec, 4.0).value
    assert scaled == pytest.approx(4.0 ** 0.5 * base, rel=1e-7)


def test_optimal_payoff_is_attainable():
    model = with_costs(lam=0.1, endowment=(0.25, -0.5))
    sol = pr.solve_primal(model, LOG, 2.0)
    assert pr.is_attainable(model, sol.ghat, 0.0, tol=1e-7)
    assert np.allclose(sol.wealth, 2.0 + sol.ghat + model.endowment_vector())


def test_below_x0_raises():
    model = with_costs(lam=0.1, endowment=(0.25, -0.5))
    x0 = du.compute_x0(model)
    with pytest.raises(BelowX0Error):
        pr.solve_primal(model, LOG, x0 - 1e-3)
    sol = pr.solve_primal(model, LOG, x0 + 0.05)
    assert np.isfinite(sol.value)


def test_single_node_degenerate():
    model = single_node_market(price=1.0, endowment=0.5)
    sol = pr.solve_primal(model, LOG, 1.0)
    assert sol.value == pytest.approx(np.log(1.5), abs=1e-9)


def test_tie_break_reduces_turnover():
    model = with_costs(lam=0.1)
    plain = pr.solve_primal(model, LOG, 2.0)
    tied = pr.solve_primal(model, LOG, 2.0, tie_break=True)
    turnover = lambda s: sum(s.buy) + sum(s.sell)
    assert turnover(tied.strategy) <= turnover(plain.strategy) + 1e-8
    assert tied.value == pytest.approx(plain.value, abs=1e-7)


def test_primal_marginal_matches_log_closed_form():
    # value function is ln x + const, so the derivative is 1/x
    model = frictionless()
    assert pr.primal_marginal(model, LOG, 2.0) == pytest.approx(0.5, abs=1e-6)


def test_shadow_cps_is_a_dual_point_up_to_the_solve():
    # criterion 02's instances 2000..2007 at a report's three x: the pair
    # read off each primal optimum meets the polytope's equalities to
    # rounding and its inequalities to 1e-8 relative, and its leaf density
    # is U'(w*) / E[U'(w*)]
    combos = [(0.01, 2, 3), (0.1, 2, 3), (0.3, 3, 2), (0.3, 3, 3)]
    for k in range(8):
        lam, depth, branching = combos[k % 4]
        model = hn.random_instance(2000 + k, depth=depth, branching=branching, lam=lam,
                                   rho=0.3, max_attempts=600)
        poly = du.cps_polytope(model)
        x0 = du.compute_x0(model)
        for spec in (LOG, ut.make_utility("power", 0.5)):
            for sol in pr._solve_primals(model, spec, [x0 + 0.5, x0 + 2.0]):
                z0, z1 = pr.shadow_cps(model, spec, sol)
                z = np.concatenate([z0, z1])[:poly.n_vars]
                assert np.abs(poly.A @ z - poly.b).max() <= 1e-12
                assert (poly.G @ z - poly.h).max() <= 1e-8 * np.abs(z).max()
                marginal = ut.u_prime(spec, sol.wealth)
                density = marginal / (model.tree.leaf_prob() @ marginal)
                assert np.allclose(poly.leaf_density(z0), density, rtol=1e-12, atol=0.0)


def test_primal_curvature_is_the_derivative_of_its_gradient(monkeypatch):
    # the Hessian the primal program hands the solver, (1 - a) p U'(w) / w,
    # against a central difference of its gradient -p U'(w), at the leaf
    # wealths I(y) of a y grid
    programs = []
    solve = pr.solve_convex
    monkeypatch.setattr(pr, "solve_convex",
                        lambda cp, **kwargs: programs.append(cp) or solve(cp, **kwargs))
    model = with_costs(endowment=(0.25, -0.5))
    e = model.endowment_vector()
    x = 2.0
    for text in ("log", "power:0.5", "power:-2"):
        spec = ut.parse_utility(text)
        programs.clear()
        pr.solve_primal(model, spec, x)
        (cp,) = programs
        for y in (0.1, 1.0, 7.0):
            w = ut.i_eval(spec, y * np.array([0.5, 2.0]))
            h = 1e-5 * w
            v = w - x - e
            # the program's parameter row holds x
            assert cp.params.tolist() == [[x]]
            fd = (cp.slopes(v + h, cp.params)[0] - cp.slopes(v - h, cp.params)[0]) / (2.0 * h)
            assert cp.slopes(v, cp.params)[1] == pytest.approx(fd, rel=1e-7)


def test_primal_ipm_starts_inside_the_bounds(monkeypatch):
    # the interior-point start sits half the worst-case wealth margin inside
    # every bound u >= 0, so the 3 x 3 tree solves in few iterations
    model = hn.random_instance(1, depth=3, branching=3, lam=0.3, rho=0.2)
    x = du.compute_x0(model) + 1.0
    iterations = []
    solve = pr.solve_convex

    def counting(*args, **kwargs):
        res = solve(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(pr, "solve_convex", counting)
    pr.solve_primal(model, LOG, x)
    assert sum(iterations) <= 40


def test_primal_solve_is_one_ipm_solve(monkeypatch):
    # a near-degenerate instance: trades reach 3e4 while a leaf wealth falls
    # to 1e-6, and the one solve stops on a residual floor that the stall
    # rule accepts, without restarts
    model = hn.random_instance(2034, depth=3, branching=2, lam=0.3, rho=0.3,
                               max_attempts=600)
    x0 = du.compute_x0(model)
    x = x0 + 0.05 * (1.0 + abs(x0)) + 0.5
    iterations = []
    solve = pr.solve_convex

    def counting(*args, **kwargs):
        res = solve(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(pr, "solve_convex", counting)
    pr.solve_primal(model, ut.make_utility("power", 0.5), x)
    assert len(iterations) == 1
    assert iterations[0] <= 100


def _counting_lps(monkeypatch) -> list:
    """The LPs the primal module solves from here on, in call order."""
    calls = []
    solve_lp = pr.solve_lp
    monkeypatch.setattr(pr, "solve_lp", lambda lp: calls.append(lp) or solve_lp(lp))
    return calls


def test_solve_primal_reuses_its_models_phase1_lp(monkeypatch):
    # the phase-1 LP does not depend on x: after compute_x0 solved it, the
    # primal solve on the same model object runs no LP, and gives bit for
    # bit what a new object, which solves its own, gives
    model = hn.random_instance(1, depth=3, branching=2, lam=0.3, rho=0.2)
    x0 = du.compute_x0(model)
    x = x0 + 1.0
    calls = _counting_lps(monkeypatch)
    kept = pr.solve_primal(model, LOG, x)
    assert calls == []
    fresh = pr.solve_primal(build_market(market_to_dict(model)), LOG, x)
    assert len(calls) == 1
    assert pickle.dumps(kept) == pickle.dumps(fresh)
    with pytest.raises(BelowX0Error):
        pr.solve_primal(model, LOG, x0 - 1e-3)
    assert len(calls) == 1


def test_phase1_lp_is_kept_per_object_not_per_value(monkeypatch):
    # an equal model is another object: it solves the LP again
    model = with_costs(endowment=(0.25, -0.5))
    first = pr.max_min_wealth(model, 0.0)
    twin = dataclasses.replace(model)
    assert twin == model and hash(twin) == hash(model)
    calls = _counting_lps(monkeypatch)
    again = pr.max_min_wealth(twin, 0.0)
    assert len(calls) == 1
    assert again[0] == first[0] and again[1].tobytes() == first[1].tobytes()
    assert "_phase1" not in repr(model)


def test_arbitrage_is_refused_on_every_call(monkeypatch):
    # a failed solve is not kept: each call runs its own LP and raises
    model = binomial_market(1.0, 2.0, 1.5, lam=0.0)
    calls = _counting_lps(monkeypatch)
    for n in (1, 2):
        with pytest.raises(NoConsistentPriceSystemError):
            pr.solve_primal(model, LOG, 1.0)
        assert len(calls) == n


def test_kept_argmax_is_handed_out_as_a_copy(monkeypatch):
    # writing into a returned argmax leaves the next call's result unchanged
    model = with_costs(endowment=(0.25, -0.5))
    value, u = pr.max_min_wealth(model, 0.0)
    want = u.copy()
    u[:] = 7.0
    calls = _counting_lps(monkeypatch)
    again, v = pr.max_min_wealth(model, 0.5)
    assert calls == []
    assert again == 0.5 + value and v.tobytes() == want.tobytes()
    v[:] = -1.0
    assert pr.max_min_wealth(model, 0.0)[1].tobytes() == want.tobytes()


@pytest.mark.parametrize("g", [np.zeros(3), np.zeros(1), np.zeros((2, 3)), np.zeros((2, 2, 2)),
                               np.float64(0.0), [np.nan, 0.0], [0.0, np.inf],
                               [[0.0, 0.0], [-np.inf, 0.0]], np.zeros((2, 2))],
                         ids=["1d-long", "1d-short", "2d-long", "3d", "scalar", "nan", "inf",
                              "2d-inf", "2d"])
def test_malformed_claim_is_a_domain_error(g):
    # a claim that is not one finite entry per leaf is refused before any
    # LP, a well-formed 2-D array of claims included: each claim is its own LP
    model = with_costs()
    for call in (lambda: pr.max_min_wealth(model, 0.0, g), lambda: pr.is_attainable(model, g, 1.0)):
        with pytest.raises(DomainError, match="payoff"):
            call()


def test_lp_with_a_claim_is_solved_on_every_call(monkeypatch):
    # the recovery's certificate and is_attainable pass a claim g: each call
    # is its own LP, and none of them stands in for the default claim's
    model = with_costs(endowment=(0.25, -0.5))
    g = np.array([0.5, -0.25])
    calls = _counting_lps(monkeypatch)
    first = pr.max_min_wealth(model, 0.0, g)
    second = pr.max_min_wealth(model, 0.0, g)
    assert len(calls) == 2
    assert first[0] == second[0]
    pr.is_attainable(model, g, 1.0)
    assert len(calls) == 3
    pr.max_min_wealth(model, 0.0)
    pr.max_min_wealth(model, 0.0)
    assert len(calls) == 4
