"""Trading strategies, attainability, and the primal utility maximizer."""

import numpy as np
import pytest

from tcdl.errors import BelowX0Error, DomainError, MarketError
from tcdl.market import binomial_market, single_node_market
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
