"""Conjugacy certification harness: yhat search, recovery, reports."""

import concurrent.futures
import dataclasses
import json
import os
import pickle

import numpy as np
import pytest

from tcdl.errors import (
    BelowX0Error, ConfigError, DomainError, MarketError, SolverIndeterminateError,
)
from tcdl.market import binomial_market, build_market, market_to_dict
from tcdl import dual as du
from tcdl import harness as hn
from tcdl import primal as pr
from tcdl import solver
from tcdl import utility as ut
from tcdl.solver import INDETERMINATE

from oracles import find_yhat_by_brentq, random_instance_by_lp

LOG = ut.make_utility("log")


def test_yhat_frictionless_log():
    # complete market: E[z0 I(y z0)] = 1/y, so v'(y) + x = 0 at y = 1/x
    model = binomial_market(4.0, 8.0, 2.0, lam=0.0)
    # x = 1e-3 and 1e3 put the root at y = 1e3 and y = 1e-3
    for x in (1e-3, 0.5, 1.0, 2.0, 1e3):
        assert hn.find_yhat(model, LOG, x) == pytest.approx(1.0 / x, rel=1e-9)


def test_yhat_constant_price_with_endowment():
    # constant S admits every density; v(y) = -ln y - 1 + c y, root y = 1/(x+c)
    model = binomial_market(4.0, 4.0, 4.0, lam=0.0, endowment=(0.5, 0.5))
    assert hn.find_yhat(model, LOG, 1.0) == pytest.approx(1.0 / 1.5, rel=1e-8)


@pytest.mark.parametrize("alpha", [0.5, -1.0])
def test_yhat_frictionless_power(alpha):
    # the CPS density Z is unique, so v'(y) = -y^(1/(a-1)) E[Z^(a/(a-1))] + E[Z e]
    # vanishes at yhat = ((x + E[Z e]) / E[Z^(a/(a-1))])^(a-1); for a = -1 the
    # round trip U'(I(y)) is not exact in floating point
    spec = ut.make_utility("power", alpha)
    model = binomial_market(4.0, 8.0, 2.0, lam=0.0, endowment=(0.25, -0.5))
    p = model.tree.leaf_prob()
    z = np.array([4.0 / 3.0, 2.0 / 3.0])   # leaves sort as (down, up)
    e = model.endowment_vector()
    for x in (0.5, 1.0, 2.0):
        expected = ((x + p @ (z * e)) / (p @ z ** (alpha / (alpha - 1.0)))) ** (alpha - 1.0)
        assert hn.find_yhat(model, spec, x) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("family,alpha", [("log", None), ("power", 0.5)])
def test_yhat_search_dual_solve_count(monkeypatch, family, alpha):
    # the search stays within ten dual solves
    spec = ut.make_utility(family, alpha)
    model = hn.random_instance(2011, depth=3, branching=3, lam=0.3, rho=0.3,
                               max_attempts=600)
    x0 = du.compute_x0(model)
    x = x0 + 0.05 * (1.0 + abs(x0)) + 0.5
    calls = []
    solve = du._solve_duals

    def counting(model, spec, ys, *args):
        calls.extend(ys)
        return solve(model, spec, ys, *args)

    monkeypatch.setattr(du, "_solve_duals", counting)
    hn.find_yhat(model, spec, x)
    assert len(calls) <= 10


@pytest.mark.parametrize("family,alpha", [("log", None), ("power", 0.5)])
def test_recovery_reuses_the_root_solve_of_the_yhat_search(monkeypatch, family, alpha):
    # the recovery makes exactly the search's dual solves, and find_yhat
    # returns the yhat it reports, bit for bit
    spec = ut.make_utility(family, alpha)
    model = hn.random_instance(2011, depth=3, branching=3, lam=0.3, rho=0.3,
                               max_attempts=600)
    x0 = du.compute_x0(model)
    x = x0 + 0.05 * (1.0 + abs(x0)) + 0.5
    calls = []
    solve = du._solve_duals

    def counting(model, spec, ys, *args):
        calls.extend(ys)
        return solve(model, spec, ys, *args)

    monkeypatch.setattr(du, "_solve_duals", counting)
    rec = hn.recover_primal_from_dual(model, spec, x)
    assert rec.attainable
    assert len(calls) == rec.yhat_dual_solves
    assert hn.find_yhat(model, spec, x) == rec.yhat


def test_recovery_reads_no_passed_polytope_or_x0():
    # the polytope and x0 come from the model object: another market's
    # polytope and x0, passed in, change nothing
    model = hn.random_instance(2011, depth=3, branching=3, lam=0.3, rho=0.3,
                               max_attempts=600)
    other = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    x0 = du.compute_x0(model)
    x = x0 + 0.05 * (1.0 + abs(x0)) + 0.5
    alone = hn.recover_primal_from_dual(model, LOG, x)
    passed = hn.recover_primal_from_dual(model, LOG, x, polytope=du.cps_polytope(other),
                                         x0=du.compute_x0(other))
    assert _identical(passed, alone)


def test_yhat_agrees_with_brentq_oracle():
    # criterion 02's instances, both utilities, one offset each
    combos = [(0.01, 2, 3), (0.1, 2, 3), (0.3, 3, 2), (0.3, 3, 3)]
    budget = hn.DEFAULT_TOLERANCES["yhat_root"]
    for k in range(50):
        lam, depth, branching = combos[k % 4]
        model = hn.random_instance(2000 + k, depth=depth, branching=branching, lam=lam,
                                   rho=0.3, max_attempts=600)
        x0 = du.compute_x0(model)
        x = x0 + 0.05 * (1.0 + abs(x0)) + (0.5, 1.0, 2.0)[k % 3]
        for spec in (LOG, ut.make_utility("power", 0.5)):
            yhat = hn.find_yhat(model, spec, x)
            expected = find_yhat_by_brentq(model, spec, x, x0)
            assert abs(yhat - expected) <= budget * expected, (2000 + k, spec.label())


@pytest.mark.parametrize("residual", [lambda n: 1.0, lambda n: float("nan"),
                                      lambda n: (-1.0) ** n, lambda n: 1.0 + 1.0 / n],
                         ids=["constant", "nan", "alternating", "drifting"])
def test_yhat_search_gives_up_after_the_cap(monkeypatch, residual):
    # v'(y) + x never reaches the stop: the search raises the typed error
    # after its fixed number of dual solves, whatever steps the residuals ask for
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    x = 2.0
    calls = []
    solve = du._solve_duals

    def stuck(model, spec, ys, *args):
        calls.extend(ys)
        return [dataclasses.replace(sol, derivative=residual(len(calls)) - x)
                for sol in solve(model, spec, ys, *args)]

    monkeypatch.setattr(du, "_solve_duals", stuck)
    with pytest.raises(SolverIndeterminateError, match="after 20 dual solves"):
        hn.find_yhat(model, LOG, x)
    assert len(calls) == hn.YHAT_MAX_SOLVES
    assert all(y > 0 for y in calls)


def test_yhat_search_without_interior_point_raises():
    # frictionless, with the down branch at the root's price: every CPS puts
    # density 0 on the up leaf, so the closed polytope is one point
    model = binomial_market(4.0, 8.0, 4.0, lam=0.0)
    poly = du.cps_polytope(model)
    assert poly.nonempty and poly.interior is None
    with pytest.raises(SolverIndeterminateError, match="empty relative interior"):
        hn.find_yhat(model, LOG, 2.0)


@pytest.mark.parametrize("x", [float("nan"), float("inf")])
def test_yhat_search_rejects_non_finite_x(x):
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    with pytest.raises(DomainError, match=f"got x={x!r}"):
        hn.find_yhat(model, LOG, x)


def test_yhat_below_x0_raises():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    x0 = du.compute_x0(model)
    with pytest.raises(BelowX0Error):
        hn.find_yhat(model, LOG, x0 - 1e-6)


def test_recovery_matches_primal():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    x = 2.0
    rec = hn.recover_primal_from_dual(model, LOG, x)
    psol = pr.solve_primal(model, LOG, x)
    assert rec.attainable
    assert rec.attainability_slack <= 1e-7
    assert rec.primal.value == pytest.approx(psol.value, abs=1e-7)
    # strong duality at the recovered pair
    assert psol.value == pytest.approx(rec.dual.value + x * rec.yhat, abs=1e-6)


def test_recovery_pins_the_density_at_a_tiny_yhat():
    # power:-50 puts yhat near 1e-16 here, where the dual gradients are of
    # the same size: only a dual objective scaled up to a unit gradient lets
    # the solver tolerance pin the density, and with it the recovered payoff
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    rec = hn.recover_primal_from_dual(model, ut.parse_utility("power:-50"), 2.365)
    assert rec.yhat < 1e-15
    assert rec.attainable
    assert rec.attainability_slack <= 1e-9


def test_recovered_strategy_generates_ghat():
    # ghat sits on the attainability boundary here; the strategy stored with
    # the recovery must still dominate it leaf by leaf and end flat in stock.
    model = hn.random_instance(2011, depth=3, branching=3, lam=0.3, rho=0.3,
                               max_attempts=600)
    x0 = du.compute_x0(model)
    x = x0 + 0.05 * (1.0 + abs(x0)) + 0.5
    rec = hn.recover_primal_from_dual(model, LOG, x)
    strat = rec.primal.strategy
    leaves = list(model.tree.leaves)
    cash = np.array([strat.phi0[leaf] for leaf in leaves]) - x
    assert np.all(cash >= rec.primal.ghat - 1e-6)
    assert max(abs(strat.phi1[leaf]) for leaf in leaves) <= 1e-9


def test_pipeline_strategies_pass_self_financing_check():
    # the strategies the pipeline produces satisfy every trading constraint
    # the check covers; no liquidation bound is part of the problem
    model = hn.random_instance(2011, depth=3, branching=3, lam=0.3, rho=0.3,
                               max_attempts=600)
    x0 = du.compute_x0(model)
    x = x0 + 0.05 * (1.0 + abs(x0)) + 0.5
    rec = hn.recover_primal_from_dual(model, LOG, x)
    sol = pr.solve_primal(model, LOG, x)
    assert pr.check_self_financing(model, rec.primal.strategy) == []
    assert pr.check_self_financing(model, sol.strategy) == []


def test_recovery_slackness_identities():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.2, endowment=(0.25, -0.5))
    rec = hn.recover_primal_from_dual(model, LOG, 1.5)
    slack = hn.slackness_check(model, rec.primal, rec.dual)
    assert slack.passed
    assert slack.r1 <= 1e-9
    assert slack.r2 <= 1e-9
    assert slack.r3 == pytest.approx(0.0, abs=1e-9)


def test_slackness_check_formula():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.0)
    x = 1.0
    psol = pr.solve_primal(model, LOG, x)
    dsol = du.solve_dual(model, LOG, 1.0 / x)
    slack = hn.slackness_check(model, psol, dsol)
    p = model.tree.leaf_prob()
    z0 = np.array(dsol.optimizer.z0)[list(model.tree.leaves)]
    assert slack.r1 == pytest.approx(abs((p * z0) @ psol.ghat), abs=1e-12)
    assert slack.passed


def test_model_hash_stable_and_sensitive():
    a = binomial_market(4.0, 8.0, 2.0, lam=0.1)
    b = binomial_market(4.0, 8.0, 2.0, lam=0.1)
    c = binomial_market(4.0, 8.0, 2.0, lam=0.2)
    assert hn.model_hash(a) == hn.model_hash(b)
    assert hn.model_hash(a) != hn.model_hash(c)
    assert len(hn.model_hash(a)) == 64


def test_conjugacy_check_report():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    x0 = du.compute_x0(model)
    y_grid = np.logspace(-1.5, 1.5, 13)
    report = hn.conjugacy_check(model, LOG, [x0 - 0.1, x0 + 0.5, x0 + 1.5], y_grid)
    assert report.passed
    assert report.x0 == pytest.approx(x0)
    below = report.x_records[0]
    assert below["status"] == "below-x0"
    assert below["u"] == "-inf"
    ok = [r for r in report.x_records if r["status"] == "ok"]
    assert len(ok) == 2
    for r in ok:
        assert r["rel_gap"] <= 1e-5
        assert r["recovery_attainable"]
    names = {c["name"] for c in report.checks}
    assert {"v_convex_midpoint", "v_prime_increasing", "strong_duality",
            "weak_duality_u_le_env", "recovery_attainable", "recovery_optimal",
            "slackness_r1", "slackness_r2", "marginal_equals_yhat",
            "weak_duality_v_ge_env"} <= names
    assert all(c["passed"] for c in report.checks)


def test_conjugacy_check_solves_each_x_once(monkeypatch):
    # the marginal check reads u'(x) off the primal optimum: no extra solves;
    # the x below x0 gets no row of the primal's one interior-point call
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    x0 = du.compute_x0(model)
    calls = []
    solve = pr.solve_convex

    def counting(cp, tol=1e-8):
        calls.append(list(cp.params[:, 0]))
        return solve(cp, tol=tol)

    monkeypatch.setattr(pr, "solve_convex", counting)
    report = hn.conjugacy_check(model, LOG, [x0 - 0.1, x0 + 0.5, x0 + 1.5], [0.5, 1.0, 2.0])
    assert report.passed
    assert calls == [[x0 + 0.5, x0 + 1.5]]


@pytest.mark.parametrize("x", [float("nan"), float("-inf"), float("inf")])
def test_conjugacy_check_raises_on_a_non_finite_x(x):
    # the primal refuses a non-finite x as outside its domain, and a report
    # raises that error rather than recording the x as below x0
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    with pytest.raises(DomainError, match=f"got x={x!r}"):
        hn.conjugacy_check(model, LOG, [x, 2.0], [0.5, 1.0, 2.0])


def test_conjugacy_check_reports_a_failed_x(monkeypatch):
    # a typed solver failure at one x becomes that x's failed record and a
    # failed pipeline check; the other x are still solved
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    x0 = du.compute_x0(model)
    xs = [x0 + 0.5, x0 + 1.0, x0 + 1.5]
    solve = pr._solve_primals

    def failing(model, spec, batch, *args, **kwargs):
        error = SolverIndeterminateError("primal solve: solver status numerically-indeterminate")
        return [error if x == xs[1] else sol
                for x, sol in zip(batch, solve(model, spec, batch, *args, **kwargs))]

    monkeypatch.setattr(pr, "_solve_primals", failing)
    report = hn.conjugacy_check(model, LOG, xs, [0.5, 1.0, 2.0])
    assert [r["status"] for r in report.x_records] == ["ok", "failed", "ok"]
    assert "numerically-indeterminate" in report.x_records[1]["error"]
    pipeline = [c for c in report.checks if c["name"] == "pipeline"]
    assert len(pipeline) == 1 and not pipeline[0]["passed"]
    assert pipeline[0]["location"].startswith(f"x={xs[1]:g}: ")
    assert not report.passed
    assert all(c["passed"] for c in report.checks if c["name"] != "pipeline")


def test_a_repeated_y_is_an_input_error():
    # a y grid that holds a point twice divides by zero in the convexity
    # and slope checks: after sorting, the report refuses it by name
    model = hn.random_instance(1, 3, 2, lam=0.3, rho=0.2)
    x0 = du.compute_x0(model)
    with pytest.raises(DomainError, match=r"y grid repeats y=1000\.0$"):
        hn.conjugacy_check(model, LOG, [x0 + 1], [1, 1000, 1000])
    with pytest.raises(DomainError, match=r"y grid repeats y=2\.0$"):
        hn.run_experiment({"seed": {"seed": 1}, "y_grid": {"min": 2, "max": 2, "n": 3}})
    # so is a grid that is empty, not 1-D, not numbers, or holds a
    # non-finite y, before any solve
    for grid, message in (([], r"nonempty 1-D list, got shape \(0,\)$"),
                          ([[1, 2], [3, 4]], r"nonempty 1-D list, got shape \(2, 2\)$"),
                          (5.0, r"nonempty 1-D list, got shape \(\)$"),
                          (["a"], r"not a list of numbers"),
                          ([1, float("nan")], r"non-finite y=nan$"),
                          ([float("inf"), 1], r"non-finite y=inf$")):
        with pytest.raises(DomainError, match=message):
            hn.conjugacy_check(model, LOG, [x0 + 1], grid)


@pytest.mark.parametrize("grid, message", [
    (["a"], r"x grid is not a list of numbers: \['a'\]$"),
    ([[1.0, 2.0]], r"x grid must be a nonempty 1-D list, got shape \(1, 2\)$"),
    (None, r"x grid must be a nonempty 1-D list, got shape \(\)$"),
    (2.0, r"x grid must be a nonempty 1-D list, got shape \(\)$"),
    ([], r"x grid must be a nonempty 1-D list, got shape \(0,\)$"),
], ids=["letters", "2-D", "none", "scalar", "empty"])
def test_a_malformed_x_grid_is_an_input_error_before_any_solve(monkeypatch, grid, message):
    # read as the y grid is: an empty grid would pass while certifying no x
    model = hn.random_instance(1, 3, 2, lam=0.3, rho=0.2)

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    for module in (du, pr):
        monkeypatch.setattr(module, "solve_lp", no_solve)
        monkeypatch.setattr(module, "solve_convex", no_solve)
    with pytest.raises(DomainError, match=message):
        hn.conjugacy_check(model, LOG, grid, [0.5, 1.0, 2.0])


def test_conjugacy_check_records_a_grid_with_no_x_above_x0():
    # no x reaches a yhat search: the empty batch searches nothing, and the
    # report still records the x as below x0
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    x0 = du.compute_x0(model)
    report = hn.conjugacy_check(model, LOG, [x0 - 0.1], [0.5, 1.0, 2.0])
    assert report.x_records == [{"x": x0 - 0.1, "status": "below-x0", "u": "-inf"}]
    assert report.passed


def test_conjugacy_check_records_a_one_x_grid_whose_primal_fails(monkeypatch):
    # the only x's primal fails, so no x reaches a yhat search: the x gets its
    # failed record and the report fails its pipeline check
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    x = du.compute_x0(model) + 1.0

    def failing(model, spec, batch, *args, **kwargs):
        return [SolverIndeterminateError("primal solve: solver status numerically-indeterminate")
                for _ in batch]

    monkeypatch.setattr(pr, "_solve_primals", failing)
    report = hn.conjugacy_check(model, LOG, [x], [0.5, 1.0, 2.0])
    assert [r["status"] for r in report.x_records] == ["failed"]
    assert "numerically-indeterminate" in report.x_records[0]["error"]
    assert [c["passed"] for c in report.checks if c["name"] == "pipeline"] == [False]
    assert not report.passed


@pytest.mark.parametrize("side, fail_tol", [("primal", 1e-9), ("yhat search", 1e-10)])
def test_a_failed_row_fails_only_its_own_x(monkeypatch, side, fail_tol):
    # the middle x's row of the batched primal solve, or of the first lockstep
    # search step, ends non-optimal: that x alone fails, with the error its
    # own solve raises, and the report's other records and checks are bit for
    # bit those of the report without that x
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    x0 = du.compute_x0(model)
    xs, ys = [x0 + 0.5, x0 + 1.0, x0 + 1.5], [0.5, 1.0, 2.0]
    without = hn.conjugacy_check(model, LOG, [xs[0], xs[2]], ys)
    module = pr if side == "primal" else du
    solve, failed = module.solve_convex, []

    def failing(cp, tol=1e-8):
        res = solve(cp, tol=tol)
        if tol != fail_tol or failed:
            return res
        assert len(res.statuses) == 3
        failed.append(float(cp.params[1, 0]))
        statuses, kkt = list(res.statuses), res.kkt_residual.copy()
        statuses[1], kkt[1] = INDETERMINATE, np.inf
        return dataclasses.replace(res, status=INDETERMINATE, statuses=tuple(statuses),
                                   kkt_residual=kkt)

    monkeypatch.setattr(module, "solve_convex", failing)
    report = hn.conjugacy_check(model, LOG, xs, ys)
    what = "primal solve at x" if side == "primal" else "dual solve at y"
    assert len(failed) == 1 and (side != "primal" or failed == [xs[1]])
    assert [r["status"] for r in report.x_records] == ["ok", "failed", "ok"]
    assert report.x_records[1]["error"] == f"{what}={failed[0]}: solver status {INDETERMINATE}"
    kept = [report.x_records[0], report.x_records[2]]
    assert json.dumps(kept, sort_keys=True) == json.dumps(without.x_records, sort_keys=True)
    checks = [c for c in report.checks if c["name"] != "pipeline"]
    assert json.dumps(checks, sort_keys=True) == json.dumps(without.checks, sort_keys=True)


def _identical(a, b) -> bool:
    """Bit for bit equal: dataclasses field by field, float data by their bytes."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_identical(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, (np.ndarray, float, tuple)):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.parametrize("spec", [LOG, ut.make_utility("power", 0.5)], ids=lambda s: s.label())
def test_batches_over_x_equal_the_per_x_solves(monkeypatch, spec):
    # criterion 02's instances 2008..2017 at a report's three x: one batched
    # primal solve, the lockstep yhat searches from its optima and each x's
    # own certificate LP give each x, bit for bit, what its own solve_primal
    # and recover_primal_from_dual give.
    calls = []
    solve = solver.solve_convex

    def counting(cp, tol=1e-8):
        calls.append(len(cp.params))
        return solve(cp, tol=tol)

    stalled, spread = False, False
    for k in range(8, 18):
        lam, depth, branching = _COMBOS[k % 4]
        model, _ = hn._generate_instance(2000 + k, depth, branching, lam, 0.3, 600)
        x0 = du.compute_x0(model)
        xs = [x0 + hn.X0_MARGIN_COEFF * (1.0 + abs(x0)) + o for o in hn.DEFAULT_X_OFFSETS]
        with monkeypatch.context() as m:
            m.setattr(pr, "solve_convex", counting)
            m.setattr(du, "solve_convex", counting)
            primals = pr._solve_primals(model, spec, xs)
            assert calls == [3]
            recoveries = hn._recoveries(model, spec, primals)
        solves = [rec.yhat_dual_solves for rec in recoveries]
        # one batched call per lockstep step, over the x still searching
        assert calls[1:] == [sum(n >= step for n in solves) for step in range(1, max(solves) + 1)]
        calls.clear()
        for x, psol, rec in zip(xs, primals, recoveries):
            where = f"instance {2000 + k} at x={x}"
            assert _identical(psol, pr.solve_primal(model, spec, x)), where
            own = hn.recover_primal_from_dual(model, spec, x)
            assert rec.yhat_start == own.yhat_start == "primal", where
            assert _identical(rec, own), where
            stalled |= psol.stall_accepted
        spread |= len(set(solves)) > 1
    # instance 2012's primal stalls under power:0.5 (see the report test below);
    # under log only 2017's three searches differ in length
    assert stalled is (spec.label() == "power:0.5")
    assert spread


def test_recoveries_keep_each_primal_error_as_its_own_outcome():
    # a primal batch with one x below x0, one whose primal failed and two
    # solved x: each error comes back, the same object, as its own x's
    # outcome, and each solved x recovers, bit for bit, what its one-x
    # recovery gives
    model, _ = hn._generate_instance(1, 3, 2, 0.3, 0.2)
    xs = [du.compute_x0(model) - 0.1] + _default_xs(model)
    primals = pr._solve_primals(model, LOG, xs)
    primals[2] = SolverIndeterminateError("primal solve: solver status numerically-indeterminate")
    assert isinstance(primals[0], BelowX0Error)
    recs = hn._recoveries(model, LOG, primals)
    assert recs[0] is primals[0] and recs[2] is primals[2]
    for k in (1, 3):
        assert _identical(recs[k], hn.recover_primal_from_dual(model, LOG, xs[k])), k


def test_report_x_records_equal_the_one_x_recoveries():
    # selftest seeds 1..3: a report's searches and the one-x recovery both
    # start from the primal optimum at x, so each x record holds, bit for
    # bit, what recover_primal_from_dual gives at that x
    for seed in (1, 2, 3):
        config = dict(hn.SELFTEST_CONFIG, seed=dict(hn.SELFTEST_CONFIG["seed"], seed=seed))
        report = hn.run_experiment(config)
        assert report.passed
        model, _ = hn._generate_instance(seed, 3, 2, 0.3, 0.2)
        for rec in report.x_records:
            own = hn.recover_primal_from_dual(model, LOG, rec["x"])
            assert rec["yhat_start"] == own.yhat_start == "primal"
            assert _identical(tuple(rec[f] for f in ("yhat", "v_at_yhat", "recovery_value")),
                              (own.yhat, own.dual.value, own.primal.value))
            assert rec["yhat_dual_solves"] == own.yhat_dual_solves
            assert rec["yhat_ipm_iterations"] == own.yhat_ipm_iterations


def _default_xs(model) -> list:
    x0 = du.compute_x0(model)
    return [x0 + hn.X0_MARGIN_COEFF * (1.0 + abs(x0)) + o for o in hn.DEFAULT_X_OFFSETS]


@pytest.mark.parametrize("corrupt", [lambda nu: -nu, lambda nu: np.full_like(nu, np.nan)],
                         ids=["negated", "nan"])
def test_a_search_from_a_start_outside_the_polytope_starts_from_the_interior(monkeypatch,
                                                                              corrupt):
    # a corrupted nu puts the second x's primal start outside G z < h: that
    # x starts from the interior point and gets, bit for bit, what it gets
    # searching alone, while the other x still start from their optima
    model, _ = hn._generate_instance(1, 3, 2, 0.3, 0.2)
    xs = _default_xs(model)
    primals = pr._solve_primals(model, LOG, xs)
    shadow = pr.shadow_cps

    def corrupted(model, spec, sol):
        return shadow(model, spec, dataclasses.replace(sol, nu=corrupt(sol.nu))
                      if sol.x == xs[1] else sol)

    monkeypatch.setattr(pr, "shadow_cps", corrupted)
    recs = hn._recoveries(model, LOG, primals)
    assert [rec.yhat_start for rec in recs] == ["primal", "interior", "primal"]
    assert _identical(recs[1], hn._recoveries(model, LOG, primals[1:2])[0])


def test_report_x_records_depend_on_neither_the_y_grid_nor_the_other_x():
    # selftest seeds 1..3: each x's search starts from its own primal
    # optimum and its ghat is certified by its own LP, so its x record is
    # the same byte for byte under the default y grid, under a grid that
    # brackets no root, and in a report of that x alone
    for seed in (1, 2, 3):
        model, _ = hn._generate_instance(seed, 3, 2, 0.3, 0.2)
        xs = _default_xs(model)
        grid = du.default_y_grid()

        def records(x_grid, y_grid):
            return hn.conjugacy_check(model, LOG, x_grid, y_grid).x_records

        want = json.dumps(records(xs, grid))
        assert json.dumps(records(xs, [0.001, 0.002])) == want
        assert json.dumps([r for x in xs for r in records([x], grid)]) == want


def test_report_certifies_instance_2038_under_power():
    # criterion 02's instance 2038 under power:0.5 as a report: each x's
    # search starts from its primal optimum, nu included, and every x certifies
    lam, depth, branching = _COMBOS[38 % 4]
    model, _ = hn._generate_instance(2038, depth, branching, lam, 0.3, 600)
    report = hn.conjugacy_check(model, ut.make_utility("power", 0.5), _default_xs(model),
                                du.default_y_grid())
    assert report.passed
    assert [rec["yhat_start"] for rec in report.x_records] == ["primal"] * 3


@pytest.mark.parametrize("offset", [1.0, 2.0])
def test_recovery_certifies_instance_103012_under_power(offset):
    # a criterion-02-style instance whose yhat search from the interior point
    # stalls on a dual solve at these two x; from the primal optimum the
    # recovery certifies, and closes the duality gap with the primal
    spec = ut.make_utility("power", 0.5)
    model = hn.random_instance(103012, 2, 3, lam=0.01, rho=0.3, max_attempts=600)
    x0 = du.compute_x0(model)
    x = x0 + 0.05 * (1.0 + abs(x0)) + offset
    rec = hn.recover_primal_from_dual(model, spec, x)
    u = pr.solve_primal(model, spec, x).value
    tol = hn.DEFAULT_TOLERANCES
    assert rec.attainable and rec.yhat_start == "primal"
    assert rec.primal.value >= u - tol["recovery"]
    assert abs(u - (rec.dual.value + x * rec.yhat)) <= tol["strong_duality"] * (1.0 + abs(u))


@pytest.mark.parametrize("instance,spec", [(2012, ut.make_utility("power", 0.5)), (2034, LOG)],
                         ids=["2012-power", "2034-log"])
def test_searches_of_thin_polytopes_start_from_the_primal_optimum(instance, spec):
    # criterion 02's instances whose shadow points miss the polytope by more
    # than a fixed 1e-6 weight on the interior point would repair: the
    # weight adapts to the miss, so every x still starts from its primal
    # optimum, and certifies
    lam, depth, branching = _COMBOS[instance % 4]
    model, _ = hn._generate_instance(instance, depth, branching, lam, 0.3, 600)
    for x in _default_xs(model):
        rec = hn.recover_primal_from_dual(model, spec, x)
        assert rec.yhat_start == "primal" and rec.attainable, x


@pytest.mark.parametrize("offset", [0.5, 1.0, 2.0])
def test_recovery_certifies_a_frictionless_instance_under_power(offset):
    # a lam = 0 tree whose yhat search from the interior point stalls on its
    # first dual solve at these three x; from the primal optimum one dual
    # solve lands on the root and the recovery certifies
    spec = ut.make_utility("power", 0.5)
    model = hn.random_instance(500, 1, 3, lam=0.0, rho=0.2)
    x0 = du.compute_x0(model)
    x = x0 + 0.05 * (1.0 + abs(x0)) + offset
    rec = hn.recover_primal_from_dual(model, spec, x)
    u = pr.solve_primal(model, spec, x).value
    tol = hn.DEFAULT_TOLERANCES
    assert rec.attainable and rec.yhat_start == "primal"
    assert rec.primal.value >= u - tol["recovery"]
    assert abs(u - (rec.dual.value + x * rec.yhat)) <= tol["strong_duality"] * (1.0 + abs(u))


def test_envelope_marginal_agrees_with_finite_difference():
    # criterion 02's first ten instances: the report's u'(x) = E[U'(w*)]
    # against a central difference of the primal value, within the check's budget
    for k in range(10):
        lam, depth, branching = _COMBOS[k % 4]
        model = hn.random_instance(2000 + k, depth=depth, branching=branching, lam=lam,
                                   rho=0.3, max_attempts=600)
        x0 = du.compute_x0(model)
        x = x0 + 0.05 * (1.0 + abs(x0)) + (0.5, 1.0, 2.0)[k % 3]
        for spec in (LOG, ut.make_utility("power", 0.5)):
            report = hn.conjugacy_check(model, spec, [x], [1.0])
            record = report.x_records[0]
            budget = hn.DEFAULT_TOLERANCES["marginal"] * (1.0 + record["yhat"])
            fd = pr.primal_marginal(model, spec, x)
            assert abs(record["marginal"] - fd) <= budget, (2000 + k, spec.label())


def test_random_instance_deterministic():
    a = hn.random_instance(42, depth=3, branching=2, lam=0.3, rho=0.2)
    b = hn.random_instance(42, depth=3, branching=2, lam=0.3, rho=0.2)
    assert market_to_dict(a) == market_to_dict(b)
    other = hn.random_instance(43, depth=3, branching=2, lam=0.3, rho=0.2)
    assert market_to_dict(other) != market_to_dict(a)
    assert a.tree.n_nodes == 1 + 2 + 4 + 8
    assert a.rho <= 0.2


def test_random_instance_scale_guard():
    with pytest.raises(MarketError):
        hn.random_instance(1, depth=6, branching=2, lam=0.1, rho=0.0)
    with pytest.raises(MarketError):
        hn.random_instance(1, depth=3, branching=4, lam=0.1, rho=0.0)
    with pytest.raises(MarketError, match="got depth 0, branching 2"):
        hn.random_instance(1, depth=0, branching=2, lam=0.1, rho=0.0)
    with pytest.raises(MarketError, match="got depth 1, branching 0"):
        hn.random_instance(1, depth=1, branching=0, lam=0.1, rho=0.0)
    with pytest.raises(MarketError, match="rho >= 0"):
        hn.random_instance(1, depth=1, branching=2, lam=0.1, rho=-1.0)
    with pytest.raises(MarketError, match="finite endowment bound rho >= 0, got inf"):
        hn.random_instance(1, depth=2, branching=2, lam=0.1, rho=float("inf"))
    for lam in (-0.1, 1.0, float("nan")):
        with pytest.raises(MarketError, match=r"outside \[0, 1\)"):
            hn.random_instance(1, depth=1, branching=2, lam=lam, rho=0.0)


# (seed, depth, branching, lam, rho, max_attempts) of the generated instances
# the suite and the benchmark rely on.
_COMBOS = [(0.01, 2, 3), (0.1, 2, 3), (0.3, 3, 2), (0.3, 3, 3)]
_GENERATED = {
    "criterion-02": [(2000 + k, _COMBOS[k % 4][1], _COMBOS[k % 4][2], _COMBOS[k % 4][0], 0.3, 600)
                     for k in range(50)],
    "selftest": [(s, 3, 2, 0.3, 0.2, 100) for s in range(1, 11)],
    "deep-tree": [(s, 4, 3, 0.3, 0.2, 100) for s in range(1, 25)],
    # seed 2 at 5 x 3 is accepted on its 77th draw; the others exhaust 100
    "depth-5": [(s, 5, 2, 0.3, 0.2, 100) for s in range(1, 5)] + [(2, 5, 3, 0.3, 0.2, 100)],
}


def _generate(generator, seed, depth, branching, lam, rho, max_attempts):
    try:
        model, attempts = generator(seed, depth, branching, lam, rho, max_attempts)
    except MarketError as exc:
        return str(exc)
    return market_to_dict(model), attempts


@pytest.mark.parametrize("group", sorted(_GENERATED))
def test_random_instance_matches_lp_per_draw(group):
    # the spread pass only skips LPs: same market after the same attempt count
    for case in _GENERATED[group]:
        assert (_generate(hn._generate_instance, *case)
                == _generate(random_instance_by_lp, *case)), case


def test_spread_pass_agrees_with_cps_phase1():
    # A draw with a strictly interior CPS passes; a draw that passes has a
    # nonempty CPS polytope.  2056 draws: 36 per (lam, depth, branching), 10
    # at the 364-node size whose LP costs most.
    verdicts = set()
    for lam in (0.0, 0.01, 0.1, 0.3):
        for depth in range(1, 6):
            for branching in range(1, 4):
                rng = np.random.default_rng([depth, branching, int(lam * 100)])
                for _ in range(10 if (depth, branching) == (5, 3) else 36):
                    draw = hn._draw_tree(rng, depth, branching, 0.2)
                    passed = hn._spreads_admit_cps(draw, lam)
                    poly = du.cps_polytope(build_market(dict(draw, **{"lambda": lam})))
                    strict = poly.nonempty and poly.interior is not None
                    assert passed or not strict, (lam, depth, branching)
                    assert poly.nonempty or not passed, (lam, depth, branching)
                    verdicts.add((passed, strict))
    assert {(True, True), (False, False)} <= verdicts


@pytest.mark.parametrize("utility, stalled", [("power:0.5", True), ("log", False)])
def test_report_records_primal_stall_acceptance(utility, stalled):
    # criterion 02's instance 2012: with power:0.5 each primal solve stops on a
    # KKT residual floor above its tolerance 1e-9, below the 1e-6 (1 + |u|)
    # under which the stalled iterate is accepted
    report = hn.run_experiment({
        "seed": {"seed": 2012, "depth": 2, "branching": 3, "lambda": 0.01, "rho": 0.3},
        "utility": utility, "y_grid": [0.5, 1.0, 2.0], "check_marginals": False,
    })
    assert report.passed and len(report.x_records) == 3
    for rec in report.x_records:
        assert rec["primal_stall_accepted"] is stalled
        assert (rec["primal_kkt_residual"] > 1e-9) is stalled
        assert rec["primal_kkt_residual"] <= 1e-6 * (1.0 + abs(rec["u"]))


def test_run_experiment_writes_files(tmp_path):
    config = {
        "seed": {"seed": 7, "depth": 2, "branching": 2, "lambda": 0.1, "rho": 0.2},
        "utility": "log",
        "y_grid": {"min": 0.05, "max": 20.0, "n": 9},
        "check_marginals": False,
    }
    report = hn.run_experiment(config, output_dir=str(tmp_path))
    assert report.passed
    subdirs = list(tmp_path.iterdir())
    assert len(subdirs) == 1
    assert subdirs[0].name.endswith("-seed7")
    names = {p.name for p in subdirs[0].iterdir()}
    assert names == {"report.json", "u_curve.csv", "v_curve.csv", "checks.csv"}
    with open(subdirs[0] / "report.json") as fh:
        blob = json.load(fh)
    assert blob["passed"] is True
    assert blob["metadata"]["model_hash"] == report.metadata["model_hash"]


def test_run_experiment_builds_one_polytope(monkeypatch):
    # the report's dual grid and yhat searches rebuild the generator's
    # polytope on the same model object: one phase-1 LP per accepted draw
    lps = []
    solve_lp = du.solve_lp
    monkeypatch.setattr(du, "solve_lp", lambda lp: lps.append(lp) or solve_lp(lp))
    report = hn.run_experiment({
        "seed": {"seed": 7, "depth": 2, "branching": 2, "lambda": 0.1, "rho": 0.2},
        "y_grid": [0.5, 1.0, 2.0], "check_marginals": False,
    })
    assert report.passed
    assert len(lps) == report.metadata["source"]["attempts"] == 1


def test_report_records_the_yhat_search(monkeypatch):
    # every interior-point solve of the report is counted in exactly one of
    # its iteration fields
    iterations = []
    solve = du.solve_convex

    def counting(*args, **kwargs):
        res = solve(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(du, "solve_convex", counting)
    monkeypatch.setattr(pr, "solve_convex", counting)
    report = hn.run_experiment({
        "seed": {"seed": 2011, "depth": 3, "branching": 3, "lambda": 0.3, "rho": 0.3},
        "y_grid": [0.5, 1.0, 2.0], "check_marginals": False,
    })
    assert report.passed and len(report.x_records) == 3
    for rec in report.x_records:
        assert 1 <= rec["yhat_dual_solves"] <= rec["yhat_ipm_iterations"]
        assert rec["yhat_dual_solves"] <= hn.YHAT_MAX_SOLVES
        assert 0.0 <= rec["yhat_kkt_residual"] <= 1e-10
        assert rec["primal_ipm_iterations"] >= 1
        assert "refine_kkt_residual" not in rec and "refine_ipm_iterations" not in rec
    assert all(rec["ipm_iterations"] >= 1 for rec in report.y_records)
    fields = ("yhat_ipm_iterations", "primal_ipm_iterations")
    assert sum(iterations) == (sum(rec["ipm_iterations"] for rec in report.y_records)
                               + sum(rec[f] for rec in report.x_records for f in fields))
    # the three-point y grid is one batched interior-point call, the three
    # primal solves another, and the yhat searches one per lockstep step
    assert len(iterations) == 1 + 1 + max(rec["yhat_dual_solves"] for rec in report.x_records)


def test_run_experiment_output_deterministic(tmp_path):
    config = {
        "seed": {"seed": 3, "depth": 2, "branching": 2, "lambda": 0.1, "rho": 0.2},
        "y_grid": {"min": 0.05, "max": 20.0, "n": 9},
        "check_marginals": False,
    }
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    hn.run_experiment(config, output_dir=str(out1))
    hn.run_experiment(config, output_dir=str(out2))
    (d1,) = list(out1.iterdir())
    (d2,) = list(out2.iterdir())
    for name in ("report.json", "u_curve.csv", "v_curve.csv", "checks.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


@pytest.mark.parametrize("y_grid", [[0.05, 20.0, 0.5, 2.0, 5.0],
                                    {"min": 20.0, "max": 0.05, "n": 9}],
                         ids=["unordered-list", "descending-range"])
def test_run_experiment_solves_y_grid_ascending(y_grid):
    report = hn.run_experiment({
        "seed": {"seed": 3, "depth": 2, "branching": 2, "lambda": 0.1, "rho": 0.2},
        "y_grid": y_grid, "check_marginals": False,
    })
    ys = [r["y"] for r in report.y_records]
    assert ys == sorted(ys)
    assert report.passed, [c for c in report.checks if not c["passed"]]


def test_run_experiment_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        hn.run_experiment({}, output_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        hn.run_experiment({"seed": {"seed": 1}, "market": "x.json"},
                          output_dir=str(tmp_path))


def test_run_experiment_from_market_file(tmp_path):
    from tcdl.market import save_market
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1)
    path = tmp_path / "binomial.json"
    save_market(model, str(path))
    report = hn.run_experiment({
        "market": str(path),
        "x_grid": [1.0, 2.0],
        "y_grid": [0.25, 0.5, 1.0, 2.0, 4.0],
        "check_marginals": False,
    }, output_dir=str(tmp_path / "out"))
    assert report.passed
    assert report.x0 == pytest.approx(0.0, abs=1e-10)


def test_selftest_two_seeds(tmp_path):
    results = hn.selftest([1, 2], str(tmp_path), jobs=1)
    assert results == {1: True, 2: True}


class _LocalPool:
    """Stands in for the process pool: records its size and maps in this
    process, each result through pickle as a worker's would come back, so
    no worker process starts."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [pickle.loads(pickle.dumps(fn(task))) for task in tasks]


def test_selftest_starts_at_most_one_worker_per_seed(monkeypatch, tmp_path):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _LocalPool)
    monkeypatch.setattr(_LocalPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert hn.selftest([1, 2], str(tmp_path), jobs=500) == {1: True, 2: True}
    assert hn.selftest([3, 4, 5], str(tmp_path), jobs=2) == {3: True, 4: True, 5: True}
    assert hn.selftest([6], str(tmp_path), jobs=4) == {6: True}
    assert _LocalPool.sizes == [2, 2]


@pytest.mark.parametrize("cpus", [4, None], ids=["4-cpus", "unknown"])
def test_selftest_starts_at_most_one_worker_per_cpu(monkeypatch, tmp_path, cpus):
    # the pool starts every worker at once, so --jobs past the CPU count
    # (or past 1 when the count is unknown) starts no more
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _LocalPool)
    monkeypatch.setattr(_LocalPool, "sizes", [])
    monkeypatch.setattr(hn, "_selftest_one", lambda task: (task[0], True))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert hn.selftest(range(1, 5001), str(tmp_path), jobs=5000) == dict.fromkeys(
        range(1, 5001), True)
    assert _LocalPool.sizes == ([4] if cpus else [])


@pytest.mark.parametrize("jobs", [1, 2], ids=["in-process", "pool"])
def test_selftest_keeps_the_other_seeds_when_one_raises(monkeypatch, tmp_path, jobs):
    # seed 2's run raises: it maps to its error, and seeds 1 and 3 keep their flags
    run = hn.run_experiment

    def raising(config, output_dir=None):
        if config["seed"]["seed"] == 2:
            raise SolverIndeterminateError("dual solve at y=1000.0: solver status stalled")
        return run(config, output_dir=output_dir)

    monkeypatch.setattr(hn, "run_experiment", raising)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _LocalPool)
    monkeypatch.setattr(_LocalPool, "sizes", [])
    results = hn.selftest([1, 2, 3], str(tmp_path), jobs=jobs)
    assert _LocalPool.sizes == ([] if jobs == 1 else [2])
    assert results[1] is True and results[3] is True
    assert type(results[2]) is SolverIndeterminateError
    assert str(results[2]) == "dual solve at y=1000.0: solver status stalled"


def test_attainability_row_lists_the_tolerance_that_decides_it():
    # the recovery flags ghat attainable when its slack is within
    # ATTAINABILITY_TOL; the report row must list that tolerance, not a tighter one
    report = hn.run_experiment({
        "seed": {"seed": 2014, "depth": 3, "branching": 2, "lambda": 0.3, "rho": 0.3},
        "utility": "power:0.5", "x_offsets": [0.5, 1.0, 2.0],
        "check_marginals": False,
    })
    rows = [c for c in report.checks if c["name"] == "recovery_attainable"]
    assert len(rows) == 3
    assert all(row["passed"] == (row["value"] <= row["tolerance"]) for row in rows)
    assert all(row["tolerance"] == hn.ATTAINABILITY_TOL for row in rows)


def _counting_lps(monkeypatch) -> list:
    """Every LP the primal and dual modules solve from here on, as the claim
    of the max-min wealth call it ran under ("default", "ghat"), or "other"."""
    lps, claim = [], ["other"]
    max_min = pr.max_min_wealth

    def recording(model, x, g=None):
        claim[0] = "default" if g is None else "ghat"
        try:
            return max_min(model, x, g)
        finally:
            claim[0] = "other"

    monkeypatch.setattr(pr, "max_min_wealth", recording)
    for module in (pr, du):
        solve_lp = module.solve_lp
        monkeypatch.setattr(module, "solve_lp",
                            lambda lp, solve_lp=solve_lp: lps.append(claim[0]) or solve_lp(lp))
    return lps


def test_report_solves_the_trade_lp_once(monkeypatch):
    # x0 and every primal solve's phase 1 come from one max-min wealth LP
    # with the default claim; each of the three recoveries is certified by
    # its own LP over its claim ghat
    lps = _counting_lps(monkeypatch)
    report = hn.run_experiment({"seed": {"seed": 1, "depth": 3, "branching": 2,
                                         "lambda": 0.3, "rho": 0.2}})
    assert report.passed and len(report.x_records) == 3
    assert [c for c in lps if c != "other"] == ["default", "ghat", "ghat", "ghat"]


@pytest.mark.parametrize("pass_x0", [True, False], ids=["x0", "no-x0"])
def test_criterion_02_run_solves_two_lps(monkeypatch, pass_x0):
    # compute_x0, solve_primal and the recovery on one model object: the
    # primal's phase 1 and the recovery's x0 are the x0 LP, so the only
    # other LP is the recovery's certificate
    model, _ = hn._generate_instance(2000, 2, 3, 0.01, 0.3, 600)
    lps = _counting_lps(monkeypatch)
    x0 = du.compute_x0(model)
    x = x0 + hn.X0_MARGIN_COEFF * (1.0 + abs(x0)) + 0.5
    psol = pr.solve_primal(model, LOG, x)
    rec = hn.recover_primal_from_dual(model, LOG, x, **({"x0": x0} if pass_x0 else {}))
    assert lps == ["default", "ghat"]
    assert rec.attainable and psol.value - rec.primal.value <= hn.DEFAULT_TOLERANCES["recovery"]


def _counting_primal_ipm(monkeypatch) -> list:
    """The batch size of each primal interior-point call from here on."""
    calls = []
    solve = pr.solve_convex

    def counting(cp, tol=1e-8):
        calls.append(len(cp.params))
        return solve(cp, tol=tol)

    monkeypatch.setattr(pr, "solve_convex", counting)
    return calls


def _kept_instance():
    """A fresh 15-node model object and an x above its x0."""
    model = hn.random_instance(2002, depth=3, branching=2, lam=0.3, rho=0.3, max_attempts=600)
    x0 = du.compute_x0(model)
    return model, x0 + hn.X0_MARGIN_COEFF * (1.0 + abs(x0)) + 0.5


def test_recovery_after_solve_primal_reuses_its_solve(monkeypatch):
    # solve_primal keeps its solve on the model object: the recovery and
    # find_yhat at the same (spec, x) make no primal interior-point call
    model, x = _kept_instance()
    pr.solve_primal(model, LOG, x)
    calls = _counting_primal_ipm(monkeypatch)
    rec = hn.recover_primal_from_dual(model, LOG, x)
    assert hn.find_yhat(model, LOG, x) == rec.yhat
    assert calls == []


def test_recovery_after_solve_primal_makes_only_its_search_and_certificate(monkeypatch):
    # with the polytope, the x0 LP and the primal solve kept on the model
    # object, a recovery makes its search's dual solves and one LP, the
    # certificate of its ghat, and no primal interior-point call
    model, x = _kept_instance()
    pr.solve_primal(model, LOG, x)
    lps = _counting_lps(monkeypatch)
    calls = _counting_primal_ipm(monkeypatch)
    duals = []
    solve = du._solve_duals

    def counting(model, spec, ys, *args):
        duals.extend(ys)
        return solve(model, spec, ys, *args)

    monkeypatch.setattr(du, "_solve_duals", counting)
    rec = hn.recover_primal_from_dual(model, LOG, x)
    assert lps == ["ghat"]
    assert calls == []
    assert len(duals) == rec.yhat_dual_solves


def test_reused_primal_recovers_what_a_fresh_object_recovers(monkeypatch):
    # the kept solve stands in for one the recovery would make itself: an
    # equal new object, with nothing kept, recovers the same bit for bit
    model, x = _kept_instance()
    pr.solve_primal(model, LOG, x)
    calls = _counting_primal_ipm(monkeypatch)
    kept = hn.recover_primal_from_dual(model, LOG, x)
    fresh = hn.recover_primal_from_dual(dataclasses.replace(model), LOG, x)
    assert calls == [1]
    assert (kept.yhat, kept.yhat_dual_solves, kept.yhat_ipm_iterations, kept.yhat_start) == (
        fresh.yhat, fresh.yhat_dual_solves, fresh.yhat_ipm_iterations, fresh.yhat_start)
    assert kept.dual.z.tobytes() == fresh.dual.z.tobytes()
    assert kept.primal.ghat.tobytes() == fresh.primal.ghat.tobytes()
    assert _identical(kept, fresh)


@pytest.mark.parametrize("change", ["x", "utility", "tie_break", "object"])
def test_recovery_solves_afresh_unless_its_x_was_kept(monkeypatch, change):
    # a kept solve is read only at exactly its (spec, x) on its own object,
    # and a tie-broken solve is not kept
    model, x = _kept_instance()
    pr.solve_primal(model, ut.make_utility("power", 0.5) if change == "utility" else LOG,
                    np.nextafter(x, np.inf) if change == "x" else x,
                    tie_break=change == "tie_break")
    target = dataclasses.replace(model) if change == "object" else model
    calls = _counting_primal_ipm(monkeypatch)
    hn.recover_primal_from_dual(target, LOG, x)
    assert calls == [1]
    # the recovery keeps the solve it made
    hn.find_yhat(target, LOG, x)
    assert calls == [1]


def test_writing_into_a_primal_solution_leaves_the_kept_one_unchanged(monkeypatch):
    # solve_primal and the recovery's start hand out copies of the kept solve
    model, x = _kept_instance()
    expected = hn.recover_primal_from_dual(dataclasses.replace(model), LOG, x)
    sol = pr.solve_primal(model, LOG, x)
    for array in (sol.ghat, sol.wealth, sol.nu):
        array[:] = 7.0
    calls = _counting_primal_ipm(monkeypatch)
    assert _identical(hn.recover_primal_from_dual(model, LOG, x), expected)
    start = pr._kept_solve(model, LOG, x)
    for array in (start.ghat, start.wealth, start.nu):
        array[:] = 7.0
    assert _identical(hn.recover_primal_from_dual(model, LOG, x), expected)
    assert calls == []


def test_a_primal_solve_that_raises_keeps_nothing():
    # below x0 neither solve_primal nor the recovery's own solve keeps
    # anything, and an earlier kept solve stays
    model, x = _kept_instance()
    below = du.compute_x0(model) - 1e-3
    with pytest.raises(BelowX0Error):
        pr.solve_primal(model, LOG, below)
    assert "primal" not in model._phase1
    pr.solve_primal(model, LOG, x)
    kept = model._phase1["primal"]
    for solve in (pr.solve_primal, hn.recover_primal_from_dual):
        with pytest.raises(BelowX0Error):
            solve(model, LOG, below)
        assert model._phase1["primal"] is kept
