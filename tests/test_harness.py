"""Conjugacy certification harness: yhat search, recovery, reports."""

import dataclasses
import json

import numpy as np
import pytest

from tcdl.errors import (
    BelowX0Error, ConfigError, DomainError, MarketError, SolverIndeterminateError,
)
from tcdl.market import binomial_market, build_market, market_to_dict
from tcdl import dual as du
from tcdl import harness as hn
from tcdl import primal as pr
from tcdl import utility as ut

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
    # bracket and root search together stay within ten dual solves (the
    # refinement at the root runs in recover_primal_from_dual)
    spec = ut.make_utility(family, alpha)
    model = hn.random_instance(2011, depth=3, branching=3, lam=0.3, rho=0.3,
                               max_attempts=600)
    x0 = du.compute_x0(model)
    x = x0 + 0.05 * (1.0 + abs(x0)) + 0.5
    calls = []
    solve = du.solve_dual

    def counting(*args, **kwargs):
        calls.append(args[2])
        return solve(*args, **kwargs)

    monkeypatch.setattr(du, "solve_dual", counting)
    hn.find_yhat(model, spec, x)
    assert len(calls) <= 10


def test_yhat_agrees_with_brentq_oracle():
    # criterion 02's instances, both utilities, one offset each
    combos = [(0.01, 2, 3), (0.1, 2, 3), (0.3, 3, 2), (0.3, 3, 3)]
    budget = hn.DEFAULT_TOLERANCES["yhat_root"]
    for k in range(50):
        lam, depth, branching = combos[k % 4]
        model = hn.random_instance(2000 + k, depth=depth, branching=branching, lam=lam,
                                   rho=0.3, max_attempts=600)
        poly = du.cps_polytope(model)
        x0 = du.compute_x0(model, poly)
        x = x0 + 0.05 * (1.0 + abs(x0)) + (0.5, 1.0, 2.0)[k % 3]
        for spec in (LOG, ut.make_utility("power", 0.5)):
            yhat = hn.find_yhat(model, spec, x, polytope=poly, x0=x0)
            expected = find_yhat_by_brentq(model, spec, x, poly, x0)
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
    solve = du.solve_dual

    def stuck(*args, **kwargs):
        calls.append(args[2])
        sol = solve(*args, **kwargs)
        return dataclasses.replace(sol, derivative=residual(len(calls)) - x)

    monkeypatch.setattr(du, "solve_dual", stuck)
    with pytest.raises(SolverIndeterminateError, match="after 20 dual solves"):
        hn.find_yhat(model, LOG, x)
    assert len(calls) == hn.YHAT_MAX_SOLVES
    assert all(y > 0 for y in calls)


def test_yhat_search_without_interior_point_raises():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    poly = dataclasses.replace(du.cps_polytope(model), interior=None)
    with pytest.raises(SolverIndeterminateError, match="empty relative interior"):
        hn.find_yhat(model, LOG, 2.0, polytope=poly, x0=0.5)


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
    # the marginal check reads u'(x) off the primal optimum: no extra solves
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    x0 = du.compute_x0(model)
    calls = []
    solve = pr.solve_primal

    def counting(*args, **kwargs):
        calls.append(args[2])
        return solve(*args, **kwargs)

    monkeypatch.setattr(pr, "solve_primal", counting)
    report = hn.conjugacy_check(model, LOG, [x0 - 0.1, x0 + 0.5, x0 + 1.5], [0.5, 1.0, 2.0])
    assert report.passed
    assert calls == [x0 + 0.5, x0 + 1.5]


def test_envelope_marginal_agrees_with_finite_difference():
    # criterion 02's first ten instances: the report's u'(x) = E[U'(w*)]
    # against a central difference of the primal value, within the check's budget
    for k in range(10):
        lam, depth, branching = _COMBOS[k % 4]
        model = hn.random_instance(2000 + k, depth=depth, branching=branching, lam=lam,
                                   rho=0.3, max_attempts=600)
        poly = du.cps_polytope(model)
        x0 = du.compute_x0(model, poly)
        x = x0 + 0.05 * (1.0 + abs(x0)) + (0.5, 1.0, 2.0)[k % 3]
        for spec in (LOG, ut.make_utility("power", 0.5)):
            report = hn.conjugacy_check(model, spec, [x], [1.0], polytope=poly, x0=x0)
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
    def library(*args):
        return hn._generate_instance(*args)[:2]

    for case in _GENERATED[group]:
        assert _generate(library, *case) == _generate(random_instance_by_lp, *case), case


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
    # the generator's accepted polytope is the one the report uses
    calls = []
    build = du.cps_polytope

    def counting(model):
        calls.append(model)
        return build(model)

    monkeypatch.setattr(du, "cps_polytope", counting)
    report = hn.run_experiment({
        "seed": {"seed": 7, "depth": 2, "branching": 2, "lambda": 0.1, "rho": 0.2},
        "y_grid": [0.5, 1.0, 2.0], "check_marginals": False,
    })
    assert report.passed
    assert len(calls) == report.metadata["source"]["attempts"] == 1


def test_report_records_the_yhat_search():
    report = hn.run_experiment({
        "seed": {"seed": 2011, "depth": 3, "branching": 3, "lambda": 0.3, "rho": 0.3},
        "y_grid": [0.5, 1.0, 2.0], "check_marginals": False,
    })
    assert report.passed and len(report.x_records) == 3
    for rec in report.x_records:
        assert 1 <= rec["yhat_dual_solves"] <= hn.YHAT_MAX_SOLVES
        assert 0.0 <= rec["refine_kkt_residual"] <= 1e-10


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
