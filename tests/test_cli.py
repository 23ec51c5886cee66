"""CLI subcommands, output payloads, and exit codes."""

import concurrent.futures
import contextlib
import copy
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcdl import harness as hn
from tcdl.errors import SolverIndeterminateError
from tcdl.cli import main
from tcdl.market import binomial_market, market_to_dict, save_market


@pytest.fixture()
def market_path(tmp_path):
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    path = tmp_path / "market.json"
    save_market(model, str(path))
    return str(path)


@pytest.fixture()
def out(tmp_path):
    return str(tmp_path / "out")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_price_command(tmp_path, capsys):
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1)
    mpath = tmp_path / "m.json"
    save_market(model, str(mpath))
    ppath = tmp_path / "call.json"
    ppath.write_text(json.dumps({"up": 3.0, "down": 0.0}))
    code, out_text, err = run_cli(capsys, ["price", "--market", str(mpath),
                                           "--payoff", str(ppath)])
    assert code == 0
    assert err == ""
    payload = json.loads(out_text)
    assert payload["superreplication_price"] == pytest.approx(11.0 / 9.0, abs=1e-9)
    assert len(payload["model_hash"]) == 64


@pytest.mark.parametrize("payoff, message", [
    ({"up": "abc", "down": 0.0}, "payoff at leaf 'up' is not a number: 'abc'"),
    ([3.0, 0.0], "payoff file must be a JSON object, got list"),
    ({"up": 3.0, "down": 0.0, "zzz": 1.0}, "payoff keys name no leaf: ['zzz']"),
    ({"up": float("nan"), "down": 0.0}, "payoff has a non-finite entry"),
], ids=["value-abc", "top-level-list", "unknown-leaf", "value-nan"])
def test_malformed_payoff_exits_2(tmp_path, market_path, out, capsys, payoff, message):
    path = tmp_path / "payoff.json"
    path.write_text(json.dumps(payoff))
    code, _, err = run_cli(capsys, ["price", "--market", market_path,
                                    "--payoff", str(path), "--output", out])
    assert code == 2
    assert message in err


def test_csv_fields_holding_commas_are_quoted(tmp_path, out, capsys):
    # a leaf id with a comma stays one field, and so does a failure
    # message with one; every row has its header's width
    spec = market_to_dict(binomial_market(4.0, 8.0, 2.0, lam=0.1))
    spec = json.loads(json.dumps(spec).replace('"up"', '"u,p"'))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(spec))
    code, _, _ = run_cli(capsys, ["primal", "--market", str(mpath), "--utility", "log",
                                  "--x", "2.0", "--output", out])
    assert code == 0
    with open(f"{out}/primal_leaves.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["leaf", "prob", "S_T", "e_T", "ghat", "wealth"]
    assert sorted(row[0] for row in rows[1:]) == ["down", "u,p"]
    assert {len(row) for row in rows} == {6}
    missing = str(tmp_path / "no,such.json")
    code, _, err = run_cli(capsys, ["x0", "--market", missing, "--output", out])
    assert code == 2 and f"cannot read JSON file {missing!r}" in err
    with open(f"{out}/checks.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "location", "value", "tolerance", "passed"]
    assert rows[1][0] == "input-error" and rows[1][2:] == ["nan", "0.0", "False"]
    assert rows[1][1].startswith(f"cannot read JSON file {missing!r}")
    assert {len(row) for row in rows} == {5}


def test_primal_command(market_path, out, capsys):
    code, out_text, _ = run_cli(capsys, [
        "primal", "--market", market_path, "--utility", "log",
        "--x", "2.0", "--output", out])
    assert code == 0
    payload = json.loads(out_text)
    assert set(payload) == {"market", "utility", "x", "value",
                            "kkt_residual", "ghat"}
    assert set(payload["ghat"]) == {"up", "down"}
    with open(f"{out}/primal_leaves.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "leaf,prob,S_T,e_T,ghat,wealth"
    assert len(lines) == 3


def test_dual_command(market_path, out, capsys):
    code, out_text, _ = run_cli(capsys, [
        "dual", "--market", market_path, "--utility", "log",
        "--y", "1.0", "--output", out])
    assert code == 0
    payload = json.loads(out_text)
    assert payload["singular_mass"] == pytest.approx(0.0, abs=1e-9)
    d = payload["leaf_density"]
    assert 0.5 * d["up"] + 0.5 * d["down"] == pytest.approx(1.0, abs=1e-8)


def test_x0_command(market_path, out, capsys):
    code, out_text, _ = run_cli(capsys, ["x0", "--market", market_path,
                                         "--output", out])
    assert code == 0
    payload = json.loads(out_text)
    from tcdl.market import load_market
    from tcdl import dual as du
    assert payload["x0"] == pytest.approx(du.compute_x0(load_market(market_path)))
    # x0 writes no file, so an --output naming a file does not matter
    assert run_cli(capsys, ["x0", "--market", market_path, "--output", market_path])[0] == 0


def test_x0_of_zero_prints_plus_zero(tmp_path, capsys):
    # no endowment: the trade LP's value is 0, and x0 reads 0.0, not -0.0
    path = tmp_path / "m.json"
    save_market(binomial_market(4.0, 8.0, 2.0, lam=0.1), str(path))
    code, out_text, err = run_cli(capsys, ["x0", "--market", str(path)])
    assert (code, err) == (0, "")
    assert '"x0": 0.0' in out_text
    assert np.copysign(1.0, json.loads(out_text)["x0"]) == 1.0


def test_overflowing_power_utility_warns_nothing_before_its_error(tmp_path):
    # U(x) = x^a / a overflows to -inf at a = -1e308 below x = 1, as meant:
    # run as a user runs it, stderr holds the typed error and nothing else
    path = tmp_path / "m.json"
    save_market(binomial_market(4.0, 8.0, 2.0, lam=0.1), str(path))
    src = os.path.dirname(os.path.dirname(hn.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "tcdl.cli", "primal", "--market", str(path),
         "--utility", "power:-1e308", "--x", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: start point is outside the objective domain\n"


@pytest.mark.parametrize("alpha, message", [
    (".", "power utility exponent '.' is not a number"),
    ("e", "power utility exponent 'e' is not a number"),
    ("-", "power utility exponent '-' is not a number"),
    ("1e5e5", "power utility exponent '1e5e5' is not a number"),
    ("-1e-320", "power utility with alpha=-1e-320 is not finite: 1/alpha=-inf, shift=inf"),
    ("1e-320", "power utility with alpha=1e-320 is not finite: 1/alpha=inf, shift=0.0"),
])
@pytest.mark.parametrize("command", [["primal", "--x", "1"], ["dual", "--y", "1"]],
                         ids=["primal", "dual"])
def test_unusable_power_exponent_exits_2(market_path, out, capsys, command, alpha, message):
    code, out_text, err = run_cli(capsys, [command[0], "--market", market_path, "--utility",
                                           f"power:{alpha}", *command[1:], "--output", out])
    assert (code, out_text, err) == (2, "", f"error: {message}\n")


def test_report_command(tmp_path, out, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": {"seed": 5, "depth": 2, "branching": 2, "lambda": 0.1, "rho": 0.2},
        "y_grid": {"min": 0.05, "max": 20.0, "n": 9},
        "check_marginals": False,
    }))
    code, out_text, _ = run_cli(capsys, ["report", "--config", str(cfg),
                                         "--output", out])
    assert code == 0
    payload = json.loads(out_text)
    assert payload["passed"] is True
    assert payload["failed"] == []
    assert payload["n_checks"] > 0


def test_report_market_flag_with_config_naming_no_instance(tmp_path, out, market_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"y_grid": [0.25, 0.5, 1.0, 2.0, 4.0], "check_marginals": False}))
    code, out_text, _ = run_cli(capsys, ["report", "--config", str(cfg),
                                         "--market", market_path, "--output", out])
    assert code == 0
    assert json.loads(out_text)["passed"] is True


def test_report_market_flag_conflicts_with_seed(tmp_path, out, market_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": {"seed": 1}}))
    code, _, err = run_cli(capsys, ["report", "--config", str(cfg),
                                    "--market", market_path, "--output", out])
    assert code == 2
    assert "error:" in err


_SMALL_REPORT = {"seed": {"seed": 1, "depth": 1, "branching": 2, "lambda": 0.1, "rho": 0.2},
                 "y_grid": {"min": 0.1, "max": 10.0, "n": 3}}


@pytest.mark.parametrize("change, message", [
    ({"seed": {"seed": "abc"}}, "config field 'seed.seed' is not a number: 'abc'"),
    ({"x_grid": ["q"]}, "config field 'x_grid[0]' is not a number: 'q'"),
    ({"seed": 5}, "config field 'seed' must be a JSON object, got int"),
    ({"x_offsets": 0.5}, "config field 'x_offsets' must be a nonempty JSON list, got 0.5"),
    ({"utility": 5}, "config field 'utility' must be a str, got 5"),
    ({"y_grid": {"min": 0, "max": 10.0, "n": 3}},
     "config field 'y_grid.min' must be a finite number above 0, got 0"),
    ({"check_marginals": "false"}, "config field 'check_marginals' must be a bool, got 'false'"),
    ({"x_ofsets": [1.0]}, "has unknown keys ['x_ofsets']"),
    ({"x_grid": [10 ** 400]}, "config field 'x_grid[0]' is not a number: 1000"),
    ({"seed": {"seed": 1, "depth": 1, "branching": 0}}, "got depth 1, branching 0"),
    ({"seed": {"seed": 1, "rho": -1}}, "endowment bound rho >= 0, got -1.0"),
    ({"y_grid": {"min": 0.1, "max": 10.0, "n": 10 ** 400}},
     "config field 'y_grid.n' must be at most 10000, got 1000"),
    ({"y_grid": {"min": 0.1, "max": 10.0, "n": 2 ** 63}},
     "config field 'y_grid.n' must be at most 10000, got 9223372036854775808"),
    ({"y_grid": {"min": 0.1, "max": 10.0, "n": 0}},
     "config field 'y_grid.n' must be at least 1, got 0"),
    ({"x_grid": [1.0], "x_offsets": [0.5]},
     "config must name at most one of 'x_grid' or 'x_offsets'"),
    ({"y_grid": [1.0, 1000.0, 1000.0]}, "y grid repeats y=1000.0"),
    ({"y_grid": {"min": 2, "max": 2, "n": 3}}, "y grid repeats y=2.0"),
    ({"utility": "power:1e5e5"}, "power utility exponent '1e5e5' is not a number"),
    ({"utility": "power:-1e-320"}, "power utility with alpha=-1e-320 is not finite"),
], ids=["seed-abc", "x-grid-q", "seed-5", "x-offsets-scalar", "utility-5", "y-min-0",
        "check-marginals-string", "unknown-key", "x-grid-huge-integer", "branching-0",
        "rho-negative", "y-grid-n-huge", "y-grid-n-2-63", "y-grid-n-0", "x-grid-and-offsets",
        "y-grid-repeated", "y-grid-min-equals-max", "utility-unreadable",
        "utility-not-finite"])
def test_malformed_report_config_exits_2(tmp_path, out, capsys, change, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_SMALL_REPORT, **change)))
    code, _, err = run_cli(capsys, ["report", "--config", str(cfg), "--output", out])
    assert code == 2
    assert message in err


def test_selftest_command(out, capsys):
    code, out_text, _ = run_cli(capsys, ["selftest", "--seeds", "1,2",
                                         "--jobs", "1", "--output", out])
    assert code == 0
    payload = json.loads(out_text)
    assert payload == {"passed": True, "results": {"1": True, "2": True}}


def test_selftest_reports_a_raising_seed(out, capsys, monkeypatch):
    # seed 2's run raises: its result reads false, the error is listed, the
    # other seeds keep theirs, and the exit code is the error's own, 3
    run = hn.run_experiment

    def raising(config, output_dir=None):
        if config["seed"]["seed"] == 2:
            raise SolverIndeterminateError("dual solve at y=1000.0: solver status stalled")
        return run(config, output_dir=output_dir)

    monkeypatch.setattr(hn, "run_experiment", raising)
    code, out_text, err = run_cli(capsys, ["selftest", "--seeds", "1..3",
                                           "--jobs", "1", "--output", out])
    assert code == 3
    assert json.loads(out_text) == {
        "passed": False, "results": {"1": True, "2": False, "3": True},
        "errors": {"2": "dual solve at y=1000.0: solver status stalled"}}
    assert "error: seed 2: dual solve at y=1000.0" in err
    with open(f"{out}/checks.csv") as fh:
        assert "solver-indeterminate,seed 2: dual solve at y=1000.0" in fh.read()


@pytest.mark.parametrize("seeds, message", [
    ("abc", "--seeds must be a range a..b or a comma list of integers, got 'abc'"),
    ("", "--seeds must be a range a..b or a comma list of integers, got ''"),
    ("1..x", "--seeds must be a range a..b or a comma list of integers, got '1..x'"),
    ("1,,2", "--seeds must be a range a..b or a comma list of integers, got '1,,2'"),
    ("5..1", "--seeds names no seed: '5..1'"),
    ("0.." + "9" * 30, "--seeds must be a range a..b or a comma list of integers"),
], ids=["abc", "empty", "bound-x", "empty-item", "empty-range", "range-too-long"])
def test_malformed_seeds_exit_2(out, capsys, seeds, message):
    code, out_text, err = run_cli(capsys, ["selftest", "--seeds", seeds,
                                           "--jobs", "1", "--output", out])
    assert code == 2
    assert out_text == ""
    assert message in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_selftest_jobs_below_one_exits_2(out, capsys, monkeypatch, jobs):
    # rejected before any seed runs or any worker process starts
    def no_pool(**kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(hn, "_selftest_one", no_pool)
    code, out_text, err = run_cli(capsys, ["selftest", "--seeds", "1..2",
                                           "--jobs", jobs, "--output", out])
    assert code == 2
    assert out_text == ""
    assert f"--jobs must be at least 1, got {jobs}" in err


def test_invalid_market_exits_2(tmp_path, out, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "nodes": [{"id": "root", "parent": None, "time": 0},
                  {"id": "up", "parent": "root", "time": 1},
                  {"id": "down", "parent": "root", "time": 1}],
        "probabilities": {"up": 0.5, "down": 0.5},
        "prices": {"root": 4.0, "up": -8.0, "down": 2.0},
        "lambda": 0.1,
        "endowment": {},
    }))
    code, _, err = run_cli(capsys, ["x0", "--market", str(bad), "--output", out])
    assert code == 2
    assert "error:" in err
    with open(f"{out}/checks.csv") as fh:
        assert "input-error" in fh.read()


def _spec_without_time():
    spec = market_to_dict(binomial_market(4.0, 8.0, 2.0, lam=0.1))
    del spec["nodes"][1]["time"]
    return spec


def _spec_with_price(price):
    spec = market_to_dict(binomial_market(4.0, 8.0, 2.0, lam=0.1))
    spec["prices"]["up"] = price
    return spec


def _spec_with_nodes(nodes):
    spec = market_to_dict(binomial_market(4.0, 8.0, 2.0, lam=0.1))
    spec["nodes"] = nodes
    return spec


def _spec_with_stray_cond_prob():
    # "ghost" is no child of the root and "nowhere" no node at all; the real
    # children still sum to one, so only the key check can catch them
    spec = market_to_dict(binomial_market(4.0, 8.0, 2.0, lam=0.1))
    del spec["probabilities"]
    spec["cond_prob"] = {"root": {"up": 0.5, "down": 0.5, "ghost": 0.2},
                         "nowhere": {"up": 1.0}}
    return spec


def _spec_with_endowment(value):
    spec = market_to_dict(binomial_market(4.0, 8.0, 2.0, lam=0.1))
    spec["endowment"]["up"] = value
    return spec


def _spec_with_leaf_time(time):
    spec = market_to_dict(binomial_market(4.0, 8.0, 2.0, lam=0.1))
    next(rec for rec in spec["nodes"] if rec["id"] == "up")["time"] = time
    return spec


@pytest.mark.parametrize("spec, message", [
    (_spec_without_time(), "has no ['time']"),
    (_spec_with_price("abc"), "price at node 'up' is not a number: 'abc'"),
    (_spec_with_price(True), "price at node 'up' is not a number: True"),
    (_spec_with_nodes("root"), "'nodes' must be a list"),
    ([1, 2], "market spec must be a JSON object, got list"),
    (_spec_with_stray_cond_prob(),
     "cond_prob keys name no node or no child of their row's node:"
     " ['root->ghost', 'nowhere']"),
    (_spec_with_leaf_time(1.7), "time of node 'up' is not an integer: 1.7"),
    (_spec_with_leaf_time(True), "time of node 'up' is not an integer: True"),
    (_spec_with_endowment(10 ** 400), "endowment at node 'up' is not a number: 1000"),
], ids=["node-without-time", "price-abc", "price-true", "nodes-string", "top-level-list",
        "stray-cond-prob", "time-1.7", "time-true", "endowment-huge-integer"])
def test_malformed_market_exits_2(tmp_path, out, capsys, spec, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, ["x0", "--market", str(path), "--output", out])
    assert code == 2
    assert message in err


_BINOMIAL_SPEC = market_to_dict(binomial_market(4.0, 8.0, 2.0, lam=0.1,
                                                endowment=(0.25, -0.5)))
_DELETE = object()


def _paths(value, prefix=()):
    """Every key path into a JSON value, containers included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    out = []
    for key, child in items:
        out += [prefix + (key,)] + _paths(child, prefix + (key,))
    return out


def _lookup(value, path):
    for key in path:
        value = value[key]
    return value


def _mutable_paths(spec):
    """Each path of a valid spec, and a new key "zz" in each of its objects."""
    return _paths(spec) + [path + ("zz",) for path in [()] + _paths(spec)
                           if isinstance(_lookup(spec, path), dict)]


def _mutated(spec, mutations):
    # each mutation replaces or deletes one entry of the valid spec; one that
    # no longer finds its path after an earlier mutation is skipped
    spec = copy.deepcopy(spec)
    for path, value in mutations:
        with contextlib.suppress(KeyError, IndexError, TypeError):
            parent = _lookup(spec, path[:-1])
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
    return spec


def _mutations(spec, values):
    return st.lists(st.tuples(st.sampled_from(_mutable_paths(spec)), st.just(_DELETE) | values),
                    min_size=1, max_size=3)


def _documents(spec, values):
    """The valid spec with one to three entries mutated, or a bare value in its place."""
    return _mutations(spec, values).map(lambda mutations: _mutated(spec, mutations)) | values


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_mutations(_BINOMIAL_SPEC, _JSON))
def test_mutated_market_ends_in_documented_exit_code(tmp_path_factory, mutations):
    work = tmp_path_factory.mktemp("mutated")
    (work / "market.json").write_text(json.dumps(_mutated(_BINOMIAL_SPEC, mutations)))
    code = main(["x0", "--market", str(work / "market.json"), "--output", str(work / "out")])
    assert code in (0, 1, 2, 3)


_PAYOFF = {"up": 3.0, "down": 0.0}


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_documents(_PAYOFF, _JSON))
def test_mutated_payoff_ends_in_documented_exit_code(tmp_path_factory, payoff):
    work = tmp_path_factory.mktemp("mutated")
    save_market(binomial_market(4.0, 8.0, 2.0, lam=0.1), str(work / "market.json"))
    (work / "payoff.json").write_text(json.dumps(payoff))
    code = main(["price", "--market", str(work / "market.json"),
                 "--payoff", str(work / "payoff.json"), "--output", str(work / "out")])
    assert code in (0, 1, 2, 3)


_REPORT_CONFIG = {"utility": "log", "x_offsets": [0.5, 1.0],
                  "y_grid": {"min": 0.5, "max": 2.0, "n": 3}, "check_marginals": False}
# Integers stay at most 2 or are too large for any count, so that no mutated
# y_grid.n asks for a long grid.
_CONFIG_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.sampled_from([-1, 0, 1, 2, 2 ** 63, 10 ** 400, -10 ** 400])
    | st.sampled_from([0.0, -0.5, 0.5, 2.5, 1e-300, 1e300,
                       float("nan"), float("inf"), float("-inf")]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_documents(_REPORT_CONFIG, _CONFIG_JSON))
def test_mutated_report_config_ends_in_documented_exit_code(tmp_path_factory, config):
    work = tmp_path_factory.mktemp("mutated")
    save_market(binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5)),
                str(work / "market.json"))
    (work / "cfg.json").write_text(json.dumps(config))
    code = main(["report", "--config", str(work / "cfg.json"),
                 "--market", str(work / "market.json"), "--output", str(work / "out")])
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("utility, y, codes", [("log", 1e-160, (0, 1)), ("log", 1e160, (0, 1)),
                                               ("power:0.5", 1e-160, (2,))])
def test_report_at_extreme_y(tmp_path, market_path, out, capsys, utility, y, codes):
    # the log dual's Hessian is 1/d^2 whatever y is, so log solves at any y;
    # power:0.5 at y = 1e-160 has I(y) = 1e320, an input error naming y
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"utility": utility, "y_grid": [y], "check_marginals": False}))
    code, _, err = run_cli(capsys, ["report", "--config", str(tmp_path / "cfg.json"),
                                    "--market", market_path, "--output", out])
    assert code in codes, err
    if code == 2:
        assert f"dual at y={y!r}: y I(y z) or V(y z) is not a finite float" in err


def _unreadable(tmp_path, case):
    """A path whose content no JSON reader can return as a document."""
    path = tmp_path / f"{case}.json"
    if case == "not-utf8":
        path.write_bytes(b"\xff{}")
    elif case == "deep-nesting":
        path.write_text("[" * 100_000)
    else:
        path.mkdir()
    return str(path)


def _site_argv(tmp_path, site, bad, market_path, out):
    """The CLI call that reads ``bad`` at one of the four JSON input sites."""
    if site == "market":
        return ["x0", "--market", bad, "--output", out]
    if site == "config-market":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"market": bad, "y_grid": [1.0]}))
        return ["report", "--config", str(cfg), "--output", out]
    if site == "payoff":
        return ["price", "--market", market_path, "--payoff", bad, "--output", out]
    return ["report", "--config", bad, "--market", market_path, "--output", out]


@pytest.mark.parametrize("site", ["market", "config-market", "payoff", "config"])
@pytest.mark.parametrize("case", ["not-utf8", "deep-nesting", "directory"])
def test_unreadable_json_file_exits_2(tmp_path, market_path, out, capsys, case, site):
    bad = _unreadable(tmp_path, case)
    code, out_text, err = run_cli(capsys, _site_argv(tmp_path, site, bad, market_path, out))
    assert code == 2
    assert out_text == ""
    assert f"cannot read JSON file {bad!r}" in err


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_JSON.map(lambda doc: json.dumps(doc).encode()) | st.binary(max_size=32))
def test_any_document_in_place_of_a_market_exits_2(tmp_path_factory, document):
    # no document this small describes a market, so each one is an input error
    work = tmp_path_factory.mktemp("document")
    (work / "market.json").write_bytes(document)
    code = main(["x0", "--market", str(work / "market.json"), "--output", str(work / "out")])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["x0", "--market", "/no/such/file.json"], "cannot read JSON file '/no/such/file.json'"),
    (["primal", "--market", "MARKET", "--utility", "log", "--x", "2.0"], "cannot write output"),
    (["report", "--config", "CONFIG"], "cannot write output"),
], ids=["input-error", "primal", "report"])
def test_output_naming_a_file_exits_2(tmp_path, market_path, capsys, argv, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"market": market_path, "y_grid": [1.0],
                                  "x_offsets": [1.0], "check_marginals": False}))
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    argv = [{"MARKET": market_path, "CONFIG": str(config)}.get(a, a) for a in argv]
    code, _, err = run_cli(capsys, argv + ["--output", str(taken)])
    assert code == 2
    assert message in err
    assert str(taken) in err
    assert taken.read_text() == "kept\n"


def test_missing_file_exits_2(out, capsys):
    code, _, err = run_cli(capsys, ["x0", "--market", "/no/such/file.json",
                                    "--output", out])
    assert code == 2


def test_bad_utility_exits_2(market_path, out, capsys):
    code, _, _ = run_cli(capsys, ["primal", "--market", market_path,
                                  "--utility", "exp", "--x", "1.0",
                                  "--output", out])
    assert code == 2


@pytest.mark.parametrize("x", ["nan", "inf"])
def test_non_finite_x_exits_2(market_path, out, capsys, x):
    code, _, err = run_cli(capsys, ["primal", "--market", market_path,
                                    "--utility", "log", "--x", x, "--output", out])
    assert code == 2
    assert f"primal solve needs a finite x, got x={x}" in err


def test_below_x0_exits_1(market_path, out, capsys):
    code, _, err = run_cli(capsys, ["primal", "--market", market_path,
                                    "--utility", "log", "--x", "-5.0",
                                    "--output", out])
    assert code == 1
    with open(f"{out}/checks.csv") as fh:
        assert "below-x0" in fh.read()


def _near_flat(eps):
    return binomial_market(1.0, 1.0 + eps, 1.0 + eps, lam=0.0, endowment=(0.1, -0.1))


_COMMANDS = ("x0", "primal", "dual", "price")


@pytest.mark.parametrize("model, command", [
    *(pytest.param(binomial_market(4.0, 8.0, 6.0, lam=0.0), c, id=c) for c in _COMMANDS),
    *(pytest.param(_near_flat(1e-10), c, id=f"near-flat-{c}") for c in _COMMANDS),
    pytest.param(_near_flat(2.0 ** -52), "dual", id="ulp-above-flat-dual"),
])
def test_arbitrage_market_exits_3(tmp_path, out, capsys, model, command):
    # both branch prices above the initial ask with no spread: the polytope
    # paths and the trade-side LP must refuse the market alike, also with
    # the children 1e-10 above it.  At one ulp above, below the LPs'
    # feasibility tolerance, the dual solve still ends in a typed error.
    mpath = tmp_path / "arb.json"
    save_market(model, str(mpath))
    ppath = tmp_path / "payoff.json"
    ppath.write_text(json.dumps({"up": 1.0, "down": 0.0}))
    extra = {"x0": [], "primal": ["--utility", "log", "--x", "1.0"],
             "dual": ["--utility", "log", "--y", "1.0"], "price": ["--payoff", str(ppath)]}
    code, _, err = run_cli(capsys, [command, "--market", str(mpath), *extra[command],
                                    "--output", out])
    assert code == 3, err
    with open(f"{out}/checks.csv") as fh:
        assert "solver-indeterminate" in fh.read()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_arg_exits_2(capsys):
    assert main(["price", "--market", "m.json"]) == 2
    capsys.readouterr()


def test_output_dir_from_environment(market_path, tmp_path, capsys, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("TCDL_OUTPUT_DIR", str(env_out))
    code, _, _ = run_cli(capsys, ["primal", "--market", market_path,
                                  "--utility", "log", "--x", "2.0"])
    assert code == 0
    assert (env_out / "primal_leaves.csv").exists()


def test_cli_stdout_deterministic(market_path, out, capsys):
    argv = ["dual", "--market", market_path, "--utility", "log", "--y", "0.5",
            "--output", out]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
