"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line with the measured worst-case value next to its tolerance;
the lines are also replayed in the terminal summary so they show under
pytest's default capture, not only with ``-s``.
"""

import filecmp
import json
import sys
import time

import numpy as np
import pytest

import conftest
from tcdl.errors import BelowX0Error, SolverIndeterminateError
from tcdl.market import binomial_market
from tcdl import dual as du
from tcdl import harness as hn
from tcdl import primal as pr
from tcdl import utility as ut

LOG = ut.make_utility("log")
POWER = ut.make_utility("power", 0.5)

# (lambda, depth, branching) combinations with a comfortably nonempty
# price-system polytope; cycled to cover the stated parameter ranges.
COMBOS = [(0.01, 2, 3), (0.1, 2, 3), (0.3, 3, 2), (0.3, 3, 3)]


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    sys.stdout.flush()
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line


def _instance(seed: int, k: int, rho: float):
    lam, depth, branching = COMBOS[k % len(COMBOS)]
    return hn.random_instance(seed + k, depth=depth, branching=branching,
                              lam=lam, rho=rho, max_attempts=600)


def test_criterion_01_superreplication_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    n_checked = 0
    for k in range(200):
        model = _instance(1000, k, rho=0.0)
        L = len(model.tree.leaves)
        g = rng.uniform(-1.0, 2.0, size=L)     # bounded below
        price = du.superreplication_price(model, g)
        for x in (price - 1e-4, price + 1e-4,
                  price + float(rng.uniform(0.1, 2.0))):
            attainable = pr.is_attainable(model, g, x, tol=1e-8)
            dominated = price <= x + 1e-8
            assert attainable == dominated, (
                f"instance {1000 + k}: attainable={attainable} but "
                f"price {price} vs x {x}")
            n_checked += 1
    elapsed = time.monotonic() - t0
    _report(1, "superreplication equivalence", elapsed < 60.0,
            f"{n_checked} boundary/interior checks on 200 instances agree "
            f"(tol 1e-8), {elapsed:.1f}s < 60s")


@pytest.fixture(scope="module")
def duality_runs():
    """Shared instance sweep for criteria 2, 3, and 8."""
    t0 = time.monotonic()
    records = []
    for k in range(50):
        model = _instance(2000, k, rho=0.3)
        x0 = du.compute_x0(model)
        margin = 0.05 * (1.0 + abs(x0))
        for spec in (LOG, POWER):
            for offset in (0.5, 1.0, 2.0):
                x = x0 + margin + offset
                psol = pr.solve_primal(model, spec, x)
                # the recovery at x starts from the primal solve just made
                rec = hn.recover_primal_from_dual(model, spec, x)
                slack = hn.slackness_check(model, rec.primal, rec.dual)
                gap = psol.value - (rec.dual.value + x * rec.yhat)
                records.append({
                    "instance": 2000 + k, "utility": spec.label(), "x": x,
                    "u": psol.value,
                    "rel_gap": abs(gap) / (1.0 + abs(psol.value)),
                    "attainable": rec.attainable,
                    "recovery_value": rec.primal.value,
                    "r1": slack.r1, "r2": slack.r2,
                    "yhat_start": rec.yhat_start,
                })
    return records, time.monotonic() - t0


def test_criterion_02_strong_duality(duality_runs):
    records, elapsed = duality_runs
    worst = max(r["rel_gap"] for r in records)
    _report(2, "strong duality", worst <= 1e-5 and elapsed < 300.0,
            f"worst relative gap {worst:.3e} <= 1e-5 over "
            f"{len(records)} (instance, utility, x) runs, {elapsed:.1f}s < 300s")


def test_every_criterion_02_search_starts_from_its_primal_optimum(duality_runs):
    records, _ = duality_runs
    assert [r for r in records if r["yhat_start"] != "primal"] == []


def test_criterion_03_optimizer_recovery(duality_runs):
    records, _ = duality_runs
    all_attainable = all(r["attainable"] for r in records)
    worst_deficit = max(r["u"] - r["recovery_value"] for r in records)
    _report(3, "optimizer recovery",
            all_attainable and worst_deficit <= 1e-6,
            f"all {len(records)} recovered payoffs attainable from 0, "
            f"worst utility deficit {worst_deficit:.3e} <= 1e-6")


def test_criterion_04_envelope_derivative():
    worst = 0.0
    for k in range(20):
        model = _instance(3000, k, rho=0.2)
        for y in (0.1, 1.0, 10.0):
            h = 1e-3 * y
            sol = du.solve_dual(model, LOG, y)
            v_hi = du.solve_dual(model, LOG, y + h).value
            v_lo = du.solve_dual(model, LOG, y - h).value
            fd = (v_hi - v_lo) / (2.0 * h)
            worst = max(worst, abs(sol.derivative - fd) / (1.0 + abs(fd)))
    _report(4, "envelope derivative", worst <= 1e-4,
            f"worst relative error vs central difference {worst:.3e} <= 1e-4 "
            f"at y in {{0.1, 1, 10}} on 20 instances")


def test_criterion_05_x0_characterization():
    depth2 = [(0.01, 2, 3), (0.1, 2, 3), (0.3, 2, 2)]
    worst = 0.0
    for k in range(20):
        lam, depth, branching = depth2[k % len(depth2)]
        model = hn.random_instance(500 + k, depth=depth, branching=branching,
                                   lam=lam, rho=0.5, max_attempts=600)
        x0 = du.compute_x0(model)
        v_a = du.solve_dual(model, LOG, 600.0).value
        v_b = du.solve_dual(model, LOG, 1000.0).value
        slope = (v_b - v_a) / 400.0
        worst = max(worst, abs(-slope - x0))
        # positivity certificate below the threshold
        t_star, _ = pr.max_min_wealth(model, x0 - 0.1)
        assert t_star <= 1e-9
        with pytest.raises(BelowX0Error):
            pr.solve_primal(model, LOG, x0 - 0.1)
    _report(5, "x0 characterization", worst <= 1e-2,
            f"worst |large-y slope + x0| {worst:.3e} <= 1e-2 and primal "
            f"infeasibility certified at x0 - 0.1 on 20 instances")


def test_criterion_06_frictionless_regression():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.0)
    psol = pr.solve_primal(model, LOG, 1.0)
    err_u = abs(psol.value - 0.5 * np.log(1.125))
    yhat = hn.find_yhat(model, LOG, 1.0)
    err_y = abs(yhat - 1.0)
    share = psol.strategy.phi1[0]          # post-trade stock at the root
    err_share = abs(share - 0.125)
    dsol = du.solve_dual(model, LOG, yhat)
    z0 = np.array(dsol.optimizer.z0)[list(model.tree.leaves)]
    err_z = float(np.abs(z0 - np.array([4.0 / 3.0, 2.0 / 3.0])).max())
    passed = (err_u <= 1e-6 and err_y <= 1e-4
              and err_share <= 1e-5 and err_z <= 1e-6)
    _report(6, "frictionless regression", passed,
            f"u(1) err {err_u:.2e} <= 1e-6, yhat err {err_y:.2e} <= 1e-4, "
            f"share err {err_share:.2e} <= 1e-5, density err {err_z:.2e} <= 1e-6")


def test_criterion_07_conjugate_identities():
    worst = 0.0
    ys = np.logspace(-2, 2, 33)
    xs = np.logspace(-2, 2, 33)
    for spec in (LOG, POWER, ut.make_utility("power", -1.0)):
        i_y = ut.i_eval(spec, ys)
        # V(y) = U(I(y)) - y I(y)
        lhs = ut.v_eval(spec, ys)
        rhs = ut.u_eval(spec, i_y) - ys * i_y
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs)))))
        # U'(I(y)) = y and I(U'(x)) = x
        worst = max(worst, float(np.max(
            np.abs(ut.u_prime(spec, i_y) - ys) / (1.0 + ys))))
        worst = max(worst, float(np.max(
            np.abs(ut.i_eval(spec, ut.u_prime(spec, xs)) - xs) / (1.0 + xs))))
        # Fenchel-Young inequality on the product grid
        fy = (ut.v_eval(spec, ys)[None, :] + xs[:, None] * ys[None, :]
              - ut.u_eval(spec, xs)[:, None])
        worst = max(worst, float(max(0.0, -fy.min())))
    _report(7, "conjugate identities", worst <= 1e-10,
            f"worst grid residual {worst:.3e} <= 1e-10 for log and power")


def test_criterion_08_complementary_slackness(duality_runs):
    records, _ = duality_runs
    worst = max(max(r["r1"], r["r2"]) for r in records)
    _report(8, "complementary slackness", worst <= 1e-6,
            f"worst residual max(r1, r2) {worst:.3e} <= 1e-6 over "
            f"{len(records)} runs")


def test_criterion_09_dual_optimizer_uniqueness():
    rng = np.random.default_rng(9)
    worst = 0.0
    for k in range(10):
        model = _instance(4000, k, rho=0.2)
        poly = du.cps_polytope(model)
        leaves = list(model.tree.leaves)
        densities = []
        for _ in range(5):
            # random vertex of the polytope, pulled strictly inside
            from tcdl.solver import LinearProgram, solve_lp
            c = rng.normal(size=poly.n_vars)
            vert = solve_lp(LinearProgram(c=c, A_ub=poly.G, b_ub=poly.h,
                                          A_eq=poly.A, b_eq=poly.b,
                                          lb=None, sense="max")).z
            w = float(rng.uniform(0.3, 0.9))
            start = w * vert + (1.0 - w) * poly.interior
            sol = None
            for tol in (1e-12, 3e-12, 1e-11, 1e-10):
                try:
                    sol = du.solve_dual(model, LOG, 1.0, start=start, tol=tol)
                    break
                except SolverIndeterminateError:
                    continue
            assert sol is not None, f"all restart solves stalled on {4000 + k}"
            densities.append(np.array(sol.optimizer.z0)[leaves])
        stack = np.vstack(densities)
        worst = max(worst, float((stack.max(axis=0) - stack.min(axis=0)).max()))
    _report(9, "dual optimizer uniqueness", worst <= 1e-6,
            f"worst z0_T spread over 5 restarts {worst:.3e} <= 1e-6 "
            f"on 10 instances")


def test_criterion_10_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    res_a = hn.selftest(range(1, 11), str(out_a), jobs=4)
    res_b = hn.selftest(range(1, 11), str(out_b), jobs=4)
    all_passed = all(res_a.values()) and res_a == res_b
    dirs_a = sorted(p.name for p in out_a.iterdir())
    dirs_b = sorted(p.name for p in out_b.iterdir())
    identical = dirs_a == dirs_b
    n_files = 0
    if identical:
        for name in dirs_a:
            cmp = filecmp.dircmp(out_a / name, out_b / name)
            if cmp.diff_files or cmp.left_only or cmp.right_only:
                identical = False
                break
            for f in cmp.common_files:
                identical &= (out_a / name / f).read_bytes() == \
                             (out_b / name / f).read_bytes()
                n_files += 1
    _report(10, "determinism", all_passed and identical,
            f"selftest seeds 1..10 passed twice with {n_files} byte-identical "
            f"report files")
