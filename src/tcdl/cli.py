"""Command-line interface.

Subcommands: price, primal, dual, x0, report, selftest.  Exit codes:
0 success and all checks passed, 1 check failure, 2 input error (an
output that cannot be written included), 3 solver numerically
indeterminate.  The output directory comes from --output, or the
TCDL_OUTPUT_DIR environment variable, or ./tcdl_out.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import dual as du
from . import primal as pr
from . import utility as ut
from .errors import (
    BelowX0Error, ConfigError, DomainError, MarketError,
    NoConsistentPriceSystemError, SolverIndeterminateError, TcdlError,
)
from .harness import model_hash, run_experiment, selftest, write_csv
from .market import load_market, read_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INDETERMINATE = 3


# Per package error type, in the order they are tested: the name of its
# failure record and its exit code.
_ERROR_EXITS = (
    ((MarketError, DomainError, ConfigError), "input-error", EXIT_INPUT_ERROR),
    ((SolverIndeterminateError, NoConsistentPriceSystemError), "solver-indeterminate",
     EXIT_INDETERMINATE),
    (BelowX0Error, "below-x0", EXIT_CHECK_FAILED),
    (TcdlError, "check-failure", EXIT_CHECK_FAILED),
)


def _error_exit(exc: TcdlError) -> tuple[str, int]:
    """The failure-record name and exit code of a package error."""
    return next((name, code) for kinds, name, code in _ERROR_EXITS if isinstance(exc, kinds))


def _output_dir(args) -> str:
    if getattr(args, "output", None):
        return args.output
    return os.environ.get("TCDL_OUTPUT_DIR", "tcdl_out")


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _parse_seed_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(s) for s in text.split(",")]
    except (ValueError, OverflowError):
        raise ConfigError(f"--seeds must be a range a..b or a comma list of integers, "
                          f"got {text!r}") from None
    if not seeds:
        raise ConfigError(f"--seeds names no seed: {text!r}")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tcdl",
                                description="Utility-maximization duality under "
                                            "proportional transaction costs on finite trees")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="output directory (default $TCDL_OUTPUT_DIR or ./tcdl_out)")

    sp = sub.add_parser("price", parents=[common], help="superreplication price of a payoff")
    sp.add_argument("--market", required=True)
    sp.add_argument("--payoff", required=True, help="JSON file: leaf id -> value")

    sp = sub.add_parser("primal", parents=[common], help="maximize expected utility from x")
    sp.add_argument("--market", required=True)
    sp.add_argument("--utility", required=True, help="log or power:<alpha>")
    sp.add_argument("--x", required=True, type=float)
    sp.add_argument("--tie-break", action="store_true",
                    help="minimal-turnover strategy among optimal payoffs")

    sp = sub.add_parser("dual", parents=[common], help="solve the dual problem at y")
    sp.add_argument("--market", required=True)
    sp.add_argument("--utility", required=True)
    sp.add_argument("--y", required=True, type=float)

    sp = sub.add_parser("x0", parents=[common], help="infeasibility threshold x0")
    sp.add_argument("--market", required=True)

    sp = sub.add_parser("report", parents=[common], help="full duality report from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--market", help="market file (conflicts with a seed in the config)")

    sp = sub.add_parser("selftest", parents=[common], help="seeded end-to-end self test")
    sp.add_argument("--seeds", required=True, help="range a..b or comma list")
    sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    return p


def _write_failure_record(out_dir: str, name: str, detail: str) -> None:
    """Append the failure to ``checks.csv``; an unwritable output directory
    is noted on stderr and leaves the original error and exit code in place."""
    path = os.path.join(out_dir, "checks.csv")
    try:
        os.makedirs(out_dir, exist_ok=True)
        new = not os.path.exists(path)
        with open(path, "a", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if new:
                writer.writerow(["name", "location", "value", "tolerance", "passed"])
            writer.writerow([name, detail, float("nan"), 0.0, False])
    except OSError as exc:
        print(f"note: no failure record written: {exc}", file=sys.stderr)


def _cmd_price(args) -> int:
    model = load_market(args.market)
    payoff = pr.PayoffVector.from_leaf_dict(model, read_json(args.payoff))
    price = du.superreplication_price(model, payoff.vector())
    _emit({"market": args.market, "model_hash": model_hash(model),
           "superreplication_price": price})
    return EXIT_OK


def _cmd_primal(args) -> int:
    model = load_market(args.market)
    spec = ut.parse_utility(args.utility)
    sol = pr.solve_primal(model, spec, args.x, tie_break=args.tie_break)
    tree = model.tree
    _emit({
        "market": args.market, "utility": spec.label(), "x": args.x,
        "value": sol.value, "kkt_residual": sol.kkt_residual,
        "ghat": {tree.node_ids[leaf]: float(sol.ghat[i])
                 for i, leaf in enumerate(tree.leaves)},
    })
    out = _output_dir(args)
    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "primal_leaves.csv"),
              ["leaf", "prob", "S_T", "e_T", "ghat", "wealth"],
              [[tree.node_ids[leaf], tree.prob[i], model.ask_price[leaf],
                model.endowment[i], float(sol.ghat[i]), float(sol.wealth[i])]
               for i, leaf in enumerate(tree.leaves)])
    return EXIT_OK


def _cmd_dual(args) -> int:
    model = load_market(args.market)
    spec = ut.parse_utility(args.utility)
    sol = du.solve_dual(model, spec, args.y)
    tree = model.tree
    _emit({
        "market": args.market, "utility": spec.label(), "y": args.y,
        "value": sol.value, "v_prime": sol.derivative,
        "singular_mass": sol.singular_mass,
        "kkt_residual": sol.kkt_residual,
        "leaf_density": {tree.node_ids[leaf]: sol.optimizer.z0[leaf]
                         for leaf in tree.leaves},
    })
    return EXIT_OK


def _cmd_x0(args) -> int:
    model = load_market(args.market)
    _emit({"market": args.market, "x0": du.compute_x0(model)})
    return EXIT_OK


def _cmd_report(args) -> int:
    config = read_json(args.config, ConfigError)
    if args.market:
        if not isinstance(config, dict) or "seed" in config or "market" in config:
            raise ConfigError("--market needs a config object that names no market or seed")
        config["market"] = args.market
    out = _output_dir(args)
    report = run_experiment(config, output_dir=out)
    _emit({"passed": report.passed, "x0": report.x0,
           "n_checks": len(report.checks),
           "failed": [c for c in report.checks if not c["passed"]]})
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_selftest(args) -> int:
    """Per seed ``true`` or ``false`` in ``results``; a seed whose run raised
    reads ``false``, is listed under ``errors`` and sets the exit code to the
    one its error gives any other command (the first such seed's)."""
    out = _output_dir(args)
    seeds = _parse_seed_range(args.seeds)
    results = selftest(seeds, output_dir=out, jobs=args.jobs)
    errors = {seed: exc for seed, exc in results.items() if isinstance(exc, TcdlError)}
    passed = all(ok is True for ok in results.values())
    payload = {"results": {str(k): ok is True for k, ok in results.items()}, "passed": passed}
    if errors:
        payload["errors"] = {str(seed): str(exc) for seed, exc in errors.items()}
    _emit(payload)
    for seed, exc in errors.items():
        print(f"error: seed {seed}: {exc}", file=sys.stderr)
        _write_failure_record(out, _error_exit(exc)[0], f"seed {seed}: {exc}")
    if errors:
        return _error_exit(next(iter(errors.values())))[1]
    return EXIT_OK if passed else EXIT_CHECK_FAILED


_COMMANDS = {
    "price": _cmd_price,
    "primal": _cmd_primal,
    "dual": _cmd_dual,
    "x0": _cmd_x0,
    "report": _cmd_report,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    out_dir = _output_dir(args)
    try:
        return _COMMANDS[args.command](args)
    except TcdlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        name, code = _error_exit(exc)
        _write_failure_record(out_dir, name, str(exc))
        return code
    except OSError as exc:
        # Input files are read by market.read_json, which raises typed
        # errors, so what is left is an output that cannot be written.
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
