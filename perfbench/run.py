"""tcdl benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload recovery-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up the workload several times (import in a fresh
interpreter, instance generation with every ``random_instance`` rejection,
and a warm-up recovery), then runs its items in a closed loop until
``--seconds`` have passed and the pass in progress is done, and reports the
end-to-end metrics.  ``--trace 1`` sets up once and runs exactly one pass
over the items with the outside-in tracer installed, so the per-layer counts
repeat exactly; it reports the per-layer metrics and writes the spans to
``.perfbench_out/``.

Every item is gated for correctness; an item that raises or fails its gate
counts as failed and is never dropped.  ``correct`` is false when a returned
result fails its gate or an untyped exception escapes; the library's typed
refusal (a ``TcdlError`` such as ``SolverIndeterminateError``, exit code 3 of
the CLI) counts as failed but not as a wrong answer.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``;
the line before it holds the details (machine block, instance seeds, tail
percentiles, per-command times).  Exit code 2 means the library could not be
found or imported from ``src/`` next to this directory; a set-up that raises
exits 1 with its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import LAYER_METRICS, Tracer, layer_metrics

WORKLOAD_NAMES = ("recovery-sweep", "selftest", "deep-tree")
SETUP_REPEATS = 3
# item_ref_gmean: the geometric mean over items of (item seconds / seconds of
# the reference kernel timed next to it).  The geometric mean weighs every
# item's relative speed alike: the sweep's runs span ten times in duration, so
# its median falls between clusters and its throughput follows the slowest
# instances.  The reference cancels the shared machine's speed swings.
# setup_s: the median set-up, each divided by the reference timed around it
# and given back in seconds at REFERENCE_S, the reference kernel's median time
# on the 2-vCPU x86 machine the bounds were set on.
END_TO_END = {"setup_s": "s", "item_ref_gmean": "ref", "peak_rss_mb": "MB"}
REFERENCE_S = 0.007

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _import_library():
    """Import tcdl from this checkout's src/ (never from an installed copy)."""
    src = ROOT / "src"
    if not (src / "tcdl" / "__init__.py").is_file():
        raise ImportError(f"no tcdl package under {src}")
    sys.path.insert(0, str(src))
    import tcdl
    if src.resolve() not in Path(tcdl.__file__).resolve().parents:
        raise ImportError(f"tcdl imported from {tcdl.__file__}, not from {src}")
    import workloads
    return workloads


def _blas_threads():
    """OpenBLAS thread count, asked of the library numpy loaded; None if unknown."""
    import ctypes
    import glob
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def machine_block(loadavg) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "loadavg_at_start": list(loadavg),
        "jobs": 1,
    }


class Reference:
    """A fixed mix of interpreter work and small dense solves, timed between items.

    The machine the benchmark runs on may be shared, and its speed can swing
    threefold within seconds.  An item's time divided by the mean of the two
    reference timings around it moves about half as much with that load as
    the raw time does, and not at all with the program under test.  The
    solves are small enough that OpenBLAS runs them on one thread: a
    multi-threaded reference tracked the load worse than none.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        a = rng.normal(size=(60, 60))
        self._a = a @ a.T + 60 * np.eye(60)
        self._b = rng.normal(size=60)
        self._solve = np.linalg.solve
        # Larger than the caches, so the reference also feels memory contention.
        # It adds about 8 MB to peak_rss_mb, the same on every run.
        self._objects = [float(v) for v in rng.normal(size=200_000)]

    def seconds(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(40000):
            acc += i * 0.5
        for _ in range(40):
            self._solve(self._a, self._b)
        acc += sum(self._objects)
        return time.perf_counter() - t0

    def median_seconds(self, k: int = 5) -> float:
        """Median of ``k`` timings: a single 7 ms timing is too jumpy to scale
        a set-up by, with only three set-ups to take the median of."""
        return statistics.median(self.seconds() for _ in range(k))


def _tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it."""
    p = int(100 - 1000 / n) if n else 0
    return p if p > 50 else None


def _import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the library, start-up excluded."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import tcdl; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def _setup_ref(wl_mod, wl, seed: int, scratch: str, ref: Reference):
    """Set up ``SETUP_REPEATS`` times; return the last state and each set-up's
    ``(seconds, seconds / reference seconds)``."""
    clock = time.perf_counter
    timings = []
    ref_before = ref.median_seconds()
    for _ in range(SETUP_REPEATS):
        import_s = _import_seconds()
        t0 = clock()
        wl_mod.warm_up(seed)
        state = wl.setup(seed, scratch)
        secs = import_s + clock() - t0
        ref_after = ref.median_seconds()
        timings.append((secs, secs / (0.5 * (ref_before + ref_after))))
        ref_before = ref_after
    return state, timings


def _run_items(wl_mod, wl, state, deadline_s: float | None, failures: list,
               ref: Reference):
    """Closed loop over the items: one pass, or whole passes until ``deadline_s``.

    Returns ``(seconds, seconds / reference seconds, outcome, verdict)`` per
    item.  The verdict is ``ok``; ``wrong`` when the gate rejects a returned
    result; ``refused`` when the library raises its own typed error (a
    documented "could not certify" outcome); ``error`` for anything else.
    """
    items = wl.items(state)
    clock = time.perf_counter
    records = []
    t_start = clock()
    ref_before = ref.seconds()
    i = 0
    while True:
        item = items[i % len(items)]
        t0 = clock()
        try:
            out = wl.run_item(state, item)
            verdict = "ok" if out.ok else "wrong"
        except wl_mod.TcdlError as exc:   # the library's typed refusal, e.g. exit 3
            out, verdict = None, "refused"
            note = f"{item!r}: {type(exc).__name__}: {exc}"
        except Exception as exc:          # an untyped error is a defect, never a crash here
            out, verdict = None, "error"
            note = f"{item!r}: {traceback.format_exception_only(exc)[-1].strip()}"
        else:
            note = f"{item!r}: correctness gate failed"
        elapsed = clock() - t0
        ref_after = ref.seconds()
        if verdict != "ok" and len(failures) < 5:
            failures.append(note)
        records.append((elapsed, elapsed / (0.5 * (ref_before + ref_after)), out, verdict))
        ref_before = ref_after
        i += 1
        if i % len(items) == 0 and (deadline_s is None or clock() - t_start >= deadline_s):
            break
    return records, clock() - t_start


def _summary(wl, records, passes: int, wall_s: float) -> dict:
    """Raw-second figures for the detail line; ``cmd_s.*`` is summed over one pass."""
    times = [r[0] for r in records]
    n = len(times)
    kind = wl.item_kind
    d = {"item_kind": kind, "items": n, "wall_s": wall_s,
         f"{kind}_s_p50": statistics.median(times), f"{kind}s_per_s": n / wall_s}
    tail = _tail_percentile(n)
    if tail is not None:
        d[f"{kind}_s_p{tail}"] = statistics.quantiles(times, n=100, method="inclusive")[tail - 1]
    phases = {}
    for _, _, out, _ in records:
        for name, sec in (out.phases if out is not None else {}).items():
            phases[name] = phases.get(name, 0.0) + sec
    for name, secs in phases.items():
        d[f"cmd_s.{name}"] = secs / passes
    return d


def _run(args, wl_mod, loadavg) -> int:
    wl = wl_mod.WORKLOADS[args.workload]
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        failures: list[str] = []
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "machine": machine_block(loadavg)}
        clock = time.perf_counter
        ref = Reference()
        if args.trace:
            wl_mod.warm_up(args.seed)
            tracer = Tracer()
            t0 = clock()
            with tracer:
                state = wl.setup(args.seed, scratch)
                records, _ = _run_items(wl_mod, wl, state, None, failures, ref)
            wall_s = clock() - t0
            values = layer_metrics(tracer.spans, wall_s, tracer.overhead_s,
                                   wl.worst_rel_gap(state, [r[2] for r in records]))
            metrics = {k: {"value": values[k], "unit": unit}
                       for k, (unit, _) in LAYER_METRICS.items()}
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
            tracer.dump(spans_path)
            detail["spans"] = str(spans_path.relative_to(ROOT))
            detail["span_count"] = len(tracer.spans)
            detail["traced_wall_s"] = wall_s
        else:
            state, setups = _setup_ref(wl_mod, wl, args.seed, scratch, ref)
            records, wall_s = _run_items(wl_mod, wl, state, args.seconds, failures, ref)
            detail["setup_repeats_s"] = [secs for secs, _ in setups]
            detail.update(_summary(wl, records, len(records) // len(wl.items(state)), wall_s))
            values = {
                "setup_s": REFERENCE_S * statistics.median(r for _, r in setups),
                "item_ref_gmean": statistics.geometric_mean(r[1] for r in records),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        attempted = len(records)
        verdicts = [r[3] for r in records]
        failed = attempted - verdicts.count("ok")
        incorrect = verdicts.count("wrong") + verdicts.count("error")
        detail["fail_frac"] = failed / attempted
        detail["verdicts"] = {v: verdicts.count(v) for v in ("ok", "wrong", "refused", "error")}
        detail["failures"] = failures
        for key in ("instance_seeds", "skipped_seeds"):
            if key in state:
                detail[key] = state[key]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    width = max(len(k) for k in metrics)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        moves = f"  -> {LAYER_METRICS[name][1]}" if args.trace else ""
        print(f"{name:<{width}}  {m['value']:<12.6g} {m['unit']:<10}{moves}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": incorrect == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    rc = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              check=False)
        rc = rc or proc.returncode
    return rc


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        wl_mod = _import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    return _run(args, wl_mod, loadavg)


if __name__ == "__main__":
    sys.exit(main())
