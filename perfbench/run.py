"""Benchmark for the groupoid-cohomology package: one workload per process.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 40 --trace 0

Run from the repository root (or anywhere; paths resolve from this file).
The package is imported from src/ and the oracles from tests/oracles.py.

One run: set up (import, generate the seeded operations, load the expected
outputs) several times and keep the median; then run passes over the fixed
operation list, back to back on this one thread, for as long as another pass
still fits in --seconds. Every operation gets an in-process deadline from a
signal alarm; a miss counts as failed and is charged at the deadline. Every
result is checked against its oracle.

wall_s is the time of one pass, op_p50_ms and op_p90_ms percentiles of the
operation latencies in a pass. The workload's REPEAT_STATISTIC says how the
passes of a run make one value: "median" takes the median over passes of
each pass's value; "best" takes each operation's fastest repeat and computes
the values for a pass made of those.

With --trace 0 the last line of output is the JSON result with the
end-to-end metrics; with --trace 1 the probes in bench_trace.py are
installed and the JSON carries the per-layer metrics instead, and the spans
are written to .perfbench_out/ at the repository root. The lines before the
JSON line list every metric with its unit and sample count, and every
failed operation.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

# Per-operation deadline of each workload: at least twice its slowest passing
# operation, so that only a real blow-up misses it.
DEADLINES_S = {"ladder": 20.0, "dictionary": 5.0, "documents": 3.0}
# How the repeats in a run make one value. The machine this was tuned on (a
# shared 2-vCPU virtual machine) ran 1.2 to 2 times slower than its best in
# phases of seconds to minutes; sub-millisecond operations suffer most (their
# median latency switches between about 0.6 and 1.0 ms). A dictionary pass
# (3 s, 1,105 operations) fits inside one phase and each operation repeats 10
# to 14 times a run, so its fastest repeat is the steadiest value: over five
# runs its quartile spread was 0.04 to 0.22 against 0.17 to 0.40 for the
# median pass. Ladder and documents passes (8 to 12 s) straddle phases and
# repeat 3 to 5 times a run; there the median pass spread 0.05 to 0.14 and
# the fastest repeats up to 0.28.
REPEAT_STATISTIC = {"ladder": "median", "dictionary": "best", "documents": "median"}
SETUP_REPEATS = 7
PACKAGE = bench_trace.PACKAGE
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler; a BaseException so no library
    `except Exception` can swallow it."""


class Library:
    """The package modules the operations call, looked up at call time so
    that probes installed later are seen."""

    def __init__(self):
        self.gc = importlib.import_module(PACKAGE)
        self.cli = importlib.import_module(PACKAGE + ".cli")
        self.cohomology = importlib.import_module(PACKAGE + ".cohomology")
        self.randomized = importlib.import_module(PACKAGE + ".randomized")
        self.oracles = importlib.import_module("oracles")


def load_library():
    """Import the package from src/ and the oracles from tests/, afresh."""
    src = os.path.join(ROOT, "src")
    tests = os.path.join(ROOT, "tests")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        raise FileNotFoundError(f"no package sources under {src}")
    if not os.path.isfile(os.path.join(tests, "oracles.py")):
        raise FileNotFoundError(f"no tests/oracles.py under {ROOT}")
    for name in list(sys.modules):
        if name == PACKAGE or name.startswith(PACKAGE + ".") or name == "oracles":
            del sys.modules[name]
    for path in (tests, src):
        if path not in sys.path:
            sys.path.insert(0, path)
    lib = Library()
    if not os.path.abspath(lib.gc.__file__).startswith(src + os.sep):
        raise ImportError(f"{PACKAGE} was imported from {lib.gc.__file__}, not {src}")
    return lib


def load_expected(workload, lib):
    if workload == "ladder":
        return bench_workloads.ladder_expected(lib)
    with open(os.path.join(HERE, "expected", f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload, seed):
    t0 = time.perf_counter()
    lib = load_library()
    ops = bench_workloads.WORKLOADS[workload](lib, seed, load_expected(workload, lib))
    return time.perf_counter() - t0, ops


def _alarm(signum, frame):
    raise DeadlineExceeded()


def run_op(op, deadline):
    """(latency in s, failure kind or None, detail). A miss is charged at the deadline."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - t0
    except DeadlineExceeded:
        return deadline, "deadline", f"no result within {deadline:g} s"
    except Exception as exc:  # an operation that raises is a failed operation
        return time.perf_counter() - t0, "error", f"{type(exc).__name__}: {exc}"
    try:
        problem = op.check(result)
    except Exception as exc:  # output the oracle cannot even read is wrong output
        problem = f"check raised {type(exc).__name__}: {exc}"
    if problem is not None:
        return latency, "mismatch", problem
    return latency, None, None


def run_passes(ops, seconds, deadline, tracer=None):
    """Passes over ops until another pass would not fit; at least one."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        passes, failures = [], []
        start = time.monotonic()
        longest = 0.0
        while not passes or time.monotonic() - start + longest <= seconds:
            p0 = time.monotonic()
            latencies = []
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.begin_op(len(passes) * len(ops) + i)
                latency, kind, detail = run_op(op, deadline)
                if tracer is not None:
                    tracer.end_op()
                latencies.append(latency)
                if kind is not None:
                    failures.append((len(passes), op.name, kind, detail))
            passes.append(latencies)
            longest = max(longest, time.monotonic() - p0)
        return passes, failures
    finally:
        signal.signal(signal.SIGALRM, previous)


def _p90(latencies):
    return statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]


def end_to_end(passes, setups, repeat_statistic):
    """The end-to-end metrics of a run, by REPEAT_STATISTIC."""
    if repeat_statistic == "best":
        best = [min(repeats) for repeats in zip(*passes)]
        wall, p50, p90 = sum(best), statistics.median(best), _p90(best)
    else:
        wall = statistics.median(sum(p) for p in passes)
        p50 = statistics.median(statistics.median(p) for p in passes)
        p90 = statistics.median(_p90(p) for p in passes)
    n_ops = sum(len(p) for p in passes)
    return {
        "wall_s": (wall, "s", len(passes)),
        "op_p50_ms": (p50 * 1e3, "ms", n_ops),
        "op_p90_ms": (p90 * 1e3, "ms", n_ops),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full summary as JSON to this file")
    args = parser.parse_args(argv)

    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, ops = setup(args.workload, args.seed)
            setups.append(seconds)
    except (ImportError, OSError) as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2

    tracer = probes = None
    if args.trace:
        tracer = bench_trace.Tracer()
        probes = bench_trace.Probes(tracer).install()
    try:
        passes, failures = run_passes(ops, args.seconds, DEADLINES_S[args.workload], tracer)
    finally:
        if probes is not None:
            probes.uninstall()

    e2e = end_to_end(passes, setups, REPEAT_STATISTIC[args.workload])
    if args.trace:
        metrics = bench_trace.layer_metrics(tracer, len(ops), len(passes))
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = e2e

    attempted = len(passes) * len(ops)
    failed = len(failures)
    correct = not any(kind != "deadline" for _, _, kind, _ in failures)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {len(ops)} operations, "
          f"deadline {DEADLINES_S[args.workload]:g} s, statistic {REPEAT_STATISTIC[args.workload]}")
    if args.trace:
        print(f"# traced wall_s {e2e['wall_s'][0]:.4f} s")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} n={n}")
    print(f"{'failed_share':40s} {failed / attempted:14.6g} {'ratio':6s} n={attempted}")
    for p, name, kind, detail in failures:
        known = " (known failure)" if name in bench_workloads.KNOWN_FAILING else ""
        print(f"FAILED pass {p}: {name}: {kind}: {detail}{known}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "passes": len(passes), "ops_per_pass": len(ops),
                       "attempted": attempted, "failed": failed,
                       "failed_share": failed / attempted,
                       "failures": [list(f) for f in failures],
                       "end_to_end": {k: list(v) for k, v in e2e.items()},
                       "metrics": {k: list(v) for k, v in metrics.items()}}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
