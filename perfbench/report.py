"""Run every workload over several seeds and summarize, one process per run.

    python3 perfbench/report.py --seeds 1 2 3 --seconds 40 [--trace N] [--json PATH]

Prints, for each workload and each end-to-end metric, the median over runs
with its quartiles, the quartile spread as a share of the median, the
number of runs and the samples per run; the failed share; and with --trace N
traced runs on the first N seeds, their per-layer medians and the tracing
overhead (median traced wall_s over median untraced wall_s on those seeds,
minus one). Each run checks every operation against its oracle; a
run whose result is not correct is reported and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ladder", "dictionary", "documents")


def run_once(workload, seed, seconds, trace):
    with tempfile.NamedTemporaryFile(suffix=".json", dir=os.path.join(ROOT, ".perfbench_out"),
                                     delete=False) as fh:
        out = fh.name
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace),
                               "--out", out],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(out, encoding="utf-8") as fh:
            summary = json.load(fh)
    finally:
        os.unlink(out)
    summary["correct"] = result["correct"]
    return summary


def stats(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def summarize(runs, key):
    names = list(runs[0][key])
    out = {}
    for name in names:
        values = [r[key][name][0] for r in runs]
        row = stats(values)
        row["unit"] = runs[0][key][name][1]
        row["samples_per_run"] = statistics.median(r[key][name][2] for r in runs)
        out[name] = row
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--trace", type=int, default=0, metavar="N",
                        help="also make traced runs on the first N seeds")
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args(argv)
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)

    report = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    all_correct = True
    for workload in args.workloads:
        plain = [run_once(workload, s, args.seconds, 0) for s in args.seeds]
        entry = {"end_to_end": summarize(plain, "end_to_end"),
                 "failed_share": stats([r["failed_share"] for r in plain]),
                 "failures": sorted({f[1] for r in plain for f in r["failures"]}),
                 "correct": all(r["correct"] for r in plain)}
        all_correct &= entry["correct"]
        print(f"\n== {workload}: {len(plain)} runs, seeds {args.seeds}, "
              f"{plain[0]['ops_per_pass']} operations per pass, "
              f"all outputs correct: {entry['correct']}")
        for name, row in entry["end_to_end"].items():
            print(f"  {name:14s} median {row['median']:12.6g} {row['unit']:3s} "
                  f"[q1 {row['q1']:.6g}, q3 {row['q3']:.6g}] spread {row['spread']:.3f} "
                  f"runs {row['runs']} samples/run {row['samples_per_run']:g}")
        fs = entry["failed_share"]
        print(f"  {'failed_share':14s} median {fs['median']:12.6g}     "
              f"failing: {entry['failures'] or 'none'}")
        if args.trace:
            traced = [run_once(workload, s, args.seconds, 1) for s in args.seeds[:args.trace]]
            entry["per_layer"] = summarize(traced, "metrics")
            traced_wall = statistics.median(r["end_to_end"]["wall_s"][0] for r in traced)
            plain_wall = statistics.median(r["end_to_end"]["wall_s"][0]
                                           for r in plain[:args.trace])
            entry["tracing_overhead"] = traced_wall / plain_wall - 1
            print(f"  tracing overhead on wall_s: {entry['tracing_overhead']:+.1%}")
            for name, row in entry["per_layer"].items():
                print(f"  {name:38s} median {row['median']:12.6g} {row['unit']:5s} "
                      f"samples/run {row['samples_per_run']:g}")
        report["workloads"][workload] = entry
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
