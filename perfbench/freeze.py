"""Regenerate the benchmark's frozen expected outputs.

    python3 perfbench/freeze.py [--commit SHA]

- expected/dictionary.json: H^2 of each degree-2 dictionary setting by the
  brute-force enumeration in tests/oracles.py.
- expected/documents.json: the --json bytes of every document any seed can
  generate, produced by the package at the current commit. Documents that
  miss the benchmark's deadline get no entry; their closed form is their
  only oracle.

Freeze only from a commit whose outputs are known to be right: the
documents oracle is "unchanged since then".
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

import run as bench


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", default="unknown", help="commit the outputs come from")
    args = parser.parse_args(argv)
    lib = bench.load_library()
    out_dir = os.path.join(bench.HERE, "expected")
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(out_dir, "dictionary.json"), "w", encoding="utf-8") as fh:
        json.dump(bench.bench_workloads.dictionary_oracle(lib.oracles), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")

    outputs, missed = {}, []
    signal.signal(signal.SIGALRM, bench._alarm)
    for text in bench.bench_workloads.document_pool():
        signal.setitimer(signal.ITIMER_REAL, bench.DEADLINES_S["documents"])
        try:
            outputs[text] = _json(lib, text)
        except bench.DeadlineExceeded:
            missed.append(text)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        print(f"{'missed' if text in missed else 'frozen'}: {text!r}", file=sys.stderr)
    with open(os.path.join(out_dir, "documents.json"), "w", encoding="utf-8") as fh:
        json.dump({"commit": args.commit, "deadline_s": bench.DEADLINES_S["documents"],
                   "missed_deadline": missed, "outputs": outputs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


def _json(lib, text):
    results, _ = lib.cli.run(lib.cli.parse(text))
    return lib.cli.results_to_json(results)


if __name__ == "__main__":
    main()
