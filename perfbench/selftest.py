"""Self-tests of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

- a corrupted expected value is reported as a failed operation;
- the deadline fires on an operation that never returns, and the miss is
  charged at the deadline;
- the probes replace every binding site of every traced function and
  uninstall cleanly;
- every per-layer metric gets samples on the workload layers.json maps it
  to, so a rename in src/ cannot silently detach a probe;
- BENCHMARK.json, layers.json and the code name the same metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time
import unittest

import bench_trace
import bench_workloads
import run as bench

with open(os.path.join(bench.HERE, "layers.json"), encoding="utf-8") as fh:
    LAYERS = json.load(fh)


def mapped_metrics(workload):
    out = []
    for layer in LAYERS["layers"].values():
        for metric in layer["metrics"]:
            w = layer["workload"]
            if (w if isinstance(w, str) else w[metric]) == workload:
                out.append(metric)
    return out


def run_once(ops, deadline=5.0, tracer=None):
    return bench.run_passes(ops, 0, deadline, tracer)


class CorruptedExpectedValues(unittest.TestCase):
    def setUp(self):
        self.lib = bench.load_library()

    def assert_only_failure(self, ops, name):
        _, failures = run_once(ops)
        self.assertEqual([(f[1], f[2]) for f in failures], [(name, "mismatch")])

    def test_ladder(self):
        expected = bench_workloads.ladder_expected(self.lib)
        expected["H^2(C5,Z/5)"] = ((25,), 0)
        ops = [op for op in bench_workloads.ladder_ops(self.lib, 1, expected)
               if op.name in ("H^2(C5,Z/5)", "H^3(C3,Z)")]
        self.assert_only_failure(ops, "H^2(C5,Z/5)")

    def test_dictionary(self):
        expected = bench.load_expected("dictionary", self.lib)
        expected["h2"]["C2/Z2"] = [4]
        ops = [op for op in bench_workloads.dictionary_ops(self.lib, 1, expected)
               if op.name.startswith("baer table")]
        self.assert_only_failure(ops, "baer table C2/Z2")

    def test_documents(self):
        expected = bench.load_expected("documents", self.lib)
        for text in expected["outputs"]:
            if text.startswith("groupoid: cyclic 2\n") and "task: validate" in text:
                expected["outputs"][text] = expected["outputs"][text].replace("true", "false")
        ops = [op for op in bench_workloads.documents_ops(self.lib, 1, expected)
               if op.name.startswith("cyclic 2:") and "cech" not in op.name
               and "morita" not in op.name]
        self.assert_only_failure(ops, "cyclic 2: validate")

    def test_closed_form_catches_a_wrong_degree(self):
        doc = {"tasks": [{"task": "cohomology", "ok": True,
                          "data": {"degrees": {"2": {"torsion": [], "free_rank": 0}}}}]}
        check = bench_workloads._document_check(None, ("cyclic", 5, 5))
        self.assertIsNotNone(check(json.dumps(doc)))


class Deadline(unittest.TestCase):
    def test_fires_and_is_charged_at_the_deadline(self):
        def spin():
            while True:
                pass

        quick = bench_workloads.Op("quick", lambda: 1, lambda r: None)
        ops = [bench_workloads.Op("spin", spin, lambda r: None), quick]
        t0 = time.monotonic()
        passes, failures = run_once(ops, deadline=0.2)
        self.assertLess(time.monotonic() - t0, 5)
        self.assertEqual([(f[1], f[2]) for f in failures], [("spin", "deadline")])
        self.assertEqual(passes[0][0], 0.2)


class Probes(unittest.TestCase):
    def test_every_binding_site_is_replaced_and_restored(self):
        bench.load_library()
        originals = {}
        for mod_name, attr, _, _ in bench_trace.FUNCTION_PROBES:
            originals[(mod_name, attr)] = getattr(
                sys.modules[f"{bench.PACKAGE}.{mod_name}"], attr)
        probes = bench_trace.Probes(bench_trace.Tracer()).install()
        try:
            for mod in bench_trace._package_modules():
                for name, value in vars(mod).items():
                    self.assertNotIn(value, list(originals.values()),
                                     f"{mod.__name__}.{name} escaped its probe")
            # names imported with `from .x import` are rebound too
            self.assertIn(f"{bench.PACKAGE}.classify",
                          probes.binding_sites["cohomology.differential"])
            self.assertIn(f"{bench.PACKAGE}.cli", probes.binding_sites["morita.morita_compare"])
        finally:
            probes.uninstall()
        for (mod_name, attr), fn in originals.items():
            self.assertIs(getattr(sys.modules[f"{bench.PACKAGE}.{mod_name}"], attr), fn)


class LayerSamples(unittest.TestCase):
    def check_workload(self, workload, keep=lambda op: True):
        _, ops = bench.setup(workload, 1)
        ops = [op for op in ops if keep(op)]
        tracer = bench_trace.Tracer()
        probes = bench_trace.Probes(tracer).install()
        try:
            passes, failures = run_once(ops, bench.DEADLINES_S[workload], tracer)
        finally:
            probes.uninstall()
        self.assertEqual(failures, [])
        metrics = bench_trace.layer_metrics(tracer, len(ops), len(passes))
        for name in mapped_metrics(workload):
            value, _, samples = metrics[name]
            self.assertGreater(samples, 0, f"{name} has no samples on {workload}")
            self.assertGreater(value, 0, f"{name} is zero on {workload}")

    def test_ladder(self):
        self.check_workload("ladder")

    def test_dictionary(self):
        self.check_workload("dictionary")

    def test_documents(self):
        # the known deadline misses add time and no samples the others lack
        self.check_workload("documents", lambda op: op.name not in bench_workloads.KNOWN_FAILING)


class MetricNames(unittest.TestCase):
    def test_names_agree(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        per_layer = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(per_layer, list(bench_trace.LAYER_METRICS))
        mapped = [m for layer in LAYERS["layers"].values() for m in layer["metrics"]]
        self.assertEqual(sorted(mapped), sorted(per_layer))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, (unit, _, _) in bench_trace.LAYER_METRICS.items():
            self.assertEqual(units[name], unit, name)
        e2e = bench.end_to_end([[0.1, 0.2]], [0.01], "median")
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(e2e))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], e2e[m["name"]][1])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench_workloads.WORKLOADS))
        self.assertEqual(LAYERS["deadline_s"], bench.DEADLINES_S)
        self.assertEqual(LAYERS["repeat_statistic"], bench.REPEAT_STATISTIC)
        self.assertEqual(sorted(LAYERS["known_failing"]), sorted(bench_workloads.KNOWN_FAILING))


if __name__ == "__main__":
    unittest.main()
