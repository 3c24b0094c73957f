"""Span tracer and the probes that attach it to the library's public functions.

The tracer lives entirely in the benchmark: probes are wrappers installed
around calls into each layer, never edits to the package. A wrapper replaces
the function at every binding site (the defining module and every package
module that did `from .x import name`), so calls made inside the package are
traced too.

Spans are kept in memory as parallel arrays (name, start, end, parent,
operation) and written out when the run ends. Self time is a span's duration
minus the duration of its direct children; children of one span never
overlap because the benchmark runs on one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from array import array
from time import perf_counter

PACKAGE = "groupoid_cohomology"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack = []
        self.op = -1
        self.counters = {}   # (op, counter name) -> value
        self.maxima = {}     # (op, counter name) -> value
        self._deferred = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx):
        self.span_end[idx] = perf_counter()
        # a deadline can unwind several frames at once; drop everything above idx
        while self._stack and self._stack.pop() != idx:
            pass

    # -- counters ------------------------------------------------------------

    def add(self, name, value):
        key = (self.op, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, name, value):
        key = (self.op, name)
        if value > self.maxima.get(key, value - 1):
            self.maxima[key] = value

    def defer(self, fn):
        """Run fn after the current operation's timed region (size counting)."""
        self._deferred.append(fn)

    def begin_op(self, op):
        self.op = op
        self._stack.clear()

    def end_op(self):
        deferred, self._deferred = self._deferred, []
        for fn in deferred:
            fn()

    # -- reductions ------------------------------------------------------------

    def span_table(self):
        """Per span: (name, duration, self time, op, outermost-of-its-name)."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = []
        for i in range(n):
            nid = self.span_name[i]
            outer = True
            p = self.span_parent[i]
            while p >= 0:
                if self.span_name[p] == nid:
                    outer = False
                    break
                p = self.span_parent[p]
            out.append((self.names[nid], dur[i], dur[i] - child[i], self.span_op[i], outer))
        return out

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent index, operation."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps([self.names[self.span_name[i]], self.span_start[i],
                                     self.span_end[i], self.span_parent[i],
                                     self.span_op[i]]) + "\n")


# ---------------------------------------------------------------------------
# probes


def _matrix_size(m):
    entries = m.rows * m.cols
    bits = max((abs(x).bit_length() for row in m.entries for x in row), default=0)
    return entries, bits


def _after_differential_matrix(tracer, args, result):
    def count():
        m = result.matrix
        tracer.add("cohomology.matrix_nnz", sum(1 for row in m.entries for x in row if x))
        tracer.add("cohomology.matrix_cells", m.rows * m.cols)
    tracer.defer(count)


def _after_abelian_matrix(tracer, args, result):
    if result is None:
        return

    def count():
        entries, bits = _matrix_size(result)
        tracer.maximum("abelian.max_matrix_entries", entries)
        tracer.maximum("abelian.max_entry_bits", bits)
    tracer.defer(count)


def _after_json(tracer, args, result):
    tracer.add("cli.json_bytes", len(result.encode("utf-8")))


# (module, attribute, span name, hook run after a successful call)
FUNCTION_PROBES = [
    ("groupoid", "cover_groupoid", "groupoid.cover_groupoid", None),
    ("cohomology", "differential_matrix", "cohomology.differential_matrix",
     _after_differential_matrix),
    ("cohomology", "differential", "cohomology.differential", None),
    ("abelian", "homology_at", "abelian.homology_at", None),
    ("abelian", "kernel_basis", "abelian.kernel_basis", _after_abelian_matrix),
    ("abelian", "solve_columns", "abelian.solve_columns", _after_abelian_matrix),
    ("classify", "ext_classes", "classify.ext_classes", None),
    ("classify", "extension_from_cocycle", "classify.extension_from_cocycle", None),
    ("classify", "are_equivalent", "classify.are_equivalent", None),
    ("classify", "is_strictly_trivial", "classify.is_strictly_trivial", None),
    ("classify", "baer_sum", "classify.baer_sum", None),
    ("classify", "torsor_from_cocycle", "classify.torsor", None),
    ("classify", "validate_torsor", "classify.torsor", None),
    ("classify", "cocycle_from_torsor", "classify.torsor", None),
    ("cech", "assemble_complex", "cech.assemble_complex", None),
    ("cech", "homotopy_operator", "cech.homotopy_operator", None),
    ("morita", "morita_compare", "morita.morita_compare", None),
    ("randomized", "run_homotopy_trials", "randomized.run_homotopy_trials", None),
    ("cli", "parse", "cli.parse", None),
    ("cli", "run", "cli.run", None),
    ("cli", "results_to_json", "cli.json", _after_json),
]


def _wrap(tracer, fn, span, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, result)
        return result
    return wrapper


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Probes:
    """Installs the wrappers; `uninstall` restores every binding it replaced."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._restore = []   # (namespace object, attribute, original)
        self.binding_sites = {}   # "module.attr" -> [module names rebound]

    def install(self):
        try:
            for mod_name, attr, span, after in FUNCTION_PROBES:
                self._install_function(mod_name, attr, span, after)
            self._install_nerve()
            self._install_sigma()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_function(self, mod_name, attr, span, after):
        home = sys.modules[f"{PACKAGE}.{mod_name}"]
        original = getattr(home, attr, None)
        if original is None:
            raise RuntimeError(f"probe target {mod_name}.{attr} is gone; update bench_trace")
        wrapper = _wrap(self.tracer, original, span, after)
        sites = []
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)
                    sites.append(mod.__name__)
        self.binding_sites[f"{mod_name}.{attr}"] = sorted(sites)

    def _install_method(self, cls, attr, method):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, method)

    def _install_nerve(self):
        """Spans and cell counts only for nerve-cache misses (hits are lookups)."""
        G = sys.modules[f"{PACKAGE}.groupoid"].FiniteGroupoid
        if "_nerve_cache" not in getattr(G, "__slots__", ()):
            raise RuntimeError("FiniteGroupoid._nerve_cache is gone; update bench_trace")
        tracer = self.tracer
        nerve, nerve_index = G.nerve, G.nerve_index

        def traced_nerve(self, n):
            if n in self._nerve_cache:
                return nerve(self, n)
            idx = tracer.open("groupoid.nerve")
            try:
                out = nerve(self, n)
            finally:
                tracer.close(idx)
            tracer.add("groupoid.nerve_cells", len(out))
            return out

        def traced_nerve_index(self, n):
            if ("index", n) in self._nerve_cache:
                return nerve_index(self, n)
            idx = tracer.open("groupoid.nerve")
            try:
                return nerve_index(self, n)
            finally:
                tracer.close(idx)

        self._install_method(G, "nerve", traced_nerve)
        self._install_method(G, "nerve_index", traced_nerve_index)

    def _install_sigma(self):
        """The first `SigmaCover.indices` call per level builds the level."""
        S = sys.modules[f"{PACKAGE}.cech"].SigmaCover
        tracer = self.tracer
        indices = S.indices
        built = weakref.WeakKeyDictionary()

        def traced_indices(self, n):
            levels = built.setdefault(self, set())
            if n in levels:
                return indices(self, n)
            idx = tracer.open("cech.sigma")
            try:
                out = indices(self, n)
            finally:
                tracer.close(idx)
            levels.add(n)
            tracer.add("cech.sigma_live_share", len(out) / self.candidate_count(n))
            tracer.add("cech.sigma_levels", 1)

            def count_cells():
                tracer.add("cech.sigma_cells", sum(len(self.points_of(n, lab)) for lab in out))
            tracer.defer(count_cells)
            return out

        self._install_method(S, "indices", traced_indices)

    def uninstall(self):
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, kind, source). Kinds: "incl" sums the durations of the
# outermost spans of that name, "self" sums self times, "calls" counts spans,
# "counter" sums a counter, "ratio" divides two counter sums, "max" takes a
# maximum over the run. Sums are per pass; the reported value is the median
# over the run's passes.
LAYER_METRICS = {
    "groupoid.nerve_s": ("s", "incl", "groupoid.nerve"),
    "groupoid.nerve_cells": ("count", "counter", "groupoid.nerve_cells"),
    "groupoid.cover_groupoid_s": ("s", "incl", "groupoid.cover_groupoid"),
    "cohomology.differential_matrix_s": ("s", "incl", "cohomology.differential_matrix"),
    "cohomology.differential_matrix_calls": ("count", "calls", "cohomology.differential_matrix"),
    "cohomology.matrix_nnz": ("count", "counter", "cohomology.matrix_nnz"),
    "cohomology.matrix_density": ("ratio", "ratio",
                                  ("cohomology.matrix_nnz", "cohomology.matrix_cells")),
    "cohomology.differential_s": ("s", "incl", "cohomology.differential"),
    "cohomology.differential_calls": ("count", "calls", "cohomology.differential"),
    "abelian.homology_at_s": ("s", "incl", "abelian.homology_at"),
    "abelian.homology_at_calls": ("count", "calls", "abelian.homology_at"),
    "abelian.kernel_basis_s": ("s", "incl", "abelian.kernel_basis"),
    "abelian.solve_columns_s": ("s", "incl", "abelian.solve_columns"),
    "abelian.final_snf_s": ("s", "self", "abelian.homology_at"),
    "abelian.max_matrix_entries": ("count", "max", "abelian.max_matrix_entries"),
    "abelian.max_entry_bits": ("bits", "max", "abelian.max_entry_bits"),
    "classify.ext_classes_s": ("s", "incl", "classify.ext_classes"),
    "classify.extension_from_cocycle_s": ("s", "incl", "classify.extension_from_cocycle"),
    "classify.are_equivalent_s": ("s", "incl", "classify.are_equivalent"),
    "classify.are_equivalent_calls": ("count", "calls", "classify.are_equivalent"),
    "classify.is_strictly_trivial_s": ("s", "incl", "classify.is_strictly_trivial"),
    "classify.baer_sum_s": ("s", "incl", "classify.baer_sum"),
    "classify.torsor_s": ("s", "incl", "classify.torsor"),
    "cech.sigma_s": ("s", "incl", "cech.sigma"),
    "cech.sigma_cells": ("count", "counter", "cech.sigma_cells"),
    # mean over built levels of nonempty indices / candidate_count
    "cech.sigma_live_ratio": ("ratio", "ratio", ("cech.sigma_live_share", "cech.sigma_levels")),
    "cech.assemble_s": ("s", "self", "cech.assemble_complex"),
    "cech.homotopy_s": ("s", "incl", "cech.homotopy_operator"),
    "morita.compare_s": ("s", "self", "morita.morita_compare"),
    "randomized.homotopy_trials_s": ("s", "incl", "randomized.run_homotopy_trials"),
    "cli.parse_s": ("s", "incl", "cli.parse"),
    "cli.run_s": ("s", "self", "cli.run"),
    "cli.json_s": ("s", "incl", "cli.json"),
    "cli.json_bytes": ("count", "counter", "cli.json_bytes"),
}


def layer_metrics(tracer, ops_per_pass, passes):
    """{metric: (value, unit, samples)} from the spans and counters of a run."""
    def pass_of(op):
        return op // ops_per_pass

    incl, selft, calls, samples = {}, {}, {}, {}
    for name, dur, self_time, op, outer in tracer.span_table():
        p = pass_of(op)
        if outer:
            incl[(p, name)] = incl.get((p, name), 0.0) + dur
        selft[(p, name)] = selft.get((p, name), 0.0) + self_time
        calls[(p, name)] = calls.get((p, name), 0) + 1
        samples[name] = samples.get(name, 0) + 1
    counters, counter_samples = {}, {}
    for (op, name), value in tracer.counters.items():
        key = (pass_of(op), name)
        counters[key] = counters.get(key, 0) + value
        counter_samples[name] = counter_samples.get(name, 0) + 1
    maxima = {}
    for (op, name), value in tracer.maxima.items():
        maxima[name] = max(maxima.get(name, 0), value)
        counter_samples[name] = counter_samples.get(name, 0) + 1

    def median(per_pass):
        vals = sorted(per_pass)
        mid = len(vals) // 2
        return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2

    out = {}
    for metric, (unit, kind, src) in LAYER_METRICS.items():
        if kind == "max":
            out[metric] = (maxima.get(src, 0), unit, counter_samples.get(src, 0))
            continue
        if kind == "ratio":
            num, den = src
            vals = [counters.get((p, num), 0) / counters[(p, den)] if counters.get((p, den))
                    else 0.0 for p in range(passes)]
            out[metric] = (median(vals), unit, counter_samples.get(den, 0))
            continue
        table = {"incl": incl, "self": selft, "calls": calls, "counter": counters}[kind]
        vals = [table.get((p, src), 0) for p in range(passes)]
        n = counter_samples.get(src, 0) if kind == "counter" else samples.get(src, 0)
        out[metric] = (median(vals), unit, n)
    return out
