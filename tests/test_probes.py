"""The benchmark's trace probes still find every library function they wrap.

perfbench/bench_trace.py replaces probed functions at every binding site in
the package and restores them afterwards. Deleting or renaming a probed
function makes `install` raise; this test loads the probes without changing
them and checks a full install/uninstall round.
"""

import importlib.util
import sys
from pathlib import Path

import groupoid_cohomology  # noqa: F401  (imports every library module)
import groupoid_cohomology.cli  # noqa: F401

BENCH_TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"


def _bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace_under_test", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(bt):
    G = groupoid_cohomology.groupoid.FiniteGroupoid
    S = groupoid_cohomology.cech.SigmaCover
    out = {(m.__name__, k): v for m in bt._package_modules() for k, v in vars(m).items()}
    out.update({(cls.__name__, k): cls.__dict__[k]
                for cls, k in ((G, "nerve"), (G, "nerve_index"), (S, "indices"))})
    return out


def test_probes_install_and_restore():
    bt = _bench_trace()
    before = _bindings(bt)
    probes = bt.Probes(bt.Tracer()).install()
    try:
        for mod_name, attr, _, _ in bt.FUNCTION_PROBES:
            home = sys.modules[f"{bt.PACKAGE}.{mod_name}"]
            assert getattr(home, attr) is not before[home.__name__, attr], attr
            assert probes.binding_sites[f"{mod_name}.{attr}"]
    finally:
        probes.uninstall()
    after = _bindings(bt)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
