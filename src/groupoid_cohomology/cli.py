"""Batch interface: parse a workspace document, run its tasks, emit reports.

Document format (one directive per line; '#' starts a comment):

    groupoid: cyclic 2              builders: cyclic N | pair M | unit M
    groupoid: action 2 on 2 perm 1 0    cyclic N acting on M points; the
                                        permutation lists the generator images
    groupoid: cover cyclic 2 sets 0|0   cover groupoid over a builder; object
                                        id sets separated by '|'
    groupoid: table                 explicit mode, followed by:
    object: x                       one per object (names)
    arrow: f x y                    name, range object, source object
    compose: f g h                  f * g = h (list every composable pair)
    unit: x f                       the unit arrow at x
    module: constant 2              constant coefficients; orders like 2 or 2,4 or 0
    module: fibers                  explicit mode, followed by:
    fiber: x 2,4                    orders of the fiber at object x
    action: f [[1]]                 the matrix of the arrow action (rows)
    task: validate
    task: cohomology 0..2
    task: ext
    task: baer
    task: strict-trivial
    task: morita 0|0                object cover, sets separated by '|'
    task: cech maximal 2            or: cech single 2
    task: homotopy-check 42 25      seed and trial count

Exit codes: 0 all tasks pass, 1 an assertion task fails, 2 usage or parse
error, 3 a size budget is exceeded. Structured output (--json) is
deterministic: identical documents give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .abelian import FinAbGroup, IntegerMatrix, AbHom
from .cech import (
    BudgetExceeded,
    Budget,
    MaximalSimplicialCover,
    ModuleCoefficients,
    NerveSpace,
    cech_cohomology_on_cover,
    single_set_cover,
)
from .classify import (
    Extension,
    are_equivalent,
    baer_sum,
    ext_classes,
    is_strictly_trivial,
)
from .cohomology import cohomology, is_coboundary
from .gmodule import GModule, constant_module, validate_module
from .groupoid import (
    FiniteGroupoid,
    StructureError,
    action_groupoid,
    cover_groupoid,
    cyclic_group,
    pair_groupoid,
    unit_groupoid,
    validate,
)
from .morita import morita_compare
from .randomized import run_homotopy_trials


class DocumentError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class WorkspaceDocument:
    groupoid: FiniteGroupoid
    module: GModule
    tasks: list = field(default_factory=list)


def _parse_orders(text, line_no):
    try:
        return FinAbGroup(tuple(int(p) for p in text.split(",") if p != ""))
    except ValueError as exc:
        raise DocumentError(line_no, f"bad fiber orders {text!r}: {exc}")


def _parse_sets(text, line_no, universe=None, what="object"):
    sets = []
    for part in text.split("|"):
        ids = [p for p in part.replace(",", " ").split() if p]
        try:
            ids = [int(p) for p in ids]
        except ValueError:
            raise DocumentError(line_no, f"bad {what} id in cover spec {part!r}")
        if universe is not None:
            for x in ids:
                if not 0 <= x < universe:
                    raise DocumentError(line_no, f"unknown {what} id {x}")
        sets.append(frozenset(ids))
    return sets


def _int_arg(word, line_no, what, least=None):
    """An integer task argument, at least `least` when that is given."""
    try:
        value = int(word)
    except ValueError:
        raise DocumentError(line_no, f"{what} must be an integer, got {word!r}") from None
    if least is not None and value < least:
        raise DocumentError(line_no, f"{what} must be at least {least}, got {value}")
    return value


def _build_groupoid(args, line_no):
    words = args.split()
    kind = words[0] if words else ""
    try:
        if kind == "cyclic":
            return cyclic_group(int(words[1]))
        if kind == "pair":
            return pair_groupoid(int(words[1]))
        if kind == "unit":
            return unit_groupoid(int(words[1]))
        if kind == "action":
            # action N on M perm p_0 ... p_{M-1}
            n, m = int(words[1]), int(words[3])
            if words[2] != "on" or words[4] != "perm":
                raise DocumentError(line_no, "expected: action N on M perm ...")
            perm = [int(w) for w in words[5:]]
            if sorted(perm) != list(range(m)):
                raise DocumentError(line_no, "perm must be a permutation of 0..M-1")
            C = cyclic_group(n)
            act = {}
            for k in range(n):
                for z in range(m):
                    w = z
                    for _ in range(k):
                        w = perm[w]
                    act[(k, z)] = w
            return action_groupoid(C, m, [0] * m, act)
        if kind == "cover":
            inner = _build_groupoid(" ".join(words[1:words.index("sets")]), line_no)
            spec = " ".join(words[words.index("sets") + 1:])
            sets = _parse_sets(spec, line_no, inner.n_objects)
            return cover_groupoid(inner, sets).groupoid
    except DocumentError:
        raise
    except (IndexError, ValueError) as exc:
        raise DocumentError(line_no, f"bad groupoid builder {args!r}: {exc}")
    raise DocumentError(line_no, f"unknown groupoid builder {kind!r}")


def parse(text):
    """Parse a workspace document; diagnostics carry line numbers."""
    groupoid = None
    module_mode = None
    module = None
    constant_group = None
    tasks = []
    table = None  # explicit groupoid under construction
    fibers = {}
    actions = {}

    def finish_groupoid(line_no):
        nonlocal groupoid, table
        if groupoid is not None:
            return
        if table is None:
            raise DocumentError(line_no, "no groupoid declared yet")
        objects, arrows, compose, units = table
        oid = {name: i for i, name in enumerate(objects)}
        aid = {name: i for i, name in enumerate(arrows)}
        src, tgt = [0] * len(arrows), [0] * len(arrows)
        for name, (rng_obj, src_obj, ln) in arrows.items():
            if rng_obj not in oid:
                raise DocumentError(ln, f"arrow {name!r} names unknown object {rng_obj!r}")
            if src_obj not in oid:
                raise DocumentError(ln, f"arrow {name!r} names unknown object {src_obj!r}")
            tgt[aid[name]] = oid[rng_obj]
            src[aid[name]] = oid[src_obj]
        comp = {}
        for (f, g, h, ln) in compose:
            for nm in (f, g, h):
                if nm not in aid:
                    raise DocumentError(ln, f"compose names unknown arrow {nm!r}")
            comp[(aid[f], aid[g])] = aid[h]
        unit = [None] * len(objects)
        for (x, f, ln) in units:
            if x not in oid:
                raise DocumentError(ln, f"unit names unknown object {x!r}")
            if f not in aid:
                raise DocumentError(ln, f"unit names unknown arrow {f!r}")
            unit[oid[x]] = aid[f]
        if any(u is None for u in unit):
            missing = [o for o, i in oid.items() if unit[i] is None]
            raise DocumentError(line_no, f"missing unit for objects {missing}")
        inv = [None] * len(arrows)
        for g in range(len(arrows)):
            for h in range(len(arrows)):
                if comp.get((g, h)) == unit[tgt[g]] and comp.get((h, g)) == unit[src[g]]:
                    inv[g] = h
                    break
        if any(v is None for v in inv):
            raise DocumentError(line_no, "some arrow has no inverse in the table")
        groupoid = FiniteGroupoid(len(objects), src, tgt, unit, comp, inv,
                                  object_labels=list(objects),
                                  arrow_labels=list(arrows))
        table = None
        return

    lines = text.splitlines()
    for raw_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise DocumentError(raw_no, f"expected 'key: value', got {line!r}")
        key, _, args = line.partition(":")
        key, args = key.strip(), args.strip()

        if key == "groupoid":
            if args == "table":
                table = ({}, {}, [], [])  # objects, arrows, compose, units
            else:
                try:
                    groupoid = _build_groupoid(args, raw_no)
                except (StructureError, ValueError) as exc:
                    if isinstance(exc, DocumentError):
                        raise
                    raise DocumentError(raw_no, str(exc))
        elif key == "object":
            if table is None:
                raise DocumentError(raw_no, "object: outside a groupoid table")
            table[0][args] = len(table[0])
        elif key == "arrow":
            if table is None:
                raise DocumentError(raw_no, "arrow: outside a groupoid table")
            parts = args.split()
            if len(parts) != 3:
                raise DocumentError(raw_no, "expected: arrow: NAME RANGE SOURCE")
            name, rng_obj, src_obj = parts
            table[1][name] = (rng_obj, src_obj, raw_no)
        elif key == "compose":
            if table is None:
                raise DocumentError(raw_no, "compose: outside a groupoid table")
            parts = args.split()
            if len(parts) != 3:
                raise DocumentError(raw_no, "expected: compose: F G H")
            table[2].append((*parts, raw_no))
        elif key == "unit":
            if table is None:
                raise DocumentError(raw_no, "unit: outside a groupoid table")
            parts = args.split()
            if len(parts) != 2:
                raise DocumentError(raw_no, "expected: unit: OBJECT ARROW")
            table[3].append((*parts, raw_no))
        elif key == "module":
            finish_groupoid(raw_no)
            if args.startswith("constant"):
                constant_group = _parse_orders(args[len("constant"):].strip(), raw_no)
                module_mode = "constant"
            elif args == "fibers":
                module_mode = "fibers"
            else:
                raise DocumentError(raw_no, f"unknown module spec {args!r}")
        elif key == "fiber":
            if module_mode != "fibers":
                raise DocumentError(raw_no, "fiber: outside 'module: fibers'")
            name, _, orders = args.partition(" ")
            fibers[(name.strip(), raw_no)] = _parse_orders(orders.strip(), raw_no)
        elif key == "action":
            if module_mode != "fibers":
                raise DocumentError(raw_no, "action: outside 'module: fibers'")
            name, _, mat = args.partition(" ")
            try:
                rows = json.loads(mat)
                if any(type(v) is not int for row in rows for v in row):
                    raise ValueError("entries must be JSON integers")
                matrix = IntegerMatrix.from_rows(rows)
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise DocumentError(raw_no, f"bad action matrix: {exc}")
            actions[(name.strip(), raw_no)] = matrix
        elif key == "task":
            finish_groupoid(raw_no)
            tasks.append((args, raw_no))
        else:
            raise DocumentError(raw_no, f"unknown field {key!r}")

    if groupoid is None and table is not None:
        finish_groupoid(len(lines))
    if groupoid is None:
        raise DocumentError(len(lines) or 1, "document declares no groupoid")

    if module_mode == "constant":
        module = constant_module(groupoid, constant_group)
    elif module_mode == "fibers":
        by_obj = {}
        labels = {lbl: i for i, lbl in enumerate(groupoid.object_labels)}
        for (name, ln), grp in fibers.items():
            if name not in labels and not (name.isdigit() and int(name) < groupoid.n_objects):
                raise DocumentError(ln, f"fiber names unknown object {name!r}")
            by_obj[labels.get(name, int(name) if name.isdigit() else -1)] = grp
        if set(by_obj) != set(groupoid.objects()):
            raise DocumentError(1, "need a fiber for every object")
        fiber_list = tuple(by_obj[x] for x in groupoid.objects())
        alabel = {lbl: i for i, lbl in enumerate(groupoid.arrow_labels)}
        act_list = [None] * groupoid.n_arrows
        for (name, ln), mat in actions.items():
            idx = alabel.get(name, int(name) if name.isdigit() else None)
            if idx is None or not 0 <= idx < groupoid.n_arrows:
                raise DocumentError(ln, f"action names unknown arrow {name!r}")
            src_f = fiber_list[groupoid.src[idx]]
            tgt_f = fiber_list[groupoid.tgt[idx]]
            try:
                act_list[idx] = AbHom(src_f, tgt_f, mat)
            except Exception as exc:
                raise DocumentError(ln, f"action matrix shape: {exc}")
        for g in groupoid.arrows():
            if act_list[g] is None:
                sf, tf = fiber_list[groupoid.src[g]], fiber_list[groupoid.tgt[g]]
                if sf.orders != tf.orders:
                    raise DocumentError(1, f"missing action for arrow {g}")
                act_list[g] = AbHom.identity(sf)
        module = GModule(groupoid, fiber_list, tuple(act_list))
    else:
        module = constant_module(groupoid, FinAbGroup(()))

    return WorkspaceDocument(groupoid, module, tasks)


# ---------------------------------------------------------------------------
# task runner


@dataclass
class TaskResult:
    name: str
    ok: bool
    lines: list
    data: dict


def extension_to_dict(E):
    T = E.total
    return {
        "objects": list(T.object_labels),
        "arrows": [{"id": a, "label": T.arrow_labels[a], "src": T.src[a],
                    "tgt": T.tgt[a], "proj": E.proj[a]} for a in T.arrows()],
        "units": list(T.unit),
        "compose": sorted([g, h, gh] for (g, h), gh in T.comp.items()),
        "inverse": list(T.inv),
        "inj": sorted([x, list(a), e] for (x, a), e in E.inj.items()),
    }


def extension_from_dict(data, base, module):
    n_arrows = len(data["arrows"])
    src = [0] * n_arrows
    tgt = [0] * n_arrows
    proj = [0] * n_arrows
    labels = [""] * n_arrows
    for rec in data["arrows"]:
        a = rec["id"]
        src[a], tgt[a], proj[a], labels[a] = rec["src"], rec["tgt"], rec["proj"], rec["label"]
    comp = {(g, h): gh for g, h, gh in data["compose"]}
    total = FiniteGroupoid(len(data["objects"]), src, tgt, data["units"], comp,
                           data["inverse"], object_labels=data["objects"],
                           arrow_labels=labels)
    inj = {(x, tuple(a)): e for x, a, e in data["inj"]}
    return Extension(base, module, total, tuple(proj), inj)


def _factors_dict(factors):
    return {"torsion": list(factors.torsion), "free_rank": factors.free_rank}


def run(doc, budget=None, max_degree=3, seed=0):
    """Execute the document's tasks in order; returns (results, exit_code)."""
    budget = budget or Budget()
    results = []
    G, A = doc.groupoid, doc.module
    classes_cache = {}

    def get_classes(line_no):
        if not A.all_fibers_finite:
            raise DocumentError(line_no, "finite coefficient fibers required")
        if "c" not in classes_cache:
            classes_cache["c"] = ext_classes(G, A)
        return classes_cache["c"]

    for args, line_no in doc.tasks:
        words = args.split()
        name = words[0] if words else ""
        try:
            if name == "validate":
                rep = validate(G)
                mrep = validate_module(A)
                ok = rep.ok and mrep.ok
                lines = ([f"groupoid axioms: {'pass' if rep.ok else 'FAIL'}"]
                         + rep.failures[:5]
                         + [f"module axioms: {'pass' if mrep.ok else 'FAIL'}"]
                         + mrep.failures[:5])
                results.append(TaskResult("validate", ok, lines,
                                          {"groupoid_ok": rep.ok, "module_ok": mrep.ok,
                                           "failures": rep.failures + mrep.failures}))
            elif name == "cohomology":
                span = words[1] if len(words) > 1 else f"0..{max_degree}"
                lo, _, hi = span.partition("..")
                lo = _int_arg(lo, line_no, "lowest degree", 0)
                hi = _int_arg(hi, line_no, "highest degree", lo) if hi else lo
                if hi > max_degree:
                    raise DocumentError(line_no,
                                        f"degree {hi} above --max-degree {max_degree}")
                groups = {n: cohomology(G, A, n) for n in range(lo, hi + 1)}
                line = " ".join(f"H^{n}={groups[n]}" for n in range(lo, hi + 1))
                results.append(TaskResult("cohomology", True, [line],
                                          {"degrees": {str(n): _factors_dict(f)
                                                       for n, f in groups.items()}}))
            elif name == "ext":
                cls = get_classes(line_no)
                lines = [f"{len(cls.classes)} classes, group {cls.factors}"]
                data = {"group": _factors_dict(cls.factors), "classes": []}
                for c in cls.classes:
                    split = is_strictly_trivial(c.extension) is not None
                    lines.append(f"class {c.coefficients}: "
                                 f"{'split' if split else 'non-split'}, "
                                 f"{c.extension.total.n_arrows} arrows")
                    data["classes"].append({"coefficients": list(c.coefficients),
                                            "split": split,
                                            "extension": extension_to_dict(c.extension)})
                results.append(TaskResult("ext", True, lines, data))
            elif name == "baer":
                cls = get_classes(line_no)
                torsion = cls.factors.torsion
                ok = True
                checked = 0
                for c1 in cls.classes:
                    for c2 in cls.classes:
                        expected = tuple((a + b) % d for a, b, d in
                                         zip(c1.coefficients, c2.coefficients, torsion))
                        s = baer_sum(c1.extension, c2.extension)
                        target = cls.class_of_coefficients(expected).extension
                        if are_equivalent(s, target) is None:
                            ok = False
                        checked += 1
                results.append(TaskResult(
                    "baer", ok,
                    [f"baer sums match cocycle addition on {checked} pairs: "
                     f"{'pass' if ok else 'FAIL'}"],
                    {"pairs": checked, "ok": ok}))
            elif name == "strict-trivial":
                cls = get_classes(line_no)
                ok = True
                lines = []
                recs = []
                for c in cls.classes:
                    wit = is_strictly_trivial(c.extension)
                    cob = is_coboundary(G, A, c.cocycle)
                    agree = (wit is not None) == (cob is not None)
                    ok = ok and agree
                    lines.append(f"class {c.coefficients}: section "
                                 f"{'found' if wit else 'none'}, coboundary "
                                 f"{'found' if cob else 'none'}"
                                 + ("" if agree else "  [DISAGREE]"))
                    recs.append({"coefficients": list(c.coefficients),
                                 "split": wit is not None})
                results.append(TaskResult("strict-trivial", ok, lines, {"classes": recs}))
            elif name == "morita":
                sets = _parse_sets(" ".join(words[1:]), line_no, G.n_objects)
                missing = sorted(set(G.objects()).difference(*sets))
                if missing:
                    raise DocumentError(
                        line_no, f"family does not cover the objects; missing {missing}")
                rep = morita_compare(G, A, sets, degrees=tuple(range(min(2, max_degree) + 1)),
                                     compare_ext=A.all_fibers_finite)
                results.append(TaskResult("morita", rep.ok, rep.lines(),
                                          {"rows": [{"degree": r.degree,
                                                     "left": _factors_dict(r.left),
                                                     "right": _factors_dict(r.right)}
                                                    for r in rep.rows],
                                           "ext_left": rep.ext_left,
                                           "ext_right": rep.ext_right}))
            elif name == "cech":
                if len(words) < 2:
                    raise DocumentError(line_no, "expected: cech maximal|single [DEGREE]")
                style = words[1]
                top = (_int_arg(words[2], line_no, "cech degree", 0) if len(words) > 2
                       else min(2, max_degree))
                if top > max_degree:
                    raise DocumentError(line_no, f"degree {top} above --max-degree")
                space = NerveSpace(G)
                coeffs = ModuleCoefficients(A)
                if style == "maximal":
                    cov = MaximalSimplicialCover(space)
                elif style == "single":
                    cov = single_set_cover(space, top + 1)
                else:
                    raise DocumentError(line_no, f"unknown cech cover spec {style!r}")
                ok = True
                lines = []
                rows = {}
                for n in range(top + 1):
                    left = cech_cohomology_on_cover(space, coeffs, cov, n, budget)
                    right = cohomology(G, A, n)
                    same = left == right
                    ok = ok and same
                    lines.append(f"H^{n}: cech({style})={left} groupoid={right}"
                                 f"  [{'ok' if same else 'MISMATCH'}]")
                    rows[str(n)] = {"cech": _factors_dict(left),
                                    "groupoid": _factors_dict(right)}
                results.append(TaskResult("cech", ok, lines, {"style": style, "rows": rows}))
            elif name == "homotopy-check":
                tseed = _int_arg(words[1], line_no, "seed") if len(words) > 1 else seed
                count = _int_arg(words[2], line_no, "trial count", 1) if len(words) > 2 else 25
                rep = run_homotopy_trials(tseed, count)
                results.append(TaskResult("homotopy-check", rep.ok, [rep.summary()],
                                          {"count": len(rep.trials), "ok": rep.ok,
                                           "seed": tseed}))
            else:
                raise DocumentError(line_no, f"unknown task {name!r}")
        except BudgetExceeded as exc:
            results.append(TaskResult(name, False, [f"budget exceeded: {exc}"],
                                      {"budget_exceeded": str(exc)}))
            return results, 3
    code = 0 if all(r.ok for r in results) else 1
    return results, code


def results_to_json(results):
    return json.dumps(
        {"version": 1,
         "tasks": [{"task": r.name, "ok": r.ok, "lines": r.lines, "data": r.data}
                   for r in results]},
        sort_keys=True, indent=2) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="groupoid-cohomology",
        description="cohomology of finite groupoids: validation, H^n, "
                    "extensions, Morita and Cech checks")
    parser.add_argument("--max-degree", type=int, default=3)
    parser.add_argument("--budget", type=int, default=None,
                        help="one absolute cap for all three enumeration budgets: "
                             "candidate indices, indices per point and cells")
    parser.add_argument("--json", dest="json_path", default=None)
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "validate", "cohomology", "ext", "morita-check",
                 "cech-check", "homotopy-check"):
        p = sub.add_parser(verb)
        p.add_argument("document")
        if verb == "homotopy-check":
            p.add_argument("--count", type=int, default=25)
    args = parser.parse_args(argv)

    try:
        text = open(args.document, encoding="utf-8").read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        doc = parse(text)
    except DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2

    if args.verb == "validate":
        doc.tasks = [("validate", 0)]
    elif args.verb == "cohomology":
        doc.tasks = [(f"cohomology 0..{args.max_degree}", 0)]
    elif args.verb == "ext":
        doc.tasks = [("ext", 0), ("baer", 0), ("strict-trivial", 0)]
    elif args.verb == "morita-check":
        kept = [t for t in doc.tasks if t[0].split()[:1] == ["morita"]]
        all_objects = ",".join(str(x) for x in doc.groupoid.objects())
        doc.tasks = kept or [(f"morita {all_objects}", 0)]
    elif args.verb == "cech-check":
        kept = [t for t in doc.tasks if t[0].split()[:1] == ["cech"]]
        top = min(2, args.max_degree)
        doc.tasks = kept or [(f"cech maximal {top}", 0), (f"cech single {top}", 0)]
    elif args.verb == "homotopy-check":
        doc.tasks = [(f"homotopy-check {args.seed} {args.count}", 0)]

    budget = Budget()
    if args.budget:
        budget = Budget(max_candidates=args.budget, max_per_point=args.budget,
                        max_cells=args.budget)
    try:
        results, code = run(doc, budget=budget, max_degree=args.max_degree,
                            seed=args.seed)
    except DocumentError as exc:
        print(f"task error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3

    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"[{status}] {r.name}")
        for line in r.lines:
            print(f"  {line}")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(results_to_json(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
