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

Everything is declared once: a second groupoid: or module: line, a repeated
object: or arrow: name, a second compose: for a pair or unit: for an object,
and a second fiber: or action: for one object or arrow (by label or id) are
errors at the line of the repeat. Table lines name objects and arrows by their
object:/arrow: names; fiber: and action: take a label or an id. A missing
fiber, or no action on an arrow between unequal fibers, is an error at the
module: fibers line.

Exit codes: 0 all tasks pass, 1 an assertion task fails, 2 usage or parse
error, 3 a size budget is exceeded. Structured output (--json) is
deterministic: identical documents give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields

from .abelian import AbHom, FinAbGroup, IntegerMatrix, ShapeError, homology_at
from .cech import (
    BudgetExceeded,
    Budget,
    MaximalSimplicialCover,
    ModuleCoefficients,
    NerveSpace,
    assemble_complex,
    sigma_cover,
    single_set_cover,
    use_budget,
)
from .classify import (
    Extension,
    are_equivalent,
    baer_sum,
    ext_classes,
    is_strictly_trivial,
)
from .cohomology import cochain_complex, is_coboundary
from .gmodule import GModule, constant_module, validate_module
from .groupoid import (
    FiniteGroupoid,
    cover_groupoid,
    cyclic_action_groupoid,
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
    explicit: bool = False  # from `table` or `fibers` lines, so not valid by construction


def _parse_orders(text, line_no):
    text = text.strip()
    try:
        return FinAbGroup(tuple(int(p) for p in text.split(",") if p != ""))
    except ValueError as exc:
        raise DocumentError(line_no, f"bad fiber orders {text!r}: {exc}")


def _parse_matrix(text, line_no):
    try:
        rows = json.loads(text)
        if any(type(v) is not int for row in rows for v in row):
            raise ValueError("entries must be JSON integers")
        return IntegerMatrix.from_rows(rows)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise DocumentError(line_no, f"bad action matrix: {exc}")


def _parse_sets(text, line_no, universe):
    sets = []
    for part in text.split("|"):
        try:
            ids = [int(p) for p in part.replace(",", " ").split()]
        except ValueError:
            raise DocumentError(line_no, f"bad object id in cover spec {part!r}")
        for x in ids:
            if not 0 <= x < universe:
                raise DocumentError(line_no, f"unknown object id {x}")
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


def _at_most(words, most, line_no):
    """Reject a line with more than `most` words."""
    if len(words) > most:
        raise DocumentError(line_no, f"unexpected words after "
                            f"{' '.join(words[:most])!r}: {' '.join(words[most:])!r}")


_BUILDERS = {"cyclic": cyclic_group, "pair": pair_groupoid, "unit": unit_groupoid}


def _build_groupoid(args, line_no):
    words = args.split()
    kind = words[0] if words else ""
    try:
        if kind in _BUILDERS:
            _at_most(words, 2, line_no)
            return _BUILDERS[kind](int(words[1]))
        if kind == "action":
            # action N on M perm p_0 ... p_{M-1}
            n, m = int(words[1]), int(words[3])
            if words[2] != "on" or words[4] != "perm":
                raise DocumentError(line_no, "expected: action N on M perm ...")
            perm = [int(w) for w in words[5:]]
            if sorted(perm) != list(range(m)):
                raise DocumentError(line_no, "perm must be a permutation of 0..M-1")
            return cyclic_action_groupoid(n, perm)
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


# The words after each groupoid-table directive; the first `named` of them
# name what the line declares, and a second line declaring it is an error.
_TABLE_USAGE = {"object": ("NAME", 1), "arrow": ("NAME RANGE SOURCE", 1),
                "compose": ("F G H", 2), "unit": ("OBJECT ARROW", 1)}


def _declare(seen, key, line_no):
    """Note the line where `key`, a directive and its names, is first declared."""
    if key in seen:
        what = " ".join([key[0], *map(repr, key[1:])])
        raise DocumentError(line_no, f"repeated {what}, first at line {seen[key]}")
    seen[key] = line_no


def _lookup(ids, name, line_no, owner, what, count=0):
    """The id of `name`: its entry in `ids`, else a decimal id below `count`."""
    if name in ids:
        return ids[name]
    if name.isdecimal() and int(name) < count:
        return int(name)
    raise DocumentError(line_no, f"{owner} names unknown {what} {name!r}")


def _table_groupoid(table, line_no):
    """The groupoid of an explicit table that ends at line `line_no`."""
    oid = {words[0]: i for i, (words, _) in enumerate(table["object"])}
    aid = {words[0]: i for i, (words, _) in enumerate(table["arrow"])}
    src, tgt = [], []
    for (name, rng_obj, src_obj), ln in table["arrow"]:
        tgt.append(_lookup(oid, rng_obj, ln, f"arrow {name!r}", "object"))
        src.append(_lookup(oid, src_obj, ln, f"arrow {name!r}", "object"))
    comp = {}
    for words, ln in table["compose"]:
        f, g, h = [_lookup(aid, w, ln, "compose", "arrow") for w in words]
        comp[f, g] = h
    unit = [None] * len(oid)
    for (x, f), ln in table["unit"]:
        x = _lookup(oid, x, ln, "unit", "object")
        unit[x] = _lookup(aid, f, ln, "unit", "arrow")
    missing = [o for o, i in oid.items() if unit[i] is None]
    if missing:
        raise DocumentError(line_no, f"missing unit for objects {missing}")
    inv = [None] * len(aid)
    for g in range(len(aid)):
        for h in range(len(aid)):
            if comp.get((g, h)) == unit[tgt[g]] and comp.get((h, g)) == unit[src[g]]:
                inv[g] = h
                break
    if None in inv:
        raise DocumentError(line_no, "some arrow has no inverse in the table")
    return FiniteGroupoid(len(oid), src, tgt, unit, comp, inv,
                          object_labels=list(oid), arrow_labels=list(aid))


def _fibers_module(G, entries, line_no):
    """The module of the `fiber:` and `action:` lines after `module: fibers`
    at line `line_no`; an arrow between equal fibers acts by the identity."""
    seen = {}
    oid = {label: i for i, label in enumerate(G.object_labels)}
    fibers = [None] * G.n_objects
    for name, group, ln in entries["fiber"]:
        x = _lookup(oid, name, ln, "fiber", "object", G.n_objects)
        _declare(seen, ("fiber", G.object_labels[x]), ln)
        fibers[x] = group
    if None in fibers:
        raise DocumentError(line_no, "need a fiber for every object")
    aid = {label: i for i, label in enumerate(G.arrow_labels)}
    actions = [None] * G.n_arrows
    for name, matrix, ln in entries["action"]:
        g = _lookup(aid, name, ln, "action", "arrow", G.n_arrows)
        _declare(seen, ("action", G.arrow_labels[g]), ln)
        try:
            actions[g] = AbHom(fibers[G.src[g]], fibers[G.tgt[g]], matrix)
        except ShapeError as exc:
            raise DocumentError(ln, f"action matrix shape: {exc}")
    for g in G.arrows():
        if actions[g] is None:
            sf, tf = fibers[G.src[g]], fibers[G.tgt[g]]
            if sf.orders != tf.orders:
                raise DocumentError(line_no, f"missing action for arrow {G.arrow_labels[g]!r}")
            actions[g] = AbHom.identity(sf)
    return GModule(G, tuple(fibers), tuple(actions))


_FIBER_VALUES = {"fiber": _parse_orders, "action": _parse_matrix}


def parse(text):
    """Parse a workspace document; diagnostics carry line numbers."""
    groupoid = table = fibers_at = None
    explicit = False
    constant = FinAbGroup(())
    seen, tasks = {}, []
    entries = {key: [] for key in _FIBER_VALUES}

    def finish(line_no):
        nonlocal groupoid, table
        if groupoid is None:
            if table is None:
                raise DocumentError(line_no, "no groupoid declared yet")
            groupoid, table = _table_groupoid(table, line_no), None

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise DocumentError(line_no, f"expected 'key: value', got {line!r}")
        key, _, args = line.partition(":")
        key, args = key.strip(), args.strip()

        if key in ("groupoid", "module"):
            _declare(seen, (key,), line_no)
        if key == "groupoid":
            if args == "table":
                table = {directive: [] for directive in _TABLE_USAGE}
                explicit = True
            else:
                groupoid = _build_groupoid(args, line_no)
        elif key in _TABLE_USAGE:
            if table is None:
                raise DocumentError(line_no, f"{key}: outside a groupoid table")
            usage, named = _TABLE_USAGE[key]
            words = args.split()
            if len(words) != len(usage.split()):
                raise DocumentError(line_no, f"expected: {key}: {usage}")
            _declare(seen, (key, *words[:named]), line_no)
            table[key].append((words, line_no))
        elif key == "module":
            finish(line_no)
            if args.startswith("constant"):
                constant = _parse_orders(args[len("constant"):], line_no)
            elif args == "fibers":
                fibers_at = line_no
            else:
                raise DocumentError(line_no, f"unknown module spec {args!r}")
        elif key in _FIBER_VALUES:
            if fibers_at is None:
                raise DocumentError(line_no, f"{key}: outside 'module: fibers'")
            name, _, value = args.partition(" ")
            entries[key].append((name.strip(), _FIBER_VALUES[key](value, line_no), line_no))
        elif key == "task":
            finish(line_no)
            tasks.append((args, line_no))
        else:
            raise DocumentError(line_no, f"unknown field {key!r}")

    if table is not None:
        finish(len(lines))
    if groupoid is None:
        raise DocumentError(len(lines) or 1, "document declares no groupoid")
    if fibers_at is not None:
        module = _fibers_module(groupoid, entries, fibers_at)
    else:
        module = constant_module(groupoid, constant)
    return WorkspaceDocument(groupoid, module, tasks, explicit or fibers_at is not None)


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


# The most words of a task line, its name included; morita reads sets to the end.
_TASK_WORDS = {"validate": 1, "cohomology": 2, "ext": 1, "baer": 1, "strict-trivial": 1,
               "cech": 3, "homotopy-check": 3}


def run(doc, max_degree=3, seed=0):
    """Run the document's tasks in order under the active budget; returns (results, exit_code).

    Explicit tables are validated once, before the first task other than
    `validate`: a failure there is a DocumentError naming the first failure.
    A DocumentError carries the results of the tasks that finished before it.
    """
    results = []
    G, A = doc.groupoid, doc.module
    unchecked = doc.explicit
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
            _at_most(words, _TASK_WORDS.get(name, len(words)), line_no)
            if unchecked and name != "validate":
                unchecked = False
                failures = validate(G).failures or validate_module(A).failures
                if failures:
                    raise DocumentError(line_no, f"the document's tables fail validation: "
                                                 f"{failures[0]}")
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
                cx = cochain_complex(G, A, hi + 1, normalized=True)
                groups = {n: homology_at(cx, n) for n in range(lo, hi + 1)}
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
                cech = assemble_complex(space, coeffs, sigma_cover(space, cov, top + 1), top + 1)
                groupoid = cochain_complex(G, A, top + 1)
                ok = True
                lines = []
                rows = {}
                for n in range(top + 1):
                    left, right = homology_at(cech, n), homology_at(groupoid, n)
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
        except DocumentError as exc:
            exc.results = results
            raise
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
                        help="one absolute cap N for every enumeration budget, "
                             "nerve levels and the Morita cover nerve included")
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
    if args.budget is not None and args.budget < 1:
        parser.error(f"--budget must be at least 1, got {args.budget}")
    if args.max_degree < 0:
        parser.error(f"--max-degree must be at least 0, got {args.max_degree}")

    try:
        with open(args.document, encoding="utf-8") as fh:
            text = fh.read()
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

    caps = {} if args.budget is None else {f.name: args.budget for f in fields(Budget)}
    error = None
    try:
        with use_budget(Budget(**caps)):
            results, code = run(doc, max_degree=args.max_degree, seed=args.seed)
    except DocumentError as exc:
        results, code, error = exc.results, 2, exc

    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"[{status}] {r.name}")
        for line in r.lines:
            print(f"  {line}")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(results_to_json(results))
    if error is not None:
        print(f"task error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
