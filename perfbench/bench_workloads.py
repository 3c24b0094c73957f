"""The three workloads: their operations, generated from a seed, and their oracles.

An operation is one call a user of the library or the CLI would make. Its
`run` builds fresh groupoid objects every time, so no nerve or sigma-cover
cache carries over from one operation to the next (a CLI user rebuilds them
on every invocation). Its `check` compares the result with an oracle that
does not call the code being measured: closed forms, the brute-force
enumerations in tests/oracles.py, arithmetic written out here, or output
frozen from an earlier commit.

- ladder: a few large factors-only complexes; integer elimination does
  nearly all the work.
- dictionary: thousands of small degree-1 and degree-2 calls; the
  differential and the classify searches do the work, elimination sees only
  tiny matrices.
- documents: CLI documents run in-process, one task per operation; degree-3
  Cech tasks make sigma enumeration and complex assembly a large share.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]   # None when the result is right


def _factors(f):
    return (tuple(f.torsion), f.free_rank)


def _expect(want):
    def check(got):
        got = _factors(got)
        return None if got == want else f"got {got}, want {want}"
    return check


# ---------------------------------------------------------------------------
# ladder

# (label, builder, size, coefficient order (0 = Z), degree)
LADDER = [
    ("H^4(C3,Z/3)", "cyclic", 3, 3, 4),
    ("H^3(C4,Z/4)", "cyclic", 4, 4, 3),
    ("H^2(C5,Z/5)", "cyclic", 5, 5, 2),
    ("H^2(C6,Z/6)", "cyclic", 6, 6, 2),
    ("H^2(pair 4,Z/2)", "pair", 4, 2, 2),
    ("H^3(C3,Z)", "cyclic", 3, 0, 3),
]


def ladder_answer(oracles, builder, size, order, degree):
    """Closed forms: H^n(C_m, Z/m) = Z/m; H^n(C_m, Z) from the periodic
    resolution; a pair groupoid has the fiber in degree 0 and 0 above."""
    if builder == "pair":
        return ((order,), 0) if degree == 0 else ((), 0)
    if order == size:
        return ((size,), 0)
    torsion = oracles.periodic_resolution_cyclic(size, order, degree)
    free = 1 if order == 0 and degree == 0 else 0
    return (tuple(t for t in torsion if t != 0), free)


def ladder_ops(lib, seed, expected):
    ops = []
    for label, builder, size, order, degree in LADDER:
        def run(builder=builder, size=size, order=order, degree=degree):
            gc = lib.gc
            G = gc.cyclic_group(size) if builder == "cyclic" else gc.pair_groupoid(size)
            A = gc.constant_module(G, gc.FinAbGroup((order,)))
            return gc.cohomology(G, A, degree)
        ops.append(Op(label, run, _expect(expected[label])))
    random.Random(seed).shuffle(ops)
    return ops


def ladder_expected(lib):
    return {label: ladder_answer(lib.oracles, b, s, o, d) for label, b, s, o, d in LADDER}


# ---------------------------------------------------------------------------
# dictionary: group arithmetic written out independently of the library


@dataclass(frozen=True)
class CyclicSetting:
    """C_m acting on Z/q, trivially or (m = 2) by negation."""

    name: str
    m: int
    q: int
    negate: bool = False

    def act(self, g):
        return -1 if self.negate and g % 2 else 1

    def build(self, gc):
        G = gc.cyclic_group(self.m)
        Z = gc.FinAbGroup((self.q,))
        if not self.negate:
            return G, gc.constant_module(G, Z)
        neg = gc.AbHom(Z, Z, gc.IntegerMatrix.from_rows([[-1]]))
        return G, gc.GModule(G, (Z,), tuple(neg if g % 2 else gc.AbHom.identity(Z)
                                            for g in range(self.m)))

    def is_cocycle(self, c, degree):
        m, q = self.m, self.q
        if degree == 1:
            return all((self.act(g) * c[h] - c[(g + h) % m] + c[g]) % q == 0
                       for g in range(m) for h in range(m))
        return all((self.act(g) * c[(h, k)] - c[((g + h) % m, k)]
                    + c[(g, (h + k) % m)] - c[(g, h)]) % q == 0
                   for g in range(m) for h in range(m) for k in range(m))

    def random_cochain(self, rng, degree):
        keys = range(self.m) if degree == 1 else [(g, h) for g in range(self.m)
                                                  for h in range(self.m)]
        return {key: rng.randrange(self.q) for key in keys}

    def random_two_cocycle(self, rng):
        """k times the carry cocycle plus the coboundary of a random 1-cochain."""
        m, q = self.m, self.q
        k = 0 if self.negate else rng.randrange(q)
        b = self.random_cochain(rng, 1)
        return {(g, h): (k * (g + h >= m) + self.act(g) * b[h] - b[(g + h) % m] + b[g]) % q
                for g in range(m) for h in range(m)}

    def two_class(self, c):
        """The class of a 2-cocycle in H^2 = Z/m (trivial action, q = m): the sum
        of c(1, i) is invariant under coboundaries and is 1 on the carry cocycle.
        With negation on Z/3, H^2(C2) = 0."""
        if self.negate:
            return 0
        return sum(c[(1, i)] for i in range(self.m)) % self.m

    def is_one_coboundary(self, diff):
        """diff(g) = g.a - a for some a in Z/q (one object, so this is all of B^1)."""
        return any(all((self.act(g) * a - a - diff[g]) % self.q == 0 for g in range(self.m))
                   for a in range(self.q))


def make_cochain(gc, G, A, degree, values):
    """Library cochain from a dict keyed by arrow tuples (degree 2) or arrows."""
    key = (lambda t: t.arrows) if degree == 2 else (lambda t: t.arrows[0])
    return gc.make_cochain(G, A, degree, [(values[key(t)],) for t in G.nerve(degree)])


C2 = CyclicSetting("C2/Z2", 2, 2)
C2NEG = CyclicSetting("C2/-Z3", 2, 3, negate=True)
C3 = CyclicSetting("C3/Z3", 3, 3)
C4 = CyclicSetting("C4/Z4", 4, 4)
TWO_SETTINGS = (C2, C2NEG, C3)
TORSOR_SETTINGS = (C2, C2NEG, C3, C4)

# 2-cochains per setting per pass: every fourth is drawn uniformly from the
# cocycles, the rest uniformly from the non-cocycles, so each pass does the
# same number of round trips whatever the seed.
COCHAIN_SAMPLE = {C2: 120, C2NEG: 120, C3: 600}
TORSOR_SAMPLE = 40
# Morita instances are kept in a band of size (composable 3-chains of the
# cover groupoid times fiber generators) so the per-pass cost does not swing
# with the seed; above about 400 one comparison jumps to 7-14 s. Their fiber
# orders are powers of a single prime: with two primes across the fibers some
# tiny instances blow up in the dense SNF (the integer-growth defect), which
# the documents workload measures with its two-fiber morita operation. Here
# elimination is meant to stay small.
MORITA_SAMPLE = 12
MORITA_CHAINS = (48, 100)


def _primes(n):
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | ({n} if n > 1 else set())


def _is_cocycle_op(lib, setting, values):
    cocycle = setting.is_cocycle(values, 2)

    def run():
        gc = lib.gc
        G, A = setting.build(gc)
        return gc.is_cocycle(G, A, make_cochain(gc, G, A, 2, values))

    return Op(f"is_cocycle {setting.name}", run,
              lambda got: None if got == cocycle else f"is_cocycle {got}, oracle {cocycle}")


def _round_trip_op(lib, setting, values):
    split = setting.two_class(values) == 0

    def run():
        gc = lib.gc
        G, A = setting.build(gc)
        phi = make_cochain(gc, G, A, 2, values)
        E = gc.extension_from_cocycle(G, A, phi)
        back = gc.cocycle_from_extension(E)
        cohomologous = lib.cohomology.are_cohomologous(G, A, back, phi) is not None
        equivalent = gc.are_equivalent(gc.extension_from_cocycle(G, A, back), E) is not None
        trivial = gc.is_strictly_trivial(E) is not None
        coboundary = gc.is_coboundary(G, A, phi) is not None
        return cohomologous, equivalent, trivial, coboundary

    def check(got):
        want = (True, True, split, split)
        return None if got == want else f"(cohomologous, equivalent, split, coboundary) {got}, want {want}"

    return Op(f"round trip {setting.name}", run, check)


def _baer_table_op(lib, setting, h2):
    torsion, order = tuple(h2), 1
    for d in torsion:
        order *= d

    def run():
        gc = lib.gc
        G, A = setting.build(gc)
        cls = gc.ext_classes(G, A)
        sums = []
        for c1 in cls.classes:
            for c2 in cls.classes:
                want = tuple((a + b) % d for a, b, d in
                             zip(c1.coefficients, c2.coefficients, cls.factors.torsion))
                s = gc.baer_sum(c1.extension, c2.extension)
                target = cls.class_of_coefficients(want).extension
                sums.append(gc.are_equivalent(s, target) is not None)
        return _factors(cls.factors), len(cls.classes), sums

    def check(got):
        factors, n_classes, sums = got
        if factors != (torsion, 0) or n_classes != order:
            return f"ext group {factors} with {n_classes} classes, brute force {torsion}"
        if len(sums) != order * order or not all(sums):
            return "a Baer sum differs from coefficient addition"
        return None

    return Op(f"baer table {setting.name}", run, check)


def _torsor_op(lib, setting, values, picks):
    def run():
        gc = lib.gc
        G, A = setting.build(gc)
        phi = make_cochain(gc, G, A, 1, values)
        T = gc.torsor_from_cocycle(G, A, phi)
        ok = gc.validate_torsor(T).ok
        sections = []
        for x in G.objects():
            over = [p for p in range(T.n_points) if T.anchor[p] == x]
            sections.append(over[picks[x] % len(over)])
        back = gc.cocycle_from_torsor(G, A, T, sections)
        return ok, {t.arrows[0]: v[0] for t, v in zip(G.nerve(1), back.values)}

    def check(got):
        ok, back = got
        if not ok:
            return "torsor fails its axioms"
        diff = {g: back[g] - values[g] for g in range(setting.m)}
        return None if setting.is_one_coboundary(diff) else "torsor cocycle not cohomologous"

    return Op(f"torsor {setting.name}", run, check)


def _cover_chains(G, sets, length=3):
    """Composable arrow chains of the cover groupoid G[U], counted from G alone."""
    objects = [(i, x) for i, s in enumerate(sets) for x in sorted(s)]
    pos = {o: n for n, o in enumerate(objects)}
    arrows = [(pos[(i, G.tgt[g])], pos[(j, G.src[g])])
              for i, si in enumerate(sets) for j, sj in enumerate(sets)
              for g in range(len(G.src)) if G.tgt[g] in si and G.src[g] in sj]
    ends = [1] * len(objects)   # chains ending (at their source) at each object
    for _ in range(length):
        nxt = [0] * len(objects)
        for tgt, src in arrows:
            nxt[src] += ends[tgt]
        ends = nxt
    return sum(ends)


def _morita_ops(lib, seed):
    """Seeded random_instance covers, kept when the cover groupoid is small
    enough that one comparison stays at desk scale."""
    rng = random.Random(seed)
    ops = []
    while len(ops) < MORITA_SAMPLE:
        state = rng.getstate()
        G, A = lib.randomized.random_instance(rng, max_arrows=6)
        sets = lib.randomized.random_object_cover(rng, G, max_sets=2)
        size = _cover_chains(G, sets) * max(f.ngens for f in A.fibers)
        primes = set().union(*(_primes(d) for f in A.fibers for d in f.orders))
        if not MORITA_CHAINS[0] <= size <= MORITA_CHAINS[1] or len(primes) > 1:
            continue
        ops.append(_morita_op(lib, state, len(ops)))
    return ops


def _morita_op(lib, state, number):
    def run():
        rng = random.Random()
        rng.setstate(state)
        G, A = lib.randomized.random_instance(rng, max_arrows=6)
        sets = lib.randomized.random_object_cover(rng, G, max_sets=2)
        return G, A, lib.gc.morita_compare(G, A, sets, degrees=(0, 1, 2))

    def check(got):
        G, A, rep = got
        if not rep.ok:
            return "H^n(G) differs from H^n(G[U])"
        size = 1
        for f in A.fibers:
            size *= f.size
        if size <= 4096:
            o = lib.oracles
            fixed = o.invariant_sections_by_enumeration(G, A)
            want = o.invariant_factors_from_orders(o.section_orders(G, A, fixed))
            if rep.rows[0].left != want:
                return f"H^0 {rep.rows[0].left}, invariant sections {want}"
        return None

    return Op(f"morita #{number}", run, check)


def dictionary_ops(lib, seed, expected):
    rng = random.Random(seed)
    ops = []
    for setting, count in COCHAIN_SAMPLE.items():
        for k in range(count):
            if k % 4 == 0:
                values = setting.random_two_cocycle(rng)
                ops.append(_round_trip_op(lib, setting, values))
            else:
                values = setting.random_cochain(rng, 2)
                while setting.is_cocycle(values, 2):
                    values = setting.random_cochain(rng, 2)
            ops.append(_is_cocycle_op(lib, setting, values))
    for setting in TWO_SETTINGS:
        ops.append(_baer_table_op(lib, setting, expected["h2"][setting.name]))
    for k in range(TORSOR_SAMPLE):
        setting = TORSOR_SETTINGS[k % len(TORSOR_SETTINGS)]
        while True:
            values = setting.random_cochain(rng, 1)
            if setting.is_cocycle(values, 1):
                break
        ops.append(_torsor_op(lib, setting, values, [rng.randrange(setting.q)]))
    ops.extend(_morita_ops(lib, rng.randrange(2**32)))
    rng.shuffle(ops)
    return ops


def dictionary_oracle(oracles):
    """H^2 of each degree-2 setting by brute-force enumeration (slow; frozen)."""
    out = {}
    for s in TWO_SETTINGS:
        table = {(a, b): (a + b) % s.m for a in range(s.m) for b in range(s.m)}
        act = {g: s.act(g) for g in range(s.m)}
        out[s.name] = list(oracles.brute_force_group_cohomology(table, 0, act, s.q, 2).torsion)
    return {"h2": out}


# ---------------------------------------------------------------------------
# documents

S3_NAMES = (("e", "a", "b", "c", "d", "f"),
            ("id", "r1", "r2", "s0", "s1", "s2"),
            ("u", "x", "y", "z", "v", "w"))


def s3_table(names):
    """The symmetric group on three letters as an explicit one-object table."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    name = dict(zip(perms, names))
    lines = ["groupoid: table", "object: pt"]
    lines += [f"arrow: {name[p]} pt pt" for p in perms]
    for p in perms:
        for q in perms:
            pq = tuple(p[q[i]] for i in range(3))
            lines.append(f"compose: {name[p]} {name[q]} {name[pq]}")
    lines.append(f"unit: pt {name[perms[0]]}")
    return "\n".join(lines)


TWO_FIBER_TABLE = "\n".join([
    "groupoid: table", "object: x", "object: y",
    "arrow: e x x", "arrow: g x x", "arrow: u y y",
    "compose: e e e", "compose: e g g", "compose: g e g", "compose: g g e", "compose: u u u",
    "unit: x e", "unit: y u",
    "module: fibers", "fiber: x 5", "fiber: y 2,2", "action: g [[4]]"])

# Each slot is one document: its variants (headers that give isomorphic
# inputs at equal cost, one picked per seed) and its tasks. One task is one
# operation. The third field gives the closed form its cohomology values must
# match: (builder, size, order) for cyclic and pair groupoids, or a table
# {degree: (torsion, free rank)} worked out by hand.
DOCUMENT_SLOTS = [
    ("cyclic 2", ["groupoid: cyclic 2\nmodule: constant 2"], ("cyclic", 2, 2),
     ["validate", "cohomology 0..3", "ext", "baer", "strict-trivial", "cech maximal 3",
      "cech single 3"]),
    ("cyclic 3", ["groupoid: cyclic 3\nmodule: constant 3"], ("cyclic", 3, 3),
     ["cohomology 0..3", "ext", "baer", "strict-trivial", "cech maximal 3", "cech single 3"]),
    ("cyclic 4", ["groupoid: cyclic 4\nmodule: constant 4"], ("cyclic", 4, 4),
     ["cohomology 0..2", "cech maximal 2", "cech single 2"]),
    ("pair 2", ["groupoid: pair 2\nmodule: constant 2"], ("pair", 2, 2),
     ["validate", "cohomology 0..3", "morita 0|1", "cech maximal 3", "cech single 3"]),
    ("pair 3", ["groupoid: pair 3\nmodule: constant 2"], ("pair", 3, 2),
     ["cech maximal 2", "cech single 2"]),
    ("action", [f"groupoid: action 2 on 4 perm {p}\nmodule: constant 2"
                for p in ("1 0 3 2", "2 3 0 1", "3 2 1 0")], None,
     ["validate", "cohomology 0..2", "ext", "baer", "strict-trivial", "morita 0,1,2,3",
      "cech maximal 2"]),
    ("cover", [f"groupoid: cover pair 2 sets {s}\nmodule: constant 2"
               for s in ("0|1", "1|0")], ("pair", 2, 2),
     ["validate", "cohomology 0..3", "ext", "strict-trivial", "morita 0|1",
      "cech maximal 3"]),
    ("table", [s3_table(n) + "\nmodule: constant 2" for n in S3_NAMES], None,
     ["validate", "cohomology 0..2"]),
    ("twisted", ["groupoid: cyclic 2\nmodule: fibers\nfiber: 0 3\naction: 1 [[2]]"], None,
     ["validate", "cohomology 0..3", "ext", "strict-trivial", "cech maximal 3",
      "cech single 3"]),
    # two short homotopy checks. Their cost moves with the trial seed (0.03 to
    # 0.7 s at 15 trials), so the variants are the trial seeds whose checks cost
    # 0.06 to 0.1 s at the seed commit: the pick then moves no percentile
    ("homotopy a", [f"groupoid: cyclic 2\nmodule: constant 2\ntask: homotopy-check {t} 15"
                    for t in (2, 6, 11, 12, 16)], None, [None]),
    ("homotopy b", [f"groupoid: cyclic 2\nmodule: constant 2\ntask: homotopy-check {t} 15"
                    for t in (17, 19, 20, 21, 24)], None, [None]),
    # C2 acting by -1 on Z/5 beside a point with (Z/2)^2; H^2 of the cover
    # groupoid for the family {y}, {x, y} blows up in the dense SNF
    ("two-fiber table", [TWO_FIBER_TABLE], {0: ((2, 2), 0), 1: ((), 0), 2: ((), 0), 3: ((), 0)},
     ["validate", "cohomology 0..3", "morita 0|0,1", "morita 1|0,1"]),
    # ROADMAP defect: coefficient explosion in the final SNF of homology_at
    ("C5 maximal", ["groupoid: cyclic 5\nmodule: constant 5"], ("cyclic", 5, 5),
     ["cech maximal 2"]),
]

# Operations that miss the deadline on the seed commit (integer growth in
# the dense SNF). They stay in the workload and count as failed.
KNOWN_FAILING = ("two-fiber table: morita 1|0,1", "C5 maximal: cech maximal 2")


def document_text(header, task):
    return header + "\n" if task is None else f"{header}\ntask: {task}\n"


def document_pool():
    """Every document text any seed can produce, for freezing."""
    for _, variants, _, tasks in DOCUMENT_SLOTS:
        for header in variants:
            for task in tasks:
                yield document_text(header, task)


def closed_form(form, degree):
    if isinstance(form, dict):
        return form.get(degree)
    builder, size, order = form
    if builder == "pair":
        return ((order,), 0) if degree == 0 else ((), 0)
    return ((size,), 0) if order == size else None


def _document_check(frozen, form):
    def check(out):
        if frozen is not None and out != frozen:
            return "--json output differs from the frozen copy"
        if form is None:
            return None
        data = json.loads(out)
        for task in data["tasks"]:
            if not task["ok"]:
                return f"task {task['task']} reports failure"
            d = task["data"]
            pairs = []
            if task["task"] == "cohomology":
                pairs = [(int(n), f) for n, f in d["degrees"].items()]
            elif task["task"] == "cech":
                pairs = [(int(n), row[side]) for n, row in d["rows"].items()
                         for side in ("cech", "groupoid")]
            elif task["task"] == "morita":
                pairs = [(row["degree"], row[side]) for row in d["rows"]
                         for side in ("left", "right")]
            for n, f in pairs:
                want = closed_form(form, n)
                got = (tuple(f["torsion"]), f["free_rank"])
                if want is not None and got != want:
                    return f"H^{n} {got}, closed form {want}"
        return None
    return check


def documents_ops(lib, seed, expected):
    rng = random.Random(seed)
    ops = []
    for slot, variants, form, tasks in DOCUMENT_SLOTS:
        header = rng.choice(variants)
        for task in tasks:
            text = document_text(header, task)
            frozen = expected["outputs"].get(text)
            if frozen is None and form is None:
                raise KeyError(f"no frozen output and no closed form for {text!r}")

            def run(text=text):
                cli = lib.cli
                results, _ = cli.run(cli.parse(text))
                return cli.results_to_json(results)

            label = task if task is not None else header.rsplit("task: ", 1)[-1]
            ops.append(Op(f"{slot}: {label}", run, _document_check(frozen, form)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "ladder": ladder_ops,
    "dictionary": dictionary_ops,
    "documents": documents_ops,
}
