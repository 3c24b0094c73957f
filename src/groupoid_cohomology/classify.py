"""Constructive low-degree dictionaries.

Degree 1: cocycles correspond to equivariant principal bundles (torsors) for
the coefficient module; changing the trivializing sections changes the
cocycle by a coboundary.

Degree 2: cocycles correspond to extensions A -> E -> G over a fixed object
set, with conjugation in E inducing the module action. The constructions are
the explicit ones: a cocycle phi yields the total groupoid on pairs (a, g)
with product (a, g)(b, h) = (a + g.b + phi(g, h), gh); the Baer sum is the
fiber product modulo the antidiagonal coefficient action. Non-normalized
cocycles are accepted throughout, so the unit over x is (-phi(x, x), x).

A section sigma of the projection gives one chart, e = i(a) sigma(proj e)
for each arrow e of the total. The cocycle of sigma, the arrow map of an
equivalence, the retraction of a split extension and the least pair of each
Baer orbit (sigma the least lifts, `fibers` of proj) are all read from it.
Both searches (equivalence, split section) are one backtracking search for
sigma with sigma(u) sigma(v) = i(phi(u, v)) sigma(uv): phi is the canonical
cocycle of the source for an equivalence and 0 for a split section. Covered
cocycle data, glued by psi, go through the same builder as global cocycles.

Everything here requires finite coefficient fibers; exhaustive searches
(equivalences, morphism sections) are sound and complete at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .abelian import ShapeError
from .cohomology import (
    Cochain,
    cochain_add,
    cohomology,
    differential,
    make_cochain,
    zero_cochain,
)
from .groupoid import FiniteGroupoid, GroupoidMorphism, Report, fibers, memberships, validate


class NotACocycleError(ValueError):
    """Input fails dphi = 0; the message cites a failing tuple."""


def _require_cocycle(G, A, phi):
    d = differential(G, A, phi)
    for t, v in zip(G.nerve(phi.degree + 1), d.values):
        if any(x != 0 for x in v):
            labels = tuple(G.arrow_labels[g] for g in t.arrows)
            raise NotACocycleError(f"dphi != 0 at the tuple {labels}")


def _require_finite(A):
    if not A.all_fibers_finite:
        raise ValueError("finite coefficient fibers required; "
                         "use cohomology() for infinite coefficients")


class _FiberTable(NamedTuple):
    """A finite fiber on element positions: its elements in `elements()`
    order, the position of each element, and addition and negation as
    tables of positions."""

    elements: list
    position: dict
    add: list
    neg: list


def _fiber_table(fib):
    # positions are mixed-radix numbers with the first generator most
    # significant, so the tables grow one generator at a time from the last
    elements = fib.elements()
    add, neg = [[0]], [0]
    for d in reversed(fib.orders):
        w = len(neg)
        add = [[(i // w + j // w) % d * w + add[i % w][j % w] for j in range(d * w)]
               for i in range(d * w)]
        neg = [-(i // w) % d * w + neg[i % w] for i in range(d * w)]
    return _FiberTable(elements, {a: i for i, a in enumerate(elements)}, add, neg)


# ---------------------------------------------------------------------------
# degree 2: extensions


@dataclass
class Extension:
    """A -> E -> G over a common object set.

    `proj` maps E-arrows to G-arrows (the identity on objects); `inj` maps
    (object, fiber element) to the E-arrow embedding it. `arrow_pairs` records
    the (g, a) labelling of E-arrows when E was built from a cocycle; it is
    None for totals built by other means.
    """

    base: FiniteGroupoid
    module: object
    total: FiniteGroupoid
    proj: tuple[int, ...]
    inj: dict
    arrow_pairs: tuple | None = None

    def lifts(self, g):
        return fibers(self.proj, self.base.n_arrows)[g]

    def act_coefficient(self, a, x, e):
        """i(a) * e, for a in the fiber at x = r(e)."""
        fib = self.module.fiber(x)
        return self.total.compose(self.inj[(x, fib.reduce(a))], e)


def validate_extension(E):
    """All extension axioms, exhaustively: groupoid axioms for the total,
    morphism/surjectivity of proj, fiberwise embedding of inj, exactness
    (proj^{-1}(units) = image of inj) and the conjugation law."""
    fails = []
    G, T, A = E.base, E.total, E.module
    rep = validate(T)
    if not rep.ok:
        return Report(False, ["total: " + f for f in rep.failures])
    if T.n_objects != G.n_objects:
        return Report(False, ["object sets differ"])
    for e in T.arrows():
        g = E.proj[e]
        if T.src[e] != G.src[g] or T.tgt[e] != G.tgt[g]:
            fails.append(f"proj does not preserve endpoints at arrow {e}")
    for (e1, e2), e12 in T.comp.items():
        if G.comp.get((E.proj[e1], E.proj[e2])) != E.proj[e12]:
            fails.append(f"proj not multiplicative at ({e1},{e2})")
    if any(E.proj[T.unit[x]] != G.unit[x] for x in G.objects()):
        fails.append("proj does not preserve units")
    if set(E.proj) != set(G.arrows()):
        fails.append("proj is not surjective")
    # inj is a fiberwise injective group morphism onto the kernel
    kernel = {e for e in T.arrows() if E.proj[e] == G.unit[T.src[e]] and T.src[e] == T.tgt[e]}
    image = set()
    for x in G.objects():
        fib = A.fiber(x)
        seen = {}
        for a in fib.elements():
            e = E.inj.get((x, a))
            if e is None:
                fails.append(f"inj misses ({x}, {a})")
                continue
            if T.src[e] != x or T.tgt[e] != x or E.proj[e] != G.unit[x]:
                fails.append(f"inj({x},{a}) is not in the kernel isotropy at {x}")
            if e in seen:
                fails.append(f"inj not injective at object {x}")
            seen[e] = a
            image.add(e)
        if E.inj.get((x, fib.zero())) != T.unit[x]:
            fails.append(f"inj(0) is not the unit at object {x}")
        # .get: a miss in inj is reported above
        if any(T.comp.get((E.inj.get((x, a)), E.inj.get((x, b))))
               != E.inj.get((x, fib.add(a, b))) for a in fib.elements() for b in fib.elements()):
            fails.append(f"inj not additive at object {x}")
    if image != kernel:
        fails.append("exactness fails: proj^{-1}(units) != image of inj")
    # conjugation law: gamma a gamma^{-1} = pi(gamma) . a
    for e in T.arrows():
        x, y = T.src[e], T.tgt[e]
        g = E.proj[e]
        for a in A.fiber(x).elements():
            ia = E.inj.get((x, a))
            if ia is None:
                continue  # reported above
            lhs = T.comp.get((T.comp.get((e, ia)), T.inv[e]))
            rhs = E.inj.get((y, A.act(g, a)))
            if lhs != rhs:
                fails.append(f"conjugation law fails at arrow {e}, a={a}")
                break
    return Report(not fails, fails)


def extension_from_cocycle(G, A, phi):
    """The extension built from a degree-2 cocycle (trivial arrow cover).

    Arrows are pairs (a, g) with a in the fiber at r(g), numbered by arrow
    and then by element; the product is (a, g)(b, h) = (a + g.b + phi(g, h),
    gh) and the unit over x is (-phi(x, x), x). Rejects non-cocycles, citing
    a failing triple. The tables are filled from integer tables made once
    per call: fiber elements by position, addition and negation per object,
    the action of each arrow on positions, and phi by arrow pair.
    """
    _require_finite(A)
    if phi.degree != 2:
        raise ShapeError("need a degree-2 cochain")
    _require_cocycle(G, A, phi)
    F = [_fiber_table(A.fiber(x)) for x in G.objects()]
    offset, pairs = [], []
    for g in G.arrows():
        offset.append(len(pairs))
        pairs.extend((g, a) for a in F[G.tgt[g]].elements)
    act = [[F[G.tgt[g]].position[A.act(g, b)] for b in F[G.src[g]].elements]
           for g in G.arrows()]
    phi_at = {}
    for t, v in zip(G.nerve(2), phi.values):
        g, h = t.arrows
        x = G.tgt[g]
        phi_at[g, h] = F[x].position[A.fiber(x).reduce(v)]
    phixx = [phi_at[e, e] for e in G.unit]

    unit = [offset[G.unit[x]] + F[x].neg[phixx[x]] for x in G.objects()]
    comp = {}
    for g in G.arrows():
        add_r = F[G.tgt[g]].add
        # per composable h: offsets of h and gh, and g.b + phi(g, h) for each b
        rows = [(offset[h], offset[G.comp[g, h]],
                 [add_r[s][phi_at[g, h]] for s in act[g]]) for h in G.into[G.src[g]]]
        for i, add_i in enumerate(add_r):
            e = offset[g] + i
            for off_h, off_gh, shifted in rows:
                for j, s in enumerate(shifted, off_h):
                    comp[e, j] = off_gh + add_i[s]
    inv = []
    for g in G.arrows():
        gi, r = G.inv[g], G.tgt[g]
        add_r, back, neg_s = F[r].add, act[gi], F[G.src[g]].neg
        p, q = phi_at[g, gi], phixx[r]
        inv.extend(offset[gi] + neg_s[back[add_r[add_i[p]][q]]] for add_i in add_r)
    labels = [f"[{a},{G.arrow_labels[g]}]" for (g, a) in pairs]
    total = FiniteGroupoid(G.n_objects, [G.src[g] for g, a in pairs],
                           [G.tgt[g] for g, a in pairs], unit, comp, inv,
                           object_labels=G.object_labels, arrow_labels=labels)
    proj = tuple(g for (g, a) in pairs)
    inj = {}
    for x in G.objects():
        base, minus = offset[G.unit[x]], F[x].neg[phixx[x]]
        for a, add_a in zip(F[x].elements, F[x].add):
            inj[(x, a)] = base + add_a[minus]
    return Extension(G, A, total, proj, inj, arrow_pairs=tuple(pairs))


def strictly_trivial_extension(G, A):
    """The split extension on pairs (a, g) with (a, g)(b, h) = (a + g.b, gh)."""
    return extension_from_cocycle(G, A, zero_cochain(G, A, 2))


def canonical_section(E):
    """The smallest lift of each base arrow, with units lifted to units."""
    out = []
    for g, lifts in enumerate(fibers(E.proj, E.base.n_arrows)):
        if not lifts:
            raise ValueError(f"proj misses the arrow {g}")
        out.append(lifts[0])
    for x in E.base.objects():
        out[E.base.unit[x]] = E.total.unit[x]
    return tuple(out)


def _coordinates(E, section):
    """The chart of a section: for each arrow e of the total, the coefficient
    a with e = i(a) * section[proj e]."""
    T = E.total
    coefficient = {arrow: a for (x, a), arrow in E.inj.items()}
    return [coefficient[T.comp[e, T.inv[section[g]]]] for e, g in enumerate(E.proj)]


def cocycle_from_extension(E, section=None):
    """The degree-2 cocycle of a section: sigma(g) sigma(h) = i(phi(g,h)) sigma(gh).

    phi(g, h) is the chart value of sigma(g) sigma(h), which lies over gh.
    Any set-level section works; different sections give cohomologous results.
    """
    G, T, A = E.base, E.total, E.module
    if section is None:
        section = canonical_section(E)
    if len(section) != G.n_arrows:
        raise ShapeError("need one lift per base arrow")
    for g in G.arrows():
        if E.proj[section[g]] != g:
            raise ValueError(f"section does not lift the arrow {g}")
    chart = _coordinates(E, section)
    values = [chart[T.comp[section[g], section[h]]] for g, h in (t.arrows for t in G.nerve(2))]
    return make_cochain(G, A, 2, values)


def _search_lifts(E, twist):
    """Backtrack over one lift in E per base arrow, units to units, non-units
    in arrow order with candidates in `E.lifts` order. `twist` maps each
    composable pair (u, v) of the base to an arrow over the unit at r(u); a
    partial choice is pruned when sigma(u) sigma(v) != twist[u, v] sigma(uv)
    on a pair whose three arrows are all chosen. The pairs checked for a new
    choice g are the composable ones that contain it: (g, h) for h into s(g)
    and (h, g) for h out of r(g). The first full choice, or None.
    """
    G, T = E.base, E.total
    comp = T.comp
    lifts = fibers(E.proj, G.n_arrows)
    units = set(G.unit)
    nonunits = [g for g in G.arrows() if g not in units]
    assign = {G.unit[x]: T.unit[x] for x in G.objects()}

    def check_partial(g):
        pairs = itertools.chain(((g, h) for h in G.into[G.src[g]]),
                                ((h, g) for h in G.out[G.tgt[g]]))
        for u, v in pairs:
            if u in assign and v in assign:
                uv = G.comp[u, v]
                if uv in assign and comp[assign[u], assign[v]] != comp[twist[u, v], assign[uv]]:
                    return False
        return True

    # backtrack takes itself: a closure over its own name is a reference cycle
    def backtrack(backtrack, pos):
        if pos == len(nonunits):
            return True
        g = nonunits[pos]
        for cand in lifts[g]:
            assign[g] = cand
            if check_partial(g) and backtrack(backtrack, pos + 1):
                return True
            del assign[g]
        return False

    return assign if backtrack(backtrack, 0) else None


def are_equivalent(E1, E2):
    """An isomorphism E1 -> E2 over the identity of A and G, or None.

    Exhaustive: the image of one lift per base arrow determines the rest by
    coefficient equivariance, e = i1(a) sigma1(g) |-> i2(a) sigma2(g) with a
    read from the chart of the canonical section sigma1. The search runs over
    the choices of sigma2, twisted by the canonical cocycle of E1. Complete
    at desk scale.
    """
    G = E1.base
    if E2.base is not G and E2.base.comp != G.comp:
        raise ShapeError("extensions live over different groupoids")
    if tuple(f.orders for f in E1.module.fibers) != tuple(f.orders for f in E2.module.fibers):
        raise ShapeError("extensions have different coefficient modules")
    T1, T2 = E1.total, E2.total
    if T1.n_arrows != T2.n_arrows:
        return None
    sec1 = canonical_section(E1)
    chart1 = _coordinates(E1, sec1)
    twist = {(u, v): E2.inj[G.tgt[u], chart1[T1.comp[sec1[u], sec1[v]]]] for u, v in G.comp}
    assign = _search_lifts(E2, twist)
    if assign is None:
        return None
    arrow_map = tuple(T2.comp[E2.inj[T1.tgt[e], a], assign[g]]
                      for e, (a, g) in enumerate(zip(chart1, E1.proj)))
    if len(set(arrow_map)) != T1.n_arrows:
        return None
    morphism = GroupoidMorphism(T1, T2, tuple(range(T1.n_objects)), arrow_map)
    if not morphism.is_morphism():
        return None
    if any(arrow_map[E1.inj[key]] != E2.inj[key] for key in E1.inj):
        return None
    if any(E2.proj[arrow_map[e]] != E1.proj[e] for e in T1.arrows()):
        return None
    return morphism


def baer_sum(E1, E2):
    """The sum of extensions: the fiber product over G modulo (a.x, y) ~ (x, a.y).

    With e1 = i(a) least(g), a read from the chart of the least lifts in E1,
    the orbit of (e1, e2) has its least pair at (least(g), i(a) e2).
    """
    G, A = E1.base, E1.module
    if E2.base is not G and E2.base.comp != G.comp:
        raise ShapeError("extensions live over different groupoids")
    if tuple(f.orders for f in E1.module.fibers) != tuple(f.orders for f in E2.module.fibers):
        raise ShapeError("extensions have different coefficient modules")
    T1, T2 = E1.total, E2.total
    least = [lifts[0] for lifts in fibers(E1.proj, G.n_arrows)]
    chart = _coordinates(E1, least)

    def orbit_rep(e1, e2):
        return least[E1.proj[e1]], T2.comp[E2.inj[T2.tgt[e2], chart[e1]], e2]

    reps = sorted((least[g], e2) for e2, g in enumerate(E2.proj))
    aid = {p: i for i, p in enumerate(reps)}
    src = [T1.src[e1] for (e1, e2) in reps]
    tgt = [T1.tgt[e1] for (e1, e2) in reps]
    unit = [aid[orbit_rep(T1.unit[x], T2.unit[x])] for x in G.objects()]
    into = fibers(tgt, G.n_objects)
    comp = {}
    for i, (e1, e2) in enumerate(reps):
        for j in into[src[i]]:
            f1, f2 = reps[j]
            comp[i, j] = aid[orbit_rep(T1.comp[e1, f1], T2.comp[e2, f2])]
    inv = [aid[orbit_rep(T1.inv[e1], T2.inv[e2])] for (e1, e2) in reps]
    labels = [f"<{T1.arrow_labels[e1]};{T2.arrow_labels[e2]}>" for (e1, e2) in reps]
    total = FiniteGroupoid(G.n_objects, src, tgt, unit, comp, inv,
                           object_labels=G.object_labels, arrow_labels=labels)
    proj = tuple(E1.proj[e1] for (e1, e2) in reps)
    inj = {(x, a): aid[orbit_rep(E1.inj[(x, a)], T2.unit[x])]
           for x in G.objects() for a in A.fiber(x).elements()}
    return Extension(G, A, total, proj, inj)


def extension_inverse(E):
    """Same total groupoid, coefficients embedded with the opposite sign."""
    inj = {(x, a): E.inj[(x, E.module.fiber(x).neg(a))] for (x, a) in E.inj}
    return Extension(E.base, E.module, E.total, E.proj, inj,
                     arrow_pairs=E.arrow_pairs)


@dataclass
class StrictTrivialityWitness:
    """A morphism section of proj, the equivariant retraction it induces and
    the explicit isomorphism onto the split extension."""

    section: tuple[int, ...]
    retraction: dict
    iso: GroupoidMorphism


def is_strictly_trivial(E):
    """Search for a groupoid-morphism section of proj; None is definitive.

    The search is the lift search with every twist a unit (cocycle 0). On
    success the retraction r, gamma = i(r(gamma)) * section(proj(gamma)), is
    the chart of the section, and the isomorphism onto the split extension
    is constructed as well.
    """
    G, T, A = E.base, E.total, E.module
    assign = _search_lifts(E, {(u, v): T.unit[G.tgt[u]] for u, v in G.comp})
    if assign is None:
        return None
    section = tuple(assign[g] for g in G.arrows())
    retraction = dict(enumerate(_coordinates(E, section)))
    split = strictly_trivial_extension(G, A)
    pair_id = {p: i for i, p in enumerate(split.arrow_pairs)}
    arrow_map = tuple(pair_id[(E.proj[e], retraction[e])] for e in T.arrows())
    iso = GroupoidMorphism(T, split.total, tuple(range(T.n_objects)), arrow_map)
    return StrictTrivialityWitness(section, retraction, iso)


@dataclass
class ExtClass:
    coefficients: tuple[int, ...]
    cocycle: Cochain
    extension: Extension


@dataclass
class ExtClasses:
    """All extension classes of (G, A) with their group structure."""

    factors: object
    generators: tuple[Cochain, ...]
    classes: tuple[ExtClass, ...]

    def class_of_coefficients(self, coeffs):
        for c in self.classes:
            if c.coefficients == tuple(coeffs):
                return c
        raise KeyError(coeffs)


def ext_classes(G, A):
    """One extension per H^2 class, labelled by coordinates in the canonical
    factors; in the discrete setting the colimit over covers is attained at
    the trivial cover, so these are all of Ext(G, A)."""
    _require_finite(A)
    factors, gens = cohomology(G, A, 2, with_generators=True)
    if factors.free_rank:
        raise ValueError("H^2 has free rank; cannot enumerate classes")
    classes = []
    for coeffs in itertools.product(*(range(d) for d in factors.torsion)):
        rep = zero_cochain(G, A, 2)
        for c, gen in zip(coeffs, gens):
            for _ in range(c):
                rep = cochain_add(G, A, rep, gen)
        classes.append(ExtClass(tuple(coeffs), rep, extension_from_cocycle(G, A, rep)))
    return ExtClasses(factors, tuple(gens), tuple(classes))


# ---------------------------------------------------------------------------
# covered degree-2 data


@dataclass
class CoveredCocycleData:
    """A family phi_{ijk} of partial 2-cochains subordinate to an arrow cover.

    `cover[i]` is a subset of the arrows of G; phi_{ijk}(g, h) is defined
    exactly when g is in cover[i], gh in cover[j] and h in cover[k], and is
    stored under values[(i, j, k)][(g, h)]. `indices_of[g]` lists the
    increasing indices of the pieces that contain the arrow g.
    """

    base: FiniteGroupoid
    module: object
    cover: tuple[frozenset, ...]
    values: dict
    indices_of: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        covered = set().union(*self.cover) if self.cover else set()
        if covered != set(self.base.arrows()):
            raise ValueError("family must cover the arrows")
        self.indices_of = memberships(self.base.n_arrows, self.cover)

    def value(self, i, j, k, g, h):
        return self.values[(i, j, k)][(g, h)]


def restrict_cocycle_to_cover(G, A, phi, cover):
    """Index a single global 2-cochain by every admissible triple of a cover."""
    data = CoveredCocycleData(G, A, tuple(frozenset(s) for s in cover), {})
    idx = data.indices_of
    for t, v in zip(G.nerve(2), phi.values):
        g, h = t.arrows
        for key in itertools.product(idx[g], idx[G.comp[g, h]], idx[h]):
            data.values.setdefault(key, {})[(g, h)] = v
    return data


@dataclass
class PsiReport(Report):
    psi: dict = field(default_factory=dict)


def verify_psi_coherence(data):
    """Check that psi_{kj}(g) = -phi_{iii}(r(g), r(g)) + phi_{ijk}(r(g), g) is
    independent of i and satisfies the cochain identities that make
    (a, g, k) ~ (a + psi_{kj}(g), g, j) an equivalence relation.

    Also re-checks the covered cocycle identity; any violation is reported
    with its witnessing indices. Indices are read from `data.indices_of`.
    """
    G, A = data.base, data.module
    idx = data.indices_of
    fails = []
    # covered cocycle identity at the indices of g, gh, ghk, h, hk, k: the
    # edges 01, 02, 03, 12, 13, 23 of the simplex (g, h, k), in slot order
    for t in G.nerve(3):
        g, h, k = t.arrows
        fib = A.fiber(G.tgt[g])
        gh, hk = G.comp[g, h], G.comp[h, k]
        ghk = G.comp[gh, k]
        for l01, l02, l03, l12, l13, l23 in itertools.product(
                idx[g], idx[gh], idx[ghk], idx[h], idx[hk], idx[k]):
            total = A.act(g, data.value(l12, l13, l23, h, k))
            total = fib.sub(total, data.value(l02, l03, l23, gh, k))
            total = fib.add(total, data.value(l01, l03, l13, g, hk))
            total = fib.sub(total, data.value(l01, l02, l12, g, h))
            if any(total):
                fails.append(
                    "cocycle identity fails at arrows "
                    f"({g},{h},{k}) indices ({l01},{l02},{l03},{l12},{l13},{l23})")
    # psi well-defined independently of i
    psi = {}
    for g in G.arrows():
        x = G.tgt[g]
        e = G.unit[x]
        fib = A.fiber(x)
        for j, k in itertools.product(idx[g], repeat=2):
            vals = {fib.sub(data.value(i, j, k, e, g), data.value(i, i, i, e, e))
                    for i in idx[e]}
            if len(vals) > 1:
                fails.append(f"psi_{{{k}{j}}}({g}) depends on the choice of i")
            psi[(k, j, g)] = min(vals)
    # psi identities
    for (k, j, g), v in psi.items():
        fib = A.fiber(G.tgt[g])
        if k == j and any(v):
            fails.append(f"psi_{{{j}{j}}}({g}) != 0")
        if (j, k, g) in psi and psi[(j, k, g)] != fib.neg(v):
            fails.append(f"psi_{{{k}{j}}}({g}) != -psi_{{{j}{k}}}({g})")
    for g in G.arrows():
        fib = A.fiber(G.tgt[g])
        for j, k, m in itertools.product(idx[g], repeat=3):
            # psi_{jk} - psi_{mk} + psi_{mj} = 0
            lhs = fib.add(fib.sub(psi[(j, k, g)], psi[(m, k, g)]), psi[(m, j, g)])
            if any(lhs):
                fails.append(f"psi cocycle relation fails at ({j},{k},{m}), arrow {g}")
    return PsiReport(not fails, fails, psi)


def extension_from_covered_cocycle(data):
    """The covered analogue of extension_from_cocycle.

    Classes of triples (a, g, k), g in cover[k], under (a, g, k) ~
    (a + psi_{kj}(g), g, j); representatives choose the smallest admissible
    index. Coherence is verified first, and then psi_{jj} = 0, so psi only
    moves a triple between indices and every class has exactly one
    representative (a, g, j) at the smallest j. The product of
    representatives is (a + g.b + phi_{ijk}(g, h), gh, j) at the smallest
    indices i, j, k of g, gh and h, so the total is extension_from_cocycle
    of phi'(g, h) = phi_{ijk}(g, h) at those indices. The covered cocycle
    identity at those indices says that phi' is a cocycle.
    """
    G, A = data.base, data.module
    _require_finite(A)
    report = verify_psi_coherence(data)
    if not report.ok:
        raise NotACocycleError("; ".join(report.failures[:3]))
    first = [data.indices_of[g][0] for g in G.arrows()]
    values = [data.value(first[g], first[G.comp[g, h]], first[h], g, h)
              for g, h in (t.arrows for t in G.nerve(2))]
    return extension_from_cocycle(G, A, make_cochain(G, A, 2, values))


# ---------------------------------------------------------------------------
# degree 1: equivariant torsors


@dataclass
class EquivariantTorsor:
    """A fiberwise free transitive module action plus a compatible arrow action.

    `anchor[p]` is the object under the point p; `plus[(p, a)]` translates p by
    a fiber element; `g_act[(g, p)]` moves p across the arrow g and is defined
    exactly when anchor[p] = s(g).
    """

    base: FiniteGroupoid
    module: object
    n_points: int
    anchor: tuple[int, ...]
    plus: dict
    g_act: dict

    def translate(self, p, a):
        return self.plus[(p, self.module.fiber(self.anchor[p]).reduce(a))]

    def act(self, g, p):
        return self.g_act[(g, p)]

    def difference(self, p, q):
        """The unique a with p + a = q (both in the same fiber)."""
        fib = self.module.fiber(self.anchor[p])
        for a in fib.elements():
            if self.translate(p, a) == q:
                return a
        raise ValueError("points in different fibers")


def validate_torsor(T):
    G, A = T.base, T.module
    fails = []
    for x, pts in enumerate(fibers(T.anchor, G.n_objects)):
        fib = A.fiber(x)
        if not pts:
            fails.append(f"empty fiber over object {x}")
            continue
        if len(pts) != fib.size:
            fails.append(f"fiber over {x} has wrong cardinality")
        for p in pts:
            if T.translate(p, fib.zero()) != p:
                fails.append(f"p + 0 != p at point {p}")
            for a in fib.elements():
                q = T.translate(p, a)
                if T.anchor[q] != x:
                    fails.append(f"translation leaves the fiber at point {p}")
                for b in fib.elements():
                    if T.translate(q, b) != T.translate(p, fib.add(a, b)):
                        fails.append(f"(p+a)+b != p+(a+b) at point {p}")
                        break
            for q in pts:
                if sum(1 for a in fib.elements() if T.translate(p, a) == q) != 1:
                    fails.append(f"action not free and transitive between {p} and {q}")
    for g, p in itertools.product(G.arrows(), range(T.n_points)):
        if ((g, p) in T.g_act) != (T.anchor[p] == G.src[g]):
            fails.append(f"arrow action domain wrong at ({g},{p})")
    if fails:
        return Report(False, fails)
    for (g, p), q in T.g_act.items():
        if T.anchor[q] != G.tgt[g]:
            fails.append(f"anchor(g p) != r(g) at ({g},{p})")
    if fails:
        return Report(False, fails)
    for p in range(T.n_points):
        if T.g_act[(G.unit[T.anchor[p]], p)] != p:
            fails.append(f"unit does not fix point {p}")
    for (h, p), hp in T.g_act.items():
        for g in G.out[G.tgt[h]]:
            if T.g_act[(G.compose(g, h), p)] != T.g_act[(g, hp)]:
                fails.append(f"(gh)p != g(hp) at arrow pair ({g},{h}), point {p}")
    for (g, p), q in T.g_act.items():
        fib = A.fiber(G.src[g])
        for a in fib.elements():
            if T.g_act[(g, T.translate(p, a))] != T.translate(q, A.act(g, a)):
                fails.append(f"equivariance g(p+a) = gp + g.a fails at ({g},{p})")
                break
    return Report(not fails, fails)


def torsor_from_cocycle(G, A, phi):
    """The torsor of a degree-1 cocycle: points (x, a), translation in the
    second slot, and g acting by a |-> g.a - phi(g)."""
    _require_finite(A)
    if phi.degree != 1:
        raise ShapeError("need a degree-1 cochain")
    _require_cocycle(G, A, phi)
    points = sorted((x, a) for x in G.objects() for a in A.fiber(x).elements())
    pid = {p: i for i, p in enumerate(points)}
    anchor = tuple(x for (x, a) in points)
    plus = {}
    for (x, a) in points:
        fib = A.fiber(x)
        for b in fib.elements():
            plus[(pid[(x, a)], b)] = pid[(x, fib.add(a, b))]
    g_act = {}
    for g in G.arrows():
        s, r = G.src[g], G.tgt[g]
        fib = A.fiber(r)
        for a in A.fiber(s).elements():
            g_act[(g, pid[(s, a)])] = pid[(r, fib.sub(A.act(g, a), phi.values[g]))]
    return EquivariantTorsor(G, A, len(points), anchor, plus, g_act)


def trivial_torsor(G, A):
    return torsor_from_cocycle(G, A, zero_cochain(G, A, 1))


def cocycle_from_torsor(G, A, T, sections):
    """Solve sigma(r(g)) = g.sigma(s(g)) + phi(g) for phi, given one chosen
    point per object. The result is a cocycle; section changes move it by a
    coboundary."""
    if len(sections) != G.n_objects:
        raise ShapeError("need one section point per object")
    for x in G.objects():
        if T.anchor[sections[x]] != x:
            raise ValueError(f"section point over object {x} is misanchored")
    values = []
    for t in G.nerve(1):
        g = t.arrows[0]
        moved = T.act(g, sections[G.src[g]])
        values.append(T.difference(moved, sections[G.tgt[g]]))
    return make_cochain(G, A, 1, values)
