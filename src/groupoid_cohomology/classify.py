"""Constructive low-degree dictionaries.

Degree 1: cocycles correspond to equivariant principal bundles (torsors) for
the coefficient module; changing the trivializing sections changes the
cocycle by a coboundary.

Degree 2: cocycles correspond to extensions A -> E -> G over a fixed object
set, with conjugation in E inducing the module action. The constructions are
the explicit ones: a cocycle phi yields the total groupoid on pairs (a, g)
with product (a, g)(b, h) = (a + g.b + phi(g, h), gh); a section of the
projection recovers a cocycle; the Baer sum is the fiber product modulo the
antidiagonal coefficient action. Non-normalized cocycles are accepted
throughout, so the unit over x is (-phi(x, x), x).

Everything here requires finite coefficient fibers; exhaustive searches
(equivalences, morphism sections) are sound and complete at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .abelian import ShapeError
from .cohomology import (
    Cochain,
    cochain_add,
    cohomology,
    differential,
    make_cochain,
    zero_cochain,
)
from .groupoid import FiniteGroupoid, GroupoidMorphism, NerveTuple, Report, validate


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


def _phi2(G, phi):
    """Lookup (g, h) -> value for a degree-2 cochain."""
    index = G.nerve_index(2)
    return lambda g, h: phi.values[index[NerveTuple(G.tgt[g], (g, h))]]


def _phi1(G, phi):
    index = G.nerve_index(1)
    return lambda g: phi.values[index[NerveTuple(G.tgt[g], (g,))]]


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
        return [e for e in self.total.arrows() if self.proj[e] == g]

    def inj_inverse(self):
        return {arrow: key for key, arrow in self.inj.items()}

    def coefficient_of(self, e):
        """i^{-1}(e) for an arrow in the image of inj; KeyError otherwise."""
        return self.inj_inverse()[e]

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
        for a in fib.elements():
            for b in fib.elements():
                lhs = T.comp.get((E.inj[(x, a)], E.inj[(x, b)]))
                if lhs != E.inj[(x, fib.add(a, b))]:
                    fails.append(f"inj not additive at object {x}")
                    break
            else:
                continue
            break
    if image != kernel:
        fails.append("exactness fails: proj^{-1}(units) != image of inj")
    # conjugation law: gamma a gamma^{-1} = pi(gamma) . a
    for e in T.arrows():
        x, y = T.src[e], T.tgt[e]
        g = E.proj[e]
        for a in A.fiber(x).elements():
            lhs = T.compose(T.compose(e, E.inj[(x, a)]), T.inv[e])
            rhs = E.inj[(y, A.act(g, a))]
            if lhs != rhs:
                fails.append(f"conjugation law fails at arrow {e}, a={a}")
                break
    return Report(not fails, fails)


def extension_from_cocycle(G, A, phi):
    """The extension built from a degree-2 cocycle (trivial arrow cover).

    Arrows are pairs (a, g) with a in the fiber at r(g); the product is
    (a, g)(b, h) = (a + g.b + phi(g, h), gh) and the unit over x is
    (-phi(x, x), x). Rejects non-cocycles, citing a failing triple.
    """
    _require_finite(A)
    if phi.degree != 2:
        raise ShapeError("need a degree-2 cochain")
    _require_cocycle(G, A, phi)
    val = _phi2(G, phi)

    pairs = [(g, a) for g in G.arrows() for a in A.fiber(G.tgt[g]).elements()]
    pairs.sort()
    aid = {p: i for i, p in enumerate(pairs)}
    src = [G.src[g] for (g, a) in pairs]
    tgt = [G.tgt[g] for (g, a) in pairs]

    def phixx(x):
        e = G.unit[x]
        return val(e, e)

    unit = []
    for x in G.objects():
        fib = A.fiber(x)
        unit.append(aid[(G.unit[x], fib.neg(phixx(x)))])
    comp = {}
    for (g, a) in pairs:
        for (h, b) in pairs:
            if G.is_composable(g, h):
                fib = A.fiber(G.tgt[g])
                c = fib.add(fib.add(fib.reduce(a), A.act(g, b)), val(g, h))
                comp[(aid[(g, a)], aid[(h, b)])] = aid[(G.compose(g, h), c)]
    inv = []
    for (g, a) in pairs:
        gi = G.inv[g]
        fib = A.fiber(G.tgt[g])
        r = G.tgt[g]
        total = fib.add(fib.add(fib.reduce(a), val(g, gi)), phixx(r))
        inv.append(aid[(gi, A.fiber(G.src[g]).neg(A.act(gi, total)))])
    labels = [f"[{a},{G.arrow_labels[g]}]" for (g, a) in pairs]
    total = FiniteGroupoid(G.n_objects, src, tgt, unit, comp, inv,
                           object_labels=G.object_labels, arrow_labels=labels)
    proj = tuple(g for (g, a) in pairs)
    inj = {}
    for x in G.objects():
        fib = A.fiber(x)
        for a in fib.elements():
            inj[(x, a)] = aid[(G.unit[x], fib.sub(a, phixx(x)))]
    return Extension(G, A, total, proj, inj, arrow_pairs=tuple(pairs))


def strictly_trivial_extension(G, A):
    """The split extension on pairs (a, g) with (a, g)(b, h) = (a + g.b, gh)."""
    return extension_from_cocycle(G, A, zero_cochain(G, A, 2))


def canonical_section(E):
    """The smallest lift of each base arrow, with units lifted to units."""
    out = []
    for g in E.base.arrows():
        lifts = E.lifts(g)
        if not lifts:
            raise ValueError(f"proj misses the arrow {g}")
        out.append(lifts[0])
    for x in E.base.objects():
        out[E.base.unit[x]] = E.total.unit[x]
    return tuple(out)


def cocycle_from_extension(E, section=None):
    """The degree-2 cocycle of a section: sigma(g) sigma(h) = i(phi(g,h)) sigma(gh).

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
    inj_inv = E.inj_inverse()
    values = []
    for t in G.nerve(2):
        g, h = t.arrows
        prod = T.compose(section[g], section[h])
        k = T.compose(prod, T.inv[section[G.compose(g, h)]])
        x, a = inj_inv[k]
        values.append(a)
    return make_cochain(G, A, 2, values)


def are_equivalent(E1, E2):
    """An isomorphism E1 -> E2 over the identity of A and G, or None.

    Exhaustive: the image of one lift per base arrow determines the rest by
    coefficient equivariance, so the search runs over those choices and
    prunes on multiplicativity. Complete at desk scale.
    """
    G = E1.base
    A = E1.module
    if E2.base is not G and E2.base.comp != G.comp:
        raise ShapeError("extensions live over different groupoids")
    if tuple(f.orders for f in E1.module.fibers) != tuple(f.orders for f in E2.module.fibers):
        raise ShapeError("extensions have different coefficient modules")
    T1, T2 = E1.total, E2.total
    if T1.n_arrows != T2.n_arrows:
        return None
    sec1 = canonical_section(E1)
    inj1_inv = E1.inj_inverse()

    def decompose(e):
        """e in T1 as (a, g): e = i1(a) * sec1[g]."""
        g = E1.proj[e]
        k = T1.compose(e, T1.inv[sec1[g]])
        x, a = inj1_inv[k]
        return a, g

    nonunits = [g for g in G.arrows() if g not in set(G.unit)]
    assign = {G.unit[x]: T2.unit[x] for x in G.objects()}

    def images_of(e):
        a, g = decompose(e)
        return E2.act_coefficient(a, T1.tgt[e], assign[g])

    def check_partial(g):
        for h in list(assign):
            for (u, v) in ((g, h), (h, g)):
                if not G.is_composable(u, v):
                    continue
                uv = G.compose(u, v)
                if uv not in assign:
                    continue
                lhs = T2.compose(assign[u], assign[v])
                a, _ = decompose(T1.compose(sec1[u], sec1[v]))
                rhs = E2.act_coefficient(a, G.tgt[u], assign[uv])
                if lhs != rhs:
                    return False
        return True

    def backtrack(pos):
        if pos == len(nonunits):
            return True
        g = nonunits[pos]
        for cand in E2.lifts(g):
            assign[g] = cand
            if check_partial(g) and backtrack(pos + 1):
                return True
            del assign[g]
        return False

    if not backtrack(0):
        return None
    arrow_map = tuple(images_of(e) for e in T1.arrows())
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
    """The sum of extensions: the fiber product over G modulo (a.x, y) ~ (x, a.y)."""
    G, A = E1.base, E1.module
    if E2.base is not G and E2.base.comp != G.comp:
        raise ShapeError("extensions live over different groupoids")
    if tuple(f.orders for f in E1.module.fibers) != tuple(f.orders for f in E2.module.fibers):
        raise ShapeError("extensions have different coefficient modules")
    T1, T2 = E1.total, E2.total

    def orbit_rep(e1, e2):
        x = T1.tgt[e1]
        best = (e1, e2)
        for a in A.fiber(x).elements():
            cand = (E1.act_coefficient(A.fiber(x).neg(a), x, e1),
                    E2.act_coefficient(a, x, e2))
            if cand < best:
                best = cand
        return best

    reps = sorted({orbit_rep(e1, e2)
                   for e1 in T1.arrows() for e2 in T2.arrows()
                   if E1.proj[e1] == E2.proj[e2]})
    aid = {p: i for i, p in enumerate(reps)}
    src = [T1.src[e1] for (e1, e2) in reps]
    tgt = [T1.tgt[e1] for (e1, e2) in reps]
    unit = [aid[orbit_rep(T1.unit[x], T2.unit[x])] for x in G.objects()]
    comp = {}
    for (e1, e2) in reps:
        for (f1, f2) in reps:
            if T1.is_composable(e1, f1):
                comp[(aid[(e1, e2)], aid[(f1, f2)])] = aid[
                    orbit_rep(T1.compose(e1, f1), T2.compose(e2, f2))]
    inv = [aid[orbit_rep(T1.inv[e1], T2.inv[e2])] for (e1, e2) in reps]
    labels = [f"<{T1.arrow_labels[e1]};{T2.arrow_labels[e2]}>" for (e1, e2) in reps]
    total = FiniteGroupoid(G.n_objects, src, tgt, unit, comp, inv,
                           object_labels=G.object_labels, arrow_labels=labels)
    proj = tuple(E1.proj[e1] for (e1, e2) in reps)
    inj = {}
    for x in G.objects():
        for a in A.fiber(x).elements():
            inj[(x, a)] = aid[orbit_rep(E1.inj[(x, a)], T2.unit[x])]
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

    On success the retraction phi(gamma) = gamma * section(proj(gamma))^{-1}
    and the isomorphism onto the split extension are constructed as well.
    """
    G, T, A = E.base, E.total, E.module
    nonunits = [g for g in G.arrows() if g not in set(G.unit)]
    assign = {G.unit[x]: T.unit[x] for x in G.objects()}

    def check_partial(g):
        for h in list(assign):
            for (u, v) in ((g, h), (h, g)):
                if not G.is_composable(u, v):
                    continue
                uv = G.compose(u, v)
                if uv in assign and T.compose(assign[u], assign[v]) != assign[uv]:
                    return False
        return True

    def backtrack(pos):
        if pos == len(nonunits):
            return True
        g = nonunits[pos]
        for cand in E.lifts(g):
            assign[g] = cand
            if check_partial(g) and backtrack(pos + 1):
                return True
            del assign[g]
        return False

    if not backtrack(0):
        return None
    section = tuple(assign[g] for g in G.arrows())
    inj_inv = E.inj_inverse()
    retraction = {}
    for e in T.arrows():
        k = T.compose(e, T.inv[section[E.proj[e]]])
        retraction[e] = inj_inv[k][1]
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
    stored under values[(i, j, k)][(g, h)].
    """

    base: FiniteGroupoid
    module: object
    cover: tuple[frozenset, ...]
    values: dict

    def __post_init__(self):
        G = self.base
        covered = set().union(*self.cover) if self.cover else set()
        if covered != set(G.arrows()):
            raise ValueError("family must cover the arrows")

    def admissible(self, g, h):
        G = self.base
        gh = G.compose(g, h)
        return [(i, j, k)
                for i in range(len(self.cover)) if g in self.cover[i]
                for j in range(len(self.cover)) if gh in self.cover[j]
                for k in range(len(self.cover)) if h in self.cover[k]]

    def value(self, i, j, k, g, h):
        return self.values[(i, j, k)][(g, h)]


def restrict_cocycle_to_cover(G, A, phi, cover):
    """Index a single global 2-cochain by every admissible triple of a cover."""
    cover = tuple(frozenset(s) for s in cover)
    val = _phi2(G, phi)
    values = {}
    for t in G.nerve(2):
        g, h = t.arrows
        gh = G.compose(g, h)
        for i, si in enumerate(cover):
            if g not in si:
                continue
            for j, sj in enumerate(cover):
                if gh not in sj:
                    continue
                for k, sk in enumerate(cover):
                    if h not in sk:
                        continue
                    values.setdefault((i, j, k), {})[(g, h)] = val(g, h)
    return CoveredCocycleData(G, A, cover, values)


@dataclass
class PsiReport(Report):
    psi: dict = field(default_factory=dict)


def verify_psi_coherence(data):
    """Check that psi_{kj}(g) = -phi_{iii}(r(g), r(g)) + phi_{ijk}(r(g), g) is
    independent of i and satisfies the cochain identities that make
    (a, g, k) ~ (a + psi_{kj}(g), g, j) an equivalence relation.

    Also re-checks the covered cocycle identity; any violation is reported
    with its witnessing indices.
    """
    G, A = data.base, data.module
    fails = []
    # covered cocycle identity over every admissible index combination
    for t in G.nerve(3):
        g, h, k = t.arrows
        fib = A.fiber(G.tgt[g])
        gh, hk = G.compose(g, h), G.compose(h, k)
        ghk = G.compose(gh, k)
        for l01, s01 in enumerate(data.cover):
            if g not in s01:
                continue
            for l02, s02 in enumerate(data.cover):
                if gh not in s02:
                    continue
                for l03, s03 in enumerate(data.cover):
                    if ghk not in s03:
                        continue
                    for l12, s12 in enumerate(data.cover):
                        if h not in s12:
                            continue
                        for l13, s13 in enumerate(data.cover):
                            if hk not in s13:
                                continue
                            for l23, s23 in enumerate(data.cover):
                                if k not in s23:
                                    continue
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
        for j, sj in enumerate(data.cover):
            if g not in sj:
                continue
            for k, sk in enumerate(data.cover):
                if g not in sk:
                    continue
                vals = set()
                for i, si in enumerate(data.cover):
                    if e not in si:
                        continue
                    v = fib.sub(data.value(i, j, k, e, g), data.value(i, i, i, e, e))
                    vals.add(v)
                if not vals:
                    fails.append(f"no admissible index i for psi at arrow {g}")
                    continue
                if len(vals) > 1:
                    fails.append(f"psi_{{{k}{j}}}({g}) depends on the choice of i")
                psi[(k, j, g)] = sorted(vals)[0]
    # psi identities
    for (k, j, g), v in psi.items():
        fib = A.fiber(G.tgt[g])
        if k == j and any(v):
            fails.append(f"psi_{{{j}{j}}}({g}) != 0")
        if (j, k, g) in psi and psi[(j, k, g)] != fib.neg(v):
            fails.append(f"psi_{{{k}{j}}}({g}) != -psi_{{{j}{k}}}({g})")
    for g in G.arrows():
        fib = A.fiber(G.tgt[g])
        idxs = [j for j, s in enumerate(data.cover) if g in s]
        for j in idxs:
            for k in idxs:
                for m in idxs:
                    # psi_{jk} - psi_{mk} + psi_{mj} = 0
                    lhs = fib.add(fib.sub(psi[(j, k, g)], psi[(m, k, g)]), psi[(m, j, g)])
                    if any(lhs):
                        fails.append(f"psi cocycle relation fails at ({j},{k},{m}), arrow {g}")
    return PsiReport(not fails, fails, psi)


def extension_from_covered_cocycle(data):
    """The covered analogue of extension_from_cocycle.

    Classes of triples (a, g, k), g in cover[k], under (a, g, k) ~
    (a + psi_{kj}(g), g, j); representatives choose the smallest admissible
    index. Coherence is verified first.
    """
    G, A = data.base, data.module
    _require_finite(A)
    report = verify_psi_coherence(data)
    if not report.ok:
        raise NotACocycleError("; ".join(report.failures[:3]))
    psi = report.psi

    def min_index(g):
        return next(j for j, s in enumerate(data.cover) if g in s)

    def rep(a, g, k):
        j = min_index(g)
        fib = A.fiber(G.tgt[g])
        return (g, fib.add(fib.reduce(a), psi[(k, j, g)]), j)

    reps = sorted({rep(a, g, k)
                   for k, s in enumerate(data.cover) for g in s
                   for a in A.fiber(G.tgt[g]).elements()})
    aid = {p: i for i, p in enumerate(reps)}
    src = [G.src[g] for (g, a, j) in reps]
    tgt = [G.tgt[g] for (g, a, j) in reps]

    def unit_rep(x):
        e = G.unit[x]
        i = min_index(e)
        fib = A.fiber(x)
        return rep(fib.neg(data.value(i, i, i, e, e)), e, i)

    unit = [aid[unit_rep(x)] for x in G.objects()]
    comp = {}
    for (g, a, i) in reps:
        for (h, b, k) in reps:
            if not G.is_composable(g, h):
                continue
            gh = G.compose(g, h)
            j = min_index(gh)
            fib = A.fiber(G.tgt[g])
            c = fib.add(fib.add(fib.reduce(a), A.act(g, b)), data.value(i, j, k, g, h))
            comp[(aid[(g, a, i)], aid[(h, b, k)])] = aid[rep(c, gh, j)]
    # inverses by table search: the total is a finite groupoid candidate
    inv = [None] * len(reps)
    for n, (g, a, i) in enumerate(reps):
        gi = G.inv[g]
        for m, (h, b, j) in enumerate(reps):
            if h != gi:
                continue
            if (comp.get((n, m)) == unit[G.tgt[g]] and comp.get((m, n)) == unit[G.src[g]]):
                inv[n] = m
                break
        if inv[n] is None:
            raise NotACocycleError(f"no inverse for the class of {reps[n]}")
    labels = [f"[{a},{G.arrow_labels[g]},{j}]" for (g, a, j) in reps]
    total = FiniteGroupoid(G.n_objects, src, tgt, unit, comp, inv,
                           object_labels=G.object_labels, arrow_labels=labels)
    proj = tuple(g for (g, a, j) in reps)
    inj = {}
    for x in G.objects():
        fib = A.fiber(x)
        e = G.unit[x]
        i = min_index(e)
        phixx = data.value(i, i, i, e, e)
        for a in fib.elements():
            inj[(x, a)] = aid[rep(fib.sub(a, phixx), e, i)]
    return Extension(G, A, total, proj, inj)


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
    fibers = {x: [p for p in range(T.n_points) if T.anchor[p] == x] for x in G.objects()}
    for x, pts in fibers.items():
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
    for g in G.arrows():
        for p in range(T.n_points):
            defined = (g, p) in T.g_act
            if defined != (T.anchor[p] == G.src[g]):
                fails.append(f"arrow action domain wrong at ({g},{p})")
    if fails:
        return Report(False, fails)
    for (g, p), q in T.g_act.items():
        if T.anchor[q] != G.tgt[g]:
            fails.append(f"anchor(g p) != r(g) at ({g},{p})")
    for p in range(T.n_points):
        if T.g_act[(G.unit[T.anchor[p]], p)] != p:
            fails.append(f"unit does not fix point {p}")
    for (h, p), hp in T.g_act.items():
        for g in G.arrows():
            if G.is_composable(g, h):
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
    val = _phi1(G, phi)
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
            g_act[(g, pid[(s, a)])] = pid[(r, fib.sub(A.act(g, a), val(g)))]
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
