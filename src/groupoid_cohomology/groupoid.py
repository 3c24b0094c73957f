"""Finite groupoids, their nerves, and the simplicial structure maps.

A groupoid is stored extensionally: interned integer ids for objects and
arrows, total source/target/unit/inverse tables and a partial composition
table. comp(g, h) = g*h is defined exactly when s(g) = r(h); an arrow g runs
from the object s(g) to the object r(g).

Nerve levels, faces, degeneracies and the action of arbitrary monotone maps
are all enumerated deterministically (lexicographic by arrow id), so matrices
built on top of them are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class StructureError(ValueError):
    """Raised when raw groupoid data is malformed (dangling ids, bad shapes)."""


_FACE_CACHE = {}
_DEGENERACY_CACHE = {}


@dataclass(frozen=True, order=True)
class NerveTuple:
    """A composable tuple (g1, ..., gn); level 0 stores just an object.

    `obj` is the range of the first arrow (the 0-th vertex); for level 0 it is
    the object itself. Tuples are ordered, so they can serve as cover indices.
    """

    obj: int
    arrows: tuple[int, ...] = ()

    @property
    def level(self):
        return len(self.arrows)


@dataclass(frozen=True)
class MonotoneMap:
    """A nondecreasing map [k] -> [n], stored by its k+1 values.

    Induces a structure map from level n to level k (contravariantly).
    """

    codomain: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if not self.values:
            raise ValueError("domain [k] is never empty")
        if any(v < 0 or v > self.codomain for v in self.values):
            raise ValueError("values out of range")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be nondecreasing")

    @property
    def domain(self):
        return len(self.values) - 1

    @classmethod
    def identity(cls, n):
        return cls(n, tuple(range(n + 1)))

    @classmethod
    def face(cls, n, i):
        """eps_i: [n-1] -> [n], the increasing injection avoiding i."""
        key = (n, i)
        out = _FACE_CACHE.get(key)
        if out is None:
            if not 0 <= i <= n:
                raise ValueError("face index out of range")
            out = cls(n, tuple(v for v in range(n + 1) if v != i))
            _FACE_CACHE[key] = out
        return out

    @classmethod
    def degeneracy(cls, n, i):
        """eta_i: [n+1] -> [n], the surjection hitting i twice."""
        key = (n, i)
        out = _DEGENERACY_CACHE.get(key)
        if out is None:
            if not 0 <= i <= n:
                raise ValueError("degeneracy index out of range")
            out = cls(n, tuple(range(i + 1)) + tuple(range(i, n + 1)))
            _DEGENERACY_CACHE[key] = out
        return out

    def compose(self, other):
        """self o other, for other: [l] -> [domain of self]."""
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        return MonotoneMap(self.codomain, tuple(self.values[v] for v in other.values))

    def is_injective(self):
        return all(a < b for a, b in zip(self.values, self.values[1:]))


def all_monotone_maps(k, n):
    """Every nondecreasing [k] -> [n], lexicographically."""
    return [MonotoneMap(n, vals)
            for vals in itertools.combinations_with_replacement(range(n + 1), k + 1)]


def all_strict_maps(k, n):
    """Every strictly increasing [k] -> [n], lexicographically."""
    return [MonotoneMap(n, vals) for vals in itertools.combinations(range(n + 1), k + 1)]


class FiniteGroupoid:
    """A finite groupoid on interned ids. Construct via the builders below
    or from explicit tables; `validate` checks every axiom exhaustively."""

    __slots__ = ("n_objects", "src", "tgt", "unit", "comp", "inv",
                 "object_labels", "arrow_labels", "_nerve_cache")

    def __init__(self, n_objects, src, tgt, unit, comp, inv,
                 object_labels=None, arrow_labels=None):
        self.n_objects = int(n_objects)
        self.src = tuple(int(x) for x in src)
        self.tgt = tuple(int(x) for x in tgt)
        if len(self.src) != len(self.tgt):
            raise StructureError("src and tgt must have one entry per arrow")
        n_arrows = len(self.src)
        self.unit = tuple(int(x) for x in unit)
        if len(self.unit) != self.n_objects:
            raise StructureError("need one unit arrow per object")
        self.inv = tuple(int(x) for x in inv)
        if len(self.inv) != n_arrows:
            raise StructureError("need one inverse per arrow")
        table = {}
        for (g, h), gh in comp.items():
            table[(int(g), int(h))] = int(gh)
        self.comp = table
        if any(not 0 <= x < self.n_objects for x in itertools.chain(self.src, self.tgt)):
            raise StructureError("src/tgt refer to unknown objects")
        if any(not 0 <= a < n_arrows for a in
               itertools.chain(self.unit, self.inv, table.values(),
                               (g for g, _ in table), (h for _, h in table))):
            raise StructureError("composition/unit/inverse tables refer to unknown arrows")
        self.object_labels = (tuple(object_labels) if object_labels is not None
                              else tuple(str(x) for x in range(self.n_objects)))
        self.arrow_labels = (tuple(arrow_labels) if arrow_labels is not None
                             else tuple(str(a) for a in range(n_arrows)))
        self._nerve_cache = {}

    @property
    def n_arrows(self):
        return len(self.src)

    def arrows(self):
        return range(self.n_arrows)

    def objects(self):
        return range(self.n_objects)

    def compose(self, g, h):
        """g * h, defined when s(g) = r(h)."""
        try:
            return self.comp[(g, h)]
        except KeyError:
            raise StructureError(
                f"arrows {self.arrow_labels[g]} and {self.arrow_labels[h]} do not compose")

    def compose_list(self, arrows, at_object=None):
        """Product g1 * g2 * ... * gk; the empty product is the unit at `at_object`."""
        if not arrows:
            return self.unit[at_object]
        out = arrows[0]
        for a in arrows[1:]:
            out = self.compose(out, a)
        return out

    def is_composable(self, g, h):
        return self.src[g] == self.tgt[h]

    def vertices(self, t):
        """Objects x0, ..., xn along a nerve tuple."""
        if t.level == 0:
            return (t.obj,)
        return (t.obj,) + tuple(self.src[g] for g in t.arrows)

    def nerve(self, n):
        """All composable n-tuples in lexicographic arrow order.

        nerve(0) lists the objects, nerve(1) the arrows.
        """
        if n < 0:
            raise ValueError("nerve level must be nonnegative")
        if n in self._nerve_cache:
            return self._nerve_cache[n]
        if n == 0:
            out = [NerveTuple(x) for x in self.objects()]
        elif n == 1:
            out = [NerveTuple(self.tgt[g], (g,)) for g in self.arrows()]
        else:
            out = []
            for t in self.nerve(n - 1):
                last = t.arrows[-1]
                for g in self.arrows():
                    if self.tgt[g] == self.src[last]:
                        out.append(NerveTuple(t.obj, t.arrows + (g,)))
            out.sort(key=lambda t: t.arrows)
        self._nerve_cache[n] = out
        return out

    def nerve_index(self, n):
        """Position of each level-n tuple in the canonical enumeration."""
        key = ("index", n)
        if key not in self._nerve_cache:
            self._nerve_cache[key] = {t: i for i, t in enumerate(self.nerve(n))}
        return self._nerve_cache[key]

    def face_table(self, n):
        """For each level-(n+1) tuple, the positions in nerve(n) of its n+2 faces.

        This is the only place faces of nerve tuples are computed for
        cochains; every coboundary of the groupoid complex reads this table.

        >>> cyclic_group(2).face_table(1)
        [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
        """
        key = ("faces", n)
        if key not in self._nerve_cache:
            index = self.nerve_index(n)
            ks = range(n + 2)
            self._nerve_cache[key] = [tuple([index[face(self, k, t)] for k in ks])
                                      for t in self.nerve(n + 1)]
        return self._nerve_cache[key]


@dataclass
class Report:
    """Outcome of an exhaustive check; failures carry witnesses."""

    ok: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def validate(G):
    """Check all groupoid axioms exhaustively, reporting each failure.

    >>> validate(cyclic_group(2)).ok
    True
    """
    fails = []
    # composition is defined exactly on composable pairs
    for g in G.arrows():
        for h in G.arrows():
            defined = (g, h) in G.comp
            if defined != G.is_composable(g, h):
                fails.append(f"comp defined on ({g},{h}) iff composable violated")
    for (g, h), gh in G.comp.items():
        if G.tgt[gh] != G.tgt[g] or G.src[gh] != G.src[h]:
            fails.append(f"range/source of product wrong at ({g},{h})")
    # associativity
    for g in G.arrows():
        for h in G.arrows():
            if not G.is_composable(g, h):
                continue
            for k in G.arrows():
                if not G.is_composable(h, k):
                    continue
                if G.comp[(G.comp[(g, h)], k)] != G.comp[(g, G.comp[(h, k)])]:
                    fails.append(f"associativity fails at ({g},{h},{k})")
    # units
    for x in G.objects():
        e = G.unit[x]
        if G.src[e] != x or G.tgt[e] != x:
            fails.append(f"unit of object {x} is not an endo-arrow at {x}")
    for g in G.arrows():
        if G.comp.get((g, G.unit[G.src[g]])) != g:
            fails.append(f"g * unit(s(g)) != g for arrow {g}")
        if G.comp.get((G.unit[G.tgt[g]], g)) != g:
            fails.append(f"unit(r(g)) * g != g for arrow {g}")
    # inverses
    for g in G.arrows():
        gi = G.inv[g]
        if G.tgt[gi] != G.src[g] or G.src[gi] != G.tgt[g]:
            fails.append(f"inverse of {g} has wrong endpoints")
            continue
        if G.comp.get((g, gi)) != G.unit[G.tgt[g]]:
            fails.append(f"g * g^-1 != unit(r(g)) for arrow {g}")
        if G.comp.get((gi, g)) != G.unit[G.src[g]]:
            fails.append(f"g^-1 * g != unit(s(g)) for arrow {g}")
    return Report(not fails, fails)


def face(G, i, t):
    """The i-th face: drop at the ends, compose in the middle.

    For level 1, face 0 is the source object and face 1 the range.
    """
    n = t.level
    if n < 1:
        raise ValueError("faces need level >= 1")
    if not 0 <= i <= n:
        raise IndexError(f"face index {i} out of range for level {n}")
    if n == 1:
        g = t.arrows[0]
        return NerveTuple(G.src[g] if i == 0 else G.tgt[g])
    if i == 0:
        rest = t.arrows[1:]
        return NerveTuple(G.tgt[rest[0]], rest)
    if i == n:
        return NerveTuple(t.obj, t.arrows[:-1])
    merged = G.compose(t.arrows[i - 1], t.arrows[i])
    return NerveTuple(t.obj, t.arrows[:i - 1] + (merged,) + t.arrows[i + 1:])


def degeneracy(G, i, t):
    """The i-th degeneracy: insert a unit arrow after position i."""
    n = t.level
    if not 0 <= i <= n:
        raise IndexError(f"degeneracy index {i} out of range for level {n}")
    if n == 0:
        return NerveTuple(t.obj, (G.unit[t.obj],))
    if i == 0:
        return NerveTuple(t.obj, (G.unit[t.obj],) + t.arrows)
    u = G.unit[G.src[t.arrows[i - 1]]]
    return NerveTuple(t.obj, t.arrows[:i] + (u,) + t.arrows[i:])


def _apply_injective(G, f, t):
    # product formula: block j is g_{f(j-1)+1} ... g_{f(j)}
    verts = G.vertices(t)
    k = f.domain
    if k == 0:
        return NerveTuple(verts[f.values[0]])
    arrows = []
    for j in range(1, k + 1):
        lo, hi = f.values[j - 1], f.values[j]
        block = t.arrows[lo:hi]
        arrows.append(G.compose_list(list(block), at_object=verts[hi]))
    return NerveTuple(verts[f.values[0]], tuple(arrows))


def _apply_surjective(G, values, codomain, t):
    # peel elementary degeneracies off a surjective monotone map
    k = len(values) - 1
    if k == codomain:
        return t
    j = next(i for i in range(k) if values[i] == values[i + 1])
    shorter = values[:j] + values[j + 1:]
    return degeneracy(G, j, _apply_surjective(G, shorter, codomain, t))


def simplicial_map(G, f, t):
    """Apply the structure map of a monotone f: [k] -> [n] to a level-n tuple.

    Injective maps use the explicit product formula; everything else factors
    through its image as (surjection after injection), so degeneracies insert
    the units.

    >>> C2 = cyclic_group(2)
    >>> t = NerveTuple(0, (1, 1, 0))
    >>> simplicial_map(C2, MonotoneMap(3, (0, 3)), t)       # g1 g2 g3
    NerveTuple(obj=0, arrows=(0,))
    """
    if t.level != f.codomain:
        raise ValueError(f"tuple level {t.level} != codomain {f.codomain}")
    if f.is_injective():
        return _apply_injective(G, f, t)
    image = tuple(sorted(set(f.values)))
    eps = MonotoneMap(f.codomain, image)
    positions = {v: i for i, v in enumerate(image)}
    eta_values = tuple(positions[v] for v in f.values)
    s = _apply_injective(G, eps, t)
    return _apply_surjective(G, eta_values, len(image) - 1, s)


@dataclass(frozen=True)
class GroupoidMorphism:
    """A functor between finite groupoids, given by object and arrow tables."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    object_map: tuple[int, ...]
    arrow_map: tuple[int, ...]

    def is_morphism(self):
        f0, f1 = self.object_map, self.arrow_map
        G, H = self.source, self.target
        if len(f0) != G.n_objects or len(f1) != G.n_arrows:
            return False
        for g in G.arrows():
            if H.src[f1[g]] != f0[G.src[g]] or H.tgt[f1[g]] != f0[G.tgt[g]]:
                return False
        if any(f1[G.unit[x]] != H.unit[f0[x]] for x in G.objects()):
            return False
        for (g, h), gh in G.comp.items():
            if H.comp.get((f1[g], f1[h])) != f1[gh]:
                return False
        return True

    def compose(self, other):
        """self after other."""
        if other.target is not self.source:
            raise StructureError("morphism composition mismatch")
        return GroupoidMorphism(
            other.source, self.target,
            tuple(self.object_map[x] for x in other.object_map),
            tuple(self.arrow_map[a] for a in other.arrow_map))


def identity_morphism(G):
    return GroupoidMorphism(G, G, tuple(G.objects()), tuple(G.arrows()))


# ---------------------------------------------------------------------------
# builders


def cyclic_group(n):
    """The cyclic group of order n as a one-object groupoid; arrow k is g^k."""
    if n < 1:
        raise ValueError("order must be >= 1")
    comp = {(a, b): (a + b) % n for a in range(n) for b in range(n)}
    labels = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    return FiniteGroupoid(1, [0] * n, [0] * n, [0], comp, [(n - a) % n for a in range(n)],
                          object_labels=["*"], arrow_labels=labels)


def unit_groupoid(m):
    """m objects and only their unit arrows (a discrete space)."""
    if m < 1:
        raise ValueError("need at least one object")
    comp = {(x, x): x for x in range(m)}
    return FiniteGroupoid(m, range(m), range(m), range(m), comp, range(m))


def pair_groupoid(m):
    """Arrows (i, j): j -> i for all i, j; composition collapses matching ends."""
    if m < 1:
        raise ValueError("need at least one object")
    aid = lambda i, j: i * m + j
    src = [j for i in range(m) for j in range(m)]
    tgt = [i for i in range(m) for j in range(m)]
    comp = {(aid(i, j), aid(j, k)): aid(i, k)
            for i in range(m) for j in range(m) for k in range(m)}
    inv = [aid(j, i) for i in range(m) for j in range(m)]
    labels = [f"({i}<-{j})" for i in range(m) for j in range(m)]
    return FiniteGroupoid(m, src, tgt, [aid(x, x) for x in range(m)], comp, inv,
                          arrow_labels=labels)


def action_groupoid(G, n_points, anchor, act):
    """The crossed product of G acting on a finite set.

    `anchor[z]` is the object of G over the point z, and `act[(g, z)]` the
    image point, defined exactly when s(g) = anchor[z]. The three action
    axioms are checked up front and violations are rejected by name.
    """
    anchor = tuple(anchor)
    if len(anchor) != n_points:
        raise StructureError("need one anchor object per point")
    act = {(int(g), int(z)): int(w) for (g, z), w in act.items()}
    for g in G.arrows():
        for z in range(n_points):
            if (G.src[g] == anchor[z]) != ((g, z) in act):
                raise ValueError("action must be defined exactly when s(g) = p(z)")
    for (g, z), w in act.items():
        if anchor[w] != G.tgt[g]:
            raise ValueError("axiom p(gz) = r(g) violated")
    for z in range(n_points):
        if act[(G.unit[anchor[z]], z)] != z:
            raise ValueError("axiom e z = z violated")
    for (h, z), hz in act.items():
        for g in G.arrows():
            if G.is_composable(g, h):
                if act[(G.compose(g, h), z)] != act[(g, hz)]:
                    raise ValueError("axiom (gh)z = g(hz) violated")

    pairs = sorted((g, z) for (g, z) in act)
    aid = {p: i for i, p in enumerate(pairs)}
    src = [z for (g, z) in pairs]
    tgt = [act[(g, z)] for (g, z) in pairs]
    unit = [aid[(G.unit[anchor[z]], z)] for z in range(n_points)]
    comp = {}
    for (g, z) in pairs:
        for (h, w) in pairs:
            if z == act[(h, w)] and G.is_composable(g, h):
                comp[(aid[(g, z)], aid[(h, w)])] = aid[(G.compose(g, h), w)]
    inv = [aid[(G.inv[g], act[(g, z)])] for (g, z) in pairs]
    labels = [f"({G.arrow_labels[g]},{z})" for (g, z) in pairs]
    return FiniteGroupoid(n_points, src, tgt, unit, comp, inv, arrow_labels=labels)


def disjoint_union(G1, G2):
    """The disjoint union, with the two inclusion morphisms."""
    n1, a1 = G1.n_objects, G1.n_arrows
    src = G1.src + tuple(x + n1 for x in G2.src)
    tgt = G1.tgt + tuple(x + n1 for x in G2.tgt)
    unit = G1.unit + tuple(a + a1 for a in G2.unit)
    inv = G1.inv + tuple(a + a1 for a in G2.inv)
    comp = dict(G1.comp)
    comp.update({(g + a1, h + a1): gh + a1 for (g, h), gh in G2.comp.items()})
    labels = tuple(f"L:{s}" for s in G1.arrow_labels) + tuple(f"R:{s}" for s in G2.arrow_labels)
    olabels = tuple(f"L:{s}" for s in G1.object_labels) + tuple(f"R:{s}" for s in G2.object_labels)
    G = FiniteGroupoid(n1 + G2.n_objects, src, tgt, unit, comp, inv,
                       object_labels=olabels, arrow_labels=labels)
    inc1 = GroupoidMorphism(G1, G, tuple(range(n1)), tuple(range(a1)))
    inc2 = GroupoidMorphism(G2, G, tuple(range(n1, G.n_objects)),
                            tuple(range(a1, G.n_arrows)))
    return G, inc1, inc2


@dataclass(frozen=True)
class CoverGroupoid:
    """G[U] together with the canonical forgetful morphism back to G."""

    groupoid: FiniteGroupoid
    canon: GroupoidMorphism
    object_pairs: tuple[tuple[int, int], ...]
    arrow_triples: tuple[tuple[int, int, int], ...]


def cover_groupoid(G, sets):
    """The cover groupoid G[U] of an indexed family of object subsets.

    Arrows are triples (i, g, j) with r(g) in U_i and s(g) in U_j; the product
    is (i, g, j)(j, h, k) = (i, gh, k) and `canon` forgets the indices.
    """
    sets = [frozenset(int(x) for x in s) for s in sets]
    if any(not 0 <= x < G.n_objects for s in sets for x in s):
        raise StructureError("cover names unknown objects")
    covered = set().union(*sets) if sets else set()
    if covered != set(G.objects()):
        missing = sorted(set(G.objects()) - covered)
        raise ValueError(f"family does not cover the objects; missing {missing}")

    objects = sorted((i, x) for i, s in enumerate(sets) for x in s)
    oid = {p: n for n, p in enumerate(objects)}
    arrows = sorted((i, g, j)
                    for i, si in enumerate(sets) for j, sj in enumerate(sets)
                    for g in G.arrows() if G.tgt[g] in si and G.src[g] in sj)
    aid = {t: n for n, t in enumerate(arrows)}
    src = [oid[(j, G.src[g])] for (i, g, j) in arrows]
    tgt = [oid[(i, G.tgt[g])] for (i, g, j) in arrows]
    unit = [aid[(i, G.unit[x], i)] for (i, x) in objects]
    comp = {}
    for (i, g, j) in arrows:
        for (j2, h, k) in arrows:
            if j == j2 and G.is_composable(g, h):
                comp[(aid[(i, g, j)], aid[(j2, h, k)])] = aid[(i, G.compose(g, h), k)]
    inv = [aid[(j, G.inv[g], i)] for (i, g, j) in arrows]
    labels = [f"({i},{G.arrow_labels[g]},{j})" for (i, g, j) in arrows]
    olabels = [f"({i},{G.object_labels[x]})" for (i, x) in objects]
    H = FiniteGroupoid(len(objects), src, tgt, unit, comp, inv,
                       object_labels=olabels, arrow_labels=labels)
    canon = GroupoidMorphism(H, G,
                             tuple(x for (i, x) in objects),
                             tuple(g for (i, g, j) in arrows))
    return CoverGroupoid(H, canon, tuple(objects), tuple(arrows))


def find_isomorphism(G, H):
    """Exhaustive search for an isomorphism of finite groupoids, or None.

    Desk-scale only: backtracks over object bijections and arrow images with
    composition-consistency pruning.
    """
    if G.n_objects != H.n_objects or G.n_arrows != H.n_arrows:
        return None

    def profile(K, x):
        return (sum(1 for a in K.arrows() if K.src[a] == x),
                sum(1 for a in K.arrows() if K.tgt[a] == x))

    gprof = [profile(G, x) for x in G.objects()]
    hprof = [profile(H, x) for x in H.objects()]
    for objperm in itertools.permutations(range(H.n_objects)):
        if any(gprof[x] != hprof[objperm[x]] for x in G.objects()):
            continue
        amap = [None] * G.n_arrows
        used = [False] * H.n_arrows
        for x in G.objects():
            amap[G.unit[x]] = H.unit[objperm[x]]
            used[H.unit[objperm[x]]] = True
        order = [g for g in G.arrows() if amap[g] is None]

        def consistent(g):
            for h in G.arrows():
                if amap[h] is None:
                    continue
                if G.is_composable(g, h):
                    gh = G.comp[(g, h)]
                    if amap[gh] is not None and H.comp.get((amap[g], amap[h])) != amap[gh]:
                        return False
                if G.is_composable(h, g):
                    hg = G.comp[(h, g)]
                    if amap[hg] is not None and H.comp.get((amap[h], amap[g])) != amap[hg]:
                        return False
            gi = G.inv[g]
            if amap[gi] is not None and H.inv[amap[g]] != amap[gi]:
                return False
            return True

        def backtrack(pos):
            if pos == len(order):
                return True
            g = order[pos]
            for h in H.arrows():
                if used[h] or H.src[h] != objperm[G.src[g]] or H.tgt[h] != objperm[G.tgt[g]]:
                    continue
                amap[g] = h
                used[h] = True
                if consistent(g) and backtrack(pos + 1):
                    return True
                amap[g] = None
                used[h] = False
            return False

        if backtrack(0):
            morphism = GroupoidMorphism(G, H, tuple(objperm), tuple(amap))
            if morphism.is_morphism():
                return morphism
    return None
