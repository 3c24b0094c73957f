"""Finite groupoids, their nerves, and the simplicial structure maps.

A groupoid is stored extensionally: interned integer ids for objects and
arrows, total source/target/unit/inverse tables and a partial composition
table. An arrow g runs from the object s(g) to the object r(g), and g*h is
defined exactly when s(g) = r(h), that is, when h is in `into[s(g)]`, the
arrows into s(g); nerves, checks and builders walk `into` and `out`.

Nerve levels, faces, degeneracies and the action of arbitrary monotone maps
are all enumerated deterministically (lexicographic by arrow id), so matrices
built on top of them are reproducible.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple


class StructureError(ValueError):
    """Raised when raw groupoid data is malformed (dangling ids, bad shapes)."""


class BudgetExceeded(RuntimeError):
    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class Budget:
    """Caps on the exponential enumerations, each checked before it is built."""

    max_candidates: int = 500_000
    max_per_point: int = 20_000
    max_cells: int = 200_000
    max_cover_nerve: int = 3000


DEFAULT_BUDGET = Budget()
_ACTIVE_BUDGET = contextvars.ContextVar("active_budget", default=DEFAULT_BUDGET)


@contextlib.contextmanager
def use_budget(caps):
    """Check every enumeration inside the block against the Budget `caps`."""
    token = _ACTIVE_BUDGET.set(caps)
    try:
        yield caps
    finally:
        _ACTIVE_BUDGET.reset(token)


def _guard(cap, size, message):
    """Raise BudgetExceeded(message, estimate=size) if size > the active `cap`."""
    if size > getattr(_ACTIVE_BUDGET.get(), cap):
        raise BudgetExceeded(message, estimate=size)


class NerveTuple(NamedTuple):
    """A composable tuple (g1, ..., gn); level 0 stores just an object.

    `obj` is the range of the first arrow (the 0-th vertex); for level 0 it is
    the object itself. Tuples are ordered, so they can serve as cover indices;
    hashing, order and equality are those of the plain tuple (obj, arrows).
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
    @functools.cache
    def face(cls, n, i):
        """eps_i: [n-1] -> [n], the increasing injection avoiding i."""
        if not 0 <= i <= n:
            raise ValueError("face index out of range")
        return cls(n, tuple(v for v in range(n + 1) if v != i))

    @classmethod
    @functools.cache
    def degeneracy(cls, n, i):
        """eta_i: [n+1] -> [n], the surjection hitting i twice."""
        if not 0 <= i <= n:
            raise ValueError("degeneracy index out of range")
        return cls(n, tuple(range(i + 1)) + tuple(range(i, n + 1)))

    def compose(self, other):
        """self o other, for other: [l] -> [domain of self]."""
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        return MonotoneMap(self.codomain, tuple(self.values[v] for v in other.values))


@functools.cache
def all_monotone_maps(k, n):
    """Every nondecreasing [k] -> [n], lexicographically, as one shared tuple."""
    return tuple(MonotoneMap(n, vals)
                 for vals in itertools.combinations_with_replacement(range(n + 1), k + 1))


@functools.cache
def all_strict_maps(k, n):
    """Every strictly increasing [k] -> [n], lexicographically, as one shared tuple."""
    return tuple(MonotoneMap(n, vals) for vals in itertools.combinations(range(n + 1), k + 1))


class FiniteGroupoid:
    """A finite groupoid on interned ids. Construct via the builders below
    or from explicit tables; `validate` checks every axiom exhaustively."""

    __slots__ = ("n_objects", "src", "tgt", "unit", "comp", "inv",
                 "object_labels", "arrow_labels", "_nerve_cache")

    def __init__(self, n_objects, src, tgt, unit, comp, inv,
                 object_labels=None, arrow_labels=None):
        self.n_objects = int(n_objects)
        self.src = tuple([int(x) for x in src])
        self.tgt = tuple([int(x) for x in tgt])
        if len(self.src) != len(self.tgt):
            raise StructureError("src and tgt must have one entry per arrow")
        n_arrows = len(self.src)
        self.unit = tuple([int(x) for x in unit])
        if len(self.unit) != self.n_objects:
            raise StructureError("need one unit arrow per object")
        self.inv = tuple([int(x) for x in inv])
        if len(self.inv) != n_arrows:
            raise StructureError("need one inverse per arrow")
        if any(not 0 <= x < self.n_objects for x in itertools.chain(self.src, self.tgt)):
            raise StructureError("src/tgt refer to unknown objects")
        unknown = any(not 0 <= a < n_arrows for a in itertools.chain(self.unit, self.inv))
        table = self.comp = {}
        for (g, h), gh in comp.items():
            g, h, gh = int(g), int(h), int(gh)
            if not (0 <= g < n_arrows and 0 <= h < n_arrows and 0 <= gh < n_arrows):
                unknown = True
            table[g, h] = gh
        if unknown:
            raise StructureError("composition/unit/inverse tables refer to unknown arrows")
        self.object_labels = (tuple(object_labels) if object_labels is not None
                              else tuple([str(x) for x in range(self.n_objects)]))
        self.arrow_labels = (tuple(arrow_labels) if arrow_labels is not None
                             else tuple([str(a) for a in range(n_arrows)]))
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

    @property
    def into(self):
        """Per object, the increasing arrows into it: g * h is defined iff h in into[s(g)]."""
        if "into" not in self._nerve_cache:
            self._nerve_cache["into"] = fibers(self.tgt, self.n_objects)
        return self._nerve_cache["into"]

    @property
    def out(self):
        """Per object, the increasing arrows out of it: g * h is defined iff g in out[r(h)]."""
        if "out" not in self._nerve_cache:
            self._nerve_cache["out"] = fibers(self.src, self.n_objects)
        return self._nerve_cache["out"]

    def vertices(self, t):
        """Objects x0, ..., xn along a nerve tuple."""
        return (t.obj,) + tuple(self.src[g] for g in t.arrows)

    def nerve_count(self, n):
        """len(nerve(n)), for n >= 2 counted from level n - 1 without building
        level n: each (n-1)-tuple extends by the arrows into its last source."""
        if n in self._nerve_cache or n < 2:
            return len(self.nerve(n))
        into, src = self.into, self.src
        return sum([len(into[src[t.arrows[-1]]]) for t in self.nerve(n - 1)])

    def nerve(self, n):
        """All composable n-tuples in lexicographic arrow order.

        nerve(0) lists the objects, nerve(1) the arrows. Level n >= 2 extends
        each (n-1)-tuple in order by the arrows into its last source; it is
        counted before it is built and charged to the active `max_cells`.
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
            count = self.nerve_count(n)
            _guard("max_cells", count, f"nerve level {n} has {count} tuples")
            into, src = self.into, self.src
            out = [NerveTuple(t.obj, t.arrows + (g,))
                   for t in self.nerve(n - 1) for g in into[src[t.arrows[-1]]]]
        self._nerve_cache[n] = out
        return out

    def nondegenerate(self, n):
        """The composable n-tuples with no unit arrow, in nerve order.

        They index the normalized cochains, those that vanish on every tuple
        with a unit arrow: a subcomplex with the same cohomology (Eilenberg
        and Mac Lane). Level 0 is nerve(0) and level 1 the non-unit arrows.
        Level n >= 2 extends each nondegenerate (n-1)-tuple by the non-unit
        arrows into its last source; it is counted before it is built and
        charged to the active `max_cells`.

        >>> [t.arrows for t in cyclic_group(3).nondegenerate(2)]
        [(1, 1), (1, 2), (2, 1), (2, 2)]
        """
        key = ("nondegenerate", n)
        if key in self._nerve_cache:
            return self._nerve_cache[key]
        if n == 0:
            return self.nerve(0)
        units = set(self.unit)
        if n == 1:
            out = [NerveTuple(self.tgt[g], (g,)) for g in self.arrows() if g not in units]
        else:
            into = [[g for g in arrows if g not in units] for arrows in self.into]
            src, below = self.src, self.nondegenerate(n - 1)
            count = sum([len(into[src[t.arrows[-1]]]) for t in below])
            _guard("max_cells", count, f"nerve level {n} has {count} nondegenerate tuples")
            out = [NerveTuple(t.obj, t.arrows + (g,))
                   for t in below for g in into[src[t.arrows[-1]]]]
        self._nerve_cache[key] = out
        return out

    def nerve_index(self, n):
        """Position in nerve(n), n >= 1, of each composable tuple given as a
        plain tuple of arrow ids; the position of (g,) is g."""
        key = ("index", n)
        if key not in self._nerve_cache:
            self._nerve_cache[key] = {t.arrows: i for i, t in enumerate(self.nerve(n))}
        return self._nerve_cache[key]

    def face_table(self, n, normalized=False):
        """For each level-(n+1) tuple, the positions in nerve(n) of its n+2 faces.

        Every coboundary of the groupoid complex reads this table; on the
        Cech side `cech.NerveSpace.table` composes its columns into the table
        of each strictly increasing structure map, by point position.
        Faces are formed on plain arrow tuples: at level 0 they are the
        source and range objects, at level 1 arrow ids, and above that they
        are looked up in `nerve_index`. `face` is the per-tuple definition.

        With normalized=True the rows and positions are those of the
        `nondegenerate` levels. An inner face of a nondegenerate tuple is
        degenerate exactly when g_k g_(k+1) is a unit; its position is None.

        >>> cyclic_group(2).face_table(1)
        [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
        >>> cyclic_group(2).face_table(1, normalized=True)
        [(0, None, 0)]
        """
        key = ("faces", n, normalized)
        if key not in self._nerve_cache:
            self._nerve_cache[key] = self._faces(n, normalized)
        return self._nerve_cache[key]

    def _faces(self, n, normalized):
        if n == 0 and not normalized:
            return list(zip(self.src, self.tgt))
        level = self.nondegenerate if normalized else self.nerve
        chains = [t.arrows for t in level(n + 1)]
        if n == 0:
            return [(self.src[g], self.tgt[g]) for g, in chains]
        comp = self.comp
        if n == 1 and not normalized:
            return [(h, comp[g, h], g) for g, h in chains]
        index = ({t.arrows: i for i, t in enumerate(level(n))} if normalized
                 else self.nerve_index(n))
        at = index.get if normalized else index.__getitem__
        inner = range(1, n + 1)
        return [(index[a[1:]],)
                + tuple([at(a[:k - 1] + (comp[a[k - 1], a[k]],) + a[k + 1:]) for k in inner])
                + (index[a[:-1]],)
                for a in chains]


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
    for g, h in itertools.product(G.arrows(), repeat=2):
        if ((g, h) in G.comp) != G.is_composable(g, h):
            fails.append(f"comp defined on ({g},{h}) iff composable violated")
    for (g, h), gh in G.comp.items():
        if G.tgt[gh] != G.tgt[g] or G.src[gh] != G.src[h]:
            fails.append(f"range/source of product wrong at ({g},{h})")
    # associativity; a missing product is reported above, so look up with get
    product, into = G.comp.get, G.into
    for g in G.arrows():
        for h in into[G.src[g]]:
            for k in into[G.src[h]]:
                if product((product((g, h)), k)) != product((g, product((h, k)))):
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


def simplicial_map(G, f, t):
    """Apply the structure map of a monotone f: [k] -> [n] to a level-n tuple.

    One product formula serves every f: block j is g_{f(j-1)+1} ... g_{f(j)},
    and an empty block (f(j-1) = f(j)) is the unit at vertex f(j). The result
    starts at vertex f(0). `face` and `degeneracy` are the elementary cases.

    >>> C2 = cyclic_group(2)
    >>> t = NerveTuple(0, (1, 1, 0))
    >>> simplicial_map(C2, MonotoneMap(3, (0, 3)), t)       # g1 g2 g3
    NerveTuple(obj=0, arrows=(0,))
    """
    if t.level != f.codomain:
        raise ValueError(f"tuple level {t.level} != codomain {f.codomain}")
    verts = G.vertices(t)
    v = f.values
    return NerveTuple(verts[v[0]], tuple(G.compose_list(t.arrows[lo:hi], at_object=verts[hi])
                                         for lo, hi in zip(v, v[1:])))


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
    for g, z in itertools.product(G.arrows(), range(n_points)):
        if (G.src[g] == anchor[z]) != ((g, z) in act):
            raise ValueError("action must be defined exactly when s(g) = p(z)")
    for (g, z), w in act.items():
        if anchor[w] != G.tgt[g]:
            raise ValueError("axiom p(gz) = r(g) violated")
    for z in range(n_points):
        if act[(G.unit[anchor[z]], z)] != z:
            raise ValueError("axiom e z = z violated")
    for (h, z), hz in act.items():
        for g in G.out[G.tgt[h]]:
            if act[(G.compose(g, h), z)] != act[(g, hz)]:
                raise ValueError("axiom (gh)z = g(hz) violated")

    pairs = sorted((g, z) for (g, z) in act)
    aid = {p: i for i, p in enumerate(pairs)}
    src = [z for (g, z) in pairs]
    tgt = [act[(g, z)] for (g, z) in pairs]
    unit = [aid[(G.unit[anchor[z]], z)] for z in range(n_points)]
    into = fibers(tgt, n_points)  # (g, z)(h, w) is defined when h w = z
    comp = {}
    for i, (g, z) in enumerate(pairs):
        for j in into[z]:
            h, w = pairs[j]
            comp[i, j] = aid[(G.compose(g, h), w)]
    inv = [aid[(G.inv[g], act[(g, z)])] for (g, z) in pairs]
    labels = [f"({G.arrow_labels[g]},{z})" for (g, z) in pairs]
    return FiniteGroupoid(n_points, src, tgt, unit, comp, inv, arrow_labels=labels)


def cyclic_action_groupoid(n, perm):
    """The crossed product of C_n acting on the points 0..len(perm)-1, its
    generator by the permutation `perm` (so g^k sends z to perm^k(z))."""
    m = len(perm)
    act, images = {}, list(range(m))
    for k in range(n):
        act.update(((k, z), w) for z, w in enumerate(images))
        images = [perm[w] for w in images]
    return action_groupoid(cyclic_group(n), m, [0] * m, act)


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


def fibers(values, size):
    """For each v in range(size), the increasing positions i with values[i] == v."""
    out = [[] for _ in range(size)]
    for i, v in enumerate(values):
        out[v].append(i)
    return out


def memberships(n, sets):
    """For each element 0, ..., n-1, the increasing indices of the sets that contain it."""
    return tuple(tuple(i for i, s in enumerate(sets) if x in s) for x in range(n))


def cover_groupoid(G, sets):
    """The cover groupoid G[U] of an indexed family of object subsets.

    Arrows are triples (i, g, j) with r(g) in U_i and s(g) in U_j; the product
    is (i, g, j)(j, h, k) = (i, gh, k) and `canon` forgets the indices. The
    indices i, j, k are read from the `memberships` of the objects.
    """
    sets = [frozenset(int(x) for x in s) for s in sets]
    if any(not 0 <= x < G.n_objects for s in sets for x in s):
        raise StructureError("cover names unknown objects")
    pieces = memberships(G.n_objects, sets)
    missing = [x for x in G.objects() if not pieces[x]]
    if missing:
        raise ValueError(f"family does not cover the objects; missing {missing}")

    objects = sorted((i, x) for x in G.objects() for i in pieces[x])
    oid = {p: n for n, p in enumerate(objects)}
    arrows = sorted((i, g, j) for g in G.arrows()
                    for i in pieces[G.tgt[g]] for j in pieces[G.src[g]])
    aid = {t: n for n, t in enumerate(arrows)}
    src = [oid[(j, G.src[g])] for (i, g, j) in arrows]
    tgt = [oid[(i, G.tgt[g])] for (i, g, j) in arrows]
    unit = [aid[(i, G.unit[x], i)] for (i, x) in objects]
    comp = {}
    for n, (i, g, j) in enumerate(arrows):
        for h in G.into[G.src[g]]:
            for k in pieces[G.src[h]]:
                comp[n, aid[(j, h, k)]] = aid[(i, G.comp[g, h], k)]
    inv = [aid[(j, G.inv[g], i)] for (i, g, j) in arrows]
    labels = [f"({i},{G.arrow_labels[g]},{j})" for (i, g, j) in arrows]
    olabels = [f"({i},{G.object_labels[x]})" for (i, x) in objects]
    H = FiniteGroupoid(len(objects), src, tgt, unit, comp, inv,
                       object_labels=olabels, arrow_labels=labels)
    canon = GroupoidMorphism(H, G,
                             tuple(x for (i, x) in objects),
                             tuple(g for (i, g, j) in arrows))
    return CoverGroupoid(H, canon, tuple(objects), tuple(arrows))
