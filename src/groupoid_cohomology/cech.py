"""Covers of finite semi-simplicial spaces and their cochain complexes.

The objects here mirror the cover calculus: a cover assigns indexed subsets
to every level; the sigma construction refines it into a semi-simplicial
cover whose level-n indices are typed maps lambda on the strictly increasing
maps into [n] (identified with nonempty subsets of [n], ordered by
cardinality then lexicographically), with pieces

    U^n_lambda = intersection over f of f~^{-1}(U^k_{lambda(f)}).

The N-simplicial refinement sigma_N and the cover induced by a level-0
cover (sigma_0 of it) are the same index calculus over monotone slot maps.

Cochain complexes live on such families via (dc)_i = sum (-1)^k eps_k~* of
c at the face of the index. One face table drives every coboundary, as in
the groupoid complex: `cell_faces` lists the faces of a cell (face index,
face point, restriction), `ss_differential_value` sums them on one cell, and
`assemble_complex` indexes them by cell position and hands the table to
`cohomology.assemble_coboundary`, which writes the sparse columns of each map
in one pass over the cells. Entries stay unreduced modulo the target orders;
the factors-only `homology_at` reduces them on entry.

Refinement maps theta* and the comparison maps q and iota of a constant
space are one pull-back along an index map. Two refinements into a cover
carrying a full (N-)simplicial index structure are homotopic through the
explicit operator H whose index combinatorics (alpha_k, with the three-way
case split) is implemented verbatim.

Every complex family prunes its cover to the nonempty pieces, sigma U being
the family of its own slot cover; pruning is face-closed, so the pruned and
unpruned complexes agree. Each level is checked against the active `Budget`
(`use_budget`) when it is first built: candidates, indices per point, cells.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod

from .abelian import AbComplex, FinAbGroup, ShapeError, homology_at
from .cohomology import alternating_sum, assemble_coboundary, tuple_fiber
from .groupoid import (DEFAULT_BUDGET, Budget, BudgetExceeded, MonotoneMap,  # noqa: F401
                       _guard, all_monotone_maps, all_strict_maps, simplicial_map, use_budget)


# ---------------------------------------------------------------------------
# spaces and coefficient systems


class NerveSpace:
    """The nerve of a finite groupoid as a simplicial space."""

    def __init__(self, groupoid):
        self.groupoid = groupoid
        self._smap_cache = {}

    def points(self, n):
        return self.groupoid.nerve(n)

    def smap(self, f, point):
        key = (f, point)
        out = self._smap_cache.get(key)
        if out is None:
            out = simplicial_map(self.groupoid, f, point)
            self._smap_cache[key] = out
        return out


class ConstantSpace:
    """The constant simplicial space of a finite set; structure maps are trivial."""

    def __init__(self, n_points):
        self.n_points = n_points
        self._pts = tuple(range(n_points))

    def points(self, n):
        return self._pts

    def smap(self, f, point):
        return point


class ModuleCoefficients:
    """The coefficient system of a module on a nerve, in the twisted
    convention: the fiber over a tuple sits at its 0-th vertex, and the
    restriction along f twists by the action of g_1 ... g_{f(0)}, the empty
    product (f(0) = 0) acting as the identity, returned as None."""

    def __init__(self, module):
        self.module = module
        self._hom_cache = {}

    def fiber(self, n, point):
        return tuple_fiber(self.module, point)

    def restrict(self, f, point):
        G = self.module.base
        j = f.values[0]
        if j == 0:
            return None
        key = (point.obj, point.arrows[:j])
        out = self._hom_cache.get(key)
        if out is None:
            verts = G.vertices(point)
            gamma = G.compose_list(list(point.arrows[:j]), at_object=verts[j])
            out = self.module.action(gamma)
            self._hom_cache[key] = out
        return out


class ConstantCoefficients:
    """One abelian group everywhere; restrictions are the identity (None)."""

    def __init__(self, group):
        self.group = group

    def fiber(self, n, point):
        return self.group

    def restrict(self, f, point):
        return None


# ---------------------------------------------------------------------------
# covers


@dataclass(frozen=True)
class Cover:
    """A plain open cover: per level, a tuple of subsets of the points."""

    sets_by_level: tuple[tuple[frozenset, ...], ...]

    @classmethod
    def from_sets(cls, sets_by_level):
        return cls(tuple(tuple(frozenset(s) for s in level) for level in sets_by_level))

    @property
    def depth(self):
        return len(self.sets_by_level) - 1

    def indices(self, n):
        return tuple(range(len(self.sets_by_level[n])))

    def index_count(self, n):
        return len(self.sets_by_level[n])

    def set_of(self, n, i):
        return self.sets_by_level[n][i]

    @functools.cached_property
    def _pieces(self):
        """Per level, point -> the increasing indices of the pieces holding it."""
        out = [{} for _ in self.sets_by_level]
        for table, level in zip(out, self.sets_by_level):
            for i, s in enumerate(level):
                for p in s:
                    table[p] = table.get(p, ()) + (i,)
        return out

    def containing(self, n, point):
        return self._pieces[n].get(point, ())

    def covers(self, space, n):
        return set().union(*self.sets_by_level[n]) == set(space.points(n))


def validate_cover(space, cover, top):
    for n in range(top + 1):
        if n > cover.depth or not cover.covers(space, n):
            raise ValueError(f"family does not cover level {n}")


def single_set_cover(space, top):
    """One piece per level: the whole space."""
    return Cover.from_sets([[frozenset(space.points(n))] for n in range(top + 1)])


class MaximalSimplicialCover:
    """Singleton pieces indexed by the points themselves; f~ acts on indices
    exactly as on points, so the structure is simplicial."""

    def __init__(self, space):
        self.space = space

    def indices(self, n):
        return tuple(self.space.points(n))

    def index_count(self, n):
        return len(self.space.points(n))

    def set_of(self, n, label):
        return frozenset((label,))

    def containing(self, n, point):
        return (point,)

    def jmap(self, f, label):
        return self.space.smap(f, label)


def nonempty_pieces(space, cover, n, stage):
    """The nonempty pieces of a cover at level n: label -> sorted points,
    labels sorted, read off `cover.containing` point by point.

    Every pruned family is built here; more cells than the active
    `max_cells` raises, naming the stage.
    """
    table = {}
    for p in space.points(n):
        for label in cover.containing(n, p):
            table.setdefault(label, []).append(p)
    cells = sum(len(pts) for pts in table.values())
    _guard("max_cells", cells, f"{stage} level {n} has {cells} cells")
    return {label: tuple(sorted(table[label])) for label in sorted(table)}


class _SlotCover:
    """The index calculus shared by sigma, sigma_N and the induced cover: a
    level-n index assigns a base index lambda(f) to every slot map
    f: [k] -> [n] of the level, and its piece is the intersection of the
    f~^{-1}(U^k_{lambda(f)}).

    The covers differ only in their slot maps: maps(k, n) for k up to
    max_domain (None: up to n). The candidate set is exponential, so
    everything is evaluated per point or per label, under the active budget.
    """

    stage = None

    def __init__(self, space, base, maps, max_domain):
        self.space, self.base = space, base
        self._slot_kind = (maps, max_domain)
        self._level_slots = {}
        self._reindex_tables = {}

    def _slots_at(self, n):
        """The slot maps of level n, by domain, then lexicographically, and
        the position of each by its values; built once per level."""
        out = self._level_slots.get(n)
        if out is None:
            maps, max_domain = self._slot_kind
            top = n if max_domain is None else max_domain
            fs = tuple(f for k in range(top + 1) for f in maps(k, n))
            out = self._level_slots[n] = (fs, {f.values: i for i, f in enumerate(fs)})
        return out

    def index_count(self, n):
        return prod(self.base.index_count(f.domain) for f in self._slots_at(n)[0])

    def _candidates(self, n):
        """Every candidate index, lexicographically. Budgeted."""
        count = self.index_count(n)
        _guard("max_candidates", count, f"{self.stage} cover has {count} candidates at level {n}")
        return itertools.product(*(self.base.indices(f.domain) for f in self._slots_at(n)[0]))

    def set_of(self, n, label):
        return frozenset(p for p in self.space.points(n)
                         if all(self.space.smap(f, p) in self.base.set_of(f.domain, i)
                                for f, i in zip(self._slots_at(n)[0], label)))

    def containing(self, n, point):
        """The product over the slots f of the base indices containing f~(point),
        its size checked before it is enumerated."""
        pools = [self.base.containing(f.domain, self.space.smap(f, point))
                 for f in self._slots_at(n)[0]]
        total = prod(map(len, pools))
        _guard("max_per_point", total,
               f"too many nonempty {self.stage} indices per point: {total} at level {n}")
        return tuple(itertools.product(*pools))

    def _reindex(self, g, label):
        """(g~ lambda)(f) = lambda(g o f) for g: [a] -> [b], label at level b,
        through a position table cached per g."""
        key = (g.codomain, g.values)
        table = self._reindex_tables.get(key)
        if table is None:
            pos = self._slots_at(g.codomain)[1]
            table = tuple(pos[tuple(g.values[v] for v in f.values)]
                          for f in self._slots_at(g.domain)[0])
            self._reindex_tables[key] = table
        return tuple(label[i] for i in table)


class SigmaNSimplicialCover(_SlotCover):
    """The paper's N-simplicial refinement sigma_N of a plain cover: an index
    at level n assigns a base index to every monotone map into [n] with
    domain <= N, and the piece intersects all the pulled-back base pieces.
    """

    stage = "sigma_N"

    def __init__(self, space, base, N):
        super().__init__(space, base, all_monotone_maps, N)
        self.N = N

    def slots(self, n):
        return self._slots_at(n)[0]

    def indices(self, n):
        return tuple(self._candidates(n))

    def jmap(self, g, label):
        return self._reindex(g, label)


class InducedSimplicialCover(SigmaNSimplicialCover):
    """The simplicial cover generated by a level-0 cover, which is sigma_0 of
    it: indices at level n are (n+1)-tuples of level-0 indices, one per
    vertex, the piece being the intersection of the vertex preimages; f~
    reindexes tuples by composition with f."""

    stage = "induced"

    def __init__(self, space, level0_sets):
        self.level0 = tuple(frozenset(s) for s in level0_sets)
        super().__init__(space, Cover((self.level0,)), 0)


def refinement_into_sigma_n(space, sigma_n_cover, top):
    """The canonical refinement witness sigma_N U -> U: each label is sent to
    its value at the identity slot, whose piece contains it by construction."""
    if top > sigma_n_cover.N:
        raise ValueError(f"sigma_{sigma_n_cover.N} has no identity slot at level {top}")
    fam = SimplicialCoverComplex(space, sigma_n_cover, top)
    tables = []
    for n in range(top + 1):
        ident = sigma_n_cover.slots(n).index(MonotoneMap.identity(n))
        tables.append({label: label[ident] for label in fam.indices(n)})
    return Refinement(sigma_n_cover.base, sigma_n_cover, tuple(tables))


# ---------------------------------------------------------------------------
# the sigma (semi-simplicial) construction and cover complexes


class SimplicialCoverComplex:
    """A cover used directly as a semi-simplicial complex family: its own
    indices, pruned to the nonempty pieces, faces through jmap."""

    stage = "cover complex"

    def __init__(self, space, cover, top):
        self.space, self.cover, self.top, self._levels = space, cover, top, {}

    def _level(self, n):
        if n not in self._levels:
            self._levels[n] = nonempty_pieces(self.space, self.cover, n, self.stage)
        return self._levels[n]

    def indices(self, n):
        return tuple(self._level(n))

    def points_of(self, n, label):
        return self._level(n)[label]

    def face_index(self, k, n, label):
        return self.cover.jmap(MonotoneMap.face(n, k), label)


class SigmaCover(SimplicialCoverComplex, _SlotCover):
    """sigma U: the semi-simplicial cover of any plain-ish cover.

    Level-n indices are tuples over the strictly increasing slots, each
    named by its image, a nonempty subset of [n]; only the pieces meeting
    at least one point are materialized for complexes, which is safe
    because nonemptiness is face-closed.
    """

    stage = "sigma"
    # the complex family of its own slot cover; a property, as an attribute
    # would be a reference cycle holding the built levels until a full collection
    cover = property(lambda self: self)

    def __init__(self, space, base, top):
        _SlotCover.__init__(self, space, base, all_strict_maps, None)
        self.top, self._levels = top, {}

    def slots(self, n):
        return tuple(self._slots_at(n)[1])

    def candidate_count(self, n):
        return self.index_count(n)

    def all_lambda(self, n):
        """Every candidate index with its piece (possibly empty): the
        unpruned reference. Budgeted."""
        return [(label, self.set_of(n, label)) for label in self._candidates(n)]

    def indices(self, n):
        """Nonempty indices, sorted (its own entry, so that a trace probe can
        wrap the sigma levels alone)."""
        return super().indices(n)

    def face_index(self, k, n, label):
        """eps_k~ by reindexing (sigma has no jmap): level n label -> level n-1 label."""
        return self._reindex(MonotoneMap.face(n, k), label)


# ---------------------------------------------------------------------------
# cochains over a complex family


@dataclass
class SSCochain:
    """Sections over every nonempty piece of a complex family at one degree."""

    degree: int
    data: dict  # label -> {point: element tuple}


def ss_zero(space, coeffs, fam, n):
    data = {}
    for label in fam.indices(n):
        data[label] = {p: coeffs.fiber(n, p).zero() for p in fam.points_of(n, label)}
    return SSCochain(n, data)


def ss_basis(space, coeffs, fam, n):
    """Indicator cochains, one per generator of the degree-n cochain group."""
    out = []
    for label, p, fib in complex_coordinates(space, coeffs, fam, n):
        for j in range(fib.ngens):
            c = ss_zero(space, coeffs, fam, n)
            vec = list(c.data[label][p])
            vec[j] = 1
            c.data[label][p] = fib.reduce(tuple(vec))
            out.append(c)
    return out


def ss_random(space, coeffs, fam, n, rng):
    data = {label: {} for label in fam.indices(n)}
    for label, p, fib in complex_coordinates(space, coeffs, fam, n):
        data[label][p] = fib.reduce(tuple(rng.randrange(d) if d else rng.randrange(-3, 4)
                                          for d in fib.orders))
    return SSCochain(n, data)


def ss_combine(space, coeffs, fam, c1, c2, op):
    if c1.degree != c2.degree:
        raise ShapeError("degrees differ")
    data = {}
    for label, vals in c1.data.items():
        data[label] = {p: op(coeffs.fiber(c1.degree, p), v, c2.data[label][p])
                       for p, v in vals.items()}
    return SSCochain(c1.degree, data)


def ss_sub(space, coeffs, fam, c1, c2):
    return ss_combine(space, coeffs, fam, c1, c2, lambda fib, a, b: fib.sub(a, b))


def ss_add(space, coeffs, fam, c1, c2):
    return ss_combine(space, coeffs, fam, c1, c2, lambda fib, a, b: fib.add(a, b))


def ss_is_zero(c):
    return all(all(not any(v) for v in vals.values()) for vals in c.data.values())


def ss_equal(c1, c2):
    return c1.degree == c2.degree and c1.data == c2.data


def ss_lookup(c):
    """Cell lookup for a materialized cochain."""
    return lambda label, point: c.data[label][point]


def cell_faces(space, coeffs, fam, n, label, point):
    """The n+1 faces of a level-n cell, in order, as (face index, face point,
    restriction), the restriction None when it is the identity.

    Every coboundary over a family reads its faces here.
    """
    out = []
    for k in range(n + 1):
        eps = MonotoneMap.face(n, k)
        out.append((fam.face_index(k, n, label), space.smap(eps, point),
                    coeffs.restrict(eps, point)))
    return out


def ss_differential_value(space, coeffs, fam, c_at, n, label, point):
    """One cell of d(c) at level n+1, with c given as a degree-n lookup.

    Only the faces of the requested index are touched, so this works even
    when level n+1 is too large to enumerate.
    """
    return alternating_sum(coeffs.fiber(n + 1, point),
                           ((c_at(src_label, src_point), r) for src_label, src_point, r
                            in cell_faces(space, coeffs, fam, n + 1, label, point)))


def ss_differential(space, coeffs, fam, c):
    """(dc)_i = sum_k (-1)^k eps_k~* c_{eps_k~(i)}, materialized."""
    n = c.degree
    missing = [label for label in fam.indices(n) if label not in c.data]
    if missing:
        raise ShapeError(f"cochain misses {len(missing)} pieces at degree {n}")
    c_at = ss_lookup(c)
    data = {}
    for label in fam.indices(n + 1):
        data[label] = {p: ss_differential_value(space, coeffs, fam, c_at, n, label, p)
                       for p in fam.points_of(n + 1, label)}
    return SSCochain(n + 1, data)


def complex_coordinates(space, coeffs, fam, n):
    """Cell layout (label, point, fiber) of degree n, in canonical order."""
    cells = []
    for label in fam.indices(n):
        for p in fam.points_of(n, label):
            cells.append((label, p, coeffs.fiber(n, p)))
    return cells


def ss_flatten(space, coeffs, fam, c):
    """Coordinates of a cochain in the canonical cell layout."""
    out = []
    for label, p, fib in complex_coordinates(space, coeffs, fam, c.degree):
        out.extend(c.data[label][p])
    return tuple(out)


def assemble_complex(space, coeffs, fam, top):
    """The cochain complex of a family as presented abelian groups.

    Each map is assembled from the family's face table, built from
    cell_faces in one pass over the cells; entries stay unreduced modulo
    the target orders.
    """
    cells, fibers = [], []
    for n in range(top + 1):
        level = complex_coordinates(space, coeffs, fam, n)
        fibs = [fib for _, _, fib in level]
        ngens = sum(fib.ngens for fib in fibs)
        _guard("max_cells", ngens, f"complex level {n} has {ngens} coordinates")
        cells.append(level)
        fibers.append(fibs)
    maps = []
    for n in range(top):
        index = {(label, p): i for i, (label, p, _) in enumerate(cells[n])}
        table = [tuple((index[(src_label, src_point)], r) for src_label, src_point, r
                       in cell_faces(space, coeffs, fam, n + 1, label, p))
                 for label, p, _ in cells[n + 1]]
        maps.append(assemble_coboundary(fibers[n], fibers[n + 1], table))
    groups = tuple(FinAbGroup(tuple(o for fib in fibs for o in fib.orders)) for fibs in fibers)
    return AbComplex(groups, tuple(maps))


def sigma_cover(space, cover, top):
    """The semi-simplicial cover sigma U, with its Lambda index calculus."""
    if isinstance(cover, Cover):
        validate_cover(space, cover, top)
    return SigmaCover(space, cover, top)


def cech_cohomology_on_cover(space, coeffs, cover, n):
    """H^n of the sigma-complex of a cover."""
    fam = sigma_cover(space, cover, n + 1)
    cx = assemble_complex(space, coeffs, fam, n + 1)
    return homology_at(cx, n)


# ---------------------------------------------------------------------------
# refinements and the homotopy operator


@dataclass
class Refinement:
    """theta: indices of the finer cover -> indices of the coarser one, per
    level, with containment V^n_j subset of U^n_{theta_n(j)}.

    theta_by_level[n] may list only the indices that matter (nonempty ones).
    """

    coarse: object
    fine: object
    theta_by_level: tuple[dict, ...]

    def theta(self, n, label):
        return self.theta_by_level[n][label]


def validate_refinement(space, refinement, top):
    for n in range(top + 1):
        table = refinement.theta_by_level[n]
        for label, target in table.items():
            if not refinement.fine.set_of(n, label) <= refinement.coarse.set_of(n, target):
                raise ValueError(f"containment fails at level {n}, index {label}")
        for p in space.points(n):
            for label in refinement.fine.containing(n, p):
                if label not in table:
                    raise ValueError(f"theta misses the nonempty index {label} at level {n}")


def _pull_back(fam, c, source_index):
    """The cochain over fam whose value at (label, p) is c at
    (source_index(label), p): theta*, q and iota."""
    n = c.degree
    data = {}
    for label in fam.indices(n):
        vals = c.data[source_index(label)]
        data[label] = {p: vals[p] for p in fam.points_of(n, label)}
    return SSCochain(n, data)


def refinement_map(space, coeffs, sigma_coarse, sigma_fine, refinement, c):
    """theta* : substitute indices slotwise and restrict to the finer pieces."""
    slots = sigma_fine.slots(c.degree)
    return _pull_back(sigma_fine, c, lambda label: tuple(
        refinement.theta(len(s) - 1, i) for s, i in zip(slots, label)))


def _alpha_slot(slot, k, n, fine_cover, lam, lam_slots_pos, theta0, theta1, vertex_sub):
    """alpha_k(lambda) at one increasing slot S of [n].

    theta0/theta1 are per-level index maps; vertex_sub=True replaces theta1 by
    the vertex-coherent substitution used in the constant-space comparison.
    lam is a sigma-label over the level-(n-1) slots of the fine cover.
    """
    S = slot
    r = len(S) - 1
    if not (k in S and k + 1 in S):
        T = tuple(v if v <= k else v - 1 for v in S)
        if S[0] <= k:
            return theta0(r, lam[lam_slots_pos[T]])
        if vertex_sub:
            # vertex-coherent substitution: induced level-0 labels are 1-tuples
            return tuple(lam[lam_slots_pos[(m,)]][0] for m in T)
        return theta1(r, lam[lam_slots_pos[T]])
    kp = S.index(k)
    Spp = tuple(S[i] for i in range(kp + 1)) + tuple(S[i] - 1 for i in range(kp + 2, r + 1))
    sub = lam[lam_slots_pos[Spp]]
    lifted = fine_cover.jmap(MonotoneMap.degeneracy(r - 1, kp), sub)
    return theta0(r, lifted)


def homotopy_operator(space, coeffs, sigma_coarse, sigma_fine, fine_cover,
                      theta0, theta1, phi=None, degree=None, phi_at=None, vertex_sub=False):
    """(H phi)_lambda = sum_k (-1)^k eta_k~* phi_{alpha_k(lambda)}.

    phi lives on sigma(coarse) at the given degree n; the result lives on
    sigma(fine) at degree n-1. The fine cover must carry the simplicial index
    structure (jmap) at the levels involved; theta0 and theta1 are refinement
    index maps from the fine to the coarse cover. phi may be given either
    materialized or as a cell lookup (so d(phi) never has to be enumerated).
    vertex_sub=True takes the vertex-coherent substitution of the
    constant-space comparison in place of theta1 (see _alpha_slot).
    """
    if not hasattr(fine_cover, "jmap"):
        raise ShapeError("the fine cover carries no simplicial index structure "
                         "(no degeneracy maps on its indices)")
    if phi is not None:
        degree, phi_at = phi.degree, ss_lookup(phi)
    n = degree
    if n == 0:
        return SSCochain(-1, {})
    lam_pos = {s: i for i, s in enumerate(sigma_fine.slots(n - 1))}
    big_slots = sigma_coarse.slots(n)
    t0 = theta0.theta if isinstance(theta0, Refinement) else theta0
    t1 = theta1.theta if isinstance(theta1, Refinement) else theta1
    etas = [MonotoneMap.degeneracy(n - 1, k) for k in range(n)]
    data = {}
    for lam in sigma_fine.indices(n - 1):
        alphas = [tuple(_alpha_slot(S, k, n, fine_cover, lam, lam_pos, t0, t1, vertex_sub)
                        for S in big_slots)
                  for k in range(n)]
        data[lam] = {v: alternating_sum(coeffs.fiber(n - 1, v),
                                        ((phi_at(alpha, space.smap(eta, v)),
                                          coeffs.restrict(eta, v))
                                         for alpha, eta in zip(alphas, etas)))
                     for v in sigma_fine.points_of(n - 1, lam)}
    return SSCochain(n - 1, data)


def _homotopy_side(space, coeffs, sigma_coarse, sigma_fine, fine_cover, theta0, theta1,
                   phi, vertex_sub=False):
    """dH(phi) + Hd(phi) over sigma_fine, with d(phi) evaluated on demand, so
    only sigma levels n-1..n of the fine cover and level n of the coarse one
    are ever enumerated. H asks for some cells of d(phi) more than once, so
    each is computed once per call."""
    n = phi.degree

    def h(**kwargs):
        return homotopy_operator(space, coeffs, sigma_coarse, sigma_fine, fine_cover,
                                 theta0, theta1, vertex_sub=vertex_sub, **kwargs)

    d_h = (ss_differential(space, coeffs, sigma_fine, h(phi=phi)) if n >= 1
           else ss_zero(space, coeffs, sigma_fine, n))
    phi_at = ss_lookup(phi)
    h_d = h(degree=n + 1, phi_at=functools.cache(lambda label, point: ss_differential_value(
        space, coeffs, sigma_coarse, phi_at, n, label, point)))
    return ss_add(space, coeffs, sigma_fine, d_h, h_d)


def check_homotopy_identity(space, coeffs, coarse, fine_cover, theta0, theta1, phi):
    """theta1* - theta0* = dH + Hd, evaluated exactly on one cochain.

    Returns the pair of sides as cochains over sigma(fine) for inspection.
    """
    n = phi.degree
    sU = SigmaCover(space, coarse, n + 1)
    sV = SigmaCover(space, fine_cover, n + 1)
    lhs = _homotopy_side(space, coeffs, sU, sV, fine_cover, theta0, theta1, phi)
    r1 = refinement_map(space, coeffs, sU, sV, theta1, phi)
    r0 = refinement_map(space, coeffs, sU, sV, theta0, phi)
    rhs = ss_sub(space, coeffs, sV, r1, r0)
    return lhs, rhs


# ---------------------------------------------------------------------------
# the constant-space comparison (usual Cech complex of a cover)


@dataclass
class ConstantComparison:
    """q and iota, pull-backs between the sigma-complex of the induced cover of
    a constant space and the usual complex of the level-0 cover;
    homotopy_operator with vertex_sub=True is the homotopy H with dH + Hd = iota q - id."""

    space: ConstantSpace
    coeffs: object
    cover: InducedSimplicialCover
    sigma: SigmaCover
    plain: SimplicialCoverComplex

    def q(self, c):
        """(q phi)_{i_0...i_n} = phi_{lambda^{(i)}}, lambda^{(i)}(S) = i|_S."""
        slots = self.sigma.slots(c.degree)
        return _pull_back(self.plain, c,
                          lambda label: tuple(tuple(label[v] for v in S) for S in slots))

    def iota(self, c):
        """(iota c)_lambda = c at the tuple of vertex indices of lambda."""
        n = c.degree
        vertices = [self.sigma.slots(n).index((m,)) for m in range(n + 1)]
        return _pull_back(self.sigma, c, lambda lam: tuple(lam[i][0] for i in vertices))

    def check_identities(self, phi):
        """Both sides of dH + Hd = iota q - id for one sigma-cochain, H being
        homotopy_operator with the vertex-coherent substitution, with d(phi)
        evaluated on demand."""
        lhs = _homotopy_side(self.space, self.coeffs, self.sigma, self.sigma, self.cover,
                             lambda r, label: label, None, phi, vertex_sub=True)
        rhs = ss_sub(self.space, self.coeffs, self.sigma, self.iota(self.q(phi)), phi)
        return lhs, rhs


def constant_space_comparison(n_points, level0_sets, group, top):
    """Set up the comparison maps for a constant space with a product cover."""
    space = ConstantSpace(n_points)
    coeffs = ConstantCoefficients(group)
    cover = InducedSimplicialCover(space, level0_sets)
    if set().union(*cover.level0) != set(range(n_points)):
        raise ValueError("level-0 family does not cover the space")
    sigma = SigmaCover(space, cover, top + 1)
    plain = SimplicialCoverComplex(space, cover, top + 1)
    return ConstantComparison(space, coeffs, cover, sigma, plain)
