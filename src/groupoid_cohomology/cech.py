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
c at the face of the index. A cochain is a `cohomology.Cochain`, one value
per cell in `complex_coordinates` order, as on the groupoid side. Every map
of cochains is a `CellMap`: one row per target cell listing (source position,
restriction) with alternating signs, the table `assemble_coboundary` turns
into sparse columns, and `CellMap.apply` is the one walker (`alternating_sum`
per row). `face_table` gives d, for the matrices of `assemble_complex` and
for cochains alike. Entries stay unreduced modulo the target orders; the
factors-only `homology_at` reduces them on entry.

Refinement maps theta* and the comparison maps q and iota of a constant
space are one pull-back table along an index map, one identity entry a row.
Two refinements into a cover carrying a full (N-)simplicial index structure
are homotopic through the explicit operator H, a table of n entries a row,
whose index combinatorics (alpha_k, with the three-way case split) is
implemented verbatim.

Structure maps are tables on point positions (`NerveSpace.table`). Every
complex family prunes its cover to the nonempty pieces, sigma U being the
family of its own slot cover; pruning is face-closed, so the pruned and
unpruned complexes agree. Each level is checked against the active `Budget`
when it is first built: candidates, indices per point, cells.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod

from .abelian import AbComplex, FinAbGroup, ShapeError, homology_at
from .cohomology import Cochain, alternating_sum, assemble_coboundary, tuple_fiber
from .groupoid import (DEFAULT_BUDGET, Budget, BudgetExceeded, MonotoneMap,  # noqa: F401
                       _guard, all_monotone_maps, all_strict_maps, simplicial_map, use_budget)


# ---------------------------------------------------------------------------
# spaces and coefficient systems


class NerveSpace:
    """The nerve of a finite groupoid as a simplicial space; its maps are tables."""

    def __init__(self, groupoid):
        self.groupoid = groupoid
        self._tables = {}

    def points(self, n):
        return self.groupoid.nerve(n)

    def position(self, n, point):
        """The position of a point in points(n), from `nerve_index` (level 0: the object)."""
        return point.obj if n == 0 else self.groupoid.nerve_index(n)[point.arrows]

    def table(self, f):
        """f~ for f: [k] -> [n]: per point of level n, by position, the position
        of its image. A strictly increasing f is eps_j o f' (j the largest value
        it omits), so its table reads the groupoid's face table, then that of
        f'; any other f is tabulated by `simplicial_map`."""
        out = self._tables.get(f)
        if out is None:
            G, n, v = self.groupoid, f.codomain, f.values
            if v == tuple(range(n + 1)):
                out = range(len(self.points(n)))
            elif all(a < b for a, b in zip(v, v[1:])):
                j = max(set(range(n + 1)).difference(v))
                inner = self.table(MonotoneMap(n - 1, tuple(x - (x > j) for x in v)))
                out = [inner[faces[j]] for faces in G.face_table(n - 1)]
            else:
                out = [self.position(f.domain, simplicial_map(G, f, p)) for p in self.points(n)]
            self._tables[f] = out
        return out

    def smap(self, f, point):  # f~(point), read off `table`
        return self.points(f.domain)[self.table(f)[self.position(f.codomain, point)]]


class ConstantSpace:
    """The constant simplicial space of a finite set; structure maps are trivial."""

    def __init__(self, n_points):
        self.n_points = n_points
        self._pts = tuple(range(n_points))

    def points(self, n):
        return self._pts

    def position(self, n, point):
        return point

    def table(self, f):
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
    labels sorted, read off `cover.containing` at the points by position.

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
    containment is built a level at a time, under the active budget.
    """

    stage = None

    def __init__(self, space, base, maps, max_domain):
        self.space, self.base = space, base
        self._slot_kind = (maps, max_domain)
        self._level_slots = {}
        self._reindex_tables = {}
        self._held = {}  # level n, or ("base", k): the base's containment at level k

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
        """The piece of a label by `simplicial_map`: the reference for the tables."""
        space = self.space
        image = ((lambda f, p: p) if isinstance(space, ConstantSpace)
                 else functools.partial(simplicial_map, space.groupoid))
        return frozenset(p for p in space.points(n)
                         if all(image(f, p) in self.base.set_of(f.domain, i)
                                for f, i in zip(self._slots_at(n)[0], label)))

    def containing(self, n, point):
        """The indices whose piece holds the point, read off `containing_level`."""
        return self.containing_level(n)[self.space.position(n, point)]

    def containing_level(self, n):
        """For each point of level n, by position, the product over the slots f
        of the base indices containing f~(point), each product's size checked
        before it is enumerated; built once per level."""
        out = self._held.get(n)
        if out is None:
            space, held, pools, out = self.space, self._held, [], []
            for f in self._slots_at(n)[0]:
                k = ("base", f.domain)
                if k not in held:
                    held[k] = [self.base.containing(f.domain, p) for p in space.points(f.domain)]
                pools.append([held[k][i] for i in space.table(f)])
            for point_pools in zip(*pools):
                total = prod(map(len, point_pools))
                _guard("max_per_point", total,
                       f"too many nonempty {self.stage} indices per point: {total} at level {n}")
                out.append(tuple(itertools.product(*point_pools)))
            held[n] = out
        return out

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
        return tuple(map(label.__getitem__, table))


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
        self.space, self.cover, self.top, self._levels, self._cells = space, cover, top, {}, {}

    def _level(self, n):
        if n not in self._levels:
            self._levels[n] = nonempty_pieces(self.space, self.cover, n, self.stage)
        return self._levels[n]

    def cells(self, n):
        """The cells (label, point) of level n in canonical order, each mapped
        to its position: the layout of a degree-n cochain."""
        if n not in self._cells:
            self._cells[n] = {cell: i for i, cell in enumerate(
                (label, p) for label in self.indices(n) for p in self.points_of(n, label))}
        return self._cells[n]

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
        self.top, self._levels, self._cells = top, {}, {}

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
# cochains over a complex family, and maps of them as tables


def complex_coordinates(space, coeffs, fam, n):
    """Cell layout (label, point, fiber) of degree n, in canonical order.

    A degree-n cochain over the family is a `Cochain` with one value per
    cell in this order.
    """
    return [(label, p, coeffs.fiber(n, p)) for label, p in fam.cells(n)]


@dataclass(eq=False)
class CellMap:
    """A map of cochains over complex families, as a table: one row per
    target cell, listing its entries (source position, restriction) with
    signs alternating by place, the restriction an AbHom from the source
    fiber into the target fiber or None for the identity.

    d, theta*, q, iota and H are all CellMaps. The rows are the table
    `assemble_coboundary` reads, so `hom` is the map's sparse matrix, and
    `apply` walks them on a cochain. source and target hold the fibers of
    the source and target cells; degree is the target degree.
    """

    degree: int
    source: list
    target: list
    rows: list

    def apply(self, c):
        values = c.values
        if len(values) != len(self.source):
            raise ShapeError(f"cochain has {len(values)} cells, expected {len(self.source)}")
        return Cochain(self.degree, tuple(
            alternating_sum(fib, ((values[s], r) for s, r in row))
            for fib, row in zip(self.target, self.rows)))

    def hom(self):
        return assemble_coboundary(self.source, self.target, self.rows)


def face_table(space, coeffs, fam, n, cells=None):
    """d: C^n -> C^{n+1} over a family, (dc)_i = sum (-1)^k eps_k~* c_{eps_k~(i)}:
    for each level-(n+1) cell its n+2 faces (position at level n, restriction).

    cells lists the (label, point) cells of level n+1 to take, by default
    all of them; the homotopy passes only the cells that H reads, so a level
    too large to enumerate never is.
    """
    index, points = fam.cells(n), space.points(n)
    if cells is None:
        cells = fam.cells(n + 1)
    faces = [MonotoneMap.face(n + 1, k) for k in range(n + 2)]
    tables = [space.table(eps) for eps in faces]
    face_labels = {label: [fam.face_index(k, n + 1, label) for k in range(n + 2)]
                   for label in dict.fromkeys(label for label, _ in cells)}
    rows = []
    for label, p in cells:
        i = space.position(n + 1, p)
        rows.append(tuple((index[lab, points[table[i]]], coeffs.restrict(eps, p))
                          for lab, eps, table in zip(face_labels[label], faces, tables)))
    return CellMap(n + 1, [coeffs.fiber(n, p) for _, p in index],
                   [coeffs.fiber(n + 1, p) for _, p in cells], rows)


def assemble_complex(space, coeffs, fam, top):
    """The cochain complex of a family as presented abelian groups, each map
    the matrix of its face table; entries stay unreduced modulo the target
    orders."""
    groups = []
    for n in range(top + 1):
        orders = tuple(o for *_, fib in complex_coordinates(space, coeffs, fam, n)
                       for o in fib.orders)
        _guard("max_cells", len(orders), f"complex level {n} has {len(orders)} coordinates")
        groups.append(FinAbGroup(orders))
    maps = tuple(face_table(space, coeffs, fam, n).hom() for n in range(top))
    return AbComplex(tuple(groups), maps)


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


def _pull_back(space, coeffs, target, source, n, source_index):
    """theta*, q and iota: the CellMap onto the level-n cells of target whose
    row at (label, p) is one identity entry, the source cell
    (source_index(label), p)."""
    index = source.cells(n)
    fibers, rows = [], []
    for label in target.indices(n):
        src = source_index(label)
        for p in target.points_of(n, label):
            fibers.append(coeffs.fiber(n, p))
            rows.append(((index[src, p], None),))
    return CellMap(n, [coeffs.fiber(n, p) for _, p in index], fibers, rows)


def refinement_map(space, coeffs, sigma_coarse, sigma_fine, refinement, n):
    """theta* at degree n: substitute indices slotwise and restrict to the finer pieces."""
    slots = sigma_fine.slots(n)
    return _pull_back(space, coeffs, sigma_fine, sigma_coarse, n, lambda label: tuple(
        refinement.theta(len(s) - 1, i) for s, i in zip(slots, label)))


def _alpha_recipes(n, slots, lam_pos, theta0, theta1, vertex_sub):
    """alpha_k(lambda) at each increasing slot S of [n], for k < n, as a
    recipe that depends on (k, S) alone: (theta, r, at, g), r = |S| - 1.

    For a label lambda (a sigma-label over the level-(n-1) slots of the fine
    cover, lam_pos giving each slot's position) the recipe reads
    theta(r, lambda[at]), after the fine cover's jmap along the degeneracy
    g when g is given (k and k+1 both in S). theta0/theta1 are per-level
    index maps; vertex_sub=True replaces theta1 by the vertex-coherent
    substitution of the constant-space comparison, recorded as theta None:
    at then lists the vertex slots, and the value is the tuple of their
    level-0 labels (the induced cover's level-0 labels are 1-tuples).
    """
    recipes = []
    for k in range(n):
        row = []
        for S in slots:
            r = len(S) - 1
            if k in S and k + 1 in S:
                kp = S.index(k)
                Spp = S[:kp + 1] + tuple(v - 1 for v in S[kp + 2:])
                row.append((theta0, r, lam_pos[Spp], MonotoneMap.degeneracy(r - 1, kp)))
                continue
            T = tuple(v if v <= k else v - 1 for v in S)
            if S[0] <= k:
                row.append((theta0, r, lam_pos[T], None))
            elif vertex_sub:
                row.append((None, r, tuple(lam_pos[(m,)] for m in T), None))
            else:
                row.append((theta1, r, lam_pos[T], None))
        recipes.append(row)
    return recipes


def homotopy_operator(space, coeffs, sigma_coarse, sigma_fine, fine_cover,
                      theta0, theta1, n, cells, vertex_sub=False):
    """H: C^n(sigma coarse) -> C^{n-1}(sigma fine) as a CellMap,
    (H phi)_lambda = sum_k (-1)^k eta_k~* phi_{alpha_k(lambda)}: each fine
    cell (lambda, v) has n entries, the coarse cell alpha_k(lambda) at
    eta_k(v) restricted along eta_k.

    cells maps coarse level-n cells (label, point) to source positions; a
    cell that H reads and cells lacks is added at the next position, so an
    empty dict collects exactly the cells H reads. The fine cover must carry
    the simplicial index structure (jmap) at the levels involved; theta0 and
    theta1 are refinement index maps from the fine to the coarse cover.
    vertex_sub=True takes the vertex-coherent substitution of the
    constant-space comparison in place of theta1 (see _alpha_recipes).
    """
    if not hasattr(fine_cover, "jmap"):
        raise ShapeError("the fine cover carries no simplicial index structure "
                         "(no degeneracy maps on its indices)")
    fibers, rows = [], []
    if n:
        lam_pos = {s: i for i, s in enumerate(sigma_fine.slots(n - 1))}
        big_slots = sigma_coarse.slots(n)
        t0 = theta0.theta if isinstance(theta0, Refinement) else theta0
        t1 = theta1.theta if isinstance(theta1, Refinement) else theta1
        etas = [MonotoneMap.degeneracy(n - 1, k) for k in range(n)]
        recipes = _alpha_recipes(n, big_slots, lam_pos, t0, t1, vertex_sub)
        jmap = fine_cover.jmap
        for lam in sigma_fine.indices(n - 1):
            alphas = [tuple(tuple([lam[a][0] for a in at]) if theta is None
                            else theta(r, lam[at] if g is None else jmap(g, lam[at]))
                            for theta, r, at, g in row)
                      for row in recipes]
            for v in sigma_fine.points_of(n - 1, lam):
                fibers.append(coeffs.fiber(n - 1, v))
                rows.append(tuple((cells.setdefault((alpha, space.smap(eta, v)), len(cells)),
                                   coeffs.restrict(eta, v)) for alpha, eta in zip(alphas, etas)))
    return CellMap(n - 1, [coeffs.fiber(n, p) for _, p in cells], fibers, rows)


def _homotopy_side(space, coeffs, sigma_coarse, sigma_fine, fine_cover, theta0, theta1,
                   phi, vertex_sub=False):
    """dH(phi) + Hd(phi) over sigma_fine. Hd reads d(phi) only at the coarse
    level-(n+1) cells that H names: they are collected once, and only their
    face rows are applied, so only sigma levels n-1..n of the fine cover and
    level n of the coarse one are ever enumerated."""
    n = phi.degree

    def h(k, cells):
        return homotopy_operator(space, coeffs, sigma_coarse, sigma_fine, fine_cover,
                                 theta0, theta1, k, cells, vertex_sub)

    needed = {}
    h_up = h(n + 1, needed)
    side = h_up.apply(face_table(space, coeffs, sigma_coarse, n, list(needed)).apply(phi))
    if n:
        d_h = face_table(space, coeffs, sigma_fine, n - 1).apply(
            h(n, dict(sigma_coarse.cells(n))).apply(phi))
        side = Cochain(n, tuple(fib.add(a, b) for fib, a, b
                                in zip(h_up.target, d_h.values, side.values)))
    return side


def check_homotopy_identity(space, coeffs, sigma_coarse, fine_cover, theta0, theta1, phi):
    """theta1* - theta0* = dH + Hd, evaluated exactly on one cochain over
    sigma_coarse, the sigma family of the coarse cover; theta1* - theta0* is
    one table with two entries a row.

    Returns the pair of sides as cochains over sigma(fine) for inspection.
    """
    n = phi.degree
    sV = SigmaCover(space, fine_cover, n + 1)
    lhs = _homotopy_side(space, coeffs, sigma_coarse, sV, fine_cover, theta0, theta1, phi)
    r1, r0 = (refinement_map(space, coeffs, sigma_coarse, sV, theta, n)
              for theta in (theta1, theta0))
    rows = [a + b for a, b in zip(r1.rows, r0.rows)]
    return lhs, CellMap(n, r1.source, r1.target, rows).apply(phi)


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

    def q(self, n):
        """(q phi)_{i_0...i_n} = phi_{lambda^{(i)}}, lambda^{(i)}(S) = i|_S."""
        slots = self.sigma.slots(n)
        return _pull_back(self.space, self.coeffs, self.plain, self.sigma, n,
                          lambda label: tuple(tuple(label[v] for v in S) for S in slots))

    def iota(self, n):
        """(iota c)_lambda = c at the tuple of vertex indices of lambda."""
        vertices = [self.sigma.slots(n).index((m,)) for m in range(n + 1)]
        return _pull_back(self.space, self.coeffs, self.sigma, self.plain, n,
                          lambda lam: tuple(lam[i][0] for i in vertices))

    def check_identities(self, phi):
        """Both sides of dH + Hd = iota q - id for one sigma-cochain, H being
        homotopy_operator with the vertex-coherent substitution; iota q - id
        is one table, the composite pull-back and the cell itself a row."""
        n = phi.degree
        lhs = _homotopy_side(self.space, self.coeffs, self.sigma, self.sigma, self.cover,
                             lambda r, label: label, None, phi, vertex_sub=True)
        q, iota = self.q(n), self.iota(n)
        rows = [(q.rows[j][0], (i, None)) for i, ((j, _),) in enumerate(iota.rows)]
        return lhs, CellMap(n, q.source, iota.target, rows).apply(phi)


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
