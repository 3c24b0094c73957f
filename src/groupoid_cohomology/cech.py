"""Covers of finite semi-simplicial spaces and their cochain complexes.

The objects here mirror the cover calculus: a cover assigns indexed subsets
to every level; the sigma construction refines it into a semi-simplicial
cover whose level-n indices are typed maps lambda on the strictly increasing
maps into [n] (identified with nonempty subsets of [n], ordered by
cardinality then lexicographically), with pieces

    U^n_lambda = intersection over f of f~^{-1}(U^k_{lambda(f)}).

Cochain complexes live on such families via (dc)_i = sum (-1)^k eps_k~* of
c at the face of the index. One face table drives every coboundary, as in
the groupoid complex: `cell_faces` lists the faces of a cell (face index,
face point, restriction), `ss_differential_value` sums them on one cell, and
`assemble_complex` indexes them by cell position and hands the table to
`cohomology.assemble_coboundary`, the assembler of `differential_matrix`, in
one pass over the cells. Matrix entries are left unreduced modulo the target
orders; they differ from reduced ones by multiples of the orders, which the
factors-only `homology_at` reduces on entry, so the factors are the same.

Refinements act by index substitution, and two refinements into a cover
carrying a full (N-)simplicial index structure are homotopic through the
explicit operator H whose index combinatorics (alpha_k, with the three-way
case split) is implemented verbatim.

Pieces with empty carriers are pruned from complex assembly; pruning is
face-closed, so the pruned and unpruned complexes agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .abelian import AbComplex, FinAbGroup, ShapeError, homology_at
from .cohomology import alternating_sum, assemble_coboundary, tuple_fiber
from .groupoid import MonotoneMap, simplicial_map


class BudgetExceeded(RuntimeError):
    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class Budget:
    """Caps on the exponential enumerations; exceeding one raises."""

    max_candidates: int = 500_000
    max_per_point: int = 20_000
    max_cells: int = 200_000


DEFAULT_BUDGET = Budget()


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

    def containing(self, n, point):
        return tuple(i for i, s in enumerate(self.sets_by_level[n]) if point in s)

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


class InducedSimplicialCover:
    """The simplicial cover generated by a level-0 cover: indices at level n
    are (n+1)-tuples of level-0 indices, the piece being the intersection of
    the vertex preimages; f~ reindexes tuples by composition with f."""

    def __init__(self, space, level0_sets, budget=DEFAULT_BUDGET):
        self.space = space
        self.level0 = tuple(frozenset(s) for s in level0_sets)
        self.budget = budget

    def indices(self, n):
        count = self.index_count(n)
        if count > self.budget.max_candidates:
            raise BudgetExceeded(f"induced cover has {count} indices at level {n}", count)
        return tuple(itertools.product(range(len(self.level0)), repeat=n + 1))

    def index_count(self, n):
        return len(self.level0) ** (n + 1)

    def _vertex(self, n, j, point):
        return self.space.smap(MonotoneMap(n, (j,)), point)

    def set_of(self, n, label):
        pts = []
        for p in self.space.points(n):
            if all(self._vertex(n, j, p) in self.level0[i] for j, i in enumerate(label)):
                pts.append(p)
        return frozenset(pts)

    def containing(self, n, point):
        per_vertex = []
        for j in range(n + 1):
            v = self._vertex(n, j, point)
            per_vertex.append([i for i, s in enumerate(self.level0) if v in s])
        if prod(len(c) for c in per_vertex) > self.budget.max_per_point:
            raise BudgetExceeded("too many induced indices per point")
        return tuple(itertools.product(*per_vertex))

    def jmap(self, f, label):
        return tuple(label[v] for v in f.values)


def monotone_slots(n, N):
    """All monotone maps [k] -> [n] for k <= N, the index domain of sigma_N."""
    out = []
    for k in range(N + 1):
        out.extend(MonotoneMap(n, vals)
                   for vals in itertools.combinations_with_replacement(range(n + 1), k + 1))
    return out


class SigmaNSimplicialCover:
    """The paper's N-simplicial refinement sigma_N of a plain cover: an index
    at level n assigns a base index to every monotone map into [n] with
    domain <= N, and the piece intersects all the pulled-back base pieces.

    The candidate index set is astronomically large; everything here is
    evaluated per point or per label, guarded by the budget.
    """

    def __init__(self, space, base, N, budget=DEFAULT_BUDGET):
        self.space = space
        self.base = base
        self.N = N
        self.budget = budget
        self._slots = {n: tuple(monotone_slots(n, N)) for n in range(N + 1)}

    def slots(self, n):
        return self._slots[n]

    def index_count(self, n):
        return prod(self.base.index_count(f.domain) for f in self.slots(n))

    def indices(self, n):
        count = self.index_count(n)
        if count > self.budget.max_candidates:
            raise BudgetExceeded(f"sigma_N has {count} candidate indices at level {n}", count)
        pools = [self.base.indices(f.domain) for f in self.slots(n)]
        return tuple(itertools.product(*pools))

    def set_of(self, n, label):
        pts = []
        for p in self.space.points(n):
            if all(self.space.smap(f, p) in self.base.set_of(f.domain, i)
                   for f, i in zip(self.slots(n), label)):
                pts.append(p)
        return frozenset(pts)

    def containing(self, n, point):
        pools = []
        total = 1
        for f in self.slots(n):
            opts = self.base.containing(f.domain, self.space.smap(f, point))
            total *= len(opts)
            if total > self.budget.max_per_point:
                raise BudgetExceeded("too many sigma_N indices per point")
            pools.append(opts)
        return tuple(itertools.product(*pools))

    def jmap(self, g, label):
        # (g~ lambda)(f) = lambda(g o f), for g: [a] -> [b], label at level b
        pos = {f: i for i, f in enumerate(self.slots(g.codomain))}
        return tuple(label[pos[g.compose(f)]] for f in self.slots(g.domain))


def refinement_into_sigma_n(space, sigma_n_cover, top):
    """The canonical refinement witness sigma_N U -> U: each label is sent to
    its value at the identity slot, whose piece contains it by construction."""
    tables = []
    for n in range(top + 1):
        slots = sigma_n_cover.slots(n)
        ident = slots.index(MonotoneMap.identity(n))
        labels = set()
        for p in space.points(n):
            labels.update(sigma_n_cover.containing(n, p))
        tables.append({label: label[ident] for label in sorted(labels)})
    return Refinement(sigma_n_cover.base, sigma_n_cover, tuple(tables))


# ---------------------------------------------------------------------------
# the sigma (semi-simplicial) construction and cover complexes


def increasing_slots(n):
    """Nonempty subsets of [n] ordered by cardinality then lexicographically,
    each standing for the strictly increasing map it is the image of."""
    out = []
    for k in range(n + 1):
        out.extend(itertools.combinations(range(n + 1), k + 1))
    return tuple(out)


class SigmaCover:
    """sigma U: the semi-simplicial cover of any plain-ish cover.

    Level-n indices are tuples over the increasing slots; only the pieces
    meeting at least one point are materialized for complexes, which is safe
    because nonemptiness is face-closed.
    """

    def __init__(self, space, base, top, budget=DEFAULT_BUDGET):
        self.space = space
        self.base = base
        self.top = top
        self.budget = budget
        self._slots = {n: increasing_slots(n) for n in range(top + 1)}
        self._slot_pos = {n: {s: i for i, s in enumerate(self._slots[n])}
                          for n in range(top + 1)}
        self._levels = {}
        self._face_tables = {}

    def slots(self, n):
        return self._slots[n]

    def candidate_count(self, n):
        return prod(self.base.index_count(len(s) - 1) for s in self.slots(n))

    def all_lambda(self, n):
        """Every candidate index with its piece (possibly empty). Budgeted."""
        count = self.candidate_count(n)
        if count > self.budget.max_candidates:
            raise BudgetExceeded(f"sigma cover has {count} candidates at level {n}", count)
        pools = [self.base.indices(len(s) - 1) for s in self.slots(n)]
        out = []
        for label in itertools.product(*pools):
            pts = frozenset(p for p in self.space.points(n)
                            if all(self.space.smap(_slot_map(n, s), p)
                                   in self.base.set_of(len(s) - 1, i)
                                   for s, i in zip(self.slots(n), label)))
            out.append((label, pts))
        return out

    def _build_level(self, n):
        table = {}
        for p in self.space.points(n):
            pools = []
            total = 1
            for s in self.slots(n):
                opts = self.base.containing(len(s) - 1, self.space.smap(_slot_map(n, s), p))
                total *= len(opts)
                if total > self.budget.max_per_point:
                    raise BudgetExceeded("too many nonempty sigma indices per point")
                pools.append(opts)
            for label in itertools.product(*pools):
                table.setdefault(label, []).append(p)
        cells = sum(len(v) for v in table.values())
        if cells > self.budget.max_cells:
            raise BudgetExceeded(f"sigma level {n} has {cells} cells", cells)
        return {label: tuple(sorted(pts)) for label, pts in table.items()}

    def _level(self, n):
        if n not in self._levels:
            self._levels[n] = self._build_level(n)
        return self._levels[n]

    def indices(self, n):
        """Nonempty indices, sorted."""
        return tuple(sorted(self._level(n)))

    def points_of(self, n, label):
        return self._level(n)[label]

    def gmap(self, g, label):
        """(g~ lambda)(f) = lambda(g o f) for strictly increasing g: [m] -> [n']."""
        npos = self._slot_pos[g.codomain]
        out = []
        for s in self.slots(g.domain):
            image = tuple(g.values[v] for v in s)
            out.append(label[npos[image]])
        return tuple(out)

    def _face_table(self, n, k):
        key = (n, k)
        table = self._face_tables.get(key)
        if table is None:
            eps = MonotoneMap.face(n, k)
            npos = self._slot_pos[n]
            table = tuple(npos[tuple(eps.values[v] for v in s)]
                          for s in self.slots(n - 1))
            self._face_tables[key] = table
        return table

    def face_index(self, k, n, label):
        """eps_k~ on indices: level n label -> level n-1 label."""
        return tuple(label[i] for i in self._face_table(n, k))


def _slot_map(n, subset):
    return MonotoneMap(n, subset)


class SimplicialCoverComplex:
    """A simplicial cover used directly as a semi-simplicial complex family
    (its own indices, faces through jmap); pieces are pruned to nonempty."""

    def __init__(self, space, cover, top, budget=DEFAULT_BUDGET):
        self.space = space
        self.cover = cover
        self.top = top
        self.budget = budget
        self._levels = {}

    def _level(self, n):
        if n not in self._levels:
            table = {}
            for p in self.space.points(n):
                for label in self.cover.containing(n, p):
                    table.setdefault(label, []).append(p)
            self._levels[n] = {label: tuple(sorted(pts)) for label, pts in table.items()}
        return self._levels[n]

    def indices(self, n):
        return tuple(sorted(self._level(n)))

    def points_of(self, n, label):
        return self._level(n)[label]

    def face_index(self, k, n, label):
        return self.cover.jmap(MonotoneMap.face(n, k), label)


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
    for label in fam.indices(n):
        for p in fam.points_of(n, label):
            for j in range(coeffs.fiber(n, p).ngens):
                c = ss_zero(space, coeffs, fam, n)
                vec = list(c.data[label][p])
                vec[j] = 1
                c.data[label][p] = coeffs.fiber(n, p).reduce(tuple(vec))
                out.append(c)
    return out


def ss_random(space, coeffs, fam, n, rng):
    data = {}
    for label in fam.indices(n):
        vals = {}
        for p in fam.points_of(n, label):
            fib = coeffs.fiber(n, p)
            vals[p] = fib.reduce(tuple(rng.randrange(d) if d else rng.randrange(-3, 4)
                                       for d in fib.orders))
        data[label] = vals
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


def assemble_complex(space, coeffs, fam, top, budget=DEFAULT_BUDGET):
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
        if ngens > budget.max_cells:
            raise BudgetExceeded(f"complex level {n} has {ngens} coordinates")
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


def sigma_cover(space, cover, top, budget=DEFAULT_BUDGET):
    """The semi-simplicial cover sigma U, with its Lambda index calculus."""
    if isinstance(cover, Cover):
        validate_cover(space, cover, top)
    return SigmaCover(space, cover, top, budget)


def cech_cohomology_on_cover(space, coeffs, cover, n, budget=DEFAULT_BUDGET):
    """H^n of the sigma-complex of a cover."""
    fam = sigma_cover(space, cover, n + 1, budget)
    cx = assemble_complex(space, coeffs, fam, n + 1, budget)
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


def refinement_map(space, coeffs, sigma_coarse, sigma_fine, refinement, c):
    """theta* : substitute indices slotwise and restrict to the finer pieces."""
    n = c.degree
    data = {}
    for label in sigma_fine.indices(n):
        big = tuple(refinement.theta(len(s) - 1, i)
                    for s, i in zip(sigma_fine.slots(n), label))
        vals = {}
        for p in sigma_fine.points_of(n, label):
            vals[p] = c.data[big][p]
        data[label] = vals
    return SSCochain(n, data)


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
    lam_slots = sigma_fine.slots(n - 1)
    lam_pos = {s: i for i, s in enumerate(lam_slots)}
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
    are ever enumerated."""
    n = phi.degree

    def h(**kwargs):
        return homotopy_operator(space, coeffs, sigma_coarse, sigma_fine, fine_cover,
                                 theta0, theta1, vertex_sub=vertex_sub, **kwargs)

    d_h = (ss_differential(space, coeffs, sigma_fine, h(phi=phi)) if n >= 1
           else ss_zero(space, coeffs, sigma_fine, n))
    phi_at = ss_lookup(phi)
    h_d = h(degree=n + 1, phi_at=lambda label, point: ss_differential_value(
        space, coeffs, sigma_coarse, phi_at, n, label, point))
    return ss_add(space, coeffs, sigma_fine, d_h, h_d)


def check_homotopy_identity(space, coeffs, coarse, fine_cover, theta0, theta1,
                            phi, budget=DEFAULT_BUDGET):
    """theta1* - theta0* = dH + Hd, evaluated exactly on one cochain.

    Returns the pair of sides as cochains over sigma(fine) for inspection.
    """
    n = phi.degree
    sU = SigmaCover(space, coarse, n + 1, budget)
    sV = SigmaCover(space, fine_cover, n + 1, budget)
    lhs = _homotopy_side(space, coeffs, sU, sV, fine_cover, theta0, theta1, phi)
    r1 = refinement_map(space, coeffs, sU, sV, theta1, phi)
    r0 = refinement_map(space, coeffs, sU, sV, theta0, phi)
    rhs = ss_sub(space, coeffs, sV, r1, r0)
    return lhs, rhs


# ---------------------------------------------------------------------------
# the constant-space comparison (usual Cech complex of a cover)


@dataclass
class ConstantComparison:
    """q and iota between the sigma-complex of the induced cover of a constant
    space and the usual complex of the level-0 cover; homotopy_operator with
    vertex_sub=True is the homotopy H with dH + Hd = iota q - id."""

    space: ConstantSpace
    coeffs: object
    cover: InducedSimplicialCover
    sigma: SigmaCover
    plain: SimplicialCoverComplex

    def q(self, c):
        """(q phi)_{i_0...i_n} = phi_{lambda^{(i)}}."""
        n = c.degree
        slots = self.sigma.slots(n)
        data = {}
        for label in self.plain.indices(n):
            lam = tuple(tuple(label[v] for v in S) for S in slots)
            data[label] = {p: c.data[lam][p] for p in self.plain.points_of(n, label)}
        return SSCochain(n, data)

    def iota(self, c):
        """(iota c)_lambda = c at the tuple of vertex indices of lambda."""
        n = c.degree
        slots = self.sigma.slots(n)
        pos = {s: i for i, s in enumerate(slots)}
        data = {}
        for lam in self.sigma.indices(n):
            label = tuple(lam[pos[(m,)]][0] for m in range(n + 1))
            data[lam] = {p: c.data[label][p] for p in self.sigma.points_of(n, lam)}
        return SSCochain(n, data)

    def check_identities(self, phi):
        """Both sides of dH + Hd = iota q - id for one sigma-cochain, H being
        homotopy_operator with the vertex-coherent substitution, with d(phi)
        evaluated on demand."""
        lhs = _homotopy_side(self.space, self.coeffs, self.sigma, self.sigma, self.cover,
                             lambda r, label: label, None, phi, vertex_sub=True)
        rhs = ss_sub(self.space, self.coeffs, self.sigma, self.iota(self.q(phi)), phi)
        return lhs, rhs


def constant_space_comparison(n_points, level0_sets, group, top,
                              budget=DEFAULT_BUDGET):
    """Set up the comparison maps for a constant space with a product cover."""
    space = ConstantSpace(n_points)
    coeffs = ConstantCoefficients(group)
    cover = InducedSimplicialCover(space, level0_sets, budget)
    covered = set().union(*cover.level0) if cover.level0 else set()
    if covered != set(range(n_points)):
        raise ValueError("level-0 family does not cover the space")
    sigma = SigmaCover(space, cover, top + 1, budget)
    plain = SimplicialCoverComplex(space, cover, top + 1, budget)
    return ConstantComparison(space, coeffs, cover, sigma, plain)
