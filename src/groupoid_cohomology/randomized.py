"""Seeded random fixtures for the identity suites.

Instances stay at desk scale on purpose: groupoids are assembled from the
builders (cyclic, unit, pair, crossed products, cover groupoids, disjoint
unions), modules from constants, multiplicative twists on cyclic groups and
pullbacks, and covers are random coarsenings of a simplicial cover, which
guarantees refinement maps exist while leaving genuine choice between them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from .abelian import AbHom, FinAbGroup, IntegerMatrix
from .cech import (
    ConstantSpace,
    Cover,
    InducedSimplicialCover,
    MaximalSimplicialCover,
    ModuleCoefficients,
    ConstantCoefficients,
    Refinement,
    SigmaCover,
    SigmaNSimplicialCover,
    check_homotopy_identity,
    complex_coordinates,
    NerveSpace,
    nonempty_pieces,
)
from .cohomology import Cochain
from .gmodule import GModule, constant_module, disjoint_union_module, pullback_module
from .groupoid import (
    cover_groupoid,
    cyclic_action_groupoid,
    cyclic_group,
    disjoint_union,
    pair_groupoid,
    unit_groupoid,
)

_FIBER_CATALOG = ((1,), (2,), (3,), (4,), (2, 2), (6,), (2, 4))


def _random_finite_group(rng):
    return FinAbGroup(rng.choice(_FIBER_CATALOG))


def _twisted_cyclic_module(rng, n, allow_infinite):
    """A module over cyclic_group(n): fiber Z/m (or Z) with the generator
    acting by a unit u with u^n = 1."""
    G = cyclic_group(n)
    if allow_infinite and n % 2 == 0 and rng.random() < 0.3:
        B = FinAbGroup((0,))
        u = -1
    else:
        m = rng.choice((2, 3, 4, 5, 7))
        B = FinAbGroup((m,))
        units = [u for u in range(1, m) if gcd(u, m) == 1 and pow(u, n, m) == 1]
        u = rng.choice(units)
    mat = lambda k: IntegerMatrix.from_rows([[pow(u, k, B.orders[0]) if B.orders[0] else (u ** k)]])
    actions = tuple(AbHom(B, B, mat(k)) for k in range(n))
    return G, GModule(G, (B,) * G.n_objects, actions)


def _random_action_groupoid(rng):
    n = rng.choice((2, 3))
    m = rng.choice((2, 3))
    # a permutation of order dividing n: rotate a block whose length divides n
    block = [l for l in (1, n) if l <= m]
    length = rng.choice(block)
    perm = list(range(m))
    perm[:length] = perm[1:length] + perm[:1]
    return cyclic_action_groupoid(n, perm)


def random_instance(rng, max_arrows=12, allow_infinite=False, allow_union=True,
                    allow_cover=True):
    """A random (groupoid, module) pair with at most max_arrows arrows."""
    while True:
        kind = rng.randrange(6 if allow_cover and max_arrows >= 6 else 5)
        if kind == 0:
            n = rng.choice((1, 2, 3, 4))
            G = cyclic_group(n)
            A = constant_module(G, _random_finite_group(rng))
        elif kind == 1:
            G, A = _twisted_cyclic_module(rng, rng.choice((2, 3, 4)), allow_infinite)
        elif kind == 2:
            m = rng.choice((1, 2, 3))
            G = unit_groupoid(m)
            fibers = tuple(_random_finite_group(rng) for _ in range(m))
            A = GModule(G, fibers, tuple(AbHom.identity(fibers[x]) for x in range(m)))
        elif kind == 3:
            G = pair_groupoid(2)
            A = constant_module(G, _random_finite_group(rng))
        elif kind == 4:
            base = _random_action_groupoid(rng)
            G = base
            A = constant_module(G, _random_finite_group(rng))
        else:
            inner_G, inner_A = random_instance(rng, max(1, max_arrows // 4),
                                               allow_infinite, allow_union=False,
                                               allow_cover=False)
            sets = random_object_cover(rng, inner_G, max_sets=2)
            cg = cover_groupoid(inner_G, sets)
            G, A = cg.groupoid, pullback_module(cg.canon, inner_A)
        if allow_union and G.n_arrows < max_arrows and rng.random() < 0.25:
            G2, A2 = random_instance(rng, max_arrows - G.n_arrows,
                                     allow_infinite, allow_union=False,
                                     allow_cover=False)
            G, inc1, inc2 = disjoint_union(G, G2)
            A = disjoint_union_module(G, inc1, inc2, A, A2)
        if G.n_arrows <= max_arrows:
            return G, A


def random_object_cover(rng, G, max_sets=3):
    """A covering family of object subsets with occasional overlap."""
    m = rng.randint(1, max_sets)
    sets = [set() for _ in range(m)]
    for x in G.objects():
        sets[rng.randrange(m)].add(x)
        if rng.random() < 0.4:
            sets[rng.randrange(m)].add(x)
    return [frozenset(s) for s in sets if s]


# ---------------------------------------------------------------------------
# homotopy-lemma instances


def random_coarsening(rng, space, fine, top, max_sets=3):
    """A plain cover whose pieces are unions of the fine cover's pieces.

    Every fine piece lands in at least one coarse set, so refinements exist;
    pieces assigned to several sets give the two thetas room to differ.
    """
    levels = []
    for n in range(top + 1):
        pieces = nonempty_pieces(space, fine, n, "fine cover").values()
        m = rng.randint(1, max_sets)
        sets = [set() for _ in range(m)]
        for piece in pieces:
            sets[rng.randrange(m)].update(piece)
            if rng.random() < 0.5:
                sets[rng.randrange(m)].update(piece)
        levels.append([frozenset(s) for s in sets if s])
    return Cover.from_sets(levels)


def random_refinement_pair(rng, space, fine, coarse, top):
    """Two (possibly different) refinement index maps fine -> coarse."""
    t0, t1 = [], []
    for n in range(top + 1):
        d0, d1 = {}, {}
        for j, piece in nonempty_pieces(space, fine, n, "fine cover").items():
            options = [i for i in coarse.indices(n) if coarse.set_of(n, i).issuperset(piece)]
            d0[j] = rng.choice(options)
            d1[j] = rng.choice(options)
        t0.append(d0)
        t1.append(d1)
    return (Refinement(coarse, fine, tuple(t0)), Refinement(coarse, fine, tuple(t1)))


def _random_space_and_coeffs(rng):
    if rng.random() < 0.5:
        while True:
            G, A = random_instance(rng, max_arrows=6, allow_union=False)
            if A.all_fibers_finite:
                return NerveSpace(G), ModuleCoefficients(A), G
    n_pts = rng.choice((2, 3))
    return (ConstantSpace(n_pts), ConstantCoefficients(_random_finite_group(rng)), None)


def _random_fine_cover(rng, space, top):
    kind = rng.randrange(3)
    if kind == 0:
        return MaximalSimplicialCover(space)
    if kind == 1:
        pts0 = list(space.points(0))
        rng.shuffle(pts0)
        cut = rng.randint(1, len(pts0))
        sets = [frozenset(pts0[:cut]), frozenset(pts0[cut:])]
        return InducedSimplicialCover(space, [s for s in sets if s])
    base = Cover.from_sets([[frozenset({p}) for p in space.points(n)]
                            for n in range(top + 1)])
    return SigmaNSimplicialCover(space, base, N=top)


def random_cochain(space, coeffs, fam, n, rng):
    """A seeded degree-n cochain over a complex family, drawn cell by cell in
    canonical order (Z coordinates from -3..3)."""
    return Cochain(n, tuple(fib.reduce(tuple(rng.randrange(d) if d else rng.randrange(-3, 4)
                                             for d in fib.orders))
                            for *_, fib in complex_coordinates(space, coeffs, fam, n)))


@dataclass
class HomotopyTrial:
    degree: int
    space_kind: str
    fine_kind: str
    ok: bool


@dataclass
class HomotopyReport:
    trials: list[HomotopyTrial] = field(default_factory=list)

    @property
    def ok(self):
        return all(t.ok for t in self.trials)

    def summary(self):
        by_degree = {}
        for t in self.trials:
            by_degree.setdefault(t.degree, [0, 0])
            by_degree[t.degree][0] += t.ok
            by_degree[t.degree][1] += 1
        parts = [f"degree {d}: {a}/{b}" for d, (a, b) in sorted(by_degree.items())]
        return f"homotopy identity trials: {'; '.join(parts)}"


def run_homotopy_trials(seed, count, degrees=(1, 2)):
    """Randomized checks of theta1* - theta0* = dH + Hd, exact per cell, on
    instances that mix nerves of random groupoids and constant spaces."""
    rng = random.Random(seed)
    report = HomotopyReport()
    while len(report.trials) < count:
        degree = degrees[len(report.trials) % len(degrees)]
        space, coeffs, G = _random_space_and_coeffs(rng)
        kind = "nerve" if G is not None else "constant"
        top = degree + 1
        fine = _random_fine_cover(rng, space, top)
        coarse = random_coarsening(rng, space, fine, top)
        theta0, theta1 = random_refinement_pair(rng, space, fine, coarse, top)
        sU = SigmaCover(space, coarse, top)
        phi = random_cochain(space, coeffs, sU, degree, rng)
        lhs, rhs = check_homotopy_identity(space, coeffs, sU, fine, theta0, theta1, phi)
        report.trials.append(HomotopyTrial(degree, kind, type(fine).__name__, lhs == rhs))
    return report
