"""Numerical verification that cohomology only sees the Morita class.

The computable criterion is the cover-groupoid one: for an object cover U,
the canonical map G[U] -> G must induce isomorphisms on H^n. Both sides are
computed independently (the right side on the pulled-back module) and the
canonical invariant factors are compared literally. The optional ext
comparison counts the classes of Ext = H^2 on each side (the order of the
factors-only H^2), so no side needs a representative cocycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .abelian import homology_at
from .cohomology import cochain_complex
from .gmodule import pullback_module
from .groupoid import _guard, cover_groupoid, memberships


@dataclass
class MoritaRow:
    degree: int
    left: object
    right: object

    @property
    def equal(self):
        return self.left == self.right


@dataclass
class MoritaReport:
    rows: list[MoritaRow] = field(default_factory=list)
    ext_left: int | None = None
    ext_right: int | None = None

    @property
    def ok(self):
        factors = all(r.equal for r in self.rows)
        exts = self.ext_left == self.ext_right
        return factors and exts

    def lines(self):
        out = []
        for r in self.rows:
            mark = "ok" if r.equal else "MISMATCH"
            out.append(f"H^{r.degree}: G -> {r.left} | G[U] -> {r.right}  [{mark}]")
        if self.ext_left is not None:
            mark = "ok" if self.ext_left == self.ext_right else "MISMATCH"
            out.append(f"ext classes: G -> {self.ext_left} | G[U] -> {self.ext_right}  [{mark}]")
        return out


def morita_compare(G, A, sets, degrees=(0, 1, 2), compare_ext=False):
    """Compare H^n(G, A) with H^n(G[U], canon* A) degree by degree.

    Each side is one cochain complex up to the top degree read, so every
    degree reads the same cancellation (`AbComplex.cancelled`). With
    compare_ext and finite fibers, ext_left and ext_right are the numbers of
    extension classes, |H^2| of each side, read from the factors-only H^2 of
    the same complexes.

    Raises BudgetExceeded, before building it, when the highest nerve level
    of the cover groupoid read, max(degrees) + 1 and at least 3 with the ext
    counts, has more tuples than the active budget's `max_cover_nerve`.
    """
    cg = cover_groupoid(G, sets)
    H = cg.groupoid
    ext = compare_ext and A.all_fibers_finite
    # H^n reads the nerve up to level n + 1, and the ext count reads H^2;
    # nerve sizes never shrink with the level, so the top level bounds all
    top = max(max(degrees), 2 if ext else 0) + 1
    count = H.nerve_count(top)
    _guard("max_cover_nerve", count, f"cover groupoid nerve has {count} tuples at level {top}")
    pulled = pullback_module(cg.canon, A)
    left, right = cochain_complex(G, A, top), cochain_complex(H, pulled, top)
    factors = {n: (homology_at(left, n), homology_at(right, n))
               for n in {*degrees, *((2,) if ext else ())}}
    report = MoritaReport([MoritaRow(n, *factors[n]) for n in degrees])
    if ext:
        # Ext = H^2 in the discrete setting: one class per element, so the
        # count is the order of the factors-only H^2, no representative needed
        report.ext_left, report.ext_right = (f.order for f in factors[2])
    return report


@dataclass
class CoverNerveDescription:
    """G[U]_n in the (i_0, ..., i_n, g_1, ..., g_n) presentation."""

    tuples: tuple
    groupoid_count: int

    @property
    def count(self):
        return len(self.tuples)

    @property
    def consistent(self):
        return self.count == self.groupoid_count


def cover_nerve_structure(G, sets, n):
    """Enumerate G[U]_n as index-decorated base tuples and cross-check the
    count against the nerve of the cover groupoid itself. The indices of a
    tuple range over the `memberships` of its vertices."""
    sets = [frozenset(s) for s in sets]
    cg = cover_groupoid(G, sets)
    pieces = memberships(G.n_objects, sets)
    out = []
    for t in G.nerve(n):
        for idx in itertools.product(*(pieces[v] for v in G.vertices(t))):
            out.append(idx + (t.arrows or (t.obj,)))
    return CoverNerveDescription(tuple(sorted(out)), len(cg.groupoid.nerve(n)))
