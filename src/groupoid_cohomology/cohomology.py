"""The groupoid cochain complex and its cohomology.

A degree-n cochain assigns to every composable tuple (g1, ..., gn) an element
of the fiber at r(g1) (for n = 0, an element of the fiber at each object).
Values are stored in the twisted convention where the differential reads

    (dc)(g1, ..., g_{n+1}) = g1 . c(g2, ..., g_{n+1})
                             + sum_{k=1}^{n} (-1)^k c(g1, ..., g_k g_{k+1}, ..., g_{n+1})
                             + (-1)^{n+1} c(g1, ..., gn)

with the degree-0 case (dc)(g) = g . c(s(g)) - c(r(g)). Every term except the
first already lives in the fiber at r(g1); the module action transports the
first one, so the whole differential is "apply each face, twist the 0-th".

One face table drives every coboundary. `G.face_table(n)` holds, for each
(n+1)-tuple in canonical order, the positions of its n+2 faces in nerve(n);
`face_table(G, A, n)` adds the restriction of each face (the action of g1 on
face 0, None for the identity on the others). `differential` applies the
table to cochain values, and `assemble_coboundary` turns it into the integer
matrix in one pass over the table. The Cech complexes of `cech` go
through the same assembler with their own tables. Entries are left
unreduced modulo the target orders: the dense generator path of
`homology_at` picks its representative cocycles from the exact entries, and
the factors-only path reduces them on entry anyway. H^n then comes out of
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import (
    AbComplex,
    AbHom,
    FinAbGroup,
    IntegerMatrix,
    ShapeError,
    homology_at,
    image_membership_witness,
)


@dataclass(frozen=True)
class Cochain:
    """A total assignment over nerve(G, degree), one fiber element per tuple."""

    degree: int
    values: tuple[tuple[int, ...], ...]


def tuple_fiber(A, t):
    """The coefficient fiber a nerve tuple takes values in: the one at its 0-th vertex."""
    return A.fiber(t.obj)


def make_cochain(G, A, n, values):
    """Build a cochain from per-tuple values, reducing into each fiber."""
    tuples = G.nerve(n)
    values = list(values)
    if len(values) != len(tuples):
        raise ShapeError(f"expected {len(tuples)} values at degree {n}")
    reduced = tuple(tuple_fiber(A, t).reduce(tuple(v)) for t, v in zip(tuples, values))
    return Cochain(n, reduced)


def zero_cochain(G, A, n):
    return Cochain(n, tuple(tuple_fiber(A, t).zero() for t in G.nerve(n)))


def cochain_add(G, A, c1, c2):
    if c1.degree != c2.degree:
        raise ShapeError("degrees differ")
    tuples = G.nerve(c1.degree)
    return Cochain(c1.degree, tuple(tuple_fiber(A, t).add(v, w)
                                    for t, v, w in zip(tuples, c1.values, c2.values)))


def cochain_sub(G, A, c1, c2):
    if c1.degree != c2.degree:
        raise ShapeError("degrees differ")
    tuples = G.nerve(c1.degree)
    return Cochain(c1.degree, tuple(tuple_fiber(A, t).sub(v, w)
                                    for t, v, w in zip(tuples, c1.values, c2.values)))


def cochain_neg(G, A, c):
    tuples = G.nerve(c.degree)
    return Cochain(c.degree, tuple(tuple_fiber(A, t).neg(v)
                                   for t, v in zip(tuples, c.values)))


def is_zero_cochain(c):
    return all(all(x == 0 for x in v) for v in c.values)


def cochain_group(G, A, n):
    """The cochain group C^n as one presented group: fibers concatenated in
    canonical nerve order (degree 0 concatenates the object fibers)."""
    orders = []
    for t in G.nerve(n):
        orders.extend(tuple_fiber(A, t).orders)
    return FinAbGroup(tuple(orders))


def flatten_cochain(G, A, c):
    out = []
    for v in c.values:
        out.extend(v)
    return tuple(out)


def unflatten_cochain(G, A, n, vector):
    tuples = G.nerve(n)
    values, pos = [], 0
    for t in tuples:
        k = tuple_fiber(A, t).ngens
        values.append(tuple(vector[pos:pos + k]))
        pos += k
    if pos != len(vector):
        raise ShapeError("vector length does not match the cochain group")
    return make_cochain(G, A, n, values)


def alternating_sum(fib, terms):
    """sum_k (-1)^k r_k(v_k), reduced into fib, for terms (v_k, r_k).

    r_k is the restriction (an AbHom) carrying v_k into fib, or None when it
    is the identity.
    """
    total = [0] * fib.ngens
    for k, (v, r) in enumerate(terms):
        if r is not None:
            v = r.apply(v)
        sign = -1 if k % 2 else 1
        for i, x in enumerate(v):
            total[i] += sign * x
    return fib.reduce(total)


def assemble_coboundary(source_fibers, target_fibers, table):
    """The integer matrix of an alternating sum of face restrictions.

    The face table has one row per target cell, listing its faces in order
    as (position of the source cell, restriction), the restriction an AbHom
    from the source fiber into the target fiber or None for the identity.
    Each face adds sign times its restriction into one block, so the work
    beyond allocating the dense matrix is linear in the number of nonzeros.
    Entries are not reduced modulo the target orders.
    """
    source = FinAbGroup(tuple(o for fib in source_fibers for o in fib.orders))
    target = FinAbGroup(tuple(o for fib in target_fibers for o in fib.orders))
    offsets, pos = [], 0
    for fib in source_fibers:
        offsets.append(pos)
        pos += fib.ngens
    rows = [[0] * source.ngens for _ in range(target.ngens)]
    base = 0
    for fib, faces in zip(target_fibers, table):
        block = rows[base:base + fib.ngens]
        sign = 1
        for s, r in faces:
            col = offsets[s]
            if r is None:
                for i, row in enumerate(block):
                    row[col + i] += sign
            else:
                for row, entries in zip(block, r.matrix.entries):
                    for j, x in enumerate(entries, col):
                        if x:
                            row[j] += sign * x
            sign = -sign
        base += len(block)
    return AbHom(source, target, IntegerMatrix(target.ngens, source.ngens, rows))


def face_table(G, A, n):
    """The face table of C^n -> C^{n+1}: face 0 of a tuple restricts by the
    action of its first arrow, every other face by the identity."""
    return [((faces[0], A.action(t.arrows[0])),) + tuple([(s, None) for s in faces[1:]])
            for t, faces in zip(G.nerve(n + 1), G.face_table(n))]


def differential(G, A, c):
    """The coboundary of a total degree-n cochain, as a degree-(n+1) cochain."""
    n = c.degree
    values = c.values
    return Cochain(n + 1, tuple(
        alternating_sum(tuple_fiber(A, t), ((values[s], r) for s, r in faces))
        for t, faces in zip(G.nerve(n + 1), face_table(G, A, n))))


def differential_matrix(G, A, n):
    """The linearized differential C^n -> C^{n+1}, one column per generator."""
    return assemble_coboundary([tuple_fiber(A, t) for t in G.nerve(n)],
                               [tuple_fiber(A, t) for t in G.nerve(n + 1)],
                               face_table(G, A, n))


def cochain_complex(G, A, top):
    """The complex C^0 -> ... -> C^top as an AbComplex."""
    groups = tuple(cochain_group(G, A, n) for n in range(top + 1))
    maps = tuple(differential_matrix(G, A, n) for n in range(top))
    return AbComplex(groups, maps)


def cohomology(G, A, n, with_generators=False):
    """H^n(G, A) in canonical invariant-factor form.

    With with_generators=True also returns representative cocycles, one per
    canonical factor.
    """
    cx = cochain_complex(G, A, n + 1)
    if not with_generators:
        return homology_at(cx, n)
    factors, vecs = homology_at(cx, n, with_generators=True)
    gens = [unflatten_cochain(G, A, n, v) for v in vecs]
    return factors, gens


@dataclass(frozen=True)
class InvariantSections:
    """The kernel of the degree-0 differential, with explicit generators."""

    factors: object
    generators: tuple[Cochain, ...]

    @property
    def group(self):
        return self.factors.as_group()


def invariant_sections(G, A):
    """Degree-0 cocycles: sections of the fiber bundle fixed by every arrow."""
    groups = (cochain_group(G, A, 0), cochain_group(G, A, 1))
    cx = AbComplex(groups, (differential_matrix(G, A, 0),))
    factors, vecs = homology_at(cx, 0, with_generators=True)
    return InvariantSections(factors, tuple(unflatten_cochain(G, A, 0, v) for v in vecs))


def is_cocycle(G, A, c):
    """dc = 0, checked exhaustively over nerve(G, degree+1)."""
    return is_zero_cochain(differential(G, A, c))


def is_coboundary(G, A, c):
    """A witness b with db = c, or None.

    At degree 0 the only coboundary is zero (there is nothing below), in which
    case the witness is the empty degree -1 cochain.
    """
    n = c.degree
    if n == 0:
        return Cochain(-1, ()) if is_zero_cochain(c) else None
    h = differential_matrix(G, A, n - 1)
    witness = image_membership_witness(h, flatten_cochain(G, A, c))
    if witness is None:
        return None
    return unflatten_cochain(G, A, n - 1, witness)


def are_cohomologous(G, A, c1, c2):
    """c1 - c2 a coboundary; returns the witness or None."""
    return is_coboundary(G, A, cochain_sub(G, A, c1, c2))
