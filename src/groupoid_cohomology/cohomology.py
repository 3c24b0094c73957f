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
face 0 restricts by the action of g1, the others by the identity.
`differential` and `is_cocycle` walk it on the cochain values, each entry
reduced mod its order (`is_cocycle` stops at the first nonzero tuple).
`assemble_coboundary` writes the same table straight into the sparse columns
of an AbHom, for `differential_matrix` and for the Cech complexes of `cech`.
Entries stay exact, unreduced modulo the target orders: the dense generator
path of `homology_at` reads its representative cocycles from them, and the
factors-only path reduces them on entry.

Two complexes are read. The factors-only `cohomology(G, A, n)` and the CLI
`cohomology` task read the normalized complex: the cochains that vanish on
every tuple with a unit arrow, one cell per `G.nondegenerate` tuple, with the
same cohomology (Eilenberg and Mac Lane; for C_m degree n has (m-1)^n cells
in place of m^n). Its face rows are `G.face_table(n, normalized=True)`, where
a degenerate inner face has position None: it adds nothing but keeps its
place in the alternating signs. Everything else reads the full bar complex:
the generator path (`with_generators=True`, hence `invariant_sections`, the
extension classes and every printed cocycle), `differential`, `is_cocycle`,
`is_coboundary`, and `cochain_complex` by default, on which `morita_compare`
and the groupoid side of the CLI `cech` task compare independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abelian import (
    AbComplex,
    AbHom,
    FinAbGroup,
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
    """The sparse columns of an alternating sum of face restrictions, as an AbHom.

    The face table has one row per target cell, listing its faces in order
    as (position of the source cell, restriction), the restriction an AbHom
    from the source fiber into the target fiber or None for the identity.
    A face at position None adds nothing but still takes its place in the
    alternating signs.
    Each face adds sign times its restriction into one block of the columns
    of its source cell, so the work is linear in the number of nonzeros and
    no dense matrix is allocated. Entries are exact, not reduced modulo the
    target orders; entries that cancel are dropped.
    """
    source = FinAbGroup(tuple([o for fib in source_fibers for o in fib.orders]))
    target = FinAbGroup(tuple([o for fib in target_fibers for o in fib.orders]))
    offsets = list(itertools.accumulate((fib.ngens for fib in source_fibers), initial=0))
    cols = [{} for _ in range(source.ngens)]
    identity = {}  # ngens -> the identity hom, for the faces restricted by None
    base = 0
    for fib, faces in zip(target_fibers, table):
        k = fib.ngens
        sign = 1
        for s, r in faces:
            if s is None:  # a face with no cell (a degenerate one): it only takes its sign
                sign = -sign
                continue
            j = offsets[s]
            if r is None:
                r = identity.get(k) or identity.setdefault(k, AbHom.identity(fib))
            for rcol in r.columns:
                col = cols[j]
                j += 1
                for i, x in rcol.items():
                    i += base
                    x = col.get(i, 0) + sign * x
                    if x:
                        col[i] = x
                    else:
                        del col[i]
            sign = -sign
        base += k
    return AbHom.from_columns(source, target, cols)


def differential(G, A, c):
    """The coboundary of a total degree-n cochain, as a degree-(n+1) cochain.

    Values may be unreduced; the result is reduced into each fiber.
    """
    return Cochain(c.degree + 1, tuple(_coboundary_values(G, A, c)))


def _coboundary_values(G, A, c):
    # one pass over G.face_table(n): face 0 through the columns of the action
    # of g1, the other faces with alternating signs, then each entry mod its
    # order (order 0: no reduction)
    n = c.degree
    values = c.values
    for t, faces in zip(G.nerve(n + 1), G.face_table(n)):
        orders = A.fiber(t.obj).orders
        total = [0] * len(orders)
        for x, col in zip(values[faces[0]], A.action(t.arrows[0]).columns):
            for i, e in col.items():
                total[i] += e * x
        sign = -1
        for s in faces[1:]:
            for i, x in enumerate(values[s]):
                total[i] += sign * x
            sign = -sign
        yield tuple([x % d if d else x for x, d in zip(total, orders)])


def differential_matrix(G, A, n, normalized=False):
    """The linearized differential C^n -> C^{n+1}, one column per generator.

    With normalized=True, the differential of the normalized cochains: one
    cell per `G.nondegenerate` tuple, and the degenerate faces add nothing.
    """
    level = G.nondegenerate if normalized else G.nerve
    cells = level(n + 1)
    # face 0 of a tuple restricts by the action of its first arrow, every
    # other face by the identity
    table = [((faces[0], A.action(t.arrows[0])),) + tuple([(s, None) for s in faces[1:]])
             for t, faces in zip(cells, G.face_table(n, normalized))]
    return assemble_coboundary([tuple_fiber(A, t) for t in level(n)],
                               [tuple_fiber(A, t) for t in cells], table)


def _complex(G, A, low, high, normalized=False):
    """C^low -> ... -> C^high, its groups read off the maps just assembled."""
    maps = tuple(differential_matrix(G, A, k, normalized) for k in range(low, high))
    groups = (maps[0].source, *(h.target for h in maps)) if maps else (cochain_group(G, A, low),)
    return AbComplex(groups, maps)


def cochain_complex(G, A, top, normalized=False):
    """The complex C^0 -> ... -> C^top as an AbComplex (normalized: see
    `differential_matrix`)."""
    return _complex(G, A, 0, top, normalized)


def cohomology(G, A, n, with_generators=False):
    """H^n(G, A) in canonical invariant-factor form.

    With with_generators=True also returns representative cocycles, one per
    canonical factor. Only C^{n-1} -> C^n -> C^{n+1} is built: homology_at
    reads no other part of the complex. The factors alone are read off the
    normalized complex; the generators off the full one.
    """
    low = max(n - 1, 0)
    if not with_generators:
        return homology_at(_complex(G, A, low, n + 1, normalized=True), n - low)
    cx = _complex(G, A, low, n + 1)
    factors, vecs = homology_at(cx, n - low, with_generators=True)
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
    """Degree-0 cocycles: sections of the fiber bundle fixed by every arrow,
    which is H^0 with its generators."""
    factors, gens = cohomology(G, A, 0, with_generators=True)
    return InvariantSections(factors, tuple(gens))


def is_cocycle(G, A, c):
    """dc = 0, checked exhaustively over nerve(G, degree+1); stops at the
    first tuple where dc is nonzero."""
    return not any(any(v) for v in _coboundary_values(G, A, c))


def is_coboundary(G, A, c):
    """A witness b with db = c, or None.

    The witness comes from the sparse solve of image_membership_witness. At
    degree 0 the only coboundary is zero (there is nothing below), in which
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
