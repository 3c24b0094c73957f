"""Exact linear algebra over Z and over finitely generated abelian groups.

Everything is integer-exact, in arbitrary-precision Python ints. Groups are
presented by generator orders (order 0 encodes an infinite cyclic factor, so
reduction "mod 0" is no reduction) and homomorphisms by sparse columns. A
complex is reduced once (`AbComplex.cancelled`): each unit entry joining two
cells of equal order spans an acyclic summand, which is cancelled. The
invariant factors of homology come from a sparse elimination on unit pivots
modulo the orders of what is left, with dense Smith normal form (SNF) only
on the residual block, with no relation columns when its rows are finite;
membership witnesses (h x = b) come from the same sparse kernel. The dense
SNF with transforms still picks representative generators. It carries only
the transforms its caller reads: V for a kernel (`kernel_basis`, a residual
block's kernel), U and V for `solve_columns`, U^-1 for the final SNF of
`homology_at`, and none for invariant factors (pass 3, presentations).

>>> M = IntegerMatrix.from_rows([[2, 4], [6, 8]])
>>> S, U, V = smith_normal_form(M)
>>> S.diagonal()
[2, 4]
>>> (U * M * V) == S
True
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd, isqrt, lcm, prod


class ShapeError(ValueError):
    """Matrix or group dimensions do not line up."""


class IntegerMatrix:
    """Immutable integer matrix, stored as a tuple of row tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple([tuple([int(x) for x in row]) for row in entries])
        if len(entries) != rows or any(len(row) != cols for row in entries):
            raise ShapeError(f"expected {rows}x{cols} entries")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _of(cls, rows, cols, entries):
        """The matrix of int rows of the right shape, taken without a check."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, tuple(map(tuple, entries))
        return m

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, values):
        return cls(len(values), 1, [[v] for v in values])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __eq__(self, other):
        return (isinstance(other, IntegerMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols}, {list(map(list, self.entries))})"

    def __mul__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = list(zip(*other.entries)) if other.entries else [()] * other.cols
        data = [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries]
        return IntegerMatrix(self.rows, other.cols, data)

    def apply(self, vector):
        """Matrix times column vector, as a tuple."""
        if len(vector) != self.cols:
            raise ShapeError(f"vector length {len(vector)} != {self.cols} columns")
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self.entries)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ShapeError("row counts differ")
        return IntegerMatrix(self.rows, self.cols + other.cols,
                             [r1 + r2 for r1, r2 in zip(self.entries, other.entries)])

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

    def diagonal(self):
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def columns(self):
        return [self.col(j) for j in range(self.cols)]


def _least_entry(S, t):
    """The position of the first nonzero entry of least absolute value, in
    row-major order, of the rows of S from t on (sparse rows, each zero left
    of column t). A +-1 is least, so the scan stops at the first."""
    best, least = None, 0
    for i in range(t, len(S)):
        m = min(map(abs, S[i].values()), default=0)
        if m and (best is None or m < least):
            best, least = i, m
            if m == 1:
                break
    if best is None:
        return None
    return best, min(j for j, v in S[best].items() if v == least or v == -least)


def _add_multiple(row, q, other):
    """row += q * other, on sparse rows (dicts), zeros dropped."""
    for k, b in other.items():
        x = row.get(k, 0) + q * b
        if x:
            row[k] = x
        else:
            del row[k]


def _smith_with_inverses(M, carry):
    """Smith normal form, with the transforms named in carry.

    Returns (S, U, V, Uinv) with U*M*V = S, S diagonal, d1 | d2 | ...,
    di >= 0, U*Uinv = identity and V unimodular. Each transform is carried
    only when its name ("U", "V" or "Uinv") is in carry, else it is None;
    S and every transform carried are the same whatever else is carried.
    Pivoting picks the minimal-absolute-value nonzero entry, which keeps
    coefficient growth tame on desk-scale matrices.

    The rows of S and of the transforms are sparse ({column: entry}, zeros
    dropped), and V and Uinv are kept transposed, so that every operation
    is a row operation touching only nonzero entries. From row t on, the
    rows of S are zero left of the current diagonal position t.
    """
    r, c = M.rows, M.cols
    S = [{j: x for j, x in enumerate(row) if x} for row in M.entries]
    U = [{i: 1} for i in range(r)] if "U" in carry else None
    Uit = [{i: 1} for i in range(r)] if "Uinv" in carry else None
    Vt = [{j: 1} for j in range(c)] if "V" in carry else None

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        for X in (U, Uit):
            if X is not None:
                X[i], X[j] = X[j], X[i]

    def swap_cols(i, j):
        for row in S[t:]:
            a, b = row.pop(i, 0), row.pop(j, 0)
            if b:
                row[i] = b
            if a:
                row[j] = a
        if Vt is not None:
            Vt[i], Vt[j] = Vt[j], Vt[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        _add_multiple(S[i], q, S[j])
        if U is not None:
            _add_multiple(U[i], q, U[j])
        if Uit is not None:
            _add_multiple(Uit[j], -q, Uit[i])

    def negate_row(i):
        for X in (S, U, Uit):
            if X is not None:
                X[i] = {k: -x for k, x in X[i].items()}

    t, previous = 0, None
    while t < min(r, c):
        pivot = _least_entry(S, t)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        if S[t][t] < 0:
            negate_row(t)
        while True:
            dirty = False
            for i in range(t + 1, r):
                x = S[i].get(t)
                if x:
                    q = -(x // S[t][t])
                    if q:
                        add_row(i, t, q)
                    if t in S[i]:
                        swap_rows(t, i)
                        dirty = True
            St = S[t]
            meeting = [row for row in S[t:] if t in row]  # the rows column t meets
            # a column operation on j changes no entry of row t right of j
            for j in sorted(j for j in St if j > t):
                q = -(St[j] // St[t])
                if q:  # col_j += q * col_t
                    for row in meeting:
                        x = row.get(j, 0) + q * row[t]
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                    if Vt is not None:
                        _add_multiple(Vt[j], q, Vt[t])
                if j in St:
                    swap_cols(t, j)
                    meeting = [row for row in S[t:] if t in row]
                    dirty = True
            if dirty:
                if St[t] < 0:
                    negate_row(t)
                continue
            # the pivot must divide the whole trailing block; the block is
            # already a multiple of the previous diagonal entry
            d = St[t]
            if d == 1 or d == previous:
                break
            culprit = next((i for i in range(t + 1, r) if any(x % d for x in S[i].values())),
                           None)
            if culprit is None:
                break
            add_row(t, culprit, 1)
        previous = S[t][t]
        t += 1

    def dense(rows, n, transpose=False):
        out = [[0] * n for _ in rows]
        for row, line in zip(rows, out):
            for j, x in row.items():
                line[j] = x
        return IntegerMatrix._of(len(rows), n, zip(*out) if transpose else out)

    return (dense(S, c),
            None if U is None else dense(U, r),
            None if Vt is None else dense(Vt, c, transpose=True),
            None if Uit is None else dense(Uit, r, transpose=True))


def smith_normal_form(M):
    """Diagonalize M by unimodular transforms: U*M*V = S, d1 | d2 | ..., di >= 0.

    >>> S, U, V = smith_normal_form(IntegerMatrix.zeros(1, 3))
    >>> S.is_zero(), U.entries, V == IntegerMatrix.identity(3)
    (True, ((1,),), True)
    """
    S, U, V, _ = _smith_with_inverses(M, ("U", "V"))
    return S, U, V


def kernel_basis(M):
    """Columns generating the lattice {x : M x = 0}, as an IntegerMatrix."""
    S, _, V, _ = _smith_with_inverses(M, ("V",))
    cols = [V.col(j) for j in range(M.cols) if j >= min(M.rows, M.cols) or S[j, j] == 0]
    return IntegerMatrix(M.cols, len(cols), [[col[i] for col in cols] for i in range(M.cols)])


def solve_columns(M, B):
    """Solve M X = B exactly over Z; None if some column has no solution."""
    if M.rows != B.rows:
        raise ShapeError("row counts differ")
    S, U, V, _ = _smith_with_inverses(M, ("U", "V"))
    k = min(M.rows, M.cols)
    xcols = []
    for b in B.columns():
        cvec = U.apply(b)
        y = [0] * M.cols
        ok = True
        for i in range(M.rows):
            d = S[i, i] if i < k else 0
            if d != 0:
                if cvec[i] % d != 0:
                    ok = False
                    break
                y[i] = cvec[i] // d
            elif cvec[i] != 0:
                ok = False
                break
        if not ok:
            return None
        xcols.append(V.apply(tuple(y)))
    data = [[col[i] for col in xcols] for i in range(M.cols)]
    return IntegerMatrix(M.cols, B.cols, data)


@dataclass(frozen=True)
class FinAbGroup:
    """A finitely generated abelian group presented by generator orders.

    orders[i] is the order of the i-th generator; 0 means infinite cyclic.
    An element is a tuple of ints, one per generator, reduced mod the order
    whenever the order is positive. The trivial group has no generators.

    >>> G = FinAbGroup((2, 0))
    >>> G.add((1, 5), (1, -2))
    (0, 3)
    """

    orders: tuple[int, ...]

    def __post_init__(self):
        # Short tuples built once per operation come from a list, not a
        # generator: tuple(<genexpr>) allocates a block for 10 items and, once
        # freed, leaves it on the free list of the final length, where CPython
        # keeps up to 2,000 per length and the peak RSS of a long run grows.
        object.__setattr__(self, "orders", tuple([int(d) for d in self.orders]))
        if any(d < 0 for d in self.orders):
            raise ValueError("orders must be nonnegative")

    @property
    def ngens(self):
        return len(self.orders)

    @property
    def is_finite(self):
        return all(d > 0 for d in self.orders)

    @property
    def size(self):
        if not self.is_finite:
            raise ValueError("infinite group")
        return prod(self.orders) if self.orders else 1

    def zero(self):
        return (0,) * self.ngens

    def reduce(self, v):
        if len(v) != self.ngens:
            raise ShapeError(f"element length {len(v)} != {self.ngens} generators")
        return tuple([x % d if d else int(x) for x, d in zip(v, self.orders)])

    def add(self, u, v):
        return self.reduce(tuple(a + b for a, b in zip(u, v)))

    def neg(self, u):
        return self.reduce(tuple(-a for a in u))

    def sub(self, u, v):
        return self.reduce(tuple(a - b for a, b in zip(u, v)))

    def elements(self):
        """All elements, lexicographically. Finite groups only."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        return [tuple(t) for t in itertools.product(*(range(d) for d in self.orders))]

    def element_order(self, u):
        u = self.reduce(u)
        if not self.is_finite and any(x != 0 for x, d in zip(u, self.orders) if d == 0):
            raise ValueError("element of infinite order")
        n = 1
        for x, d in zip(u, self.orders):
            if d and x:
                n = lcm(n, d // gcd(x, d))
        return n

    def direct_sum(self, other):
        return FinAbGroup(self.orders + other.orders)

    def relation_matrix(self):
        """diag(orders): columns generate the subgroup identified with zero."""
        n = self.ngens
        return IntegerMatrix(n, n, [[d if i == j else 0 for j in range(n)]
                                    for i, d in enumerate(self.orders)])


TRIVIAL_GROUP = FinAbGroup(())


class AbHom:
    """A homomorphism of presented groups, stored as sparse columns.

    columns[j], which callers only read, is the image of the j-th source
    generator as a dict {target generator: exact entry, not reduced mod the
    target orders}, zeros dropped. `matrix`, the dense target x source
    IntegerMatrix, is built when first read (or is the one given).
    """

    def __init__(self, source, target, matrix):
        if matrix.rows != target.ngens or matrix.cols != source.ngens:
            raise ShapeError(f"matrix is {matrix.rows}x{matrix.cols}, expected "
                             f"{target.ngens}x{source.ngens}")
        self.source, self.target, self.matrix = source, target, matrix
        self.columns = tuple({i: x for i, x in enumerate(matrix.col(j)) if x}
                             for j in range(matrix.cols))

    @classmethod
    def from_columns(cls, source, target, columns):
        """The hom whose j-th column is the dict columns[j] (no zero entries)."""
        h = cls.__new__(cls)
        h.source, h.target, h.columns = source, target, tuple(columns)
        if len(h.columns) != source.ngens:
            raise ShapeError(f"{len(h.columns)} columns, expected {source.ngens}")
        return h

    @functools.cached_property
    def matrix(self):
        rows = [[0] * self.source.ngens for _ in range(self.target.ngens)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                rows[i][j] = x
        return IntegerMatrix(self.target.ngens, self.source.ngens, rows)

    def __eq__(self, other):
        return (isinstance(other, AbHom) and (self.source, self.target, self.columns)
                == (other.source, other.target, other.columns))

    def __repr__(self):
        return f"AbHom({self.source!r}, {self.target!r}, columns={self.columns!r})"

    @classmethod
    def identity(cls, group):
        return cls.from_columns(group, group, [{i: 1} for i in range(group.ngens)])

    @classmethod
    def zero(cls, source, target):
        return cls.from_columns(source, target, [{} for _ in range(source.ngens)])

    def apply(self, v):
        out = [0] * self.target.ngens
        for a, col in zip(self.source.reduce(v), self.columns):
            if a:
                for i, x in col.items():
                    out[i] += a * x
        return self.target.reduce(out)

    def compose(self, other):
        """self after other."""
        if other.target.orders != self.source.orders:
            raise ShapeError("composition mismatch")
        return AbHom.from_columns(other.source, self.target, [
            _sparse_sum((a, self.columns[k]) for k, a in col.items()) for col in other.columns])

    def is_zero(self):
        """Zero as a map into the presented target (entries may be relations)."""
        return not any(_reduced(col, self.target.orders) for col in self.columns)

    def equals(self, other):
        """Equality as maps between the presented groups."""
        t = self.target.orders
        return (self.source.orders, t) == (other.source.orders, other.target.orders) and all(
            _reduced(a, t) == _reduced(b, t) for a, b in zip(self.columns, other.columns))


def hom_is_well_defined(h):
    """d_i * (column i) must die in the target for every finite-order generator.

    >>> Z2, Z4 = FinAbGroup((2,)), FinAbGroup((4,))
    >>> hom_is_well_defined(AbHom(Z2, Z4, IntegerMatrix.from_rows([[1]])))
    False
    >>> hom_is_well_defined(AbHom(Z2, Z4, IntegerMatrix.from_rows([[2]])))
    True
    """
    return not any(_reduced({i: d * x for i, x in col.items()}, h.target.orders)
                   for d, col in zip(h.source.orders, h.columns) if d)


@dataclass(frozen=True)
class InvariantFactors:
    """Canonical form of a finitely generated abelian group: d1 | d2 | ..., di >= 2."""

    torsion: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple([int(d) for d in self.torsion]))
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("divisibility chain violated")

    @property
    def is_trivial(self):
        return not self.torsion and self.free_rank == 0

    @property
    def is_finite(self):
        return self.free_rank == 0

    @property
    def order(self):
        if not self.is_finite:
            raise ValueError("infinite group")
        return prod(self.torsion) if self.torsion else 1

    def as_group(self):
        return FinAbGroup(self.torsion + (0,) * self.free_rank)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def invariant_factors_of_presentation(ngens, relations):
    """Invariant factors of Z^ngens / (column lattice of `relations`)."""
    S = _smith_with_inverses(relations, ())[0]
    diag = S.diagonal()
    torsion = tuple(d for d in diag if d >= 2)
    nonzero = sum(1 for d in diag if d != 0)
    return InvariantFactors(torsion, ngens - nonzero)


def canonical_form(group):
    """Canonical invariant factors of a presented group.

    >>> str(canonical_form(FinAbGroup((2, 3))))
    'Z/6'
    >>> canonical_form(FinAbGroup((4, 2, 0)))
    InvariantFactors(torsion=(2, 4), free_rank=1)
    """
    return invariant_factors_of_presentation(group.ngens, group.relation_matrix())


@dataclass(frozen=True)
class AbComplex:
    """A cochain complex of presented groups; maps[n] goes from degree n to n+1."""

    groups: tuple[FinAbGroup, ...]
    maps: tuple[AbHom, ...]

    def __post_init__(self):
        if len(self.maps) != max(len(self.groups) - 1, 0):
            raise ShapeError("need exactly one map per adjacent pair of groups")
        for n, h in enumerate(self.maps):
            if h.source.orders != self.groups[n].orders or h.target.orders != self.groups[n + 1].orders:
                raise ShapeError(f"map {n} does not match adjacent groups")

    def is_complex(self):
        """d o d = 0 modulo target relations, for every adjacent pair."""
        return all(self.maps[n + 1].compose(self.maps[n]).is_zero()
                   for n in range(len(self.maps) - 1))

    @functools.cached_property
    def cancelled(self):
        """The complex with its unit pairs cancelled: the same homology in every
        degree, on fewer cells. Built once, on first read.

        A pivot (r, c) of maps[n], a unit mod the order o of row r in a column
        whose cell c also has order o, spans the acyclic subcomplex
        <c> -> <dc>, an isomorphism Z/o -> Z/o, so C -> C/<c, dc> is a
        quasi-isomorphism (Kaczynski, Mrozek and Slusarek, "Homology
        computation by reduction of chain complexes", 1998). In the quotient
        maps[n] is the Schur complement that _unit_eliminate leaves, maps[n+1]
        loses column r and maps[n-1] loses row c. The maps are walked from
        degree 0 up, each restricted to its live cells, so one _unit_eliminate
        per map cancels every pair it finds.

        The cancellation is sound on a complex only. Raises ArithmeticError,
        before any elimination, unless every map is well defined (diag(orders)
        lies in its kernel) and maps[n] o maps[n-1] = 0.
        """
        cols = []
        for h in self.maps:
            t = h.target.orders
            hcols = [_reduced(col, t) for col in h.columns]
            # well defined, read on the reduced columns: d * (x mod o) = d * x mod o
            if any(d and any(not t[i] or d * x % t[i] for i, x in col.items())
                   for d, col in zip(h.source.orders, hcols)):
                break
            cols.append(hcols)
        if len(cols) < len(self.maps) or not self.is_complex():
            raise ArithmeticError("image does not lie in the kernel; not a complex")
        dead = [set() for _ in self.groups]
        for n, h in enumerate(self.maps):
            src = [c for c in range(h.source.ngens) if c not in dead[n]]
            live = [cols[n][c] for c in src]
            for i, p in _unit_eliminate(live, h.target.orders,
                                        col_orders=[h.source.orders[c] for c in src]):
                dead[n].add(src[p])
                dead[n + 1].add(i)
            cols[n] = dict(zip(src, live))
        keep = [[c for c in range(g.ngens) if c not in d] for g, d in zip(self.groups, dead)]
        index = [{c: k for k, c in enumerate(cells)} for cells in keep]
        groups = tuple([FinAbGroup(tuple([g.orders[c] for c in cells]))
                        for g, cells in zip(self.groups, keep)])
        maps = tuple(AbHom.from_columns(groups[n], groups[n + 1], [
            {index[n + 1][i]: x for i, x in cols[n][c].items() if i in index[n + 1]}
            for c in keep[n]]) for n in range(len(self.maps)))
        return AbComplex(groups, maps)

    def map_out_of(self, n):
        if n < len(self.maps):
            return self.maps[n]
        return AbHom.zero(self.groups[n], TRIVIAL_GROUP)

    def map_into(self, n):
        if n >= 1:
            return self.maps[n - 1]
        return AbHom.zero(TRIVIAL_GROUP, self.groups[n])


def _kernel_lattice(h):
    """Columns generating {x in Z^b : h(x) = 0 in the presented target}."""
    stacked = h.matrix.hstack(h.target.relation_matrix())
    gens = kernel_basis(stacked)
    b = h.source.ngens
    return IntegerMatrix(b, gens.cols, [gens.row(i) for i in range(b)])


def _reduced(vec, orders):
    """A sparse vector with each coordinate reduced mod its order, zeros dropped."""
    out = {}
    for c, x in vec.items():
        if orders[c]:
            x %= orders[c]
        if x:
            out[c] = x
    return out


def _sparse_sum(terms):
    """The sum of a * vec over the (a, vec) terms, sparse vectors as dicts, zeros dropped."""
    acc = {}
    for a, vec in terms:
        for i, x in vec.items():
            acc[i] = acc.get(i, 0) + a * x
    return {i: x for i, x in acc.items() if x}


def _is_small_prime(n):
    """n is a prime below 2**20 (larger orders take the gcd test)."""
    return 1 < n < 1 << 20 and all(n % p for p in range(2, isqrt(n) + 1))


def _markowitz_pivots(cols, rows, orders, col_orders=None):
    """The pivots (i, p) of _unit_eliminate, which eliminates each before
    asking for the next: units, gcd(entry, orders[i]) = 1, each of least
    Markowitz cost (nnz(row i) - 1) * (nnz(column p) - 1), ties to the least
    (i, p) (Markowitz 1957; Duff, Erisman and Reid, Direct Methods for
    Sparse Matrices). A heap keys each column by (cost, row) of a unit entry,
    no higher than its least one. A popped column is rescanned: it gives the
    pivot if its key still holds, else it is pushed at its least key. A cost
    falls only where a row or column shrinks or an entry is written, so
    after a pivot the columns that shrank are rescanned, and the units the
    pivot wrote or whose row shrank are pushed where they undercut a key.
    With col_orders, a unit counts only in a column p with col_orders[p] =
    orders[i].

    The unit rule of each row is taken once per call: entries of a finite
    row are reduced and nonzero, so on a prime order each is a unit (test
    None); otherwise the rule is gcd(entry, order) = 1, which is +-1 on a Z
    row.
    """
    primes = {o for o in set(orders) if _is_small_prime(o)}
    test = [None if o in primes else o for o in orders]

    def unit(i, j):
        t = test[i]
        return ((t is None or gcd(cols[j][i], t) == 1)
                and (col_orders is None or col_orders[j] == orders[i]))

    def rescan(j):
        # the factor nnz(column j) - 1 is common to the column's entries
        col, row, least = cols[j], None, None
        need = None if col_orders is None else col_orders[j]
        for i, x in col.items():
            t = test[i]
            if ((t is None or gcd(x, t) == 1) and (need is None or need == orders[i])):
                n = len(rows[i])
                if least is None or n < least or (n == least and i < row):
                    row, least = i, n
        if row is None:
            keys.pop(j, None)
            return None
        key = ((least - 1) * (len(col) - 1), row)
        if keys.get(j) != key:
            keys[j] = key
            heappush(heap, (*key, j))
        return key

    keys, heap = {}, []
    for j in range(len(cols)):
        rescan(j)
    while heap:
        cost, i, p = heappop(heap)
        if keys.get(p) != (cost, i) or rescan(p) != (cost, i):
            continue
        touched = rows[i].copy()
        col_nnz = [(j, len(cols[j])) for j in touched]
        row_nnz = [(r, len(rows[r])) for r in cols[p] if r != i]
        yield i, p
        shrunk = set()
        for j, before in col_nnz:
            if len(cols[j]) < before:
                shrunk.add(j)
                rescan(j)
        for r, before in row_nnz:
            live = rows[r]
            c = len(live) - 1
            for j in (live if c < before - 1 else live & touched) - shrunk:
                key, old = (c * (len(cols[j]) - 1), r), keys.get(j)
                if (old is None or key < old) and unit(r, j):
                    keys[j] = key
                    heappush(heap, (*key, j))


def _unit_eliminate(cols, orders, track=None, track_orders=None, col_orders=None):
    """Eliminate unit pivots from sparse columns, in place; returns the pivots (i, p).

    cols[j] is a dict {row: entry}. The routine works on the column lattice of
    [A | diag(orders)], order 0 marking an infinite row, so entries in a finite
    row stay reduced mod its order: that adds multiples of the row's relation
    column, which no step touches until the row is pivoted. A pivot is an
    entry that is a unit mod its row's order (+-1 on an infinite row), of
    least Markowitz cost, from the heap of _markowitz_pivots. Pivoting on
    (i, p) clears row i from the other columns, then removes row i and
    replaces column p by orders[i] * column p (by zero on an infinite row).
    Both readings of the matrix survive this step:

    - the quotient Z^rows / [A | diag(orders)] is the same quotient on the
      rows left: there e_i = -u^-1 (rest of column p) for the pivot u, and the
      relation orders[i] * e_i becomes orders[i] * (rest of column p);
    - in the kernel {x : A x = 0 mod orders} the coordinate of column p is a
      multiple of orders[i] once row i is cleared. With `track`, one sparse
      vector per column that undergoes the same column operations, the kernel
      is the span of the tracked vectors over the kernel of what is left.
      Tracked coordinates stay reduced mod `track_orders`, which is exact
      when the kernel contains track_orders[c] * e_c.

    With col_orders, the orders of the source generators of a well-defined
    A, a pivot also needs col_orders[p] = orders[i]. The step then empties
    column p, since orders[i] * column p vanishes mod every row order, and
    what is left of A is its Schur complement: the map that
    `AbComplex.cancelled` keeps once the pair is cancelled. The columns
    still nonzero when no pivot is left form the residual block.

    >>> cols = [{0: 1, 1: 2}, {0: 3, 1: 2}, {1: 2}]   # A over (Z/4)^2
    >>> track = [{0: 1}, {1: 1}, {2: 1}]
    >>> _unit_eliminate(cols, [4, 4], track, [4, 4, 4])
    [(0, 0)]
    >>> cols                          # 2 is no unit mod 4: a residual column
    [{}, {}, {1: 2}]
    >>> track                         # e0 + e1 is in the kernel
    [{}, {1: 1, 0: 1}, {2: 1}]
    """
    rows = {}
    for j, col in enumerate(cols):
        for i in col:
            rows.setdefault(i, set()).add(j)
    pivots = []
    for i, p in _markowitz_pivots(cols, rows, orders, col_orders):
        pivots.append((i, p))
        o, colp = orders[i], cols[p]
        q_unit = pow(colp[i], -1, o) if o else colp[i]
        for j in [j for j in rows[i] if j != p]:
            col = cols[j]
            q = col[i] * q_unit % o if o else col[i] * q_unit
            for r, v in colp.items():
                x = col.get(r, 0) - q * v
                if orders[r]:
                    x %= orders[r]
                if x:
                    col[r] = x
                    rows[r].add(j)
                elif r in col:
                    del col[r]
                    rows[r].discard(j)
            if track is not None and track[p]:
                track[j] = _reduced(_sparse_sum(((1, track[j]), (-q, track[p]))), track_orders)
        for r in list(colp):
            x = o * colp[r] % orders[r] if orders[r] else o * colp[r]
            if x and r != i:
                colp[r] = x
            else:
                del colp[r]
                rows[r].discard(p)
        del rows[i]
        if track is not None:
            track[p] = _reduced({c: o * v for c, v in track[p].items()}, track_orders)
    return pivots


def _residual_block(cols, orders):
    """The nonzero columns, by index, the lcm L of the orders of the rows
    they meet, and the block B on those rows as an IntegerMatrix.

    When every such row is finite, row i of B is scaled by L / orders[i]:
    then x is in the kernel mod the orders exactly when B x = 0 mod L, and no
    relation columns are needed. When one is infinite, L = 0 and B is
    stacked with the relations orders[i] * e_i of its finite rows.
    """
    live = [j for j, col in enumerate(cols) if col]
    rows = sorted({i for j in live for i in cols[j]})
    L = lcm(*(orders[i] for i in rows))
    if L:
        data = [[cols[j].get(i, 0) * (L // orders[i]) for j in live] for i in rows]
    else:
        finite = [a for a, i in enumerate(rows) if orders[i]]
        data = [[cols[j].get(i, 0) for j in live] + [orders[i] if a == b else 0 for b in finite]
                for a, i in enumerate(rows)]
    return live, L, IntegerMatrix(len(rows), len(data[0]) if data else 0, data)


def _sparse_kernel(cols, orders, track, track_orders):
    """Generators of {x : A x = 0 mod orders} in tracked coordinates, reduced
    mod track_orders (the kernel also holds every track_orders[c] * e_c).

    The residual block B of _unit_eliminate goes to a dense SNF. On finite
    rows (L > 0) that is U B V = S: B y = 0 mod L for y = V z exactly when
    S_jj z_j = 0 mod L, so the columns of V times L / gcd(S_jj, L) span the
    kernel (S_jj = 0 past the diagonal). On a block with a Z row it is the
    kernel_basis of the stacked block, read on the live columns.
    """
    _unit_eliminate(cols, orders, track, track_orders)
    gens = [t for col, t in zip(cols, track) if not col and t]
    live, L, block = _residual_block(cols, orders)
    if not live:
        return gens
    if L:
        S, _, V, _ = _smith_with_inverses(block, ("V",))
        diag = S.diagonal()
        diag += [0] * (len(live) - len(diag))
        kernel = [[L // gcd(d, L) * x for x in V.col(j)] for j, d in enumerate(diag)]
    else:
        kernel = kernel_basis(block).columns()
    for v in kernel:
        acc = _reduced(_sparse_sum(zip(v, (track[j] for j in live))), track_orders)
        if acc:
            gens.append(acc)
    return gens


def _homology_factors(cx, n):
    """The factors of homology_at(cx, n), from three passes of
    _unit_eliminate on the cancelled complex at n."""
    cx = cx.cancelled
    mid = cx.groups[n]
    out, into = cx.map_out_of(n), cx.map_into(n)
    s = mid.orders
    # 1. cocycles: K = {x : maps[n] x = 0}, kept mod s. The generators
    #    s_c e_c that K also holds die in the quotient, so they are left out.
    K = _sparse_kernel([dict(col) for col in out.columns], out.target.orders,
                       [_reduced({c: 1}, s) for c in range(mid.ngens)], s)
    k = len(K)
    # 2. Y = {y in Z^k : K y in im maps[n-1] + diag(s)}, the kernel of
    #    [K | maps[n-1]] mod s projected to y. With L = lcm(s), Y holds L Z^k.
    L = lcm(*s)
    Lk = [L] * k
    Y = _sparse_kernel(K + [dict(col) for col in into.columns], s,
                       [{y: 1} for y in range(k)] + [{} for _ in into.columns], Lk)
    # 3. H = Z^k / (Y + L Z^k): unit pivots, then the SNF S of the residual
    #    block; each row left gives Z/gcd(S_ii, L) (S_ii = 0 past the diagonal).
    pivots = _unit_eliminate(Y, Lk)
    live, _, block = _residual_block(Y, Lk)
    diag = _smith_with_inverses(block, ())[0].diagonal() if live else []
    factors = [gcd(d, L) for d in diag] + [L] * (k - len(pivots) - len(diag))
    return InvariantFactors(tuple([f for f in factors if f > 1]), factors.count(0))


def homology_at(cx, n, with_generators=False):
    """Ker(maps[n]) / Im(maps[n-1]) in canonical invariant-factor form.

    Boundary degrees use zero maps at the ends. With with_generators=True the
    result is a pair (factors, gens) where gens holds one representative
    element of groups[n] per canonical factor, torsion generators first.

    The factors come from _homology_factors, three sparse eliminations on the
    columns of the cancelled complex (`cx.cancelled`, built on the first
    call and shared by every degree), as does every question that needs no
    representative (Morita rows and ext counts, coboundary witnesses). A
    trivial group has the generators []. Otherwise they come from the dense
    path on the `matrix` views of the original maps: _kernel_lattice (an
    SNF carrying V), solve_columns (U and V), kernel_basis of K (V) and a
    final SNF carrying U^-1 alone. The extension and Baer tables of
    `classify` and the CLI's --json output are built from these
    representatives. Raises ArithmeticError when cx is not a complex.

    >>> Z = FinAbGroup((0,))
    >>> times2 = AbHom(Z, Z, IntegerMatrix.from_rows([[2]]))
    >>> str(homology_at(AbComplex((Z, Z), (times2,)), 1))
    'Z/2'
    """
    if not 0 <= n < len(cx.groups):
        raise IndexError(f"degree {n} out of range")
    factors = _homology_factors(cx, n)
    if not with_generators:
        return factors
    if factors.is_trivial:
        return factors, []
    mid = cx.groups[n]
    K = _kernel_lattice(cx.map_out_of(n))  # columns generate the cocycle lattice in Z^b
    k = K.cols
    sub = cx.map_into(n).matrix.hstack(mid.relation_matrix())
    W = solve_columns(K, sub)
    if W is None:
        raise ArithmeticError("image does not lie in the kernel; not a complex at this degree")
    N = kernel_basis(K)
    Q = W.hstack(N)
    S, _, _, Ui = _smith_with_inverses(Q, ("Uinv",))
    diag = S.diagonal()
    torsion_positions = [(i, d) for i, d in enumerate(diag) if d >= 2]
    nonzero = sum(1 for d in diag if d != 0)
    result = InvariantFactors(tuple(d for _, d in torsion_positions), k - nonzero)
    free_positions = [i for i in range(k) if i >= len(diag) or diag[i] == 0]
    gens = []
    for i, _ in torsion_positions + [(i, 0) for i in free_positions]:
        x = K.apply(Ui.col(i))  # generator of the i-th factor of Z^k / im Q
        gens.append(mid.reduce(x))
    return result, gens


def _xgcd(a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return (a, u0, v0) if a >= 0 else (-a, -u0, -v0)


def image_membership_witness(h, target_element):
    """A source element x with h(x) = target_element, or None.

    Membership is tested in the presented target (relations count as zero).
    It is solved on the sparse kernel of [h | -b] modulo the target orders.
    Source coordinates are kept mod the source orders (exact for a well
    defined h), the b-coordinate mod L = lcm(target orders), L = 0 when a
    target is Z, since L * e_b lies in the kernel. b is in the image exactly
    when the b-coordinates of the kernel generate 1 mod L: extended gcds
    combine the generators, from L * e_b, until that coordinate is 1.

    >>> times4 = AbHom(FinAbGroup((0,)), FinAbGroup((6,)), IntegerMatrix.from_rows([[4]]))
    >>> w = image_membership_witness(times4, (2,))
    >>> w, times4.apply(w)
    ((-1,), (2,))
    >>> image_membership_witness(times4, (3,)) is None
    True
    """
    b = tuple(target_element)
    if len(b) != h.target.ngens:
        raise ShapeError("row counts differ")
    t, s = h.target.orders, h.source.orders
    nx = h.source.ngens
    L = lcm(*t)
    track_orders = s + (L,)
    cols = [_reduced(col, t) for col in h.columns] + [_reduced(dict(enumerate(-x for x in b)), t)]
    track = [_reduced({c: 1}, s) for c in range(nx)] + [{nx: 1}]
    gens = _sparse_kernel(cols, t, track, track_orders)
    acc, g = {nx: L}, L
    for v in gens:
        if g == 1:
            break
        g, u, w = _xgcd(g, v.get(nx, 0))
        for c in set(acc) | set(v):
            acc[c] = u * acc.get(c, 0) + w * v.get(c, 0)
        acc = _reduced(acc, track_orders)
    if g != 1:
        return None
    return h.source.reduce(tuple(acc.get(c, 0) for c in range(nx)))
