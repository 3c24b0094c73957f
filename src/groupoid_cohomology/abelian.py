"""Exact linear algebra over Z and over finitely generated abelian groups.

Everything is integer-exact: matrices hold arbitrary-precision Python ints,
and groups are presented by generator orders (order 0 encodes an infinite
cyclic factor, so reduction "mod 0" is no reduction). The invariant factors
of homology come from a sparse elimination on unit pivots modulo those
orders, which keeps entries below the orders; dense Smith normal form only
finishes the small residual block it leaves. Dense SNF with all four
transforms still computes kernels, solutions, and homology with
representative generators, whose values the extension tables depend on.

>>> M = IntegerMatrix.from_rows([[2, 4], [6, 8]])
>>> S, U, V = smith_normal_form(M)
>>> S.diagonal()
[2, 4]
>>> (U * M * V) == S
True
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod


class ShapeError(ValueError):
    """Matrix or group dimensions do not line up."""


class IntegerMatrix:
    """Immutable integer matrix, stored as a tuple of row tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        if len(entries) != rows or any(len(row) != cols for row in entries):
            raise ShapeError(f"expected {rows}x{cols} entries")
        self.rows = rows
        self.cols = cols
        self.entries = entries

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
    def diagonal_matrix(cls, values, rows=None, cols=None):
        values = list(values)
        rows = len(values) if rows is None else rows
        cols = len(values) if cols is None else cols
        m = [[0] * cols for _ in range(rows)]
        for i, v in enumerate(values):
            if i < rows and i < cols:
                m[i][i] = v
        return cls(rows, cols, m)

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


def _smith_with_inverses(M):
    """Smith normal form with all four transforms.

    Returns (S, U, V, Uinv, Vinv) with U*M*V = S, S diagonal, d1 | d2 | ...,
    di >= 0, and U*Uinv = V*Vinv = identity. Pivoting picks the
    minimal-absolute-value nonzero entry, which keeps coefficient growth tame
    on desk-scale matrices.
    """
    r, c = M.rows, M.cols
    S = [list(row) for row in M.entries]
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    Ui = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    V = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    Vi = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        if i == j:
            return
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        for row in Ui:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        if i == j:
            return
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        if q == 0:
            return
        Si, Sj = S[i], S[j]
        for k in range(c):
            Si[k] += q * Sj[k]
        Uii, Uj = U[i], U[j]
        for k in range(r):
            Uii[k] += q * Uj[k]
        for row in Ui:
            row[j] -= q * row[i]

    def add_col(i, j, q):
        # col_j += q * col_i
        if q == 0:
            return
        for row in S:
            row[j] += q * row[i]
        for row in V:
            row[j] += q * row[i]
        Vii, Vj = Vi[i], Vi[j]
        for k in range(c):
            Vii[k] -= q * Vj[k]

    def negate_row(i):
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]
        for row in Ui:
            row[i] = -row[i]

    t = 0
    while t < min(r, c):
        pivot = None
        for i in range(t, r):
            for j in range(t, c):
                v = S[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(pivot[2])):
                    pivot = (i, j, v)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if S[t][t] < 0:
            negate_row(t)
        while True:
            dirty = False
            for i in range(t + 1, r):
                if S[i][t] != 0:
                    add_row(i, t, -(S[i][t] // S[t][t]))
                    if S[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, c):
                if S[t][j] != 0:
                    add_col(t, j, -(S[t][j] // S[t][t]))
                    if S[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                if S[t][t] < 0:
                    negate_row(t)
                continue
            # the pivot must divide the whole trailing block
            culprit = None
            for i in range(t + 1, r):
                if any(S[i][j] % S[t][t] != 0 for j in range(t + 1, c)):
                    culprit = i
                    break
            if culprit is None:
                break
            add_row(t, culprit, 1)
        t += 1

    return (IntegerMatrix(r, c, S), IntegerMatrix(r, r, U), IntegerMatrix(c, c, V),
            IntegerMatrix(r, r, Ui), IntegerMatrix(c, c, Vi))


def smith_normal_form(M):
    """Diagonalize M by unimodular transforms: U*M*V = S, d1 | d2 | ..., di >= 0.

    >>> S, U, V = smith_normal_form(IntegerMatrix.zeros(1, 3))
    >>> S.is_zero(), U.entries, V == IntegerMatrix.identity(3)
    (True, ((1,),), True)
    """
    S, U, V, _, _ = _smith_with_inverses(M)
    return S, U, V


def kernel_basis(M):
    """Columns generating the lattice {x : M x = 0}, as an IntegerMatrix."""
    S, _, V, _, _ = _smith_with_inverses(M)
    cols = []
    for j in range(M.cols):
        if j >= min(M.rows, M.cols) or S[j, j] == 0:
            cols.append(V.col(j))
    data = [[col[i] for col in cols] for i in range(M.cols)]
    return IntegerMatrix(M.cols, len(cols), data)


def solve_columns(M, B):
    """Solve M X = B exactly over Z; None if some column has no solution."""
    if M.rows != B.rows:
        raise ShapeError("row counts differ")
    S, U, V, _, _ = _smith_with_inverses(M)
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
        object.__setattr__(self, "orders", tuple(int(d) for d in self.orders))
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
        return tuple(x % d if d else int(x) for x, d in zip(v, self.orders))

    def add(self, u, v):
        return self.reduce(tuple(a + b for a, b in zip(u, v)))

    def neg(self, u):
        return self.reduce(tuple(-a for a in u))

    def sub(self, u, v):
        return self.reduce(tuple(a - b for a, b in zip(u, v)))

    def scale(self, n, u):
        return self.reduce(tuple(n * a for a in u))

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
        return IntegerMatrix.diagonal_matrix(self.orders, rows=self.ngens, cols=self.ngens)


TRIVIAL_GROUP = FinAbGroup(())


@dataclass(frozen=True)
class AbHom:
    """A homomorphism of presented groups, as a target x source integer matrix."""

    source: FinAbGroup
    target: FinAbGroup
    matrix: IntegerMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.ngens or self.matrix.cols != self.source.ngens:
            raise ShapeError(
                f"matrix is {self.matrix.rows}x{self.matrix.cols}, expected "
                f"{self.target.ngens}x{self.source.ngens}")

    @classmethod
    def identity(cls, group):
        return cls(group, group, IntegerMatrix.identity(group.ngens))

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, IntegerMatrix.zeros(target.ngens, source.ngens))

    def apply(self, v):
        return self.target.reduce(self.matrix.apply(self.source.reduce(v)))

    def compose(self, other):
        """self after other."""
        if other.target.orders != self.source.orders:
            raise ShapeError("composition mismatch")
        return AbHom(other.source, self.target, self.matrix * other.matrix)

    def is_well_defined(self):
        return hom_is_well_defined(self)

    def is_zero(self):
        """Zero as a map into the presented target (entries may be relations)."""
        return all(self.target.reduce(self.matrix.col(j)) == self.target.zero()
                   for j in range(self.matrix.cols))

    def equals(self, other):
        """Equality as maps between the presented groups."""
        if (self.source.orders, self.target.orders) != (other.source.orders, other.target.orders):
            return False
        return all(self.target.reduce(self.matrix.col(j)) == self.target.reduce(other.matrix.col(j))
                   for j in range(self.matrix.cols))


def hom_is_well_defined(h):
    """d_i * (column i) must die in the target for every finite-order generator.

    >>> Z2, Z4 = FinAbGroup((2,)), FinAbGroup((4,))
    >>> hom_is_well_defined(AbHom(Z2, Z4, IntegerMatrix.from_rows([[1]])))
    False
    >>> hom_is_well_defined(AbHom(Z2, Z4, IntegerMatrix.from_rows([[2]])))
    True
    """
    for j, d in enumerate(h.source.orders):
        if d == 0:
            continue
        col = tuple(d * x for x in h.matrix.col(j))
        if h.target.reduce(col) != h.target.zero():
            return False
    return True


@dataclass(frozen=True)
class InvariantFactors:
    """Canonical form of a finitely generated abelian group: d1 | d2 | ..., di >= 2."""

    torsion: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
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
    S, _, _, _, _ = _smith_with_inverses(relations)
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


def _sparse_columns(M, orders):
    """The columns of M as {row: entry} dicts, entries reduced mod the row orders."""
    cols = [{} for _ in range(M.cols)]
    for i, (row, o) in enumerate(zip(M.entries, orders)):
        for j, x in enumerate(row):
            if o:
                x %= o
            if x:
                cols[j][i] = x
    return cols


def _reduced(vec, orders):
    """A sparse vector with each coordinate reduced mod its order, zeros dropped."""
    out = {}
    for c, x in vec.items():
        if orders[c]:
            x %= orders[c]
        if x:
            out[c] = x
    return out


def _unit_eliminate(cols, orders, track=None, track_orders=None):
    """Eliminate unit pivots from sparse columns, in place; returns the pivot count.

    cols[j] is a dict {row: entry}. The routine works on the column lattice of
    [A | diag(orders)], order 0 marking an infinite row, so entries in a finite
    row stay reduced mod its order: that adds multiples of the row's relation
    column, which no step touches until the row is pivoted. A pivot is an
    entry that is a unit mod its row's order (+-1 on an infinite row), of
    least Markowitz cost (nnz(col) - 1) * (nnz(row) - 1). Pivoting on (i, p)
    clears row i from the other columns, then removes row i and replaces
    column p by orders[i] * column p (by zero on an infinite row). Both
    readings of the matrix survive this step:

    - the quotient Z^rows / [A | diag(orders)] is the same quotient on the
      rows left: there e_i = -u^-1 (rest of column p) for the pivot u, and the
      relation orders[i] * e_i becomes orders[i] * (rest of column p);
    - in the kernel {x : A x = 0 mod orders} the coordinate of column p is a
      multiple of orders[i] once row i is cleared. With `track`, one sparse
      vector per column that undergoes the same column operations, the kernel
      is the span of the tracked vectors over the kernel of what is left.
      Tracked coordinates stay reduced mod `track_orders`, which is exact
      when the kernel contains track_orders[c] * e_c.

    The columns still nonzero when no unit is left form the residual block.

    >>> cols = [{0: 1, 1: 2}, {0: 3, 1: 2}, {1: 2}]   # A over (Z/4)^2
    >>> track = [{0: 1}, {1: 1}, {2: 1}]
    >>> _unit_eliminate(cols, [4, 4], track, [4, 4, 4])
    1
    >>> cols                          # 2 is no unit mod 4: a residual column
    [{}, {}, {1: 2}]
    >>> track                         # e0 + e1 is in the kernel
    [{}, {1: 1, 0: 1}, {2: 1}]
    """
    rows = {}
    for j, col in enumerate(cols):
        for i in col:
            rows.setdefault(i, set()).add(j)
    row_nnz, col_nnz = {}, {}  # nnz -> the rows (columns) with that many entries

    def move(buckets, key, old, new):
        if old:
            bucket = buckets[old]
            bucket.discard(key)
            if not bucket:
                del buckets[old]
        if new:
            buckets.setdefault(new, set()).add(key)

    def link(r, j):
        move(row_nnz, r, len(rows[r]), len(rows[r]) + 1)
        rows[r].add(j)

    def unlink(r, j):
        move(row_nnz, r, len(rows[r]), len(rows[r]) - 1)
        rows[r].discard(j)

    for i, js in rows.items():
        move(row_nnz, i, 0, len(js))
    for j, col in enumerate(cols):
        move(col_nnz, j, 0, len(col))

    def is_unit(i, x):
        return gcd(x, orders[i]) == 1 if orders[i] else abs(x) == 1

    def choose_pivot():
        # Rows and columns by increasing nnz k; an entry not yet seen after
        # count k lies in a row and a column of more than k entries, and of
        # at least the least count of any row (column).
        best, best_cost = None, None
        if not row_nnz:
            return None
        rmin, cmin = min(row_nnz), min(col_nnz)
        top = max(max(row_nnz), max(col_nnz))
        for k in range(min(rmin, cmin), top + 1):
            candidates = [(i, j) for i in row_nnz.get(k, ()) for j in rows[i]]
            candidates += [(i, j) for j in col_nnz.get(k, ()) for i in cols[j]]
            for i, j in candidates:
                if is_unit(i, cols[j][i]):
                    cost = (len(rows[i]) - 1) * (len(cols[j]) - 1)
                    if best is None or cost < best_cost:
                        best, best_cost = (i, j), cost
                        if cost == 0:
                            return best
            if best is not None and best_cost <= max(k, rmin - 1) * max(k, cmin - 1):
                return best
        return best

    pivots = 0
    while (pivot := choose_pivot()) is not None:
        i, p = pivot
        pivots += 1
        o, colp = orders[i], cols[p]
        q_unit = pow(colp[i], -1, o) if o else colp[i]
        for j in [j for j in rows[i] if j != p]:
            col = cols[j]
            q = col[i] * q_unit % o if o else col[i] * q_unit
            before = len(col)
            for r, v in colp.items():
                x = col.get(r, 0) - q * v
                if orders[r]:
                    x %= orders[r]
                if x:
                    if r not in col:
                        link(r, j)
                    col[r] = x
                elif r in col:
                    del col[r]
                    unlink(r, j)
            move(col_nnz, j, before, len(col))
            if track is not None and track[p]:
                tj = track[j]
                for c, v in track[p].items():
                    tj[c] = tj.get(c, 0) - q * v
                track[j] = _reduced(tj, track_orders)
        before = len(colp)
        for r in list(colp):
            x = o * colp[r] % orders[r] if orders[r] else o * colp[r]
            if x and r != i:
                colp[r] = x
            else:
                del colp[r]
                unlink(r, p)
        move(col_nnz, p, before, len(colp))
        del rows[i]
        if track is not None:
            track[p] = _reduced({c: o * v for c, v in track[p].items()}, track_orders)
    return pivots


def _residual_block(cols, orders):
    """The nonzero columns, by index, and as a dense block stacked with the
    relations diag(orders) of the rows they meet."""
    live = [j for j, col in enumerate(cols) if col]
    rows = sorted({i for j in live for i in cols[j]})
    data = [[cols[j].get(i, 0) for j in live]
            + [orders[i] if a == b else 0 for b in range(len(rows))]
            for a, i in enumerate(rows)]
    return live, IntegerMatrix(len(rows), len(live) + len(rows), data)


def _sparse_kernel(cols, orders, track, track_orders):
    """Generators of {x : A x = 0 mod orders} in tracked coordinates.

    They are reduced mod track_orders; the kernel also holds every
    track_orders[c] * e_c. The residual block of _unit_eliminate goes to the
    dense kernel_basis.
    """
    _unit_eliminate(cols, orders, track, track_orders)
    gens = [t for col, t in zip(cols, track) if not col and t]
    live, block = _residual_block(cols, orders)
    if live:
        for v in kernel_basis(block).columns():
            acc = {}
            for a, j in enumerate(live):
                for c, x in track[j].items():
                    acc[c] = acc.get(c, 0) + v[a] * x
            acc = _reduced(acc, track_orders)
            if acc:
                gens.append(acc)
    return gens


def _homology_factors(cx, n):
    """The factors of homology_at(cx, n), from three passes of _unit_eliminate."""
    mid = cx.groups[n]
    out, into = cx.map_out_of(n), cx.map_into(n)
    s, t = mid.orders, out.target.orders
    dcols = _sparse_columns(out.matrix, t)
    bcols = _sparse_columns(into.matrix, s)
    # the dense path's check: diag(s) and im maps[n-1] must lie in ker maps[n]
    for z in [{j: d} for j, d in enumerate(s) if d] + bcols:
        image = {}
        for j, a in z.items():
            for i, x in dcols[j].items():
                image[i] = image.get(i, 0) + a * x
        if _reduced(image, t):
            raise ArithmeticError("image does not lie in the kernel; not a complex at this degree")
    # 1. cocycles: K = {x : maps[n] x = 0}, kept mod s. The generators
    #    s_c e_c that K also holds die in the quotient, so they are left out.
    K = _sparse_kernel(dcols, t, [_reduced({c: 1}, s) for c in range(mid.ngens)], s)
    k = len(K)
    # 2. Y = {y in Z^k : K y in im maps[n-1] + diag(s)}, the kernel of
    #    [K | maps[n-1]] mod s projected to y. With L = lcm(s), Y holds L Z^k.
    L = lcm(*s)
    Lk = [L] * k
    Y = _sparse_kernel(K + bcols, s, [{y: 1} for y in range(k)] + [{} for _ in bcols], Lk)
    # 3. H = Z^k / (Y + L Z^k): unit pivots, then dense SNF on the residual
    #    block. Its factors divide L, so the rows never touched come last.
    pivots = _unit_eliminate(Y, Lk)
    live, block = _residual_block(Y, Lk)
    rest = invariant_factors_of_presentation(block.rows, block) if live else InvariantFactors((), 0)
    untouched = k - pivots - block.rows
    return InvariantFactors(rest.torsion + ((L,) * untouched if L > 1 else ()),
                            rest.free_rank + (untouched if L == 0 else 0))


def homology_at(cx, n, with_generators=False):
    """Ker(maps[n]) / Im(maps[n-1]) in canonical invariant-factor form.

    Boundary degrees use zero maps at the ends. With with_generators=True the
    result is a pair (factors, gens) where gens holds one representative
    element of groups[n] per canonical factor, torsion generators first.

    The factors alone come from sparse elimination on unit pivots modulo the
    generator orders (_unit_eliminate), which keeps entries below the orders
    and leaves dense SNF only a small residual block. The generators still
    come from the dense path (_kernel_lattice, solve_columns and a final
    SNF with all four transforms): the representatives depend on the basis
    each elimination picks, and the extension and Baer tables of `classify`
    (and the CLI's --json output) are built from these ones.

    >>> Z = FinAbGroup((0,))
    >>> times2 = AbHom(Z, Z, IntegerMatrix.from_rows([[2]]))
    >>> str(homology_at(AbComplex((Z, Z), (times2,)), 1))
    'Z/2'
    """
    if not 0 <= n < len(cx.groups):
        raise IndexError(f"degree {n} out of range")
    if not with_generators:
        return _homology_factors(cx, n)
    mid = cx.groups[n]
    K = _kernel_lattice(cx.map_out_of(n))  # columns generate the cocycle lattice in Z^b
    k = K.cols
    sub = cx.map_into(n).matrix.hstack(mid.relation_matrix())
    W = solve_columns(K, sub)
    if W is None:
        raise ArithmeticError("image does not lie in the kernel; not a complex at this degree")
    N = kernel_basis(K)
    Q = W.hstack(N)
    S, _, _, Ui, _ = _smith_with_inverses(Q)
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


def image_membership_witness(h, target_element):
    """A source element x with h(x) = target_element, or None.

    Membership is tested in the presented target (relations count as zero).
    """
    stacked = h.matrix.hstack(h.target.relation_matrix())
    sol = solve_columns(stacked, IntegerMatrix.column(list(target_element)))
    if sol is None:
        return None
    return h.source.reduce(tuple(sol[i, 0] for i in range(h.source.ngens)))


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def invariant_factors_from_orders(element_orders):
    """Invariant factors of a finite abelian group from its element-order multiset.

    Works prime by prime: #{x : p^j x = 0} / #{x : p^(j-1) x = 0} equals p to
    the number of cyclic p-power factors of order >= p^j. Used by brute-force
    oracles, independently of any matrix computation.
    """
    element_orders = list(element_orders)
    exponent = 1
    for n in element_orders:
        exponent = lcm(exponent, n)
    per_prime = {}
    for p in _prime_factors(exponent):
        ms = []
        prev = sum(1 for n in element_orders if n == 1)
        j = 1
        while True:
            pj = p ** j
            cur = sum(1 for n in element_orders if pj % n == 0)
            if cur == prev:
                break
            ratio, m = cur // prev, 0
            while ratio > 1:
                ratio //= p
                m += 1
            ms.append(m)  # number of p-power factors of order >= p^j
            prev = cur
            j += 1
        count = ms[0] if ms else 0
        divisors = []
        for i in range(1, count + 1):
            e = max(jj + 1 for jj, m in enumerate(ms) if m >= i)
            divisors.append(p ** e)
        per_prime[p] = sorted(divisors, reverse=True)
    width = max((len(v) for v in per_prime.values()), default=0)
    invs = []
    for i in range(width):
        invs.append(prod(vals[i] for vals in per_prime.values() if i < len(vals)))
    return InvariantFactors(tuple(sorted(d for d in invs if d >= 2)), 0)
