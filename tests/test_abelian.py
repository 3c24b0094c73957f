import random
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, reject, settings, strategies as st
from oracles import bucket_unit_eliminate, invariant_factors_from_orders, three_pass_factors
from timing import time_limit

from groupoid_cohomology import abelian
from groupoid_cohomology.abelian import (
    AbComplex,
    AbHom,
    FinAbGroup,
    IntegerMatrix,
    InvariantFactors,
    ShapeError,
    canonical_form,
    hom_is_well_defined,
    homology_at,
    image_membership_witness,
    kernel_basis,
    smith_normal_form,
    solve_columns,
)
from groupoid_cohomology.cohomology import cochain_complex, cohomology, is_cocycle
from groupoid_cohomology.gmodule import (GModule, constant_module, disjoint_union_module,
                                         pullback_module)
from groupoid_cohomology.groupoid import cover_groupoid, cyclic_group, disjoint_union, unit_groupoid
from groupoid_cohomology.randomized import random_instance, random_object_cover

matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(st.lists(st.integers(-30, 30), min_size=c, max_size=c),
                           min_size=r, max_size=r)))


def test_snf_identity():
    I = IntegerMatrix.identity(2)
    S, U, V = smith_normal_form(I)
    assert S == U == V == I


def test_snf_worked_example():
    M = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    S, U, V = smith_normal_form(M)
    # d1 = gcd of entries, d1*d2 = |det|
    assert S.diagonal() == [2, 4]
    assert U * M * V == S


def test_snf_zero_row():
    M = IntegerMatrix.zeros(1, 3)
    S, U, V = smith_normal_form(M)
    assert S.is_zero() and U.entries == ((1,),) and V == IntegerMatrix.identity(3)


def _is_unimodular(M):
    if M.rows != M.cols:
        return False
    n = M.rows
    if n == 0:
        return True
    # exact determinant by cofactor expansion, fine at these sizes
    if n == 1:
        det = M[0, 0]
    else:
        det = 0
        rows = [list(r) for r in M.entries]

        def minor(rows, j):
            return [r[:j] + r[j + 1:] for r in rows[1:]]

        def rec(rows):
            if len(rows) == 1:
                return rows[0][0]
            return sum((-1) ** j * rows[0][j] * rec(minor(rows, j))
                       for j in range(len(rows)))

        det = rec(rows)
    return det in (1, -1)


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_snf_properties(rows):
    M = IntegerMatrix.from_rows(rows)
    S, U, V = smith_normal_form(M)
    assert U * M * V == S
    assert _is_unimodular(U) and _is_unimodular(V)
    diag = S.diagonal()
    for i in range(M.rows):
        for j in range(M.cols):
            if i != j:
                assert S[i, j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_and_solve(rows):
    M = IntegerMatrix.from_rows(rows)
    K = kernel_basis(M)
    assert (M * K).is_zero()
    # anything in the column lattice must be solvable
    if M.cols:
        combo = IntegerMatrix.column([sum(M[i, j] for j in range(M.cols))
                                      for i in range(M.rows)])
        X = solve_columns(M, combo)
        assert X is not None
        assert M * X == combo


def test_hom_well_defined_cases():
    Z2, Z4 = FinAbGroup((2,)), FinAbGroup((4,))
    assert not hom_is_well_defined(AbHom(Z2, Z4, IntegerMatrix.from_rows([[1]])))
    assert hom_is_well_defined(AbHom(Z2, Z4, IntegerMatrix.from_rows([[2]])))
    assert hom_is_well_defined(AbHom.zero(Z2, Z4))


def test_hom_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        AbHom(FinAbGroup((2,)), FinAbGroup((2,)), IntegerMatrix.zeros(2, 1))


def _two_term(matrix_rows, source_orders, target_orders):
    A = FinAbGroup(tuple(source_orders))
    B = FinAbGroup(tuple(target_orders))
    return AbComplex((A, B), (AbHom(A, B, IntegerMatrix.from_rows(matrix_rows)),))


def test_homology_examples():
    # 0 -> Z --x2--> Z -> 0 at top degree: Z/2
    cx = _two_term([[2]], (0,), (0,))
    assert homology_at(cx, 1) == InvariantFactors((2,), 0)
    # Z/2 --0--> Z/2 at either degree
    cx = _two_term([[0]], (2,), (2,))
    assert homology_at(cx, 0) == InvariantFactors((2,), 0)
    assert homology_at(cx, 1) == InvariantFactors((2,), 0)
    # Z --0--> Z --x3--> Z at the middle: kernel of x3 is 0
    Z = FinAbGroup((0,))
    cx = AbComplex((Z, Z, Z),
                   (AbHom(Z, Z, IntegerMatrix.from_rows([[0]])),
                    AbHom(Z, Z, IntegerMatrix.from_rows([[3]]))))
    assert homology_at(cx, 1).is_trivial


def test_zero_complex_returns_group_itself():
    for orders in [(2,), (0,), (4, 6), (0, 3), ()]:
        G = FinAbGroup(orders)
        cx = AbComplex((G, G), (AbHom.zero(G, G),))
        assert homology_at(cx, 0) == canonical_form(G)


def test_canonical_form_idempotent():
    for orders in [(2, 3), (4, 2, 0), (6, 4), (1, 1), (0, 0, 5)]:
        once = canonical_form(FinAbGroup(orders))
        twice = canonical_form(once.as_group())
        assert once == twice


def _enumeration_homology(cx, n):
    """Set-level Ker/Im for complexes of small finite groups."""
    mid = cx.groups[n]
    out_h = cx.map_out_of(n)
    in_h = cx.map_into(n)
    kernel = [v for v in mid.elements() if out_h.apply(v) == out_h.target.zero()]
    image = {in_h.apply(w) for w in in_h.source.elements()} or {mid.zero()}
    reps, seen = [], set()
    for z in kernel:
        if z in seen:
            continue
        orbit = {mid.add(z, b) for b in image}
        seen |= orbit
        reps.append(z)
    orders = []
    for rep in reps:
        k, acc = 1, rep
        while acc not in image:
            acc = mid.add(acc, rep)
            k += 1
        orders.append(k)
    return invariant_factors_from_orders(orders)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_homology_matches_enumeration_oracle(data):
    # complexes whose groups have at most 256 elements
    orders_pool = st.sampled_from([(2,), (3,), (4,), (2, 2), (6,), (2, 4), (8,)])
    a = data.draw(orders_pool)
    b = data.draw(orders_pool)
    c = data.draw(orders_pool)
    A, B, C = FinAbGroup(a), FinAbGroup(b), FinAbGroup(c)
    f_rows = [[data.draw(st.integers(-4, 4)) for _ in range(A.ngens)]
              for _ in range(B.ngens)]
    f = AbHom(A, B, IntegerMatrix.from_rows(f_rows) if A.ngens else IntegerMatrix.zeros(B.ngens, 0))
    # make f well defined by scaling columns to kill the source orders
    cols = []
    for j, d in enumerate(A.orders):
        col = [f.matrix[i, j] for i in range(B.ngens)]
        ok = all((d * x) % e == 0 for x, e in zip(col, B.orders))
        cols.append(col if ok else [0] * B.ngens)
    f = AbHom(A, B, IntegerMatrix.from_rows([[cols[j][i] for j in range(A.ngens)]
                                             for i in range(B.ngens)]))
    # g = zero keeps it a complex regardless of f
    g = AbHom.zero(B, C)
    cx = AbComplex((A, B, C), (f, g))
    assert cx.is_complex()
    assert homology_at(cx, 1) == _enumeration_homology(cx, 1)


def _two_fiber_instance(rng):
    """C2 acting by -1 on Z/q (q odd) beside a point with a 2-group fiber,
    seen through a random cover groupoid: fiber orders with two primes."""
    C2 = cyclic_group(2)
    Zq = FinAbGroup((rng.choice((3, 5)),))
    neg = AbHom(Zq, Zq, IntegerMatrix.from_rows([[-1]]))
    A1 = GModule(C2, (Zq,), (AbHom.identity(Zq), neg))
    V = FinAbGroup(rng.choice(((2, 2), (2, 4), (4,))))
    A2 = GModule(unit_groupoid(1), (V,), (AbHom.identity(V),))
    G, inc1, inc2 = disjoint_union(C2, unit_groupoid(1))
    A = disjoint_union_module(G, inc1, inc2, A1, A2)
    cg = cover_groupoid(G, random_object_cover(rng, G, max_sets=2))
    return cg.groupoid, pullback_module(cg.canon, A)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.booleans())
def test_factors_only_matches_dense_path(seed, n, two_fiber):
    # the factors-only path (sparse elimination) against the dense path kept
    # for with_generators=True, on cochain complexes of random groupoids
    rng = random.Random(seed)
    if two_fiber:
        G, A = _two_fiber_instance(rng)
    else:
        G, A = random_instance(rng, max_arrows=8, allow_infinite=True)
    cx = cochain_complex(G, A, n + 1)
    got = homology_at(cx, n)
    # The dense path has no bound on integer growth: on about one complex in
    # a hundred here (two primes among the orders) it runs for minutes. Such
    # a draw gives no reference and is rejected.
    try:
        with time_limit(3):
            want = homology_at(cx, n, with_generators=True)[0]
    except TimeoutError:
        reject()
    assert got == want


def _chain(orders, entries):
    """Cyclic groups of the given orders joined by multiplication maps."""
    groups = tuple(FinAbGroup((o,)) for o in orders)
    maps = tuple(AbHom(a, b, IntegerMatrix.from_rows([[e]]))
                 for a, b, e in zip(groups, groups[1:], entries))
    return AbComplex(groups, maps)


@pytest.mark.parametrize("orders, entries, n, want, dense", [
    # 2 is no unit mod 4 and no unit on a Z row: dense SNF on the residual
    ((4, 4, 4), (2, 2), 0, ((2,), 0), True),
    ((4, 4, 4), (2, 2), 1, ((), 0), True),
    ((4, 4, 4), (2, 2), 2, ((2,), 0), True),
    ((0, 0), (2,), 0, ((), 0), True),
    ((0, 0), (2,), 1, ((2,), 0), True),
    ((0, 4), (2,), 1, ((2,), 0), True),
    # unit pivots only: no dense SNF at all
    ((4, 4), (1,), 0, ((), 0), False),
    ((4, 4), (1,), 1, ((), 0), False),
    ((0, 0), (-1,), 1, ((), 0), False),
])
def test_factors_only_residual_branch(monkeypatch, orders, entries, n, want, dense):
    cx = _chain(orders, entries)
    assert homology_at(cx, n, with_generators=True)[0] == InvariantFactors(*want)
    calls = []
    snf = abelian._smith_with_inverses
    monkeypatch.setattr(abelian, "_smith_with_inverses",
                        lambda M, carry: calls.append((M.rows, M.cols)) or snf(M, carry))
    assert homology_at(cx, n) == InvariantFactors(*want)
    assert bool(calls) == dense


def test_factors_only_rejects_a_non_complex():
    with pytest.raises(ArithmeticError):
        homology_at(_chain((0, 0, 0), (1, 1)), 1)
    with pytest.raises(ArithmeticError):  # Z/2 --1--> Z/4 is not well defined
        homology_at(_chain((2, 4), (1,)), 0)


def test_homology_degree_out_of_range():
    Z = FinAbGroup((0,))
    cx = AbComplex((Z, Z), (AbHom.zero(Z, Z),))
    with pytest.raises(IndexError):
        homology_at(cx, 2)
    with pytest.raises(IndexError):
        homology_at(cx, -1)


def test_membership_witness():
    Z = FinAbGroup((0,))
    Z2 = FinAbGroup((2,))
    h = AbHom(Z, Z2, IntegerMatrix.from_rows([[1]]))
    w = image_membership_witness(h, (1,))
    assert w is not None and h.apply(w) == (1,)
    h2 = AbHom(Z, Z, IntegerMatrix.from_rows([[2]]))
    assert image_membership_witness(h2, (3,)) is None
    assert image_membership_witness(h2, (4,)) == (2,)


def test_invariant_factors_from_orders():
    # Z/2 x Z/4: orders profile of all 8 elements
    G = FinAbGroup((2, 4))
    inv = invariant_factors_from_orders([G.element_order(v) for v in G.elements()])
    assert inv == InvariantFactors((2, 4), 0)
    G = FinAbGroup((6,))
    inv = invariant_factors_from_orders([G.element_order(v) for v in G.elements()])
    assert inv == InvariantFactors((6,), 0)


# orders with two primes (6, 10, 12), prime powers, and Z (0)
ORDERS = st.sampled_from((0, 0, 2, 3, 4, 5, 6, 9, 10, 12))


@st.composite
def well_defined_homs(draw):
    """A well-defined hom between presented groups of at most four generators:
    the column of a generator of order s is a multiple of t_i / gcd(s, t_i) in
    each row of order t_i, and zero in a Z row."""
    s = draw(st.lists(ORDERS, min_size=1, max_size=4))
    t = draw(st.lists(ORDERS, min_size=1, max_size=4))
    rows = []
    for ti in t:
        row = []
        for sc in s:
            a = draw(st.integers(-6, 6))
            if sc and not ti:
                a = 0
            elif sc:
                a *= ti // gcd(sc, ti)
            row.append(a)
        rows.append(row)
    h = AbHom(FinAbGroup(tuple(s)), FinAbGroup(tuple(t)), IntegerMatrix.from_rows(rows))
    assert hom_is_well_defined(h)
    return h


@settings(max_examples=300, deadline=None)
@given(well_defined_homs(), st.data())
def test_membership_witness_matches_dense_solve(h, data):
    # the sparse witness against dense solve_columns on [h | relations]: the
    # same solvability, and the witness maps onto the target
    t = h.target
    if data.draw(st.booleans()):  # in the image
        x = data.draw(st.lists(st.integers(-20, 20), min_size=h.source.ngens,
                               max_size=h.source.ngens))
        b = h.apply(x)
    else:
        b = tuple(data.draw(st.integers(-20, 20)) for _ in range(t.ngens))
    dense = solve_columns(h.matrix.hstack(t.relation_matrix()), IntegerMatrix.column(list(b)))
    w = image_membership_witness(h, b)
    assert (w is None) == (dense is None)
    if w is not None:
        assert h.apply(w) == t.reduce(b)


def _dense_hom(draw, s, t, entries):
    """A hom S -> T from a drawn dense matrix, built from the matrix or from
    its sparse columns (the two constructors must agree)."""
    S, T = FinAbGroup(tuple(s)), FinAbGroup(tuple(t))
    M = IntegerMatrix(len(t), len(s), [[draw(entries) for _ in s] for _ in t])
    if draw(st.booleans()):
        return AbHom(S, T, M), M
    cols = [{i: x for i, x in enumerate(M.col(j)) if x} for j in range(len(s))]
    return AbHom.from_columns(S, T, cols), M


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hom_operations_match_dense_formulas(data):
    # apply, compose, is_zero, equals and hom_is_well_defined on the sparse
    # columns against the same formulas on the dense matrix
    draw = data.draw
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, 3, -4, 6, 12, 36))
    r, s, t = (draw(st.lists(ORDERS, max_size=4)) for _ in range(3))
    h, M = _dense_hom(draw, s, t, entries)
    g, N = _dense_hom(draw, r, s, entries)
    h2, M2 = _dense_hom(draw, s, t, entries)
    S, T = h.source, h.target
    assert h.matrix == M and all(x for col in h.columns for x in col.values())
    v = draw(st.lists(st.integers(-50, 50), min_size=len(s), max_size=len(s)))
    sv = S.reduce(v)
    assert h.apply(v) == T.reduce([sum(M[i, j] * sv[j] for j in range(len(s))) for i in range(len(t))])
    assert h.compose(g).matrix == M * N
    reduced = [T.reduce(col) for col in M.columns()]
    assert h.is_zero() == all(col == T.zero() for col in reduced)
    # h2 shifted by multiples of the target relations is the same map as h2
    shift = [[x + T.orders[i] * draw(st.integers(-2, 2)) for x in row]
             for i, row in enumerate(M2.entries)]
    h3 = AbHom(S, T, IntegerMatrix(len(t), len(s), shift))
    assert h2.equals(h3) and h3.equals(h2)
    assert h.equals(h2) == (reduced == [T.reduce(col) for col in M2.columns()])
    assert hom_is_well_defined(h) == all(
        T.reduce([d * x for x in M.col(j)]) == T.zero() for j, d in enumerate(s) if d)


def _checked_search(search):
    """The pivot search, asserting that each pivot is an eligible unit (mod
    its row's order, in a column of the same order when col_orders is given)
    and the least (cost, row, column) of all eligible units, and that none
    is left when it stops."""
    def units(cols, rows, orders, col_orders):
        return sorted(((len(rows[r]) - 1) * (len(col) - 1), r, j)
                      for j, col in enumerate(cols) for r, x in col.items()
                      if (gcd(x, orders[r]) == 1 if orders[r] else x in (1, -1))
                      and (col_orders is None or col_orders[j] == orders[r]))

    def checked(cols, rows, orders, col_orders=None):
        for i, p in search(cols, rows, orders, col_orders):
            assert all(len(rows[r]) == sum(r in col for col in cols) for r in rows)
            x, o = cols[p][i], orders[i]
            assert gcd(x, o) == 1 if o else x in (1, -1)
            assert units(cols, rows, orders, col_orders)[0][1:] == (i, p)
            yield i, p
        assert not units(cols, rows, orders, col_orders)
    return checked


def _factors_by_both_searches(cx, n):
    # each search cancels its own copy of the complex: the cancellation is
    # cached on the complex
    with mock.patch.object(abelian, "_markowitz_pivots", _checked_search(abelian._markowitz_pivots)):
        got = abelian._homology_factors(AbComplex(cx.groups, cx.maps), n)
    with mock.patch.object(abelian, "_unit_eliminate", bucket_unit_eliminate):
        want = abelian._homology_factors(AbComplex(cx.groups, cx.maps), n)
    return got, want


# orders with units and non-units of every kind, and Z (0)
PIVOT_ORDERS = st.sampled_from((0, 2, 3, 4, 6, 9))


@st.composite
def sparse_well_defined_homs(draw):
    """A well-defined hom with up to seven generators a side, mostly zeros:
    as in well_defined_homs, an entry in a row of order t_i under a column
    of order s is a multiple of t_i / gcd(s, t_i), and zero in a Z row."""
    s = draw(st.lists(PIVOT_ORDERS, min_size=1, max_size=7))
    t = draw(st.lists(PIVOT_ORDERS, min_size=1, max_size=7))
    rows = []
    for ti in t:
        row = []
        for sc in s:
            a = draw(st.sampled_from((0, 0, 0, 1, -1, 2, 3, 5)))
            if sc and not ti:
                a = 0
            elif sc:
                a *= ti // gcd(sc, ti)
            row.append(a)
        rows.append(row)
    return AbHom(FinAbGroup(tuple(s)), FinAbGroup(tuple(t)), IntegerMatrix.from_rows(rows))


@settings(max_examples=300, deadline=None)
@given(sparse_well_defined_homs())
def test_pivot_search_matches_bucket_reference_on_sparse_columns(h):
    # kernel and cokernel of a random sparse hom: the heap search and the
    # bucket-scan reference give the same factors, through least-cost units,
    # and so do the three passes without the cancellation (mixed orders put
    # units between cells of different orders, which must not cancel)
    cx = AbComplex((h.source, h.target), (h,))
    for n in (0, 1):
        got, want = _factors_by_both_searches(cx, n)
        assert got == want == three_pass_factors(cx, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_pivot_search_matches_bucket_reference_on_cochain_complexes(seed, n):
    G, A = random_instance(random.Random(seed), max_arrows=8, allow_infinite=True)
    got, want = _factors_by_both_searches(cochain_complex(G, A, n + 1), n)
    assert got == want


def test_cancellation_needs_equal_orders():
    # Z --1--> Z/5: 1 is a unit mod 5, but the orders differ, so the pair
    # spans no acyclic summand; cancelling it would give H^0 = 0
    cx = _chain((0, 5), (1,))
    assert homology_at(cx, 0) == InvariantFactors((), 1)
    assert homology_at(cx, 1) == InvariantFactors((), 0)
    assert cx.cancelled.groups == cx.groups
    # Z/5 --1--> Z/5 cancels to nothing
    assert [g.ngens for g in _chain((5, 5), (1,)).cancelled.groups] == [0, 0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_cancelled_complex_matches_three_pass_reference(seed, allow_infinite):
    # H^0..H^3 read from one cancellation of C^0 -> ... -> C^4 against the
    # three passes on each degree's own uncancelled 3-term complex
    G, A = random_instance(random.Random(seed), max_arrows=8, allow_infinite=allow_infinite)
    cx = cochain_complex(G, A, 4)
    for n in range(4):
        low = max(n - 1, 0)
        own = AbComplex(cx.groups[low:n + 2], cx.maps[low:n + 1])
        assert homology_at(cx, n) == three_pass_factors(own, n - low)


def test_cancellation_runs_once_per_complex(monkeypatch):
    calls = []
    eliminate = abelian._unit_eliminate
    monkeypatch.setattr(abelian, "_unit_eliminate",
                        lambda *a, **kw: calls.append("col_orders" in kw) or eliminate(*a, **kw))
    C3 = cyclic_group(3)
    cx = cochain_complex(C3, constant_module(C3, FinAbGroup((3,))), 4)
    for _ in range(3):
        assert [str(homology_at(cx, n)) for n in range(4)] == ["Z/3"] * 4
    # one cancellation per map, then three passes per homology_at
    assert calls.count(True) == len(cx.maps)
    assert calls.count(False) == 3 * 3 * 4


def test_generator_path_timing():
    # H^2(C7, Z/7) with a representative cocycle: about 0.3 s on the SNF that
    # carries only the transforms its caller reads; 2.7-4.8 s when every
    # dense SNF carried U, U^-1 and V through every step
    G = cyclic_group(7)
    A = constant_module(G, FinAbGroup((7,)))
    with time_limit(2.5):
        factors, gens = cohomology(G, A, 2, with_generators=True)
    assert str(factors) == "Z/7" and len(gens) == 1
    assert is_cocycle(G, A, gens[0])


@pytest.mark.parametrize("m, order, n, want, limit", [
    (6, 6, 4, "Z/6", 1.2),   # about 0.2 s; 1.7-2.0 s before the cancellation
    (6, 4, 3, "Z/2", 0.4),   # about 0.04 s; 0.8-1.1 s before
])
def test_factors_only_timing(m, order, n, want, limit):
    G = cyclic_group(m)
    cx = cochain_complex(G, constant_module(G, FinAbGroup((order,))), n + 1)
    with time_limit(limit):
        assert str(homology_at(cx, n)) == want
