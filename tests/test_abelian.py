import random

import pytest
from hypothesis import given, reject, settings, strategies as st
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
    invariant_factors_from_orders,
    kernel_basis,
    smith_normal_form,
    solve_columns,
)
from groupoid_cohomology.cohomology import cochain_complex
from groupoid_cohomology.gmodule import GModule, disjoint_union_module, pullback_module
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
                        lambda M: calls.append((M.rows, M.cols)) or snf(M))
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
