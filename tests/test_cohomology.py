import importlib
import random

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    brute_force_group_cohomology,
    cyclic_table,
    dense_coboundary,
    differential_by_faces,
    face_table_by_faces,
    periodic_resolution_cyclic,
)
from timing import time_limit

from groupoid_cohomology.abelian import (
    AbHom,
    FinAbGroup,
    IntegerMatrix,
    InvariantFactors,
    homology_at,
)
from groupoid_cohomology.cohomology import (
    Cochain,
    cochain_complex,
    cochain_group,
    cohomology,
    differential,
    differential_matrix,
    flatten_cochain,
    invariant_sections,
    is_coboundary,
    is_cocycle,
    is_zero_cochain,
    make_cochain,
    unflatten_cochain,
    zero_cochain,
)
from groupoid_cohomology.gmodule import GModule, constant_module, pullback_module
from groupoid_cohomology.groupoid import (
    BudgetExceeded,
    FiniteGroupoid,
    GroupoidMorphism,
    cyclic_action_groupoid,
    cyclic_group,
    pair_groupoid,
    unit_groupoid,
)
from groupoid_cohomology.randomized import random_instance

# the package exports the function `cohomology` under the module's name
cohomology_module = importlib.import_module("groupoid_cohomology.cohomology")

C2 = cyclic_group(2)
C3 = cyclic_group(3)
Z2 = FinAbGroup((2,))
Z = FinAbGroup((0,))
A22 = constant_module(C2, Z2)


def test_cochain_groups():
    assert cochain_group(C2, A22, 1).orders == (2, 2)
    assert cochain_group(C2, A22, 2).orders == (2, 2, 2, 2)
    AZ = constant_module(pair_groupoid(2), Z)
    assert cochain_group(pair_groupoid(2), AZ, 0).orders == (0, 0)


def test_degree0_differential_on_unit_groupoid_is_zero():
    U = unit_groupoid(3)
    A = constant_module(U, FinAbGroup((4,)))
    c = make_cochain(U, A, 0, [(1,), (2,), (3,)])
    assert is_zero_cochain(differential(U, A, c))


def test_unit_groupoid_differential_alternates():
    U = unit_groupoid(2)
    A = constant_module(U, FinAbGroup((4,)))
    for n in range(1, 4):
        h = differential_matrix(U, A, n)
        if n % 2 == 1:
            assert h.equals(AbHom.identity(h.source))
        else:
            assert h.is_zero()
    for n in range(1, 3):
        assert cohomology(U, A, n).is_trivial
    assert cohomology(U, A, 0) == InvariantFactors((4, 4), 0)


def test_c2_one_cocycle():
    # c(e) = 0, c(s) = 1 is a 1-cocycle but not a coboundary
    c = make_cochain(C2, A22, 1, [(0,), (1,)])
    assert is_cocycle(C2, A22, c)
    assert is_coboundary(C2, A22, c) is None
    dc = differential(C2, A22, c)
    assert is_zero_cochain(dc)


def test_degree0_matrix_is_zero_for_trivial_actions():
    assert differential_matrix(C2, A22, 0).is_zero()
    AZ = constant_module(C2, Z)
    assert differential_matrix(C2, AZ, 0).is_zero()
    assert not differential_matrix(C2, AZ, 1).is_zero()


def test_d_squared_zero_matrices():
    rng = random.Random(4)
    cases = [(C2, A22), (C3, constant_module(C3, FinAbGroup((3,))))]
    for _ in range(6):
        cases.append(random_instance(rng, max_arrows=6))
    for G, A in cases:
        for n in range(0, 3):
            d1 = differential_matrix(G, A, n)
            d2 = differential_matrix(G, A, n + 1)
            assert d2.compose(d1).is_zero()


def test_d_squared_zero_pointwise_random_cochains():
    rng = random.Random(12)
    for _ in range(8):
        G, A = random_instance(rng, max_arrows=6)
        if not A.all_fibers_finite:
            continue
        for n in range(0, 2):
            cg = cochain_group(G, A, n)
            vec = [rng.randrange(d) if d else rng.randrange(-3, 4) for d in cg.orders]
            c = unflatten_cochain(G, A, n, vec)
            assert is_zero_cochain(differential(G, A, differential(G, A, c)))


def test_golden_values_against_brute_force():
    table = cyclic_table(2)
    for n in range(3):
        lib = cohomology(C2, A22, n)
        oracle = brute_force_group_cohomology(table, 0, {0: 1, 1: 1}, 2, n)
        assert lib == oracle == InvariantFactors((2,), 0)


def test_h2_c3_z_periodic_resolution():
    AZ = constant_module(C3, Z)
    assert cohomology(C3, AZ, 2).torsion == periodic_resolution_cyclic(3, 0, 2)
    assert cohomology(C3, AZ, 1).is_trivial
    assert cohomology(C3, AZ, 0) == InvariantFactors((), 1)


def test_pair_groupoid_acyclic():
    for B in (Z2, FinAbGroup((6,)), Z):
        A = constant_module(pair_groupoid(2), B)
        assert cohomology(pair_groupoid(2), A, 1).is_trivial
        assert cohomology(pair_groupoid(2), A, 2).is_trivial
        # H^0 is one fiber
        assert cohomology(pair_groupoid(2), A, 0) == InvariantFactors(
            tuple(d for d in B.orders if d >= 2), sum(1 for d in B.orders if d == 0))


def test_invariant_sections_examples():
    neg = GModule(C2, (FinAbGroup((3,)),),
                  (AbHom.identity(FinAbGroup((3,))),
                   AbHom(FinAbGroup((3,)), FinAbGroup((3,)), IntegerMatrix.from_rows([[-1]]))))
    assert invariant_sections(C2, neg).factors.is_trivial
    assert invariant_sections(C2, A22).factors == InvariantFactors((2,), 0)
    U2 = unit_groupoid(2)
    A4 = constant_module(U2, FinAbGroup((4,)))
    assert invariant_sections(U2, A4).factors == InvariantFactors((4, 4), 0)


def test_invariant_sections_match_h0_randomized():
    rng = random.Random(77)
    for _ in range(25):
        G, A = random_instance(rng, max_arrows=10)
        inv = invariant_sections(G, A)
        assert inv.factors == cohomology(G, A, 0)
        for gen in inv.generators:
            assert is_cocycle(G, A, gen)


def test_coboundary_witness():
    rng = random.Random(5)
    for _ in range(5):
        cg = cochain_group(C2, A22, 1)
        vec = [rng.randrange(2) for _ in range(cg.ngens)]
        c = unflatten_cochain(C2, A22, 1, vec)
        d = differential(C2, A22, c)
        w = is_coboundary(C2, A22, d)
        assert w is not None
        assert differential(C2, A22, w).values == d.values
    z = zero_cochain(C2, A22, 2)
    w = is_coboundary(C2, A22, z)
    assert w is not None and is_zero_cochain(differential(C2, A22, w))


def test_functoriality_along_isomorphism():
    # relabeling the arrows of C3 leaves invariant factors unchanged
    perm = (0, 2, 1)  # swap the two generators (an automorphism of Z/3)
    iso = GroupoidMorphism(C3, C3, (0,), perm)
    assert iso.is_morphism()
    A = constant_module(C3, FinAbGroup((3,)))
    pulled = pullback_module(iso, A)
    for n in range(3):
        assert cohomology(C3, A, n) == cohomology(C3, pulled, n)


def test_matrix_realizes_pointwise_differential():
    rng = random.Random(8)
    for _ in range(10):
        G, A = random_instance(rng, max_arrows=8)
        if not A.all_fibers_finite:
            continue
        for n in range(0, 2):
            h = differential_matrix(G, A, n)
            cg = cochain_group(G, A, n)
            vec = [rng.randrange(d) if d else 0 for d in cg.orders]
            c = unflatten_cochain(G, A, n, vec)
            lhs = h.apply(flatten_cochain(G, A, c))
            rhs = flatten_cochain(G, A, differential(G, A, c))
            assert h.target.reduce(lhs) == h.target.reduce(rhs)


def test_cyclic_groups_match_periodic_resolution_closed_forms():
    """H^n(Z/m, M) for trivial M = Z or Z/a, against the frozen two-periodic
    values, for several m and degrees 0..3."""
    for m in (2, 3, 4):
        Cm = cyclic_group(m)
        for coeff in (0, 2, 3, 4, 6):
            A = constant_module(Cm, FinAbGroup((coeff,)))
            for n in range(4):
                want = periodic_resolution_cyclic(m, coeff, n)
                got = cohomology(Cm, A, n)
                if coeff == 0 and n == 0:
                    assert got == InvariantFactors((), 1)
                else:
                    assert got.free_rank == 0 and got.torsion == want, (m, coeff, n)


def test_disjoint_union_is_direct_sum():
    from groupoid_cohomology.groupoid import disjoint_union
    from groupoid_cohomology.gmodule import disjoint_union_module
    from groupoid_cohomology.abelian import canonical_form
    C2_, C3_ = cyclic_group(2), cyclic_group(3)
    A2 = constant_module(C2_, FinAbGroup((2,)))
    A3 = constant_module(C3_, FinAbGroup((3,)))
    G, inc1, inc2 = disjoint_union(C2_, C3_)
    A = disjoint_union_module(G, inc1, inc2, A2, A3)
    for n in range(3):
        left = cohomology(C2_, A2, n)
        right = cohomology(C3_, A3, n)
        combined = canonical_form(left.as_group().direct_sum(right.as_group()))
        assert cohomology(G, A, n) == combined


def test_brute_force_small_group_degrees():
    # agreement whenever |C^n| <= 2^16, degrees <= 2
    table = cyclic_table(3)
    act = {0: 1, 1: 1, 2: 1}
    A3 = constant_module(C3, FinAbGroup((3,)))
    for n in range(3):
        assert cohomology(C3, A3, n) == brute_force_group_cohomology(table, 0, act, 3, n)
    # twisted: C2 on Z/3 by negation
    tbl2 = cyclic_table(2)
    neg = GModule(C2, (FinAbGroup((3,)),),
                  (AbHom.identity(FinAbGroup((3,))),
                   AbHom(FinAbGroup((3,)), FinAbGroup((3,)), IntegerMatrix.from_rows([[-1]]))))
    for n in range(3):
        assert cohomology(C2, neg, n) == brute_force_group_cohomology(
            tbl2, 0, {0: 1, 1: 2}, 3, n)


def _random_values(rng, G, A, n):
    """Unreduced values of either sign, one tuple per level-n tuple."""
    return Cochain(n, tuple(tuple(rng.randint(-40, 40) for _ in A.fiber(t.obj).orders)
                            for t in G.nerve(n)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_differential_matches_face_walk(seed):
    # the face-table walk, the assembled matrix and the arrow-tuple face
    # table against one face call per face, at degrees 0-3 and with Z fibers
    # among the draws
    rng = random.Random(seed)
    G, A = random_instance(rng, max_arrows=6, allow_infinite=True)
    for n in range(4):
        assert G.face_table(n) == face_table_by_faces(G, n)
        c = _random_values(rng, G, A, n)
        d = differential(G, A, c)
        want = differential_by_faces(G, A, c)
        assert d.values == want
        assert differential_matrix(G, A, n).apply(flatten_cochain(G, A, c)) \
            == flatten_cochain(G, A, d)
        assert is_cocycle(G, A, c) == all(not any(v) for v in want)
        if n < 3:
            assert is_cocycle(G, A, d)


def test_differential_is_per_module():
    # C2 acting trivially and by -1 on Z/3 over one groupoid object: nothing
    # computed for one module may serve the other
    G = cyclic_group(2)
    Z3 = FinAbGroup((3,))
    trivial = constant_module(G, Z3)
    negated = GModule(G, (Z3,), (AbHom.identity(Z3), AbHom(Z3, Z3, IntegerMatrix.from_rows([[-1]]))))
    c = Cochain(1, ((0,), (1,)))
    d = [differential(G, A, c) for A in (trivial, negated)]
    assert d[0].values != d[1].values
    for A, dc in zip((trivial, negated), d):
        assert dc.values == differential_by_faces(G, A, c)
    assert is_cocycle(G, negated, c) and not is_cocycle(G, trivial, c)
    assert differential_matrix(G, trivial, 1).matrix != differential_matrix(G, negated, 1).matrix


def test_is_cocycle_walks_the_cached_face_table(monkeypatch):
    # repeated calls on one (G, A, n) build the face table once and assemble
    # no matrix
    calls = []
    monkeypatch.setattr(cohomology_module, "assemble_coboundary",
                        lambda *args: calls.append(args))
    faces = FiniteGroupoid._faces
    monkeypatch.setattr(FiniteGroupoid, "_faces",
                        lambda self, n, normalized: calls.append(n) or faces(self, n, normalized))
    G = cyclic_group(3)
    A = constant_module(G, FinAbGroup((3,)))
    rng = random.Random(4)
    answers = [is_cocycle(G, A, _random_values(rng, G, A, 2)) for _ in range(20)]
    d = differential(G, A, _random_values(rng, G, A, 2))
    assert calls == [2] and not all(answers) and is_cocycle(G, A, d)


def record_assembly(monkeypatch, module):
    """Record, in order, the arguments of every assemble_coboundary call made
    through `module` and the hom it returned."""
    calls = []
    assemble = cohomology_module.assemble_coboundary

    def spy(*args):
        calls.append((args, assemble(*args)))
        return calls[-1][1]
    monkeypatch.setattr(module, "assemble_coboundary", spy)
    return calls


def assert_matches_dense_assembler(calls):
    for args, h in calls:
        assert all(x for col in h.columns for x in col.values())
        assert [list(row) for row in h.matrix.entries] == dense_coboundary(*args)


# the complexes of the benchmark ladder: (builder, size, coefficient order, degree)
LADDER = [(cyclic_group, 3, 3, 4), (cyclic_group, 4, 4, 3), (cyclic_group, 5, 5, 2),
          (cyclic_group, 6, 6, 2), (pair_groupoid, 4, 2, 2), (cyclic_group, 3, 0, 3)]


def test_assembled_columns_match_the_dense_assembler(monkeypatch):
    calls = record_assembly(monkeypatch, cohomology_module)
    cases = []
    for build, m, order, n in LADDER:
        G = build(m)
        cases.append((G, constant_module(G, FinAbGroup((order,))), n))
    Z3 = FinAbGroup((3,))
    negated = GModule(C2, (Z3,), (AbHom.identity(Z3), AbHom(Z3, Z3, IntegerMatrix.from_rows([[-1]]))))
    cases += [(C2, negated, n) for n in range(4)]
    rng = random.Random(11)
    cases += [(*random_instance(rng, max_arrows=8, allow_infinite=True), n % 3) for n in range(12)]
    for G, A, n in cases:
        cohomology(G, A, n)
    assert len(calls) == sum(2 if n else 1 for _, _, n in cases)
    assert_matches_dense_assembler(calls)


def test_factors_only_cohomology_builds_no_dense_matrix(monkeypatch):
    # the dense view of a hom is cached on the instance when first read
    # and it assembles the normalized complex only: (4 - 1)^n cells in degree n
    built, flags = [], []
    real = cohomology_module.differential_matrix

    def spy(G, A, n, normalized=False):
        flags.append(normalized)
        built.append(real(G, A, n, normalized))
        return built[-1]
    monkeypatch.setattr(cohomology_module, "differential_matrix", spy)
    C4 = cyclic_group(4)
    A = constant_module(C4, FinAbGroup((4,)))
    assert cohomology(C4, A, 3) == InvariantFactors((4,), 0)
    assert flags == [True, True]
    assert [h.source.ngens for h in built] == [9, 27]
    assert built[-1].target.ngens == 81
    assert not any("matrix" in vars(h) for h in built + list(A.actions))


def test_factors_only_c8_degree_three_is_bounded():
    C8 = cyclic_group(8)
    with time_limit(1.2):
        got = cohomology(C8, constant_module(C8, FinAbGroup((8,))), 3)
    assert got == InvariantFactors((8,), 0)


def test_nerve_levels_are_charged_to_the_cell_budget():
    # factors-only H^6 reads the nondegenerate levels 5 to 7; level 7 of C8
    # has 7^7 > 200,000 tuples, counted from level 6 and refused before it is
    # built; no level of the full nerve is built
    C8 = cyclic_group(8)
    with pytest.raises(BudgetExceeded,
                       match="nerve level 7 has 823543 nondegenerate tuples") as err:
        cohomology(C8, constant_module(C8, FinAbGroup((8,))), 6)
    assert err.value.estimate == 823_543
    assert not any(isinstance(k, int) for k in C8._nerve_cache)
    built = {k[1] for k in C8._nerve_cache if k[0] == "nondegenerate"}
    assert 6 in built and built <= set(range(7))


def _normalization_cases():
    """(G, A, top): every random_instance of seeds 0-149 with up to 8 arrows,
    finite and not, and the pair, action and twisted builders."""
    cases = [(*random_instance(random.Random(seed), max_arrows=8, allow_infinite=infinite), 3)
             for seed in range(150) for infinite in (False, True)]
    Z5 = FinAbGroup((5,))
    twisted = GModule(cyclic_group(4), (Z5,), tuple(
        AbHom(Z5, Z5, IntegerMatrix.from_rows([[2 ** k]])) for k in range(4)))
    Z3 = FinAbGroup((3,))
    negated = GModule(C2, (Z3,), (AbHom.identity(Z3), AbHom(Z3, Z3, IntegerMatrix.from_rows([[-1]]))))
    negated_z = GModule(C2, (Z,), (AbHom.identity(Z), AbHom(Z, Z, IntegerMatrix.from_rows([[-1]]))))
    for G, B in [(pair_groupoid(3), FinAbGroup((2,))), (pair_groupoid(2), Z),
                 (cyclic_action_groupoid(3, (1, 2, 0)), FinAbGroup((3,))),
                 (cyclic_action_groupoid(4, (1, 0, 2)), FinAbGroup((2, 4))),
                 (cyclic_group(3), Z)]:
        cases.append((G, constant_module(G, B), 4))
    return cases + [(twisted.base, twisted, 4), (C2, negated, 4), (C2, negated_z, 4)]


def normalization_mismatches(cases):
    """The (case, degree, full, normalized) where the factors-only
    `cohomology` differs from the full bar complex; a map that is not a
    differential reads as None."""
    out = []
    for i, (G, A, top) in enumerate(cases):
        full = cochain_complex(G, A, top + 1)
        for n in range(top + 1):
            want = homology_at(full, n)
            try:
                got = cohomology(G, A, n)
            except ArithmeticError:
                got = None
            if got != want:
                out.append((i, n, want, got))
    return out


def test_normalized_factors_match_the_full_bar_complex():
    assert normalization_mismatches(_normalization_cases()) == []


def test_normalized_complex_is_smaller_and_skips_degenerate_faces():
    # C_m has (m - 1)^n nondegenerate n-tuples; in C3, (1, 2) has the unit
    # 1 + 2 as its only inner face
    C6 = cyclic_group(6)
    assert [len(C6.nondegenerate(n)) for n in range(5)] == [1, 5, 25, 125, 625]
    assert C3.face_table(1, normalized=True) == [(0, 1, 0), (1, None, 0), (0, None, 1), (1, 0, 1)]
    h = differential_matrix(C3, constant_module(C3, FinAbGroup((3,))), 1, normalized=True)
    assert (h.source.ngens, h.target.ngens) == (2, 4)


def test_dropping_the_sign_of_a_degenerate_face_is_caught(monkeypatch):
    # negative control: a map that deletes the degenerate faces, so the faces
    # after one lose their sign flip, fails the comparison above
    assemble = cohomology_module.assemble_coboundary
    monkeypatch.setattr(cohomology_module, "assemble_coboundary", lambda src, tgt, table: assemble(
        src, tgt, [[face for face in row if face[0] is not None] for row in table]))
    assert normalization_mismatches(_normalization_cases()[-8:])


def test_factors_only_c6_degree_five_is_bounded():
    # the normalized complex has 5^4, 5^5 and 5^6 cells in degrees 4-6
    C6 = cyclic_group(6)
    with time_limit(2.5):
        got = cohomology(C6, constant_module(C6, FinAbGroup((6,))), 5)
    assert got == InvariantFactors((6,), 0)
