import importlib
import itertools
import random

import pytest
from oracles import (
    basis_cochains,
    coboundary_by_cells,
    cochain_by_cells,
    pull_back_by_cells,
    random_cochain_by_cells,
)
from test_cohomology import assert_matches_dense_assembler, record_assembly
from timing import time_limit

from groupoid_cohomology.abelian import (
    AbHom,
    FinAbGroup,
    IntegerMatrix,
    InvariantFactors,
    image_membership_witness,
)
from groupoid_cohomology.cech import (
    Budget,
    BudgetExceeded,
    ConstantCoefficients,
    ConstantSpace,
    Cover,
    InducedSimplicialCover,
    MaximalSimplicialCover,
    ModuleCoefficients,
    NerveSpace,
    Refinement,
    SigmaCover,
    SigmaNSimplicialCover,
    SimplicialCoverComplex,
    assemble_complex,
    cech_cohomology_on_cover,
    check_homotopy_identity,
    complex_coordinates,
    constant_space_comparison,
    face_table,
    homotopy_operator,
    refinement_map,
    single_set_cover,
    sigma_cover,
    use_budget,
)
from groupoid_cohomology.cohomology import (
    Cochain,
    assemble_coboundary,
    cohomology,
    invariant_sections,
    is_zero_cochain,
)
from groupoid_cohomology.gmodule import GModule, constant_module
from groupoid_cohomology.groupoid import (
    MonotoneMap,
    all_monotone_maps,
    all_strict_maps,
    cyclic_group,
    pair_groupoid,
    simplicial_map,
)
from groupoid_cohomology.abelian import homology_at
from groupoid_cohomology.randomized import (
    _random_fine_cover,
    _random_space_and_coeffs,
    random_coarsening,
    random_cochain,
    random_instance,
    random_refinement_pair,
    run_homotopy_trials,
)

C2 = cyclic_group(2)
Z2 = FinAbGroup((2,))
A22 = constant_module(C2, Z2)


def test_sigma_single_set_cover_is_singleton():
    space = NerveSpace(C2)
    cov = single_set_cover(space, 3)
    fam = sigma_cover(space, cov, 3)
    for n in range(3):
        assert fam.candidate_count(n) == 1
        assert len(fam.indices(n)) == 1
        lam = fam.indices(n)[0]
        assert set(fam.points_of(n, lam)) == set(space.points(n))


def test_sigma_two_point_constant_space_candidates():
    space = ConstantSpace(2)
    cov = Cover.from_sets([[{0}, {1}] for _ in range(3)])
    fam = sigma_cover(space, cov, 2)
    # two vertex slots and one edge slot, two choices each
    assert fam.candidate_count(1) == 8
    nonempty = fam.indices(1)
    assert len(nonempty) == 2  # only the index-coherent choices survive
    all_pieces = fam.all_lambda(1)
    assert len(all_pieces) == 8
    assert sum(1 for _, pts in all_pieces if pts) == 2


def test_sigma_maximal_cover_coherent_indices():
    space = NerveSpace(C2)
    fam = sigma_cover(space, MaximalSimplicialCover(space), 3)
    for n in range(3):
        assert len(fam.indices(n)) == len(space.points(n))
        for lam in fam.indices(n):
            assert len(fam.points_of(n, lam)) == 1


def test_budget_rejection_reports_estimate():
    """Every overrun names its stage and estimates the size it refused."""
    space = ConstantSpace(3)
    cov = Cover.from_sets([[{0, 1, 2}] * 4 for _ in range(4)])
    fam = SigmaCover(space, cov, 3)
    c3 = NerveSpace(cyclic_group(3))
    per_point = SigmaCover(c3, MaximalSimplicialCover(c3), 2)
    z3 = ConstantCoefficients(FinAbGroup((3,)))
    c3_sigma = SigmaCover(c3, MaximalSimplicialCover(c3), 2)
    # sigma levels are checked when built, so build these under the default
    # budget: only the assembly below is to meet max_cells=2
    for n in range(3):
        c3_sigma.indices(n)
    for overrun, budget, cap, stage in [
        # every candidate index of a four-piece cover at level 2
        (lambda: fam.all_lambda(2), Budget(max_candidates=10, max_per_point=10, max_cells=10),
         10, "sigma cover has"),
        # the sigma indices at one point of C3's nerve
        (lambda: per_point.indices(1), Budget(max_per_point=0), 0,
         "too many nonempty sigma indices per point"),
        # the coordinates of one level of an assembled complex
        (lambda: assemble_complex(c3, z3, c3_sigma, 2), Budget(max_cells=2), 2,
         "complex level 1"),
    ]:
        with use_budget(budget), pytest.raises(BudgetExceeded, match=stage) as err:
            overrun()
        assert err.value.estimate is not None and err.value.estimate > cap, stage


def test_cover_complex_honours_the_cell_budget():
    space = ConstantSpace(3)
    cover = InducedSimplicialCover(space, [{0, 1}, {1, 2}, {0, 2}])
    fam = SimplicialCoverComplex(space, cover, 2)
    assert sum(len(fam.points_of(2, label)) for label in fam.indices(2)) == 24
    capped = SimplicialCoverComplex(space, cover, 2)
    with use_budget(Budget(max_cells=5)), pytest.raises(BudgetExceeded) as err:
        capped.indices(2)
    assert err.value.estimate == 24


def _random_space_and_covers(seed, top):
    """A seeded space with a fine simplicial cover and a plain coarsening."""
    rng = random.Random(seed)
    space, _, _ = _random_space_and_coeffs(rng)
    fine = _random_fine_cover(rng, space, top)
    return rng, space, fine, random_coarsening(rng, space, fine, top)


@pytest.mark.parametrize("seed", range(12))
def test_pruned_sigma_levels_are_the_nonempty_candidates(seed):
    """indices/points_of against the unpruned all_lambda reference."""
    _, space, fine, coarse = _random_space_and_covers(seed, 2)
    for cov in (coarse, fine):
        fam = SigmaCover(space, cov, 2)
        for n in range(3):
            if fam.candidate_count(n) > 5000:
                continue
            want = {label: tuple(sorted(pts)) for label, pts in fam.all_lambda(n) if pts}
            assert fam.indices(n) == tuple(sorted(want))
            assert {label: fam.points_of(n, label) for label in fam.indices(n)} == want


@pytest.mark.parametrize("seed", range(12))
def test_sigma_n_pieces_agree_with_containing(seed):
    """p lies in set_of(n, label) exactly when label is in containing(n, p),
    on every nonempty label and on random candidates."""
    rng, space, fine, coarse = _random_space_and_covers(seed, 2)
    covers = [SigmaNSimplicialCover(space, coarse, N=1)]
    if isinstance(fine, SigmaNSimplicialCover):
        covers.append(fine)
    for V in covers:
        for n in range(2):
            holding = {p: set(V.containing(n, p)) for p in space.points(n)}
            labels = set().union(*holding.values())
            labels.update(tuple(rng.choice(V.base.indices(f.domain)) for f in V.slots(n))
                          for _ in range(20))
            for label in labels:
                assert V.set_of(n, label) == {p for p, held in holding.items() if label in held}


def _nerve_position(G, k, t):
    return t.obj if k == 0 else G.nerve_index(k)[t.arrows]


@pytest.mark.parametrize("builder", [lambda: random_instance(random.Random(s))[0]
                                     for s in range(50)]
                         + [lambda: cyclic_group(3), lambda: pair_groupoid(3)],
                         ids=[f"seed{s}" for s in range(50)] + ["cyclic3", "pair3"])
def test_structure_map_tables_match_simplicial_map(builder):
    """Each table sends a point's position to the nerve_index position of its
    image under simplicial_map: every strictly increasing map into [n] for
    n <= 4 (built from the face tables), every degeneracy [n+1] -> [n] for
    n <= 3 and every monotone map [k] -> [n] for k, n <= 2 (built point by
    point); smap reads the same image."""
    G = builder()
    space = NerveSpace(G)
    maps = [f for n in range(5) for k in range(n + 1) for f in all_strict_maps(k, n)]
    maps += [MonotoneMap.degeneracy(n, i) for n in range(4) for i in range(n + 1)]
    maps += [f for n in range(3) for k in range(3) for f in all_monotone_maps(k, n)]
    for f in maps:
        table = space.table(f)
        assert len(table) == len(G.nerve(f.codomain))
        for i, t in enumerate(G.nerve(f.codomain)):
            image = simplicial_map(G, f, t)
            assert table[i] == _nerve_position(G, f.domain, image), (f, t)
            assert space.smap(f, t) == image


@pytest.mark.parametrize("seed", range(12))
def test_containment_levels_are_the_per_point_products(seed):
    """containing_level(n) lists, by position, the product over the slots of
    the base indices holding simplicial_map's image of each point (the
    point itself on a constant space); containing(n, p) reads it."""
    _, space, fine, coarse = _random_space_and_covers(seed, 2)
    G = getattr(space, "groupoid", None)
    covers = [SigmaCover(space, cov, 2) for cov in (coarse, fine)]
    covers += [SigmaNSimplicialCover(space, coarse, N=1)]
    if isinstance(fine, SigmaNSimplicialCover):
        covers.append(fine)
    for V in covers:
        for n in range(3):
            slots = [MonotoneMap(n, s) if isinstance(s, tuple) else s for s in V.slots(n)]
            level = V.containing_level(n)
            assert len(level) == len(space.points(n))
            for i, p in enumerate(space.points(n)):
                pools = [V.base.containing(f.domain, p if G is None else simplicial_map(G, f, p))
                         for f in slots]
                assert level[i] == V.containing(n, p) == tuple(itertools.product(*pools))


def test_differential_telescopes_on_constant_cochain():
    space = ConstantSpace(2)
    cov = single_set_cover(space, 4)
    fam = sigma_cover(space, cov, 4)
    coeffs = ConstantCoefficients(FinAbGroup((5,)))
    for n in range(0, 3):
        d = face_table(space, coeffs, fam, n)
        dc = d.apply(Cochain(n, ((2,),) * len(d.source)))
        if n % 2 == 0:  # n+2 terms alternating: zero for even n
            assert is_zero_cochain(dc)
        else:
            assert dc.values and all(v == (2,) for v in dc.values)


def test_degree0_cocycle_condition_is_moore():
    """The sigma differential at degree 0 on the maximal nerve cover is
    g.c(s(g)) - c(r(g)), the invariant-section condition."""
    space = NerveSpace(C2)
    neg_fib = FinAbGroup((3,))
    A = GModule(C2, (neg_fib,),
                (AbHom.identity(neg_fib),
                 AbHom(neg_fib, neg_fib, IntegerMatrix.from_rows([[-1]]))))
    coeffs = ModuleCoefficients(A)
    fam = sigma_cover(space, MaximalSimplicialCover(space), 2)
    d = face_table(space, coeffs, fam, 0)
    dc = d.apply(Cochain(0, ((1,),) * len(d.source)))
    for vals in cochain_by_cells(fam, dc).values():
        (point, value), = vals.items()
        g = point.arrows[0]
        expect = neg_fib.sub(A.act(g, (1,)), (1,))
        assert value == expect


def test_dd_zero_on_sigma_complexes():
    rng = random.Random(6)
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    for cov in (single_set_cover(space, 4), MaximalSimplicialCover(space)):
        fam = sigma_cover(space, cov, 4)
        for n in range(0, 2):
            c = random_cochain(space, coeffs, fam, n, rng)
            dd = face_table(space, coeffs, fam, n + 1).apply(
                face_table(space, coeffs, fam, n).apply(c))
            assert is_zero_cochain(dd)


def test_cech_matches_groupoid_cohomology():
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    for n in range(3):
        want = cohomology(C2, A22, n)
        assert cech_cohomology_on_cover(space, coeffs, MaximalSimplicialCover(space), n) == want
        assert cech_cohomology_on_cover(space, coeffs, single_set_cover(space, n + 1), n) == want


def test_cech_c5_maximal_cover_degree_two_is_bounded():
    # the dense final SNF grew entries past 2,000 bits here and ran for
    # over ten minutes
    C5 = cyclic_group(5)
    space = NerveSpace(C5)
    coeffs = ModuleCoefficients(constant_module(C5, FinAbGroup((5,))))
    with time_limit(30):
        got = cech_cohomology_on_cover(space, coeffs, MaximalSimplicialCover(space), 2)
    assert got == InvariantFactors((5,), 0)


def test_cyclic_six_degree_three_is_bounded():
    # 216 -> 1296 cochain generators; the dense path took minutes
    C6 = cyclic_group(6)
    with time_limit(10):
        got = cohomology(C6, constant_module(C6, FinAbGroup((6,))), 3)
    assert got == InvariantFactors((6,), 0)


def test_cech_constant_space_partition():
    space = ConstantSpace(2)
    coeffs = ConstantCoefficients(FinAbGroup((0,)))
    cov = Cover.from_sets([[{0}, {1}] for _ in range(4)])
    assert cech_cohomology_on_cover(space, coeffs, cov, 0) == InvariantFactors((), 2)
    for n in (1, 2):
        assert cech_cohomology_on_cover(space, coeffs, cov, n).is_trivial


def test_sigma_h0_equals_invariant_sections():
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    fam = sigma_cover(space, single_set_cover(space, 1), 1)
    cx = assemble_complex(space, coeffs, fam, 1)
    assert homology_at(cx, 0) == invariant_sections(C2, A22).factors


def test_cech_c5_maximal_cover_degree_three_is_bounded():
    # assembling through one zero cochain per generator took 13 s here
    C5 = cyclic_group(5)
    space = NerveSpace(C5)
    coeffs = ModuleCoefficients(constant_module(C5, FinAbGroup((5,))))
    with time_limit(5):
        got = cech_cohomology_on_cover(space, coeffs, MaximalSimplicialCover(space), 3)
    assert got == InvariantFactors((5,), 0)


def _twisted_c2(order):
    """C2 acting by -1 on Z/order (order 0: on Z)."""
    fib = FinAbGroup((order,))
    return GModule(C2, (fib,), (AbHom.identity(fib),
                                AbHom(fib, fib, IntegerMatrix.from_rows([[-1]]))))


def _assembly_cases():
    rng = random.Random(31)
    nerve = NerveSpace(C2)
    cases = []
    for order in (3, 0):
        coeffs = ModuleCoefficients(_twisted_c2(order))
        V = MaximalSimplicialCover(nerve)
        covers = [("single", single_set_cover(nerve, 3)), ("maximal", V)]
        covers += [(f"coarsened{i}", random_coarsening(rng, nerve, V, 3, max_sets=2))
                   for i in range(2)]
        for name, cov in covers:
            cases.append((f"C2 on Z/{order}, {name}", nerve, coeffs, sigma_cover(nerve, cov, 3), 3))
        induced = InducedSimplicialCover(nerve, [set(nerve.points(0))] * 2)
        cases.append((f"C2 on Z/{order}, induced plain", nerve, coeffs,
                      SimplicialCoverComplex(nerve, induced, 3), 3))
    comp = constant_space_comparison(2, [{0, 1}, {1}], FinAbGroup((0,)), top=1)
    cases.append(("constant Z, induced sigma", comp.space, comp.coeffs, comp.sigma, 2))
    cases.append(("constant Z, induced plain", comp.space, comp.coeffs, comp.plain, 2))
    return cases


@pytest.mark.parametrize("case", _assembly_cases(), ids=lambda case: case[0])
def test_assembled_columns_match_the_cochain_differential(case):
    """Each column of the assembled map is, modulo the target orders, the
    differential of the matching indicator cochain, summed face by face on
    dictionaries (the reference construction assembly used before face
    tables)."""
    _, space, coeffs, fam, top = case
    cx = assemble_complex(space, coeffs, fam, top)
    for n in range(top):
        h = cx.maps[n]
        basis = list(basis_cochains(coeffs, fam, n))
        assert len(basis) == h.matrix.cols
        for j, c in enumerate(basis):
            dc = coboundary_by_cells(space, coeffs, fam, n, cochain_by_cells(fam, c))
            want = tuple(x for vals in dc.values() for v in vals.values() for x in v)
            assert h.target.reduce(h.matrix.col(j)) == want


@pytest.mark.parametrize("case", _assembly_cases(), ids=lambda case: case[0])
def test_assembled_columns_match_the_dense_assembler(monkeypatch, case):
    _, space, coeffs, fam, top = case
    calls = record_assembly(monkeypatch, importlib.import_module("groupoid_cohomology.cech"))
    cx = assemble_complex(space, coeffs, fam, top)
    assert [h for _, h in calls] == list(cx.maps)
    assert_matches_dense_assembler(calls)


def _identity_refinement(space, cov, top):
    tables = []
    for n in range(top + 1):
        labels = set()
        for p in space.points(n):
            labels.update(cov.containing(n, p))
        tables.append({j: j for j in labels})
    return Refinement(cov, cov, tuple(tables))


def test_refinement_identity_and_functoriality():
    rng = random.Random(2)
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    V = MaximalSimplicialCover(space)
    sV = SigmaCover(space, V, 3)
    ident = _identity_refinement(space, V, 3)
    for n in (0, 1, 2):
        c = random_cochain(space, coeffs, sV, n, rng)
        assert refinement_map(space, coeffs, sV, sV, ident, n).apply(c) == c
    # composite of single -> maximal with identity equals itself
    U = single_set_cover(space, 3)
    sU = SigmaCover(space, U, 3)
    theta = Refinement(U, V, tuple({p: 0 for p in space.points(n)} for n in range(4)))
    for n in (1, 2):
        c = random_cochain(space, coeffs, sU, n, rng)
        once = refinement_map(space, coeffs, sU, sV, theta, n).apply(c)
        again = refinement_map(space, coeffs, sV, sV, ident, n).apply(once)
        assert once == again


def test_refinement_commutes_with_differential():
    rng = random.Random(13)
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    U = single_set_cover(space, 3)
    V = MaximalSimplicialCover(space)
    sU = SigmaCover(space, U, 3)
    sV = SigmaCover(space, V, 3)
    theta = Refinement(U, V, tuple({p: 0 for p in space.points(n)} for n in range(4)))
    for n in (0, 1):
        c = random_cochain(space, coeffs, sU, n, rng)
        lhs = refinement_map(space, coeffs, sU, sV, theta, n + 1).apply(
            face_table(space, coeffs, sU, n).apply(c))
        rhs = face_table(space, coeffs, sV, n).apply(
            refinement_map(space, coeffs, sU, sV, theta, n).apply(c))
        assert lhs == rhs


def _class_difference_is_coboundary(space, coeffs, fam, c1, c2, n):
    cx = assemble_complex(space, coeffs, fam, n + 1)
    fibers = [fib for *_, fib in complex_coordinates(space, coeffs, fam, n)]
    diff = tuple(x for fib, v, w in zip(fibers, c1.values, c2.values) for x in fib.sub(v, w))
    if n == 0:
        return all(x % d == 0 if d else x == 0
                   for x, d in zip(diff, cx.groups[0].orders))
    return image_membership_witness(cx.maps[n - 1], diff) is not None


def test_coarse_to_maximal_refinement_iso_on_h2():
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    U = single_set_cover(space, 3)
    V = MaximalSimplicialCover(space)
    sU = SigmaCover(space, U, 3)
    sV = SigmaCover(space, V, 3)
    theta = Refinement(U, V, tuple({p: 0 for p in space.points(n)} for n in range(4)))
    # a generator of H^2 on the single-set cover = the groupoid H^2 generator
    cxU = assemble_complex(space, coeffs, sU, 3)
    factors, gens = homology_at(cxU, 2, with_generators=True)
    assert factors == InvariantFactors((2,), 0)
    layout = [(lab, p, fib) for lab in sU.indices(2) for p in sU.points_of(2, lab)
              for fib in [coeffs.fiber(2, p)]]
    vec = gens[0]
    values, pos = [], 0
    for lab, p, fib in layout:
        values.append(fib.reduce(tuple(vec[pos:pos + fib.ngens])))
        pos += fib.ngens
    mapped = refinement_map(space, coeffs, sU, sV, theta, 2).apply(Cochain(2, tuple(values)))
    assert is_zero_cochain(face_table(space, coeffs, sV, 2).apply(mapped))
    zero = Cochain(2, tuple(fib.zero() for *_, fib in complex_coordinates(space, coeffs, sV, 2)))
    # the image class is nonzero, and H^2 on both sides is Z/2: isomorphism
    assert not _class_difference_is_coboundary(space, coeffs, sV, mapped, zero, 2)
    assert cech_cohomology_on_cover(space, coeffs, V, 2) == factors


def test_refinement_independence_on_cohomology():
    """Any two refinements of the same pair induce the same map on H^n."""
    rng = random.Random(14)
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    V = MaximalSimplicialCover(space)
    for _ in range(4):
        U = random_coarsening(rng, space, V, 3)
        th0, th1 = random_refinement_pair(rng, space, V, U, 3)
        sU = SigmaCover(space, U, 3)
        sV = SigmaCover(space, V, 3)
        for n in (1, 2):
            d = face_table(space, coeffs, sU, n)
            t0, t1 = (refinement_map(space, coeffs, sU, sV, th, n) for th in (th0, th1))
            for phi in basis_cochains(coeffs, sU, n):
                if not is_zero_cochain(d.apply(phi)):
                    continue
                assert _class_difference_is_coboundary(space, coeffs, sV, t1.apply(phi),
                                                       t0.apply(phi), n)


def test_equal_refinements_give_zero_homotopy_side():
    rng = random.Random(21)
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    V = MaximalSimplicialCover(space)
    U = random_coarsening(rng, space, V, 3)
    theta, _ = random_refinement_pair(rng, space, V, U, 3)
    for n in (1, 2):
        sU = SigmaCover(space, U, n + 1)
        phi = random_cochain(space, coeffs, sU, n, rng)
        lhs, rhs = check_homotopy_identity(space, coeffs, sU, V, theta, theta, phi)
        assert is_zero_cochain(rhs)
        assert is_zero_cochain(lhs)


def test_homotopy_at_degree_zero_on_cocycles():
    # H lands in C^{-1} = 0, so theta0* and theta1* agree on 0-cocycles
    rng = random.Random(22)
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    V = MaximalSimplicialCover(space)
    for _ in range(5):
        U = random_coarsening(rng, space, V, 1)
        th0, th1 = random_refinement_pair(rng, space, V, U, 1)
        sU = SigmaCover(space, U, 1)
        sV = SigmaCover(space, V, 1)
        cx = assemble_complex(space, coeffs, sU, 1)
        # enumerate 0-cocycles via the kernel of the assembled map
        d = face_table(space, coeffs, sU, 0)
        t0, t1 = (refinement_map(space, coeffs, sU, sV, th, 0) for th in (th0, th1))
        for basis in basis_cochains(coeffs, sU, 0):
            if not is_zero_cochain(d.apply(basis)):
                continue
            assert t0.apply(basis) == t1.apply(basis)


def test_error_paths():
    from groupoid_cohomology.abelian import ShapeError
    from groupoid_cohomology.cech import validate_refinement
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    U = single_set_cover(space, 2)
    fam = sigma_cover(space, U, 2)
    with pytest.raises(ShapeError, match="cochain has 0 cells"):
        face_table(space, coeffs, fam, 1).apply(Cochain(1, ()))
    # a plain cover has no index degeneracies, so it cannot be a homotopy target
    sU = SigmaCover(space, U, 2)
    with pytest.raises(ShapeError, match="simplicial index structure"):
        homotopy_operator(space, coeffs, sU, sU, U, None, None, 1, {})
    # nor is sigma: it is only semi-simplicial
    with pytest.raises(ShapeError, match="simplicial index structure"):
        homotopy_operator(space, coeffs, sU, sU, sU, None, None, 1, {})
    # refinement containment violations are caught by validation
    V = MaximalSimplicialCover(space)
    bogus = []
    for n in range(3):
        table = {}
        for p in space.points(n):
            table[p] = 0
        bogus.append(table)
    ref = Refinement(Cover.from_sets([[set(space.points(n)) - {space.points(n)[0]}]
                                      for n in range(3)]), V, tuple(bogus))
    with pytest.raises(ValueError, match="containment"):
        validate_refinement(space, ref, 2)


def test_homotopy_identity_randomized_small():
    rep = run_homotopy_trials(seed=101, count=30)
    assert rep.ok
    # the kinds drawn, frozen: a change in how covers are enumerated that
    # moves the random stream changes this list
    N, C = "nerve", "constant"
    I, M, S = "InducedSimplicialCover", "MaximalSimplicialCover", "SigmaNSimplicialCover"
    assert [(t.degree, t.space_kind, t.fine_kind) for t in rep.trials] == [
        (1, C, I), (2, N, S), (1, N, S), (2, N, M), (1, C, I), (2, N, I),
        (1, N, S), (2, C, M), (1, C, I), (2, N, M), (1, C, S), (2, C, I),
        (1, C, I), (2, N, M), (1, N, S), (2, C, M), (1, N, M), (2, N, I),
        (1, N, S), (2, N, I), (1, C, S), (2, N, I), (1, N, M), (2, N, S),
        (1, N, S), (2, N, I), (1, C, I), (2, C, M), (1, N, M), (2, N, M)]


def test_homotopy_identity_on_sigma_n_cover():
    rng = random.Random(17)
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    base = Cover.from_sets([[frozenset({p}) for p in space.points(n)]
                            for n in range(4)])
    V = SigmaNSimplicialCover(space, base, N=3)
    U = random_coarsening(rng, space, V, 3)
    th0, th1 = random_refinement_pair(rng, space, V, U, 3)
    for n in (1, 2):
        sU = SigmaCover(space, U, n + 1)
        phi = random_cochain(space, coeffs, sU, n, rng)
        lhs, rhs = check_homotopy_identity(space, coeffs, sU, V, th0, th1, phi)
        assert lhs == rhs


def test_canonical_sigma_n_refinement():
    from groupoid_cohomology.cech import refinement_into_sigma_n, validate_refinement
    rng = random.Random(19)
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    base = Cover.from_sets([[frozenset({p}) for p in space.points(n)]
                            for n in range(3)])
    V = SigmaNSimplicialCover(space, base, N=2)
    canonical = refinement_into_sigma_n(space, V, 2)
    validate_refinement(space, canonical, 2)
    with pytest.raises(ValueError, match="no identity slot"):
        refinement_into_sigma_n(space, V, 3)
    # pair the canonical refinement with a random one in the lemma
    _, other = random_refinement_pair(rng, space, V, base, 2)
    sU = SigmaCover(space, base, 2)
    phi = random_cochain(space, coeffs, sU, 1, rng)
    lhs, rhs = check_homotopy_identity(space, coeffs, sU, V, canonical, other, phi)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# constant-space comparison


def test_constant_comparison_partitions_exhaustive():
    for npts, sets, group in [(2, [{0}, {1}], FinAbGroup((2,))),
                              (3, [{0}, {1}, {2}], FinAbGroup((3,)))]:
        comp = constant_space_comparison(npts, sets, group, top=2)
        sp, cf = comp.space, comp.coeffs
        for n in range(3):
            q, iota = comp.q(n), comp.iota(n)
            for c in basis_cochains(cf, comp.plain, n):
                assert q.apply(iota.apply(c)) == c
            for phi in basis_cochains(cf, comp.sigma, n):
                lhs, rhs = comp.check_identities(phi)
                assert lhs == rhs


def test_constant_comparison_overlap_random():
    rng = random.Random(3)
    comp = constant_space_comparison(3, [{0, 1}, {1, 2}], FinAbGroup((4,)), top=2)
    sp, cf = comp.space, comp.coeffs
    for n in range(3):
        for _ in range(2):
            c = random_cochain(sp, cf, comp.plain, n, rng)
            assert comp.q(n).apply(comp.iota(n).apply(c)) == c
            phi = random_cochain(sp, cf, comp.sigma, n, rng)
            lhs, rhs = comp.check_identities(phi)
            assert lhs == rhs


def test_constant_comparison_cohomology():
    # partition covers on discrete spaces: H^0 = Z^points, higher vanishes
    Z = FinAbGroup((0,))
    for npts in (2, 3):
        sets = [{i} for i in range(npts)]
        comp = constant_space_comparison(npts, sets, Z, top=2)
        cx_sigma = assemble_complex(comp.space, comp.coeffs, comp.sigma, 3)
        cx_plain = assemble_complex(comp.space, comp.coeffs, comp.plain, 3)
        for n in range(3):
            want = InvariantFactors((), npts) if n == 0 else InvariantFactors((), 0)
            assert homology_at(cx_sigma, n) == want
            assert homology_at(cx_plain, n) == want


def test_one_set_cover_comparison_all_identities():
    comp = constant_space_comparison(2, [{0, 1}], FinAbGroup((6,)), top=2)
    sp, cf = comp.space, comp.coeffs
    for n in range(3):
        q, iota = comp.q(n), comp.iota(n)
        for c in basis_cochains(cf, comp.plain, n):
            assert q.apply(iota.apply(c)) == c
        for phi in basis_cochains(cf, comp.sigma, n):
            assert iota.apply(q.apply(phi)) == phi  # single index: iota q = id
            lhs, rhs = comp.check_identities(phi)
            assert lhs == rhs


def _comparison_homotopy(comp, phi):
    """H of the constant-space comparison (identity theta0, vertex-coherent
    substitution in the second branch) applied to phi, by cells."""
    n = phi.degree
    cells = {(label, p): i for i, (label, p, _)
             in enumerate(complex_coordinates(comp.space, comp.coeffs, comp.sigma, n))}
    h = homotopy_operator(comp.space, comp.coeffs, comp.sigma, comp.sigma, comp.cover,
                          lambda r, label: label, None, n, cells, vertex_sub=True)
    return cochain_by_cells(comp.sigma, h.apply(phi))


@pytest.mark.parametrize("sets", [[{0}, {1}], [{0, 1}, {1}]])
def test_h_explicit_low_degree_formulas(sets):
    """(H phi)_{l0} = phi_{l0 l0 (l0,l0)}; the degree-2 display holds on
    vertex-coherent indices (the overlapping cover exercises distinct
    vertex indices)."""
    comp = constant_space_comparison(2, sets, FinAbGroup((4,)), top=2)
    sp, cf = comp.space, comp.coeffs
    rng = random.Random(5)
    phi = random_cochain(sp, cf, comp.sigma, 1, rng)
    h = _comparison_homotopy(comp, phi)
    phi = cochain_by_cells(comp.sigma, phi)
    slots1 = comp.sigma.slots(1)
    pos1 = {s: i for i, s in enumerate(slots1)}
    for lam in comp.sigma.indices(0):
        (l0,) = lam
        big = [None] * len(slots1)
        big[pos1[(0,)]] = l0
        big[pos1[(1,)]] = l0
        big[pos1[(0, 1)]] = (l0[0], l0[0])
        big = tuple(big)
        for p, v in h[lam].items():
            assert v == phi[big][p]
    # degree 2 on a vertex-coherent lambda
    phi2 = random_cochain(sp, cf, comp.sigma, 2, rng)
    h2 = _comparison_homotopy(comp, phi2)
    phi2 = cochain_by_cells(comp.sigma, phi2)
    slots2 = comp.sigma.slots(2)
    pos2 = {s: i for i, s in enumerate(slots2)}
    for lam in comp.sigma.indices(1):
        l0, l1, l01 = lam[pos1[(0,)]], lam[pos1[(1,)]], lam[pos1[(0, 1)]]
        if l01 != (l0[0], l1[0]):
            continue
        a, b = l0[0], l1[0]
        first = [None] * len(slots2)
        first[pos2[(0,)]], first[pos2[(1,)]], first[pos2[(2,)]] = (a,), (a,), (b,)
        first[pos2[(0, 1)]], first[pos2[(0, 2)]], first[pos2[(1, 2)]] = \
            (a, a), (a, b), (a, b)
        first[pos2[(0, 1, 2)]] = (a, a, b)
        second = [None] * len(slots2)
        second[pos2[(0,)]], second[pos2[(1,)]], second[pos2[(2,)]] = (a,), (b,), (b,)
        second[pos2[(0, 1)]], second[pos2[(0, 2)]], second[pos2[(1, 2)]] = \
            (a, b), (a, b), (b, b)
        second[pos2[(0, 1, 2)]] = (a, b, b)
        first, second = tuple(first), tuple(second)
        fib = FinAbGroup((4,))
        for p, v in h2[lam].items():
            assert v == fib.sub(phi2[first][p], phi2[second][p])


# ---------------------------------------------------------------------------
# the cell tables against the dictionary references, and as maps


def _oracle_families(seed, twisted=False):
    """A seeded space and coefficients with two sigma families and a
    refinement between them; twisted: the nerve of C2 acting by -1 on Z/3,
    so that face 0 restricts by a nontrivial action."""
    rng = random.Random(seed)
    if twisted:
        space, coeffs = NerveSpace(C2), ModuleCoefficients(_twisted_c2(3))
    else:
        space, coeffs, _ = _random_space_and_coeffs(rng)
    fine = _random_fine_cover(rng, space, 3)
    coarse = random_coarsening(rng, space, fine, 3, max_sets=2)
    theta, _ = random_refinement_pair(rng, space, fine, coarse, 3)
    return rng, space, coeffs, SigmaCover(space, coarse, 3), SigmaCover(space, fine, 3), theta


@pytest.mark.parametrize("seed, twisted", [(s, False) for s in range(10)] + [(0, True), (1, True)])
def test_table_walks_match_the_cell_oracles(seed, twisted):
    """d and theta* walked on flat cochains equal the face-by-face and
    pull-back references on dictionaries, degrees 0-2."""
    rng, space, coeffs, sU, sV, theta = _oracle_families(seed, twisted)
    for n in range(3):
        for fam in (sU, sV):
            c = random_cochain(space, coeffs, fam, n, rng)
            want = coboundary_by_cells(space, coeffs, fam, n, cochain_by_cells(fam, c))
            assert cochain_by_cells(fam, face_table(space, coeffs, fam, n).apply(c)) == want
        c = random_cochain(space, coeffs, sU, n, rng)
        slots = sV.slots(n)
        want = pull_back_by_cells(sV, n, cochain_by_cells(sU, c), lambda label: tuple(
            theta.theta(len(s) - 1, i) for s, i in zip(slots, label)))
        got = refinement_map(space, coeffs, sU, sV, theta, n).apply(c)
        assert cochain_by_cells(sV, got) == want


@pytest.mark.parametrize("npts, sets", [(2, [{0}, {1}]), (3, [{0, 1}, {1, 2}])])
def test_comparison_tables_match_the_cell_oracles(npts, sets):
    comp = constant_space_comparison(npts, sets, FinAbGroup((4,)), top=2)
    sp, cf = comp.space, comp.coeffs
    rng = random.Random(npts)
    for n in range(3):
        slots = comp.sigma.slots(n)
        vertices = [slots.index((m,)) for m in range(n + 1)]
        c = random_cochain(sp, cf, comp.sigma, n, rng)
        want = pull_back_by_cells(comp.plain, n, cochain_by_cells(comp.sigma, c),
                                  lambda label: tuple(tuple(label[v] for v in S) for S in slots))
        assert cochain_by_cells(comp.plain, comp.q(n).apply(c)) == want
        c = random_cochain(sp, cf, comp.plain, n, rng)
        want = pull_back_by_cells(comp.sigma, n, cochain_by_cells(comp.plain, c),
                                  lambda lam: tuple(lam[i][0] for i in vertices))
        assert cochain_by_cells(comp.sigma, comp.iota(n).apply(c)) == want
        # sigma level 3 of the overlapping cover has 2^32 indices per point
        for fam in (comp.sigma, comp.plain) if n < 2 else (comp.plain,):
            c = random_cochain(sp, cf, fam, n, rng)
            want = coboundary_by_cells(sp, cf, fam, n, cochain_by_cells(fam, c))
            assert cochain_by_cells(fam, face_table(sp, cf, fam, n).apply(c)) == want


def test_random_cochain_draws_as_the_cell_form_did():
    """The same values from the same stream, so seeded homotopy checks keep
    their instances."""
    for seed in range(50):
        _, space, coeffs, sU, _, _ = _oracle_families(seed)
        n = seed % 3
        a, b = random.Random(seed), random.Random(seed)
        assert (cochain_by_cells(sU, random_cochain(space, coeffs, sU, n, a))
                == random_cochain_by_cells(coeffs, sU, n, b))
        assert a.getstate() == b.getstate()


def _plus(a, b, scale=1):
    """a + scale * b, column by column."""
    cols = []
    for x, y in zip(a.columns, b.columns):
        col = dict(x)
        for i, v in y.items():
            col[i] = col.get(i, 0) + scale * v
        cols.append(col)
    return AbHom.from_columns(a.source, a.target, cols)


def _homotopy_side_matrix(space, coeffs, sU, sV, fine_cover, theta0, theta1, n,
                          vertex_sub=False):
    """dH + Hd on the whole basis of C^n(sigma coarse), as one AbHom; Hd
    assembles only the face rows of the level-(n+1) cells H reads."""
    def h(k, cells):
        return homotopy_operator(space, coeffs, sU, sV, fine_cover, theta0, theta1, k, cells,
                                 vertex_sub).hom()

    needed = {}
    h_up = h(n + 1, needed)
    side = h_up.compose(face_table(space, coeffs, sU, n, list(needed)).hom())
    if n:
        index = {(label, p): i for i, (label, p, _)
                 in enumerate(complex_coordinates(space, coeffs, sU, n))}
        side = _plus(side, face_table(space, coeffs, sV, n - 1).hom().compose(h(n, index)))
    return side


def _scaled(h, k):
    return AbHom.from_columns(h.source, h.target,
                              [{i: k * x for i, x in col.items()} for col in h.columns])


@pytest.mark.parametrize("order", [2, 4])
def test_homotopy_identity_as_matrices(order):
    """dH + Hd = theta1* - theta0* as sparse matrices on the whole basis,
    nerve of C2, maximal cover refining two coarsenings and itself. Over Z/4
    the swapped difference theta0* - theta1* and 2H must fail wherever
    theta1* != theta0*."""
    rng = random.Random(18)
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(constant_module(C2, FinAbGroup((order,))))
    V = MaximalSimplicialCover(space)
    coarse = [random_coarsening(rng, space, V, 3, max_sets=2) for _ in range(2)]
    distinct = 0
    for U in coarse + [V]:
        th0, th1 = random_refinement_pair(rng, space, V, U, 3)
        sU, sV = SigmaCover(space, U, 3), SigmaCover(space, V, 3)
        for n in range(3):
            side = _homotopy_side_matrix(space, coeffs, sU, sV, V, th0, th1, n)
            r1, r0 = (refinement_map(space, coeffs, sU, sV, th, n) for th in (th1, th0))
            rhs = assemble_coboundary(r1.source, r1.target,
                                      [a + b for a, b in zip(r1.rows, r0.rows)])
            assert side.equals(rhs), (n, U)
            if order == 4 and not rhs.is_zero():
                distinct += 1
                swapped = assemble_coboundary(r1.source, r1.target,
                                              [b + a for a, b in zip(r1.rows, r0.rows)])
                assert not side.equals(swapped)
                assert not _scaled(side, 2).equals(rhs)
    assert order == 2 or distinct >= 2


@pytest.mark.parametrize("npts, sets, order", [
    (2, [{0}, {1}], 2), (2, [{0, 1}, {1}], 4), (3, [{0}, {1}, {2}], 3),
    (3, [{0, 1}, {1, 2}], 4)])
def test_comparison_identities_as_matrices(npts, sets, order):
    """q iota = id and dH + Hd = iota q - id as sparse matrices on the whole
    basis of the 2- and 3-point constant spaces; over Z/4 with overlapping
    pieces, 2H must fail."""
    comp = constant_space_comparison(npts, sets, FinAbGroup((order,)), top=2)
    sp, cf = comp.space, comp.coeffs
    moved = 0
    for n in range(3):
        q, iota = comp.q(n).hom(), comp.iota(n).hom()
        assert q.compose(iota).equals(AbHom.identity(iota.source))
        rhs = _plus(iota.compose(q), AbHom.identity(q.source), scale=-1)
        side = _homotopy_side_matrix(sp, cf, comp.sigma, comp.sigma, comp.cover,
                                     lambda r, label: label, None, n, vertex_sub=True)
        assert side.equals(rhs)
        if order == 4 and not rhs.is_zero():
            moved += 1
            assert not _scaled(side, 2).equals(rhs)
    assert order != 4 or moved
