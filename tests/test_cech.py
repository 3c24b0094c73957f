import random

import pytest
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
    constant_space_comparison,
    homotopy_operator,
    refinement_map,
    single_set_cover,
    sigma_cover,
    ss_basis,
    ss_differential,
    ss_equal,
    ss_flatten,
    ss_is_zero,
    ss_random,
    ss_sub,
    ss_zero,
)
from groupoid_cohomology.cohomology import cohomology, invariant_sections
from groupoid_cohomology.gmodule import GModule, constant_module
from groupoid_cohomology.groupoid import cyclic_group
from groupoid_cohomology.abelian import homology_at
from groupoid_cohomology.randomized import (
    random_coarsening,
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
    space = ConstantSpace(3)
    cov = Cover.from_sets([[{0, 1, 2}] * 4 for _ in range(4)])
    fam = SigmaCover(space, cov, 3, Budget(max_candidates=10, max_per_point=10,
                                           max_cells=10))
    with pytest.raises(BudgetExceeded) as err:
        fam.all_lambda(2)
    assert err.value.estimate is not None and err.value.estimate > 10


def test_ss_differential_telescopes_on_constant_cochain():
    space = ConstantSpace(2)
    cov = single_set_cover(space, 4)
    fam = sigma_cover(space, cov, 4)
    coeffs = ConstantCoefficients(FinAbGroup((5,)))
    for n in range(0, 3):
        c = ss_zero(space, coeffs, fam, n)
        for lam in c.data:
            for p in c.data[lam]:
                c.data[lam][p] = (2,)
        dc = ss_differential(space, coeffs, fam, c)
        if n % 2 == 0:  # n+2 terms alternating: zero for even n
            assert ss_is_zero(dc)
        else:
            for lam, vals in dc.data.items():
                assert all(v == (2,) for v in vals.values())


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
    c = ss_zero(space, coeffs, fam, 0)
    for lam in c.data:
        for p in c.data[lam]:
            c.data[lam][p] = (1,)
    dc = ss_differential(space, coeffs, fam, c)
    for lam, vals in dc.data.items():
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
            c = ss_random(space, coeffs, fam, n, rng)
            dd = ss_differential(space, coeffs, fam, ss_differential(space, coeffs, fam, c))
            assert ss_is_zero(dd)


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
    differential of the matching indicator cochain (the reference
    construction assembly used before face tables)."""
    _, space, coeffs, fam, top = case
    cx = assemble_complex(space, coeffs, fam, top)
    for n in range(top):
        h = cx.maps[n]
        basis = ss_basis(space, coeffs, fam, n)
        assert len(basis) == h.matrix.cols
        for j, c in enumerate(basis):
            want = ss_flatten(space, coeffs, fam, ss_differential(space, coeffs, fam, c))
            assert h.target.reduce(h.matrix.col(j)) == want


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
        c = ss_random(space, coeffs, sV, n, rng)
        assert ss_equal(refinement_map(space, coeffs, sV, sV, ident, c), c)
    # composite of single -> maximal with identity equals itself
    U = single_set_cover(space, 3)
    sU = SigmaCover(space, U, 3)
    theta = Refinement(U, V, tuple({p: 0 for p in space.points(n)} for n in range(4)))
    for n in (1, 2):
        c = ss_random(space, coeffs, sU, n, rng)
        once = refinement_map(space, coeffs, sU, sV, theta, c)
        again = refinement_map(space, coeffs, sV, sV, ident, once)
        assert ss_equal(once, again)


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
        c = ss_random(space, coeffs, sU, n, rng)
        lhs = refinement_map(space, coeffs, sU, sV, theta,
                             ss_differential(space, coeffs, sU, c))
        rhs = ss_differential(space, coeffs, sV,
                              refinement_map(space, coeffs, sU, sV, theta, c))
        assert ss_equal(lhs, rhs)


def _ss_class_difference_is_coboundary(space, coeffs, fam, c1, c2, n):
    cx = assemble_complex(space, coeffs, fam, n + 1)
    diff = ss_flatten(space, coeffs, fam, ss_sub(space, coeffs, fam, c1, c2))
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
    c = ss_zero(space, coeffs, sU, 2)
    pos = 0
    for lab, p, fib in layout:
        c.data[lab][p] = fib.reduce(tuple(vec[pos:pos + fib.ngens]))
        pos += fib.ngens
    mapped = refinement_map(space, coeffs, sU, sV, theta, c)
    assert ss_is_zero(ss_differential(space, coeffs, sV, mapped))
    zero = ss_zero(space, coeffs, sV, 2)
    # the image class is nonzero, and H^2 on both sides is Z/2: isomorphism
    assert not _ss_class_difference_is_coboundary(space, coeffs, sV, mapped, zero, 2)
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
            for phi in ss_basis(space, coeffs, sU, n):
                if not ss_is_zero(ss_differential(space, coeffs, sU, phi)):
                    continue
                r0 = refinement_map(space, coeffs, sU, sV, th0, phi)
                r1 = refinement_map(space, coeffs, sU, sV, th1, phi)
                assert _ss_class_difference_is_coboundary(space, coeffs, sV, r1, r0, n)


def test_equal_refinements_give_zero_homotopy_side():
    rng = random.Random(21)
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    V = MaximalSimplicialCover(space)
    U = random_coarsening(rng, space, V, 3)
    theta, _ = random_refinement_pair(rng, space, V, U, 3)
    for n in (1, 2):
        sU = SigmaCover(space, U, n + 1)
        phi = ss_random(space, coeffs, sU, n, rng)
        lhs, rhs = check_homotopy_identity(space, coeffs, U, V, theta, theta, phi)
        assert ss_is_zero(rhs)
        assert ss_is_zero(lhs)


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
        for basis in ss_basis(space, coeffs, sU, 0):
            if not ss_is_zero(ss_differential(space, coeffs, sU, basis)):
                continue
            r0 = refinement_map(space, coeffs, sU, sV, th0, basis)
            r1 = refinement_map(space, coeffs, sU, sV, th1, basis)
            assert ss_equal(r0, r1)


def test_error_paths():
    from groupoid_cohomology.abelian import ShapeError
    from groupoid_cohomology.cech import SSCochain, validate_refinement
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    U = single_set_cover(space, 2)
    fam = sigma_cover(space, U, 2)
    with pytest.raises(ShapeError, match="pieces"):
        ss_differential(space, coeffs, fam, SSCochain(1, {}))
    # a plain cover has no index degeneracies, so it cannot be a homotopy target
    sU = SigmaCover(space, U, 2)
    phi = ss_random(space, coeffs, sU, 1, random.Random(0))
    with pytest.raises(ShapeError, match="simplicial index structure"):
        homotopy_operator(space, coeffs, sU, sU, U, None, None, phi)
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
    assert len(rep.trials) == 30


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
        phi = ss_random(space, coeffs, sU, n, rng)
        lhs, rhs = check_homotopy_identity(space, coeffs, U, V, th0, th1, phi)
        assert ss_equal(lhs, rhs)


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
    # pair the canonical refinement with a random one in the lemma
    _, other = random_refinement_pair(rng, space, V, base, 2)
    sU = SigmaCover(space, base, 2)
    phi = ss_random(space, coeffs, sU, 1, rng)
    lhs, rhs = check_homotopy_identity(space, coeffs, base, V, canonical, other, phi)
    assert ss_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# constant-space comparison


def test_constant_comparison_partitions_exhaustive():
    for npts, sets, group in [(2, [{0}, {1}], FinAbGroup((2,))),
                              (3, [{0}, {1}, {2}], FinAbGroup((3,)))]:
        comp = constant_space_comparison(npts, sets, group, top=2)
        sp, cf = comp.space, comp.coeffs
        for n in range(3):
            for c in ss_basis(sp, cf, comp.plain, n):
                assert ss_equal(comp.q(comp.iota(c)), c)
            for phi in ss_basis(sp, cf, comp.sigma, n):
                lhs, rhs = comp.check_identities(phi)
                assert ss_equal(lhs, rhs)


def test_constant_comparison_overlap_random():
    rng = random.Random(3)
    comp = constant_space_comparison(3, [{0, 1}, {1, 2}], FinAbGroup((4,)), top=2)
    sp, cf = comp.space, comp.coeffs
    for n in range(3):
        for _ in range(2):
            c = ss_random(sp, cf, comp.plain, n, rng)
            assert ss_equal(comp.q(comp.iota(c)), c)
            phi = ss_random(sp, cf, comp.sigma, n, rng)
            lhs, rhs = comp.check_identities(phi)
            assert ss_equal(lhs, rhs)


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
        for c in ss_basis(sp, cf, comp.plain, n):
            assert ss_equal(comp.q(comp.iota(c)), c)
        for phi in ss_basis(sp, cf, comp.sigma, n):
            assert ss_equal(comp.iota(comp.q(phi)), phi)  # single index: iota q = id
            lhs, rhs = comp.check_identities(phi)
            assert ss_equal(lhs, rhs)


def _comparison_homotopy(comp, phi):
    """H of the constant-space comparison: identity theta0, vertex-coherent
    substitution in the second branch."""
    return homotopy_operator(comp.space, comp.coeffs, comp.sigma, comp.sigma, comp.cover,
                             lambda r, label: label, None, phi, vertex_sub=True)


@pytest.mark.parametrize("sets", [[{0}, {1}], [{0, 1}, {1}]])
def test_h_explicit_low_degree_formulas(sets):
    """(H phi)_{l0} = phi_{l0 l0 (l0,l0)}; the degree-2 display holds on
    vertex-coherent indices (the overlapping cover exercises distinct
    vertex indices)."""
    comp = constant_space_comparison(2, sets, FinAbGroup((4,)), top=2)
    sp, cf = comp.space, comp.coeffs
    rng = random.Random(5)
    phi = ss_random(sp, cf, comp.sigma, 1, rng)
    h = _comparison_homotopy(comp, phi)
    slots1 = comp.sigma.slots(1)
    pos1 = {s: i for i, s in enumerate(slots1)}
    for lam in comp.sigma.indices(0):
        (l0,) = lam
        big = [None] * len(slots1)
        big[pos1[(0,)]] = l0
        big[pos1[(1,)]] = l0
        big[pos1[(0, 1)]] = (l0[0], l0[0])
        big = tuple(big)
        for p, v in h.data[lam].items():
            assert v == phi.data[big][p]
    # degree 2 on a vertex-coherent lambda
    phi2 = ss_random(sp, cf, comp.sigma, 2, rng)
    h2 = _comparison_homotopy(comp, phi2)
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
        for p, v in h2.data[lam].items():
            assert v == fib.sub(phi2.data[first][p], phi2.data[second][p])
