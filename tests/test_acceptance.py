"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every oracle used here is independent of the code path it checks: group
cohomology is brute-forced from scratch in oracles.py, cyclic groups with
integer coefficients use the frozen periodic-resolution values, fixed
sections are enumerated extensionally, and the quotient group types are
recovered from element orders alone.
"""

import itertools
import random
import time

from oracles import (
    basis_cochains,
    brute_force_group_cohomology,
    cyclic_table,
    invariant_factors_from_orders,
    invariant_sections_by_enumeration,
    periodic_resolution_cyclic,
    section_orders,
)

from groupoid_cohomology.abelian import (
    AbHom,
    FinAbGroup,
    IntegerMatrix,
    InvariantFactors,
)
from groupoid_cohomology.cech import (
    Budget,
    BudgetExceeded,
    MaximalSimplicialCover,
    ModuleCoefficients,
    NerveSpace,
    assemble_complex,
    cech_cohomology_on_cover,
    constant_space_comparison,
    face_table,
    single_set_cover,
    sigma_cover,
    use_budget,
)
from groupoid_cohomology.classify import (
    are_equivalent,
    baer_sum,
    cocycle_from_extension,
    ext_classes,
    extension_from_cocycle,
    is_strictly_trivial,
    restrict_cocycle_to_cover,
    verify_psi_coherence,
)
from groupoid_cohomology.cohomology import (
    are_cohomologous,
    cochain_group,
    cohomology,
    differential_matrix,
    invariant_sections,
    is_coboundary,
    is_cocycle,
    is_zero_cochain,
    unflatten_cochain,
)
from groupoid_cohomology.abelian import homology_at
from groupoid_cohomology.gmodule import GModule, constant_module
from groupoid_cohomology.groupoid import (
    cyclic_group,
    degeneracy,
    face,
    pair_groupoid,
    unit_groupoid,
)
from groupoid_cohomology.morita import morita_compare
from groupoid_cohomology.randomized import (
    random_cochain,
    random_instance,
    random_object_cover,
    run_homotopy_trials,
)

C2 = cyclic_group(2)
C3 = cyclic_group(3)
Z2 = FinAbGroup((2,))
Z3 = FinAbGroup((3,))
A22 = constant_module(C2, Z2)
A33 = constant_module(C3, Z3)


def _negation():
    return GModule(C2, (Z3,),
                   (AbHom.identity(Z3), AbHom(Z3, Z3, IntegerMatrix.from_rows([[-1]]))))


def _report(number, name, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {name} ({elapsed:.2f}s / limit {limit}s)",
          flush=True)
    assert ok, f"criterion {number} failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_cyclic_golden_values():
    limit_each = 1.0
    ok = True
    worst = 0.0
    table = cyclic_table(2)
    for n in range(3):
        t0 = time.monotonic()
        lib = cohomology(C2, A22, n)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        oracle = brute_force_group_cohomology(table, 0, {0: 1, 1: 1}, 2, n)
        ok = ok and lib == oracle == InvariantFactors((2,), 0) and dt < limit_each
    t0 = time.monotonic()
    lib = cohomology(C3, constant_module(C3, FinAbGroup((0,))), 2)
    dt = time.monotonic() - t0
    worst = max(worst, dt)
    hand = periodic_resolution_cyclic(3, 0, 2)
    ok = ok and lib == InvariantFactors((3,), 0) and lib.torsion == hand and dt < limit_each
    _report(1, "cyclic golden values vs brute force and periodic resolution",
            ok, worst, limit_each)


def test_criterion_2_h0_equals_invariant_sections():
    t0 = time.monotonic()
    rng = random.Random(20260809)
    ok = True
    checked = 0
    while checked < 50:
        G, A = random_instance(rng, max_arrows=12, allow_infinite=True)
        h0 = cohomology(G, A, 0)
        inv = invariant_sections(G, A)
        ok = ok and h0 == inv.factors
        # independent extensional oracle on small finite fibers
        if A.all_fibers_finite:
            total = 1
            for x in G.objects():
                total *= A.fiber(x).size
            if total <= 4096:
                fixed = invariant_sections_by_enumeration(G, A)
                orders = section_orders(G, A, fixed)
                ok = ok and invariant_factors_from_orders(orders) == h0
        checked += 1
    _report(2, f"H^0 = invariant sections on {checked} random fixtures",
            ok, time.monotonic() - t0, 10.0)


def _all_two_cocycles(G, A):
    cg = cochain_group(G, A, 2)
    for vec in itertools.product(*(range(d) for d in cg.orders)):
        c = unflatten_cochain(G, A, 2, list(vec))
        if is_cocycle(G, A, c):
            yield c


def test_criterion_3_degree_two_dictionary():
    t0 = time.monotonic()
    ok = True
    for G, A in [(C2, A22), (C2, _negation()), (C3, A33)]:
        for phi in _all_two_cocycles(G, A):
            E = extension_from_cocycle(G, A, phi)
            back = cocycle_from_extension(E)
            ok = ok and are_cohomologous(G, A, back, phi) is not None
            ok = ok and are_equivalent(extension_from_cocycle(G, A, back), E) is not None
            split = is_strictly_trivial(E) is not None
            ok = ok and split == (is_coboundary(G, A, phi) is not None)
        cls = ext_classes(G, A)
        torsion = cls.factors.torsion
        for c1 in cls.classes:
            for c2 in cls.classes:
                want = tuple((a + b) % d for a, b, d in
                             zip(c1.coefficients, c2.coefficients, torsion))
                s = baer_sum(c1.extension, c2.extension)
                ok = ok and are_equivalent(
                    s, cls.class_of_coefficients(want).extension) is not None
    _report(3, "degree-2 dictionary: round trips, Baer sums, splitting",
            ok, time.monotonic() - t0, 30.0)


def test_criterion_4_homotopy_lemma():
    t0 = time.monotonic()
    rep = run_homotopy_trials(seed=20260809, count=200, degrees=(1, 2))
    degrees = {t.degree for t in rep.trials}
    ok = rep.ok and len(rep.trials) >= 200 and degrees == {1, 2}
    _report(4, f"homotopy lemma exact on {len(rep.trials)} random instances",
            ok, time.monotonic() - t0, 60.0)


def test_criterion_5_cech_consistency():
    t0 = time.monotonic()
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    ok = True
    for n in range(3):
        want = cohomology(C2, A22, n)
        got_max = cech_cohomology_on_cover(space, coeffs, MaximalSimplicialCover(space), n)
        got_single = cech_cohomology_on_cover(space, coeffs, single_set_cover(space, n + 1), n)
        ok = ok and got_max == want and got_single == want
    _report(5, "maximal- and single-cover Cech = groupoid cohomology on nerve(C2)",
            ok, time.monotonic() - t0, 10.0)


def test_criterion_6_constant_space_comparison():
    t0 = time.monotonic()
    ok = True
    Z = FinAbGroup((0,))
    for npts in (2, 3):
        sets = [{i} for i in range(npts)]
        comp = constant_space_comparison(npts, sets, Z, top=2)
        sp, cf = comp.space, comp.coeffs
        for n in range(3):
            q, iota = comp.q(n), comp.iota(n)
            for c in basis_cochains(cf, comp.plain, n):
                ok = ok and q.apply(iota.apply(c)) == c
            for phi in basis_cochains(cf, comp.sigma, n):
                lhs, rhs = comp.check_identities(phi)
                ok = ok and lhs == rhs
        for fam in (comp.sigma, comp.plain):
            cx = assemble_complex(sp, cf, fam, 3)
            ok = ok and homology_at(cx, 0) == InvariantFactors((), npts)
            ok = ok and homology_at(cx, 1).is_trivial and homology_at(cx, 2).is_trivial
    _report(6, "constant-space comparison: q iota = id, dH+Hd = iota q - id, H^*",
            ok, time.monotonic() - t0, 10.0)


def test_criterion_7_morita_invariance():
    t0 = time.monotonic()
    ok = True
    rep = morita_compare(C2, A22, [{0}, {0}], degrees=(0, 1, 2), compare_ext=True)
    ok = ok and rep.ok
    P2 = pair_groupoid(2)
    rep = morita_compare(P2, constant_module(P2, FinAbGroup((4,))), [{0}, {1}],
                         degrees=(0, 1, 2), compare_ext=True)
    ok = ok and rep.ok
    rng = random.Random(777)
    done = 0
    ext_checked = 0
    while done < 20:
        G, A = random_instance(rng, max_arrows=6)
        sets = random_object_cover(rng, G, max_sets=2)
        want_ext = (A.all_fibers_finite and ext_checked < 6
                    and G.n_arrows * max(f.size for f in A.fibers) <= 24)
        try:
            with use_budget(Budget(max_cover_nerve=700)):
                rep = morita_compare(G, A, sets, degrees=(0, 1, 2), compare_ext=want_ext)
        except BudgetExceeded:
            continue
        ok = ok and rep.ok
        done += 1
        if want_ext:
            ext_checked += 1
    _report(7, f"Morita invariance on fixtures and {done} random covers "
               f"({ext_checked} with ext classes)", ok, time.monotonic() - t0, 120.0)


def test_criterion_8_structural_suites():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(55)
    zoo = [cyclic_group(2), cyclic_group(3), unit_groupoid(2), pair_groupoid(2)]
    for _ in range(3):
        zoo.append(random_instance(rng, max_arrows=6)[0])
    # simplicial identities at levels <= 4
    for G in zoo:
        for n in range(0, 5):
            for t in G.nerve(n):
                for j in range(n + 1):
                    for i in range(j + 1):
                        ok = ok and (degeneracy(G, i, degeneracy(G, j, t))
                                     == degeneracy(G, j + 1, degeneracy(G, i, t)))
                if n >= 2:
                    for j in range(n + 1):
                        for i in range(j):
                            ok = ok and (face(G, i, face(G, j, t))
                                         == face(G, j - 1, face(G, i, t)))
                if n >= 1:
                    for j in range(n + 1):
                        up = degeneracy(G, j, t)
                        for i in range(n + 2):
                            got = face(G, i, up)
                            if i < j:
                                ok = ok and got == degeneracy(G, j - 1, face(G, i, t))
                            elif i in (j, j + 1):
                                ok = ok and got == t
                            else:
                                ok = ok and got == degeneracy(G, j, face(G, i - 1, t))
    # d^2 = 0 in the groupoid complex
    for _ in range(6):
        G, A = random_instance(rng, max_arrows=6)
        for n in range(0, 3):
            d1 = differential_matrix(G, A, n)
            d2 = differential_matrix(G, A, n + 1)
            ok = ok and d2.compose(d1).is_zero()
    # d^2 = 0 in sigma complexes
    space = NerveSpace(C2)
    coeffs = ModuleCoefficients(A22)
    for cov in (single_set_cover(space, 4), MaximalSimplicialCover(space)):
        fam = sigma_cover(space, cov, 4)
        for n in range(0, 2):
            c = random_cochain(space, coeffs, fam, n, rng)
            dd = face_table(space, coeffs, fam, n + 1).apply(
                face_table(space, coeffs, fam, n).apply(c))
            ok = ok and is_zero_cochain(dd)
    # psi identities on generated covered data
    for G, A in [(C2, A22), (C3, A33)]:
        cocycles = list(_all_two_cocycles(G, A))
        for _ in range(4):
            phi = rng.choice(cocycles)
            m = rng.randint(1, 3)
            cover = [set() for _ in range(m)]
            for g in G.arrows():
                cover[rng.randrange(m)].add(g)
                if rng.random() < 0.5:
                    cover[rng.randrange(m)].add(g)
            data = restrict_cocycle_to_cover(G, A, phi, [s for s in cover if s])
            rep = verify_psi_coherence(data)
            ok = ok and rep.ok
            for (k, j, g), v in rep.psi.items():
                fib = A.fiber(G.tgt[g])
                ok = ok and rep.psi[(j, k, g)] == fib.neg(v)
                if j == k:
                    ok = ok and not any(v)
    _report(8, "structural suites: simplicial identities, d^2 = 0, psi coherence",
            ok, time.monotonic() - t0, 30.0)
