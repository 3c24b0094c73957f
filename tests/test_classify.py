import dataclasses
import gc
import itertools
import random

import pytest
from oracles import baer_sum_by_orbits, extension_from_cocycle_by_pairs, search_lifts_by_pairs
from test_morita import TWO_FIBER

from groupoid_cohomology import classify
from groupoid_cohomology.abelian import AbHom, FinAbGroup, IntegerMatrix, InvariantFactors
from groupoid_cohomology.classify import (
    CoveredCocycleData,
    NotACocycleError,
    are_equivalent,
    baer_sum,
    canonical_section,
    cocycle_from_extension,
    cocycle_from_torsor,
    ext_classes,
    extension_from_cocycle,
    extension_from_covered_cocycle,
    extension_inverse,
    is_strictly_trivial,
    restrict_cocycle_to_cover,
    strictly_trivial_extension,
    torsor_from_cocycle,
    trivial_torsor,
    validate_extension,
    validate_torsor,
    verify_psi_coherence,
)
from groupoid_cohomology.cohomology import (
    Cochain,
    cochain_add,
    cochain_sub,
    differential,
    is_coboundary,
    is_cocycle,
    make_cochain,
    unflatten_cochain,
    zero_cochain,
    cochain_group,
    are_cohomologous,
)
from groupoid_cohomology.gmodule import GModule, constant_module
from groupoid_cohomology.groupoid import FiniteGroupoid, cyclic_group, pair_groupoid, unit_groupoid
from groupoid_cohomology.randomized import random_instance

C2 = cyclic_group(2)
C3 = cyclic_group(3)
Z2 = FinAbGroup((2,))
Z3 = FinAbGroup((3,))
A22 = constant_module(C2, Z2)
A33 = constant_module(C3, Z3)


def negation_module():
    return GModule(C2, (Z3,),
                   (AbHom.identity(Z3), AbHom(Z3, Z3, IntegerMatrix.from_rows([[-1]]))))


def all_two_cocycles(G, A):
    cg = cochain_group(G, A, 2)
    out = []
    for vec in itertools.product(*(range(d) for d in cg.orders)):
        c = unflatten_cochain(G, A, 2, list(vec))
        if is_cocycle(G, A, c):
            out.append(c)
    return out


FIXTURES = [(C2, A22), (C2, negation_module()), (C3, A33)]


def nonsplit_extension():
    phi = make_cochain(C2, A22, 2, [(0,), (0,), (0,), (1,)])
    return phi, extension_from_cocycle(C2, A22, phi)


def test_extension_from_zero_cocycle_is_strictly_trivial():
    E = strictly_trivial_extension(C2, A22)
    assert validate_extension(E).ok
    wit = is_strictly_trivial(E)
    assert wit is not None
    assert wit.iso.is_morphism()


def test_nonsplit_extension_is_z4():
    phi, E = nonsplit_extension()
    assert validate_extension(E).ok
    assert E.total.n_arrows == 4
    # (0, s) squares to (1, e) != unit, so some element has order 4
    T = E.total
    orders = []
    for a in T.arrows():
        k, acc = 1, a
        while acc != T.unit[0]:
            acc = T.compose(acc, a)
            k += 1
        orders.append(k)
    assert max(orders) == 4
    assert is_strictly_trivial(E) is None
    assert are_equivalent(E, strictly_trivial_extension(C2, A22)) is None


def _swapped(table, k1, k2):
    out = dict(table)
    out[k1], out[k2] = table[k2], table[k1]
    return out


def _swapped_compose(E, k1, k2):
    T = E.total
    return dataclasses.replace(E, total=FiniteGroupoid(
        T.n_objects, T.src, T.tgt, T.unit, _swapped(T.comp, k1, k2), T.inv))


def _swapped_inj(E, k1, k2):
    return dataclasses.replace(E, inj=_swapped(E.inj, k1, k2))


@pytest.mark.parametrize("corrupt, failure", [
    # (0, s)(0, s) = (1, e) and (0, s)(1, s) = (0, e) exchanged
    (lambda: _swapped_compose(nonsplit_extension()[1], (2, 2), (2, 3)),
     "total: associativity fails"),
    (lambda: dataclasses.replace(nonsplit_extension()[1], proj=(0, 1, 0, 1)),
     "proj not multiplicative"),
    # inj(1) and inj(2) exchanged in Z/4: inj(1) + inj(1) = inj(0) != inj(2)
    (lambda: _swapped_inj(strictly_trivial_extension(C2, constant_module(C2, FinAbGroup((4,)))),
                          (0, (1,)), (0, (2,))),
     "inj not additive at object 0"),
    # the total of C2 acting by -1 on Z/3, declared over the trivial action
    (lambda: dataclasses.replace(strictly_trivial_extension(C2, negation_module()),
                                 module=constant_module(C2, Z3)),
     "conjugation law fails"),
])
def test_validate_extension_names_the_failure(corrupt, failure):
    rep = validate_extension(corrupt())
    assert not rep.ok
    assert any(f.startswith(failure) for f in rep.failures), rep.failures
    assert rep.failures == EXTENSION_FAILURES[failure]


# the whole failure list of each corruption, in the order the checks run
EXTENSION_FAILURES = {
    "total: associativity fails": [
        *(f"total: associativity fails at ({t})" for t in (
            "1,2,2", "1,2,3", "1,3,2", "1,3,3", "2,1,2", "2,1,3",
            "2,3,2", "2,3,3", "3,1,2", "3,1,3", "3,2,2", "3,2,3")),
        "total: g * g^-1 != unit(r(g)) for arrow 2",
        "total: g^-1 * g != unit(s(g)) for arrow 3"],
    "proj not multiplicative": [
        "proj not multiplicative at (2,2)", "proj not multiplicative at (2,3)",
        "proj not multiplicative at (3,2)", "proj not multiplicative at (3,3)",
        "inj(0,(1,)) is not in the kernel isotropy at 0",
        "exactness fails: proj^{-1}(units) != image of inj"],
    "inj not additive at object 0": ["inj not additive at object 0"],
    "conjugation law fails": [f"conjugation law fails at arrow {e}, a=(1,)" for e in (3, 4, 5)],
}


def test_validate_extension_reports_a_missing_inj_entry():
    # the additivity and conjugation checks read inj after the miss is reported
    split = ext_classes(C2, A22).class_of_coefficients((0,)).extension
    inj = dict(split.inj)
    del inj[(0, (1,))]
    rep = validate_extension(dataclasses.replace(split, inj=inj))
    assert not rep.ok
    assert rep.failures[0] == "inj misses (0, (1,))"
    assert "inj not additive at object 0" in rep.failures


def test_lift_search_leaves_no_reference_cycle():
    _, E = nonsplit_extension()
    split = strictly_trivial_extension(C2, A22)
    gc.collect()
    gc.disable()
    try:
        for search in (lambda: is_strictly_trivial(E), lambda: is_strictly_trivial(split),
                       lambda: are_equivalent(E, E), lambda: are_equivalent(E, split)):
            search()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_extension_rejects_non_cocycle():
    bad = make_cochain(C2, A22, 2, [(1,), (0,), (0,), (0,)])
    assert not is_cocycle(C2, A22, bad)
    with pytest.raises(NotACocycleError) as err:
        extension_from_cocycle(C2, A22, bad)
    assert "tuple" in str(err.value)


def _assert_same_extension(E, R):
    T, U = E.total, R.total
    assert (T.n_objects, T.src, T.tgt, T.unit, T.inv) == (U.n_objects, U.src, U.tgt, U.unit, U.inv)
    assert list(T.comp.items()) == list(U.comp.items())
    assert (T.arrow_labels, T.object_labels) == (U.arrow_labels, U.object_labels)
    assert E.proj == R.proj and list(E.inj.items()) == list(R.inj.items())
    assert E.arrow_pairs == R.arrow_pairs
    assert validate_extension(E).ok


def _unreduced(rng, G, A, c):
    """c with each value moved by a random multiple of its order."""
    return Cochain(c.degree, tuple(
        tuple(x + rng.randint(-3, 3) * d for x, d in zip(v, A.fiber(t.obj).orders))
        for t, v in zip(G.nerve(c.degree), c.values)))


def test_extension_builder_matches_pair_reference():
    # the table-driven builder against the pair-by-pair reference on seeded
    # fixtures with fibers of at most 4 elements, the two-fiber table module
    # and the Ext classes of the fixtures: equal tables, in the same order
    rng = random.Random(11)
    cases = [(TWO_FIBER.groupoid, TWO_FIBER.module)]
    while len(cases) < 25:
        G, A = random_instance(rng, max_arrows=6)
        if all(f.size <= 4 for f in A.fibers):
            cases.append((G, A))
    for G, A in cases:
        b = unflatten_cochain(G, A, 1, [rng.randrange(d) for d in cochain_group(G, A, 1).orders])
        phi = differential(G, A, b)
        for c in (phi, _unreduced(rng, G, A, phi)):
            _assert_same_extension(extension_from_cocycle(G, A, c),
                                   extension_from_cocycle_by_pairs(G, A, c))
        noise = unflatten_cochain(G, A, 2, [rng.randrange(d) for d in cochain_group(G, A, 2).orders])
        if is_cocycle(G, A, noise):
            continue
        with pytest.raises(NotACocycleError) as err:
            extension_from_cocycle(G, A, noise)
        with pytest.raises(NotACocycleError) as want:
            extension_from_cocycle_by_pairs(G, A, noise)
        assert str(err.value) == str(want.value)
    for G, A in FIXTURES:
        for cls in ext_classes(G, A).classes:
            _assert_same_extension(cls.extension,
                                   extension_from_cocycle_by_pairs(G, A, cls.cocycle))


def _lift_search_twists(E1, E2):
    """The twists the lift search takes: the canonical cocycle of E1 carried
    into E2 (are_equivalent) and the units (is_strictly_trivial)."""
    G, T1 = E1.base, E1.total
    sec1 = canonical_section(E1)
    chart1 = classify._coordinates(E1, sec1)
    return [{(u, v): E2.inj[G.tgt[u], chart1[T1.comp[sec1[u], sec1[v]]]] for u, v in G.comp},
            {(u, v): E2.total.unit[G.tgt[u]] for u, v in G.comp}]


def test_lift_search_matches_pair_scan_reference():
    # the walk over composable pairs against the scan of every chosen arrow,
    # on the Ext classes of the fixtures and on extensions of random split
    # and random cocycles: the same first section, or None for both
    rng = random.Random(29)
    families = [[c.extension for c in ext_classes(G, A).classes] for G, A in FIXTURES]
    while len(families) < 20:
        G, A = random_instance(rng, max_arrows=6)
        if not all(f.size <= 4 for f in A.fibers):
            continue
        b = unflatten_cochain(G, A, 1, [rng.randrange(d) for d in cochain_group(G, A, 1).orders])
        cocycles = [differential(G, A, b)]
        noise = unflatten_cochain(G, A, 2,
                                  [rng.randrange(d) for d in cochain_group(G, A, 2).orders])
        if is_cocycle(G, A, noise):
            cocycles.append(noise)
        families.append([extension_from_cocycle(G, A, c) for c in cocycles])
    outcomes = set()
    for exts in families:
        for E1, E2 in itertools.product(exts, repeat=2):
            for twist in _lift_search_twists(E1, E2):
                got = classify._search_lifts(E2, twist)
                assert got == search_lifts_by_pairs(E2, twist)
                outcomes.add(got is None)
    assert outcomes == {True, False}


def test_unnormalized_constant_cocycle():
    phi = make_cochain(C2, A22, 2, [(1,), (1,), (1,), (1,)])
    assert is_cocycle(C2, A22, phi)
    E = extension_from_cocycle(C2, A22, phi)
    assert validate_extension(E).ok
    # its normalization is phi - d(b) with b constant 1, i.e. the zero cocycle
    b = make_cochain(C2, A22, 1, [(1,), (1,)])
    normalized = cochain_sub(C2, A22, phi, differential(C2, A22, b))
    assert normalized.values == zero_cochain(C2, A22, 2).values
    assert are_equivalent(E, extension_from_cocycle(C2, A22, normalized)) is not None


def test_cocycle_extension_round_trips_exhaustive():
    """Both round trips, every 2-cocycle on every fixture."""
    for G, A in FIXTURES:
        split = strictly_trivial_extension(G, A)
        for phi in all_two_cocycles(G, A):
            E = extension_from_cocycle(G, A, phi)
            assert validate_extension(E).ok
            psi = cocycle_from_extension(E)
            assert is_cocycle(G, A, psi)
            assert are_cohomologous(G, A, psi, phi) is not None
            E2 = extension_from_cocycle(G, A, psi)
            assert are_equivalent(E2, E) is not None
            # split detection agrees with the coboundary test
            assert (is_strictly_trivial(E) is not None) == \
                (is_coboundary(G, A, phi) is not None)


def test_sections_differ_by_coboundary():
    phi, E = nonsplit_extension()
    base = canonical_section(E)
    others = []
    for g in C2.arrows():
        for lift in E.lifts(g):
            alt = list(base)
            alt[g] = lift
            others.append(tuple(alt))
    psi0 = cocycle_from_extension(E, base)
    for sec in others:
        psi = cocycle_from_extension(E, sec)
        assert is_cocycle(C2, A22, psi)
        assert are_cohomologous(C2, A22, psi, psi0) is not None


def test_section_must_lift():
    phi, E = nonsplit_extension()
    bad = (0, 0)  # both entries lift the unit arrow; the second is not a lift of s
    with pytest.raises(ValueError, match="lift"):
        cocycle_from_extension(E, bad)


def test_trivial_section_of_split_extension_gives_zero():
    E = strictly_trivial_extension(C2, A22)
    pair_id = {p: i for i, p in enumerate(E.arrow_pairs)}
    section = tuple(pair_id[(g, (0,))] for g in C2.arrows())
    psi = cocycle_from_extension(E, section)
    assert psi.values == zero_cochain(C2, A22, 2).values


def test_baer_group_laws():
    phi, E = nonsplit_extension()
    split = strictly_trivial_extension(C2, A22)
    assert validate_extension(baer_sum(E, split)).ok
    assert are_equivalent(baer_sum(E, split), E) is not None
    # coefficient exponent 2: E + E is trivial
    assert is_strictly_trivial(baer_sum(E, E)) is not None
    inv = extension_inverse(E)
    assert is_strictly_trivial(baer_sum(E, inv)) is not None


def test_baer_sum_matches_cocycle_addition_exhaustive():
    for G, A in FIXTURES:
        cls = ext_classes(G, A)
        torsion = cls.factors.torsion
        for c1 in cls.classes:
            for c2 in cls.classes:
                coeffs = tuple((a + b) % d for a, b, d in
                               zip(c1.coefficients, c2.coefficients, torsion))
                s = baer_sum(c1.extension, c2.extension)
                assert are_equivalent(
                    s, cls.class_of_coefficients(coeffs).extension) is not None


def test_baer_sum_matches_orbit_scan_reference():
    # the representatives read from the chart of the least lifts against the
    # fiber scan, on every pair of Ext classes and of their totals moved by a
    # random coboundary (units not lifted to least lifts): equal tables, in
    # the same order
    P2 = pair_groupoid(2)
    cases = [(C2, A22), (C3, A33), (cyclic_group(4), constant_module(cyclic_group(4), Z2)),
             (P2, constant_module(P2, Z2))]
    rng = random.Random(11)
    while len(cases) < 16:
        G, A = random_instance(rng, max_arrows=6)
        if all(f.size <= 4 for f in A.fibers):
            cases.append((G, A))
    for G, A in cases:
        exts = []
        for c in ext_classes(G, A).classes:
            b = unflatten_cochain(G, A, 1, [rng.randrange(d) for d in cochain_group(G, A, 1).orders])
            moved = cochain_add(G, A, c.cocycle, differential(G, A, b))
            exts += [c.extension, extension_from_cocycle(G, A, moved)]
        for E1, E2 in itertools.product(exts, repeat=2):
            _assert_same_extension(baer_sum(E1, E2), baer_sum_by_orbits(E1, E2))


def test_ext_classes_fixtures():
    cls = ext_classes(C2, A22)
    assert cls.factors == InvariantFactors((2,), 0)
    splits = sorted(is_strictly_trivial(c.extension) is not None for c in cls.classes)
    assert splits == [False, True]
    # coprime orders: only the trivial class
    cls = ext_classes(C2, negation_module())
    assert len(cls.classes) == 1
    assert is_strictly_trivial(cls.classes[0].extension) is not None
    # no nonunit arrows: one class
    U = unit_groupoid(2)
    AU = constant_module(U, FinAbGroup((4,)))
    assert len(ext_classes(U, AU).classes) == 1
    # C3 with Z/3: three classes, two nonsplit
    cls = ext_classes(C3, A33)
    assert cls.factors == InvariantFactors((3,), 0)
    splits = [is_strictly_trivial(c.extension) is not None for c in cls.classes]
    assert splits.count(True) == 1 and splits.count(False) == 2


def test_baer_sum_rejects_mismatched_bases():
    from groupoid_cohomology.abelian import ShapeError
    E1 = strictly_trivial_extension(C2, A22)
    E2 = strictly_trivial_extension(C3, A33)
    with pytest.raises(ShapeError):
        baer_sum(E1, E2)
    E3 = strictly_trivial_extension(C2, negation_module())
    with pytest.raises(ShapeError):
        baer_sum(E1, E3)


def test_extension_of_c2_by_z4_realizes_z8():
    """H^2(C2, Z/4 trivial) = Z/2: the split class Z/4 x Z/2 and a nonsplit
    class whose total is Z/8 (it has an element of order 8)."""
    A4 = constant_module(C2, FinAbGroup((4,)))
    cls = ext_classes(C2, A4)
    assert cls.factors == InvariantFactors((2,), 0)
    orders_by_class = []
    for c in cls.classes:
        T = c.extension.total
        orders = []
        for a in T.arrows():
            k, acc = 1, a
            while acc != T.unit[0]:
                acc = T.compose(acc, a)
                k += 1
            orders.append(k)
        orders_by_class.append((is_strictly_trivial(c.extension) is not None,
                                max(orders)))
    assert sorted(orders_by_class) == [(False, 8), (True, 4)]


def test_ext_classes_rejects_infinite_fibers():
    AZ = constant_module(C2, FinAbGroup((0,)))
    with pytest.raises(ValueError, match="cohomology"):
        ext_classes(C2, AZ)


def test_strict_triviality_witness_chain():
    """(ii) section -> (iii) equivariant retraction -> (i) isomorphism."""
    for G, A in FIXTURES:
        cls = ext_classes(G, A)
        for c in cls.classes:
            wit = is_strictly_trivial(c.extension)
            if wit is None:
                continue
            E, T = c.extension, c.extension.total
            sec = wit.section
            for (g, h), gh in G.comp.items():
                assert T.compose(sec[g], sec[h]) == sec[gh]
            # phi(a gamma) = a + phi(gamma), phi multiplicative over proj
            for e in T.arrows():
                x = T.tgt[e]
                for a in A.fiber(x).elements():
                    shifted = E.act_coefficient(a, x, e)
                    assert wit.retraction[shifted] == A.fiber(x).add(a, wit.retraction[e])
            assert wit.iso.is_morphism()
            assert are_equivalent(E, strictly_trivial_extension(G, A)) is not None


def test_coboundary_built_section():
    # any extension of a coboundary has an explicit section found by search
    b = make_cochain(C2, A22, 1, [(1,), (1,)])
    phi = differential(C2, A22, b)
    E = extension_from_cocycle(C2, A22, phi)
    assert is_strictly_trivial(E) is not None


# ---------------------------------------------------------------------------
# covered cocycle data


def test_psi_trivial_cover_vacuous():
    phi, _ = nonsplit_extension()
    data = restrict_cocycle_to_cover(C2, A22, phi, [set(C2.arrows())])
    rep = verify_psi_coherence(data)
    assert rep.ok
    assert all(not any(v) for v in rep.psi.values())


def test_psi_redundant_cover_zero():
    phi, _ = nonsplit_extension()
    cover = [set(C2.arrows()), set(C2.arrows())]
    data = restrict_cocycle_to_cover(C2, A22, phi, cover)
    rep = verify_psi_coherence(data)
    assert rep.ok
    assert all(not any(v) for v in rep.psi.values())


def test_psi_randomized_generator_checker():
    rng = random.Random(31)
    for G, A in FIXTURES:
        cocycles = all_two_cocycles(G, A)
        for _ in range(6):
            phi = rng.choice(cocycles)
            m = rng.randint(1, 3)
            cover = [set() for _ in range(m)]
            for g in G.arrows():
                cover[rng.randrange(m)].add(g)
                if rng.random() < 0.5:
                    cover[rng.randrange(m)].add(g)
            cover = [s for s in cover if s]
            data = restrict_cocycle_to_cover(G, A, phi, cover)
            rep = verify_psi_coherence(data)
            assert rep.ok, rep.failures[:3]
            Ecov = extension_from_covered_cocycle(data)
            assert validate_extension(Ecov).ok
            assert are_equivalent(Ecov, extension_from_cocycle(G, A, phi)) is not None


def _moved_cover_data(rng, G, A, phi, cover):
    """phi_{ijk}(g, h) = phi(g, h) + c_i(g) + g.c_k(h) - c_j(gh), with a random
    1-cochain c_l on each cover[l] that is zero on units."""
    data = restrict_cocycle_to_cover(G, A, phi, cover)
    units = set(G.unit)
    c = [{g: A.fiber(G.tgt[g]).reduce(tuple(0 if g in units else rng.randrange(d)
                                            for d in A.fiber(G.tgt[g]).orders))
          for g in s} for s in data.cover]
    values = {}
    for (i, j, k), vals in data.values.items():
        values[i, j, k] = {}
        for (g, h), v in vals.items():
            fib = A.fiber(G.tgt[g])
            w = fib.add(fib.add(v, c[i][g]), A.act(g, c[k][h]))
            values[i, j, k][g, h] = fib.sub(w, c[j][G.compose(g, h)])
    return CoveredCocycleData(G, A, data.cover, values)


def test_covered_cocycle_that_is_not_a_restriction():
    # the indexed values differ from phi by the Cech-style coboundary of the
    # c_l, so psi can be nonzero and the builder must glue across indices
    rng = random.Random(37)
    cases = list(FIXTURES) + [(TWO_FIBER.groupoid, TWO_FIBER.module)]
    while len(cases) < 12:
        G, A = random_instance(rng, max_arrows=6)
        if all(1 < f.size <= 4 for f in A.fibers):
            cases.append((G, A))
    moved = glued = checked = 0
    for G, A in cases:
        for cls in ext_classes(G, A).classes[:3] * 2:
            phi = cls.cocycle
            # two or three overlapping pieces
            cover = [{g for g in G.arrows() if rng.random() < 0.6}
                     for _ in range(rng.randint(2, 3))]
            cover[0] |= set(G.arrows()).difference(*cover)
            data = _moved_cover_data(rng, G, A, phi, cover)
            val = {t.arrows: v for t, v in zip(G.nerve(2), phi.values)}
            moved += sum(v != val[gh] for vals in data.values.values()
                         for gh, v in vals.items())
            report = verify_psi_coherence(data)
            assert report.ok, report.failures[:3]
            glued += any(any(v) for v in report.psi.values())
            E = extension_from_covered_cocycle(data)
            assert validate_extension(E).ok
            assert are_equivalent(E, extension_from_cocycle(G, A, phi)) is not None
            checked += 1
    assert checked >= 30 and moved >= 100 and glued >= 5


def test_psi_detects_non_cocycle():
    phi, _ = nonsplit_extension()
    cover = [set(C2.arrows()), set(C2.arrows())]
    data = restrict_cocycle_to_cover(C2, A22, phi, cover)
    # corrupt one indexed value
    key = (0, 0, 0)
    broken = dict(data.values)
    broken[key] = dict(broken[key])
    pair = next(iter(broken[key]))
    broken[key][pair] = (1 - broken[key][pair][0],)
    bad = CoveredCocycleData(C2, A22, data.cover, broken)
    rep = verify_psi_coherence(bad)
    assert not rep.ok
    assert any("indices" in f or "depends" in f for f in rep.failures)


def _corrupted_restriction(cover, seed):
    """The nonsplit C2 cocycle restricted to `cover`, with one indexed value,
    drawn with the seed, moved by 1."""
    phi, _ = nonsplit_extension()
    data = restrict_cocycle_to_cover(C2, A22, phi, cover)
    rng = random.Random(seed)
    key = rng.choice(sorted(data.values))
    pair = rng.choice(sorted(data.values[key]))
    values = {k: dict(v) for k, v in data.values.items()}
    values[key][pair] = Z2.add(values[key][pair], (1,))
    return CoveredCocycleData(C2, A22, data.cover, values)


def _identity_failures(*cases):
    return [f"cocycle identity fails at arrows {arrows} indices {indices}"
            for arrows, indices in (case.split() for case in cases)]


# one corrupted value each; the failure lists fix the order in which the
# cocycle identity, psi and its relations are checked
PSI_FAILURES = [
    ([{0, 1}, {1}], 9,
     _identity_failures(
         "(0,0,1) (0,0,0,0,1,1)", "(0,0,1) (0,0,1,0,0,1)", "(0,0,1) (0,0,1,0,1,0)",
         "(0,0,1) (0,0,1,0,1,1)", "(0,1,0) (0,0,1,0,1,0)", "(0,1,0) (0,0,1,1,1,0)",
         "(0,1,0) (0,1,0,1,0,0)", "(0,1,0) (0,1,0,1,1,0)", "(0,1,0) (0,1,1,0,1,0)",
         "(0,1,0) (0,1,1,1,0,0)", "(0,1,1) (0,1,0,1,0,0)", "(0,1,1) (0,1,0,1,0,1)",
         "(1,0,1) (0,0,0,0,1,1)", "(1,0,1) (0,1,0,0,1,1)", "(1,0,1) (1,0,0,0,1,1)",
         "(1,0,1) (1,1,0,0,1,1)", "(1,1,1) (0,0,1,0,0,1)", "(1,1,1) (0,0,1,1,0,1)",
         "(1,1,1) (1,0,1,0,0,1)", "(1,1,1) (1,0,1,1,0,1)")
     + ["psi_{11}(1) != 0",
        "psi cocycle relation fails at (0,1,1), arrow 1",
        "psi cocycle relation fails at (1,0,1), arrow 1",
        "psi cocycle relation fails at (1,1,0), arrow 1",
        "psi cocycle relation fails at (1,1,1), arrow 1"],
     [((0, 0, 0), (0,)), ((0, 0, 1), (0,)), ((1, 0, 1), (0,)), ((0, 1, 1), (0,)),
      ((1, 1, 1), (1,))]),
    ([{0, 1}, {0}], 5,
     _identity_failures(
         "(0,0,1) (0,0,0,1,0,0)", "(0,0,1) (0,1,0,0,0,0)", "(0,0,1) (1,0,0,0,0,0)",
         "(0,0,1) (1,1,0,1,0,0)", "(0,1,1) (1,0,0,0,0,0)", "(0,1,1) (1,0,0,0,1,0)",
         "(0,1,1) (1,0,1,0,0,0)", "(0,1,1) (1,0,1,0,1,0)", "(1,0,1) (0,0,0,1,0,0)",
         "(1,0,1) (0,0,1,1,0,0)", "(1,1,1) (0,1,0,0,0,0)", "(1,1,1) (0,1,0,0,1,0)")
     + ["psi_{00}(1) depends on the choice of i"],
     [((0, 0, 0), (0,)), ((1, 0, 0), (0,)), ((0, 1, 0), (0,)), ((1, 1, 0), (0,)),
      ((0, 0, 1), (0,))]),
]


@pytest.mark.parametrize("cover, seed, failures, psi", PSI_FAILURES)
def test_psi_failures_on_a_corrupted_value(cover, seed, failures, psi):
    rep = verify_psi_coherence(_corrupted_restriction(cover, seed))
    assert not rep.ok
    assert rep.failures == failures
    assert list(rep.psi.items()) == psi
    with pytest.raises(NotACocycleError) as exc:
        extension_from_covered_cocycle(_corrupted_restriction(cover, seed))
    assert str(exc.value) == "; ".join(failures[:3])


def test_covered_data_must_cover_every_arrow():
    phi, _ = nonsplit_extension()
    # the unit is an arrow too: a cover without it is rejected
    for cover in ([{1}], [{0}, set()], [{0, 1, 2}]):
        with pytest.raises(ValueError, match="family must cover the arrows"):
            CoveredCocycleData(C2, A22, tuple(map(frozenset, cover)), {})
        with pytest.raises(ValueError, match="family must cover the arrows"):
            restrict_cocycle_to_cover(C2, A22, phi, cover)


# ---------------------------------------------------------------------------
# torsors


def all_one_cocycles(G, A):
    cg = cochain_group(G, A, 1)
    out = []
    for vec in itertools.product(*(range(d) for d in cg.orders)):
        c = unflatten_cochain(G, A, 1, list(vec))
        if is_cocycle(G, A, c):
            out.append(c)
    return out


def test_trivial_torsor():
    T = trivial_torsor(C2, A22)
    assert validate_torsor(T).ok
    phi = cocycle_from_torsor(C2, A22, T, (0,))
    assert phi.values == zero_cochain(C2, A22, 1).values


def test_nontrivial_torsor_has_no_fixed_point():
    phi = make_cochain(C2, A22, 1, [(0,), (1,)])
    T = torsor_from_cocycle(C2, A22, phi)
    assert validate_torsor(T).ok
    s = 1  # the nonunit arrow of C2
    assert all(T.act(s, p) != p for p in range(T.n_points))


def test_torsor_round_trips_exhaustive():
    for G, A in FIXTURES:
        for phi in all_one_cocycles(G, A):
            T = torsor_from_cocycle(G, A, phi)
            assert validate_torsor(T).ok
            sections = tuple(next(p for p in range(T.n_points) if T.anchor[p] == x)
                             for x in G.objects())
            back = cocycle_from_torsor(G, A, T, sections)
            assert is_cocycle(G, A, back)
            assert are_cohomologous(G, A, back, phi) is not None


def test_torsor_section_changes_are_coboundaries():
    phi = make_cochain(C2, A22, 1, [(0,), (1,)])
    T = torsor_from_cocycle(C2, A22, phi)
    outs = [cocycle_from_torsor(C2, A22, T, (p,)) for p in range(T.n_points)]
    for psi in outs:
        diff = cochain_sub(C2, A22, outs[0], psi)
        assert is_coboundary(C2, A22, diff) is not None


def test_coboundary_torsor_is_shift_of_trivial():
    b = make_cochain(C2, A22, 0, [(1,)])
    phi = differential(C2, A22, b)
    T = torsor_from_cocycle(C2, A22, phi)
    T0 = trivial_torsor(C2, A22)
    # shift by b is an equivariant isomorphism T0 -> T
    shift = {p: T.translate(p, b.values[T.anchor[p]]) for p in range(T.n_points)}
    assert sorted(shift.values()) == list(range(T.n_points))
    for p in range(T0.n_points):
        x = T0.anchor[p]
        for a in A22.fiber(x).elements():
            assert shift[T0.translate(p, a)] == T.translate(shift[p], a)
        for g in C2.arrows():
            if C2.src[g] == x:
                assert shift[T0.act(g, p)] == T.act(g, shift[p])


def test_torsor_rejects_non_cocycle():
    non = make_cochain(C2, A22, 1, [(1,), (0,)])
    assert not is_cocycle(C2, A22, non)
    with pytest.raises(NotACocycleError):
        torsor_from_cocycle(C2, A22, non)


def _torsor_with(T, **tables):
    return dataclasses.replace(T, **{k: {**getattr(T, k), **v} for k, v in tables.items()})


@pytest.mark.parametrize("corrupt, failure", [
    # the generator fixes every point, though it acts on Z/3 by -1
    (lambda: _torsor_with(trivial_torsor(C2, negation_module()),
                          g_act={(1, p): p for p in range(3)}),
     "equivariance g(p+a) = gp + g.a fails"),
    (lambda: _torsor_with(torsor_from_cocycle(C2, A22, make_cochain(C2, A22, 1, [(0,), (1,)])),
                          g_act={(0, 0): 1}),
     "unit does not fix point 0"),
    (lambda: _torsor_with(trivial_torsor(C2, negation_module()), plus={(0, (1,)): 0}),
     "action not free and transitive"),
    (lambda: dataclasses.replace(trivial_torsor(C2, A22), g_act={(0, 0): 0, (0, 1): 1}),
     "arrow action domain wrong at (1,0)"),
])
def test_validate_torsor_names_the_failure(corrupt, failure):
    rep = validate_torsor(corrupt())
    assert not rep.ok
    assert any(f.startswith(failure) for f in rep.failures), rep.failures
    assert rep.failures == TORSOR_FAILURES[failure]


TORSOR_FAILURES = {
    "equivariance g(p+a) = gp + g.a fails": [
        f"equivariance g(p+a) = gp + g.a fails at (1,{p})" for p in range(3)],
    "unit does not fix point 0": [
        "unit does not fix point 0",
        "(gh)p != g(hp) at arrow pair (1,0), point 0",
        "(gh)p != g(hp) at arrow pair (1,1), point 0",
        "(gh)p != g(hp) at arrow pair (0,1), point 1",
        "equivariance g(p+a) = gp + g.a fails at (0,0)",
        "equivariance g(p+a) = gp + g.a fails at (0,1)"],
    "action not free and transitive": [
        "(p+a)+b != p+(a+b) at point 0", "(p+a)+b != p+(a+b) at point 0",
        "action not free and transitive between 0 and 0",
        "action not free and transitive between 0 and 1",
        "(p+a)+b != p+(a+b) at point 1", "(p+a)+b != p+(a+b) at point 2"],
    "arrow action domain wrong at (1,0)": [
        "arrow action domain wrong at (1,0)", "arrow action domain wrong at (1,1)"],
}


def test_validate_torsor_reports_an_action_off_its_anchor():
    # an arrow of the pair groupoid between its two objects sends a point
    # back into its own fiber; the checks after that one read g(hp) at such
    # a point, so the report stops there
    P2 = pair_groupoid(2)
    T = trivial_torsor(P2, constant_module(P2, Z2))
    g, p = next(key for key in T.g_act if P2.src[key[0]] != P2.tgt[key[0]])
    rep = validate_torsor(_torsor_with(T, g_act={(g, p): p}))
    assert rep.failures == [f"anchor(g p) != r(g) at ({g},{p})"]
