import itertools
import random

import pytest
from oracles import find_isomorphism

from groupoid_cohomology.groupoid import (
    FiniteGroupoid,
    MonotoneMap,
    NerveTuple,
    StructureError,
    action_groupoid,
    all_monotone_maps,
    all_strict_maps,
    cover_groupoid,
    cyclic_group,
    degeneracy,
    disjoint_union,
    face,
    fibers,
    pair_groupoid,
    simplicial_map,
    unit_groupoid,
    validate,
)
from groupoid_cohomology.randomized import random_instance


def swap_action(n=2):
    act = {}
    for g in range(2):
        for z in range(n):
            act[(g, z)] = z if g == 0 else (n - 1 - z if z in (0, n - 1) else z)
    return act


def test_builders_validate():
    assert validate(cyclic_group(2)).ok
    assert validate(cyclic_group(5)).ok
    assert validate(unit_groupoid(3)).ok
    assert validate(pair_groupoid(3)).ok


def test_corrupted_table_fails_with_witness():
    G = cyclic_group(4)
    comp = dict(G.comp)
    comp[(1, 1)] = 3  # should be 2
    bad = FiniteGroupoid(1, G.src, G.tgt, G.unit, comp, G.inv)
    rep = validate(bad)
    assert not rep.ok
    assert any("associativity" in f or "unit" in f or "inverse" in f or "range/source" in f
               for f in rep.failures)
    assert rep.failures == [f"associativity fails at ({t})" for t in (
        "1,1,2", "1,1,3", "1,2,3", "1,3,2", "2,1,1", "2,3,1", "3,1,1", "3,2,1")]


def test_missing_product_is_reported():
    # C3 with a * a left out: reported as a gap in the table, and the
    # associativity triples through it fail instead of raising
    G = cyclic_group(3)
    comp = {k: v for k, v in G.comp.items() if k != (1, 1)}
    rep = validate(FiniteGroupoid(1, G.src, G.tgt, G.unit, comp, G.inv))
    assert rep.failures == ["comp defined on (1,1) iff composable violated",
                            "associativity fails at (1,1,2)", "associativity fails at (1,2,2)",
                            "associativity fails at (2,1,1)", "associativity fails at (2,2,1)"]


def _random_groupoids():
    rng = random.Random(23)
    return [random_instance(rng, max_arrows=12)[0] for _ in range(30)]


def test_fibers_into_and_out_match_their_definitions():
    assert fibers((), 2) == [[], []]
    assert fibers((1, 0, 1, 1), 3) == [[1], [0, 2, 3], []]
    for G in _random_groupoids():
        assert G.into == [[h for h in G.arrows() if G.tgt[h] == x] for x in G.objects()]
        assert G.out == [[g for g in G.arrows() if G.src[g] == x] for x in G.objects()]
        for g in G.arrows():
            for h in G.arrows():
                assert (h in G.into[G.src[g]]) == ((g, h) in G.comp) == (g in G.out[G.tgt[h]])


def test_nerve_matches_brute_force_enumeration():
    # every composable tuple of arrows, in lexicographic order of the arrow ids
    for G in _random_groupoids():
        for n in range(1, 4):
            brute = [a for a in itertools.product(G.arrows(), repeat=n)
                     if all(G.src[g] == G.tgt[h] for g, h in zip(a, a[1:]))]
            assert G.nerve_count(n) == len(brute)  # counted before level n is built
            assert [t.arrows for t in G.nerve(n)] == brute
            assert [t.obj for t in G.nerve(n)] == [G.tgt[a[0]] for a in brute]


def test_nerve_counts():
    C2 = cyclic_group(2)
    assert len(C2.nerve(2)) == 4
    P2 = pair_groupoid(2)
    assert len(P2.nerve(1)) == 4
    assert len(P2.nerve(2)) == 8
    assert [t.obj for t in C2.nerve(0)] == [0]


def test_nerve_tuple_keeps_the_hash_order_and_repr_of_its_fields():
    """A NerveTuple hashes, orders and prints as the frozen ordered
    dataclass it replaced did, so set and dict iteration orders stay put;
    it also equals the plain tuple (obj, arrows)."""
    pts = [t for G in (cyclic_group(2), pair_groupoid(2)) for n in range(3) for t in G.nerve(n)]
    for t in pts:
        assert hash(t) == hash((t.obj, t.arrows))
        assert t == (t.obj, t.arrows) and t.level == len(t.arrows)
    assert all((a < b) == ((a.obj, a.arrows) < (b.obj, b.arrows)) for a in pts for b in pts)
    assert repr(NerveTuple(0, (1, 2))) == "NerveTuple(obj=0, arrows=(1, 2))"
    assert repr(NerveTuple(3)) == "NerveTuple(obj=3, arrows=())"


def test_face_examples():
    C2 = cyclic_group(2)
    t = NerveTuple(0, (1, 1))  # (s, s)
    assert face(C2, 1, t) == NerveTuple(0, (0,))  # s*s = e
    # first face drops the first arrow
    t2 = NerveTuple(0, (1, 0))
    assert face(C2, 0, t2) == NerveTuple(0, (0,))
    # level 1: face 1 is the range
    assert face(C2, 1, NerveTuple(0, (1,))) == NerveTuple(0)
    assert face(C2, 0, NerveTuple(0, (1,))) == NerveTuple(0)
    with pytest.raises(IndexError):
        face(C2, 3, t)


def test_degeneracy_examples():
    C2 = cyclic_group(2)
    # unit map at level 0
    assert degeneracy(C2, 0, NerveTuple(0)) == NerveTuple(0, (0,))
    # insert r(g1) in front
    assert degeneracy(C2, 0, NerveTuple(0, (1,))) == NerveTuple(0, (0, 1))
    # insert s(g1) after position 1
    assert degeneracy(C2, 1, NerveTuple(0, (1,))) == NerveTuple(0, (1, 0))


def test_simplicial_map_examples():
    C2 = cyclic_group(2)
    t = NerveTuple(0, (1, 1, 0))
    assert simplicial_map(C2, MonotoneMap.identity(3), t) == t
    # f = {0 -> 0, 1 -> 3}: total product g1 g2 g3
    assert simplicial_map(C2, MonotoneMap(3, (0, 3)), t) == NerveTuple(0, (0,))
    # constant map lands on a vertex object
    t2 = NerveTuple(0, (1, 0))
    assert simplicial_map(C2, MonotoneMap(2, (2,)), t2) == NerveTuple(0)
    with pytest.raises(ValueError):
        simplicial_map(C2, MonotoneMap(1, (0, 1)), t)


def _groupoid_zoo():
    zoo = [cyclic_group(1), cyclic_group(2), cyclic_group(3), unit_groupoid(2),
           pair_groupoid(2), action_groupoid(cyclic_group(2), 2, [0, 0], swap_action())]
    rng = random.Random(9)
    for _ in range(3):
        G, _ = random_instance(rng, max_arrows=6)
        zoo.append(G)
    return zoo


def test_simplicial_identities_exhaustive():
    """The five identity families, at every level <= 4."""
    for G in _groupoid_zoo():
        for n in range(0, 5):
            for t in G.nerve(n):
                # eta_i eta_j = eta_{j+1} eta_i for i <= j
                for j in range(n + 1):
                    for i in range(j + 1):
                        lhs = degeneracy(G, i, degeneracy(G, j, t))
                        rhs = degeneracy(G, j + 1, degeneracy(G, i, t))
                        assert lhs == rhs
                if n < 2:
                    continue
                # eps_i eps_j = eps_{j-1} eps_i for i < j
                for j in range(n + 1):
                    for i in range(j):
                        lhs = face(G, i, face(G, j, t))
                        rhs = face(G, j - 1, face(G, i, t))
                        assert lhs == rhs
            for t in G.nerve(n):
                if n < 1:
                    continue
                # mixed identities on eta_j then eps_i at level n
                for j in range(n + 1):
                    up = degeneracy(G, j, t)
                    for i in range(n + 2):
                        lhs = face(G, i, up)
                        if i < j:
                            assert lhs == degeneracy(G, j - 1, face(G, i, t))
                        elif i in (j, j + 1):
                            assert lhs == t
                        else:
                            assert lhs == degeneracy(G, j, face(G, i - 1, t))


def test_simplicial_map_functoriality_exhaustive():
    """(f o g)~ = g~ o f~ over all monotone maps at levels <= 4."""
    for G in [cyclic_group(2), pair_groupoid(2)]:
        for n in range(0, 4):
            tuples = G.nerve(n)[:6]
            for k in range(0, n + 1):
                for f in all_monotone_maps(k, n):
                    for l in range(0, k + 1):
                        for g in all_monotone_maps(l, k):
                            fg = f.compose(g)
                            for t in tuples:
                                via = simplicial_map(G, g, simplicial_map(G, f, t))
                                direct = simplicial_map(G, fg, t)
                                assert via == direct


def test_simplicial_map_agrees_with_faces_and_degeneracies():
    G = cyclic_group(3)
    for n in range(1, 4):
        for t in G.nerve(n):
            for i in range(n + 1):
                assert simplicial_map(G, MonotoneMap.face(n, i), t) == face(G, i, t)
    for n in range(0, 3):
        for t in G.nerve(n):
            for i in range(n + 1):
                assert simplicial_map(G, MonotoneMap.degeneracy(n, i), t) == degeneracy(G, i, t)


def _homogeneous_apply(G, f, t):
    """Independent route: block products g_{f(j-1)+1} ... g_{f(j)} for every
    monotone f, with empty blocks becoming units at the skipped vertex."""
    verts = G.vertices(t)
    k = f.domain
    if k == 0:
        return NerveTuple(verts[f.values[0]])
    arrows = []
    for j in range(1, k + 1):
        lo, hi = f.values[j - 1], f.values[j]
        arrows.append(G.compose_list(list(t.arrows[lo:hi]), at_object=verts[hi]))
    return NerveTuple(verts[f.values[0]], tuple(arrows))


def test_simplicial_map_matches_homogeneous_formula():
    for G in [cyclic_group(3), pair_groupoid(2),
              action_groupoid(cyclic_group(2), 2, [0, 0], swap_action())]:
        for n in range(0, 4):
            for t in G.nerve(n)[:8]:
                for k in range(0, n + 1):
                    for f in all_monotone_maps(k, n):
                        assert simplicial_map(G, f, t) == _homogeneous_apply(G, f, t)


def test_strict_map_enumeration():
    assert len(all_strict_maps(1, 3)) == 6
    assert len(all_monotone_maps(1, 1)) == 3


def test_cover_groupoid_double_point():
    C2 = cyclic_group(2)
    cg = cover_groupoid(C2, [{0}, {0}])
    assert cg.groupoid.n_arrows == 8
    assert cg.groupoid.n_objects == 2
    assert validate(cg.groupoid).ok
    assert cg.canon.is_morphism()
    # isotropy at each object is still the 2-element group
    H = cg.groupoid
    for x in H.objects():
        assert sum(1 for a in H.arrows() if H.src[a] == H.tgt[a] == x) == 2


def test_cover_groupoid_trivial_and_partition():
    C2 = cyclic_group(2)
    cg = cover_groupoid(C2, [{0}])
    assert find_isomorphism(cg.groupoid, C2) is not None
    U2 = unit_groupoid(2)
    cg2 = cover_groupoid(U2, [{0}, {1}])
    assert find_isomorphism(cg2.groupoid, U2) is not None
    with pytest.raises(ValueError):
        cover_groupoid(U2, [{0}])


C2_TABLES = dict(n_objects=1, src=[0, 0], tgt=[0, 0], unit=[0],
                 comp={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, inv=[0, 1])
UNKNOWN_OBJECTS = "src/tgt refer to unknown objects"
UNKNOWN_ARROWS = "composition/unit/inverse tables refer to unknown arrows"


@pytest.mark.parametrize("changes, message", [
    ({"comp": {**C2_TABLES["comp"], (1, 2): 1}}, UNKNOWN_ARROWS),
    ({"comp": {**C2_TABLES["comp"], (1, 1): 2}}, UNKNOWN_ARROWS),
    ({"comp": {**C2_TABLES["comp"], (-1, 0): 1}}, UNKNOWN_ARROWS),
    ({"unit": [-1]}, UNKNOWN_ARROWS),
    ({"src": [0, 1]}, UNKNOWN_OBJECTS),
    ({"tgt": [-1, 0]}, UNKNOWN_OBJECTS),
    ({"unit": [2]}, UNKNOWN_ARROWS),
    ({"inv": [0, 5]}, UNKNOWN_ARROWS),
    # objects are checked before arrows
    ({"src": [0, 1], "comp": {(0, 7): 0}}, UNKNOWN_OBJECTS),
])
def test_dangling_ids_raise_structure_error(changes, message):
    with pytest.raises(StructureError) as exc:
        FiniteGroupoid(**{**C2_TABLES, **changes})
    assert str(exc.value) == message


def test_action_groupoid_swap_is_pair():
    C2 = cyclic_group(2)
    A = action_groupoid(C2, 2, [0, 0], swap_action())
    assert A.n_arrows == 4 and A.n_objects == 2
    assert validate(A).ok
    assert find_isomorphism(A, pair_groupoid(2)) is not None


def test_action_groupoid_rejects_bad_data():
    C2 = cyclic_group(2)
    act = swap_action()
    act[(1, 0)] = 0  # no longer a homomorphism action
    with pytest.raises(ValueError):
        action_groupoid(C2, 2, [0, 0], act)


def test_disjoint_union():
    G, inc1, inc2 = disjoint_union(cyclic_group(2), unit_groupoid(2))
    assert validate(G).ok
    assert inc1.is_morphism() and inc2.is_morphism()
    assert G.n_arrows == 4 and G.n_objects == 3


def test_nerve_count_precedes_the_level():
    rng = random.Random(3)
    for _ in range(10):
        G, _ = random_instance(rng, max_arrows=8)
        for n in range(4):
            count = G.nerve_count(n)
            assert n < 2 or n not in G._nerve_cache  # counted, not built
            assert count == len(G.nerve(n)) == G.nerve_count(n)
