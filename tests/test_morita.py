import random

import pytest

from timing import time_limit

from groupoid_cohomology import abelian, morita
from groupoid_cohomology.abelian import AbHom, FinAbGroup, IntegerMatrix
from groupoid_cohomology.cech import Budget, BudgetExceeded, use_budget
from groupoid_cohomology.classify import ext_classes, is_strictly_trivial
from groupoid_cohomology.cli import parse, run
from groupoid_cohomology.cohomology import (
    cochain_group,
    cohomology,
    differential,
    is_coboundary,
    unflatten_cochain,
)
from groupoid_cohomology.gmodule import GModule, constant_module, pullback_module
from groupoid_cohomology.groupoid import cover_groupoid, cyclic_group, pair_groupoid
from groupoid_cohomology.morita import cover_nerve_structure, morita_compare
from groupoid_cohomology.randomized import random_instance, random_object_cover

C2 = cyclic_group(2)
A22 = constant_module(C2, FinAbGroup((2,)))


def test_trivial_cover_identical():
    rep = morita_compare(C2, A22, [{0}], degrees=(0, 1, 2))
    assert rep.ok
    for row in rep.rows:
        assert row.left == row.right == cohomology(C2, A22, row.degree)


def test_doubled_point_cover():
    rep = morita_compare(C2, A22, [{0}, {0}], degrees=(0, 1, 2), compare_ext=True)
    assert rep.ok
    assert all(str(row.left) == "Z/2" for row in rep.rows)
    assert rep.ext_left == rep.ext_right == 2


def test_doubled_point_nontrivial_module():
    Z3 = FinAbGroup((3,))
    neg = GModule(C2, (Z3,),
                  (AbHom.identity(Z3), AbHom(Z3, Z3, IntegerMatrix.from_rows([[-1]]))))
    rep = morita_compare(C2, neg, [{0}, {0}], degrees=(0, 1, 2), compare_ext=True)
    assert rep.ok
    assert all(row.left.is_trivial for row in rep.rows)


def test_pair_groupoid_partition_cover():
    P2 = pair_groupoid(2)
    A = constant_module(P2, FinAbGroup((4,)))
    rep = morita_compare(P2, A, [{0}, {1}], degrees=(0, 1, 2), compare_ext=True)
    assert rep.ok
    assert rep.rows[1].left.is_trivial and rep.rows[2].left.is_trivial


def test_randomized_morita():
    rng = random.Random(2024)
    done = 0
    while done < 8:
        G, A = random_instance(rng, max_arrows=6)
        sets = random_object_cover(rng, G, max_sets=2)
        try:
            with use_budget(Budget(max_cover_nerve=700)):
                rep = morita_compare(G, A, sets, degrees=(0, 1, 2))
        except BudgetExceeded:
            continue
        assert rep.ok, rep.lines()
        done += 1


def test_budget_rejection():
    C6 = cyclic_group(6)
    A = constant_module(C6, FinAbGroup((2,)))
    with use_budget(Budget(max_cover_nerve=100)), pytest.raises(BudgetExceeded):
        morita_compare(C6, A, [{0}, {0}, {0}])


def test_ext_count_is_budgeted_at_level_three():
    # without 2 among the degrees the ext count still computes H^2, which
    # reads the level-3 nerve (64 tuples for C4)
    C4 = cyclic_group(4)
    A = constant_module(C4, FinAbGroup((4,)))
    with use_budget(Budget(max_cover_nerve=20)):
        with pytest.raises(BudgetExceeded, match="nerve has 64 tuples at level 3") as err:
            morita_compare(C4, A, [{0}], degrees=(0, 1), compare_ext=True)
        assert err.value.estimate == 64
        assert morita_compare(C4, A, [{0}], degrees=(0, 1)).ok


def test_refused_cover_nerve_level_is_never_built(monkeypatch):
    built = []

    def recording_cover_groupoid(G, sets):
        built.append(cover_groupoid(G, sets))
        return built[-1]

    monkeypatch.setattr(morita, "cover_groupoid", recording_cover_groupoid)
    C6 = cyclic_group(6)
    with use_budget(Budget(max_cover_nerve=100)):
        with pytest.raises(BudgetExceeded, match="nerve has 17496 tuples at level 3"):
            morita_compare(C6, constant_module(C6, FinAbGroup((2,))), [{0}, {0}, {0}])
    assert 3 not in built[0].groupoid._nerve_cache


def test_cover_nerve_structure_counts():
    d = cover_nerve_structure(C2, [{0}, {0}], 1)
    assert d.count == 8 and d.consistent  # 2 * 2 * |G|
    d0 = cover_nerve_structure(C2, [{0}, {0}], 0)
    assert d0.tuples == ((0, 0), (1, 0)) and d0.consistent
    # trivial cover: counts match the plain nerve
    for n in range(3):
        d = cover_nerve_structure(C2, [{0}], n)
        assert d.count == len(C2.nerve(n)) and d.consistent
    rng = random.Random(5)
    for _ in range(5):
        G, _ = random_instance(rng, max_arrows=6)
        sets = random_object_cover(rng, G, max_sets=3)
        for n in range(3):
            assert cover_nerve_structure(G, sets, n).consistent


def test_ext_counts_match_ext_classes():
    # the ext counts (orders of the factors-only H^2) against the classes
    # ext_classes enumerates, with and without degree 2 among the rows
    rng = random.Random(7)
    done = 0
    while done < 12:
        G, A = random_instance(rng, max_arrows=6)
        sets = random_object_cover(rng, G, max_sets=2)
        degrees = (0, 1) if done % 2 else (0, 1, 2)
        try:
            with use_budget(Budget(max_cover_nerve=300)):
                rep = morita_compare(G, A, sets, degrees=degrees, compare_ext=True)
        except BudgetExceeded:
            continue
        cg = cover_groupoid(G, sets)
        with time_limit(10):
            left = len(ext_classes(G, A).classes)
            right = len(ext_classes(cg.groupoid, pullback_module(cg.canon, A)).classes)
        assert (rep.ext_left, rep.ext_right) == (left, right)
        done += 1


# C2 acting by -1 on Z/5 beside a point with (Z/2)^2: the dense SNF of
# ext_classes on its cover groupoid for {y}, {x, y} has no bound on growth
TWO_FIBER_DOC = """\
groupoid: table
object: x
object: y
arrow: e x x
arrow: g x x
arrow: u y y
compose: e e e
compose: e g g
compose: g e g
compose: g g e
compose: u u u
unit: x e
unit: y u
module: fibers
fiber: x 5
fiber: y 2,2
action: g [[4]]
"""
TWO_FIBER = parse(TWO_FIBER_DOC)


def test_two_fiber_morita_document():
    with time_limit(5):
        results, code = run(parse(TWO_FIBER_DOC + "task: morita 1|0,1\n"))
    assert code == 0
    (result,) = results
    assert result.ok and result.data["ext_left"] == result.data["ext_right"] == 1
    assert [(r["left"], r["right"]) for r in result.data["rows"]] == [
        ({"torsion": [2, 2], "free_rank": 0},) * 2, ({"torsion": [], "free_rank": 0},) * 2,
        ({"torsion": [], "free_rank": 0},) * 2]


def test_two_fiber_ext_counts():
    G, A = TWO_FIBER.groupoid, TWO_FIBER.module
    with time_limit(5):
        rep = morita_compare(G, A, [{1}, {0, 1}], compare_ext=True)
    assert rep.ok and rep.ext_left == rep.ext_right == 1


def test_two_fiber_cover_ext_classes():
    # H^2 of the cover groupoid is trivial, so ext_classes needs no
    # representative cocycle and never enters the dense generator path
    cover = cover_groupoid(TWO_FIBER.groupoid, [{1}, {0, 1}])
    B = pullback_module(cover.canon, TWO_FIBER.module)
    assert cover.groupoid.n_arrows == 6
    with time_limit(1):
        cls = ext_classes(cover.groupoid, B)
    assert cls.factors.is_trivial
    (only,) = cls.classes
    assert is_strictly_trivial(only.extension) is not None


def _counting(monkeypatch, name):
    calls = []
    f = getattr(abelian, name)
    monkeypatch.setattr(abelian, name, lambda *a, **kw: calls.append(a) or f(*a, **kw))
    return calls


def test_no_dense_snf_for_morita_or_coboundaries(monkeypatch):
    # Modulo a prime every nonzero entry is a unit pivot, so the sparse
    # kernel leaves no residual block: a witness solve over prime fibers and
    # a Morita check whose fibers share one prime never reach the dense
    # Smith normal form.
    snf = _counting(monkeypatch, "_smith_with_inverses")
    solve = _counting(monkeypatch, "solve_columns")
    C3 = cyclic_group(3)
    A3 = constant_module(C3, FinAbGroup((3,)))
    G, A = TWO_FIBER.groupoid, TWO_FIBER.module
    rng = random.Random(3)
    for group, module in [(C2, A22), (C3, A3), (G, A)]:
        if group is not G:
            assert morita_compare(group, module, [{0}, {0}], compare_ext=True).ok
        for n in (1, 2):
            for _ in range(4):
                vec = [rng.randrange(6) for _ in range(cochain_group(group, module, n - 1).ngens)]
                d = differential(group, module, unflatten_cochain(group, module, n - 1, vec))
                w = is_coboundary(group, module, d)
                assert w is not None and differential(group, module, w).values == d.values
    assert snf == [] and solve == []
    # Mixed orders 5 and 2: every unit of the cochain complexes pairs two
    # cells of equal order, so the cancellation leaves no residual block at
    # all; the generator path is never entered.
    assert morita_compare(G, A, [{1}, {0, 1}], compare_ext=True).ok
    assert snf == [] and solve == []
    ext_classes(C3, A3)  # the generator path does run the dense SNF
    assert solve
