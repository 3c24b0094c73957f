"""Two refinements of the same pair of covers are chain homotopic.

The operator H has an explicit index recipe (the three-way alpha case
split). A cochain is one value per cell, and d, theta*, q, iota and H are
each a table with one row per target cell; we check theta1* - theta0* =
dH + Hd cell by cell, exactly, on a random instance, then run the
constant-space comparison where the same recipe proves iota q - id = dH + Hd
against the usual Cech complex of a cover, and finally read q iota = id off
the assembled matrices.
"""

import random

from groupoid_cohomology import (
    FinAbGroup,
    MaximalSimplicialCover,
    ModuleCoefficients,
    NerveSpace,
    check_homotopy_identity,
    constant_module,
    constant_space_comparison,
    cyclic_group,
    run_homotopy_trials,
)
from groupoid_cohomology.abelian import AbHom
from groupoid_cohomology.cech import SigmaCover, complex_coordinates
from groupoid_cohomology.cohomology import Cochain
from groupoid_cohomology.randomized import (random_coarsening, random_cochain,
                                            random_refinement_pair)

rng = random.Random(1)
C2 = cyclic_group(2)
A = constant_module(C2, FinAbGroup((2,)))
space = NerveSpace(C2)
coeffs = ModuleCoefficients(A)

# Fine cover: singletons (always simplicial). Coarse cover: random unions of
# the fine pieces, so refinement maps exist and usually are not unique.
fine = MaximalSimplicialCover(space)
coarse = random_coarsening(rng, space, fine, top=3)
theta0, theta1 = random_refinement_pair(rng, space, fine, coarse, top=3)

for degree in (1, 2):
    sU = SigmaCover(space, coarse, degree + 1)
    phi = random_cochain(space, coeffs, sU, degree, rng)
    lhs, rhs = check_homotopy_identity(space, coeffs, sU, fine, theta0, theta1, phi)
    print(f"degree {degree}: dH + Hd == theta1* - theta0* ?", lhs == rhs)

# A seeded batch across random spaces, covers and refinement pairs.
report = run_homotopy_trials(seed=7, count=40)
print(report.summary())

# ---------------------------------------------------------------------------
# The constant-space comparison: a 3-point space with the partition cover.

comp = constant_space_comparison(3, [{0}, {1}, {2}], FinAbGroup((0,)), top=2)
ok_qi = ok_h = True
for n in range(3):
    # q iota as one matrix: the composite of two assembled tables
    q, iota = comp.q(n).hom(), comp.iota(n).hom()
    ok_qi &= q.compose(iota).equals(AbHom.identity(iota.source))
    # the homotopy identity on every indicator cochain of the sigma complex
    cells = complex_coordinates(comp.space, comp.coeffs, comp.sigma, n)
    for i, (_, _, fib) in enumerate(cells):
        for j in range(fib.ngens):
            values = [f.zero() for *_, f in cells]
            values[i] = tuple(int(k == j) for k in range(fib.ngens))
            lhs, rhs = comp.check_identities(Cochain(n, tuple(values)))
            ok_h &= lhs == rhs
print("q iota = id as a matrix:", ok_qi)
print("dH + Hd = iota q - id on every generator:", ok_h)
