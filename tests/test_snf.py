"""The dense Smith normal form against a reference kept verbatim.

`_reference_smith` is the dense SNF that carried U, U^-1 and V through
every step, scanned the whole trailing block for each pivot and rescanned
it for divisibility at every step. `abelian._smith_with_inverses` carries
only the transforms its caller names, on sparse rows, stops the pivot scan
at the first +-1 and skips the divisibility rescan when the pivot is 1 or
equals the previous diagonal entry. Each transform a caller reads must
equal the reference's entry for entry, and each one it does not name is
None.
"""

import random
from unittest import mock

from hypothesis import given, reject, settings, strategies as st
from timing import time_limit

from groupoid_cohomology import abelian
from groupoid_cohomology.abelian import IntegerMatrix
from groupoid_cohomology.cohomology import cochain_complex
from groupoid_cohomology.randomized import random_instance


def _reference_smith(M):
    """Smith normal form with three transforms.

    Returns (S, U, V, Uinv) with U*M*V = S, S diagonal, d1 | d2 | ...,
    di >= 0, U*Uinv = identity and V unimodular. Pivoting picks the
    minimal-absolute-value nonzero entry, which keeps coefficient growth tame
    on desk-scale matrices.
    """
    r, c = M.rows, M.cols
    S = [list(row) for row in M.entries]
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    Ui = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    V = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        if i == j:
            return
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        for row in Ui:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        if i == j:
            return
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        if q == 0:
            return
        Si, Sj = S[i], S[j]
        for k in range(c):
            Si[k] += q * Sj[k]
        Uii, Uj = U[i], U[j]
        for k in range(r):
            Uii[k] += q * Uj[k]
        for row in Ui:
            row[j] -= q * row[i]

    def add_col(i, j, q):
        # col_j += q * col_i
        if q == 0:
            return
        for row in S:
            row[j] += q * row[i]
        for row in V:
            row[j] += q * row[i]

    def negate_row(i):
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]
        for row in Ui:
            row[i] = -row[i]

    t = 0
    while t < min(r, c):
        pivot = None
        for i in range(t, r):
            for j in range(t, c):
                v = S[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(pivot[2])):
                    pivot = (i, j, v)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if S[t][t] < 0:
            negate_row(t)
        while True:
            dirty = False
            for i in range(t + 1, r):
                if S[i][t] != 0:
                    add_row(i, t, -(S[i][t] // S[t][t]))
                    if S[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, c):
                if S[t][j] != 0:
                    add_col(t, j, -(S[t][j] // S[t][t]))
                    if S[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                if S[t][t] < 0:
                    negate_row(t)
                continue
            # the pivot must divide the whole trailing block
            culprit = None
            for i in range(t + 1, r):
                if any(S[i][j] % S[t][t] != 0 for j in range(t + 1, c)):
                    culprit = i
                    break
            if culprit is None:
                break
            add_row(t, culprit, 1)
        t += 1

    return (IntegerMatrix(r, c, S), IntegerMatrix(r, r, U), IntegerMatrix(c, c, V),
            IntegerMatrix(r, r, Ui))


# what each caller names: pass 3 and the presentation factors, the finite
# residual kernel and kernel_basis, solve_columns and smith_normal_form, the
# final SNF of homology_at; and all three at once
SELECTORS = [(), ("V",), ("U", "V"), ("Uinv",), ("U", "V", "Uinv")]


def _assert_matches_reference(M, carry, got=None):
    S, U, V, Ui = _reference_smith(M)
    if got is None:
        got = abelian._smith_with_inverses(M, carry)
    assert got[0] == S
    for name, transform, want in zip(("U", "V", "Uinv"), got[1:], (U, V, Ui)):
        assert transform == (want if name in carry else None), name


@st.composite
def snf_matrices(draw):
    """Up to 6x6, mostly multiples of one d, so that diagonal values repeat
    (the divisibility rescan is skipped after the first), a few entries of
    another modulus (the pivot stops dividing the block) and a few +-1 late
    in row-major order (the pivot scan passes every other entry first)."""
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    d = draw(st.sampled_from((2, 3, 4, 6)))
    rows = [[d * draw(st.sampled_from((0, 0, 0, 1, -1, 2, -3))) for _ in range(c)]
            for _ in range(r)]
    if r and c:
        for _ in range(draw(st.integers(0, 2))):
            rows[draw(st.integers(0, r - 1))][draw(st.integers(0, c - 1))] = draw(
                st.sampled_from((4, 9, -10, 5)))
        for _ in range(draw(st.integers(0, 2))):
            rows[draw(st.integers(r // 2, r - 1))][draw(st.integers(c // 2, c - 1))] = draw(
                st.sampled_from((1, -1)))
    return IntegerMatrix(r, c, rows)


@settings(max_examples=400, deadline=None)
@given(snf_matrices())
def test_snf_transforms_match_reference(M):
    for carry in SELECTORS:
        _assert_matches_reference(M, carry)


def test_snf_matches_reference_on_worked_cases():
    # a repeated diagonal entry after a divisibility fix-up, a +-1 as the
    # last entry, an empty and a zero matrix
    for rows in ([[2, 0, 0], [0, 3, 0], [0, 0, 6]], [[6, 4], [4, 6]],
                 [[4, 6, 2], [6, 4, 2], [2, 2, -1]], [[0, 0], [0, 0]]):
        for carry in SELECTORS:
            _assert_matches_reference(IntegerMatrix.from_rows(rows), carry)
    for carry in SELECTORS:
        _assert_matches_reference(IntegerMatrix(0, 3, []), carry)
        _assert_matches_reference(IntegerMatrix(2, 0, [[], []]), carry)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.booleans())
def test_snf_matches_reference_on_cochain_complexes(seed, n, allow_infinite):
    # every dense SNF of the generator path (the stacked [h | diag(orders)]
    # of _kernel_lattice, K in solve_columns and kernel_basis, the final SNF)
    # and of the residual blocks, with the transforms each caller names
    G, A = random_instance(random.Random(seed), max_arrows=8, allow_infinite=allow_infinite)
    cx = cochain_complex(G, A, n + 1)
    h = cx.map_out_of(n)
    sub = cx.map_into(n).matrix.hstack(cx.groups[n].relation_matrix())
    calls = []
    snf = abelian._smith_with_inverses

    def spy(M, carry):
        out = snf(M, carry)
        calls.append((M, carry, out))
        return out

    # The dense SNF has no bound on integer growth: on a few complexes here
    # (two primes among the orders) it runs for minutes, the reference too.
    # Such a draw gives no comparison and is rejected.
    try:
        with time_limit(3):
            with mock.patch.object(abelian, "_smith_with_inverses", spy):
                K = abelian._kernel_lattice(h)
                abelian.solve_columns(K, sub)
                abelian.kernel_basis(K)
                abelian.homology_at(cx, n, with_generators=True)
            for M, carry, out in calls:
                _assert_matches_reference(M, carry, out)
    except TimeoutError:
        reject()
    assert {carry for _, carry, _ in calls} >= {("V",), ("U", "V")}
