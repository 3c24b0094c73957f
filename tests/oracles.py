"""Independent oracles for the acceptance suite.

The group-cohomology oracle calls none of the library's differential,
matrix or homology code: it enumerates cochains as dictionaries and applies
the alternating-sum formula written out from scratch; quotient group types
are recovered from element orders alone. The groupoid differential and the
extension builder have face-by-face and pair-by-pair references here, on
`groupoid.face`, FinAbGroup arithmetic and the module action only. The
Baer sum has one that finds each orbit representative by scanning the
coefficient fiber. The coboundary assembler and the unit-pivot elimination
have reference versions too: a dense assembler into row lists, and the
elimination with the bucket-scan pivot search that the heap replaced. The
factors of H^n have the three-pass routine that ran before the
cancellation of unit pairs, on that elimination and the library's dense
SNF; the lift search has the one that scans every chosen arrow.
Cech cochains have the dictionary form {label: {point: value}} that the
cell tables of `cech` replaced: a coboundary summed face by face on
`MonotoneMap.face`, `groupoid.simplicial_map` (not the spaces' structure-map
tables) and `coeffs.restrict`, a pull-back along an index map, and the random
cochain as that form drew it.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod

from groupoid_cohomology.abelian import (IntegerMatrix, InvariantFactors,
                                         invariant_factors_of_presentation, kernel_basis)
from groupoid_cohomology.classify import Extension, NotACocycleError
from groupoid_cohomology.cohomology import Cochain
from groupoid_cohomology.groupoid import (FiniteGroupoid, GroupoidMorphism, MonotoneMap, face,
                                         simplicial_map)


def cyclic_table(n):
    """Cayley table of Z/n as a dict; elements are 0..n-1, unit 0."""
    return {(a, b): (a + b) % n for a in range(n) for b in range(n)}


def brute_force_group_cohomology(table, unit, act, mod, degree):
    """H^degree of a finite group acting on Z/mod, by full enumeration.

    `table` is the multiplication dict, `act[g]` the multiplier giving the
    action of g on Z/mod. Returns canonical invariant factors (via element
    orders of the quotient set Z^n / B^n, built extensionally).
    """
    elements = sorted({g for g, _ in table})
    m = mod

    def tuples(k):
        if k == 0:
            return [()]
        return list(itertools.product(elements, repeat=k))

    def coboundary(c, args):
        # (dc)(g1..gk) per the alternating-sum formula, written out directly
        k = len(args)
        if k == 1:
            (g,) = args
            return (act[g] * c[()] - c[()]) % m
        total = act[args[0]] * c[args[1:]]
        sign = -1
        for i in range(1, k):
            merged = args[:i - 1] + (table[(args[i - 1], args[i])],) + args[i + 1:]
            total += sign * c[merged]
            sign = -sign
        total += sign * c[args[:-1]]
        return total % m

    def all_cochains(k):
        doms = tuples(k)
        for values in itertools.product(range(m), repeat=len(doms)):
            yield dict(zip(doms, values))

    def is_cocycle(c, k):
        return all(coboundary(c, args) == 0 for args in tuples(k + 1))

    cocycles = [tuple(sorted(c.items())) for c in all_cochains(degree)
                if is_cocycle(c, degree)]
    if degree == 0:
        boundaries = {tuple(sorted({(): 0}.items()))}
    else:
        boundaries = set()
        for b in all_cochains(degree - 1):
            db = {args: coboundary(b, args) for args in tuples(degree)}
            boundaries.add(tuple(sorted(db.items())))

    # the quotient as a plain set with addition induced coordinatewise
    def add(c1, c2):
        return tuple((k, (v1 + v2) % m) for (k, v1), (_, v2) in zip(c1, c2))

    classes = []
    seen = set()
    for z in cocycles:
        if z in seen:
            continue
        orbit = {add(z, b) for b in boundaries}
        seen |= orbit
        classes.append(z)
    zero = tuple(sorted({args: 0 for args in tuples(degree)}.items()))

    def class_of(c):
        for rep in classes:
            if c in {add(rep, b) for b in boundaries}:
                return rep
        raise AssertionError("class escape")

    orders = []
    for rep in classes:
        k, acc = 1, rep
        while class_of(acc) != class_of(zero):
            acc = add(acc, rep)
            k += 1
        orders.append(k)
    return invariant_factors_from_orders(orders)


def periodic_resolution_cyclic(n, coeff_order, degree):
    """H^degree(Z/n, M) for M = Z (coeff_order 0) or Z/m, trivial action.

    From the standard two-periodic free resolution of Z over Z[Z/n]: the
    complex alternates multiplication by 0 and by n, so for M = Z the odd
    groups vanish and the positive even ones are Z/n; for M = Z/m both
    parities give Z/gcd(n, m). Frozen closed forms, no matrix work.
    """
    from math import gcd
    if degree == 0:
        return (0,) if coeff_order == 0 else (coeff_order,)
    if coeff_order == 0:
        return () if degree % 2 == 1 else (n,)
    g = gcd(n, coeff_order)
    return () if g == 1 else (g,)


def invariant_sections_by_enumeration(G, A):
    """Fixed sections counted extensionally: all (a_x) with g.a_{s(g)} = a_{r(g)}."""
    pools = [A.fiber(x).elements() for x in G.objects()]
    fixed = []
    for combo in itertools.product(*pools):
        good = True
        for g in G.arrows():
            if A.act(g, combo[G.src[g]]) != combo[G.tgt[g]]:
                good = False
                break
        if good:
            fixed.append(combo)
    return fixed


def section_orders(G, A, fixed):
    out = []
    for combo in fixed:
        k, acc = 1, combo
        while any(any(v) for v in acc):
            acc = tuple(A.fiber(x).add(acc[x], combo[x]) for x in G.objects())
            k += 1
        out.append(k)
    return out


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def invariant_factors_from_orders(element_orders):
    """Invariant factors of a finite abelian group from its element-order multiset.

    Works prime by prime: #{x : p^j x = 0} / #{x : p^(j-1) x = 0} equals p to
    the number of cyclic p-power factors of order >= p^j. Used by brute-force
    oracles, independently of any matrix computation.
    """
    element_orders = list(element_orders)
    exponent = 1
    for n in element_orders:
        exponent = lcm(exponent, n)
    per_prime = {}
    for p in _prime_factors(exponent):
        ms = []
        prev = sum(1 for n in element_orders if n == 1)
        j = 1
        while True:
            pj = p ** j
            cur = sum(1 for n in element_orders if pj % n == 0)
            if cur == prev:
                break
            ratio, m = cur // prev, 0
            while ratio > 1:
                ratio //= p
                m += 1
            ms.append(m)  # number of p-power factors of order >= p^j
            prev = cur
            j += 1
        count = ms[0] if ms else 0
        divisors = []
        for i in range(1, count + 1):
            e = max(jj + 1 for jj, m in enumerate(ms) if m >= i)
            divisors.append(p ** e)
        per_prime[p] = sorted(divisors, reverse=True)
    width = max((len(v) for v in per_prime.values()), default=0)
    invs = []
    for i in range(width):
        invs.append(prod(vals[i] for vals in per_prime.values() if i < len(vals)))
    return InvariantFactors(tuple(sorted(d for d in invs if d >= 2)), 0)


def find_isomorphism(G, H):
    """Exhaustive search for an isomorphism of finite groupoids, or None.

    Desk-scale only: backtracks over object bijections and arrow images with
    composition-consistency pruning.
    """
    if G.n_objects != H.n_objects or G.n_arrows != H.n_arrows:
        return None

    def profile(K, x):
        return (sum(1 for a in K.arrows() if K.src[a] == x),
                sum(1 for a in K.arrows() if K.tgt[a] == x))

    gprof = [profile(G, x) for x in G.objects()]
    hprof = [profile(H, x) for x in H.objects()]
    for objperm in itertools.permutations(range(H.n_objects)):
        if any(gprof[x] != hprof[objperm[x]] for x in G.objects()):
            continue
        amap = [None] * G.n_arrows
        used = [False] * H.n_arrows
        for x in G.objects():
            amap[G.unit[x]] = H.unit[objperm[x]]
            used[H.unit[objperm[x]]] = True
        order = [g for g in G.arrows() if amap[g] is None]

        def consistent(g):
            for h in G.arrows():
                if amap[h] is None:
                    continue
                if G.is_composable(g, h):
                    gh = G.comp[(g, h)]
                    if amap[gh] is not None and H.comp.get((amap[g], amap[h])) != amap[gh]:
                        return False
                if G.is_composable(h, g):
                    hg = G.comp[(h, g)]
                    if amap[hg] is not None and H.comp.get((amap[h], amap[g])) != amap[hg]:
                        return False
            gi = G.inv[g]
            if amap[gi] is not None and H.inv[amap[g]] != amap[gi]:
                return False
            return True

        def backtrack(pos):
            if pos == len(order):
                return True
            g = order[pos]
            for h in H.arrows():
                if used[h] or H.src[h] != objperm[G.src[g]] or H.tgt[h] != objperm[G.tgt[g]]:
                    continue
                amap[g] = h
                used[h] = True
                if consistent(g) and backtrack(pos + 1):
                    return True
                amap[g] = None
                used[h] = False
            return False

        if backtrack(0):
            morphism = GroupoidMorphism(G, H, tuple(objperm), tuple(amap))
            if morphism.is_morphism():
                return morphism
    return None


def face_table_by_faces(G, n):
    """Positions in nerve(n) of the n+2 faces of each (n+1)-tuple, one
    `face` call and one NerveTuple lookup per face."""
    index = {t: i for i, t in enumerate(G.nerve(n))}
    return [tuple(index[face(G, k, t)] for k in range(n + 2)) for t in G.nerve(n + 1)]


def differential_by_faces(G, A, c):
    """The values of dc, one tuple per (n+1)-tuple, by the alternating face
    sum written out on `face` and FinAbGroup arithmetic: face 0 is moved
    into the fiber at r(g1) by the action of g1."""
    n = c.degree
    index = {t: i for i, t in enumerate(G.nerve(n))}
    out = []
    for t in G.nerve(n + 1):
        fib = A.fiber(t.obj)
        total = fib.zero()
        for k in range(n + 2):
            v = c.values[index[face(G, k, t)]]
            if k == 0:
                v = A.act(t.arrows[0], v)
            total = fib.sub(total, v) if k % 2 else fib.add(total, v)
        out.append(total)
    return tuple(out)


def extension_from_cocycle_by_pairs(G, A, phi):
    """The extension of a 2-cocycle built pair by pair: arrows (g, a) found
    by dict lookup and every product through FinAbGroup and the module
    action. The cocycle check walks faces, and a failure cites the first
    failing tuple as the library does."""
    for t, v in zip(G.nerve(3), differential_by_faces(G, A, phi)):
        if any(x != 0 for x in v):
            labels = tuple(G.arrow_labels[g] for g in t.arrows)
            raise NotACocycleError(f"dphi != 0 at the tuple {labels}")
    index = {t.arrows: i for i, t in enumerate(G.nerve(2))}

    def val(g, h):
        return phi.values[index[(g, h)]]

    pairs = [(g, a) for g in G.arrows() for a in A.fiber(G.tgt[g]).elements()]
    pairs.sort()
    aid = {p: i for i, p in enumerate(pairs)}
    src = [G.src[g] for (g, a) in pairs]
    tgt = [G.tgt[g] for (g, a) in pairs]

    def phixx(x):
        e = G.unit[x]
        return val(e, e)

    unit = []
    for x in G.objects():
        fib = A.fiber(x)
        unit.append(aid[(G.unit[x], fib.neg(phixx(x)))])
    comp = {}
    for (g, a) in pairs:
        for (h, b) in pairs:
            if G.is_composable(g, h):
                fib = A.fiber(G.tgt[g])
                c = fib.add(fib.add(fib.reduce(a), A.act(g, b)), val(g, h))
                comp[(aid[(g, a)], aid[(h, b)])] = aid[(G.compose(g, h), c)]
    inv = []
    for (g, a) in pairs:
        gi = G.inv[g]
        fib = A.fiber(G.tgt[g])
        r = G.tgt[g]
        total = fib.add(fib.add(fib.reduce(a), val(g, gi)), phixx(r))
        inv.append(aid[(gi, A.fiber(G.src[g]).neg(A.act(gi, total)))])
    labels = [f"[{a},{G.arrow_labels[g]}]" for (g, a) in pairs]
    total = FiniteGroupoid(G.n_objects, src, tgt, unit, comp, inv,
                           object_labels=G.object_labels, arrow_labels=labels)
    proj = tuple(g for (g, a) in pairs)
    inj = {}
    for x in G.objects():
        fib = A.fiber(x)
        for a in fib.elements():
            inj[(x, a)] = aid[(G.unit[x], fib.sub(a, phixx(x)))]
    return Extension(G, A, total, proj, inj, arrow_pairs=tuple(pairs))


def baer_sum_by_orbits(E1, E2):
    """The Baer sum with each orbit of the fiber product found by scanning
    the coefficient fiber: its least pair over every i(-a) e1, i(a) e2, on
    pairs of arrows with equal projections filtered from all pairs."""
    G, A = E1.base, E1.module
    T1, T2 = E1.total, E2.total

    def orbit_rep(e1, e2):
        x = T1.tgt[e1]
        best = (e1, e2)
        for a in A.fiber(x).elements():
            cand = (E1.act_coefficient(A.fiber(x).neg(a), x, e1),
                    E2.act_coefficient(a, x, e2))
            if cand < best:
                best = cand
        return best

    reps = sorted({orbit_rep(e1, e2)
                   for e1 in T1.arrows() for e2 in T2.arrows()
                   if E1.proj[e1] == E2.proj[e2]})
    aid = {p: i for i, p in enumerate(reps)}
    src = [T1.src[e1] for (e1, e2) in reps]
    tgt = [T1.tgt[e1] for (e1, e2) in reps]
    unit = [aid[orbit_rep(T1.unit[x], T2.unit[x])] for x in G.objects()]
    comp = {}
    for (e1, e2) in reps:
        for (f1, f2) in reps:
            if T1.is_composable(e1, f1):
                comp[(aid[(e1, e2)], aid[(f1, f2)])] = aid[
                    orbit_rep(T1.compose(e1, f1), T2.compose(e2, f2))]
    inv = [aid[orbit_rep(T1.inv[e1], T2.inv[e2])] for (e1, e2) in reps]
    labels = [f"<{T1.arrow_labels[e1]};{T2.arrow_labels[e2]}>" for (e1, e2) in reps]
    total = FiniteGroupoid(G.n_objects, src, tgt, unit, comp, inv,
                           object_labels=G.object_labels, arrow_labels=labels)
    proj = tuple(E1.proj[e1] for (e1, e2) in reps)
    inj = {}
    for x in G.objects():
        for a in A.fiber(x).elements():
            inj[(x, a)] = aid[orbit_rep(E1.inj[(x, a)], T2.unit[x])]
    return Extension(G, A, total, proj, inj)


def search_lifts_by_pairs(E, twist):
    """The lift search of `classify._search_lifts` checking each new choice g
    against every chosen arrow h, pairs (g, h) and (h, g) filtered by
    composability through `comp`. Same candidates, order and pruning."""
    G, T = E.base, E.total
    lifts = [[e for e in T.arrows() if E.proj[e] == g] for g in G.arrows()]
    nonunits = [g for g in G.arrows() if g not in set(G.unit)]
    assign = {G.unit[x]: T.unit[x] for x in G.objects()}

    def check_partial(g):
        for h in list(assign):
            for u, v in ((g, h), (h, g)):
                uv = G.comp.get((u, v))
                if (uv in assign and T.comp[assign[u], assign[v]]
                        != T.comp[twist[u, v], assign[uv]]):
                    return False
        return True

    def backtrack(pos):
        if pos == len(nonunits):
            return True
        g = nonunits[pos]
        for cand in lifts[g]:
            assign[g] = cand
            if check_partial(g) and backtrack(pos + 1):
                return True
            del assign[g]
        return False

    return assign if backtrack(0) else None


def dense_coboundary(source_fibers, target_fibers, table):
    """The rows of the matrix that `cohomology.assemble_coboundary` stores as
    sparse columns, filled densely: each face of a target cell adds sign
    times the dense matrix of its restriction (the identity for None) into
    the block of its source cell; a face at position None (degenerate, on
    the normalized complex) adds nothing but keeps its sign. Entries are not
    reduced."""
    offsets, pos = [], 0
    for fib in source_fibers:
        offsets.append(pos)
        pos += len(fib.orders)
    rows = []
    for fib, faces in zip(target_fibers, table):
        block = [[0] * pos for _ in fib.orders]
        for k, (s, r) in enumerate(faces):
            sign = -1 if k % 2 else 1
            if s is None:
                continue
            if r is None:
                for i, row in enumerate(block):
                    row[offsets[s] + i] += sign
            else:
                for row, entries in zip(block, r.matrix.entries):
                    for j, x in enumerate(entries):
                        row[offsets[s] + j] += sign * x
        rows.extend(block)
    return rows


def _reduced(vec, orders):
    out = {}
    for c, x in vec.items():
        x = x % orders[c] if orders[c] else x
        if x:
            out[c] = x
    return out


def bucket_unit_eliminate(cols, orders, track=None, track_orders=None, col_orders=None):
    """The unit-pivot elimination of `abelian._unit_eliminate` with the
    search it had before the heap: rows and columns bucketed by nnz, every
    entry of the short rows and columns rescanned at each pivot for the
    unit of least Markowitz cost. Same contract and return value."""
    rows = {}
    for j, col in enumerate(cols):
        for i in col:
            rows.setdefault(i, set()).add(j)
    row_nnz, col_nnz = {}, {}  # nnz -> the rows (columns) with that many entries

    def move(buckets, key, old, new):
        if old:
            bucket = buckets[old]
            bucket.discard(key)
            if not bucket:
                del buckets[old]
        if new:
            buckets.setdefault(new, set()).add(key)

    def link(r, j):
        move(row_nnz, r, len(rows[r]), len(rows[r]) + 1)
        rows[r].add(j)

    def unlink(r, j):
        move(row_nnz, r, len(rows[r]), len(rows[r]) - 1)
        rows[r].discard(j)

    for i, js in rows.items():
        move(row_nnz, i, 0, len(js))
    for j, col in enumerate(cols):
        move(col_nnz, j, 0, len(col))

    def is_unit(i, j):
        x, o = cols[j][i], orders[i]
        return ((gcd(x, o) == 1 if o else abs(x) == 1)
                and (col_orders is None or col_orders[j] == o))

    def choose_pivot():
        # an entry not yet seen after count k lies in a row and a column of
        # more than k entries, and of at least the least count of any row
        # (column)
        best, best_cost = None, None
        if not row_nnz:
            return None
        rmin, cmin = min(row_nnz), min(col_nnz)
        top = max(max(row_nnz), max(col_nnz))
        for k in range(min(rmin, cmin), top + 1):
            candidates = [(i, j) for i in row_nnz.get(k, ()) for j in rows[i]]
            candidates += [(i, j) for j in col_nnz.get(k, ()) for i in cols[j]]
            for i, j in candidates:
                if is_unit(i, j):
                    cost = (len(rows[i]) - 1) * (len(cols[j]) - 1)
                    if best is None or cost < best_cost:
                        best, best_cost = (i, j), cost
                        if cost == 0:
                            return best
            if best is not None and best_cost <= max(k, rmin - 1) * max(k, cmin - 1):
                return best
        return best

    pivots = []
    while (pivot := choose_pivot()) is not None:
        i, p = pivot
        pivots.append(pivot)
        o, colp = orders[i], cols[p]
        q_unit = pow(colp[i], -1, o) if o else colp[i]
        for j in [j for j in rows[i] if j != p]:
            col = cols[j]
            q = col[i] * q_unit % o if o else col[i] * q_unit
            before = len(col)
            for r, v in colp.items():
                x = col.get(r, 0) - q * v
                if orders[r]:
                    x %= orders[r]
                if x:
                    if r not in col:
                        link(r, j)
                    col[r] = x
                elif r in col:
                    del col[r]
                    unlink(r, j)
            move(col_nnz, j, before, len(col))
            if track is not None and track[p]:
                tj = track[j]
                for c, v in track[p].items():
                    tj[c] = tj.get(c, 0) - q * v
                track[j] = _reduced(tj, track_orders)
        before = len(colp)
        for r in list(colp):
            x = o * colp[r] % orders[r] if orders[r] else o * colp[r]
            if x and r != i:
                colp[r] = x
            else:
                del colp[r]
                unlink(r, p)
        move(col_nnz, p, before, len(colp))
        del rows[i]
        if track is not None:
            track[p] = _reduced({c: o * v for c, v in track[p].items()}, track_orders)
    return pivots


def _stacked_block(cols, orders):
    live = [j for j, col in enumerate(cols) if col]
    rows = sorted({i for j in live for i in cols[j]})
    finite = [a for a, i in enumerate(rows) if orders[i]]
    data = [[cols[j].get(i, 0) for j in live] + [orders[i] if a == b else 0 for b in finite]
            for a, i in enumerate(rows)]
    return live, IntegerMatrix(len(rows), len(live) + len(finite), data)


def _stacked_kernel(cols, orders, track, track_orders):
    bucket_unit_eliminate(cols, orders, track, track_orders)
    gens = [t for col, t in zip(cols, track) if not col and t]
    live, block = _stacked_block(cols, orders)
    if live:
        for v in kernel_basis(block).columns():
            acc = {}
            for a, t in zip(v, (track[j] for j in live)):
                for c, x in t.items():
                    acc[c] = acc.get(c, 0) + a * x
            acc = _reduced(acc, track_orders)
            if acc:
                gens.append(acc)
    return gens


def three_pass_factors(cx, n):
    """H^n of an uncancelled complex by the three passes that factors-only
    `homology_at` ran before the cancellation: the kernel K of maps[n] mod
    the target orders, then Y = {y : K y in im maps[n-1] + diag(s)}, then
    Z^k / (Y + L Z^k) with L = lcm(s). Each pass eliminates unit pivots
    (the bucket search above) and stacks its residual block with the
    relations of its finite rows for the dense SNF."""
    s = cx.groups[n].orders
    out, into = cx.map_out_of(n), cx.map_into(n)
    t = out.target.orders
    K = _stacked_kernel([_reduced(col, t) for col in out.columns], t,
                        [_reduced({c: 1}, s) for c in range(len(s))], s)
    k, L = len(K), lcm(*s)
    Lk = [L] * k
    Y = _stacked_kernel(K + [_reduced(col, s) for col in into.columns], s,
                        [{y: 1} for y in range(k)] + [{} for _ in into.columns], Lk)
    pivots = bucket_unit_eliminate(Y, Lk)
    live, block = _stacked_block(Y, Lk)
    rest = (invariant_factors_of_presentation(block.rows, block) if live
            else InvariantFactors((), 0))
    untouched = k - len(pivots) - block.rows
    return InvariantFactors(rest.torsion + ((L,) * untouched if L > 1 else ()),
                            rest.free_rank + (untouched if L == 0 else 0))


# ---------------------------------------------------------------------------
# Cech cochains as dictionaries


def cochain_by_cells(fam, c):
    """A flat cochain over a family as {label: {point: value}}, its values
    read in the family's label then point order."""
    values = iter(c.values)
    return {label: {p: next(values) for p in fam.points_of(c.degree, label)}
            for label in fam.indices(c.degree)}


def random_cochain_by_cells(coeffs, fam, n, rng):
    """A random cochain drawn cell by cell, label then point, each coordinate
    from rng.randrange(order) (Z: -3..3)."""
    data = {}
    for label in fam.indices(n):
        data[label] = {}
        for p in fam.points_of(n, label):
            fib = coeffs.fiber(n, p)
            data[label][p] = fib.reduce(tuple(rng.randrange(d) if d else rng.randrange(-3, 4)
                                              for d in fib.orders))
    return data


def coboundary_by_cells(space, coeffs, fam, n, data):
    """(dc)_i = sum_k (-1)^k eps_k~* c_{eps_k~(i)} at every level-(n+1) cell,
    each face formed by `MonotoneMap.face`, the family's face index,
    `simplicial_map` (the identity on a constant space) and `coeffs.restrict`."""
    G = getattr(space, "groupoid", None)
    out = {}
    for label in fam.indices(n + 1):
        out[label] = {}
        for p in fam.points_of(n + 1, label):
            fib = coeffs.fiber(n + 1, p)
            total = fib.zero()
            for k in range(n + 2):
                eps = MonotoneMap.face(n + 1, k)
                v = data[fam.face_index(k, n + 1, label)][
                    p if G is None else simplicial_map(G, eps, p)]
                r = coeffs.restrict(eps, p)
                if r is not None:
                    v = r.apply(v)
                total = fib.sub(total, v) if k % 2 else fib.add(total, v)
            out[label][p] = total
    return out


def pull_back_by_cells(target, n, data, source_index):
    """The cochain over target whose value at (label, p) is data at
    (source_index(label), p)."""
    return {label: {p: data[source_index(label)][p] for p in target.points_of(n, label)}
            for label in target.indices(n)}


def basis_cochains(coeffs, fam, n):
    """Indicator cochains, one per generator of C^n over a family, in order."""
    fibers = [coeffs.fiber(n, p) for label in fam.indices(n) for p in fam.points_of(n, label)]
    zero = [fib.zero() for fib in fibers]
    for i, fib in enumerate(fibers):
        for j in range(fib.ngens):
            values = list(zero)
            values[i] = fib.reduce(tuple(int(k == j) for k in range(fib.ngens)))
            yield Cochain(n, tuple(values))
