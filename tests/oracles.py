"""Slow, independent reference implementations used to check the library.

Everything here is written for obviousness, not speed: membership by
reachability, factorizations by exhaustive product or by extending the
fibers over fewer generators, connectivity by repeated merging.  None of it
shares code with src/nsg.
"""

from __future__ import annotations

import itertools
from math import gcd


def naive_gaps(raw_generators):
    """Gaps of the monoid generated by raw_generators, by direct reachability.

    Walks n = 1, 2, ... marking n reachable when n - a is reachable for some
    generator a.  Once min(generators) consecutive values are reachable,
    every larger value is too, so the walk stops there.
    """
    gens = sorted(set(raw_generators))
    assert gens and gens[0] >= 1
    m = gens[0]
    reach = [True]
    run = 0
    n = 0
    while run < m:
        n += 1
        ok = any(n >= a and reach[n - a] for a in gens)
        reach.append(ok)
        run = run + 1 if ok else 0
    return [i for i, r in enumerate(reach) if not r]


def naive_frobenius(raw_generators):
    g = naive_gaps(raw_generators)
    return max(g) if g else -1


def naive_genus(raw_generators):
    return len(naive_gaps(raw_generators))


def naive_member(raw_generators, n, _cache={}):
    key = tuple(sorted(set(raw_generators)))
    if key not in _cache:
        gaps = naive_gaps(key)
        _cache[key] = (set(gaps), max(gaps, default=-1))
    gap_set, frob = _cache[key]
    if n < 0:
        return False
    return n > frob or n not in gap_set


def naive_apery(raw_generators, m):
    """Least member of each residue class mod m, walking each class upward.

    m must be a positive member, so every class holds members and the walk
    in each class ends.
    """
    out = []
    for r in range(m):
        k = r
        while not naive_member(raw_generators, k):
            k += m
        out.append(k)
    return out


def hilbert_identity_holds(raw_generators, degrees):
    """Whether prod(1 - t^a) * H_S(t) = prod(1 - t^d) for S = <raw_generators>.

    H_S(t) is the sum of t^s over the elements s of S, and the identity is
    the Hilbert series of a graded complete intersection
    k[x_1..x_e]/(f_1..f_(e-1)) with deg x_i = a_i and deg f_j = d_j, so it
    holds for the relation degrees of a complete intersection.  It also
    determines them: the least d has coefficient minus its multiplicity in
    prod(1 - t^d), as every other product of factors has a higher degree;
    divide those factors out and repeat.

    The gaps come from naive_apery: class r mod m holds the gaps r, r + m,
    ... below its Apery element.  With G(t) the sum of t^gap, of degree F,
    H_S(t) = 1/(1 - t) - G(t), so the left side is a polynomial of degree
    at most F + sum(a), as (1 - t^a)/(1 - t) is one of degree a - 1.  Both
    sides are compared through degree max(F + sum(a), sum(d)) + 1, which is
    sum(d) + 1 when the a-invariant sum(d) - sum(a) is F: all of both
    polynomials.
    """
    gens = sorted(set(raw_generators))
    m = gens[0]
    gaps = {n for r, w in enumerate(naive_apery(gens, m)) for n in range(r, w, m)}
    top = max(max(gaps, default=-1) + sum(gens), sum(degrees)) + 1
    left = [int(n not in gaps) for n in range(top + 1)]
    right = [1] + [0] * top
    for factors, series in ((gens, left), (degrees, right)):
        for a in factors:
            # times (1 - t^a), from the top down so each term reads its old value
            for n in range(top, a - 1, -1):
                series[n] -= series[n - a]
    return left == right


def naive_factorizations(generators, n):
    """All coordinate tuples c with sum(c[i] * generators[i]) == n."""
    gens = list(generators)
    ranges = [range(n // a + 1) for a in gens]
    return sorted(
        c
        for c in itertools.product(*ranges)
        if sum(x * a for x, a in zip(c, gens)) == n
    )


def fiber_table(generators, top):
    """Every factorization of every n <= top, as table[n], a list of tuples.

    Built one generator at a time: the factorizations of n over a_1..a_k
    are those of n - c * a_k over a_1..a_{k-1}, each extended by c, for
    c = 0..n // a_k; over no generators only 0 factors, as ().  Each fiber
    is listed once per factorization, in no particular order.
    """
    table = [[()]] + [[] for _ in range(top)]
    for a in generators:
        table = [
            [f + (c,) for c in range(n // a + 1) for f in table[n - c * a]]
            for n in range(top + 1)
        ]
    return table


def _share_support(u, v):
    return any(x > 0 and y > 0 for x, y in zip(u, v))


def naive_r_classes(facts):
    """Partition factorizations by shared-support connectivity.

    Merges any two blocks containing support-sharing members until stable;
    quadratic, but transparently the transitive closure.
    """
    blocks = [{f} for f in facts]
    changed = True
    while changed:
        changed = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if any(
                    _share_support(u, v) for u in blocks[i] for v in blocks[j]
                ):
                    blocks[i] |= blocks[j]
                    del blocks[j]
                    changed = True
                    break
            if changed:
                break
    return sorted((frozenset(b) for b in blocks), key=lambda b: min(b))


def rewrite_connected(facts, relations):
    """True when the relation moves connect all of facts.

    A relation (l, r) rewrites u -> u - l + r whenever u >= l coordinatewise,
    and symmetrically with l and r swapped.  This is exactly the congruence
    generated by the relations, restricted to one fiber.
    """
    facts = list(facts)
    if len(facts) <= 1:
        return True
    index = {f: i for i, f in enumerate(facts)}
    parent = list(range(len(facts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    components = len(facts)
    moves = [(l, r) for l, r in relations] + [(r, l) for l, r in relations]
    for u in facts:
        iu = find(index[u])
        for l, r in moves:
            if all(a >= b for a, b in zip(u, l)):
                v = tuple(a - b + c for a, b, c in zip(u, l, r))
                iv = find(index[v])
                if iu != iv:
                    parent[iv] = iu
                    components -= 1
                    if components == 1:
                        return True
    return components == 1


def naive_semigroups(genus):
    """Every numerical semigroup of the given genus, as (gaps, generators).

    Enumerates candidate gap sets directly.  All gaps lie in [1, 2g - 1]:
    if n were a gap, then for each pair (s, n - s) at least one member is a
    gap, giving ceil((n - 1) / 2) gaps below n, plus n itself; n > 2g - 1
    would force more than g gaps.  A complement is a semigroup exactly when
    it is closed under the sums that still land below the bound.
    """
    if genus == 0:
        return [(frozenset(), (1,))]
    bound = 2 * genus - 1
    out = []
    for combo in itertools.combinations(range(1, bound + 1), genus):
        gap_set = frozenset(combo)
        members = [n for n in range(1, bound + 1) if n not in gap_set]
        closed = True
        for x in members:
            for y in members:
                s = x + y
                if s <= bound and s in gap_set:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            out.append((gap_set, naive_min_generators(gap_set, bound)))
    return out


def naive_min_generators(gap_set, frobenius_bound):
    """Minimal generators of the semigroup whose gaps are gap_set.

    An element is a minimal generator when it is not a sum of two nonzero
    elements.  Minimal generators never exceed frobenius + multiplicity,
    so scanning to 2 * frobenius_bound + 2 is safe.
    """
    top = 2 * frobenius_bound + 2
    member = [n == 0 or (n > frobenius_bound or n not in gap_set) for n in range(top + 1)]
    member[0] = True
    gens = []
    for n in range(1, top + 1):
        if not member[n]:
            continue
        if any(member[x] and member[n - x] for x in range(1, n)):
            continue
        gens.append(n)
    return tuple(gens)


def kunz_semigroups(max_genus):
    """(genus, multiplicity, minimal generators) of every numerical semigroup
    of genus <= max_genus, by Kunz coordinates instead of a tree walk.

    N has genus 0 and generators (1,).  Any other S has multiplicity m >= 2,
    and its Apery set w.r.t. m is 0 and w_i = k_i * m + i, i = 1 .. m - 1:
    class i holds the k_i gaps i, i + m, ..., so the genus is the sum of the
    k_i.  The vectors with k_i >= 1 that arise are exactly those with

        k_i + k_j >= k_(i+j)          for i + j < m,
        k_i + k_j + 1 >= k_(i+j-m)    for i + j > m

    (Kunz 1987; Rosales, García-Sánchez, García-García and Branco 2002), as
    w_i + w_j is in S and i + j is its class.  So m <= genus + 1.  Here k_1,
    k_2, ... are assigned in turn, each checked against the inequalities
    whose indices are all assigned by then, the largest being its own.
    n is in S when n >= w_(n mod m), and w_i is a minimal generator exactly
    when no w_i - w_j, j != i in 1 .. m - 1, is in S; m always is one.
    """
    yield 0, 1, (1,)
    for m in range(2, max_genus + 2):
        k = [0] * m

        def member(n):
            return n >= 0 and n >= k[n % m] * m + n % m

        def assign(i, genus):
            if i == m:
                w = [k[r] * m + r for r in range(m)]
                minimal = [
                    w[r] for r in range(1, m)
                    if not any(member(w[r] - w[j]) for j in range(1, m) if j != r)
                ]
                yield genus, m, tuple(sorted([m, *minimal]))
                return
            # the k_j still to assign after k_i take at least 1 each
            for value in range(1, max_genus - genus - (m - 1 - i) + 1):
                k[i] = value
                if all(k[j] + k[i - j] >= value for j in range(1, i)) and all(
                    value + k[j] + 1 >= k[i + j - m] for j in range(m - i + 1, i + 1)
                ):
                    yield from assign(i + 1, genus + value)

        yield from assign(1, 0)
