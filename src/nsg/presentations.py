"""Factorizations, R-classes, Betti elements, minimal presentations.

A factorization of n is a coordinate vector (c_1, ..., c_e) with
sum(c_i * a_i) = n.  Two factorizations of n are adjacent when they share a
generator (some coordinate positive in both); the transitive closure of
adjacency partitions the factorizations of n into R-classes.  Elements with
at least two R-classes are the Betti elements, and a minimal presentation
picks, for each Betti element, enough relations (pairs of factorizations) to
connect its classes: c - 1 relations for c classes.

The classes are computed through the generator graph G_n, whose vertices
are the generators a_i with n - a_i in S and whose edges join a_i and a_j
when n - a_i - a_j is in S.  For n > 0 its components are in bijection with
the R-classes (proof at _components).  One breadth-first pass over G_n,
reading membership off the Apery table, counts the classes without
enumerating a fiber; a factorization goes to the class of the component
holding its first nonzero coordinate.  Fibers themselves are enumerated by
one pruned search (_coords), which serves factorizations, r_classes and
the relations of minimal_presentation.

Betti elements all lie in the window [0, W), W = max(Ap) + a_e + 1, and
are found by one of two routes that return the same list.  When the window
is dense, W <= BITS_MAX_DENSITY * m, _betti_bits builds the membership
bitset of S in it once and finds every n whose G_n has two or more
components by a bit-parallel propagation over all of the window at once,
at most eight machine words per residue and bitset.  Otherwise
_betti_candidates runs _components on each of the at most m(e - 1)
candidates w + a_i, which stays cheap where the bitsets would be huge, as
for <1000, 1000001>.

The relation count of a minimal presentation, compared with the number of
generators, detects complete intersections.  The library decides those by
their gluing trees and reads their relation degrees off the tree
(nsg.gluing), so minimal_presentation and relation_degrees are the measured
route: they serve `nsg presentation`, and the tests compare the tree
degrees against them.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .core import NumericalSemigroup, _value_class
from .errors import NegativeElementError

__all__ = [
    "Factorization",
    "Presentation",
    "Relation",
    "betti_elements",
    "factorizations",
    "minimal_presentation",
    "r_classes",
    "relation_degrees",
]


class Factorization(NamedTuple):
    coords: tuple[int, ...]
    value: int

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


class Relation(NamedTuple):
    left: Factorization
    right: Factorization
    degree: int


@_value_class
class Presentation:
    """A minimal presentation: its relations and their degrees, in (degree, left) order."""

    relations: tuple[Relation, ...]
    degrees: tuple[int, ...]


def _coords(semigroup: NumericalSemigroup, n: int) -> list[tuple[int, ...]]:
    """All factorization coordinate vectors of n, by pruned search.

    Fills coordinates from the largest generator down; a partial choice is
    abandoned as soon as the remainder falls outside the semigroup, which is
    sound because any completion would witness membership.  Membership is
    read straight off the Apery table: k is in S exactly when
    k >= entries[k % m], and the remainders here are never negative.
    """
    gens = semigroup.generators
    entries = semigroup.apery.entries
    m = semigroup.multiplicity
    e = len(gens)
    if n < 0 or n < entries[n % m]:
        return []
    out: list[tuple[int, ...]] = []
    cur = [0] * e

    def fill(i: int, rem: int) -> None:
        if i == 0:
            q, r = divmod(rem, m)
            if r == 0:
                cur[0] = q
                out.append(tuple(cur))
                cur[0] = 0
            return
        a = gens[i]
        for c in range(rem // a, -1, -1):
            rest = rem - c * a
            if rest >= entries[rest % m]:
                cur[i] = c
                fill(i - 1, rest)
        cur[i] = 0

    fill(e - 1, n)
    return out


def factorizations(semigroup: NumericalSemigroup, n: int) -> frozenset[Factorization]:
    """The fiber over n: every coordinate vector mapping to n."""
    if n < 0:
        raise NegativeElementError(f"no factorizations of {n}")
    return frozenset(Factorization(c, n) for c in _coords(semigroup, n))


def _components(semigroup: NumericalSemigroup, n: int) -> list[list[int]]:
    """Components of the generator graph G_n, as lists of generator indices.

    G_n has a vertex i for each generator with n - a_i in S, and an edge
    {i, j} when n - a_i - a_j is in S; membership is read off the Apery
    table, and a negative k fails k >= entry since every entry is
    nonnegative.  For n > 0 the R-classes of n are in bijection with the
    components of G_n, each factorization going to the component that holds
    its support:

    - The support of a factorization x is a clique, since for i != j in it
      x minus one a_i and one a_j factors n - a_i - a_j; so the support
      lies in one component.
    - An edge {i, j} gives a factorization of n using both a_i and a_j: one
      of n - a_i - a_j plus one a_i and one a_j.  Every factorization using
      a_i shares a_i with it, and every one using a_j shares a_j, so all of
      them lie in one class.
    - Every vertex i is used by some factorization: one of n - a_i plus a_i.

    By the second point, factorizations whose supports lie in one component
    share a class; adjacent factorizations share a generator, so by the
    first point a class never leaves its component; and by the third every
    component carries a class.

    One breadth-first pass: each component starts at the least pending
    vertex, and every vertex it reaches is moved out of the pending list, so
    each pair is tested at most once, from the vertex reached first.  Costs
    e membership tests for the vertices and at most e(e - 1)/2 for the
    edges, only e - 1 when the first vertex is joined to all others; no
    fiber is enumerated.  Components come in the order of their least vertex.
    """
    gens = semigroup.generators
    entries = semigroup.apery.entries
    m = semigroup.multiplicity
    pending = [i for i, a in enumerate(gens) if n - a >= entries[(n - a) % m]]
    components: list[list[int]] = []
    while pending:
        component = [pending[0]]
        pending = pending[1:]
        for i in component:
            if not pending:
                break
            rest = n - gens[i]
            unreached = []
            for j in pending:
                k = rest - gens[j]
                if k >= entries[k % m]:
                    component.append(j)
                else:
                    unreached.append(j)
            pending = unreached
        components.append(component)
    return components


def _blocks(semigroup: NumericalSemigroup, n: int) -> list[list[tuple[int, ...]]]:
    """R-classes of n as ascending coordinate lists, ordered by least member.

    Enumerates the fiber once and files each factorization under the
    component of its first nonzero coordinate; the zero factorization of 0
    has no support and is a class of its own.
    """
    component_of: list[int | None] = [None] * semigroup.embedding_dim
    for label, component in enumerate(_components(semigroup, n)):
        for i in component:
            component_of[i] = label
    groups: dict[int | None, list[tuple[int, ...]]] = {}
    for c in sorted(_coords(semigroup, n)):
        first = next((i for i, x in enumerate(c) if x), None)
        groups.setdefault(None if first is None else component_of[first], []).append(c)
    return list(groups.values())


def r_classes(semigroup: NumericalSemigroup, n: int) -> list[frozenset[Factorization]]:
    """R-class partition of the factorizations of n, ordered by least member."""
    if n < 0:
        raise NegativeElementError(f"no factorizations of {n}")
    return [
        frozenset(Factorization(c, n) for c in block) for block in _blocks(semigroup, n)
    ]


def betti_elements(semigroup: NumericalSemigroup) -> list[int]:
    """Elements with two or more R-classes, ascending.

    Every Betti element is at most max(Ap) + a_e = F + m + a_e (proof at
    _betti_candidates), so it lies in the window [0, W) with
    W = F + m + a_e + 1.  On a dense window, W <= BITS_MAX_DENSITY * m,
    _betti_bits scans all of it at once; otherwise _betti_candidates tests
    each candidate.  Both return exactly the Betti elements.
    """
    if semigroup.embedding_dim <= 1:
        return []
    if _dense_window(semigroup):
        return _betti_bits(semigroup)
    return _betti_candidates(semigroup)


def _window(semigroup: NumericalSemigroup) -> int:
    """W = max(Ap) + a_e + 1 = F + m + a_e + 1: every Betti element is below it."""
    return semigroup.frobenius + semigroup.multiplicity + semigroup.generators[-1] + 1


# _betti_bits serves windows of at most this many bits per residue mod m.
# Both routes timed directly, median of 7, on a 2-core host with Python
# 3.11, as bits / candidates: 0.31x at W/m = 201 (<200,201>), 0.68x at 501,
# 0.96x at 601 and 1.16x at 701 (<m, m + 1>); 0.95x at 502 and 1.23x at 702
# (<m, ..., m + 5>); 0.87x at 502 and 1.44x at 1002 (<10, q, ..., q + 8>);
# 1.08x at 502 and 1.76x at 1002 (<20, q, ..., q + 18>); 0.14-0.21x at 34
# and 66 (<m, ..., m + 19>) and 0.40x at 225 (<2000, ..., 2009>).  The two
# cross near 500-650 bits per residue, whatever m, e and W are, so the
# split is by density: a cap on W alone would send <2000, ..., 2009>
# (W = 450,009) to the candidates and <20, 50001, ..., 50019> (W = 100,039,
# 7.4x) to the bits.
BITS_MAX_DENSITY = 512


def _dense_window(semigroup: NumericalSemigroup) -> bool:
    """Whether [0, W) spans at most BITS_MAX_DENSITY bits per residue mod m.

    Then the bit route holds at most eight machine words per residue in
    each of its 2e + 1 bitsets, O(e * m) words in all, the order of the
    m(e - 1) candidates the other route holds, and beats testing them one
    by one.  On a sparse window, such as <1000, 1000001> with W about 10^9,
    the bitsets would be huge while the candidates stay few, so the
    candidate route serves.
    """
    return _window(semigroup) <= BITS_MAX_DENSITY * semigroup.multiplicity


def _betti_candidates(semigroup: NumericalSemigroup) -> list[int]:
    """Betti elements by testing each candidate w + a_i, w in Ap(S, a_1), i >= 2.

    There are at most m(e - 1) candidates (Rosales, IJAC 1996).  Proof that
    every Betti element b is one: factorizations that use a_1 all share
    a_1, so they lie in one R-class, and b, having two classes, has a class
    x that avoids a_1.  Take i >= 2 in the support of a factorization in x;
    then b - a_i is in S.  If b - a_i - a_1 were in S too, b would have a
    factorization using both a_i and a_1; sharing a_i, it would lie in x,
    which avoids a_1, a contradiction.  So b - a_i is in S but
    b - a_i - a_1 is not, which is to say b - a_i is in Ap(S, a_1), and
    b <= max(Ap) + a_e.  A candidate is a Betti element exactly when its
    generator graph has two or more components.
    """
    rest = semigroup.generators[1:]
    candidates = sorted({w + a for w in semigroup.apery.entries for a in rest})
    return [b for b in candidates if len(_components(semigroup, b)) >= 2]


def _betti_bits(semigroup: NumericalSemigroup) -> list[int]:
    """Betti elements by one bit-parallel pass over the window [0, W).

    W = max(Ap) + a_e + 1, so every Betti element lies below it (proof at
    _betti_candidates).  Bit n of an integer stands for the element n:

    - member has bit k exactly when k is in S and k < W.  Every element of
      S is w + t*m for its class's Apery entry w and some t >= 0.  Seeded
      with the entries, and with round i = 0, 1, ... ORing in
      member << (2^i * m), after k rounds it holds every w + t*m with
      t < 2^k; the rounds stop once 2^k * m >= W, when every t with
      w + t*m < W is covered, and the mask cuts the rest.
    - V_j = (member << a_j) & mask has bit n exactly when n < W and
      n - a_j is in S: the vertex set of generator j across all G_n.
    - member << (a_i + a_j) has bit n, for n < W, exactly when
      n - a_i - a_j is in S: the edge {i, j} across all G_n.  It is built
      per use and only ever ANDed with a subset of the window, so it needs
      no mask and no e x e table is kept.

    reach_j starts as V_j minus every V_i with i < j, which marks each G_n's
    least vertex, and grows by reach_j |= reach_i & edge_ij over all pairs
    until a whole round changes nothing.  Every bit set marks a vertex
    joined to the least one by a path.  Each round tries every edge, so
    after round r every vertex within r edges of the least one is marked;
    paths in G_n have at most e - 1 edges, so the loop ends after at most e
    rounds, and then reach_j at bit n says exactly whether j lies in the
    component of G_n's least vertex.  Since reach_j is a
    subset of V_j, OR_j (V_j ^ reach_j) has bit n exactly when G_n has a
    vertex outside that component, that is two or more components; for
    n > 0 these count the R-classes (proof at _components), and G_0 has no
    vertices.  Each step is a shift, AND or OR of (W / 64)-word integers,
    so the pass costs O(e^2 * W / 64) word operations per round and
    O(e * W / 64) words of memory.
    """
    gens = semigroup.generators
    m = semigroup.multiplicity
    window = _window(semigroup)
    mask = (1 << window) - 1
    seed = bytearray(window // 8 + 1)
    for w in semigroup.apery.entries:
        seed[w >> 3] |= 1 << (w & 7)
    member = int.from_bytes(seed, "little")
    shift = m
    while shift < window:
        member |= member << shift
        shift <<= 1
    member &= mask
    vertices = [(member << a) & mask for a in gens]
    reach = []
    seen = 0
    for v in vertices:
        reach.append(v & ~seen)
        seen |= v
    pairs = [(i, j, a + b) for (i, a), (j, b) in combinations(enumerate(gens), 2)]
    while True:
        before = reach[:]
        for i, j, total in pairs:
            edge = member << total
            reach[j] |= reach[i] & edge
            reach[i] |= reach[j] & edge
        if reach == before:
            break
    split = 0
    for v, r in zip(vertices, reach):
        split |= v ^ r
    out = []
    while split:
        low = split & -split
        out.append(low.bit_length() - 1)
        split ^= low
    return out


def minimal_presentation(semigroup: NumericalSemigroup) -> Presentation:
    """A minimal presentation: per Betti element, a spanning set of relations.

    For each Betti element the R-classes are ordered by their least
    factorization; each later class contributes one relation tying its least
    factorization to that of the first class.  Any such choice is minimal,
    and this one is canonical, so repeated calls agree exactly.  Betti
    elements ascend and classes come by least member, so the relations are
    built in (degree, left) order, unsorted.
    """
    relations = []
    for b in betti_elements(semigroup):
        first, *rest = (block[0] for block in _blocks(semigroup, b))
        anchor = Factorization(first, b)
        for rep in rest:
            relations.append(Relation(left=Factorization(rep, b), right=anchor, degree=b))
    degrees = tuple(rel.degree for rel in relations)
    return Presentation(relations=tuple(relations), degrees=degrees)


def relation_degrees(semigroup: NumericalSemigroup) -> tuple[int, ...]:
    """Multiset of Betti degrees of the minimal relations, ascending."""
    return minimal_presentation(semigroup).degrees
