"""Factorizations, R-classes, Betti elements, minimal presentations.

A factorization of n is a coordinate vector (c_1, ..., c_e) with
sum(c_i * a_i) = n.  Two factorizations of n are adjacent when they share a
generator (some coordinate positive in both); the transitive closure of
adjacency partitions the factorizations of n into R-classes.  Elements with
at least two R-classes are the Betti elements, and a minimal presentation
picks, for each Betti element, enough relations (pairs of factorizations) to
connect its classes: c - 1 relations for c classes.

The relation count of a minimal presentation, compared with the number of
generators, detects complete intersections; the multiset of relation degrees
(the Betti element each relation lives at, with multiplicity) is the
invariant the rest of the library consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .core import NumericalSemigroup, contains
from .errors import NegativeElementError


class Factorization(NamedTuple):
    coords: tuple[int, ...]
    value: int

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


class Relation(NamedTuple):
    left: Factorization
    right: Factorization
    degree: int


@dataclass(frozen=True)
class Presentation:
    relations: tuple[Relation, ...]
    degrees: tuple[int, ...]


def _coords(semigroup: NumericalSemigroup, n: int) -> list[tuple[int, ...]]:
    """All factorization coordinate vectors of n, by pruned search.

    Fills coordinates from the largest generator down; a partial choice is
    abandoned as soon as the remainder falls outside the semigroup, which is
    sound because any completion would witness membership.
    """
    gens = semigroup.generators
    e = len(gens)
    if n < 0 or not contains(semigroup, n):
        return []
    out: list[tuple[int, ...]] = []
    cur = [0] * e

    def fill(i: int, rem: int) -> None:
        if i == 0:
            q, r = divmod(rem, gens[0])
            if r == 0:
                cur[0] = q
                out.append(tuple(cur))
                cur[0] = 0
            return
        a = gens[i]
        for c in range(rem // a, -1, -1):
            rest = rem - c * a
            if contains(semigroup, rest):
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


def _partition(coord_list: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """Group coordinate vectors into R-classes.

    All vectors positive at a fixed position form one adjacency clique, so
    chaining them per position and taking union-find components gives exactly
    the shared-support transitive closure.
    """
    if not coord_list:
        return []
    parent = list(range(len(coord_list)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for j in range(len(coord_list[0])):
        first = -1
        for idx, f in enumerate(coord_list):
            if f[j]:
                if first < 0:
                    first = idx
                else:
                    ri, rj = find(first), find(idx)
                    if ri != rj:
                        parent[rj] = ri
    groups: dict[int, list[tuple[int, ...]]] = {}
    for idx, f in enumerate(coord_list):
        groups.setdefault(find(idx), []).append(f)
    return sorted(groups.values(), key=min)


def r_classes(semigroup: NumericalSemigroup, n: int) -> list[frozenset[Factorization]]:
    """R-class partition of the factorizations of n, ordered by least member."""
    if n < 0:
        raise NegativeElementError(f"no factorizations of {n}")
    blocks = _partition(sorted(_coords(semigroup, n)))
    return [
        frozenset(Factorization(c, n) for c in block) for block in blocks
    ]


def _certainly_one_class(semigroup: NumericalSemigroup, n: int) -> bool:
    """Cheap sound test for a single R-class; False only means unknown.

    Let I = {i : n - a_i in S}; every factorization's support sits inside I.
    When n - a_i - a_j in S, any factorization using a_i connects to any
    using a_j, through a factorization of n - a_i - a_j extended by one a_i
    and one a_j.  A connected graph on I therefore forces one R-class, at
    the cost of O(e^2) membership tests instead of enumerating the fiber.
    Membership is read off the Apery table; a negative k fails k >= entry
    since every entry is nonnegative.
    """
    gens = semigroup.generators
    entries = semigroup.apery.entries
    m = semigroup.multiplicity
    idx = [i for i, a in enumerate(gens) if n - a >= entries[(n - a) % m]]
    if len(idx) <= 1:
        return True
    root = {i: i for i in idx}

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for p in range(len(idx)):
        for q in range(p + 1, len(idx)):
            i, j = idx[p], idx[q]
            k = n - gens[i] - gens[j]
            if k >= entries[k % m]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    root[rj] = ri
    first = find(idx[0])
    return all(find(i) == first for i in idx)


def _class_count(semigroup: NumericalSemigroup, n: int) -> int:
    if _certainly_one_class(semigroup, n):
        return 1
    return len(_partition(_coords(semigroup, n)))


def betti_elements(semigroup: NumericalSemigroup) -> list[int]:
    """Elements with two or more R-classes, ascending.

    Tests only the candidates w + a_i with w in Ap(S, a_1) and i >= 2, at
    most m(e - 1) of them (Rosales, IJAC 1996).  Proof that every Betti
    element b is one: factorizations that use a_1 all share a_1, so they lie
    in one R-class, and b, having two classes, has a class x that avoids
    a_1.  Take i >= 2 in the support of a factorization in x; then b - a_i
    is in S.  If b - a_i - a_1 were in S too, b would have a factorization
    using both a_i and a_1; sharing a_i, it would lie in x, which avoids
    a_1, a contradiction.  So b - a_i is in S but b - a_i - a_1 is not,
    which is to say b - a_i is in Ap(S, a_1).
    """
    if semigroup.embedding_dim <= 1:
        return []
    rest = semigroup.generators[1:]
    candidates = sorted({w + a for w in semigroup.apery.entries for a in rest})
    return [b for b in candidates if _class_count(semigroup, b) >= 2]


@lru_cache(maxsize=4096)
def minimal_presentation(semigroup: NumericalSemigroup) -> Presentation:
    """A minimal presentation: per Betti element, a spanning set of relations.

    For each Betti element the R-classes are ordered by their least
    factorization; each later class contributes one relation tying its least
    factorization to that of the first class.  Any such choice is minimal,
    and this one is canonical, so repeated calls agree exactly.
    """
    relations = []
    for b in betti_elements(semigroup):
        blocks = _partition(sorted(_coords(semigroup, b)))
        reps = sorted(min(block) for block in blocks)
        anchor = Factorization(reps[0], b)
        for rep in reps[1:]:
            relations.append(Relation(left=Factorization(rep, b), right=anchor, degree=b))
    relations.sort(key=lambda rel: (rel.degree, rel.left.coords))
    degrees = tuple(sorted(rel.degree for rel in relations))
    return Presentation(relations=tuple(relations), degrees=degrees)


def relation_degrees(semigroup: NumericalSemigroup) -> tuple[int, ...]:
    """Multiset of Betti degrees of the minimal relations, ascending."""
    return minimal_presentation(semigroup).degrees
