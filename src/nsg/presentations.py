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
the R-classes (proof at _components), so counting classes takes only
membership tests, and assigning a factorization to its class takes one
look at its support.

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


def _components(semigroup: NumericalSemigroup, n: int) -> dict[int, int]:
    """Components of the generator graph G_n: each vertex mapped to its root.

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
    component carries a class.  Costs O(e^2) membership tests, with no fiber
    enumerated.
    """
    gens = semigroup.generators
    entries = semigroup.apery.entries
    m = semigroup.multiplicity
    root = {i: i for i, a in enumerate(gens) if n - a >= entries[(n - a) % m]}

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    vertices = list(root)
    for p, i in enumerate(vertices):
        for j in vertices[p + 1:]:
            k = n - gens[i] - gens[j]
            if k >= entries[k % m]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    root[rj] = ri
    return {i: find(i) for i in vertices}


def _blocks(semigroup: NumericalSemigroup, n: int) -> list[list[tuple[int, ...]]]:
    """R-classes of n as ascending coordinate lists, ordered by least member.

    Enumerates the fiber once and files each factorization under the
    component of its first nonzero coordinate; the zero factorization of 0
    has no support and is a class of its own.
    """
    component = _components(semigroup, n)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for c in sorted(_coords(semigroup, n)):
        first = next((i for i, x in enumerate(c) if x), -1)
        groups.setdefault(component.get(first, -1), []).append(c)
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

    Tests only the candidates w + a_i with w in Ap(S, a_1) and i >= 2, at
    most m(e - 1) of them (Rosales, IJAC 1996).  Proof that every Betti
    element b is one: factorizations that use a_1 all share a_1, so they lie
    in one R-class, and b, having two classes, has a class x that avoids
    a_1.  Take i >= 2 in the support of a factorization in x; then b - a_i
    is in S.  If b - a_i - a_1 were in S too, b would have a factorization
    using both a_i and a_1; sharing a_i, it would lie in x, which avoids
    a_1, a contradiction.  So b - a_i is in S but b - a_i - a_1 is not,
    which is to say b - a_i is in Ap(S, a_1).  A candidate is a Betti
    element exactly when its generator graph has two or more components.
    """
    if semigroup.embedding_dim <= 1:
        return []
    rest = semigroup.generators[1:]
    candidates = sorted({w + a for w in semigroup.apery.entries for a in rest})
    return [b for b in candidates if len(set(_components(semigroup, b).values())) >= 2]


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
        first, *rest = (block[0] for block in _blocks(semigroup, b))
        anchor = Factorization(first, b)
        for rep in rest:
            relations.append(Relation(left=Factorization(rep, b), right=anchor, degree=b))
    relations.sort(key=lambda rel: (rel.degree, rel.left.coords))
    degrees = tuple(sorted(rel.degree for rel in relations))
    return Presentation(relations=tuple(relations), degrees=degrees)


def relation_degrees(semigroup: NumericalSemigroup) -> tuple[int, ...]:
    """Multiset of Betti degrees of the minimal relations, ascending."""
    return minimal_presentation(semigroup).degrees
