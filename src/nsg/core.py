"""Numerical semigroups with eagerly computed Apery data.

A numerical semigroup S is a subset of the nonnegative integers containing 0,
closed under addition, with finite complement; equivalently the set of all
nonnegative integer combinations of generators a_1 < ... < a_e with gcd 1.
The complement elements are the gaps, their count is the genus, and the
largest gap is the Frobenius number F(S) (F = -1 when S is all of N).

The Apery table with respect to a nonzero element m lists, for each residue
class mod m, the smallest semigroup element in that class.  It answers
membership in O(1): n is in S exactly when n >= entry(n mod m).  All other
core quantities read off it:

    F(S)   = max(entries) - m
    genus  = sum((entry(r) - r) // m for each residue r)

Everything is exact integer arithmetic; construction does all the work once
and the resulting objects are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ConsistencyError, EmptyInputError, NotAnElementError, NotCoprimeError


@dataclass(frozen=True)
class AperyTable:
    """Smallest semigroup element in each residue class mod `modulus`."""

    modulus: int
    entries: tuple[int, ...]

    def entry(self, residue: int) -> int:
        return self.entries[residue % self.modulus]

    def as_dict(self) -> dict[int, int]:
        return dict(enumerate(self.entries))


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]
    multiplicity: int
    embedding_dim: int
    apery: AperyTable
    frobenius: int
    genus: int

    def __contains__(self, n: int) -> bool:
        return contains(self, n)

    def __str__(self) -> str:
        return "<" + ",".join(str(a) for a in self.generators) + ">"


def make_semigroup(raw_generators) -> NumericalSemigroup:
    """Build the semigroup generated by raw_generators.

    Duplicates and non-minimal entries are dropped; the stored generator
    tuple is the unique minimal generating set, sorted ascending.  Raises
    EmptyInputError on an empty list and NotCoprimeError when the gcd of
    the entries exceeds 1 (the complement would be infinite).
    """
    gens = sorted(set(raw_generators))
    if not gens:
        raise EmptyInputError("no generators given")
    if gens[0] < 1:
        raise ValueError(f"generators must be positive, got {gens[0]}")
    g = 0
    for a in gens:
        g = gcd(g, a)
    if g != 1:
        raise NotCoprimeError(f"gcd of generators is {g}, not 1")

    minimal = _minimalize(gens)
    m = minimal[0]
    entries = _apery_entries(minimal, m)
    frob = max(entries) - m
    # entry(r) = r (mod m), so (entry(r) - r) // m counts the gaps in class r
    genus = sum((w - r) // m for r, w in enumerate(entries))
    return NumericalSemigroup(
        generators=tuple(minimal),
        multiplicity=m,
        embedding_dim=len(minimal),
        apery=AperyTable(modulus=m, entries=entries),
        frobenius=frob,
        genus=genus,
    )


def _minimalize(sorted_gens: list[int]) -> list[int]:
    """Drop every entry reachable as a sum of smaller retained entries."""
    top = sorted_gens[-1]
    reach = bytearray(top + 1)
    reach[0] = 1
    minimal = []
    for a in sorted_gens:
        if reach[a]:
            continue
        minimal.append(a)
        for v in range(a, top + 1):
            if reach[v - a]:
                reach[v] = 1
    return minimal


def _apery_entries(gens, m: int) -> tuple[int, ...]:
    """Shortest semigroup element per residue class mod m.

    Round-robin relaxation over the residue cycle: repeatedly try to improve
    entry((r + a) mod m) from entry(r) + a until nothing changes.  Each pass
    fixes at least one residue, so at most m passes run.
    """
    big = None
    dist: list[int | None] = [big] * m
    dist[0] = 0
    changed = True
    while changed:
        changed = False
        for r in range(m):
            d = dist[r]
            if d is None:
                continue
            for a in gens:
                nr = (r + a) % m
                nd = d + a
                cur = dist[nr]
                if cur is None or nd < cur:
                    dist[nr] = nd
                    changed = True
    if None in dist:
        raise ConsistencyError(f"unreachable residue mod {m} from generators {list(gens)}")
    return tuple(dist)  # type: ignore[arg-type]


def contains(semigroup: NumericalSemigroup, n: int) -> bool:
    if n < 0:
        return False
    return n >= semigroup.apery.entry(n % semigroup.multiplicity)


def apery_set(semigroup: NumericalSemigroup, m: int) -> AperyTable:
    """Apery table of the semigroup with respect to any nonzero element m."""
    if m < 1 or not contains(semigroup, m):
        raise NotAnElementError(f"{m} is not a nonzero element of {semigroup}")
    if m == semigroup.multiplicity:
        return semigroup.apery
    return AperyTable(modulus=m, entries=_apery_entries(semigroup.generators, m))


def frobenius(semigroup: NumericalSemigroup) -> int:
    """Largest integer outside the semigroup; -1 when the semigroup is N."""
    return semigroup.frobenius


def gaps(semigroup: NumericalSemigroup) -> list[int]:
    """All positive integers outside the semigroup, ascending."""
    return [
        n
        for n in range(1, semigroup.frobenius + 1)
        if not contains(semigroup, n)
    ]


def parse_generators(text: str) -> list[int]:
    """Parse a comma-separated generator list such as "4, 6,9"."""
    items = [piece.strip() for piece in text.split(",")]
    if items == [""]:
        raise ValueError("empty generator list")
    out = []
    for piece in items:
        try:
            value = int(piece)
        except ValueError:
            raise ValueError(f"bad generator {piece!r}") from None
        if value < 1:
            raise ValueError(f"bad generator {piece!r}: must be >= 1")
        out.append(value)
    return out
