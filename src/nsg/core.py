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
    gaps   = the positions n <= F of a byte mask that is 1 at r, r + m, ...,
             below entry(r), for each residue r

The mask costs F + 1 bytes and one strided slice assignment per residue,
with no int object per gap.  gaps() reads the list off it with compress.
gap_chunks() writes the decimal text straight from it, one piece per
thousand numbers, for output that lists every gap (`nsg info` writes the
pieces in batches as they come); gap_text() is their join.  A piece comes
by one of two routes, chosen once per semigroup from the run count

    R      = sum over r = 1 .. m - 1 of max(0, h(r) - h(r + 1)),
             h(r) = (entry(r) - r) / m, h(m) = 0

of maximal gap runs, read off the table in O(m):

    template  genus >= RUN_ROUTE_MIN_AVERAGE * R: the UTF-8 rows
              str(n) + sep of a thousand numbers sit in a byte template,
              whose head digits are rewritten by one strided assignment per
              changed digit; each run is two bytearray.find calls and one
              slice of it, O(R + F / 1000) Python steps
    compress  otherwise: itertools.compress over all F + 1 places, in C,
              whose per-place cost wins when runs are short (<2,q>)

Tables are built by the Böcker–Lipták round robin (Algorithmica 2007), one
walk around the residue cycles per generator, O(e * m) in all.  One pass
serves both make_semigroup and apery_set, and drops non-minimal generators.

Everything is exact integer arithmetic; construction does all the work once
and the resulting objects are immutable.  make_semigroup validates its input
on every call, then builds through one 4096-entry lru cache, _build, keyed by
the sorted distinct entries, so equal generator sets share one object.  Lists
already valid as made (ci_tree's quotients, the census's ordinary children)
go to _build directly.
A glued semigroup does not come this way: glue sums its table from the two
sides by the gluing Apery lemma (proof at gluing._glued) and hands it to
the same _from_table that finishes every build.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import accumulate, compress
from math import gcd

from .errors import EmptyInputError, NotAnElementError, NotCoprimeError

__all__ = [
    "AperyTable",
    "NumericalSemigroup",
    "apery_set",
    "contains",
    "frobenius",
    "gap_text",
    "gaps",
    "make_semigroup",
    "parse_generators",
]


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

    def __hash__(self) -> int:
        # the minimal generators determine the semigroup, so equal objects
        # hash equal; the generated hash would also hash the Apery tuple,
        # m entries, on every cache lookup
        return hash(self.generators)

    def __contains__(self, n: int) -> bool:
        return contains(self, n)

    def __str__(self) -> str:
        return "<" + ",".join(str(a) for a in self.generators) + ">"


def make_semigroup(raw_generators) -> NumericalSemigroup:
    """Build the semigroup generated by raw_generators.

    Duplicates and non-minimal entries are dropped; the stored generator
    tuple is the unique minimal generating set, sorted ascending.  Raises
    EmptyInputError on an empty list and NotCoprimeError when the gcd of
    the entries exceeds 1 (the complement would be infinite).  Inputs with
    the same sorted set of entries share one immutable object.
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
    return _build(tuple(gens))


@lru_cache(maxsize=4096)
def _build(gens: tuple[int, ...]) -> NumericalSemigroup:
    """The semigroup of validated, sorted, distinct gens, built once per tuple."""
    kept, entries = _apery(gens[1:], gens[0])
    return _from_table((gens[0], *kept), entries)


def _from_table(minimal: tuple[int, ...], entries: tuple[int, ...]) -> NumericalSemigroup:
    """The semigroup with these sorted minimal generators and Apery table mod minimal[0]."""
    m = minimal[0]
    frob = max(entries) - m
    # entry(r) = r (mod m), so (entry(r) - r) / m counts the gaps in class r;
    # summed over r = 0 .. m - 1, that is (sum(entries) - m(m - 1)/2) / m
    genus = (sum(entries) - m * (m - 1) // 2) // m
    return NumericalSemigroup(minimal, m, len(minimal), AperyTable(m, entries), frob, genus)


def _apery(gens, m: int) -> tuple[list[int], tuple[int, ...]]:
    """Apery table of <m, gens> mod m, and the entries of gens it kept, in O(len(gens) * m).

    The table so far is Ap(<m, kept>, m), which is closed under adding its
    elements, so an entry a >= dist[a mod m] it already reaches adds nothing
    and is skipped (every multiple of m is, as dist[0] = 0).  Over ascending
    generators above m the kept ones are exactly the minimal ones.  No entry
    stays None: callers pass m and gens of gcd 1, whose sums reach all classes.
    """
    dist: list[int | None] = [None] * m
    dist[0] = 0
    kept = []
    for a in gens:
        w = dist[a % m]
        if w is not None and a >= w:
            continue
        kept.append(a)
        _add_generator(dist, a)
    return kept, tuple(dist)  # type: ignore[arg-type]


def _add_generator(dist: list[int | None], a: int) -> None:
    """Extend the residue table dist (mod m) by a, no multiple of m, in place.

    Böcker–Lipták round robin: adding a links residue r to r + a, splitting
    the residues into gcd(a mod m, m) cycles.  On each cycle the smallest
    entry cannot improve (any path into it through a costs at least that
    entry plus a), so one walk around the cycle from it, relaxing
    dist[r + a] against dist[r] + a, settles every entry.  Cycles with no
    finite entry stay unreached.
    """
    m = len(dist)
    step = a % m
    length = m // gcd(step, m)
    for first in range(m // length):
        start, best, r = None, None, first
        for _ in range(length):
            w = dist[r]
            if w is not None and (best is None or w < best):
                start, best = r, w
            r = (r + step) % m
        if start is None:
            continue
        r, w = start, best
        for _ in range(length - 1):
            r = (r + step) % m
            w += a
            cur = dist[r]
            if cur is not None and cur < w:
                w = cur
            else:
                dist[r] = w


def contains(semigroup: NumericalSemigroup, n: int) -> bool:
    if n < 0:
        return False
    return n >= semigroup.apery.entries[n % semigroup.multiplicity]


def apery_set(semigroup: NumericalSemigroup, m: int) -> AperyTable:
    """Apery table of the semigroup with respect to any nonzero element m."""
    if m < 1 or not contains(semigroup, m):
        raise NotAnElementError(f"{m} is not a nonzero element of {semigroup}")
    if m == semigroup.multiplicity:
        return semigroup.apery
    return AperyTable(modulus=m, entries=_apery(semigroup.generators, m)[1])


def frobenius(semigroup: NumericalSemigroup) -> int:
    """Largest integer outside the semigroup; -1 when the semigroup is N."""
    return semigroup.frobenius


def _gap_mask(semigroup: NumericalSemigroup) -> bytearray:
    """F + 1 bytes, mask[n] == 1 exactly when n is a gap.

    Class r holds the gaps r, r + m, ..., entry(r) - m, (entry(r) - r) // m
    of them since entry(r) = r (mod m), all at most max(entries) - m = F;
    so each slice r:entry(r):m of the mask has exactly that many places.
    """
    m = semigroup.multiplicity
    mask = bytearray(semigroup.frobenius + 1)
    for r, w in enumerate(semigroup.apery.entries):
        mask[r:w:m] = b"\x01" * ((w - r) // m)
    return mask


def gaps(semigroup: NumericalSemigroup) -> list[int]:
    """All positive integers outside the semigroup, ascending."""
    mask = _gap_mask(semigroup)
    return list(compress(range(len(mask)), mask))


@cache
def _decimal_tables() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """str(i) and str(i) zero-padded to three digits, for 0 <= i < 1000."""
    return tuple(map(str, range(1000))), tuple(f"{i:03d}" for i in range(1000))


def _run_count(semigroup: NumericalSemigroup) -> int:
    """Number of maximal runs of consecutive gaps, in O(m) from the Apery table.

    With h(r) = (entry(r) - r) / m, the gaps of class r are r + km for
    0 <= k < h(r), and h(0) = 0: every multiple of m is in S.  Each maximal
    run has exactly one last gap n, the gap with n + 1 in S.  Write
    n = km + r with 1 <= r <= m - 1.  For r < m - 1, n + 1 = km + (r + 1)
    is in S exactly when k >= h(r + 1).  For r = m - 1, n + 1 = (k + 1)m
    is always in S, which is k >= h(m) with h(m) = 0.  So the runs ending
    in class r are the k with h(r + 1) <= k < h(r), and

        R = sum over r = 1 .. m - 1 of max(0, h(r) - h(r + 1)).
    """
    m = semigroup.multiplicity
    heights = [(w - r) // m for r, w in enumerate(semigroup.apery.entries)]
    heights.append(0)
    return sum(max(0, h - nxt) for h, nxt in zip(heights[1:], heights[2:]))


# gap_chunks takes the template route when the average gap run holds at
# least this many gaps.  Whole gap_chunks passes over <k, q> with
# q = 1 (mod k), whose average run is k/2, F near 2*10**6, median of 15
# alternating pairs on a 2-core host with Python 3.11: the template route
# took 2.58x the time of compress at an average run of 6, 1.58x at 10,
# 1.35x at 12, 1.08x at 16, 1.03-1.05x at 17, 0.98-0.99x at 18, 0.94x at
# 20, 0.68x at 32 and 0.24-0.37x at 100-1000; on <2,1000001>, runs of one
# gap, 14x.  The two cross between 17 and 18.
RUN_ROUTE_MIN_AVERAGE = 18


def _compress_chunks(mask: bytearray, sep: str) -> Iterator[str]:
    """The piece of each chunk with a gap, by one compress step per place."""
    low, pad = _decimal_tables()
    for start in range(0, len(mask), 1000):
        head = str(start // 1000) if start else ""
        digits = list(compress(pad if start else low, mask[start : start + 1000]))
        if digits:
            yield head + (sep + head).join(digits)


@lru_cache(maxsize=16)
def _row_template(length: int, sep: str) -> tuple[bytes, Sequence[int]]:
    """The UTF-8 (surrogatepass) rows str(n) + sep of chunk 10**(length - 1),
    or of chunk 0 for length 0, and the 1001 offsets where rows start and end.

    Row t is head + table[t] + sep, with head str(10**(length - 1)) and the
    table PAD, or head "" and the table str(t) for length 0: the
    chunk-0 and chunk-q forms of str(n) in gap_chunks.  Every character but
    those of sep is an ASCII digit, one byte, so for length >= 1 every row
    is as wide as the first, and the offsets are a range, which stores no
    int per row.
    """
    low, pad = _decimal_tables()
    head, table = (str(10 ** (length - 1)), pad) if length else ("", low)
    rows = (head + (sep + head).join(table) + sep).encode("utf-8", "surrogatepass")
    cut = len(sep.encode("utf-8", "surrogatepass"))
    if length:
        width = length + 3 + cut
        return rows, range(0, 1001 * width, width)
    return rows, tuple(accumulate((len(digits) + cut for digits in table), initial=0))


def _template_chunks(mask: bytearray, sep: str) -> Iterator[str]:
    """The piece of each chunk with a gap, one template slice per maximal run.

    Runs come by two bytearray.find calls each; a run still open at the
    chunk's stop is cut there, and in the last chunk stop is F + 1, where
    the last run ends anyway.  Proof that the pieces are right at gap_chunks.
    """
    code = sep.encode("utf-8", "surrogatepass")
    cut = len(code)
    column = {digit: digit.encode() * 1000 for digit in "0123456789"}
    find, size = mask.find, len(mask)
    length = -1
    for start in range(0, size, 1000):
        stop = min(start + 1000, size)
        i = find(1, start, stop)
        if i == -1:
            continue
        head = str(start // 1000) if start else ""
        if len(head) != length:
            length = len(head)
            template, offsets = _row_template(length, sep)
            rows = bytearray(template)
            view = memoryview(rows)
            shown = str(10 ** (length - 1)) if length else ""
            width = offsets[1]
        for p, (old, new) in enumerate(zip(shown, head)):
            if old != new:
                rows[p::width] = column[new]
        shown = head
        pieces = []
        while i != -1:
            j = find(0, i, stop)
            if j == -1:
                j = stop
            pieces.append(view[offsets[i - start] : offsets[j - start] - cut])
            i = find(1, j, stop)
        yield code.join(pieces).decode("utf-8", "surrogatepass")


def gap_chunks(semigroup: NumericalSemigroup, sep: str) -> Iterator[str]:
    """The gap text in pieces: sep.join of them is the gaps written with sep.

    The mask is cut into chunks of 1000, and each chunk with a gap yields
    one piece, sep.join of its gaps in decimal.  Chunk 0 holds the gaps
    0 <= t < 1000, written as str(t).  For q >= 1 and 0 <= t < 1000,
    1000q + t = q * 10**3 + t with t below 10**3 and q >= 1 carrying no
    leading zero, so str(1000q + t) == str(q) + PAD[t], PAD[t] = f"{t:03d}".
    The offsets come ascending and the chunks go in order, so the text
    lists the gaps ascending, as gaps() does.  N (F = -1, an empty mask)
    yields nothing.

    The pieces come by one of two routes, chosen once per semigroup, with
    equal results.  It is the template route when genus >=
    RUN_ROUTE_MIN_AVERAGE * _run_count, that is, when the average run holds
    at least that many gaps, and the compress route otherwise.

    compress: with head = str(q) ("" and the table str(t) in chunk 0), the
    gaps of chunk q read head + PAD[t1] + sep + head + PAD[t2] ..., which
    is head + (sep + head).join(PAD[t] for each gap offset t), and
    compress picks those PAD[t] out of the table by the chunk's mask.

    template: write c(x) for x encoded as UTF-8 with surrogatepass, which
    maps each code point, lone surrogates too, to bytes of its own, so c
    accepts every str, c(x + y) = c(x) + c(y), and decoding with
    surrogatepass inverts c.  _row_template(L, sep) is c of the rows
    str(n) + sep of chunk 10**(L - 1), or of chunk 0 for L = 0, with the
    offsets o[t] where row t starts and o[1000] where the last one ends.
    For L >= 1, row t is c(h0 + PAD[t] + sep) with h0 = str(10**(L - 1)):
    every row is W = L + 3 + len(c(sep)) bytes wide, o[t] = tW, and the
    L head bytes of the rows are the positions p::W, 0 <= p < L, of the
    1000W-byte copy.  shown is the head the copy holds: h0 after the copy,
    which is made whenever the head length changes; each p where head and
    shown differ gets rows[p::W] = head[p] * 1000, which writes digit p of
    every row and no other byte.  So for chunk q every row t of the copy is
    c(str(q) + PAD[t] + sep) = c(str(1000q + t) + sep); for chunk 0 the
    rows are c(str(t) + sep) and nothing is rewritten.  A run
    start + i <= n < start + j of the chunk is rows i .. j - 1, the bytes
    o[i] to o[j], and dropping the last len(c(sep)) of them drops row
    j - 1's sep: c(sep.join(str(n) for each n in the run)).  The runs of a
    chunk hold all its gaps, in order, so their slices joined by c(sep)
    are c of the chunk's piece, which decoding returns.
    """
    mask = _gap_mask(semigroup)
    if semigroup.genus >= RUN_ROUTE_MIN_AVERAGE * _run_count(semigroup):
        return _template_chunks(mask, sep)
    return _compress_chunks(mask, sep)


def gap_text(semigroup: NumericalSemigroup, sep: str) -> str:
    """sep.join(str(n) for n in gaps(semigroup)), as sep.join(gap_chunks(semigroup, sep))."""
    return sep.join(gap_chunks(semigroup, sep))


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
