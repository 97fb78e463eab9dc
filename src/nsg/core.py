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
gap_chunks() writes the decimal text straight from it as UTF-8 bytes, in
pieces of a thousand or ten thousand numbers, for output that lists every
gap: `nsg info` writes the pieces in batches as they come, as bytes when
stdout takes them unchanged, and gap_text() decodes each and joins them.
A piece comes by one of two routes, chosen once per semigroup from the run
count

    R      = sum over r = 1 .. m - 1 of max(0, h(r) - h(r + 1)),
             h(r) = (entry(r) - r) / m, h(m) = 0

of maximal gap runs, read off the table in O(m):

    template  genus >= RUN_ROUTE_MIN_AVERAGE * R: the UTF-8 rows
              str(n) + sep of ten thousand numbers, all of one width, sit
              in a byte block, whose head digits are rewritten by one
              strided assignment per changed digit; each run is two
              bytearray.find calls and one slice of it, O(R + F / 10**4)
              Python steps.  A block is built whenever the head length
              changes, from four cached digit columns, so no row is
              formatted; the numbers below 10**4, of varying width, come
              by the compress code
    compress  otherwise: itertools.compress over all F + 1 places, in C,
              whose per-place cost wins when runs are short (<2,q>), in
              pieces of a thousand

Tables are built by the Böcker–Lipták round robin (Algorithmica 2007), one
walk around the residue cycles per generator, O(e * m) in all.  One pass
serves both make_semigroup and apery_set, and drops non-minimal generators.

Everything is exact integer arithmetic; construction does all the work once
and the resulting objects are immutable.  make_semigroup validates its input
on every call, then builds through one 4096-entry lru cache, _build, keyed by
the sorted distinct entries, so equal generator sets share one object.  Lists
already valid as made (ci_tree's quotients, the census's ordinary
semigroups) go to _build directly.
A glued semigroup does not come this way: glue sums its table from the two
sides by the gluing Apery lemma (proof at gluing._glued) and hands it to
the same _from_table that finishes every build.

Every value class of the package (11, each a frozen record of results) is
declared by _value_class, which builds it as a frozen, slotted class in
one pass, with one exec of generated code and no dataclasses import.  Its
__init__ stores each field through its slot descriptor instead of by
object.__setattr__: six positional fields, as in NumericalSemigroup, took
1.22-1.27 us with dataclass's frozen __init__ and 0.67-0.71 us with this
one, on a 2-core host with Python 3.11.7, and a census record pays for four
builds.  Building the class itself no longer pays for dataclasses, which
only its API needs: importing it took 6.5-7.4 ms (-X importtime, 5 runs),
about 5 of them in inspect and the ast, dis, tokenize and linecache it
pulls in, and the former dataclass(frozen=True, slots=True) build took
about 0.54 ms per class against 0.19-0.21 ms now (6 fields, timed back to
back).  So `import nsg,
nsg.cli` loads neither module: in a fresh process, median of 20, it went
31.8 -> 23.1 ms from source and 18.4 -> 9.1 ms from compiled bytecode.
The dataclass API still works; the first read of __dataclass_fields__
imports dataclasses (_value_class tells how).  A slotted class has no
__weakref__ slot, so NumericalSemigroup takes one from the slotted base
_WeakReferable.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from functools import cache, lru_cache
from itertools import compress
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


def _value_class(cls):
    """cls as a frozen, slotted value class, built in one pass without dataclasses.

    The class is made anew from cls's own namespace, as slots can only be
    given at creation.  Its fields are cls's annotations, in order.  One
    exec per class generates, unless cls defines its own:

    __init__    the fields as required parameters, of the same names and
                annotations, each stored through its slot descriptor's
                __set__, bound once the class exists; that skips
                object.__setattr__, which the frozen __setattr__ forces on
                a dataclass's __init__, and the attribute lookup by name
    __eq__      the field tuples compared when other.__class__ is
                self.__class__, else NotImplemented, as dataclass's
    __hash__    hash of the field tuple, as dataclass's (NumericalSemigroup
                keeps its own)
    __reduce__  the class and the field tuple, so pickle and copy rebuild
                through __init__ rather than set slots of a frozen instance

    Shared by every value class, unless cls defines its own: __repr__ in
    dataclass's form, Name(field=value!r, ...) with __qualname__, without
    dataclass's recursion guard, as a value class holds no reference cycle;
    __replace__, for copy.replace on Python 3.13, as dataclasses.replace
    does it.  Always set: __setattr__ and __delattr__ raise
    dataclasses.FrozenInstanceError with dataclass's messages, importing it
    on that path only; __match_args__ and __slots__, the field names.  The
    docstring and a slotted base such as _WeakReferable are kept.

    The dataclass API works on demand.  is_dataclass and asdict first test
    hasattr(type(obj), "__dataclass_fields__") (is_dataclass on a class,
    the class itself); fields reads that attribute and keeps its fields;
    replace reads it to fill each field not changed and then calls
    obj.__class__(**changes).  So each of the four reads the attribute
    before anything else, and here it is a _DataclassFields descriptor,
    whose first read imports dataclasses and stores on the class, in its
    place, the __dataclass_fields__ and __dataclass_params__ of a
    make_dataclass twin built from the same (name, annotation) pairs.
    dataclass makes the same Field for an annotation with no default
    whichever class it sits in, and a Field holds no reference to its
    class, so the four then see exactly what a frozen dataclass declared
    like cls would show them, and replace builds through this __init__.

    Every field is a required parameter, with no default, ClassVar, InitVar,
    KW_ONLY or __post_init__, whose effect this __init__ would drop; the
    test suite's scan of the package source checks each declaration.
    """
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    fields = "".join(f"self.{name}," for name in names)
    others = "".join(f"other.{name}," for name in names)
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    # the generated functions' module and globals; the setters go in once the slots exist
    namespace = {"__name__": cls.__module__}
    exec(
        f"def __init__(self, {', '.join(names)}):{body}\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({fields}) == ({others})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({fields}))\n"
        "def __reduce__(self):\n"
        f"    return self.__class__, ({fields})\n",
        namespace,
    )
    namespace["__init__"].__annotations__ = {**annotations, "return": None}
    attributes = {
        key: value for key, value in cls.__dict__.items() if key not in ("__dict__", "__weakref__")
    }
    for name in ("__init__", "__eq__", "__hash__", "__reduce__"):
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
        attributes.setdefault(name, namespace[name])
    attributes.setdefault("__repr__", _repr)
    attributes.setdefault("__replace__", _replace)
    attributes.update(
        __qualname__=cls.__qualname__,
        __slots__=names,
        __match_args__=names,
        __setattr__=_frozen_setattr,
        __delattr__=_frozen_delattr,
        __dataclass_fields__=_DataclassFields(),
    )
    cls = type(cls)(cls.__name__, cls.__bases__, attributes)
    for name in names:
        namespace[f"_set_{name}"] = cls.__dict__[name].__set__
    return cls


def _repr(self):
    # a value class holds no reference cycle, so dataclass's recursion guard is left out
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({shown})"


def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _replace(self, /, **changes):
    """A copy of self with changes applied to its fields, as dataclasses.replace makes it."""
    for name in self.__match_args__:
        if name not in changes:
            changes[name] = getattr(self, name)
    return self.__class__(**changes)


class _DataclassFields:
    """A value class's __dataclass_fields__ until its first read.

    That read imports dataclasses, builds the class's twin with
    make_dataclass from the same names and annotations, frozen and slotted,
    and stores the twin's __dataclass_fields__ and __dataclass_params__ on
    the class, in place of this descriptor.
    """

    def __get__(self, instance, owner):
        from dataclasses import make_dataclass

        twin = make_dataclass(
            owner.__name__, list(owner.__annotations__.items()), frozen=True, slots=True
        )
        owner.__dataclass_fields__ = twin.__dataclass_fields__
        owner.__dataclass_params__ = twin.__dataclass_params__
        return twin.__dataclass_fields__


class _WeakReferable:
    """A slotted base whose value-class subclasses take weak references.

    A slotted class has no __weakref__ slot of its own, and
    dataclass(weakref_slot=True), which adds one, needs Python 3.11.
    """

    __slots__ = ("__weakref__",)


@_value_class
class AperyTable:
    """Smallest semigroup element in each residue class mod `modulus`."""

    modulus: int
    entries: tuple[int, ...]

    def entry(self, residue: int) -> int:
        return self.entries[residue % self.modulus]

    def as_dict(self) -> dict[int, int]:
        return dict(enumerate(self.entries))


@_value_class
class NumericalSemigroup(_WeakReferable):
    """A numerical semigroup by its minimal generators, ascending, with its invariants."""

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

    An entry whose type is not int, bool included, raises TypeError before
    set() would merge True with 1 and before the cache, which would then
    hand <True> out for [1, 3], as (True, 3) == (1, 3).
    """
    raw = list(raw_generators)
    g = 0
    for a in raw:
        if type(a) is not int:
            raise TypeError(f"generators must be ints, got {a!r}")
        g = gcd(g, a)
    gens = sorted(set(raw))
    if not gens:
        raise EmptyInputError("no generators given")
    if gens[0] < 1:
        raise ValueError(f"generators must be positive, got {gens[0]}")
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
    No list is longer than sys.maxsize, so a larger m raises ValueError
    before anything is allocated.
    """
    if m > sys.maxsize:
        raise ValueError(
            f"cannot build an Apery table mod {m}: m = {m} exceeds sys.maxsize = {sys.maxsize}"
        )
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
    No sequence is longer than sys.maxsize, so a larger F + 1 raises
    ValueError before anything is allocated.
    """
    if semigroup.frobenius >= sys.maxsize:
        raise ValueError(
            f"cannot list the gaps of {semigroup}: F + 1 = {semigroup.frobenius + 1} "
            f"exceeds sys.maxsize = {sys.maxsize}"
        )
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
def _decimal_tables() -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """str(i) and str(i) zero-padded to three digits, as ASCII bytes, for 0 <= i < 1000."""
    return tuple(b"%d" % i for i in range(1000)), tuple(b"%03d" % i for i in range(1000))


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


def _compress_chunks(mask: bytearray, code: bytes) -> Iterator[bytes]:
    """The piece of each thousand with a gap, by one compress step per place."""
    low, pad = _decimal_tables()
    for start in range(0, len(mask), 1000):
        head = b"%d" % (start // 1000) if start else b""
        digits = list(compress(pad if start else low, mask[start : start + 1000]))
        if digits:
            yield head + (code + head).join(digits)


@cache
def _digit_columns() -> tuple[dict[str, bytes], tuple[bytes, ...]]:
    """Each digit 10**4 times, by digit, and column k = 0 .. 3 of the rows
    f"{t:04d}", t = 0 .. 9999: each digit 10**(3 - k) times, in order, and
    that repeated 10**k times."""
    heads = {digit: digit.encode() * 10**4 for digit in "0123456789"}
    return heads, tuple(b"".join(d.encode() * 10 ** (3 - k) for d in heads) * 10**k for k in range(4))


def _row_block(length: int, code: bytes) -> bytearray:
    """The rows "0" * length + f"{t:04d}" + sep of t = 0 .. 9999, sep as
    its bytes code, every row length + 4 + len(code) bytes wide."""
    width = length + 4 + len(code)
    rows = bytearray((b"0" * (length + 4) + code) * 10**4)
    for k, column in enumerate(_digit_columns()[1]):
        rows[length + k :: width] = column
    return rows


def _template_chunks(mask: bytearray, code: bytes) -> Iterator[bytes]:
    """The piece of each ten thousand with a gap, one row-block slice per maximal run.

    Piece 0 comes from _compress_chunks.  Runs come by two bytearray.find calls
    each; a run still open at the piece's stop is cut there, and in the
    last piece stop is F + 1, where the last run ends anyway.  Proof that
    the pieces are right at gap_chunks.
    """
    first = code.join(_compress_chunks(mask[: 10**4], code))
    if first:
        yield first
    heads = _digit_columns()[0]
    find, size, cut = mask.find, len(mask), len(code)
    length = 0
    for start in range(10**4, size, 10**4):
        stop = min(start + 10**4, size)
        i = find(1, start, stop)
        if i == -1:
            continue
        head = str(start // 10**4)
        if len(head) != length:
            length = len(head)
            width = length + 4 + cut
            rows = _row_block(length, code)
            view = memoryview(rows)
            shown = "0" * length
        for p, (old, new) in enumerate(zip(shown, head)):
            if old != new:
                rows[p::width] = heads[new]
        shown = head
        pieces = []
        while i != -1:
            j = find(0, i, stop)
            if j == -1:
                j = stop
            pieces.append(view[(i - start) * width : (j - start) * width - cut])
            i = find(1, j, stop)
        yield code.join(pieces)


def gap_chunks(semigroup: NumericalSemigroup, sep: str) -> Iterator[bytes]:
    """The gap text in pieces of bytes: c(sep).join of them is c of the gaps
    written with sep, where c(x) is x encoded as UTF-8 with surrogatepass.

    c maps each code point, lone surrogates too, to bytes of its own, so c
    accepts every str, c(x + y) = c(x) + c(y), and decoding with
    surrogatepass inverts c; every character but those of sep is an ASCII
    digit, one byte.  The mask is cut into pieces of P = 10**k numbers,
    P = 1000 on the compress route and 10**4 on the template route, and
    each piece with a gap yields c of sep.join of its gaps in decimal.
    Piece 0 holds the gaps 0 <= t < P, written as str(t).  For q >= 1 and
    0 <= t < P, Pq + t = q * 10**k + t with t below 10**k and q >= 1
    carrying no leading zero, so str(Pq + t) == str(q) + f"{t:0{k}d}";
    PAD[t] below is f"{t:03d}".  The offsets come ascending and the pieces
    go in order, so the text lists the gaps ascending, as gaps() does.  N
    (F = -1, an empty mask) yields nothing.

    The pieces come by one of two routes, chosen once per semigroup, with
    equal text.  It is the template route when genus >=
    RUN_ROUTE_MIN_AVERAGE * _run_count, that is, when the average run holds
    at least that many gaps, and the compress route otherwise.

    compress (P = 1000): with head = str(q) ("" and the table str(t) in
    piece 0), the gaps of piece q read head + PAD[t1] + sep + head +
    PAD[t2] ..., which is head + (sep + head).join(PAD[t] for each gap
    offset t), and compress picks those PAD[t], as bytes, out of the table
    by the piece's mask.

    template (P = 10**4): piece 0 is the compress route's pieces of
    mask[:P] joined by c(sep), so c of the text of the gaps below P.  For
    q >= 1 with L = len(str(q)), row t of piece q is c(str(q) +
    f"{t:04d}" + sep) = c(str(Pq + t) + sep), W = L + 4 + len(c(sep))
    bytes wide, so it starts at tW.  _row_block(L, c(sep)) writes these
    rows with the head "0" * L: all L + 4 digits "0", then column k of
    _digit_columns at L + k::W, one byte per row, for k = 0 .. 3.  Its
    byte t is digit floor(t / 10**(3 - k)) mod 10, which is digit k of
    f"{t:04d}".  shown is the head the rows hold, "0" * L in a fresh
    block, built whenever L changes; each p where head and shown differ
    gets rows[p::W] = head[p] * P, which writes digit p of every row and
    no other byte.  So the rows are those of piece q.  A run start + i <=
    n < start + j of the piece is rows i .. j - 1, the bytes iW to jW,
    and dropping the last len(c(sep)) of them drops row j - 1's sep:
    c(sep.join(str(n) for each n in the run)).  The runs of a piece hold
    all its gaps, in order, so their slices joined by c(sep) are c of the
    piece's text.
    """
    mask, code = _gap_mask(semigroup), sep.encode("utf-8", "surrogatepass")
    if semigroup.genus >= RUN_ROUTE_MIN_AVERAGE * _run_count(semigroup):
        return _template_chunks(mask, code)
    return _compress_chunks(mask, code)


def gap_text(semigroup: NumericalSemigroup, sep: str) -> str:
    """sep.join(str(n) for n in gaps(semigroup)), from the pieces of gap_chunks.

    Each piece is c of whole characters, so decoding it alone with
    surrogatepass gives its text, and sep joins those.  Joining the bytes
    first and decoding once held the text twice: on <1000, 1999> (8 MB)
    that took 17-22 ms against 8 ms piece by piece (2-core host, Python
    3.11, min and median of 7).
    """
    return sep.join([chunk.decode("utf-8", "surrogatepass") for chunk in gap_chunks(semigroup, sep)])


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
