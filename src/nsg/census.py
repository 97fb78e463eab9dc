"""Exhaustive genus-bounded enumeration and the verification pipeline.

Semigroups form a tree rooted at N: the children of S are S minus one
minimal generator exceeding F(S), which raises the genus by one, and every
semigroup arises exactly once this way.  The walk is depth-first and
streaming: one explicit stack holds only the pending siblings along the
current path, each as its parent and the generator to remove, so memory
stays bounded by the tree depth.  A child is derived from its parent, not
rebuilt: removing g changes one Apery entry (g becomes g + m), sets F = g,
and adds at most one minimal generator, g + m, which is tested against the
kept generators and appended last (_remove_generator has the proof).  Only
the ordinary semigroups, the spine the walk starts from, are built afresh,
once each (_walk has the proof that no other node removes its multiplicity).

A record costs a few object builds, so the census keeps each one cheap:
records and semigroups are built with positional arguments (six of them,
for a NumericalSemigroup, took 0.67-0.71 us against 1.06-1.08 us by
keyword, back to back on a 2-core host with Python 3.11.7), every non-CI
record shares the one StarReport of its Frobenius number (star._undefined),
star._classify settles the nodes below the CI multiplicity bound, most of
the census, without a CI decision, and read_records decodes a line with
one raw_decode, falling back to json.loads only to raise its error.

Each enumerated semigroup is condensed into a CensusRecord and serialized as
one JSON object per line with a fixed field set:

    generators, genus, frobenius, embedding_dim, is_ci, star_verdict,
    d_max, exception

The census runs in one process.  Written records are canonically ordered by
(genus, generators); the walk gives each genus in reverse canonical order,
so enumerate_records holds them all in one list per genus and reverses
each, with no sort.  The summary does not depend on record order, so
verify_star folds summarize over the walk and holds no record list.  A
work ceiling (default genus 15, overridable via the NSG_WORK_CEILING
environment variable) bounds what a single call may attempt; everything
it allows is exhaustive verification up to the bound, never a proof
beyond it.
"""

from __future__ import annotations

import json
import os
from math import gcd
from typing import Iterable, Iterator

from .core import AperyTable, NumericalSemigroup, _build, _value_class, make_semigroup
from .errors import BoundTooLargeError, MalformedRecordError
from .star import (
    EXCEPTION_TAGS,
    _NOT_CI,
    _SATISFIED,
    _UNDEFINED_TAG,
    _UNDEFINED_VERDICT,
    ExceptionClass,
    StarReport,
    StarVerdict,
    _classify,
    _undefined,
    expected_verdict,
)

__all__ = [
    "DEFAULT_WORK_CEILING",
    "ENV_WORK_CEILING",
    "CensusRecord",
    "VerificationSummary",
    "enumerate_records",
    "enumerate_semigroups",
    "natural_numbers",
    "read_records",
    "record_for",
    "record_to_doc",
    "summarize",
    "verify_star",
    "work_ceiling",
    "write_records",
]

DEFAULT_WORK_CEILING = 15
ENV_WORK_CEILING = "NSG_WORK_CEILING"

RECORD_FIELDS = (
    "generators",
    "genus",
    "frobenius",
    "embedding_dim",
    "is_ci",
    "star_verdict",
    "d_max",
    "exception",
)


@_value_class
class CensusRecord:
    """One census line: a semigroup's invariants, star report and exception tag."""

    generators: tuple[int, ...]
    genus: int
    frobenius: int
    embedding_dim: int
    is_ci: bool
    star: StarReport
    exception: ExceptionClass


@_value_class
class VerificationSummary:
    """A census condensed: counts per genus, CIs, star failures and counterexamples."""

    bound: int
    total: int
    ci_count: int
    exceptions_found: tuple[tuple[int, ...], ...]
    counterexamples: tuple[tuple[int, ...], ...]
    per_genus: tuple[int, ...]


def work_ceiling() -> int:
    raw = os.environ.get(ENV_WORK_CEILING)
    if raw is None:
        return DEFAULT_WORK_CEILING
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_WORK_CEILING} must be an integer, got {raw!r}") from None


def natural_numbers() -> NumericalSemigroup:
    return make_semigroup([1])


def _remove_generator(
    semigroup: NumericalSemigroup, g: int
) -> NumericalSemigroup:
    """The child S - {g}, for a minimal generator g > F(S) other than m.

    Only an ordinary S can remove m, and _walk builds those children, the
    spine, itself (proof there).  The child T = S - {g} is read off S:

    * Apery table: the entry of S at g mod m was g, since g - m is not in S
      when g is a minimal generator other than m.  Every other entry is an
      element other than g, so it stays; the class of g now starts at
      g + m, which is in S and is not g.
    * F(T) = g, as every integer above g was in S; the genus rises by one
      and the multiplicity stays m.
    * Generators: each kept generator a != g stays minimal, since T is
      inside S.  A new minimal generator y of T was not minimal in S, and
      every way to split it into two nonzero elements of S uses g, so
      y = g + z with z a nonzero element of S.  If z = z1 + z2 with z2 != g
      (both nonzero), then y = (g + z1) + z2 splits in T; and 3g, the case
      z1 = z2 = g, is (g + 1) + (2g - 1), both elements of T once g >= 2,
      which g > m >= 1 gives.  So z is a minimal generator a of S.
    * One candidate: for a generator a > m of S (g itself included),
      y = g + a has y - m > g = F(T), so y - m is in T, and so is m, as
      g != m; y = m + (y - m) splits in T.  That leaves a = m, and
      msg(T) = (msg(S) - {g}) + {g + m, when it is irreducible in T}.
    * Order: every generator a of S is at most F(S) + m < g + m, since
      a > F(S) + m would split as m + (a - m) with a - m > F(S) >= 1.  So
      g + m goes last, and the list stays sorted without a sort.
    * Irreducibility: y = g + m is reducible in T exactly when y - b is in
      T for some minimal generator b < y of T, that is, for some kept
      generator b; each membership test reads the child's table.

    The work is O(m + e), against O(g + e*m) for a rebuild.  Both objects
    are built with positional arguments, which cost less than keywords
    (figures in the module docstring).
    """
    m = semigroup.multiplicity
    entries = list(semigroup.apery.entries)
    entries[g % m] = g + m
    generators = [a for a in semigroup.generators if a != g]
    y = g + m
    for b in generators:
        d = y - b
        if d >= entries[d % m]:
            break
    else:
        generators.append(y)
    return NumericalSemigroup(
        tuple(generators),
        m,
        len(generators),
        AperyTable(m, tuple(entries)),
        g,
        semigroup.genus + 1,
    )


def _walk(max_genus: int) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup of genus <= max_genus, in the tree's preorder.

    The preorder is the recursive one from N, children in ascending removed
    generator, but the spine of ordinary semigroups O_m = <m, ..., 2m - 1>,
    {0} and every integer >= m, comes first and is built directly:

    * a child S - {g} keeps the multiplicity m of S unless g = m;
    * every semigroup of multiplicity m other than O_m has F > m: N is the
      only one of multiplicity 1, and for m >= 2, 1, ..., m - 1 are gaps,
      F = m - 1 leaves only O_m, and m is no gap; so only O_m can remove
      m, as a child removes some g > F;
    * O_m - {m} = O_(m+1), and O_m has genus m - 1.

    So O_1 = N has the one child O_2, and the preorder below O_m is O_m,
    the preorder below O_(m+1) (if m - 1 < max_genus), then the subtrees
    under O_m's other children.  Unrolled, it is the spine O_1, ...,
    O_(max_genus + 1), then those subtrees for m = max_genus down to 2.  The
    stack is seeded with the removals g != m of each O_m, in ascending m,
    each O_m's in descending g.  No node popped later is ordinary, as it
    has multiplicity m and a genus above m - 1, so each g it pushes
    exceeds F > m, and _remove_generator never sees g = m.

    The stack holds the pending removals (parent, g) along the current
    path.  They are pushed in descending g, so children come in ascending
    removed generator, and each child is built only when it is popped.

    So each genus comes out in strictly descending generator order.  Proof:
    below S - {g} only elements above F >= g are removed, so its descendants
    share the generators P of S below g and have g as a gap.  Let two nodes
    of one genus descend from S - {g1} and S - {g2}, g1 < g2, for their
    lowest common ancestor S; the g1 one, D, comes first.  The other, E,
    keeps g1, so its generators start P, g1.  After P, D has a generator
    above g1, so D > E, or none, so D = <P> lies in E without g1 and has
    the larger genus.  For g1 = m, P is empty.
    """
    spine = [_build(tuple(range(m, 2 * m))) for m in range(1, max_genus + 2)]
    yield from spine
    # spine[:max_genus] has genus below the bound; O_m's generators
    # m, ..., 2m - 1 all exceed F = m - 1, and [1:] leaves out m
    stack = [(node, g) for node in spine[:max_genus] for g in reversed(node.generators[1:])]
    while stack:
        node = _remove_generator(*stack.pop())
        yield node
        if node.genus < max_genus:
            f = node.frobenius
            # descending, so the first g <= F ends the children
            for g in reversed(node.generators):
                if g <= f:
                    break
                stack.append((node, g))


def _check_bound(max_genus: int) -> None:
    # bool is an int subclass, and a float or Decimal bound would walk past
    # itself: the walk stops at genus == max_genus only for an int
    if type(max_genus) is not int:
        raise TypeError(f"max_genus must be an int, got {max_genus!r}")
    if max_genus < 0:
        raise ValueError(f"max_genus must be >= 0, got {max_genus}")
    limit = work_ceiling()
    if max_genus > limit:
        raise BoundTooLargeError(
            f"genus bound {max_genus} exceeds the work ceiling {limit}"
        )


def enumerate_semigroups(max_genus: int) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup of genus <= max_genus, depth-first; within
    a genus in strictly descending generator order (proof at _walk)."""
    _check_bound(max_genus)
    return _walk(max_genus)


def record_for(semigroup: NumericalSemigroup) -> CensusRecord:
    """The census record of one semigroup: its invariants, star report and tag.

    The report and tag are star._classify's, one call, which settles the
    nodes below the CI multiplicity bound, most of the census, without a CI
    decision; is_ci is whether the tag is other than not_ci.  The tag is not
    checked against the verdict here: summarize turns a disagreement into a
    counterexample, so the sweep keeps going.
    """
    star, tag = _classify(semigroup)
    return CensusRecord(
        semigroup.generators,
        semigroup.genus,
        semigroup.frobenius,
        semigroup.embedding_dim,
        tag is not _NOT_CI,
        star,
        tag,
    )


def enumerate_records(max_genus: int) -> list[CensusRecord]:
    """Census records for genus <= max_genus in canonical order, with no sort.

    Canonical order is ascending (genus, generators).  _walk gives each
    genus in strictly descending generator order (proof there), so each
    genus's records, appended to its own list in walk order and read back
    reversed, ascend; the lists go in ascending genus.  The walk comes from
    enumerate_semigroups, which checks the bound before the buckets are
    made: range would raise its own TypeError first for a float or str.
    """
    walk = enumerate_semigroups(max_genus)
    buckets = [[] for _ in range(max_genus + 1)]
    for s in walk:
        buckets[s.genus].append(record_for(s))
    records = []
    for bucket in buckets:
        records += reversed(bucket)
    return records


# tag value -> (is a star failure, promised verdict), for summarize.  An
# ExceptionClass member hashes through the Python-level Enum.__hash__ and
# its value, a str, in C: the membership test and expected_verdict took
# 256 ns per record, this lookup 38 ns (timeit, Python 3.11.7).
_PROMISES = {
    tag._value_: (tag in EXCEPTION_TAGS, expected_verdict(tag)) for tag in ExceptionClass
}


def summarize(records: Iterable[CensusRecord], bound: int) -> VerificationSummary:
    """Condense records into the verification summary for genus <= bound.

    exceptions_found lists every semigroup tagged as a star failure;
    counterexamples lists records whose computed star verdict disagrees with
    the verdict their tag promises, and stays empty unless the
    classification itself is wrong.  A record whose genus lies outside
    0..bound raises ValueError.

    Any order of the same records gives the same summary: the counts are
    sums, and both lists are collected as (genus, generators) keys, which
    are unique per semigroup, and sorted at the end into canonical order.
    So the summary can be folded over the walk, which is not canonical.
    """
    per_genus = [0] * (bound + 1)
    ci_count = 0
    exceptions = []
    counterexamples = []
    for record in records:
        if not 0 <= record.genus <= bound:
            raise ValueError(
                f"record {list(record.generators)} has genus {record.genus}, "
                f"outside 0..{bound}"
            )
        per_genus[record.genus] += 1
        if record.is_ci:
            ci_count += 1
        failure, promised = _PROMISES[record.exception._value_]
        if failure:
            exceptions.append((record.genus, record.generators))
        if record.star.verdict is not promised:
            counterexamples.append((record.genus, record.generators))
    return VerificationSummary(
        bound=bound,
        total=sum(per_genus),
        ci_count=ci_count,
        exceptions_found=tuple(gens for _, gens in sorted(exceptions)),
        counterexamples=tuple(gens for _, gens in sorted(counterexamples)),
        per_genus=tuple(per_genus),
    )


def verify_star(max_genus: int) -> VerificationSummary:
    """Exhaustively classify star behavior for every genus <= max_genus.

    The bound is checked first; then summarize folds over the records in
    walk order, one at a time, so no record list is held or sorted and the
    memory is the walk's stack.
    """
    walk = enumerate_semigroups(max_genus)
    return summarize(map(record_for, walk), max_genus)


def _line(record: CensusRecord) -> str:
    """The record's NDJSON line: json.dumps(doc) + "\n" for its field dict.

    The template renders exactly what json.dumps does with its default
    separators ", " and ": ", for records shaped as record_for and
    read_records build them: the int fields format as their repr, which is
    json's int form; the generators tuple becomes a list of ints, whose repr
    is json's "[a, b]" (and "[]"); is_ci is spelled true/false and an absent
    d_max null; and every StarVerdict and ExceptionClass value matches
    [a-z_]+, so its quoted form needs no escaping.  _value_ is the member's
    value as a plain attribute; the value property costs a Python call.
    """
    star = record.star
    d_max = star.d_max
    return (
        f'{{"generators": {list(record.generators)}, "genus": {record.genus}, '
        f'"frobenius": {record.frobenius}, "embedding_dim": {record.embedding_dim}, '
        f'"is_ci": {"true" if record.is_ci else "false"}, '
        f'"star_verdict": "{star.verdict._value_}", '
        f'"d_max": {"null" if d_max is None else d_max}, '
        f'"exception": "{record.exception._value_}"}}\n'
    )


def record_to_doc(record: CensusRecord) -> dict:
    """The record's JSON object, fields in RECORD_FIELDS order."""
    return json.loads(_line(record))


_VERDICTS = {member.value: member for member in StarVerdict}
_TAGS = {member.value: member for member in ExceptionClass}


def _record_from_doc(doc) -> CensusRecord:
    """The record a parsed line describes, checked as far as reading can.

    Raises MalformedRecordError without the line; _read_from prefixes it.
    The happy path makes no call per field: enum members come from value
    dicts, tried only for str values, so an unhashable [1] still reaches
    the "is not a valid" message.
    """
    if not isinstance(doc, dict):
        raise MalformedRecordError("not a JSON object")
    try:
        generators = doc["generators"]
        genus = doc["genus"]
        frobenius = doc["frobenius"]
        embedding_dim = doc["embedding_dim"]
        is_ci = doc["is_ci"]
        verdict = doc["star_verdict"]
        exception = doc["exception"]
        d_max = doc["d_max"]
    except KeyError:
        missing = [f for f in RECORD_FIELDS if f not in doc]
        raise MalformedRecordError(f"missing fields {missing}") from None
    if not isinstance(generators, list):
        raise MalformedRecordError(f"generators must be a list, got {generators!r}")
    # one pass: every entry an int (json.loads yields int only for integer
    # literals, and bool is excluded too), and whether they strictly ascend
    ascending = bool(generators)
    previous = None
    for a in generators:
        if type(a) is not int:
            raise MalformedRecordError(f"generator must be an integer, got {a!r}")
        if previous is not None and a <= previous:
            ascending = False
        previous = a
    if not ascending:
        raise MalformedRecordError(
            f"generators must be non-empty and strictly ascending, got {generators}"
        )
    if generators[0] < 1:
        raise MalformedRecordError(f"generators must be >= 1, got {generators}")
    if gcd(*generators) != 1:
        raise MalformedRecordError(f"generators must have gcd 1, got {generators}")
    if type(genus) is not int:
        raise MalformedRecordError(f"genus must be an integer, got {genus!r}")
    if genus < 0:
        raise MalformedRecordError(f"genus must be >= 0, got {genus}")
    if type(frobenius) is not int:
        raise MalformedRecordError(f"frobenius must be an integer, got {frobenius!r}")
    if frobenius < -1:
        raise MalformedRecordError(f"frobenius must be >= -1, got {frobenius}")
    if type(embedding_dim) is not int:
        raise MalformedRecordError(f"embedding_dim must be an integer, got {embedding_dim!r}")
    if embedding_dim != len(generators):
        raise MalformedRecordError(
            f"embedding_dim must be {len(generators)}, got {embedding_dim}"
        )
    if type(is_ci) is not bool:
        raise MalformedRecordError(f"is_ci must be a boolean, got {is_ci!r}")
    if type(verdict) is not str or verdict not in _VERDICTS:
        raise MalformedRecordError(f"{verdict!r} is not a valid StarVerdict")
    verdict = _VERDICTS[verdict]
    if type(exception) is not str or exception not in _TAGS:
        raise MalformedRecordError(f"{exception!r} is not a valid ExceptionClass")
    exception = _TAGS[exception]
    # record_for's contract, which reading alone can check: N is the one
    # undefined tag, not_ci tags exactly the non-CIs, and the star verdict
    # is undefined exactly for them and N; a tag that disagrees with a
    # defined verdict stays readable, for summarize to report
    if (exception is _UNDEFINED_TAG) != (embedding_dim == 1):
        raise MalformedRecordError(
            "exception must be undefined exactly when embedding_dim is 1, "
            f"got {exception.value} with embedding_dim {embedding_dim}"
        )
    if is_ci != (exception is not _NOT_CI):
        raise MalformedRecordError(
            "is_ci must be false exactly when exception is not_ci, "
            f"got is_ci={json.dumps(is_ci)} with {exception.value}"
        )
    undefined = verdict is _UNDEFINED_VERDICT
    if undefined != (not is_ci or embedding_dim == 1):
        raise MalformedRecordError(
            "star_verdict must be undefined exactly for non-CIs and N, "
            f"got {verdict.value}"
        )
    if (d_max is None) != undefined:
        raise MalformedRecordError(
            "d_max must be null exactly when star_verdict is undefined, "
            f"got d_max={d_max!r} with {verdict.value}"
        )
    if undefined:
        star = _undefined(frobenius)[0]
    else:
        if type(d_max) is not int:
            raise MalformedRecordError(f"d_max must be an integer, got {d_max!r}")
        margin = 2 * frobenius - d_max
        if (verdict is _SATISFIED) != (margin > 0):
            raise MalformedRecordError(f"star_verdict contradicts 2F - d_max = {margin}")
        star = StarReport(frobenius, d_max, verdict, margin)
    return CensusRecord(
        tuple(generators), genus, frobenius, embedding_dim, is_ci, star, exception
    )


def write_records(records: Iterable[CensusRecord], destination) -> int:
    """Write records as JSON lines; returns the number written.

    destination is a path or a writable text file object.
    """
    if hasattr(destination, "write"):
        return _write_to(records, destination)
    with open(destination, "w", encoding="utf-8") as handle:
        return _write_to(records, handle)


def _write_to(records: Iterable[CensusRecord], handle) -> int:
    count = 0
    for record in records:
        handle.write(_line(record))
        count += 1
    return count


def read_records(source) -> Iterator[CensusRecord]:
    """Parse JSON-line records from a path or text file object.

    Raises MalformedRecordError naming the offending line on bad input,
    including records that describe no semigroup and records whose CI flag,
    tag and verdict contradict each other; blank lines are ignored.

    A path is decoded with errors="surrogateescape", so bytes that are not
    UTF-8 reach json.loads as lone surrogates on their own line instead of
    failing the decode of a whole read-ahead chunk.  Outside a JSON string
    they make the line invalid JSON.  Inside one they are rejected where the
    reader reads the string (no enum tag holds them, no other field is a
    string) and pass only in an object member it does not read.
    """
    if hasattr(source, "read"):
        yield from _read_from(source)
    else:
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as handle:
            yield from _read_from(handle)


_raw_decode = json.JSONDecoder().raw_decode


def _read_from(handle) -> Iterator[CensusRecord]:
    """Records of the non-blank lines of handle, each decoded by one raw_decode.

    json.loads(text) is exactly raw_decode(text) followed by two checks:
    it first rejects a text that starts with a BOM, then decodes from the
    end of the leading JSON whitespace, and after the value it skips JSON
    whitespace and raises "Extra data" unless that reaches the end.  The
    line is stripped, and JSON whitespace (space, tab, CR, LF) is Python
    whitespace, so text has none at either end, and its JSON value starts
    at 0.  A BOM is no JSON whitespace and starts no value, so raw_decode
    raises on it too.  So when raw_decode returns a value that ends at
    len(text), json.loads returns an equal one, as both run the same
    default decoder from index 0.  When raw_decode raises, json.loads
    raises as well (on a BOM, its own message); when it stops short, the
    rest is no whitespace, and json.loads raises "Extra data".  Those lines
    go to json.loads for its error, so the two routes accept the same
    lines, give equal docs, and fail with the same error.
    """
    for line_no, line in enumerate(handle, start=1):
        text = line.strip()
        if not text:
            continue
        # ValueError covers JSONDecodeError and integer literals over the
        # interpreter's digit limit; RecursionError, arrays nested too deep
        try:
            try:
                doc, end = _raw_decode(text)
            except Exception:
                end = -1  # json.loads below raises the error to report
            if end != len(text):
                doc = json.loads(text)
            record = _record_from_doc(doc)
        except (ValueError, RecursionError, MalformedRecordError) as err:
            raise MalformedRecordError(f"line {line_no}: {err}") from None
        yield record
