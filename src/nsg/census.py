"""Exhaustive genus-bounded enumeration and the verification pipeline.

Semigroups form a tree rooted at N: the children of S are S minus one
minimal generator exceeding F(S), which raises the genus by one, and every
semigroup arises exactly once this way.  The walk is depth-first and
streaming, so memory stays bounded by the tree depth.

Each enumerated semigroup is condensed into a CensusRecord and serialized as
one JSON object per line with a fixed field set:

    generators, genus, frobenius, embedding_dim, is_ci, star_verdict,
    d_max, exception

Records are canonically ordered by (genus, generators).  Subtrees are
independent work units, so enumeration may fan out over processes; results
are merged through the canonical sort and the worker count never shows in
the output.  A work ceiling (default genus 15, overridable via the
NSG_WORK_CEILING environment variable or the ceiling argument) bounds what a
single call may attempt; everything it allows is exhaustive verification up
to the bound, never a proof beyond it.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import NumericalSemigroup, contains, make_semigroup
from .errors import BoundTooLargeError, MalformedRecordError
from .gluing import is_complete_intersection
from .star import (
    EXCEPTION_TAGS,
    ExceptionClass,
    StarReport,
    StarVerdict,
    _pattern_class,
    expected_verdict,
    star_report,
)

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

# genus at which parallel runs hand subtrees to workers
_SPLIT_GENUS = 5


@dataclass(frozen=True)
class CensusRecord:
    generators: tuple[int, ...]
    genus: int
    frobenius: int
    embedding_dim: int
    is_ci: bool
    star: StarReport
    exception: ExceptionClass


@dataclass(frozen=True)
class VerificationSummary:
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
    # dropping a minimal generator g > F(S) keeps closure and makes g the
    # new Frobenius number; children generators never exceed g + (g + 1)
    top = 2 * g + 1
    raw = [
        n
        for n in range(1, top + 1)
        if n != g and contains(semigroup, n)
    ]
    return make_semigroup(raw)


def _children(semigroup: NumericalSemigroup) -> Iterator[NumericalSemigroup]:
    for g in semigroup.generators:
        if g > semigroup.frobenius:
            yield _remove_generator(semigroup, g)


def _walk(semigroup: NumericalSemigroup, max_genus: int) -> Iterator[NumericalSemigroup]:
    yield semigroup
    if semigroup.genus < max_genus:
        for child in _children(semigroup):
            yield from _walk(child, max_genus)


def _check_bound(max_genus: int, ceiling: int | None) -> None:
    if max_genus < 0:
        raise ValueError(f"max_genus must be >= 0, got {max_genus}")
    limit = ceiling if ceiling is not None else work_ceiling()
    if max_genus > limit:
        raise BoundTooLargeError(
            f"genus bound {max_genus} exceeds the work ceiling {limit}"
        )


def enumerate_semigroups(
    max_genus: int, *, ceiling: int | None = None
) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup of genus <= max_genus, depth-first."""
    _check_bound(max_genus, ceiling)
    return _walk(natural_numbers(), max_genus)


def record_for(semigroup: NumericalSemigroup) -> CensusRecord:
    # the tag is not checked against the verdict here: summarize() turns a
    # disagreement into a counterexample, so the sweep keeps going
    ci = is_complete_intersection(semigroup)
    return CensusRecord(
        generators=semigroup.generators,
        genus=semigroup.genus,
        frobenius=semigroup.frobenius,
        embedding_dim=semigroup.embedding_dim,
        is_ci=ci,
        star=star_report(semigroup),
        exception=_pattern_class(semigroup, ci),
    )


def _subtree_records(task: tuple[tuple[int, ...], int]) -> list[CensusRecord]:
    generators, max_genus = task
    root = make_semigroup(list(generators))
    return [record_for(s) for s in _walk(root, max_genus)]


def enumerate_records(
    max_genus: int, *, jobs: int = 1, ceiling: int | None = None
) -> list[CensusRecord]:
    """Census records for genus <= max_genus in canonical order.

    jobs > 1 fans subtrees rooted at genus _SPLIT_GENUS out to worker
    processes; the canonical sort makes the result identical either way.
    """
    _check_bound(max_genus, ceiling)
    if jobs <= 1 or max_genus <= _SPLIT_GENUS:
        records = [record_for(s) for s in _walk(natural_numbers(), max_genus)]
    else:
        inner: list[NumericalSemigroup] = []
        frontier: list[NumericalSemigroup] = []
        for s in _walk(natural_numbers(), _SPLIT_GENUS):
            (frontier if s.genus == _SPLIT_GENUS else inner).append(s)
        records = [record_for(s) for s in inner]
        tasks = [(root.generators, max_genus) for root in frontier]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for chunk in pool.map(_subtree_records, tasks):
                records.extend(chunk)
    records.sort(key=lambda r: (r.genus, r.generators))
    return records


def summarize(records: Iterable[CensusRecord], bound: int) -> VerificationSummary:
    """Condense records into the verification summary for genus <= bound.

    exceptions_found lists every semigroup tagged as a star failure;
    counterexamples lists records whose computed star verdict disagrees with
    the verdict their tag promises, and stays empty unless the
    classification itself is wrong.
    """
    per_genus = [0] * (bound + 1)
    total = 0
    ci_count = 0
    exceptions = []
    counterexamples = []
    for record in records:
        total += 1
        per_genus[record.genus] += 1
        if record.is_ci:
            ci_count += 1
        if record.exception in EXCEPTION_TAGS:
            exceptions.append(record.generators)
        if record.star.verdict is not expected_verdict(record.exception):
            counterexamples.append(record.generators)
    return VerificationSummary(
        bound=bound,
        total=total,
        ci_count=ci_count,
        exceptions_found=tuple(exceptions),
        counterexamples=tuple(counterexamples),
        per_genus=tuple(per_genus),
    )


def verify_star(
    max_genus: int, *, jobs: int = 1, ceiling: int | None = None
) -> VerificationSummary:
    """Exhaustively classify star behavior for every genus <= max_genus."""
    records = enumerate_records(max_genus, jobs=jobs, ceiling=ceiling)
    return summarize(records, max_genus)


def record_to_doc(record: CensusRecord) -> dict:
    return {
        "generators": list(record.generators),
        "genus": record.genus,
        "frobenius": record.frobenius,
        "embedding_dim": record.embedding_dim,
        "is_ci": record.is_ci,
        "star_verdict": record.star.verdict.value,
        "d_max": record.star.d_max,
        "exception": record.exception.value,
    }


def _integer(value, name: str, where: str) -> int:
    # json.loads yields int only for integer literals; bool is excluded too
    if type(value) is not int:
        raise MalformedRecordError(f"{where}: {name} must be an integer, got {value!r}")
    return value


def _record_from_doc(doc: dict, where: str) -> CensusRecord:
    if not isinstance(doc, dict):
        raise MalformedRecordError(f"{where}: not a JSON object")
    missing = [f for f in RECORD_FIELDS if f not in doc]
    if missing:
        raise MalformedRecordError(f"{where}: missing fields {missing}")
    if not isinstance(doc["generators"], list):
        raise MalformedRecordError(
            f"{where}: generators must be a list, got {doc['generators']!r}"
        )
    generators = tuple(_integer(a, "generator", where) for a in doc["generators"])
    if any(a < 1 for a in generators):
        raise MalformedRecordError(f"{where}: generators must be >= 1, got {list(generators)}")
    genus = _integer(doc["genus"], "genus", where)
    frobenius = _integer(doc["frobenius"], "frobenius", where)
    embedding_dim = _integer(doc["embedding_dim"], "embedding_dim", where)
    is_ci = doc["is_ci"]
    if not isinstance(is_ci, bool):
        raise MalformedRecordError(f"{where}: is_ci must be a boolean, got {is_ci!r}")
    try:
        verdict = StarVerdict(doc["star_verdict"])
        exception = ExceptionClass(doc["exception"])
    except ValueError as err:
        raise MalformedRecordError(f"{where}: {err}") from None
    d_max = doc["d_max"]
    if (d_max is None) != (verdict is StarVerdict.UNDEFINED):
        raise MalformedRecordError(
            f"{where}: d_max must be null exactly when star_verdict is undefined, "
            f"got d_max={d_max!r} with {verdict.value}"
        )
    margin = None
    if d_max is not None:
        d_max = _integer(d_max, "d_max", where)
        margin = 2 * frobenius - d_max
    return CensusRecord(
        generators=generators,
        genus=genus,
        frobenius=frobenius,
        embedding_dim=embedding_dim,
        is_ci=is_ci,
        star=StarReport(frobenius=frobenius, d_max=d_max, verdict=verdict, margin=margin),
        exception=exception,
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
        handle.write(json.dumps(record_to_doc(record)))
        handle.write("\n")
        count += 1
    return count


def read_records(source) -> Iterator[CensusRecord]:
    """Parse JSON-line records from a path or text file object.

    Raises MalformedRecordError naming the offending line on bad input;
    blank lines are ignored.
    """
    if hasattr(source, "read"):
        yield from _read_from(source)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            yield from _read_from(handle)


def _read_from(handle) -> Iterator[CensusRecord]:
    for line_no, line in enumerate(handle, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise MalformedRecordError(f"line {line_no}: {err}") from None
        yield _record_from_doc(doc, f"line {line_no}")
