"""Genus-bounded enumeration, records, serialization, verification."""

import dataclasses
import io
import json
import random
import re
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

import nsg.census
import nsg.star
from nsg import (
    BoundTooLargeError,
    CensusRecord,
    ExceptionClass,
    MalformedRecordError,
    StarReport,
    StarVerdict,
    ci_tree,
    classify_exception,
    enumerate_records,
    enumerate_semigroups,
    hypotheses_report,
    make_semigroup,
    natural_numbers,
    read_records,
    record_for,
    record_to_doc,
    star_report,
    summarize,
    verify_star,
    work_ceiling,
    write_records,
)
from nsg.census import (
    DEFAULT_WORK_CEILING,
    ENV_WORK_CEILING,
    RECORD_FIELDS,
    _line,
    _record_from_doc,
    _remove_generator,
)

from oracles import kunz_semigroups, naive_semigroups

KNOWN_COUNTS = [1, 1, 2, 4, 7, 12, 23, 39, 67]


def test_genus_two_census():
    found = {s.generators for s in enumerate_semigroups(2)}
    assert found == {(1,), (2, 3), (2, 5), (3, 4, 5)}


def test_walk_yields_each_semigroup_once():
    seen = [s.generators for s in enumerate_semigroups(6)]
    assert len(seen) == len(set(seen))
    assert len(seen) == sum(KNOWN_COUNTS[:7])


def test_walk_matches_recursive_preorder_through_genus_15():
    # the walk yields the spine first (proof at census._walk); the recursive
    # preorder reaches O_(m+1) = <m + 1, ..., 2m + 1> as the child g = m
    def reference(node, max_genus):
        yield node.generators
        if node.genus < max_genus:
            m = node.multiplicity
            for g in node.generators:
                if g <= node.frobenius:
                    continue
                if g == m:
                    child = make_semigroup(list(range(m + 1, 2 * m + 2)))
                else:
                    child = _remove_generator(node, g)
                yield from reference(child, max_genus)

    walked = [s.generators for s in enumerate_semigroups(15)]
    assert walked == list(reference(natural_numbers(), 15))
    assert len(walked) == 6964


def test_walk_builds_the_spine_once_and_never_removes_a_multiplicity(monkeypatch):
    built, removed = [], []
    real_build, real_remove = nsg.census._build, nsg.census._remove_generator

    def build(generators):
        built.append(generators)
        return real_build(generators)

    def remove(node, g):
        removed.append(g == node.multiplicity)
        return real_remove(node, g)

    monkeypatch.setattr(nsg.census, "_build", build)
    monkeypatch.setattr(nsg.census, "_remove_generator", remove)
    assert sum(1 for _ in enumerate_semigroups(15)) == 6964
    assert built == [tuple(range(m, 2 * m)) for m in range(1, 17)]
    assert len(removed) == 6964 - 16 and not any(removed)


def test_walk_gives_each_genus_in_descending_generator_order_through_genus_15():
    # proof at census._walk; read in reverse, each genus is in canonical order
    by_genus = [[] for _ in range(16)]
    for s in enumerate_semigroups(15):
        by_genus[s.genus].append(s.generators)
    for genus, listed in enumerate(by_genus):
        assert all(a > b for a, b in zip(listed, listed[1:])), genus
    assert sum(map(len, by_genus)) == 6964


def test_walk_counts_match_a007323_for_genus_16_to_18(monkeypatch):
    monkeypatch.setenv(ENV_WORK_CEILING, "18")
    per_genus = [0] * 19
    for s in enumerate_semigroups(18):
        per_genus[s.genus] += 1
    assert per_genus[16:] == [4806, 8045, 13467]
    assert sum(per_genus) == 33282


def test_walk_matches_the_kunz_count_through_genus_18(monkeypatch):
    # an independent route with no child step: the (genus, multiplicity)
    # table through genus 18, and the generator tuples through genus 15
    monkeypatch.setenv(ENV_WORK_CEILING, "18")
    walked, counted = {}, {}
    for s in enumerate_semigroups(18):
        walked.setdefault((s.genus, s.multiplicity), []).append(s.generators)
    for genus, m, generators in kunz_semigroups(18):
        counted.setdefault((genus, m), []).append(generators)
    assert {key: len(found) for key, found in walked.items()} == {
        key: len(found) for key, found in counted.items()
    }
    assert sum(map(len, counted.values())) == 33282
    low = [key for key in counted if key[0] <= 15]
    assert sum(len(counted[key]) for key in low) == 6964
    for key in low:
        assert sorted(walked[key]) == sorted(counted[key]), key


def test_child_step_matches_rebuild_through_genus_15(monkeypatch):
    # every child of every node of genus <= 15, against make_semigroup of its
    # elements up to 2g + 1 (its generators are at most g + m); membership
    # reads the parent, which was itself checked one level up, back to N.
    # The child g = m is the spine's next link, O_(m+1), as the walk
    # through genus 16 yields it; only an ordinary node has it
    monkeypatch.setenv(ENV_WORK_CEILING, "16")
    walked = list(enumerate_semigroups(16))
    # 1, ..., m - 1 are gaps, so genus m - 1 is the ordinary semigroup's
    spine = {s.multiplicity: s for s in walked if s.genus == s.multiplicity - 1}
    assert sorted(spine) == list(range(1, 18))
    children = 0
    for node in walked:
        if node.genus == 16:
            continue
        m = node.multiplicity
        for g in node.generators:
            if g <= node.frobenius:
                continue
            rebuilt = make_semigroup(
                [n for n in range(1, 2 * g + 2) if n != g and n in node]
            )
            if g == m:
                assert node is spine[m], node.generators
                child = spine[m + 1]
            else:
                child = _remove_generator(node, g)
                # the one candidate the child step tests
                assert set(child.generators) - set(node.generators) <= {g + m}, (
                    node.generators, g)
            # dataclass equality: generators, multiplicity, embedding_dim,
            # Apery modulus and entries, frobenius and genus
            assert child == rebuilt, (node.generators, g)
            children += 1
    # the children are exactly the semigroups of genus 1..16 (A007323)
    assert children == 11769


def test_walked_semigroups_equal_and_hash_as_their_rebuilds():
    # the walk builds its nodes directly, not through make_semigroup's
    # cache, so caches keyed by semigroups must find them under either
    for node in enumerate_semigroups(10):
        rebuilt = make_semigroup(node.generators)
        assert node == rebuilt
        assert hash(node) == hash(rebuilt) == hash(node.generators)
        assert {rebuilt: True}[node]


@pytest.mark.parametrize("genus", range(0, 7))
def test_census_matches_gap_subset_oracle(genus):
    ours = sorted(
        s.generators for s in enumerate_semigroups(6) if s.genus == genus
    )
    oracle = sorted(gens for _, gens in naive_semigroups(genus))
    assert ours == oracle


def test_enumerate_rejects_bad_bounds(monkeypatch):
    with pytest.raises(ValueError):
        list(enumerate_semigroups(-1))
    with pytest.raises(BoundTooLargeError):
        list(enumerate_semigroups(DEFAULT_WORK_CEILING + 1))
    monkeypatch.setenv(ENV_WORK_CEILING, "4")
    with pytest.raises(BoundTooLargeError):
        enumerate_records(5)
    # both entry points check the sign before the ceiling
    monkeypatch.setenv(ENV_WORK_CEILING, "-2")
    with pytest.raises(ValueError):
        enumerate_records(-1)


@pytest.mark.parametrize("bound", [2.5, "3", True, Decimal(2)])
def test_a_bound_that_is_not_an_int_is_refused_before_any_work(bound, monkeypatch):
    # a float bound once walked past itself, to genus 3 for 2.5; the check
    # comes before the walk is made, so no node is built
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(nsg.census, "_walk", no_walk)
    for entry in (enumerate_semigroups, enumerate_records, verify_star):
        with pytest.raises(TypeError, match=re.escape(f"max_genus must be an int, got {bound!r}")):
            entry(bound)


def test_work_ceiling_env_override(monkeypatch):
    assert work_ceiling() == DEFAULT_WORK_CEILING
    monkeypatch.setenv(ENV_WORK_CEILING, "3")
    assert work_ceiling() == 3
    with pytest.raises(BoundTooLargeError):
        enumerate_records(4)
    monkeypatch.setenv(ENV_WORK_CEILING, "17")
    assert work_ceiling() == 17
    monkeypatch.setenv(ENV_WORK_CEILING, "many")
    with pytest.raises(ValueError):
        work_ceiling()


def test_record_for_golden():
    record = record_for(make_semigroup([2, 3]))
    assert record.generators == (2, 3)
    assert record.genus == 1
    assert record.frobenius == 1
    assert record.is_ci
    assert record.star.verdict is StarVerdict.FAILED
    assert record.star.d_max == 6
    assert record.exception is ExceptionClass.TWO_GENERATED_WITH_TWO

    record = record_for(natural_numbers())
    assert record.star.d_max is None
    assert record.exception is ExceptionClass.UNDEFINED


def test_records_are_canonically_ordered():
    # enumerate_records reverses the walk's per-genus lists instead of
    # sorting; the order must still be the sorted one
    keys = [(r.genus, r.generators) for r in enumerate_records(15)]
    assert keys == sorted((s.genus, s.generators) for s in enumerate_semigroups(15))
    assert len(set(keys)) == len(keys) == 6964


def _ci_candidate(s):
    # the multiplicity bound of a complete intersection other than N,
    # written out here rather than read from nsg.gluing
    return s.embedding_dim > 1 and s.multiplicity >= 2 ** (s.embedding_dim - 1)


def test_one_ci_decision_per_census_record(monkeypatch):
    # a CI candidate gets one ci_tree call, through star._classify, on each
    # route to its report or tag; N needs no decision, and a node below the
    # bound is settled without one
    real = nsg.star.ci_tree
    calls = []

    def counted(semigroup):
        calls.append(semigroup.generators)
        return real(semigroup)

    monkeypatch.setattr(nsg.star, "ci_tree", counted)
    settled = 0
    for s in enumerate_semigroups(10):
        for entry in (record_for, star_report, classify_exception, hypotheses_report):
            before = len(calls)
            entry(s)
            assert len(calls) - before == _ci_candidate(s), (entry.__name__, s)
        settled += s.embedding_dim > 1 and not _ci_candidate(s)
    assert settled > 0


def _pattern_tag(generators):
    # the three failure patterns among complete intersections (nsg.star
    # module docstring), written out here rather than read from nsg.star
    if generators[0] == 2 and len(generators) == 2:
        return ExceptionClass.TWO_GENERATED_WITH_TWO
    if generators == (3, 4):
        return ExceptionClass.THREE_FOUR
    if generators == (3, 5):
        return ExceptionClass.THREE_FIVE
    return ExceptionClass.SATISFIES


def test_record_for_matches_ci_tree_and_the_generator_pattern_through_genus_15():
    # every record against facts computed here: CI membership and d_max from
    # ci_tree, the verdict from 2F > d_max, the tag from the generators
    count = 0
    for s in enumerate_semigroups(15):
        record = record_for(s)
        assert (record.generators, record.genus, record.frobenius, record.embedding_dim) == (
            s.generators, s.genus, s.frobenius, s.embedding_dim), s
        tree = ci_tree(s)
        if s.embedding_dim == 1:
            assert record.is_ci
            assert record.exception is ExceptionClass.UNDEFINED
            assert record.star == StarReport(-1, None, StarVerdict.UNDEFINED, None)
        elif tree is None:
            assert not record.is_ci, s
            assert record.exception is ExceptionClass.NOT_CI, s
            assert record.star is nsg.star._undefined(s.frobenius)[0], s
        else:
            d_max = tree.degrees[-1]
            margin = 2 * s.frobenius - d_max
            verdict = StarVerdict.SATISFIED if margin > 0 else StarVerdict.FAILED
            assert record.is_ci, s
            assert record.star == StarReport(s.frobenius, d_max, verdict, margin), s
            assert record.exception is _pattern_tag(s.generators), s
        count += 1
    assert count == 6964


def test_round_trip_through_file(tmp_path):
    records = enumerate_records(4)
    path = tmp_path / "census.ndjson"
    assert write_records(records, path) == len(records)
    assert list(read_records(path)) == records


def test_bytes_that_are_not_utf8_name_the_line(tmp_path):
    # a path is decoded in read-ahead chunks, so a strict decode would fail
    # before line 1 is parsed and without naming any line
    good = _line(enumerate_records(1)[1]).encode("utf-8")
    path = tmp_path / "census.ndjson"
    path.write_bytes(b"\xff\xfe{}\n")
    with pytest.raises(MalformedRecordError, match="^line 1: "):
        list(read_records(path))
    for bad, reason in [
        (b"\xff\xfe{}\n", "Expecting value"),
        (good.replace(b'"failed"', b'"fail\xffed"'), "is not a valid StarVerdict"),
    ]:
        path.write_bytes(good + bad)
        records = read_records(path)
        assert next(records) == enumerate_records(1)[1]
        with pytest.raises(MalformedRecordError, match=f"^line 2: .*{reason}"):
            next(records)


def test_round_trip_through_file_objects():
    records = enumerate_records(3)
    buffer = io.StringIO()
    write_records(records, buffer)
    buffer.seek(0)
    assert list(read_records(buffer)) == records


def test_blank_lines_are_skipped():
    records = enumerate_records(2)
    buffer = io.StringIO()
    lines = [json.dumps(record_to_doc(r)) for r in records]
    text = lines[0] + "\n\n" + "\n".join(lines[1:]) + "\n\n"
    assert list(read_records(io.StringIO(text))) == records


def test_malformed_records_name_the_line():
    good = json.dumps(record_to_doc(enumerate_records(1)[1]))
    with pytest.raises(MalformedRecordError, match="line 2"):
        list(read_records(io.StringIO(good + "\nnot json\n")))
    with pytest.raises(MalformedRecordError, match="line 1.*missing"):
        list(read_records(io.StringIO('{"generators": [2, 3]}\n')))
    with pytest.raises(MalformedRecordError, match="line 1"):
        list(read_records(io.StringIO("[1, 2, 3]\n")))
    # an integer literal past the interpreter's digit limit, and arrays
    # nested past the recursion limit; the messages vary by Python version
    for hostile in ['{"genus": ' + "9" * 5000 + "}", "[" * 100_000]:
        with pytest.raises(MalformedRecordError, match="^line 1: "):
            list(read_records(io.StringIO(hostile + "\n")))
    bad_verdict = good.replace('"failed"', '"maybe"')
    with pytest.raises(MalformedRecordError, match="line 2"):
        list(read_records(io.StringIO(good + "\n" + bad_verdict + "\n")))
    doc = json.loads(good)
    for field, value, reason in [
        ("generators", "45", "generators must be a list"),
        ("generators", [0, 1], "generators must be >= 1"),
        ("genus", True, "genus must be an integer"),
        ("genus", -1, "genus must be >= 0"),
        ("is_ci", "false", "is_ci must be a boolean"),
        ("frobenius", 2.9, "frobenius must be an integer"),
        ("d_max", None, "d_max must be null exactly when"),
        ("generators", [], "generators must be non-empty and strictly ascending"),
        ("generators", [3, 2], "generators must be non-empty and strictly ascending"),
        ("generators", [2, 2, 3], "generators must be non-empty and strictly ascending"),
        ("embedding_dim", 7, "embedding_dim must be 2"),
        ("frobenius", -5, "frobenius must be >= -1"),
        ("star_verdict", "satisfied", "star_verdict contradicts 2F - d_max = -4"),
    ]:
        bad = json.dumps({**doc, field: value})
        with pytest.raises(MalformedRecordError, match=f"line 2: {reason}"):
            list(read_records(io.StringIO(good + "\n" + bad + "\n")))
    # fields that contradict each other: <2,3>, N and <3,4,5>; the first two
    # are consistent but for generators that describe no numerical semigroup
    natural, _, two_gen, three_gen = (record_to_doc(r) for r in enumerate_records(2))
    for bad_doc, reason in [
        ({**natural, "generators": [2]}, r"generators must have gcd 1, got \[2\]"),
        ({**three_gen, "generators": [4, 6, 8]}, r"generators must have gcd 1, got \[4, 6, 8\]"),
        (
            {**doc, "is_ci": False, "exception": "satisfies"},
            "is_ci must be false exactly when exception is not_ci, got is_ci=false with satisfies",
        ),
        (
            {**doc, "star_verdict": "undefined", "d_max": None, "exception": "three_four"},
            "star_verdict must be undefined exactly for non-CIs and N, got undefined",
        ),
        (
            {**natural, "exception": "not_ci"},
            "exception must be undefined exactly when embedding_dim is 1, got not_ci",
        ),
        (
            {**three_gen, "is_ci": True},
            "is_ci must be false exactly when exception is not_ci, got is_ci=true with not_ci",
        ),
        (
            {**two_gen, "exception": "undefined"},
            "exception must be undefined exactly when embedding_dim is 1, got undefined",
        ),
        (
            {**three_gen, "is_ci": True, "exception": "satisfies"},
            "star_verdict must be undefined exactly for non-CIs and N, got undefined",
        ),
    ]:
        bad = json.dumps(bad_doc)
        with pytest.raises(MalformedRecordError, match=f"line 2: {reason}"):
            list(read_records(io.StringIO(good + "\n" + bad + "\n")))
    # a tag that disagrees with a defined verdict is readable: summarize
    # reports it as a counterexample
    mistagged = json.dumps({**doc, "exception": "satisfies"})
    (record,) = read_records(io.StringIO(mistagged + "\n"))
    assert summarize([record], 1).counterexamples == ((2, 3),)


def test_reader_messages_are_exact():
    good = json.dumps(record_to_doc(enumerate_records(1)[1]))
    doc = json.loads(good)

    def message(bad_doc):
        with pytest.raises(MalformedRecordError) as raised:
            list(read_records(io.StringIO(good + "\n" + json.dumps(bad_doc) + "\n")))
        return str(raised.value)

    for value, shown in [
        ("maybe", "'maybe'"),
        ("Failed", "'Failed'"),
        (1, "1"),
        ([1], "[1]"),
        (None, "None"),
        ({"a": 1}, "{'a': 1}"),
    ]:
        assert message({**doc, "star_verdict": value}) == (
            f"line 2: {shown} is not a valid StarVerdict"
        )
        assert message({**doc, "exception": value}) == (
            f"line 2: {shown} is not a valid ExceptionClass"
        )
    # the verdict is read first
    assert message({**doc, "star_verdict": [1], "exception": [2]}) == (
        "line 2: [1] is not a valid StarVerdict"
    )
    for generators, shown in [([2, 3.5], "3.5"), (["2", 3], "'2'"), ([2, True], "True"),
                              ([3, 2, None], "None"), ([[2], 3], "[2]")]:
        assert message({**doc, "generators": generators}) == (
            f"line 2: generator must be an integer, got {shown}"
        )
    for field in ("genus", "frobenius", "embedding_dim", "d_max"):
        assert message({**doc, field: 2.0}) == f"line 2: {field} must be an integer, got 2.0"
    assert message({**doc, "is_ci": 1}) == "line 2: is_ci must be a boolean, got 1"
    assert message({**doc, "generators": [3, 2]}) == (
        "line 2: generators must be non-empty and strictly ascending, got [3, 2]"
    )
    assert message({**doc, "generators": [-1, 2]}) == (
        "line 2: generators must be >= 1, got [-1, 2]"
    )
    assert message({**doc, "generators": [0, 0]}) == (
        "line 2: generators must be non-empty and strictly ascending, got [0, 0]"
    )
    missing = {k: v for k, v in doc.items() if k not in ("genus", "d_max")}
    assert message(missing) == "line 2: missing fields ['genus', 'd_max']"
    assert message([doc]) == "line 2: not a JSON object"
    with pytest.raises(MalformedRecordError) as raised:
        list(read_records(io.StringIO(good + "\n" + good[:-1] + "\n")))
    assert str(raised.value).startswith("line 2: Expecting ',' delimiter")


def _reader_lines():
    """Lines for the reader: records as written, and hostile variants of them."""
    docs = [record_to_doc(r) for r in enumerate_records(4)]
    valid = st.sampled_from([json.dumps(doc) for doc in docs])
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
        | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    )
    field_changed = st.builds(
        lambda doc, field, value: json.dumps({**doc, field: value}),
        st.sampled_from(docs), st.sampled_from(RECORD_FIELDS), json_values,
    )
    truncated = st.builds(lambda text, cut: text[:cut], valid, st.integers(0, 200))
    trailing = st.builds(
        lambda text, tail: text + tail,
        valid,
        st.sampled_from([" x", "{}", " 1", "]", ",", " []", '\t"a"']) | st.text(max_size=4),
    )
    bom = st.builds(lambda text: "\ufeff" + text, valid | st.just("{}"))
    # deep nesting only far past the recursion limit: near it, whether a
    # decode fails depends on the depth of the calling stack
    depths = st.integers(0, 40) | st.just(100_000)
    nested = st.builds(
        lambda depth, closed: "[" * depth + ("]" * depth if closed else ""),
        depths, st.booleans(),
    ) | st.builds(lambda depth, doc: json.dumps(doc)[:-1] + ', "x": ' + "[" * depth
                  + "]" * depth + "}", depths, st.sampled_from(docs))
    long_int = st.builds(
        lambda text, digits: text.replace('"genus": ', '"genus": ' + "7" * digits, 1),
        valid, st.sampled_from([4299, 4300, 5000]),
    )
    return (valid | field_changed | truncated | trailing | bom | nested | long_int).filter(
        lambda line: "\n" not in line and line.strip()
    )


@settings(max_examples=400, deadline=None)
@given(_reader_lines())
def test_reader_matches_json_loads(line):
    # the reader decodes with raw_decode; json.loads of the stripped line,
    # then _record_from_doc, is the oracle for both records and messages
    text = line.strip()
    try:
        expected = _record_from_doc(json.loads(text))
    except (ValueError, RecursionError, MalformedRecordError) as err:
        expected = f"line 1: {err}"
    try:
        (got,) = read_records(io.StringIO(line + "\n"))
    except MalformedRecordError as err:
        got = str(err)
    assert got == expected


big_ints = st.integers(-(10**40), 10**40)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 10**40), max_size=8),
    big_ints,
    big_ints,
    big_ints,
    st.booleans(),
    st.sampled_from(StarVerdict),
    st.none() | big_ints,
    st.sampled_from(ExceptionClass),
)
def test_line_matches_json_dumps(generators, genus, frobenius, embedding_dim, is_ci,
                                 verdict, d_max, tag):
    # the template needs only the field types, not a consistent record
    record = CensusRecord(
        generators=tuple(generators),
        genus=genus,
        frobenius=frobenius,
        embedding_dim=embedding_dim,
        is_ci=is_ci,
        star=StarReport(frobenius=frobenius, d_max=d_max, verdict=verdict, margin=None),
        exception=tag,
    )
    doc = {
        "generators": generators,
        "genus": genus,
        "frobenius": frobenius,
        "embedding_dim": embedding_dim,
        "is_ci": is_ci,
        "star_verdict": verdict.value,
        "d_max": d_max,
        "exception": tag.value,
    }
    assert _line(record) == json.dumps(doc) + "\n"
    assert record_to_doc(record) == doc


def test_record_doc_field_order():
    doc = record_to_doc(enumerate_records(1)[1])
    assert tuple(doc) == RECORD_FIELDS


def test_margin_is_reconstructed_on_read():
    records = enumerate_records(4)
    buffer = io.StringIO()
    write_records(records, buffer)
    buffer.seek(0)
    for original, loaded in zip(records, read_records(buffer)):
        assert loaded.star.margin == original.star.margin


def test_verify_star_trivial_bound():
    summary = verify_star(0)
    assert summary.total == 1
    assert summary.ci_count == 1
    assert summary.per_genus == (1,)
    assert summary.exceptions_found == ()
    assert summary.counterexamples == ()


def test_verify_star_small_bound():
    summary = verify_star(4)
    assert summary.bound == 4
    assert summary.total == 15
    assert summary.per_genus == (1, 1, 2, 4, 7)
    assert summary.exceptions_found == (
        (2, 3),
        (2, 5),
        (2, 7),
        (3, 4),
        (2, 9),
        (3, 5),
    )
    assert summary.counterexamples == ()


def test_known_counts_through_genus_eight():
    summary = verify_star(8)
    assert summary.per_genus == tuple(KNOWN_COUNTS)
    assert summary.counterexamples == ()


def test_summary_does_not_depend_on_record_order():
    records = enumerate_records(8)
    # two mis-tagged records of different genus, so the counterexample list
    # has an order to keep as well
    forged = {
        (2, 3): ExceptionClass.SATISFIES,
        (3, 4, 5): ExceptionClass.THREE_FOUR,
    }
    records = [
        dataclasses.replace(r, exception=forged[r.generators]) if r.generators in forged else r
        for r in records
    ]
    canonical = summarize(records, 8)
    assert canonical.counterexamples == ((2, 3), (3, 4, 5))
    shuffled = list(records)
    random.Random(1701).shuffle(shuffled)
    assert shuffled != records
    assert summarize(reversed(records), 8) == canonical
    assert summarize(shuffled, 8) == canonical


def test_verify_star_folds_the_walk_to_the_canonical_summary():
    for genus in range(11):
        assert verify_star(genus) == summarize(enumerate_records(genus), genus), genus


def test_summarize_flags_verdict_tag_disagreement():
    records = enumerate_records(2)
    forged = CensusRecord(
        generators=(3, 4, 5),
        genus=2,
        frobenius=2,
        embedding_dim=3,
        is_ci=False,
        star=StarReport(frobenius=2, d_max=8, verdict=StarVerdict.FAILED, margin=-4),
        exception=ExceptionClass.SATISFIES,
    )
    summary = summarize(list(records) + [forged], 2)
    assert summary.counterexamples == ((3, 4, 5),)


@pytest.mark.parametrize("genus", [-1, 3])
def test_summarize_rejects_genus_outside_the_bound(genus):
    record = dataclasses.replace(enumerate_records(2)[-1], genus=genus)
    with pytest.raises(ValueError, match=rf"record \[3, 4, 5\] has genus {genus}, outside 0..2"):
        summarize([record], 2)
