"""Construction, membership, Apery data, and the derived invariants."""

import ast
import copy
import dataclasses
import importlib
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nsg
import nsg.cli
from nsg import (
    EmptyInputError,
    NotAnElementError,
    NotCoprimeError,
    apery_set,
    check_star_gluing,
    contains,
    enumerate_semigroups,
    extra_degree,
    frobenius,
    gap_text,
    gaps,
    glue,
    make_semigroup,
    parse_generators,
)
import nsg.core as core
from nsg.core import _run_count
from nsg.gluing import _glued

from oracles import naive_apery, naive_frobenius, naive_gaps, naive_genus, naive_member


def coprime_lists():
    # force gcd 1 by appending a value coprime to the rest when needed
    def fix(gs):
        from math import gcd
        g = 0
        for a in gs:
            g = gcd(g, a)
        if g == 1:
            return gs
        return gs + [g + 1]

    return st.lists(st.integers(2, 60), min_size=1, max_size=6).map(fix)


def test_flagship_example():
    s = make_semigroup([4, 6, 9])
    assert s.generators == (4, 6, 9)
    assert s.multiplicity == 4
    assert s.embedding_dim == 3
    assert s.frobenius == 11
    assert s.genus == 6
    assert gaps(s) == [1, 2, 3, 5, 7, 11]
    assert s.apery.as_dict() == {0: 0, 1: 9, 2: 6, 3: 15}
    assert str(s) == "<4,6,9>"


def test_redundant_generators_are_dropped():
    s = make_semigroup([6, 4, 9, 10])
    assert s.generators == (4, 6, 9)
    assert s == make_semigroup([4, 6, 9])
    # a redundant huge entry costs nothing: nothing is sized by it
    assert make_semigroup([2, 3, 10**9]).generators == (2, 3)


def test_natural_numbers_conventions():
    n = make_semigroup([1])
    assert n.generators == (1,)
    assert n.frobenius == -1
    assert n.genus == 0
    assert gaps(n) == []
    assert contains(n, 0) and contains(n, 1)


def test_two_generated_frobenius_formula():
    # F(<a, b>) = a*b - a - b for coprime a, b
    for a, b in [(2, 3), (3, 5), (4, 9), (5, 7), (7, 12)]:
        s = make_semigroup([a, b])
        assert s.frobenius == a * b - a - b
        assert s.genus == (a - 1) * (b - 1) // 2


def test_rejects_empty_input():
    with pytest.raises(EmptyInputError):
        make_semigroup([])


def test_rejects_non_coprime_generators():
    with pytest.raises(NotCoprimeError):
        make_semigroup([4, 6])
    with pytest.raises(NotCoprimeError):
        make_semigroup([10])


def test_rejects_nonpositive_generators():
    with pytest.raises(ValueError):
        make_semigroup([0, 3])
    with pytest.raises(ValueError):
        make_semigroup([-2, 3])


def test_generators_that_are_not_ints_are_refused_before_the_cache(capsys):
    # True == 1 and hash(True) == hash(1), so a bool let through once cached
    # <True> under the key of (1, 3), and every later [1, 3] got it back
    core._build.cache_clear()
    for bad, raw in [(True, [True, 3]), (True, [2, True, 5]), (2.0, [2.0, 3])]:
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            make_semigroup(raw)
    s = make_semigroup([1, 3])
    assert s.generators == (1,)
    assert all(type(a) is int for a in s.generators)
    assert nsg.cli.run(["star", "1,3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["generators"] == [1]


def test_equal_generator_sets_share_one_object():
    assert make_semigroup([9, 6, 4, 6]) is make_semigroup([4, 6, 9])
    # the input set is the key; the redundant entry is still dropped
    assert make_semigroup([2, 3, 10**9]) == make_semigroup([2, 3])
    assert make_semigroup([2, 3, 10**9]).generators == (2, 3)


def test_invalid_input_raises_on_every_call():
    # validation runs before the shared build, so no repeat is let through
    for _ in range(3):
        with pytest.raises(EmptyInputError):
            make_semigroup([])
        with pytest.raises(NotCoprimeError):
            make_semigroup([4, 6])
        with pytest.raises(ValueError):
            make_semigroup([0, 3])


def test_glue_then_check_star_gluing_builds_the_glued_semigroup_once(monkeypatch):
    left, right = make_semigroup([2, 3]), make_semigroup([2, 5])
    built = []
    real_build = core._build
    monkeypatch.setattr(core, "_build", lambda gens: built.append(gens) or real_build(gens))
    _glued.cache_clear()
    glued = glue(left, right, 4, 7)
    assert extra_degree(glued, left, right, 4, 7) == 28
    report = check_star_gluing(left, right, 4, 7)
    assert report.glued is glued
    # one build by the gluing Apery lemma, shared by all three calls, and
    # none through make_semigroup
    assert (_glued.cache_info().misses, _glued.cache_info().hits) == (1, 2)
    assert glued.generators == (8, 14, 20, 21)
    assert glued.generators not in built


def test_membership_basics():
    s = make_semigroup([4, 6, 9])
    assert 0 in s
    assert 4 in s and 13 in s
    assert 11 not in s
    assert -3 not in s
    assert all(n in s for n in range(12, 60))


def test_apery_set_with_other_element():
    s = make_semigroup([4, 6, 9])
    table = apery_set(s, 6)
    assert table.modulus == 6
    # smallest element in each class mod 6
    assert table.as_dict() == {0: 0, 1: 13, 2: 8, 3: 9, 4: 4, 5: 17}
    assert apery_set(s, 4) is s.apery


def test_a_multiplicity_past_sys_maxsize_is_refused_before_any_table():
    # no list holds m entries, so the check comes before the table's allocation
    big = 10**20
    message = (
        f"cannot build an Apery table mod {big}: m = {big} exceeds sys.maxsize = {sys.maxsize}"
    )
    for build in (
        lambda: make_semigroup([big, big + 1]),
        lambda: apery_set(make_semigroup([2, 3]), big),
    ):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message


def test_apery_set_rejects_non_elements():
    s = make_semigroup([4, 6, 9])
    with pytest.raises(NotAnElementError):
        apery_set(s, 5)
    with pytest.raises(NotAnElementError):
        apery_set(s, 0)


def test_parse_generators():
    assert parse_generators("4, 6,9") == [4, 6, 9]
    assert parse_generators("7") == [7]
    with pytest.raises(ValueError, match="'x'"):
        parse_generators("4,x")
    with pytest.raises(ValueError):
        parse_generators("")
    with pytest.raises(ValueError):
        parse_generators("4,,6")
    with pytest.raises(ValueError):
        parse_generators("0,3")


@settings(max_examples=150, deadline=None)
@given(coprime_lists())
def test_invariants_match_naive_reachability(gens):
    s = make_semigroup(gens)
    assert s.frobenius == naive_frobenius(gens)
    assert s.genus == naive_genus(gens)
    assert gaps(s) == naive_gaps(gens)
    assert gap_text(s, ", ") == ", ".join(map(str, naive_gaps(gens)))


@settings(max_examples=100, deadline=None)
@given(coprime_lists(), st.integers(-5, 400))
def test_membership_matches_naive(gens, n):
    s = make_semigroup(gens)
    assert contains(s, n) == naive_member(gens, n)


@settings(max_examples=100, deadline=None)
@given(coprime_lists())
def test_construction_is_idempotent(gens):
    s = make_semigroup(gens)
    again = make_semigroup(list(s.generators))
    assert again == s


@settings(max_examples=100, deadline=None)
@given(coprime_lists())
def test_generators_are_minimal(gens):
    # no stored generator is a sum of two nonzero elements
    s = make_semigroup(gens)
    for a in s.generators:
        assert not any(
            contains(s, x) and contains(s, a - x) for x in range(1, a)
        )


@settings(max_examples=100, deadline=None)
@given(coprime_lists())
def test_selmer_identity(gens):
    # sum of Apery entries relates to genus: genus = sum/m - (m-1)/2
    s = make_semigroup(gens)
    m = s.multiplicity
    assert 2 * sum(s.apery.entries) == m * (2 * s.genus + m - 1)


@settings(max_examples=100, deadline=None)
@given(coprime_lists())
def test_frobenius_from_any_apery_table(gens):
    s = make_semigroup(gens)
    for m in s.generators[:2]:
        if m == 1:
            continue
        table = apery_set(s, m)
        assert max(table.entries) - m == s.frobenius


@settings(max_examples=100, deadline=None)
@given(coprime_lists())
def test_apery_tables_match_reachability(gens):
    # elements sharing a factor with a generator, or equal to one, give
    # moduli with several residue cycles and generators that add nothing
    s = make_semigroup(gens)
    a = s.generators
    elements = {*a, 2 * a[0], a[0] + a[-1], 2 * a[-1], s.frobenius + 1}
    for n in sorted(elements):
        if n < 1 or n > 200:
            continue
        assert list(apery_set(s, n).entries) == naive_apery(gens, n)


def test_apery_tables_match_reachability_for_every_small_element():
    # every element up to a_e + m of every semigroup of genus <= 10: the
    # modulus is a generator, a multiple of one, or any other element
    pairs = 0
    for s in enumerate_semigroups(10):
        top = s.generators[-1] + s.multiplicity
        for n in range(1, top + 1):
            if n in s:
                pairs += 1
                assert list(apery_set(s, n).entries) == naive_apery(s.generators, n), (s, n)
    assert pairs == 6049


def _check_gaps_against_reachability(gens):
    s = make_semigroup(gens)
    expected = naive_gaps(gens)
    assert gaps(s) == expected, gens
    for sep in (", ", ","):
        assert gap_text(s, sep) == sep.join(map(str, expected)), (gens, sep)
    return expected


def _naive_run_count(gap_list):
    # a maximal run ends at each gap whose successor is not the next gap
    return sum(1 for a, b in zip(gap_list, gap_list[1:] + [None]) if b != a + 1)


@pytest.fixture
def gap_routes(monkeypatch):
    """The set of routes ("runs", "compress") that wrote a chunk since the last clear."""
    # gap_chunks returns the generator of the route it chose, named after it
    used, real = set(), core.gap_chunks
    routes = {"_template_chunks": "runs", "_compress_chunks": "compress"}

    def spy(*args):
        chunks = real(*args)
        route = routes[chunks.__name__]
        for chunk in chunks:
            used.add(route)
            yield chunk

    monkeypatch.setattr(core, "gap_chunks", spy)
    return used


def test_gaps_and_gap_text_match_reachability_through_genus_12(monkeypatch, gap_routes):
    # the generators come from the census walk; the expected gaps and runs
    # only from the oracle, and the count is A007323 summed over genus 0..12.
    # Every F is at most 23, so this is piece 0 only, where the piece and the
    # last run end at F and both routes write by compress; gap_text is
    # checked on its own route, then on each route forced in turn
    expected = {
        s: _check_gaps_against_reachability(s.generators) for s in enumerate_semigroups(12)
    }
    assert len(expected) == 1413
    for s, gap_list in expected.items():
        assert _run_count(s) == _naive_run_count(gap_list), s
    for min_average, route in ((0, "runs"), (10**9, "compress")):
        monkeypatch.setattr(core, "RUN_ROUTE_MIN_AVERAGE", min_average)
        gap_routes.clear()
        for s, gap_list in expected.items():
            for sep in (", ", ","):
                assert gap_text(s, sep) == sep.join(map(str, gap_list)), (s, sep, route)
        assert gap_routes == {route}


@pytest.mark.parametrize(
    "gens, frobenius_number, last_gaps",
    [
        ((1,), -1, []),
        ((2, 3), 1, [1]),
        ((2, 1001), 999, [997, 999]),  # every gap in the first thousand
        ((3, 503, 1003), 1000, [997, 1000]),  # F the first place of thousand 1
        ((2, 1003), 1001, [999, 1001]),
        ((37, 1000, 1999), 35963, [35926, 35963]),
        # thousands 21, 32, 34, ..., 40, 42 and 43 hold no gap, and later ones do
        (tuple(range(2100, 2201)), 44099, [44098, 44099]),
        ((3, 500003, 1000003), 10**6, [999997, 10**6]),  # 1000q + 0, q = 1000
        # the same edges for pieces of ten thousand
        ((2, 10001), 9999, [9997, 9999]),  # every gap in piece 0
        ((3, 5003, 10003), 10**4, [9997, 10**4]),  # F the first place of piece 1
        ((2, 10003), 10001, [9999, 10001]),
        ((150, 151), 22349, [22199, 22349]),  # the run 9967 .. 10049
        ((329, 330), 107911, [107582, 107911]),  # the run 99991 .. 100015, head 9 to 10
    ],
)
def test_gap_text_across_chunk_boundaries(
    monkeypatch, gap_routes, gens, frobenius_number, last_gaps
):
    # the compress route cuts pieces of a thousand numbers and the template
    # route pieces of ten thousand; every case runs on each route in turn
    expected = naive_gaps(gens)
    s = make_semigroup(gens)
    assert (s.frobenius, expected[-2:]) == (frobenius_number, last_gaps)
    assert gaps(s) == expected
    for min_average, route in ((0, "runs"), (10**9, "compress")):
        monkeypatch.setattr(core, "RUN_ROUTE_MIN_AVERAGE", min_average)
        gap_routes.clear()
        for sep in (", ", ","):
            assert gap_text(s, sep) == sep.join(map(str, expected)), (gens, sep, route)
        assert gap_routes == ({route} if expected else set())


def test_boundary_runs_cross_the_piece_edges():
    # the two runs that test_gap_text_across_chunk_boundaries names, from
    # the oracle: each holds both sides of a multiple of ten thousand
    for gens, edge in (((150, 151), 10**4), ((329, 330), 10**5)):
        gap_set = set(naive_gaps(gens))
        assert set(range(edge - 9, edge + 2)) <= gap_set, gens


MULTI_CHUNK_INPUTS = (
    (2, 2001),
    (3, 2000),
    (37, 1000, 1999),
    (101, 1000, 5000),
    (100, 101),
    (500, 999),
    (1000, 1001, 1003, 1007, 1011, 1013),
)


def test_gap_text_on_multi_chunk_inputs_takes_both_routes(gap_routes):
    # expected gaps and runs only from the oracle; the route is the one
    # RUN_ROUTE_MIN_AVERAGE picks, and the inputs must reach both
    taken = {}
    for gens in MULTI_CHUNK_INPUTS:
        s = make_semigroup(gens)
        gap_list = naive_gaps(gens)
        assert _run_count(s) == _naive_run_count(gap_list), gens
        gap_routes.clear()
        for sep in (", ", ","):
            assert gap_text(s, sep) == sep.join(map(str, gap_list)), (gens, sep)
        (taken[gens],) = gap_routes
    assert set(taken.values()) == {"runs", "compress"}
    # the run route also writes a partial last piece, whose last run ends at F
    assert any(
        route == "runs" and (make_semigroup(gens).frobenius + 1) % 10**4
        for gens, route in taken.items()
    )


# "é" and "→" are two- and three-byte UTF-8; "\udc80" is a lone surrogate,
# and "\ud800\udc00" two of them, which UTF-8 with surrogatepass keeps
# apart rather than pairing into one code point
ODD_SEPARATORS = ("é", " → ", "\udc80", "\ud800\udc00")


def test_gap_text_with_non_ascii_and_surrogate_separators_on_both_routes(
    monkeypatch, gap_routes
):
    # the template route encodes sep into its rows and decodes each piece,
    # so every str gap_text accepts as sep must come back unchanged
    for gens in ((2, 2001), (37, 1000, 1999), (100, 101)):
        s = make_semigroup(gens)
        gap_list = naive_gaps(gens)
        for min_average, route in ((0, "runs"), (10**9, "compress")):
            monkeypatch.setattr(core, "RUN_ROUTE_MIN_AVERAGE", min_average)
            gap_routes.clear()
            for sep in ODD_SEPARATORS:
                assert gap_text(s, sep) == sep.join(map(str, gap_list)), (gens, sep, route)
            assert gap_routes == {route}


def test_template_route_across_head_length_changes(gap_routes):
    # <1032, 1033> (F = 1,063,991, average run 516) takes the template route
    # on its own, and its runs hold 9999 and 10000, 99999 and 100000, and
    # 999999 and 1000000, where the head str(q) grows from 1 to 2, 2 to 3
    # and 3 to 4 digits and a fresh template is copied in mid-run; other
    # runs cross chunk edges where the head keeps its length
    gens = (1032, 1033)
    gap_list = naive_gaps(gens)
    gap_set = set(gap_list)
    for n in (10**4, 10**5, 10**6):
        assert {n - 1, n} <= gap_set
    assert any(1000 * q - 1 in gap_set and 1000 * q in gap_set for q in range(11, 99))
    s = make_semigroup(gens)
    for sep in (", ", ","):
        assert gap_text(s, sep) == sep.join(map(str, gap_list)), sep
    assert gap_routes == {"runs"}


def test_row_blocks_hold_the_rows_of_each_head(monkeypatch, gap_routes):
    # a fresh block holds the rows "0" * L + f"{t:04d}" + sep; the one that
    # writes piece q, its only piece with a gap, all gaps, holds them with
    # head str(q), and that piece is those rows without the last sep
    blocks = []

    def spy(*args, real=core._row_block):
        blocks.append(real(*args))
        return blocks[-1]

    monkeypatch.setattr(core, "_row_block", spy)
    for sep in (", ", ",", *ODD_SEPARATORS):
        code = sep.encode("utf-8", "surrogatepass")

        def rows(head):
            return b"".join(
                (head + f"{t:04d}" + sep).encode("utf-8", "surrogatepass") for t in range(10**4)
            )

        for length in range(1, 5):
            assert core._row_block(length, code) == rows("0" * length), (length, sep)
        for head in ("7", "42", "999", "1000"):
            start = int(head) * 10**4
            mask = bytearray(start + 10**4)
            mask[start:] = b"\x01" * 10**4
            blocks.clear()
            assert list(core._template_chunks(mask, code)) == [rows(head)[: -len(code)]]
            assert blocks == [rows(head)], (head, sep)
    # <100, 101> (F = 9899) takes the template route and builds no block
    s = make_semigroup((100, 101))
    blocks.clear()
    gap_routes.clear()
    for sep in (", ", ",", *ODD_SEPARATORS):
        assert gap_text(s, sep) == sep.join(map(str, naive_gaps((100, 101)))), sep
    assert gap_routes == {"runs"} and blocks == []


@settings(max_examples=100, deadline=None)
@given(coprime_lists())
def test_minimal_generators_match_reachability(gens):
    # exactly the inputs that are no sum of two nonzero members survive
    s = make_semigroup(gens)
    expected = [
        a
        for a in sorted(set(gens))
        if not any(
            naive_member(gens, x) and naive_member(gens, a - x) for x in range(1, a)
        )
    ]
    assert list(s.generators) == expected


def test_frobenius_accessor():
    s = make_semigroup([5, 8, 12])
    assert frobenius(s) == s.frobenius == 19


def test_package_has_no_assert_statements():
    # python -O strips assert, so runtime checks must raise instead
    found = []
    for path in sorted(Path(nsg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_consistency_error_is_raised_only_by_extra_degree():
    # a glued that is not the gluing of extra_degree's other arguments is bad
    # input no proof can rule out; every other disagreement is ruled out by a
    # proof in a docstring, so nothing else may raise ConsistencyError
    raised, spans = [], {}
    for path in sorted(Path(nsg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                spans[path.name, node.name] = node.lineno, node.end_lineno
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                if name == "ConsistencyError":
                    raised.append((path.name, node.lineno))
    # the module-level function, not the CITree property of the same name
    start, end = spans["gluing.py", "extra_degree"]
    ((module, line),) = raised
    assert module == "gluing.py" and start <= line <= end


def test_public_names_are_the_modules_own_lists():
    modules = [
        importlib.import_module(f"nsg.{name}")
        for name in ("census", "core", "errors", "gluing", "presentations", "star")
    ]
    assert len(nsg.__all__) == 68 and nsg.__all__ == sorted(set(nsg.__all__))
    assert sorted(name for module in modules for name in module.__all__) == nsg.__all__
    for module in modules:
        for name in module.__all__:
            assert getattr(nsg, name) is vars(module)[name]
    # the package writes no name of its own: each is a string in one module's __all__
    tree = ast.parse(Path(nsg.__file__).read_text(encoding="utf-8"))
    strings = {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert strings.isdisjoint(nsg.__all__)
    namespace = {}
    exec("from nsg.core import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(core.__all__)
    assert {"gcd", "compress", "gap_chunks"}.isdisjoint(namespace)


def value_samples():
    """One instance of each value class, from the library's own calls."""
    s = make_semigroup([4, 6, 9])
    samples = [
        s,
        s.apery,
        nsg.record_for(s),
        nsg.verify_star(5),
        nsg.star_report(s),
        check_star_gluing(make_semigroup([2, 3]), make_semigroup([2, 5]), 4, 7),
        nsg.small_exceptions(3, 4),
        nsg.hypotheses_report(s),
        nsg.ci_tree(s),
        nsg.ci_tree(s).split,
        nsg.minimal_presentation(s),
    ]
    return {type(sample): sample for sample in samples}


def test_value_classes_behave_as_plain_frozen_dataclasses():
    samples = value_samples()
    value_classes = {
        obj
        for name in nsg.__all__
        if dataclasses.is_dataclass(obj := getattr(nsg, name))
    }
    assert set(samples) == value_classes and len(samples) == 11
    for cls, sample in samples.items():
        names = [f.name for f in dataclasses.fields(cls)]
        # the same fields, and NumericalSemigroup's own hash, in a class with
        # the generated frozen __init__
        twin = dataclasses.make_dataclass(
            cls.__name__,
            [(f.name, f.type) for f in dataclasses.fields(cls)],
            namespace={"__hash__": cls.__hash__} if cls is nsg.NumericalSemigroup else {},
            frozen=True,
        )
        assert [f.name for f in dataclasses.fields(twin)] == names
        assert inspect.signature(cls) == inspect.signature(twin)
        assert inspect.signature(cls.__init__) == inspect.signature(twin.__init__)
        assert cls.__match_args__ == twin.__match_args__
        values = [getattr(sample, name) for name in names]
        keywords = dict(zip(names, copy.deepcopy(values)))
        built = [cls(*values), cls(**keywords)]
        twins = [twin(*values), twin(**keywords)]
        for obj, other in (built, twins):
            assert obj == other and hash(obj) == hash(other)
        assert built[0] == sample and repr(built[0]) == repr(sample) == repr(twins[0])
        assert hash(built[0]) == hash(twins[0])
        assert dataclasses.asdict(built[0]) == dataclasses.asdict(twins[0])
        # a changed field, by keyword; the value need not fit, the class does not check
        for name in (names[0], names[-1]):
            changed = dataclasses.replace(built[0], **{name: "changed"})
            assert repr(changed) == repr(dataclasses.replace(twins[0], **{name: "changed"}))
            assert changed != built[0] and getattr(changed, name) == "changed"
        for obj in (built[0], twins[0]):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, names[0], values[0])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, names[-1])
        for copied in (pickle.loads(pickle.dumps(built[0])), copy.deepcopy(built[0])):
            assert type(copied) is cls and copied == built[0] and repr(copied) == repr(built[0])
        assert not hasattr(built[0], "__dict__")
    semigroup = samples[nsg.NumericalSemigroup]
    assert weakref.ref(semigroup)() is semigroup
    assert dataclasses.asdict(samples[nsg.VerificationSummary])["per_genus"] == (1, 1, 2, 4, 7, 12)


def test_value_classes_have_docstrings_and_importing_nsg_computes_no_signature():
    # dataclass gives a class without a docstring one built by
    # inspect.signature; with no __init__ of its own to read (init=False) it
    # falls back to object's, which costs a tokenize and yields "Name()"
    src = str(Path(nsg.__file__).resolve().parent.parent)
    code = (
        "import inspect\n"
        "def refuse(*args, **kwargs):\n"
        "    raise RuntimeError('inspect.signature called')\n"
        "inspect.signature = refuse\n"
        "import nsg, nsg.cli\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    for cls in value_samples():
        assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "("), cls


def test_nsg_runs_every_subcommand_without_dataclasses_and_keeps_their_api(tmp_path):
    # value classes import dataclasses only when something reads
    # __dataclass_fields__; nsg itself never does, so its start-up skips
    # dataclasses and the inspect, ast, dis and tokenize it pulls in
    src = str(Path(nsg.__file__).resolve().parent.parent)
    commands = [
        ["verify", "--max-genus", "6"],
        ["verify", "--max-genus", "6", "--out", str(tmp_path / "records.ndjson")],
        ["enumerate", "--max-genus", "5"],
        ["info", "4,6,9"],
        ["presentation", "4,6,9"],
        ["ci-tree", "4,6,9"],
        ["star", "4,6,9"],
        ["classify", "3,5"],
        ["hypotheses", "3,5,7"],
        ["glue", "3,5", "4,6,9", "--lambda", "9", "--mu", "10"],
        ["inductive", "4,6,9", "3,5", "--lambda", "10", "--mu", "9"],
        ["star", "4,6"],  # an error: gcd 2
    ]
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "before = set(sys.modules)\n"
        "import nsg, nsg.cli\n"
        f"for argv in {commands!r}:\n"
        "    for fmt in ('json', 'text'):\n"
        "        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
        "            nsg.cli.run([*argv, '--format', fmt])\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))\n"
        "import dataclasses\n"
        "s = nsg.make_semigroup([4, 6, 9])\n"
        "for obj in (nsg.record_for(s), nsg.ci_tree(s)):\n"
        "    assert dataclasses.is_dataclass(obj) and dataclasses.is_dataclass(type(obj))\n"
        "    names = [f.name for f in dataclasses.fields(obj)]\n"
        "    assert tuple(names) == type(obj).__match_args__\n"
        "    doc = dataclasses.asdict(obj)\n"
        "    assert list(doc) == names and doc[names[-1]] == getattr(obj, names[-1])\n"
        "    changed = dataclasses.replace(obj, **{names[0]: 'changed'})\n"
        "    assert changed.__class__ is obj.__class__ and changed != obj\n"
        "    assert dataclasses.replace(changed, **{names[0]: getattr(obj, names[0])}) == obj\n"
        "print(sorted(doc))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    fields = sorted(f.name for f in dataclasses.fields(nsg.CITree))
    assert proc.stdout.splitlines() == ["[]", str(fields)]


def _check_value_class_declaration(node):
    """_value_class's __init__ takes every annotation as a required parameter,
    so a default, a ClassVar, InitVar or KW_ONLY annotation or a
    __post_init__ would lose what a dataclass does with it."""
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign):
            assert stmt.value is None, (node.name, stmt.target.id)
            # the head, as written or quoted: the name before any "[" and
            # after the last "."
            text = ast.unparse(stmt.annotation).strip("'\"")
            head = text.split("[", 1)[0].rsplit(".", 1)[-1].strip()
            assert head not in ("ClassVar", "InitVar", "KW_ONLY"), (node.name, stmt.target.id)
        elif isinstance(stmt, ast.FunctionDef):
            assert stmt.name != "__post_init__", node.name


def test_every_dataclass_is_declared_by_value_class():
    # a class with the generated frozen __init__ pays object.__setattr__ per
    # field on every build; none keeps it
    declared = {"dataclass": [], "_value_class": []}
    for path in sorted(Path(nsg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
                    if name in declared:
                        declared[name].append(node.name)
                    if name == "_value_class":
                        _check_value_class_declaration(node)
    assert declared["dataclass"] == []
    assert sorted(declared["_value_class"]) == sorted(cls.__name__ for cls in value_samples())
