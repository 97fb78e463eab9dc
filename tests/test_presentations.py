"""Factorizations, R-classes, Betti elements, minimal presentations."""

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nsg import (
    Factorization,
    NegativeElementError,
    betti_elements,
    ci_tree,
    enumerate_semigroups,
    factorizations,
    glue,
    make_semigroup,
    minimal_presentation,
    r_classes,
    relation_degrees,
)

from oracles import naive_factorizations, naive_r_classes, rewrite_connected

CURATED = [
    (2, 3),
    (3, 5),
    (4, 6, 9),
    (3, 5, 7),
    (5, 8, 12),
    (4, 5, 6),
    (8, 10, 12, 15),
]


def coords_of(fact_set):
    return sorted(f.coords for f in fact_set)


def class_coords(classes):
    return sorted(
        (frozenset(f.coords for f in block) for block in classes),
        key=lambda b: min(b),
    )


@pytest.mark.parametrize("gens", CURATED)
def test_factorizations_match_exhaustive_search(gens):
    s = make_semigroup(list(gens))
    for n in range(0, 75):
        assert coords_of(factorizations(s, n)) == naive_factorizations(s.generators, n)


def test_factorization_edge_cases():
    s = make_semigroup([4, 6, 9])
    assert coords_of(factorizations(s, 0)) == [(0, 0, 0)]
    assert factorizations(s, 11) == frozenset()
    with pytest.raises(NegativeElementError):
        factorizations(s, -1)
    assert str(Factorization((3, 1, 0), 18)) == "(3, 1, 0)"


@pytest.mark.parametrize("gens", CURATED)
def test_r_classes_match_block_merging(gens):
    s = make_semigroup(list(gens))
    for n in range(0, 70):
        facts = naive_factorizations(s.generators, n)
        expected = [set(b) for b in naive_r_classes(facts)]
        got = [
            {f.coords for f in block} for block in r_classes(s, n)
        ]
        assert sorted(got, key=min) == sorted(expected, key=min)


def test_r_classes_of_flagship_betti_element():
    s = make_semigroup([4, 6, 9])
    classes = class_coords(r_classes(s, 18))
    assert classes == [
        frozenset({(0, 0, 2)}),
        frozenset({(0, 3, 0), (3, 1, 0)}),
    ]


def test_betti_elements_goldens():
    assert betti_elements(make_semigroup([4, 6, 9])) == [12, 18]
    assert betti_elements(make_semigroup([3, 5, 7])) == [10, 12, 14]
    assert betti_elements(make_semigroup([2, 3])) == [6]
    assert betti_elements(make_semigroup([1])) == []
    assert betti_elements(make_semigroup([8, 10, 12, 15])) == [20, 24, 30]


def test_two_generated_single_betti_element():
    for a, b in [(2, 5), (3, 4), (5, 7), (4, 9)]:
        s = make_semigroup([a, b])
        assert betti_elements(s) == [a * b]
        pres = minimal_presentation(s)
        assert len(pres.relations) == 1
        rel = pres.relations[0]
        assert rel.degree == a * b
        assert sorted([rel.left.coords, rel.right.coords]) == [(0, a), (b, 0)]


def test_presentation_golden_two_three():
    pres = minimal_presentation(make_semigroup([2, 3]))
    assert pres.degrees == (6,)
    rel = pres.relations[0]
    assert rel.left.coords == (3, 0)
    assert rel.right.coords == (0, 2)
    assert rel.degree == 6


def test_presentation_degrees_goldens():
    assert relation_degrees(make_semigroup([4, 6, 9])) == (12, 18)
    assert relation_degrees(make_semigroup([8, 10, 12, 15])) == (20, 24, 30)
    assert relation_degrees(make_semigroup([3, 5, 7])) == (10, 12, 14)
    assert relation_degrees(make_semigroup([1])) == ()


def test_presentation_size_counts_extra_classes():
    # one relation fewer than the number of R-classes, per Betti element
    for gens in CURATED:
        s = make_semigroup(list(gens))
        pres = minimal_presentation(s)
        expected = sum(len(r_classes(s, b)) - 1 for b in betti_elements(s))
        assert len(pres.relations) == expected
        assert pres.degrees == tuple(sorted(r.degree for r in pres.relations))


def test_ci_routes_and_betti_scan_bound_through_genus_15():
    # the library decides CI by the gluing tree alone, and the full Betti
    # scan of betti_by_full_scan stops at F + a_{e-1} + a_e; here the
    # relation count must agree with the tree, and the next a_e elements
    # past the bound must be single-class
    mismatches = []
    beyond_bound = []
    semigroups = 0
    window_fibers = 0
    for s in enumerate_semigroups(15):
        semigroups += 1
        by_count = len(minimal_presentation(s).relations) == s.embedding_dim - 1
        if by_count != (ci_tree(s) is not None):
            mismatches.append(s.generators)
        if s.embedding_dim < 2:
            continue
        bound = s.frobenius + s.generators[-2] + s.generators[-1]
        for n in range(bound + 1, bound + s.generators[-1] + 1):
            if n in s:
                window_fibers += 1
                if len(r_classes(s, n)) != 1:
                    beyond_bound.append((s.generators, n))
    assert semigroups == 6964
    assert window_fibers == 158081
    assert mismatches == []
    assert beyond_bound == []


def betti_by_full_scan(s):
    # the slow route: every element up to F + a_{e-1} + a_e, fiber by fiber
    if s.embedding_dim < 2:
        return []
    bound = s.frobenius + s.generators[-2] + s.generators[-1]
    return [n for n in range(bound + 1) if n in s and len(r_classes(s, n)) >= 2]


def test_betti_candidates_match_full_scan_through_genus_12():
    for s in enumerate_semigroups(12):
        assert betti_elements(s) == betti_by_full_scan(s), s


def test_betti_candidates_match_full_scan_on_two_generators():
    for a in range(2, 61):
        for b in range(a + 1, 61):
            if gcd(a, b) == 1:
                s = make_semigroup([a, b])
                assert betti_elements(s) == betti_by_full_scan(s), s


def seeded_gluings():
    # 100 gluings of genus <= 4 donors, 4 to 7 generators, fixed by the seed
    def non_generators(s, count):
        out, n = [], 2
        while len(out) < count:
            if n in s and n not in s.generators:
                out.append(n)
            n += 1
        return out

    donors = list(enumerate_semigroups(4))
    candidates = [
        (left, right, lam, mu)
        for left in donors
        for right in donors
        if 4 <= left.embedding_dim + right.embedding_dim <= 7
        for lam in non_generators(left, 3)
        for mu in non_generators(right, 3)
        if gcd(lam, mu) == 1
    ]
    return [
        glue(left, right, lam, mu)
        for left, right, lam, mu in random.Random(7).sample(candidates, 100)
    ]


def test_betti_candidates_match_full_scan_on_gluings():
    sizes = set()
    for s in seeded_gluings():
        sizes.add(s.embedding_dim)
        assert betti_elements(s) == betti_by_full_scan(s), s
    assert sizes == {4, 5, 6, 7}


def classes_agree_with_oracle(s, n):
    # r_classes against shared-support merging over the same fiber
    got = [frozenset(f.coords for f in block) for block in r_classes(s, n)]
    return got == naive_r_classes(coords_of(factorizations(s, n)))


def test_r_classes_match_oracle_through_genus_12():
    # every fiber with two or more factorizations up to F + a_{e-1} + a_e,
    # the window that holds every Betti element
    fibers = 0
    for s in enumerate_semigroups(12):
        if s.embedding_dim < 2:
            continue
        bound = s.frobenius + s.generators[-2] + s.generators[-1]
        for n in range(bound + 1):
            if len(factorizations(s, n)) >= 2:
                fibers += 1
                assert classes_agree_with_oracle(s, n), (s, n)
    assert fibers == 37526


def test_r_classes_match_oracle_on_gluing_betti_candidates():
    fibers = 0
    for s in seeded_gluings():
        rest = s.generators[1:]
        for n in sorted({w + a for w in s.apery.entries for a in rest}):
            if len(factorizations(s, n)) >= 2:
                fibers += 1
                assert classes_agree_with_oracle(s, n), (s, n)
    assert fibers == 3645


def test_presentation_is_deterministic():
    a = minimal_presentation(make_semigroup([8, 10, 12, 15]))
    b = minimal_presentation(make_semigroup([15, 12, 10, 8]))
    assert a == b
    assert a.relations == b.relations


@pytest.mark.parametrize("gens", CURATED)
def test_relations_connect_every_fiber(gens):
    # the defining property of a presentation: its rewriting moves join all
    # factorizations of every element, well past the largest Betti element
    s = make_semigroup(list(gens))
    pres = minimal_presentation(s)
    moves = [(r.left.coords, r.right.coords) for r in pres.relations]
    top = s.frobenius + 2 * s.generators[-1] + 5
    for n in range(2, top + 1):
        facts = naive_factorizations(s.generators, n)
        if len(facts) > 1:
            assert rewrite_connected(facts, moves), f"fiber of {n} disconnected"


def test_dropping_any_relation_disconnects_some_fiber():
    # minimality: each relation is load-bearing at its own degree
    s = make_semigroup([4, 6, 9])
    pres = minimal_presentation(s)
    moves = [(r.left.coords, r.right.coords) for r in pres.relations]
    for k, rel in enumerate(pres.relations):
        reduced = moves[:k] + moves[k + 1:]
        facts = naive_factorizations(s.generators, rel.degree)
        assert not rewrite_connected(facts, reduced)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(2, 30), min_size=2, max_size=4),
    st.integers(0, 55),
)
def test_r_classes_partition_the_fiber(gens, n):
    from math import gcd

    g = 0
    for a in gens:
        g = gcd(g, a)
    if g != 1:
        gens = gens + [g + 1]
    s = make_semigroup(gens)
    classes = r_classes(s, n)
    merged = sorted(f.coords for block in classes for f in block)
    assert merged == naive_factorizations(s.generators, n)
    got = [frozenset(f.coords for f in block) for block in classes]
    assert got == naive_r_classes(merged)
