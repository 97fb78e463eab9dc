"""Factorizations, R-classes, Betti elements, minimal presentations."""

import hashlib
import random
from functools import cache
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from nsg import (
    CITree,
    Factorization,
    NegativeElementError,
    betti_elements,
    ci_tree,
    enumerate_semigroups,
    factorizations,
    find_gluings,
    glue,
    make_semigroup,
    minimal_presentation,
    r_classes,
    relation_degrees,
)
from nsg import presentations
from nsg.presentations import _betti_bits, _betti_candidates, _components, _dense_window

from oracles import (
    fiber_table,
    naive_factorizations,
    naive_member,
    naive_r_classes,
    rewrite_connected,
)

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
    # the library's fibers and the oracle's bulk table, against exhaustive search
    s = make_semigroup(list(gens))
    table = fiber_table(s.generators, 74)
    for n in range(0, 75):
        expected = naive_factorizations(s.generators, n)
        assert coords_of(factorizations(s, n)) == expected
        assert sorted(table[n]) == expected


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
    # relation count must agree with the tree, the relations must come in
    # (degree, left) order without a sort, and the next a_e elements past
    # the bound must be single-class.  Classes are counted as components
    # of G_n, which other tests check against naive_r_classes.
    mismatches = []
    unordered = []
    beyond_bound = []
    semigroups = 0
    window_fibers = 0
    for s in enumerate_semigroups(15):
        semigroups += 1
        relations = minimal_presentation(s).relations
        if (len(relations) == s.embedding_dim - 1) != (ci_tree(s) is not None):
            mismatches.append(s.generators)
        if list(relations) != sorted(relations, key=lambda r: (r.degree, r.left.coords)):
            unordered.append(s.generators)
        if s.embedding_dim < 2:
            continue
        bound = s.frobenius + s.generators[-2] + s.generators[-1]
        for n in range(bound + 1, bound + s.generators[-1] + 1):
            if n in s:
                window_fibers += 1
                if len(_components(s, n)) != 1:
                    beyond_bound.append((s.generators, n))
    assert semigroups == 6964
    assert window_fibers == 158081
    assert mismatches == []
    assert unordered == []
    assert beyond_bound == []


def test_components_are_the_components_of_the_generator_graph_through_genus_10():
    # G_n built from reachability alone: the returned lists must partition
    # its vertices, each list must be connected, no edge may join two lists,
    # and for n > 0 there is one list per R-class of the oracle's fiber
    checked = 0
    for s in enumerate_semigroups(10):
        gens = s.generators
        top = s.frobenius + 2 * gens[-1]
        fibers = fiber_table(gens, top)
        for n in range(top + 1):
            vertices = [i for i, a in enumerate(gens) if naive_member(gens, n - a)]
            edges = {
                (i, j)
                for i in vertices
                for j in vertices
                if i != j and naive_member(gens, n - gens[i] - gens[j])
            }
            components = _components(s, n)
            assert sorted(i for c in components for i in c) == vertices, (s, n)
            label = {i: k for k, c in enumerate(components) for i in c}
            assert all(label[i] == label[j] for i, j in edges), (s, n)
            for component in components:
                reached = {component[0]}
                grew = True
                while grew:
                    grew = False
                    for i, j in edges:
                        if i in reached and j not in reached:
                            reached.add(j)
                            grew = True
                assert reached == set(component), (s, n)
            if n > 0:
                assert len(components) == len(naive_r_classes(fibers[n])), (s, n)
            checked += 1
    assert checked == 21215


# sha256 over every semigroup of genus <= 13, by ascending generators, of
# repr((generators, relations, degrees)) plus a newline, each relation as
# (left coords, right coords, degree); it pins which relations are chosen
# and their order
PRESENTATION_SHA256 = "2b41c40ee6d7f2561441e8afcc490d5218efb51d1ae38585a1009f54937116df"


def test_presentations_through_genus_13_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for s in sorted(enumerate_semigroups(13), key=lambda s: s.generators):
        pres = minimal_presentation(s)
        relations = tuple((r.left.coords, r.right.coords, r.degree) for r in pres.relations)
        digest.update(repr((s.generators, relations, pres.degrees)).encode() + b"\n")
        count += 1
    assert count == 2414
    assert digest.hexdigest() == PRESENTATION_SHA256


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


def test_ci_tree_degrees_match_presentation_degrees():
    # CITree.degrees, read off the gluing tree by theorem, against the
    # measured relation degrees of a minimal presentation
    semigroups = [s for s in enumerate_semigroups(15) if ci_tree(s) is not None]
    semigroups += [
        make_semigroup([a, b]) for a in range(2, 61) for b in range(a + 1, 61) if gcd(a, b) == 1
    ]
    semigroups += [s for s in seeded_gluings() if ci_tree(s) is not None]
    semigroups += [
        make_semigroup([48, 60, 72, 80, 126, 315]),
        make_semigroup([110, 120, 176, 180, 210, 264, 495]),
    ]
    for s in semigroups:
        assert ci_tree(s).degrees == minimal_presentation(s).degrees, s
    # CIs of genus <= 15 (N included), coprime pairs, CI gluings, the two
    # large trees
    assert len(semigroups) == 87 + 1042 + 28 + 2


def test_first_gluing_split_decides_complete_intersection():
    # ci_tree takes only the first split, by the relation count of a gluing
    # (proof at ci_tree); here every split of every semigroup is checked
    # against it, and ci_tree against a backtracking search over all splits
    # whose trees store the degrees of measured minimal presentations, so
    # tree == search(s) also checks the degrees _ci_tree stores
    splits = cache(find_gluings)

    @cache
    def search(s):
        if s.embedding_dim == 1:
            return CITree(s, None, None, None, minimal_presentation(s).degrees)
        for split in splits(s):
            left = search(split.left_quotient)
            right = None if left is None else search(split.right_quotient)
            if right is not None:
                return CITree(s, split, left, right, minimal_presentation(s).degrees)
        return None

    semigroups = list(enumerate_semigroups(15)) + seeded_gluings()
    semigroups += [
        make_semigroup([48, 60, 72, 80, 126, 315]),
        make_semigroup([110, 120, 176, 180, 210, 264, 495]),
    ]
    split_count = several = non_ci_with_split = 0
    for s in semigroups:
        tree = ci_tree(s)
        assert tree == search(s), s
        for split in splits(s):
            # the quotient generators are the scaled-down parts, all minimal
            assert split.left_quotient.generators == tuple(a // split.mu for a in split.left_part)
            assert split.right_quotient.generators == tuple(
                b // split.lam for b in split.right_part
            )
            both_ci = (
                ci_tree(split.left_quotient) is not None
                and ci_tree(split.right_quotient) is not None
            )
            assert both_ci == (tree is not None), (s, split)
        if tree is not None and not tree.is_leaf:
            assert tree.split == splits(s)[0], s
        if tree is None and splits(s):
            non_ci_with_split += 1
        split_count += len(splits(s))
        several += len(splits(s)) > 1
    assert (split_count, several, non_ci_with_split) == (312, 61, 118)


def test_betti_candidates_match_full_scan_on_gluings():
    sizes = set()
    for s in seeded_gluings():
        sizes.add(s.embedding_dim)
        assert betti_elements(s) == betti_by_full_scan(s), s
    assert sizes == {4, 5, 6, 7}


# windows W = F + m + a_e + 1 from dense to far sparser than
# BITS_MAX_DENSITY = 512 bits per residue: W/m runs from 3.5 for <2, 3> to
# 2001 for <2, 2001>; <2, q> for q >= 513 and the last three are sparse
SPARSE = [(2, q) for q in range(3, 2002, 2)] + [(30, 1001), (100, 10001), (17, 10001, 20011)]


def test_betti_routes_agree():
    # the bit scan and the candidate scan, each run directly whatever the
    # window, on every set the route choice could send to either of them
    semigroups = [s for s in enumerate_semigroups(12) if s.embedding_dim >= 2]
    semigroups += [
        make_semigroup([a, b]) for a in range(2, 61) for b in range(a + 1, 61) if gcd(a, b) == 1
    ]
    semigroups += seeded_gluings()
    semigroups += [make_semigroup(list(g)) for g in SPARSE]
    for s in semigroups:
        assert _betti_bits(s) == _betti_candidates(s), s
    # genus <= 12 without N, coprime pairs, gluings, SPARSE
    assert len(semigroups) == 1412 + 1042 + 100 + 1003


def test_betti_routes_match_full_scan_on_sparse_windows():
    # a two-generated <a, b> has the one Betti element ab; where it is
    # cheap enough, betti_by_full_scan, which scans up to
    # F + a_{e-1} + a_e >= max(Ap) + a_e, also pins that no Betti element
    # lies past the bit route's window
    for gens in SPARSE:
        s = make_semigroup(list(gens))
        expected = [gens[0] * gens[1]] if len(gens) == 2 else [50014, 80008, 80044]
        assert _betti_bits(s) == expected, s
    for gens in [(2, q) for q in range(3, 402, 2)] + [(30, 1001), (17, 10001, 20011)]:
        s = make_semigroup(list(gens))
        assert _betti_bits(s) == betti_by_full_scan(s), s


def test_betti_route_choice_follows_window_density(monkeypatch):
    # windows of at most 512 bits per residue take the bit route and wider
    # ones the candidate route; the route not chosen is replaced by a trap,
    # so the bit route never runs on a hostile window such as
    # <1000, 1000001>, W about 10^9.  <200, 201> (W/m = 201) and
    # <2, 511> (511.5) are dense, <2, 513> (513.5) and <700, 701> sparse
    def trap(s):
        raise AssertionError(f"wrong Betti route for {s}")

    dense = [seeded_gluings()[0], make_semigroup([96, 99, 165, 168, 240, 392])]
    dense_pairs = [make_semigroup([200, 201]), make_semigroup([2, 511])]
    sparse = [make_semigroup(gens) for gens in ([2, 513], [700, 701], [1000, 1000001])]
    assert all(_dense_window(s) for s in dense + dense_pairs)
    assert not any(_dense_window(s) for s in sparse)
    expected = [betti_by_full_scan(s) for s in dense] + [[200 * 201], [2 * 511]]
    monkeypatch.setattr(presentations, "_betti_candidates", trap)
    assert [betti_elements(s) for s in dense + dense_pairs] == expected
    monkeypatch.undo()
    monkeypatch.setattr(presentations, "_betti_bits", trap)
    assert [betti_elements(s) for s in sparse] == [[2 * 513], [700 * 701], [1000 * 1000001]]


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
# fibers with two or more R-classes, which random draws rarely reach
@example(gens=[4, 6, 9], n=12)
@example(gens=[4, 6, 9], n=18)
@example(gens=[3, 5, 7], n=10)
@example(gens=[3, 5, 7], n=12)
@example(gens=[3, 5, 7], n=14)
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
