"""Gluings, CI certificates, the a-invariant, and the three-generator family."""

import sys
import weakref
from collections import Counter
from itertools import combinations
from math import gcd

import pytest

from nsg import (
    ConsistencyError,
    FamilyConstraintError,
    LambdaNotEligibleError,
    MuNotEligibleError,
    NotCompleteIntersectionError,
    NotCoprimeError,
    a_invariant,
    ci_tree,
    enumerate_semigroups,
    extra_degree,
    find_gluings,
    glue,
    is_complete_intersection,
    make_semigroup,
    minimal_presentation,
    relation_degrees,
    three_gen_family,
)
import nsg.gluing as gluing
from nsg.census import ENV_WORK_CEILING
from nsg.core import _build
from nsg.gluing import _ci_tree

from oracles import hilbert_identity_holds, naive_frobenius, naive_genus, naive_member
from test_presentations import seeded_gluings


def test_glue_golden_two_copies_of_two_three():
    left = make_semigroup([2, 3])
    right = make_semigroup([2, 3])
    glued = glue(left, right, 4, 5)
    assert glued.generators == (8, 10, 12, 15)
    assert glued.frobenius == 29
    assert extra_degree(glued, left, right, 4, 5) == 20
    assert relation_degrees(glued) == (20, 24, 30)
    # the extra degree belongs to one gluing; another semigroup is refused
    with pytest.raises(ConsistencyError, match="is not the gluing"):
        extra_degree(make_semigroup([4, 6, 9]), left, right, 4, 5)


def test_glue_golden_with_naturals():
    left = make_semigroup([3, 7])
    right = make_semigroup([1])
    glued = glue(left, right, 10, 3)
    assert glued.generators == (9, 10, 21)
    assert glued.frobenius == 53
    d = extra_degree(glued, left, right, 10, 3)
    assert d == 30
    assert glued.frobenius == d + 3 * left.frobenius + 10 * right.frobenius
    assert relation_degrees(glued) == (30, 63)


def test_glue_rejects_ineligible_lambda():
    s = make_semigroup([2, 3])
    with pytest.raises(LambdaNotEligibleError):
        glue(s, s, 2, 5)  # a generator
    with pytest.raises(LambdaNotEligibleError):
        glue(s, s, 1, 5)  # a unit
    with pytest.raises(LambdaNotEligibleError):
        glue(make_semigroup([3, 7]), s, 4, 5)  # not an element at all


def _first_non_generators(semigroup, count=3):
    """The count smallest elements >= 2 of the semigroup that are no minimal generator."""
    found, n = [], 2
    while len(found) < count:
        if n in semigroup and n not in semigroup.generators:
            found.append(n)
        n += 1
    return found


def test_glue_by_the_apery_lemma_matches_make_semigroup():
    # every gluing of two semigroups of genus <= 4, N among them, with lambda
    # and mu among the first three non-generator elements of their sides;
    # glue sums its table by the lemma, make_semigroup runs the round robin
    sides = list(enumerate_semigroups(4))
    natural = make_semigroup([1])
    branches, with_natural = Counter(), Counter()
    for left in sides:
        for right in sides:
            for lam in _first_non_generators(left):
                for mu in _first_non_generators(right):
                    if gcd(lam, mu) != 1:
                        continue
                    scaled = [mu * a for a in left.generators] + [
                        lam * b for b in right.generators
                    ]
                    glued = glue(left, right, lam, mu)
                    expected = make_semigroup(scaled)
                    assert glued.generators == expected.generators == tuple(sorted(scaled))
                    assert glued.apery.entries == expected.apery.entries
                    assert glued.frobenius == expected.frobenius == naive_frobenius(scaled)
                    assert glued.genus == expected.genus
                    assert glued == expected
                    if glued.multiplicity == mu * left.multiplicity:
                        branches["left"] += 1
                    if glued.multiplicity == lam * right.multiplicity:
                        branches["right"] += 1
                    with_natural["left"] += left == natural
                    with_natural["right"] += right == natural
    assert sum(branches.values()) == 786
    assert branches["left"] > 0 and branches["right"] > 0
    assert with_natural["left"] > 0 and with_natural["right"] > 0


def test_glue_rejects_ineligible_mu():
    s = make_semigroup([2, 3])
    with pytest.raises(MuNotEligibleError):
        glue(s, s, 5, 3)
    with pytest.raises(MuNotEligibleError):
        glue(s, make_semigroup([4, 6, 9]), 5, 6)


def test_glue_rejects_common_factor():
    s = make_semigroup([2, 3])
    with pytest.raises(NotCoprimeError):
        glue(s, s, 4, 6)


def test_a_glued_multiplicity_past_sys_maxsize_is_refused_before_any_table():
    # no list holds m entries; the smaller scaled multiplicity is m whichever
    # side it comes from, and the message names the gluing as glue was called
    left, right = make_semigroup([3, 5]), make_semigroup([4, 6, 9])
    lam, mu = 10**20, 10**22 + 1
    m = 4 * lam
    for args, written in (
        ((left, right, lam, mu), f"{mu}*<3,5> + {lam}*<4,6,9>"),
        ((right, left, mu, lam), f"{lam}*<4,6,9> + {mu}*<3,5>"),
    ):
        with pytest.raises(ValueError) as raised:
            glue(*args)
        assert str(raised.value) == (
            f"cannot glue {written}: m = {m} exceeds sys.maxsize = {sys.maxsize}"
        )


def test_find_gluings_flagship():
    splits = find_gluings(make_semigroup([4, 6, 9]))
    assert [(s.left_part, s.right_part) for s in splits] == [
        ((4,), (6, 9)),
        ((4, 6), (9,)),
    ]
    first = splits[0]
    assert (first.mu, first.lam) == (4, 3)
    assert first.left_quotient.generators == (1,)
    assert first.right_quotient.generators == (2, 3)


def test_find_gluings_four_generators():
    splits = find_gluings(make_semigroup([8, 10, 12, 15]))
    assert [(s.left_part, s.right_part) for s in splits] == [
        ((8, 12), (10, 15)),
        ((8, 10, 12), (15,)),
    ]
    assert (splits[0].mu, splits[0].lam) == (4, 5)
    assert (splits[1].mu, splits[1].lam) == (2, 15)


def test_find_gluings_none_for_non_ci():
    assert find_gluings(make_semigroup([3, 5, 7])) == []
    assert find_gluings(make_semigroup([1])) == []


def _sum_of_two_nonzero(generators, x):
    # x = a + y with a a listed generator and y a nonzero member: exactly the
    # members x >= 2 of <generators> that are no minimal generator
    return any(x - a > 0 and naive_member(generators, x - a) for a in generators)


def _partition_splits(gens):
    # the partition search: every split with gens[0] on the left, in
    # combinations order, decided by reachability
    found = []
    for k in range(len(gens) - 1):
        for chosen in combinations(gens[1:], k):
            left = (gens[0], *chosen)
            right = tuple(b for b in gens[1:] if b not in chosen)
            mu, lam = gcd(*left), gcd(*right)
            if mu < 2 or lam < 2 or gcd(mu, lam) != 1:
                continue
            if _sum_of_two_nonzero([a // mu for a in left], lam) and _sum_of_two_nonzero(
                [b // lam for b in right], mu
            ):
                found.append((left, right, mu, lam))
    return found


def test_divisor_class_splits_match_the_partition_search():
    # _splits inspects only the classes gens & dZ for d | m (proof at
    # _splits); the search over all partitions finds the same splits in the
    # same order, and each split is the pair of classes of its gcds
    semigroups = list(enumerate_semigroups(15)) + seeded_gluings()
    semigroups += [
        make_semigroup([48, 60, 72, 80, 126, 315]),
        make_semigroup([110, 120, 176, 180, 210, 264, 495]),
    ]
    split_count = several = with_split = 0
    for s in semigroups:
        gens = s.generators
        found = [(x.left_part, x.right_part, x.mu, x.lam) for x in find_gluings(s)]
        assert found == _partition_splits(gens), gens
        for left, right, mu, lam in found:
            assert left == tuple(a for a in gens if a % mu == 0), gens
            assert right == tuple(b for b in gens if b % lam == 0), gens
        split_count += len(found)
        several += len(found) > 1
        with_split += bool(found)
    assert (len(semigroups), split_count, several, with_split) == (7066, 312, 61, 234)


def test_splits_reconstruct_the_semigroup():
    for gens in [(4, 6, 9), (8, 10, 12, 15), (4, 5, 6), (9, 10, 21)]:
        s = make_semigroup(list(gens))
        for split in find_gluings(s):
            rebuilt = glue(
                split.left_quotient, split.right_quotient, split.lam, split.mu
            )
            assert rebuilt == s


def test_ci_tree_golden():
    tree = ci_tree(make_semigroup([8, 10, 12, 15]))
    assert tree.to_text() == "(4*(2*N + 3*N : d=6) + 5*(2*N + 3*N : d=6) : d=20)"
    assert tree.extra_degree == 20
    assert tree.split.left_part == (8, 12)
    record = tree.to_record()
    assert record["generators"] == [8, 10, 12, 15]
    assert record["left"]["generators"] == [2, 3]
    assert record["left"]["left"] == {"leaf": True, "generators": [1]}


def test_ci_tree_builds_only_the_first_split():
    # with both caches cold, ci_tree builds the quotients of the first split
    # at each node of the tree and nothing else: on these trees the integer
    # tests of _splits discard every candidate before it, so the builds are
    # exactly the distinct semigroups of the tree below its root
    for gens, builds in [
        ([110, 120, 176, 180, 210, 264, 495], 5),
        ([48, 60, 72, 80, 126, 315], 5),
    ]:
        s = make_semigroup(gens)
        _build.cache_clear()
        _ci_tree.cache_clear()
        tree = ci_tree(s)
        assert tree is not None
        assert _build.cache_info().misses == builds, gens
        below, pending = set(), [tree.left, tree.right]
        while pending:
            node = pending.pop()
            below.add(node.semigroup.generators)
            if not node.is_leaf:
                pending += [node.left, node.right]
        assert len(below) == builds, gens


def test_split_quotients_are_the_objects_make_semigroup_returns():
    # _splits hands its quotients to _build directly: each must come back
    # from make_semigroup as the same object, so its generator tuple is the
    # cache key and its generators are minimal; both caches start cold, so
    # no tree outlives the build of its quotients
    _build.cache_clear()
    _ci_tree.cache_clear()
    quotients = 0
    for s in enumerate_semigroups(12):
        pending = [ci_tree(s)]
        while pending:
            node = pending.pop()
            if node is None or node.is_leaf:
                continue
            for q in (node.split.left_quotient, node.split.right_quotient):
                assert make_semigroup(q.generators) is q, (s, q)
                quotients += 1
            pending += [node.left, node.right]
    assert quotients == 162


def test_ci_tree_rejects_by_the_prefilter_before_its_cache(monkeypatch):
    # N, the semigroups with m < 2^(e-1) and the non-symmetric ones,
    # 2g != F + 1, are settled by ci_tree itself; only the rest reach the
    # cached search, and hence its cache
    searched = []
    real = gluing._ci_tree
    monkeypatch.setattr(gluing, "_ci_tree", lambda s: searched.append(s) or real(s))
    swept = list(enumerate_semigroups(12))
    below, asymmetric, candidates = [], [], []
    for s in swept[1:]:
        if s.multiplicity < 2 ** (s.embedding_dim - 1):
            below.append(s)
        elif 2 * s.genus != s.frobenius + 1:
            asymmetric.append(s)
        else:
            candidates.append(s)
    assert swept[0].generators == (1,)
    assert (len(swept), len(below), len(asymmetric), len(candidates)) == (1413, 1305, 53, 54)
    # some non-symmetric ones have a split, which the search would build
    assert any(find_gluings(s) for s in asymmetric)
    for s in below + asymmetric:
        assert ci_tree(s) is None
    assert ci_tree(make_semigroup([1])).is_leaf
    assert searched == []
    for s in swept:
        ci_tree(s)
    # the quotients a search recurses into are swept too, so the searched
    # semigroups are exactly the candidates, each symmetric
    assert set(searched) == set(candidates)
    assert all(2 * s.genus == s.frobenius + 1 for s in searched)
    # a rejected semigroup of genus 13, built outside make_semigroup's cache,
    # is kept by no cache
    loose = _build.__wrapped__((10, 11, 12, 13, 14, 15))
    assert loose.genus == 13
    kept = weakref.ref(loose)
    assert ci_tree(loose) is None
    del loose
    assert kept() is None


# the two ci-tree inputs of the benchmark's large-single ladder
LADDER_CI_TREES = ((48, 60, 72, 80, 126, 315), (110, 120, 176, 180, 210, 264, 495))


def test_every_complete_intersection_is_symmetric():
    # a CI has 2g = F + 1 (proof at ci_tree), here with CI decided by the
    # relation count of the minimal presentation instead of by ci_tree, and
    # g and F from the oracle.  No semigroup below the multiplicity bound
    # is a CI (test_multiplicity_prefilter_rejects_only_non_ci_through_genus_15),
    # so of genus <= 15 only the rest are presented
    semigroups = [
        s for s in enumerate_semigroups(15) if s.multiplicity >= 2 ** (s.embedding_dim - 1)
    ]
    semigroups += seeded_gluings()
    semigroups += [make_semigroup(list(gens)) for gens in LADDER_CI_TREES]
    cis = [
        s.generators for s in semigroups
        if len(minimal_presentation(s).relations) == s.embedding_dim - 1
    ]
    for gens in cis:
        assert 2 * naive_genus(gens) == naive_frobenius(gens) + 1, gens
    # CIs of genus <= 15 (N included), CI gluings, the two ladder inputs
    assert len(cis) == 87 + 28 + 2


def test_ci_tree_degrees_satisfy_the_hilbert_series_identity(monkeypatch):
    # prod(1 - t^a) * H_S(t) = prod(1 - t^d) determines the degrees d, and
    # the oracle computes H_S from its own Apery sets
    monkeypatch.setenv(ENV_WORK_CEILING, "20")
    cis = [s for s in enumerate_semigroups(20) if ci_tree(s) is not None]
    cis += [s for s in seeded_gluings() if ci_tree(s) is not None]
    for s in cis:
        assert hilbert_identity_holds(s.generators, ci_tree(s).degrees), s
    # CIs of genus <= 20 (N included), CI gluings
    assert len(cis) == 174 + 28


def test_ci_tree_degrees_are_computed_once_per_node():
    tree = ci_tree(make_semigroup([8, 10, 12, 15]))
    assert tree.degrees == (20, 24, 30)
    assert tree.degrees is tree.degrees
    assert tree.left.degrees is tree.left.degrees


def test_ci_tree_leaf_and_absence():
    leaf = ci_tree(make_semigroup([1]))
    assert leaf.is_leaf
    assert leaf.to_text() == "N"
    assert (leaf.extra_degree, leaf.degrees) == (None, ())
    assert ci_tree(make_semigroup([3, 5, 7])) is None


def test_ci_tree_three_generators():
    tree = ci_tree(make_semigroup([4, 5, 6]))
    assert tree.to_text() == "(2*(2*N + 3*N : d=6) + 5*N : d=10)"


def test_multiplicity_prefilter_rejects_only_non_ci_through_genus_15():
    # ci_tree answers None for m < 2^(e-1) without looking for splits; the
    # relation count of the minimal presentation must agree it is no CI
    below = 0
    for s in enumerate_semigroups(15):
        if s.multiplicity < 2 ** (s.embedding_dim - 1):
            below += 1
            assert len(minimal_presentation(s).relations) != s.embedding_dim - 1, s
            assert ci_tree(s) is None
    assert below == 6727


def test_is_complete_intersection_goldens():
    assert is_complete_intersection(make_semigroup([1]))
    assert is_complete_intersection(make_semigroup([2, 3]))
    assert is_complete_intersection(make_semigroup([4, 6, 9]))
    assert is_complete_intersection(make_semigroup([4, 5, 6]))
    assert is_complete_intersection(make_semigroup([8, 10, 12, 15]))
    assert not is_complete_intersection(make_semigroup([3, 5, 7]))
    assert not is_complete_intersection(make_semigroup([3, 4, 5]))


def test_a_invariant_equals_frobenius_on_goldens():
    for gens in [(1,), (2, 3), (4, 6, 9), (5, 8, 12), (8, 10, 12, 15)]:
        s = make_semigroup(list(gens))
        assert a_invariant(s) == s.frobenius


def test_a_invariant_values():
    assert a_invariant(make_semigroup([2, 3])) == 1
    assert a_invariant(make_semigroup([4, 6, 9])) == 30 - 19 == 11


def test_a_invariant_requires_ci():
    with pytest.raises(NotCompleteIntersectionError):
        a_invariant(make_semigroup([3, 5, 7]))


def test_degree_multiset_additivity():
    # degrees(glued) as a multiset is mu*degrees(left) + lam*degrees(right)
    # plus the one extra degree, and F obeys the matching identity
    cases = [
        ((2, 3), (2, 3), 4, 5),
        ((2, 3), (2, 3), 6, 5),
        ((3, 7), (1,), 10, 3),
        ((2, 3), (1,), 9, 2),
        ((4, 6, 9), (4, 6, 9), 8, 13),
        ((2, 5), (3, 4), 12, 7),
    ]
    for left_gens, right_gens, lam, mu in cases:
        left = make_semigroup(list(left_gens))
        right = make_semigroup(list(right_gens))
        glued = glue(left, right, lam, mu)
        d = extra_degree(glued, left, right, lam, mu)
        assert d >= lam * mu and d % (lam * mu) == 0
        expected = Counter(mu * x for x in relation_degrees(left))
        expected += Counter(lam * x for x in relation_degrees(right))
        expected[d] += 1
        assert Counter(relation_degrees(glued)) == expected
        assert glued.frobenius == d + mu * left.frobenius + lam * right.frobenius
        assert glued.frobenius == naive_frobenius(glued.generators)


def test_glued_generators_are_the_scaled_ones():
    left = make_semigroup([2, 5])
    right = make_semigroup([3, 4])
    glued = glue(left, right, 12, 7)
    assert glued.generators == tuple(sorted([7 * 2, 7 * 5, 12 * 3, 12 * 4]))


def test_three_gen_family_golden():
    s = three_gen_family(2, 3, 4, 1, 1)
    assert s.generators == (5, 8, 12)
    assert s.frobenius == 19
    assert is_complete_intersection(s)
    assert a_invariant(s) == 19


def test_three_gen_family_members_are_ci():
    for params in [(2, 3, 4, 1, 1), (3, 4, 2, 1, 1), (2, 5, 3, 2, 0), (3, 5, 2, 1, 2)]:
        s = three_gen_family(*params)
        assert s.embedding_dim == 3
        assert is_complete_intersection(s)
        assert a_invariant(s) == s.frobenius


def test_three_gen_family_lists_exactly_its_minimal_generators():
    # every admissible (m1, m2, a, b, c) with m1, m2 <= 7, a <= 6, b, c <= 4;
    # minimality by brute force: no generator is x*y + k*z for the other two
    def combination(n, y, z):
        return any((n - x * y) % z == 0 for x in range(n // y + 1))

    members = 0
    for m1 in range(2, 8):
        for m2 in range(2, 8):
            for a in range(2, 7):
                for b in range(5):
                    for c in range(5):
                        third = b * m1 + c * m2
                        if gcd(m1, m2) != 1 or b + c < 2 or gcd(a, third) != 1:
                            continue
                        listed = (a * m1, a * m2, third)
                        assert three_gen_family(m1, m2, a, b, c).generators == tuple(
                            sorted(listed)
                        )
                        for i, n in enumerate(listed):
                            y, z = listed[i - 1], listed[i - 2]
                            assert not combination(n, y, z), (m1, m2, a, b, c)
                        members += 1
    assert members == 1246


def test_three_gen_family_constraints():
    with pytest.raises(FamilyConstraintError):
        three_gen_family(1, 3, 4, 1, 1)  # m1 too small
    with pytest.raises(FamilyConstraintError):
        three_gen_family(2, 4, 3, 1, 1)  # m1, m2 not coprime
    with pytest.raises(FamilyConstraintError):
        three_gen_family(2, 3, 1, 1, 1)  # a too small
    with pytest.raises(FamilyConstraintError):
        three_gen_family(2, 3, 4, 1, 0)  # b + c < 2
    with pytest.raises(FamilyConstraintError):
        three_gen_family(2, 3, 5, 1, 1)  # gcd(a, b*m1 + c*m2) = 5


def test_ci_tree_is_cached_and_deterministic():
    s1 = make_semigroup([8, 10, 12, 15])
    s2 = make_semigroup([15, 8, 12, 10])
    assert ci_tree(s1) is ci_tree(s2)
