"""Star condition verdicts, exception taxonomy, and the gluing check."""

from math import gcd

import pytest

from nsg import (
    EXCEPTION_TAGS,
    ExceptionClass,
    GluingBranch,
    HypothesesNotMetError,
    InvalidPairError,
    LambdaNotEligibleError,
    StarVerdict,
    check_star_gluing,
    ci_tree,
    classify_exception,
    enumerate_semigroups,
    hypotheses_report,
    is_complete_intersection,
    make_semigroup,
    small_exceptions,
    star_report,
)

from oracles import naive_frobenius
from test_presentations import seeded_gluings


def test_star_satisfied_golden():
    report = star_report(make_semigroup([4, 6, 9]))
    assert report.verdict is StarVerdict.SATISFIED
    assert report.frobenius == 11
    assert report.d_max == 18
    assert report.margin == 2 * 11 - 18 == 4


def test_star_failed_goldens():
    report = star_report(make_semigroup([3, 5]))
    assert report.verdict is StarVerdict.FAILED
    assert (report.d_max, report.margin) == (15, -1)

    assert star_report(make_semigroup([2, 3])).margin == -4
    report34 = star_report(make_semigroup([3, 4]))
    assert report34.margin == -2
    assert report34.verdict is StarVerdict.FAILED


def test_star_undefined_cases():
    for gens in [(1,), (3, 5, 7), (3, 4, 5)]:
        report = star_report(make_semigroup(list(gens)))
        assert report.verdict is StarVerdict.UNDEFINED
        assert report.d_max is None
        assert report.margin is None


def test_star_more_satisfied_examples():
    for gens, margin in [((5, 8, 12), 14), ((8, 10, 12, 15), 28), ((2, 7), -4)]:
        report = star_report(make_semigroup(list(gens)))
        assert report.margin == margin
        expected = StarVerdict.SATISFIED if margin > 0 else StarVerdict.FAILED
        assert report.verdict is expected


def test_classify_goldens():
    assert classify_exception(make_semigroup([2, 3])) is ExceptionClass.TWO_GENERATED_WITH_TWO
    assert classify_exception(make_semigroup([2, 7])) is ExceptionClass.TWO_GENERATED_WITH_TWO
    assert classify_exception(make_semigroup([3, 4])) is ExceptionClass.THREE_FOUR
    assert classify_exception(make_semigroup([3, 5])) is ExceptionClass.THREE_FIVE
    assert classify_exception(make_semigroup([4, 6, 9])) is ExceptionClass.SATISFIES
    assert classify_exception(make_semigroup([3, 7])) is ExceptionClass.SATISFIES
    assert classify_exception(make_semigroup([3, 5, 7])) is ExceptionClass.NOT_CI
    assert classify_exception(make_semigroup([1])) is ExceptionClass.UNDEFINED


def test_exception_tags_are_the_failures():
    assert EXCEPTION_TAGS == {
        ExceptionClass.TWO_GENERATED_WITH_TWO,
        ExceptionClass.THREE_FOUR,
        ExceptionClass.THREE_FIVE,
    }


def test_small_exceptions_goldens():
    assert small_exceptions(3, 4).double_delta == -2
    assert small_exceptions(3, 4).is_exception
    assert small_exceptions(2, 9).double_delta == -4
    assert small_exceptions(2, 9).is_exception
    assert small_exceptions(3, 7).double_delta == 1
    assert not small_exceptions(3, 7).is_exception
    assert small_exceptions(3, 5).double_delta == -1


def test_small_exceptions_rejects_bad_pairs():
    with pytest.raises(InvalidPairError):
        small_exceptions(4, 2)
    with pytest.raises(InvalidPairError):
        small_exceptions(3, 3)
    with pytest.raises(InvalidPairError):
        small_exceptions(4, 6)
    with pytest.raises(InvalidPairError):
        small_exceptions(1, 5)


def test_small_exceptions_sweep_matches_star_margin():
    # double_delta is exactly the star margin of <m, n>, and the exception
    # patterns are exactly m = 2 or (m, n) in {(3,4), (3,5)}
    for m in range(2, 40):
        for n in range(m + 1, 41):
            if gcd(m, n) != 1:
                continue
            record = small_exceptions(m, n)
            assert record.double_delta >= -4
            report = star_report(make_semigroup([m, n]))
            assert record.double_delta == report.margin
            assert record.is_exception == (report.verdict is StarVerdict.FAILED)
            pattern = m == 2 or (m, n) in ((3, 4), (3, 5))
            assert record.is_exception == pattern


# each branch test also checks F = d + mu*F(left) + lam*F(right), which
# check_star_gluing reports without re-checking it


def test_check_star_gluing_small_partner_branch():
    left, right = make_semigroup([3, 7]), make_semigroup([1])
    report = check_star_gluing(left, right, 10, 3)
    assert report.branch is GluingBranch.STAR_WITH_SMALL_PARTNER
    assert report.glued.generators == (9, 10, 21)
    assert report.frobenius == 53
    assert report.extra_degree == 30
    assert report.degree_checks == ((30, True), (63, True))
    assert report.frobenius == report.extra_degree + 3 * left.frobenius + 10 * right.frobenius
    assert report.passed


def test_check_star_gluing_both_two_generated_branch():
    s = make_semigroup([2, 3])
    report = check_star_gluing(s, s, 4, 5)
    assert report.branch is GluingBranch.BOTH_TWO_GENERATED
    assert report.glued.generators == (8, 10, 12, 15)
    assert report.frobenius == 29
    assert report.extra_degree == 20
    assert report.frobenius == report.extra_degree + 5 * s.frobenius + 4 * s.frobenius
    assert report.passed


def test_check_star_gluing_star_partner_branch():
    s = make_semigroup([4, 6, 9])
    report = check_star_gluing(s, s, 8, 13)
    assert report.branch is GluingBranch.STAR_WITH_STAR_PARTNER
    assert report.passed
    assert report.frobenius == report.extra_degree + 13 * s.frobenius + 8 * s.frobenius


def test_check_star_gluing_rejects_uncovered_inputs():
    with pytest.raises(HypothesesNotMetError):
        # left fails star, right too large for the two-generated branch
        check_star_gluing(make_semigroup([2, 3]), make_semigroup([4, 6, 9]), 5, 8)
    with pytest.raises(HypothesesNotMetError):
        # left satisfies star, right neither small nor satisfying
        check_star_gluing(make_semigroup([4, 6, 9]), make_semigroup([3, 5, 7]), 10, 9)


def test_check_star_gluing_propagates_gluing_errors():
    with pytest.raises(LambdaNotEligibleError):
        check_star_gluing(make_semigroup([2, 3]), make_semigroup([2, 3]), 2, 5)


def test_hypotheses_report_branches():
    report = hypotheses_report(make_semigroup([4, 6, 9]))
    assert (report.branch, report.holds) == ("star_condition", True)
    assert report.is_ci and report.embedding_dim == 3

    report = hypotheses_report(make_semigroup([2, 3]))
    assert (report.branch, report.holds) == ("small_embedding_dimension", True)

    report = hypotheses_report(make_semigroup([1]))
    assert (report.branch, report.holds) == ("small_embedding_dimension", True)

    report = hypotheses_report(make_semigroup([3, 5, 7]))
    assert (report.branch, report.holds) == ("not_complete_intersection", False)
    assert report.star.verdict is StarVerdict.UNDEFINED

    report = hypotheses_report(make_semigroup([8, 10, 12, 15]))
    assert (report.branch, report.holds) == ("star_condition", True)

    # no complete intersection with three or more generators fails star
    cis = 0
    for s in enumerate_semigroups(12):
        if s.embedding_dim >= 3 and is_complete_intersection(s):
            cis += 1
            report = hypotheses_report(s)
            assert (report.branch, report.holds) == ("star_condition", True), s
    assert cis == 28


def _margin_by_the_recursion(tree):
    """margin(S) of a tree node from its sides' margins, as in the star
    module docstring, checking each fact and bound its proof uses; F from
    the brute-force oracle with F(N) = -1, and None for N."""
    if tree.is_leaf:
        return None
    mu, lam = tree.split.mu, tree.split.lam
    s1, s2 = tree.left.semigroup, tree.right.semigroup
    margin1 = _margin_by_the_recursion(tree.left)
    margin2 = _margin_by_the_recursion(tree.right)
    f1, f2 = naive_frobenius(s1.generators), naive_frobenius(s2.generators)
    # facts (b) and (d) of the proof
    assert lam >= 2 * s1.multiplicity and mu >= 2 * s2.multiplicity
    assert gcd(lam, mu) == 1
    terms = [lam * mu + 2 * mu * f1 + 2 * lam * f2]
    for side, margin, f, scale, other_scale, other_f in (
        (s1, margin1, f1, mu, lam, f2),
        (s2, margin2, f2, lam, mu, f1),
    ):
        if side.embedding_dim == 1:
            assert margin is None and f == -1
            continue
        assert f >= 1 and margin >= -4  # facts (a) and (c)
        terms.append(scale * margin + 2 * other_scale * (scale + other_f))
    s = tree.semigroup
    if s.embedding_dim == 2:
        a, b = s.generators
        assert terms == [(a - 2) * (b - 2) - 4]
    else:
        # the theorem: T0 >= 4, and each side's term >= 2
        assert terms[0] >= 4 and min(terms[1:]) >= 2, (s, terms)
    assert min(terms) == star_report(s).margin, s
    return min(terms)


def test_star_margin_recursion_and_its_bounds_on_every_tree_node():
    # the e >= 3 theorem of the star module docstring, term by term, at
    # every node of every tree: the CIs of genus <= 15 and seeded gluings
    cis = [
        s for s in enumerate_semigroups(15)
        if s.embedding_dim >= 2 and ci_tree(s) is not None
    ]
    assert len(cis) == 86
    for s in cis + [s for s in seeded_gluings() if ci_tree(s) is not None]:
        _margin_by_the_recursion(ci_tree(s))
    # the bound is sharp: through genus 15 the least e >= 3 margin is 2,
    # reached at <4,5,6> = 2*<2,3> + 5*N only
    margins = {s.generators: star_report(s).margin for s in cis if s.embedding_dim >= 3}
    assert min(margins.values()) == 2
    assert [g for g, margin in margins.items() if margin == 2] == [(4, 5, 6)]
