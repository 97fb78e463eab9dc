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
    classify_exception,
    enumerate_semigroups,
    hypotheses_report,
    is_complete_intersection,
    make_semigroup,
    small_exceptions,
    star_report,
)


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


def test_check_star_gluing_small_partner_branch():
    report = check_star_gluing(make_semigroup([3, 7]), make_semigroup([1]), 10, 3)
    assert report.branch is GluingBranch.STAR_WITH_SMALL_PARTNER
    assert report.glued.generators == (9, 10, 21)
    assert report.frobenius == 53
    assert report.extra_degree == 30
    assert report.degree_checks == ((30, True), (63, True))
    assert report.passed


def test_check_star_gluing_both_two_generated_branch():
    report = check_star_gluing(make_semigroup([2, 3]), make_semigroup([2, 3]), 4, 5)
    assert report.branch is GluingBranch.BOTH_TWO_GENERATED
    assert report.glued.generators == (8, 10, 12, 15)
    assert report.frobenius == 29
    assert report.extra_degree == 20
    assert report.passed


def test_check_star_gluing_star_partner_branch():
    s = make_semigroup([4, 6, 9])
    report = check_star_gluing(s, s, 8, 13)
    assert report.branch is GluingBranch.STAR_WITH_STAR_PARTNER
    assert report.passed
    assert report.frobenius == report.extra_degree + 13 * 11 + 8 * 11


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
