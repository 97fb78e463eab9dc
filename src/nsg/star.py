"""The star condition and the classification of its failures.

A complete intersection semigroup satisfies the star condition when
2 * F(S) > d_max, with d_max the largest minimal relation degree.  The
comparison is kept in doubled integers so no fractions ever appear.  The
verdict is undefined for N (which has no relations) and for semigroups that
are not complete intersections.

Among complete intersections the failures are completely classified: only
the two-generated semigroups <2, q>, <3, 4> and <3, 5> fail.  classify
derives the tag from the generator pattern and then insists the computed
star verdict agrees; any disagreement is a bug and aborts.

check_star_gluing replays the inheritance argument on one concrete gluing:
under either hypothesis branch, every relation degree of the glued semigroup
must stay below twice its Frobenius number.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from .core import NumericalSemigroup
from .errors import ConsistencyError, HypothesesNotMetError, InvalidPairError
from .gluing import extra_degree, glue, is_complete_intersection
from .presentations import relation_degrees


class StarVerdict(str, Enum):
    SATISFIED = "satisfied"
    FAILED = "failed"
    UNDEFINED = "undefined"


class ExceptionClass(str, Enum):
    SATISFIES = "satisfies"
    TWO_GENERATED_WITH_TWO = "two_generated_with_two"
    THREE_FOUR = "three_four"
    THREE_FIVE = "three_five"
    NOT_CI = "not_ci"
    UNDEFINED = "undefined"


EXCEPTION_TAGS = frozenset(
    {
        ExceptionClass.TWO_GENERATED_WITH_TWO,
        ExceptionClass.THREE_FOUR,
        ExceptionClass.THREE_FIVE,
    }
)


def expected_verdict(tag: ExceptionClass) -> StarVerdict:
    """The star verdict a tag promises.

    Exception tags promise failed, satisfies promises satisfied, and
    not_ci and undefined promise undefined.
    """
    if tag in EXCEPTION_TAGS:
        return StarVerdict.FAILED
    if tag is ExceptionClass.SATISFIES:
        return StarVerdict.SATISFIED
    return StarVerdict.UNDEFINED


@dataclass(frozen=True)
class StarReport:
    frobenius: int
    d_max: int | None
    verdict: StarVerdict
    margin: int | None


@dataclass(frozen=True)
class SmallExceptionRecord:
    double_delta: int
    is_exception: bool


class GluingBranch(str, Enum):
    STAR_WITH_SMALL_PARTNER = "star_with_small_partner"
    STAR_WITH_STAR_PARTNER = "star_with_star_partner"
    BOTH_TWO_GENERATED = "both_two_generated"


@dataclass(frozen=True)
class GluingStarReport:
    branch: GluingBranch
    glued: NumericalSemigroup
    frobenius: int
    extra_degree: int
    degree_checks: tuple[tuple[int, bool], ...]
    passed: bool


@dataclass(frozen=True)
class HypothesisReport:
    embedding_dim: int
    is_ci: bool
    star: StarReport
    branch: str
    holds: bool


def star_report(semigroup: NumericalSemigroup) -> StarReport:
    """Verdict on 2 * F(S) > d_max, with the margin 2F - d_max.

    Undefined for N and for non complete intersections; d_max and margin are
    then absent rather than computed from data the condition does not cover.
    """
    if semigroup.embedding_dim == 1 or not is_complete_intersection(semigroup):
        return StarReport(
            frobenius=semigroup.frobenius,
            d_max=None,
            verdict=StarVerdict.UNDEFINED,
            margin=None,
        )
    d_max = max(relation_degrees(semigroup))
    margin = 2 * semigroup.frobenius - d_max
    verdict = StarVerdict.SATISFIED if margin > 0 else StarVerdict.FAILED
    return StarReport(
        frobenius=semigroup.frobenius, d_max=d_max, verdict=verdict, margin=margin
    )


def _pattern_class(semigroup: NumericalSemigroup, ci: bool) -> ExceptionClass:
    """Tag from the generator pattern alone, no star computation."""
    if semigroup.embedding_dim == 1:
        return ExceptionClass.UNDEFINED
    if not ci:
        return ExceptionClass.NOT_CI
    if semigroup.embedding_dim == 2:
        a, b = semigroup.generators
        if a == 2:
            return ExceptionClass.TWO_GENERATED_WITH_TWO
        if (a, b) == (3, 4):
            return ExceptionClass.THREE_FOUR
        if (a, b) == (3, 5):
            return ExceptionClass.THREE_FIVE
    return ExceptionClass.SATISFIES


def classify_exception(semigroup: NumericalSemigroup) -> ExceptionClass:
    """Exception taxonomy tag, with the star verdict double-checked.

    The tag is decided by the generator pattern and complete intersection
    membership alone; the computed star report must then give the verdict
    expected_verdict promises for it.  Disagreement raises ConsistencyError.
    """
    tag = _pattern_class(semigroup, is_complete_intersection(semigroup))
    verdict = star_report(semigroup).verdict
    expected = expected_verdict(tag)
    if verdict is not expected:
        raise ConsistencyError(
            f"{semigroup}: pattern tag {tag.value} expects star verdict "
            f"{expected.value}, computed {verdict.value}"
        )
    return tag


def small_exceptions(m: int, n: int) -> SmallExceptionRecord:
    """Margin record for the two-generated semigroup <m, n>.

    double_delta = m*n - 2m - 2n is twice F(<m, n>) minus the single relation
    degree m*n; it is at least -4, and nonpositive exactly for the exception
    patterns (2 in the pair, or {3,4}, or {3,5}).
    """
    if not (2 <= m < n):
        raise InvalidPairError(f"need 2 <= m < n, got ({m}, {n})")
    if gcd(m, n) != 1:
        raise InvalidPairError(f"gcd({m}, {n}) != 1")
    double_delta = m * n - 2 * m - 2 * n
    return SmallExceptionRecord(double_delta=double_delta, is_exception=double_delta <= 0)


def check_star_gluing(
    left: NumericalSemigroup,
    right: NumericalSemigroup,
    lam: int,
    mu: int,
) -> GluingStarReport:
    """Glue and verify that every relation degree stays below 2 * F.

    Applicable when left satisfies the star condition and right is generated
    by at most two elements or satisfies it too, or when both sides are
    two-generated.  Anything else raises HypothesesNotMetError; gluing
    errors propagate as they are.
    """
    glued = glue(left, right, lam, mu)
    left_star = star_report(left)
    if left_star.verdict is StarVerdict.SATISFIED:
        if right.embedding_dim <= 2:
            branch = GluingBranch.STAR_WITH_SMALL_PARTNER
        elif star_report(right).verdict is StarVerdict.SATISFIED:
            branch = GluingBranch.STAR_WITH_STAR_PARTNER
        else:
            raise HypothesesNotMetError(
                f"{left} satisfies star but {right} neither is small nor satisfies it"
            )
    elif left.embedding_dim == 2 and right.embedding_dim == 2:
        branch = GluingBranch.BOTH_TWO_GENERATED
    else:
        raise HypothesesNotMetError(
            f"no hypothesis branch covers gluing {left} with {right}"
        )
    # both sides are complete intersections on every branch
    d = extra_degree(glued, left, right, lam, mu)
    frob = glued.frobenius
    if frob != d + mu * left.frobenius + lam * right.frobenius:
        raise ConsistencyError(
            f"F({glued}) = {frob} != {d} + {mu}*{left.frobenius} + {lam}*{right.frobenius}"
        )
    checks = tuple((deg, 2 * frob > deg) for deg in relation_degrees(glued))
    return GluingStarReport(
        branch=branch,
        glued=glued,
        frobenius=frob,
        extra_degree=d,
        degree_checks=checks,
        passed=all(ok for _, ok in checks),
    )


def hypotheses_report(semigroup: NumericalSemigroup) -> HypothesisReport:
    """Which hypothesis route covers the semigroup ring, if any.

    Complete intersections with at most two generators qualify outright;
    from three generators on they rest on the star condition, and holds
    says whether it is satisfied.  Non complete intersections fall outside
    the setting entirely.
    """
    ci = is_complete_intersection(semigroup)
    star = star_report(semigroup)
    if not ci:
        branch = "not_complete_intersection"
        holds = False
    elif semigroup.embedding_dim < 3:
        branch = "small_embedding_dimension"
        holds = True
    else:
        branch = "star_condition"
        holds = star.verdict is StarVerdict.SATISFIED
    return HypothesisReport(
        embedding_dim=semigroup.embedding_dim,
        is_ci=ci,
        star=star,
        branch=branch,
        holds=holds,
    )
